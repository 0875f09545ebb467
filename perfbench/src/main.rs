//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--bin-dir DIR] [--profile full|tiny]
//! ```
//!
//! `perfbench/run.py` builds the program and this binary, then calls it
//! with `--bin-dir` pointing at the built `serve` and `scenario`. The
//! last line of standard output is the JSON result; the lines above it
//! are the stamp, every metric with its unit and sample count, the
//! error rate, and notes. Exits 1 when any check failed. Scratch files
//! (checkpoints, the `scenario` binary's input and output) go to
//! `perfbench/.work`, so run it from the repository root.

use ddpm_perfbench::{report, run, Options, Profile, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <table3-torus-flood|adaptive-auth-checkpoint|\
serve-identify-mix> --seed <n> --seconds <s> --trace <0|1> [--bin-dir DIR] \
[--profile full|tiny]";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut profile = Profile::Full;
    let mut bin_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            "--profile" => profile = Profile::parse(&value).ok_or_else(|| bad(&"full or tiny"))?,
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        profile,
        bin_dir,
        // Checkpoints and the `scenario` binary's files stay inside the
        // checkout the benchmark runs from (ignored by git).
        work: PathBuf::from("perfbench/.work"),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let stamp = report::stamp(&opts, &report);
    for line in report.lines(&stamp) {
        println!("{line}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
