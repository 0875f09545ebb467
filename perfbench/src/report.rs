//! Metric catalogue, result stamp and output.
//!
//! The catalogue below is the benchmark's contract: `BENCHMARK.json`
//! lists the same names and units (a unit test holds the two together).

use crate::gate::Gate;
use crate::{Options, Workload};
use serde_json::{json, Map, Value};
use std::path::Path;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_hops_per_s", "1/s"),
    ("sim_pps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ingest_pps", "1/s"),
    ("identify_p50_ms", "ms"),
    ("identify_p90_ms", "ms"),
    ("inject_p50_ms", "ms"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("world.parse_ms", "ms"),
    ("world.build_ms", "ms"),
    ("world.step_busy_s", "s"),
    ("world.step_p50_ms", "ms"),
    ("world.step_p99_ms", "ms"),
    ("world.identify_p50_us", "us"),
    ("world.identify_ns_per_delivered", "ns"),
    ("world.inject_p50_us", "us"),
    ("world.outcome_s", "s"),
    ("sim.hops", "count"),
    ("sim.injected", "count"),
    ("sim.delivered", "count"),
    ("sim.dropped_ttl", "count"),
    ("sim.dropped_blocked", "count"),
    ("sim.end_cycle", "cycles"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.ns_per_hop", "ns"),
    ("sim.self_ns_per_hop", "ns"),
    ("sim.peak_arena_bytes", "bytes"),
    ("sim.port_bytes", "bytes"),
    ("routing.ns_per_decision", "ns"),
    ("routing.candidates_per_decision", "count"),
    ("topology.ns_per_coord", "ns"),
    ("topology.ns_per_neighbor", "ns"),
    ("core.marker_ns_per_hop", "ns"),
    ("core.collector_ns_per_pkt", "ns"),
    ("core.attribute_us", "us"),
    ("core.rejected", "count"),
    ("checkpoint.snapshot_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.store_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("proto.parse_us", "us"),
    ("serve.info_rtt_ms", "ms"),
    ("serve.identify_wait_ms", "ms"),
    ("closure.unexplained_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

/// A finished run: metrics, the correctness tally and notes.
pub struct Report {
    /// Which workload ran.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Values in catalogue order of insertion.
    pub metrics: Vec<Metric>,
    /// Correctness tally.
    pub gate: Gate,
    /// Human-readable findings printed above the result.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new(workload: Workload, trace: bool) -> Self {
        Self {
            workload,
            trace,
            metrics: Vec::new(),
            gate: Gate::default(),
            notes: Vec::new(),
        }
    }

    /// The catalogue this report must fill.
    #[must_use]
    pub fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records `name` (which must be in the catalogue) with `samples`
    /// behind it.
    ///
    /// # Panics
    /// On a name outside the catalogue: a bug in this benchmark.
    pub fn put(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        let unit = self
            .catalogue()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every catalogue metric present and finite, and no check failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate.failed() == 0 && self.missing().is_empty()
    }

    /// Catalogue metrics with no finite value.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalogue()
            .iter()
            .filter(|(n, _)| {
                !self
                    .metrics
                    .iter()
                    .any(|m| m.name == *n && m.value.is_finite())
            })
            .map(|(n, _)| *n)
            .collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, unit) in self.catalogue() {
            let found = self.metrics.iter().find(|m| m.name == *name);
            if let Some(m) = found.filter(|m| m.value.is_finite()) {
                metrics.insert((*name).into(), json!({"value": m.value, "unit": *unit}));
            }
        }
        let missing = self.missing().len() as u64;
        json!({
            "correct": self.correct(),
            "attempted": self.gate.attempted().max(1),
            "failed": self.gate.failed() + missing,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    /// The human-readable lines printed above the result line.
    #[must_use]
    pub fn lines(&self, stamp: &Value) -> Vec<String> {
        let mut out = vec![format!("stamp {stamp}")];
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            out.push(format!("{:<34} {:>16.6} {}{n}", m.name, m.value, m.unit));
        }
        let attempted = self.gate.attempted().max(1);
        out.push(format!(
            "{:<34} {:>16.6} ratio  ({} failed of {} attempted)",
            "error_rate",
            self.gate.failed() as f64 / attempted as f64,
            self.gate.failed(),
            attempted,
        ));
        out.extend(self.notes.iter().cloned());
        for f in self.gate.failures() {
            out.push(format!("FAILED: {f}"));
        }
        for m in self.missing() {
            out.push(format!("FAILED: metric {m} was not measured"));
        }
        out
    }
}

/// The result stamp: what produced these numbers. Runs whose stamps
/// differ in anything but the seed measure different things.
#[must_use]
pub fn stamp(opts: &Options, report: &Report) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let samples: Map = report
        .metrics
        .iter()
        .filter_map(|m| m.samples.map(|n| (m.name.to_string(), json!(n))))
        .fold(Map::new(), |mut acc, (k, v)| {
            acc.insert(k, v);
            acc
        });
    json!({
        "workload": report.workload.name(),
        "seed": opts.seed,
        "profile": opts.profile.name(),
        "trace": report.trace,
        "seconds": opts.seconds,
        "nproc": nproc,
        "git_rev": git_rev(Path::new(".git")),
        "build": build_id(opts.bin_dir.as_deref()),
        "samples": Value::Object(samples),
    })
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_rev(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(name)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a of the program binaries under test (`serve`, `scenario`), so
/// runs without git still say which build they measured.
fn build_id(bin: Option<&Path>) -> String {
    let Some(bin) = bin else {
        return "in-process".into();
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for exe in ["serve", "scenario"] {
        let Ok(bytes) = std::fs::read(bin.join(exe)) else {
            return "unknown".into();
        };
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
        v[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(Workload::Table3, false);
        for (name, _) in END_TO_END {
            r.put(name, 1.5, None);
        }
        r.gate.check(true, String::new);
        let v: Value = serde_json::from_str(&r.result_line()).expect("json");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["metrics"]["wall_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["wall_s"]["value"].as_f64(), Some(1.5));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_a_failure() {
        let mut r = Report::new(Workload::Table3, false);
        for (name, _) in END_TO_END {
            r.put(name, 1.0, None);
        }
        r.put("wall_s", f64::NAN, None);
        assert!(!r.correct());
        assert_eq!(r.missing(), ["wall_s"]);
    }
}
