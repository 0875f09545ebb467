//! The two scenario workloads: a generated scenario JSON parsed with
//! `ScenarioConfig::from_json`, built with `ScenarioWorld::build`, and
//! advanced in bounded strides with `ScenarioWorld::step`, exactly as a
//! service tenant is.

use crate::gate::Gate;
use crate::gen::{self, Scenario};
use crate::layers::{self, CheckpointTimes};
use crate::{Options, Profile, Workload};
use ddpm_core::build_scheme_with;
use ddpm_net::{Packet, TrafficClass};
use ddpm_serve::scenario::{AttackSpec, ScenarioConfig};
use ddpm_serve::ScenarioWorld;
use ddpm_sim::SimStats;
use ddpm_topology::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How the stride loop drives one workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Cycles per `step` call.
    pub stride: u64,
    /// Call `identify` after every stride (online attribution).
    pub identify_each_stride: bool,
    /// Cycles between `checkpoint_now` calls.
    pub checkpoint_every: Option<u64>,
    /// Extra `identify` calls on the finished world, after the wall
    /// clock stops, so the latency percentiles have samples.
    pub final_identifies: usize,
    /// Cycle after which a traced run without a checkpoint cadence
    /// passes once through the checkpoint layer.
    pub probe_cycle: u64,
}

/// The stride-loop plan of a scenario workload.
#[must_use]
pub fn plan(workload: Workload, profile: Profile) -> Plan {
    match (workload, profile) {
        (Workload::Table3, Profile::Full) => Plan {
            stride: 4096,
            identify_each_stride: false,
            checkpoint_every: None,
            final_identifies: 24,
            probe_cycle: 128_000,
        },
        (Workload::Table3, Profile::Tiny) => Plan {
            stride: 256,
            identify_each_stride: false,
            checkpoint_every: None,
            final_identifies: 4,
            probe_cycle: 1_000,
        },
        (_, Profile::Full) => Plan {
            stride: 1000,
            identify_each_stride: true,
            checkpoint_every: Some(5000),
            final_identifies: 0,
            probe_cycle: 10_000,
        },
        (_, Profile::Tiny) => Plan {
            stride: 200,
            identify_each_stride: true,
            checkpoint_every: Some(400),
            final_identifies: 0,
            probe_cycle: 800,
        },
    }
}

/// The generated scenario of a scenario workload; `work` holds its
/// checkpoint directory.
#[must_use]
pub fn scenario(workload: Workload, seed: u64, profile: Profile, work: &Path) -> Scenario {
    match workload {
        Workload::Table3 => gen::table3(seed, profile),
        _ => gen::adaptive_auth(seed, profile, &ckpt_dir(work).display().to_string()),
    }
}

/// Scenarios an untraced run cycles through, one per sub-seed of the
/// benchmark seed. A run ends only after a whole cycle.
pub const SUB_SCENARIOS: usize = 5;

/// Sub-seed `i` of `seed`; distinct seeds share none.
#[must_use]
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SCENARIOS as u64)
        .wrapping_add(i as u64)
}

/// Seed of the scenario whose fresh world the `n`-th inject probe of a
/// run lands in. Inject cost differs from world to world (near 4 µs in
/// some, 6 µs in others), so each probe takes a world of its own rather
/// than one of the run's sub-scenarios, and a run's figure averages over
/// as many worlds as it has iterations.
#[must_use]
pub fn probe_seed(seed: u64, n: usize) -> u64 {
    SmallRng::seed_from_u64(seed ^ (n as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).gen()
}

/// The [`SUB_SCENARIOS`] generated scenarios of a scenario workload.
/// The first is the one a traced run replays.
#[must_use]
pub fn scenarios(workload: Workload, seed: u64, profile: Profile, work: &Path) -> Vec<Scenario> {
    (0..SUB_SCENARIOS)
        .map(|i| scenario(workload, sub_seed(seed, i), profile, work))
        .collect()
}

/// Where `adaptive-auth-checkpoint` checkpoints.
#[must_use]
pub fn ckpt_dir(work: &Path) -> PathBuf {
    work.join("ckpt-adaptive-auth")
}

/// One build → run → attribute → outcome pass.
pub struct Iteration {
    /// `ScenarioConfig::from_json` (via `serde_json::from_str`), seconds.
    pub parse_s: f64,
    /// `ScenarioWorld::build`, seconds.
    pub build_s: f64,
    /// Stride loop, checkpoints and mid-run identifies included, seconds.
    pub run_s: f64,
    /// Σ of `step` calls alone, seconds.
    pub step_busy_s: f64,
    /// Setup through final attribution and outcome digest, seconds.
    pub wall_s: f64,
    /// `ScenarioWorld::outcome`, seconds.
    pub outcome_s: f64,
    /// Each `step` call, seconds.
    pub step_s: Vec<f64>,
    /// Each `identify` call, seconds.
    pub identify_s: Vec<f64>,
    /// Delivered packets scanned by each `identify` call.
    pub identify_scanned: Vec<usize>,
    /// Traced checkpoint-layer passes.
    pub checkpoints: Vec<CheckpointTimes>,
    /// Final simulation statistics.
    pub stats: SimStats,
    /// The outcome digest.
    pub digest: String,
    /// The outcome text.
    pub text: String,
    /// The outcome JSON.
    pub json: Value,
    /// Delivering zombies with fewer verifiable marks than the quorum.
    pub suppressed: Vec<u32>,
    /// The finished world.
    pub world: ScenarioWorld,
}

impl Iteration {
    /// Setup: parse + build, seconds.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.build_s
    }
}

/// The zombies a finished world's final attribution must name, and the
/// delivering zombies it is excused from naming.
///
/// Without an adversary: every zombie with at least one attack packet
/// delivered to the victim (ground truth from `Delivered.packet.true_source`).
/// Under a Byzantine adversary, compromised switches rewrite the marks
/// of the packets that cross them, and the victim rejects those
/// fail-closed: a zombie whose paths cross one loses that evidence, and
/// no victim-side scheme can name a zombie with none left. So each of a
/// zombie's delivered packets is decoded alone by a fresh collector to
/// count the marks that verify and name the zombie, and the zombie is
/// expected only if that count meets the collectors' documented quorum
/// (at least 2, and a quarter of the best-evidenced zombie's count). The
/// rest — zombies whose marks were tampered, or most of whose packets
/// were lost — are returned as suppressed.
///
/// # Errors
/// A world with an adversary but no plugin scheme.
pub fn expected_attackers(
    world: &ScenarioWorld,
    victim: u32,
) -> Result<(BTreeSet<u32>, Vec<u32>), String> {
    let mut streams: BTreeMap<u32, Vec<&Packet>> = BTreeMap::new();
    for d in world.sim().delivered() {
        if d.packet.class == TrafficClass::Attack && d.packet.dest_node.0 == victim {
            streams
                .entry(d.packet.true_source.0)
                .or_default()
                .push(&d.packet);
        }
    }
    let cfg = world.config();
    if cfg.adversary.is_none() {
        return Ok((streams.into_keys().collect(), Vec::new()));
    }
    let spec = cfg.scheme.ok_or("an adversary needs the `scheme` knob")?;
    let scheme = build_scheme_with(spec, world.topology(), cfg.tag_bits)?;
    // A zombie's support is the marks that verify *and* name it. A
    // framing switch's forged tag passes with probability 2^-tag_bits and
    // then names the framed node, so it backs no zombie. Each packet goes
    // alone through a fresh collector: below four observed packets the
    // census keeps every candidate, so the answer is the packet's own
    // decoded source, or nothing when its tag fails.
    let verified: Vec<(u32, u64)> = streams
        .iter()
        .map(|(&zombie, stream)| {
            let support = stream
                .iter()
                .filter(|p| {
                    let mut collector = scheme.collector(world.topology(), NodeId(victim));
                    collector.observe_packet(p);
                    collector.attribute().candidates == [NodeId(zombie)]
                })
                .count();
            (zombie, support as u64)
        })
        .collect();
    let best = verified.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let quorum = best.div_ceil(4).max(2);
    let (kept, suppressed): (Vec<_>, Vec<_>) =
        verified.into_iter().partition(|&(_, n)| n >= quorum);
    Ok((
        kept.into_iter().map(|(z, _)| z).collect(),
        suppressed.into_iter().map(|(z, _)| z).collect(),
    ))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `sc` once under `plan`, checking every attribution answer.
/// `traced` adds the checkpoint-layer passes.
///
/// # Errors
/// Parse, build or checkpoint I/O failures.
pub fn iterate(
    sc: &Scenario,
    plan: &Plan,
    gate: &mut Gate,
    traced: bool,
    work: &Path,
) -> Result<Iteration, String> {
    let _ = std::fs::remove_dir_all(ckpt_dir(work));
    let probe_dir = work.join("ckpt-probe");
    let zombies = sc.zombie_set();
    let t0 = Instant::now();
    let cfg: ScenarioConfig =
        serde_json::from_str(&sc.text).map_err(|e| format!("scenario parse: {e}"))?;
    let parse_s = secs(t0);
    let t = Instant::now();
    let mut world = ScenarioWorld::build(&cfg, Some(&sc.text), None)?;
    let build_s = secs(t);

    let mut it_steps = Vec::new();
    let mut identify_s = Vec::new();
    let mut identify_scanned = Vec::new();
    let mut checkpoints = Vec::new();
    let mut next_ckpt = plan.checkpoint_every;
    let mut probed = false;
    let run0 = Instant::now();
    loop {
        let t = Instant::now();
        let done = world.step(plan.stride);
        it_steps.push(secs(t));
        if done {
            break;
        }
        if plan.identify_each_stride {
            let scanned = world.sim().delivered().len();
            let t = Instant::now();
            let answer = world.identify(None);
            identify_s.push(secs(t));
            identify_scanned.push(scanned);
            if let Some(a) = gate.op("mid-run identify", answer) {
                gate.subset("mid-run identify", &a.candidates, &zombies);
            }
        }
        if let Some(at) = next_ckpt.filter(|&at| world.now_cycles() >= at) {
            let every = plan.checkpoint_every.unwrap_or(at);
            next_ckpt = Some((world.now_cycles() / every + 1) * every);
            // Traced runs also time the checkpoint layer's parts, apart
            // from the `checkpoint_now` call that composes them.
            let parts = traced.then(|| {
                let t = Instant::now();
                let snap = world.sim().snapshot();
                let snapshot_s = secs(t);
                let t = Instant::now();
                let bytes = ddpm_checkpoint::encode_snapshot(&snap).len() as u64;
                (snap.now, snapshot_s, secs(t), bytes)
            });
            let t = Instant::now();
            let path = world.checkpoint_now();
            let store_s = secs(t);
            let path = gate.op("checkpoint_now", path).flatten();
            if let (Some((cycle, snapshot_s, encode_s, bytes)), Some(path)) = (parts, path) {
                if let Some(load_s) = gate.op("checkpoint load", layers::timed_load(&path, cycle)) {
                    checkpoints.push(CheckpointTimes {
                        snapshot_s,
                        encode_s,
                        bytes,
                        store_s,
                        load_s,
                    });
                }
            }
        } else if traced
            && plan.checkpoint_every.is_none()
            && !probed
            && world.now_cycles() >= plan.probe_cycle
        {
            probed = true;
            let _ = std::fs::remove_dir_all(&probe_dir);
            let pass = layers::checkpoint_pass(&world, &probe_dir);
            if let Some(c) = gate.op("checkpoint pass", pass) {
                checkpoints.push(c);
            }
        }
    }
    let run_s = secs(run0);
    let step_busy_s = it_steps.iter().sum();

    // Attribute once, then digest the run.
    let scanned = world.sim().delivered().len();
    let t = Instant::now();
    let answer = world.identify(None);
    identify_s.push(secs(t));
    identify_scanned.push(scanned);
    let t = Instant::now();
    let out = world.outcome();
    let outcome_s = secs(t);
    let wall_s = secs(t0);

    for _ in 0..plan.final_identifies {
        let t = Instant::now();
        let again = world.identify(None);
        identify_s.push(secs(t));
        identify_scanned.push(scanned);
        gate.op("final identify (repeat)", again);
    }
    let (truth, suppressed) = expected_attackers(&world, sc.victim)?;
    if let Some(a) = gate.op("final identify", answer) {
        gate.exact("final attribution", &a.candidates, &truth);
    }
    let _ = std::fs::remove_dir_all(&probe_dir);
    Ok(Iteration {
        parse_s,
        build_s,
        run_s,
        step_busy_s,
        wall_s,
        outcome_s,
        step_s: it_steps,
        identify_s,
        identify_scanned,
        checkpoints,
        stats: *world.sim().stats(),
        suppressed,
        digest: out.digest,
        text: out.text,
        json: out.json,
        world,
    })
}

/// Untimed `ScenarioWorld::inject` calls before an inject probe times
/// any: the first calls into a fresh world grow its queues and run cold,
/// and cost up to ten times the steady state.
const INJECT_WARMUP: u32 = 20;

/// Times `ScenarioWorld::inject` on a fresh world of `sc`: `count`
/// single-zombie floods into a world stepped a few strides in, after
/// [`INJECT_WARMUP`] untimed ones.
///
/// # Errors
/// Parse, build or inject failures.
pub fn inject_probe(sc: &Scenario, stride: u64, count: usize) -> Result<Vec<f64>, String> {
    let cfg: ScenarioConfig =
        serde_json::from_str(&sc.text).map_err(|e| format!("scenario parse: {e}"))?;
    let mut world = ScenarioWorld::build(&cfg, Some(&sc.text), None)?;
    for _ in 0..4 {
        world.step(stride);
    }
    let nodes = world.topology().num_nodes() as u32;
    let mut out = Vec::with_capacity(count);
    for i in 0..INJECT_WARMUP + count as u32 {
        // Never the victim itself: `FloodAttack::generate` panics on a
        // zombie flooding itself instead of returning an error.
        let zombie = (sc.victim + 1 + i % (nodes - 1)) % nodes;
        let attack = AttackSpec::UdpFlood {
            zombies: vec![zombie],
            victim: sc.victim,
            packets_per_zombie: gen::INJECT_PACKETS,
            interval: gen::INJECT_INTERVAL,
        };
        let t = Instant::now();
        world.inject(&attack)?;
        if i >= INJECT_WARMUP {
            out.push(secs(t));
        }
    }
    Ok(out)
}

/// The library's one-shot runner and the `scenario` binary, on the same
/// generated JSON, must report what the stride loop reported.
pub fn check_one_shot(sc: &Scenario, it: &Outputs, opts: &Options, gate: &mut Gate) {
    let one_shot = serde_json::from_str::<ScenarioConfig>(&sc.text)
        .map_err(|e| e.to_string())
        .and_then(|cfg| ddpm_serve::scenario::run_scenario_with_source(&cfg, &sc.text));
    if let Some(out) = gate.op("one-shot run_scenario_with_source", one_shot) {
        gate.check(out.digest == it.digest, || {
            format!(
                "stride-loop digest {} != one-shot digest {}",
                it.digest, out.digest
            )
        });
    }
    let _ = std::fs::remove_dir_all(ckpt_dir(&opts.work));
    let Some(bin) = &opts.bin_dir else {
        return;
    };
    let r = run_scenario_binary(bin, &opts.work, sc);
    if let Some((text, json)) = gate.op("scenario binary", r) {
        gate.check(text == it.text, || {
            format!(
                "scenario binary text differs:\n{text}\nvs stride loop:\n{}",
                it.text
            )
        });
        gate.check(json == it.json, || {
            "scenario binary JSON differs".to_string()
        });
    }
    let _ = std::fs::remove_dir_all(ckpt_dir(&opts.work));
}

/// What a run reported: digest, text and JSON of its outcome.
#[derive(Clone, Debug)]
pub struct Outputs {
    /// The outcome digest.
    pub digest: String,
    /// The outcome text.
    pub text: String,
    /// The outcome JSON.
    pub json: Value,
    /// Delivering zombies with fewer verifiable marks than the quorum.
    pub suppressed: Vec<u32>,
}

impl Iteration {
    /// The outcome, detached from the world.
    #[must_use]
    pub fn outputs(&self) -> Outputs {
        Outputs {
            digest: self.digest.clone(),
            text: self.text.clone(),
            json: self.json.clone(),
            suppressed: self.suppressed.clone(),
        }
    }
}

fn run_scenario_binary(bin: &Path, work: &Path, sc: &Scenario) -> Result<(String, Value), String> {
    let input = work.join("scenario-input.json");
    let output = work.join("scenario-output.json");
    std::fs::write(&input, &sc.text).map_err(|e| format!("writing {}: {e}", input.display()))?;
    let exe = bin.join("scenario");
    let run = std::process::Command::new(&exe)
        .arg("--json")
        .arg(&output)
        .arg(&input)
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    if !run.status.success() {
        return Err(format!(
            "{} exited {}: {}",
            exe.display(),
            run.status,
            String::from_utf8_lossy(&run.stderr)
        ));
    }
    let text = String::from_utf8(run.stdout).map_err(|e| e.to_string())?;
    let raw = std::fs::read_to_string(&output).map_err(|e| e.to_string())?;
    let json: Value = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    Ok((text, json))
}
