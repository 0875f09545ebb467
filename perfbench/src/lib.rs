//! The repository benchmark: three seeded workloads driven through the
//! surfaces users touch — scenario JSON → `ddpm_serve::ScenarioWorld`,
//! and the `serve` binary's NDJSON verbs — with every attribution
//! answer checked against ground truth.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A
//! traced run (`--trace 1`) times calls into each layer's public
//! functions from this crate and reports the per-layer ledger. See
//! `perfbench/README.md` for the workload and metric map.

#![warn(missing_docs)]

pub mod gate;
pub mod gen;
pub mod layers;
pub mod mix;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod wire;

use crate::gen::Scenario;
use crate::layers::LayerCosts;
use crate::report::Report;
use crate::scenario::{Iteration, Plan};
use crate::stats::{median, percentile};
use crate::wire::{Client, Service};
use serde_json::json;
use std::path::PathBuf;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `table3-torus-flood`.
    Table3,
    /// `adaptive-auth-checkpoint`.
    AdaptiveAuth,
    /// `serve-identify-mix`.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Table3, Workload::AdaptiveAuth, Workload::ServeMix];

    /// The workloads `BENCHMARK.json` lists, in its order.
    /// `table3-torus-flood` runs by hand only: on a shared host its times
    /// move with the host's speed by more than any bound a benchmark run
    /// may carry (see `perfbench/README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::AdaptiveAuth, Workload::ServeMix];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3-torus-flood",
            Workload::AdaptiveAuth => "adaptive-auth-checkpoint",
            Workload::ServeMix => "serve-identify-mix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `full` is the benchmark; `tiny` shrinks every workload
/// to a smoke test of the same shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The benchmark's sizes.
    Full,
    /// Seconds-scale smoke sizes.
    Tiny,
}

impl Profile {
    /// The profile's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Tiny => "tiny",
        }
    }

    /// Parses a profile name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        [Profile::Full, Profile::Tiny]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the untraced run keeps measuring, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub profile: Profile,
    /// Directory holding the built `serve` and `scenario` binaries;
    /// `None` hosts the service in-process and skips the binary check.
    pub bin_dir: Option<PathBuf>,
    /// Scratch directory for checkpoints and binary I/O.
    pub work: PathBuf,
}

/// Untraced scenario runs stop after at most this many iterations (a
/// whole number of sub-scenario cycles).
const MAX_ITERATIONS: usize = 60;
/// `ScenarioWorld::inject` calls timed per traced run.
const INJECT_PROBES: usize = 400;
/// ... and after each untraced iteration.
const INJECTS_PER_ITERATION: usize = 60;
/// Passes of each kind a traced run makes (untraced reference, traced).
const TRACE_PASSES: usize = 3;
/// Timed repetitions of each recorded request line through the parser.
const PARSE_REPEATS: usize = 20;

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(f64::NAN)
}

/// Records percentile `p` of `samples` (seconds, times `scale`) with its
/// sample count, and says so when fewer than [`stats::MIN_BEYOND`]
/// samples lie beyond it.
fn put_pct(r: &mut Report, name: &'static str, samples: &[f64], p: f64, scale: f64) {
    r.put(name, pct(samples, p) * scale, Some(samples.len()));
    if !stats::resolved(samples.len(), p) {
        r.note(format!(
            "{name}: only {} of {} samples lie beyond p{p}; it is not resolved",
            stats::beyond(samples.len(), p),
            samples.len()
        ));
    }
}

/// Runs one invocation. Never panics on a failing program: failures
/// land in the report's gate.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new(opts.workload, opts.trace);
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        report
            .gate
            .fail(format!("creating {}: {e}", opts.work.display()));
        return report;
    }
    let result = match (opts.workload, opts.trace) {
        (Workload::ServeMix, false) => measure_mix(opts, &mut report),
        (Workload::ServeMix, true) => trace_mix(opts, &mut report),
        (_, false) => measure_scenario(opts, &mut report),
        (_, true) => trace_scenario(opts, &mut report),
    };
    if let Err(e) = result {
        report.gate.fail(e);
    }
    let _ = std::fs::remove_dir_all(scenario::ckpt_dir(&opts.work));
    report
}

/// Per-iteration end-to-end figures of the scenario path.
#[derive(Default)]
struct Rates {
    setup: Vec<f64>,
    wall: Vec<f64>,
    hops: Vec<f64>,
    pps: Vec<f64>,
    ingest: Vec<f64>,
    identify: Vec<f64>,
}

impl Rates {
    fn add(&mut self, it: &Iteration) {
        let t = it.stats.total();
        self.setup.push(it.setup_s());
        self.wall.push(it.wall_s);
        self.hops.push(forwards(&t) as f64 / it.run_s);
        self.pps.push((t.delivered + t.dropped()) as f64 / it.run_s);
        self.ingest.push(t.injected as f64 / it.wall_s);
        self.identify.extend(it.identify_s.iter().copied());
    }

    fn put_sim(&self, r: &mut Report) {
        let n = Some(self.hops.len());
        r.put("sim_hops_per_s", med(&self.hops), n);
        r.put("sim_pps", med(&self.pps), n);
    }
}

/// Switch traversals: the hops of delivered packets, plus `DEFAULT_TTL`
/// forwards for every TTL-expired packet (each crossed that many
/// switches before its drop). Hops of packets dropped for any other
/// reason are not recorded by the simulator and are not counted.
fn forwards(t: &ddpm_sim::ClassCounters) -> u64 {
    t.total_hops + u64::from(ddpm_net::ipv4::DEFAULT_TTL) * t.dropped_ttl
}

/// One untraced iteration into `rates`, checked against `first` (which
/// the first call fills).
fn once(
    sc: &Scenario,
    plan: &Plan,
    opts: &Options,
    r: &mut Report,
    rates: &mut Rates,
    first: &mut Option<scenario::Outputs>,
) -> Result<(), String> {
    let it = scenario::iterate(sc, plan, &mut r.gate, false, &opts.work)?;
    rates.add(&it);
    check_reference(r, &it, first);
    Ok(())
}

/// Says which delivering zombies fell below the collectors' quorum.
fn note_suppressed(r: &mut Report, suppressed: &[u32]) {
    if !suppressed.is_empty() {
        r.note(format!(
            "zombies {suppressed:?} delivered attack packets but fewer verifiable marks \
             naming them than the collectors' quorum (tampered marks are rejected); the final \
             answer is not held to them"
        ));
    }
}

/// Every pass of one scenario must reproduce the first pass's digest;
/// the first call fills `reference`.
fn check_reference(r: &mut Report, it: &Iteration, reference: &mut Option<scenario::Outputs>) {
    match reference {
        None => *reference = Some(it.outputs()),
        Some(f) => {
            r.gate.check(it.digest == f.digest, || {
                format!("digest {} != the first pass's {}", it.digest, f.digest)
            });
        }
    }
}

fn measure_scenario(opts: &Options, r: &mut Report) -> Result<(), String> {
    let scs = scenario::scenarios(opts.workload, opts.seed, opts.profile, &opts.work);
    let plan = scenario::plan(opts.workload, opts.profile);
    let cycle = scs.len();
    let start = Instant::now();
    let (mut rates, mut firsts, mut inject) = (Rates::default(), vec![None; cycle], vec![]);
    // Iterations cycle through the sub-scenarios and stop only at the end
    // of a cycle, so every sub-scenario weighs the same in the medians.
    // An inject probe follows every iteration, so inject timings span the
    // whole run rather than one stretch of host noise.
    loop {
        let n = rates.wall.len();
        if n > 0
            && n % cycle == 0
            && (start.elapsed().as_secs_f64() >= opts.seconds || n >= MAX_ITERATIONS)
        {
            break;
        }
        let i = n % cycle;
        once(&scs[i], &plan, opts, r, &mut rates, &mut firsts[i])?;
        let world = scenario::probe_seed(opts.seed, n);
        let world = scenario::scenario(opts.workload, world, opts.profile, &opts.work);
        let probe = scenario::inject_probe(&world, plan.stride, INJECTS_PER_ITERATION)?;
        inject.push(med(&probe));
    }
    let rss = stats::peak_rss_mb(None).unwrap_or(f64::NAN);
    let n = Some(rates.wall.len());
    r.put("setup_s", med(&rates.setup), n);
    r.put("wall_s", med(&rates.wall), n);
    rates.put_sim(r);
    r.put("peak_rss_mb", rss, None);
    r.put("ingest_pps", med(&rates.ingest), n);
    put_pct(r, "identify_p50_ms", &rates.identify, 50.0, 1e3);
    put_pct(r, "identify_p90_ms", &rates.identify, 90.0, 1e3);
    // Inject cost depends on the world it lands in, so the figure is the
    // mean of the probes' medians: a pooled median would jump between the
    // worlds' levels with the mix a seed draws.
    r.put(
        "inject_p50_ms",
        ms(mean(&inject)),
        Some(inject.len() * INJECTS_PER_ITERATION),
    );
    let firsts: Vec<scenario::Outputs> = firsts.into_iter().flatten().collect();
    scenario::check_one_shot(&scs[0], &firsts[0], opts, &mut r.gate);
    r.note(format!(
        "iterations {} over {cycle} sub-scenarios (wall {:?})",
        rates.wall.len(),
        rates
            .wall
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
    ));
    for (i, o) in firsts.iter().enumerate() {
        r.note(format!("sub-scenario {i}: digest {}", o.digest));
        note_suppressed(r, &o.suppressed);
    }
    Ok(())
}

/// `serve-identify-mix` tenant `tenant` stepped in-process with the
/// service's stride: the simulator speed one tenant gets, and (tenant 0)
/// the world the traced run replays.
fn twin_plan(opts: &Options, tenant: usize) -> (Scenario, Plan) {
    let (sc, _) = gen::serve_tenant(opts.seed, opts.profile, tenant);
    let horizon = gen::serve_horizon(opts.profile);
    let plan = Plan {
        stride: ddpm_serve::ServerConfig::default().stride,
        identify_each_stride: true,
        checkpoint_every: None,
        final_identifies: 0,
        probe_cycle: horizon / 2,
    };
    (sc, plan)
}

fn measure_mix(opts: &Options, r: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let (mut setup, mut wall, mut ingest, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut identify, mut inject) = (vec![], vec![]);
    // A tenant twin runs once after every session, so its speed samples
    // span the whole run rather than one stretch of host noise; the twins
    // take the session's tenants in turn, so no one tenant's paths set
    // the simulator speed.
    let twins: Vec<(Scenario, Plan)> = (0..gen::SERVE_TENANTS)
        .map(|i| twin_plan(opts, i))
        .collect();
    let (mut rates, mut outputs) = (Rates::default(), vec![None; twins.len()]);
    while wall.len() < 2 || (start.elapsed().as_secs_f64() < opts.seconds && wall.len() < 20) {
        let s = mix::session(opts.seed, opts, wall.len(), false, &mut r.gate)?;
        setup.push(s.setup_s);
        wall.push(s.wall_s);
        ingest.push(s.injected as f64 / s.wall_s);
        rss.push(s.rss_mb);
        identify.extend(s.identify_s);
        inject.extend(s.inject_s);
        let i = (wall.len() - 1) % twins.len();
        let (sc, plan) = &twins[i];
        once(sc, plan, opts, r, &mut rates, &mut outputs[i])?;
    }
    let outputs = outputs[0].take().expect("at least one twin iteration");
    let n = Some(wall.len());
    r.put("setup_s", med(&setup), n);
    r.put("wall_s", med(&wall), n);
    r.put("peak_rss_mb", med(&rss), n);
    r.put("ingest_pps", med(&ingest), n);
    put_pct(r, "identify_p50_ms", &identify, 50.0, 1e3);
    put_pct(r, "identify_p90_ms", &identify, 90.0, 1e3);
    put_pct(r, "inject_p50_ms", &inject, 50.0, 1e3);
    rates.put_sim(r);
    scenario::check_one_shot(&twins[0].0, &outputs, opts, &mut r.gate);
    r.note(format!(
        "sessions {} (wall {:?}) | identify answers {} (max {:.1} ms) | injects {} (max {:.1} ms) \
         | tenant 0 twin digest {}",
        wall.len(),
        wall.iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        identify.len(),
        ms(pct(&identify, 100.0)),
        inject.len(),
        ms(pct(&inject, 100.0)),
        outputs.digest
    ));
    Ok(())
}

/// Wire round trips against an idle service: `server.info`, then
/// `tenant.identify` on a paused tenant of `sc` stepped a few strides.
struct WireProbe {
    info: Vec<f64>,
    identify: Vec<f64>,
    sent: Vec<String>,
}

fn wire_probe(sc: &Scenario, opts: &Options, r: &mut Report) -> Result<WireProbe, String> {
    let service = Service::start(opts.bin_dir.as_deref(), mix::workers(opts.profile))?;
    let mut client = Client::connect(service.addr())?;
    let mut probe = WireProbe {
        info: vec![],
        identify: vec![],
        sent: vec![],
    };
    for _ in 0..40 {
        if let Some((_, t)) = r
            .gate
            .op("server.info", client.call("server.info", json!({})))
        {
            probe.info.push(t);
        }
    }
    let create = json!({"name": "probe", "autorun": false, "scenario": sc.config.clone()});
    r.gate
        .op("tenant.create", client.call("tenant.create", create));
    let tenant = json!({"tenant": "probe"});
    for _ in 0..4 {
        r.gate
            .op("tenant.step", client.call("tenant.step", tenant.clone()));
    }
    for _ in 0..40 {
        if let Some((_, t)) = r.gate.op(
            "tenant.identify",
            client.call("tenant.identify", tenant.clone()),
        ) {
            probe.identify.push(t);
        }
    }
    probe.sent = std::mem::take(&mut client.sent);
    drop(client);
    service.stop()?;
    Ok(probe)
}

/// Mean µs per `proto::parse_request` over the recorded request lines.
fn parse_us(lines: &[String], r: &mut Report) -> f64 {
    for line in lines {
        let parsed = ddpm_serve::proto::parse_request(line).map(drop);
        r.gate.op("proto::parse_request", parsed);
    }
    let t = Instant::now();
    for _ in 0..PARSE_REPEATS {
        for line in lines {
            std::hint::black_box(
                ddpm_serve::proto::parse_request(std::hint::black_box(line)).is_ok(),
            );
        }
    }
    us(t.elapsed().as_secs_f64()) / (PARSE_REPEATS * lines.len().max(1)) as f64
}

/// Per-layer metrics of one traced world: the world's own calls, the
/// simulator's counters, the layer replay and the closure row.
fn put_world_layers(it: &Iteration, costs: &LayerCosts, inject: &[f64], r: &mut Report) {
    let st = it.stats;
    let t = st.total();
    r.put("world.parse_ms", ms(it.parse_s), None);
    r.put("world.build_ms", ms(it.build_s), None);
    r.put("world.step_busy_s", it.step_busy_s, Some(it.step_s.len()));
    put_pct(r, "world.step_p50_ms", &it.step_s, 50.0, 1e3);
    put_pct(r, "world.step_p99_ms", &it.step_s, 99.0, 1e3);
    put_pct(r, "world.identify_p50_us", &it.identify_s, 50.0, 1e6);
    let scanned: usize = it.identify_scanned.iter().sum();
    let identify_total: f64 = it.identify_s.iter().sum();
    r.put(
        "world.identify_ns_per_delivered",
        identify_total * 1e9 / scanned.max(1) as f64,
        None,
    );
    put_pct(r, "world.inject_p50_us", inject, 50.0, 1e6);
    r.put("world.outcome_s", it.outcome_s, None);
    r.put("sim.hops", t.total_hops as f64, None);
    r.put("sim.injected", t.injected as f64, None);
    r.put("sim.delivered", t.delivered as f64, None);
    r.put("sim.dropped_ttl", t.dropped_ttl as f64, None);
    r.put("sim.dropped_blocked", t.dropped_blocked as f64, None);
    r.put("sim.end_cycle", st.end_time as f64, None);
    r.put("sim.delivery_ratio", t.delivery_ratio(), None);
    r.put("sim.peak_arena_bytes", st.peak_arena_bytes as f64, None);
    r.put("sim.port_bytes", st.port_bytes as f64, None);
    r.put(
        "routing.ns_per_decision",
        costs.routing_ns_per_decision,
        Some(costs.decisions as usize),
    );
    r.put(
        "routing.candidates_per_decision",
        costs.candidates_per_decision,
        Some(costs.decisions as usize),
    );
    r.put("topology.ns_per_coord", costs.topo_ns_per_coord, None);
    r.put("topology.ns_per_neighbor", costs.topo_ns_per_neighbor, None);
    r.put("core.marker_ns_per_hop", costs.marker_ns_per_hop, None);
    r.put(
        "core.collector_ns_per_pkt",
        costs.collector_ns_per_pkt,
        None,
    );
    r.put("core.attribute_us", costs.attribute_us, None);
    r.put("core.rejected", costs.rejected as f64, None);

    // Closure: every forwarded hop costs one routing decision, one
    // coordinate translation (`index` of the next switch) and one marker
    // call; whatever the step time leaves over is the simulator's own
    // event, arena and port work.
    let forwards = forwards(&t);
    let ns_per_hop = it.step_busy_s * 1e9 / forwards.max(1) as f64;
    let explained =
        costs.routing_ns_per_decision + costs.topo_ns_per_coord + costs.marker_ns_per_hop;
    r.put("sim.ns_per_hop", ns_per_hop, Some(forwards as usize));
    r.put("sim.self_ns_per_hop", ns_per_hop - explained, None);
    r.put(
        "closure.unexplained_ratio",
        (ns_per_hop - explained) / ns_per_hop,
        None,
    );
    r.note(format!(
        "closure: {forwards} forwards x ({:.1} routing + {:.1} topology + {:.1} marker) ns \
         explain {:.1}% of {:.4} s of step time",
        costs.routing_ns_per_decision,
        costs.topo_ns_per_coord,
        costs.marker_ns_per_hop,
        100.0 * explained / ns_per_hop,
        it.step_busy_s,
    ));
}

fn put_checkpoint_layer(it: &Iteration, r: &mut Report) {
    let pick = |f: fn(&layers::CheckpointTimes) -> f64| -> Vec<f64> {
        it.checkpoints.iter().map(f).collect()
    };
    let n = Some(it.checkpoints.len());
    r.put(
        "checkpoint.snapshot_ms",
        ms(med(&pick(|c| c.snapshot_s))),
        n,
    );
    r.put("checkpoint.encode_ms", ms(med(&pick(|c| c.encode_s))), n);
    r.put("checkpoint.bytes", med(&pick(|c| c.bytes as f64)), n);
    r.put("checkpoint.store_ms", ms(med(&pick(|c| c.store_s))), n);
    r.put("checkpoint.load_ms", ms(med(&pick(|c| c.load_s))), n);
}

/// The replayed collector must agree with the world's own answer.
fn check_replay(it: &Iteration, costs: &LayerCosts, r: &mut Report) {
    if let Some(a) = r.gate.op("identify after replay", it.world.identify(None)) {
        r.gate.check(
            a.candidates == costs.named && a.rejected == costs.rejected,
            || {
                format!(
                    "replayed collector named {:?} ({} rejected), world named {:?} ({} rejected)",
                    costs.named, costs.rejected, a.candidates, a.rejected
                )
            },
        );
    }
}

/// Runs [`TRACE_PASSES`] passes of `sc` (traced or not), each checked
/// against `reference` (the first pass fills it). Returns every pass's
/// wall time and the last pass, whose per-call samples and checkpoint
/// timings are pooled over all passes; its counters, step time and world
/// are its own.
fn passes(
    sc: &Scenario,
    plan: &Plan,
    traced: bool,
    reference: &mut Option<scenario::Outputs>,
    opts: &Options,
    r: &mut Report,
) -> Result<(Vec<f64>, Iteration), String> {
    let (mut walls, mut steps, mut idents, mut scanned, mut ckpts) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..TRACE_PASSES {
        let it = scenario::iterate(sc, plan, &mut r.gate, traced, &opts.work)?;
        check_reference(r, &it, reference);
        walls.push(it.wall_s);
        steps.extend_from_slice(&it.step_s);
        idents.extend_from_slice(&it.identify_s);
        scanned.extend_from_slice(&it.identify_scanned);
        ckpts.extend_from_slice(&it.checkpoints);
        last = Some(it);
    }
    let mut it = last.expect("TRACE_PASSES > 0");
    it.step_s = steps;
    it.identify_s = idents;
    it.identify_scanned = scanned;
    it.checkpoints = ckpts;
    Ok((walls, it))
}

fn trace_scenario(opts: &Options, r: &mut Report) -> Result<(), String> {
    let sc = scenario::scenario(
        opts.workload,
        scenario::sub_seed(opts.seed, 0),
        opts.profile,
        &opts.work,
    );
    let plan = scenario::plan(opts.workload, opts.profile);
    // The first pass in a process pays cold page faults; it only sets the
    // reference digest, so the overhead ratio compares warm passes.
    let mut reference = None;
    let warmup = scenario::iterate(&sc, &plan, &mut r.gate, false, &opts.work)?;
    check_reference(r, &warmup, &mut reference);
    drop(warmup);
    let (wall_u, _) = passes(&sc, &plan, false, &mut reference, opts, r)?;
    let (wall_t, it) = passes(&sc, &plan, true, &mut reference, opts, r)?;
    r.put(
        "trace.overhead_ratio",
        med(&wall_t) / med(&wall_u) - 1.0,
        Some(wall_t.len()),
    );
    let costs = layers::replay(&it.world, opts.seed)?;
    check_replay(&it, &costs, r);
    let inject = scenario::inject_probe(&sc, plan.stride, INJECT_PROBES)?;
    put_world_layers(&it, &costs, &inject, r);
    put_checkpoint_layer(&it, r);
    let probe = wire_probe(&sc, opts, r)?;
    put_wire(&probe.info, &probe.identify, &probe.sent, &it, r);
    scenario::check_one_shot(&sc, &it.outputs(), opts, &mut r.gate);
    r.note(format!("digest {}", it.digest));
    note_suppressed(r, &it.suppressed);
    Ok(())
}

/// `serve.*` and `proto.*`: info round trip on the idle service, and the
/// part of the identify round trip that is neither the wire nor the
/// in-process identify — the wait for the tenant lock.
fn put_wire(info: &[f64], identify: &[f64], sent: &[String], it: &Iteration, r: &mut Report) {
    let info_ms = ms(med(info));
    let identify_ms = ms(med(identify));
    let world_ms = ms(pct(&it.identify_s, 50.0));
    r.put("serve.info_rtt_ms", info_ms, Some(info.len()));
    r.put(
        "serve.identify_wait_ms",
        identify_ms - info_ms - world_ms,
        Some(identify.len()),
    );
    let parse = parse_us(sent, r);
    r.put("proto.parse_us", parse, Some(sent.len()));
    r.note(format!(
        "identify round trip p50 {identify_ms:.3} ms = wire {info_ms:.3} + in-process identify \
         {world_ms:.3} + wait {:.3}",
        identify_ms - info_ms - world_ms
    ));
}

fn trace_mix(opts: &Options, r: &mut Report) -> Result<(), String> {
    let (mut wall_u, mut wall_t) = (vec![], vec![]);
    let (mut info, mut identify, mut sent) = (vec![], vec![], vec![]);
    for pass in 0..TRACE_PASSES {
        wall_u.push(mix::session(opts.seed, opts, 2 * pass, false, &mut r.gate)?.wall_s);
        let traced = mix::session(opts.seed, opts, 2 * pass + 1, true, &mut r.gate)?;
        wall_t.push(traced.wall_s);
        info.extend(traced.info_s);
        identify.extend(traced.identify_s);
        sent.extend(traced.sent);
    }
    r.put(
        "trace.overhead_ratio",
        med(&wall_t) / med(&wall_u) - 1.0,
        Some(wall_t.len()),
    );
    let (sc, plan) = twin_plan(opts, 0);
    let (_, it) = passes(&sc, &plan, true, &mut None, opts, r)?;
    let costs = layers::replay(&it.world, opts.seed)?;
    check_replay(&it, &costs, r);
    let inject = scenario::inject_probe(&sc, plan.stride, INJECT_PROBES)?;
    put_world_layers(&it, &costs, &inject, r);
    put_checkpoint_layer(&it, r);
    put_wire(&info, &identify, &sent, &it, r);
    scenario::check_one_shot(&sc, &it.outputs(), opts, &mut r.gate);
    r.note(format!(
        "traced sessions: {} identify answers, p50 {:.3} ms; stride p50 {:.3} ms",
        identify.len(),
        ms(pct(&identify, 50.0)),
        ms(pct(&it.step_s, 50.0)),
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tiny(workload: Workload, trace: bool) -> Report {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{}-{trace}", workload.name()));
        let opts = Options {
            workload,
            seed: 11,
            seconds: 0.0,
            trace,
            profile: Profile::Tiny,
            bin_dir: None,
            work: work.clone(),
        };
        let report = run(&opts);
        let _ = std::fs::remove_dir_all(&work);
        report
    }

    fn assert_complete(r: &Report) {
        let lines = r.lines(&json!({}));
        assert!(r.correct(), "{}", lines.join("\n"));
        let v: serde_json::Value = serde_json::from_str(&r.result_line()).expect("result json");
        for (name, unit) in r.catalogue() {
            assert_eq!(v["metrics"][*name]["unit"].as_str(), Some(*unit), "{name}");
            assert!(v["metrics"][*name]["value"].as_f64().is_some(), "{name}");
        }
    }

    #[test]
    fn tiny_table3_runs_untraced_and_traced() {
        assert_complete(&tiny(Workload::Table3, false));
        assert_complete(&tiny(Workload::Table3, true));
    }

    #[test]
    fn tiny_adaptive_auth_runs_untraced_and_traced() {
        assert_complete(&tiny(Workload::AdaptiveAuth, false));
        assert_complete(&tiny(Workload::AdaptiveAuth, true));
    }

    #[test]
    fn tiny_serve_mix_runs_untraced_and_traced() {
        assert_complete(&tiny(Workload::ServeMix, false));
        assert_complete(&tiny(Workload::ServeMix, true));
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let raw =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(&raw).expect("parses");
        let listed: Vec<&str> = v["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
    }
}
