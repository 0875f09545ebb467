//! Per-layer costs, timed from outside the program.
//!
//! The simulator's hot loop calls routing, topology and the marker for
//! every forwarded hop, but exposes no per-layer timers. This module
//! replays a finished world's delivered `(source, destination)` pairs
//! through the same public functions — `Router::candidates_into` +
//! `SelectionPolicy::pick_for` against the world's `live_faults()`,
//! `Topology::coord`/`index`/`neighbor`, `Marker::on_forward` for the
//! world's scheme, `Collector::observe_packet`/`attribute` — and times
//! each layer in bulk, so timer overhead stays out of the per-call
//! figures. It also times the checkpoint layer's public functions on a
//! live world.

use ddpm_core::build_scheme_with;
use ddpm_net::{Packet, TrafficClass};
use ddpm_routing::{RouteCtx, RouteState, SelectionPolicy};
use ddpm_serve::ScenarioWorld;
use ddpm_sim::{MarkEnv, Marker};
use ddpm_topology::{Coord, Direction, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Delivered packets replayed per world (evenly strided sample).
pub const REPLAY_PACKETS: usize = 20_000;
/// Walk bound of one replayed path (the IPv4 TTL ceiling).
const MAX_WALK: u32 = 255;
/// Selection policy every scenario world builds its simulation with.
const POLICY: SelectionPolicy = SelectionPolicy::ProductiveFirstRandom;

/// What the replay measured.
#[derive(Clone, Debug, Default)]
pub struct LayerCosts {
    /// Routing decisions made (one per forwarded hop, plus blocked ends).
    pub decisions: u64,
    /// ns per `candidates_into` + `pick_for` decision.
    pub routing_ns_per_decision: f64,
    /// Mean admissible candidates offered per decision.
    pub candidates_per_decision: f64,
    /// ns per `Topology::coord` / `Topology::index` translation.
    pub topo_ns_per_coord: f64,
    /// ns per `Topology::neighbor` lookup.
    pub topo_ns_per_neighbor: f64,
    /// ns per forwarded hop in `Marker::on_forward` (the per-packet
    /// `on_inject` reset folded in).
    pub marker_ns_per_hop: f64,
    /// ns per `Collector::observe_packet` over the victim's attack stream.
    pub collector_ns_per_pkt: f64,
    /// µs per `Collector::attribute`.
    pub attribute_us: f64,
    /// Marks the replayed collector rejected fail-closed.
    pub rejected: u64,
    /// The replayed collector's answer.
    pub named: Vec<u32>,
}

fn per(elapsed: f64, count: u64, scale: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        elapsed * scale / count as f64
    }
}

/// Replays `world`'s delivered traffic through each layer.
///
/// # Errors
/// A world built without the `scheme` knob (no victim-side collector),
/// or without an attack victim.
pub fn replay(world: &ScenarioWorld, seed: u64) -> Result<LayerCosts, String> {
    let cfg = world.config();
    let spec = cfg
        .scheme
        .ok_or("layer replay needs the `scheme` knob (marker + collector)")?;
    let victim = world
        .victim()
        .ok_or("layer replay needs an attack victim")?;
    let topo = world.topology();
    let router = cfg.router.build(topo);
    let ctx = RouteCtx::new(topo, world.sim().live_faults());
    let delivered = world.sim().delivered();
    let step = (delivered.len() / REPLAY_PACKETS).max(1);
    let sample: Vec<&Packet> = delivered.iter().step_by(step).map(|d| &d.packet).collect();
    let ends: Vec<(Coord, Coord)> = sample
        .iter()
        .map(|p| (topo.coord(p.true_source), topo.coord(p.dest_node)))
        .collect();

    // Routing: walk every pair with the world's router and policy.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cands = Vec::new();
    let mut nodes: Vec<Coord> = Vec::with_capacity(sample.len() * 16);
    let mut dirs: Vec<Direction> = Vec::with_capacity(sample.len() * 16);
    let mut starts: Vec<usize> = Vec::with_capacity(sample.len() + 1);
    let (mut decisions, mut offered) = (0u64, 0u64);
    let t = Instant::now();
    for (src, dst) in &ends {
        let mut state = RouteState::with_budget(router.misroute_budget());
        let mut cur = *src;
        starts.push(nodes.len());
        nodes.push(cur);
        while cur != *dst && state.hops < MAX_WALK {
            router.candidates_into(&ctx, &cur, dst, &state, &mut cands);
            decisions += 1;
            offered += cands.len() as u64;
            let Some(i) = POLICY.pick_for(&router, &cands, &mut rng) else {
                break;
            };
            let hop = cands[i];
            state.record_hop(hop.productive, hop.dir);
            dirs.push(hop.dir);
            nodes.push(hop.next);
            cur = hop.next;
        }
    }
    let routing_s = t.elapsed().as_secs_f64();
    starts.push(nodes.len());

    // Topology: the coordinate translations and neighbour lookups the
    // forwarding path makes, over the replayed nodes.
    let t = Instant::now();
    let ids: Vec<u32> = nodes.iter().map(|c| topo.index(black_box(c)).0).collect();
    let index_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &id in &ids {
        black_box(topo.coord(NodeId(black_box(id))));
    }
    let coord_s = t.elapsed().as_secs_f64();
    let hops = dirs.len() as u64;
    // The switch each hop leaves from: every path node but its last.
    let from: Vec<Coord> = starts
        .windows(2)
        .flat_map(|w| &nodes[w[0]..w[1] - 1])
        .copied()
        .collect();
    let t = Instant::now();
    for (c, &dir) in from.iter().zip(&dirs) {
        black_box(topo.neighbor(black_box(c), dir));
    }
    let neighbor_s = t.elapsed().as_secs_f64();

    // Core, switch side: the scheme's marker along the replayed paths.
    let scheme = build_scheme_with(spec, topo, cfg.tag_bits)?;
    let env = MarkEnv { topo };
    let mut pkts: Vec<Packet> = sample.iter().map(|&&p| p).collect();
    let mut mrng = SmallRng::seed_from_u64(seed ^ 1);
    let t = Instant::now();
    for (p, w) in pkts.iter_mut().zip(starts.windows(2)) {
        let path = &nodes[w[0]..w[1]];
        scheme.on_inject(p, &path[0], &env);
        for pair in path.windows(2) {
            scheme.on_forward(p, &pair[0], &pair[1], &env, &mut mrng);
        }
    }
    let marker_s = t.elapsed().as_secs_f64();
    black_box(&pkts);

    // Core, victim side: the collector over the victim's attack stream.
    let stream: Vec<&Packet> = delivered
        .iter()
        .map(|d| &d.packet)
        .filter(|p| p.dest_node.0 == victim && p.class == TrafficClass::Attack)
        .collect();
    let mut collector = scheme.collector(topo, NodeId(victim));
    let t = Instant::now();
    for p in &stream {
        collector.observe_packet(p);
    }
    let observe_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let att = collector.attribute();
    let attribute_s = t.elapsed().as_secs_f64();

    Ok(LayerCosts {
        decisions,
        routing_ns_per_decision: per(routing_s, decisions, 1e9),
        candidates_per_decision: per(offered as f64, decisions, 1.0),
        topo_ns_per_coord: per(index_s + coord_s, 2 * ids.len() as u64, 1e9),
        topo_ns_per_neighbor: per(neighbor_s, hops, 1e9),
        marker_ns_per_hop: per(marker_s, hops, 1e9),
        collector_ns_per_pkt: per(observe_s, stream.len() as u64, 1e9),
        attribute_us: attribute_s * 1e6,
        rejected: collector.rejected(),
        named: att.candidates.iter().map(|n| n.0).collect(),
    })
}

/// Timings of one pass through the checkpoint layer.
#[derive(Clone, Debug)]
pub struct CheckpointTimes {
    /// `Simulation::snapshot`, seconds.
    pub snapshot_s: f64,
    /// `codec::encode_snapshot`, seconds.
    pub encode_s: f64,
    /// Encoded snapshot size.
    pub bytes: u64,
    /// `ddpm_checkpoint::store` (encode + write + fsync + rename), seconds.
    pub store_s: f64,
    /// `ddpm_checkpoint::load` of the stored file, seconds.
    pub load_s: f64,
}

/// Snapshots and encodes `world`'s simulation, stores the snapshot with
/// `ddpm_checkpoint::store` into `dir`, and loads it back.
///
/// # Errors
/// I/O or decode failures, or a loaded checkpoint at another cycle.
pub fn checkpoint_pass(world: &ScenarioWorld, dir: &Path) -> Result<CheckpointTimes, String> {
    let t = Instant::now();
    let snap = world.sim().snapshot();
    let snapshot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bytes = ddpm_checkpoint::encode_snapshot(&snap).len() as u64;
    let encode_s = t.elapsed().as_secs_f64();
    let text = world.source().unwrap_or("");
    let t = Instant::now();
    let path = ddpm_checkpoint::store(dir, ddpm_checkpoint::fingerprint(text), text, &snap, 1)
        .map_err(|e| format!("checkpoint store into {}: {e}", dir.display()))?;
    let store_s = t.elapsed().as_secs_f64();
    let load_s = timed_load(&path, snap.now)?;
    Ok(CheckpointTimes {
        snapshot_s,
        encode_s,
        bytes,
        store_s,
        load_s,
    })
}

/// Times `ddpm_checkpoint::load(path)` and checks the cycle it restores.
///
/// # Errors
/// Load failures or a checkpoint of another cycle.
pub fn timed_load(path: &Path, cycle: u64) -> Result<f64, String> {
    let t = Instant::now();
    let ck = ddpm_checkpoint::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_s = t.elapsed().as_secs_f64();
    if ck.cycle != cycle {
        return Err(format!(
            "{} restored cycle {}, stored at {cycle}",
            path.display(),
            ck.cycle
        ));
    }
    Ok(load_s)
}
