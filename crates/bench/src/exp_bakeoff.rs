//! E-BAKEOFF — every [`MarkingScheme`] plugin under identical traffic.
//!
//! The two-sided plugin API makes the paper's qualitative comparison
//! (§4 vs §5, Tables 1–3) directly measurable: each scheme is a
//! switch-side marker plus a victim-side collector, so the same seeded
//! flood can be replayed per scheme and per topology and the victim's
//! view compared like for like:
//!
//! * **packets to identify** — deliveries the collector needed before
//!   its candidate set covered every true zombie (DDPM's single-packet
//!   claim vs PPM's coupon-collector convergence);
//! * **false-attribution rate** — fraction of the final candidate set
//!   that is *not* a true zombie (DPM's signature collisions, PPM's
//!   spurious mark combinations);
//! * **MF-bit budget** and **per-hop cost** — the scheme's static price
//!   (`mf_bits()` / `per_hop_cost()` introspection).
//!
//! Routing is dimension-order with deterministic selection so every
//! scheme sees byte-identical deliveries; the 16-node members of each
//! family are the only sizes all six base MF budgets accept. The
//! `auth-*` variants carve tag bits out of the same field, so a few
//! land on the feasibility wall here — those cells are recorded as
//! infeasible rather than dropped.
//!
//! [`MarkingScheme`]: ddpm_sim::MarkingScheme

use crate::util::{fnum, Report, RunCtx, TextTable};
use ddpm_core::build_scheme;
use ddpm_net::{AddrMap, Ipv4Header, Packet, PacketId, Protocol, TrafficClass, L4};
use ddpm_routing::{Router, SelectionPolicy};
use ddpm_sim::{SchemeSpec, SimConfig, SimTime, Simulation};
use ddpm_topology::{FaultSet, NodeId, Topology};
use rayon::prelude::*;
use serde_json::json;

/// Flooding sources shared by every run (in range on 16 nodes).
const ZOMBIES: [u32; 2] = [3, 5];
/// Flood target shared by every run.
const VICTIM: u32 = 14;

/// One scheme's measured line on one topology.
#[derive(Clone, Debug)]
pub struct SchemeRow {
    /// Scheme name (`Marker::name`).
    pub scheme: &'static str,
    /// MF bits the scheme's layout occupies.
    pub mf_bits: u32,
    /// Per-hop switch cost, rendered (`"1w+2a"`, `"3w+1a+rng"`, …).
    pub cost: String,
    /// Deliveries until the candidate set covered every zombie
    /// (`None` = never, e.g. the no-marking baseline).
    pub packets_to_identify: Option<u64>,
    /// Final candidate-set size.
    pub candidates: usize,
    /// Fraction of the final candidates that are not true zombies.
    pub false_rate: f64,
    /// Collector's final confidence.
    pub confidence: f64,
    /// Attack deliveries the collector observed in total.
    pub observed: u64,
}

/// The shared flood: `packets_per_zombie` packets from each zombie to
/// the victim, interleaved on a fixed injection grid. Identical across
/// schemes by construction — only the marker differs between runs.
///
/// The combined rate on any shared edge is one packet per 6 cycles,
/// under the 4-cycle port service rate: the comparison measures what
/// each *collector* extracts from the same deliveries, so contention
/// must not silently starve one zombie's stream (on the hypercube both
/// DOR paths share the victim's ingress edge).
fn flood_schedule(packets_per_zombie: u64) -> Vec<(u64, NodeId)> {
    let mut out = Vec::new();
    for (zi, z) in ZOMBIES.iter().enumerate() {
        for k in 0..packets_per_zombie {
            out.push((k * 12 + zi as u64 * 6, NodeId(*z)));
        }
    }
    out.sort_unstable();
    out
}

/// Runs one scheme over the shared flood on `topo`.
///
/// # Errors
/// Propagates [`build_scheme`]'s message when the scheme's MF budget
/// rejects the topology.
pub fn run_scheme(
    topo: &Topology,
    spec: SchemeSpec,
    seed: u64,
    schedule: &[(u64, NodeId)],
) -> Result<SchemeRow, String> {
    let scheme = build_scheme(spec, topo)?;
    let map = AddrMap::for_topology(topo);
    let faults = FaultSet::none();
    let victim = NodeId(VICTIM);
    let cfg = SimConfig::seeded(seed);
    let mut sim = Simulation::new(
        topo,
        &faults,
        Router::DimensionOrder,
        SelectionPolicy::First,
        &*scheme,
        cfg,
    );
    for (id, (t, src)) in schedule.iter().enumerate() {
        sim.schedule(
            SimTime(*t),
            Packet {
                id: PacketId(id as u64),
                header: Ipv4Header::new(map.ip_of(*src), map.ip_of(victim), Protocol::Udp, 64),
                l4: L4::udp(999, 53),
                true_source: *src,
                dest_node: victim,
                class: TrafficClass::Attack,
            },
        );
    }
    sim.run();

    let zombies: Vec<NodeId> = ZOMBIES.iter().map(|&z| NodeId(z)).collect();
    let mut collector = scheme.collector(topo, victim);
    let mut packets_to_identify = None;
    for d in sim.delivered() {
        // observe_packet, not observe: the auth-* collectors verify the
        // delivered header's keyed tag (an honest run passes); everyone
        // else defaults to plain field observation.
        collector.observe_packet(&d.packet);
        if packets_to_identify.is_none() {
            let att = collector.attribute();
            if zombies.iter().all(|z| att.implicates(*z)) {
                packets_to_identify = Some(collector.observed());
            }
        }
    }
    let att = collector.attribute();
    let wrong = att
        .candidates
        .iter()
        .filter(|c| !zombies.contains(c))
        .count();
    let false_rate = if att.candidates.is_empty() {
        0.0
    } else {
        wrong as f64 / att.candidates.len() as f64
    };
    Ok(SchemeRow {
        scheme: scheme.name(),
        mf_bits: scheme.mf_bits(),
        cost: scheme.per_hop_cost().describe(),
        packets_to_identify,
        candidates: att.candidates.len(),
        false_rate,
        confidence: att.confidence,
        observed: collector.observed(),
    })
}

/// The topologies the bake-off sweeps: one 16-node member per family.
#[must_use]
pub fn topologies() -> Vec<Topology> {
    vec![
        Topology::mesh2d(4),
        Topology::torus(&[4, 4]),
        Topology::hypercube(4),
    ]
}

/// Runs the bake-off.
#[must_use]
pub fn run(ctx: &RunCtx) -> Report {
    let seed = ctx.seed_or(2004);
    let ppz = ctx.scaled(200);
    let schedule = flood_schedule(ppz);
    let mut body = format!(
        "Identical seeded flood per topology: zombies {:?} -> victim {VICTIM}, \
         {ppz} packets each, dimension-order routing (seed {seed}).\n\
         `pkts->id` = deliveries until the collector's candidate set covered \
         every zombie.\n\n",
        ZOMBIES,
    );
    // Every (topology, scheme) cell is an independent seeded run, so
    // the grid fans out on the rayon pool; `par_iter` collects in job
    // order, so the report (tables and JSON alike) is byte-identical
    // to the serial sweep.
    let topos = topologies();
    let jobs: Vec<(usize, SchemeSpec)> = (0..topos.len())
        .flat_map(|ti| SchemeSpec::ALL.iter().map(move |&spec| (ti, spec)))
        .collect();
    let cells: Vec<Result<SchemeRow, String>> = jobs
        .par_iter()
        .map(|&(ti, spec)| run_scheme(&topos[ti], spec, seed, &schedule))
        .collect();
    let mut cells = cells.into_iter();
    let mut jtopos = Vec::new();
    for topo in &topos {
        let mut t = TextTable::new(&[
            "scheme",
            "MF bits",
            "per-hop cost",
            "pkts->id",
            "candidates",
            "false-attrib",
            "confidence",
        ]);
        let mut jrows = Vec::new();
        for spec in SchemeSpec::ALL {
            // A scheme whose MF budget rejects this topology is a
            // recorded feasibility wall, not a missing row: auth-*
            // variants pay tag bits out of the same 16-bit field.
            match cells.next().expect("one cell per job") {
                Ok(row) => {
                    t.row(&[
                        row.scheme.to_string(),
                        row.mf_bits.to_string(),
                        row.cost.clone(),
                        row.packets_to_identify
                            .map_or_else(|| "never".into(), |n| n.to_string()),
                        row.candidates.to_string(),
                        fnum(row.false_rate),
                        fnum(row.confidence),
                    ]);
                    jrows.push(json!({
                        "scheme": row.scheme,
                        "mf_bits": row.mf_bits,
                        "per_hop_cost": row.cost,
                        "packets_to_identify": row.packets_to_identify,
                        "candidates": row.candidates,
                        "false_attribution_rate": row.false_rate,
                        "confidence": row.confidence,
                        "observed": row.observed,
                    }));
                }
                Err(e) => {
                    t.row(&[
                        spec.as_str().to_string(),
                        "-".into(),
                        "infeasible".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    jrows.push(json!({"scheme": spec.as_str(), "infeasible": e}));
                }
            }
        }
        body.push_str(&format!("{}:\n{}\n", topo.describe(), t.render()));
        jtopos.push(json!({"topology": topo.describe(), "rows": jrows}));
    }
    body.push_str(
        "DDPM and tracemax identify from the first packet per zombie; DPM needs\n\
         its signature table and inherits collision false-attribution; the PPM\n\
         variants pay the coupon-collector convergence the analysis predicts;\n\
         `none` is the no-marking floor (the victim learns nothing).\n",
    );
    Report {
        key: "bakeoff",
        title: "Scheme bake-off — all plugins under identical seeded floods".into(),
        body,
        json: json!({
            "seed": seed,
            "zombies": ZOMBIES.to_vec(),
            "victim": VICTIM,
            "packets_per_zombie": ppz,
            "topologies": jtopos,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_schemes_identify_immediately() {
        let schedule = flood_schedule(40);
        for topo in topologies() {
            for spec in [SchemeSpec::Ddpm, SchemeSpec::Tracemax] {
                let row = run_scheme(&topo, spec, 7, &schedule).unwrap();
                // One packet from each zombie suffices; the second
                // zombie's first delivery closes the set.
                let n = row.packets_to_identify.expect("must identify");
                assert!(n <= 4, "{spec:?} on {topo}: {n} packets");
                assert_eq!(row.candidates, 2, "{spec:?} on {topo}");
                assert_eq!(row.false_rate, 0.0, "{spec:?} on {topo}");
            }
        }
    }

    #[test]
    fn no_marking_never_identifies() {
        let schedule = flood_schedule(10);
        let row = run_scheme(&topologies()[0], SchemeSpec::None, 7, &schedule).unwrap();
        assert_eq!(row.packets_to_identify, None);
        assert_eq!(row.candidates, 0);
        assert_eq!(row.mf_bits, 0);
    }

    #[test]
    fn full_grid_produces_a_row_per_scheme() {
        let ctx = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        let report = run(&ctx);
        let topos = report.json["topologies"].as_array().unwrap();
        assert_eq!(topos.len(), 3);
        for t in topos {
            let rows = t["rows"].as_array().unwrap();
            assert_eq!(rows.len(), SchemeSpec::ALL.len());
            // auth-ppm-edge pays its tag out of an already-full field:
            // a recorded feasibility wall on every 16-node topology.
            let wall = rows
                .iter()
                .find(|r| r["scheme"] == "auth-ppm-edge")
                .unwrap();
            assert!(wall["infeasible"].as_str().is_some(), "{wall:?}");
            // auth-ddpm fits everywhere at 16 nodes and verifies an
            // honest flood completely.
            let auth = rows.iter().find(|r| r["scheme"] == "auth-ddpm").unwrap();
            assert!(auth["infeasible"].is_null(), "{auth:?}");
            assert!(auth["packets_to_identify"].as_u64().is_some(), "{auth:?}");
        }
        assert!(report.body.contains("tracemax"), "{}", report.body);
    }

    #[test]
    fn ppm_converges_slower_than_ddpm() {
        let schedule = flood_schedule(200);
        let topo = Topology::mesh2d(4);
        let ddpm = run_scheme(&topo, SchemeSpec::Ddpm, 7, &schedule).unwrap();
        let ppm = run_scheme(&topo, SchemeSpec::PpmEdge, 7, &schedule).unwrap();
        let d = ddpm.packets_to_identify.unwrap();
        if let Some(p) = ppm.packets_to_identify {
            assert!(p > d, "probabilistic ({p}) vs deterministic ({d})");
        } // else: did not converge in the horizon — even slower.
    }
}
