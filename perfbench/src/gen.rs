//! Seeded workload generator.
//!
//! The benchmark's `--seed` is the only source of randomness: it picks
//! victims, zombies, compromised switches, the framed node, and the
//! fault/adversary/simulation seeds written into each scenario. The
//! program under test sees only the generated scenario JSON and wire
//! lines, never the benchmark seed.

use crate::Profile;
use ddpm_topology::{NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::BTreeSet;

/// One generated scenario: the config object, its exact text (what the
/// parser and the `scenario` binary read), and the attack ground truth.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scenario config object.
    pub config: Value,
    /// `config` serialised; the bytes handed to the program.
    pub text: String,
    /// Configured attack sources.
    pub zombies: Vec<u32>,
    /// Configured attack victim.
    pub victim: u32,
}

impl Scenario {
    fn new(config: Value, zombies: Vec<u32>, victim: u32) -> Self {
        let text = config.to_string();
        Self {
            config,
            text,
            zombies,
            victim,
        }
    }

    /// The configured zombies as a set.
    #[must_use]
    pub fn zombie_set(&self) -> BTreeSet<u32> {
        self.zombies.iter().copied().collect()
    }
}

fn rng_for(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniformly drawn node outside `taken`, which it joins.
fn fresh_node(rng: &mut SmallRng, nodes: u32, taken: &mut BTreeSet<u32>) -> u32 {
    loop {
        let v = rng.gen_range(0..nodes);
        if taken.insert(v) {
            return v;
        }
    }
}

fn torus(side: u16) -> Value {
    json!({"kind": "torus", "dims": [side, side]})
}

/// Zombies in `table3-torus-flood`.
pub const TABLE3_ZOMBIES: u32 = 16;

/// `table3-torus-flood`: a Table 3 maximum fabric (128x128 torus),
/// dimension-order routing, plain DDPM, staged injection, no background.
///
/// The 16 zombies cover the whole fabric by distance from the victim:
/// zombie `i` is drawn uniformly among the nodes whose hop distance
/// lies in the `i`-th sixteenth of the diameter. Every seed therefore
/// floods from the same distance profile, including the far half that
/// the scenario path's fixed 64-hop TTL cannot reach (reported as
/// `sim.dropped_ttl`, and excluded from the ground truth because those
/// zombies deliver nothing).
#[must_use]
pub fn table3(seed: u64, profile: Profile) -> Scenario {
    let (side, packets) = match profile {
        Profile::Full => (128u16, 4000u32),
        Profile::Tiny => (16, 40),
    };
    let topo = Topology::torus(&[side, side]);
    let nodes = topo.num_nodes() as u32;
    let mut rng = rng_for(seed, 1);
    let victim = rng.gen_range(0..nodes);
    let at = topo.coord(NodeId(victim));
    let diameter = topo.diameter();
    let zombies: Vec<u32> = (0..TABLE3_ZOMBIES)
        .map(|band| {
            let lo = band * diameter / TABLE3_ZOMBIES + 1;
            let hi = (band + 1) * diameter / TABLE3_ZOMBIES;
            loop {
                let z = rng.gen_range(0..nodes);
                let d = topo.min_hops(&at, &topo.coord(NodeId(z)));
                if (lo..=hi).contains(&d) {
                    break z;
                }
            }
        })
        .collect();
    let config = json!({
        "topology": torus(side),
        "router": "dimension_order",
        "scheme": "ddpm",
        "seed": rng.gen_range(0..1_000_000u64),
        "background_interval": 0,
        "staged_injection": true,
        "attack": {
            "kind": "udp_flood",
            "zombies": zombies.clone(),
            "victim": victim,
            "packets_per_zombie": packets,
            "interval": 64,
        },
    });
    Scenario::new(config, zombies, victim)
}

/// `adaptive-auth-checkpoint`: 8x8 torus, fully adaptive routing,
/// `auth-ddpm` with two compromised switches framing an innocent node,
/// random link faults, benign background and a 3-zombie flood. The
/// `checkpoint` block points at `ckpt_dir`; the benchmark's stride loop
/// calls `checkpoint_now` on its own cadence, and the one-shot runner
/// checkpoints into the same directory on the block's cadence.
#[must_use]
pub fn adaptive_auth(seed: u64, profile: Profile, ckpt_dir: &str) -> Scenario {
    let (side, horizon, packets) = match profile {
        Profile::Full => (8u16, 20_000u64, 1250u32),
        Profile::Tiny => (4, 1_600, 100),
    };
    let nodes = u32::from(side) * u32::from(side);
    let mut rng = rng_for(seed, 2);
    let mut taken = BTreeSet::new();
    let victim = fresh_node(&mut rng, nodes, &mut taken);
    let zombies: Vec<u32> = (0..3)
        .map(|_| fresh_node(&mut rng, nodes, &mut taken))
        .collect();
    let switches: Vec<u32> = (0..2)
        .map(|_| fresh_node(&mut rng, nodes, &mut taken))
        .collect();
    let framed = fresh_node(&mut rng, nodes, &mut taken);
    let config = json!({
        "topology": torus(side),
        "router": "fully_adaptive",
        "scheme": "auth-ddpm",
        "tag_bits": 8,
        "seed": rng.gen_range(0..1_000_000u64),
        "fault_rate": 0.05,
        "background_interval": 16,
        "horizon": horizon,
        "adversary": {
            "switches": switches,
            "behavior": "frame",
            "framed": framed,
            "seed": rng.gen_range(0..1_000_000u64),
        },
        "attack": {
            "kind": "udp_flood",
            "zombies": zombies.clone(),
            "victim": victim,
            "packets_per_zombie": packets,
            "interval": 16,
        },
        "checkpoint": {"every": horizon / 4, "dir": ckpt_dir, "keep": 2},
    });
    Scenario::new(config, zombies, victim)
}

/// Tenants hosted in `serve-identify-mix`.
pub const SERVE_TENANTS: usize = 4;

/// Packets and cadence of each single-zombie flood injected into a
/// scenario world to time `ScenarioWorld::inject`.
pub const INJECT_PACKETS: u32 = 40;
/// Cycles between an injected zombie's packets.
pub const INJECT_INTERVAL: u64 = 32;

/// Zombies the `serve-identify-mix` client may inject per tenant.
pub const SPARE_ZOMBIES: usize = 4;

/// One `serve-identify-mix` tenant: 8x8 torus, fully adaptive routing,
/// plain DDPM, benign background and a 3-zombie flood over the same
/// horizon. Also returns spare nodes (neither victim nor zombie) that
/// the client injects as new zombies, in injection order.
#[must_use]
pub fn serve_tenant(seed: u64, profile: Profile, tenant: usize) -> (Scenario, Vec<u32>) {
    let (side, horizon) = match profile {
        Profile::Full => (8u16, serve_horizon(profile)),
        Profile::Tiny => (4, serve_horizon(profile)),
    };
    let nodes = u32::from(side) * u32::from(side);
    let mut rng = rng_for(seed, 3 + tenant as u64);
    let mut taken = BTreeSet::new();
    let victim = fresh_node(&mut rng, nodes, &mut taken);
    let zombies: Vec<u32> = (0..3)
        .map(|_| fresh_node(&mut rng, nodes, &mut taken))
        .collect();
    let spares: Vec<u32> = (0..SPARE_ZOMBIES)
        .map(|_| fresh_node(&mut rng, nodes, &mut taken))
        .collect();
    let config = json!({
        "topology": torus(side),
        "router": "fully_adaptive",
        "scheme": "ddpm",
        "seed": rng.gen_range(0..1_000_000u64),
        "background_interval": 32,
        "horizon": horizon,
        "attack": {
            "kind": "udp_flood",
            "zombies": zombies.clone(),
            "victim": victim,
            "packets_per_zombie": horizon / 32,
            "interval": 32,
        },
    });
    (Scenario::new(config, zombies, victim), spares)
}

/// Background horizon (cycles) of a `serve-identify-mix` tenant. Even
/// the tiny 4x4 tenants must outlive a few ~45 ms request round trips,
/// or no identify would land while they ingest.
#[must_use]
pub fn serve_horizon(profile: Profile) -> u64 {
    match profile {
        Profile::Full => 60_000,
        Profile::Tiny => 200_000,
    }
}

/// The attack block the client injects to add zombie `z` to a tenant.
///
/// It sends a third of a scenario zombie's packets: the collectors keep
/// only candidates with at least a quarter of the strongest one's
/// support, so a smaller flood would be (correctly) left out of the
/// final answer and the ground truth would no longer be "every zombie
/// that delivered". At half a scenario zombie's rate, all
/// [`SPARE_ZOMBIES`] of them plus the scenario's three stay below the
/// victim's ejection rate, so no attack packet drops.
#[must_use]
pub fn injected_flood(z: u32, victim: u32, profile: Profile) -> Value {
    json!({
        "kind": "udp_flood",
        "zombies": [z],
        "victim": victim,
        "packets_per_zombie": serve_horizon(profile) / 96,
        "interval": 64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(table3(7, Profile::Tiny).text, table3(7, Profile::Tiny).text);
        assert_ne!(table3(7, Profile::Tiny).text, table3(8, Profile::Tiny).text);
        assert_eq!(
            adaptive_auth(7, Profile::Full, "d").text,
            adaptive_auth(7, Profile::Full, "d").text
        );
        assert_eq!(
            serve_tenant(7, Profile::Full, 1).0.text,
            serve_tenant(7, Profile::Full, 1).0.text
        );
        assert_ne!(
            serve_tenant(7, Profile::Full, 1).0.text,
            serve_tenant(7, Profile::Full, 2).0.text
        );
    }

    #[test]
    fn table3_zombies_cover_every_distance_band() {
        for seed in 0..4 {
            let sc = table3(seed, Profile::Full);
            let topo = Topology::torus(&[128, 128]);
            let at = topo.coord(NodeId(sc.victim));
            let dists: Vec<u32> = sc
                .zombies
                .iter()
                .map(|&z| topo.min_hops(&at, &topo.coord(NodeId(z))))
                .collect();
            for (band, d) in dists.iter().enumerate() {
                let band = band as u32;
                assert!((band * 8 + 1..=band * 8 + 8).contains(d), "{dists:?}");
            }
            assert_eq!(sc.zombie_set().len(), 16);
        }
    }

    #[test]
    fn roles_are_disjoint() {
        for seed in 0..8 {
            let sc = adaptive_auth(seed, Profile::Full, "d");
            let adv = &sc.config["adversary"];
            let mut all: Vec<u64> = sc.zombies.iter().map(|&z| u64::from(z)).collect();
            all.push(u64::from(sc.victim));
            all.push(adv["framed"].as_u64().expect("framed"));
            for s in adv["switches"].as_array().expect("switches") {
                all.push(s.as_u64().expect("switch"));
            }
            let set: BTreeSet<u64> = all.iter().copied().collect();
            assert_eq!(set.len(), all.len());
            let (t, spares) = serve_tenant(seed, Profile::Full, 0);
            assert!(spares
                .iter()
                .all(|s| !t.zombies.contains(s) && *s != t.victim));
        }
    }
}
