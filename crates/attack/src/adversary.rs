//! The Byzantine marking-plane adversary — the mechanism half of
//! [`AdversarySpec`].
//!
//! §4.1 of the paper hedges that switches "are very less unlikely to be
//! compromised" and sketches authentication as the remedy if that
//! assumption falls. [`AdversaryModel`] drops the assumption: it wraps
//! the run's honest [`MarkingScheme`] and replaces the *marking plane*
//! of every switch named in an [`AdversarySpec`] with the configured
//! [`AdversaryBehavior`], so experiments can measure
//!
//! * how badly each unauthenticated scheme misattributes under each
//!   behavior, and
//! * how completely the `auth-*` discipline (`ddpm_core::auth`)
//!   contains it.
//!
//! ## Split trust, and what stays honest
//!
//! Only marking misbehaves. The forwarding plane (routing, TTL,
//! buffering) stays correct — a switch that corrupts forwarding takes
//! the fabric down, which is a different failure already modelled by
//! fault injection. Compromised switches do **not** hold the `auth-*`
//! key: forging a valid tag means guessing, at the documented `2^-t`
//! per packet. Injection and delivery run honestly even at compromised
//! switches — a source switch that emits implausible fields is
//! trivially caught, so the adversary attacks in transit.
//!
//! ## Story forging
//!
//! `frame`, `mark-flood` and `collude` do not scribble garbage; they
//! fabricate the *exact field an honest packet from the framed node
//! would carry* at this point in the fabric. The forgery replays the
//! framed node's hypothetical history on a private replica of the base
//! scheme ([`ForgePlan`]): inject at the framed node, forward along the
//! dimension-order path to the compromised switch, with the
//! hypothetical TTL arranged to coincide with the real packet's TTL on
//! arrival. Against displacement accumulation (DDPM) and path replay
//! (Tracemax) this framing is exact; against DPM/PPM it is plausible
//! rather than exact (measured, not assumed). The replica cannot seal
//! tags — against `auth-*` runs the remaining `tag_bits` are guessed
//! per packet.
//!
//! All adversary randomness (tag guesses, pollution-source rotation) is
//! derived from [`AdversarySpec::seed`] and the packet id, never from
//! the run RNG, so a packet's tampering is independent of event order
//! and a resumed run tampers bit-identically.

use ddpm_core::prf;
use ddpm_core::scheme::{forge_plan, ForgePlan};
use ddpm_net::{MarkingField, Packet, PacketId};
use ddpm_routing::{trace_path, Router, SelectionPolicy};
use ddpm_sim::{
    AdversaryBehavior, AdversarySpec, AdversaryState, Collector, HopCost, MarkEnv, Marker,
    MarkingScheme, SchemeSpec,
};
use ddpm_topology::{Coord, FaultSet, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Mutex;

/// A marking layer in which a set of switches is compromised.
///
/// Wraps the run's honest scheme: every switch outside
/// [`AdversarySpec::switches`] behaves honestly; compromised switches
/// apply [`AdversarySpec::behavior`] on forward. Implements
/// [`MarkingScheme`] by delegation (same budget, cost and collector as
/// the wrapped scheme), so the scenario driver slots it in wherever the
/// honest scheme went — the victim does not get a cleaner view just
/// because the fabric is dirty.
pub struct AdversaryModel<'a> {
    inner: &'a dyn MarkingScheme,
    spec: AdversarySpec,
    /// Replica of the base scheme used to fabricate framed stories;
    /// `None` for behaviors that forge no story.
    plan: Option<ForgePlan>,
    /// Checkpointable dynamic state, indexed like `spec.switches`.
    state: Mutex<AdversaryState>,
    /// Ids of packets whose field some compromised switch touched.
    /// Experiment-side ground truth (false-accept measurement); *not*
    /// part of [`AdversaryState`] — a resumed run replays marking
    /// bit-identically from `last_seen`/`tampered` alone, and reports
    /// always run uninterrupted.
    tampered_ids: Mutex<HashSet<PacketId>>,
}

impl<'a> AdversaryModel<'a> {
    /// Wraps `inner` (the run's scheme, built from `run` on `topo`)
    /// with the misbehavior described by `spec`. `tag_bits` must echo
    /// the run's tag-width override so the forged story is carved
    /// exactly like the honest field.
    ///
    /// # Errors
    /// Rejects out-of-range switch or framed ids, a missing `framed`
    /// for behaviors that need one, framing a compromised switch, an
    /// empty switch set, and any [`forge_plan`] feasibility wall.
    pub fn new(
        inner: &'a dyn MarkingScheme,
        run: SchemeSpec,
        topo: &Topology,
        spec: AdversarySpec,
        tag_bits: Option<u32>,
    ) -> Result<Self, String> {
        let n = topo.num_nodes();
        if spec.switches.is_empty() {
            return Err("adversary needs at least one compromised switch".into());
        }
        if let Some(bad) = spec.switches.iter().find(|s| u64::from(s.0) >= n) {
            return Err(format!(
                "compromised switch {} out of range (fabric has {n} nodes)",
                bad.0
            ));
        }
        let needs_story = matches!(
            spec.behavior,
            AdversaryBehavior::Frame | AdversaryBehavior::MarkFlood | AdversaryBehavior::Collude
        );
        match spec.framed {
            None if spec.behavior.needs_framed() => {
                return Err(format!(
                    "adversary behavior `{}` needs a framed node",
                    spec.behavior.as_str()
                ));
            }
            Some(f) if u64::from(f.0) >= n => {
                return Err(format!(
                    "framed node {} out of range (fabric has {n} nodes)",
                    f.0
                ));
            }
            Some(f) if spec.index_of(f).is_some() => {
                return Err(format!(
                    "framed node {} is itself compromised — frame an innocent",
                    f.0
                ));
            }
            _ => {}
        }
        let plan = if needs_story {
            Some(forge_plan(run, topo, tag_bits)?)
        } else {
            None
        };
        let state = Mutex::new(spec.fresh_state());
        Ok(Self {
            inner,
            spec,
            plan,
            state,
            tampered_ids: Mutex::new(HashSet::new()),
        })
    }

    /// The adversary configuration.
    #[must_use]
    pub fn spec(&self) -> &AdversarySpec {
        &self.spec
    }

    /// A checkpointable copy of the dynamic state.
    ///
    /// # Panics
    /// Panics if the state mutex is poisoned.
    #[must_use]
    pub fn state(&self) -> AdversaryState {
        self.state.lock().unwrap().clone()
    }

    /// Restores dynamic state captured by [`AdversaryModel::state`],
    /// so a resumed run tampers exactly like the uninterrupted one.
    ///
    /// # Errors
    /// The state must be sized for this spec's switch list.
    pub fn restore(&self, state: AdversaryState) -> Result<(), String> {
        let want = self.spec.switches.len();
        if state.last_seen.len() != want || state.tampered.len() != want {
            return Err(format!(
                "adversary state sized for {} switches, spec has {want}",
                state.last_seen.len()
            ));
        }
        *self.state.lock().unwrap() = state;
        Ok(())
    }

    /// Packets misbehaved on so far, across all compromised switches.
    ///
    /// # Panics
    /// Panics if the state mutex is poisoned.
    #[must_use]
    pub fn total_tampered(&self) -> u64 {
        self.state.lock().unwrap().total_tampered()
    }

    /// True if some compromised switch misbehaved on this packet —
    /// the ground truth behind the false-accept metric (a delivered,
    /// tampered packet that still *verifies* is a successful forgery).
    ///
    /// # Panics
    /// Panics if the id-set mutex is poisoned.
    #[must_use]
    pub fn was_tampered(&self, id: PacketId) -> bool {
        self.tampered_ids.lock().unwrap().contains(&id)
    }

    /// Private per-packet randomness. `salt` distinguishes independent
    /// guessers (per-switch) from colluders (shared stream).
    fn forge_rng(&self, pkt: &Packet, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(prf(self.spec.seed, &[pkt.id.0, salt]))
    }

    /// The field an honest packet injected at `framed` would carry
    /// leaving `cur` toward `next`, with the hypothetical TTL arranged
    /// to equal the real packet's current TTL, plus a guessed tag when
    /// the run is authenticated.
    fn forged_story(
        &self,
        pkt: &Packet,
        framed: &Coord,
        cur: &Coord,
        next: &Coord,
        env: &MarkEnv<'_>,
        rng: &mut SmallRng,
    ) -> MarkingField {
        let plan = self.plan.as_ref().expect("story behaviors carry a plan");
        // The fabricated approach path. The real fabric may have faults;
        // the story does not need to match it — only to be a history the
        // victim's decoder accepts.
        let hops = trace_path(
            env.topo,
            &FaultSet::none(),
            Router::DimensionOrder,
            SelectionPolicy::First,
            rng,
            framed,
            cur,
            env.topo.diameter().max(1) * 2,
        )
        .unwrap_or_else(|_| vec![*framed]);
        let mut scratch = *pkt;
        // TTL decrements on arrival at each switch after the source, so
        // after |hops|-1 decrements the hypothetical TTL meets the real
        // one at `cur` — the tag-relevant and DPM-slot-relevant value.
        let approach = u8::try_from(hops.len() - 1).unwrap_or(u8::MAX);
        scratch.header.ttl = pkt.header.ttl.saturating_add(approach);
        scratch.header.identification = MarkingField::zero();
        plan.replica.on_inject(&mut scratch, framed, env);
        for pair in hops.windows(2) {
            plan.replica
                .on_forward(&mut scratch, &pair[0], &pair[1], env, rng);
            scratch.header.ttl = scratch.header.ttl.saturating_sub(1);
        }
        plan.replica.on_forward(&mut scratch, cur, next, env, rng);
        let mut forged = scratch.header.identification;
        if plan.tag_bits > 0 {
            let guess = rng.gen::<u16>() & ((1u16 << plan.tag_bits) - 1);
            forged.set_bits(plan.story_bits, plan.tag_bits, guess);
        }
        forged
    }

    /// A rotating innocent for `mark-flood`: any node that is neither
    /// compromised nor the packet's own destination.
    fn rotating_innocent(&self, pkt: &Packet, env: &MarkEnv<'_>, rng: &mut SmallRng) -> Coord {
        let n = u32::try_from(env.topo.num_nodes()).expect("fabric fits u32");
        loop {
            let id = NodeId(rng.gen_range(0..n));
            if self.spec.index_of(id).is_none() && id.0 != pkt.dest_node.0 {
                return env.topo.coord(id);
            }
        }
    }
}

impl Marker for AdversaryModel<'_> {
    fn name(&self) -> &'static str {
        // The adversary does not announce itself: reports and telemetry
        // keep the wrapped scheme's name.
        self.inner.name()
    }

    fn on_inject(&self, pkt: &mut Packet, src: &Coord, env: &MarkEnv<'_>) {
        self.inner.on_inject(pkt, src, env);
    }

    fn on_forward(
        &self,
        pkt: &mut Packet,
        cur: &Coord,
        next: &Coord,
        env: &MarkEnv<'_>,
        rng: &mut SmallRng,
    ) {
        let Some(idx) = self.spec.index_of(env.topo.index(cur)) else {
            self.inner.on_forward(pkt, cur, next, env, rng);
            return;
        };
        let seen = pkt.header.identification;
        let replayed = {
            let mut st = self.state.lock().unwrap();
            let replayed = st.last_seen[idx];
            st.last_seen[idx] = Some(seen.raw());
            st.tampered[idx] += 1;
            replayed
        };
        self.tampered_ids.lock().unwrap().insert(pkt.id);
        match self.spec.behavior {
            AdversaryBehavior::Skip => {}
            AdversaryBehavior::Randomize => {
                let mut frng = self.forge_rng(pkt, idx as u64);
                pkt.header.identification = MarkingField::new(frng.gen());
            }
            AdversaryBehavior::Replay => {
                // Resurrect the last field this switch saw (first packet
                // has nothing to replay), then run the honest update on
                // the corrupted state. Authenticated schemes refuse the
                // update — the replayed tag no longer matches — which is
                // exactly the containment being measured.
                if let Some(old) = replayed {
                    pkt.header.identification = MarkingField::new(old);
                }
                self.inner.on_forward(pkt, cur, next, env, rng);
            }
            AdversaryBehavior::Frame => {
                let framed = env.topo.coord(self.spec.framed.expect("validated"));
                let mut frng = self.forge_rng(pkt, idx as u64);
                pkt.header.identification =
                    self.forged_story(pkt, &framed, cur, next, env, &mut frng);
            }
            AdversaryBehavior::MarkFlood => {
                let mut frng = self.forge_rng(pkt, idx as u64);
                let framed = self.rotating_innocent(pkt, env, &mut frng);
                pkt.header.identification =
                    self.forged_story(pkt, &framed, cur, next, env, &mut frng);
            }
            AdversaryBehavior::Collude => {
                // Shared forge stream (salt 0 for every colluder): all
                // compromised switches tell the same story about the
                // same innocent, down to the same tag guess — and a
                // co-conspirator's still-consistent forgery is left
                // intact rather than re-stamped.
                let framed = env.topo.coord(self.spec.framed.expect("validated"));
                let mut frng = self.forge_rng(pkt, 0);
                let forged = self.forged_story(pkt, &framed, cur, next, env, &mut frng);
                if seen != forged {
                    pkt.header.identification = forged;
                }
            }
        }
    }

    fn on_deliver(&self, pkt: &mut Packet, dest: &Coord, env: &MarkEnv<'_>, rng: &mut SmallRng) {
        self.inner.on_deliver(pkt, dest, env, rng);
    }
}

impl MarkingScheme for AdversaryModel<'_> {
    fn mf_bits(&self) -> u32 {
        self.inner.mf_bits()
    }

    fn per_hop_cost(&self) -> HopCost {
        self.inner.per_hop_cost()
    }

    fn collector<'a>(&'a self, topo: &'a Topology, victim: NodeId) -> Box<dyn Collector + 'a> {
        self.inner.collector(topo, victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PacketFactory;
    use ddpm_core::scheme::{build_scheme, DEFAULT_AUTH_KEY};
    use ddpm_core::{Authenticated, DdpmScheme};
    use ddpm_net::{AddrMap, L4};
    use ddpm_sim::{Delivered, SimConfig, SimTime, Simulation, CONVICTION_CONFIDENCE};
    use ddpm_topology::NodeId;

    fn spec(behavior: AdversaryBehavior, framed: Option<u32>) -> AdversarySpec {
        AdversarySpec::new(vec![NodeId(16)], behavior, framed.map(NodeId), 0xBAD5EED)
    }

    /// Drives floods from `sources` to (4,0) on an 8x8 mesh; every XY
    /// path from row 0 crosses (2,0) = NodeId(16), the compromised
    /// switch.
    fn run_flows(marker: &dyn Marker, topo: &Topology, sources: &[NodeId]) -> Vec<Delivered> {
        let faults = FaultSet::none();
        let map = AddrMap::for_topology(topo);
        let mut factory = PacketFactory::new(map);
        let mut sim = Simulation::new(
            topo,
            &faults,
            Router::DimensionOrder,
            SelectionPolicy::First,
            marker,
            SimConfig::seeded(3),
        );
        for k in 0..40u64 {
            for (i, &src) in sources.iter().enumerate() {
                let p = factory.benign(src, NodeId(32), L4::udp(1, 7), 64);
                sim.schedule(SimTime(k * 8 + i as u64), p);
            }
        }
        sim.run();
        sim.into_delivered()
    }

    /// The single-flow case: (0,0) -> (4,0) through the evil (2,0).
    fn run_through_evil(marker: &dyn Marker, topo: &Topology) -> Vec<Delivered> {
        run_flows(marker, topo, &[NodeId(0)])
    }

    #[test]
    fn skip_misattributes_under_plain_ddpm() {
        let topo = Topology::mesh2d(8);
        let scheme = build_scheme(SchemeSpec::Ddpm, &topo).unwrap();
        let adv = AdversaryModel::new(
            &scheme,
            SchemeSpec::Ddpm,
            &topo,
            spec(AdversaryBehavior::Skip, None),
            None,
        )
        .unwrap();
        let delivered = run_through_evil(&adv, &topo);
        assert!(adv.total_tampered() > 0);
        let inner = DdpmScheme::new(&topo).unwrap();
        for d in &delivered {
            let dest = topo.coord(d.packet.dest_node);
            let got = inner
                .identify(&topo, &dest, d.packet.header.identification)
                .unwrap();
            // The skipped hop shifts the recovered source by one: an
            // innocent neighbour is blamed.
            assert_eq!(got, Coord::new(&[1, 0]), "blames the node one hop over");
            assert!(adv.was_tampered(d.packet.id));
        }
    }

    #[test]
    fn framing_convicts_the_framed_node_under_plain_ddpm() {
        let topo = Topology::mesh2d(8);
        let scheme = build_scheme(SchemeSpec::Ddpm, &topo).unwrap();
        let adv = AdversaryModel::new(
            &scheme,
            SchemeSpec::Ddpm,
            &topo,
            spec(AdversaryBehavior::Frame, Some(63)),
            None,
        )
        .unwrap();
        let delivered = run_through_evil(&adv, &topo);
        assert!(!delivered.is_empty());
        let mut coll = adv.collector(&topo, NodeId(32));
        for d in &delivered {
            coll.observe_packet(&d.packet);
        }
        let att = coll.attribute();
        assert!(
            att.convicts(NodeId(63)),
            "plain DDPM convicts the framed innocent: {att:?}"
        );
    }

    #[test]
    fn collude_is_one_consistent_story() {
        let topo = Topology::mesh2d(8);
        let scheme = build_scheme(SchemeSpec::Ddpm, &topo).unwrap();
        // Two colluders on the same XY path: (1,0) and (2,0).
        let spec = AdversarySpec::new(
            vec![NodeId(8), NodeId(16)],
            AdversaryBehavior::Collude,
            Some(NodeId(63)),
            0xBAD5EED,
        );
        let adv = AdversaryModel::new(&scheme, SchemeSpec::Ddpm, &topo, spec, None).unwrap();
        let delivered = run_through_evil(&adv, &topo);
        let mut coll = adv.collector(&topo, NodeId(32));
        for d in &delivered {
            coll.observe_packet(&d.packet);
        }
        assert!(coll.attribute().convicts(NodeId(63)));
        let st = adv.state();
        assert!(st.tampered.iter().all(|&t| t > 0), "both colluders acted");
    }

    #[test]
    fn auth_contains_every_behavior() {
        let topo = Topology::mesh2d(8);
        let auth = Authenticated::new(
            DdpmScheme::new(&topo).unwrap(),
            "auth-ddpm",
            DEFAULT_AUTH_KEY,
            8,
        )
        .unwrap();
        for behavior in AdversaryBehavior::ALL {
            let framed = behavior.needs_framed().then_some(63);
            let adv = AdversaryModel::new(
                &auth,
                SchemeSpec::AuthDdpm,
                &topo,
                spec(behavior, framed),
                None,
            )
            .unwrap();
            // Two flows through the evil switch: replay then corrupts
            // across flows (a same-flow replay is bit-identical and
            // legitimately invisible).
            let delivered = run_flows(&adv, &topo, &[NodeId(0), NodeId(8)]);
            assert!(!delivered.is_empty());
            assert!(adv.total_tampered() > 0, "{behavior:?} never fired");
            let mut coll = adv.collector(&topo, NodeId(32));
            for d in &delivered {
                coll.observe_packet(&d.packet);
            }
            assert!(coll.rejected() > 0, "{behavior:?}: tampering invisible");
            let att = coll.attribute();
            assert!(
                !att.convicts(NodeId(63)),
                "{behavior:?}: framed innocent convicted at \
                 confidence >= {CONVICTION_CONFIDENCE}: {att:?}"
            );
        }
    }

    #[test]
    fn state_round_trips_for_resume() {
        let topo = Topology::mesh2d(8);
        let scheme = build_scheme(SchemeSpec::Ddpm, &topo).unwrap();
        let adv = AdversaryModel::new(
            &scheme,
            SchemeSpec::Ddpm,
            &topo,
            spec(AdversaryBehavior::Replay, None),
            None,
        )
        .unwrap();
        let _ = run_through_evil(&adv, &topo);
        let st = adv.state();
        assert!(st.total_tampered() > 0);
        assert!(st.last_seen[0].is_some(), "replay recorded a field");
        let fresh = AdversaryModel::new(
            &scheme,
            SchemeSpec::Ddpm,
            &topo,
            spec(AdversaryBehavior::Replay, None),
            None,
        )
        .unwrap();
        fresh.restore(st.clone()).unwrap();
        assert_eq!(fresh.state(), st);
        assert!(fresh.restore(AdversaryState::default()).is_err());
    }

    #[test]
    fn constructor_rejects_bad_configs() {
        let topo = Topology::mesh2d(4);
        let scheme = build_scheme(SchemeSpec::Ddpm, &topo).unwrap();
        let mk = |spec: AdversarySpec| {
            AdversaryModel::new(&scheme, SchemeSpec::Ddpm, &topo, spec, None)
                .err()
                .unwrap()
        };
        let e = mk(AdversarySpec::new(
            vec![],
            AdversaryBehavior::Skip,
            None,
            0,
        ));
        assert!(e.contains("at least one"), "{e}");
        let e = mk(AdversarySpec::new(
            vec![NodeId(99)],
            AdversaryBehavior::Skip,
            None,
            0,
        ));
        assert!(e.contains("out of range"), "{e}");
        let e = mk(AdversarySpec::new(
            vec![NodeId(5)],
            AdversaryBehavior::Frame,
            None,
            0,
        ));
        assert!(e.contains("needs a framed node"), "{e}");
        let e = mk(AdversarySpec::new(
            vec![NodeId(5)],
            AdversaryBehavior::Frame,
            Some(NodeId(5)),
            0,
        ));
        assert!(e.contains("itself compromised"), "{e}");
    }
}
