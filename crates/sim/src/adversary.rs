//! The data-only adversary selector: which switches are compromised
//! and how their *marking plane* misbehaves.
//!
//! Section 4.1 of the paper hedges that "switches cannot be
//! compromised" and sketches authentication as the remedy if that
//! assumption falls. This module is the configuration half of dropping
//! the assumption: a [`AdversarySpec`] names a set of compromised
//! switches and a per-run [`AdversaryBehavior`], carried by
//! [`crate::SimConfig`] and scenario files exactly like
//! [`crate::SchemeSpec`]. The *mechanism* — the `Marker` wrapper that
//! actually tampers with marking fields — lives in `ddpm-attack`
//! (`AdversaryModel`), which depends on this crate.
//!
//! ## Split-trust threat model
//!
//! Only the **marking plane** of a compromised switch is evil: it may
//! skip, forge, randomize or replay the marking-field update. The
//! forwarding plane (routing, TTL decrement, buffering) stays correct —
//! a switch that corrupts forwarding takes the fabric down, which is a
//! *different*, already-measured failure (the fault-injection layer).
//! Compromised switches do **not** hold the authentication key of
//! `auth-*` schemes; forging a valid tag means guessing, at the
//! documented `2^-t` per packet.
//!
//! The spec is plain data so the simulator can flag `MarkTamper`
//! telemetry at compromised switches, the checkpoint codec can persist
//! the adversary's dynamic state ([`AdversaryState`]), and a resumed
//! run drives the same deterministic behavior from the run RNG.

use ddpm_topology::NodeId;

/// How a compromised switch's marking plane misbehaves.
///
/// Every behavior is deterministic given the adversary seed and the
/// packet id, so a packet's tampering does not depend on how other
/// packets' events interleave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryBehavior {
    /// Silently skip the marking update (the §6.2 "stale mark" threat).
    Skip,
    /// Overwrite the field with a forged story implicating the
    /// configured innocent node (requires [`AdversarySpec::framed`]).
    Frame,
    /// Overwrite the field with uniform random bits.
    Randomize,
    /// Replace the field with the last field this switch saw (any
    /// flow), then let the honest update run on the replayed state.
    Replay,
    /// Mark pollution: overwrite with a well-formed forged story from a
    /// rotating innocent node, flooding the victim's census.
    MarkFlood,
    /// Colluding framers: every compromised switch tells the *same*
    /// forged story about [`AdversarySpec::framed`], and leaves a
    /// co-conspirator's forgery intact instead of re-stamping it.
    Collude,
}

impl AdversaryBehavior {
    /// Every behavior, in canonical (report-grid) order.
    pub const ALL: [AdversaryBehavior; 6] = [
        AdversaryBehavior::Skip,
        AdversaryBehavior::Frame,
        AdversaryBehavior::Randomize,
        AdversaryBehavior::Replay,
        AdversaryBehavior::MarkFlood,
        AdversaryBehavior::Collude,
    ];

    /// Parses a behavior name as written in scenario files.
    ///
    /// # Errors
    /// Unknown names report the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "skip" => Ok(AdversaryBehavior::Skip),
            "frame" => Ok(AdversaryBehavior::Frame),
            "randomize" => Ok(AdversaryBehavior::Randomize),
            "replay" => Ok(AdversaryBehavior::Replay),
            "mark-flood" => Ok(AdversaryBehavior::MarkFlood),
            "collude" => Ok(AdversaryBehavior::Collude),
            other => Err(format!(
                "unknown adversary behavior `{other}` \
                 (skip|frame|randomize|replay|mark-flood|collude)"
            )),
        }
    }

    /// The canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AdversaryBehavior::Skip => "skip",
            AdversaryBehavior::Frame => "frame",
            AdversaryBehavior::Randomize => "randomize",
            AdversaryBehavior::Replay => "replay",
            AdversaryBehavior::MarkFlood => "mark-flood",
            AdversaryBehavior::Collude => "collude",
        }
    }

    /// True for behaviors that need a designated innocent to frame.
    #[must_use]
    pub fn needs_framed(self) -> bool {
        matches!(self, AdversaryBehavior::Frame | AdversaryBehavior::Collude)
    }
}

/// The compromised-switch configuration of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Compromised switches, by dense node id, sorted and deduplicated
    /// by [`AdversarySpec::new`]. Per-switch dynamic state
    /// ([`AdversaryState`]) is indexed by position in this list.
    pub switches: Vec<NodeId>,
    /// The shared misbehavior.
    pub behavior: AdversaryBehavior,
    /// The innocent node framed by `frame`/`collude`.
    pub framed: Option<NodeId>,
    /// Seed for the adversary's private randomness (tag guesses,
    /// pollution-source rotation), independent of the run seed.
    pub seed: u64,
}

impl AdversarySpec {
    /// Normalises the switch list (sorted, deduplicated).
    #[must_use]
    pub fn new(
        mut switches: Vec<NodeId>,
        behavior: AdversaryBehavior,
        framed: Option<NodeId>,
        seed: u64,
    ) -> Self {
        switches.sort_unstable_by_key(|n| n.0);
        switches.dedup();
        Self {
            switches,
            behavior,
            framed,
            seed,
        }
    }

    /// Position of `node` in the compromised list, if compromised.
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.switches.binary_search_by_key(&node.0, |n| n.0).ok()
    }

    /// A fresh (all-zero) dynamic state sized for this spec.
    #[must_use]
    pub fn fresh_state(&self) -> AdversaryState {
        AdversaryState {
            last_seen: vec![None; self.switches.len()],
            tampered: vec![0; self.switches.len()],
        }
    }
}

/// The adversary's dynamic state, as plain data for checkpointing.
///
/// Indexed by position in [`AdversarySpec::switches`]. Captured by the
/// scenario driver next to [`crate::SimSnapshot`] so a resumed run
/// replays and tampers bit-identically to the uninterrupted one.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AdversaryState {
    /// Per switch: the last marking-field value seen (feeds `replay`).
    pub last_seen: Vec<Option<u16>>,
    /// Per switch: packets whose field this switch tampered with.
    pub tampered: Vec<u64>,
}

impl AdversaryState {
    /// Total tampered packets across all compromised switches.
    #[must_use]
    pub fn total_tampered(&self) -> u64 {
        self.tampered.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_names_round_trip() {
        for b in AdversaryBehavior::ALL {
            assert_eq!(AdversaryBehavior::parse(b.as_str()), Ok(b));
        }
        let err = AdversaryBehavior::parse("sabotage").unwrap_err();
        assert!(err.contains("unknown adversary behavior `sabotage`"), "{err}");
        assert!(err.contains("mark-flood"), "{err}");
    }

    #[test]
    fn spec_normalises_and_indexes() {
        let spec = AdversarySpec::new(
            vec![NodeId(9), NodeId(2), NodeId(9)],
            AdversaryBehavior::Skip,
            None,
            7,
        );
        assert_eq!(spec.switches, vec![NodeId(2), NodeId(9)]);
        assert_eq!(spec.index_of(NodeId(9)), Some(1));
        assert_eq!(spec.index_of(NodeId(3)), None);
        let st = spec.fresh_state();
        assert_eq!(st.last_seen.len(), 2);
        assert_eq!(st.total_tampered(), 0);
    }

    #[test]
    fn framed_requirement_is_declared() {
        assert!(AdversaryBehavior::Frame.needs_framed());
        assert!(AdversaryBehavior::Collude.needs_framed());
        assert!(!AdversaryBehavior::Replay.needs_framed());
    }
}
