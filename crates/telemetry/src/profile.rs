//! A per-phase wall-clock profiler for the simulators' event loops.
//!
//! The ROADMAP's north star is "as fast as the hardware allows"; the
//! first step is knowing where the cycles go. The profiler attributes
//! host time to named phases (the event-loop dispatch arms: `inject`,
//! `arrive`, `reroute`, `fault`) with two timer reads per event — cheap
//! enough to leave on for whole experiment sweeps, and compiled out of
//! the hot loop entirely when [`crate::TelemetryConfig::profile`] is
//! off.

use std::time::Duration;

/// Accumulated cost of one phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseCost {
    /// Phase name (an event-loop dispatch arm).
    pub name: &'static str,
    /// Total wall-clock time attributed to the phase.
    pub total: Duration,
    /// Events dispatched in the phase.
    pub count: u64,
}

impl PhaseCost {
    /// Mean nanoseconds per event, or 0 with no events.
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.total.as_nanos() / u128::from(self.count)) as u64
        }
    }
}

/// Attributes event-loop wall time to named phases.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    phases: Vec<PhaseCost>,
}

impl PhaseProfiler {
    /// Adds `elapsed` to `name`'s bucket. Phase sets are tiny (≤ a
    /// handful of dispatch arms), so lookup is a linear scan.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.total += elapsed;
            p.count += 1;
        } else {
            self.phases.push(PhaseCost {
                name,
                total: elapsed,
                count: 1,
            });
        }
    }

    /// All phases, in first-seen order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseCost] {
        &self.phases
    }

    /// Total profiled time across phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.total).sum()
    }

    /// A monospace breakdown: per-phase share, event count, mean cost.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total().as_nanos().max(1);
        let mut out = String::from("phase     share   events      mean\n");
        for p in &self.phases {
            out.push_str(&format!(
                "{:<8} {:>5.1}% {:>8} {:>7} ns\n",
                p.name,
                p.total.as_nanos() as f64 * 100.0 / total as f64,
                p.count,
                p.mean_ns(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let mut p = PhaseProfiler::default();
        p.add("arrive", Duration::from_nanos(100));
        p.add("arrive", Duration::from_nanos(300));
        p.add("inject", Duration::from_nanos(100));
        assert_eq!(p.phases().len(), 2);
        let arrive = &p.phases()[0];
        assert_eq!(arrive.name, "arrive");
        assert_eq!(arrive.count, 2);
        assert_eq!(arrive.mean_ns(), 200);
        assert_eq!(p.total(), Duration::from_nanos(500));
        let text = p.render();
        assert!(text.contains("arrive"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
    }
}
