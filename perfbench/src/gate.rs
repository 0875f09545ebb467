//! The correctness gate: every checked operation counts as attempted,
//! every wrong or failed one as failed, with a message saying why.

use std::collections::BTreeSet;

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Failure messages kept verbatim; later ones are only counted.
const KEEP_MESSAGES: usize = 20;

impl Gate {
    /// Records one checked operation; `ok == false` counts it failed
    /// with the message `why()`. Returns `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEEP_MESSAGES {
                self.failures.push(why());
            }
        }
        ok
    }

    /// Records an operation that could not complete at all.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }

    /// Passes `result` through, counting an `Err` as a failed operation
    /// and an `Ok` as a successful one.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// An attribution answer must name exactly `truth`.
    pub fn exact(&mut self, what: &str, named: &[u32], truth: &BTreeSet<u32>) -> bool {
        let got: BTreeSet<u32> = named.iter().copied().collect();
        self.check(got == *truth && got.len() == named.len(), || {
            format!("{what}: named {got:?}, ground truth {truth:?}")
        })
    }

    /// A mid-run answer may name only nodes in `allowed`.
    pub fn subset(&mut self, what: &str, named: &[u32], allowed: &BTreeSet<u32>) -> bool {
        let stray: Vec<u32> = named
            .iter()
            .copied()
            .filter(|n| !allowed.contains(n))
            .collect();
        self.check(stray.is_empty(), || {
            format!("{what}: named {stray:?}, which are not attackers {allowed:?}")
        })
    }

    /// Operations checked so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed a check.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure messages.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_on_a_wrong_zombie_set() {
        let truth: BTreeSet<u32> = [3, 9, 40].into_iter().collect();
        let mut gate = Gate::default();
        assert!(gate.exact("final", &[3, 9, 40], &truth));
        assert_eq!((gate.attempted(), gate.failed()), (1, 0));
        // A missed zombie, an innocent named, and a duplicate all fail.
        assert!(!gate.exact("final", &[3, 9], &truth));
        assert!(!gate.exact("final", &[3, 9, 40, 41], &truth));
        assert!(!gate.exact("final", &[3, 9, 40, 40], &truth));
        assert_eq!((gate.attempted(), gate.failed()), (4, 3));
        assert!(gate.failures()[0].contains("named {3, 9}"));
    }

    #[test]
    fn subset_gate_rejects_innocents_only() {
        let allowed: BTreeSet<u32> = [1, 2].into_iter().collect();
        let mut gate = Gate::default();
        assert!(gate.subset("mid", &[], &allowed));
        assert!(gate.subset("mid", &[2], &allowed));
        assert!(!gate.subset("mid", &[2, 7], &allowed));
        assert_eq!((gate.attempted(), gate.failed()), (3, 1));
        assert!(gate.failures()[0].contains("[7]"));
    }

    #[test]
    fn op_counts_errors() {
        let mut gate = Gate::default();
        assert_eq!(gate.op("a", Ok::<u8, String>(1)), Some(1));
        assert_eq!(gate.op::<u8>("b", Err("boom".into())), None);
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
        assert_eq!(gate.failures(), ["b: boom".to_string()]);
    }
}
