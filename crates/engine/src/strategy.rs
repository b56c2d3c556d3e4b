//! Conflict-resolution strategies: which eligible rule to consider next.
//!
//! The paper's semantics leave the choice among unordered eligible rules
//! *arbitrary* — that arbitrariness is exactly what confluence and
//! observable determinism analyze. The processor therefore takes a pluggable
//! strategy; the execution-graph oracle explores **all** choices instead.

use crate::ruleset::RuleId;

/// Picks one rule from a non-empty set of eligible (triggered, maximal-
/// priority) rules.
pub trait ChoiceStrategy {
    /// Chooses from `eligible`, which is non-empty and sorted by rule id.
    fn choose(&mut self, eligible: &[RuleId]) -> RuleId;
}

/// Always the lowest-numbered eligible rule (definition order).
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstEligible;

impl ChoiceStrategy for FirstEligible {
    fn choose(&mut self, eligible: &[RuleId]) -> RuleId {
        eligible[0]
    }
}

/// Always the highest-numbered eligible rule — a cheap adversary for
/// exposing non-confluence in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastEligible;

impl ChoiceStrategy for LastEligible {
    fn choose(&mut self, eligible: &[RuleId]) -> RuleId {
        *eligible.last().expect("eligible set is non-empty")
    }
}

/// Follows a script of indices (each taken modulo the eligible count);
/// after the script is exhausted, falls back to the first eligible rule.
/// Used to drive execution down a specific path.
#[derive(Clone, Debug)]
pub struct Scripted {
    picks: Vec<usize>,
    next: usize,
}

impl Scripted {
    /// A strategy following `picks`.
    pub fn new(picks: Vec<usize>) -> Self {
        Scripted { picks, next: 0 }
    }
}

impl ChoiceStrategy for Scripted {
    fn choose(&mut self, eligible: &[RuleId]) -> RuleId {
        let pick = self.picks.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        eligible[pick % eligible.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<RuleId> {
        v.iter().map(|&i| RuleId(i)).collect()
    }

    #[test]
    fn first_and_last() {
        let e = ids(&[1, 3, 5]);
        assert_eq!(FirstEligible.choose(&e), RuleId(1));
        assert_eq!(LastEligible.choose(&e), RuleId(5));
    }

    #[test]
    fn scripted_wraps_and_falls_back() {
        let e = ids(&[10, 20]);
        let mut s = Scripted::new(vec![1, 3, 0]);
        assert_eq!(s.choose(&e), RuleId(20)); // 1 % 2 = 1
        assert_eq!(s.choose(&e), RuleId(20)); // 3 % 2 = 1
        assert_eq!(s.choose(&e), RuleId(10)); // 0
        assert_eq!(s.choose(&e), RuleId(10)); // exhausted -> 0
    }
}
