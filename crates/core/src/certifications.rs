//! User certifications: the interactive inputs of Sections 5 and 6.1.
//!
//! The analyses are conservative; the paper's remedy is interaction:
//!
//! * "We allow the user to declare that pairs of rules that appear
//!   noncommutative according to Lemma 6.1 actually do commute" (§6.1) —
//!   [`Certifications::certify_commute`];
//! * "If the user is able to verify that, on each cycle, there is some rule
//!   r such that repeated consideration ... guarantees that r's condition
//!   eventually becomes false or r's action eventually has no effect, then
//!   the rules are guaranteed to terminate" (§5) —
//!   [`Certifications::certify_terminates`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use starling_sql::ast::Directive;

/// The set of user certifications in force for an analysis.
///
/// Both maps sit behind `Arc`, copied on write: every analysis context and
/// the pair store's record of the previous bind hold a clone, and a
/// refinement session has tens of thousands of certified pairs. Each rule's
/// set of certified partners sits behind an `Arc` of its own, so a toggle
/// copies the map's keys and the one set it edits, and two versions diff
/// by skipping the sets they still share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Certifications {
    /// Certified pairs, normalized: smaller name → the larger names (never
    /// an empty set), so a lookup by `&str` allocates nothing.
    commute: Arc<BTreeMap<String, Arc<BTreeSet<String>>>>,
    terminates: Arc<BTreeMap<String, String>>,
}

fn norm<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Certifications {
    /// No certifications.
    pub fn new() -> Self {
        Certifications::default()
    }

    /// Builds from parsed `declare` directives.
    pub fn from_directives<'a>(ds: impl IntoIterator<Item = &'a Directive>) -> Self {
        let mut c = Certifications::new();
        for d in ds {
            c.record(d);
        }
        c
    }

    /// Records one directive.
    pub fn record(&mut self, d: &Directive) {
        match d {
            Directive::Commute(a, b) => self.certify_commute(a, b),
            Directive::Terminates {
                rule,
                justification,
            } => self.certify_terminates(rule, justification),
        }
    }

    /// Declares that two rules commute despite Lemma 6.1 (unordered pair).
    pub fn certify_commute(&mut self, a: &str, b: &str) {
        let (lo, hi) = norm(a, b);
        if !self.commute_certified(lo, hi) {
            let his = Arc::make_mut(&mut self.commute)
                .entry(lo.to_owned())
                .or_default();
            Arc::make_mut(his).insert(hi.to_owned());
        }
    }

    /// Declares that cycles through `rule` terminate, with a recorded
    /// justification.
    pub fn certify_terminates(&mut self, rule: &str, justification: &str) {
        Arc::make_mut(&mut self.terminates).insert(rule.to_owned(), justification.to_owned());
    }

    /// Removes a commutativity certification (returns whether it existed).
    pub fn revoke_commute(&mut self, a: &str, b: &str) -> bool {
        let (lo, hi) = norm(a, b);
        if !self.commute_certified(lo, hi) {
            return false;
        }
        let commute = Arc::make_mut(&mut self.commute);
        let his = commute.get_mut(lo).expect("certified pair has an entry");
        if his.len() == 1 {
            commute.remove(lo);
        } else {
            Arc::make_mut(his).remove(hi);
        }
        true
    }

    /// Whether the pair is certified commutative.
    pub fn commute_certified(&self, a: &str, b: &str) -> bool {
        let (lo, hi) = norm(a, b);
        self.commute.get(lo).is_some_and(|his| his.contains(hi))
    }

    /// Whether the rule carries a termination certificate; returns its
    /// justification.
    pub fn termination_certificate(&self, rule: &str) -> Option<&str> {
        self.terminates.get(rule).map(String::as_str)
    }

    /// Whether `self` and `other` certify the same rules' termination with
    /// the same justifications.
    pub(crate) fn same_terminations(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.terminates, &other.terminates) || self.terminates == other.terminates
    }

    /// All commutativity certifications (normalized pairs, ascending).
    pub fn commute_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.commute
            .iter()
            .flat_map(|(lo, his)| his.iter().map(move |hi| (lo.as_str(), hi.as_str())))
    }

    /// The normalized pairs certified in exactly one of `self` and `prev`.
    /// Clones of one value share their map, which is the common case between
    /// two analyses and costs a pointer comparison; after a toggle they
    /// still share every set but one, and only that one is compared.
    pub(crate) fn commute_changes<'a>(&'a self, prev: &'a Self) -> Vec<(&'a str, &'a str)> {
        static NONE: BTreeSet<String> = BTreeSet::new();
        let mut out = Vec::new();
        if Arc::ptr_eq(&self.commute, &prev.commute) {
            return out;
        }
        for (lo, his) in self.commute.iter() {
            let old = match prev.commute.get(lo) {
                Some(old) if Arc::ptr_eq(his, old) => continue,
                Some(old) => &**old,
                None => &NONE,
            };
            out.extend(
                his.symmetric_difference(old)
                    .map(|hi| (lo.as_str(), hi.as_str())),
            );
        }
        for (lo, old) in prev.commute.iter() {
            if !self.commute.contains_key(lo) {
                out.extend(old.iter().map(|hi| (lo.as_str(), hi.as_str())));
            }
        }
        out
    }

    /// Number of certifications of both kinds.
    pub fn len(&self) -> usize {
        self.commute_pairs().count() + self.terminates.len()
    }

    /// Whether no certifications are recorded.
    pub fn is_empty(&self) -> bool {
        self.commute.is_empty() && self.terminates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commute_is_symmetric() {
        let mut c = Certifications::new();
        c.certify_commute("b", "a");
        assert!(c.commute_certified("a", "b"));
        assert!(c.commute_certified("b", "a"));
        assert!(!c.commute_certified("a", "c"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_certifications_collapse() {
        let mut c = Certifications::new();
        c.certify_commute("a", "b");
        c.certify_commute("b", "a");
        assert_eq!(c.len(), 1);
        assert!(c.revoke_commute("a", "b"));
        assert!(!c.revoke_commute("a", "b"));
        assert!(c.is_empty());
    }

    #[test]
    fn clones_share_until_written_and_diff_by_pair() {
        let mut a = Certifications::new();
        a.certify_commute("b", "a");
        a.certify_commute("a", "c");
        a.certify_commute("d", "e");
        let pairs: Vec<_> = a.commute_pairs().collect();
        assert_eq!(pairs, vec![("a", "b"), ("a", "c"), ("d", "e")]);

        let mut b = a.clone();
        assert!(a.commute_changes(&b).is_empty());
        // Re-certifying a certified pair must not unshare the set.
        b.certify_commute("a", "b");
        assert!(Arc::ptr_eq(&a.commute, &b.commute));

        b.revoke_commute("e", "d");
        b.certify_commute("a", "z");
        assert_eq!(
            a.commute_pairs().count(),
            3,
            "the clone's writes are its own"
        );
        assert_eq!(b.commute_changes(&a), vec![("a", "z"), ("d", "e")]);
        assert_eq!(a.commute_changes(&b), vec![("a", "z"), ("d", "e")]);
        assert_eq!(Certifications::new().commute_changes(&b).len(), 3);
        // Equal content behind different allocations diffs to nothing.
        b.revoke_commute("a", "z");
        b.certify_commute("d", "e");
        assert_eq!(a, b);
        assert!(a.commute_changes(&b).is_empty());
    }

    #[test]
    fn a_toggle_copies_the_one_set_it_edits() {
        let mut a = Certifications::new();
        a.certify_commute("a", "b");
        a.certify_commute("a", "c");
        a.certify_commute("d", "e");
        let mut b = a.clone();
        b.certify_commute("a", "z");
        assert!(!Arc::ptr_eq(&a.commute, &b.commute));
        assert!(Arc::ptr_eq(&a.commute["d"], &b.commute["d"]));
        assert!(!Arc::ptr_eq(&a.commute["a"], &b.commute["a"]));
        assert_eq!(b.commute_changes(&a), vec![("a", "z")]);
        // Revoking a set's last pair drops its key without copying it.
        b.revoke_commute("d", "e");
        assert!(!b.commute.contains_key("d"));
        assert_eq!(b.commute_changes(&a), vec![("a", "z"), ("d", "e")]);
    }

    #[test]
    fn terminates_with_justification() {
        let mut c = Certifications::new();
        c.certify_terminates("cleanup", "only deletes");
        assert_eq!(c.termination_certificate("cleanup"), Some("only deletes"));
        assert_eq!(c.termination_certificate("other"), None);
    }

    #[test]
    fn from_directives() {
        let ds = vec![
            Directive::Commute("x".into(), "y".into()),
            Directive::Terminates {
                rule: "z".into(),
                justification: "monotone".into(),
            },
        ];
        let c = Certifications::from_directives(&ds);
        assert!(c.commute_certified("y", "x"));
        assert_eq!(c.termination_certificate("z"), Some("monotone"));
    }
}
