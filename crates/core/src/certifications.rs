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

use serde::Serialize;
use starling_sql::ast::Directive;

/// The set of user certifications in force for an analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Certifications {
    commute: BTreeSet<(String, String)>,
    terminates: BTreeMap<String, String>,
}

fn norm(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
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
        self.commute.insert(norm(a, b));
    }

    /// Declares that cycles through `rule` terminate, with a recorded
    /// justification.
    pub fn certify_terminates(&mut self, rule: &str, justification: &str) {
        self.terminates
            .insert(rule.to_owned(), justification.to_owned());
    }

    /// Removes a commutativity certification (returns whether it existed).
    pub fn revoke_commute(&mut self, a: &str, b: &str) -> bool {
        self.commute.remove(&norm(a, b))
    }

    /// Whether the pair is certified commutative.
    pub fn commute_certified(&self, a: &str, b: &str) -> bool {
        self.commute.contains(&norm(a, b))
    }

    /// Whether the rule carries a termination certificate; returns its
    /// justification.
    pub fn termination_certificate(&self, rule: &str) -> Option<&str> {
        self.terminates.get(rule).map(String::as_str)
    }

    /// All commutativity certifications (normalized pairs).
    pub fn commute_pairs(&self) -> impl Iterator<Item = &(String, String)> {
        self.commute.iter()
    }

    /// Number of certifications of both kinds.
    pub fn len(&self) -> usize {
        self.commute.len() + self.terminates.len()
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
