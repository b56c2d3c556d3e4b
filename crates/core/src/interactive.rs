//! The interactive analysis loop (paper Section 6.4 and the introduction's
//! "interactive development environment"): analyze, then certify a flagged
//! pair or order it, then re-analyze.
//!
//! An [`InteractiveSession`] is an engine [`Session`] plus one
//! [`IncrementalAnalysis`]. The session's rule program is the only copy of
//! the rules: a certification is a `declare` directive in it, an ordering an
//! `alter rule`, and each edit is persisted when the session is durable.
//! [`InteractiveSession::analyze`] reads the certifications from the
//! directives and the rules from [`Session::ruleset_arc`], so it compiles
//! only after the program changed, records only the directives appended
//! since the last analyze, and the analyzer re-derives only what the edit
//! dirtied. Because the analyzer diffs its inputs on every call,
//! the session may also be edited directly (the server's `exec` runs rule
//! DDL that way). The server's `certify` / `order` / `analyze` ops and the
//! CLI's `analyze` all run through this driver.
//!
//! [`InteractiveSession::order_until_confluent`] reproduces the paper's
//! footnote 6: "a source of non-confluence can appear to *move around*,
//! requiring an iterative process of adding orderings (or certifying
//! commutativity) until the rule set is made confluent".

use std::sync::Arc;

use starling_engine::{EngineError, Session};
use starling_sql::ast::{Directive, Statement};

use crate::certifications::Certifications;
use crate::incremental::{IncrementalAnalysis, IncrementalStats};
use crate::partial::check_protected_tables;
use crate::report::AnalysisReport;

/// An engine session driven through the §6.4 loop. See the module docs.
pub struct InteractiveSession {
    /// The session whose rule program the loop analyzes and edits.
    pub session: Session,
    analysis: IncrementalAnalysis,
    /// The certifications of `recorded`, kept from one analyze to the next
    /// so that an appended directive costs one toggle, not a rebuild.
    certs: Certifications,
    /// The directives `certs` records, in the session's order.
    recorded: Vec<Directive>,
}

impl InteractiveSession {
    /// Drives `session`'s rule program.
    pub fn new(session: Session) -> Self {
        InteractiveSession {
            session,
            analysis: IncrementalAnalysis::new(),
            certs: Certifications::new(),
            recorded: Vec::new(),
        }
    }

    /// Pair-store and sweep counters for the session's analyzer.
    pub fn analysis_stats(&self) -> IncrementalStats {
        self.analysis.stats()
    }

    /// The full report over the current rules and certifications.
    /// `refine` enables the Section 9 predicate-level refinement; `protect`
    /// lists table subsets for partial confluence, each of which must be
    /// non-empty and name only catalog tables.
    pub fn analyze(
        &mut self,
        refine: bool,
        protect: &[Vec<String>],
    ) -> Result<AnalysisReport, EngineError> {
        check_protected_tables(self.session.db().catalog(), protect)
            .map_err(EngineError::InvalidStatement)?;
        let rules = Arc::clone(self.session.ruleset_arc()?);
        // Directives are only ever appended, unless the program was replaced
        // (a `load`, a `reset_to`): then the certifications start over.
        let directives = self.session.directives();
        if !directives.starts_with(&self.recorded) {
            self.certs = Certifications::new();
            self.recorded.clear();
        }
        for d in &directives[self.recorded.len()..] {
            self.certs.record(d);
            self.recorded.push(d.clone());
        }
        Ok(self.analysis.analyze(&rules, &self.certs, refine, protect))
    }

    /// §6.4 Approach 1 (`declare commute`) or §5's user certificate
    /// (`declare terminates`).
    pub fn certify(&mut self, directive: Directive) -> Result<(), EngineError> {
        self.edit(Statement::Directive(directive))
    }

    /// §6.4 Approach 2: adds the priority `higher precedes lower`. Refused,
    /// with nothing changed in memory or in the store, when either rule is
    /// unknown, when `higher == lower`, or when `lower` already precedes
    /// `higher` (the ordering would make the priority cyclic).
    pub fn order(&mut self, higher: &str, lower: &str) -> Result<(), EngineError> {
        let rules = self.session.ruleset_arc()?;
        let id = |name: &str| {
            rules.by_name(name).map(|r| r.id).ok_or_else(|| {
                EngineError::InvalidStatement(format!("order: no rule named `{name}`"))
            })
        };
        let (hi, lo) = (id(higher)?, id(lower)?);
        if hi == lo {
            return Err(EngineError::InvalidStatement(format!(
                "order: rule `{higher}` cannot precede itself"
            )));
        }
        if rules.priority().gt(lo, hi) {
            return Err(EngineError::InvalidStatement(format!(
                "order: `{lower}` already precedes `{higher}`; the reverse would be cyclic"
            )));
        }
        self.edit(Statement::AlterRule {
            name: higher.to_owned(),
            precedes: vec![lower.to_owned()],
            follows: Vec::new(),
        })
    }

    /// Applies one refinement and persists it. If the append fails, the
    /// engine has already rolled memory back to the durable base: nothing
    /// changed, in memory or on disk.
    fn edit(&mut self, stmt: Statement) -> Result<(), EngineError> {
        self.session.execute(&stmt)?;
        self.session.persist_changes()
    }

    /// Drives the §6.4 loop automatically, preferring orderings: each round
    /// analyzes and, while confluence violations remain, orders the first
    /// violating pair. Returns each round's report, at most `max_rounds`;
    /// the loop converged iff the last one has no violation, and then
    /// added one ordering per earlier round.
    pub fn order_until_confluent(
        &mut self,
        max_rounds: usize,
    ) -> Result<Vec<AnalysisReport>, EngineError> {
        let mut rounds = Vec::new();
        for _ in 0..max_rounds {
            let report = self.analyze(false, &[])?;
            let first = report.confluence.violations.first().map(|v| v.pair.clone());
            rounds.push(report);
            let Some((a, b)) = first else { break };
            self.order(&a, &b)?;
        }
        Ok(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;

    fn setup(rules: &str) -> InteractiveSession {
        let mut s = Session::new();
        s.execute_script("create table t (x int); create table u (x int); create table v (x int);")
            .unwrap();
        s.execute_script(rules).unwrap();
        InteractiveSession::new(s)
    }

    const RACE: &str = "create rule a on t when inserted then update u set x = 1 end;
                        create rule b on t when inserted then update u set x = 2 end;";

    #[test]
    fn certify_loop_reaches_green() {
        let mut s = setup(RACE);
        let r1 = s.analyze(false, &[]).unwrap();
        assert_eq!(r1.confluence.violations.len(), 1);

        s.certify(Directive::Commute("a".into(), "b".into()))
            .unwrap();
        let r2 = s.analyze(false, &[]).unwrap();
        assert!(r2.confluence.requirement_holds());
        assert!(r2.all_guaranteed());
    }

    #[test]
    fn ordering_loop_reaches_green() {
        let mut s = setup(RACE);
        let rounds = s.order_until_confluent(10).unwrap();
        assert_eq!(rounds.len(), 2, "one ordering, then a clean round");
        assert!(rounds[1].confluence.requirement_holds());
    }

    /// The paper's footnote 6: ordering one pair can surface a new
    /// violation elsewhere; the loop iterates until quiet.
    #[test]
    fn nonconfluence_moves_around() {
        let mut s = setup(
            // a/b conflict on u; a triggers c (insert into v), and c
            // conflicts with b on u as well. Ordering (a, b) leaves the
            // (c, b) pair to be discovered and ordered next.
            "create rule a on t when inserted then \
               update u set x = 1; insert into v values (1) end;
             create rule b on t when inserted then update u set x = 2 end;
             create rule c on v when inserted then update u set x = 3 end;",
        );
        let rounds = s.order_until_confluent(20).unwrap();
        assert!(rounds.len() >= 3, "expected at least two orderings");
        assert!(rounds.last().unwrap().confluence.requirement_holds());
        // The violation count never rises over the rounds.
        let counts: Vec<usize> = rounds
            .iter()
            .map(|r| r.confluence.violations.len())
            .collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    /// The kept certifications follow the directive list: a certify, a
    /// `declare` executed on the session directly, and a `reset_to` that
    /// replaces the list with another of the same length each give the
    /// from-scratch report.
    #[test]
    fn kept_certifications_follow_the_directives() {
        let mut s = setup(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;
             create rule c on t when inserted then update u set x = 3 end;",
        );
        let agrees = |s: &mut InteractiveSession, step: &str| {
            let got = s.analyze(false, &[]).unwrap();
            let certs = Certifications::from_directives(s.session.directives());
            let ctx = AnalysisContext::from_ruleset(s.session.ruleset().unwrap(), certs);
            let want = AnalysisReport::run(&ctx, &[]);
            assert_eq!(got.to_json(), want.to_json(), "{step}");
            assert_eq!(got.to_string(), want.to_string(), "{step}");
            got.confluence.violations.len()
        };
        assert_eq!(agrees(&mut s, "initial"), 3);
        let uncertified = s.session.state();
        s.certify(Directive::Commute("a".into(), "b".into()))
            .unwrap();
        assert_eq!(agrees(&mut s, "certify a, b"), 2);
        s.session.execute_script("declare commute a, c;").unwrap();
        assert_eq!(agrees(&mut s, "declare a, c"), 1);
        s.session.reset_to(uncertified.clone());
        assert_eq!(agrees(&mut s, "reset"), 3);
        s.certify(Directive::Commute("a".into(), "b".into()))
            .unwrap();
        assert_eq!(agrees(&mut s, "certify a, b again"), 2);
        s.session.reset_to(uncertified);
        s.session.execute_script("declare commute b, c;").unwrap();
        assert_eq!(agrees(&mut s, "reset, then declare b, c"), 2);
    }

    /// Certifying `a`/`b` of three racing rules rechecks the pair `b`/`c`
    /// from the store.
    #[test]
    fn session_analyzer_reuses_pair_verdicts() {
        let mut s = setup(&format!(
            "{RACE} create rule c on t when inserted then update u set x = 3 end;"
        ));
        s.analyze(false, &[]).unwrap();
        let cold = s.analysis_stats();
        s.certify(Directive::Commute("a".into(), "b".into()))
            .unwrap();
        s.analyze(false, &[]).unwrap();
        let warm = s.analysis_stats();
        assert!(warm.pair.hits > cold.pair.hits, "{warm:?}");
        // Exactly the certified pair's verdict was invalidated.
        assert_eq!(warm.pair.invalidations, cold.pair.invalidations + 1);
    }

    /// An unknown rule, a self-order and a reversed ordering, direct or
    /// through the closure, are refused up front and leave the program
    /// exactly as it was; re-stating an implied ordering is accepted.
    #[test]
    fn order_refuses_what_would_not_compile() {
        let mut s = setup(
            "create rule a on t when inserted then delete from u end;
             create rule b on t when inserted then delete from u end;
             create rule c on t when inserted then delete from u end;",
        );
        s.order("a", "b").unwrap();
        s.order("b", "c").unwrap();
        let before = s.session.state().program;
        for (higher, lower, says) in [
            ("zz", "a", "no rule named `zz`"),
            ("a", "nosuch", "no rule named `nosuch`"),
            ("a", "a", "cannot precede itself"),
            ("b", "a", "already precedes"),
            ("c", "a", "already precedes"),
        ] {
            let err = s.order(higher, lower).unwrap_err();
            assert!(
                matches!(&err, EngineError::InvalidStatement(m) if m.contains(says)),
                "{higher} > {lower}: {err}"
            );
            assert!(Arc::ptr_eq(&s.session.state().program, &before));
        }
        s.order("a", "c").unwrap();
        assert!(s.analyze(false, &[]).unwrap().all_guaranteed());
    }
}
