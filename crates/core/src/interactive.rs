//! The interactive analysis loop (paper Section 6.4 and the introduction's
//! "interactive development environment").
//!
//! A session holds a rule set plus the user's evolving certifications and
//! added orderings. After each change the analyses re-run; the history
//! records how verdicts evolve. This reproduces the paper's observation
//! (footnote 6) that "a source of non-confluence can appear to *move
//! around*, requiring an iterative process of adding orderings (or
//! certifying commutativity) until the rule set is made confluent".

use starling_engine::{RuleProgram, RuleSet};
use starling_sql::RuleDef;
use starling_storage::Catalog;

use crate::certifications::Certifications;
use crate::incremental::{IncrementalAnalysis, IncrementalStats};
use crate::report::AnalysisReport;

/// One step in the interactive history.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    /// What the user did.
    pub action: String,
    /// Violations remaining after the step.
    pub confluence_violations: usize,
    /// Undischarged cycles remaining after the step.
    pub open_cycles: usize,
    /// Whether everything is now guaranteed.
    pub all_guaranteed: bool,
}

/// An interactive analysis session. Holds a persistent
/// [`IncrementalAnalysis`] so each refinement step re-derives only what it
/// changed rather than recomputing the whole report.
pub struct InteractiveSession {
    catalog: Catalog,
    program: RuleProgram,
    certs: Certifications,
    history: Vec<HistoryEntry>,
    analysis: IncrementalAnalysis,
}

impl InteractiveSession {
    /// Starts a session over a catalog and rule definitions.
    pub fn new(catalog: Catalog, defs: Vec<RuleDef>) -> Self {
        InteractiveSession {
            catalog,
            program: RuleProgram {
                defs,
                directives: Vec::new(),
            },
            certs: Certifications::new(),
            history: Vec::new(),
            analysis: IncrementalAnalysis::new(),
        }
    }

    /// The step history so far.
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Current certifications.
    pub fn certifications(&self) -> &Certifications {
        &self.certs
    }

    /// Pair-store and sweep counters for the session's analyzer.
    pub fn analysis_stats(&self) -> IncrementalStats {
        self.analysis.stats()
    }

    /// Runs the analyses, recording a history entry labeled `action`.
    pub fn analyze(
        &mut self,
        action: &str,
    ) -> Result<AnalysisReport, starling_engine::EngineError> {
        let rs = RuleSet::compile(&self.program.defs, &self.catalog)?;
        let report = self.analysis.analyze(&rs, &self.certs, false, &[]);
        self.history.push(HistoryEntry {
            action: action.to_owned(),
            confluence_violations: report.confluence.violations.len(),
            open_cycles: report
                .termination
                .cycles
                .iter()
                .filter(|c| !c.discharged)
                .count(),
            all_guaranteed: report.all_guaranteed(),
        });
        Ok(report)
    }

    /// §6.4 Approach 1: certify that a flagged pair actually commutes.
    pub fn certify_commute(&mut self, a: &str, b: &str) {
        self.certs.certify_commute(a, b);
    }

    /// §5: certify that cycles through a rule terminate.
    pub fn certify_terminates(&mut self, rule: &str, justification: &str) {
        self.certs.certify_terminates(rule, justification);
    }

    /// §6.4 Approach 2: add a user-defined priority (`higher precedes
    /// lower`), amending the rule definitions themselves.
    pub fn add_ordering(&mut self, higher: &str, lower: &str) -> bool {
        self.program
            .alter_rule(higher, &[lower.to_owned()], &[])
            .is_ok()
    }

    /// Drives the §6.4 loop automatically, preferring orderings: while
    /// confluence violations remain, order the first violating pair and
    /// re-analyze. Returns the number of orderings added, or `None` if a
    /// fixpoint was not reached within `max_rounds` (e.g. a violation whose
    /// generating pair is already ordered transitively elsewhere).
    pub fn order_until_confluent(
        &mut self,
        max_rounds: usize,
    ) -> Result<Option<usize>, starling_engine::EngineError> {
        for added in 0..max_rounds {
            let report = self.analyze("auto-order step")?;
            let Some(v) = report.confluence.violations.first() else {
                return Ok(Some(added));
            };
            let (a, b) = (v.pair.0.clone(), v.pair.1.clone());
            if !self.add_ordering(&a, &b) {
                return Ok(None);
            }
            // Adding an ordering can create a priority cycle; surface the
            // compile error naturally on the next analyze() call.
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use super::*;

    fn setup(src: &str) -> InteractiveSession {
        let mut cat = Catalog::new();
        for name in ["t", "u", "v"] {
            cat.add_table(
                TableSchema::new(name, vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
            )
            .unwrap();
        }
        InteractiveSession::new(cat, RuleProgram::parse(src).unwrap().defs)
    }

    #[test]
    fn certify_loop_reaches_green() {
        let mut s = setup(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
        );
        let r1 = s.analyze("initial").unwrap();
        assert_eq!(r1.confluence.violations.len(), 1);

        s.certify_commute("a", "b");
        let r2 = s.analyze("after certify").unwrap();
        assert!(r2.confluence.requirement_holds());
        assert!(s.history()[1].all_guaranteed);
    }

    #[test]
    fn ordering_loop_reaches_green() {
        let mut s = setup(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
        );
        let added = s.order_until_confluent(10).unwrap();
        assert_eq!(added, Some(1));
        let r = s.analyze("final").unwrap();
        assert!(r.confluence.requirement_holds());
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
        let added = s.order_until_confluent(20).unwrap();
        assert!(
            added.unwrap_or(0) >= 2,
            "expected at least two rounds: {added:?}"
        );
        let r = s.analyze("final").unwrap();
        assert!(r.confluence.requirement_holds());
        // History shows the violation count decreasing over rounds.
        let counts: Vec<usize> = s
            .history()
            .iter()
            .map(|h| h.confluence_violations)
            .collect();
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    #[test]
    fn session_analyzer_reuses_pair_verdicts() {
        let mut s = setup(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
        );
        s.analyze("initial").unwrap();
        let cold = s.analysis_stats();
        s.certify_commute("a", "b");
        s.analyze("after certify").unwrap();
        let warm = s.analysis_stats();
        assert!(warm.pair.hits > cold.pair.hits, "{warm:?}");
        // Exactly the certified pair's verdict was invalidated.
        assert_eq!(warm.pair.invalidations, cold.pair.invalidations + 1);
    }

    #[test]
    fn add_ordering_unknown_rule() {
        let mut s = setup("create rule a on t when inserted then delete from t end");
        assert!(!s.add_ordering("zz", "a"));
        assert!(s.add_ordering("a", "a")); // recorded; compile will reject
        assert!(s.analyze("self-cycle").is_err());
    }
}
