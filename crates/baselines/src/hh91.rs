//! HH91-analog: the unique-fixed-point criterion.
//!
//! \[HH91\] (Hellerstein & Hsu, *Determinism in partially ordered production
//! systems*) identifies a class of OPS5 rule sets whose processing reaches a
//! unique fixed point. Reconstructed criterion:
//!
//! 1. the triggering graph is acyclic (processing terminates), and
//! 2. **every** pair of distinct rules commutes (Lemma 6.1, no user
//!    certifications) — conflict-resolution order must be irrelevant
//!    outright, because OPS5 priorities are heuristic tie-breakers rather
//!    than semantic orderings.
//!
//! Compared with Starling's Confluence Requirement, condition 2 quantifies
//! over *all* pairs instead of the unordered pairs' `R1 × R2` closures:
//! a rule set in which a noncommuting pair is priority-ordered is accepted
//! by Starling and rejected here — the "proper subsumption" of Section 9.

use starling_analysis::commutativity::noncommutativity_reasons;
use starling_analysis::context::AnalysisContext;
use starling_analysis::triggering_graph::TriggeringGraph;

/// The HH91-analog verdict.
#[derive(Clone, Debug)]
pub struct Hh91Verdict {
    /// Whether the criterion accepts the rule set.
    pub accepted: bool,
    /// Names of noncommuting pairs found (first few; empty when accepted).
    pub noncommuting_pairs: Vec<(String, String)>,
    /// Whether the triggering graph was acyclic.
    pub acyclic: bool,
}

/// Runs the HH91-analog criterion.
pub fn analyze(ctx: &AnalysisContext) -> Hh91Verdict {
    let acyclic = TriggeringGraph::build(ctx).is_acyclic();
    let mut noncommuting_pairs = Vec::new();
    let n = ctx.len();
    for i in 0..n {
        for j in (i + 1)..n {
            if !noncommutativity_reasons(&ctx.sigs[i], &ctx.sigs[j]).is_empty() {
                noncommuting_pairs.push((ctx.name(i).to_owned(), ctx.name(j).to_owned()));
            }
        }
    }
    Hh91Verdict {
        accepted: acyclic && noncommuting_pairs.is_empty(),
        noncommuting_pairs,
        acyclic,
    }
}

#[cfg(test)]
mod tests {
    use crate::compare::tests::ctx;

    use super::*;

    #[test]
    fn accepts_fully_independent_rules() {
        let c = ctx(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on v when inserted then delete from w end;",
        );
        let v = analyze(&c);
        assert!(v.accepted);
        assert!(v.acyclic);
    }

    #[test]
    fn rejects_noncommuting_even_when_ordered() {
        // Starling accepts this (the pair is ordered); HH91-analog rejects.
        let c = ctx(
            "create rule a on t when inserted then update u set x = 1 precedes b end;
             create rule b on t when inserted then update u set x = 2 end;",
        );
        let v = analyze(&c);
        assert!(!v.accepted);
        assert_eq!(v.noncommuting_pairs.len(), 1);

        let ours = starling_analysis::confluence::analyze_confluence(&c);
        assert!(ours.requirement_holds());
    }

    #[test]
    fn rejects_cyclic_triggering() {
        let c = ctx(
            "create rule p on t when inserted then insert into u values (1) end;
             create rule q on u when inserted then insert into t values (1) end;",
        );
        let v = analyze(&c);
        assert!(!v.accepted);
        assert!(!v.acyclic);
    }
}
