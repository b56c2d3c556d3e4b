//! Observable determinism analysis (paper Section 8).
//!
//! Some rule actions are visible to the environment while rules are being
//! processed (`SELECT` retrievals, `ROLLBACK`). A rule set is *observably
//! deterministic* when the order and appearance of these actions cannot
//! depend on the choice among unordered triggered rules. Observable
//! determinism and confluence are **orthogonal**.
//!
//! The analysis (Theorem 8.1) reduces to partial confluence: add a
//! fictional table `Obs`, pretend every observable rule timestamps and logs
//! its observable actions into `Obs` — i.e., extend `Reads` with `Obs.log`
//! and `Performs` with `(I, Obs)` for every observable rule — and check
//! confluence with respect to `{Obs}`. A unique final `Obs` value means a
//! unique order and appearance of observable actions.
//!
//! Nothing here builds those widened signatures or sweeps pairs: Theorem
//! 7.2 is answered over the base context and its [`ConfluenceAnalysis`],
//! with the four facts the widening changes:
//!
//! 1. **two distinct observable rules never commute**: each inserts into
//!    `Obs`, which the other reads (Lemma 6.1 condition 3), and no `declare
//!    commute` can make the order of two observations irrelevant. No other
//!    pair changes: no rule is triggered on `Obs`, and none deletes,
//!    updates or reads it but the observable rules;
//! 2. **`Sig(Obs)` is seeded with exactly the observable rules** (the rules
//!    performing an operation on `Obs`), so its closure tests only
//!    non-observable candidates, whose verdicts are the base ones;
//! 3. **the conflict index gains one table, `Obs`, shared by exactly the
//!    observable rules**: a sweep's candidates are the base candidates plus
//!    the unordered observable pairs;
//! 4. **no observable rule is delete-only** (§5's first special case): it
//!    inserts into `Obs`.
//!
//! So the requirement over `Sig(Obs)` holds iff no two observable rules
//! are unordered (1, 3), no §6 violation has its generating pair in
//! `Sig(Obs)²`, and no closure of such a pair splits two observable rules
//! ([`PairClosure::splits_observables`], 1). One observable rule on both
//! sides is the cell `(h, h)`, which commutes.
//!
//! [`PairClosure::splits_observables`]: crate::confluence::PairClosure::splits_observables
//!
//! `tests/observable_construction.rs` holds this to the construction done
//! literally, with a real log table every observable rule inserts into
//! and reads.

use crate::confluence::{analyze_confluence, ConfluenceAnalysis};
use crate::context::AnalysisContext;
use crate::partial::significant_closure;
use crate::termination::{analyze_termination_indexed, TerminationAnalysis};
use crate::triggering_graph::TriggeringGraph;

/// The result of observable-determinism analysis.
#[derive(Clone, Debug)]
pub struct ObservableAnalysis {
    /// Names of the observable rules.
    pub observable_rules: Vec<String>,
    /// Names of the significant rules `Sig(Obs)`.
    pub significant: Vec<String>,
    /// Termination of `Sig(Obs)` processed on its own (Theorem 7.2's first
    /// premise).
    pub termination: TerminationAnalysis,
    /// Whether the Confluence Requirement holds over `Sig(Obs)`.
    pub requirement_holds: bool,
}

impl ObservableAnalysis {
    /// Whether observable determinism is guaranteed.
    pub fn is_guaranteed(&self) -> bool {
        self.termination.is_guaranteed() && self.requirement_holds
    }
}

/// Runs observable-determinism analysis (Theorem 8.1) after the rule set's
/// confluence analysis; [`observable_determinism`] takes one already run.
pub fn analyze_observable_determinism(ctx: &AnalysisContext) -> ObservableAnalysis {
    observable_determinism(ctx, &analyze_confluence(ctx))
}

/// Observable determinism (Theorem 8.1), given the rule set's confluence
/// analysis.
pub fn observable_determinism(
    ctx: &AnalysisContext,
    confluence: &ConfluenceAnalysis,
) -> ObservableAnalysis {
    let all: Vec<usize> = (0..ctx.len()).collect();
    observable_determinism_of(ctx, confluence, &all)
}

/// Observable determinism of the rules of `subset`, the rest treated as
/// nonexistent (the restricted-operations extension passes the reachable
/// rules).
pub(crate) fn observable_determinism_of(
    ctx: &AnalysisContext,
    confluence: &ConfluenceAnalysis,
    subset: &[usize],
) -> ObservableAnalysis {
    let observable: Vec<usize> = subset
        .iter()
        .copied()
        .filter(|&i| ctx.sigs[i].observable)
        .collect();
    let sig = significant_closure(ctx, observable.iter().copied(), subset);
    let graph = TriggeringGraph::of_rules(ctx, &sig);
    let termination = analyze_termination_indexed(ctx, graph, Some(&sig), true);
    let requirement_holds = ctx.dense_pairs(&observable).is_empty() && {
        let within = confluence.within(ctx, &sig);
        within.requirement_holds() && within.observable_splits.is_empty()
    };
    let names = |rules: &[usize]| rules.iter().map(|&i| ctx.name(i).to_owned()).collect();
    ObservableAnalysis {
        observable_rules: names(&observable),
        significant: names(&sig),
        termination,
        requirement_holds,
    }
}

/// Corollary 8.2 check: if the analysis finds the rule set observably
/// deterministic, every pair of distinct observable rules must be ordered.
/// Returns violations (empty on any set our analysis accepts —
/// property-tested).
pub fn corollary_8_2(ctx: &AnalysisContext, analysis: &ObservableAnalysis) -> Vec<String> {
    let mut out = Vec::new();
    if !analysis.is_guaranteed() {
        return out;
    }
    let obs: Vec<usize> = ctx
        .sigs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.observable)
        .map(|(i, _)| i)
        .collect();
    for (k, &i) in obs.iter().enumerate() {
        for &j in &obs[k + 1..] {
            if ctx.unordered(i, j) {
                out.push(format!(
                    "corollary 8.2 violated: observable rules `{}` and `{}` are unordered",
                    ctx.name(i),
                    ctx.name(j)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])];

    #[test]
    fn unordered_observables_flagged() {
        let a = analyze_observable_determinism(&ctx_from(
            "create rule obs1 on t when inserted then select x from t end;
             create rule obs2 on t when inserted then select x from u end;",
            TABLES,
            Certifications::new(),
        ));
        assert_eq!(a.observable_rules, vec!["obs1", "obs2"]);
        assert!(!a.is_guaranteed());
        // Both are in Sig(Obs): they both insert into Obs.
        assert_eq!(a.significant, vec!["obs1", "obs2"]);
    }

    #[test]
    fn ordered_observables_deterministic() {
        let a = analyze_observable_determinism(&ctx_from(
            "create rule obs1 on t when inserted then select x from t precedes obs2 end;
             create rule obs2 on t when inserted then select x from u end;",
            TABLES,
            Certifications::new(),
        ));
        assert!(a.is_guaranteed());
    }

    #[test]
    fn confluent_but_not_observably_deterministic() {
        // Orthogonality, direction 1: no database writes at all (trivially
        // confluent) but two unordered observables.
        let c = ctx_from(
            "create rule obs1 on t when inserted then select 1 end;
             create rule obs2 on t when inserted then select 2 end;",
            TABLES,
            Certifications::new(),
        );
        let conf = crate::confluence::analyze_confluence(&c);
        assert!(conf.requirement_holds());
        let a = analyze_observable_determinism(&c);
        assert!(!a.is_guaranteed());
    }

    #[test]
    fn observably_deterministic_but_not_confluent() {
        // Orthogonality, direction 2: conflicting writers, no observables.
        let c = ctx_from(
            "create rule w1 on t when inserted then update u set x = 1 end;
             create rule w2 on t when inserted then update u set x = 2 end;",
            TABLES,
            Certifications::new(),
        );
        let conf = crate::confluence::analyze_confluence(&c);
        assert!(!conf.requirement_holds());
        let a = analyze_observable_determinism(&c);
        assert!(a.observable_rules.is_empty());
        assert!(a.is_guaranteed());
    }

    #[test]
    fn nonobservable_writer_recruited_into_sig_obs() {
        // writer updates t.x which obs reads: they do not commute, so
        // writer ∈ Sig(Obs) even though it is not observable. writer and
        // obs are unordered → violation.
        let a = analyze_observable_determinism(&ctx_from(
            "create rule obs on t when inserted then select x from t end;
             create rule writer on u when inserted then update t set x = 1 end;",
            TABLES,
            Certifications::new(),
        ));
        assert_eq!(a.observable_rules, vec!["obs"]);
        assert_eq!(a.significant, vec!["obs", "writer"]);
        assert!(!a.is_guaranteed());
    }

    #[test]
    fn certifying_two_observables_does_not_order_their_observations() {
        // Neither rule writes anything, so `declare commute` is true of
        // their database effects; the order of the two selects still shows.
        let mut certs = Certifications::new();
        certs.certify_commute("obs1", "obs2");
        let a = analyze_observable_determinism(&ctx_from(
            "create rule obs1 on t when inserted then select x from u end;
             create rule obs2 on t when inserted then select x + 1 from u end;",
            TABLES,
            certs,
        ));
        assert!(!a.requirement_holds);
        assert!(!a.is_guaranteed());
    }

    #[test]
    fn an_observable_rule_on_a_cycle_is_not_delete_only() {
        // `obs` only deletes from the database, which alone would discharge
        // the cycle; it also logs into `Obs`, so Sig(Obs) may not terminate.
        let c = ctx_from(
            "create rule obs on t when inserted then select x from t; delete from u end;
             create rule back on u when deleted then insert into t values (1) end;",
            TABLES,
            Certifications::new(),
        );
        assert!(crate::termination::analyze_termination(&c).is_guaranteed());
        let a = analyze_observable_determinism(&c);
        assert_eq!(a.significant, vec!["obs", "back"]);
        assert!(!a.termination.is_guaranteed());
    }

    #[test]
    fn corollary_8_2_holds_on_accepted_sets() {
        let c = ctx_from(
            "create rule obs1 on t when inserted then select x from t precedes obs2 end;
             create rule obs2 on t when inserted then select x from u end;",
            TABLES,
            Certifications::new(),
        );
        let a = analyze_observable_determinism(&c);
        assert!(a.is_guaranteed());
        assert!(corollary_8_2(&c, &a).is_empty());
    }
}
