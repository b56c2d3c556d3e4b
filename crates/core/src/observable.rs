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

use std::sync::Arc;

use starling_sql::RuleSignature;

use crate::confluence::ConfluenceAnalysis;
use crate::context::AnalysisContext;
use crate::partial::{analyze_partial_confluence, PartialConfluenceAnalysis};
use crate::termination::TerminationAnalysis;

/// Name of the fictional observation log table. The leading `#` cannot
/// appear in user identifiers, so no real table can collide with it.
pub const OBS_TABLE: &str = "#obs";

/// The result of observable-determinism analysis.
#[derive(Clone, Debug)]
pub struct ObservableAnalysis {
    /// Names of the observable rules.
    pub observable_rules: Vec<String>,
    /// The underlying partial-confluence analysis with respect to `Obs`
    /// (over the extended definitions).
    pub partial: PartialConfluenceAnalysis,
}

impl ObservableAnalysis {
    /// Whether observable determinism is guaranteed.
    pub fn is_guaranteed(&self) -> bool {
        self.partial.is_guaranteed()
    }

    /// The Confluence Requirement part of the verdict.
    pub fn confluence(&self) -> &ConfluenceAnalysis {
        &self.partial.confluence
    }

    /// The termination part of the verdict (over `Sig(Obs)`).
    pub fn termination(&self) -> &TerminationAnalysis {
        &self.partial.termination
    }
}

/// Builds the Section 8 extended context: every observable rule gets
/// `Obs.log ∈ Reads` and `(I, Obs) ∈ Performs`.
///
/// The widened signatures are bound to the source context's dedicated
/// `Obs`-side pair store when one is attached (the incremental analyzer
/// keeps it warm across refinement steps — the bind-time fingerprint diff
/// invalidates exactly the pairs of rules whose signatures changed), and
/// to a fresh private store otherwise, matching the old clear-everything
/// behavior.
pub fn extend_with_obs(ctx: &AnalysisContext) -> AnalysisContext {
    // Only the observable rules' signatures change; the rest are shared.
    let sigs = ctx
        .sigs
        .iter()
        .map(|sig| {
            if !sig.observable {
                return Arc::clone(sig);
            }
            let mut widened = RuleSignature::clone(sig);
            widened
                .reads
                .insert(starling_storage::ColRef::new(OBS_TABLE, "log"));
            widened
                .performs
                .insert(starling_storage::Op::Insert(OBS_TABLE.to_owned()));
            Arc::new(widened)
        })
        .collect();
    let store = ctx
        .obs_store
        .clone()
        .unwrap_or_else(|| Arc::new(crate::pair_store::PairStore::new()));
    let mut extended = AnalysisContext::from_parts(
        sigs,
        ctx.priority.clone(),
        ctx.certs.clone(),
        ctx.defs.clone(),
        ctx.catalog.clone(),
        ctx.refine,
        store,
    );
    extended.dense_sweep = ctx.dense_sweep;
    // No rule is triggered on `Obs`, so the widening adds no trigger edge.
    extended.share_triggers(Arc::clone(ctx.triggers_adjacency()));
    extended
}

/// Runs observable-determinism analysis (Theorem 8.1).
pub fn analyze_observable_determinism(ctx: &AnalysisContext) -> ObservableAnalysis {
    let observable_rules: Vec<String> = ctx
        .sigs
        .iter()
        .filter(|s| s.observable)
        .map(|s| s.name.clone())
        .collect();
    // With no observable rule the Obs extension changes no signature, so
    // the analysis runs on the original context — its cached triggering
    // adjacency included — instead of cloning and rebinding everything.
    // Sig(Obs) is empty either way, so no pair is probed and the result
    // is identical.
    let partial = if observable_rules.is_empty() {
        analyze_partial_confluence(ctx, &[OBS_TABLE])
    } else {
        let extended = extend_with_obs(ctx);
        analyze_partial_confluence(&extended, &[OBS_TABLE])
    };
    ObservableAnalysis {
        observable_rules,
        partial,
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
        assert_eq!(a.partial.significant, vec!["obs1", "obs2"]);
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
        assert_eq!(a.partial.significant, vec!["obs", "writer"]);
        assert!(!a.is_guaranteed());
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

    #[test]
    fn extend_adds_obs_only_to_observable() {
        let c = ctx_from(
            "create rule obs on t when inserted then rollback end;
             create rule silent on t when inserted then delete from u end;",
            TABLES,
            Certifications::new(),
        );
        let e = extend_with_obs(&c);
        assert!(e.sigs[0]
            .performs
            .contains(&starling_storage::Op::Insert(OBS_TABLE.into())));
        assert!(!e.sigs[1].performs.iter().any(|op| op.table() == OBS_TABLE));
    }
}
