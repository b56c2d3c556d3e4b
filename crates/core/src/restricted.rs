//! Analysis under restricted user operations (paper Section 9, third
//! extension).
//!
//! The base analyses assume the user-generated operations initiating rule
//! processing are arbitrary. When it is known that users only perform
//! certain operations on certain tables, only rules *reachable* from those
//! operations can ever be considered: the rules triggered directly by an
//! allowed operation, closed under the `Triggers` relation. Properties are
//! then analyzed over the reachable subset — which "may guarantee
//! properties that otherwise do not hold".
//!
//! Their Confluence Requirements filter the whole rule set's
//! [`ConfluenceAnalysis`], as §7's does.

use starling_storage::Op;

use crate::confluence::ConfluenceAnalysis;
use crate::context::AnalysisContext;
use crate::observable::{observable_determinism_of, ObservableAnalysis};
use crate::termination::{analyze_termination_indexed, TerminationAnalysis};
use crate::triggering_graph::TriggeringGraph;

/// Rules reachable when user transitions only contain `allowed` operations:
/// rules triggered by an allowed operation, closed under `Triggers`.
pub fn reachable_rules(ctx: &AnalysisContext, allowed: &[Op]) -> Vec<usize> {
    let roots: Vec<usize> = ctx
        .sigs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.triggered_by.iter().any(|op| allowed.contains(op)))
        .map(|(i, _)| i)
        .collect();
    let graph = TriggeringGraph::build(ctx);
    graph.reachable_from(&roots)
}

/// Results of the restricted analyses.
#[derive(Clone, Debug)]
pub struct RestrictedAnalysis {
    /// The allowed initial operations, rendered.
    pub allowed: Vec<String>,
    /// Names of the reachable rules.
    pub reachable: Vec<String>,
    /// Termination over the reachable subgraph.
    pub termination: TerminationAnalysis,
    /// Confluence Requirement over the reachable rules.
    pub confluence: ConfluenceAnalysis,
    /// Observable determinism over the reachable rules.
    pub observable: ObservableAnalysis,
}

impl RestrictedAnalysis {
    /// Whether all three properties hold under the restriction.
    pub fn all_guaranteed(&self) -> bool {
        self.termination.is_guaranteed()
            && self.confluence.requirement_holds()
            && self.observable.is_guaranteed()
    }
}

/// Runs all three analyses restricted to user transitions built from
/// `allowed` operations, given the rule set's confluence analysis.
pub fn analyze_restricted(
    ctx: &AnalysisContext,
    confluence: &ConfluenceAnalysis,
    allowed: &[Op],
) -> RestrictedAnalysis {
    let reach = reachable_rules(ctx, allowed);

    let sub = TriggeringGraph::of_rules(ctx, &reach);
    let termination = analyze_termination_indexed(ctx, sub, Some(&reach), false);

    RestrictedAnalysis {
        allowed: allowed.iter().map(Op::to_string).collect(),
        reachable: reach.iter().map(|&i| ctx.name(i).to_owned()).collect(),
        termination,
        confluence: confluence.within(ctx, &reach),
        observable: observable_determinism_of(ctx, confluence, &reach),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])];

    fn restricted(ctx: &AnalysisContext, allowed: &[Op]) -> RestrictedAnalysis {
        analyze_restricted(ctx, &crate::confluence::analyze_confluence(ctx), allowed)
    }

    const SRC: &str = "create rule ping on t when inserted then insert into u values (1) end;
         create rule pong on u when inserted then insert into t values (1) end;
         create rule quiet on v when deleted then update v set x = 0 end;";

    #[test]
    fn reachability_closure() {
        let c = ctx_from(SRC, TABLES, Certifications::new());
        // Inserts into t reach ping and (through it) pong.
        let r = reachable_rules(&c, &[Op::Insert("t".into())]);
        assert_eq!(r, vec![0, 1]);
        // Deletes from v reach only quiet.
        let r = reachable_rules(&c, &[Op::Delete("v".into())]);
        assert_eq!(r, vec![2]);
        // Updates of v.x reach nothing (quiet is delete-triggered).
        let r = reachable_rules(&c, &[Op::update("v", "x")]);
        assert!(r.is_empty());
    }

    #[test]
    fn restriction_rescues_termination() {
        let c = ctx_from(SRC, TABLES, Certifications::new());
        // Unrestricted: ping/pong cycle ⇒ may not terminate.
        let full = crate::termination::analyze_termination(&c);
        assert!(!full.is_guaranteed());
        // Restricted to deletes from v: only `quiet` is reachable; the
        // cycle is unreachable and termination is guaranteed.
        let a = restricted(&c, &[Op::Delete("v".into())]);
        assert_eq!(a.reachable, vec!["quiet"]);
        assert!(a.termination.is_guaranteed());
        assert!(a.all_guaranteed());
    }

    #[test]
    fn restriction_does_not_hide_reachable_cycles() {
        let c = ctx_from(SRC, TABLES, Certifications::new());
        let a = restricted(&c, &[Op::Insert("t".into())]);
        assert_eq!(a.reachable, vec!["ping", "pong"]);
        assert!(!a.termination.is_guaranteed());
    }

    #[test]
    fn restricted_confluence_and_observability() {
        let c = ctx_from(
            "create rule w1 on t when inserted then update u set x = 1 end;
             create rule w2 on t when inserted then update u set x = 2 end;
             create rule solo on v when deleted then select x from v end;",
            TABLES,
            Certifications::new(),
        );
        // Unrestricted confluence fails (w1/w2).
        assert!(!crate::confluence::analyze_confluence(&c).requirement_holds());
        // Restricted to deletes from v: only the single observable rule is
        // reachable — everything holds.
        let a = restricted(&c, &[Op::Delete("v".into())]);
        assert_eq!(a.reachable, vec!["solo"]);
        assert!(a.all_guaranteed());
        assert_eq!(a.observable.observable_rules, vec!["solo"]);
    }
}
