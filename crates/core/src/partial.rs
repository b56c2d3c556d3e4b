//! Partial confluence (paper Section 7).
//!
//! Confluence may be too strong: a rule set may be allowed to scribble
//! nondeterministically on scratch tables as long as the *important* tables
//! `T'` end up identical in every final state. Definition 7.1 computes the
//! **significant rules** `Sig(T')`:
//!
//! ```text
//! Sig(T') ← {r | (I,t), (D,t), or (U,t.c) ∈ Performs(r) for some t ∈ T'}
//! repeat until unchanged:
//!   Sig(T') ← Sig(T') ∪ {r | ∃ r' ∈ Sig(T'), r and r' do not commute}
//! ```
//!
//! Theorem 7.2: if the rules in `Sig(T')` are guaranteed to terminate (as a
//! rule set of their own) and satisfy the Confluence Requirement, then the
//! full rule set is confluent with respect to `T'`.
//!
//! The requirement over `Sig(T')` filters the whole rule set's
//! [`ConfluenceAnalysis`] instead of sweeping `Sig(T')` again.

use starling_storage::Catalog;

use crate::commutativity::commutes_idx;
use crate::confluence::ConfluenceAnalysis;
use crate::context::AnalysisContext;
use crate::termination::{analyze_termination_indexed, TerminationAnalysis};
use crate::triggering_graph::TriggeringGraph;

/// Computes `Sig(T')` (Definition 7.1) as rule indices, in index order.
///
/// The commutativity test honors user certifications, exactly as the paper
/// prescribes ("the user can influence the computation of Sig(T') by
/// specifying that pairs ... actually do commute").
pub fn significant_rules(ctx: &AnalysisContext, tables: &[&str]) -> Vec<usize> {
    let all: Vec<usize> = (0..ctx.len()).collect();
    let writes = |i: &usize| {
        ctx.sigs[*i]
            .performs
            .iter()
            .any(|op| tables.contains(&op.table()))
    };
    significant_closure(ctx, all.iter().copied().filter(writes), &all)
}

/// The Definition 7.1 fixpoint from `seed` (rules of `subset`): every rule
/// of `subset` that does not commute with a member joins, until none does.
pub(crate) fn significant_closure(
    ctx: &AnalysisContext,
    seed: impl IntoIterator<Item = usize>,
    subset: &[usize],
) -> Vec<usize> {
    let n = ctx.len();
    let member = ctx.membership(subset);
    let mut sig = vec![false; n];
    for i in seed {
        sig[i] = true;
    }
    // Iterate to the least fixed point, testing candidates against a
    // snapshot of the rules significant at the round's start: the closure
    // is monotone, so the fixed point is the same as with live updates,
    // and the inner scan is O(|Sig|) rather than O(n) per candidate —
    // in particular O(1) rounds when Sig(T') starts (and stays) empty.
    loop {
        let mut changed = false;
        let sig_now: Vec<usize> = (0..n).filter(|&q| sig[q] && member[q]).collect();
        for &r in subset {
            if sig[r] {
                continue;
            }
            if sig_now.iter().any(|&q| !commutes_idx(ctx, r, q)) {
                sig[r] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..n).filter(|&i| sig[i]).collect()
}

/// The result of partial confluence analysis with respect to `T'`.
#[derive(Clone, Debug)]
pub struct PartialConfluenceAnalysis {
    /// The protected tables `T'`.
    pub tables: Vec<String>,
    /// Names of the significant rules `Sig(T')`.
    pub significant: Vec<String>,
    /// Termination analysis of `Sig(T')` *processed on its own* (Theorem
    /// 7.2's first premise — footnote 7 of the paper).
    pub termination: TerminationAnalysis,
    /// The Confluence Requirement over `Sig(T')`.
    pub confluence: ConfluenceAnalysis,
}

impl PartialConfluenceAnalysis {
    /// Whether partial confluence with respect to `T'` is guaranteed.
    pub fn is_guaranteed(&self) -> bool {
        self.termination.is_guaranteed() && self.confluence.requirement_holds()
    }
}

/// Checks the table subsets a caller asks [`analyze_partial_confluence`] to
/// protect. Nothing performs an operation on a table that does not exist, so
/// `Sig` of a mistyped name is empty and Theorem 7.2 would hand out a vacuous
/// guarantee: every subset must be non-empty and name only catalog tables.
pub fn check_protected_tables(catalog: &Catalog, protect: &[Vec<String>]) -> Result<(), String> {
    for tables in protect {
        if tables.is_empty() {
            return Err("a protected table set is empty".into());
        }
        for table in tables {
            catalog
                .table(table)
                .map_err(|e| format!("cannot protect: {e}"))?;
        }
    }
    Ok(())
}

/// Runs partial confluence analysis (Theorem 7.2), given the rule set's
/// confluence analysis.
pub fn analyze_partial_confluence(
    ctx: &AnalysisContext,
    confluence: &ConfluenceAnalysis,
    tables: &[&str],
) -> PartialConfluenceAnalysis {
    let sig = significant_rules(ctx, tables);
    // Termination of Sig(T') as if processed on its own: the triggering
    // subgraph restricted to significant rules.
    let sub = TriggeringGraph::of_rules(ctx, &sig);
    let termination = analyze_termination_indexed(ctx, sub, Some(&sig), false);
    PartialConfluenceAnalysis {
        tables: tables.iter().map(|t| (*t).to_owned()).collect(),
        significant: sig.iter().map(|&i| ctx.name(i).to_owned()).collect(),
        termination,
        confluence: confluence.within(ctx, &sig),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("data", &["x"]), ("scratch", &["x"]), ("t", &["x"])];

    fn partial(ctx: &AnalysisContext, tables: &[&str]) -> PartialConfluenceAnalysis {
        analyze_partial_confluence(ctx, &crate::confluence::analyze_confluence(ctx), tables)
    }

    /// Two rules that conflict only on a scratch table: not confluent, but
    /// confluent with respect to the data table.
    #[test]
    fn scratch_conflict_is_partially_confluent() {
        let c = ctx_from(
            "create rule a on t when inserted then update scratch set x = 1 end;
             create rule b on t when inserted then update scratch set x = 2 end;
             create rule keeper on t when deleted then update data set x = 0 end;",
            TABLES,
            Certifications::new(),
        );
        let full = crate::confluence::analyze_confluence(&c);
        assert!(!full.requirement_holds());

        let p = analyze_partial_confluence(&c, &full, &["data"]);
        // a and b only touch scratch; keeper touches data. a/b commute with
        // keeper, so Sig(data) = {keeper} and the requirement holds.
        assert_eq!(p.significant, vec!["keeper"]);
        assert!(p.is_guaranteed());

        let p2 = analyze_partial_confluence(&c, &full, &["scratch"]);
        assert_eq!(p2.significant, vec!["a", "b"]);
        assert!(!p2.is_guaranteed());
    }

    /// The Sig closure pulls in rules that do not write T' but fail to
    /// commute with rules that do.
    #[test]
    fn sig_closure_recruits_noncommuting_rules() {
        let c = ctx_from(
            // writer writes data; feeder triggers writer (condition 1: they
            // do not commute) so feeder is significant too.
            "create rule feeder on t when inserted then insert into scratch values (1) end;
             create rule writer on scratch when inserted then update data set x = 1 end;",
            TABLES,
            Certifications::new(),
        );
        let sig = significant_rules(&c, &["data"]);
        assert_eq!(sig, vec![0, 1]);
    }

    /// Termination is checked on Sig(T') processed alone (footnote 7).
    #[test]
    fn sig_termination_checked_on_subgraph() {
        let c = ctx_from(
            // Cycle between two data-writers: partial confluence must fail
            // on the termination premise even before commutativity.
            "create rule p on data when updated(x) then insert into t values (1) end;
             create rule q on t when inserted then update data set x = 1 end;",
            TABLES,
            Certifications::new(),
        );
        let p = partial(&c, &["data"]);
        assert!(!p.termination.is_guaranteed());
        assert!(!p.is_guaranteed());
    }

    /// Rules outside Sig(T') may form cycles without affecting the verdict.
    #[test]
    fn outside_cycles_do_not_matter() {
        let mut certs = Certifications::new();
        // spin_a/spin_b cycle on scratch; they commute with keeper
        // (disjoint tables). Their own noncommutativity (they trigger each
        // other) keeps them out of Sig(data) only if they commute with
        // keeper — which they do.
        certs.certify_commute("spin_a", "spin_b");
        let c = ctx_from(
            "create rule spin_a on scratch when inserted then insert into scratch values (1) end;
             create rule keeper on t when deleted then update data set x = 0 end;",
            TABLES,
            certs,
        );
        let p = partial(&c, &["data"]);
        assert_eq!(p.significant, vec!["keeper"]);
        assert!(p.is_guaranteed());
        // Full termination would fail; partial succeeds.
        let t = crate::termination::analyze_termination(&c);
        assert!(!t.is_guaranteed());
    }

    #[test]
    fn empty_tables_empty_sig() {
        let c = ctx_from(
            "create rule a on t when inserted then update scratch set x = 1 end",
            TABLES,
            Certifications::new(),
        );
        let p = partial(&c, &["data"]);
        assert!(p.significant.is_empty());
        assert!(p.is_guaranteed());
    }
}
