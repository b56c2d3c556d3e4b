//! The table → rules conflict index: the only unordered pairs a Confluence
//! Requirement sweep can flag.
//!
//! Every condition of Lemma 6.1 (1–5 and Starling's 2′) names one table
//! that *both* rules touch — one is triggered on it, performs an operation
//! on it or reads a column of it, and so does the other. And a Definition
//! 6.5 closure grows past its generating pair `(i, j)` only if some
//! `r ∈ Triggers(i)` has `r > j` in `P`, or symmetrically. A pair with no
//! shared table and no such first step commutes, has the closure
//! `{i} × {j}` and triggers neither way: it is clean by construction, so a
//! sweep that visits only the index's candidates finds everything the dense
//! triangle finds.

use std::collections::BTreeMap;

use crate::context::AnalysisContext;

/// See the module docs. Built in `O(Σ |signature|)` over the indexed rules.
pub(crate) struct ConflictIndex<'a> {
    ctx: &'a AnalysisContext,
    rules: &'a [usize],
    /// Per touched table, the indexed rules touching it, in `rules` order.
    by_table: BTreeMap<&'a str, Vec<u32>>,
}

impl<'a> ConflictIndex<'a> {
    /// Indexes `rules` (a subset of the context's rule indices).
    pub(crate) fn build(ctx: &'a AnalysisContext, rules: &'a [usize]) -> Self {
        let mut by_table: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for &i in rules {
            let sig = &ctx.sigs[i];
            let ops = sig.triggered_by.iter().chain(&sig.performs);
            let tables = std::iter::once(sig.table.as_str())
                .chain(ops.map(|op| op.table()))
                .chain(sig.reads.iter().map(|c| c.table.as_str()));
            for t in tables {
                let members = by_table.entry(t).or_default();
                if members.last() != Some(&(i as u32)) {
                    members.push(i as u32);
                }
            }
        }
        ConflictIndex {
            ctx,
            rules,
            by_table,
        }
    }

    /// The rules touching each table (tables in name order).
    pub(crate) fn table_members(&self) -> impl Iterator<Item = &[u32]> {
        self.by_table.values().map(Vec::as_slice)
    }

    /// Every unordered pair `(i, j)`, `i < j`, of indexed rules that share a
    /// table or whose Definition 6.5 closure can take a first step, ascending
    /// and without duplicates: a superset of the pairs with a violation, a
    /// closure extra or a corollary lint.
    pub(crate) fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        // Partners above each rule, row by row: short rows sort faster than
        // one long list of pairs.
        let mut above: Vec<Vec<u32>> = vec![Vec::new(); self.ctx.len()];
        let mut pair = |a: u32, b: u32| above[a.min(b) as usize].push(a.max(b));
        for members in self.table_members() {
            for (k, &a) in members.iter().enumerate() {
                members[k + 1..].iter().for_each(|&b| pair(a, b));
            }
        }
        let priority = &self.ctx.priority;
        if priority.ordered_pair_count() > 0 {
            let indexed = self.ctx.membership(self.rules);
            let adj = self.ctx.triggers_adjacency();
            for &i in self.rules {
                for &r in &adj[i] {
                    for j in priority.dominated_by(r) {
                        if j != i && indexed[j] {
                            pair(i as u32, j as u32);
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (a, row) in above.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            let partners = row.iter().map(|&b| (a, b as usize));
            out.extend(partners.filter(|&(a, b)| self.ctx.unordered(a, b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])];

    fn candidates(ctx: &AnalysisContext) -> Vec<(usize, usize)> {
        let all: Vec<usize> = (0..ctx.len()).collect();
        ConflictIndex::build(ctx, &all).candidate_pairs()
    }

    #[test]
    fn empty_program_and_single_rule_have_no_candidates() {
        assert!(candidates(&ctx_from("", TABLES)).is_empty());
        let one = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end",
            TABLES,
        );
        assert!(candidates(&one).is_empty());
    }

    #[test]
    fn self_triggering_rule_is_no_partner_of_itself() {
        // grow triggers itself and dominates b: the closure step
        // `grow ∈ Triggers(grow), grow > b` names the ordered pair (grow, b)
        // only. c shares t with grow; nobody shares v with b.
        let ctx = ctx_from(
            "create rule grow on t when inserted then insert into t values (1) precedes b end;
             create rule b on v when inserted then delete from v end;
             create rule c on t when deleted then delete from u end;",
            TABLES,
        );
        assert_eq!(candidates(&ctx), vec![(0, 2)]);
    }

    #[test]
    fn empty_priority_leaves_only_shared_tables() {
        // a triggers b (shared table u); c is alone on v.
        let ctx = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then delete from u end;
             create rule c on v when inserted then delete from v end;",
            TABLES,
        );
        assert_eq!(ctx.priority.ordered_pair_count(), 0);
        assert_eq!(candidates(&ctx), vec![(0, 1)]);
    }

    #[test]
    fn closure_step_pairs_rules_that_share_nothing() {
        // ri triggers h and h > rj: (ri, rj) share no table but the closure
        // of (ri, rj) recruits h, so the pair is a candidate.
        let ctx = ctx_from(
            "create rule ri on t when inserted then insert into u values (1) end;
             create rule rj on v when inserted then delete from v end;
             create rule h on u when inserted then delete from u precedes rj end;",
            TABLES,
        );
        assert_eq!(candidates(&ctx), vec![(0, 1), (0, 2)]);
        // Restricted to {ri, rj}, h still drives the step from outside.
        assert_eq!(
            ConflictIndex::build(&ctx, &[0, 1]).candidate_pairs(),
            vec![(0, 1)]
        );
    }
}
