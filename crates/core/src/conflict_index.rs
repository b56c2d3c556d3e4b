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
//! triangle finds. A full sweep enumerates them all at once
//! ([`ConflictIndex::candidate_pairs`]); a warm step asks for one dirty
//! rule's ([`ConflictIndex::partners`]) or tests a single memoized pair
//! ([`ConflictIndex::is_candidate`]).
//!
//! The table → rules map reads the signatures alone, so it is owned and
//! shared: the incremental analyzer keeps it from one analyze to the next
//! while no rule changes, and indexes each new context over it
//! ([`ConflictIndex::over`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use starling_sql::RuleSignature;

use crate::context::AnalysisContext;

/// Per touched table, the indexed rules touching it, in rule order.
pub(crate) type TableRules = BTreeMap<String, Vec<u32>>;

/// See the module docs. Built in `O(Σ |signature|)` over the context's
/// rules.
pub(crate) struct ConflictIndex<'a> {
    ctx: &'a AnalysisContext,
    by_table: Arc<TableRules>,
}

/// The tables a rule is triggered on, performs on or reads (with repeats).
fn tables_of(sig: &RuleSignature) -> impl Iterator<Item = &str> {
    let ops = sig.triggered_by.iter().chain(&sig.performs);
    std::iter::once(sig.table.as_str())
        .chain(ops.map(|op| op.table()))
        .chain(sig.reads.iter().map(|c| c.table.as_str()))
}

impl<'a> ConflictIndex<'a> {
    /// Indexes the context's rules.
    pub(crate) fn build(ctx: &'a AnalysisContext) -> Self {
        let mut by_table = TableRules::new();
        for i in 0..ctx.len() {
            // A signature names its few tables many times over, mostly in
            // runs: look each run up once.
            let mut last = "";
            for t in tables_of(&ctx.sigs[i]) {
                if t == last {
                    continue;
                }
                last = t;
                match by_table.get_mut(t) {
                    Some(members) if members.last() == Some(&(i as u32)) => {}
                    Some(members) => members.push(i as u32),
                    None => {
                        by_table.insert(t.to_owned(), vec![i as u32]);
                    }
                }
            }
        }
        Self::over(ctx, Arc::new(by_table))
    }

    /// Indexes the context's rules with the table map of an index built
    /// over the same rules, with the same signatures, in another context.
    pub(crate) fn over(ctx: &'a AnalysisContext, by_table: Arc<TableRules>) -> Self {
        ConflictIndex { ctx, by_table }
    }

    /// The table → rules map, to hand to [`Self::over`].
    pub(crate) fn tables(&self) -> &Arc<TableRules> {
        &self.by_table
    }

    /// The rules touching each table (tables in name order).
    pub(crate) fn table_members(&self) -> impl Iterator<Item = &[u32]> {
        self.by_table.values().map(Vec::as_slice)
    }

    /// Every unordered pair `(i, j)`, `i < j`, of rules that share a
    /// table or whose Definition 6.5 closure can take a first step, ascending
    /// and without duplicates: a superset of the pairs with a violation or
    /// a closure extra, and of the pairs the Corollary 6.8/6.10 oracle
    /// (`corollary_checks`) can fail.
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
            let adj = self.ctx.triggers_adjacency();
            for (i, triggered) in adj.iter().enumerate() {
                for &r in triggered {
                    for j in priority.dominated_by(r).filter(|&j| j != i) {
                        pair(i as u32, j as u32);
                    }
                }
            }
        }
        for row in &mut above {
            row.sort_unstable();
            row.dedup();
        }
        let mut out = Vec::with_capacity(above.iter().map(Vec::len).sum());
        for (a, row) in above.iter().enumerate() {
            let partners = row.iter().map(|&b| (a, b as usize));
            out.extend(partners.filter(|&(a, b)| self.ctx.unordered(a, b)));
        }
        out
    }

    /// The rules touching table `t`.
    fn touching(&self, t: &str) -> impl Iterator<Item = usize> + '_ {
        let members = self.by_table.get(t).into_iter().flatten();
        members.map(|&q| q as usize)
    }

    /// The rules `q` with `(d, q)` among [`Self::candidate_pairs`], ascending:
    /// what one dirty rule can have a verdict with. Costs `d`'s tables'
    /// member lists and one column of `P`, not the rule set's pairs.
    pub(crate) fn partners(&self, d: usize) -> Vec<usize> {
        let ctx = self.ctx;
        let mut out: Vec<usize> = Vec::new();
        for t in tables_of(&ctx.sigs[d]) {
            out.extend(self.touching(t));
        }
        if ctx.priority.ordered_pair_count() > 0 {
            let adj = ctx.triggers_adjacency();
            // `i` with some `r ∈ Triggers(i)`, `r > d`: whoever triggers `r`
            // performs on the table `r` is triggered on.
            for r in (0..ctx.len()).filter(|&r| ctx.gt(r, d)) {
                for op in &ctx.sigs[r].triggered_by {
                    let on_table = self.touching(op.table());
                    out.extend(on_table.filter(|&i| adj[i].binary_search(&r).is_ok()));
                }
            }
            // `j` with some `r ∈ Triggers(d)`, `r > j`.
            out.extend(adj[d].iter().flat_map(|&r| ctx.priority.dominated_by(r)));
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&q| ctx.unordered(d, q));
        out
    }

    /// Whether `(i, j)` is among [`Self::candidate_pairs`]. A memoized pair
    /// that no longer is one is clean by construction: its entry is dropped,
    /// not rechecked.
    pub(crate) fn is_candidate(&self, i: usize, j: usize) -> bool {
        let ctx = self.ctx;
        let adj = ctx.triggers_adjacency();
        let steps = |a: usize, b: usize| adj[a].iter().any(|&r| ctx.gt(r, b));
        let shared = || tables_of(&ctx.sigs[i]).any(|t| tables_of(&ctx.sigs[j]).any(|u| t == u));
        ctx.unordered(i, j) && (shared() || steps(i, j) || steps(j, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])];

    /// The candidate pairs, after checking that the per-rule and per-pair
    /// forms enumerate the same set.
    fn candidates(ctx: &AnalysisContext) -> Vec<(usize, usize)> {
        let index = ConflictIndex::build(ctx);
        let pairs = index.candidate_pairs();
        for d in 0..ctx.len() {
            let row: Vec<usize> = (0..ctx.len())
                .filter(|&q| pairs.contains(&(d.min(q), d.max(q))))
                .collect();
            assert_eq!(index.partners(d), row, "partners of {}", ctx.name(d));
            for q in 0..ctx.len() {
                assert_eq!(index.is_candidate(d, q), row.contains(&q));
            }
        }
        pairs
    }

    #[test]
    fn empty_program_and_single_rule_have_no_candidates() {
        assert!(candidates(&ctx_from("", TABLES, Certifications::new())).is_empty());
        let one = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end",
            TABLES,
            Certifications::new(),
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
            Certifications::new(),
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
            Certifications::new(),
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
            Certifications::new(),
        );
        assert_eq!(candidates(&ctx), vec![(0, 1), (0, 2)]);
    }

    /// The three forms agree on programs with enough tables, trigger edges
    /// and priorities for every partner source to matter (`candidates`
    /// asserts it): 40 pseudo-random rules over 10 tables, 8 programs.
    #[test]
    fn partners_and_is_candidate_enumerate_the_candidate_pairs() {
        let names: Vec<String> = (0..10).map(|t| format!("t{t}")).collect();
        let tables: Vec<(&str, &[&str])> = names.iter().map(|t| (t.as_str(), &["x"][..])).collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut stepped, mut total) = (0, 0);
        for _ in 0..8 {
            let mut src = String::new();
            for r in 0..40 {
                let event = ["inserted", "deleted", "updated(x)"][below(3) as usize];
                let target = below(10);
                let action = match below(3) {
                    0 => format!("insert into t{target} values (1)"),
                    1 => format!("delete from t{target}"),
                    _ => format!("update t{target} set x = {r}"),
                };
                let read = match below(3) {
                    0 => format!("if exists (select * from t{}) ", below(10)),
                    _ => String::new(),
                };
                let precedes = match below(4) {
                    0 if r < 39 => format!(" precedes r{}", r + 1 + below(39 - r)),
                    _ => String::new(),
                };
                src += &format!(
                    "create rule r{r} on t{} when {event} {read}then {action}{precedes} end;",
                    below(10)
                );
            }
            let ctx = ctx_from(&src, &tables, Certifications::new());
            let pairs = candidates(&ctx);
            total += pairs.len();
            let shares = |&(i, j): &(usize, usize)| {
                tables_of(&ctx.sigs[i]).any(|t| tables_of(&ctx.sigs[j]).any(|u| t == u))
            };
            stepped += pairs.iter().filter(|p| !shares(p)).count();
        }
        assert!(
            total > 1000 && stepped > 20,
            "{total} pairs, {stepped} by a closure step"
        );
    }
}
