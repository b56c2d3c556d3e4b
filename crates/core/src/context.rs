//! The analysis context: rule signatures, priorities, and certifications,
//! with the derived Section 3 relations (`Triggers`, `Can-Untrigger`,
//! `Choose`).
//!
//! Analyses operate on this context rather than on the engine's `RuleSet`
//! directly: it adds what the rule set does not hold — the certifications,
//! the refinement flag, the pair store the context is bound to and its
//! lazily built `Triggers` adjacency — while sharing the rule set's
//! signatures, rule bodies and catalog behind `Arc`s.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use starling_engine::{PriorityOrder, RuleId, RuleSet};
use starling_sql::{RuleBody, RuleSignature};
use starling_storage::{Catalog, Op};

use crate::certifications::Certifications;
use crate::conflict_index::ConflictIndex;
use crate::pair_store::{BindOutcome, PairStore};

/// Everything the static analyses need to know about a rule set.
#[derive(Clone, Debug)]
pub struct AnalysisContext {
    /// Per-rule static signatures (Section 3 definitions), shared with the
    /// rule set they came from.
    pub sigs: Vec<Arc<RuleSignature>>,
    /// The transitively closed priority order `P`.
    pub priority: PriorityOrder,
    /// User certifications in force.
    pub certs: Certifications,
    /// Rule bodies, shared with the rule set and the definitions it was
    /// compiled from. Only the expression-level readers need them: the
    /// refinement and the §5 monotone-update certificate.
    pub bodies: Vec<Arc<RuleBody>>,
    /// The catalog, shared with the rule set (the predicate-level
    /// commutativity refinement reads it).
    pub catalog: Arc<Catalog>,
    /// Enable the Section 9 "less conservative methods" refinement:
    /// predicate-level analysis may discharge Lemma 6.1 conditions 4/5 when
    /// the conflicting writes are provably disjoint. Off by default
    /// (paper-faithful behavior).
    pub refine: bool,
    /// The persistent pair-verdict store this context is bound to. A
    /// standalone context gets a private store; the incremental analyzer
    /// binds successive contexts to one shared store so verdicts survive
    /// across refinement steps (see [`crate::pair_store`]).
    pub(crate) store: Arc<PairStore>,
    /// Store id of each rule, in `sigs` order.
    pub(crate) sids: Vec<u32>,
    /// Lazily built `Triggers` adjacency (rule → sorted triggered rules),
    /// shared by the triggering graph and the Def 6.5 closures.
    trig: OnceLock<Arc<Vec<Vec<usize>>>>,
    /// Sweeps enumerate the dense triangle instead of the conflict index's
    /// candidates (the tests' differential oracle; see
    /// [`Self::with_dense_sweep`]).
    pub(crate) dense_sweep: bool,
}

impl AnalysisContext {
    /// Builds a context from a compiled rule set, with a private store.
    pub fn from_ruleset(rules: &RuleSet, certs: Certifications) -> Self {
        Self::bound_to_store(rules, certs, false, &Arc::new(PairStore::new())).0
    }

    /// Builds a context bound to a shared persistent store. The returned
    /// [`BindOutcome`] describes exactly which cached pair verdicts the
    /// bind invalidated — the incremental analyzer's dirty-set seed.
    ///
    /// The context shares the rule set's signatures, bodies and catalog:
    /// building it copies handles, not ASTs.
    pub fn bound_to_store(
        rules: &RuleSet,
        certs: Certifications,
        refine: bool,
        store: &Arc<PairStore>,
    ) -> (Self, BindOutcome) {
        let mut ctx = AnalysisContext {
            sigs: rules.rules().iter().map(|r| Arc::clone(&r.sig)).collect(),
            priority: rules.priority().clone(),
            certs,
            bodies: rules.rules().iter().map(|r| Arc::clone(&r.body)).collect(),
            catalog: Arc::clone(rules.shared_catalog()),
            refine,
            store: Arc::clone(store),
            sids: Vec::new(),
            trig: OnceLock::new(),
            dense_sweep: false,
        };
        let outcome = store.bind(&ctx);
        ctx.sids = outcome.sids.clone();
        (ctx, outcome)
    }

    /// Enables the predicate-level commutativity refinement (Section 9,
    /// "less conservative methods").
    pub fn with_refinement(mut self) -> Self {
        self.refine = true;
        // Re-bind: cached verdicts were computed without the refinement,
        // and the bind-time diff drops exactly those.
        self.sids = self.store.bind(&self).sids;
        self
    }

    /// The pair store this context is bound to.
    pub fn pair_store(&self) -> &Arc<PairStore> {
        &self.store
    }

    /// Store id of rule `i`.
    pub(crate) fn sid(&self, i: usize) -> u32 {
        self.sids[i]
    }

    /// The `Triggers` adjacency for every rule at once: `out[r]` is the
    /// sorted list of rules `q` with `Performs(r) ∩ Triggered-By(q) ≠ ∅`.
    /// Built once per context via an op → listeners index (O(n + e) rather
    /// than the O(n²) pairwise scan), then shared by the triggering graph
    /// and the Def 6.5 pair closures.
    pub fn triggers_adjacency(&self) -> &Arc<Vec<Vec<usize>>> {
        self.trig.get_or_init(|| {
            let mut listeners: BTreeMap<&Op, Vec<usize>> = BTreeMap::new();
            for (i, s) in self.sigs.iter().enumerate() {
                for op in &s.triggered_by {
                    listeners.entry(op).or_default().push(i);
                }
            }
            Arc::new(
                self.sigs
                    .iter()
                    .map(|s| {
                        let mut out: Vec<usize> = s
                            .performs
                            .iter()
                            .flat_map(|op| listeners.get(op).into_iter().flatten().copied())
                            .collect();
                        out.sort_unstable();
                        out.dedup();
                        out
                    })
                    .collect(),
            )
        })
    }

    /// Hands this context a `Triggers` adjacency built earlier, for rules
    /// with the same signatures in the same order, instead of building it
    /// again. Must precede the first [`Self::triggers_adjacency`] call.
    pub(crate) fn share_triggers(&self, adj: Arc<Vec<Vec<usize>>>) {
        self.trig
            .set(adj)
            .expect("the adjacency is shared before its first use");
    }

    /// The body of rule `i`.
    pub fn rule_body(&self, i: usize) -> &RuleBody {
        &self.bodies[i]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the rule set is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Rule name by index.
    pub fn name(&self, i: usize) -> &str {
        &self.sigs[i].name
    }

    /// Rule index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.sigs.iter().position(|s| s.name == name)
    }

    /// The paper's `Triggers(r)`: all rules that can become triggered as a
    /// result of `r`'s action — `{r' | Performs(r) ∩ Triggered-By(r') ≠ ∅}`
    /// (possibly including `r` itself).
    pub fn triggers(&self, r: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&q| self.can_trigger(r, q))
            .collect()
    }

    /// Whether `r`'s action can trigger `q`.
    pub fn can_trigger(&self, r: usize, q: usize) -> bool {
        self.sigs[r].can_trigger(&self.sigs[q])
    }

    /// The paper's `Can-Untrigger(O')`: rules that can be untriggered by
    /// operations in `O'` (see [`RuleSignature::untriggered_by`]).
    pub fn can_untrigger<'o>(&self, ops: impl IntoIterator<Item = &'o Op> + Clone) -> Vec<usize> {
        self.sigs
            .iter()
            .enumerate()
            .filter(|(_, s)| ops.clone().into_iter().any(|op| s.untriggered_by(op)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether two rules are unordered (Section 6.2): neither has priority
    /// over the other.
    pub fn unordered(&self, a: usize, b: usize) -> bool {
        self.priority.unordered(RuleId(a), RuleId(b))
    }

    /// Whether `a` has precedence over `b`.
    pub fn gt(&self, a: usize, b: usize) -> bool {
        self.priority.gt(RuleId(a), RuleId(b))
    }

    /// The differential oracle for the sparse sweeps: every analysis on this
    /// context visits [`Self::dense_pairs`] instead of the conflict index's
    /// candidates. Reports must not change. Called from tests alone.
    #[doc(hidden)]
    pub fn with_dense_sweep(mut self) -> Self {
        self.dense_sweep = true;
        self
    }

    /// Every unordered pair `(i, j)`, `i < j`, of `subset` — the whole pair
    /// space the Confluence Requirement quantifies over.
    #[doc(hidden)]
    pub fn dense_pairs(&self, subset: &[usize]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (k, &a) in subset.iter().enumerate() {
            for &b in &subset[k + 1..] {
                if self.unordered(a, b) {
                    out.push((a.min(b), a.max(b)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The conflict index's candidates, ascending: a superset of the
    /// unordered pairs with a violation or a closure extra, and of the pairs
    /// the Corollary 6.8/6.10 oracle can fail.
    #[doc(hidden)]
    pub fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        ConflictIndex::build(self).candidate_pairs()
    }

    /// The unordered pairs a Confluence Requirement sweep has to visit,
    /// ascending; every pair left out is clean by construction.
    pub(crate) fn sweep_pairs(&self) -> Vec<(usize, usize)> {
        if self.dense_sweep {
            self.dense_pairs(&(0..self.len()).collect::<Vec<_>>())
        } else {
            self.candidate_pairs()
        }
    }

    /// `subset` as a per-rule flag.
    pub(crate) fn membership(&self, subset: &[usize]) -> Vec<bool> {
        let mut member = vec![false; self.len()];
        for &i in subset {
            member[i] = true;
        }
        member
    }

    /// How many unordered pairs `subset` (distinct rule indices) has — what
    /// the Confluence Requirement covers, however few of them a sweep visits.
    pub(crate) fn unordered_pair_count(&self, subset: &[usize]) -> usize {
        let member = self.membership(subset);
        let ordered = |&i: &usize| self.priority.dominated_by(i).filter(|&j| member[j]).count();
        subset.len() * subset.len().saturating_sub(1) / 2
            - subset.iter().map(ordered).sum::<usize>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use starling_engine::RuleProgram;
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use super::*;

    /// A catalog of `Int` tables, each with the columns listed.
    pub(crate) fn catalog(tables: &[(&str, &[&str])]) -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in tables {
            let cols = cols.iter().map(|c| ColumnDef::new(*c, ValueType::Int));
            cat.add_table(TableSchema::new(*name, cols.collect()).unwrap())
                .unwrap();
        }
        cat
    }

    /// The rules of `src`, in order.
    pub(crate) fn defs(src: &str) -> Vec<starling_sql::RuleDef> {
        RuleProgram::parse(src).unwrap().defs
    }

    /// The context of the rules of `src` over `tables`, with `certs` in
    /// force: how every analysis test builds one.
    pub(crate) fn ctx_from(
        src: &str,
        tables: &[(&str, &[&str])],
        certs: Certifications,
    ) -> AnalysisContext {
        let rs = RuleSet::compile(&defs(src), &catalog(tables)).unwrap();
        AnalysisContext::from_ruleset(&rs, certs)
    }

    #[test]
    fn triggers_relation() {
        let ctx = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then delete from t end;
             create rule c on t when deleted then update t set x = 0 end;",
            &[("t", &["x"]), ("u", &["y"])],
            Certifications::new(),
        );
        // a inserts into u -> triggers b; b deletes from t -> triggers c;
        // c updates t.x -> triggers nobody (no updated-rules on t.x).
        assert_eq!(ctx.triggers(0), vec![1]);
        assert_eq!(ctx.triggers(1), vec![2]);
        assert!(ctx.triggers(2).is_empty());
        assert!(ctx.can_trigger(0, 1));
        assert!(!ctx.can_trigger(0, 2));
    }

    #[test]
    fn self_triggering() {
        let ctx = ctx_from(
            "create rule grow on t when inserted then insert into t values (1) end",
            &[("t", &["x"])],
            Certifications::new(),
        );
        assert_eq!(ctx.triggers(0), vec![0]);
    }

    #[test]
    fn can_untrigger() {
        let ctx = ctx_from(
            "create rule ins_watch on t when inserted then update u set y = 0 end;
             create rule upd_watch on t when updated(x) then update u set y = 0 end;
             create rule del_watch on t when deleted then update u set y = 0 end;
             create rule killer on u when inserted then delete from t end;",
            &[("t", &["x"]), ("u", &["y"])],
            Certifications::new(),
        );
        // killer deletes from t: can untrigger insert- and update-triggered
        // rules on t, but not delete-triggered ones, nor itself.
        assert_eq!(ctx.can_untrigger(&ctx.sigs[3].performs), vec![0, 1]);
        // Non-deleting rules untrigger nothing.
        for r in 0..3 {
            assert!(ctx.can_untrigger(&ctx.sigs[r].performs).is_empty());
        }
    }

    #[test]
    fn unordered_pairs_respect_priorities() {
        let ctx = ctx_from(
            "create rule a on t when inserted then delete from t precedes b end;
             create rule b on t when inserted then delete from t end;
             create rule c on t when inserted then delete from t end;",
            &[("t", &["x"])],
            Certifications::new(),
        );
        assert_eq!(ctx.dense_pairs(&[0, 1, 2]), vec![(0, 2), (1, 2)]);
        assert_eq!(ctx.unordered_pair_count(&[0, 1, 2]), 2);
        assert_eq!(ctx.unordered_pair_count(&[0, 1]), 0);
        assert_eq!(ctx.unordered_pair_count(&[1, 2]), 1);
        assert!(ctx.gt(0, 1));
    }

    #[test]
    fn indexed_adjacency_matches_pairwise_triggers() {
        let ctx = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then delete from t end;
             create rule c on t when deleted then update t set x = 0 end;
             create rule grow on t when inserted then insert into t values (1) end;",
            &[("t", &["x"]), ("u", &["y"])],
            Certifications::new(),
        );
        let adj = Arc::clone(ctx.triggers_adjacency());
        for r in 0..ctx.len() {
            assert_eq!(adj[r], ctx.triggers(r), "rule {r}");
        }
    }

    #[test]
    fn name_index_round_trip() {
        let ctx = ctx_from(
            "create rule a on t when inserted then delete from t end",
            &[("t", &["x"])],
            Certifications::new(),
        );
        assert_eq!(ctx.index_of("a"), Some(0));
        assert_eq!(ctx.name(0), "a");
        assert_eq!(ctx.index_of("zz"), None);
    }
}
