//! The incremental whole-report analyzer behind the §6.4 interactive loop.
//!
//! [`IncrementalAnalysis`] produces [`AnalysisReport`]s **byte-identical**
//! to [`AnalysisReport::run`] while re-deriving, after a single refinement
//! step (certify / order / add / drop / redefine), only the work that step
//! can actually have changed:
//!
//! * Lemma 6.1 pair verdicts live in a persistent [`PairStore`] shared
//!   across analyses; bind-time structural diffs invalidate exactly the
//!   pairs mentioning a changed rule or toggled certification.
//! * The per-pair *confluence* results (Def 6.5 closures and their
//!   `R1 × R2` violations) are memoized in a confluence memo keyed by
//!   rule-pair identity. Each analyze computes a
//!   **dirty pair set** from the bind outcome plus a priority-closure diff
//!   and rechecks only those pairs; everything else is reused verbatim.
//! * A **program index** — the `Triggers` adjacency, its predecessor map
//!   and the conflict index's table → rules map — is kept from one analyze
//!   to the next and handed to each new context, together with the
//!   [`TerminationAnalysis`], which every report shares behind an `Arc`.
//!   They read the rules' definitions and order alone, so they are keyed
//!   on the bind: the same store ids in the same order and no changed rule
//!   (a rule is unchanged when it comes back behind the same body handle —
//!   every rule a recompile after an `order` step did not touch, since the
//!   rule set shares its definitions' bodies — or with an equal body under
//!   an equal catalog; see [`PairStore`]). Any added, dropped, reordered
//!   or changed rule rebuilds the index from scratch; termination is
//!   reused only when, in addition, the termination certifications are
//!   unchanged. A certify step and an `order` step thus rebuild nothing,
//!   and [`IncrementalStats::index_builds`] counts the builds.
//! * Observable determinism and partial confluence filter the confluence
//!   analysis the memo assembles; beside a pair's extras the memo records
//!   whether its closure splits two observable rules.
//!
//! # Dirty-set rules per mutation kind
//!
//! Writing `pairs(x)` for "`x`'s pairs, expanded through the conflict
//! index": `{x, q}` for each of `x`'s index partners `q` in the current
//! context, plus every memoized pair naming `x` as an endpoint or a
//! non-generating closure member. Nothing else can matter: a non-partner
//! pair is clean by construction now, and a pair that *was* flagged carries
//! a memo entry — rechecked if still a candidate, dropped if not.
//!
//! * **redefined rule `x`** → `pairs(x)`, plus `pairs(m)` for every rule
//!   `m` whose can-trigger edge to `x` changed (`m ∈ preds_old(x) Δ
//!   preds_new(x)`), guarded on `x` being able to enter a closure at all
//!   (some outgoing priority, old or new);
//! * **added rule `x`** → `pairs(x)`, plus `pairs(m)` for
//!   `m ∈ preds(x)` under the same guard;
//! * **dropped rule `r`** → its memo entries are deleted; pairs listing `r`
//!   as a closure extra are rechecked. No predecessor expansion is needed:
//!   for a pair whose closure never contained `r`, the fixpoint rejected
//!   `r` at every step, and rejection is indistinguishable from absence;
//! * **certification toggle on `(a, b)`** → `pairs(a)`: an affected pair's
//!   closure must contain *both* endpoints, hence `a`;
//! * **priority edit** → the old and new transitive closures are diffed;
//!   every changed directed fact `x > y` dirties the pair `{x, y}` plus
//!   every pair whose memoized closure contains `y` *and* a
//!   trigger-predecessor of `x`. Soundness: the Def 6.5 fixpoint only
//!   consults `gt(x, y)` for a candidate `x` against a *member* `y`, and
//!   admission also requires a member that triggers `x`; at the first step
//!   where old and new computations can diverge every member is still an
//!   old-closure member, so both witnesses are visible in the memo;
//! * **refinement toggle** → full resweep (every verdict changed meaning).
//!
//! Every rechecked pair is thus a candidate of the current index, and a
//! candidate pair lies inside one component of
//! [`partition_rules`](crate::partition::partition_rules): the paper's §9
//! promise — "analysis … needs to be repeated for a partition only when
//! rules in that partition change" — kept at pair granularity
//! ([`IncrementalAnalysis::last_rechecked`] lists the pairs).
//!
//! # Cold start: sparse, then parallel
//!
//! The first analyze (and any fallback resweep) visits only the conflict
//! index's candidate pairs — rules that share a table, or whose Def 6.5
//! closure can take a first step; every other pair is clean by construction
//! and takes no memo entry. `last_rechecked_pairs` counts the pairs
//! visited; the report's `pairs_checked` stays the number of unordered
//! pairs the requirement covers. [`prewarm_pairs`] can first fan the
//! candidates' verdict computations out over scoped threads. Verdicts are
//! pure per-pair functions merged into disjoint bit positions, so thread
//! scheduling cannot affect the store state and the assembled report stays
//! byte-identical to a sequential sweep (property-tested in
//! `tests/incremental_props.rs`, as is sparse ≡ dense).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use starling_engine::{PriorityOrder, RuleSet};

use crate::certifications::Certifications;
use crate::commutativity::prewarm_pairs;
use crate::conflict_index::{ConflictIndex, TableRules};
use crate::confluence::{check_pair, ConfluenceAnalysis, ConfluenceViolation};
use crate::context::AnalysisContext;
use crate::pair_store::{BindOutcome, PairStore, PairStoreStats};
use crate::report::AnalysisReport;
use crate::termination::{analyze_termination, TerminationAnalysis};

/// Don't bother spinning up threads below this many candidate pairs.
const PREWARM_MIN_PAIRS: usize = 1 << 12;

/// Everything the dirty-set propagation diffs against, beyond the previous
/// analyze's [`ProgramIndex`].
#[derive(Debug)]
struct ConfluenceMemo {
    /// The transitively closed priority at the last analyze (indices are
    /// positions in that analyze's index's `sids`).
    priority: PriorityOrder,
    /// Unordered pairs with any violations or closure extras,
    /// keyed `(sid_i, sid_j)` in rule-index orientation, each with its
    /// closure members beyond the generating pair (store ids, sorted).
    /// Pairs absent here are known-clean.
    extras: HashMap<(u32, u32), Vec<u32>>,
    /// The violations of the pairs of `extras` that have any: all a report
    /// reads, apart from the far more numerous pairs that only have extras.
    outputs: HashMap<(u32, u32), Vec<ConfluenceViolation>>,
    /// The pairs of `extras` whose closure splits observable rules.
    splits: HashSet<(u32, u32)>,
    /// sid → the `extras` keys whose closure contains it, as an endpoint
    /// or as a non-generating member: everything the memo holds on a rule
    /// (unordered rows; a key appears once per row).
    mentions: HashMap<u32, Vec<(u32, u32)>>,
    /// How many pairs the full sweep that built this memo visited: what a
    /// dirty set is weighed against before falling back to another one.
    swept: usize,
}

/// What a warm step reuses while no rule changes: the structures that read
/// the rules' definitions and their order, and nothing else — not the
/// priority, the certifications or the refinement flag.
#[derive(Debug)]
struct ProgramIndex {
    /// Store ids of the rules it was built over, in rule order.
    sids: Vec<u32>,
    /// The `Triggers` adjacency, shared with each context.
    trig: Arc<Vec<Vec<usize>>>,
    /// sid → sids of rules that can trigger it.
    preds: HashMap<u32, Vec<u32>>,
    /// The conflict index's table → rules map over every rule.
    tables: Arc<TableRules>,
}

impl ProgramIndex {
    fn build(ctx: &AnalysisContext) -> Self {
        let trig = Arc::clone(ctx.triggers_adjacency());
        let mut preds: HashMap<u32, Vec<u32>> = HashMap::new();
        for (q, out) in trig.iter().enumerate() {
            for &x in out {
                preds.entry(ctx.sid(x)).or_default().push(ctx.sid(q));
            }
        }
        let tables = Arc::clone(ConflictIndex::build(ctx).tables());
        ProgramIndex {
            sids: ctx.sids.clone(),
            trig,
            preds,
            tables,
        }
    }
}

/// Cumulative counters for one [`IncrementalAnalysis`] (surfaced by the
/// server's `stats` op).
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalStats {
    /// Pair store counters.
    pub pair: PairStoreStats,
    /// Analyses that swept every candidate pair of the conflict index.
    pub full_sweeps: u64,
    /// Analyses that only rechecked a dirty set.
    pub incremental_sweeps: u64,
    /// Pairs rechecked by the most recent analyze: a full sweep's
    /// candidates, or an incremental one's dirty set.
    pub last_rechecked_pairs: u64,
    /// Analyses that built the program index (the `Triggers` adjacency,
    /// its predecessor map and the conflict index's table map) rather than
    /// reusing the previous one: the first, and each after a rule was
    /// added, dropped, reordered or changed.
    pub index_builds: u64,
}

/// See the module docs.
pub struct IncrementalAnalysis {
    store: Arc<PairStore>,
    parallel: bool,
    memo: Option<ConfluenceMemo>,
    index: Option<Arc<ProgramIndex>>,
    /// The termination analysis of the current index, with the
    /// certifications it was derived under.
    termination: Option<(Certifications, Arc<TerminationAnalysis>)>,
    full_sweeps: u64,
    incremental_sweeps: u64,
    index_builds: u64,
    rechecked: Vec<(usize, usize)>,
}

impl Default for IncrementalAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalAnalysis {
    /// A fresh analyzer with parallel cold sweeps enabled.
    pub fn new() -> Self {
        IncrementalAnalysis {
            store: Arc::new(PairStore::new()),
            parallel: true,
            memo: None,
            index: None,
            termination: None,
            full_sweeps: 0,
            incremental_sweeps: 0,
            index_builds: 0,
            rechecked: Vec::new(),
        }
    }

    /// A fresh analyzer that never spawns threads: the reference the
    /// property tests hold the threaded cold prewarm to (identical reports
    /// after every step of a refinement walk). The tests that count what an
    /// analyze visits use it too.
    pub fn sequential() -> Self {
        IncrementalAnalysis {
            parallel: false,
            ..Self::new()
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            pair: self.store.stats(),
            full_sweeps: self.full_sweeps,
            incremental_sweeps: self.incremental_sweeps,
            last_rechecked_pairs: self.rechecked.len() as u64,
            index_builds: self.index_builds,
        }
    }

    /// The pairs the most recent analyze rechecked, as index pairs
    /// `(i, j)`, `i < j`, into that analyze's rule set.
    pub fn last_rechecked(&self) -> &[(usize, usize)] {
        &self.rechecked
    }

    /// Runs the full analysis, reusing everything the inputs' diff against
    /// the previous call permits. Output is byte-identical to
    /// [`AnalysisReport::run`] on a fresh context with the same inputs.
    pub fn analyze(
        &mut self,
        rules: &RuleSet,
        certs: &Certifications,
        refine: bool,
        protect: &[Vec<String>],
    ) -> AnalysisReport {
        let (ctx, outcome) =
            AnalysisContext::bound_to_store(rules, certs.clone(), refine, &self.store);
        // The same rules, unchanged, in the same order: everything the index
        // holds still holds.
        let prev = self.index.take();
        let index = match &prev {
            Some(ix) if outcome.changed_rules.is_empty() && ix.sids == ctx.sids => {
                ctx.share_triggers(Arc::clone(&ix.trig));
                Arc::clone(ix)
            }
            _ => {
                self.index_builds += 1;
                self.termination = None;
                Arc::new(ProgramIndex::build(&ctx))
            }
        };
        let confluence = self.confluence(&ctx, &outcome, &index, prev.as_deref());
        self.index = Some(index);
        let termination = match &self.termination {
            Some((was, t)) if was.same_terminations(certs) => Arc::clone(t),
            _ => {
                let t = Arc::new(analyze_termination(&ctx));
                self.termination = Some((certs.clone(), Arc::clone(&t)));
                t
            }
        };
        AnalysisReport::assemble(&ctx, termination, confluence, protect)
    }

    /// The confluence analysis. `prev` is the index of the previous
    /// analyze, when there was one.
    fn confluence(
        &mut self,
        ctx: &AnalysisContext,
        outcome: &BindOutcome,
        index: &ProgramIndex,
        prev: Option<&ProgramIndex>,
    ) -> ConfluenceAnalysis {
        // A full sweep enumerates the conflict index, an incremental one
        // expands its dirty rules through it.
        let conflicts = ConflictIndex::over(ctx, Arc::clone(&index.tables));
        let swept = match prev {
            Some(prev) if self.memo.is_some() && !outcome.refine_flipped => {
                self.incremental_sweep(ctx, outcome, &conflicts, prev, index)
            }
            _ => false,
        };
        if swept {
            self.incremental_sweeps += 1;
        } else {
            self.full_sweep(ctx, &conflicts);
            self.full_sweeps += 1;
        }
        self.assemble(ctx)
    }

    /// Sweeps every candidate pair — the rest are clean by construction and
    /// take no memo entry — rebuilding the memo from nothing.
    fn full_sweep(&mut self, ctx: &AnalysisContext, index: &ConflictIndex) {
        let pairs = index.candidate_pairs();
        if self.parallel && pairs.len() >= PREWARM_MIN_PAIRS {
            prewarm_pairs(ctx, &pairs);
        }
        let mut memo = ConfluenceMemo {
            priority: ctx.priority.clone(),
            extras: HashMap::new(),
            outputs: HashMap::new(),
            splits: HashSet::new(),
            mentions: HashMap::new(),
            swept: pairs.len(),
        };
        for &(i, j) in &pairs {
            Self::recheck_into(ctx, &mut memo, i, j);
        }
        self.rechecked = pairs;
        self.memo = Some(memo);
    }

    /// Propagates the dirty set and rechecks only those pairs. Returns
    /// `false`, leaving no memo, when only a full sweep will do (huge dirty
    /// set, or rule reordering the memo keys cannot survive). The trigger
    /// predecessors before the step are `prev_index`'s, after it `now`'s.
    fn incremental_sweep(
        &mut self,
        ctx: &AnalysisContext,
        outcome: &BindOutcome,
        index: &ConflictIndex,
        prev_index: &ProgramIndex,
        now: &ProgramIndex,
    ) -> bool {
        let mut memo = self.memo.take().expect("incremental sweep without memo");
        let cur: HashMap<u32, usize> = ctx.sids.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let prev: HashMap<u32, usize> = prev_index
            .sids
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();

        // Memo keys are oriented by relative rule order, which add/drop
        // preserves. Wholesale reordering would silently flip orientations,
        // so detect it and resweep.
        let survivors_now = ctx.sids.iter().copied().filter(|s| prev.contains_key(s));
        let survivors_then = prev_index
            .sids
            .iter()
            .copied()
            .filter(|s| cur.contains_key(s));
        if !survivors_now.eq(survivors_then) {
            return false;
        }

        let added: Vec<u32> = ctx
            .sids
            .iter()
            .copied()
            .filter(|s| !prev.contains_key(s))
            .collect();
        let removed: Vec<u32> = prev_index
            .sids
            .iter()
            .copied()
            .filter(|s| !cur.contains_key(s))
            .collect();
        let norm = |a: u32, b: u32| if cur[&a] < cur[&b] { (a, b) } else { (b, a) };

        // Rules all of whose pairs (mentions + closure extras) are dirty.
        let mut dirty_rules: BTreeSet<u32> = BTreeSet::new();
        dirty_rules.extend(outcome.changed_rules.iter().copied());
        dirty_rules.extend(added.iter().copied());
        let mut dirty_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();

        // Certification toggle on (a, b): an affected pair's closure must
        // contain both endpoints — so dirtying everything that contains `a`
        // is a superset. Endpoints outside the current rule set cannot
        // appear in any current closure.
        for &(a, b) in &outcome.changed_certs {
            if cur.contains_key(&a) && cur.contains_key(&b) {
                dirty_rules.insert(a);
            }
        }

        // Priority-closure diff over survivors. The common refinement
        // steps (certify, add/drop with orderings untouched) leave the
        // closure alone, so compare wholesale first: identical sid lists
        // and identical closure rows mean no `gt` fact changed. Otherwise
        // diff the two (sparse) closure pair sets in sid space — the
        // mapping is index-shift-proof, so add/drop renumbering is fine.
        //
        // The Def 6.5 fixpoint consults a changed fact `gt(x, y)` only when
        // testing candidate `x` against member `y`, and admitting `x` also
        // requires a member that triggers it. At the first step where the
        // old and new computations can diverge every member is still an
        // *old* member, so a pair is affected only if its memoized closure
        // contains `y` **and** a trigger-predecessor of `x` (trigger-edge
        // changes themselves are covered by the `changed_rules` machinery).
        // Both memberships are answerable from the memo — endpoints plus
        // `extras` — so the dirty set stays proportional to the real blast
        // radius instead of `pairs(y)`'s whole rows.
        let (preds_old, preds_new) = (&prev_index.preds, &now.preds);
        if prev_index.sids != ctx.sids || memo.priority != ctx.priority {
            let to_sids = |pairs: Vec<(usize, usize)>, sids: &[u32]| -> BTreeSet<(u32, u32)> {
                pairs.into_iter().map(|(x, y)| (sids[x], sids[y])).collect()
            };
            let old_gt = to_sids(memo.priority.gt_pairs(), &prev_index.sids);
            let new_gt = to_sids(ctx.priority.gt_pairs(), &ctx.sids);
            let mut px_cache: Option<(u32, BTreeSet<u32>)> = None;
            for &(x, y) in old_gt.symmetric_difference(&new_gt) {
                // Only survivor↔survivor changes matter: a dropped rule
                // dirties every memo entry naming it below, and an added
                // rule already dirties its whole row.
                if !(prev.contains_key(&x)
                    && prev.contains_key(&y)
                    && cur.contains_key(&x)
                    && cur.contains_key(&y))
                {
                    continue;
                }
                // The generating pair itself: its unordered() status flips.
                dirty_pairs.insert(norm(x, y));
                // preds(x), old ∪ new (they differ only when trigger edges
                // changed, which dirties those rules wholesale anyway).
                if px_cache.as_ref().map(|c| c.0) != Some(x) {
                    let mut px: BTreeSet<u32> = preds_old
                        .get(&x)
                        .into_iter()
                        .flatten()
                        .chain(preds_new.get(&x).into_iter().flatten())
                        .copied()
                        .collect();
                    px.retain(|p| cur.contains_key(p));
                    px_cache = Some((x, px));
                }
                let px = &px_cache.as_ref().unwrap().1;
                if px.is_empty() {
                    continue; // x is never triggered, so it joins no closure
                }
                if px.contains(&y) {
                    // y itself triggers x: every pair with y as a member
                    // passes both tests, which is exactly pairs(y).
                    dirty_rules.insert(y);
                    continue;
                }
                // The pairs {y, pred of x}, which may hold no entry yet ...
                let preds = px.iter().filter(|&&p| p != y);
                dirty_pairs.extend(preds.map(|&p| norm(y, p)));
                // ... and the memoized pairs whose closure contains y and
                // a pred of x, each as an endpoint or an extra.
                for &k in memo.mentions.get(&y).into_iter().flatten() {
                    if [k.0, k.1]
                        .iter()
                        .chain(&memo.extras[&k])
                        .any(|m| px.contains(m))
                    {
                        dirty_pairs.insert(k);
                    }
                }
            }
        }

        // Candidate-eligibility changes: a redefined or added rule `x` can
        // newly enter (or leave) the closure of a pair that never contained
        // it, via a member `m` that can trigger it — but only if `x` has
        // some outgoing priority at all (Def 6.5 candidates need `gt` over
        // the other side).
        for &x in outcome.changed_rules.iter().chain(&added) {
            let old_dom = prev
                .get(&x)
                .is_some_and(|&px| memo.priority.dominates_any(px));
            if !old_dom && !ctx.priority.dominates_any(cur[&x]) {
                continue;
            }
            let empty = Vec::new();
            let old_p: BTreeSet<u32> = preds_old
                .get(&x)
                .unwrap_or(&empty)
                .iter()
                .copied()
                .collect();
            let new_p: BTreeSet<u32> = preds_new
                .get(&x)
                .unwrap_or(&empty)
                .iter()
                .copied()
                .collect();
            for &m in old_p.symmetric_difference(&new_p) {
                if cur.contains_key(&m) {
                    dirty_rules.insert(m);
                }
            }
        }

        // Expand dirty rules into pairs, through the conflict index: a
        // dirty rule's partners are the only rules it can hold a verdict
        // with in this context, and whatever it — or a dropped rule — held
        // one with before has a memo entry naming it, as an endpoint or a
        // closure extra.
        for &d in &dirty_rules {
            let partners = index.partners(cur[&d]);
            dirty_pairs.extend(partners.into_iter().map(|q| norm(d, ctx.sid(q))));
        }
        for d in dirty_rules.iter().chain(&removed) {
            dirty_pairs.extend(memo.mentions.get(d).into_iter().flatten());
        }

        // A dirty set approaching what a full sweep visits is slower to
        // propagate than to resweep.
        if dirty_pairs.len() > memo.swept / 2 {
            return false;
        }

        // A memoized pair with a dropped endpoint, or one the index no
        // longer lists (clean by construction), only loses its entry.
        let mut rechecked = Vec::new();
        for &(a, b) in &dirty_pairs {
            Self::remove_entry(&mut memo, (a, b));
            let (Some(&i), Some(&j)) = (cur.get(&a), cur.get(&b)) else {
                continue;
            };
            if index.is_candidate(i, j) {
                Self::recheck_into(ctx, &mut memo, i, j);
                rechecked.push((i, j));
            }
        }
        self.rechecked = rechecked;

        memo.priority = ctx.priority.clone();
        self.memo = Some(memo);
        true
    }

    /// Runs [`check_pair`] for one unordered pair and records the results
    /// (only non-trivial ones take memory).
    fn recheck_into(ctx: &AnalysisContext, memo: &mut ConfluenceMemo, i: usize, j: usize) {
        let (cl, violations) = check_pair(ctx, i, j);
        let mut extras: Vec<u32> = cl
            .r1
            .iter()
            .chain(cl.r2.iter())
            .filter(|&&m| m != i && m != j)
            .map(|&m| ctx.sid(m))
            .collect();
        extras.sort_unstable();
        extras.dedup();
        let split = cl.splits_observables(ctx);
        if violations.is_empty() && extras.is_empty() && !split {
            return;
        }
        let key = (ctx.sid(i), ctx.sid(j));
        for &m in [key.0, key.1].iter().chain(&extras) {
            memo.mentions.entry(m).or_default().push(key);
        }
        if !violations.is_empty() {
            memo.outputs.insert(key, violations);
        }
        if split {
            memo.splits.insert(key);
        }
        memo.extras.insert(key, extras);
    }

    fn remove_entry(memo: &mut ConfluenceMemo, key: (u32, u32)) {
        if let Some(extras) = memo.extras.remove(&key) {
            memo.outputs.remove(&key);
            memo.splits.remove(&key);
            for m in [key.0, key.1].iter().chain(&extras) {
                let row = memo.mentions.get_mut(m).expect("a member is mentioned");
                let at = row.iter().position(|k| *k == key);
                row.swap_remove(at.expect("a member is mentioned"));
            }
        }
    }

    /// Rebuilds the [`ConfluenceAnalysis`] from the memo in one ordered
    /// pass, in the exact `(i, j)` scan order of `analyze_confluence`.
    fn assemble(&self, ctx: &AnalysisContext) -> ConfluenceAnalysis {
        let memo = self.memo.as_ref().expect("assemble without memo");
        // Store id → rule index. Store ids are dense, so a vector will do.
        let mut cur = vec![u32::MAX; ctx.sids.iter().max().map_or(0, |&m| m as usize + 1)];
        for (i, &s) in ctx.sids.iter().enumerate() {
            cur[s as usize] = i as u32;
        }
        let mut keyed: Vec<((u32, u32), &Vec<ConfluenceViolation>)> = memo
            .outputs
            .iter()
            .map(|(k, e)| ((cur[k.0 as usize], cur[k.1 as usize]), e))
            .collect();
        keyed.sort_unstable_by_key(|&(ij, _)| ij);
        let violations = keyed.iter().flat_map(|(_, e)| e.iter().cloned()).collect();
        let name = |s: u32| ctx.name(cur[s as usize] as usize).to_owned();
        let splits = memo.splits.iter().map(|&(a, b)| (name(a), name(b)));
        let n = ctx.len();
        ConfluenceAnalysis::of_sweep(
            violations,
            splits.collect(),
            n * n.saturating_sub(1) / 2 - ctx.priority.ordered_pair_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::RuleDef;
    use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

    use super::*;
    use crate::context::tests::{catalog, defs};

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])];

    fn scratch_report(
        cat: &Catalog,
        defs: &[RuleDef],
        certs: &Certifications,
        refine: bool,
        protect: &[Vec<String>],
    ) -> AnalysisReport {
        let rs = RuleSet::compile(defs, cat).unwrap();
        let mut ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
        if refine {
            ctx = ctx.with_refinement();
        }
        AnalysisReport::run(&ctx, protect)
    }

    /// Drives an editing session through every mutation kind, comparing the
    /// incremental report against a from-scratch run after each step.
    #[test]
    fn every_mutation_kind_matches_from_scratch() {
        let cat = catalog(TABLES);
        let mut d = defs(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;
             create rule c on v when inserted then update u set x = 3 end;",
        );
        let mut certs = Certifications::new();
        let mut refine = false;
        let protect = vec![vec!["u".to_owned()]];
        let mut inc = IncrementalAnalysis::sequential();

        let check = |inc: &mut IncrementalAnalysis,
                     d: &[RuleDef],
                     certs: &Certifications,
                     refine: bool,
                     step: &str| {
            let rs = RuleSet::compile(d, &cat).unwrap();
            let got = inc.analyze(&rs, certs, refine, &protect);
            let want = scratch_report(&cat, d, certs, refine, &protect);
            assert_eq!(
                got.to_json().to_string(),
                want.to_json().to_string(),
                "json mismatch after step: {step}"
            );
            assert_eq!(
                got.to_string(),
                want.to_string(),
                "display mismatch after step: {step}"
            );
        };

        check(&mut inc, &d, &certs, refine, "initial");

        certs.certify_commute("a", "b");
        check(&mut inc, &d, &certs, refine, "certify a~b");

        certs.revoke_commute("a", "b");
        check(&mut inc, &d, &certs, refine, "revoke a~b");

        d[0].precedes.push("b".to_owned());
        check(&mut inc, &d, &certs, refine, "order a>b");

        d.extend(defs(
            "create rule w on u when updated(x) then insert into v values (1) precedes b end;",
        ));
        check(&mut inc, &d, &certs, refine, "add rule w");

        d[1] = defs("create rule b on t when inserted then update v set x = 2 end;")
            .pop()
            .unwrap();
        check(&mut inc, &d, &certs, refine, "redefine b");

        d.remove(2); // drop rule c
        check(&mut inc, &d, &certs, refine, "drop rule c");

        refine = true;
        check(&mut inc, &d, &certs, refine, "enable refinement");

        certs.certify_commute("b", "w");
        check(&mut inc, &d, &certs, refine, "certify under refinement");

        refine = false;
        check(&mut inc, &d, &certs, refine, "disable refinement");

        // At this tiny scale the half-the-pair-space fallback fires often;
        // what matters is that some steps went incremental and the store
        // served repeat verdicts.
        let stats = inc.stats();
        assert!(stats.incremental_sweeps >= 2, "{stats:?}");
        assert!(stats.pair.hits > 0, "{stats:?}");
    }

    /// A certify step on an otherwise untouched set must recheck only the
    /// pairs mentioning the certified rule, not the whole pair space.
    #[test]
    fn certify_rechecks_linear_pair_set() {
        let cat = catalog(TABLES);
        let d = defs(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;
             create rule c on t when inserted then update u set x = 3 end;
             create rule e on t when inserted then update u set x = 4 end;
             create rule f on t when inserted then update u set x = 5 end;",
        );
        let rs = RuleSet::compile(&d, &cat).unwrap();
        let mut inc = IncrementalAnalysis::sequential();
        let mut certs = Certifications::new();
        inc.analyze(&rs, &certs, false, &[]);
        assert_eq!(inc.stats().full_sweeps, 1);

        certs.certify_commute("a", "b");
        inc.analyze(&rs, &certs, false, &[]);
        let stats = inc.stats();
        assert_eq!(stats.incremental_sweeps, 1, "{stats:?}");
        // 5 rules → 10 pairs; pairs(a) alone is 4.
        assert_eq!(stats.last_rechecked_pairs, 4, "{stats:?}");
    }

    /// The fallback weighs the dirty set against what a full sweep visits,
    /// not against the pair space: 50 rules in ten table-disjoint groups of
    /// five have 100 candidate pairs of 1225, and redefining two rules of
    /// every group dirties 70 of them.
    #[test]
    fn a_dirty_set_over_half_the_candidates_falls_back_to_a_full_sweep() {
        let mut cat = Catalog::new();
        let mut src = String::new();
        for g in 0..10 {
            for t in [format!("t{g}"), format!("u{g}")] {
                cat.add_table(
                    TableSchema::new(t, vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
                )
                .unwrap();
            }
            for k in 0..5 {
                src += &format!(
                    "create rule r{g}_{k} on t{g} when inserted then update u{g} set x = {k} end;"
                );
            }
        }
        let mut d = defs(&src);
        let certs = Certifications::new();
        let mut inc = IncrementalAnalysis::sequential();
        inc.analyze(&RuleSet::compile(&d, &cat).unwrap(), &certs, false, &[]);
        assert_eq!(inc.stats().last_rechecked_pairs, 100);

        for def in d
            .iter_mut()
            .filter(|def| def.name.ends_with("_0") || def.name.ends_with("_1"))
        {
            let redefined = format!(
                "create rule {} on {} when deleted then update u{} set x = 9 end;",
                def.name,
                def.table,
                &def.table[1..]
            );
            *def = defs(&redefined).pop().unwrap();
        }
        let got = inc.analyze(&RuleSet::compile(&d, &cat).unwrap(), &certs, false, &[]);
        let stats = inc.stats();
        assert_eq!(
            (stats.full_sweeps, stats.incremental_sweeps),
            (2, 0),
            "{stats:?}"
        );
        let want = scratch_report(&cat, &d, &certs, false, &[]);
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
        assert_eq!(got.to_string(), want.to_string());

        // One group's worth stays incremental, and inside that group.
        d[0] = defs("create rule r0_0 on t0 when inserted then update u0 set x = 7 end;")
            .pop()
            .unwrap();
        let got = inc.analyze(&RuleSet::compile(&d, &cat).unwrap(), &certs, false, &[]);
        assert_eq!(inc.stats().incremental_sweeps, 1);
        assert_eq!(inc.last_rechecked(), [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let want = scratch_report(&cat, &d, &certs, false, &[]);
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
    }

    /// Under the refinement a pair's verdict reads the rules' `WHERE`
    /// clauses, which a signature does not record: redefining `r2` from
    /// `a > 20` (disjoint from `r1`'s `a < 10`) to `a > 5` keeps its
    /// signature but must bring the violation back.
    #[test]
    fn a_redefinition_under_the_same_signature_is_reanalyzed() {
        let cat = catalog(&[("t", &["a", "b"])]);
        let rule = |bound: &str| {
            defs(&format!(
                "create rule r1 on t when inserted then update t set b = 1 where a < 10 end;
                 create rule r2 on t when inserted then update t set b = 2 where {bound} end;"
            ))
        };
        let certs = Certifications::new();
        let mut inc = IncrementalAnalysis::sequential();
        let before = inc.analyze(
            &RuleSet::compile(&rule("a > 20"), &cat).unwrap(),
            &certs,
            true,
            &[],
        );
        assert!(before.confluence.violations.is_empty());

        let redefined = rule("a > 5");
        let rs = RuleSet::compile(&redefined, &cat).unwrap();
        let got = inc.analyze(&rs, &certs, true, &[]);
        let want = scratch_report(&cat, &redefined, &certs, true, &[]);
        assert_eq!(want.confluence.violations.len(), 1);
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
        assert_eq!(got.to_string(), want.to_string());
        assert_eq!(inc.stats().index_builds, 2);
    }

    /// A certify step and an `order` step on a recompiled rule set reuse the
    /// program index and the termination analysis; an added rule rebuilds
    /// them.
    #[test]
    fn only_a_rule_change_rebuilds_the_index() {
        let cat = catalog(TABLES);
        let mut d = defs(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then insert into t values (1) end;
             create rule c on u when updated(x) then update u set x = 3 end;",
        );
        let mut certs = Certifications::new();
        let mut inc = IncrementalAnalysis::sequential();
        let rs = RuleSet::compile(&d, &cat).unwrap();
        let cold = inc.analyze(&rs, &certs, false, &[]);
        certs.certify_commute("a", "b");
        let certified = inc.analyze(&rs, &certs, false, &[]);
        assert!(Arc::ptr_eq(&cold.termination, &certified.termination));
        d[0].precedes.push("b".to_owned());
        let ordered = inc.analyze(&RuleSet::compile(&d, &cat).unwrap(), &certs, false, &[]);
        assert!(Arc::ptr_eq(&cold.termination, &ordered.termination));
        assert_eq!(inc.stats().index_builds, 1);

        // A termination certificate reruns termination, not the index.
        certs.certify_terminates("c", "bounded");
        let rs = RuleSet::compile(&d, &cat).unwrap();
        let got = inc.analyze(&rs, &certs, false, &[]);
        assert!(!Arc::ptr_eq(&cold.termination, &got.termination));
        assert_eq!(inc.stats().index_builds, 1);
        let want = scratch_report(&cat, &d, &certs, false, &[]);
        assert_eq!(got.to_string(), want.to_string());

        d.extend(defs(
            "create rule e on v when inserted then delete from u end;",
        ));
        let got = inc.analyze(&RuleSet::compile(&d, &cat).unwrap(), &certs, false, &[]);
        assert_eq!(inc.stats().index_builds, 2);
        let want = scratch_report(&cat, &d, &certs, false, &[]);
        assert_eq!(got.to_json().to_string(), want.to_json().to_string());
    }

    /// Rebinding identical inputs is a no-op sweep: zero dirty pairs.
    #[test]
    fn identical_rebind_rechecks_nothing() {
        let cat = catalog(TABLES);
        let d = defs(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
        );
        let rs = RuleSet::compile(&d, &cat).unwrap();
        let mut inc = IncrementalAnalysis::sequential();
        let certs = Certifications::new();
        let first = inc.analyze(&rs, &certs, false, &[]);
        let second = inc.analyze(&rs, &certs, false, &[]);
        assert_eq!(first.to_json().to_string(), second.to_json().to_string());
        assert_eq!(inc.stats().last_rechecked_pairs, 0);
    }
}
