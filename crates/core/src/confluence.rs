//! Confluence analysis (paper Section 6).
//!
//! The rules in `R` are confluent when every execution graph has at most
//! one final state. The analysis follows the paper exactly:
//!
//! 1. For every **unordered** pair `(r_i, r_j)` (Observation 6.2: such a
//!    pair very likely has a state with both outgoing edges), build the
//!    mutually recursive sets `R1`, `R2` of Definition 6.5 — starting from
//!    `{r_i}`/`{r_j}` and closing under "rules triggered by a member that
//!    have priority over a member of the *other* set".
//! 2. Every `r_1 ∈ R1` must commute with every `r_2 ∈ R2` (Lemma 6.1,
//!    modulo user certifications).
//!
//! Theorem 6.7: the Confluence Requirement plus guaranteed termination
//! imply confluence. Violations are isolated per generating pair, and each
//! renders its §6.4 remedies (certify commutativity, or order the pair).

use std::collections::HashSet;
use std::sync::Arc;

use starling_sql::RuleSignature;

use crate::commutativity::{commutes_idx, noncommutativity_reasons, NoncommutativityReason};
use crate::context::AnalysisContext;

/// The Definition 6.5 closure for one unordered pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairClosure {
    /// The generating unordered pair (rule indices `(i, j)`).
    pub pair: (usize, usize),
    /// `R1` (contains `i`).
    pub r1: Vec<usize>,
    /// `R2` (contains `j`).
    pub r2: Vec<usize>,
}

impl PairClosure {
    /// Whether `R1` and `R2` hold distinct observable rules, one on each
    /// side: a cell that §8's `Obs` log never lets commute (see
    /// [`crate::observable`]).
    pub fn splits_observables(&self, ctx: &AnalysisContext) -> bool {
        let observable = |r: &&usize| ctx.sigs[**r].observable;
        let mut r1 = self.r1.iter().filter(observable);
        r1.any(|a| self.r2.iter().filter(observable).any(|b| a != b))
    }
}

/// Builds `R1`/`R2` per Definition 6.5 for an unordered pair `(ri, rj)`.
///
/// ```text
/// R1 ← {ri};  R2 ← {rj}
/// repeat until unchanged:
///   R1 ← R1 ∪ {r | r ∈ Triggers(r1) for some r1 ∈ R1
///                  and r > r2 ∈ P for some r2 ∈ R2 and r ≠ rj}
///   R2 ← R2 ∪ {r | r ∈ Triggers(r2) for some r2 ∈ R2
///                  and r > r1 ∈ P for some r1 ∈ R1 and r ≠ ri}
/// ```
pub fn pair_closure(ctx: &AnalysisContext, ri: usize, rj: usize) -> PairClosure {
    // The closure is the least fixed point of two monotone set equations,
    // so iterating candidates from the members' triggering adjacency (a few
    // edges) instead of scanning all n rules per round reaches the same
    // sets — the difference between O(deg) and O(n²) per generating pair,
    // which is what makes the 10k-rule cold sweep feasible. A candidate
    // enters a side only if it has priority over a member of the *other*
    // side, so when the priority order is empty the closure is just the
    // generating pair.
    let mut r1 = vec![ri];
    let mut r2 = vec![rj];
    if ctx.priority.ordered_pair_count() > 0 {
        let adj = std::sync::Arc::clone(ctx.triggers_adjacency());
        loop {
            let mut changed = false;
            let mut grow = |own: &mut Vec<usize>, other: &Vec<usize>, excluded: usize| {
                let mut k = 0;
                while k < own.len() {
                    for &r in &adj[own[k]] {
                        if r != excluded
                            && !own.contains(&r)
                            && ctx.priority.dominates_any(r)
                            && other.iter().any(|&q| ctx.gt(r, q))
                        {
                            own.push(r);
                            changed = true;
                        }
                    }
                    k += 1;
                }
            };
            grow(&mut r1, &r2, rj);
            grow(&mut r2, &r1, ri);
            if !changed {
                break;
            }
        }
    }
    r1.sort_unstable();
    r2.sort_unstable();
    PairClosure {
        pair: (ri, rj),
        r1,
        r2,
    }
}

/// The full Confluence Requirement check for one unordered generating pair:
/// its Def 6.5 closure plus every `R1 × R2` violation, in closure order.
/// Shared verbatim by the from-scratch sweep below and the incremental
/// analyzer's dirty-pair rechecks, so the two cannot produce different
/// violation content for the same pair.
#[doc(hidden)]
pub fn check_pair(
    ctx: &AnalysisContext,
    i: usize,
    j: usize,
) -> (PairClosure, Vec<ConfluenceViolation>) {
    let cl = pair_closure(ctx, i, j);
    let mut violations = Vec::new();
    for &r1 in &cl.r1 {
        for &r2 in &cl.r2 {
            if commutes_idx(ctx, r1, r2) {
                continue;
            }
            violations.push(ConfluenceViolation {
                pair: (ctx.name(i).to_owned(), ctx.name(j).to_owned()),
                conflict: (ctx.name(r1).to_owned(), ctx.name(r2).to_owned()),
                sigs: (Arc::clone(&ctx.sigs[r1]), Arc::clone(&ctx.sigs[r2])),
            });
        }
    }
    (cl, violations)
}

/// One violation of the Confluence Requirement: the rules it isolates,
/// not its reasons, which [`Self::reasons`] derives when a report shows
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfluenceViolation {
    /// The generating unordered pair (names).
    pub pair: (String, String),
    /// The non-commuting rules found in `R1 × R2` (names).
    pub conflict: (String, String),
    /// The conflict's two signatures, shared with the context.
    sigs: (Arc<RuleSignature>, Arc<RuleSignature>),
}

impl ConfluenceViolation {
    /// The Lemma 6.1 conditions that fire for the conflict, as written:
    /// the unrefined conditions, even when the Section 9 refinement
    /// decided the verdict.
    pub fn reasons(&self) -> Vec<NoncommutativityReason> {
        noncommutativity_reasons(&self.sigs.0, &self.sigs.1)
    }

    /// The §6.4 remedies, human-readable: certify the conflict, or order
    /// the generating pair. Approach 3 (removing orderings) is deliberately
    /// omitted — the paper shows it is "non-intuitive and in fact useless".
    pub fn suggestions(&self) -> [String; 2] {
        let (r1, r2) = &self.conflict;
        let (i, j) = &self.pair;
        [
            format!("certify that `{r1}` and `{r2}` actually commute: declare commute {r1}, {r2}"),
            format!(
                "order the generating pair: add `precedes`/`follows` between `{i}` and `{j}` \
                 (note: this may surface new violations elsewhere)"
            ),
        ]
    }
}

/// Verdict of the confluence analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfluenceVerdict {
    /// The Confluence Requirement holds: confluent, **provided termination
    /// is also guaranteed** (Theorem 6.7's second premise).
    RequirementHolds,
    /// The requirement is violated: the rule set may not be confluent.
    MayNotBeConfluent,
}

/// The result of confluence analysis.
#[derive(Clone, Debug)]
pub struct ConfluenceAnalysis {
    /// Verdict.
    pub verdict: ConfluenceVerdict,
    /// All violations found (empty iff the requirement holds).
    pub violations: Vec<ConfluenceViolation>,
    /// Number of unordered pairs examined.
    pub pairs_checked: usize,
    /// The generating pairs whose closure splits observable rules, in no
    /// particular order.
    pub(crate) observable_splits: Vec<(String, String)>,
}

impl ConfluenceAnalysis {
    pub(crate) fn of_sweep(
        violations: Vec<ConfluenceViolation>,
        observable_splits: Vec<(String, String)>,
        pairs_checked: usize,
    ) -> Self {
        ConfluenceAnalysis {
            verdict: if violations.is_empty() {
                ConfluenceVerdict::RequirementHolds
            } else {
                ConfluenceVerdict::MayNotBeConfluent
            },
            violations,
            pairs_checked,
            observable_splits,
        }
    }

    /// Whether the Confluence Requirement holds.
    pub fn requirement_holds(&self) -> bool {
        self.verdict == ConfluenceVerdict::RequirementHolds
    }

    /// The requirement over `subset` alone: the findings whose generating
    /// pair lies in `subset²`. A Def 6.5 closure is built over the whole
    /// context, so sweeping the subset's own candidates finds the same.
    pub(crate) fn within(&self, ctx: &AnalysisContext, subset: &[usize]) -> ConfluenceAnalysis {
        let names: HashSet<&str> = subset.iter().map(|&i| ctx.name(i)).collect();
        let inside = |(a, b): &(String, String)| names.contains(&**a) && names.contains(&**b);
        let violations = self.violations.iter().filter(|v| inside(&v.pair));
        let splits = self.observable_splits.iter().filter(|&pair| inside(pair));
        Self::of_sweep(
            violations.cloned().collect(),
            splits.cloned().collect(),
            ctx.unordered_pair_count(subset),
        )
    }
}

/// Runs confluence analysis over the whole rule set (Section 6.3).
/// Generating pairs are visited in rule-index order; only the conflict
/// index's candidates are visited at all, the rest of the `pairs_checked`
/// pairs being clean by construction.
pub fn analyze_confluence(ctx: &AnalysisContext) -> ConfluenceAnalysis {
    let pairs = ctx.sweep_pairs();
    let pairs_checked = ctx.unordered_pair_count(&(0..ctx.len()).collect::<Vec<_>>());
    debug_assert!(!ctx.dense_sweep || pairs.len() == pairs_checked);
    let (mut violations, mut splits) = (Vec::new(), Vec::new());
    for (i, j) in pairs {
        let (cl, mut found) = check_pair(ctx, i, j);
        if cl.splits_observables(ctx) {
            splits.push((ctx.name(i).to_owned(), ctx.name(j).to_owned()));
        }
        violations.append(&mut found);
    }
    ConfluenceAnalysis::of_sweep(violations, splits, pairs_checked)
}

/// Corollary 6.8/6.10 checks: structural facts that *must* hold of any
/// rule set the analysis finds confluent **without certifications**.
/// Returns human-readable failures. The oracle of E10, which builds its
/// contexts uncertified: a `declare commute` overrides Lemma 6.1 on
/// purpose, so a certified pair that triggers (6.10) is no failure of the
/// analysis, and no report runs these checks.
pub fn corollary_checks(ctx: &AnalysisContext, analysis: &ConfluenceAnalysis) -> Vec<String> {
    let mut out = Vec::new();
    if !analysis.requirement_holds() {
        return out;
    }
    for (i, j) in ctx.sweep_pairs() {
        let (a, b) = (ctx.name(i), ctx.name(j));
        // Corollary 6.8: unordered pairs commute.
        if !commutes_idx(ctx, i, j) {
            out.push(format!(
                "corollary 6.8 violated: unordered `{a}`/`{b}` do not commute"
            ));
        }
        // Corollary 6.10: triggering pairs are ordered.
        if ctx.can_trigger(i, j) || ctx.can_trigger(j, i) {
            out.push(format!(
                "corollary 6.10 violated: `{a}` may trigger `{b}` but they are unordered"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] =
        &[("t", &["x"]), ("u", &["x"]), ("v", &["x"]), ("w", &["x"])];

    #[test]
    fn disjoint_rules_confluent() {
        let a = analyze_confluence(&ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on t when deleted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        ));
        assert!(a.requirement_holds());
        assert_eq!(a.pairs_checked, 1);
    }

    #[test]
    fn conflicting_unordered_pair_flagged() {
        let a = analyze_confluence(&ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
            TABLES,
            Certifications::new(),
        ));
        assert_eq!(a.verdict, ConfluenceVerdict::MayNotBeConfluent);
        assert_eq!(a.violations.len(), 1);
        let v = &a.violations[0];
        assert_eq!(v.pair, ("a".to_owned(), "b".to_owned()));
        assert_eq!(v.conflict, ("a".to_owned(), "b".to_owned()));
        assert_eq!(
            v.suggestions(),
            [
                "certify that `a` and `b` actually commute: declare commute a, b",
                "order the generating pair: add `precedes`/`follows` between `a` and `b` \
                 (note: this may surface new violations elsewhere)"
            ]
        );
    }

    #[test]
    fn ordering_the_pair_restores_confluence() {
        let a = analyze_confluence(&ctx_from(
            "create rule a on t when inserted then update u set x = 1 precedes b end;
             create rule b on t when inserted then update u set x = 2 end;",
            TABLES,
            Certifications::new(),
        ));
        assert!(a.requirement_holds());
        assert_eq!(a.pairs_checked, 0);
    }

    #[test]
    fn certification_restores_confluence() {
        let mut certs = Certifications::new();
        certs.certify_commute("a", "b");
        let a = analyze_confluence(&ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
            TABLES,
            certs,
        ));
        assert!(a.requirement_holds());
    }

    #[test]
    fn closure_pulls_in_prioritized_triggered_rules() {
        // ri triggers h (via insert into u), and h > rj. Then h ∈ R1, and
        // h vs rj must commute — they don't (both update v.x).
        let a = analyze_confluence(&ctx_from(
            "create rule ri on t when inserted then insert into u values (1) end;
             create rule rj on t when inserted then update v set x = 2 end;
             create rule h on u when inserted then update v set x = 1 precedes rj end;",
            TABLES,
            Certifications::new(),
        ));
        assert_eq!(a.verdict, ConfluenceVerdict::MayNotBeConfluent);
        // The conflict must be (h, rj) — generated by the (ri, rj) pair.
        assert!(
            a.violations
                .iter()
                .any(|v| v.conflict == ("h".to_owned(), "rj".to_owned())
                    && v.pair == ("ri".to_owned(), "rj".to_owned())),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn closure_ignores_unprioritized_triggered_rules() {
        // Same as above but h has no priority over rj: h does not enter R1
        // (Definition 6.5 requires r > r2 ∈ P), so no violation from (ri, rj)
        // via h... but (rj, h) is itself an unordered pair and h/rj still
        // conflict directly through their own pair.
        let c = ctx_from(
            "create rule ri on t when inserted then insert into u values (1) end;
             create rule rj on t when inserted then update v set x = 2 end;
             create rule h on u when inserted then update v set x = 1 end;",
            TABLES,
            Certifications::new(),
        );
        let cl = pair_closure(&c, 0, 1);
        assert_eq!(cl.r1, vec![0]);
        assert_eq!(cl.r2, vec![1]);
        // Direct pair (rj, h) still catches the conflict.
        let a = analyze_confluence(&c);
        assert!(a
            .violations
            .iter()
            .all(|v| v.pair != ("ri".to_owned(), "rj".to_owned())));
        assert!(a
            .violations
            .iter()
            .any(|v| v.pair == ("rj".to_owned(), "h".to_owned())));
    }

    #[test]
    fn self_pair_never_checked() {
        // A self-triggering rule must not generate a (r, r) violation.
        let a = analyze_confluence(&ctx_from(
            "create rule grow on t when inserted then insert into t values (1) end",
            TABLES,
            Certifications::new(),
        ));
        assert!(a.requirement_holds());
        assert_eq!(a.pairs_checked, 0);
    }

    #[test]
    fn corollaries_hold_on_confluent_sets() {
        let c = ctx_from(
            "create rule a on t when inserted then insert into u values (1) precedes b end;
             create rule b on u when inserted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        );
        let a = analyze_confluence(&c);
        assert!(a.requirement_holds());
        assert!(corollary_checks(&c, &a).is_empty());
    }

    /// A `declare commute` overrides Lemma 6.1 on purpose: the certified
    /// triggering pair satisfies the requirement and still fails
    /// Corollary 6.10, which is why the corollaries are an oracle over
    /// uncertified programs and no report runs them.
    #[test]
    fn a_certified_triggering_pair_fails_corollary_6_10() {
        let mut certs = Certifications::new();
        certs.certify_commute("a", "b");
        let c = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then insert into v values (1) end;",
            TABLES,
            certs,
        );
        let a = analyze_confluence(&c);
        assert!(a.requirement_holds());
        assert_eq!(
            corollary_checks(&c, &a),
            ["corollary 6.10 violated: `a` may trigger `b` but they are unordered"]
        );
    }

    #[test]
    fn corollary_610_triggering_pairs_must_be_ordered() {
        // a triggers b, unordered: the Confluence Requirement itself must
        // flag this (condition 1 makes them noncommutative).
        let c = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        );
        let a = analyze_confluence(&c);
        assert_eq!(a.verdict, ConfluenceVerdict::MayNotBeConfluent);
    }

    #[test]
    fn totally_ordered_set_trivially_confluent() {
        let a = analyze_confluence(&ctx_from(
            "create rule a on t when inserted then update u set x = 1 precedes b, c end;
             create rule b on t when inserted then update u set x = 2 precedes c end;
             create rule c on t when inserted then update u set x = 3 end;",
            TABLES,
            Certifications::new(),
        ));
        assert!(a.requirement_holds());
        assert_eq!(a.pairs_checked, 0);
    }
}
