//! Rule commutativity analysis (paper Section 6.1, Lemma 6.1).
//!
//! Two rules `r_i`, `r_j` commute when considering them in either order from
//! any execution-graph state produces the same state (Figure 1). Lemma 6.1
//! gives six syntactic conditions under which they *may not* commute; if
//! none holds, the rules are guaranteed to commute. The conditions are
//! deliberately conservative (e.g., inserts "affecting" deletes of the same
//! table even when the delete predicate can never select the inserted
//! tuples) — the user may override per pair via
//! [`crate::Certifications::certify_commute`].

use std::fmt;
use std::ops::ControlFlow;

use starling_sql::RuleSignature;
use starling_storage::{ColRef, Op};

use crate::certifications::Certifications;
use crate::context::AnalysisContext;

/// One reason a pair of rules may not commute (a condition of Lemma 6.1
/// that fired). `who`/`whom` are rule names; each condition is reported in
/// the direction it fired (condition 6 is covered by testing both
/// directions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NoncommutativityReason {
    /// Condition 1: `who` can cause `whom` to become triggered.
    Triggers {
        /// The triggering rule.
        who: String,
        /// The rule that may become triggered.
        whom: String,
    },
    /// Condition 2: `who`'s deletions can untrigger `whom`.
    Untriggers {
        /// The untriggering rule.
        who: String,
        /// The rule that may be untriggered.
        whom: String,
    },
    /// Condition 2′ (Starling extension, not in the paper): `who`'s
    /// insertions into `table` can sit in `whom`'s pending transition
    /// window and annihilate a later delete (net-effect rule 4), masking a
    /// triggering deletion of `whom`. See `tests/masking_finding.rs` for a
    /// concrete counterexample to Lemma 6.1 without this condition.
    InsertMasksDelete {
        /// The inserting rule.
        who: String,
        /// The shared table.
        table: String,
        /// The delete-triggered rule whose re-triggering can be masked.
        whom: String,
    },
    /// Condition 3: `who`'s operation can affect what `whom` reads.
    WriteRead {
        /// The writing rule.
        who: String,
        /// The written operation, e.g. `(U, emp.salary)`.
        op: String,
        /// The reading rule.
        whom: String,
    },
    /// Condition 4: `who`'s insertions into `table` can affect what `whom`
    /// updates or deletes there.
    InsertWrite {
        /// The inserting rule.
        who: String,
        /// The shared table.
        table: String,
        /// The updating/deleting rule.
        whom: String,
    },
    /// Condition 5: both rules update the same column.
    UpdateUpdate {
        /// One updating rule.
        who: String,
        /// The shared column, e.g. `emp.salary`.
        column: String,
        /// The other updating rule.
        whom: String,
    },
}

impl fmt::Display for NoncommutativityReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoncommutativityReason::Triggers { who, whom } => {
                write!(f, "`{who}` can trigger `{whom}` (Lemma 6.1, condition 1)")
            }
            NoncommutativityReason::Untriggers { who, whom } => {
                write!(f, "`{who}` can untrigger `{whom}` (condition 2)")
            }
            NoncommutativityReason::InsertMasksDelete { who, table, whom } => write!(
                f,
                "`{who}` inserts into `{table}`, which can mask a deletion that would \
                 re-trigger `{whom}` (condition 2\u{2032}, Starling extension)"
            ),
            NoncommutativityReason::WriteRead { who, op, whom } => {
                write!(
                    f,
                    "`{who}` performs {op}, which `{whom}` reads (condition 3)"
                )
            }
            NoncommutativityReason::InsertWrite { who, table, whom } => write!(
                f,
                "`{who}` inserts into `{table}`, which `{whom}` updates or deletes (condition 4)"
            ),
            NoncommutativityReason::UpdateUpdate { who, column, whom } => write!(
                f,
                "`{who}` and `{whom}` both update `{column}` (condition 5)"
            ),
        }
    }
}

/// One fired condition of Lemma 6.1 for a direction `a`-affects-`b`, still
/// borrowing from the signatures: the boolean verdict and the Section 9
/// refinement never pay for the names and rendered operations a
/// [`NoncommutativityReason`] owns.
pub(crate) enum Fired<'a> {
    Triggers,
    Untriggers,
    InsertMasksDelete(&'a str),
    WriteRead(&'a Op),
    InsertWrite(&'a str),
    UpdateUpdate(&'a ColRef),
}

/// Lemma 6.1 for the (ordered) direction `a`-affects-`b`: hands every
/// condition that fires to `fired`, in the order they are reported, until
/// it breaks. This is the one body of the lemma, with three consumers —
/// [`may_not_commute`] breaks at the first condition, the refinement
/// ([`crate::refine`]) at the first it cannot discharge, and
/// [`noncommutativity_reasons`] collects them all for a report — so the
/// verdict and its explanation cannot drift.
pub(crate) fn directed_conditions<'a>(
    a: &'a RuleSignature,
    b: &'a RuleSignature,
    with_masking: bool,
    fired: &mut impl FnMut(Fired<'a>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // Condition 1: a's Performs intersects b's Triggered-By.
    if a.can_trigger(b) {
        fired(Fired::Triggers)?;
    }
    // Condition 2: b ∈ Can-Untrigger(Performs(a)).
    if a.performs.iter().any(|op| b.untriggered_by(op)) {
        fired(Fired::Untriggers)?;
    }
    // Condition 2′: a's inserts can mask b's triggering deletes.
    if with_masking {
        for op in &a.performs {
            let Op::Insert(t) = op else { continue };
            let masks = b
                .triggered_by
                .iter()
                .any(|tb| matches!(tb, Op::Delete(t2) if t2 == t));
            if masks {
                fired(Fired::InsertMasksDelete(t))?;
            }
        }
    }
    // Condition 3: a writes something b reads.
    for op in &a.performs {
        let hit = match op {
            Op::Insert(t) | Op::Delete(t) => b.reads.iter().any(|c| &c.table == t),
            Op::Update(c) => b.reads.contains(c),
        };
        if hit {
            fired(Fired::WriteRead(op))?;
        }
    }
    // Condition 4: a inserts into t; b updates or deletes t.
    for op in &a.performs {
        let Op::Insert(t) = op else { continue };
        let hit = b.performs.iter().any(|p| match p {
            Op::Delete(t2) => t2 == t,
            Op::Update(c) => &c.table == t,
            Op::Insert(_) => false,
        });
        if hit {
            fired(Fired::InsertWrite(t))?;
        }
    }
    // Condition 5: both update the same column (report once, from a's
    // perspective; the reversed direction would duplicate it).
    for op in &a.performs {
        let Op::Update(c) = op else { continue };
        if b.performs.contains(op) && a.name <= b.name {
            fired(Fired::UpdateUpdate(c))?;
        }
    }
    ControlFlow::Continue(())
}

/// Whether some Lemma 6.1 condition fires for the pair, i.e.
/// `!noncommutativity_reasons(a, b).is_empty()` without building the
/// reasons: it stops at the first condition and allocates nothing.
pub fn may_not_commute(a: &RuleSignature, b: &RuleSignature) -> bool {
    may_not_commute_with(a, b, true)
}

/// [`may_not_commute`] for the conditions exactly as published (no 2′):
/// `!noncommutativity_reasons_lemma61(a, b).is_empty()`.
pub fn may_not_commute_lemma61(a: &RuleSignature, b: &RuleSignature) -> bool {
    may_not_commute_with(a, b, false)
}

fn may_not_commute_with(a: &RuleSignature, b: &RuleSignature, with_masking: bool) -> bool {
    let mut first = |_| ControlFlow::Break(());
    a.name != b.name
        && (directed_conditions(a, b, with_masking, &mut first).is_break()
            || directed_conditions(b, a, with_masking, &mut first).is_break())
}

/// All reasons the pair may not commute (conditions 1–5 in both directions;
/// condition 6 of the lemma is exactly the reversal). Empty means the rules
/// are guaranteed to commute.
///
/// A rule trivially commutes with itself ("each rule clearly commutes with
/// itself"): the result is empty for identical names.
pub fn noncommutativity_reasons(
    a: &RuleSignature,
    b: &RuleSignature,
) -> Vec<NoncommutativityReason> {
    reasons_with(a, b, true)
}

/// The conditions exactly as published in Lemma 6.1, *without* condition
/// 2′. Unsound for the strict Section 2 operational semantics (see
/// `tests/masking_finding.rs`) but faithful to the paper — used by the
/// fidelity experiments.
pub fn noncommutativity_reasons_lemma61(
    a: &RuleSignature,
    b: &RuleSignature,
) -> Vec<NoncommutativityReason> {
    reasons_with(a, b, false)
}

fn reasons_with(
    a: &RuleSignature,
    b: &RuleSignature,
    with_masking: bool,
) -> Vec<NoncommutativityReason> {
    let mut out = Vec::new();
    if a.name == b.name {
        return out;
    }
    for (a, b) in [(a, b), (b, a)] {
        let _ = directed_conditions(a, b, with_masking, &mut |fired| {
            let (who, whom) = (a.name.clone(), b.name.clone());
            out.push(match fired {
                Fired::Triggers => NoncommutativityReason::Triggers { who, whom },
                Fired::Untriggers => NoncommutativityReason::Untriggers { who, whom },
                Fired::InsertMasksDelete(t) => NoncommutativityReason::InsertMasksDelete {
                    who,
                    table: t.to_owned(),
                    whom,
                },
                Fired::WriteRead(op) => NoncommutativityReason::WriteRead {
                    who,
                    op: op.to_string(),
                    whom,
                },
                Fired::InsertWrite(t) => NoncommutativityReason::InsertWrite {
                    who,
                    table: t.to_owned(),
                    whom,
                },
                Fired::UpdateUpdate(c) => NoncommutativityReason::UpdateUpdate {
                    who,
                    column: c.to_string(),
                    whom,
                },
            });
            ControlFlow::Continue(())
        });
    }
    out
}

/// Whether the pair commutes, honoring user certifications.
pub fn commutes(a: &RuleSignature, b: &RuleSignature, certs: &Certifications) -> bool {
    a.name == b.name || certs.commute_certified(&a.name, &b.name) || !may_not_commute(a, b)
}

/// Index-based variant over a context; honors certifications and, when
/// [`AnalysisContext::refine`] is set, the Section 9 predicate-level
/// refinement.
///
/// Pair verdicts are memoized in the context's bound [`crate::pair_store::
/// PairStore`] (the confluence sweep asks about the same pair once per
/// generating-pair closure containing it, the `Sig` closures once per
/// significant-rule set): each Lemma
/// 6.1 derivation runs at most once per store binding, and — unlike the old
/// per-context cache — survives into the next analysis when the bind-time
/// diff proves the pair unaffected. The store keeps verdicts only: a
/// violation derives its reasons from the two signatures when a report
/// shows them ([`crate::ConfluenceViolation::reasons`]).
pub fn commutes_idx(ctx: &AnalysisContext, i: usize, j: usize) -> bool {
    if i == j {
        return true;
    }
    let (a, b) = (ctx.sid(i), ctx.sid(j));
    if let Some(hit) = ctx.pair_store().verdict(a, b) {
        return hit;
    }
    let result = commutes_idx_uncached(ctx, i, j);
    ctx.pair_store().set_verdict(a, b, result);
    result
}

/// The pure per-pair verdict, bypassing the store. Exposed crate-wide so
/// the parallel cold sweep can compute verdicts without lock traffic.
pub(crate) fn commutes_idx_uncached(ctx: &AnalysisContext, i: usize, j: usize) -> bool {
    if commutes(&ctx.sigs[i], &ctx.sigs[j], &ctx.certs) {
        return true;
    }
    if ctx.refine {
        return crate::refine::discharges_all(ctx, i, j);
    }
    false
}

/// Computes the missing verdicts of `pairs` (rule-index pairs: a sweep's
/// candidates) with scoped worker threads — the parallel cold-start sweep.
/// Downstream reports are byte-identical to the sequential path because
/// each verdict is a pure
/// function of the pair (certifications and the refinement included): the
/// sweep only changes *when* verdicts are computed, never *what* they are.
/// Workers probe a point-in-time snapshot of the known-bits (zero lock
/// traffic on the hot path) and flush disjoint batches; bit positions are
/// per-pair, so merge order cannot affect the final store state.
pub fn prewarm_pairs(ctx: &AnalysisContext, pairs: &[(usize, usize)]) {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(pairs.len());
    if workers <= 1 {
        for &(i, j) in pairs {
            commutes_idx(ctx, i, j);
        }
        return;
    }
    let known = ctx.pair_store().known_snapshot();
    std::thread::scope(|s| {
        for chunk in pairs.chunks(pairs.len().div_ceil(workers)) {
            let known = &known;
            s.spawn(move || {
                let mut buf: Vec<(u32, u32, bool)> = Vec::new();
                for &(i, j) in chunk {
                    let (a, b) = (ctx.sid(i), ctx.sid(j));
                    if !known.contains(a, b) {
                        buf.push((a, b, commutes_idx_uncached(ctx, i, j)));
                        if buf.len() >= 1 << 16 {
                            ctx.pair_store().merge_verdicts(&buf);
                            buf.clear();
                        }
                    }
                }
                ctx.pair_store().merge_verdicts(&buf);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x", "y"]), ("u", &["x"]), ("v", &["x"])];

    #[test]
    fn disjoint_rules_commute() {
        let s = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on t when deleted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        assert!(noncommutativity_reasons(&s[0], &s[1]).is_empty());
        assert!(commutes(&s[0], &s[1], &Certifications::new()));
    }

    #[test]
    fn condition1_triggering() {
        let s = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs.iter().any(
            |r| matches!(r, NoncommutativityReason::Triggers { who, whom }
                if who == "a" && whom == "b")
        ));
    }

    #[test]
    fn condition2_untriggering() {
        // a deletes from u; b is triggered by inserts into u.
        let s = ctx_from(
            "create rule a on t when inserted then delete from u end;
             create rule b on u when inserted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs.iter().any(
            |r| matches!(r, NoncommutativityReason::Untriggers { who, whom }
                if who == "a" && whom == "b")
        ));
    }

    #[test]
    fn condition3_write_read() {
        let s = ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when deleted \
               if exists (select * from u where x > 0) \
               then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs.iter().any(
            |r| matches!(r, NoncommutativityReason::WriteRead { who, whom, .. }
                if who == "a" && whom == "b")
        ));
    }

    #[test]
    fn condition4_insert_vs_write_without_read() {
        // b deletes from u without reading it (paper footnote 3: possible
        // in SQL) — condition 4 is what catches this, not condition 3.
        let s = ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on t when deleted then delete from u end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs.iter().any(
            |r| matches!(r, NoncommutativityReason::InsertWrite { who, table, whom }
                if who == "a" && table == "u" && whom == "b")
        ));
    }

    #[test]
    fn condition5_update_update() {
        let s = ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when deleted then update u set x = 2 end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        let count = rs
            .iter()
            .filter(|r| matches!(r, NoncommutativityReason::UpdateUpdate { .. }))
            .count();
        assert_eq!(count, 1, "condition 5 reported exactly once: {rs:?}");
    }

    #[test]
    fn condition6_reversal() {
        // The asymmetric case: only b affects a; reversal must catch it.
        let s = ctx_from(
            "create rule a on u when inserted then insert into v values (1) end;
             create rule b on t when inserted then insert into u values (1) end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs.iter().any(
            |r| matches!(r, NoncommutativityReason::Triggers { who, whom }
                if who == "b" && whom == "a")
        ));
    }

    #[test]
    fn self_commutes() {
        let s = ctx_from(
            "create rule a on t when inserted then update t set x = x + 1 end",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        assert!(noncommutativity_reasons(&s[0], &s[0]).is_empty());
        assert!(commutes(&s[0], &s[0], &Certifications::new()));
    }

    #[test]
    fn certification_overrides() {
        let s = ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when deleted then update u set x = 2 end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let mut certs = Certifications::new();
        assert!(!commutes(&s[0], &s[1], &certs));
        certs.certify_commute("a", "b");
        assert!(commutes(&s[0], &s[1], &certs));
    }

    #[test]
    fn reads_via_own_action_where_clause() {
        // a updates t.y; b deletes from t where y > 0 (reads t.y).
        let s = ctx_from(
            "create rule a on u when inserted then update t set y = 1 end;
             create rule b on u when deleted then delete from t where y > 0 end;",
            TABLES,
            Certifications::new(),
        )
        .sigs;
        let rs = noncommutativity_reasons(&s[0], &s[1]);
        assert!(rs
            .iter()
            .any(|r| matches!(r, NoncommutativityReason::WriteRead { .. })));
    }

    /// The memoized index-level verdicts agree with the signature-level
    /// ground truth on every pair, on first and repeated queries.
    #[test]
    fn memoized_pair_results_match_ground_truth() {
        let ctx = ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when deleted then update u set x = 2 end;
             create rule c on t when inserted then insert into v values (1) end;",
            TABLES,
            Certifications::new(),
        );
        for _round in 0..2 {
            for i in 0..ctx.len() {
                for j in 0..ctx.len() {
                    assert_eq!(
                        commutes_idx(&ctx, i, j),
                        commutes(&ctx.sigs[i], &ctx.sigs[j], &ctx.certs),
                        "pair ({i}, {j})"
                    );
                }
            }
        }
    }

    /// The parallel sweep stores exactly the sequential verdicts, and a
    /// post-sweep query is answered from the store.
    #[test]
    fn prewarm_matches_sequential_verdicts() {
        let ctx = ctx_from(
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when deleted then update u set x = 2 end;
             create rule c on t when inserted then insert into v values (1) end;
             create rule d on u when inserted then delete from v end;",
            TABLES,
            Certifications::new(),
        );
        prewarm_pairs(&ctx, &ctx.dense_pairs(&[0, 1, 2, 3]));
        let warm = ctx.pair_store().stats();
        for i in 0..ctx.len() {
            for j in 0..ctx.len() {
                assert_eq!(
                    commutes_idx(&ctx, i, j),
                    commutes(&ctx.sigs[i], &ctx.sigs[j], &ctx.certs),
                    "pair ({i}, {j})"
                );
            }
        }
        let after = ctx.pair_store().stats();
        assert_eq!(after.misses, warm.misses, "queries after prewarm all hit");
    }

    #[test]
    fn display_reasons() {
        let r = NoncommutativityReason::UpdateUpdate {
            who: "a".into(),
            column: "u.x".into(),
            whom: "b".into(),
        };
        assert!(r.to_string().contains("condition 5"));
    }
}
