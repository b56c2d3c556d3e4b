//! Ras90-analog: fully stratified production systems.
//!
//! \[Ras90\] (Raschid, *Maintaining consistency in a stratified production
//! system*) imposes the strongest discipline of the three comparators.
//! Reconstructed criterion: the ZH90-analog conditions plus **trigger-table
//! isolation** — no rule (including a rule itself) may write a table that
//! appears in any rule's transition predicate. Rule firing can then never
//! influence rule triggering in any way: the system is trivially stratified
//! into "user operations trigger everything once".
//!
//! (An earlier candidate — forbidding read/write dependencies — turns out
//! to be vacuous relative to the chain: any read/write dependency already
//! fires Lemma 6.1 condition 3 and is rejected by the HH91-analog. The
//! trigger-table condition is genuinely stronger: a rule may *write* a
//! table another rule is triggered by without tripping any Lemma 6.1
//! condition, e.g. an `UPDATE` against an insert-triggered table.)

use starling_analysis::context::AnalysisContext;

use crate::zh90;

/// The Ras90-analog verdict.
#[derive(Clone, Debug)]
pub struct Ras90Verdict {
    /// Whether the criterion accepts the rule set.
    pub accepted: bool,
    /// The underlying ZH90-analog verdict.
    pub zh90: zh90::Zh90Verdict,
    /// `(writer, triggered_rule, table)` violations of trigger-table
    /// isolation (empty when accepted).
    pub trigger_writes: Vec<(String, String, String)>,
}

/// Runs the Ras90-analog criterion.
pub fn analyze(ctx: &AnalysisContext) -> Ras90Verdict {
    let base = zh90::analyze(ctx);
    let mut trigger_writes = Vec::new();
    let n = ctx.len();
    for writer in 0..n {
        for triggered in 0..n {
            for op in &ctx.sigs[writer].performs {
                if ctx.sigs[triggered]
                    .triggered_by
                    .iter()
                    .any(|tb| tb.table() == op.table())
                {
                    trigger_writes.push((
                        ctx.name(writer).to_owned(),
                        ctx.name(triggered).to_owned(),
                        op.table().to_owned(),
                    ));
                    break;
                }
            }
        }
    }
    Ras90Verdict {
        accepted: base.accepted && trigger_writes.is_empty(),
        zh90: base,
        trigger_writes,
    }
}

#[cfg(test)]
mod tests {
    use crate::compare::tests::ctx;

    use super::*;

    #[test]
    fn rejects_write_to_trigger_table_even_when_commuting() {
        // a updates u.x; b is triggered by inserts into u. No Lemma 6.1
        // condition fires (update is not an insert, b reads nothing), no
        // shared writes — HH91- and ZH90-analogs accept; Ras90-analog
        // rejects.
        let c = ctx(
            "create rule a on t when deleted then update u set x = 1 end;
             create rule b on u when inserted then update v set x = 1 end;",
        );
        assert!(crate::hh91::analyze(&c).accepted);
        assert!(crate::zh90::analyze(&c).accepted);
        let v = analyze(&c);
        assert!(!v.accepted);
        assert!(v
            .trigger_writes
            .iter()
            .any(|(w, t, table)| w == "a" && t == "b" && table == "u"));
    }

    #[test]
    fn rejects_self_write_of_trigger_table() {
        // A single rule updating its own (insert-)trigger table: no pair
        // exists, so the pairwise criteria accept; Ras90-analog rejects.
        let c = ctx("create rule a on t when inserted then update t set x = 1 end;");
        assert!(crate::zh90::analyze(&c).accepted);
        assert!(!analyze(&c).accepted);
    }

    #[test]
    fn accepts_fully_isolated() {
        let c = ctx(
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into w values (1) end;",
        );
        assert!(analyze(&c).accepted);
    }

    #[test]
    fn structural_inclusion_in_zh90() {
        let srcs = [
            "create rule a on t when deleted then insert into u values (1) end;",
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into w values (1) end;",
            "create rule a on t when inserted then update t set x = 1 end;",
        ];
        for s in srcs {
            let c = ctx(s);
            let v = analyze(&c);
            if v.accepted {
                assert!(crate::zh90::analyze(&c).accepted);
            }
        }
    }
}
