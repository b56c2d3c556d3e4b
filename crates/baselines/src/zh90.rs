//! ZH90-analog: write-stratified rule triggering systems.
//!
//! \[ZH90\] (Zhou & Hsu, *A theory for rule triggering systems*) develops a
//! stratification theory under which rule processing is well-behaved.
//! Reconstructed criterion: the HH91-analog conditions plus strict
//! **write-stratification** — no two distinct rules may modify a common
//! table at all, even commutatively (e.g. two pure inserters into the same
//! table, which Lemma 6.1 happily accepts, are rejected here).

use starling_analysis::context::AnalysisContext;

use crate::hh91;

/// The ZH90-analog verdict.
#[derive(Clone, Debug)]
pub struct Zh90Verdict {
    /// Whether the criterion accepts the rule set.
    pub accepted: bool,
    /// The underlying HH91-analog verdict.
    pub hh91: hh91::Hh91Verdict,
    /// Pairs of rules sharing a written table (empty when stratified).
    pub shared_writes: Vec<(String, String, String)>,
}

/// Runs the ZH90-analog criterion.
pub fn analyze(ctx: &AnalysisContext) -> Zh90Verdict {
    let base = hh91::analyze(ctx);
    let mut shared_writes = Vec::new();
    let n = ctx.len();
    for i in 0..n {
        for j in (i + 1)..n {
            for op in &ctx.sigs[i].performs {
                if ctx.sigs[j].performs.iter().any(|p| p.table() == op.table()) {
                    shared_writes.push((
                        ctx.name(i).to_owned(),
                        ctx.name(j).to_owned(),
                        op.table().to_owned(),
                    ));
                    break;
                }
            }
        }
    }
    Zh90Verdict {
        accepted: base.accepted && shared_writes.is_empty(),
        hh91: base,
        shared_writes,
    }
}

#[cfg(test)]
mod tests {
    use crate::compare::tests::ctx;

    use super::*;

    #[test]
    fn rejects_commuting_co_inserters() {
        // Two inserters into the same table commute (HH91-analog accepts)
        // but share a written table (ZH90-analog rejects).
        let c = ctx(
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into u values (2) end;",
        );
        assert!(crate::hh91::analyze(&c).accepted);
        let v = analyze(&c);
        assert!(!v.accepted);
        assert_eq!(v.shared_writes.len(), 1);
        assert_eq!(v.shared_writes[0].2, "u");
    }

    #[test]
    fn accepts_table_disjoint_writers() {
        let c = ctx(
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into w values (1) end;",
        );
        assert!(analyze(&c).accepted);
    }

    #[test]
    fn inherits_hh91_rejections() {
        let c = ctx(
            "create rule p on t when inserted then insert into u values (1) end;
             create rule q on u when inserted then insert into t values (1) end;",
        );
        assert!(!analyze(&c).accepted);
    }
}
