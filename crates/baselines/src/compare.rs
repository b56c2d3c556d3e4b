//! Side-by-side comparison of all criteria on one rule set, and the
//! subsumption checker used by experiment E6.

use starling_analysis::confluence::analyze_confluence;
use starling_analysis::context::AnalysisContext;
use starling_analysis::termination::analyze_termination;

use crate::{hh91, ras90, zh90};

/// Identifies one of the compared criteria.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineId {
    /// Starling's confluence analysis (Confluence Requirement + termination).
    Starling,
    /// The HH91-analog unique-fixed-point criterion.
    Hh91,
    /// The ZH90-analog write-stratification criterion.
    Zh90,
    /// The Ras90-analog full-independence criterion.
    Ras90,
}

/// Accept/reject verdicts of every criterion on one rule set.
#[derive(Clone, Copy, Debug)]
pub struct ComparisonRow {
    /// Starling: Confluence Requirement holds *and* termination guaranteed.
    pub starling: bool,
    /// HH91-analog accepted.
    pub hh91: bool,
    /// ZH90-analog accepted.
    pub zh90: bool,
    /// Ras90-analog accepted.
    pub ras90: bool,
}

impl ComparisonRow {
    /// Checks the subsumption chain on this row: every acceptance implies
    /// acceptance by all less conservative criteria. Returns the first
    /// broken link, if any.
    pub fn subsumption_violation(&self) -> Option<(BaselineId, BaselineId)> {
        if self.ras90 && !self.zh90 {
            return Some((BaselineId::Ras90, BaselineId::Zh90));
        }
        if self.zh90 && !self.hh91 {
            return Some((BaselineId::Zh90, BaselineId::Hh91));
        }
        if self.hh91 && !self.starling {
            return Some((BaselineId::Hh91, BaselineId::Starling));
        }
        None
    }
}

/// Runs all four criteria.
pub fn compare_all(ctx: &AnalysisContext) -> ComparisonRow {
    let ours_confluence = analyze_confluence(ctx).requirement_holds();
    let ours_termination = analyze_termination(ctx).is_guaranteed();
    ComparisonRow {
        starling: ours_confluence && ours_termination,
        hh91: hh91::analyze(ctx).accepted,
        zh90: zh90::analyze(ctx).accepted,
        ras90: ras90::analyze(ctx).accepted,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use starling_engine::RuleSet;
    use starling_sql::ast::Statement;
    use starling_sql::parse_script;
    use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

    use starling_analysis::certifications::Certifications;

    use super::*;

    pub(crate) fn ctx(src: &str) -> AnalysisContext {
        let mut cat = Catalog::new();
        for name in ["t", "u", "v", "w", "w2", "z"] {
            cat.add_table(
                TableSchema::new(name, vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
            )
            .unwrap();
        }
        let defs: Vec<_> = parse_script(src)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect();
        let rs = RuleSet::compile(&defs, &cat).unwrap();
        AnalysisContext::from_ruleset(&rs, Certifications::new())
    }

    /// The headline Section 9 claim, on hand-picked rule sets: every
    /// baseline acceptance is also a Starling acceptance, and there are
    /// rule sets separating each adjacent pair.
    #[test]
    fn subsumption_chain_holds_and_is_proper() {
        let corpus = [
            // Fully independent: accepted by all four.
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into w values (1) end;",
            // Shared written table, commuting: separates HH91 from ZH90.
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into u values (2) end;",
            // Ordered noncommuting pair: separates Starling from HH91.
            "create rule a on t when inserted then update u set x = 1 precedes b end;
             create rule b on t when inserted then update u set x = 2 end;",
            // Unordered noncommuting pair: rejected by all.
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
            // Triggering cycle: rejected by all.
            "create rule p on t when inserted then insert into u values (1) end;
             create rule q on u when inserted then insert into t values (1) end;",
        ];
        let rows: Vec<ComparisonRow> = corpus.iter().map(|s| compare_all(&ctx(s))).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.subsumption_violation(), None, "corpus[{i}]: {row:?}");
        }
        // Proper separations exist.
        assert!(rows.iter().any(|r| r.starling && !r.hh91));
        assert!(rows.iter().any(|r| r.hh91 && !r.zh90));
        assert!(rows.iter().any(|r| r.starling && r.hh91 && r.zh90));
        assert!(rows.iter().any(|r| !r.starling));
    }

    #[test]
    fn p_empty_makes_starling_and_hh91_agree_on_commutativity() {
        // Corollary 6.9: with no priorities, a Starling-confluent rule set
        // has every pair commuting — HH91's pair condition coincides. (The
        // termination premise is shared.)
        let srcs = [
            "create rule a on t when deleted then insert into u values (1) end;
             create rule b on v when deleted then insert into w values (1) end;",
            "create rule a on t when inserted then update u set x = 1 end;
             create rule b on t when inserted then update u set x = 2 end;",
        ];
        for s in srcs {
            let c = ctx(s);
            let row = compare_all(&c);
            assert_eq!(row.starling, row.hh91, "{s}");
        }
    }
}
