//! A curated corpus of small rule sets with known ground truth, shared by
//! integration tests, experiments, and benchmarks.

use starling_engine::{RuleProgram, RuleSet};
use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

/// Expected verdicts for a corpus entry (static-analysis ground truth,
/// established by hand and cross-checked by the oracle where applicable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expectations {
    /// Termination guaranteed (without user certificates)?
    pub terminates: bool,
    /// Confluence Requirement holds?
    pub confluence_requirement: bool,
    /// Observable determinism guaranteed?
    pub observable: bool,
}

/// One corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Name used in reports.
    pub name: &'static str,
    /// The rule script (tables `t`, `u`, `v`, `w` with column `x` exist).
    pub rules: &'static str,
    /// Expected analysis verdicts.
    pub expect: Expectations,
}

impl CorpusEntry {
    /// The standard corpus catalog: tables `t`, `u`, `v`, `w`, each with a
    /// single integer column `x`.
    pub fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["t", "u", "v", "w"] {
            cat.add_table(
                TableSchema::new(name, vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
            )
            .unwrap();
        }
        cat
    }

    /// Parses and compiles the entry.
    pub fn compile(&self) -> RuleSet {
        let cat = Self::catalog();
        let defs = RuleProgram::parse(self.rules)
            .expect("corpus entry parses")
            .defs;
        RuleSet::compile(&defs, &cat).expect("corpus entry compiles")
    }
}

/// The corpus.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "independent",
            rules: "create rule a on t when inserted then insert into u values (1) end;
                    create rule b on v when inserted then insert into w values (1) end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "cascade_ordered",
            rules: "create rule a on t when inserted then insert into u values (1) precedes b end;
                    create rule b on u when inserted then insert into v values (1) end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "cascade_unordered",
            rules: "create rule a on t when inserted then insert into u values (1) end;
                    create rule b on u when inserted then insert into v values (1) end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: false,
                observable: true,
            },
        },
        CorpusEntry {
            name: "ping_pong",
            rules: "create rule p on t when inserted then insert into u values (1) end;
                    create rule q on u when inserted then insert into t values (1) end;",
            expect: Expectations {
                terminates: false,
                confluence_requirement: false,
                observable: true,
            },
        },
        CorpusEntry {
            name: "self_loop",
            rules: "create rule s on t when inserted then insert into t values (1) end;",
            expect: Expectations {
                terminates: false,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "unordered_writers",
            rules: "create rule a on t when inserted then update u set x = 1 end;
                    create rule b on t when inserted then update u set x = 2 end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: false,
                observable: true,
            },
        },
        CorpusEntry {
            name: "ordered_writers",
            rules: "create rule a on t when inserted then update u set x = 1 precedes b end;
                    create rule b on t when inserted then update u set x = 2 end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "unordered_observables",
            rules: "create rule a on t when inserted then select x from u end;
                    create rule b on t when inserted then select x from v end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: false,
            },
        },
        CorpusEntry {
            name: "ordered_observables",
            rules: "create rule a on t when inserted then select x from u precedes b end;
                    create rule b on t when inserted then select x from v end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "bounded_increment",
            rules: "create rule inc on t when updated(x) then \
                      update t set x = x + 1 where x < 10 end;",
            expect: Expectations {
                // Terminates only via the monotone auto-certificate; the
                // bare graph has a self-loop.
                terminates: false,
                confluence_requirement: true,
                observable: true,
            },
        },
        CorpusEntry {
            name: "delete_cascade_cycle",
            rules: "create rule da on t when deleted then delete from u end;
                    create rule db on u when deleted then delete from t end;",
            expect: Expectations {
                // Cycle in the graph; discharged by delete-only
                // auto-certificates, but "terminates without certificates"
                // is false.
                terminates: false,
                confluence_requirement: false,
                observable: true,
            },
        },
        CorpusEntry {
            name: "rollback_guard",
            rules: "create rule g on t when inserted \
                      if exists (select * from inserted where x < 0) \
                      then rollback end;",
            expect: Expectations {
                terminates: true,
                confluence_requirement: true,
                observable: true,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use starling_analysis::certifications::Certifications;
    use starling_analysis::confluence::analyze_confluence;
    use starling_analysis::context::AnalysisContext;
    use starling_analysis::observable::analyze_observable_determinism;
    use starling_analysis::termination::{analyze_termination, TerminationVerdict};

    use super::*;

    #[test]
    fn corpus_matches_expectations() {
        for entry in corpus() {
            let rs = entry.compile();
            let ctx = AnalysisContext::from_ruleset(&rs, Certifications::new());
            let term = analyze_termination(&ctx);
            assert_eq!(
                term.verdict == TerminationVerdict::Guaranteed,
                entry.expect.terminates,
                "{}: termination",
                entry.name
            );
            let conf = analyze_confluence(&ctx);
            assert_eq!(
                conf.requirement_holds(),
                entry.expect.confluence_requirement,
                "{}: confluence requirement",
                entry.name
            );
            let obs = analyze_observable_determinism(&ctx);
            assert_eq!(
                obs.is_guaranteed(),
                entry.expect.observable,
                "{}: observable determinism",
                entry.name
            );
        }
    }

    #[test]
    fn auto_certificates_fire_where_designed() {
        for (name, expect_discharged) in
            [("bounded_increment", true), ("delete_cascade_cycle", true)]
        {
            let entry = corpus().into_iter().find(|e| e.name == name).unwrap();
            let rs = entry.compile();
            let ctx = AnalysisContext::from_ruleset(&rs, Certifications::new());
            let term = analyze_termination(&ctx);
            assert_eq!(
                term.verdict == TerminationVerdict::GuaranteedWithCertificates,
                expect_discharged,
                "{name}"
            );
        }
    }
}
