//! The aggregate analysis report — the output of the "interactive
//! development environment" the paper's introduction envisions.

use std::fmt;
use std::sync::Arc;

use starling_engine::{ExecGraph, ExploreConfig, Verdict, Verdicts};
use starling_sql::json::{digest_json, Json};

use crate::confluence::{analyze_confluence, ConfluenceAnalysis};
use crate::context::AnalysisContext;
use crate::observable::{observable_determinism, ObservableAnalysis};
use crate::partial::{analyze_partial_confluence, PartialConfluenceAnalysis};
use crate::termination::{
    analyze_termination, CycleCertificate, TerminationAnalysis, TerminationVerdict,
};

/// A complete analysis of a rule set: termination, confluence, observable
/// determinism, and optionally partial confluence for requested tables.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Number of rules analyzed.
    pub rule_count: usize,
    /// Termination (Section 5). The incremental analyzer shares one
    /// analysis with every report while no rule and no termination
    /// certificate changes.
    pub termination: Arc<TerminationAnalysis>,
    /// Confluence (Section 6).
    pub confluence: ConfluenceAnalysis,
    /// Observable determinism (Section 8).
    pub observable: ObservableAnalysis,
    /// Partial confluence per requested table set (Section 7).
    pub partial: Vec<PartialConfluenceAnalysis>,
}

impl AnalysisReport {
    /// Runs the full analysis from scratch: the oracle the incremental
    /// analyzer's reports are held to. `protect` lists table subsets for
    /// partial confluence (each entry one `T'`).
    pub fn run(ctx: &AnalysisContext, protect: &[Vec<String>]) -> Self {
        let termination = Arc::new(analyze_termination(ctx));
        Self::assemble(ctx, termination, analyze_confluence(ctx), protect)
    }

    /// A report around an already derived termination and confluence half
    /// — the halves [`AnalysisReport::run`] and the incremental analyzer
    /// derive differently. Observable determinism and partial confluence
    /// are derived here, for both, by filtering the confluence half.
    pub(crate) fn assemble(
        ctx: &AnalysisContext,
        termination: Arc<TerminationAnalysis>,
        confluence: ConfluenceAnalysis,
        protect: &[Vec<String>],
    ) -> Self {
        let observable = observable_determinism(ctx, &confluence);
        let partial = protect
            .iter()
            .map(|tables| {
                let refs: Vec<&str> = tables.iter().map(String::as_str).collect();
                analyze_partial_confluence(ctx, &confluence, &refs)
            })
            .collect();
        AnalysisReport {
            rule_count: ctx.len(),
            termination,
            confluence,
            observable,
            partial,
        }
    }

    /// Whether full confluence is guaranteed: the Confluence Requirement
    /// holds *and* termination is guaranteed (Theorem 6.7 needs both).
    pub fn confluence_guaranteed(&self) -> bool {
        self.confluence.requirement_holds() && self.termination.is_guaranteed()
    }

    /// Whether all headline properties are guaranteed.
    pub fn all_guaranteed(&self) -> bool {
        self.termination.is_guaranteed()
            && self.confluence_guaranteed()
            && self.observable.is_guaranteed()
    }

    /// The machine-readable report. This is THE serialized shape: both the
    /// CLI's `--json` mode and the server's `analyze` response emit it, so
    /// the two cannot drift.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule_count", Json::from(self.rule_count)),
            ("termination", termination_json(&self.termination)),
            ("confluence", confluence_json(&self.confluence)),
            (
                "confluence_guaranteed",
                Json::from(self.confluence_guaranteed()),
            ),
            ("partial", Json::arr(self.partial.iter().map(partial_json))),
            ("observable", observable_json(&self.observable)),
            ("all_guaranteed", Json::from(self.all_guaranteed())),
        ])
    }
}

fn termination_json(t: &TerminationAnalysis) -> Json {
    let verdict = match t.verdict {
        TerminationVerdict::Guaranteed => "guaranteed",
        TerminationVerdict::GuaranteedWithCertificates => "guaranteed_with_certificates",
        TerminationVerdict::MayNotTerminate => "may_not_terminate",
    };
    Json::obj([
        ("verdict", Json::from(verdict)),
        ("guaranteed", Json::from(t.is_guaranteed())),
        (
            "cycles",
            Json::arr(t.cycles.iter().map(|c| {
                Json::obj([
                    (
                        "rules",
                        Json::arr(c.rules.iter().map(|r| Json::from(r.as_str()))),
                    ),
                    ("discharged", Json::from(c.discharged)),
                    (
                        "certificates",
                        Json::arr(c.certificates.iter().map(certificate_json)),
                    ),
                ])
            })),
        ),
    ])
}

fn certificate_json(c: &CycleCertificate) -> Json {
    match c {
        CycleCertificate::User {
            rule,
            justification,
        } => Json::obj([
            ("kind", Json::from("user")),
            ("rule", Json::from(rule.as_str())),
            ("justification", Json::from(justification.as_str())),
        ]),
        CycleCertificate::DeleteOnly { rule, tables } => Json::obj([
            ("kind", Json::from("delete_only")),
            ("rule", Json::from(rule.as_str())),
            (
                "tables",
                Json::arr(tables.iter().map(|t| Json::from(t.as_str()))),
            ),
        ]),
        CycleCertificate::MonotoneUpdate { rule, column } => Json::obj([
            ("kind", Json::from("monotone_update")),
            ("rule", Json::from(rule.as_str())),
            ("column", Json::from(column.as_str())),
        ]),
    }
}

fn confluence_json(c: &ConfluenceAnalysis) -> Json {
    Json::obj([
        ("requirement_holds", Json::from(c.requirement_holds())),
        ("pairs_checked", Json::from(c.pairs_checked)),
        (
            "violations",
            Json::arr(c.violations.iter().map(|v| {
                Json::obj([
                    (
                        "pair",
                        Json::arr([Json::from(v.pair.0.as_str()), Json::from(v.pair.1.as_str())]),
                    ),
                    (
                        "conflict",
                        Json::arr([
                            Json::from(v.conflict.0.as_str()),
                            Json::from(v.conflict.1.as_str()),
                        ]),
                    ),
                    (
                        "reasons",
                        Json::arr(v.reasons().iter().map(|r| Json::from(r.to_string()))),
                    ),
                    ("suggestions", Json::arr(v.suggestions().map(Json::from))),
                ])
            })),
        ),
    ])
}

fn partial_json(p: &PartialConfluenceAnalysis) -> Json {
    Json::obj([
        (
            "tables",
            Json::arr(p.tables.iter().map(|t| Json::from(t.as_str()))),
        ),
        (
            "significant",
            Json::arr(p.significant.iter().map(|r| Json::from(r.as_str()))),
        ),
        ("guaranteed", Json::from(p.is_guaranteed())),
        ("termination", termination_json(&p.termination)),
        ("confluence", confluence_json(&p.confluence)),
    ])
}

fn observable_json(o: &ObservableAnalysis) -> Json {
    Json::obj([
        ("guaranteed", Json::from(o.is_guaranteed())),
        (
            "observable_rules",
            Json::arr(o.observable_rules.iter().map(|r| Json::from(r.as_str()))),
        ),
        (
            "significant",
            Json::arr(o.significant.iter().map(|r| Json::from(r.as_str()))),
        ),
    ])
}

/// Serializes an oracle [`Verdict`] as
/// `{"status": "holds"|"fails"|"inconclusive"|"not_applicable",
///   "reason": <string|null>}`. Shared by the CLI `--json` mode and the
/// server protocol.
fn verdict_json(v: Verdict) -> Json {
    let (status, reason) = match v {
        Verdict::Holds => ("holds", None),
        Verdict::Fails => ("fails", None),
        Verdict::Inconclusive(r) => ("inconclusive", Some(r.to_string())),
        Verdict::NotApplicable => ("not_applicable", None),
    };
    Json::obj([
        ("status", Json::from(status)),
        ("reason", Json::from(reason)),
    ])
}

/// The machine-readable summary of an exploration: graph sizes, truncation,
/// the three oracle verdicts, and the distinct final database digests (as
/// fixed-width hex strings — JSON numbers cannot carry a `u64`). Shared by
/// the CLI `explore --json` mode and the server's `explore` response.
pub fn explore_json(g: &ExecGraph, cfg: &ExploreConfig) -> Json {
    explore_json_with(g, &g.verdicts(cfg))
}

/// [`explore_json`] for a caller that already holds `g`'s verdicts (it also
/// needs them for its status), so they are computed once per answer.
pub fn explore_json_with(g: &ExecGraph, verdicts: &Verdicts) -> Json {
    Json::obj([
        ("states", Json::from(g.states.len())),
        ("edges", Json::from(g.edges.len())),
        ("final_states", Json::from(g.final_states.len())),
        (
            "truncation",
            Json::from(g.truncation.map(|r| r.to_string())),
        ),
        (
            "verdicts",
            Json::obj([
                ("termination", verdict_json(verdicts.termination)),
                ("confluence", verdict_json(verdicts.confluence)),
                (
                    "observable_determinism",
                    verdict_json(verdicts.observable_determinism),
                ),
            ]),
        ),
        (
            "final_db_digests",
            Json::arr(g.final_db_digests().iter().map(|&d| digest_json(d))),
        ),
    ])
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Starling rule analysis ({} rules) ===",
            self.rule_count
        )?;

        // Termination.
        writeln!(f)?;
        match self.termination.verdict {
            TerminationVerdict::Guaranteed => {
                writeln!(f, "TERMINATION: guaranteed (triggering graph is acyclic)")?;
            }
            TerminationVerdict::GuaranteedWithCertificates => {
                writeln!(
                    f,
                    "TERMINATION: guaranteed, relying on {} certificate(s)",
                    self.termination
                        .cycles
                        .iter()
                        .map(|c| c.certificates.len())
                        .sum::<usize>()
                )?;
            }
            TerminationVerdict::MayNotTerminate => {
                writeln!(f, "TERMINATION: MAY NOT TERMINATE")?;
            }
        }
        for cycle in &self.termination.cycles {
            writeln!(
                f,
                "  cycle through: {} [{}]",
                cycle.rules.join(" -> "),
                if cycle.discharged {
                    "discharged"
                } else {
                    "NOT discharged"
                }
            )?;
            for cert in &cycle.certificates {
                match cert {
                    crate::termination::CycleCertificate::User {
                        rule,
                        justification,
                    } => writeln!(f, "    user certificate on `{rule}`: {justification}")?,
                    crate::termination::CycleCertificate::DeleteOnly { rule, tables } => writeln!(
                        f,
                        "    auto: `{rule}` only deletes from {} (action eventually has no effect)",
                        tables.join(", ")
                    )?,
                    crate::termination::CycleCertificate::MonotoneUpdate { rule, column } => {
                        writeln!(
                            f,
                            "    auto: `{rule}` monotonically drives {column} into its bound"
                        )?
                    }
                }
            }
            if !cycle.discharged {
                writeln!(
                    f,
                    "    to discharge: declare terminates <rule> '<justification>' \
                     for a rule on every cycle"
                )?;
            }
        }

        // Confluence.
        writeln!(f)?;
        if self.confluence.requirement_holds() {
            if self.termination.is_guaranteed() {
                writeln!(
                    f,
                    "CONFLUENCE: guaranteed ({} unordered pair(s) checked)",
                    self.confluence.pairs_checked
                )?;
            } else {
                writeln!(
                    f,
                    "CONFLUENCE: requirement holds, but termination is not guaranteed \
                     (Theorem 6.7 needs both)"
                )?;
            }
        } else {
            writeln!(
                f,
                "CONFLUENCE: MAY NOT BE CONFLUENT ({} violation(s))",
                self.confluence.violations.len()
            )?;
            for v in &self.confluence.violations {
                writeln!(
                    f,
                    "  pair ({}, {}): `{}` and `{}` do not commute",
                    v.pair.0, v.pair.1, v.conflict.0, v.conflict.1
                )?;
                for r in v.reasons() {
                    writeln!(f, "    - {r}")?;
                }
                for s in v.suggestions() {
                    writeln!(f, "    fix: {s}")?;
                }
            }
        }

        // Partial confluence.
        for p in &self.partial {
            writeln!(f)?;
            writeln!(
                f,
                "PARTIAL CONFLUENCE w.r.t. {{{}}}: {} (Sig = {{{}}})",
                p.tables.join(", "),
                if p.is_guaranteed() {
                    "guaranteed"
                } else {
                    "MAY NOT HOLD"
                },
                p.significant.join(", ")
            )?;
        }

        // Observable determinism.
        writeln!(f)?;
        if self.observable.is_guaranteed() {
            writeln!(
                f,
                "OBSERVABLE DETERMINISM: guaranteed ({} observable rule(s))",
                self.observable.observable_rules.len()
            )?;
        } else {
            writeln!(
                f,
                "OBSERVABLE DETERMINISM: MAY NOT HOLD (observable rules: {}; Sig(Obs) = {{{}}})",
                self.observable.observable_rules.join(", "),
                self.observable.significant.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"])];

    #[test]
    fn clean_rule_set_all_green() {
        let c = ctx_from(
            "create rule a on t when inserted then insert into u values (1) precedes b end;
             create rule b on u when inserted then update u set x = 0 end;",
            TABLES,
            Certifications::new(),
        );
        let r = AnalysisReport::run(&c, &[]);
        assert!(r.all_guaranteed());
        let text = r.to_string();
        assert!(text.contains("TERMINATION: guaranteed"));
        assert!(text.contains("CONFLUENCE: guaranteed"));
        assert!(text.contains("OBSERVABLE DETERMINISM: guaranteed"));
    }

    #[test]
    fn problematic_rule_set_reported() {
        let c = ctx_from(
            "create rule p on t when inserted then insert into u values (1) end;
             create rule q on u when inserted then insert into t values (1) end;",
            TABLES,
            Certifications::new(),
        );
        let r = AnalysisReport::run(&c, &[vec!["t".to_owned()]]);
        assert!(!r.all_guaranteed());
        let text = r.to_string();
        assert!(text.contains("MAY NOT TERMINATE"));
        assert!(text.contains("cycle through: p -> q"));
        assert!(text.contains("MAY NOT BE CONFLUENT"));
        assert!(text.contains("PARTIAL CONFLUENCE"));
        assert!(text.contains("fix: "));
    }

    #[test]
    fn requirement_without_termination_is_not_confluence() {
        // Self-loop rule: no unordered pairs (requirement trivially holds),
        // but termination fails, so confluence is not guaranteed.
        let c = ctx_from(
            "create rule s on t when inserted then insert into t values (1) end",
            TABLES,
            Certifications::new(),
        );
        let r = AnalysisReport::run(&c, &[]);
        assert!(r.confluence.requirement_holds());
        assert!(!r.confluence_guaranteed());
        assert!(r.to_string().contains("Theorem 6.7 needs both"));
    }
}
