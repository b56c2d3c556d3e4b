//! End-to-end case studies spanning every crate (experiments E7 and E8):
//! the power-network termination study and the iterative-confluence
//! constraint-maintenance study, each cross-checked against the oracle.

use starling::analysis::certifications::Certifications;
use starling::analysis::context::AnalysisContext;
use starling::analysis::report::AnalysisReport;
use starling::analysis::termination::{analyze_termination, TerminationVerdict};
use starling::engine::RuleProgram;
use starling::prelude::*;
use starling::workloads::{audit, constraints, power_network, versioning};

#[test]
fn e7_power_network_termination_study() {
    let w = power_network::workload();
    let (db, defs, directives) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();

    // Without certificates: the deletion cascade's cycle is found, but the
    // delete-only auto-certificates discharge it; only the load-shedding
    // self-loop needs the user certificate.
    let bare = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let t_bare = analyze_termination(&bare);
    assert!(!t_bare.cycles.is_empty(), "the cascade cycle must be found");

    let certs = Certifications::from_directives(&directives);
    let ctx = AnalysisContext::from_ruleset(&rules, certs);
    let t = analyze_termination(&ctx);
    assert_eq!(t.verdict, TerminationVerdict::GuaranteedWithCertificates);
    assert!(t.cycles.iter().all(|c| c.discharged));

    // Oracle agreement on the paper scenario.
    let g = explore(
        &rules,
        &db,
        &w.user_actions().unwrap(),
        &ExploreConfig::default(),
    )
    .unwrap();
    assert_eq!(g.terminates(), Some(true));
}

#[test]
fn e8_constraints_iterative_confluence_study() {
    let w = constraints::workload();
    let (db, defs, _) = w.build().unwrap();

    let mut session = InteractiveSession::new(Session::restore(db, defs, None, Vec::new()));
    let initial = session.analyze(false, &[]).unwrap();
    assert!(
        !initial.confluence.requirement_holds(),
        "the case study starts non-confluent"
    );

    // The Section 6.4 loop converges, after more than one ordering.
    let rounds = session.order_until_confluent(25).unwrap();
    assert!(rounds.len() >= 3, "{} round(s)", rounds.len());
    assert!(rounds.last().unwrap().confluence.requirement_holds());

    // Remaining self-cycles are certified with the workload's documented
    // certificates (cap converges; totals recomputation is idempotent).
    for certificate in RuleProgram::parse(constraints::RESOLUTIONS)
        .unwrap()
        .directives
    {
        session.certify(certificate).unwrap();
    }
    let final_report = session.analyze(false, &[]).unwrap();
    assert!(final_report.confluence.requirement_holds());
    assert!(final_report.termination.is_guaranteed());
}

#[test]
fn audit_workload_matches_static_and_oracle_verdicts() {
    let w = audit::workload();
    let (db, defs, _) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let report = AnalysisReport::run(&ctx, &[]);
    assert!(!report.observable.is_guaranteed());

    let cfg = ExploreConfig::default();
    let g = explore(&rules, &db, &w.user_actions().unwrap(), &cfg).unwrap();
    assert_eq!(g.confluent(), Some(true));
    assert_eq!(g.observably_deterministic(&cfg), Some(false));
}

/// Partial confluence (E4) across the crates: the constraints rule set is
/// not confluent overall, but is confluent with respect to the `dept`
/// table once the conflicting emp-writers are ordered... and crucially the
/// scratch-style violations on `emp` do not poison `dept`-only users.
#[test]
fn e4_partial_confluence_on_case_study() {
    let w = constraints::workload();
    let (db, defs, _) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();
    let mut certs = Certifications::new();
    // Certify the benign pairs the paper's user would.
    certs.certify_terminates("cap_salary", "cap converges");
    certs.certify_terminates("maintain_totals", "idempotent");
    let ctx = AnalysisContext::from_ruleset(&rules, certs);

    let confluence = starling::analysis::confluence::analyze_confluence(&ctx);
    let partial =
        starling::analysis::partial::analyze_partial_confluence(&ctx, &confluence, &["dept"]);
    // Sig(dept) pulls in the totals maintainer and everything that does
    // not commute with it — the verdict is informative either way; what we
    // assert is the machinery: Sig is a subset of all rules containing the
    // dept-writer.
    assert!(partial.significant.iter().any(|r| r == "maintain_totals"));
    assert!(partial.significant.len() <= rules.len());
}

/// The introduction's versioning application. Termination is guaranteed
/// outright (the triggering graph is acyclic: `snapshot` is triggered by
/// `content` and writes `head`) and the oracle agrees; the one confluence
/// flag is condition 2′ on `snapshot` / `immutable_versions` — conservative,
/// the oracle reaches one final state — and certifying that pair is all the
/// Confluence Requirement needs. One-sided, as everywhere: a static
/// guarantee must hold on the oracle, a "may not" need not fail on it.
#[test]
fn versioning_workload_matches_static_and_oracle_verdicts() {
    let w = versioning::workload();
    let (db, defs, _) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let report = AnalysisReport::run(&ctx, &[]);
    assert_eq!(report.termination.verdict, TerminationVerdict::Guaranteed);
    let flagged: Vec<_> = report
        .confluence
        .violations
        .iter()
        .map(|v| &v.conflict)
        .collect();
    assert_eq!(
        flagged,
        [&("snapshot".to_owned(), "immutable_versions".to_owned())]
    );
    assert!(!report.observable.is_guaranteed());

    let cfg = ExploreConfig::default();
    let g = explore(&rules, &db, &w.user_actions().unwrap(), &cfg).unwrap();
    assert_eq!(g.terminates(), Some(true));
    assert_eq!(g.confluent(), Some(true));
    assert_eq!(g.observably_deterministic(&cfg), Some(true));

    let mut certs = Certifications::new();
    certs.certify_commute("snapshot", "immutable_versions");
    let certified = AnalysisContext::from_ruleset(&rules, certs);
    assert!(AnalysisReport::run(&certified, &[])
        .confluence
        .requirement_holds());
}
