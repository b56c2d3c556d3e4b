//! The shipped `scripts/*.rql` files stay loadable and behave as their
//! header comments claim (exercised through the CLI library, exactly as the
//! `starling` binary would).

use starling_cli::{
    cmd_analyze, cmd_compare, cmd_explain, cmd_explain_divergence, cmd_explore, cmd_graph, cmd_run,
    CmdStatus,
};
use starling_engine::{Budget, RuleProgram, Session};

/// Every script in `dir` (relative to the repo root) with extension `ext`.
fn scripts_in(dir: &str, ext: &str) -> Vec<String> {
    let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let files = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
    files
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// One rule program, whoever reads the script: the loader and a session
/// build the same definitions and directives from the same text (repeated
/// `alter`s deduped, a dropped rule's orderings scrubbed), and the program
/// survives the WAL's text form unchanged.
#[test]
fn loader_and_session_agree_and_programs_round_trip() {
    let edits = "create table t (x int);
        create rule a on t when inserted then delete from t end;
        create rule b on t when inserted then delete from t end;
        create rule c on t when deleted then delete from t follows a end;
        alter rule a precedes b; alter rule a precedes b, c follows c;
        declare commute a, b; drop rule c; declare terminates a 'it''s fine';";
    let mut sources = scripts_in("scripts", "rql");
    sources.extend(scripts_in("tests/fuzz_corpus", "star"));
    assert!(sources.len() >= 7, "shipped scripts and corpus found");
    sources.push(edits.to_owned());
    let gen = starling_fuzz::gen::GenConfig::default();
    sources.extend((0..40).map(|seed| starling_fuzz::gen::generate(seed, &gen).script()));
    for src in &sources {
        let loaded = starling_cli::load_script(src).unwrap();
        let mut session = Session::new();
        session.execute_script(src).unwrap();
        assert_eq!(loaded.defs, session.rule_defs(), "{src}");
        assert_eq!(loaded.directives, session.directives(), "{src}");
        let program = session.state().program;
        assert_eq!(RuleProgram::parse(&program.render()).unwrap(), *program);
    }
}

fn read(name: &str) -> String {
    let path = format!("{}/scripts/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn salary_rules_full_cli_surface() {
    let src = read("salary_rules.rql");
    let report = cmd_analyze(&src, &[vec!["dept".to_owned()]], false, false).unwrap();
    // Certifications are honored; cycles are discharged.
    assert!(report.contains("TERMINATION: guaranteed"), "{report}");
    assert!(
        report.contains("PARTIAL CONFLUENCE w.r.t. {dept}"),
        "{report}"
    );

    let graph = cmd_graph(&src, false).unwrap();
    assert!(graph.contains("4 rules"), "{graph}");
    assert!(cmd_graph(&src, true).unwrap().starts_with("digraph"));

    let explain = cmd_explain(&src, "maintain_totals").unwrap();
    assert!(explain.contains("Triggered-By:"), "{explain}");
    assert!(explain.contains("(U, dept.total_sal)"), "{explain}");

    let explore = cmd_explore(&src, &Budget::default(), false, false).unwrap();
    assert_eq!(explore.status, CmdStatus::Ok);
    assert!(
        explore.text.contains("terminates on all paths: yes"),
        "{}",
        explore.text
    );

    let compare = cmd_compare(&src).unwrap();
    assert!(!compare.contains("SUBSUMPTION VIOLATION"), "{compare}");

    let run = cmd_run(&src, &Budget::default()).unwrap();
    assert_eq!(run.status, CmdStatus::Ok);
    assert!(run.text.contains("rule processing"), "{}", run.text);
}

#[test]
fn masking_script_shows_the_finding() {
    let src = read("masking.rql");
    let report = cmd_analyze(&src, &[], false, false).unwrap();
    assert!(report.contains("condition 2\u{2032}"), "{report}");

    let explore = cmd_explore(&src, &Budget::default(), false, false).unwrap();
    assert!(
        explore.text.contains("distinct final DB states: 2"),
        "{}",
        explore.text
    );
}

/// The README's `explain` quick-start transcript stays true: the
/// power-network script diverges on the unordered `trip_overload` /
/// `shed_load` race, and `explain` prints a replay-checked witness
/// naming that pair.
#[test]
fn power_network_explain_emits_replay_checked_witness() {
    let src = read("power_network.rql");
    let out = cmd_explain_divergence(&src, &Budget::default(), false).unwrap();
    assert_eq!(out.status, CmdStatus::Ok);
    assert!(
        out.text.contains("2 distinct final DB state(s)"),
        "{}",
        out.text
    );
    assert!(
        out.text
            .contains("divergence witness (minimal, replay-checked)"),
        "{}",
        out.text
    );
    assert!(
        out.text.contains("shed_load vs trip_overload"),
        "{}",
        out.text
    );
    assert!(
        out.text.contains("replay reproduced both digests"),
        "{}",
        out.text
    );
}

#[test]
fn sharded_counters_oracle_confluent_despite_static_rejection() {
    let src = read("sharded_counters.rql");
    let report = cmd_analyze(&src, &[], false, false).unwrap();
    assert!(report.contains("MAY NOT BE CONFLUENT"), "{report}");

    // The Section 9 refinement proves the shards disjoint.
    let refined = cmd_analyze(&src, &[], true, false).unwrap();
    assert!(refined.contains("CONFLUENCE: guaranteed"), "{refined}");

    let explore = cmd_explore(&src, &Budget::default(), false, false).unwrap();
    assert_eq!(explore.status, CmdStatus::Ok);
    assert!(
        explore.text.contains("unique final state:      yes"),
        "{}",
        explore.text
    );
}
