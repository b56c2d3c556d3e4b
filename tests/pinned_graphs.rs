//! The two execution graphs that explorer changes are measured on, pinned
//! by size and outcome and required to come out identical from every way
//! of exploring: sequential, level-parallel, traced, and through the AST
//! interpreter. State digests are part of graph equality, so this also
//! holds the four to one state identity.

use std::fmt::Write as _;

use starling::analysis::{explore_json, load_script};
use starling::engine::{
    explore, explore_parallel, explore_traced, explore_with_mode, EvalMode, ExecGraph,
    ExploreConfig,
};

/// Explores `script` all four ways; returns the one graph they agree on,
/// the `explore_json` text they all print for it, and the number of
/// ambiguous choice points the traced pass recorded.
fn explored_every_way(script: &str) -> (ExecGraph, String, usize) {
    let s = load_script(script).expect("script loads");
    let cfg = ExploreConfig::default()
        .with_max_states(200_000)
        .with_max_paths(1_000_000);
    let graph = explore(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
    assert!(!graph.truncated());
    let text = explore_json(&graph, &cfg).to_string();
    let parallel = explore_parallel(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
    let (traced, log) = explore_traced(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
    let interp =
        explore_with_mode(&s.rules, &s.db, &s.user_actions, &cfg, EvalMode::Interp).unwrap();
    for (other, what) in [
        (&parallel, "parallel differs from sequential"),
        (&traced, "tracing changed the graph"),
        (&interp, "the interpreter differs from the plans"),
    ] {
        assert_eq!(&graph, other, "{what}");
        assert_eq!(text, explore_json(other, &cfg).to_string(), "{what}");
    }
    (graph, text, log.ambiguous())
}

fn final_digests(graph: &ExecGraph) -> Vec<String> {
    graph
        .final_db_digests()
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect()
}

/// Four unordered fan rules and a four-rule chain, all set off by one
/// insert: everything commutes, but each interleaving allocates tuple ids
/// in its own order, so the graph is close to the full interleaving tree.
#[test]
fn fan_chain_stress_graph_is_pinned() {
    let mut script = String::from("create table t (x int);\n");
    for i in 0..4 {
        let _ = writeln!(script, "create table f{i} (x int);");
        let _ = writeln!(script, "create table c{i} (x int);");
    }
    for i in 0..4 {
        let _ = writeln!(
            script,
            "create rule fan{i} on t when inserted then insert into f{i} values ({i}) end;"
        );
    }
    for i in 0..4 {
        let on = match i {
            0 => "t".to_owned(),
            _ => format!("c{}", i - 1),
        };
        let _ = writeln!(
            script,
            "create rule chain{i} on {on} when inserted then insert into c{i} values ({i}) end;"
        );
    }
    script += "insert into t values (1);\n";

    let (graph, text, _) = explored_every_way(&script);
    assert_eq!((graph.states.len(), graph.edges.len()), (5189, 5188));
    assert_eq!(graph.terminates(), Some(true));
    assert_eq!(graph.final_db_digests().len(), 1);
    assert_eq!(
        text,
        concat!(
            r#"{"states":5189,"edges":5188,"final_states":1680,"truncation":null,"#,
            r#""verdicts":{"termination":{"status":"holds","reason":null},"#,
            r#""confluence":{"status":"holds","reason":null},"#,
            r#""observable_determinism":{"status":"holds","reason":null}},"#,
            r#""final_db_digests":["cc4f38eefb9c753e"]}"#
        )
    );
}

/// The paper's Section 5 case study, with the numbers README's `starling
/// explain` transcript shows.
#[test]
fn power_network_graph_is_pinned() {
    let script = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scripts/power_network.rql"
    ))
    .unwrap();
    let (graph, text, ambiguous) = explored_every_way(&script);
    assert_eq!(graph.states.len(), 2132);
    assert_eq!(ambiguous, 1115);
    assert_eq!(
        final_digests(&graph),
        ["1c05cac52839fc6b", "3f0c43d8c8c3683b"]
    );
    assert_eq!(
        text,
        concat!(
            r#"{"states":2132,"edges":3854,"final_states":192,"truncation":null,"#,
            r#""verdicts":{"termination":{"status":"holds","reason":null},"#,
            r#""confluence":{"status":"fails","reason":null},"#,
            r#""observable_determinism":{"status":"holds","reason":null}},"#,
            r#""final_db_digests":["1c05cac52839fc6b","3f0c43d8c8c3683b"]}"#
        )
    );
}
