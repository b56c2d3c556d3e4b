//! The two execution graphs that explorer changes are measured on, pinned
//! by size and outcome and required to come out identical through the
//! compiled plans and the AST interpreter. State digests are part of graph
//! equality, so this also holds the two to one state identity.

use std::fmt::Write as _;

use starling::analysis::{explore_json, load_script};
use starling::engine::{
    explore, explore_with_mode, EvalMode, ExecGraph, ExploreConfig, TruncationReason,
};

fn power_network() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scripts/power_network.rql"
    ))
    .unwrap()
}

/// Explores `script` both ways; returns the one graph they agree on and
/// the `explore_json` text they both print for it.
fn explored_every_way(script: &str) -> (ExecGraph, String) {
    let s = load_script(script).expect("script loads");
    let cfg = ExploreConfig::default()
        .with_max_states(200_000)
        .with_max_paths(1_000_000);
    let graph = explore(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
    assert!(!graph.truncated());
    let text = explore_json(&graph, &cfg).to_string();
    let interp =
        explore_with_mode(&s.rules, &s.db, &s.user_actions, &cfg, EvalMode::Interp).unwrap();
    assert_eq!(graph, interp, "the interpreter differs from the plans");
    assert_eq!(text, explore_json(&interp, &cfg).to_string());
    (graph, text)
}

fn final_digests(graph: &ExecGraph) -> Vec<String> {
    graph
        .final_db_digests()
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect()
}

/// A choice point is a state with two or more out-edges, so a row-truncated
/// graph does not count the state whose expansion tripped the budget: on
/// power_network under `max_rows(8)` the root's first successor trips it,
/// leaving the root, with two eligible rules, and no edge.
#[test]
fn a_row_truncated_graph_does_not_count_the_cut_state() {
    let s = load_script(&power_network()).unwrap();
    let cfg = ExploreConfig::default().with_max_rows(8);
    let graph = explore(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
    assert_eq!(graph.truncation, Some(TruncationReason::Rows));
    assert_eq!((graph.states.len(), graph.edges.len()), (1, 0));
    let root = &graph.states[0];
    assert_eq!(s.rules.priority().choose(&root.triggered).len(), 2);
    assert_eq!(graph.choice_points(), 0);
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

    let (graph, text) = explored_every_way(&script);
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
    let (graph, text) = explored_every_way(&power_network());
    assert_eq!(graph.states.len(), 2132);
    assert_eq!(graph.choice_points(), 1115);
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
