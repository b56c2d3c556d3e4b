//! Witness rendering: human transcript, shared JSON shape, and the
//! one-line compact form embedded in fuzz reproducer headers.

use starling_analysis::report::explore_json;
use starling_engine::{ExploreConfig, RuleId, RuleSet};
use starling_sql::json::{digest_json, Json};

use crate::witness::Witness;
use crate::Explanation;

fn name(rules: &RuleSet, id: RuleId) -> String {
    rules.get(id).name().to_owned()
}

fn names(rules: &RuleSet, seq: &[RuleId]) -> Vec<String> {
    seq.iter().map(|&id| name(rules, id)).collect()
}

/// The witness as JSON, in the shared `crates/sql/src/json.rs` shape used
/// by both the CLI `--json` output and the server `explain` op.
pub fn witness_json(rules: &RuleSet, w: &Witness) -> Json {
    let branch = |seq: &[RuleId], digest: u64| {
        Json::obj([
            (
                "rules",
                Json::arr(names(rules, seq).into_iter().map(Json::Str)),
            ),
            ("final_db_digest", digest_json(digest)),
        ])
    };
    Json::obj([
        ("divergence_state", digest_json(w.state_digest)),
        (
            "prefix",
            Json::arr(names(rules, &w.prefix).into_iter().map(Json::Str)),
        ),
        (
            "pair",
            Json::arr([
                Json::Str(name(rules, w.pair.0)),
                Json::Str(name(rules, w.pair.1)),
            ]),
        ),
        ("left", branch(&w.left, w.left_digest)),
        ("right", branch(&w.right, w.right_digest)),
        (
            "reasons",
            Json::arr(w.reasons.iter().cloned().map(Json::Str)),
        ),
        ("baseline_len", Json::from(w.baseline_len)),
        ("minimization_steps", Json::from(w.minimization_steps)),
        ("replay_verified", Json::Bool(w.replay_verified)),
    ])
}

/// The `explain` answer, as `starling explain --json` prints it and the
/// server's `explain` op returns it: the graph summary, the number of
/// ambiguous choice points, and the witness (`null` when confluent).
pub fn explanation_json(rules: &RuleSet, ex: &Explanation, cfg: &ExploreConfig) -> Json {
    Json::obj([
        ("explore", explore_json(&ex.graph, cfg)),
        ("choice_points", Json::from(ex.graph.choice_points())),
        (
            "witness",
            ex.witness
                .as_ref()
                .map_or(Json::Null, |w| witness_json(rules, w)),
        ),
    ])
}

/// Human-readable witness transcript (the CLI's default rendering).
pub fn witness_text(rules: &RuleSet, w: &Witness) -> String {
    let seq = |s: &[RuleId]| {
        if s.is_empty() {
            "(none)".to_owned()
        } else {
            names(rules, s).join(", ")
        }
    };
    let mut out = String::new();
    out.push_str("divergence witness (minimal, replay-checked)\n");
    out.push_str(&format!(
        "  divergence state : {} (after firing: {})\n",
        digest_json(w.state_digest),
        seq(&w.prefix)
    ));
    out.push_str(&format!(
        "  diverging pair   : {} vs {}\n",
        name(rules, w.pair.0),
        name(rules, w.pair.1)
    ));
    out.push_str(&format!(
        "  left  : fire [{}] -> final db {}\n",
        seq(&w.left),
        digest_json(w.left_digest)
    ));
    out.push_str(&format!(
        "  right : fire [{}] -> final db {}\n",
        seq(&w.right),
        digest_json(w.right_digest)
    ));
    for r in &w.reasons {
        out.push_str(&format!("  why: {r}\n"));
    }
    out.push_str(&format!(
        "  minimized {} step(s) off the trace frontier; replay {}\n",
        w.minimization_steps,
        if w.replay_verified {
            "reproduced both digests"
        } else {
            "FAILED to reproduce the digests"
        }
    ));
    out
}

/// One-line compact form, safe for fuzz reproducer comment headers:
/// `witness [a|b]: left=[a] right=[b] dbs=0011..!=00ff..`.
pub fn witness_compact(rules: &RuleSet, w: &Witness) -> String {
    let seq = |s: &[RuleId]| names(rules, s).join(";");
    format!(
        "witness [{}|{}]: prefix=[{}] left=[{}] right=[{}] dbs={:016x}!={:016x}",
        name(rules, w.pair.0),
        name(rules, w.pair.1),
        seq(&w.prefix),
        seq(&w.left),
        seq(&w.right),
        w.left_digest,
        w.right_digest
    )
}
