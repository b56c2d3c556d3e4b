//! Library backing the `starling` CLI: script loading and the command
//! implementations, separated from `main` so they are unit-testable.
//! Scripts follow the loader's convention ([`starling_analysis::loader`]).

pub mod experiments;

use std::fmt::Write as _;

use starling_analysis::certifications::Certifications;
use starling_analysis::context::AnalysisContext;
use starling_analysis::report::explore_json_with;
use starling_analysis::triggering_graph::TriggeringGraph;
use starling_analysis::InteractiveSession;
use starling_baselines::compare_all;
use starling_engine::{
    explore, Budget, EngineError, ExploreConfig, FirstEligible, Outcome, RuleSet, RunResult,
    Session, Verdict,
};

pub use starling_analysis::loader::{load_script, LoadedScript};

/// How a command concluded, beyond success/failure: `main` maps these to
/// distinct process exit codes so scripts and CI can react to "the oracle
/// ran out of budget" differently from "the script is wrong".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdStatus {
    /// Definitive result (exit 0). A definitive "no" — e.g. a detected
    /// nontermination — is still a successful analysis.
    Ok,
    /// The transaction aborted mid-run (exit 2).
    Aborted,
    /// A resource budget was exhausted before a definitive answer (exit 3).
    Inconclusive,
    /// The fuzz harness found oracle disagreements (exit 4) — the analysis
    /// stack itself has a bug, as opposed to the analyzed script.
    Findings,
    /// `experiments --check`: the committed tables are not what the code
    /// prints (exit 1; the text is the diff).
    Stale,
}

/// A command's rendered output plus its status.
#[derive(Clone, Debug)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// Status for the exit code.
    pub status: CmdStatus,
}

impl CmdOutput {
    fn ok(text: String) -> Self {
        CmdOutput {
            text,
            status: CmdStatus::Ok,
        }
    }
}

/// `starling analyze`: the full report. `refine` enables the Section 9
/// predicate-level commutativity refinement; `json` emits the
/// machine-readable shape shared with the server protocol.
pub fn cmd_analyze(
    src: &str,
    protect: &[Vec<String>],
    refine: bool,
    json: bool,
) -> Result<String, EngineError> {
    let s = load_script(src)?;
    let session = Session::restore(s.db, s.defs, Some(s.rules), s.directives);
    let report = InteractiveSession::new(session).analyze(refine, protect)?;
    if json {
        return Ok(format!("{}\n", report.to_json()));
    }
    Ok(report.to_string())
}

/// `starling graph`: the triggering graph, as text or DOT.
pub fn cmd_graph(src: &str, dot: bool) -> Result<String, EngineError> {
    let script = load_script(src)?;
    let ctx = script.context();
    let graph = TriggeringGraph::build(&ctx);
    if dot {
        return Ok(graph.to_dot());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "triggering graph: {} rules, {} edges",
        graph.len(),
        graph.edge_count()
    );
    for (i, succs) in graph.succ.iter().enumerate() {
        let names: Vec<&str> = succs.iter().map(|&j| graph.names[j].as_str()).collect();
        let _ = writeln!(out, "  {} -> [{}]", graph.names[i], names.join(", "));
    }
    for scc in graph.cyclic_sccs() {
        let names: Vec<&str> = scc.iter().map(|&i| graph.names[i].as_str()).collect();
        let _ = writeln!(out, "  CYCLE: {}", names.join(" -> "));
    }
    Ok(out)
}

/// Renders a [`Verdict`] for the report: definitive answers stay terse
/// ("yes"/"NO"), non-answers carry their reason.
fn render_verdict(v: Verdict) -> String {
    match v {
        Verdict::Holds => "yes".to_owned(),
        Verdict::Fails => "NO".to_owned(),
        other => other.to_string(),
    }
}

/// `starling explore`: the execution-graph oracle over the script's user
/// transition, bounded by `cfg` (state/path budgets and optional deadline).
/// With `dot`, emits the graph as GraphViz instead of the verdict summary;
/// with `json`, the machine-readable shape shared with the server protocol.
///
/// The status is [`CmdStatus::Inconclusive`] when any budget ran out before
/// a verdict; a definitive negative verdict is still [`CmdStatus::Ok`].
pub fn cmd_explore(
    src: &str,
    cfg: &ExploreConfig,
    dot: bool,
    json: bool,
) -> Result<CmdOutput, EngineError> {
    let script = load_script(src)?;
    if script.user_actions.is_empty() {
        return Err(EngineError::InvalidStatement(
            "explore needs DML after the rule definitions (the user transition)".into(),
        ));
    }
    let g = explore(&script.rules, &script.db, &script.user_actions, cfg)?;
    let verdicts = g.verdicts(cfg);
    let status = match verdicts.inconclusive() {
        Some(_) => CmdStatus::Inconclusive,
        None => CmdStatus::Ok,
    };
    if dot {
        let text = g.to_dot(&script.rules);
        return Ok(CmdOutput { text, status });
    }
    if json {
        let text = format!("{}\n", explore_json_with(&g, &verdicts));
        return Ok(CmdOutput { text, status });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "execution graph: {} states, {} edges, {} final state(s){}",
        g.states.len(),
        g.edges.len(),
        g.final_states.len(),
        match g.truncation {
            Some(r) => format!(" [TRUNCATED: {r}]"),
            None => String::new(),
        }
    );
    for (label, v) in [
        ("terminates on all paths:", verdicts.termination),
        ("unique final state:     ", verdicts.confluence),
        (
            "deterministic observables:",
            verdicts.observable_determinism,
        ),
    ] {
        let _ = writeln!(out, "  {label} {}", render_verdict(v));
    }
    let _ = writeln!(
        out,
        "  distinct final DB states: {}",
        g.final_db_digests().len()
    );
    Ok(CmdOutput { text: out, status })
}

/// `starling explain` without a rule argument: explores the script's user
/// transition, counts its choice points and, when the oracle reaches more
/// than one final database state, prints a minimal divergence witness —
/// one common state plus two firing sequences, replay-verified through the
/// engine before being reported.
///
/// A confluent exploration is [`CmdStatus::Ok`] with no witness; confluent
/// *so far* under an exhausted budget is [`CmdStatus::Inconclusive`].
pub fn cmd_explain_divergence(
    src: &str,
    cfg: &ExploreConfig,
    json: bool,
) -> Result<CmdOutput, EngineError> {
    let script = load_script(src)?;
    if script.user_actions.is_empty() {
        return Err(EngineError::InvalidStatement(
            "explain needs DML after the rule definitions (the user transition)".into(),
        ));
    }
    let ex = starling_provenance::explain_divergence(
        &script.rules,
        &script.db,
        &script.user_actions,
        cfg,
    )?;
    let status = match &ex.witness {
        Some(_) => CmdStatus::Ok,
        None if ex.graph.truncated() => CmdStatus::Inconclusive,
        None => CmdStatus::Ok,
    };
    if json {
        let answer = starling_provenance::explanation_json(&script.rules, &ex, cfg);
        let text = format!("{answer}\n");
        return Ok(CmdOutput { text, status });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explored {} state(s), {} ambiguous choice point(s), {} distinct final DB state(s){}",
        ex.graph.states.len(),
        ex.graph.choice_points(),
        ex.graph.final_db_digests().len(),
        match ex.graph.truncation {
            Some(r) => format!(" [TRUNCATED: {r}]"),
            None => String::new(),
        }
    );
    match &ex.witness {
        Some(w) => out.push_str(&starling_provenance::witness_text(&script.rules, w)),
        None if ex.graph.truncated() => {
            let _ = writeln!(
                out,
                "no divergence found before the budget ran out — confluent as far as explored"
            );
        }
        None => {
            let _ = writeln!(
                out,
                "confluent from this initial state: every path reaches the same final database"
            );
        }
    }
    Ok(CmdOutput { text: out, status })
}

/// Diagnoses an `Outcome::LimitExceeded` run: extracts the repeating rule
/// cycle from the tail of the consideration trace and cross-references it
/// against the *static* triggering graph, so the user sees both what
/// actually looped and that the analysis predicts the loop.
pub fn diagnose_limit(run: &RunResult, rules: &RuleSet, ctx: &AnalysisContext) -> String {
    let mut out = String::new();
    let reason = run
        .truncation
        .map(|r| r.to_string())
        .unwrap_or_else(|| "limit exceeded".to_owned());
    let _ = writeln!(
        out,
        "rule processing stopped after {} consideration(s): {reason}",
        run.considerations.len()
    );
    // The dynamic tail: names of the most recently considered rules.
    let tail: Vec<&str> = run
        .considerations
        .iter()
        .rev()
        .take(64)
        .map(|c| rules.get(c.rule).name())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() {
        return out;
    }
    // Smallest period p such that the last 2p entries repeat.
    let period = (1..=tail.len() / 2)
        .find(|&p| (0..p).all(|k| tail[tail.len() - p + k] == tail[tail.len() - 2 * p + k]));
    let Some(p) = period else {
        let shown = &tail[tail.len().saturating_sub(8)..];
        let _ = writeln!(
            out,
            "  no short repeating cycle in the consideration tail; last considered: {}",
            shown.join(" -> ")
        );
        return out;
    };
    let cycle = &tail[tail.len() - p..];
    let _ = writeln!(
        out,
        "  dynamic cycle in the consideration tail: {} -> {}",
        cycle.join(" -> "),
        cycle[0]
    );
    // Cross-reference each step of the dynamic cycle against the static
    // triggering graph (paper Section 5): an edge the static analysis does
    // not predict would indicate an analysis bug.
    let mut confirmed = Vec::new();
    let mut unexplained = Vec::new();
    for k in 0..cycle.len() {
        let (a, b) = (cycle[k], cycle[(k + 1) % cycle.len()]);
        match (ctx.index_of(a), ctx.index_of(b)) {
            (Some(i), Some(j)) if ctx.can_trigger(i, j) => {
                confirmed.push(format!("{a} -> {b}"));
            }
            _ => unexplained.push(format!("{a} -> {b}")),
        }
    }
    if unexplained.is_empty() {
        let _ = writeln!(
            out,
            "  static triggering graph confirms every step: {}",
            confirmed.join(", ")
        );
    } else {
        let _ = writeln!(
            out,
            "  static triggering graph does NOT predict: {} (confirmed: {})",
            unexplained.join(", "),
            if confirmed.is_empty() {
                "none".to_owned()
            } else {
                confirmed.join(", ")
            }
        );
    }
    out
}

/// `starling run`: executes the script end-to-end (user transition included)
/// with rule processing at commit, printing outcomes. The budget bounds the
/// commit-time rule processing (`max_considerations`, `deadline`).
///
/// Statuses: [`CmdStatus::Aborted`] when the transaction aborted (the
/// database was restored to the snapshot), [`CmdStatus::Inconclusive`] when
/// rule processing hit a budget — with the dynamic cycle diagnosis from
/// [`diagnose_limit`] appended.
pub fn cmd_run(src: &str, budget: &Budget) -> Result<CmdOutput, EngineError> {
    let mut session = Session::new();
    session.budget = *budget;
    let outputs = session.execute_script(src)?;
    let mut out = String::new();
    for o in outputs {
        match o {
            starling_engine::session::ScriptOutput::Rows(rs) => {
                let _ = writeln!(out, "{}", rs.columns.join(" | "));
                for row in &rs.rows {
                    let vals: Vec<String> = row.iter().map(ToString::to_string).collect();
                    let _ = writeln!(out, "{}", vals.join(" | "));
                }
            }
            starling_engine::session::ScriptOutput::Modified(n) => {
                let _ = writeln!(out, "{n} tuple(s) modified");
            }
            starling_engine::session::ScriptOutput::TableCreated(t) => {
                let _ = writeln!(out, "table `{t}` created");
            }
            starling_engine::session::ScriptOutput::RuleCreated(r) => {
                let _ = writeln!(out, "rule `{r}` created");
            }
            starling_engine::session::ScriptOutput::RuleDropped(r) => {
                let _ = writeln!(out, "rule `{r}` dropped");
            }
            starling_engine::session::ScriptOutput::RuleAltered(r) => {
                let _ = writeln!(out, "rule `{r}` altered");
            }
            starling_engine::session::ScriptOutput::DirectiveRecorded => {
                let _ = writeln!(out, "directive recorded");
            }
            starling_engine::session::ScriptOutput::RolledBack => {
                let _ = writeln!(out, "transaction rolled back");
            }
        }
    }
    let run = session.commit(&mut FirstEligible)?;
    let _ = writeln!(
        out,
        "rule processing: {} consideration(s), {} fired, outcome {:?}",
        run.considerations.len(),
        run.fired_count(),
        run.outcome
    );
    let mut status = CmdStatus::Ok;
    match run.outcome {
        Outcome::Aborted => {
            status = CmdStatus::Aborted;
            let cause = run
                .error
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_else(|| "unknown".to_owned());
            let _ = writeln!(
                out,
                "transaction ABORTED: {cause}\ndatabase restored to the transaction snapshot"
            );
        }
        Outcome::LimitExceeded => {
            status = CmdStatus::Inconclusive;
            let rules = session.ruleset()?.clone();
            let ctx = AnalysisContext::from_ruleset(
                &rules,
                Certifications::from_directives(session.directives()),
            );
            let _ = write!(out, "{}", diagnose_limit(&run, &rules, &ctx));
        }
        Outcome::Quiescent | Outcome::RolledBack => {}
    }
    for ev in &run.observables {
        match &ev.kind {
            starling_engine::ObservableKind::Rollback => {
                let _ = writeln!(out, "observable: rollback");
            }
            starling_engine::ObservableKind::Rows(rs) => {
                let _ = writeln!(out, "observable rows ({}):", rs.columns.join(", "));
                for row in &rs.rows {
                    let vals: Vec<String> = row.iter().map(ToString::to_string).collect();
                    let _ = writeln!(out, "  {}", vals.join(" | "));
                }
            }
        }
    }
    let _ = write!(out, "{}", session.db());
    Ok(CmdOutput { text: out, status })
}

/// `starling explain`: one rule's Section 3 signature and relations.
pub fn cmd_explain(src: &str, rule_name: &str) -> Result<String, EngineError> {
    let script = load_script(src)?;
    let ctx = script.context();
    let Some(idx) = ctx.index_of(rule_name) else {
        return Err(EngineError::InvalidStatement(format!(
            "no rule named `{rule_name}`"
        )));
    };
    let sig = &ctx.sigs[idx];
    let mut out = String::new();
    let _ = writeln!(out, "rule `{rule_name}` on `{}`", sig.table);
    let fmt_ops = |ops: &std::collections::BTreeSet<starling_storage::Op>| {
        ops.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "  Triggered-By: {{{}}}", fmt_ops(&sig.triggered_by));
    let _ = writeln!(out, "  Performs:     {{{}}}", fmt_ops(&sig.performs));
    let _ = writeln!(
        out,
        "  Reads:        {{{}}}",
        sig.reads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  Observable:   {}", sig.observable);
    let triggers: Vec<&str> = ctx.triggers(idx).into_iter().map(|j| ctx.name(j)).collect();
    let _ = writeln!(out, "  Triggers:     {{{}}}", triggers.join(", "));
    let triggered_by_rules: Vec<&str> = (0..ctx.len())
        .filter(|&j| ctx.can_trigger(j, idx))
        .map(|j| ctx.name(j))
        .collect();
    let _ = writeln!(
        out,
        "  Triggered by rules: {{{}}}",
        triggered_by_rules.join(", ")
    );
    let unordered: Vec<&str> = (0..ctx.len())
        .filter(|&j| j != idx && ctx.unordered(idx, j))
        .map(|j| ctx.name(j))
        .collect();
    let _ = writeln!(out, "  Unordered with: {{{}}}", unordered.join(", "));
    for j in 0..ctx.len() {
        if j == idx {
            continue;
        }
        let reasons = starling_analysis::noncommutativity_reasons(&ctx.sigs[idx], &ctx.sigs[j]);
        if !reasons.is_empty() {
            let _ = writeln!(out, "  may not commute with `{}`:", ctx.name(j));
            for r in reasons {
                let _ = writeln!(out, "    - {r}");
            }
        }
    }
    Ok(out)
}

/// `starling fuzz`: the differential fuzz campaign — generate random rule
/// programs, cross-check the four oracles, shrink and pin disagreements
/// (see `starling_fuzz`). Exit-code contract: [`CmdStatus::Findings`] on
/// any disagreement, so CI fails loudly; a clean campaign is
/// [`CmdStatus::Ok`] no matter how many explorations were truncated
/// (truncation is a budget fact, not a bug).
pub fn cmd_fuzz(config: starling_fuzz::FuzzConfig) -> CmdOutput {
    let report = starling_fuzz::run_fuzz(config);
    CmdOutput {
        status: if report.ok() {
            CmdStatus::Ok
        } else {
            CmdStatus::Findings
        },
        text: report.render(),
    }
}

/// `starling recover`: opens durable store(s) and reports what recovery
/// yields — the operator's view of a data dir after a crash.
///
/// `dir` is either one store (it contains `wal.log`) or a server data dir
/// (each subdirectory with a `wal.log` is a store). Recovery itself always
/// verifies frame checksums, truncates any torn tail, and checks the
/// recovered digest against the last logged commit digest; `verify`
/// additionally replays the recovered state through a full engine session
/// (rules re-parsed, directives re-applied) and cross-checks the digests.
///
/// Any unrecoverable store makes the command fail; a recovered-with-
/// truncation store is normal crash aftermath, reported but not an error.
pub fn cmd_recover(dir: &std::path::Path, verify: bool) -> Result<CmdOutput, EngineError> {
    use starling_storage::{SyncPolicy, WalStore};

    let bad = |msg: String| EngineError::InvalidStatement(msg);
    let is_store = |d: &std::path::Path| d.join("wal.log").is_file();
    let mut stores: Vec<(String, std::path::PathBuf)> = Vec::new();
    if is_store(dir) {
        stores.push((dir.display().to_string(), dir.to_path_buf()));
    } else if dir.is_dir() {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| bad(format!("cannot read `{}`: {e}", dir.display())))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if is_store(&path) {
                stores.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
        stores.sort();
    } else {
        return Err(bad(format!("`{}` is not a directory", dir.display())));
    }
    if stores.is_empty() {
        return Err(bad(format!(
            "no durable stores under `{}` (no wal.log found)",
            dir.display()
        )));
    }

    let mut out = String::new();
    for (name, path) in &stores {
        let (_store, recovered) = WalStore::open(path, SyncPolicy::Always)
            .map_err(|e| bad(format!("store `{name}`: recovery failed: {e}")))?;
        let db = &recovered.db;
        let rows: usize = db.tables().map(|t| t.len()).sum();
        let _ = writeln!(
            out,
            "store `{name}`: {} table(s), {rows} row(s), digest {:#018x}",
            db.tables().count(),
            db.state_digest()
        );
        let _ = writeln!(
            out,
            "  snapshot {}, {} WAL record(s) replayed, last seq {}{}",
            if recovered.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            recovered.records_applied,
            recovered.last_seq,
            if recovered.truncated_bytes > 0 {
                format!(
                    ", torn tail truncated ({} byte(s))",
                    recovered.truncated_bytes
                )
            } else {
                String::new()
            }
        );
        if verify {
            // The session-level reload re-parses the persisted rule program
            // and re-applies directives — catching anything the byte-level
            // recovery cannot see (e.g. rules text that no longer parses).
            let session = Session::open_durable(path, SyncPolicy::Always)
                .map_err(|e| bad(format!("store `{name}`: session reload failed: {e}")))?;
            if session.db().state_digest() != db.state_digest() {
                return Err(bad(format!(
                    "store `{name}`: session reload digest {:#018x} != recovered {:#018x}",
                    session.db().state_digest(),
                    db.state_digest()
                )));
            }
            let _ = writeln!(
                out,
                "  verified: {} rule(s), {} directive(s), session digest matches",
                session.rule_defs().len(),
                session.directives().len()
            );
        }
    }
    Ok(CmdOutput::ok(out))
}

/// `starling compare`: the baseline comparison (Section 9).
pub fn cmd_compare(src: &str) -> Result<String, EngineError> {
    let script = load_script(src)?;
    let ctx = script.context();
    let row = compare_all(&ctx);
    let mark = |b: bool| if b { "accept" } else { "reject" };
    let mut out = String::new();
    let _ = writeln!(out, "criterion        verdict");
    let _ = writeln!(out, "starling         {}", mark(row.starling));
    let _ = writeln!(out, "hh91-analog      {}", mark(row.hh91));
    let _ = writeln!(out, "zh90-analog      {}", mark(row.zh90));
    let _ = writeln!(out, "ras90-analog     {}", mark(row.ras90));
    if let Some((a, b)) = row.subsumption_violation() {
        let _ = writeln!(
            out,
            "SUBSUMPTION VIOLATION: {a:?} accepted but {b:?} rejected"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "
        create table t (x int);
        create table u (x int);
        insert into t values (1);
        insert into u values (0);
        create rule a on t when inserted then update u set x = 1 end;
        create rule b on t when inserted then update u set x = 2 end;
        insert into t values (5);
    ";

    #[test]
    fn load_splits_setup_and_transition() {
        let s = load_script(SCRIPT).unwrap();
        assert_eq!(s.rules.len(), 2);
        assert_eq!(s.user_actions.len(), 1);
        // Seed insert ran; user insert did not (it is the probe).
        assert_eq!(s.db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn analyze_reports_violation() {
        let text = cmd_analyze(SCRIPT, &[], false, false).unwrap();
        assert!(text.contains("MAY NOT BE CONFLUENT"), "{text}");
    }

    #[test]
    fn analyze_honors_directives() {
        let src = format!("{SCRIPT}\ndeclare commute a, b;");
        let text = cmd_analyze(&src, &[], false, false).unwrap();
        assert!(text.contains("CONFLUENCE: guaranteed"), "{text}");
    }

    /// A `declare commute` on a triggering pair is the user's certification,
    /// not a fault of the analysis: the report prints no Corollary 6.10
    /// warning for it, in either mode.
    #[test]
    fn analyze_trusts_a_certified_triggering_pair() {
        let src = "create table t (x int); create table u (x int); create table v (x int);
                   create rule a on t when inserted then insert into u values (1) end;
                   create rule b on u when inserted then insert into v values (1) end;
                   declare commute a, b;";
        let text = cmd_analyze(src, &[], false, false).unwrap();
        assert!(text.contains("CONFLUENCE: guaranteed"), "{text}");
        assert!(!text.contains("INTERNAL WARNING"), "{text}");
        let json = cmd_analyze(src, &[], false, true).unwrap();
        assert!(json.contains("\"requirement_holds\":true"), "{json}");
        assert!(!json.contains("corollary"), "{json}");
    }

    #[test]
    fn graph_text_and_dot() {
        let text = cmd_graph(SCRIPT, false).unwrap();
        assert!(text.contains("2 rules"));
        let dot = cmd_graph(SCRIPT, true).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn explore_oracle() {
        let out = cmd_explore(SCRIPT, &ExploreConfig::default(), false, false).unwrap();
        assert!(
            out.text.contains("unique final state:      NO"),
            "{}",
            out.text
        );
        // A definitive NO is still a successful analysis.
        assert_eq!(out.status, CmdStatus::Ok);
    }

    #[test]
    fn explore_dot_output() {
        let out = cmd_explore(SCRIPT, &ExploreConfig::default(), true, false).unwrap();
        assert!(out.text.starts_with("digraph execution"), "{}", out.text);
        assert!(out.text.contains("doublecircle"), "{}", out.text);
    }

    #[test]
    fn explore_requires_transition() {
        let src = "create table t (x int); \
                   create rule a on t when inserted then delete from t end;";
        assert!(cmd_explore(src, &ExploreConfig::default(), false, false).is_err());
    }

    #[test]
    fn explore_truncation_is_inconclusive_with_reason() {
        let src = "create table t (x int);
                   create rule grow on t when inserted then \
                     insert into t select x + 1 from inserted end;
                   insert into t values (1);";
        let cfg = ExploreConfig::default().with_max_states(20);
        let out = cmd_explore(src, &cfg, false, false).unwrap();
        assert_eq!(out.status, CmdStatus::Inconclusive);
        assert!(
            out.text.contains("[TRUNCATED: state budget exhausted]"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("inconclusive (state budget exhausted)"),
            "{}",
            out.text
        );
    }

    #[test]
    fn run_executes_everything() {
        let out = cmd_run(
            "create table t (x int);
             create rule bump on t when inserted then update t set x = x + 1 end;
             insert into t values (1);
             select x from t;",
            &Budget::default(),
        )
        .unwrap();
        assert!(out.text.contains("rule processing"), "{}", out.text);
        assert_eq!(out.status, CmdStatus::Ok);
    }

    #[test]
    fn run_limit_reports_dynamic_cycle_with_static_cross_reference() {
        let out = cmd_run(
            "create table t (x int);
             create table u (x int);
             create rule ping on t when inserted then insert into u values (1) end;
             create rule pong on u when inserted then insert into t values (1) end;
             insert into t values (1);",
            &Budget::default().with_max_considerations(40),
        )
        .unwrap();
        assert_eq!(out.status, CmdStatus::Inconclusive);
        assert!(
            out.text.contains("consideration budget exhausted"),
            "{}",
            out.text
        );
        assert!(
            out.text
                .contains("dynamic cycle in the consideration tail:"),
            "{}",
            out.text
        );
        // Both steps of the ping/pong loop are statically predicted.
        assert!(
            out.text
                .contains("static triggering graph confirms every step"),
            "{}",
            out.text
        );
        assert!(out.text.contains("ping"), "{}", out.text);
        assert!(out.text.contains("pong"), "{}", out.text);
    }

    #[test]
    fn run_zero_deadline_is_inconclusive() {
        let out = cmd_run(
            "create table t (x int);
             create rule bump on t when inserted then update t set x = x + 1 end;
             insert into t values (1);",
            &Budget::default().with_deadline(std::time::Duration::ZERO),
        )
        .unwrap();
        assert_eq!(out.status, CmdStatus::Inconclusive);
        assert!(out.text.contains("deadline exceeded"), "{}", out.text);
    }

    #[test]
    fn explain_shows_signature() {
        let text = cmd_explain(SCRIPT, "a").unwrap();
        assert!(text.contains("Triggered-By: {(I, t)}"), "{text}");
        assert!(text.contains("Performs:     {(U, u.x)}"), "{text}");
        assert!(text.contains("may not commute with `b`"), "{text}");
        assert!(cmd_explain(SCRIPT, "zzz").is_err());
    }

    #[test]
    fn compare_prints_chain() {
        let text = cmd_compare(SCRIPT).unwrap();
        assert!(text.contains("starling"));
        assert!(text.contains("hh91-analog"));
        assert!(!text.contains("SUBSUMPTION VIOLATION"));
    }

    #[test]
    fn analyze_with_protected_tables() {
        let text = cmd_analyze(SCRIPT, &[vec!["t".to_owned()]], false, false).unwrap();
        assert!(text.contains("PARTIAL CONFLUENCE w.r.t. {t}"), "{text}");
    }

    #[test]
    fn recover_reports_and_verifies_stores() {
        use starling_storage::SyncPolicy;
        let root = std::env::temp_dir().join(format!("starling-cli-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = root.join("alpha");

        // Seed one store through the engine's durable path.
        let mut s = Session::new();
        s.execute_script(
            "create table t (x int); \
             create rule bump on t when inserted then update t set x = x + 1 end;",
        )
        .unwrap();
        s.persist_to(&store, SyncPolicy::Always).unwrap();
        s.execute_script("insert into t values (1);").unwrap();
        s.commit(&mut FirstEligible).unwrap();

        // Nothing recoverable: clear errors for both missing and empty dirs.
        let err = cmd_recover(&root.join("nothing-here"), false).unwrap_err();
        assert!(err.to_string().contains("not a directory"), "{err}");
        let empty = root.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = cmd_recover(&empty, false).unwrap_err();
        assert!(err.to_string().contains("no durable stores"), "{err}");

        // Single-store and data-dir-scan modes agree.
        let one = cmd_recover(&store, true).unwrap();
        assert!(one.text.contains("1 table(s), 1 row(s)"), "{}", one.text);
        assert!(one.text.contains("verified: 1 rule(s)"), "{}", one.text);
        let scan = cmd_recover(&root, false).unwrap();
        assert!(scan.text.contains("store `alpha`"), "{}", scan.text);
        let _ = std::fs::remove_dir_all(&root);
    }
}
