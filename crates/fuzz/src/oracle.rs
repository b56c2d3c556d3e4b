//! The differential harness: one generated (or replayed) script, four
//! cross-checked oracles.
//!
//! | oracle       | left side                     | right side                  |
//! |--------------|-------------------------------|-----------------------------|
//! | `analyzer`   | §5–§8 static verdicts         | bounded exec-graph oracle   |
//! | `eval-mode`  | columnar-plan exploration     | row-plan exploration and    |
//! |              |                               | AST-interpreter exploration |
//! | `transport`  | in-process load + explore     | server session (wire shape) |
//! | `durability` | in-memory session commit      | WAL-attached session, then  |
//! |              |                               | drop-and-reopen recovery    |
//!
//! Directionality matters for the analyzer oracle: the static analysis
//! quantifies over *all* databases while the exec graph checks *one* initial
//! state, so only one implication is checkable — a static "guaranteed" must
//! never coexist with a dynamic counterexample ([`Verdict::Fails`]). A
//! dynamic `Holds` with a static "may not" is the analyzer being
//! conservative, which is correct. `eval-mode` and `transport` demand byte
//! equality of the serialized graph summary; `durability` demands equal
//! databases.
//!
//! A zeroth check rides along for free: each loaded rule definition must
//! survive print → parse unchanged (the fixpoint property the SQL layer's
//! property tests assert statement-by-statement, here applied to whole
//! generated rules).

use starling_analysis::loader::load_script;
use starling_analysis::report::{explore_json, explore_json_with, AnalysisReport};
use starling_engine::{
    explore_with_mode, Budget, EvalMode, ExecGraph, FirstEligible, RuleProgram, Session, Verdict,
};
use starling_server::{ErrorCode, ScriptCache, ServerSession};
use starling_sql::json::Json;
use starling_storage::SyncPolicy;

/// A deliberately injected analyzer bug, used to validate that the harness
/// actually catches unsound verdicts (the mutation check documented in
/// DESIGN.md §4g). `None` in production fuzzing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No injected bug.
    None,
    /// Pretend the analyzer certified termination for every program.
    CertifyTermination,
    /// Pretend the analyzer certified confluence for every program.
    CertifyConfluence,
    /// Pretend the analyzer certified observable determinism.
    CertifyObservable,
}

impl Mutation {
    /// Parses a CLI spelling (`none`, `certify-termination`, ...).
    pub fn from_name(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "certify-termination" => Some(Mutation::CertifyTermination),
            "certify-confluence" => Some(Mutation::CertifyConfluence),
            "certify-observable" => Some(Mutation::CertifyObservable),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::CertifyTermination => "certify-termination",
            Mutation::CertifyConfluence => "certify-confluence",
            Mutation::CertifyObservable => "certify-observable",
        }
    }
}

/// One oracle disagreement: which oracle, and what each side said.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The oracle that fired (`analyzer-termination`, `eval-mode`, ...).
    pub oracle: &'static str,
    /// Human-readable detail: both sides' answers.
    pub detail: String,
    /// For confluence findings: the compact replay-verified divergence
    /// witness, recomputed on every (re-)check so it always explains the
    /// script as written — shrunk reproducers included.
    pub witness: Option<String>,
}

/// The outcome of running one script through every oracle.
#[derive(Clone, Debug, Default)]
pub struct CaseOutcome {
    /// States in the (sequential, columnar-mode) execution graph.
    pub states: usize,
    /// Whether the exploration hit a budget.
    pub truncated: bool,
    /// Whether the user transition itself raised an engine error (the
    /// oracles then only check that every engine agrees on the error).
    pub errored: bool,
    /// The first disagreement found, if any.
    pub disagreement: Option<Disagreement>,
}

fn disagree(oracle: &'static str, detail: String) -> CaseOutcome {
    CaseOutcome {
        disagreement: Some(Disagreement {
            oracle,
            detail,
            witness: None,
        }),
        ..CaseOutcome::default()
    }
}

/// The server side of the `transport` oracle: load the script into a fresh
/// in-process [`ServerSession`] and run `explore` through the protocol
/// handler — cache, session restore, request budget parsing and the
/// inconclusive-error envelope included. Returns the serialized graph
/// summary (a truncated exploration's partial result counts: it travels in
/// the error's `data` member with the same shape).
fn server_explore_json(src: &str, budget: &Budget) -> Result<String, String> {
    let cache = ScriptCache::new();
    let mut session = ServerSession::new();
    let load = Json::obj([("op", Json::from("load")), ("script", Json::from(src))]);
    session
        .handle_op("load", &load, &cache)
        .map_err(|(c, m, _)| format!("load: {} {m}", c.as_str()))?;
    let req = Json::obj([
        ("op", Json::from("explore")),
        (
            "budget",
            Json::obj([
                ("max_considerations", Json::from(budget.max_considerations)),
                ("max_states", Json::from(budget.max_states)),
                ("max_paths", Json::from(budget.max_paths)),
                ("max_rows", Json::from(budget.max_rows)),
            ]),
        ),
    ]);
    match session.handle_op("explore", &req, &cache) {
        Ok(result) => Ok(result.to_string()),
        Err((ErrorCode::Inconclusive, _, Some(data))) => Ok(data.to_string()),
        Err((c, m, _)) => Err(format!("explore: {} {m}", c.as_str())),
    }
}

/// The `durability` oracle: the same script through an in-memory session
/// and a WAL-attached session must produce identical state (a durable
/// attachment must not change semantics), and dropping the durable session
/// *without* a final snapshot — the crash simulation — must recover exactly
/// the acknowledged state: digest and full database equality (tuple-id
/// allocator included), rule definitions, and directives.
fn durability_check(src: &str, budget: &Budget) -> Option<Disagreement> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "starling-fuzz-dur-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let result = durability_check_in(src, budget, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn durability_check_in(src: &str, budget: &Budget, dir: &std::path::Path) -> Option<Disagreement> {
    let fail = |detail: String| {
        Some(Disagreement {
            oracle: "durability",
            witness: None,
            detail,
        })
    };
    let mut mem = Session::new();
    let mut dur = Session::new();
    // A tight consideration cap bounds commit-time rule processing:
    // generated programs are often nonterminating, and — unlike the
    // exploration oracles, whose budget carries `max_rows` — a session
    // commit has no row cap, so a table-doubling rule under the full case
    // budget would grow state exponentially. A handful of firings exercises
    // the WAL exactly as well, and both sides hitting the limit (with
    // identical truncated state) is itself an agreement.
    let cap = budget.max_considerations.min(6);
    mem.budget.max_considerations = cap;
    dur.budget.max_considerations = cap;
    if let Err(e) = dur.persist_to(dir, SyncPolicy::Batch) {
        return fail(format!("persist_to failed on an empty store: {e}"));
    }
    let mem_exec = mem.execute_script(src).map(|_| ());
    let dur_exec = dur.execute_script(src).map(|_| ());
    match (&mem_exec, &dur_exec) {
        (Ok(()), Ok(())) => {}
        (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
        (a, b) => {
            return fail(format!(
                "script execution diverged:\nin-memory: {a:?}\ndurable:   {b:?}"
            ))
        }
    }
    if mem_exec.is_ok() {
        let mem_run = mem.commit(&mut FirstEligible);
        let dur_run = dur.commit(&mut FirstEligible);
        match (&mem_run, &dur_run) {
            (Ok(a), Ok(b)) if a.outcome == b.outcome => {}
            (Err(a), Err(b)) if a.to_string() == b.to_string() => {}
            (a, b) => {
                return fail(format!(
                    "commit diverged:\nin-memory: {a:?}\ndurable:   {b:?}"
                ))
            }
        }
        if mem.db() != dur.db() {
            return fail(format!(
                "durable attachment changed semantics: in-memory digest {:#018x}, \
                 durable {:#018x}",
                mem.db().state_digest(),
                dur.db().state_digest()
            ));
        }
    }
    // Crash simulation: the acknowledged state is whatever the attachment
    // last acked; drop without a final snapshot and reopen from disk.
    let Some(att) = dur.durability() else {
        return fail("durable session lost its attachment".into());
    };
    let base_db = att.base_db().clone();
    let base_defs = att.base_defs().to_vec();
    let base_directives = att.base_directives().to_vec();
    drop(dur);
    let reopened = match Session::open_durable(dir, SyncPolicy::Batch) {
        Ok(s) => s,
        Err(e) => return fail(format!("reopen after simulated crash failed: {e}")),
    };
    if *reopened.db() != base_db {
        return fail(format!(
            "recovered database differs from acknowledged state: recovered digest \
             {:#018x}, acknowledged {:#018x}",
            reopened.db().state_digest(),
            base_db.state_digest()
        ));
    }
    if reopened.rule_defs() != base_defs.as_slice() {
        return fail(format!(
            "recovered rule definitions differ: {} recovered vs {} acknowledged",
            reopened.rule_defs().len(),
            base_defs.len()
        ));
    }
    if reopened.directives() != base_directives.as_slice() {
        return fail(format!(
            "recovered directives differ: {} recovered vs {} acknowledged",
            reopened.directives().len(),
            base_directives.len()
        ));
    }
    None
}

/// Runs one script through all oracles and reports the first disagreement.
///
/// The script must follow the loader convention (seed DML before the rules,
/// user transition after). A script with no user transition only gets the
/// static analysis and round-trip checks — the dynamic oracles are vacuous.
pub fn check_script(src: &str, budget: &Budget, mutation: Mutation) -> CaseOutcome {
    // Generated scripts are valid by construction and corpus scripts were
    // valid when pinned, so a load failure is itself a finding (a
    // parser/validator/loader regression), not a skip.
    let loaded = match load_script(src) {
        Ok(l) => l,
        Err(e) => return disagree("load", format!("script failed to load: {e}")),
    };

    // Zeroth oracle: print → parse must be a fixpoint on every rule.
    for def in &loaded.defs {
        let printed = format!("{def};");
        let detail = match RuleProgram::parse(&printed) {
            Ok(p) if p.defs.as_slice() == std::slice::from_ref(def) => continue,
            Ok(_) => format!("printed rule re-parses differently:\n{printed}"),
            Err(e) => format!("printed rule does not re-parse: {e}\n{printed}"),
        };
        return disagree("round-trip", detail);
    }

    // Oracle: durability. Runs the whole script (user transition
    // included) through an in-memory and a WAL-attached session, then a
    // drop-and-reopen crash simulation — so it fires on every case, even
    // ones with no explorable transition or an erroring transition (where
    // the durable store must stay at the pre-transaction state). Mutations
    // perturb only the *analyzer*, never execution or storage, so mutation
    // campaigns (and their shrink loops, which replay `check_script` on
    // every candidate) skip the disk round-trip.
    if mutation == Mutation::None {
        if let Some(d) = durability_check(src, budget) {
            return CaseOutcome {
                disagreement: Some(d),
                ..CaseOutcome::default()
            };
        }
    }

    // Static analysis, with the optional injected bug.
    let ctx = loaded.context();
    let report = AnalysisReport::run(&ctx, &[]);
    let term_ok = report.termination.is_guaranteed() || mutation == Mutation::CertifyTermination;
    let conf_ok = report.confluence_guaranteed() || mutation == Mutation::CertifyConfluence;
    let obs_ok = report.observable.is_guaranteed() || mutation == Mutation::CertifyObservable;

    if loaded.user_actions.is_empty() {
        return CaseOutcome::default();
    }

    // Dynamic side: the same exploration under all three evaluation modes.
    let explore = |mode| {
        explore_with_mode(
            &loaded.rules,
            &loaded.db,
            &loaded.user_actions,
            budget,
            mode,
        )
    };
    let columnar = explore(EvalMode::Columnar);
    let plan = explore(EvalMode::Plan);
    let interp = explore(EvalMode::Interp);
    let (g, gr, gi) = match (columnar, plan, interp) {
        (Ok(g), Ok(gr), Ok(gi)) => (g, gr, gi),
        (Err(a), Err(b), Err(c)) => {
            // The transition errors: every engine must agree on the error.
            if a.to_string() != b.to_string() || a.to_string() != c.to_string() {
                return disagree(
                    "eval-mode",
                    format!("columnar error: {a}\nrow-plan error: {b}\ninterp error:   {c}"),
                );
            }
            match server_explore_json(src, budget) {
                Ok(j) => {
                    return disagree(
                        "transport",
                        format!("in-process explore errored ({a}) but server returned: {j}"),
                    )
                }
                Err(m) if !m.ends_with(&a.to_string()) => {
                    return disagree(
                        "transport",
                        format!("in-process error: {a}\nserver error: {m}"),
                    )
                }
                Err(_) => {}
            }
            return CaseOutcome {
                errored: true,
                ..CaseOutcome::default()
            };
        }
        (c, p, i) => {
            let desc = |r: &Result<ExecGraph, _>| match r {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("error: {e}"),
            };
            return disagree(
                "eval-mode",
                format!(
                    "modes disagree on success:\ncolumnar: {}\nrow-plan: {}\ninterp:   {}",
                    desc(&c),
                    desc(&p),
                    desc(&i)
                ),
            );
        }
    };

    let outcome = |g: &ExecGraph, disagreement: Option<Disagreement>| CaseOutcome {
        states: g.states.len(),
        truncated: g.truncated(),
        errored: false,
        disagreement,
    };

    // Oracle: columnar vs row-plan vs interp, byte-identical serialized
    // summaries.
    let verdicts = g.verdicts(budget);
    let columnar_json = explore_json_with(&g, &verdicts).to_string();
    let plan_json = explore_json(&gr, budget).to_string();
    let interp_json = explore_json(&gi, budget).to_string();
    if columnar_json != plan_json || columnar_json != interp_json {
        return outcome(
            &g,
            Some(Disagreement {
                oracle: "eval-mode",
                witness: None,
                detail: format!(
                    "columnar: {columnar_json}\nrow-plan: {plan_json}\ninterp:   {interp_json}"
                ),
            }),
        );
    }

    // Oracle: analyzer vs exec graph. A static guarantee must never meet a
    // dynamic counterexample.
    if term_ok && verdicts.termination == Verdict::Fails {
        return outcome(
            &g,
            Some(Disagreement {
                oracle: "analyzer-termination",
                witness: None,
                detail: "static: termination guaranteed; oracle: found a cycle in the \
                         execution graph (nonterminating path)"
                    .into(),
            }),
        );
    }
    if conf_ok && verdicts.confluence == Verdict::Fails {
        // Provenance: attach a minimal divergence witness, but only after
        // it replays through the engine to the claimed digests — the
        // reproducer header must never carry an unverified explanation.
        let witness = starling_provenance::witness::extract(&loaded.rules, &g).and_then(|w| {
            match starling_provenance::witness::verify(
                &loaded.rules,
                &loaded.db,
                &loaded.user_actions,
                &w,
            ) {
                Ok(true) => Some(starling_provenance::witness_compact(&loaded.rules, &w)),
                _ => None,
            }
        });
        return outcome(
            &g,
            Some(Disagreement {
                oracle: "analyzer-confluence",
                witness,
                detail: format!(
                    "static: confluence guaranteed; oracle: {} distinct final database \
                     state(s)",
                    g.final_db_digests().len()
                ),
            }),
        );
    }
    // Observable determinism presumes termination (Section 8): only compare
    // when the static side claims both.
    if obs_ok && term_ok && verdicts.observable_determinism == Verdict::Fails {
        return outcome(
            &g,
            Some(Disagreement {
                oracle: "analyzer-observable",
                witness: None,
                detail: "static: observable determinism guaranteed; oracle: found \
                         distinct observable streams"
                    .into(),
            }),
        );
    }

    // Oracle: transport. The in-process summary is exactly what the CLI's
    // `explore --json` prints; the server must produce the same bytes.
    match server_explore_json(src, budget) {
        Ok(server_json) => {
            if server_json != columnar_json {
                return outcome(
                    &g,
                    Some(Disagreement {
                        oracle: "transport",
                        witness: None,
                        detail: format!("cli:    {columnar_json}\nserver: {server_json}"),
                    }),
                );
            }
        }
        Err(m) => {
            return outcome(
                &g,
                Some(Disagreement {
                    oracle: "transport",
                    witness: None,
                    detail: format!("in-process explore succeeded but server failed: {m}"),
                }),
            )
        }
    }

    outcome(&g, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "create table t (x int);\n\
                         create table log (x int);\n\
                         insert into t values (1);\n\
                         create rule a on t when inserted then \
                           insert into log select x from inserted end;\n\
                         insert into t values (5);\n";

    #[test]
    fn clean_script_has_no_disagreement() {
        let out = check_script(CLEAN, &Budget::default(), Mutation::None);
        assert!(out.disagreement.is_none(), "{:?}", out.disagreement);
        assert!(out.states > 0);
        assert!(!out.truncated);
    }

    #[test]
    fn injected_termination_bug_is_caught() {
        // A two-state toggle: the execution graph is finite and cyclic, so
        // the oracle proves nontermination; the mutation pretends the
        // analyzer certified termination anyway.
        let src = "create table t (x int);\n\
                   insert into t values (0);\n\
                   create rule flip on t when updated(x) then \
                     update t set x = 1 - x end;\n\
                   update t set x = 1 - x;\n";
        let out = check_script(src, &Budget::default(), Mutation::CertifyTermination);
        let d = out.disagreement.expect("mutation must be caught");
        assert_eq!(d.oracle, "analyzer-termination");
        // Without the mutation the same script is clean: the analyzer
        // honestly reports "may not terminate", which the oracle confirms.
        let honest = check_script(src, &Budget::default(), Mutation::None);
        assert!(honest.disagreement.is_none(), "{:?}", honest.disagreement);
    }

    #[test]
    fn injected_confluence_bug_is_caught() {
        let src = "create table t (x int);\n\
                   create table out1 (v int);\n\
                   insert into out1 values (0);\n\
                   create rule a on t when inserted then \
                     update out1 set v = v * 2 + 1 end;\n\
                   create rule b on t when inserted then \
                     update out1 set v = v * 3 end;\n\
                   insert into t values (1);\n";
        let out = check_script(src, &Budget::default(), Mutation::CertifyConfluence);
        let d = out.disagreement.expect("mutation must be caught");
        assert_eq!(d.oracle, "analyzer-confluence");
    }

    #[test]
    fn load_failure_is_a_finding() {
        let out = check_script("create table t (x int;", &Budget::default(), Mutation::None);
        assert_eq!(out.disagreement.expect("must fire").oracle, "load");
    }
}
