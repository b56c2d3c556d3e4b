//! One connection's session: an engine [`Session`] seeded from a cached
//! program snapshot and driven through the §6.4 loop
//! ([`InteractiveSession`]), plus the per-session request handlers.
//!
//! ## Isolation
//!
//! Each connection owns its session outright. The database handed out at
//! `load` is a copy-on-write snapshot (PR 2): sessions of the same program
//! share physical tables until one writes, and no session can observe
//! another's writes.
//!
//! ## Request atomicity
//!
//! Every mutating request is atomic at the *request* level, which is
//! stronger than the CLI: on any error response — script error, abort, or
//! budget exhaustion — the session is reset to the [`Session::state`] taken
//! when the request arrived (database, rule program, compiled rules: three
//! refcounts), and keeps its store attachment. A budget-exhausted `exec`
//! therefore never commits a partially processed transition, and the error
//! code tells the client which budget ran out.

use std::sync::Arc;

use starling_analysis::report::explore_json_with;
use starling_analysis::InteractiveSession;
use starling_engine::{explore, Budget, EngineError, FirstEligible, Outcome, RuleSet, Session};
use starling_provenance::{explanation_json, ProvCounters};
use starling_sql::ast::{Action, Directive, Statement};
use starling_sql::json::{digest_json, Json};
use starling_sql::parse_script;
use starling_storage::{Database, Value};

use crate::cache::ScriptCache;
use crate::protocol::{budget_from_request, str_field, ErrorCode};
use crate::server::DurableRoot;

/// Per-session counters, reported by the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionMetrics {
    /// Requests handled (including failed ones).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Rule considerations across all `exec` requests.
    pub considerations: u64,
    /// States expanded across all `explore` requests.
    pub states_explored: u64,
}

impl SessionMetrics {
    fn to_json(self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests as i64)),
            ("errors", Json::from(self.errors as i64)),
            ("considerations", Json::from(self.considerations as i64)),
            ("states_explored", Json::from(self.states_explored as i64)),
        ])
    }
}

/// A session-level error: code, message, optional partial result.
pub type OpError = (ErrorCode, String, Option<Json>);

/// A session-level success or failure.
pub type OpResult = Result<Json, OpError>;

/// A malformed request.
fn protocol(msg: impl Into<String>) -> OpError {
    (ErrorCode::Protocol, msg.into(), None)
}

/// A well-formed request the session cannot serve as sent.
fn script(msg: impl Into<String>) -> OpError {
    (ErrorCode::Script, msg.into(), None)
}

/// An engine failure. A storage cause — an unreadable or corrupt store, a
/// failed append — is `aborted`: nothing the client sent is wrong, and
/// re-sending the script (the `script` remedy) would not help. Everything
/// else is what the script author caused.
fn engine(e: EngineError) -> OpError {
    let code = match e.storage_cause() {
        Some(_) => ErrorCode::Aborted,
        None => ErrorCode::Script,
    };
    (code, e.to_string(), None)
}

/// One connection's server-side session state.
pub struct ServerSession {
    /// The engine session and its §6.4 driver: `analyze` after a
    /// `certify`/`order` refinement re-derives only the dirtied pairs.
    driver: InteractiveSession,
    /// The loaded script's user transition — the default probe for
    /// `explore` when the request does not carry its own DML.
    default_actions: Vec<Action>,
    /// The server's durable data directory, if it has one.
    durable_root: Option<Arc<DurableRoot>>,
    /// The store name this session is attached to, if any (holds the
    /// single-writer claim in `durable_root`).
    persist_name: Option<String>,
    /// Counters for `stats`.
    pub metrics: SessionMetrics,
    /// Provenance counters (traces, witnesses, minimization), for `stats`.
    prov: ProvCounters,
    /// The last `explore`'s inputs, kept so `explain` can re-derive its
    /// provenance without the client resending the probe. The database is
    /// a copy-on-write snapshot: a refcount, not a copy.
    last_explore: Option<LastExplore>,
}

/// Everything `explain` needs to re-run the session's last exploration.
struct LastExplore {
    rules: Arc<RuleSet>,
    db: Database,
    actions: Vec<Action>,
    budget: Budget,
}

impl ServerSession {
    /// An empty session (no program loaded).
    pub fn new() -> Self {
        ServerSession {
            driver: InteractiveSession::new(Session::new()),
            default_actions: Vec::new(),
            durable_root: None,
            persist_name: None,
            metrics: SessionMetrics::default(),
            prov: ProvCounters::new(),
            last_explore: None,
        }
    }

    /// Hands this session the server's durable root (set once by the
    /// connection loop, before any request is handled).
    pub fn set_durable_root(&mut self, root: Option<Arc<DurableRoot>>) {
        self.durable_root = root;
    }

    /// Detaches from the current durable store, if any (final snapshot
    /// included), then releases the single-writer claim.
    fn detach_durable(&mut self) {
        self.driver.session.detach_durable();
        if let (Some(name), Some(root)) = (self.persist_name.take(), &self.durable_root) {
            root.release(&name);
        }
    }

    /// Dispatches one session-level op. Server-level ops (`stats` partly,
    /// `shutdown`, `quit`) are handled by the executor's `dispatch` before
    /// it gets here; under the worker pool, sessions migrate across worker
    /// threads between requests (hence `ServerSession: Send`), but at most
    /// one request executes per session at a time, so `&mut self` remains
    /// the honest signature.
    pub fn handle_op(&mut self, op: &str, req: &Json, cache: &ScriptCache) -> OpResult {
        match op {
            "ping" => Ok(Json::obj([("pong", Json::Bool(true))])),
            "load" => self.op_load(req, cache),
            "exec" => self.op_exec(req),
            "analyze" => self.op_analyze(req),
            "explore" => self.op_explore(req),
            "explain" => self.op_explain(req),
            "certify" => self.op_certify(req),
            "order" => self.op_order(req),
            "digest" => self.op_digest(req),
            other => Err(protocol(format!("unknown op `{other}`"))),
        }
    }

    /// Session-level stats, embedded in the server's `stats` response.
    /// Includes the incremental analyzer's pair-cache counters so clients
    /// can observe that a certify/order refinement step reused verdicts.
    pub fn stats_json(&self) -> Json {
        let a = self.driver.analysis_stats();
        let Json::Obj(mut fields) = self.metrics.to_json() else {
            unreachable!("metrics serialize to an object");
        };
        fields.push((
            "pair_cache".into(),
            Json::obj([
                ("hits", Json::from(a.pair.hits as i64)),
                ("misses", Json::from(a.pair.misses as i64)),
                ("invalidations", Json::from(a.pair.invalidations as i64)),
                ("obs_hits", Json::from(a.obs_pair.hits as i64)),
                ("obs_misses", Json::from(a.obs_pair.misses as i64)),
                (
                    "obs_invalidations",
                    Json::from(a.obs_pair.invalidations as i64),
                ),
                ("full_sweeps", Json::from(a.full_sweeps as i64)),
                (
                    "incremental_sweeps",
                    Json::from(a.incremental_sweeps as i64),
                ),
                (
                    "last_rechecked_pairs",
                    Json::from(a.last_rechecked_pairs as i64),
                ),
            ]),
        ));
        fields.push(("provenance".into(), self.prov.to_json()));
        Json::Obj(fields)
    }

    /// `load`: seed this session from a (cached) compiled program — either
    /// `"script"` (full source, loaded through the cache) or `"digest"`
    /// (attach to an already-cached program without re-sending the source;
    /// a `script`-coded error tells the client to fall back to a full
    /// load). The database handout is a copy-on-write snapshot; the rule
    /// set is the shared compilation.
    ///
    /// With `"persist": "<name>"` (durable servers only) the session binds
    /// to the named store under the data dir: together with a script the
    /// store must be empty (fresh initialization); without one the session
    /// attaches to the store's recovered state. A store has at most one
    /// writer at a time.
    fn op_load(&mut self, req: &Json, cache: &ScriptCache) -> OpResult {
        let persist = match req.get("persist") {
            None => None,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| protocol("`persist` must be a string store name"))?;
                if !valid_store_name(name) {
                    return Err(protocol("store names are 1-64 characters of [a-z0-9_-]"));
                }
                if self.durable_root.is_none() {
                    return Err(protocol(
                        "this server has no data dir; start it with --data-dir to \
                         use persistent stores",
                    ));
                }
                Some(name)
            }
        };
        if let Some(name) = persist {
            if req.get("script").is_none() && req.get("digest").is_none() {
                return self.attach_store(name);
            }
        }
        let (loaded, cached, key) = if let Some(d) = req.get("digest") {
            let key = d
                .as_str()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| protocol("`digest` must be a 16-hex-digit string"))?;
            let loaded = cache
                .get_by_digest(key)
                .ok_or_else(|| script("unknown script digest; send the full script"))?;
            (loaded, true, key)
        } else {
            let src = str_field(req, "script").map_err(protocol)?;
            let (loaded, cached) = cache.load(src).map_err(engine)?;
            (loaded, cached, ScriptCache::digest(src))
        };
        // Only now — after the program is known-good — claim the new store
        // and drop any previous attachment, so a failed load keeps both the
        // old session and its store binding intact.
        let root = persist.map(|name| self.claim_store(name)).transpose()?;
        self.detach_durable();
        self.driver.session.reset_to(loaded.state.clone());
        self.default_actions = loaded.user_actions.clone();
        if let Some((name, root)) = persist.zip(root) {
            if let Err(e) = self
                .driver
                .session
                .persist_to(root.dir().join(name), root.sync())
            {
                // The freshly loaded program stays usable in memory; only
                // the durable binding failed (e.g. the store already holds
                // data — attach instead of initializing).
                root.release(name);
                return Err(engine(e));
            }
            self.persist_name = Some(name.to_owned());
        }
        let mut fields = vec![
            ("rules", Json::from(self.driver.session.rule_defs().len())),
            ("user_actions", Json::from(self.default_actions.len())),
            ("cached", Json::from(cached)),
            ("script_digest", digest_json(key)),
        ];
        if let Some(name) = &self.persist_name {
            fields.push(("persist", Json::from(name.as_str())));
        }
        Ok(Json::obj(fields))
    }

    /// Claims `name` for exclusive attachment and returns the root it was
    /// claimed in. The caller detaches the previous binding afterwards.
    fn claim_store(&mut self, name: &str) -> Result<Arc<DurableRoot>, OpError> {
        let root = Arc::clone(self.durable_root.as_ref().expect("checked by op_load"));
        // Re-binding to our own store must release first, or the claim
        // below would see the name taken — by us.
        if self.persist_name.as_deref() == Some(name) {
            self.detach_durable();
        }
        if !root.claim(name) {
            return Err(script(format!(
                "store `{name}` is attached by another session"
            )));
        }
        Ok(root)
    }

    /// `load` with `persist` but no program: attach to the named store's
    /// recovered state.
    fn attach_store(&mut self, name: &str) -> OpResult {
        let root = self.claim_store(name)?;
        self.detach_durable();
        let opened = Session::open_durable(root.dir().join(name), root.sync());
        self.driver.session = opened.map_err(|e| {
            root.release(name);
            engine(e)
        })?;
        self.default_actions = Vec::new();
        self.persist_name = Some(name.to_owned());
        Ok(Json::obj([
            ("rules", Json::from(self.driver.session.rule_defs().len())),
            ("user_actions", Json::Int(0)),
            ("cached", Json::Bool(false)),
            ("persist", Json::from(name)),
            ("recovered", Json::Bool(true)),
            (
                "digest",
                digest_json(self.driver.session.db().state_digest()),
            ),
        ]))
    }

    /// `exec`: DDL/DML with rule processing at the commit assertion point,
    /// bounded by the per-request budget.
    fn op_exec(&mut self, req: &Json) -> OpResult {
        let sql = str_field(req, "sql").map_err(protocol)?;
        let budget = budget_from_request(req).map_err(protocol)?;
        let session = &mut self.driver.session;
        let cp = session.state();
        session.budget = budget;
        let ran = session
            .execute_script(sql)
            .and_then(|outputs| Ok((outputs, session.commit(&mut FirstEligible)?)));
        let (outputs, run) = match ran {
            Ok(r) => r,
            Err(e) => {
                session.reset_to(cp);
                return Err(engine(e));
            }
        };
        self.metrics.considerations += run.considerations.len() as u64;
        let summary = Json::obj([
            ("considerations", Json::from(run.considerations.len())),
            ("fired", Json::from(run.fired_count())),
            ("outcome", Json::from(outcome_str(run.outcome))),
        ]);
        match run.outcome {
            Outcome::Quiescent | Outcome::RolledBack => Ok(Json::obj([
                ("outputs", Json::arr(outputs.iter().map(output_json))),
                ("run", summary),
                ("digest", digest_json(session.db().state_digest())),
            ])),
            Outcome::Aborted => {
                session.reset_to(cp);
                let msg = run.error.map(|e| e.to_string());
                let msg = msg.unwrap_or_else(|| "transaction aborted".to_owned());
                Err((ErrorCode::Aborted, msg, Some(summary)))
            }
            Outcome::LimitExceeded => {
                session.reset_to(cp);
                let msg = run.truncation.map(|r| r.to_string());
                let msg = msg.unwrap_or_else(|| "budget exhausted".to_owned());
                Err((ErrorCode::Inconclusive, msg, Some(summary)))
            }
        }
    }

    /// `analyze`: the §5–§8 static report over the session's current rules
    /// and certifications — exactly the CLI `--json` shape.
    fn op_analyze(&mut self, req: &Json) -> OpResult {
        let refine = match req.get("refine") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| protocol("`refine` must be a boolean"))?,
        };
        let protect = parse_protect(req)?;
        let report = self.driver.analyze(refine, &protect).map_err(|e| match e {
            // Only the protect check refuses this way (compiling never
            // does); its message goes out without the variant's prefix.
            EngineError::InvalidStatement(msg) => script(msg),
            e => engine(e),
        })?;
        Ok(report.to_json())
    }

    /// `explore`: the execution-graph oracle over the session's current
    /// database, probing either the request's DML or the loaded script's
    /// user transition, bounded by the per-request budget. A truncated or
    /// undecided exploration is an `inconclusive` error whose `data`
    /// carries the partial graph summary (same shape as a success).
    fn op_explore(&mut self, req: &Json) -> OpResult {
        let budget = budget_from_request(req).map_err(protocol)?;
        let actions: Vec<Action> = match req.get("sql") {
            None => self.default_actions.clone(),
            Some(v) => {
                let sql = v
                    .as_str()
                    .ok_or_else(|| protocol("`sql` must be a string"))?;
                parse_actions(sql)?
            }
        };
        if actions.is_empty() {
            return Err(script(
                "explore needs a user transition: pass `sql` or load a script with \
                 DML after the rule definitions",
            ));
        }
        let rules = self.driver.session.ruleset_arc().map_err(engine)?.clone();
        let g = explore(&rules, self.driver.session.db(), &actions, &budget).map_err(engine)?;
        self.metrics.states_explored += g.states.len() as u64;
        self.prov.record_explore(&g);
        // Keep the probe (even for an inconclusive exploration) so a
        // follow-up `explain` can derive the divergence witness.
        self.last_explore = Some(LastExplore {
            rules: rules.clone(),
            db: self.driver.session.db().clone(),
            actions: actions.clone(),
            budget,
        });
        let verdicts = g.verdicts(&budget);
        let result = explore_json_with(&g, &verdicts);
        if verdicts.inconclusive().is_some() {
            let msg = g
                .truncation
                .map(|r| r.to_string())
                .unwrap_or_else(|| "a verdict is inconclusive under this budget".to_owned());
            return Err((ErrorCode::Inconclusive, msg, Some(result)));
        }
        Ok(result)
    }

    /// `explain`: why-provenance for the session's last `explore`. Re-runs
    /// that exploration and answers with the choice-point
    /// count plus — when the oracle reached more than one final database
    /// state — a minimal, replay-verified divergence witness (`null` when
    /// confluent). The graph summary rides along in the `explore` field.
    fn op_explain(&mut self, _req: &Json) -> OpResult {
        let last = self
            .last_explore
            .as_ref()
            .ok_or_else(|| script("explain needs a prior explore on this session"))?;
        let ex = starling_provenance::explain_divergence(
            &last.rules,
            &last.db,
            &last.actions,
            &last.budget,
        )
        .map_err(engine)?;
        self.prov.record_explore(&ex.graph);
        if let Some(w) = &ex.witness {
            self.prov.record_witness(w);
        }
        Ok(explanation_json(&last.rules, &ex, &last.budget))
    }

    /// `certify`: the §6.4 refinement loop's certification step, as a
    /// stateful session mutation. `{"kind":"commute","a":..,"b":..}` or
    /// `{"kind":"terminates","rule":..,"justification":..}`.
    fn op_certify(&mut self, req: &Json) -> OpResult {
        let kind = str_field(req, "kind").map_err(protocol)?;
        let directive = match kind {
            "commute" => {
                let a = str_field(req, "a").map_err(protocol)?;
                let b = str_field(req, "b").map_err(protocol)?;
                Directive::Commute(a.to_owned(), b.to_owned())
            }
            "terminates" => {
                let rule = str_field(req, "rule").map_err(protocol)?;
                let justification = match req.get("justification") {
                    None => "certified via protocol",
                    Some(v) => v
                        .as_str()
                        .ok_or_else(|| protocol("`justification` must be a string"))?,
                };
                Directive::Terminates {
                    rule: rule.to_owned(),
                    justification: justification.to_owned(),
                }
            }
            other => return Err(protocol(format!("unknown certify kind `{other}`"))),
        };
        self.driver.certify(directive).map_err(engine)?;
        Ok(Json::obj([(
            "directives",
            Json::from(self.driver.session.directives().len()),
        )]))
    }

    /// `order`: the §6.4 refinement loop's ordering step —
    /// `{"higher":..,"lower":..}` adds the priority `higher precedes
    /// lower` to the session's rule definitions. An unknown rule, a
    /// self-order or a reversed ordering is a `script` error that changes
    /// nothing.
    fn op_order(&mut self, req: &Json) -> OpResult {
        let higher = str_field(req, "higher").map_err(protocol)?;
        let lower = str_field(req, "lower").map_err(protocol)?;
        self.driver.order(higher, lower).map_err(engine)?;
        Ok(Json::obj([(
            "ordered",
            Json::arr([Json::from(higher), Json::from(lower)]),
        )]))
    }

    /// `digest`: the canonical content digest of the session database
    /// (optionally restricted to `"tables":[...]`) — the byte-level
    /// isolation witness used by the tests.
    fn op_digest(&mut self, req: &Json) -> OpResult {
        let d = match req.get("tables") {
            None => self.driver.session.db().state_digest(),
            Some(v) => {
                let names = v
                    .as_arr()
                    .and_then(|items| items.iter().map(Json::as_str).collect::<Option<Vec<_>>>())
                    .ok_or_else(|| protocol("`tables` must be an array of strings"))?;
                self.driver.session.db().digest_of_tables(&names)
            }
        };
        Ok(Json::obj([("digest", digest_json(d))]))
    }
}

impl Default for ServerSession {
    fn default() -> Self {
        ServerSession::new()
    }
}

impl Drop for ServerSession {
    /// Disconnect (including server drain) writes a final snapshot and
    /// frees the store for the next session.
    fn drop(&mut self) {
        self.detach_durable();
    }
}

/// Store names become directory names under the data dir; the tight
/// charset is the traversal guard.
fn valid_store_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// Parses a DML-only script into the actions of a user transition.
fn parse_actions(sql: &str) -> Result<Vec<Action>, OpError> {
    let stmts = parse_script(sql).map_err(|e| script(e.to_string()))?;
    stmts
        .into_iter()
        .map(|s| match s {
            Statement::Dml(a) => Ok(a),
            other => Err(script(format!(
                "explore transitions must be DML only, got {other}"
            ))),
        })
        .collect()
}

/// Parses the `analyze` op's `"protect"` member: an array of arrays of
/// table names, one entry per protected subset.
fn parse_protect(req: &Json) -> Result<Vec<Vec<String>>, OpError> {
    let Some(v) = req.get("protect") else {
        return Ok(Vec::new());
    };
    let bad = || protocol("`protect` must be an array of arrays of table names");
    let outer = v.as_arr().ok_or_else(bad)?;
    outer
        .iter()
        .map(|sub| {
            let names = sub.as_arr().ok_or_else(bad)?;
            names
                .iter()
                .map(|n| n.as_str().map(str::to_owned).ok_or_else(bad))
                .collect()
        })
        .collect()
}

fn outcome_str(o: Outcome) -> &'static str {
    match o {
        Outcome::Quiescent => "quiescent",
        Outcome::RolledBack => "rolled_back",
        Outcome::LimitExceeded => "limit_exceeded",
        Outcome::Aborted => "aborted",
    }
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

fn output_json(o: &starling_engine::session::ScriptOutput) -> Json {
    use starling_engine::session::ScriptOutput;
    match o {
        ScriptOutput::TableCreated(t) => Json::obj([
            ("type", Json::from("table_created")),
            ("name", Json::from(t.as_str())),
        ]),
        ScriptOutput::RuleCreated(r) => Json::obj([
            ("type", Json::from("rule_created")),
            ("name", Json::from(r.as_str())),
        ]),
        ScriptOutput::RuleDropped(r) => Json::obj([
            ("type", Json::from("rule_dropped")),
            ("name", Json::from(r.as_str())),
        ]),
        ScriptOutput::RuleAltered(r) => Json::obj([
            ("type", Json::from("rule_altered")),
            ("name", Json::from(r.as_str())),
        ]),
        ScriptOutput::Modified(n) => {
            Json::obj([("type", Json::from("modified")), ("count", Json::from(*n))])
        }
        ScriptOutput::Rows(rs) => Json::obj([
            ("type", Json::from("rows")),
            (
                "columns",
                Json::arr(rs.columns.iter().map(|c| Json::from(c.as_str()))),
            ),
            (
                "rows",
                Json::arr(
                    rs.rows
                        .iter()
                        .map(|row| Json::arr(row.iter().map(value_json))),
                ),
            ),
        ]),
        ScriptOutput::DirectiveRecorded => Json::obj([("type", Json::from("directive"))]),
        ScriptOutput::RolledBack => Json::obj([("type", Json::from("rolled_back"))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "create table t (x int);\n\
                          create table u (x int);\n\
                          insert into u values (0);\n\
                          create rule a on t when inserted then update u set x = 1 end;\n\
                          create rule b on t when inserted then update u set x = 2 end;\n\
                          insert into t values (5);";

    fn loaded() -> (ServerSession, ScriptCache) {
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        let req = Json::obj([("script", Json::from(SCRIPT))]);
        s.handle_op("load", &req, &cache).unwrap();
        (s, cache)
    }

    #[test]
    fn explain_after_explore_returns_verified_witness() {
        let (mut s, cache) = loaded();
        // explain before any explore is a script error.
        let err = s
            .handle_op("explain", &Json::parse("{}").unwrap(), &cache)
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::Script);
        s.handle_op("explore", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        let r = s
            .handle_op("explain", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        let w = r.get("witness").expect("witness field");
        assert_eq!(w.get("replay_verified").and_then(Json::as_bool), Some(true));
        assert_ne!(
            w.get("left").and_then(|b| b.get("final_db_digest")),
            w.get("right").and_then(|b| b.get("final_db_digest"))
        );
        assert!(r.get("choice_points").and_then(Json::as_usize) >= Some(1));
        // stats reports the provenance counters.
        let stats = s.stats_json();
        let prov = stats.get("provenance").expect("provenance in stats");
        assert_eq!(
            prov.get("witnesses_extracted").and_then(Json::as_usize),
            Some(1)
        );
        assert!(prov.get("traces_recorded").and_then(Json::as_usize) >= Some(2));
        assert!(prov.get("choice_points").and_then(Json::as_usize) >= Some(2));
    }

    #[test]
    fn load_exec_analyze_explore_round_trip() {
        let (mut s, cache) = loaded();
        // exec commits with rule processing.
        let req = Json::obj([("sql", Json::from("insert into t values (1);"))]);
        let r = s.handle_op("exec", &req, &cache).unwrap();
        assert_eq!(
            r.get("run")
                .and_then(|x| x.get("outcome"))
                .and_then(Json::as_str),
            Some("quiescent")
        );
        // analyze flags the a/b conflict.
        let r = s
            .handle_op("analyze", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(
            r.get("confluence_guaranteed").and_then(Json::as_bool),
            Some(false)
        );
        // explore over the default user transition sees two final states.
        let r = s
            .handle_op("explore", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(
            r.get("final_db_digests")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    /// `analyze` refuses to "guarantee" partial confluence for a table that
    /// does not exist or an empty subset (a `script` error naming it), and
    /// still analyzes real ones.
    #[test]
    fn analyze_protect_rejects_unknown_and_empty_tables() {
        let (mut s, cache) = loaded();
        for (protect, names) in [
            (r#"[["nosuch"]]"#, "`nosuch`"),
            (r#"[["t"],["u","nosuch"]]"#, "`nosuch`"),
            (r#"[[""]]"#, "unknown table ``"),
            (r#"[[]]"#, "set is empty"),
        ] {
            let req = Json::parse(&format!(r#"{{"protect":{protect}}}"#)).unwrap();
            let (code, msg, data) = s.handle_op("analyze", &req, &cache).unwrap_err();
            assert_eq!(code, ErrorCode::Script, "{protect}: {msg}");
            assert!(msg.contains(names), "{protect}: {msg}");
            assert!(data.is_none());
        }
        let req = Json::parse(r#"{"protect":[["t"],["t","u"]]}"#).unwrap();
        let r = s.handle_op("analyze", &req, &cache).unwrap();
        assert_eq!(
            r.get("partial").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn attach_by_digest() {
        let cache = ScriptCache::new();
        let mut s1 = ServerSession::new();
        let r = s1
            .handle_op("load", &Json::obj([("script", Json::from(SCRIPT))]), &cache)
            .unwrap();
        let dig = r
            .get("script_digest")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let mut s2 = ServerSession::new();
        let (code, _, _) = s2
            .handle_op(
                "load",
                &Json::obj([("digest", Json::from("ffffffffffffffff"))]),
                &cache,
            )
            .unwrap_err();
        assert_eq!(code, ErrorCode::Script, "unknown digest is a script error");
        let r2 = s2
            .handle_op(
                "load",
                &Json::obj([("digest", Json::from(dig.as_str()))]),
                &cache,
            )
            .unwrap();
        assert_eq!(r2.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            r2.get("script_digest").and_then(Json::as_str),
            Some(dig.as_str())
        );
        // Both sessions start from the same snapshot.
        let d1 = s1
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        let d2 = s2
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn refinement_loop_reaches_confluence() {
        let (mut s, cache) = loaded();
        let req = Json::parse(r#"{"kind":"commute","a":"a","b":"b"}"#).unwrap();
        s.handle_op("certify", &req, &cache).unwrap();
        let r = s
            .handle_op("analyze", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(
            r.get("confluence_guaranteed").and_then(Json::as_bool),
            Some(true)
        );
    }

    /// The certify→analyze→order→analyze refinement flow runs on the
    /// session's persistent analyzer: warm analyzes reuse pair verdicts,
    /// invalidate only what the refinement touched, and the counters are
    /// visible through `stats`.
    #[test]
    fn refinement_steps_reuse_pair_verdicts() {
        // Enough rules that a single-rule refinement dirties well under
        // half of all pairs — the incremental path, not the small-set
        // full-sweep fallback.
        let mut script = String::from("create table t (x int);\ncreate table u (x int);\n");
        for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            script.push_str(&format!(
                "create rule {name} on t when inserted then update u set x = 1 end;\n"
            ));
        }
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        let req = Json::obj([("script", Json::from(script.as_str()))]);
        s.handle_op("load", &req, &cache).unwrap();
        let empty = Json::parse("{}").unwrap();
        s.handle_op("analyze", &empty, &cache).unwrap();
        let cold = s.driver.analysis_stats();
        assert_eq!(cold.full_sweeps, 1);

        let req = Json::parse(r#"{"kind":"commute","a":"a","b":"b"}"#).unwrap();
        s.handle_op("certify", &req, &cache).unwrap();
        s.handle_op("analyze", &empty, &cache).unwrap();
        let warm = s.driver.analysis_stats();
        assert!(warm.pair.hits > cold.pair.hits, "{warm:?}");
        // Exactly the certified pair's verdict was invalidated.
        assert_eq!(warm.pair.invalidations, cold.pair.invalidations + 1);

        let req = Json::parse(r#"{"higher":"a","lower":"b"}"#).unwrap();
        s.handle_op("order", &req, &cache).unwrap();
        s.handle_op("analyze", &empty, &cache).unwrap();
        let after_order = s.driver.analysis_stats();
        assert_eq!(after_order.full_sweeps, 1, "{after_order:?}");
        assert_eq!(after_order.incremental_sweeps, 2, "{after_order:?}");

        // The counters surface in the stats payload.
        let stats = s.stats_json();
        let pc = stats.get("pair_cache").expect("pair_cache in stats");
        assert_eq!(
            pc.get("hits").and_then(Json::as_i64),
            Some(after_order.pair.hits as i64)
        );
        assert_eq!(pc.get("full_sweeps").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn ordering_resolves_nondeterminism() {
        let (mut s, cache) = loaded();
        let req = Json::parse(r#"{"higher":"a","lower":"b"}"#).unwrap();
        s.handle_op("order", &req, &cache).unwrap();
        let r = s
            .handle_op("explore", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(
            r.get("final_db_digests")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    /// After `a` precedes `b`: an `order` naming an unknown rule, one
    /// ordering a rule before itself, and one reversing the ordering.
    const REFUSED_ORDERS: [&str; 3] = [
        r#"{"higher":"a","lower":"nosuch"}"#,
        r#"{"higher":"a","lower":"a"}"#,
        r#"{"higher":"b","lower":"a"}"#,
    ];

    fn order_refused(s: &mut ServerSession, cache: &ScriptCache) {
        for req in REFUSED_ORDERS {
            let req = Json::parse(req).unwrap();
            let (code, msg, data) = s.handle_op("order", &req, cache).unwrap_err();
            assert_eq!(code, ErrorCode::Script, "{req}: {msg}");
            assert!(data.is_none());
        }
    }

    /// A refused `order` changes nothing: the session answers `analyze`,
    /// `explore` and `exec` byte for byte as one that never sent it.
    #[test]
    fn refused_orders_change_nothing() {
        let (mut s, cache) = loaded();
        let (mut clean, _) = loaded();
        let a_first = Json::parse(r#"{"higher":"a","lower":"b"}"#).unwrap();
        s.handle_op("order", &a_first, &cache).unwrap();
        clean.handle_op("order", &a_first, &cache).unwrap();
        order_refused(&mut s, &cache);
        for (op, req) in [
            ("analyze", "{}"),
            ("explore", "{}"),
            ("exec", r#"{"sql":"insert into t values (2);"}"#),
        ] {
            let req = Json::parse(req).unwrap();
            let answer = |s: &mut ServerSession| s.handle_op(op, &req, &cache).unwrap().to_string();
            assert_eq!(answer(&mut s), answer(&mut clean), "{op}");
        }
    }

    /// A commit honours the request's row budget: a table-doubling rule
    /// stops at `max_rows` long before its consideration cap, and the
    /// session is reset to its pre-request state.
    #[test]
    fn exec_honours_the_row_budget() {
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        let src = "create table t (x int);\n\
                   create rule grow on t when inserted then \
                     insert into t select x + 1 from t end;";
        let req = Json::obj([("script", Json::from(src))]);
        s.handle_op("load", &req, &cache).unwrap();
        let digest = Json::parse("{}").unwrap();
        let before = s.handle_op("digest", &digest, &cache).unwrap();
        let req = Json::parse(
            r#"{"sql":"insert into t values (1);","budget":{"max_rows":100,"max_considerations":16}}"#,
        )
        .unwrap();
        let (code, msg, _) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Inconclusive);
        assert!(msg.contains("row budget exhausted"), "{msg}");
        assert_eq!(s.handle_op("digest", &digest, &cache).unwrap(), before);
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_and_atomic() {
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        let src = "create table t (x int);\n\
                   create rule grow on t when inserted then \
                     insert into t select x + 1 from inserted end;";
        let req = Json::obj([("script", Json::from(src))]);
        s.handle_op("load", &req, &cache).unwrap();
        let before = s
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        let req = Json::parse(
            r#"{"sql":"insert into t values (1);","budget":{"max_considerations":10}}"#,
        )
        .unwrap();
        let (code, msg, data) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Inconclusive);
        assert!(msg.contains("consideration budget exhausted"), "{msg}");
        assert_eq!(
            data.as_ref()
                .and_then(|d| d.get("outcome"))
                .and_then(Json::as_str),
            Some("limit_exceeded")
        );
        // Request atomicity: the partial processing was not committed.
        let after = s
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(before, after);
        // The session survives and keeps serving.
        let r = s
            .handle_op(
                "explore",
                &Json::parse(r#"{"sql":"insert into t values (1);","budget":{"max_states":5}}"#)
                    .unwrap(),
                &cache,
            )
            .unwrap_err();
        assert_eq!(r.0, ErrorCode::Inconclusive);
        assert!(r.2.is_some(), "truncated explore carries partial data");
    }

    #[test]
    fn abort_is_surfaced_and_atomic() {
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        let src = "create table t (x int);\n\
                   create rule nope on t when inserted then rollback end;";
        s.handle_op("load", &Json::obj([("script", Json::from(src))]), &cache)
            .unwrap();
        // A rule-driven rollback is a normal outcome, not an error.
        let r = s
            .handle_op(
                "exec",
                &Json::obj([("sql", Json::from("insert into t values (1);"))]),
                &cache,
            )
            .unwrap();
        assert_eq!(
            r.get("run")
                .and_then(|x| x.get("outcome"))
                .and_then(Json::as_str),
            Some("rolled_back")
        );
        // A priority cycle aborts the transaction; the session survives
        // with its pre-request state.
        let src2 = "create table t (x int);\n\
                    create rule a on t when inserted then update t set x = 1 end;\n\
                    create rule b on t when inserted then update t set x = 2 end;";
        s.handle_op("load", &Json::obj([("script", Json::from(src2))]), &cache)
            .unwrap();
        let before = s
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        let req = Json::obj([(
            "sql",
            Json::from(
                "alter rule a precedes b; alter rule b precedes a; insert into t values (9);",
            ),
        )]);
        let (code, _, _) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Aborted);
        let after = s
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(before, after);
        // The cyclic orderings were rolled back too: analyze still works.
        assert!(s
            .handle_op("analyze", &Json::parse("{}").unwrap(), &cache)
            .is_ok());
    }

    fn durable_root() -> (Arc<DurableRoot>, std::path::PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "starling-server-dur-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let root = Arc::new(DurableRoot::new(&dir, starling_storage::SyncPolicy::Always));
        (root, dir)
    }

    fn digest_of(s: &mut ServerSession, cache: &ScriptCache) -> Json {
        s.handle_op("digest", &Json::parse("{}").unwrap(), cache)
            .unwrap()
    }

    /// A rule whose `updated(c)` names no column of its table fails the
    /// request that defines it: a `script` error that changes nothing.
    #[test]
    fn exec_refuses_an_unknown_updated_column() {
        let (mut s, cache) = loaded();
        let before = digest_of(&mut s, &cache);
        let req = Json::obj([(
            "sql",
            Json::from(
                "create rule r on t when updated(nope) then delete from t end;\
                 insert into t values (7);",
            ),
        )]);
        let (code, msg, data) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Script, "{msg}");
        assert!(msg.contains("`updated(nope)`"), "{msg}");
        assert!(data.is_none());
        assert_eq!(digest_of(&mut s, &cache), before);
        assert_eq!(s.driver.session.rule_defs().len(), 2);
    }

    /// A rule whose grouped select reads a column outside `GROUP BY` and
    /// every aggregate fails the request that defines it: a `script` error
    /// that changes nothing.
    #[test]
    fn exec_refuses_a_misplaced_grouped_column() {
        let (mut s, cache) = loaded();
        let before = digest_of(&mut s, &cache);
        let req = Json::obj([(
            "sql",
            Json::from(
                "create rule r on t when inserted then insert into u select x, count(*) from t end;\
                 insert into t values (7);",
            ),
        )]);
        let (code, msg, data) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Script, "{msg}");
        assert!(msg.contains("must appear in GROUP BY"), "{msg}");
        assert!(data.is_none());
        assert_eq!(digest_of(&mut s, &cache), before);
        assert_eq!(s.driver.session.rule_defs().len(), 2);
    }

    #[test]
    fn durable_store_survives_session_teardown() {
        let (root, dir) = durable_root();
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("alpha")),
        ]);
        let r = s.handle_op("load", &req, &cache).unwrap();
        assert_eq!(r.get("persist").and_then(Json::as_str), Some("alpha"));
        s.handle_op(
            "exec",
            &Json::obj([("sql", Json::from("insert into t values (7);"))]),
            &cache,
        )
        .unwrap();
        s.handle_op(
            "certify",
            &Json::parse(r#"{"kind":"commute","a":"a","b":"b"}"#).unwrap(),
            &cache,
        )
        .unwrap();
        s.handle_op(
            "order",
            &Json::parse(r#"{"higher":"a","lower":"b"}"#).unwrap(),
            &cache,
        )
        .unwrap();
        let before = digest_of(&mut s, &cache);
        drop(s); // disconnect: final snapshot + claim release

        // A fresh session (a "restarted server") attaches and sees the
        // exact committed state, including the refinement ops.
        let mut s2 = ServerSession::new();
        s2.set_durable_root(Some(Arc::clone(&root)));
        let r = s2
            .handle_op(
                "load",
                &Json::obj([("persist", Json::from("alpha"))]),
                &cache,
            )
            .unwrap();
        assert_eq!(r.get("recovered"), Some(&Json::Bool(true)));
        assert_eq!(r.get("rules").and_then(Json::as_i64), Some(2));
        assert_eq!(digest_of(&mut s2, &cache), before);
        // The recovered directives and ordering are live, not just stored.
        let a = s2
            .handle_op("analyze", &Json::parse("{}").unwrap(), &cache)
            .unwrap();
        assert_eq!(
            a.get("confluence_guaranteed").and_then(Json::as_bool),
            Some(true)
        );
        drop(s2);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Reopening a durable store after refused `order`s recovers the
    /// program as it was before them.
    #[test]
    fn refused_orders_are_not_persisted() {
        let (root, dir) = durable_root();
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("refused")),
        ]);
        s.handle_op("load", &req, &cache).unwrap();
        let a_first = Json::parse(r#"{"higher":"a","lower":"b"}"#).unwrap();
        s.handle_op("order", &a_first, &cache).unwrap();
        let before = s.driver.session.state().program;
        order_refused(&mut s, &cache);
        drop(s);

        let mut s2 = ServerSession::new();
        s2.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([("persist", Json::from("refused"))]);
        s2.handle_op("load", &req, &cache).unwrap();
        assert_eq!(*s2.driver.session.state().program, *before);
        drop(s2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_has_a_single_writer() {
        let (root, dir) = durable_root();
        let cache = ScriptCache::new();
        let mut s1 = ServerSession::new();
        s1.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("solo")),
        ]);
        s1.handle_op("load", &req, &cache).unwrap();
        let mut s2 = ServerSession::new();
        s2.set_durable_root(Some(Arc::clone(&root)));
        let (code, msg, _) = s2
            .handle_op(
                "load",
                &Json::obj([("persist", Json::from("solo"))]),
                &cache,
            )
            .unwrap_err();
        assert_eq!(code, ErrorCode::Script);
        assert!(msg.contains("attached by another session"), "{msg}");
        // ... and the failed claim did not clobber s1's attachment.
        drop(s1);
        let r = s2
            .handle_op(
                "load",
                &Json::obj([("persist", Json::from("solo"))]),
                &cache,
            )
            .unwrap();
        assert_eq!(r.get("recovered"), Some(&Json::Bool(true)));
        drop(s2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn persist_requests_are_validated() {
        let cache = ScriptCache::new();
        // No data dir on the server at all.
        let mut s = ServerSession::new();
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("alpha")),
        ]);
        let (code, msg, _) = s.handle_op("load", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Protocol);
        assert!(msg.contains("--data-dir"), "{msg}");

        let (root, dir) = durable_root();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        for bad in ["", "has space", "../escape", "UPPER", "a/b"] {
            let req = Json::obj([("script", Json::from(SCRIPT)), ("persist", Json::from(bad))]);
            let (code, _, _) = s.handle_op("load", &req, &cache).unwrap_err();
            assert_eq!(code, ErrorCode::Protocol, "name {bad:?} must be rejected");
        }
        // Initializing a store that already holds data is refused (attach
        // instead); the in-memory session keeps working.
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("init-once")),
        ]);
        s.handle_op("load", &req, &cache).unwrap();
        drop(s);
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("init-once")),
        ]);
        let (_, msg, _) = s.handle_op("load", &req, &cache).unwrap_err();
        assert!(msg.contains("attach"), "{msg}");
        assert!(s
            .handle_op("digest", &Json::parse("{}").unwrap(), &cache)
            .is_ok());
        drop(s);
        // A store that cannot be read back is the server's failure, not the
        // client's script: `aborted`, never `script` ("re-send the script").
        std::fs::write(dir.join("init-once/wal.log"), b"not a starling wal").unwrap();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([("persist", Json::from("init-once"))]);
        let (code, msg, _) = s.handle_op("load", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Aborted, "{msg}");
        drop(s);
        // Likewise a log whose middle commit is damaged while later ones
        // are intact: reopening must not drop acknowledged commits.
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("midflip")),
        ]);
        s.handle_op("load", &req, &cache).unwrap();
        let wal = dir.join("midflip/wal.log");
        let exec = Json::parse(r#"{"sql":"insert into t values (1);"}"#).unwrap();
        s.handle_op("exec", &exec, &cache).unwrap();
        let second_ends = std::fs::metadata(&wal).unwrap().len() as usize;
        s.handle_op("exec", &exec, &cache).unwrap();
        // As after a kill: the three-commit log, no parting snapshot.
        let mut bytes = std::fs::read(&wal).unwrap();
        drop(s);
        std::fs::remove_file(dir.join("midflip/snapshot.bin")).unwrap();
        bytes[second_ends - 1] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let req = Json::obj([("persist", Json::from("midflip"))]);
        let (code, msg, _) = s.handle_op("load", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Aborted, "{msg}");
        assert!(msg.contains("corrupt record"), "{msg}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn durable_session_stays_request_atomic() {
        let (root, dir) = durable_root();
        let cache = ScriptCache::new();
        let mut s = ServerSession::new();
        s.set_durable_root(Some(Arc::clone(&root)));
        let src = "create table t (x int);\n\
                   create rule grow on t when inserted then \
                     insert into t select x + 1 from inserted end;";
        let req = Json::obj([
            ("script", Json::from(src)),
            ("persist", Json::from("atomic")),
        ]);
        s.handle_op("load", &req, &cache).unwrap();
        let before = digest_of(&mut s, &cache);
        let req = Json::parse(
            r#"{"sql":"insert into t values (1);","budget":{"max_considerations":10}}"#,
        )
        .unwrap();
        let (code, _, _) = s.handle_op("exec", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Inconclusive);
        assert_eq!(digest_of(&mut s, &cache), before);
        // The rolled-back request was not persisted either: reattaching
        // recovers the pre-request state.
        drop(s);
        let mut s2 = ServerSession::new();
        s2.set_durable_root(Some(Arc::clone(&root)));
        s2.handle_op(
            "load",
            &Json::obj([("persist", Json::from("atomic"))]),
            &cache,
        )
        .unwrap();
        assert_eq!(digest_of(&mut s2, &cache), before);
        drop(s2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn protocol_errors_do_not_kill_the_session() {
        let (mut s, cache) = loaded();
        for (op, req, msg_has) in [
            ("load", "{}", "`script`"),
            ("exec", "{}", "`sql`"),
            ("certify", r#"{"kind":"zzz"}"#, "certify kind"),
            ("order", r#"{"higher":"a"}"#, "`lower`"),
            ("digest", r#"{"tables":3}"#, "array of strings"),
            // A wrongly typed element is not skipped: the digest of the
            // rest would answer a question nobody asked.
            ("digest", r#"{"tables":[1,"t"]}"#, "array of strings"),
            ("digest", r#"{"tables":[1]}"#, "array of strings"),
            (
                "certify",
                r#"{"kind":"terminates","rule":"a","justification":7}"#,
                "`justification` must be a string",
            ),
            ("nosuch", "{}", "unknown op"),
        ] {
            let (code, msg, _) = s
                .handle_op(op, &Json::parse(req).unwrap(), &cache)
                .unwrap_err();
            assert_eq!(code, ErrorCode::Protocol, "{op} {req}: {msg}");
            assert!(msg.contains(msg_has), "{op} {req}: {msg}");
        }
        assert!(
            s.driver.session.directives().is_empty(),
            "nothing was certified"
        );
        assert!(s
            .handle_op("analyze", &Json::parse("{}").unwrap(), &cache)
            .is_ok());
    }

    /// A non-DML `explore` transition is named as the user wrote it, not as
    /// the parser's AST.
    #[test]
    fn explore_rejects_non_dml_in_sql_form() {
        let (mut s, cache) = loaded();
        let req = Json::obj([("sql", Json::from("create table z (x int null);"))]);
        let (code, msg, _) = s.handle_op("explore", &req, &cache).unwrap_err();
        assert_eq!(code, ErrorCode::Script, "{msg}");
        assert!(msg.contains("create table z"), "{msg}");
        assert!(!msg.contains("CreateTable("), "{msg}");
    }
}
