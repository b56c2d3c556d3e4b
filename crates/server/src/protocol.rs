//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is one line holding a JSON object with an `"op"` field and
//! op-specific arguments; every response is one line holding either
//!
//! ```text
//! {"id":<echoed>,"ok":true,"result":{...}}
//! {"id":<echoed>,"ok":false,"error":{"code":"...","message":"...","data":...}}
//! ```
//!
//! The optional `"id"` member is echoed verbatim so clients can correlate
//! pipelined requests. Budget exhaustion and transaction aborts are
//! *responses*, never connection teardowns: the session survives and the
//! error code says what happened (see [`ErrorCode`]).
//!
//! Result shapes for `analyze` and `explore` are produced by the same
//! serializers as the CLI's `--json` mode
//! ([`starling_analysis::report::AnalysisReport::to_json`] and
//! [`starling_analysis::report::explore_json`]), so the two surfaces cannot
//! drift.

use std::time::Duration;

use starling_engine::Budget;
use starling_sql::json::Json;

/// Protocol error codes (the full table lives in DESIGN.md §4f).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request: invalid JSON, unknown op, missing/ill-typed field.
    Protocol,
    /// The script/SQL payload failed to parse or validate.
    Script,
    /// The transaction aborted; the session database was restored to its
    /// pre-request state (crash-consistent, per the PR 1 failure model).
    Aborted,
    /// A per-request budget (timeout / max-states / max-considerations /
    /// max-paths) ran out before a definitive answer. The session state is
    /// as if the request never happened.
    Inconclusive,
    /// The server is draining: no new connections are admitted.
    ShuttingDown,
    /// Admission control refused the request: the server already has
    /// `max_inflight` requests admitted but not completed. The connection
    /// survives; the client should back off and retry. Refusals keep their
    /// place in a pipelined connection's response order.
    Overloaded,
}

impl ErrorCode {
    /// The wire string for the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Script => "script",
            ErrorCode::Aborted => "aborted",
            ErrorCode::Inconclusive => "inconclusive",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Overloaded => "overloaded",
        }
    }
}

/// Builds a success response line (no trailing newline).
pub fn ok_response(id: Option<&Json>, result: Json) -> String {
    let mut pairs = Vec::with_capacity(3);
    if let Some(id) = id {
        pairs.push(("id".to_owned(), id.clone()));
    }
    pairs.push(("ok".to_owned(), Json::Bool(true)));
    pairs.push(("result".to_owned(), result));
    Json::Obj(pairs).to_string()
}

/// Builds an error response line (no trailing newline). `data` carries an
/// optional partial result — e.g. a truncated exploration's graph summary —
/// in the same shape a successful response would have used.
pub fn err_response(
    id: Option<&Json>,
    code: ErrorCode,
    message: &str,
    data: Option<Json>,
) -> String {
    let mut err = vec![
        ("code".to_owned(), Json::from(code.as_str())),
        ("message".to_owned(), Json::from(message)),
    ];
    if let Some(data) = data {
        err.push(("data".to_owned(), data));
    }
    let mut pairs = Vec::with_capacity(3);
    if let Some(id) = id {
        pairs.push(("id".to_owned(), id.clone()));
    }
    pairs.push(("ok".to_owned(), Json::Bool(false)));
    pairs.push(("error".to_owned(), Json::Obj(err)));
    Json::Obj(pairs).to_string()
}

/// Extracts a per-request [`Budget`] from the request's optional `"budget"`
/// member: `{"max_considerations":N,"max_states":N,"max_paths":N,
/// "max_rows":N,"timeout_ms":N}`, each member optional, defaults from
/// [`Budget::default`].
pub fn budget_from_request(req: &Json) -> Result<Budget, String> {
    let mut budget = Budget::default();
    let Some(b) = req.get("budget") else {
        return Ok(budget);
    };
    if !matches!(b, Json::Obj(_)) {
        return Err("`budget` must be an object".into());
    }
    if let Some(v) = b.get("max_considerations") {
        budget.max_considerations = v
            .as_usize()
            .ok_or("`budget.max_considerations` must be a non-negative integer")?;
    }
    if let Some(v) = b.get("max_states") {
        budget.max_states = v
            .as_usize()
            .ok_or("`budget.max_states` must be a non-negative integer")?;
    }
    if let Some(v) = b.get("max_paths") {
        budget.max_paths = v
            .as_usize()
            .ok_or("`budget.max_paths` must be a non-negative integer")?;
    }
    if let Some(v) = b.get("max_rows") {
        budget.max_rows = v
            .as_usize()
            .ok_or("`budget.max_rows` must be a non-negative integer")?;
    }
    if let Some(v) = b.get("timeout_ms") {
        let ms = v
            .as_i64()
            .filter(|&ms| ms >= 0)
            .ok_or("`budget.timeout_ms` must be a non-negative integer")?;
        budget.deadline = Some(Duration::from_millis(ms as u64));
    }
    Ok(budget)
}

/// A required string field, with a protocol-grade error message.
pub fn str_field<'a>(req: &'a Json, name: &str) -> Result<&'a str, String> {
    req.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{name}` field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_single_lines() {
        let id = Json::Int(7);
        let ok = ok_response(Some(&id), Json::obj([("x", Json::Int(1))]));
        assert_eq!(ok, "{\"id\":7,\"ok\":true,\"result\":{\"x\":1}}");
        assert!(!ok.contains('\n'));
        let err = err_response(None, ErrorCode::Protocol, "bad\nline", None);
        assert!(!err.contains('\n'), "{err}");
        assert!(err.contains("\"code\":\"protocol\""), "{err}");
    }

    #[test]
    fn budget_parsing() {
        let req = Json::parse(
            r#"{"budget":{"max_considerations":5,"max_states":6,"max_paths":7,"max_rows":9,"timeout_ms":8}}"#,
        )
        .unwrap();
        let b = budget_from_request(&req).unwrap();
        assert_eq!(b.max_considerations, 5);
        assert_eq!(b.max_states, 6);
        assert_eq!(b.max_paths, 7);
        assert_eq!(b.max_rows, 9);
        assert_eq!(b.deadline, Some(Duration::from_millis(8)));

        // Absent budget: defaults.
        let b = budget_from_request(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(b, Budget::default());

        // Ill-typed members are protocol errors.
        for bad in [
            r#"{"budget":3}"#,
            r#"{"budget":{"max_states":"x"}}"#,
            r#"{"budget":{"timeout_ms":-1}}"#,
        ] {
            assert!(
                budget_from_request(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
