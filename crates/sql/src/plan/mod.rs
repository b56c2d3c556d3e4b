//! Compiled physical plans for rule conditions and actions.
//!
//! The evaluator in [`crate::eval`] re-interprets raw ASTs: every execution
//! resolves column names by string lookup, clones each `FROM` table into a
//! `Vec<Row>`, and enumerates the full cross product. Rules are the
//! opposite workload — a *fixed* condition and action list evaluated
//! thousands of times over changing states — so this module lowers
//! validated ASTs once into plans with:
//!
//! * columns resolved to positional [`Slot`]s (scope depth, source index,
//!   column index) against the catalog;
//! * constant subexpressions folded at compile time;
//! * single-table predicates pushed into the owning scan ([`SourcePlan::
//!   pushed`]), with conjuncts free of local references hoisted out of the
//!   enumeration entirely ([`SelectPlan::pre`]);
//! * equality joins executed by index lookup ([`JoinKey`]) instead of
//!   nested-loop cross product;
//! * execution over *borrowed* rows from storage (no per-source table
//!   copies, no per-row binding clones); and
//! * uncorrelated subqueries computed once per statement execution and
//!   cached (`cache` slots).
//!
//! Compilation is **total on validated statements**: every construct the
//! validator ([`crate::validate`]) accepts lowers to a plan, grouped and
//! aggregate selects included, and no plan holds an AST. A statement that
//! reaches the compiler unvalidated and names something it cannot bind is
//! refused with the error the validator would report. The interpreter in
//! [`crate::eval`] is not a production path: it is the semantic oracle,
//! and the invariant — enforced by `tests/plan_props.rs` — is that a
//! compiled plan and the interpreter produce identical results (or both
//! fail) on every input.
//!
//! Predicate pushdown and conjunct reordering are only applied when *every*
//! `WHERE` conjunct is statically infallible (cannot raise an evaluation
//! error), because reordering fallible conjuncts could change which error
//! surfaces or turn an error into a result. Otherwise the whole `WHERE`
//! is kept as a single filter evaluated at the leaves in original order.

mod compile;
mod exec;
pub mod vector;

use starling_storage::{SelectionKey, Value};

use crate::ast::{Aggregate, TransitionTable};

pub use compile::{compile_action, compile_condition, compile_rule, compile_select};
pub use exec::{eval_condition, execute_action, execute_select};

/// How compiled plans execute their scans and filters.
///
/// Both modes run the *same* plans and produce byte-identical results
/// (enumeration order included) — `Columnar` is a pure execution-strategy
/// switch, kept selectable so the row path stays alive as a differential
/// oracle for the vectorized kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    /// Row-at-a-time: scans collect `&Row` vectors and every pushed
    /// conjunct is evaluated once per bound row (the PR-3 engine).
    Row,
    /// Batch-oriented: base-table scans borrow the table's cached columnar
    /// view (one batch per storage chunk), vectorizable conjuncts
    /// ([`SourcePlan::vpushed`]) run as whole-column kernels flipping
    /// selection-vector bits — once per chunk version for a rule's plans,
    /// which memoize them in the batch ([`SourcePlan::vkey`]) — and
    /// equality joins probe each chunk's cached sorted column index. A
    /// chunk's selection is computed when the enumeration first reaches
    /// it, so an `EXISTS` stops at the first matching chunk.
    /// Non-vectorizable units (residual conjuncts, transition-table scans,
    /// grouping) execute exactly as in `Row` mode, at statement
    /// granularity.
    Columnar,
}

/// A resolved column reference: `depth` scopes out from the innermost
/// (0 = the enclosing select's own scope), then `source` within that
/// scope's `FROM` list, then `col` within the source's row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Scope distance from the innermost frame at evaluation time.
    pub depth: usize,
    /// Source (FROM item) index within that scope.
    pub source: usize,
    /// Column index within the source's row.
    pub col: usize,
}

/// Where a compiled source's rows come from.
#[derive(Clone, Debug)]
pub enum SourceRef {
    /// A base table, scanned from storage by name.
    Base(String),
    /// One of the rule's transition tables, bound at evaluation time.
    Transition(TransitionTable),
}

/// An equality-join key: rows of this source are indexed by `build_col`
/// and probed with `probe` (which only references earlier sources and
/// outer scopes), replacing the nested-loop scan with an index lookup.
///
/// Only emitted when the build column's declared type and the probe's
/// static type are the same non-float primitive, so the index's structural
/// equality coincides with SQL equality (`NULL` never matches).
#[derive(Clone, Debug)]
pub struct JoinKey {
    /// Column of this source the index is built on.
    pub build_col: usize,
    /// Probe expression over earlier sources / outer scopes.
    pub probe: Box<PExpr>,
}

/// One compiled `FROM` item.
#[derive(Clone, Debug)]
pub struct SourcePlan {
    /// Row provenance.
    pub sref: SourceRef,
    /// Conjuncts evaluable as soon as this source's row is bound
    /// (references only sources up to this one, plus outer scopes).
    pub pushed: Vec<PExpr>,
    /// The subset of this source's single-source conjuncts that the
    /// compiler proved *vectorizable*: infallible, boolean-typed, and
    /// built only from this source's own columns and constants. In
    /// [`PlanMode::Columnar`] they run as whole-column kernels producing a
    /// chunk's selection bitmap when enumeration reaches the chunk; in
    /// [`PlanMode::Row`] (or for
    /// transition-table sources, which have no columnar view) they are
    /// checked per row exactly like `pushed`. Order between `vpushed` and
    /// `pushed` is immaterial: both sets are statically infallible.
    pub vpushed: Vec<PExpr>,
    /// The memo key of `vpushed`'s per-chunk selection (an exact encoding
    /// of the conjuncts; see [`starling_storage::TableBatch::selection`]).
    /// Set on a base-table source of a rule's plan only. The memo holds at
    /// most [`starling_storage::TableBatch::MEMO_CAP`] keys and never
    /// evicts, so the keys of ad-hoc user statements would take the slots
    /// the rules' conditions, re-evaluated at every consideration, need.
    pub vkey: Option<SelectionKey>,
    /// Optional equality-join key for this source.
    pub join: Option<JoinKey>,
}

/// A compiled scalar/predicate expression. Structure mirrors
/// [`crate::ast::Expr`] with names resolved and constants folded;
/// evaluation semantics (3VL, error behavior) are identical.
#[derive(Clone, Debug)]
pub enum PExpr {
    /// A constant (literal or folded subexpression).
    Const(Value),
    /// A resolved column reference.
    Slot(Slot),
    /// Binary operator (comparison, arithmetic, `AND`/`OR`).
    Binary {
        /// The operator.
        op: crate::ast::BinOp,
        /// Left operand.
        lhs: Box<PExpr>,
        /// Right operand.
        rhs: Box<PExpr>,
    },
    /// Unary minus.
    Neg(Box<PExpr>),
    /// Logical negation.
    Not(Box<PExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<PExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Needle.
        expr: Box<PExpr>,
        /// Candidates.
        list: Vec<PExpr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `[NOT] IN (subquery)`.
    InSelect {
        /// Needle.
        expr: Box<PExpr>,
        /// Subquery plan.
        select: Box<SelectPlan>,
        /// `NOT IN` when true.
        negated: bool,
        /// Cache slot when the subquery is uncorrelated.
        cache: Option<usize>,
    },
    /// `[NOT] BETWEEN low AND high`.
    Between {
        /// Tested value.
        expr: Box<PExpr>,
        /// Lower bound.
        low: Box<PExpr>,
        /// Upper bound.
        high: Box<PExpr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Tested value.
        expr: Box<PExpr>,
        /// Pattern.
        pattern: Box<PExpr>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `EXISTS (subquery)`. When the subquery is compiled and infallible,
    /// execution stops at the first matching row.
    Exists {
        /// Subquery plan.
        select: Box<SelectPlan>,
        /// Cache slot when the subquery is uncorrelated.
        cache: Option<usize>,
    },
    /// A scalar subquery (0 rows → `NULL`, >1 rows → error).
    Scalar {
        /// Subquery plan.
        select: Box<SelectPlan>,
        /// Cache slot when the subquery is uncorrelated.
        cache: Option<usize>,
    },
}

/// A compiled select pipeline.
#[derive(Clone, Debug)]
pub struct SelectPlan {
    /// Sources in `FROM` order, with pushed predicates and join keys.
    pub sources: Vec<SourcePlan>,
    /// Conjuncts with no references to this select's own sources:
    /// evaluated once before enumeration; any non-TRUE value empties the
    /// result.
    pub pre: Vec<PExpr>,
    /// The residual `WHERE` filter evaluated at each leaf (only present
    /// when pushdown was not legal; `pushed`/`pre` are then empty).
    pub filter: Option<PExpr>,
    /// Grouping, for a grouped select: `proj` and `order_by` then read its
    /// group frame instead of the sources.
    pub group: Option<GroupPlan>,
    /// Projection expressions (wildcards pre-expanded to slots).
    pub proj: Vec<PExpr>,
    /// DISTINCT flag.
    pub distinct: bool,
    /// ORDER BY keys with per-key descending flags.
    pub order_by: Vec<(PExpr, bool)>,
    /// Output column names (precomputed, matching the interpreter).
    pub columns: Vec<String>,
    /// Whether execution can never raise an evaluation error. Gates the
    /// `EXISTS` early-exit.
    pub infallible: bool,
}

/// The grouping of a select with an aggregate item, a `GROUP BY` or a
/// `HAVING`. Each enumerated row evaluates `keys` and the aggregates'
/// arguments; groups come out in key order, and without `GROUP BY` there
/// is exactly one, even over no rows. A group's frame is one row, its keys
/// then its aggregate values: `having`, `proj` and `order_by` read it as
/// source 0 at depth 0, through slots, constants and operators only.
#[derive(Clone, Debug)]
pub struct GroupPlan {
    /// `GROUP BY` keys, under the select's frame.
    pub keys: Vec<PExpr>,
    /// Aggregates with their arguments (`None` for `count(*)`); aggregate
    /// `i` is group-frame column `keys.len() + i`.
    pub aggs: Vec<(Aggregate, Option<PExpr>)>,
    /// `HAVING`, over the group frame.
    pub having: Option<PExpr>,
}

/// A compiled rule condition: the predicate plus the number of subquery
/// cache slots it uses.
#[derive(Clone, Debug)]
pub struct CondPlan {
    /// The predicate.
    pub pred: PExpr,
    /// Cache slots to allocate per evaluation.
    pub cache_slots: usize,
}

/// The compiled form of one rule: condition plan plus one plan per action.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// Condition plan (`None` for unconditional rules).
    pub condition: Option<CondPlan>,
    /// Action plans, in definition order.
    pub actions: Vec<ActionPlan>,
}

/// A compiled action statement.
#[derive(Clone, Debug)]
pub enum ActionPlan {
    /// Compiled `INSERT`.
    Insert(InsertPlan),
    /// Compiled `DELETE`.
    Delete(DeletePlan),
    /// Compiled `UPDATE`.
    Update(UpdatePlan),
    /// Compiled `SELECT` (observable action).
    Select {
        /// The select plan.
        plan: SelectPlan,
        /// Cache slots to allocate per execution.
        cache_slots: usize,
    },
    /// `ROLLBACK`.
    Rollback,
}

/// Source rows of a compiled `INSERT`.
#[derive(Clone, Debug)]
pub enum InsertSourcePlan {
    /// `VALUES` tuples.
    Values(Vec<Vec<PExpr>>),
    /// `INSERT ... SELECT`.
    Select(Box<SelectPlan>),
}

/// A compiled `INSERT`: evaluate sources against the pre-statement state,
/// widen through the column map, then apply.
#[derive(Clone, Debug)]
pub struct InsertPlan {
    /// Target table.
    pub table: String,
    /// Row source.
    pub source: InsertSourcePlan,
    /// Resolved explicit column list (`None` = full-row inserts).
    pub col_map: Option<Vec<usize>>,
    /// Target table arity (for NULL-filling with a column list).
    pub arity: usize,
    /// Cache slots to allocate per execution.
    pub cache_slots: usize,
}

/// The compiled `WHERE` of a `DELETE` or `UPDATE`, scanned over the target
/// table.
#[derive(Clone, Debug)]
pub struct ScanPred {
    /// The predicate, under the scan frame.
    pub pred: PExpr,
    /// Whether `pred` is vectorizable (see [`SourcePlan::vpushed`]): in
    /// columnar mode the victim scan runs as a kernel over each chunk's
    /// batch instead of per-row frame evaluation.
    pub vec: bool,
    /// The memo key of the kernel's per-chunk selection: a rule action's
    /// vectorizable predicate only (see [`SourcePlan::vkey`]).
    pub key: Option<SelectionKey>,
}

/// A compiled `DELETE`: scan, filter, then apply.
#[derive(Clone, Debug)]
pub struct DeletePlan {
    /// Target table.
    pub table: String,
    /// Compiled `WHERE` (absent = delete all).
    pub pred: Option<ScanPred>,
    /// Cache slots to allocate per execution.
    pub cache_slots: usize,
}

/// A compiled `UPDATE`: scan, filter, evaluate `SET` expressions against
/// the old rows, then apply.
#[derive(Clone, Debug)]
pub struct UpdatePlan {
    /// Target table.
    pub table: String,
    /// Resolved `SET` target column indices.
    pub set_indices: Vec<usize>,
    /// `SET` column names (for effect reporting).
    pub set_cols: Vec<String>,
    /// Compiled `SET` right-hand sides, in statement order.
    pub sets: Vec<PExpr>,
    /// Compiled `WHERE` (absent = update all).
    pub pred: Option<ScanPred>,
    /// Cache slots to allocate per execution.
    pub cache_slots: usize,
}
