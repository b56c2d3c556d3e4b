//! Plan execution over borrowed storage rows and columnar batches.
//!
//! The executor keeps a stack of row frames like the interpreter's
//! environment, but frames hold *borrowed* bindings ([`Bound`]: a `&Row`,
//! or a position in one of a table's cached chunk batches) instead of
//! cloned rows, and column access is positional. It shares the
//! interpreter's value-level primitives (3VL, comparison, arithmetic, the
//! aggregate fold) and nothing else: no plan node runs the interpreter.
//!
//! In [`PlanMode::Columnar`], base-table scans borrow the table's cached
//! [`TableBatch`]es — one per storage chunk, in chunk (= id) order — and
//! the compiler-classified `vpushed` conjuncts run as whole-column kernels
//! ([`super::vector`]) that flip each chunk's selection-vector bits.
//! Enumeration walks the chunks in order and only the set bits in each
//! (ascending — scan order); equality joins probe each chunk's cached
//! sorted column index in the same order; rows materialize back into
//! `Row`s only at the DML / result-set boundary. A chunk's selection is
//! fetched when the enumeration first reaches the chunk (a scan arriving
//! at it, a join probe hitting it), so an `EXISTS` stops at the first
//! matching chunk and a probed source costs the chunks its probes land in.
//! For a rule's plans the fetch goes through the batch's memo
//! ([`TableBatch::selection`]): a chunk version's selection under one
//! predicate is computed once, however many states, considerations and
//! explorations share the chunk. Everything not vectorizable (residual
//! conjuncts, transition tables, fallible filters, grouping) executes
//! exactly as in [`PlanMode::Row`].

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use starling_storage::{Bitmap, Database, Row, Selection, TableBatch, TupleId, Value};

use crate::ast::BinOp;
use crate::error::SqlError;
use crate::eval::env::TransitionBinding;
use crate::eval::expr::{
    and3, arith, cmp_bool, compare_values, in_result, is_true, like_values, neg_value, not3, or3,
    sql_eq,
};
use crate::eval::select::aggregate;
use crate::eval::{ActionOutcome, ResultSet, TupleOp};

use super::{
    vector, ActionPlan, CondPlan, DeletePlan, GroupPlan, InsertPlan, InsertSourcePlan, PExpr,
    PlanMode, ScanPred, SelectPlan, SourcePlan, SourceRef, UpdatePlan,
};

/// Evaluates a compiled rule condition (3VL result, like `eval_bool`).
pub fn eval_condition(
    plan: &CondPlan,
    db: &Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<Value, SqlError> {
    Exec::new(db, transitions, plan.cache_slots, mode).eval_bool_p(&plan.pred)
}

/// Evaluates an expression that reads no row (for constant folding).
pub(super) fn eval_const(e: &PExpr, db: &Database) -> Result<Value, SqlError> {
    Exec::new(db, None, 0, PlanMode::Row).eval(e)
}

/// Executes a select plan from an empty row scope.
pub fn execute_select(
    plan: &SelectPlan,
    cache_slots: usize,
    db: &Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<ResultSet, SqlError> {
    Exec::new(db, transitions, cache_slots, mode).select(plan)
}

/// Executes a compiled action statement, mirroring
/// [`crate::eval::exec_action`]'s two-phase semantics (including partial
/// state on mid-apply insert failures).
pub fn execute_action(
    plan: &ActionPlan,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<ActionOutcome, SqlError> {
    match plan {
        ActionPlan::Rollback => Ok(ActionOutcome::Rollback),
        ActionPlan::Select { plan, cache_slots } => {
            let mut ex = Exec::new(db, transitions, *cache_slots, mode);
            ex.select(plan).map(ActionOutcome::Rows)
        }
        ActionPlan::Insert(ip) => exec_insert_plan(ip, db, transitions, mode),
        ActionPlan::Delete(dp) => exec_delete_plan(dp, db, transitions, mode),
        ActionPlan::Update(up) => exec_update_plan(up, db, transitions, mode),
    }
}

fn exec_insert_plan(
    ip: &InsertPlan,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<ActionOutcome, SqlError> {
    // Phase 1: evaluate all source rows against the pre-statement state.
    let rows: Vec<Row> = {
        let mut ex = Exec::new(&*db, transitions, ip.cache_slots, mode);
        match &ip.source {
            InsertSourcePlan::Values(tuples) => {
                let mut out = Vec::with_capacity(tuples.len());
                for t in tuples {
                    let mut row = Vec::with_capacity(t.len());
                    for pe in t {
                        row.push(ex.eval(pe)?);
                    }
                    out.push(row);
                }
                out
            }
            InsertSourcePlan::Select(sp) => ex.select(sp)?.rows,
        }
    };
    let full_rows: Vec<Row> = match &ip.col_map {
        None => rows,
        Some(indices) => rows
            .into_iter()
            .map(|r| {
                let mut full = vec![Value::Null; ip.arity];
                for (i, v) in indices.iter().zip(r) {
                    full[*i] = v;
                }
                full
            })
            .collect(),
    };

    // Phase 2: apply.
    let mut effects = Vec::with_capacity(full_rows.len());
    for row in full_rows {
        let id = db.insert(&ip.table, row.clone())?;
        effects.push(TupleOp::Insert {
            table: ip.table.clone(),
            id,
            row,
        });
    }
    Ok(ActionOutcome::Effects(effects))
}

fn exec_delete_plan(
    dp: &DeletePlan,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<ActionOutcome, SqlError> {
    // Ids only: `db.delete` hands back the old row itself.
    let victims: Vec<TupleId> = scan_matching(
        db,
        transitions,
        &dp.table,
        dp.pred.as_ref(),
        dp.cache_slots,
        mode,
    )?
    .into_iter()
    .map(|(id, _)| id)
    .collect();
    let mut effects = Vec::with_capacity(victims.len());
    for id in victims {
        let old = db.delete(&dp.table, id)?;
        effects.push(TupleOp::Delete {
            table: dp.table.clone(),
            id,
            old,
        });
    }
    Ok(ActionOutcome::Effects(effects))
}

fn exec_update_plan(
    up: &UpdatePlan,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
    mode: PlanMode,
) -> Result<ActionOutcome, SqlError> {
    // Phase 1: pick targets and compute new rows against the old state.
    let mut planned: Vec<(TupleId, Row)> = Vec::new();
    {
        let targets = scan_matching(
            db,
            transitions,
            &up.table,
            up.pred.as_ref(),
            up.cache_slots,
            mode,
        )?;
        planned.reserve(targets.len());
        let mut ex = Exec::new(&*db, transitions, up.cache_slots, mode);
        ex.scopes.push(vec![None]);
        for (id, old) in targets {
            ex.scopes[0][0] = Some(old);
            let mut new = old.to_row();
            for (idx, pe) in up.set_indices.iter().zip(&up.sets) {
                new[*idx] = ex.eval(pe)?;
            }
            planned.push((id, new));
        }
    }

    // Phase 2: apply; `db.update` hands back the old row itself.
    let mut effects = Vec::with_capacity(planned.len());
    for (id, new) in planned {
        let old = db.update(&up.table, id, new.clone())?;
        effects.push(TupleOp::Update {
            table: up.table.clone(),
            id,
            old,
            new,
            cols: up.set_cols.clone(),
        });
    }
    Ok(ActionOutcome::Effects(effects))
}

/// Tuples of the scan table satisfying the compiled predicate, in id
/// order (the interpreter's `matching_tuples`, minus the clones: a match is
/// a borrowed binding, and no row is materialized here).
///
/// With a vectorizable predicate in columnar mode, the whole scan is one
/// kernel evaluation per cached chunk batch — or, for a rule action's
/// predicate, one memo lookup per chunk it did not compute before; victims
/// come from each selection's set bits, which are ascending within
/// id-ordered chunks and therefore in id order like the row path.
fn scan_matching<'a>(
    db: &'a Database,
    transitions: Option<&'a TransitionBinding>,
    table: &str,
    pred: Option<&ScanPred>,
    cache_slots: usize,
    mode: PlanMode,
) -> Result<Vec<(TupleId, Bound<'a>)>, SqlError> {
    let tbl = db.table(table)?;
    let Some(sp) = pred else {
        return Ok(tbl.iter().map(|(id, r)| (id, Bound::Row(r))).collect());
    };
    let mut out = Vec::new();
    if sp.vec && mode == PlanMode::Columnar {
        let preds = std::slice::from_ref(&sp.pred);
        for batch in tbl.columnar().batches() {
            let sel = batch.selection(sp.key.as_ref(), || vector::select(preds, batch))?;
            out.extend(
                sel.iter_ones()
                    .map(|pos| (batch.ids()[pos], Bound::Batch(batch, pos as u32))),
            );
        }
        return Ok(out);
    }
    let p = &sp.pred;
    // One frame for the whole scan, rebound row by row.
    let mut ex = Exec::new(db, transitions, cache_slots, mode);
    ex.scopes.push(vec![None]);
    for (id, row) in tbl.iter() {
        ex.scopes[0][0] = Some(Bound::Row(row));
        if is_true(&ex.eval_bool_p(p)?) {
            out.push((id, Bound::Row(row)));
        }
    }
    Ok(out)
}

/// One bound source row: a borrowed `Row`, or a position in a borrowed
/// chunk batch (column access materializes single values on demand;
/// whole rows materialize only at DML boundaries).
#[derive(Clone, Copy)]
enum Bound<'a> {
    Row(&'a Row),
    Batch(&'a TableBatch, u32),
}

impl Bound<'_> {
    /// The value of column `col`.
    #[inline]
    fn value(&self, col: usize) -> Value {
        match self {
            Bound::Row(r) => r[col].clone(),
            Bound::Batch(b, pos) => b.value(*pos as usize, col),
        }
    }

    /// The full row (an `UPDATE`'s new row starts as a copy of the old).
    fn to_row(self) -> Row {
        match self {
            Bound::Row(r) => r.clone(),
            Bound::Batch(b, pos) => b.row(pos as usize),
        }
    }
}

/// Rows of one compiled source, as the executor scans them.
enum Src<'a> {
    /// Borrowed row vector (row mode; transition tables in every mode),
    /// with its join index, built at the first probe: positions by join
    /// key, in scan order, NULL keys skipped (never equal).
    Rows(Vec<&'a Row>, OnceCell<BTreeMap<Value, Vec<usize>>>),
    /// A table's cached chunk batches in scan order, each with the
    /// selection its source's `vpushed` kernels leave, fetched when the
    /// enumeration first reaches the chunk ([`chunk_selection`]).
    Batch(Vec<(&'a TableBatch, OnceCell<Selection>)>),
}

/// Chunk `batch`'s selection under source `sp`'s vectorizable conjuncts
/// (`None`: there are none, every row survives), computed — or, for a
/// rule's plan, taken from the batch's memo — on first touch and kept in
/// `cell` for the rest of the statement.
fn chunk_selection<'s>(
    sp: &SourcePlan,
    batch: &TableBatch,
    cell: &'s OnceCell<Selection>,
) -> Result<Option<&'s Bitmap>, SqlError> {
    if sp.vpushed.is_empty() {
        return Ok(None);
    }
    if cell.get().is_none() {
        let sel = batch.selection(sp.vkey.as_ref(), || vector::select(&sp.vpushed, batch))?;
        let _ = cell.set(sel);
    }
    Ok(cell.get().map(|s| &**s))
}

/// One frame of bound source rows. Source `i` is `None` until the
/// enumerator binds it (plan resolution guarantees no expression reads an
/// unbound slot).
type Frame<'a> = Vec<Option<Bound<'a>>>;

/// A group's row: its keys, then its aggregates' values or errors.
type GroupRow = [Result<Value, SqlError>];

/// Cached result of an uncorrelated subquery, fixed for one statement
/// execution.
#[derive(Clone)]
enum Cached {
    /// An `EXISTS` verdict (early-exit path).
    Bool(bool),
    /// Materialized subquery rows.
    Rows(Rc<Vec<Row>>),
}

/// The plan executor: database, transition binding, frame stack, and
/// subquery caches.
struct Exec<'a> {
    db: &'a Database,
    transitions: Option<&'a TransitionBinding>,
    scopes: Vec<Frame<'a>>,
    caches: Vec<Option<Cached>>,
    mode: PlanMode,
}

impl<'a> Exec<'a> {
    fn new(
        db: &'a Database,
        transitions: Option<&'a TransitionBinding>,
        cache_slots: usize,
        mode: PlanMode,
    ) -> Self {
        Exec {
            db,
            transitions,
            scopes: Vec::new(),
            caches: vec![None; cache_slots],
            mode,
        }
    }

    /// Mirrors `eval_expr` over compiled nodes, delegating to the shared
    /// 3VL primitives so semantics cannot drift.
    fn eval(&mut self, e: &PExpr) -> Result<Value, SqlError> {
        match e {
            PExpr::Const(v) => Ok(v.clone()),
            PExpr::Slot(s) => {
                let unbound = || SqlError::eval("internal: unbound plan slot");
                let fi = self
                    .scopes
                    .len()
                    .checked_sub(1 + s.depth)
                    .ok_or_else(unbound)?;
                let bound = self.scopes[fi]
                    .get(s.source)
                    .copied()
                    .flatten()
                    .ok_or_else(unbound)?;
                Ok(bound.value(s.col))
            }
            PExpr::Binary { op, lhs, rhs } => match *op {
                BinOp::And => {
                    // Kleene AND with short circuit on FALSE.
                    let l = self.eval_bool_p(lhs)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = self.eval_bool_p(rhs)?;
                    Ok(and3(l, r))
                }
                BinOp::Or => {
                    let l = self.eval_bool_p(lhs)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = self.eval_bool_p(rhs)?;
                    Ok(or3(l, r))
                }
                op if op.is_comparison() => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    compare_values(op, &l, &r)
                }
                op => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    arith(op, &l, &r)
                }
            },
            PExpr::Neg(x) => neg_value(self.eval(x)?),
            PExpr::Not(x) => Ok(not3(self.eval_bool_p(x)?)),
            PExpr::IsNull { expr, negated } => {
                let v = self.eval(expr)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            PExpr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = self.eval(expr)?;
                let mut any_unknown = false;
                let mut found = false;
                for cand in list {
                    let v = self.eval(cand)?;
                    match sql_eq(&needle, &v) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                Ok(in_result(found, any_unknown, *negated))
            }
            PExpr::InSelect {
                expr,
                select,
                negated,
                cache,
            } => {
                let needle = self.eval(expr)?;
                let rows = self.select_rows(select, *cache)?;
                let mut any_unknown = false;
                let mut found = false;
                for row in rows.iter() {
                    match sql_eq(&needle, &row[0]) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                Ok(in_result(found, any_unknown, *negated))
            }
            PExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval(expr)?;
                let lo = self.eval(low)?;
                let hi = self.eval(high)?;
                let ge_lo = cmp_bool(&v, &lo, |o| o != Ordering::Less);
                let le_hi = cmp_bool(&v, &hi, |o| o != Ordering::Greater);
                let both = and3(ge_lo, le_hi);
                Ok(if *negated { not3(both) } else { both })
            }
            PExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr)?;
                let p = self.eval(pattern)?;
                like_values(v, p, *negated)
            }
            PExpr::Exists { select, cache } => Ok(Value::Bool(self.exists(select, *cache)?)),
            PExpr::Scalar { select, cache } => {
                let rows = self.select_rows(select, *cache)?;
                match rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rows[0][0].clone()),
                    n => Err(SqlError::eval(format!("scalar subquery returned {n} rows"))),
                }
            }
        }
    }

    /// Mirrors `eval_bool`: the result must be boolean-valued (3VL).
    fn eval_bool_p(&mut self, e: &PExpr) -> Result<Value, SqlError> {
        match self.eval(e)? {
            v @ (Value::Bool(_) | Value::Null) => Ok(v),
            v => Err(SqlError::eval(format!("expected boolean, got {v}"))),
        }
    }

    /// `EXISTS` with cache and (for infallible compiled subplans) early
    /// exit at the first matching row.
    fn exists(&mut self, plan: &SelectPlan, cache: Option<usize>) -> Result<bool, SqlError> {
        if let Some(slot) = cache {
            match &self.caches[slot] {
                Some(Cached::Bool(b)) => return Ok(*b),
                Some(Cached::Rows(r)) => return Ok(!r.is_empty()),
                None => {}
            }
        }
        let found = if plan.infallible {
            let mut found = false;
            self.exec_compiled(plan, &mut |_| {
                found = true;
                Ok(true)
            })?;
            found
        } else {
            // Fallible subqueries are fully materialized so errors surface
            // exactly as under interpretation.
            !self.select_rows(plan, cache)?.is_empty()
        };
        if let Some(slot) = cache {
            if self.caches[slot].is_none() {
                self.caches[slot] = Some(Cached::Bool(found));
            }
        }
        Ok(found)
    }

    /// Materialized rows of a subquery, with caching for uncorrelated ones.
    fn select_rows(
        &mut self,
        plan: &SelectPlan,
        cache: Option<usize>,
    ) -> Result<Rc<Vec<Row>>, SqlError> {
        if let Some(slot) = cache {
            if let Some(Cached::Rows(r)) = &self.caches[slot] {
                return Ok(Rc::clone(r));
            }
        }
        let rs = self.select(plan)?;
        let rc = Rc::new(rs.rows);
        if let Some(slot) = cache {
            self.caches[slot] = Some(Cached::Rows(Rc::clone(&rc)));
        }
        Ok(rc)
    }

    /// Full pipeline: enumerate (and group), project, DISTINCT, ORDER BY.
    fn select(&mut self, cs: &SelectPlan) -> Result<ResultSet, SqlError> {
        let (mut rows, mut keys) = match &cs.group {
            Some(g) => self.grouped_rows(cs, g)?,
            None => {
                let mut rows: Vec<Row> = Vec::new();
                let mut keys: Vec<Vec<Value>> = Vec::new();
                self.exec_compiled(cs, &mut |ex| {
                    let mut row = Vec::with_capacity(cs.proj.len());
                    for p in &cs.proj {
                        row.push(ex.eval(p)?);
                    }
                    let mut k = Vec::with_capacity(cs.order_by.len());
                    for (p, _) in &cs.order_by {
                        k.push(ex.eval(p)?);
                    }
                    rows.push(row);
                    keys.push(k);
                    Ok(false)
                })?;
                (rows, keys)
            }
        };

        if cs.distinct {
            let mut seen: BTreeSet<Row> = BTreeSet::new();
            let mut kept_rows = Vec::with_capacity(rows.len());
            let mut kept_keys = Vec::with_capacity(rows.len());
            for (row, key) in rows.into_iter().zip(keys) {
                if seen.contains(&row) {
                    continue;
                }
                seen.insert(row.clone());
                kept_rows.push(row);
                kept_keys.push(key);
            }
            rows = kept_rows;
            keys = kept_keys;
        }

        if !cs.order_by.is_empty() {
            let mut indexed: Vec<usize> = (0..rows.len()).collect();
            indexed.sort_by(|&a, &b| {
                for (i, (_, desc)) in cs.order_by.iter().enumerate() {
                    let ord = keys[a][i].cmp(&keys[b][i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rows = indexed
                .into_iter()
                .map(|i| std::mem::take(&mut rows[i]))
                .collect();
        }

        Ok(ResultSet {
            columns: cs.columns.clone(),
            rows,
        })
    }

    /// A grouped select's rows and `ORDER BY` keys, one per group that
    /// passes `HAVING`, in key order. As in the interpreter, a key's error
    /// waits until the enumeration has ended without a `WHERE` error, and
    /// an aggregate's until a clause of its group reads it.
    fn grouped_rows(
        &mut self,
        cs: &SelectPlan,
        g: &GroupPlan,
    ) -> Result<(Vec<Row>, Vec<Vec<Value>>), SqlError> {
        // Per group, per aggregate: its non-NULL argument values (a
        // placeholder per row for `count(*)`), or its first argument error.
        let fresh = || vec![Ok(Vec::new()); g.aggs.len()];
        let mut groups = BTreeMap::new();
        if g.keys.is_empty() {
            groups.insert(Vec::new(), fresh());
        }
        let mut key_error = None;
        self.exec_compiled(cs, &mut |ex| {
            if key_error.is_none() {
                match g.keys.iter().map(|k| ex.eval(k)).collect() {
                    Ok(key) => {
                        let args = groups.entry(key).or_insert_with(fresh);
                        for (slot, (_, arg)) in args.iter_mut().zip(&g.aggs) {
                            let Ok(values) = slot else { continue };
                            match arg.as_ref().map_or(Ok(Value::Bool(true)), |x| ex.eval(x)) {
                                Ok(Value::Null) => {}
                                Ok(v) => values.push(v),
                                Err(e) => *slot = Err(e),
                            }
                        }
                    }
                    Err(e) => key_error = Some(e),
                }
            }
            Ok(false)
        })?;
        if let Some(e) = key_error {
            return Err(e);
        }
        let (mut rows, mut keys) = (Vec::new(), Vec::new());
        for (key, args) in groups {
            let aggs = args.into_iter().zip(&g.aggs);
            let aggs = aggs.map(|(values, (func, _))| aggregate(*func, &values?));
            let frame: Vec<_> = key.into_iter().map(Ok).chain(aggs).collect();
            let mut eval = |p| self.eval_grouped(p, &frame);
            let having = g.having.as_ref().map(&mut eval).transpose()?;
            if having.is_some_and(|v| !is_true(&v)) {
                continue;
            }
            rows.push(cs.proj.iter().map(&mut eval).collect::<Result<_, _>>()?);
            keys.push(
                cs.order_by
                    .iter()
                    .map(|(p, _)| eval(p))
                    .collect::<Result<_, _>>()?,
            );
        }
        Ok((rows, keys))
    }

    /// Evaluates a grouped select's `HAVING`, item or `ORDER BY` key over a
    /// group's row; an aggregate's error surfaces when it is read. Like
    /// the interpreter, it evaluates every operand, `AND`/`OR`'s included,
    /// before it applies the operator to their values.
    fn eval_grouped(&mut self, e: &PExpr, row: &GroupRow) -> Result<Value, SqlError> {
        let mut operand = |x| Ok::<_, SqlError>(Box::new(PExpr::Const(self.eval_grouped(x, row)?)));
        let node = match e {
            PExpr::Slot(s) => return row[s.col].clone(),
            PExpr::Binary { op, lhs, rhs } => PExpr::Binary {
                op: *op,
                lhs: operand(lhs)?,
                rhs: operand(rhs)?,
            },
            PExpr::Neg(x) => PExpr::Neg(operand(x)?),
            PExpr::Not(x) => PExpr::Not(operand(x)?),
            PExpr::IsNull { expr, negated } => PExpr::IsNull {
                expr: operand(expr)?,
                negated: *negated,
            },
            constant => return self.eval(constant),
        };
        self.eval(&node)
    }

    /// Collects source rows (borrowed rows, or columnar batches whose
    /// selections are fetched chunk by chunk as the enumeration reaches
    /// them), pushes the frame, evaluates `pre` conjuncts once, and
    /// enumerates matching combinations; `on_leaf` runs per surviving leaf
    /// and returns `true` to stop early.
    fn exec_compiled(
        &mut self,
        cs: &SelectPlan,
        on_leaf: &mut dyn FnMut(&mut Self) -> Result<bool, SqlError>,
    ) -> Result<(), SqlError> {
        let db = self.db;
        let transitions = self.transitions;
        let mut srcs: Vec<Src<'a>> = Vec::with_capacity(cs.sources.len());
        for sp in &cs.sources {
            match &sp.sref {
                SourceRef::Base(t) => {
                    let tbl = db.table(t)?;
                    srcs.push(if self.mode == PlanMode::Columnar {
                        Src::Batch(
                            tbl.columnar()
                                .batches()
                                .map(|batch| (batch, OnceCell::new()))
                                .collect(),
                        )
                    } else {
                        Src::Rows(tbl.rows().collect(), OnceCell::new())
                    });
                }
                SourceRef::Transition(tt) => {
                    let b = transitions.ok_or_else(|| {
                        SqlError::eval(format!(
                            "transition table `{}` referenced outside a rule",
                            tt.name()
                        ))
                    })?;
                    srcs.push(Src::Rows(b.rows(*tt).iter().collect(), OnceCell::new()));
                }
            }
        }
        self.scopes.push(vec![None; cs.sources.len()]);
        let result = self.exec_enum(cs, &srcs, on_leaf);
        self.scopes.pop();
        result
    }

    fn exec_enum(
        &mut self,
        cs: &SelectPlan,
        srcs: &[Src<'a>],
        on_leaf: &mut dyn FnMut(&mut Self) -> Result<bool, SqlError>,
    ) -> Result<(), SqlError> {
        // Source-independent conjuncts: any non-TRUE value empties the
        // result (all conjuncts here are infallible by construction, so
        // hoisting them out of the product is unobservable).
        for p in &cs.pre {
            if !is_true(&self.eval_bool_p(p)?) {
                return Ok(());
            }
        }
        self.enum_rec(cs, srcs, 0, on_leaf).map(|_| ())
    }

    fn enum_rec(
        &mut self,
        cs: &SelectPlan,
        srcs: &[Src<'a>],
        i: usize,
        on_leaf: &mut dyn FnMut(&mut Self) -> Result<bool, SqlError>,
    ) -> Result<bool, SqlError> {
        if i == cs.sources.len() {
            if let Some(f) = &cs.filter {
                if !is_true(&self.eval_bool_p(f)?) {
                    return Ok(false);
                }
            }
            return on_leaf(self);
        }
        let sp = &cs.sources[i];
        if let Some(jk) = &sp.join {
            let probe = self.eval(&jk.probe)?;
            if probe.is_null() {
                return Ok(false);
            }
            match &srcs[i] {
                Src::Batch(chunks) => {
                    // Probe each chunk's cached index, in chunk order: hits
                    // are ascending positions, so matches keep scan order;
                    // each is filtered through its chunk's selection, which
                    // only a chunk with hits ever computes.
                    for (batch, cell) in chunks {
                        let hits = batch.probe(jk.build_col, &probe);
                        if hits.is_empty() {
                            continue;
                        }
                        let sel = chunk_selection(sp, batch, cell)?;
                        for &pos in hits {
                            if sel.is_none_or(|s| s.get(pos as usize))
                                && self.bind_and_descend(
                                    cs,
                                    srcs,
                                    i,
                                    Bound::Batch(batch, pos),
                                    on_leaf,
                                )?
                            {
                                return Ok(true);
                            }
                        }
                    }
                }
                Src::Rows(rows, index) => {
                    let index = index.get_or_init(|| {
                        let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
                        for (pos, row) in rows.iter().enumerate() {
                            let key = &row[jk.build_col];
                            if !key.is_null() {
                                map.entry(key.clone()).or_default().push(pos);
                            }
                        }
                        map
                    });
                    for &pos in index.get(&probe).map_or(&[][..], Vec::as_slice) {
                        let bound = Bound::Row(rows[pos]);
                        if self.bind_and_descend(cs, srcs, i, bound, on_leaf)? {
                            return Ok(true);
                        }
                    }
                }
            }
        } else {
            match &srcs[i] {
                Src::Rows(rows, _) => {
                    for row in rows {
                        let bound = Bound::Row(row);
                        if self.bind_and_descend(cs, srcs, i, bound, on_leaf)? {
                            return Ok(true);
                        }
                    }
                }
                Src::Batch(chunks) => {
                    // Chunk at a time: a chunk's selection is fetched only
                    // once the chunks before it are exhausted, so an
                    // `EXISTS` stops at the first chunk with a match.
                    for (batch, cell) in chunks {
                        // Walk only the selection's set bits (ascending =
                        // scan order), never materializing the filtered-out
                        // rows.
                        let positions: &mut dyn Iterator<Item = usize> =
                            match chunk_selection(sp, batch, cell)? {
                                None => &mut (0..batch.len()),
                                Some(s) => &mut s.iter_ones(),
                            };
                        for pos in positions {
                            let bound = Bound::Batch(batch, pos as u32);
                            if self.bind_and_descend(cs, srcs, i, bound, on_leaf)? {
                                return Ok(true);
                            }
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    /// Binds source `i` to `bound`, checks its pushed conjuncts, and
    /// recurses to the next source. For batch sources the `vpushed`
    /// conjuncts were already applied by the selection kernels; row
    /// sources (row mode, transition tables) check them per row here.
    fn bind_and_descend(
        &mut self,
        cs: &SelectPlan,
        srcs: &[Src<'a>],
        i: usize,
        bound: Bound<'a>,
        on_leaf: &mut dyn FnMut(&mut Self) -> Result<bool, SqlError>,
    ) -> Result<bool, SqlError> {
        let fi = self.scopes.len() - 1;
        self.scopes[fi][i] = Some(bound);
        if matches!(bound, Bound::Row(_)) {
            for p in &cs.sources[i].vpushed {
                if !is_true(&self.eval_bool_p(p)?) {
                    return Ok(false);
                }
            }
        }
        for p in &cs.sources[i].pushed {
            if !is_true(&self.eval_bool_p(p)?) {
                return Ok(false);
            }
        }
        self.enum_rec(cs, srcs, i + 1, on_leaf)
    }
}

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use super::*;
    use crate::parse_expr;
    use crate::plan::compile_condition;

    /// `t(k, v)` with `v = k % 10`: two full chunks and a partial one.
    fn db() -> Database {
        let mut db = Database::new();
        let cols = vec![
            ColumnDef::new("k", ValueType::Int),
            ColumnDef::new("v", ValueType::Int),
        ];
        db.create_table(TableSchema::new("t", cols).unwrap())
            .unwrap();
        for k in 0..2_100 {
            db.insert("t", vec![Value::Int(k), Value::Int(k % 10)])
                .unwrap();
        }
        db
    }

    /// Selections memoized per chunk of `t`.
    fn memoized(db: &Database) -> Vec<usize> {
        let batches = db.table("t").unwrap().columnar().batches();
        batches.map(TableBatch::memoized).collect()
    }

    fn eval(db: &Database, cond: &str, mode: PlanMode) -> Value {
        let plan = compile_condition(&parse_expr(cond).unwrap(), db.catalog(), Some("t")).unwrap();
        eval_condition(&plan, db, None, mode).unwrap()
    }

    /// A rule condition stores one selection per chunk it reaches, full or
    /// partial: an `EXISTS` that matches in the first chunk never touches
    /// the others; row mode stores nothing; and past the cap the kernels
    /// run unmemoized, with the same answers.
    #[test]
    fn the_memo_holds_what_a_rules_scan_reached() {
        let db = db();
        let never = |n: usize| format!("exists (select * from t where v > {} and k >= 0)", 9 + n);
        assert_eq!(eval(&db, &never(0), PlanMode::Row), Value::Bool(false));
        assert_eq!(memoized(&db), [0, 0, 0]);
        assert_eq!(eval(&db, &never(0), PlanMode::Columnar), Value::Bool(false));
        assert_eq!(memoized(&db), [1, 1, 1]);
        // Early exit: the first chunk matches, the others are never reached.
        let early = "exists (select * from t where v = 3 and k < 500)";
        assert_eq!(eval(&db, early, PlanMode::Columnar), Value::Bool(true));
        assert_eq!(memoized(&db), [2, 1, 1]);
        // A hit answers like the miss did.
        assert_eq!(eval(&db, early, PlanMode::Columnar), Value::Bool(true));
        assert_eq!(memoized(&db), [2, 1, 1]);
        for n in 1..=TableBatch::MEMO_CAP {
            assert_eq!(eval(&db, &never(n), PlanMode::Columnar), Value::Bool(false));
        }
        let cap = TableBatch::MEMO_CAP;
        assert_eq!(memoized(&db), [cap, cap, cap]);
        let late = "exists (select * from t where v = 9 and k > 2000)";
        assert_eq!(eval(&db, late, PlanMode::Columnar), Value::Bool(true));
        assert_eq!(eval(&db, late, PlanMode::Row), Value::Bool(true));
        assert_eq!(memoized(&db), [cap, cap, cap]);
    }

    /// A join source computes the selection of the chunks its probes land
    /// in, and of no other.
    #[test]
    fn a_probed_source_costs_the_chunks_its_probes_hit() {
        let db = db();
        let binding = TransitionBinding {
            inserted: vec![vec![Value::Int(1_500), Value::Int(0)]],
            ..TransitionBinding::empty("t")
        };
        let cond = "exists (select * from inserted i, t where t.k = i.k and t.v >= 0)";
        let plan = compile_condition(&parse_expr(cond).unwrap(), db.catalog(), Some("t")).unwrap();
        for mode in [PlanMode::Row, PlanMode::Columnar] {
            let got = eval_condition(&plan, &db, Some(&binding), mode).unwrap();
            assert_eq!(got, Value::Bool(true), "{mode:?}");
        }
        assert_eq!(memoized(&db), [0, 1, 0]);
    }
}
