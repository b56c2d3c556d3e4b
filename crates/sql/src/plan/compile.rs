//! Lowering validated ASTs into physical plans.
//!
//! Compilation is total on validated statements: every statement the
//! validator accepts lowers to a plan. Names bind through the validator's
//! own [`Scope`], so a statement that reaches the compiler unvalidated and
//! names something unknown is refused with the validator's error.

use std::collections::BTreeSet;

use starling_storage::{Catalog, Database, Value, ValueType};

use crate::ast::{
    Action, Aggregate, BinOp, Expr, InsertSource, RuleBody, SelectItem, SelectStmt, TableRef,
};
use crate::error::SqlError;
use crate::eval::select::is_grouped;
use crate::refs::{Scope, Ty};
use crate::validate::{grouped_wildcard, not_grouped, target_column};

use super::exec::eval_const;
use super::{
    vector, ActionPlan, CondPlan, DeletePlan, GroupPlan, InsertPlan, InsertSourcePlan, JoinKey,
    PExpr, RulePlan, ScanPred, SelectPlan, Slot, SourcePlan, SourceRef, UpdatePlan,
};

/// Compiles a whole rule: condition plus every action. Panics on an
/// invalid rule: a rule set validates its rules before it builds a plan.
pub fn compile_rule(def: &RuleBody, catalog: &Catalog) -> RulePlan {
    let table = Some(def.table.as_str());
    let valid = "a validated rule compiles";
    RulePlan {
        condition: def
            .condition
            .as_ref()
            .map(|e| compile_condition(e, catalog, table).expect(valid)),
        actions: def
            .actions
            .iter()
            .map(|a| compile_action(a, catalog, table).expect(valid))
            .collect(),
    }
}

/// Compiles a boolean condition expression (evaluated with no row scope).
pub fn compile_condition(
    e: &Expr,
    catalog: &Catalog,
    rule_table: Option<&str>,
) -> Result<CondPlan, SqlError> {
    let mut c = Compiler::new(catalog, rule_table);
    let (pred, _) = c.compile_expr(e)?;
    Ok(CondPlan {
        pred,
        cache_slots: c.caches,
    })
}

/// Compiles one action statement.
pub fn compile_action(
    a: &Action,
    catalog: &Catalog,
    rule_table: Option<&str>,
) -> Result<ActionPlan, SqlError> {
    Compiler::new(catalog, rule_table).compile_action_inner(a)
}

/// Compiles a standalone select; returns the plan and its cache-slot count.
pub fn compile_select(
    s: &SelectStmt,
    catalog: &Catalog,
    rule_table: Option<&str>,
) -> Result<(SelectPlan, usize), SqlError> {
    let mut c = Compiler::new(catalog, rule_table);
    let (plan, _, _) = c.compile_select_inner(s)?;
    Ok((plan, c.caches))
}

type CResult<T> = Result<T, SqlError>;

/// Static facts about a compiled expression.
struct Info {
    /// Resolved column references as (absolute scope index, source index).
    refs: BTreeSet<(usize, usize)>,
    /// Static result type.
    ty: Ty,
    /// Whether evaluation can never raise an error.
    infallible: bool,
}

impl Info {
    fn constant(ty: Ty) -> Info {
        Info {
            refs: BTreeSet::new(),
            ty,
            infallible: true,
        }
    }

    /// Absorbs a subexpression's references and fallibility (type is set by
    /// the caller).
    fn absorb(&mut self, other: &Info) {
        self.refs.extend(other.refs.iter().copied());
        self.infallible &= other.infallible;
    }
}

struct Compiler<'c> {
    catalog: &'c Catalog,
    rule_table: Option<&'c str>,
    /// The validator's scope stack, mirroring the evaluator's frame stack:
    /// a name it cannot resolve is refused with the validator's error.
    scope: Scope<'c>,
    /// Subquery cache slots allocated so far in the current unit.
    caches: usize,
    /// Empty database for constant folding.
    scratch: Database,
}

impl<'c> Compiler<'c> {
    fn new(catalog: &'c Catalog, rule_table: Option<&'c str>) -> Self {
        Compiler {
            catalog,
            rule_table,
            scope: Scope::new(catalog, rule_table),
            caches: 0,
            scratch: Database::new(),
        }
    }

    /// Folds an operator node whose operands are all constants by
    /// evaluating it. A node that errors is kept unfolded, so the error
    /// still surfaces (in the same place) at runtime.
    fn fold(&self, node: PExpr, info: Info) -> (PExpr, Info) {
        let is_const = |x: &PExpr| matches!(x, PExpr::Const(_));
        let constant = match &node {
            PExpr::Neg(x) | PExpr::Not(x) => is_const(x),
            PExpr::Binary { lhs, rhs, .. } => is_const(lhs) && is_const(rhs),
            _ => false,
        };
        match constant.then(|| eval_const(&node, &self.scratch)) {
            Some(Ok(v)) => {
                let ty = Ty::of_value(&v);
                (PExpr::Const(v), Info::constant(ty))
            }
            _ => (node, info),
        }
    }

    fn compile_expr(&mut self, e: &Expr) -> CResult<(PExpr, Info)> {
        match e {
            Expr::Literal(v) => Ok((PExpr::Const(v.clone()), Info::constant(Ty::of_value(v)))),
            Expr::Column(c) => {
                let (slot, ty) = self.scope.resolve(c)?;
                let mut info = Info::constant(Ty::of_decl(ty));
                let abs = self.scope.frame_count() - 1 - slot.depth;
                info.refs.insert((abs, slot.source));
                Ok((PExpr::Slot(slot), info))
            }
            Expr::Binary { op, lhs, rhs } => self.compile_binary(*op, lhs, rhs),
            Expr::Neg(x) => {
                let (px, xi) = self.compile_expr(x)?;
                let mut info = Info::constant(xi.ty.neg().unwrap_or(Ty::Unknown));
                info.absorb(&xi);
                // Int negation can overflow, and a FLOAT column may hold
                // INTEGER values: only NULL cannot fail.
                info.infallible &= xi.ty == Ty::Null;
                Ok(self.fold(PExpr::Neg(Box::new(px)), info))
            }
            Expr::Not(x) => {
                let (px, xi) = self.compile_expr(x)?;
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&xi);
                info.infallible &= xi.ty.boolish();
                Ok(self.fold(PExpr::Not(Box::new(px)), info))
            }
            Expr::IsNull { expr, negated } => {
                let (px, xi) = self.compile_expr(expr)?;
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&xi);
                if let PExpr::Const(v) = &px {
                    return Ok((
                        PExpr::Const(Value::Bool(v.is_null() != *negated)),
                        Info::constant(Ty::Bool),
                    ));
                }
                Ok((
                    PExpr::IsNull {
                        expr: Box::new(px),
                        negated: *negated,
                    },
                    info,
                ))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let (pe, ei) = self.compile_expr(expr)?;
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&ei);
                let mut plist = Vec::with_capacity(list.len());
                for item in list {
                    let (pi, ii) = self.compile_expr(item)?;
                    info.infallible &= ei.ty.comparable(ii.ty);
                    info.absorb(&ii);
                    plist.push(pi);
                }
                Ok((
                    PExpr::InList {
                        expr: Box::new(pe),
                        list: plist,
                        negated: *negated,
                    },
                    info,
                ))
            }
            Expr::InSelect {
                expr,
                select,
                negated,
            } => {
                let (pe, ei) = self.compile_expr(expr)?;
                let (plan, tys, si) = self.compile_select_inner(select)?;
                let cache = self.alloc_cache(&si);
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&ei);
                info.absorb(&si);
                info.infallible &= tys.len() == 1 && ei.ty.comparable(tys[0]) && plan.infallible;
                Ok((
                    PExpr::InSelect {
                        expr: Box::new(pe),
                        select: Box::new(plan),
                        negated: *negated,
                        cache,
                    },
                    info,
                ))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (pe, ei) = self.compile_expr(expr)?;
                let (pl, li) = self.compile_expr(low)?;
                let (ph, hi) = self.compile_expr(high)?;
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&ei);
                info.absorb(&li);
                info.absorb(&hi);
                info.infallible &= ei.ty.comparable(li.ty) && ei.ty.comparable(hi.ty);
                Ok((
                    PExpr::Between {
                        expr: Box::new(pe),
                        low: Box::new(pl),
                        high: Box::new(ph),
                        negated: *negated,
                    },
                    info,
                ))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (pe, ei) = self.compile_expr(expr)?;
                let (pp, pi) = self.compile_expr(pattern)?;
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&ei);
                info.absorb(&pi);
                info.infallible &=
                    matches!(ei.ty, Ty::Str | Ty::Null) && matches!(pi.ty, Ty::Str | Ty::Null);
                Ok((
                    PExpr::Like {
                        expr: Box::new(pe),
                        pattern: Box::new(pp),
                        negated: *negated,
                    },
                    info,
                ))
            }
            Expr::Exists(select) => {
                let (plan, _, si) = self.compile_select_inner(select)?;
                let cache = self.alloc_cache(&si);
                let mut info = Info::constant(Ty::Bool);
                info.absorb(&si);
                info.infallible &= plan.infallible;
                Ok((
                    PExpr::Exists {
                        select: Box::new(plan),
                        cache,
                    },
                    info,
                ))
            }
            Expr::ScalarSubquery(select) => {
                let (plan, tys, si) = self.compile_select_inner(select)?;
                let cache = self.alloc_cache(&si);
                let mut info = Info::constant(tys.first().copied().unwrap_or(Ty::Unknown));
                info.absorb(&si);
                // More than one result row is a runtime error, so a scalar
                // subquery is never statically infallible.
                info.infallible = false;
                Ok((
                    PExpr::Scalar {
                        select: Box::new(plan),
                        cache,
                    },
                    info,
                ))
            }
            // A grouped select's clauses lower through `compile_grouped`.
            Expr::Aggregate { .. } => Err(SqlError::validate(
                "aggregate is only allowed in a select list",
            )),
        }
    }

    fn compile_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> CResult<(PExpr, Info)> {
        let (pl, li) = self.compile_expr(lhs)?;
        // Short-circuit folds that are exact under 3VL evaluation order:
        // a FALSE (resp. TRUE) left operand returns before the right
        // operand is ever evaluated, so the right side can be dropped.
        if op == BinOp::And {
            if let PExpr::Const(Value::Bool(false)) = pl {
                return Ok((PExpr::Const(Value::Bool(false)), Info::constant(Ty::Bool)));
            }
        }
        if op == BinOp::Or {
            if let PExpr::Const(Value::Bool(true)) = pl {
                return Ok((PExpr::Const(Value::Bool(true)), Info::constant(Ty::Bool)));
            }
        }
        let (pr, ri) = self.compile_expr(rhs)?;

        // Ill-typed operands compile to a node that raises the
        // interpreter's error where it would.
        let mut info = Info::constant(Ty::binary(op, li.ty, ri.ty).unwrap_or(Ty::Unknown));
        info.absorb(&li);
        info.absorb(&ri);
        info.infallible &= if matches!(op, BinOp::And | BinOp::Or) {
            li.ty.boolish() && ri.ty.boolish()
        } else if op.is_comparison() {
            li.ty.comparable(ri.ty)
        } else {
            // Arithmetic can overflow or divide by zero.
            false
        };

        let node = PExpr::Binary {
            op,
            lhs: Box::new(pl),
            rhs: Box::new(pr),
        };
        Ok(self.fold(node, info))
    }

    /// Allocates a cache slot for a subquery that cannot observe any
    /// enclosing row scope (its result is fixed for a whole statement
    /// execution).
    fn alloc_cache(&mut self, si: &Info) -> Option<usize> {
        if si.refs.is_empty() {
            let slot = self.caches;
            self.caches += 1;
            Some(slot)
        } else {
            None
        }
    }

    /// Compiles a select. Returns the plan, the static types of its output
    /// columns, and an `Info` describing references to *enclosing* scopes.
    fn compile_select_inner(&mut self, s: &SelectStmt) -> CResult<(SelectPlan, Vec<Ty>, Info)> {
        self.scope.push_from(&s.from)?;
        let my_abs = self.scope.frame_count() - 1;
        let body = self.compile_select_body(s, my_abs);
        self.scope.pop();
        let (plan, tys, mut info) = body?;
        // References to this select's own scope are satisfied internally;
        // only outer references propagate.
        info.refs.retain(|(abs, _)| *abs < my_abs);
        Ok((plan, tys, info))
    }

    /// The scoped part of select compilation (the caller pushes the
    /// select's frame and pops it, on success and failure alike).
    fn compile_select_body(
        &mut self,
        s: &SelectStmt,
        my_abs: usize,
    ) -> CResult<(SelectPlan, Vec<Ty>, Info)> {
        let mut sources: Vec<SourcePlan> = s
            .from
            .iter()
            .map(|item| SourcePlan {
                sref: match &item.table {
                    TableRef::Base(t) => SourceRef::Base(t.clone()),
                    TableRef::Transition(tt) => SourceRef::Transition(*tt),
                },
                pushed: Vec::new(),
                vpushed: Vec::new(),
                vkey: None,
                join: None,
            })
            .collect();

        // Output column names (mirrors `output_columns`).
        let mut columns = Vec::new();
        for (i, item) in s.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for b in self.scope.innermost() {
                        columns.extend(b.schema.column_names().map(str::to_owned));
                    }
                }
                SelectItem::Expr { expr, alias } => columns.push(match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column(c) => c.column.clone(),
                        _ => format!("col{}", i + 1),
                    },
                }),
            }
        }

        let mut info = Info::constant(Ty::Unknown);
        let grouped = is_grouped(s);
        // A grouped select's aggregates, in order of appearance.
        let mut aggs = Vec::new();

        // Projection, with wildcards pre-expanded into slots.
        let mut proj = Vec::new();
        let mut tys = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard if grouped => return Err(grouped_wildcard()),
                SelectItem::Expr { expr, .. } if grouped => {
                    proj.push(self.compile_grouped(expr, &s.group_by, &mut aggs, &mut info)?);
                    tys.push(Ty::Unknown);
                }
                SelectItem::Wildcard => {
                    for (si, b) in self.scope.innermost().iter().enumerate() {
                        for col in 0..b.schema.arity() {
                            proj.push(PExpr::Slot(Slot {
                                depth: 0,
                                source: si,
                                col,
                            }));
                            tys.push(Ty::of_decl(b.schema.columns[col].ty));
                            info.refs.insert((my_abs, si));
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    let (pe, ei) = self.compile_expr(expr)?;
                    tys.push(ei.ty);
                    info.absorb(&ei);
                    proj.push(pe);
                }
            }
        }

        // WHERE: flatten the AND-tree into conjuncts. When every conjunct
        // is infallible *and* statically boolean, no conjunct can ever
        // raise (not even `eval_bool`'s type error), so reordering cannot
        // change results (keep-iff-all-TRUE is order-independent without
        // errors) and each conjunct is pushed to the earliest point it can
        // run; otherwise the whole clause stays a single leaf filter in
        // original order.
        let mut pre = Vec::new();
        let mut filter = None;
        if let Some(w) = &s.where_clause {
            let mut conjuncts = Vec::new();
            flatten_and(w, &mut conjuncts);
            let mut compiled = Vec::with_capacity(conjuncts.len());
            for c in &conjuncts {
                compiled.push(self.compile_expr(c)?);
            }
            for (_, ci) in &compiled {
                info.absorb(ci);
            }
            if compiled
                .iter()
                .all(|(_, ci)| ci.infallible && ci.ty.boolish())
            {
                for (pc, ci) in compiled {
                    let last_local = ci
                        .refs
                        .iter()
                        .filter(|(abs, _)| *abs == my_abs)
                        .map(|(_, si)| *si)
                        .max();
                    match last_local {
                        None => pre.push(pc),
                        Some(si) => {
                            if sources[si].join.is_none() {
                                sources[si].join = self.detect_join(&pc, si);
                            }
                            // Conjuncts built purely from this source's own
                            // columns and constants vectorize (all conjuncts
                            // here are already infallible and boolean).
                            if self.vec_safe_pred(&pc, si) {
                                sources[si].vpushed.push(pc);
                            } else {
                                sources[si].pushed.push(pc);
                            }
                        }
                    }
                }
            } else {
                // Left-fold reassembly preserves the original leaf
                // evaluation order and short-circuit points exactly.
                let mut it = compiled.into_iter().map(|(pc, _)| pc);
                let first = it.next().expect("where clause has a conjunct");
                filter = Some(it.fold(first, |acc, pc| PExpr::Binary {
                    op: BinOp::And,
                    lhs: Box::new(acc),
                    rhs: Box::new(pc),
                }));
            }
        }
        // Rule plans only: the memo never evicts (see `SourcePlan::vkey`).
        if self.rule_table.is_some() {
            for sp in &mut sources {
                if matches!(sp.sref, SourceRef::Base(_)) && !sp.vpushed.is_empty() {
                    sp.vkey = vector::selection_key(&sp.vpushed);
                }
            }
        }

        let mut order_by = Vec::with_capacity(s.order_by.len());
        for o in &s.order_by {
            let pe = if grouped {
                self.compile_grouped(&o.expr, &s.group_by, &mut aggs, &mut info)?
            } else {
                let (pe, ei) = self.compile_expr(&o.expr)?;
                info.absorb(&ei);
                pe
            };
            order_by.push((pe, o.desc));
        }
        let mut group = None;
        if grouped {
            let having = s.having.as_ref();
            let having = having.map(|h| self.compile_grouped(h, &s.group_by, &mut aggs, &mut info));
            let mut keys = Vec::with_capacity(s.group_by.len());
            for k in &s.group_by {
                let (pk, ki) = self.compile_expr(k)?;
                info.absorb(&ki);
                keys.push(pk);
            }
            group = Some(GroupPlan {
                keys,
                aggs,
                having: having.transpose()?,
            });
        }

        let plan = SelectPlan {
            sources,
            pre,
            filter,
            group,
            proj,
            distinct: s.distinct,
            order_by,
            columns,
            // A grouped select's rows exist only once its enumeration has
            // ended: it never takes the `EXISTS` exit.
            infallible: info.infallible && !grouped,
        };
        Ok((plan, tys, info))
    }

    /// Lowers a grouped select's item, `HAVING` or `ORDER BY` key onto its
    /// group frame ([`GroupPlan`]): a `GROUP BY` key reads its column, an
    /// aggregate a new one (pushed to `aggs`, its argument compiled under
    /// the select's frame).
    fn compile_grouped(
        &mut self,
        e: &Expr,
        group_by: &[Expr],
        aggs: &mut Vec<(Aggregate, Option<PExpr>)>,
        info: &mut Info,
    ) -> CResult<PExpr> {
        let column = |col| {
            PExpr::Slot(Slot {
                depth: 0,
                source: 0,
                col,
            })
        };
        if let Some(i) = group_by.iter().position(|k| k == e) {
            return Ok(column(i));
        }
        if let Some(err) = not_grouped(e) {
            return Err(err);
        }
        let mut lower = |x| self.compile_grouped(x, group_by, aggs, info).map(Box::new);
        Ok(match e {
            Expr::Binary { op, lhs, rhs } => PExpr::Binary {
                op: *op,
                lhs: lower(lhs)?,
                rhs: lower(rhs)?,
            },
            Expr::Neg(x) => PExpr::Neg(lower(x)?),
            Expr::Not(x) => PExpr::Not(lower(x)?),
            Expr::IsNull { expr, negated } => PExpr::IsNull {
                expr: lower(expr)?,
                negated: *negated,
            },
            Expr::Aggregate { func, arg } => {
                let arg = match arg.as_deref() {
                    Some(x) => {
                        let (px, xi) = self.compile_expr(x)?;
                        info.absorb(&xi);
                        Some(px)
                    }
                    None => None,
                };
                aggs.push((*func, arg));
                column(group_by.len() + aggs.len() - 1)
            }
            Expr::Literal(v) => PExpr::Const(v.clone()),
            _ => unreachable!("`not_grouped` refuses the rest"),
        })
    }

    fn compile_action_inner(&mut self, a: &Action) -> CResult<ActionPlan> {
        match a {
            Action::Rollback => Ok(ActionPlan::Rollback),
            Action::Select(s) => {
                let (plan, _, _) = self.compile_select_inner(s)?;
                Ok(ActionPlan::Select {
                    plan,
                    cache_slots: self.caches,
                })
            }
            Action::Insert(stmt) => {
                let source = match &stmt.source {
                    InsertSource::Values(tuples) => {
                        let mut out = Vec::with_capacity(tuples.len());
                        for t in tuples {
                            let mut row = Vec::with_capacity(t.len());
                            for e in t {
                                row.push(self.compile_expr(e)?.0);
                            }
                            out.push(row);
                        }
                        InsertSourcePlan::Values(out)
                    }
                    InsertSource::Select(s) => {
                        InsertSourcePlan::Select(Box::new(self.compile_select_inner(s)?.0))
                    }
                };
                let schema = self.catalog.table(&stmt.table)?;
                let arity = schema.arity();
                let col_map = match &stmt.columns {
                    None => None,
                    Some(cols) => {
                        let mut indices = Vec::with_capacity(cols.len());
                        for c in cols {
                            indices.push(target_column(schema, "insert", c)?);
                        }
                        Some(indices)
                    }
                };
                Ok(ActionPlan::Insert(InsertPlan {
                    table: stmt.table.clone(),
                    source,
                    col_map,
                    arity,
                    cache_slots: self.caches,
                }))
            }
            Action::Delete(stmt) => {
                self.catalog.table(&stmt.table)?;
                let pred = stmt
                    .where_clause
                    .as_ref()
                    .map(|w| self.compile_scan_pred(&stmt.table, w))
                    .transpose()?;
                Ok(ActionPlan::Delete(DeletePlan {
                    table: stmt.table.clone(),
                    pred,
                    cache_slots: self.caches,
                }))
            }
            Action::Update(stmt) => {
                let schema = self.catalog.table(&stmt.table)?;
                let mut set_indices = Vec::with_capacity(stmt.sets.len());
                for (c, _) in &stmt.sets {
                    set_indices.push(target_column(schema, "update", c)?);
                }
                let pred = stmt
                    .where_clause
                    .as_ref()
                    .map(|w| self.compile_scan_pred(&stmt.table, w))
                    .transpose()?;
                let mut sets = Vec::with_capacity(stmt.sets.len());
                for (_, e) in &stmt.sets {
                    sets.push(self.compile_in_scope(&stmt.table, e)?);
                }
                Ok(ActionPlan::Update(UpdatePlan {
                    table: stmt.table.clone(),
                    set_indices,
                    set_cols: stmt.sets.iter().map(|(c, _)| c.clone()).collect(),
                    sets,
                    pred,
                    cache_slots: self.caches,
                }))
            }
        }
    }

    /// Compiles an expression under a single-source scan scope (DELETE and
    /// UPDATE bind the target table's row exactly like the interpreter's
    /// `matching_tuples`).
    fn compile_in_scope(&mut self, table: &str, e: &Expr) -> CResult<PExpr> {
        self.scope.push_table(table)?;
        let r = self.compile_expr(e);
        self.scope.pop();
        r.map(|(pe, _)| pe)
    }

    /// Compiles a DELETE/UPDATE `WHERE` under the scan scope and decides
    /// whether the whole predicate can run as a vector kernel over the
    /// target table's batch: it must be statically infallible *and*
    /// boolean (so whole-vector evaluation cannot surface an error or a
    /// type failure a per-row scan would order differently) on top of the
    /// structural `vec_safe_pred` check. A rule's vectorizable predicate
    /// also gets its selection's memo key (a rule's only: the memo never
    /// evicts, see [`super::SourcePlan::vkey`]).
    fn compile_scan_pred(&mut self, table: &str, e: &Expr) -> CResult<ScanPred> {
        self.scope.push_table(table)?;
        let r = self.compile_expr(e);
        let out = r.map(|(pred, info)| {
            let vec = info.infallible && info.ty.boolish() && self.vec_safe_pred(&pred, 0);
            let key = if vec && self.rule_table.is_some() {
                vector::selection_key(std::slice::from_ref(&pred))
            } else {
                None
            };
            ScanPred { pred, vec, key }
        });
        self.scope.pop();
        out
    }

    /// Whether a compiled predicate can be evaluated by the vector kernels
    /// against source `si`'s batch: every node is in the kernel subset and
    /// every slot is a depth-0 column of `si` itself. Callers must also
    /// establish infallibility and boolean-ness (the pushdown gate does
    /// both), which is what licenses evaluating the predicate on rows the
    /// row path would have skipped.
    fn vec_safe_pred(&self, p: &PExpr, si: usize) -> bool {
        match p {
            // Boolean here: the gate typed every operand of `AND`, `OR` and
            // `NOT` boolean, or the predicate would be fallible.
            PExpr::Const(_) | PExpr::Slot(_) => self.vec_safe_val(p, si),
            PExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    self.vec_safe_pred(lhs, si) && self.vec_safe_pred(rhs, si)
                }
                op if op.is_comparison() => {
                    self.vec_safe_val(lhs, si) && self.vec_safe_val(rhs, si)
                }
                // Arithmetic is always fallible — never classified.
                _ => false,
            },
            PExpr::Not(x) => self.vec_safe_pred(x, si),
            PExpr::IsNull { expr, .. } => {
                self.vec_safe_val(expr, si) || self.vec_safe_pred(expr, si)
            }
            PExpr::Between {
                expr, low, high, ..
            } => {
                self.vec_safe_val(expr, si)
                    && self.vec_safe_val(low, si)
                    && self.vec_safe_val(high, si)
            }
            PExpr::InList { expr, list, .. } => {
                self.vec_safe_val(expr, si) && list.iter().all(|x| self.vec_safe_val(x, si))
            }
            PExpr::Like { expr, pattern, .. } => {
                self.vec_safe_val(expr, si) && matches!(pattern.as_ref(), PExpr::Const(_))
            }
            // Subqueries, Neg, arithmetic: row path.
            _ => false,
        }
    }

    /// Whether an expression is a kernel *value* operand: a constant or a
    /// depth-0 column of the source itself.
    fn vec_safe_val(&self, p: &PExpr, si: usize) -> bool {
        match p {
            PExpr::Const(_) => true,
            PExpr::Slot(s) => slot_is_local(s, si),
            _ => false,
        }
    }

    /// Recognizes a pushed conjunct of the shape `this.col = probe` (or the
    /// mirror image) where `probe` is a column of an earlier source or an
    /// outer scope, and the two columns share a declared non-float
    /// primitive type — the case where a structural join index agrees with
    /// SQL equality (`NULL` build keys are skipped, `NULL` probes never
    /// match; a `Float` column may also store `Int` values, so floats are
    /// excluded).
    fn detect_join(&self, pc: &PExpr, si: usize) -> Option<JoinKey> {
        let PExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = pc
        else {
            return None;
        };
        let (build, probe) = match (lhs.as_ref(), rhs.as_ref()) {
            (PExpr::Slot(b), PExpr::Slot(p)) if slot_is_local(b, si) && !slot_is_local(p, si) => {
                (b, p)
            }
            (PExpr::Slot(p), PExpr::Slot(b)) if slot_is_local(b, si) && !slot_is_local(p, si) => {
                (b, p)
            }
            _ => return None,
        };
        // The probe must be bound before this source: an earlier source in
        // the same scope, or any outer scope.
        if probe.depth == 0 && probe.source >= si {
            return None;
        }
        let build_ty = self.scope.column(build)?.1.ty;
        let probe_ty = self.scope.column(probe)?.1.ty;
        if build_ty != probe_ty || build_ty == ValueType::Float {
            return None;
        }
        Some(JoinKey {
            build_col: build.col,
            probe: Box::new(PExpr::Slot(*probe)),
        })
    }
}

/// Splits an `AND`-tree into its conjuncts, in evaluation order.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        flatten_and(lhs, out);
        flatten_and(rhs, out);
    } else {
        out.push(e);
    }
}

fn slot_is_local(s: &Slot, si: usize) -> bool {
    s.depth == 0 && s.source == si
}

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, SelectionKey, TableSchema};

    use super::*;
    use crate::ast::Statement;
    use crate::{parse_expr, parse_statement};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["t", "evt"] {
            let cols = vec![
                ColumnDef::new("k", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ];
            cat.add_table(TableSchema::new(name, cols).unwrap())
                .unwrap();
        }
        cat
    }

    /// The memo keys of every source of every compiled subquery in `e`,
    /// outermost first.
    fn keys(e: &PExpr, out: &mut Vec<Option<SelectionKey>>) {
        match e {
            PExpr::Exists { select, .. } => {
                out.extend(select.sources.iter().map(|s| s.vkey.clone()));
            }
            PExpr::Binary { lhs, rhs, .. } => {
                keys(lhs, out);
                keys(rhs, out);
            }
            _ => {}
        }
    }

    fn condition_keys(cond: &str) -> Vec<Option<SelectionKey>> {
        let e = parse_expr(cond).unwrap();
        let CondPlan { pred, .. } = compile_condition(&e, &catalog(), Some("evt")).unwrap();
        let mut out = Vec::new();
        keys(&pred, &mut out);
        out
    }

    fn scan_pred(sql: &str, rule_table: Option<&str>) -> ScanPred {
        let Statement::Dml(a) = parse_statement(sql).unwrap() else {
            panic!("not DML: {sql}");
        };
        match compile_action(&a, &catalog(), rule_table).unwrap() {
            ActionPlan::Update(UpdatePlan { pred, .. })
            | ActionPlan::Delete(DeletePlan { pred, .. }) => pred.expect("a WHERE"),
            other => panic!("{sql}: {other:?}"),
        }
    }

    /// A rule's plans key each base source with vectorizable conjuncts, and
    /// the same conjuncts get the same key in another rule, behind a join
    /// or in another source position; a transition-table source and a
    /// source without such conjuncts get none.
    #[test]
    fn a_rules_sources_share_keys_by_conjunct() {
        let scan = condition_keys("exists (select * from t where v > 8 and k > 5)");
        let joined = condition_keys(
            "exists (select * from inserted i, t where t.k = i.k and t.v > 8 and t.k > 5)",
        );
        let other = condition_keys("exists (select * from t where v > 8 and k >= 5)");
        let bare = condition_keys("exists (select * from t)");
        assert!(scan[0].is_some());
        assert_eq!(joined, vec![None, scan[0].clone()]);
        assert_ne!(other[0], scan[0]);
        assert_eq!(bare, vec![None]);
    }

    /// A rule action's vectorizable `WHERE` is keyed; a user statement's
    /// (compiled with no rule table) and a non-vectorizable one are not.
    #[test]
    fn only_a_rules_vectorizable_dml_predicate_is_keyed() {
        let update = "update t set v = 0 where k >= 10 and k < 20";
        let rule = scan_pred(update, Some("evt"));
        assert!(rule.vec && rule.key.is_some());
        let user = scan_pred(update, None);
        assert!(user.vec && user.key.is_none());
        let delete = scan_pred("delete from t where k >= 10 and k < 20", Some("evt"));
        assert_eq!(delete.key, rule.key);
        let fallible = scan_pred("delete from t where k + 1 > 10", Some("evt"));
        assert!(!fallible.vec && fallible.key.is_none());
    }

    /// A user select (no rule table) carries no key anywhere.
    #[test]
    fn a_user_select_has_no_key() {
        let Statement::Dml(Action::Select(s)) =
            parse_statement("select * from t where v > 8 and k > 5").unwrap()
        else {
            unreachable!()
        };
        let (cs, _) = compile_select(&s, &catalog(), None).unwrap();
        assert!(!cs.sources[0].vpushed.is_empty());
        assert!(cs.sources[0].vkey.is_none());
    }
}
