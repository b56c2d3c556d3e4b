//! Syntactic extraction of the paper's Section 3 rule definitions.
//!
//! Given a rule's AST and the catalog, this module computes:
//!
//! * **Triggered-By(r)** — the operations in `O` that trigger `r` (trivial
//!   from the `when` clause; `updated` with no column list expands to every
//!   column of the rule's table);
//! * **Performs(r)** — the operations `r`'s action may perform (trivial from
//!   the action statements);
//! * **Reads(r)** — every `t.c` referenced in a select or where clause of
//!   `r`'s condition or action, with transition-table references mapped to
//!   the rule's table (footnote 1 of the paper: the language does not
//!   distinguish positive from negative reads), recorded by the validating
//!   walk of [`crate::validate`] as it resolves each name;
//! * **Observable(r)** — whether the action performs data retrieval or
//!   rollback (Section 8);
//!
//! and, beside the signature, the two Section 3 relations between rules
//! built from it: `Triggers` and `Can-Untrigger`.
//!
//! It also holds the scope stack every column name resolves through, and
//! the static type lattice (`Ty`) every expression is typed in, in
//! validation and in the plan compiler alike.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use starling_storage::{
    Catalog, ColRef, ColumnDef, Op, StorageError, TableSchema, Value, ValueType,
};

use crate::ast::*;
use crate::error::SqlError;
use crate::plan::Slot;

/// One name in scope: a `FROM` item's binding name (alias or table name)
/// and the schema its rows conform to.
pub(crate) struct Binding<'a> {
    pub(crate) name: String,
    pub(crate) schema: &'a TableSchema,
}

/// Lexical scope stack for column resolution: the one resolver that
/// validation ([`crate::validate`]) and the plan compiler ([`crate::plan`])
/// bind names through.
///
/// Frames are searched innermost-first; within a frame an unqualified column
/// must resolve to exactly one binding (else it is ambiguous). Outer frames
/// provide correlated-subquery bindings.
pub(crate) struct Scope<'a> {
    catalog: &'a Catalog,
    /// The rule's table, when resolving inside a rule (enables transition
    /// tables).
    rule_table: Option<&'a str>,
    frames: Vec<Vec<Binding<'a>>>,
}

impl<'a> Scope<'a> {
    /// A scope for expressions inside a rule on `rule_table`, or outside any
    /// rule when `rule_table` is `None`.
    pub(crate) fn new(catalog: &'a Catalog, rule_table: Option<&'a str>) -> Self {
        Scope {
            catalog,
            rule_table,
            frames: Vec::new(),
        }
    }

    /// Pushes a frame of bindings from `FROM` items. A transition table
    /// binds the rule's table.
    pub(crate) fn push_from(&mut self, items: &[FromItem]) -> Result<(), SqlError> {
        let mut frame = Vec::with_capacity(items.len());
        for item in items {
            let table = match &item.table {
                TableRef::Base(t) => t,
                TableRef::Transition(tt) => self.rule_table.ok_or_else(|| {
                    SqlError::validate(format!(
                        "transition table `{}` referenced outside a rule",
                        tt.name()
                    ))
                })?,
            };
            let schema = self.catalog.table(table)?;
            let name = item.binding().to_owned();
            if frame.iter().any(|b: &Binding| b.name == name) {
                return Err(SqlError::validate(format!(
                    "duplicate binding `{name}` in from clause"
                )));
            }
            frame.push(Binding { name, schema });
        }
        self.frames.push(frame);
        Ok(())
    }

    /// Pushes a frame binding a single base table under its own name (the
    /// implicit scope of `UPDATE`/`DELETE` targets).
    pub(crate) fn push_table(&mut self, table: &str) -> Result<(), SqlError> {
        let schema = self.catalog.table(table)?;
        self.frames.push(vec![Binding {
            name: table.to_owned(),
            schema,
        }]);
        Ok(())
    }

    /// Pops the innermost frame.
    pub(crate) fn pop(&mut self) {
        self.frames.pop();
    }

    /// How many frames are pushed.
    pub(crate) fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The bindings of the innermost frame, in `FROM` order.
    pub(crate) fn innermost(&self) -> &[Binding<'a>] {
        self.frames.last().map_or(&[], Vec::as_slice)
    }

    /// The column a resolved slot reads, if `slot` is one of this scope's.
    pub(crate) fn column(&self, slot: &Slot) -> Option<(&'a TableSchema, &'a ColumnDef)> {
        let frame = self.frames.len().checked_sub(1 + slot.depth)?;
        let schema = self.frames[frame].get(slot.source)?.schema;
        Some((schema, schema.columns.get(slot.col)?))
    }

    /// Resolves a column reference against the scope stack, to its frame
    /// distance from the innermost, its `FROM` index and its column index,
    /// and yields the column's declared type. A qualified name stops at the
    /// first frame that binds its qualifier, even when that table lacks the
    /// column, as the interpreter's lookup does.
    pub(crate) fn resolve(&self, col: &ColumnRef) -> Result<(Slot, ValueType), SqlError> {
        for (depth, frame) in self.frames.iter().rev().enumerate() {
            let slot = |source, schema: &TableSchema, col: usize| {
                (Slot { depth, source, col }, schema.columns[col].ty)
            };
            match &col.qualifier {
                Some(q) => {
                    if let Some((si, b)) = frame.iter().enumerate().find(|(_, b)| &b.name == q) {
                        let Some(ci) = b.schema.column_index(&col.column) else {
                            return Err(SqlError::validate(format!(
                                "table `{}` (bound as `{q}`) has no column `{}`",
                                b.schema.name, col.column
                            )));
                        };
                        return Ok(slot(si, b.schema, ci));
                    }
                }
                None => {
                    let mut matches = frame.iter().enumerate().filter_map(|(si, b)| {
                        Some((si, b.schema, b.schema.column_index(&col.column)?))
                    });
                    if let Some((si, schema, ci)) = matches.next() {
                        if matches.next().is_some() {
                            return Err(SqlError::validate(format!(
                                "ambiguous column `{}`",
                                col.column
                            )));
                        }
                        return Ok(slot(si, schema, ci));
                    }
                }
            }
        }
        Err(SqlError::validate(format!("cannot resolve column `{col}`")))
    }
}

/// The one static type lattice, which the validator ([`crate::validate`])
/// refuses by and the plan compiler ([`crate::plan`]) proves kernels
/// infallible by. `X` is "an `X` or `NULL`", `Null` always `NULL`, `Unknown`
/// anything; `Float` is numeric, since a `FLOAT` column also stores
/// `INTEGER`s. A refusal is the runtime's message with types for values;
/// `Null` and `Unknown` operands refuse nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ty {
    Int,
    Float,
    Str,
    Bool,
    Null,
    Unknown,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let other = if *self == Ty::Null { "NULL" } else { "unknown" };
        f.write_str(self.known().map_or(other, ValueType::keyword))
    }
}

impl Ty {
    pub(crate) fn of_value(v: &Value) -> Ty {
        v.value_type().map_or(Ty::Null, Ty::of_decl)
    }

    pub(crate) fn of_decl(ty: ValueType) -> Ty {
        match ty {
            ValueType::Bool => Ty::Bool,
            ValueType::Int => Ty::Int,
            ValueType::Float => Ty::Float,
            ValueType::Str => Ty::Str,
        }
    }

    /// The declared type this stands for; `None` for `Null` and `Unknown`.
    fn known(self) -> Option<ValueType> {
        match self {
            Ty::Bool => Some(ValueType::Bool),
            Ty::Int => Some(ValueType::Int),
            Ty::Float => Some(ValueType::Float),
            Ty::Str => Some(ValueType::Str),
            Ty::Null | Ty::Unknown => None,
        }
    }

    pub(crate) fn numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float)
    }

    /// Whether comparing values of these types can never fail.
    pub(crate) fn comparable(self, other: Ty) -> bool {
        match (self, other) {
            (Ty::Null, _) | (_, Ty::Null) => true,
            (Ty::Unknown, _) | (_, Ty::Unknown) => false,
            _ => self == other || (self.numeric() && other.numeric()),
        }
    }

    /// Whether a value of this type always passes `eval_bool`.
    pub(crate) fn boolish(self) -> bool {
        matches!(self, Ty::Bool | Ty::Null)
    }

    /// Refuses comparing (`=`, `IN`, `BETWEEN`, …) two known, incomparable
    /// types.
    pub(crate) fn compare(self, other: Ty) -> Result<(), SqlError> {
        if self.known().is_some() && other.known().is_some() && !self.comparable(other) {
            return Err(SqlError::validate(format!(
                "cannot compare {self} with {other}"
            )));
        }
        Ok(())
    }

    /// Refuses a known non-boolean where `eval_bool` reads it: a `WHERE`,
    /// `HAVING` or rule condition, or an operand of `AND`, `OR` or `NOT`.
    pub(crate) fn condition(self) -> Result<(), SqlError> {
        match self {
            Ty::Int | Ty::Float | Ty::Str => {
                Err(SqlError::validate(format!("expected boolean, got {self}")))
            }
            _ => Ok(()),
        }
    }

    /// The type of a binary operator's result.
    pub(crate) fn binary(op: BinOp, l: Ty, r: Ty) -> Result<Ty, SqlError> {
        if matches!(op, BinOp::And | BinOp::Or) {
            l.condition()?;
            r.condition()?;
            return Ok(Ty::Bool);
        }
        if op.is_comparison() {
            l.compare(r)?;
            return Ok(Ty::Bool);
        }
        Ok(match (l, r) {
            // A `NULL` operand yields `NULL` before the operator runs.
            (Ty::Null, _) | (_, Ty::Null) => Ty::Null,
            (Ty::Int, Ty::Int) => Ty::Int,
            _ if l.numeric() && r.numeric() => Ty::Float,
            (Ty::Unknown, _) | (_, Ty::Unknown) => Ty::Unknown,
            _ => {
                return Err(SqlError::validate(format!(
                    "arithmetic on non-numeric values {l} and {r}"
                )))
            }
        })
    }

    /// The type of unary minus.
    pub(crate) fn neg(self) -> Result<Ty, SqlError> {
        match self {
            Ty::Bool | Ty::Str => Err(SqlError::validate(format!("cannot negate {self}"))),
            t => Ok(t),
        }
    }

    /// The type of `[NOT] LIKE`.
    pub(crate) fn like(v: Ty, pattern: Ty) -> Result<Ty, SqlError> {
        match (v.known(), pattern.known()) {
            (Some(a), Some(b)) if a != ValueType::Str || b != ValueType::Str => Err(
                SqlError::validate(format!("LIKE requires strings, got {v} and {pattern}")),
            ),
            _ => Ok(Ty::Bool),
        }
    }

    /// The type of an aggregate over an argument of type `arg` (`Null` for
    /// `count(*)`): `SUM` and `AVG` need a numeric argument.
    pub(crate) fn aggregate(func: Aggregate, arg: Ty) -> Result<Ty, SqlError> {
        match func {
            Aggregate::CountStar | Aggregate::Count => Ok(Ty::Int),
            Aggregate::Min | Aggregate::Max => Ok(arg),
            _ if matches!(arg, Ty::Bool | Ty::Str) => Err(SqlError::validate(format!(
                "cannot aggregate non-numeric value {arg}"
            ))),
            Aggregate::Avg if arg.numeric() => Ok(Ty::Float),
            _ => Ok(arg),
        }
    }

    /// Refuses a value of this type written to `column` of `table`: a type
    /// the column does not accept, or `NULL` into a `NOT NULL` column.
    pub(crate) fn store(self, table: &str, column: &ColumnDef) -> Result<(), SqlError> {
        let refused = match self.known() {
            None if self == Ty::Null && !column.nullable => StorageError::NullViolation {
                table: table.to_owned(),
                column: column.name.clone(),
            },
            Some(found) if !column.ty.accepts(found) => StorageError::TypeMismatch {
                table: table.to_owned(),
                column: column.name.clone(),
                expected: column.ty,
                found,
            },
            _ => return Ok(()),
        };
        Err(SqlError::validate(refused.to_string()))
    }
}

/// A body's memoized signature, with the catalog handle it was derived
/// against: one replaceable slot. Only a successful derivation is stored,
/// and a clone of the body starts empty.
#[derive(Default)]
pub(crate) struct SignatureMemo(Mutex<Option<Signed>>);

/// A signature and the catalog it was derived against.
type Signed = (Arc<Catalog>, Arc<RuleSignature>);

impl SignatureMemo {
    fn slot(&self) -> MutexGuard<'_, Option<Signed>> {
        // The slot holds no invariant a panicking holder could break.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Empties the slot (the body is about to be written).
    pub(crate) fn clear(&mut self) {
        *self.0.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

impl Clone for SignatureMemo {
    fn clone(&self) -> Self {
        SignatureMemo::default()
    }
}

impl RuleBody {
    /// The rule's signature against `catalog`: [`RuleSignature::of_rule`],
    /// memoized. The memo answers when it was derived against this very
    /// catalog handle (`Arc::ptr_eq`), so a hit costs a pointer
    /// comparison; otherwise the signature is derived and, if the rule is
    /// valid, replaces the memo. A refusal is never memoized.
    pub fn signature(&self, catalog: &Arc<Catalog>) -> Result<Arc<RuleSignature>, SqlError> {
        if let Some((c, sig)) = &*self.memo.slot() {
            if Arc::ptr_eq(c, catalog) {
                return Ok(Arc::clone(sig));
            }
        }
        let sig = Arc::new(RuleSignature::of_rule(self, catalog)?);
        *self.memo.slot() = Some((Arc::clone(catalog), Arc::clone(&sig)));
        Ok(sig)
    }

    /// The catalog handle the memoized signature was derived against, if
    /// any. A rule set compiling against an equal catalog adopts it, so
    /// that every unchanged rule's memo answers.
    pub fn signed_catalog(&self) -> Option<Arc<Catalog>> {
        self.memo.slot().as_ref().map(|(c, _)| Arc::clone(c))
    }
}

/// The static signature of a rule: the paper's Section 3 per-rule
/// definitions, computed once at rule-set compile time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleSignature {
    /// Rule name.
    pub name: String,
    /// The rule's table.
    pub table: String,
    /// `Triggered-By(r) ⊆ O`.
    pub triggered_by: BTreeSet<Op>,
    /// `Performs(r) ⊆ O`.
    pub performs: BTreeSet<Op>,
    /// `Reads(r) ⊆ C`.
    pub reads: BTreeSet<ColRef>,
    /// `Observable(r)`.
    pub observable: bool,
}

impl RuleSignature {
    /// Validates a rule against a catalog and computes its signature.
    ///
    /// `Reads` is what the validating walk ([`crate::validate`]) resolved;
    /// the walk's errors come first, then an `updated(c)` that names no
    /// column of the rule's table.
    pub fn of_rule(rule: &RuleBody, catalog: &Catalog) -> Result<Self, SqlError> {
        let reads = crate::validate::rule_reads(rule, catalog)?;
        let schema = catalog.table(&rule.table)?;

        let mut triggered_by = BTreeSet::new();
        for ev in &rule.events {
            match ev {
                TriggerEvent::Inserted => {
                    triggered_by.insert(Op::Insert(rule.table.clone()));
                }
                TriggerEvent::Deleted => {
                    triggered_by.insert(Op::Delete(rule.table.clone()));
                }
                TriggerEvent::Updated(None) => {
                    for c in schema.column_names() {
                        triggered_by.insert(Op::update(rule.table.clone(), c));
                    }
                }
                TriggerEvent::Updated(Some(cols)) => {
                    for c in cols {
                        if schema.column_index(c).is_none() {
                            return Err(SqlError::validate(format!(
                                "rule `{}`: `updated({c})` names no column of `{}`",
                                rule.name, rule.table
                            )));
                        }
                        triggered_by.insert(Op::update(rule.table.clone(), c.clone()));
                    }
                }
            }
        }

        let mut performs = BTreeSet::new();
        for a in &rule.actions {
            match a {
                Action::Insert(i) => {
                    performs.insert(Op::Insert(i.table.clone()));
                }
                Action::Delete(d) => {
                    performs.insert(Op::Delete(d.table.clone()));
                }
                Action::Update(u) => {
                    for (c, _) in &u.sets {
                        performs.insert(Op::update(u.table.clone(), c.clone()));
                    }
                }
                Action::Select(_) | Action::Rollback => {}
            }
        }

        Ok(RuleSignature {
            name: rule.name.clone(),
            table: rule.table.clone(),
            triggered_by,
            performs,
            reads,
            observable: rule.actions.iter().any(Action::is_observable),
        })
    }

    /// `Triggers`: whether this rule's action can trigger `q`, i.e.
    /// `Performs(self) ∩ Triggered-By(q) ≠ ∅` (`q` may be this rule).
    pub fn can_trigger(&self, q: &RuleSignature) -> bool {
        q.triggered_by.iter().any(|op| self.performs.contains(op))
    }

    /// `Can-Untrigger`: whether performing `op` can untrigger this rule. A
    /// rule triggered by insertions into (or updates of) `t` can be
    /// untriggered by deletions from `t`, which may undo the triggering
    /// changes.
    pub fn untriggered_by(&self, op: &Op) -> bool {
        let Op::Delete(t) = op else { return false };
        self.triggered_by.iter().any(|tb| match tb {
            Op::Insert(t2) => t2 == t,
            Op::Update(c) => &c.table == t,
            Op::Delete(_) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableSchema::new(
                "emp",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("salary", ValueType::Int),
                    ColumnDef::new("dno", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add_table(
            TableSchema::new(
                "dept",
                vec![
                    ColumnDef::new("dno", ValueType::Int),
                    ColumnDef::new("budget", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn sig(src: &str) -> RuleSignature {
        let Statement::CreateRule(r) = parse_statement(src).unwrap() else {
            panic!()
        };
        RuleSignature::of_rule(&r, &catalog()).unwrap()
    }

    #[test]
    fn triggered_by_expansion() {
        let s = sig("create rule r on emp when inserted, updated(salary) then rollback end");
        assert!(s.triggered_by.contains(&Op::Insert("emp".into())));
        assert!(s.triggered_by.contains(&Op::update("emp", "salary")));
        assert_eq!(s.triggered_by.len(), 2);

        // `updated` with no columns expands to all columns.
        let s = sig("create rule r on emp when updated then rollback end");
        assert_eq!(s.triggered_by.len(), 3);
    }

    #[test]
    fn performs_extraction() {
        let s = sig("create rule r on emp when inserted then \
             update dept set budget = 0; delete from emp; insert into dept values (1, 2) end");
        assert!(s.performs.contains(&Op::update("dept", "budget")));
        assert!(s.performs.contains(&Op::Delete("emp".into())));
        assert!(s.performs.contains(&Op::Insert("dept".into())));
        assert_eq!(s.performs.len(), 3);
    }

    #[test]
    fn reads_from_condition_and_action() {
        let s = sig("create rule r on emp when inserted \
             if exists (select * from inserted where salary > 10) \
             then delete from dept where budget < 0 end");
        // `select *` from transition table reads all of emp's columns.
        assert!(s.reads.contains(&ColRef::new("emp", "id")));
        assert!(s.reads.contains(&ColRef::new("emp", "salary")));
        assert!(s.reads.contains(&ColRef::new("emp", "dno")));
        assert!(s.reads.contains(&ColRef::new("dept", "budget")));
    }

    #[test]
    fn transition_reads_map_to_rule_table() {
        let s = sig("create rule r on emp when updated(salary) \
             if exists (select * from new_updated as n, old_updated o where n.salary > o.salary) \
             then rollback end");
        assert!(s.reads.contains(&ColRef::new("emp", "salary")));
        assert!(!s.reads.iter().any(|c| c.table == "new_updated"));
    }

    #[test]
    fn correlated_subquery_resolution() {
        let s = sig("create rule r on emp when inserted \
             then delete from dept where not exists \
               (select * from emp where emp.dno = dept.dno) end");
        assert!(s.reads.contains(&ColRef::new("emp", "dno")));
        assert!(s.reads.contains(&ColRef::new("dept", "dno")));
    }

    #[test]
    fn update_set_exprs_read() {
        let s = sig("create rule r on emp when inserted \
             then update emp set salary = salary + 1 where id > 0 end");
        assert!(s.reads.contains(&ColRef::new("emp", "salary")));
        assert!(s.reads.contains(&ColRef::new("emp", "id")));
    }

    #[test]
    fn observability() {
        assert!(sig("create rule r on emp when inserted then rollback end").observable);
        assert!(sig("create rule r on emp when inserted then select id from emp end").observable);
        assert!(!sig("create rule r on emp when inserted then delete from emp end").observable);
    }

    #[test]
    fn unknown_column_in_updated_rejected() {
        let Statement::CreateRule(r) =
            parse_statement("create rule r on emp when updated(nope) then rollback end").unwrap()
        else {
            panic!()
        };
        assert!(RuleSignature::of_rule(&r, &catalog()).is_err());
    }

    /// The walk's errors come before the `updated(c)` check: a rule with
    /// both reports its action's.
    #[test]
    fn action_error_precedes_unknown_updated_column() {
        let Statement::CreateRule(r) = parse_statement(
            "create rule r on emp when updated(nope) then delete from dept where zzz = 1 end",
        )
        .unwrap() else {
            panic!()
        };
        let err = RuleSignature::of_rule(&r, &catalog()).unwrap_err();
        assert!(
            err.to_string()
                .contains("rule `r`: cannot resolve column `zzz`"),
            "{err}"
        );
    }

    #[test]
    fn ambiguous_column_rejected() {
        let Statement::CreateRule(r) = parse_statement(
            "create rule r on emp when inserted \
             then select dno from emp, dept end",
        )
        .unwrap() else {
            panic!()
        };
        let err = RuleSignature::of_rule(&r, &catalog()).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn transition_table_outside_rule_rejected() {
        let cat = catalog();
        let mut scope = Scope::new(&cat, None);
        let err = scope
            .push_from(&[FromItem {
                table: TableRef::Transition(TransitionTable::Inserted),
                alias: None,
            }])
            .unwrap_err();
        assert!(err.to_string().contains("outside a rule"));
    }

    #[test]
    fn unresolvable_column_rejected() {
        let Statement::CreateRule(r) = parse_statement(
            "create rule r on emp when inserted then delete from dept where zzz = 1 end",
        )
        .unwrap() else {
            panic!()
        };
        assert!(RuleSignature::of_rule(&r, &catalog()).is_err());
    }
}
