//! Vectorized predicate kernels over columnar batches.
//!
//! A *vectorizable* pushed conjunct (see `Compiler::vec_safe_pred`) is
//! evaluated here as whole-column kernels producing a [`Bool3`] — a pair of
//! bitmaps encoding Kleene three-valued logic — instead of once per bound
//! row. The selection a scan uses is the `t` (TRUE) bitmap: exactly the
//! rows `is_true` would keep under row-at-a-time evaluation, since a
//! conjunct admits a row only when it is TRUE (FALSE and UNKNOWN both
//! reject).
//!
//! Two invariants make whole-vector evaluation unobservable:
//!
//! * Every expression reaching these kernels was proven statically
//!   **infallible** by the compiler, so evaluating a conjunct on rows a
//!   row-at-a-time engine would have skipped (short-circuit, earlier
//!   conjunct FALSE) cannot surface an error that the row path would not.
//!   The kernels still *implement* the error paths (they mirror
//!   [`crate::eval::expr`] element by element) as defense in depth.
//! * Kernels visit rows in scan order and selections iterate ascending, so
//!   enumeration order — and therefore result order, effect order, and
//!   execution-graph shape — is byte-identical with the row path.
//!
//! Fast paths exist for `Int` columns (the common rule-condition shape);
//! everything else goes through a per-element loop over materialized
//! [`Value`]s, which is still frame-free and allocation-light.
//!
//! A kernel's selection is a pure function of one batch's columns, so a
//! rule's plans memoize it in the batch under `selection_key`, the exact
//! encoding of the predicates that computed it (see
//! [`TableBatch::selection`]).

use std::cmp::Ordering;
use std::ops::Not;

use starling_storage::{Bitmap, Column, ColumnData, SelectionKey, TableBatch, Value};

use crate::ast::BinOp;
use crate::error::SqlError;
use crate::eval::expr::{cmp_bool, compare_values, like_values, sql_eq};

use super::PExpr;

/// A vector of three-valued logic outcomes: bit `i` of `t` set means row
/// `i` evaluated TRUE, bit `i` of `f` means FALSE; neither set means
/// UNKNOWN (NULL). `t` and `f` are disjoint by construction.
#[derive(Clone, Debug)]
pub struct Bool3 {
    /// Rows that evaluated TRUE.
    pub t: Bitmap,
    /// Rows that evaluated FALSE.
    pub f: Bitmap,
}

impl Bool3 {
    /// All rows UNKNOWN.
    pub fn unknown(len: usize) -> Self {
        Bool3 {
            t: Bitmap::zeros(len),
            f: Bitmap::zeros(len),
        }
    }

    /// Every row the same known truth value.
    pub fn uniform(len: usize, v: bool) -> Self {
        if v {
            Bool3 {
                t: Bitmap::ones(len),
                f: Bitmap::zeros(len),
            }
        } else {
            Bool3 {
                t: Bitmap::zeros(len),
                f: Bitmap::ones(len),
            }
        }
    }

    /// Sets row `i` from a scalar 3VL value (TRUE / FALSE / UNKNOWN).
    #[inline]
    fn set(&mut self, i: usize, v: &Value) {
        match v {
            Value::Bool(true) => self.t.set(i, true),
            Value::Bool(false) => self.f.set(i, true),
            _ => {}
        }
    }

    /// Kleene AND: TRUE iff both TRUE; FALSE iff either FALSE.
    pub fn and(mut self, other: &Bool3) -> Bool3 {
        self.t.and_assign(&other.t);
        self.f.or_assign(&other.f);
        self
    }

    /// Kleene OR: TRUE iff either TRUE; FALSE iff both FALSE.
    pub fn or(mut self, other: &Bool3) -> Bool3 {
        self.t.or_assign(&other.t);
        self.f.and_assign(&other.f);
        self
    }
}

/// Kleene NOT: swaps TRUE and FALSE, fixes UNKNOWN.
impl std::ops::Not for Bool3 {
    type Output = Bool3;

    fn not(self) -> Bool3 {
        Bool3 {
            t: self.f,
            f: self.t,
        }
    }
}

/// A value operand of a kernel: a whole column or a broadcast constant.
#[derive(Clone, Copy)]
enum VOperand<'b> {
    Col(&'b Column),
    Const(&'b Value),
}

impl VOperand<'_> {
    /// The operand's value at row `i` (constants broadcast).
    fn value(&self, i: usize) -> Value {
        match self {
            VOperand::Col(c) => c.value(i),
            VOperand::Const(v) => (*v).clone(),
        }
    }

    /// The operand as an integer vector, when it is statically `Int`:
    /// either an `Int` column or an `Int` constant. `None` means "use the
    /// generic path" (including NULL constants, handled by the caller).
    fn as_int(&self) -> Option<IntOperand<'_>> {
        match self {
            VOperand::Col(c) => match &c.data {
                ColumnData::Int(data) => Some(IntOperand::Col(data, &c.validity)),
                _ => None,
            },
            VOperand::Const(Value::Int(k)) => Some(IntOperand::Const(*k)),
            _ => None,
        }
    }
}

/// An integer kernel operand.
enum IntOperand<'b> {
    Col(&'b [i64], &'b Bitmap),
    Const(i64),
}

impl IntOperand<'_> {
    /// The operand's validity word `w` (constants are valid everywhere;
    /// the caller masks past-the-end bits).
    #[inline]
    fn valid_word(&self, w: usize) -> u64 {
        match self {
            IntOperand::Col(_, validity) => validity.words()[w],
            IntOperand::Const(_) => !0,
        }
    }

    /// The operand's value at row `i < n` (a filler where the row is NULL).
    #[inline]
    fn at(&self, i: usize) -> i64 {
        match self {
            IntOperand::Col(data, _) => data[i],
            IntOperand::Const(k) => *k,
        }
    }
}

/// Evaluates a vectorizable predicate over a whole batch. Callers must
/// only pass expressions accepted by `Compiler::vec_safe_pred` for this
/// batch's source; anything else is a compiler bug surfaced as an error.
pub(crate) fn eval_pred(e: &PExpr, batch: &TableBatch) -> Result<Bool3, SqlError> {
    let n = batch.len();
    match e {
        PExpr::Const(v) => match v {
            Value::Bool(b) => Ok(Bool3::uniform(n, *b)),
            Value::Null => Ok(Bool3::unknown(n)),
            v => Err(SqlError::eval(format!("expected boolean, got {v}"))),
        },
        PExpr::Slot(s) => {
            let col = batch.column(s.col);
            match &col.data {
                ColumnData::Bool(bits) => {
                    let mut t = bits.clone();
                    t.and_assign(&col.validity);
                    let mut f = bits.not();
                    f.and_assign(&col.validity);
                    Ok(Bool3 { t, f })
                }
                // A non-Bool column can never reach here through the
                // classifier; mirror `eval_bool`'s error for safety.
                _ => {
                    let mut out = Bool3::unknown(n);
                    for i in 0..n {
                        match col.value(i) {
                            v @ (Value::Bool(_) | Value::Null) => out.set(i, &v),
                            v => return Err(SqlError::eval(format!("expected boolean, got {v}"))),
                        }
                    }
                    Ok(out)
                }
            }
        }
        PExpr::Binary { op, lhs, rhs } => match op {
            BinOp::And => Ok(eval_pred(lhs, batch)?.and(&eval_pred(rhs, batch)?)),
            BinOp::Or => Ok(eval_pred(lhs, batch)?.or(&eval_pred(rhs, batch)?)),
            op if op.is_comparison() => {
                let l = operand(lhs, batch).ok_or_else(not_vectorizable)?;
                let r = operand(rhs, batch).ok_or_else(not_vectorizable)?;
                cmp_strict(*op, l, r, n)
            }
            _ => Err(not_vectorizable()),
        },
        PExpr::Not(x) => Ok(eval_pred(x, batch)?.not()),
        PExpr::IsNull { expr, negated } => {
            let known = match operand(expr, batch) {
                // Value operand: NULL-ness comes straight from validity.
                Some(VOperand::Col(c)) => c.validity.clone(),
                Some(VOperand::Const(v)) => {
                    return Ok(Bool3::uniform(n, v.is_null() != *negated));
                }
                // Predicate operand: NULL is exactly UNKNOWN.
                None => {
                    let b = eval_pred(expr, batch)?;
                    let mut known = b.t;
                    known.or_assign(&b.f);
                    known
                }
            };
            // `x IS NULL` is TRUE where x is unknown/invalid, FALSE where
            // known — never UNKNOWN itself.
            Ok(if *negated {
                Bool3 {
                    f: known.not(),
                    t: known,
                }
            } else {
                Bool3 {
                    t: known.not(),
                    f: known,
                }
            })
        }
        PExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = operand(expr, batch).ok_or_else(not_vectorizable)?;
            let lo = operand(low, batch).ok_or_else(not_vectorizable)?;
            let hi = operand(high, batch).ok_or_else(not_vectorizable)?;
            let ge_lo = cmp_soft(v, lo, n, |o| o != Ordering::Less);
            let le_hi = cmp_soft(v, hi, n, |o| o != Ordering::Greater);
            let both = ge_lo.and(&le_hi);
            Ok(if *negated { both.not() } else { both })
        }
        PExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = operand(expr, batch).ok_or_else(not_vectorizable)?;
            // Kleene OR over per-item soft equality reproduces `in_result`:
            // any TRUE → TRUE, else any UNKNOWN → UNKNOWN, else FALSE.
            let mut acc = Bool3::uniform(n, false);
            for item in list {
                let cand = operand(item, batch).ok_or_else(not_vectorizable)?;
                acc = acc.or(&eq_soft(needle, cand, n));
            }
            Ok(if *negated { acc.not() } else { acc })
        }
        PExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = operand(expr, batch).ok_or_else(not_vectorizable)?;
            let p = operand(pattern, batch).ok_or_else(not_vectorizable)?;
            let mut out = Bool3::unknown(n);
            for i in 0..n {
                out.set(i, &like_values(v.value(i), p.value(i), *negated)?);
            }
            Ok(out)
        }
        _ => Err(not_vectorizable()),
    }
}

/// The rows of `batch` on which every one of `preds` is TRUE: the AND of
/// their `t` bitmaps (a scan keeps a row iff each conjunct is TRUE), and
/// every row for an empty list.
pub(crate) fn select(preds: &[PExpr], batch: &TableBatch) -> Result<Bitmap, SqlError> {
    let mut sel: Option<Bitmap> = None;
    for p in preds {
        let b = eval_pred(p, batch)?;
        match &mut sel {
            None => sel = Some(b.t),
            Some(s) => s.and_assign(&b.t),
        }
    }
    Ok(sel.unwrap_or_else(|| Bitmap::ones(batch.len())))
}

/// The memo key of [`select`]`(preds, ·)`: a prefix-free byte encoding of
/// the predicates, in order, with each slot reduced to its column index
/// (every slot of a vectorizable predicate is a depth-0 column of the one
/// source the batch belongs to). Constants keep their variant, so `1`,
/// `1.0`, `'1'` and `NULL` differ, and floats are encoded by their bits.
/// Equal keys therefore mean equal predicates, and so equal selections
/// over any one batch. `None` for a node outside the kernel subset, which
/// `Compiler::vec_safe_pred` never lets through.
pub(crate) fn selection_key(preds: &[PExpr]) -> Option<SelectionKey> {
    // A conjunct or two encode in 20–60 bytes: one allocation, no regrowth,
    // for the keys every rule compile computes.
    let mut out = Vec::with_capacity(64);
    for p in preds {
        encode(p, &mut out)?;
    }
    Some(SelectionKey::new(out))
}

fn encode(e: &PExpr, out: &mut Vec<u8>) -> Option<()> {
    match e {
        PExpr::Const(v) => {
            out.push(b'c');
            match v {
                Value::Null => out.push(0),
                Value::Bool(b) => out.extend([1, u8::from(*b)]),
                Value::Int(i) => {
                    out.push(2);
                    out.extend(i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(3);
                    out.extend(f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(4);
                    out.extend((s.len() as u64).to_le_bytes());
                    out.extend(s.as_bytes());
                }
            }
        }
        PExpr::Slot(s) => {
            out.push(b's');
            out.extend((s.col as u64).to_le_bytes());
        }
        PExpr::Binary { op, lhs, rhs } => {
            out.extend([b'b', *op as u8]);
            encode(lhs, out)?;
            encode(rhs, out)?;
        }
        PExpr::Not(x) => {
            out.push(b'!');
            encode(x, out)?;
        }
        PExpr::IsNull { expr, negated } => {
            out.extend([b'n', u8::from(*negated)]);
            encode(expr, out)?;
        }
        PExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            out.extend([b'w', u8::from(*negated)]);
            encode(expr, out)?;
            encode(low, out)?;
            encode(high, out)?;
        }
        PExpr::InList {
            expr,
            list,
            negated,
        } => {
            out.extend([b'i', u8::from(*negated)]);
            out.extend((list.len() as u64).to_le_bytes());
            encode(expr, out)?;
            for item in list {
                encode(item, out)?;
            }
        }
        PExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            out.extend([b'l', u8::from(*negated)]);
            encode(expr, out)?;
            encode(pattern, out)?;
        }
        PExpr::Neg(_) | PExpr::InSelect { .. } | PExpr::Exists { .. } | PExpr::Scalar { .. } => {
            return None
        }
    }
    Some(())
}

fn not_vectorizable() -> SqlError {
    SqlError::eval("internal: non-vectorizable expression reached a vector kernel")
}

/// A value operand, when the node is one (constants and local slots).
fn operand<'b>(e: &'b PExpr, batch: &'b TableBatch) -> Option<VOperand<'b>> {
    match e {
        PExpr::Const(v) => Some(VOperand::Const(v)),
        PExpr::Slot(s) => Some(VOperand::Col(batch.column(s.col))),
        _ => None,
    }
}

/// Comparison with `compare_values` semantics: NULL operands → UNKNOWN,
/// incomparable non-null operands → error (unreachable for classified
/// expressions, which are statically comparable).
fn cmp_strict(op: BinOp, l: VOperand, r: VOperand, n: usize) -> Result<Bool3, SqlError> {
    if const_null(&l) || const_null(&r) {
        return Ok(Bool3::unknown(n));
    }
    if let (Some(li), Some(ri)) = (l.as_int(), r.as_int()) {
        // One instantiation per operator, so the inner loop compares
        // without re-dispatching on `op`.
        return Ok(match op {
            BinOp::Eq => cmp_int(&li, &ri, n, |a, b| a == b),
            BinOp::Ne => cmp_int(&li, &ri, n, |a, b| a != b),
            BinOp::Lt => cmp_int(&li, &ri, n, |a, b| a < b),
            BinOp::Le => cmp_int(&li, &ri, n, |a, b| a <= b),
            BinOp::Gt => cmp_int(&li, &ri, n, |a, b| a > b),
            BinOp::Ge => cmp_int(&li, &ri, n, |a, b| a >= b),
            _ => unreachable!("cmp kernels only receive comparison operators"),
        });
    }
    let mut out = Bool3::unknown(n);
    for i in 0..n {
        out.set(i, &compare_values(op, &l.value(i), &r.value(i))?);
    }
    Ok(out)
}

/// Comparison with `cmp_bool` semantics: NULL *or incomparable* operands →
/// UNKNOWN, never an error (`BETWEEN`'s bound checks).
fn cmp_soft(l: VOperand, r: VOperand, n: usize, pred: impl Fn(Ordering) -> bool) -> Bool3 {
    if const_null(&l) || const_null(&r) {
        return Bool3::unknown(n);
    }
    if let (Some(li), Some(ri)) = (l.as_int(), r.as_int()) {
        return cmp_int(&li, &ri, n, |a, b| pred(a.cmp(&b)));
    }
    let mut out = Bool3::unknown(n);
    for i in 0..n {
        out.set(i, &cmp_bool(&l.value(i), &r.value(i), &pred));
    }
    out
}

/// Equality with `sql_eq` semantics: NULL or incomparable → UNKNOWN.
fn eq_soft(l: VOperand, r: VOperand, n: usize) -> Bool3 {
    if const_null(&l) || const_null(&r) {
        return Bool3::unknown(n);
    }
    if let (Some(li), Some(ri)) = (l.as_int(), r.as_int()) {
        return cmp_int(&li, &ri, n, |a, b| a == b);
    }
    let mut out = Bool3::unknown(n);
    for i in 0..n {
        if let Some(b) = sql_eq(&l.value(i), &r.value(i)) {
            out.set(i, &Value::Bool(b));
        }
    }
    out
}

fn const_null(v: &VOperand) -> bool {
    matches!(v, VOperand::Const(Value::Null))
}

/// The integer fast path: same-type comparisons can neither error nor be
/// incomparable, so strict and soft semantics coincide. Runs a word (64
/// rows) at a time, branch-free: every row of the word is compared (a NULL
/// slot holds an in-bounds filler whose verdict is masked away), the
/// verdicts are packed into one register, and both operands' validity
/// words intersect into the mask that splits them into the TRUE and FALSE
/// words — no per-row branches or bitmap writes.
fn cmp_int(l: &IntOperand, r: &IntOperand, n: usize, pred: impl Fn(i64, i64) -> bool) -> Bool3 {
    let mut out = Bool3::unknown(n);
    let t_words = out.t.words_mut();
    let f_words = out.f.words_mut();
    for (w, chunk) in (0..n).step_by(64).enumerate() {
        let in_chunk = (n - chunk).min(64);
        let mut valid = l.valid_word(w) & r.valid_word(w);
        if in_chunk < 64 {
            valid &= (1u64 << in_chunk) - 1;
        }
        let mut hits = 0u64;
        for b in 0..in_chunk {
            hits |= u64::from(pred(l.at(chunk + b), r.at(chunk + b))) << b;
        }
        t_words[w] = hits & valid;
        f_words[w] = !hits & valid;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Slot;

    fn col(col: usize) -> PExpr {
        PExpr::Slot(Slot {
            depth: 0,
            source: 0,
            col,
        })
    }

    fn lit(v: impl Into<Value>) -> Box<PExpr> {
        Box::new(PExpr::Const(v.into()))
    }

    fn cmp(op: BinOp, lhs: PExpr, rhs: Box<PExpr>) -> PExpr {
        PExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs,
        }
    }

    fn key(p: &PExpr) -> SelectionKey {
        selection_key(std::slice::from_ref(p)).expect("in the kernel subset")
    }

    /// Every difference a kernel can see is a different key.
    #[test]
    fn keys_differ_wherever_the_selection_may() {
        let in_list = |items: [i64; 2], negated| PExpr::InList {
            expr: Box::new(col(0)),
            list: items.map(|i| PExpr::Const(Value::Int(i))).into(),
            negated,
        };
        let like = |pattern: &str, negated| PExpr::Like {
            expr: Box::new(col(2)),
            pattern: lit(pattern),
            negated,
        };
        let between = |negated| PExpr::Between {
            expr: Box::new(col(0)),
            low: lit(1),
            high: lit(2),
            negated,
        };
        let is_null = |negated| PExpr::IsNull {
            expr: Box::new(col(0)),
            negated,
        };
        let preds = [
            // Constants that differ only in variant.
            cmp(BinOp::Eq, col(0), lit(1)),
            cmp(BinOp::Eq, col(0), lit(1.0)),
            cmp(BinOp::Eq, col(0), lit("1")),
            cmp(BinOp::Eq, col(0), lit(Value::Null)),
            // `<` against `<=`, and a `NOT`.
            cmp(BinOp::Lt, col(0), lit(1)),
            cmp(BinOp::Le, col(0), lit(1)),
            PExpr::Not(Box::new(cmp(BinOp::Lt, col(0), lit(1)))),
            // Another column.
            cmp(BinOp::Eq, col(1), lit(1)),
            // `negated` flags.
            is_null(false),
            is_null(true),
            between(false),
            between(true),
            // IN-list order and polarity.
            in_list([1, 2], false),
            in_list([2, 1], false),
            in_list([1, 2], true),
            // LIKE patterns and polarity.
            like("a%", false),
            like("a_", false),
            like("a%", true),
        ];
        let keys: Vec<SelectionKey> = preds.iter().map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} and {:?} share a key", preds[i], preds[j]);
            }
        }
    }

    /// The encoding is prefix-free: a list of predicates never collides
    /// with a shorter or a reordered one, nor with one whose string
    /// constant swallows a neighbour.
    #[test]
    fn keys_of_predicate_lists_are_exact() {
        let (a, b) = (
            cmp(BinOp::Gt, col(1), lit(8)),
            cmp(BinOp::Gt, col(0), lit(5)),
        );
        let both = selection_key(&[a.clone(), b.clone()]).unwrap();
        assert_ne!(both, key(&a));
        assert_ne!(both, selection_key(&[b.clone(), a.clone()]).unwrap());
        let s = |x: &str| cmp(BinOp::Eq, col(2), lit(x));
        assert_ne!(
            selection_key(&[s("ab"), s("c")]),
            selection_key(&[s("a"), s("bc")])
        );
        assert_eq!(both, selection_key(&[a, b]).unwrap());
    }

    /// A slot is keyed by its column only: the same conjunct gets one key
    /// in any source position.
    #[test]
    fn a_conjunct_keys_alike_in_every_source_position() {
        let at = |source| {
            cmp(
                BinOp::Ge,
                PExpr::Slot(Slot {
                    depth: 0,
                    source,
                    col: 1,
                }),
                lit(3),
            )
        };
        assert_eq!(key(&at(0)), key(&at(2)));
    }

    /// Outside the kernel subset there is no key.
    #[test]
    fn no_key_outside_the_kernel_subset() {
        let neg = cmp(BinOp::Gt, PExpr::Neg(Box::new(col(0))), lit(1));
        assert!(selection_key(&[cmp(BinOp::Gt, col(0), lit(1)), neg]).is_none());
    }
}
