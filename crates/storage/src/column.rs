//! Typed column vectors and validity/selection bitmaps.
//!
//! The row store ([`crate::Table`]) keeps tuples as id-sorted `Row`s, a
//! chunk at a time — the right shape for identity-preserving mutation, and
//! the wrong shape for the compile-once/evaluate-many workload of rule
//! conditions, where the same predicate scans the same (barely changed)
//! table thousands of times. This
//! module provides the batch-oriented view: values of one column packed into
//! a typed vector ([`ColumnData`]) with NULLs tracked in a validity
//! [`Bitmap`], so predicate kernels run as tight per-column loops and
//! filters mark surviving rows in a selection bitmap instead of
//! materializing them.
//!
//! Representation notes:
//!
//! * `Int`, `Str`, and `Bool` columns store their natural vectors. A `Bool`
//!   column is itself a bitmap (data bits) plus the validity bitmap.
//! * A `Float` column may legally hold `Value::Int` too (the one implicit
//!   widening the SQL subset performs) **and the stored value keeps its
//!   variant** — `Int(1)` and `Float(1.0)` are structurally distinct (they
//!   digest and sort differently). A typed `Vec<f64>` would erase that
//!   distinction, so float columns use the [`ColumnData::Mixed`] fallback,
//!   which round-trips values exactly.
//! * Bits beyond `len` in every bitmap are zero — an invariant the property
//!   tests (`tests/columnar_props.rs`) check after every operation, since
//!   word-wise combinators rely on it.

use crate::value::{Value, ValueType};

/// A fixed-length bitmap. Used for column validity (bit set = non-NULL) and
/// for row selections (bit set = row survives the filter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one bitmap of `len` bits (tail bits beyond `len` stay zero).
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Zeroes the bits beyond `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// In-place AND with another bitmap of the same length.
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place OR with another bitmap of the same length.
    pub fn or_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The complement (tail bits kept zero).
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Iterates the indices of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Direct word access for word-at-a-time kernels. Bits beyond `len`
    /// are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable word access for word-at-a-time kernels. The caller must keep
    /// bits beyond `len` zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Iterator over the set-bit indices of a [`Bitmap`], ascending.
pub struct Ones<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

/// The typed values of one column (NULL slots hold an arbitrary placeholder;
/// the validity bitmap is authoritative).
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// Integer column: packed `i64`s.
    Int(Vec<i64>),
    /// Boolean column: data bits (valid slots only are meaningful).
    Bool(Bitmap),
    /// String column.
    Str(Vec<String>),
    /// Exact-value fallback used for `Float` columns (which may store both
    /// `Int` and `Float` variants) — round-trips values structurally.
    Mixed(Vec<Value>),
}

/// One column of a batch: typed data plus a validity bitmap (bit set =
/// non-NULL).
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// The packed values.
    pub data: ColumnData,
    /// Validity: bit `i` set iff row `i` is non-NULL in this column.
    pub validity: Bitmap,
}

impl Column {
    /// Builds a column of declared type `ty` from row values in scan order.
    pub fn from_values<'v>(
        ty: ValueType,
        values: impl Iterator<Item = &'v Value>,
        len: usize,
    ) -> Self {
        let mut validity = Bitmap::zeros(len);
        let data = match ty {
            ValueType::Int => {
                let mut out = vec![0i64; len];
                for (i, v) in values.enumerate() {
                    if let Value::Int(x) = v {
                        out[i] = *x;
                        validity.set(i, true);
                    }
                }
                ColumnData::Int(out)
            }
            ValueType::Bool => {
                let mut bits = Bitmap::zeros(len);
                for (i, v) in values.enumerate() {
                    if let Value::Bool(b) = v {
                        bits.set(i, *b);
                        validity.set(i, true);
                    }
                }
                ColumnData::Bool(bits)
            }
            ValueType::Str => {
                let mut out = vec![String::new(); len];
                for (i, v) in values.enumerate() {
                    if let Value::Str(s) = v {
                        out[i] = s.clone();
                        validity.set(i, true);
                    }
                }
                ColumnData::Str(out)
            }
            ValueType::Float => {
                let mut out = vec![Value::Null; len];
                for (i, v) in values.enumerate() {
                    if !v.is_null() {
                        out[i] = v.clone();
                        validity.set(i, true);
                    }
                }
                ColumnData::Mixed(out)
            }
        };
        Column { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        !self.validity.get(i)
    }

    /// Materializes row `i` back into a [`Value`] — the exact value the row
    /// store holds (structural round-trip, including the `Int`-in-`Float`
    /// case).
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Bool(bits) => Value::Bool(bits.get(i)),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::zeros(70);
        assert_eq!(b.len(), 70);
        assert!(!b.any());
        b.set(0, true);
        b.set(69, true);
        assert!(b.get(0) && b.get(69) && !b.get(33));
        assert_eq!(b.count_ones(), 2);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 69]);
        b.set(0, false);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn bitmap_ones_masks_tail() {
        let b = Bitmap::ones(65);
        assert_eq!(b.count_ones(), 65);
        // The complement of all-ones is empty — tail bits must stay zero.
        assert_eq!(b.not().count_ones(), 0);
        assert_eq!(Bitmap::zeros(65).not().count_ones(), 65);
    }

    #[test]
    fn bitmap_combinators() {
        let mut a = Bitmap::zeros(10);
        let mut b = Bitmap::zeros(10);
        a.set(1, true);
        a.set(2, true);
        b.set(2, true);
        b.set(3, true);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![2]);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn column_round_trips_values() {
        let vals = [Value::Int(3), Value::Null, Value::Int(-7)];
        let c = Column::from_values(ValueType::Int, vals.iter(), vals.len());
        assert_eq!(c.len(), 3);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
        assert!(c.is_null(1) && !c.is_null(0));
    }

    #[test]
    fn float_column_keeps_int_variants() {
        // A Float column accepts Int values; the batch view must preserve
        // the variant (Int(1) and Float(1.0) are structurally distinct).
        let vals = [Value::Float(1.5), Value::Int(2), Value::Null];
        let c = Column::from_values(ValueType::Float, vals.iter(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn bool_column_bits() {
        let vals = [Value::Bool(true), Value::Bool(false), Value::Null];
        let c = Column::from_values(ValueType::Bool, vals.iter(), vals.len());
        assert_eq!(c.value(0), Value::Bool(true));
        assert_eq!(c.value(1), Value::Bool(false));
        assert_eq!(c.value(2), Value::Null);
    }
}
