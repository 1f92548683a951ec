//! In-memory columnar relations.
//!
//! A [`Relation`] stores one typed [`Column`] per schema attribute. Integer
//! columns back `Int` and `Categorical` attributes; float columns back
//! `Double` attributes. Engines ask for typed slices ([`Relation::int_col`],
//! [`Relation::f64_col`]) in their hot loops — this is the "specialisation"
//! half of the paper's §4 toolbox, realised through Rust monomorphization
//! instead of C++ code generation.

use crate::error::DataError;
use crate::schema::{AttrType, Schema};
use crate::value::Value;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counter behind [`Relation::data_id`]: every distinct relation
/// *content state* (fresh build, or any mutation of an existing relation)
/// gets a fresh id, never reused within the process.
static NEXT_DATA_ID: AtomicU64 = AtomicU64::new(1);

fn next_data_id() -> u64 {
    NEXT_DATA_ID.fetch_add(1, Ordering::Relaxed)
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Backing store for `Int` and `Categorical` attributes.
    Int(Vec<i64>),
    /// Backing store for `Double` attributes.
    F64(Vec<f64>),
}

impl Column {
    fn with_capacity(ty: AttrType, cap: usize) -> Self {
        if ty.is_int_backed() {
            Column::Int(Vec::with_capacity(cap))
        } else {
            Column::F64(Vec::with_capacity(cap))
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::F64(v) => Value::F64(v[row]),
        }
    }

    fn push(&mut self, v: Value, attr: &str) -> Result<()> {
        match (self, v) {
            (Column::Int(col), Value::Int(i)) => {
                col.push(i);
                Ok(())
            }
            (Column::F64(col), Value::F64(f)) => {
                col.push(f);
                Ok(())
            }
            (Column::Int(_), got) => Err(DataError::TypeMismatch {
                attribute: attr.to_string(),
                expected: "Int",
                got: format!("{got:?}"),
            }),
            (Column::F64(_), got) => Err(DataError::TypeMismatch {
                attribute: attr.to_string(),
                expected: "F64",
                got: format!("{got:?}"),
            }),
        }
    }

    fn gather(&self, perm: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(perm.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(perm.iter().map(|&i| v[i]).collect()),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            Column::Int(v) => v.truncate(len),
            Column::F64(v) => v.truncate(len),
        }
    }

    /// `(min, max)` of an integer column; `None` if empty or float-backed.
    pub fn int_min_max(&self) -> Option<(i64, i64)> {
        match self {
            Column::Int(v) => {
                let mut it = v.iter();
                let first = *it.next()?;
                Some(it.fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x))))
            }
            Column::F64(_) => None,
        }
    }

    /// Appends all values of `other`; errors (leaving `self` untouched) if
    /// the columns have different backing types. `attr` names the column
    /// in the error.
    pub fn extend_from(&mut self, other: &Column, attr: &str) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (Column::Int(_), Column::F64(_)) => {
                return Err(DataError::TypeMismatch {
                    attribute: attr.to_string(),
                    expected: "Int",
                    got: "F64 column".to_string(),
                })
            }
            (Column::F64(_), Column::Int(_)) => {
                return Err(DataError::TypeMismatch {
                    attribute: attr.to_string(),
                    expected: "F64",
                    got: "Int column".to_string(),
                })
            }
        }
        Ok(())
    }
}

/// A borrowed row: the relation plus a row index.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    rel: &'a Relation,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The value of the `col`-th attribute.
    #[inline]
    pub fn value(&self, col: usize) -> Value {
        self.rel.cols[col].value(self.row)
    }

    /// All values of the row, materialized.
    pub fn to_vec(&self) -> Vec<Value> {
        (0..self.rel.schema.arity()).map(|c| self.value(c)).collect()
    }

    /// Index of this row within its relation.
    pub fn index(&self) -> usize {
        self.row
    }
}

/// An in-memory columnar relation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Column>,
    nrows: usize,
    /// Content-state identity: two `Relation` values share a `data_id` only
    /// if one is a clone of the other and neither has been mutated since.
    /// Mutating methods assign a fresh id, which is what lets caches keyed
    /// on `(data_id, …)` never serve stale views (see [`crate::sortcache`]).
    data_id: u64,
}

/// Equality is by content (schema + columns); the cache identity
/// [`Relation::data_id`] deliberately does not participate, so a
/// regenerated identical dataset still compares equal in tests.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.nrows == other.nrows && self.cols == other.cols
    }
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Creates an empty relation, reserving space for `cap` rows.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let cols = schema.attrs().iter().map(|a| Column::with_capacity(a.ty, cap)).collect();
        Self { schema, cols, nrows: 0, data_id: next_data_id() }
    }

    /// Builds a relation over finished typed columns, one per attribute,
    /// all of one length, minting one `data_id` — the bulk constructor of
    /// the CSV reader, which has no `Value` rows to push.
    pub(crate) fn from_columns(schema: Schema, cols: Vec<Column>) -> Self {
        let nrows = cols.first().map_or(0, Column::len);
        assert_eq!(cols.len(), schema.arity(), "one column per attribute");
        assert!(
            cols.iter()
                .zip(schema.attrs())
                .all(|(c, a)| c.len() == nrows
                    && matches!(c, Column::Int(_)) == a.ty.is_int_backed()),
            "columns match the schema's backing types and share one length"
        );
        Self { schema, cols, nrows, data_id: next_data_id() }
    }

    /// The content-state id of this relation (see the field docs). Stable
    /// across clones, refreshed by every mutation.
    #[inline]
    pub fn data_id(&self) -> u64 {
        self.data_id
    }

    /// Builds a relation from rows; validates arity and types.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<Self> {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push_row(&row)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True if the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Appends a row, validating arity and column types.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch { expected: self.schema.arity(), got: row.len() });
        }
        for (c, &v) in row.iter().enumerate() {
            self.cols[c].push(v, &self.schema.attr(c).name)?;
        }
        self.nrows += 1;
        self.data_id = next_data_id();
        Ok(())
    }

    /// Rolls an append-only mutation back: truncates to `nrows` rows and
    /// restores `data_id` — the id that identified exactly this content
    /// before rows were pushed, so the `(content, data_id)` pairing every
    /// cache relies on stays exact. The delta layer's undo path; only
    /// valid when nothing but `push_row` happened since the snapshot.
    pub(crate) fn rollback_append(&mut self, nrows: usize, data_id: u64) {
        debug_assert!(nrows <= self.nrows, "rollback_append only undoes appends");
        for col in &mut self.cols {
            col.truncate(nrows);
        }
        self.nrows = nrows;
        self.data_id = data_id;
    }

    /// `(min, max)` of the integer-backed attribute `idx`; `None` when the
    /// relation is empty or the attribute is `Double`. Engines use this to
    /// size dense code-indexed accumulators.
    pub fn int_min_max(&self, idx: usize) -> Option<(i64, i64)> {
        self.cols[idx].int_min_max()
    }

    /// The column backing attribute `idx`.
    pub fn col(&self, idx: usize) -> &Column {
        &self.cols[idx]
    }

    /// The integer slice backing attribute `idx`, or a
    /// [`DataError::TypeMismatch`] if the attribute is `Double`-backed.
    /// Engine-facing code routes through this so a type-confused query
    /// surfaces as `Err`, never as a worker-thread abort.
    #[inline]
    pub fn try_int_col(&self, idx: usize) -> Result<&[i64]> {
        match &self.cols[idx] {
            Column::Int(v) => Ok(v),
            Column::F64(_) => Err(DataError::TypeMismatch {
                attribute: self.schema.attr(idx).name.clone(),
                expected: "Int",
                got: "Double column".to_string(),
            }),
        }
    }

    /// The float slice backing attribute `idx`, or a
    /// [`DataError::TypeMismatch`] if the attribute is int-backed.
    #[inline]
    pub fn try_f64_col(&self, idx: usize) -> Result<&[f64]> {
        match &self.cols[idx] {
            Column::F64(v) => Ok(v),
            Column::Int(_) => Err(DataError::TypeMismatch {
                attribute: self.schema.attr(idx).name.clone(),
                expected: "Double",
                got: "Int column".to_string(),
            }),
        }
    }

    /// The integer slice backing attribute `idx`. Panics if `idx` is a
    /// `Double` attribute — callers that cannot guarantee the backing type
    /// statically use [`Relation::try_int_col`] instead.
    #[inline]
    pub fn int_col(&self, idx: usize) -> &[i64] {
        self.try_int_col(idx).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The float slice backing attribute `idx`. Panics if `idx` is
    /// int-backed — fallible callers use [`Relation::try_f64_col`].
    #[inline]
    pub fn f64_col(&self, idx: usize) -> &[f64] {
        self.try_f64_col(idx).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The attribute value at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].value(row)
    }

    /// The attribute value at `row` for the column as an `f64` regardless of
    /// backing type (integer codes convert losslessly for |v| < 2^53).
    #[inline]
    pub fn value_f64(&self, row: usize, col: usize) -> f64 {
        match &self.cols[col] {
            Column::Int(v) => v[row] as f64,
            Column::F64(v) => v[row],
        }
    }

    /// A borrowed view of row `row`.
    pub fn row(&self, row: usize) -> RowRef<'_> {
        RowRef { rel: self, row }
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.nrows).map(move |r| RowRef { rel: self, row: r })
    }

    /// Materializes row `row` as a `Vec<Value>`.
    pub fn row_vec(&self, row: usize) -> Vec<Value> {
        self.row(row).to_vec()
    }

    /// Returns a new relation with rows reordered by `perm`.
    pub fn permuted(&self, perm: &[usize]) -> Relation {
        Relation {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| c.gather(perm)).collect(),
            nrows: perm.len(),
            data_id: next_data_id(),
        }
    }

    /// The permutation that sorts this relation lexicographically by the
    /// given attribute positions, with input order as the final tiebreak
    /// (so applying it is a stable sort).
    ///
    /// Integer-backed key prefixes (the common case: join keys and
    /// categorical codes) sort as packed `(key…, row)` tuples — one typed
    /// unstable sort over contiguous memory instead of a dynamic
    /// per-comparison column dispatch.
    pub fn sort_permutation(&self, attrs: &[usize]) -> Vec<usize> {
        let n = self.nrows;
        let int_cols: Option<Vec<&[i64]>> = attrs
            .iter()
            .map(|&c| match &self.cols[c] {
                Column::Int(v) => Some(v.as_slice()),
                Column::F64(_) => None,
            })
            .collect();
        if let Some(ics) = int_cols {
            return match ics.as_slice() {
                [] => (0..n).collect(),
                [a] => {
                    let mut keyed: Vec<(i64, usize)> = (0..n).map(|i| (a[i], i)).collect();
                    keyed.sort_unstable();
                    keyed.into_iter().map(|(_, i)| i).collect()
                }
                [a, b] => {
                    let mut keyed: Vec<(i64, i64, usize)> =
                        (0..n).map(|i| (a[i], b[i], i)).collect();
                    keyed.sort_unstable();
                    keyed.into_iter().map(|(_, _, i)| i).collect()
                }
                [a, b, c] => {
                    let mut keyed: Vec<(i64, i64, i64, usize)> =
                        (0..n).map(|i| (a[i], b[i], c[i], i)).collect();
                    keyed.sort_unstable();
                    keyed.into_iter().map(|(_, _, _, i)| i).collect()
                }
                _ => {
                    let mut perm: Vec<usize> = (0..n).collect();
                    perm.sort_unstable_by(|&x, &y| {
                        ics.iter()
                            .map(|col| col[x].cmp(&col[y]))
                            .find(|o| o.is_ne())
                            .unwrap_or_else(|| x.cmp(&y))
                    });
                    perm
                }
            };
        }
        // Mixed int/float keys: generic comparator (index tiebreak keeps
        // the result identical to a stable sort).
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_unstable_by(|&a, &b| {
            for &c in attrs {
                let ord = match &self.cols[c] {
                    Column::Int(v) => v[a].cmp(&v[b]),
                    Column::F64(v) => v[a].total_cmp(&v[b]),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
        perm
    }

    /// Returns this relation sorted lexicographically by the given attribute
    /// positions (stable, so ties keep input order). Always sorts afresh —
    /// for repeated sorts of the same relation state, go through
    /// [`SortCache::sorted_by`](crate::sortcache::SortCache::sorted_by),
    /// which memoizes the result.
    pub fn sorted_by(&self, attrs: &[usize]) -> Relation {
        self.permuted(&self.sort_permutation(attrs))
    }

    /// Projects onto the given attribute positions (duplicates preserved).
    pub fn project(&self, indices: &[usize]) -> Relation {
        Relation {
            schema: self.schema.project(indices),
            cols: indices.iter().map(|&i| self.cols[i].clone()).collect(),
            nrows: self.nrows,
            data_id: next_data_id(),
        }
    }

    /// Projects onto attribute names.
    pub fn project_names(&self, names: &[&str]) -> Result<Relation> {
        let idx: Result<Vec<usize>> = names.iter().map(|n| self.schema.require(n)).collect();
        Ok(self.project(&idx?))
    }

    /// Appends all rows of `other`; schemas must be identical. Any error —
    /// schema mismatch or (unreachable given equal schemas) column-type
    /// mismatch — is reported as a [`DataError`], never a panic.
    pub fn append(&mut self, other: &Relation) -> Result<()> {
        if self.schema != other.schema {
            return Err(DataError::Invalid("append requires identical schemas".into()));
        }
        let schema = &self.schema;
        for (c, (a, b)) in self.cols.iter_mut().zip(&other.cols).enumerate() {
            a.extend_from(b, &schema.attr(c).name)?;
        }
        self.nrows += other.nrows;
        self.data_id = next_data_id();
        Ok(())
    }

    /// Keeps only rows for which `pred` returns true.
    pub fn filter(&self, mut pred: impl FnMut(RowRef<'_>) -> bool) -> Relation {
        let keep: Vec<usize> = (0..self.nrows).filter(|&r| pred(self.row(r))).collect();
        self.permuted(&keep)
    }

    /// Approximate in-memory byte size of the column data.
    pub fn byte_size(&self) -> usize {
        self.nrows * self.schema.arity() * std::mem::size_of::<i64>()
    }
}

/// Given a sorted integer column restricted to `range`, yields maximal
/// sub-ranges of equal values. The factorized and LMFAO engines use this to
/// walk group boundaries without hashing.
pub fn equal_ranges(col: &[i64], range: std::ops::Range<usize>) -> EqualRanges<'_> {
    EqualRanges { col, pos: range.start, end: range.end }
}

/// Iterator over `(value, sub_range)` groups of a sorted column slice.
pub struct EqualRanges<'a> {
    col: &'a [i64],
    pos: usize,
    end: usize,
}

impl<'a> Iterator for EqualRanges<'a> {
    type Item = (i64, std::ops::Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.end {
            return None;
        }
        let v = self.col[self.pos];
        let start = self.pos;
        let mut hi = self.pos + 1;
        // Gallop to find the end of the run: runs are often long in
        // fk-sorted fact tables, short in dimension tables.
        let mut step = 1;
        while hi < self.end && self.col[hi] == v {
            hi += step;
            step *= 2;
        }
        let hi = self.col[start..self.end.min(hi)].partition_point(|&x| x == v) + start;
        self.pos = hi;
        Some((v, start..hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn sample() -> Relation {
        let schema = Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]);
        Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(2), Value::F64(1.0)],
                vec![Value::Int(1), Value::F64(2.0)],
                vec![Value::Int(2), Value::F64(3.0)],
                vec![Value::Int(1), Value::F64(4.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_and_access() {
        let r = sample();
        assert_eq!(r.len(), 4);
        assert_eq!(r.value(0, 0), Value::Int(2));
        assert_eq!(r.value(3, 1), Value::F64(4.0));
        assert_eq!(r.value_f64(0, 0), 2.0);
        assert_eq!(r.int_col(0), &[2, 1, 2, 1]);
        assert_eq!(r.f64_col(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.row_vec(1), vec![Value::Int(1), Value::F64(2.0)]);
    }

    #[test]
    fn arity_and_type_errors() {
        let mut r = sample();
        assert!(matches!(
            r.push_row(&[Value::Int(1)]),
            Err(DataError::ArityMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            r.push_row(&[Value::F64(1.0), Value::F64(1.0)]),
            Err(DataError::TypeMismatch { .. })
        ));
        // A failed push on a later column must not corrupt row count.
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn sorted_by_is_stable_lexicographic() {
        let r = sample().sorted_by(&[0]);
        assert_eq!(r.int_col(0), &[1, 1, 2, 2]);
        // Stability: within k=1, original order (2.0 then 4.0) preserved.
        assert_eq!(r.f64_col(1), &[2.0, 4.0, 1.0, 3.0]);
    }

    #[test]
    fn sort_permutation_typed_paths_match_generic() {
        // 4 int columns exercises every arm: 1, 2, 3, and the >3 loop;
        // mixing in the float column exercises the generic fallback.
        let schema = Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Int),
            ("d", AttrType::Int),
            ("x", AttrType::Double),
        ]);
        let mut rel = Relation::new(schema);
        let mut state = 11u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = |shift: u32| ((state >> shift) % 3) as i64;
            rel.push_row(&[
                Value::Int(v(1)),
                Value::Int(v(11)),
                Value::Int(v(21)),
                Value::Int(v(31)),
                Value::F64(v(41) as f64),
            ])
            .unwrap();
        }
        let reference = |attrs: &[usize]| -> Vec<usize> {
            let mut perm: Vec<usize> = (0..rel.len()).collect();
            perm.sort_by(|&a, &b| {
                for &c in attrs {
                    let ord = match c {
                        4 => rel.value_f64(a, c).total_cmp(&rel.value_f64(b, c)),
                        _ => rel.int_col(c)[a].cmp(&rel.int_col(c)[b]),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                a.cmp(&b)
            });
            perm
        };
        for attrs in
            [vec![], vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3], vec![0, 4], vec![4, 0]]
        {
            assert_eq!(rel.sort_permutation(&attrs), reference(&attrs), "attrs {attrs:?}");
        }
    }

    #[test]
    fn data_id_tracks_mutation_not_clones() {
        let a = sample();
        let clone = a.clone();
        assert_eq!(a.data_id(), clone.data_id(), "clones share content state");
        let mut b = sample();
        assert_ne!(a.data_id(), b.data_id(), "independent builds differ");
        assert_eq!(a, b, "…but still compare equal by content");
        let id = b.data_id();
        b.push_row(&[Value::Int(9), Value::F64(0.0)]).unwrap();
        assert_ne!(b.data_id(), id, "mutation refreshes the id");
        let id = b.data_id();
        b.append(&a).unwrap();
        assert_ne!(b.data_id(), id, "append refreshes the id");
    }

    #[test]
    fn int_min_max_per_column() {
        let r = sample();
        assert_eq!(r.int_min_max(0), Some((1, 2)));
        assert_eq!(r.int_min_max(1), None, "float column has no int range");
        let empty = Relation::new(Schema::of(&[("a", AttrType::Int)]));
        assert_eq!(empty.int_min_max(0), None);
    }

    #[test]
    fn project_and_filter() {
        let r = sample();
        let p = r.project_names(&["x"]).unwrap();
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(p.f64_col(0), &[1.0, 2.0, 3.0, 4.0]);
        let f = r.filter(|row| row.value(0) == Value::Int(1));
        assert_eq!(f.len(), 2);
        assert!(r.project_names(&["nope"]).is_err());
    }

    #[test]
    fn append_checks_schema() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 8);
        let other = Relation::new(Schema::new(vec![Attribute::int("z")]).unwrap());
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn extend_from_mismatch_is_an_error_not_a_panic() {
        let mut int_col = Column::Int(vec![1, 2]);
        let f64_col = Column::F64(vec![0.5]);
        let err = int_col.extend_from(&f64_col, "k").unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { ref attribute, .. } if attribute == "k"));
        // The failed call left the column untouched.
        assert_eq!(int_col.len(), 2);
        let mut f = Column::F64(vec![0.5]);
        assert!(f.extend_from(&Column::Int(vec![1]), "x").is_err());
        f.extend_from(&Column::F64(vec![1.5]), "x").unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn equal_ranges_walks_runs() {
        let col = [1i64, 1, 1, 3, 5, 5];
        let groups: Vec<_> = equal_ranges(&col, 0..col.len()).collect();
        assert_eq!(groups, vec![(1, 0..3), (3, 3..4), (5, 4..6)]);
        // Sub-range restriction.
        let groups: Vec<_> = equal_ranges(&col, 1..5).collect();
        assert_eq!(groups, vec![(1, 1..3), (3, 3..4), (5, 4..5)]);
        assert_eq!(equal_ranges(&col, 2..2).count(), 0);
    }

    #[test]
    fn empty_relation_behaviour() {
        let r = Relation::new(Schema::of(&[("a", AttrType::Int)]));
        assert!(r.is_empty());
        assert_eq!(r.rows().count(), 0);
        assert_eq!(r.sorted_by(&[0]).len(), 0);
        assert_eq!(r.byte_size(), 0);
    }

    #[test]
    #[should_panic(expected = "Double")]
    fn int_col_panics_on_double() {
        let r = sample();
        let _ = r.int_col(1);
    }

    #[test]
    fn try_cols_report_type_mismatch_as_errors() {
        let r = sample();
        assert_eq!(r.try_int_col(0).unwrap(), &[2, 1, 2, 1]);
        assert_eq!(r.try_f64_col(1).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            r.try_int_col(1),
            Err(DataError::TypeMismatch { ref attribute, expected: "Int", .. }) if attribute == "x"
        ));
        assert!(matches!(
            r.try_f64_col(0),
            Err(DataError::TypeMismatch { ref attribute, expected: "Double", .. })
                if attribute == "k"
        ));
    }
}
