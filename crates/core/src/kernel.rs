//! Batch-at-a-time columnar kernels.
//!
//! The shared scan and the flat engine spend their time in four tiny loops:
//! mixed-radix code computation, payload accumulation, per-slot factor
//! products, and per-slot filter masks. Row-at-a-time, each iteration mixes
//! key extraction, branching on attribute ranges, and scattered payload
//! writes — a shape LLVM cannot vectorize. This module restates those loops
//! over contiguous column slices so each becomes a straight-line pass the
//! autovectorizer can unroll: one column at a time, branch-free bodies,
//! out-of-range tracked as data (a sentinel code) instead of control flow.

use crate::group::KeySpace;

/// Sentinel composite code marking a row whose key falls outside the
/// [`KeySpace`] — the batched equivalent of [`KeySpace::encode`] returning
/// `None`. No valid code can collide with it: a space's codes are strictly
/// below its size, and a size of `2^64` overflows construction.
pub const OOB_CODE: u64 = u64::MAX;

/// Batched mixed-radix encoding: computes the composite code of row `r`
/// from `cols[i][r]` for every `r < rows`, writing [`OOB_CODE`] where any
/// attribute falls outside its range. Column-wise with branch-free
/// out-of-range tracking, so the per-column pass vectorizes.
///
/// `oob` is caller-provided scratch (contents ignored); `out` and `oob` are
/// resized to `rows`.
pub fn encode_codes(
    space: &KeySpace,
    cols: &[&[i64]],
    rows: usize,
    out: &mut Vec<u64>,
    oob: &mut Vec<u64>,
) {
    debug_assert_eq!(cols.len(), space.arity());
    out.clear();
    out.resize(rows, 0);
    oob.clear();
    oob.resize(rows, 0);
    for (i, col) in cols.iter().enumerate() {
        debug_assert_eq!(col.len(), rows);
        let (min, dim, stride) = (space.mins()[i], space.dims()[i], space.strides()[i]);
        // Slice zips, not indexing: bounds checks in the body would keep
        // the pass from vectorizing.
        for ((o, ob), &x) in out.iter_mut().zip(oob.iter_mut()).zip(&col[..rows]) {
            let d = x.wrapping_sub(min) as u64;
            *ob |= (d >= dim) as u64;
            *o = o.wrapping_add(d.wrapping_mul(stride));
        }
    }
    // 0 → no-op, 1 → all-ones: out-of-range rows become the sentinel.
    for (o, &ob) in out.iter_mut().zip(oob.iter()) {
        *o |= ob.wrapping_neg();
    }
}

/// Multiplies `acc[r] *= f(col[r])` across a column slice — one factor of a
/// per-slot product, applied column-wise. Monomorphized per column type and
/// per unary function, so the loop body is branch-free.
#[inline]
pub fn mul_by<T: Copy>(acc: &mut [f64], col: &[T], f: impl Fn(T) -> f64) {
    debug_assert_eq!(acc.len(), col.len());
    for (a, &x) in acc.iter_mut().zip(col) {
        *a *= f(x);
    }
}

/// Masks `acc[r]` to `0.0` where `keep(col[r])` is false. A select, not a
/// multiply: the row-wise path skips filtered rows entirely, so a filtered
/// slot must contribute exactly `0.0` even when the factor product is NaN
/// or infinite.
#[inline]
pub fn mask_by<T: Copy>(acc: &mut [f64], col: &[T], keep: impl Fn(T) -> bool) {
    debug_assert_eq!(acc.len(), col.len());
    for (a, &x) in acc.iter_mut().zip(col) {
        *a = if keep(x) { *a } else { 0.0 };
    }
}

/// `a[i] += b[i]` over contiguous payload slices — the dense payload-matrix
/// merge move. The slice zip avoids the indexed-gather shape of the old
/// per-slot loop, which defeated the autovectorizer with bounds checks.
#[inline]
pub fn add_slices(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `a[i] *= factor` over a contiguous payload slice.
#[inline]
pub fn scale_slice(a: &mut [f64], factor: f64) {
    for x in a {
        *x *= factor;
    }
}

/// Sum of a contiguous slice in a fixed association: eight interleaved
/// partial sums (lane `j` adds elements `j, j + 8, …` in order), combined
/// pairwise, then the tail in order. Deterministic for a given slice; the
/// independent lanes vectorize, where one running sum is bound by the
/// latency of each add.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    let mut l = [0.0f64; 8];
    for c in chunks {
        for (a, &x) in l.iter_mut().zip(c) {
            *a += x;
        }
    }
    let mut acc = ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]));
    for &x in tail {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-row reference: [`KeySpace::encode`] on each row's key.
    fn encode_per_row(space: &KeySpace, cols: &[&[i64]], rows: usize) -> Vec<u64> {
        (0..rows)
            .map(|r| {
                let key: Vec<i64> = cols.iter().map(|c| c[r]).collect();
                space.encode(&key).unwrap_or(OOB_CODE)
            })
            .collect()
    }

    #[test]
    fn batched_encode_matches_per_row_encode() {
        let space = KeySpace::new(&[(2, 4), (-1, 0)], 64).unwrap();
        let a = [2i64, 4, 3, 5, 2, 1]; // rows 3 and 5 out of range
        let b = [-1i64, 0, 0, -1, -2, 0]; // row 4 out of range
        let (mut fast, mut oob) = (Vec::new(), Vec::new());
        encode_codes(&space, &[&a, &b], a.len(), &mut fast, &mut oob);
        assert_eq!(fast, encode_per_row(&space, &[&a, &b], a.len()));
        assert_eq!(fast[3], OOB_CODE);
        assert_eq!(fast[4], OOB_CODE);
        assert_eq!(fast[5], OOB_CODE);
        assert!(fast[0] < space.size());
    }

    #[test]
    fn batched_encode_empty_and_scalar_spaces() {
        let space = KeySpace::new(&[(0, 3)], 16).unwrap();
        let (mut fast, mut oob) = (vec![7], vec![7]);
        encode_codes(&space, &[&[]], 0, &mut fast, &mut oob);
        assert!(fast.is_empty(), "empty batch, stale scratch cleared");
        // The empty-key (scalar) space encodes every row to code 0.
        let scalar = KeySpace::new(&[], 1).unwrap();
        encode_codes(&scalar, &[], 3, &mut fast, &mut oob);
        assert_eq!(fast, vec![0, 0, 0]);
        assert_eq!(fast, encode_per_row(&scalar, &[], 3));
    }

    #[test]
    fn batched_encode_near_u64_overflow_codes() {
        // 2^32 × 2^31 codes: strides and products exercise the top bits.
        let r32 = (0i64, (1i64 << 32) - 1);
        let r31 = (0i64, (1i64 << 31) - 1);
        let space = KeySpace::new(&[r32, r31], u64::MAX).unwrap();
        let a = [(1i64 << 32) - 1, 0, 1 << 32, (1 << 32) - 1];
        let b = [(1i64 << 31) - 1, 0, 0, 1 << 31];
        let (mut fast, mut oob) = (Vec::new(), Vec::new());
        encode_codes(&space, &[&a, &b], a.len(), &mut fast, &mut oob);
        assert_eq!(fast, encode_per_row(&space, &[&a, &b], a.len()));
        assert_eq!(fast[0], (1u64 << 63) - 1, "top corner code");
        assert_eq!(fast[2], OOB_CODE);
        assert_eq!(fast[3], OOB_CODE);
        // Extreme negative mins: wrapping subtraction must stay exact.
        let neg = KeySpace::new(&[(i64::MIN, i64::MIN + 2)], 16).unwrap();
        let keys = [i64::MIN, i64::MIN + 2, i64::MAX, -1];
        encode_codes(&neg, &[&keys], keys.len(), &mut fast, &mut oob);
        assert_eq!(fast, encode_per_row(&neg, &[&keys], keys.len()));
        assert_eq!(fast[0], 0);
        assert_eq!(fast[2], OOB_CODE, "wrapped probe misses");
    }

    #[test]
    fn mask_is_a_select_not_a_multiply() {
        let mut acc = [f64::NAN, f64::INFINITY, 2.0];
        mask_by(&mut acc, &[0i64, 0, 1], |x| x > 0);
        assert_eq!(acc[0], 0.0, "filtered NaN contributes exactly zero");
        assert_eq!(acc[1], 0.0, "filtered inf contributes exactly zero");
        assert_eq!(acc[2], 2.0);
    }

    #[test]
    fn slice_helpers() {
        let mut a = [1.0, 2.0];
        add_slices(&mut a, &[0.5, -2.0]);
        assert_eq!(a, [1.5, 0.0]);
        scale_slice(&mut a, 2.0);
        assert_eq!(a, [3.0, 0.0]);
        let mut acc = [1.0, 1.0, 1.0];
        mul_by(&mut acc, &[2i64, 3, 4], |x| x as f64);
        assert_eq!(acc, [2.0, 3.0, 4.0]);
        assert_eq!(sum(&acc), 9.0);
        assert_eq!(sum(&[]), 0.0);
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(sum(&xs), 190.0, "lanes plus an in-order tail cover every element");
    }
}
