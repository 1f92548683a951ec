//! The dense keyed (group-by) ring.
//!
//! Semantically identical to [`crate::KeyedRing`], but the group-by key —
//! one slot per group-by variable, each *bound* to a dictionary code or
//! still *free* — is packed into a **mixed-radix composite code** instead
//! of a `Box<[Value]>`: slot `i` bound to `v` contributes
//! `(v − minᵢ) · strideᵢ`, free slots contribute nothing, and a bitmask
//! records which slots are bound. Elements are sorted `(mask, code) →
//! payload` lists, so addition is a linear merge and multiplication adds
//! codes — no hashing, no per-key heap allocation, no `Value` boxing in
//! the factorized engine's innermost loops.
//!
//! The representation requires the per-slot code ranges up front (the
//! dictionary domains exposed by `fdb_data`); [`DenseKeyedRing::new`]
//! fails when they are unknown or their product overflows, in which case
//! callers fall back to the hash-map [`crate::KeyedRing`].

use crate::{Ring, Semiring};

/// Key layout of a [`DenseKeyedRing`]: per-slot `(min, domain size,
/// stride)` in a shared mixed-radix code space.
///
/// The layout parallels `fdb-core`'s `KeySpace` (which cannot be shared
/// from here without inverting the crate dependency), but the invariants
/// differ deliberately: ring elements are sparse sorted lists, so there is
/// no size budget — only overflow checks and a 32-slot mask cap — whereas
/// `KeySpace` enforces a code-count limit because its consumers allocate
/// `size`-proportional storage. Keep the stride/overflow logic in sync.
#[derive(Debug, Clone)]
pub struct DenseKeyedRing<R> {
    inner: R,
    mins: Vec<i64>,
    dims: Vec<u64>,
    strides: Vec<u64>,
}

/// An element of the dense keyed ring: sorted `(mask, code, payload)`
/// entries, zero payloads pruned.
pub struct DenseGrouped<R: Semiring> {
    /// `(bound-slot bitmask, composite code, payload)`, sorted by
    /// `(mask, code)`.
    entries: Vec<(u32, u64, R::Elem)>,
}

impl<R: Semiring> Clone for DenseGrouped<R> {
    fn clone(&self) -> Self {
        Self { entries: self.entries.clone() }
    }
}

impl<R: Semiring> std::fmt::Debug for DenseGrouped<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.entries.iter()).finish()
    }
}

impl<R: Semiring> DenseKeyedRing<R> {
    /// A dense keyed ring over the inclusive per-slot `(min, max)` code
    /// ranges. `None` if a range is malformed, there are more than 32
    /// slots, or the code space overflows `u64`.
    pub fn new(inner: R, ranges: &[(i64, i64)]) -> Option<Self> {
        if ranges.len() > 32 {
            return None;
        }
        let mut dims = Vec::with_capacity(ranges.len());
        let mut total: u64 = 1;
        for &(lo, hi) in ranges {
            let d = hi.checked_sub(lo)?.checked_add(1)?;
            if d <= 0 {
                return None;
            }
            dims.push(d as u64);
            total = total.checked_mul(d as u64)?;
        }
        let mut strides = vec![1u64; ranges.len()];
        for i in (0..ranges.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Some(Self { inner, mins: ranges.iter().map(|&(lo, _)| lo).collect(), dims, strides })
    }

    /// The payload ring.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Number of group-by slots.
    pub fn slots(&self) -> usize {
        self.mins.len()
    }

    /// Lifts a payload with slot `slot` bound to code `v` (group-by
    /// tagging). `v` must lie in the slot's declared range.
    pub fn tag(&self, slot: usize, v: i64, payload: R::Elem) -> DenseGrouped<R> {
        let d = v.wrapping_sub(self.mins[slot]) as u64;
        assert!(d < self.dims[slot], "code {v} outside slot {slot}'s declared range");
        if self.inner.is_zero(&payload) {
            return self.zero();
        }
        DenseGrouped { entries: vec![(1 << slot, d * self.strides[slot], payload)] }
    }

    /// Lifts a plain payload with no slots bound.
    pub fn scalar(&self, payload: R::Elem) -> DenseGrouped<R> {
        if self.inner.is_zero(&payload) {
            return self.zero();
        }
        DenseGrouped { entries: vec![(0, 0, payload)] }
    }

    /// The code of `slot` inside composite `code` (meaningful only when
    /// the slot is bound in the entry's mask).
    #[inline]
    fn slot_code(&self, code: u64, slot: usize) -> u64 {
        (code / self.strides[slot]) % self.dims[slot]
    }

    /// Merges two keys; `None` if both bind a slot to different codes (the
    /// annihilating product, as in [`crate::KeyedRing`]).
    fn merge_keys(&self, a: (u32, u64), b: (u32, u64)) -> Option<(u32, u64)> {
        let shared = a.0 & b.0;
        let mut b_rest = b.1;
        if shared != 0 {
            for slot in 0..self.slots() {
                if shared & (1 << slot) != 0 {
                    let (da, db) = (self.slot_code(a.1, slot), self.slot_code(b.1, slot));
                    if da != db {
                        return None;
                    }
                    b_rest -= db * self.strides[slot];
                }
            }
        }
        Some((a.0 | b.0, a.1 + b_rest))
    }

    /// Decodes a fully-bound entry key into slot codes, replacing `out`.
    /// Panics if any slot is free — engine extractions only see elements
    /// whose every group-by variable was bound along the evaluation.
    pub fn decode(&self, mask: u32, code: u64, out: &mut Vec<i64>) {
        assert_eq!(mask, ((1u64 << self.slots()) - 1) as u32, "decode requires all slots bound");
        out.clear();
        for slot in 0..self.slots() {
            out.push(self.mins[slot] + self.slot_code(code, slot) as i64);
        }
    }
}

impl<R: Semiring> DenseGrouped<R> {
    /// Number of non-zero groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if this is the zero element.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(mask, code, payload)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &R::Elem)> {
        self.entries.iter().map(|(m, c, v)| (*m, *c, v))
    }
}

impl<R: Semiring> Semiring for DenseKeyedRing<R> {
    type Elem = DenseGrouped<R>;

    fn zero(&self) -> DenseGrouped<R> {
        DenseGrouped { entries: Vec::new() }
    }

    fn one(&self) -> DenseGrouped<R> {
        self.scalar(self.inner.one())
    }

    fn add(&self, a: &DenseGrouped<R>, b: &DenseGrouped<R>) -> DenseGrouped<R> {
        // Linear merge of the sorted entry lists.
        let mut out = Vec::with_capacity(a.entries.len() + b.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < a.entries.len() && j < b.entries.len() {
            let (ka, kb) = ((a.entries[i].0, a.entries[i].1), (b.entries[j].0, b.entries[j].1));
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    out.push(a.entries[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b.entries[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let sum = self.inner.add(&a.entries[i].2, &b.entries[j].2);
                    if !self.inner.is_zero(&sum) {
                        out.push((ka.0, ka.1, sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a.entries[i..]);
        out.extend_from_slice(&b.entries[j..]);
        DenseGrouped { entries: out }
    }

    /// In-place batched merge, without [`Semiring::add`]'s allocating
    /// linear merge. Two fast paths matter in the evaluator:
    /// an empty side is free, and key-disjoint *appends* (the common case
    /// when leapfrog emits group codes in ascending order) extend the
    /// entry vector instead of re-merging it, turning the repeated
    /// `total += acc` accumulation from quadratic to amortized linear.
    fn add_assign(&self, a: &mut DenseGrouped<R>, b: &DenseGrouped<R>) {
        if b.entries.is_empty() {
            return;
        }
        if a.entries.is_empty() {
            a.entries = b.entries.clone();
            return;
        }
        let a_last = {
            let e = a.entries.last().expect("non-empty");
            (e.0, e.1)
        };
        let b_first = (b.entries[0].0, b.entries[0].1);
        if a_last < b_first {
            a.entries.extend_from_slice(&b.entries);
            return;
        }
        // General case: take the old entries and re-merge. Same zero
        // pruning as `add`, same key order, no second allocation for the
        // common grow-in-place pattern.
        let old = std::mem::take(&mut a.entries);
        let merged = self.add(&DenseGrouped { entries: old }, b);
        a.entries = merged.entries;
    }

    fn mul(&self, a: &DenseGrouped<R>, b: &DenseGrouped<R>) -> DenseGrouped<R> {
        let mut out: Vec<(u32, u64, R::Elem)> =
            Vec::with_capacity(a.entries.len() * b.entries.len());
        for (ma, ca, va) in a.iter() {
            for (mb, cb, vb) in b.iter() {
                if let Some((m, c)) = self.merge_keys((ma, ca), (mb, cb)) {
                    let v = self.inner.mul(va, vb);
                    if !self.inner.is_zero(&v) {
                        out.push((m, c, v));
                    }
                }
            }
        }
        // In factorized plans the factors bind disjoint slot sets, so the
        // cross product is already key-sorted per `a`-entry run; coalesce
        // generically anyway to stay a lawful ring on any input.
        out.sort_by_key(|&(m, c, _)| (m, c));
        let mut coalesced: Vec<(u32, u64, R::Elem)> = Vec::with_capacity(out.len());
        for (m, c, v) in out {
            match coalesced.last_mut() {
                Some(last) if last.0 == m && last.1 == c => {
                    self.inner.add_assign(&mut last.2, &v);
                    if self.inner.is_zero(&last.2) {
                        coalesced.pop();
                    }
                }
                _ => coalesced.push((m, c, v)),
            }
        }
        DenseGrouped { entries: coalesced }
    }

    fn is_zero(&self, a: &DenseGrouped<R>) -> bool {
        a.entries.is_empty()
    }
}

impl<R: Ring> Ring for DenseKeyedRing<R> {
    fn neg(&self, a: &DenseGrouped<R>) -> DenseGrouped<R> {
        DenseGrouped {
            entries: a.entries.iter().map(|(m, c, v)| (*m, *c, self.inner.neg(v))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::I64Ring;

    fn ring() -> DenseKeyedRing<I64Ring> {
        DenseKeyedRing::new(I64Ring, &[(0, 9), (5, 7)]).unwrap()
    }

    #[test]
    fn construction_limits() {
        assert!(DenseKeyedRing::new(I64Ring, &[]).is_some());
        assert!(DenseKeyedRing::new(I64Ring, &[(3, 2)]).is_none(), "empty range");
        assert!(DenseKeyedRing::new(I64Ring, &[(i64::MIN, i64::MAX)]).is_none(), "overflow");
        assert!(DenseKeyedRing::new(I64Ring, &vec![(0, 1); 33]).is_none(), "> 32 slots");
    }

    #[test]
    fn tag_and_cross_product() {
        let r = ring();
        let a = r.tag(0, 7, 2);
        let b = r.tag(1, 6, 5);
        let ab = r.mul(&a, &b);
        assert_eq!(ab.len(), 1);
        let (mask, code, v) = ab.iter().next().unwrap();
        assert_eq!(*v, 10);
        let mut key = Vec::new();
        r.decode(mask, code, &mut key);
        assert_eq!(key, vec![7, 6]);
    }

    #[test]
    fn identity_annihilator_and_zero_pruning() {
        let r = ring();
        let a = r.tag(0, 1, 3);
        assert_eq!(r.mul(&a, &r.one()).entries, a.entries);
        assert!(r.is_zero(&r.mul(&a, &r.zero())));
        assert_eq!(r.add(&a, &r.zero()).entries, a.entries);
        // Payload sums to zero → the group disappears (multiset deletes).
        let sum = r.add(&a, &r.neg(&a));
        assert!(r.is_zero(&sum));
        assert!(r.is_zero(&r.tag(0, 1, 0)), "zero payloads never enter");
    }

    #[test]
    fn addition_merges_same_keys() {
        let r = ring();
        let c = r.add(&r.tag(0, 1, 3), &r.tag(0, 1, 4));
        assert_eq!(c.len(), 1);
        assert_eq!(*c.iter().next().unwrap().2, 7);
        // Different keys stay separate and sorted.
        let d = r.add(&r.tag(0, 2, 1), &r.tag(0, 1, 1));
        let codes: Vec<u64> = d.iter().map(|(_, c, _)| c).collect();
        assert_eq!(codes.len(), 2);
        assert!(codes[0] < codes[1]);
    }

    #[test]
    fn overlapping_masks_agree_or_annihilate() {
        let r = ring();
        let a = r.tag(0, 1, 2);
        assert!(r.is_zero(&r.mul(&a, &r.tag(0, 2, 3))), "clash annihilates");
        let same = r.mul(&a, &r.tag(0, 1, 3));
        assert_eq!(same.len(), 1);
        assert_eq!(*same.iter().next().unwrap().2, 6, "equal binding multiplies payloads");
    }

    #[test]
    fn distributivity_on_sample() {
        let r = ring();
        let a = r.tag(0, 1, 2);
        let b = r.tag(1, 5, 3);
        let c = r.tag(1, 6, 4);
        let lhs = r.mul(&a, &r.add(&b, &c));
        let rhs = r.add(&r.mul(&a, &b), &r.mul(&a, &c));
        assert_eq!(lhs.entries, rhs.entries);
    }

    #[test]
    fn add_assign_matches_add_on_every_merge_shape() {
        use crate::Ring as _;
        let r = DenseKeyedRing::new(I64Ring, &[(0, 9)]).unwrap();
        let elems = [
            r.zero(),
            r.tag(0, 1, 3),
            r.tag(0, 5, -3),
            r.add(&r.tag(0, 1, 2), &r.tag(0, 7, 4)), // two entries
            r.neg(&r.tag(0, 1, 3)),                  // cancels elems[1]
            r.add(&r.tag(0, 0, 1), &r.tag(0, 9, 1)), // brackets everything
        ];
        for a in &elems {
            for b in &elems {
                let expect = r.add(a, b);
                let mut got = a.clone();
                r.add_assign(&mut got, b);
                assert_eq!(got.entries, expect.entries, "a={a:?} b={b:?}");
            }
        }
        // The append fast path specifically: ascending disjoint keys.
        let mut acc = r.zero();
        for v in 0..10 {
            r.add_assign(&mut acc, &r.tag(0, v, 1));
        }
        assert_eq!(acc.len(), 10);
        let codes: Vec<u64> = acc.iter().map(|(_, c, _)| c).collect();
        assert!(codes.windows(2).all(|w| w[0] < w[1]), "sorted order preserved");
    }

    #[test]
    fn matches_keyed_ring_on_grouped_sums() {
        // The same little sum-product computed in both keyed rings.
        use crate::{KeyedRing, Semiring as _};
        use fdb_data::Value;
        let dr = DenseKeyedRing::new(I64Ring, &[(0, 3), (0, 3)]).unwrap();
        let hr = KeyedRing::new(I64Ring, 2);
        let data = [(0i64, 1i64, 2), (0, 1, 3), (1, 0, 4), (3, 2, 5)];
        let mut dtot = dr.zero();
        let mut htot = hr.zero();
        for &(x, y, w) in &data {
            dr.add_assign(&mut dtot, &dr.mul(&dr.tag(0, x, w), &dr.tag(1, y, 1)));
            hr.add_assign(
                &mut htot,
                &hr.mul(&hr.tag(0, Value::Int(x), w), &hr.tag(1, Value::Int(y), 1)),
            );
        }
        assert_eq!(dtot.len(), htot.len());
        let mut key = Vec::new();
        for (mask, code, v) in dtot.iter() {
            dr.decode(mask, code, &mut key);
            let hkey: Box<[Value]> = key.iter().map(|&k| Value::Int(k)).collect();
            assert_eq!(htot.get(&hkey), Some(v), "key {key:?}");
        }
    }
}
