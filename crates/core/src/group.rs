//! Dense code-indexed group accumulators.
//!
//! Categorical attributes are dictionary-encoded into dense `i64` codes at
//! load time, so a group-by key over attributes with known code ranges is
//! itself a dense integer: the **mixed-radix composite code**
//! `Σ (keyᵢ − minᵢ) · strideᵢ`. When the product of the per-attribute
//! domain sizes is small, a group accumulator can be a flat `Vec<f64>`
//! indexed by that code — no `Box<[i64]>` key allocation, no hashing, one
//! multiply-add per attribute per probe. This is the group-indexing half of
//! the paper's "specialize the engine to the data" claim (LMFAO §4): the
//! same trick that turns one-hot encodings into sparse tensors turns group
//! hash tables into arrays.
//!
//! [`GroupIndex`] is the accumulator: dense when a [`KeySpace`] fits under
//! the caller's code limit, a classical `HashMap<Box<[i64]>, Vec<f64>>`
//! fallback otherwise (unknown or unbounded domains). Both variants expose
//! one probe/iterate/merge API, and — like the hash maps they replace —
//! only *touched* groups are represented, so the "exactly-zero groups are
//! dropped" contract of [`crate::ir::BatchResult`] is unaffected by the
//! representation choice.

use std::collections::HashMap;

/// Default ceiling on composite group codes per dense accumulator
/// (the [`crate::EngineConfig::dense_limit`] default).
pub const DEFAULT_DENSE_GROUPS: u64 = 1024;

/// Ceiling on the payload matrix (`codes × slots × 8` bytes) of one dense
/// group accumulator. A view holds one accumulator per join key, so
/// [`crate::EngineConfig::dense_limit`] alone cannot bound the allocation;
/// the planner hashes any group space past this, whatever the limit says.
pub(crate) const DENSE_GROUP_BYTES: u64 = 64 << 20;

/// Ceiling on composite join-key codes per dense view map. Join-key spaces
/// cost 4 bytes per code (a slot table), so they may be much larger than
/// group spaces, which cost a full payload vector per code.
pub const DENSE_KEY_LIMIT: u64 = 1 << 20;

/// A mixed-radix composite-code space over inclusive per-attribute ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpace {
    mins: Vec<i64>,
    dims: Vec<u64>,
    strides: Vec<u64>,
    size: u64,
}

impl KeySpace {
    /// Builds the space spanned by the inclusive `(min, max)` ranges;
    /// `None` if the total code count exceeds `limit` (or overflows).
    ///
    /// The empty key (zero ranges) spans exactly one code, so `limit == 0`
    /// rejects even it — `dense_limit = 0` means "dense indexing disabled",
    /// and before this check scalar accumulators silently stayed dense in
    /// the hash-baseline arm.
    pub fn new(ranges: &[(i64, i64)], limit: u64) -> Option<KeySpace> {
        if limit == 0 {
            return None;
        }
        let mut dims = Vec::with_capacity(ranges.len());
        let mut size: u64 = 1;
        for &(lo, hi) in ranges {
            let d = hi.checked_sub(lo)?.checked_add(1)?;
            if d <= 0 {
                return None;
            }
            dims.push(d as u64);
            size = size.checked_mul(d as u64)?;
            if size > limit {
                return None;
            }
        }
        // Row-major strides: first attribute most significant.
        let mut strides = vec![1u64; ranges.len()];
        for i in (0..ranges.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Some(KeySpace { mins: ranges.iter().map(|&(lo, _)| lo).collect(), dims, strides, size })
    }

    /// Number of attributes in a key.
    pub fn arity(&self) -> usize {
        self.mins.len()
    }

    /// Per-attribute minimum values (the code-zero key).
    pub fn mins(&self) -> &[i64] {
        &self.mins
    }

    /// Per-attribute domain sizes.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Per-attribute mixed-radix strides (first attribute most
    /// significant). Exposed for the batched encoder in [`crate::kernel`].
    pub fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// Approximate heap bytes of this space's metadata.
    pub fn byte_size(&self) -> usize {
        3 * self.mins.len() * 8 + 8
    }

    /// Total number of composite codes (product of domain sizes).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The composite code of `key`, or `None` if any attribute falls
    /// outside its range (e.g. probing with a foreign key the other side
    /// never held).
    #[inline]
    pub fn encode(&self, key: &[i64]) -> Option<u64> {
        debug_assert_eq!(key.len(), self.mins.len());
        let mut code = 0u64;
        for i in 0..key.len() {
            let d = key[i].wrapping_sub(self.mins[i]) as u64;
            if d >= self.dims[i] {
                return None;
            }
            code += d * self.strides[i];
        }
        Some(code)
    }

    /// Decodes `code` back into attribute values, replacing `out`.
    pub fn decode(&self, code: u64, out: &mut Vec<i64>) {
        out.clear();
        self.decode_append(code, out);
    }

    /// Decodes `code`, appending the attribute values to `out`.
    pub fn decode_append(&self, code: u64, out: &mut Vec<i64>) {
        let mut rest = code;
        for i in 0..self.mins.len() {
            let d = rest / self.strides[i];
            rest %= self.strides[i];
            out.push(self.mins[i] + d as i64);
        }
    }
}

/// A group accumulator: group key → payload of `slots` running sums.
///
/// Only touched groups are represented (dense variant keeps a touch list
/// and bitmap), so iteration order and group counts match the hash
/// fallback up to ordering.
#[derive(Debug, Clone)]
pub enum GroupIndex {
    /// Flat storage indexed by composite code.
    Dense {
        /// The code space of the group-by attributes.
        space: KeySpace,
        /// Payload width.
        slots: usize,
        /// `size × slots` payload matrix.
        data: Vec<f64>,
        /// Touched-code bitmap (`size` bits).
        present: Vec<u64>,
        /// Touched codes in first-touch order.
        touched: Vec<u32>,
    },
    /// Classical fallback for large or unknown key spaces.
    Hash {
        /// Payload width.
        slots: usize,
        /// Group key → payload.
        map: HashMap<Box<[i64]>, Vec<f64>>,
    },
}

impl GroupIndex {
    /// A dense accumulator over `space` (callers check the size budget).
    /// The touch list stores codes as `u32`, so the space may span at most
    /// `u32::MAX` codes — enforced here because a truncated code would
    /// silently alias two groups.
    pub fn dense(space: KeySpace, slots: usize) -> Self {
        assert!(space.size <= u32::MAX as u64, "dense group spaces are capped at 2^32 codes");
        let size = space.size as usize;
        GroupIndex::Dense {
            space,
            slots,
            data: vec![0.0; size * slots],
            present: vec![0; size.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// A hash-map accumulator.
    pub fn hash(slots: usize) -> Self {
        GroupIndex::Hash { slots, map: HashMap::new() }
    }

    /// Payload width.
    pub fn slots(&self) -> usize {
        match self {
            GroupIndex::Dense { slots, .. } | GroupIndex::Hash { slots, .. } => *slots,
        }
    }

    /// Number of touched groups.
    pub fn len(&self) -> usize {
        match self {
            GroupIndex::Dense { touched, .. } => touched.len(),
            GroupIndex::Hash { map, .. } => map.len(),
        }
    }

    /// True if no group has been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by this accumulator — the quantity the
    /// cross-batch view cache charges against its byte budget.
    pub fn byte_size(&self) -> usize {
        match self {
            GroupIndex::Dense { space, data, present, touched, .. } => {
                space.byte_size() + data.len() * 8 + present.len() * 8 + touched.len() * 4 + 32
            }
            GroupIndex::Hash { slots, map } => {
                map.keys().map(|k| k.len() * 8 + slots * 8 + 64).sum::<usize>() + 32
            }
        }
    }

    /// The payload of `key`, touching (zero-initializing) it if new.
    ///
    /// Dense accumulators require `key` to lie inside their [`KeySpace`] —
    /// guaranteed when the space was sized from the min/max of the very
    /// columns the key values are read from, which is how the planner
    /// builds them.
    #[inline]
    pub fn payload_mut(&mut self, key: &[i64]) -> &mut [f64] {
        match self {
            GroupIndex::Dense { space, slots, data, present, touched } => {
                let code = space.encode(key).expect("dense group key within planner-derived bounds")
                    as usize;
                let (w, b) = (code / 64, 1u64 << (code % 64));
                if present[w] & b == 0 {
                    present[w] |= b;
                    touched.push(code as u32);
                }
                &mut data[code * *slots..(code + 1) * *slots]
            }
            GroupIndex::Hash { slots, map } => {
                if !map.contains_key(key) {
                    map.insert(key.into(), vec![0.0; *slots]);
                }
                map.get_mut(key).expect("ensured above")
            }
        }
    }

    /// The key space of a dense accumulator (`None` for the hash
    /// fallback) — how batched callers decide whether the code-indexed
    /// scatter path applies.
    pub fn key_space(&self) -> Option<&KeySpace> {
        match self {
            GroupIndex::Dense { space, .. } => Some(space),
            GroupIndex::Hash { .. } => None,
        }
    }

    /// Batched multi-slot scatter-add: one walk over `codes` (from
    /// [`crate::kernel::encode_codes`] over this accumulator's space)
    /// updating the whole contiguous payload row of each code. `vals` is
    /// **slot-major** (`vals[s * codes.len() + r]` is slot `s` of row `r`)
    /// — exactly the stripe layout the batched leaf scan and the flat
    /// engine build. Cells are added in row order and every in-range code
    /// is touched even when its values are zero, so results and
    /// first-touch order match a per-row [`GroupIndex::payload_mut`] loop
    /// bit for bit. [`crate::kernel::OOB_CODE`] rows are skipped. Dense
    /// accumulators only; batched callers gate on
    /// [`GroupIndex::key_space`].
    pub fn add_codes_multi(&mut self, codes: &[u64], vals: &[f64]) {
        match self {
            GroupIndex::Dense { space, slots, data, present, touched } => {
                let (stride, size, n) = (*slots, space.size, codes.len());
                // Hard (not debug) assert: the unchecked slot gathers below
                // rely on this bound.
                assert_eq!(vals.len(), n * stride, "add_codes_multi: slot-major vals length");
                let mut bad = false;
                for &code in codes {
                    bad |= code != crate::kernel::OOB_CODE && code >= size;
                }
                assert!(!bad, "add_codes_multi: code outside the accumulator's space");
                for (r, &code) in codes.iter().enumerate() {
                    if code == crate::kernel::OOB_CODE {
                        continue;
                    }
                    let c = code as usize;
                    let (w, b) = (c / 64, 1u64 << (c % 64));
                    // SAFETY: validated above — `c < size` so the bitmap
                    // word and the payload row are in bounds, and
                    // `s * n + r < stride * n = vals.len()` for `s <
                    // stride`, `r < n`.
                    unsafe {
                        let p = present.get_unchecked_mut(w);
                        if *p & b == 0 {
                            *p |= b;
                            touched.push(code as u32);
                        }
                        let row = data.get_unchecked_mut(c * stride..(c + 1) * stride);
                        for (s, x) in row.iter_mut().enumerate() {
                            *x += *vals.get_unchecked(s * n + r);
                        }
                    }
                }
            }
            GroupIndex::Hash { .. } => {
                unreachable!("add_codes_multi requires a dense accumulator; gate on key_space()")
            }
        }
    }

    /// Single-row form of the multi-slot scatter: adds slot stripe values
    /// `vals[s * n + r]` into the payload row of `code`. The per-row move
    /// of the batched keyed-view scatter, where consecutive rows land in
    /// *different* view entries so a whole-batch call cannot apply.
    #[inline]
    pub fn add_payload_row(&mut self, code: u64, vals: &[f64], r: usize, n: usize) {
        match self {
            GroupIndex::Dense { space, slots, data, present, touched } => {
                let stride = *slots;
                assert!(code < space.size, "add_payload_row: code outside the space");
                debug_assert!(r < n && vals.len() == n * stride);
                let c = code as usize;
                let (w, b) = (c / 64, 1u64 << (c % 64));
                if present[w] & b == 0 {
                    present[w] |= b;
                    touched.push(code as u32);
                }
                for (s, x) in data[c * stride..(c + 1) * stride].iter_mut().enumerate() {
                    *x += vals[s * n + r];
                }
            }
            GroupIndex::Hash { .. } => {
                unreachable!("add_payload_row requires a dense accumulator; gate on key_space()")
            }
        }
    }

    /// The payload of `key`, if touched.
    #[inline]
    pub fn get(&self, key: &[i64]) -> Option<&[f64]> {
        match self {
            GroupIndex::Dense { space, slots, data, present, .. } => {
                let code = space.encode(key)? as usize;
                if present[code / 64] & (1 << (code % 64)) == 0 {
                    return None;
                }
                Some(&data[code * *slots..(code + 1) * *slots])
            }
            GroupIndex::Hash { map, .. } => map.get(key).map(Vec::as_slice),
        }
    }

    /// Adds `payload` slot-wise to the entry at `key`. `payload` must be
    /// exactly `slots()` wide — a shorter or longer slice would silently
    /// truncate the `zip`, dropping slot sums (checked like
    /// [`GroupIndex::add_codes_multi`] checks its lengths).
    pub fn add(&mut self, key: &[i64], payload: &[f64]) {
        debug_assert_eq!(
            payload.len(),
            self.slots(),
            "add: payload width must match the accumulator's slot count"
        );
        for (x, y) in self.payload_mut(key).iter_mut().zip(payload) {
            *x += *y;
        }
    }

    /// If exactly one group is touched, decodes its key into `key_out` and
    /// returns its payload. The single-entry fast path of the shared scan.
    #[inline]
    pub fn only<'a>(&'a self, key_out: &mut Vec<i64>) -> Option<&'a [f64]> {
        match self {
            GroupIndex::Dense { space, slots, data, touched, .. } => match touched.as_slice() {
                &[code] => {
                    space.decode(code as u64, key_out);
                    Some(&data[code as usize * *slots..(code as usize + 1) * *slots])
                }
                _ => None,
            },
            GroupIndex::Hash { map, .. } => {
                if map.len() != 1 {
                    return None;
                }
                let (k, v) = map.iter().next().expect("len 1");
                key_out.clear();
                key_out.extend_from_slice(k);
                Some(v)
            }
        }
    }

    /// Calls `f(key, payload)` for every touched group (dense: first-touch
    /// order; hash: arbitrary).
    pub fn for_each(&self, mut f: impl FnMut(&[i64], &[f64])) {
        match self {
            GroupIndex::Dense { space, slots, data, touched, .. } => {
                let mut key = Vec::with_capacity(space.arity());
                for &code in touched {
                    space.decode(code as u64, &mut key);
                    f(&key, &data[code as usize * *slots..(code as usize + 1) * *slots]);
                }
            }
            GroupIndex::Hash { map, .. } => {
                for (k, v) in map {
                    f(k, v);
                }
            }
        }
    }

    /// Flattens every touched `(key, payload)` into reusable buffers —
    /// keys contiguously at a fixed stride (the returned key arity),
    /// payloads as borrowed slices. The shared scan's cross-product path
    /// calls this per row, so refilling caller-owned buffers (instead of
    /// materializing fresh `Vec`s as [`GroupIndex::pairs`] does) keeps the
    /// hot loop allocation-free after warm-up.
    pub fn flatten_pairs<'a>(&'a self, keys: &mut Vec<i64>, pays: &mut Vec<&'a [f64]>) -> usize {
        keys.clear();
        pays.clear();
        match self {
            GroupIndex::Dense { space, slots, data, touched, .. } => {
                for &code in touched {
                    space.decode_append(code as u64, keys);
                    pays.push(&data[code as usize * *slots..(code as usize + 1) * *slots]);
                }
                space.arity()
            }
            GroupIndex::Hash { map, .. } => {
                let mut arity = 0;
                for (k, v) in map {
                    arity = k.len();
                    keys.extend_from_slice(k);
                    pays.push(v);
                }
                arity
            }
        }
    }

    /// Materializes `(key, payload)` pairs — convenience for tests and
    /// one-shot consumers (hot paths use [`GroupIndex::flatten_pairs`]).
    pub fn pairs(&self) -> Vec<(Vec<i64>, &[f64])> {
        let mut out = Vec::with_capacity(self.len());
        match self {
            GroupIndex::Dense { space, slots, data, touched, .. } => {
                for &code in touched {
                    let mut key = Vec::with_capacity(space.arity());
                    space.decode(code as u64, &mut key);
                    out.push((key, &data[code as usize * *slots..(code as usize + 1) * *slots]));
                }
            }
            GroupIndex::Hash { map, .. } => {
                for (k, v) in map {
                    out.push((k.to_vec(), v.as_slice()));
                }
            }
        }
        out
    }

    /// Multiplies every payload slot of every touched group by `factor` —
    /// how the delta-maintenance path turns a batch of deleted rows into
    /// the additive inverse of their view contributions (§3.1).
    pub fn scale(&mut self, factor: f64) {
        match self {
            GroupIndex::Dense { slots, data, touched, .. } => {
                for &code in touched.iter() {
                    let c = code as usize;
                    crate::kernel::scale_slice(&mut data[c * *slots..(c + 1) * *slots], factor);
                }
            }
            GroupIndex::Hash { map, .. } => {
                for payload in map.values_mut() {
                    crate::kernel::scale_slice(payload, factor);
                }
            }
        }
    }

    /// Merges `other` into `self`, summing payloads of equal keys. A
    /// dense/dense merge over the *same* key space (the engine case: both
    /// sides stem from one view plan) is a straight indexed add; any other
    /// combination goes through key-wise decoding, so merging indexes with
    /// different spaces stays correct.
    pub fn merge_from(&mut self, other: &GroupIndex) {
        match (&mut *self, other) {
            (
                GroupIndex::Dense { space, slots, data, present, touched },
                GroupIndex::Dense { space: osp, slots: os, data: od, touched: ot, .. },
            ) if *slots == *os && space == osp => {
                for &code in ot {
                    let c = code as usize;
                    let (w, b) = (c / 64, 1u64 << (c % 64));
                    if present[w] & b == 0 {
                        present[w] |= b;
                        touched.push(code);
                    }
                    crate::kernel::add_slices(
                        &mut data[c * *slots..(c + 1) * *slots],
                        &od[c * *os..(c + 1) * *os],
                    );
                }
            }
            _ => other.for_each(|key, payload| self.add(key, payload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyspace_encode_decode_roundtrip() {
        let ks = KeySpace::new(&[(2, 4), (-1, 0), (10, 10)], 64).unwrap();
        assert_eq!(ks.size(), 6);
        assert_eq!(ks.arity(), 3);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for a in 2..=4 {
            for b in -1..=0 {
                let code = ks.encode(&[a, b, 10]).unwrap();
                assert!(code < 6);
                assert!(seen.insert(code), "codes are distinct");
                ks.decode(code, &mut out);
                assert_eq!(out, vec![a, b, 10]);
            }
        }
        // Out-of-range probes miss instead of aliasing.
        assert_eq!(ks.encode(&[5, 0, 10]), None);
        assert_eq!(ks.encode(&[2, -2, 10]), None);
        assert_eq!(ks.encode(&[2, 0, 11]), None);
    }

    #[test]
    fn keyspace_respects_limit_and_overflow() {
        assert!(KeySpace::new(&[(0, 31), (0, 31)], 1024).is_some());
        assert!(KeySpace::new(&[(0, 31), (0, 32)], 1024).is_none(), "1056 > 1024");
        assert!(KeySpace::new(&[(i64::MIN, i64::MAX)], u64::MAX).is_none(), "overflow");
        let empty = KeySpace::new(&[], 1).unwrap();
        assert_eq!(empty.size(), 1);
        assert_eq!(empty.encode(&[]), Some(0));
    }

    /// `limit == 0` is the documented "dense indexing disabled" switch
    /// (`EngineConfig::dense_limit = 0`, the hash-baseline arm). It must
    /// reject *every* space — including the one-code empty-key space that
    /// previously slipped through because the size check only ran inside
    /// the per-range loop.
    #[test]
    fn keyspace_limit_zero_disables_even_the_scalar_space() {
        assert!(KeySpace::new(&[], 0).is_none(), "scalar (empty-key) space");
        assert!(KeySpace::new(&[(5, 5)], 0).is_none(), "single-code space");
        assert!(KeySpace::new(&[(0, 3)], 0).is_none());
        // limit 1 is the smallest enabled space: exactly one code fits.
        assert!(KeySpace::new(&[], 1).is_some());
        assert!(KeySpace::new(&[(5, 5)], 1).is_some());
        assert!(KeySpace::new(&[(5, 6)], 1).is_none(), "two codes exceed 1");
    }

    /// Near-`u64`-overflow domain products: the size accounting must
    /// saturate to `None` (hash fallback), never wrap into a small bogus
    /// dense size, and encode/decode must stay exact at extreme mins.
    #[test]
    fn keyspace_near_u64_overflow_products() {
        // 2^32 × 2^32 = 2^64 overflows checked_mul → hash fallback.
        let r32 = (0i64, (1i64 << 32) - 1);
        assert!(KeySpace::new(&[r32, r32], u64::MAX).is_none(), "2^64 overflows");
        // 2^32 × 2^31 = 2^63 fits in u64 and is within the limit.
        let r31 = (0i64, (1i64 << 31) - 1);
        let big = KeySpace::new(&[r32, r31], u64::MAX).unwrap();
        assert_eq!(big.size(), 1u64 << 63);
        // Probes at the corners of the space round-trip exactly.
        let mut out = Vec::new();
        for key in [[0, 0], [(1 << 32) - 1, (1 << 31) - 1], [1, (1 << 31) - 1]] {
            let code = big.encode(&key).expect("in range");
            big.decode(code, &mut out);
            assert_eq!(out, key, "corner {key:?}");
        }
        assert_eq!(big.encode(&[1 << 32, 0]), None, "first attr out of range");
        assert_eq!(big.encode(&[0, 1 << 31]), None, "second attr out of range");
        // One past the limit is rejected, the limit itself is kept — the
        // boundary the dense/hash split pivots on.
        assert!(KeySpace::new(&[(0, 9)], 10).is_some());
        assert!(KeySpace::new(&[(0, 10)], 10).is_none());
        // A single attribute spanning (almost) the full i64 width: the
        // domain size is computed in i64, so 2^63-1 codes is the widest
        // representable range; one more overflows and must fall back.
        assert_eq!(KeySpace::new(&[(i64::MIN, -2)], u64::MAX).unwrap().size(), (1u64 << 63) - 1);
        assert!(KeySpace::new(&[(i64::MIN, -1)], u64::MAX).is_none(), "2^63 overflows i64");
        // Extreme negative mins: mixed-radix arithmetic is wrapping-safe.
        let neg = KeySpace::new(&[(i64::MIN, i64::MIN + 2), (-1, 1)], 16).unwrap();
        assert_eq!(neg.size(), 9);
        let mut seen = std::collections::HashSet::new();
        for a in 0..3i64 {
            for b in -1..=1i64 {
                let key = [i64::MIN + a, b];
                let code = neg.encode(&key).expect("in range");
                assert!(seen.insert(code), "codes distinct");
                neg.decode(code, &mut out);
                assert_eq!(out, key);
            }
        }
        assert_eq!(neg.encode(&[i64::MAX, 0]), None, "wrapped probe misses");
    }

    #[test]
    fn dense_and_hash_agree() {
        let ks = KeySpace::new(&[(0, 3), (0, 2)], 64).unwrap();
        let mut dense = GroupIndex::dense(ks, 2);
        let mut hash = GroupIndex::hash(2);
        let probes = [[0, 0], [3, 2], [0, 0], [1, 1], [3, 2]];
        for (i, key) in probes.iter().enumerate() {
            for gi in [&mut dense, &mut hash] {
                let p = gi.payload_mut(key);
                p[0] += 1.0;
                p[1] += i as f64;
            }
        }
        assert_eq!(dense.len(), 3);
        assert_eq!(hash.len(), 3);
        dense.for_each(|key, payload| {
            assert_eq!(hash.get(key), Some(payload), "key {key:?}");
        });
        assert_eq!(dense.get(&[2, 2]), None, "untouched in-range code");
        assert_eq!(dense.get(&[9, 9]), None, "out-of-range probe");
    }

    #[test]
    fn only_and_pairs() {
        let ks = KeySpace::new(&[(5, 9)], 16).unwrap();
        let mut gi = GroupIndex::dense(ks, 1);
        let mut key = Vec::new();
        assert!(gi.only(&mut key).is_none(), "empty");
        gi.payload_mut(&[7])[0] = 2.5;
        assert_eq!(gi.only(&mut key), Some(&[2.5][..]));
        assert_eq!(key, vec![7]);
        gi.payload_mut(&[5])[0] = 1.0;
        assert!(gi.only(&mut key).is_none(), "two entries");
        let mut pairs = gi.pairs();
        pairs.sort_by_key(|(k, _)| k[0]);
        assert_eq!(pairs, vec![(vec![5], &[1.0][..]), (vec![7], &[2.5][..])]);
        // flatten_pairs fills reusable buffers with the same content.
        let (mut keys, mut pays) = (vec![99], vec![]);
        let arity = gi.flatten_pairs(&mut keys, &mut pays);
        assert_eq!(arity, 1);
        assert_eq!(keys, vec![7, 5], "touch order, stale content cleared");
        assert_eq!(pays, vec![&[2.5][..], &[1.0][..]]);
    }

    /// Sorted `(key, payload)` pairs — order-insensitive scatter equality.
    fn sorted_pairs(gi: &GroupIndex) -> Vec<(Vec<i64>, Vec<f64>)> {
        let mut out: Vec<(Vec<i64>, Vec<f64>)> =
            gi.pairs().into_iter().map(|(k, p)| (k, p.to_vec())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The per-row reference the batched scatters must reproduce:
    /// `payload_mut` per in-range row, slot by slot.
    fn scatter_per_row(space: &KeySpace, nslots: usize, codes: &[u64], vals: &[f64]) -> GroupIndex {
        let (n, mut key) = (codes.len(), Vec::new());
        let mut gi = GroupIndex::dense(space.clone(), nslots);
        for (r, &code) in codes.iter().enumerate() {
            if code != crate::kernel::OOB_CODE {
                space.decode(code, &mut key);
                for (s, x) in gi.payload_mut(&key).iter_mut().enumerate() {
                    *x += vals[s * n + r];
                }
            }
        }
        gi
    }

    #[test]
    fn multi_slot_scatter_matches_per_row_loop() {
        let ks = KeySpace::new(&[(0, 7)], 16).unwrap();
        let codes = [3u64, 0, crate::kernel::OOB_CODE, 3, 7];
        // Slot-major: slot 0 rows then slot 1 rows.
        let vals = [1.0, 2.0, 4.0, 8.0, 16.0, -1.0, -2.0, -4.0, -8.0, -16.0];
        let per_row = scatter_per_row(&ks, 2, &codes, &vals);
        let mut multi = GroupIndex::dense(ks.clone(), 2);
        multi.add_codes_multi(&codes, &vals);
        assert_eq!(sorted_pairs(&per_row), sorted_pairs(&multi));
        // Identical first-touch order too (row order of first occurrence).
        let (mut a, mut b) = ((vec![], vec![]), (vec![], vec![]));
        per_row.flatten_pairs(&mut a.0, &mut a.1);
        multi.flatten_pairs(&mut b.0, &mut b.1);
        assert_eq!(a.0, b.0, "touch order");
        // Empty morsel: no-op, no touch.
        let mut empty = GroupIndex::dense(ks, 2);
        empty.add_codes_multi(&[], &[]);
        assert!(empty.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Dense and hash accumulators fed the same random probe
            /// sequence represent the same groups with the same payloads —
            /// the contract the engines' `dense_limit` sweep relies on.
            #[test]
            fn dense_and_hash_accumulate_identically(
                probes in proptest::collection::vec((0i64..5, -2i64..3, -4i64..5), 1..120),
            ) {
                let space = KeySpace::new(&[(0, 4), (-2, 2)], 25).unwrap();
                let mut dense = GroupIndex::dense(space, 2);
                let mut hash = GroupIndex::hash(2);
                for &(a, b, w) in &probes {
                    for gi in [&mut dense, &mut hash] {
                        let p = gi.payload_mut(&[a, b]);
                        p[0] += w as f64;
                        p[1] += 1.0;
                    }
                }
                prop_assert_eq!(dense.len(), hash.len());
                let mut checked = 0;
                dense.for_each(|key, payload| {
                    assert_eq!(hash.get(key), Some(payload), "key {key:?}");
                    checked += 1;
                });
                prop_assert_eq!(checked, hash.len());
                // Merging the dense side into a hash copy doubles payloads.
                let mut merged = GroupIndex::hash(2);
                merged.merge_from(&hash);
                merged.merge_from(&dense);
                merged.for_each(|key, payload| {
                    let single = hash.get(key).expect("same keys");
                    assert_eq!(payload[0], 2.0 * single[0], "key {key:?}");
                    assert_eq!(payload[1], 2.0 * single[1], "key {key:?}");
                });
            }

            /// Both batched scatters — whole-batch `add_codes_multi` and
            /// the keyed mode's `add_payload_row` — are bit-identical to
            /// the per-row `payload_mut` loop, including OOB rows and empty
            /// batches.
            #[test]
            fn batched_scatters_match_per_row_loop(
                keys in proptest::collection::vec((-3i64..9, -5i64..7), 0..150),
                raw_vals in proptest::collection::vec(-8i32..9, 0..600),
                nslots in 1usize..5,
            ) {
                // Keys outside [(0,4), (-2,2)] encode to OOB_CODE.
                let space = KeySpace::new(&[(0, 4), (-2, 2)], 25).unwrap();
                let n = keys.len();
                let codes: Vec<u64> = keys
                    .iter()
                    .map(|&(a, b)| space.encode(&[a, b]).unwrap_or(crate::kernel::OOB_CODE))
                    .collect();
                let vals: Vec<f64> = (0..nslots * n)
                    .map(|i| raw_vals.get(i % raw_vals.len().max(1)).copied().unwrap_or(0) as f64)
                    .collect();
                let mut multi = GroupIndex::dense(space.clone(), nslots);
                multi.add_codes_multi(&codes, &vals);
                let mut rowed = GroupIndex::dense(space.clone(), nslots);
                for (r, &code) in codes.iter().enumerate() {
                    if code != crate::kernel::OOB_CODE {
                        rowed.add_payload_row(code, &vals, r, n);
                    }
                }
                let want = super::sorted_pairs(&super::scatter_per_row(&space, nslots, &codes, &vals));
                prop_assert_eq!(&want, &super::sorted_pairs(&multi), "multi");
                prop_assert_eq!(&want, &super::sorted_pairs(&rowed), "add_payload_row");
            }
        }
    }

    #[test]
    fn merge_dense_dense_and_mixed() {
        let ks = KeySpace::new(&[(0, 4)], 16).unwrap();
        let mut a = GroupIndex::dense(ks.clone(), 1);
        let mut b = GroupIndex::dense(ks.clone(), 1);
        a.payload_mut(&[1])[0] = 1.0;
        b.payload_mut(&[1])[0] = 10.0;
        b.payload_mut(&[3])[0] = 30.0;
        a.merge_from(&b);
        assert_eq!(a.get(&[1]), Some(&[11.0][..]));
        assert_eq!(a.get(&[3]), Some(&[30.0][..]));
        // Hash ← dense falls back to the generic key-wise path.
        let mut h = GroupIndex::hash(1);
        h.payload_mut(&[3])[0] = 0.5;
        h.merge_from(&a);
        assert_eq!(h.get(&[1]), Some(&[11.0][..]));
        assert_eq!(h.get(&[3]), Some(&[30.5][..]));
        assert_eq!(h.len(), 2);
        // Dense ← dense over a *different* (covering) space must decode
        // key-wise, not add raw codes: key 1 is code 1 in [0,4] but code 3
        // in [-2,9], so a raw-code add would misattribute the payloads.
        let cover = KeySpace::new(&[(-2, 9)], 16).unwrap();
        let mut s = GroupIndex::dense(cover, 1);
        s.merge_from(&a);
        assert_eq!(s.get(&[1]), Some(&[11.0][..]));
        assert_eq!(s.get(&[3]), Some(&[30.0][..]));
        assert_eq!(s.get(&[-1]), None, "no raw-code aliasing");
        assert_eq!(s.len(), 2);
    }
}
