//! The shared-scan bottom-up evaluator (LMFAO §4).
//!
//! Views are filled bottom-up over the join tree: all views at a node are
//! computed in **one shared scan** of the node's relation, probing the
//! children's already-computed views by join key. Typed column kernels
//! (the "specialisation" toggle) replace per-tuple `Value` interpretation
//! in the hot loop. The multi-threaded paths live in [`crate::parallel`];
//! this module is the sequential core plus the [`run_batch`] entry point.

use crate::batch::{AggBatch, FilterOp};
use crate::group::GroupIndex;
use crate::ir::BatchResult;
use crate::parallel::{self, EngineConfig};
use crate::plan::{Plan, ViewData};
use crate::viewcache::ViewCache;
use fdb_data::{DataError, Database};
use std::collections::HashMap;
use std::sync::Arc;

/// The view-cache context of one `run_batch` call: the cache, the plan's
/// per-node subtree signatures, the per-node relation content ids (stats
/// attribution), and the caller's byte budget.
pub(crate) struct CacheCtx<'a> {
    cache: &'a ViewCache,
    sigs: Vec<String>,
    head_ids: Vec<u64>,
    budget: usize,
}

impl<'a> CacheCtx<'a> {
    pub(crate) fn new(cache: &'a ViewCache, plan: &Plan, cfg: &EngineConfig) -> Self {
        Self {
            cache,
            sigs: plan.subtree_signatures(cfg.dense_limit),
            head_ids: plan.rels.iter().map(|r| r.data_id()).collect(),
            budget: cfg.view_cache_bytes,
        }
    }

    /// The cached views of `node`'s subtree, if its signature is warm.
    pub(crate) fn serve(&self, node: usize) -> Option<Arc<Vec<ViewData>>> {
        self.cache.get(&self.sigs[node], self.head_ids[node])
    }

    /// Offers freshly computed views of `node` to the cache.
    pub(crate) fn admit(&self, node: usize, views: &Arc<Vec<ViewData>>) {
        self.cache.insert(&self.sigs[node], self.head_ids[node], Arc::clone(views), self.budget);
    }

    /// Root views depend on the row-chunking of the scan (merge order can
    /// change float rounding), so the root's key carries the chunk count
    /// on top of the subtree signature.
    fn root_key(&self, root: usize, chunks: usize) -> String {
        format!("{}#chunks{chunks}", self.sigs[root])
    }

    /// The cached root views for a `chunks`-way scan, if warm.
    pub(crate) fn serve_root(&self, root: usize, chunks: usize) -> Option<Arc<Vec<ViewData>>> {
        self.cache.get(&self.root_key(root, chunks), self.head_ids[root])
    }

    /// [`CacheCtx::serve`] with an adoption predicate checked before the
    /// hit is counted (rejections count as misses — see
    /// [`ViewCache::get_filtered`]). `chunks1_root` keys the node as the
    /// root of a 1-chunk scan instead of by its plain subtree signature.
    pub(crate) fn serve_filtered(
        &self,
        node: usize,
        chunks1_root: bool,
        adopt: impl FnOnce(&[ViewData]) -> bool,
    ) -> Option<Arc<Vec<ViewData>>> {
        let key = if chunks1_root { self.root_key(node, 1) } else { self.sigs[node].clone() };
        self.cache.get_filtered(&key, self.head_ids[node], adopt)
    }

    /// Offers freshly computed root views (a `chunks`-way scan).
    pub(crate) fn admit_root(&self, root: usize, chunks: usize, views: &Arc<Vec<ViewData>>) {
        self.cache.insert(
            &self.root_key(root, chunks),
            self.head_ids[root],
            Arc::clone(views),
            self.budget,
        );
    }
}

/// Typed column accessor — the "specialisation" fast path.
pub(crate) enum Col<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
}

impl<'a> Col<'a> {
    /// Builds typed accessors for every column of `rel`. Dispatches on the
    /// column's *actual* backing store (not the schema's claimed type), so
    /// a schema/storage disagreement can never abort a worker thread — the
    /// accessor simply reflects what the column holds.
    pub(crate) fn all(rel: &'a fdb_data::Relation) -> Vec<Col<'a>> {
        (0..rel.schema().arity())
            .map(|c| match rel.col(c) {
                fdb_data::Column::Int(v) => Col::I(v.as_slice()),
                fdb_data::Column::F64(v) => Col::F(v.as_slice()),
            })
            .collect()
    }

    #[inline]
    pub(crate) fn get(&self, row: usize) -> f64 {
        match self {
            Col::F(v) => v[row],
            Col::I(v) => v[row] as f64,
        }
    }

    #[inline]
    pub(crate) fn get_int(&self, row: usize) -> i64 {
        match self {
            Col::F(v) => v[row] as i64,
            Col::I(v) => v[row],
        }
    }
}

/// Evaluates one filter condition against the float/int views of a value.
#[inline]
pub(crate) fn filter_pass(op: &FilterOp, x_f: f64, x_i: i64) -> bool {
    match op {
        FilterOp::Ge(t) => x_f >= *t,
        FilterOp::Lt(t) => x_f < *t,
        FilterOp::Eq(v) => x_i == *v,
        FilterOp::Ne(v) => x_i != *v,
        FilterOp::In(vs) => vs.binary_search(&x_i).is_ok(),
    }
}

/// Computes all views of `node` over `rows` of its relation, probing the
/// children's views in `child_data`.
pub(crate) fn compute_node(
    plan: &Plan,
    node: usize,
    child_data: &[Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    rows: std::ops::Range<usize>,
) -> Vec<ViewData> {
    compute_node_over(plan, node, &plan.rels[node], child_data, cfg, rows)
}

/// [`compute_node`] scanning `rel` in place of the node's own relation —
/// the delta-maintenance entry point: a batch of inserted (or deleted)
/// rows, shaped like the node's relation, contributes its views exactly
/// as those rows would during a full scan, so the result is the *delta*
/// of the node's views under the update.
pub(crate) fn compute_node_over(
    plan: &Plan,
    node: usize,
    rel: &fdb_data::Relation,
    child_data: &[Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    rows: std::ops::Range<usize>,
) -> Vec<ViewData> {
    let np = &plan.nodes[node];
    let cols = Col::all(rel);
    let mut out: Vec<ViewData> =
        np.views.iter().map(|_| ViewData::new(np.key_space.as_ref())).collect();
    let nchildren = np.children.len();
    // Distinct (child position, child view) lookups across all views: each
    // is fetched once per row and shared by every view needing it.
    let mut lookup_specs: Vec<(usize, usize)> = Vec::new();
    let view_lookups: Vec<Vec<usize>> = np
        .views
        .iter()
        .map(|vp| {
            vp.child_views
                .iter()
                .enumerate()
                .map(|(cpos, &(cv, _))| {
                    match lookup_specs.iter().position(|&ls| ls == (cpos, cv)) {
                        Some(i) => i,
                        None => {
                            lookup_specs.push((cpos, cv));
                            lookup_specs.len() - 1
                        }
                    }
                })
                .collect()
        })
        .collect();
    // Hash-free accumulators for scalar views (empty key, no group-bys) —
    // the bulk of a covariance batch at the root.
    let scalar_view: Vec<bool> =
        np.views.iter().map(|vp| np.key_cols.is_empty() && vp.group_attrs.is_empty()).collect();
    let mut scalar_payloads: Vec<Vec<f64>> = np
        .views
        .iter()
        .enumerate()
        .map(|(vi, vp)| if scalar_view[vi] { vec![0.0; vp.slots.len()] } else { vec![] })
        .collect();
    // Leaf nodes (no children to probe) take the batch-at-a-time kernel
    // path: per-slot factor/filter passes run column-wise over morsel-sized
    // row batches instead of row-at-a-time.
    if cfg.specialize && nchildren == 0 {
        compute_leaf_batched(np, &cols, cfg, rows, &mut out, &scalar_view, &mut scalar_payloads);
        for (vi, payload) in scalar_payloads.into_iter().enumerate() {
            if scalar_view[vi] {
                out[vi].entry_mut(&[], &np.views[vi].spec).add(&[], &payload);
            }
        }
        return out;
    }
    // Reused per-row buffers: with dense accumulators the hot loop does
    // not allocate at all; the hash fallback allocates only on first
    // insertion of a new key.
    let mut child_keys: Vec<Vec<i64>> = vec![Vec::new(); nchildren];
    let mut key_buf: Vec<i64> = Vec::new();
    let mut gkey_buf: Vec<i64> = Vec::new();
    let mut gvals_buf: Vec<i64> = Vec::new();
    let mut single: Vec<&[f64]> = Vec::with_capacity(nchildren);
    let mut fetched: Vec<Option<*const GroupIndex>> = vec![None; lookup_specs.len()];
    // Cross-product scratch: per child, the flattened (keys, payloads) of
    // its current group entries plus the key stride.
    let mut cross_keys: Vec<Vec<i64>> = vec![Vec::new(); nchildren];
    let mut cross_pays: Vec<Vec<&[f64]>> = vec![Vec::new(); nchildren];
    let mut cross_arity: Vec<usize> = vec![0; nchildren];
    let mut idx: Vec<usize> = vec![0; nchildren];
    for row in rows {
        // Generic (unspecialized) mode materializes the tuple first — the
        // per-tuple interpretation overhead LMFAO's code generation removes.
        let generic_row: Option<Vec<fdb_data::Value>> =
            if cfg.specialize { None } else { Some(rel.row_vec(row)) };
        let getf = |c: usize| -> f64 {
            match &generic_row {
                None => cols[c].get(row),
                Some(r) => r[c].as_f64(),
            }
        };
        let geti = |c: usize| -> i64 {
            match &generic_row {
                None => cols[c].get_int(row),
                Some(r) => r[c].as_int(),
            }
        };
        // Row keys, once per child and once to the parent.
        for (cpos, buf) in child_keys.iter_mut().enumerate() {
            buf.clear();
            buf.extend(np.child_key_cols[cpos].iter().map(|&c| geti(c)));
        }
        key_buf.clear();
        key_buf.extend(np.key_cols.iter().map(|&c| geti(c)));
        // Fetch each distinct child view once. Raw pointers sidestep the
        // borrow of `child_data` across the mutable `out` uses below; the
        // maps live in `child_data`, which is untouched for this node.
        for (li, &(cpos, cv)) in lookup_specs.iter().enumerate() {
            let data = child_data[np.children[cpos]].as_ref().expect("child computed first");
            fetched[li] = data[cv].get(child_keys[cpos].as_slice()).map(|m| m as *const GroupIndex);
        }
        'views: for (vi, vp) in np.views.iter().enumerate() {
            debug_assert_eq!(vp.spec.slots, vp.slots.len(), "plan must be finalized");
            // Resolve this view's child entries; a missing partner kills
            // the row's contribution to this view.
            let mut entries: Vec<&GroupIndex> = Vec::with_capacity(nchildren);
            for &li in &view_lookups[vi] {
                match fetched[li] {
                    // SAFETY: points into `child_data`, alive and unaliased
                    // by the writes to `out`/`scalar_payloads`.
                    Some(p) => entries.push(unsafe { &*p }),
                    None => continue 'views,
                }
            }
            let group_len = vp.group_attrs.len();
            // Fast path: every child contributes exactly one group entry
            // (always true for scalar views) — no cross product needed.
            if entries.iter().all(|m| m.len() == 1) {
                gkey_buf.clear();
                gkey_buf.resize(group_len, 0);
                for &(pos, col) in &vp.local_groups {
                    gkey_buf[pos] = geti(col);
                }
                single.clear();
                for (cpos, m) in entries.iter().enumerate() {
                    let pay = m.only(&mut gvals_buf).expect("len 1");
                    for &(mypos, cpos_g) in &vp.child_views[cpos].1 {
                        gkey_buf[mypos] = gvals_buf[cpos_g];
                    }
                    single.push(pay);
                    debug_assert_eq!(single.len(), cpos + 1);
                }
                let payload: &mut [f64] = if scalar_view[vi] {
                    &mut scalar_payloads[vi]
                } else {
                    out[vi].entry_mut(&key_buf, &vp.spec).payload_mut(&gkey_buf)
                };
                'slots: for (si, slot) in vp.slots.iter().enumerate() {
                    for (c, op) in &slot.filter {
                        if !filter_pass(op, getf(*c), geti(*c)) {
                            continue 'slots;
                        }
                    }
                    let mut v = 1.0;
                    for &(c, f) in &slot.factors {
                        v *= f.apply(getf(c));
                    }
                    for (cpos, _) in entries.iter().enumerate() {
                        v *= single[cpos][slot.child_slots[cpos]];
                    }
                    payload[si] += v;
                }
                continue 'views;
            }
            // General path: cross product of child group entries, flattened
            // into the reused scratch buffers (no per-row allocation).
            for (cpos, m) in entries.iter().enumerate() {
                cross_arity[cpos] = m.flatten_pairs(&mut cross_keys[cpos], &mut cross_pays[cpos]);
                idx[cpos] = 0;
            }
            loop {
                gkey_buf.clear();
                gkey_buf.resize(group_len, 0);
                for &(pos, col) in &vp.local_groups {
                    gkey_buf[pos] = geti(col);
                }
                for cpos in 0..entries.len() {
                    let (stride, i) = (cross_arity[cpos], idx[cpos]);
                    let gvals = &cross_keys[cpos][i * stride..(i + 1) * stride];
                    for &(mypos, cpos_g) in &vp.child_views[cpos].1 {
                        gkey_buf[mypos] = gvals[cpos_g];
                    }
                }
                // Accumulate all slots for this combination.
                let payload: &mut [f64] = if scalar_view[vi] {
                    &mut scalar_payloads[vi]
                } else {
                    out[vi].entry_mut(&key_buf, &vp.spec).payload_mut(&gkey_buf)
                };
                'slots: for (si, slot) in vp.slots.iter().enumerate() {
                    for (c, op) in &slot.filter {
                        if !filter_pass(op, getf(*c), geti(*c)) {
                            continue 'slots;
                        }
                    }
                    let mut v = 1.0;
                    for &(c, f) in &slot.factors {
                        v *= f.apply(getf(c));
                    }
                    for cpos in 0..entries.len() {
                        v *= cross_pays[cpos][idx[cpos]][slot.child_slots[cpos]];
                    }
                    payload[si] += v;
                }
                // Advance the multi-index.
                let mut d = 0;
                loop {
                    if d == nchildren {
                        break;
                    }
                    idx[d] += 1;
                    if idx[d] < cross_pays[d].len() {
                        break;
                    }
                    idx[d] = 0;
                    d += 1;
                }
                if d == nchildren {
                    break;
                }
            }
        }
    }
    // Fold the hash-free scalar accumulators into the view representation.
    for (vi, payload) in scalar_payloads.into_iter().enumerate() {
        if scalar_view[vi] {
            out[vi].entry_mut(&[], &np.views[vi].spec).add(&[], &payload);
        }
    }
    out
}

/// Per-worker scratch arena for the batched leaf scan: slot-value
/// stripes, code buffers, and key buffers. Thread-local, so morsel workers
/// stop allocating per (node, morsel) call after their first — the buffers
/// warm up to the working sizes and stay.
#[derive(Default)]
struct LeafScratch {
    slot_vals: Vec<f64>,
    key_codes: Vec<u64>,
    gcodes: Vec<u64>,
    oob: Vec<u64>,
    key_buf: Vec<i64>,
    gkey_buf: Vec<i64>,
}

thread_local! {
    static LEAF_SCRATCH: std::cell::RefCell<LeafScratch> = std::cell::RefCell::default();
}

/// How one view's batch scatters into its accumulators — decided once per
/// `compute_leaf_batched` call (loop-invariant across batches).
enum ScatterMode {
    /// Per-row `entry_mut` + `payload_mut` — the fallback for hash-backed
    /// levels or float-typed key/group columns.
    RowWise,
    /// No join key: one view entry, so the whole batch is one
    /// [`crate::kernel::encode_codes`] pass plus one
    /// [`GroupIndex::add_codes_multi`] scatter — the same two calls the
    /// flat engine makes. `gcols` is the group column per slot position.
    SingleEntry { gcols: Vec<usize> },
    /// Dense join-key *and* group spaces: both key levels batch-encode
    /// ([`crate::kernel::encode_codes`]) and each row resolves its entry
    /// by code ([`ViewData::entry_mut_by_code`]) then adds its whole
    /// payload row ([`GroupIndex::add_payload_row`]) — one walk over the
    /// batch for all slots, no key re-encoding, no `Vec<i64>` key builds.
    Keyed { gcols: Vec<usize> },
}

/// The batch-at-a-time leaf scan: for each morsel-sized row batch, every
/// view's per-slot values are computed as column-wise passes over the
/// batch (factor products via [`crate::kernel::mul_by`], filters via
/// [`crate::kernel::mask_by`] — a select to `0.0`, preserving the row-wise
/// path's skip semantics exactly), then scattered into the accumulators
/// with the multi-slot kernels (see [`ScatterMode`]), each adding cells in
/// row order exactly like the row-wise fallback. Scalar views reduce each
/// batch with one deterministic slice sum.
fn compute_leaf_batched(
    np: &crate::plan::NodePlan,
    cols: &[Col<'_>],
    cfg: &EngineConfig,
    rows: std::ops::Range<usize>,
    out: &mut [ViewData],
    scalar_view: &[bool],
    scalar_payloads: &mut [Vec<f64>],
) {
    let batch_cap = cfg.morsel_rows.clamp(1, crate::morsel::DEFAULT_MORSEL_ROWS);
    // Scatter-path selection, once per view: a group level is batchable
    // when its accumulator is dense and every group column is
    // integer-backed; the key level additionally needs the node's dense
    // key space (or no key at all).
    let modes: Vec<ScatterMode> = np
        .views
        .iter()
        .enumerate()
        .map(|(vi, vp)| {
            if scalar_view[vi] {
                return ScatterMode::RowWise; // unused: scalar views sum, never scatter
            }
            if vp.spec.space.is_none() || vp.local_groups.len() != vp.group_attrs.len() {
                return ScatterMode::RowWise;
            }
            let mut gcols = vec![usize::MAX; vp.group_attrs.len()];
            for &(pos, col) in &vp.local_groups {
                gcols[pos] = col;
            }
            if gcols.iter().any(|&c| c == usize::MAX || !matches!(cols[c], Col::I(_))) {
                return ScatterMode::RowWise;
            }
            if np.key_cols.is_empty() {
                return ScatterMode::SingleEntry { gcols };
            }
            let keys_dense =
                np.key_space.is_some() && np.key_cols.iter().all(|&c| matches!(cols[c], Col::I(_)));
            if keys_dense {
                ScatterMode::Keyed { gcols }
            } else {
                ScatterMode::RowWise
            }
        })
        .collect();
    LEAF_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let int_slice = |c: usize, lo: usize, hi: usize| -> &[i64] {
            match &cols[c] {
                Col::I(v) => &v[lo..hi],
                Col::F(_) => unreachable!("mode selection requires integer columns"),
            }
        };
        let mut lo = rows.start;
        while lo < rows.end {
            let hi = (lo + batch_cap).min(rows.end);
            let n = hi - lo;
            for (vi, vp) in np.views.iter().enumerate() {
                debug_assert_eq!(vp.spec.slots, vp.slots.len(), "plan must be finalized");
                let nslots = vp.slots.len();
                s.slot_vals.clear();
                s.slot_vals.resize(nslots * n, 1.0);
                for (si, slot) in vp.slots.iter().enumerate() {
                    let sv = &mut s.slot_vals[si * n..(si + 1) * n];
                    for &(c, f) in &slot.factors {
                        match &cols[c] {
                            Col::F(v) => crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x)),
                            Col::I(v) => {
                                crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x as f64))
                            }
                        }
                    }
                    for (c, op) in &slot.filter {
                        match &cols[*c] {
                            Col::F(v) => crate::kernel::mask_by(sv, &v[lo..hi], |x| {
                                filter_pass(op, x, x as i64)
                            }),
                            Col::I(v) => crate::kernel::mask_by(sv, &v[lo..hi], |x| {
                                filter_pass(op, x as f64, x)
                            }),
                        }
                    }
                }
                if scalar_view[vi] {
                    let payload = &mut scalar_payloads[vi];
                    for si in 0..nslots {
                        payload[si] += crate::kernel::sum(&s.slot_vals[si * n..(si + 1) * n]);
                    }
                    continue;
                }
                match &modes[vi] {
                    ScatterMode::SingleEntry { gcols } => {
                        let gslices: Vec<&[i64]> =
                            gcols.iter().map(|&c| int_slice(c, lo, hi)).collect();
                        let entry = out[vi].entry_mut(&[], &vp.spec);
                        let gspace = vp.spec.space.as_ref().expect("mode requires dense groups");
                        crate::kernel::encode_codes(gspace, &gslices, n, &mut s.gcodes, &mut s.oob);
                        entry.add_codes_multi(&s.gcodes, &s.slot_vals);
                    }
                    ScatterMode::Keyed { gcols } => {
                        let kslices: Vec<&[i64]> =
                            np.key_cols.iter().map(|&c| int_slice(c, lo, hi)).collect();
                        let kspace = np.key_space.as_ref().expect("mode requires dense keys");
                        crate::kernel::encode_codes(
                            kspace,
                            &kslices,
                            n,
                            &mut s.key_codes,
                            &mut s.oob,
                        );
                        let gslices: Vec<&[i64]> =
                            gcols.iter().map(|&c| int_slice(c, lo, hi)).collect();
                        let gspace = vp.spec.space.as_ref().expect("mode requires dense groups");
                        crate::kernel::encode_codes(gspace, &gslices, n, &mut s.gcodes, &mut s.oob);
                        // Both spaces are sized from the min/max of these
                        // very columns, so no row can be out of range.
                        debug_assert!(s.key_codes.iter().all(|&c| c != crate::kernel::OOB_CODE));
                        debug_assert!(s.gcodes.iter().all(|&c| c != crate::kernel::OOB_CODE));
                        for r in 0..n {
                            out[vi].entry_mut_by_code(s.key_codes[r], &vp.spec).add_payload_row(
                                s.gcodes[r],
                                &s.slot_vals,
                                r,
                                n,
                            );
                        }
                    }
                    ScatterMode::RowWise => {
                        // Keyed views scatter row-wise; the group entry is
                        // touched for every row (even all-zero slots),
                        // matching the row-wise path's touch-before-filter
                        // order.
                        for r in 0..n {
                            let row = lo + r;
                            s.key_buf.clear();
                            s.key_buf.extend(np.key_cols.iter().map(|&c| cols[c].get_int(row)));
                            s.gkey_buf.clear();
                            s.gkey_buf.resize(vp.group_attrs.len(), 0);
                            for &(pos, col) in &vp.local_groups {
                                s.gkey_buf[pos] = cols[col].get_int(row);
                            }
                            let payload =
                                out[vi].entry_mut(&s.key_buf, &vp.spec).payload_mut(&s.gkey_buf);
                            for si in 0..nslots {
                                payload[si] += s.slot_vals[si * n + r];
                            }
                        }
                    }
                }
            }
            lo = hi;
        }
    });
}

/// Computes all nodes of `order` sequentially (bottom-up), offering each
/// computed node to the view cache.
pub(crate) fn compute_subtree(
    plan: &Plan,
    order: &[usize],
    data: &mut [Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    ctx: Option<&CacheCtx<'_>>,
) {
    for &n in order {
        let views = Arc::new(compute_node(plan, n, data, cfg, 0..plan.rels[n].len()));
        if let Some(ctx) = ctx {
            ctx.admit(n, &views);
        }
        data[n] = Some(views);
    }
}

/// Runs an aggregate batch over the natural join of `relations`.
///
/// Crate-internal: the public entry point is
/// [`crate::backend::LmfaoEngine`], whose `run` validates the
/// [`crate::ir::AggQuery`] first — calling this directly would skip the
/// invariants (e.g. integer-backed group-bys) the backends rely on.
pub(crate) fn run_batch(
    db: &Database,
    relations: &[&str],
    batch: &AggBatch,
    cfg: &EngineConfig,
) -> Result<BatchResult, DataError> {
    let mut plan = Plan::build(db, relations)?;
    let root = plan.root;
    // Decompose every aggregate from the root.
    let mut agg_slots = Vec::with_capacity(batch.aggs.len());
    for (i, agg) in batch.aggs.iter().enumerate() {
        agg_slots.push(plan.decompose(agg, i, root, cfg.share)?);
    }
    plan.finalize(cfg.dense_limit);
    let plan = plan; // freeze
    let ctx = (cfg.view_cache_bytes > 0).then(|| CacheCtx::new(ViewCache::global(), &plan, cfg));
    let mut data: Vec<Option<Arc<Vec<ViewData>>>> = plan.rels.iter().map(|_| None).collect();

    // Serve warm subtrees top-down: a node whose subtree signature hits
    // needs nothing below it (its views already fold the whole subtree
    // in), so the walk only descends into missed nodes. What's left to
    // compute is exactly the nodes on the path from some changed relation
    // or filter to the root — the residual of the batch against the cache.
    let mut need = vec![false; plan.rels.len()];
    for &c in &plan.nodes[root].children {
        need[c] = true;
    }
    for &n in plan.order.iter().rev() {
        if n == root || !need[n] {
            continue;
        }
        if let Some(hit) = ctx.as_ref().and_then(|ctx| ctx.serve(n)) {
            data[n] = Some(hit);
            continue;
        }
        for &c in &plan.nodes[n].children {
            need[c] = true;
        }
    }
    let to_compute: Vec<usize> =
        plan.order.iter().copied().filter(|&n| n != root && need[n] && data[n].is_none()).collect();

    // Missed nodes bottom-up; root children subtrees are independent and
    // can run task-parallel.
    if cfg.threads > 1 && plan.nodes[root].children.len() > 1 {
        parallel::compute_subtrees_parallel(&plan, &to_compute, &mut data, cfg, ctx.as_ref())?;
    } else {
        compute_subtree(&plan, &to_compute, &mut data, cfg, ctx.as_ref());
    }

    // Root: domain parallelism over morsel-sized row chunks. The root's
    // cache key carries the chunk count, since chunk-merge order affects
    // float rounding; `morsel_count` is deterministic in (rows, config),
    // so warm runs key identically.
    let root_rows = plan.rels[root].len();
    let chunked = cfg.threads > 1 && root_rows > cfg.morsel_rows;
    let chunks = if chunked {
        crate::morsel::morsel_count(root_rows, cfg.morsel_rows, cfg.threads.min(root_rows))
    } else {
        1
    };
    let cached_root = ctx.as_ref().and_then(|ctx| ctx.serve_root(root, chunks));
    let root_data: Arc<Vec<ViewData>> = match cached_root {
        Some(hit) => hit,
        None => {
            let computed = if chunked {
                parallel::compute_root_chunked(&plan, &data, cfg, root_rows)?
            } else {
                compute_node(&plan, root, &data, cfg, 0..root_rows)
            };
            let computed = Arc::new(computed);
            if let Some(ctx) = &ctx {
                ctx.admit_root(root, chunks, &computed);
            }
            computed
        }
    };

    // Extract results.
    let mut groups = Vec::with_capacity(batch.aggs.len());
    let mut values = Vec::with_capacity(batch.aggs.len());
    for &(vi, si) in &agg_slots {
        let vp = &plan.nodes[root].views[vi];
        groups.push(vp.group_attrs.clone());
        let mut map: HashMap<Box<[i64]>, f64> = HashMap::new();
        if let Some(entries) = root_data[vi].get(&[]) {
            entries.for_each(|gkey, payload| {
                if payload[si] != 0.0 {
                    map.insert(gkey.into(), payload[si]);
                }
            });
        }
        values.push(map);
    }
    Ok(BatchResult { groups, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Engine, FlatEngine, LmfaoEngine};
    use crate::batch::Aggregate;
    use crate::ir::AggQuery;
    use fdb_data::Relation;

    fn tiny_retailer() -> (Database, Vec<&'static str>) {
        let ds = fdb_datasets::retailer(fdb_datasets::RetailerConfig::tiny());
        (ds.db, vec!["Inventory", "Location", "Census", "Item", "Weather"])
    }

    /// Compares LMFAO against the flat engine on the materialized join —
    /// both through the `Engine` trait on the same `AggQuery`.
    fn check_batch(db: &Database, rels: &[&str], batch: &AggBatch, cfg: &EngineConfig) {
        let q = AggQuery::new(rels, batch.clone());
        let got = LmfaoEngine::with_config(*cfg).run(db, &q).unwrap();
        let expect = FlatEngine.run(db, &q).unwrap();
        for i in 0..batch.len() {
            assert_eq!(got.groups[i], expect.groups[i], "agg {i}: group attrs");
            let (gotmap, expmap) = (got.grouped(i), expect.grouped(i));
            assert_eq!(gotmap.len(), expmap.len(), "agg {i}: group count mismatch");
            for (k, v) in gotmap {
                let e = expmap.get(k).copied().unwrap_or(f64::NAN);
                assert!(
                    (v - e).abs() <= 1e-6 * (1.0 + e.abs()),
                    "agg {i} key {k:?}: got {v}, expect {e}"
                );
            }
        }
    }

    #[test]
    fn covariance_batch_matches_classical_engine() {
        let (db, rels) = tiny_retailer();
        let batch = crate::batchgen::covariance_batch(
            &["prize", "maxtemp", "population", "inventoryunits"],
            &["rain", "category"],
        );
        check_batch(&db, &rels, &batch, &EngineConfig::default());
    }

    #[test]
    fn unshared_and_unspecialized_agree() {
        let (db, rels) = tiny_retailer();
        let batch = crate::batchgen::covariance_batch(
            &["prize", "inventoryunits"],
            &["rain", "categoryCluster"],
        );
        // The view cache is bypassed so every configuration exercises its
        // own evaluation path (specialize pairs share plan signatures and
        // would otherwise serve each other's views).
        for cfg in [
            EngineConfig {
                specialize: false,
                share: false,
                threads: 1,
                view_cache_bytes: 0,
                ..Default::default()
            },
            EngineConfig {
                specialize: true,
                share: false,
                threads: 1,
                view_cache_bytes: 0,
                ..Default::default()
            },
            EngineConfig {
                specialize: false,
                share: true,
                threads: 1,
                view_cache_bytes: 0,
                ..Default::default()
            },
            EngineConfig {
                specialize: true,
                share: true,
                threads: 1,
                dense_limit: 0,
                view_cache_bytes: 0,
                ..Default::default()
            },
        ] {
            check_batch(&db, &rels, &batch, &cfg);
        }
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let (db, rels) = tiny_retailer();
        let batch =
            crate::batchgen::covariance_batch(&["prize", "maxtemp", "inventoryunits"], &["rain"]);
        // Cache bypassed: the parallel run must actually recompute, not
        // serve the sequential run's views.
        let seq = run_batch(
            &db,
            &rels,
            &batch,
            &EngineConfig { threads: 1, view_cache_bytes: 0, ..Default::default() },
        )
        .unwrap();
        let par = run_batch(
            &db,
            &rels,
            &batch,
            &EngineConfig { threads: 4, view_cache_bytes: 0, ..Default::default() },
        )
        .unwrap();
        for i in 0..batch.len() {
            assert_eq!(seq.groups[i], par.groups[i]);
            for (k, v) in seq.grouped(i) {
                let p = par.grouped(i)[k];
                assert!((v - p).abs() <= 1e-9 * (1.0 + v.abs()), "agg {i}: {v} vs {p}");
            }
        }
    }

    #[test]
    fn filtered_decision_tree_batch_matches() {
        let (db, rels) = tiny_retailer();
        let batch = crate::batchgen::decision_node_batch(
            &["prize", "maxtemp"],
            &["rain"],
            "inventoryunits",
            3,
            2,
            |attr, j| match attr {
                "prize" => 5.0 + 10.0 * j as f64,
                _ => 5.0 * j as f64,
            },
        );
        check_batch(&db, &rels, &batch, &EngineConfig::default());
    }

    #[test]
    fn cross_branch_categorical_pairs() {
        // category (Item) × rain (Weather): group attrs from different
        // subtrees exercise the cross-product path.
        let (db, rels) = tiny_retailer();
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count().by(&["category", "rain"]));
        batch.push(Aggregate::sum("inventoryunits").by(&["category", "rain"]));
        check_batch(&db, &rels, &batch, &EngineConfig::default());
    }

    #[test]
    fn join_key_as_factor_is_rejected() {
        let (db, rels) = tiny_retailer();
        let mut batch = AggBatch::new();
        batch.push(Aggregate::sum("locn"));
        assert!(run_batch(&db, &rels, &batch, &EngineConfig::default()).is_err());
    }

    #[test]
    fn view_cache_serves_warm_runs_and_invalidates_on_mutation() {
        // Fresh dataset instance → fresh relation content ids, so the
        // per-id cache attributions below are exact even with other tests
        // exercising the global cache concurrently.
        let (mut db, rels) = tiny_retailer();
        let cache = crate::viewcache::ViewCache::global();
        let batch =
            crate::batchgen::covariance_batch(&["prize", "inventoryunits"], &["rain", "category"]);
        let cfg = EngineConfig { threads: 1, ..Default::default() };
        let counts = |db: &Database| -> (u64, u64) {
            rels.iter()
                .map(|r| cache.stats_for_id(db.get(r).unwrap().data_id()))
                .fold((0, 0), |(a, b), (h, m)| (a + h, b + m))
        };
        let cold = run_batch(&db, &rels, &batch, &cfg).unwrap();
        let (_, cold_scans) = counts(&db);
        assert!(cold_scans > 0, "cold run materializes views");
        let warm = run_batch(&db, &rels, &batch, &cfg).unwrap();
        let (warm_reuses, warm_scans) = counts(&db);
        assert_eq!(warm_scans, cold_scans, "identical warm batch rescans nothing");
        assert!(warm_reuses > 0, "warm batch served from cache");
        for i in 0..batch.len() {
            assert_eq!(cold.grouped(i), warm.grouped(i), "agg {i}: warm result identical");
        }
        // A batch differing only by a filter on `prize` (owned by Item):
        // some subtrees are residual-served, but the Item path rescans.
        let mut filtered = batch.clone();
        for agg in &mut filtered.aggs {
            agg.filter.push(("prize".to_string(), FilterOp::Ge(0.0)));
        }
        run_batch(&db, &rels, &filtered, &cfg).unwrap();
        let (residual_reuses, residual_scans) = counts(&db);
        assert!(residual_reuses > warm_reuses, "unfiltered subtrees served from cache");
        assert!(residual_scans > cold_scans, "the filtered path rescans");
        // Mutation refreshes data_ids: the next run must reflect the new
        // content, not a stale cached view.
        let row = db.get("Item").unwrap().row_vec(0);
        db.get_mut("Item").unwrap().push_row(&row).unwrap();
        let after = run_batch(&db, &rels, &batch, &cfg).unwrap();
        let expect = crate::backend::FlatEngine
            .run(&db, &crate::ir::AggQuery::new(&rels, batch.clone()))
            .unwrap();
        for i in 0..batch.len() {
            assert_eq!(after.grouped(i).len(), expect.grouped(i).len(), "agg {i}: key count");
            for (k, v) in after.grouped(i) {
                let e = expect.grouped(i).get(k).copied().unwrap_or(f64::NAN);
                assert!(
                    (v - e).abs() <= 1e-6 * (1.0 + e.abs()),
                    "agg {i} key {k:?}: stale cache? {v} vs {e}"
                );
            }
        }
        assert!(after.scalar(0) > cold.scalar(0), "duplicated Item row adds join tuples");
    }

    #[test]
    fn empty_join_yields_zero_scalars() {
        let (mut db, rels) = tiny_retailer();
        let schema = db.get("Item").unwrap().schema().clone();
        db.add("Item", Relation::new(schema));
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count());
        let res = run_batch(&db, &rels, &batch, &EngineConfig::default()).unwrap();
        assert_eq!(res.scalar(0), 0.0);
    }
}
