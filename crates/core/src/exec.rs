//! The shared-scan bottom-up evaluator (LMFAO §4).
//!
//! Views are filled bottom-up over the join tree: all views at a node are
//! computed in **one shared scan** of the node's relation, probing the
//! children's already-computed views by join key. With the
//! "specialisation" toggle on, every node — leaf, inner node or the
//! fact-table root — runs one batch-at-a-time scan: per batch of rows it
//! probes each child lookup once, computes slot values column-wise with
//! typed kernels, and scatters them. Only rows whose child entry holds
//! several groups take a per-row cross product. With the toggle off, a
//! generic per-tuple loop interprets `Value`s instead (the Fig. 6
//! ablation). The multi-threaded paths live in [`crate::parallel`]; this
//! module is the sequential core plus the [`run_batch`] entry point.

use crate::batch::{bucket_code, AggBatch, FilterOp};
use crate::group::{GroupIndex, KeySpace};
use crate::ir::BatchResult;
use crate::parallel::{self, EngineConfig};
use crate::plan::{NodePlan, Plan, ViewData, ViewPlan};
use crate::viewcache::ViewCache;
use fdb_data::{DataError, Database, Relation};
use std::collections::HashMap;
use std::ops::Range;
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
            sigs: plan.subtree_signatures(),
            head_ids: plan.ids.clone(),
            budget: cfg.view_cache_bytes,
        }
    }

    /// The per-node subtree signatures this context keys the cache by.
    pub(crate) fn into_sigs(self) -> Vec<String> {
        self.sigs
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

/// Computes all views of `node` over `rows` of `rel`, probing the
/// children's views in `child_data`. `rel` is the node's relation — the
/// caller holds the database borrow; the plan holds no rows — or, on the
/// delta-maintenance path, a batch of inserted (or deleted) rows shaped
/// like it, which contributes its views exactly as those rows would
/// during a full scan, so the result is the *delta* of the node's views
/// under the update.
pub(crate) fn compute_node(
    plan: &Plan,
    node: usize,
    rel: &Relation,
    child_data: &[Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    rows: Range<usize>,
) -> Vec<ViewData> {
    let np = &plan.nodes[node];
    let mut out: Vec<ViewData> =
        np.views.iter().map(|_| ViewData::new(np.key_space.as_ref())).collect();
    if rows.is_empty() {
        // No row touches a view (a delete-only delta's empty insert side).
        return out;
    }
    let scan = NodeScan::new(plan, node, rel, child_data);
    if cfg.specialize {
        scan.batched(plan, cfg, rows, &mut out);
    } else {
        scan.generic(rows, &mut out);
    }
    out
}

/// Probe outcome of one row against one child lookup.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    /// Exactly one group: the batched case.
    Hit,
    /// No partner: the row contributes nothing to views using the lookup.
    Miss,
    /// Several groups: the cross-product fallback.
    Multi,
}

/// The inputs of one node scan: the node plan, the scanned relation and
/// the children's computed views (aligned with `NodePlan::children`),
/// plus the distinct child lookups the views need.
struct NodeScan<'a> {
    np: &'a NodePlan,
    rel: &'a Relation,
    children: Vec<&'a [ViewData]>,
    /// Distinct `(child position, child view)` lookups across all views:
    /// each is probed once per row and shared by every view needing it.
    lookups: Vec<(usize, usize)>,
    /// Per view, per child position: the lookup it reads.
    view_lookups: Vec<Vec<usize>>,
}

impl<'a> NodeScan<'a> {
    fn new(
        plan: &'a Plan,
        node: usize,
        rel: &'a Relation,
        child_data: &'a [Option<Arc<Vec<ViewData>>>],
    ) -> Self {
        let np = &plan.nodes[node];
        let children = np
            .children
            .iter()
            .map(|&c| child_data[c].as_deref().expect("child computed first").as_slice())
            .collect();
        let mut lookups: Vec<(usize, usize)> = Vec::new();
        let view_lookups = np
            .views
            .iter()
            .map(|vp| {
                vp.child_views
                    .iter()
                    .enumerate()
                    .map(|(cpos, &(cv, _))| {
                        lookups.iter().position(|&l| l == (cpos, cv)).unwrap_or_else(|| {
                            lookups.push((cpos, cv));
                            lookups.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Self { np, rel, children, lookups, view_lookups }
    }

    /// The generic per-tuple loop — the `specialize = false` stage of
    /// Fig. 6. Each row is materialized as `Value`s first (the per-tuple
    /// interpretation LMFAO's code generation removes), each child view is
    /// probed with a freshly built key, and each view takes the
    /// cross-product body.
    fn generic(&self, rows: Range<usize>, out: &mut [ViewData]) {
        let np = self.np;
        let mut cross = Cross::new(np.children.len());
        let mut key: Vec<i64> = Vec::new();
        let mut child_keys: Vec<Vec<i64>> = vec![Vec::new(); np.children.len()];
        let mut fetched: Vec<Option<&'a GroupIndex>> = vec![None; self.lookups.len()];
        let mut entries: Vec<&'a GroupIndex> = Vec::with_capacity(np.children.len());
        for row in rows {
            let tuple = self.rel.row_vec(row);
            key.clear();
            key.extend(np.key_cols.iter().map(|&c| tuple[c].as_int()));
            for (buf, kcols) in child_keys.iter_mut().zip(&np.child_key_cols) {
                buf.clear();
                buf.extend(kcols.iter().map(|&c| tuple[c].as_int()));
            }
            for (f, &(cpos, cv)) in fetched.iter_mut().zip(&self.lookups) {
                let child: &'a [ViewData] = self.children[cpos];
                *f = child[cv].get(&child_keys[cpos]);
            }
            for (vi, vp) in np.views.iter().enumerate() {
                entries.clear();
                entries.extend(self.view_lookups[vi].iter().map_while(|&li| fetched[li]));
                // A missing partner kills the row's contribution to the view.
                if entries.len() == np.children.len() {
                    let (getf, geti) = (|c: usize| tuple[c].as_f64(), |c: usize| tuple[c].as_int());
                    cross.add_row(vp, &entries, &key, getf, geti, &mut out[vi]);
                }
            }
        }
    }

    /// The batched scan — every node's `specialize = true` body (a leaf is
    /// its zero-children case). For each batch of rows:
    ///
    /// 1. **Probe** ([`NodeScan::probe`]): each distinct child lookup once
    ///    per row, into a column of entry references.
    /// 2. **Slot values** ([`slot_values`]): each view's slot-major matrix
    ///    from local factor columns and gathered child columns; filters,
    ///    misses and multi-group rows *select* to `0.0`.
    /// 3. **Scatter** ([`NodeScan::scatter`], see [`ScatterMode`]),
    ///    skipping masked rows. Rows whose child entry holds several groups
    ///    then take the cross-product body, for the views reading that
    ///    entry only.
    ///
    /// Work per call is O(rows + views): nothing walks a child view's
    /// entries.
    fn batched(&self, plan: &Plan, cfg: &EngineConfig, rows: Range<usize>, out: &mut [ViewData]) {
        let np = self.np;
        let cols = Col::all(self.rel);
        let bp = self.batch_plan(plan, &cols);
        let batch_cap = batch_rows(cfg.morsel_rows);
        let mut ents: Vec<Vec<Option<&'a GroupIndex>>> = vec![Vec::new(); self.lookups.len()];
        let mut cross = Cross::new(np.children.len());
        let mut entries: Vec<&'a GroupIndex> = Vec::with_capacity(np.children.len());
        SCAN_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.child_codes.resize_with(np.children.len(), Vec::new);
            s.state.resize_with(self.lookups.len(), Vec::new);
            s.gvals.resize_with(self.lookups.len(), Vec::new);
            s.all_hit.resize(self.lookups.len(), true);
            let mut lo = rows.start;
            while lo < rows.end {
                let hi = (lo + batch_cap).min(rows.end);
                self.probe(&bp, &cols, lo..hi, s, &mut ents);
                for (vi, vp) in np.views.iter().enumerate() {
                    let lks = &self.view_lookups[vi];
                    let masked = s.mask_rows(lks, hi - lo);
                    slot_values(vp, &bp.views[vi], &cols, lo..hi, masked, s);
                    self.scatter(vi, &bp.views[vi], &cols, lo..hi, masked, s, &mut out[vi]);
                    for &r in &s.fallback {
                        let row = lo + r;
                        entries.clear();
                        entries.extend(
                            lks.iter()
                                .map(|&li| ents[li][r].expect("fallback rows hit every child")),
                        );
                        s.key_buf.clear();
                        s.key_buf.extend(np.key_cols.iter().map(|&c| cols[c].get_int(row)));
                        let (getf, geti) =
                            (|c: usize| cols[c].get(row), |c: usize| cols[c].get_int(row));
                        cross.add_row(vp, &entries, &s.key_buf, getf, geti, &mut out[vi]);
                    }
                }
                lo = hi;
            }
        });
    }

    /// The loop-invariant part of a batched scan: per-view scatter modes
    /// and group sources, the deduplicated gathered child-slot columns,
    /// and which children batch-encode.
    fn batch_plan(&self, plan: &'a Plan, cols: &[Col<'_>]) -> BatchPlan<'a> {
        let np = self.np;
        let is_int = |c: usize| matches!(cols[c], Col::I(_));
        let child_view = |li: usize| {
            let (cpos, cv) = self.lookups[li];
            &plan.nodes[np.children[cpos]].views[cv]
        };
        let mut gathers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.lookups.len()];
        let mut col_of: Vec<Vec<usize>> = (0..self.lookups.len())
            .map(|li| vec![usize::MAX; child_view(li).slots.len()])
            .collect();
        let mut ncols = 0;
        let mut views = Vec::with_capacity(np.views.len());
        for (vp, lks) in np.views.iter().zip(&self.view_lookups) {
            debug_assert_eq!(vp.spec.slots, vp.slots.len(), "plan must be finalized");
            let mut slot_cols = Vec::with_capacity(vp.slots.len() * lks.len());
            for slot in &vp.slots {
                for (&li, &cs) in lks.iter().zip(&slot.child_slots) {
                    if col_of[li][cs] == usize::MAX {
                        col_of[li][cs] = ncols;
                        gathers[li].push((ncols, cs));
                        ncols += 1;
                    }
                    slot_cols.push(col_of[li][cs]);
                }
            }
            let mut gsrc = vec![GroupSrc::Local(usize::MAX); vp.group_attrs.len()];
            for &(pos, col) in &vp.local_groups {
                gsrc[pos] = match vp.group_keys[pos].cuts() {
                    None => GroupSrc::Local(col),
                    Some(_) => GroupSrc::Bucket { col, pos },
                };
            }
            for (&li, (_, map)) in lks.iter().zip(&vp.child_views) {
                for &(mypos, pos) in map {
                    gsrc[mypos] = GroupSrc::Child { li, pos };
                }
            }
            let float_group = gsrc.iter().any(|g| matches!(*g, GroupSrc::Local(c) if !is_int(c)));
            let mode = if np.key_cols.is_empty() && vp.group_attrs.is_empty() {
                ScatterMode::Sum
            } else if vp.spec.space.is_none() || float_group {
                ScatterMode::RowWise
            } else if np.key_cols.is_empty() {
                ScatterMode::SingleEntry
            } else if np.key_space.is_some() && np.key_cols.iter().all(|&c| is_int(c)) {
                ScatterMode::Keyed
            } else {
                ScatterMode::RowWise
            };
            views.push(ViewScan { mode, gsrc, slot_cols });
        }
        let child_space: Vec<Option<&'a KeySpace>> = np
            .children
            .iter()
            .zip(&np.child_key_cols)
            .map(|(&c, kcols)| {
                plan.nodes[c].key_space.as_ref().filter(|_| kcols.iter().all(|&k| is_int(k)))
            })
            .collect();
        let by_code = self
            .lookups
            .iter()
            .map(|&(cpos, cv)| {
                child_space[cpos].is_some()
                    && self.children[cpos][cv].key_space() == child_space[cpos]
            })
            .collect();
        let group_arity =
            (0..self.lookups.len()).map(|li| child_view(li).group_attrs.len()).collect();
        BatchPlan { views, gathers, ncols, child_space, by_code, group_arity }
    }

    /// Step 1 of a batch: probes every lookup once per row of `rows` into
    /// `ents` and classifies each row ([`Probe`]).
    /// Dense child key spaces go through one
    /// [`crate::kernel::encode_codes`] pass per child plus the view's slot
    /// table ([`ViewData::get_by_code`]); hash-backed ones take one `get`
    /// per row. A hit's payload values land in the shared gathered columns
    /// (each distinct `(lookup, child slot)` once) and its group key in the
    /// lookup's group columns.
    fn probe(
        &self,
        bp: &BatchPlan<'_>,
        cols: &[Col<'_>],
        rows: Range<usize>,
        s: &mut ScanScratch,
        ents: &mut [Vec<Option<&'a GroupIndex>>],
    ) {
        let np = self.np;
        let n = rows.len();
        for (cpos, space) in bp.child_space.iter().enumerate() {
            if let Some(space) = space {
                let kslices: Vec<&[i64]> =
                    np.child_key_cols[cpos].iter().map(|&c| int_slice(cols, c, &rows)).collect();
                crate::kernel::encode_codes(
                    space,
                    &kslices,
                    n,
                    &mut s.child_codes[cpos],
                    &mut s.oob,
                );
            }
        }
        s.gathered.clear();
        s.gathered.resize(bp.ncols * n, 0.0);
        for (li, &(cpos, cv)) in self.lookups.iter().enumerate() {
            let child: &'a [ViewData] = self.children[cpos];
            let view = &child[cv];
            let e = &mut ents[li];
            e.clear();
            if bp.by_code[li] {
                e.extend(s.child_codes[cpos].iter().map(|&code| view.get_by_code(code)));
            } else {
                for row in rows.clone() {
                    s.key_buf.clear();
                    s.key_buf.extend(np.child_key_cols[cpos].iter().map(|&c| cols[c].get_int(row)));
                    e.push(view.get(&s.key_buf));
                }
            }
            let state = &mut s.state[li];
            state.clear();
            state.resize(n, Probe::Hit);
            let gv = &mut s.gvals[li];
            gv.clear();
            gv.resize(bp.group_arity[li] * n, 0);
            s.all_hit[li] = true;
            for (r, m) in e.iter().enumerate() {
                match m.and_then(|gi| gi.only(&mut s.gkey_buf)) {
                    Some(pay) => {
                        for &(k, cs) in &bp.gathers[li] {
                            s.gathered[k * n + r] = pay[cs];
                        }
                        for (g, &x) in s.gkey_buf.iter().enumerate() {
                            gv[g * n + r] = x;
                        }
                    }
                    None => {
                        let several = m.is_some_and(|gi| !gi.is_empty());
                        state[r] = if several { Probe::Multi } else { Probe::Miss };
                        s.all_hit[li] = false;
                    }
                }
            }
        }
    }

    /// Step 3 of a batch: adds view `vi`'s slot matrix into its
    /// accumulator, skipping the rows `masked` excludes.
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        &self,
        vi: usize,
        vs: &ViewScan,
        cols: &[Col<'_>],
        rows: Range<usize>,
        masked: bool,
        s: &mut ScanScratch,
        out: &mut ViewData,
    ) {
        let (np, vp) = (self.np, &self.np.views[vi]);
        let (lo, n) = (rows.start, rows.len());
        let valid = masked.then_some(&s.valid[..]);
        let keep = |r: usize| valid.is_none_or(|v| v[r]);
        match vs.mode {
            ScatterMode::Sum => {
                let payload = out.entry_mut(&[], &vp.spec).payload_mut(&[]);
                for (si, acc) in payload.iter_mut().enumerate() {
                    *acc += crate::kernel::sum(&s.slot_vals[si * n..(si + 1) * n]);
                }
            }
            ScatterMode::SingleEntry => {
                if !(0..n).any(keep) {
                    return;
                }
                let gspace = vp.spec.space.as_ref().expect("mode requires dense groups");
                bucket_columns(vp, &vs.gsrc, cols, &rows, &mut s.bcodes);
                let gslices = group_slices(&vs.gsrc, cols, &s.gvals, &s.bcodes, &rows);
                crate::kernel::encode_codes(gspace, &gslices, n, &mut s.gcodes, &mut s.oob);
                mask_codes(&mut s.gcodes, valid);
                out.entry_mut(&[], &vp.spec).add_codes_multi(&s.gcodes, &s.slot_vals);
            }
            ScatterMode::Keyed => {
                let kspace = np.key_space.as_ref().expect("mode requires dense keys");
                let kslices: Vec<&[i64]> =
                    np.key_cols.iter().map(|&c| int_slice(cols, c, &rows)).collect();
                crate::kernel::encode_codes(kspace, &kslices, n, &mut s.key_codes, &mut s.oob);
                let gspace = vp.spec.space.as_ref().expect("mode requires dense groups");
                bucket_columns(vp, &vs.gsrc, cols, &rows, &mut s.bcodes);
                let gslices = group_slices(&vs.gsrc, cols, &s.gvals, &s.bcodes, &rows);
                crate::kernel::encode_codes(gspace, &gslices, n, &mut s.gcodes, &mut s.oob);
                // Out-of-range codes cannot slip through: the slot table
                // index and `add_payload_row` bound-check them.
                for r in (0..n).filter(|&r| keep(r)) {
                    out.entry_mut_by_code(s.key_codes[r], &vp.spec).add_payload_row(
                        s.gcodes[r],
                        &s.slot_vals,
                        r,
                        n,
                    );
                }
            }
            ScatterMode::RowWise => {
                for r in (0..n).filter(|&r| keep(r)) {
                    let row = lo + r;
                    s.key_buf.clear();
                    s.key_buf.extend(np.key_cols.iter().map(|&c| cols[c].get_int(row)));
                    s.gkey_buf.clear();
                    s.gkey_buf.extend(vs.gsrc.iter().map(|g| match *g {
                        GroupSrc::Local(c) => cols[c].get_int(row),
                        GroupSrc::Bucket { col, pos } => {
                            vp.group_keys[pos].code(cols[col].get(row), cols[col].get_int(row))
                        }
                        GroupSrc::Child { li, pos } => s.gvals[li][pos * n + r],
                    }));
                    let payload = out.entry_mut(&s.key_buf, &vp.spec).payload_mut(&s.gkey_buf);
                    for (si, x) in payload.iter_mut().enumerate() {
                        *x += s.slot_vals[si * n + r];
                    }
                }
            }
        }
    }
}

/// Step 2 of a batch: fills `s.slot_vals` (slot-major, `nslots × rows`)
/// for one view. Each slot multiplies its local factor columns
/// ([`crate::kernel::mul_by`]) and its gathered child columns, in the
/// row-wise body's order; filters and — when `masked` — misses and
/// multi-group rows then *select* to `0.0` ([`crate::kernel::mask_by`]),
/// so such a row contributes exactly zero even when a factor is NaN or
/// infinite.
fn slot_values(
    vp: &ViewPlan,
    vs: &ViewScan,
    cols: &[Col<'_>],
    rows: Range<usize>,
    masked: bool,
    s: &mut ScanScratch,
) {
    let (lo, hi, n) = (rows.start, rows.end, rows.len());
    s.slot_vals.clear();
    s.slot_vals.resize(vp.slots.len() * n, 1.0);
    let nchildren = vp.child_views.len();
    for (si, (slot, sv)) in vp.slots.iter().zip(s.slot_vals.chunks_exact_mut(n)).enumerate() {
        let mut child_cols = &vs.slot_cols[si * nchildren..(si + 1) * nchildren];
        if slot.factors.is_empty() {
            if let Some((&k, rest)) = child_cols.split_first() {
                sv.copy_from_slice(&s.gathered[k * n..(k + 1) * n]);
                child_cols = rest;
            }
        }
        for &(c, f) in &slot.factors {
            match &cols[c] {
                Col::F(v) => crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x)),
                Col::I(v) => crate::kernel::mul_by(sv, &v[lo..hi], |x| f.apply(x as f64)),
            }
        }
        for &k in child_cols {
            crate::kernel::mul_by(sv, &s.gathered[k * n..(k + 1) * n], |x| x);
        }
        for (c, op) in &slot.filter {
            match &cols[*c] {
                Col::F(v) => {
                    crate::kernel::mask_by(sv, &v[lo..hi], |x| filter_pass(op, x, x as i64))
                }
                Col::I(v) => {
                    crate::kernel::mask_by(sv, &v[lo..hi], |x| filter_pass(op, x as f64, x))
                }
            }
        }
        if masked {
            crate::kernel::mask_by(sv, &s.valid, |keep| keep);
        }
    }
}

/// Rows per batch of the batched scan: `morsel_rows`, capped at the
/// default morsel and trimmed to an odd multiple of 8. Slot-major stripes
/// lie `n` values apart, so a power-of-two `n` maps every slot of a row to
/// the same cache sets and the scatter thrashes them; an odd multiple of 8
/// spreads the stripes over all sets.
fn batch_rows(morsel_rows: usize) -> usize {
    match morsel_rows.clamp(1, crate::morsel::DEFAULT_MORSEL_ROWS) {
        c if c >= 24 => (c - 8) / 16 * 16 + 8,
        c => c,
    }
}

/// The loop-invariant plan of one batched scan ([`NodeScan::batch_plan`]).
struct BatchPlan<'p> {
    views: Vec<ViewScan>,
    /// Per lookup: `(gathered column, child slot)` for every child slot
    /// some view multiplies in.
    gathers: Vec<Vec<(usize, usize)>>,
    /// Number of gathered columns.
    ncols: usize,
    /// Per child: its key space, when its keys batch-encode here (dense
    /// space, integer-backed key columns).
    child_space: Vec<Option<&'p KeySpace>>,
    /// Per lookup: resolve entries by code (dense view over `child_space`).
    by_code: Vec<bool>,
    /// Per lookup: the child view's group-key arity.
    group_arity: Vec<usize>,
}

/// The integer column `c` over `rows`.
fn int_slice<'c>(cols: &[Col<'c>], c: usize, rows: &Range<usize>) -> &'c [i64] {
    match cols[c] {
        Col::I(v) => &v[rows.clone()],
        Col::F(_) => unreachable!("batched key and group columns are integer-backed"),
    }
}

/// Where one position of a view's group key comes from.
#[derive(Clone, Copy)]
enum GroupSrc {
    /// A column of the scanned relation.
    Local(usize),
    /// The bucket code of column `col` of the scanned relation, under the
    /// cuts of the view's group key at position `pos`.
    Bucket { col: usize, pos: usize },
    /// Position `pos` of the group key of lookup `li`'s single entry.
    Child { li: usize, pos: usize },
}

/// How one view's batch scatters into its accumulators — decided once per
/// scan (loop-invariant across batches).
enum ScatterMode {
    /// Scalar view (no join key, no group-by): one deterministic slice sum
    /// per slot and batch, added to the view's single payload.
    Sum,
    /// No join key: one view entry, so the whole batch is one
    /// [`crate::kernel::encode_codes`] pass plus one
    /// [`GroupIndex::add_codes_multi`] scatter — the same two calls the
    /// flat engine makes.
    SingleEntry,
    /// Dense join-key *and* group spaces: both key levels batch-encode and
    /// each row resolves its entry by code ([`ViewData::entry_mut_by_code`])
    /// then adds its whole payload row ([`GroupIndex::add_payload_row`]).
    Keyed,
    /// Per-row `entry_mut` + `payload_mut` — the fallback for hash-backed
    /// views or float-typed key/group columns.
    RowWise,
}

/// The loop-invariant scan plan of one view.
struct ViewScan {
    mode: ScatterMode,
    /// Per group-key position: its source.
    gsrc: Vec<GroupSrc>,
    /// Per slot, per child position (slot-major): the gathered column it
    /// multiplies in.
    slot_cols: Vec<usize>,
}

/// Codes every bucket position of `gsrc` over `rows` into the scratch
/// column `bcodes[pos]`, so bucket keys encode with the categorical ones.
fn bucket_columns(
    vp: &ViewPlan,
    gsrc: &[GroupSrc],
    cols: &[Col<'_>],
    rows: &Range<usize>,
    bcodes: &mut Vec<Vec<i64>>,
) {
    for g in gsrc {
        if let GroupSrc::Bucket { col, pos } = *g {
            if bcodes.len() <= pos {
                bcodes.resize_with(pos + 1, Vec::new);
            }
            let cuts = vp.group_keys[pos].cuts().expect("bucket position");
            let out = &mut bcodes[pos];
            out.clear();
            match &cols[col] {
                Col::F(v) => out.extend(v[rows.clone()].iter().map(|&x| bucket_code(cuts, x))),
                Col::I(v) => {
                    out.extend(v[rows.clone()].iter().map(|&x| bucket_code(cuts, x as f64)))
                }
            }
        }
    }
}

/// The group-key columns of one batch, per position of `gsrc`.
fn group_slices<'s>(
    gsrc: &[GroupSrc],
    cols: &[Col<'s>],
    gvals: &'s [Vec<i64>],
    bcodes: &'s [Vec<i64>],
    rows: &Range<usize>,
) -> Vec<&'s [i64]> {
    let n = rows.len();
    gsrc.iter()
        .map(|g| match *g {
            GroupSrc::Local(c) => int_slice(cols, c, rows),
            GroupSrc::Bucket { pos, .. } => &bcodes[pos][..n],
            GroupSrc::Child { li, pos } => &gvals[li][pos * n..(pos + 1) * n],
        })
        .collect()
}

/// Marks rows outside `valid` with [`crate::kernel::OOB_CODE`], so
/// [`GroupIndex::add_codes_multi`] skips them without touching a group.
/// Valid rows were encoded from columns their spaces were sized from, so
/// none is out of range.
fn mask_codes(codes: &mut [u64], valid: Option<&[bool]>) {
    match valid {
        Some(valid) => {
            for (c, &v) in codes.iter_mut().zip(valid) {
                if !v {
                    *c = crate::kernel::OOB_CODE;
                } else {
                    debug_assert_ne!(*c, crate::kernel::OOB_CODE, "valid row out of range");
                }
            }
        }
        None => debug_assert!(codes.iter().all(|&c| c != crate::kernel::OOB_CODE)),
    }
}

/// Per-worker scratch arena of the batched scan: gathered child columns,
/// slot values, probe states, group columns and code buffers.
/// Thread-local, so morsel workers stop allocating per (node, morsel) call
/// after their first — the buffers warm up to the working sizes and stay.
#[derive(Default)]
struct ScanScratch {
    slot_vals: Vec<f64>,
    gathered: Vec<f64>,
    child_codes: Vec<Vec<u64>>,
    state: Vec<Vec<Probe>>,
    gvals: Vec<Vec<i64>>,
    /// Per group-key position of the view being scattered: its bucket
    /// codes ([`bucket_columns`]).
    bcodes: Vec<Vec<i64>>,
    /// Per lookup: every row of the batch hit a single group.
    all_hit: Vec<bool>,
    valid: Vec<bool>,
    fallback: Vec<usize>,
    key_codes: Vec<u64>,
    gcodes: Vec<u64>,
    oob: Vec<u64>,
    key_buf: Vec<i64>,
    gkey_buf: Vec<i64>,
}

impl ScanScratch {
    /// Fills `valid` (every lookup of the view hit one group) and
    /// `fallback` (no miss, some multi-group entry) for a view reading
    /// `lookups`; returns whether any row of the `n`-row batch is masked.
    fn mask_rows(&mut self, lookups: &[usize], n: usize) -> bool {
        self.fallback.clear();
        if lookups.iter().all(|&li| self.all_hit[li]) {
            return false;
        }
        self.valid.clear();
        for r in 0..n {
            let (mut hit, mut miss) = (true, false);
            for &li in lookups {
                let st = self.state[li][r];
                hit &= st == Probe::Hit;
                miss |= st == Probe::Miss;
            }
            self.valid.push(hit);
            if !hit && !miss {
                self.fallback.push(r);
            }
        }
        true
    }
}

thread_local! {
    static SCAN_SCRATCH: std::cell::RefCell<ScanScratch> = std::cell::RefCell::default();
}

/// The cross-product body: one row's contribution to one view when child
/// entries may hold several groups each — every combination of child
/// groups adds its slot products under the combined group key. Reused
/// buffers keep it allocation-free after warm-up.
struct Cross<'a> {
    /// Per child: the flattened group keys of its entry, at stride
    /// `arity`.
    keys: Vec<Vec<i64>>,
    arity: Vec<usize>,
    /// Per child: the payloads of its entry's groups.
    pays: Vec<Vec<&'a [f64]>>,
    /// The current combination.
    idx: Vec<usize>,
    gkey: Vec<i64>,
}

impl<'a> Cross<'a> {
    fn new(nchildren: usize) -> Self {
        Self {
            keys: vec![Vec::new(); nchildren],
            arity: vec![0; nchildren],
            pays: vec![Vec::new(); nchildren],
            idx: vec![0; nchildren],
            gkey: Vec::new(),
        }
    }

    /// Adds the row read through `getf`/`geti`, under join key `key`, to
    /// view `out` (planned by `vp`), given its child entries.
    fn add_row(
        &mut self,
        vp: &ViewPlan,
        entries: &[&'a GroupIndex],
        key: &[i64],
        getf: impl Fn(usize) -> f64,
        geti: impl Fn(usize) -> i64,
        out: &mut ViewData,
    ) {
        let nchildren = entries.len();
        for (cpos, m) in entries.iter().enumerate() {
            self.arity[cpos] = m.flatten_pairs(&mut self.keys[cpos], &mut self.pays[cpos]);
            self.idx[cpos] = 0;
            if self.pays[cpos].is_empty() {
                return;
            }
        }
        loop {
            self.gkey.clear();
            self.gkey.resize(vp.group_attrs.len(), 0);
            for &(pos, col) in &vp.local_groups {
                self.gkey[pos] = match vp.group_keys[pos].cuts() {
                    None => geti(col),
                    Some(cuts) => bucket_code(cuts, getf(col)),
                };
            }
            for cpos in 0..nchildren {
                let (stride, i) = (self.arity[cpos], self.idx[cpos]);
                let gvals = &self.keys[cpos][i * stride..(i + 1) * stride];
                for &(mypos, pos) in &vp.child_views[cpos].1 {
                    self.gkey[mypos] = gvals[pos];
                }
            }
            let payload = out.entry_mut(key, &vp.spec).payload_mut(&self.gkey);
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
                for cpos in 0..nchildren {
                    v *= self.pays[cpos][self.idx[cpos]][slot.child_slots[cpos]];
                }
                payload[si] += v;
            }
            // Advance the multi-index; done once every digit wrapped.
            let mut d = 0;
            while d < nchildren {
                self.idx[d] += 1;
                if self.idx[d] < self.pays[d].len() {
                    break;
                }
                self.idx[d] = 0;
                d += 1;
            }
            if d == nchildren {
                return;
            }
        }
    }
}

/// Computes all nodes of `order` sequentially (bottom-up) over their
/// relations `rels` (in node order), offering each computed node to the
/// view cache.
pub(crate) fn compute_subtree(
    plan: &Plan,
    rels: &[&Relation],
    order: &[usize],
    data: &mut [Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    ctx: Option<&CacheCtx<'_>>,
) {
    for &n in order {
        let views = Arc::new(compute_node(plan, n, rels[n], data, cfg, 0..rels[n].len()));
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
    let rels = crate::plan::relations(db, relations)?;
    plan.finalize(&rels, cfg.dense_limit);
    let plan = plan; // freeze
    let ctx = (cfg.view_cache_bytes > 0).then(|| CacheCtx::new(ViewCache::global(), &plan, cfg));
    let mut data: Vec<Option<Arc<Vec<ViewData>>>> = vec![None; rels.len()];

    // Serve warm subtrees top-down: a node whose subtree signature hits
    // needs nothing below it (its views already fold the whole subtree
    // in), so the walk only descends into missed nodes. What's left to
    // compute is exactly the nodes on the path from some changed relation
    // or filter to the root — the residual of the batch against the cache.
    let mut need = vec![false; rels.len()];
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
        parallel::compute_subtrees_parallel(
            &plan,
            &rels,
            &to_compute,
            &mut data,
            cfg,
            ctx.as_ref(),
        )?;
    } else {
        compute_subtree(&plan, &rels, &to_compute, &mut data, cfg, ctx.as_ref());
    }

    // Root: domain parallelism over morsel-sized row chunks. The root's
    // cache key carries the chunk count, since chunk-merge order affects
    // float rounding; `morsel_count` is deterministic in (rows, config),
    // so warm runs key identically.
    let root_rows = rels[root].len();
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
                parallel::compute_root_chunked(&plan, rels[root], &data, cfg)?
            } else {
                compute_node(&plan, root, rels[root], &data, cfg, 0..root_rows)
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
