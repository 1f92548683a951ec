//! The delta layer: one-shot evaluation as a special case of incremental
//! view maintenance (F-IVM, §3.1; Kara et al., "Machine Learning over
//! Static and Dynamic Relational Data").
//!
//! [`MaintainableEngine`] extends [`Engine`] with a prepared-state
//! protocol: [`prepare`](MaintainableEngine::prepare) pays the one-shot
//! cost once and returns a [`MaintState`];
//! [`apply_delta`](MaintainableEngine::apply_delta) folds a
//! [`Delta`](fdb_data::Delta) — per-relation insert/delete row batches
//! with signed multiplicities — into that state and returns the updated
//! [`BatchResult`] as a shared `Arc`. [`MaintState::changed`] names the
//! `(aggregate, group key)` entries that delta rewrote, so a consumer
//! holding statistics derived from the previous answer patches those
//! entries instead of re-reading every map.
//!
//! A state carries its own maintenance. Its maintained structure is a
//! [`CustomMaint`] trait object that the engine's `prepare` built; a state
//! without one recomputes every delta via [`Engine::run`], which makes
//! **every** backend trivially maintainable. Two engines build one:
//!
//! * **[`LmfaoEngine`]** — true incremental maintenance over the layered
//!   view tree. `prepare` materializes every node's views (serving and
//!   warming the cross-batch [`ViewCache`]); `apply_delta` computes the
//!   *delta views* of the updated relation from the delta rows alone
//!   (deletes are inserts scaled by `−1` — the ring's additive inverse)
//!   and propagates them along the **owner→root path**: at each ancestor
//!   only the rows joining a changed key contribute, probed against the
//!   delta views of the child and the *unchanged* current views of every
//!   off-path sibling. Nothing below the path is ever rescanned. The
//!   maintained views are re-admitted to the [`ViewCache`] under their
//!   post-delta content signatures, counted as
//!   [`views_maintained`](crate::ViewCacheStats::views_maintained) —
//!   maintain-in-place instead of the cache's default
//!   invalidate-and-rescan. The held answer is patched, not re-extracted:
//!   only the group keys ΔV_root holds are re-read from the merged root
//!   views. Non-additive cases (an insert outside the prepare-time dense
//!   code ranges, an emptied relation) fall back to full recomputation.
//! * `FivmEngine` (in `fdb-ivm`) — the covariance-ring view tree
//!   maintains the whole triple in `O(delta)`.
//!
//! [`DispatchEngine`](crate::DispatchEngine) builds nothing of its own:
//! its `prepare` returns the chosen backend's state.
//!
//! The contract, held by `tests/delta_agree.rs` on every engine:
//! `apply_delta` over any insert/delete sequence agrees with a cold
//! [`Engine::run`] over the equivalently mutated database.
//!
//! **Cost model.** A [`MaintState`] owns one maintained [`Database`] copy
//! (cheap at prepare — relations are `Arc`-shared until mutated) and
//! applies each delta to it once: `O(delta)` for inserts, the multiset's
//! `O(rows)` match-and-rebuild for deletes. The maintained structures
//! hold no relation between deltas (LMFAO's plan keeps per-node content
//! ids only; every row it needs is read from the database it is
//! handed), so after its first mutation a relation has one holder and an
//! insert appends in place instead of copying the table. On top of the
//! commit, an LMFAO delta costs its delta views, the merge along the
//! owner→root path, the path's signatures and cache admission (only
//! with the view cache on), and — for a non-root owner — one typed scan
//! of each ancestor's key columns for the rows joining a changed key.
//! The answer costs `O(|ΔV_root|)`: the held `Arc<BatchResult>` is
//! patched in place through `Arc::make_mut` at the keys ΔV_root holds,
//! and rebuilt from every root view only at build and refresh. While a
//! reader still pins the previous answer (a published serving epoch),
//! `make_mut` first copies it once.

use crate::backend::{Engine, FactorizedEngine, FlatEngine, LmfaoEngine};
use crate::exec::{compute_node, CacheCtx, Col};
use crate::ir::{AggQuery, BatchResult};
use crate::parallel::{merge_view_data, EngineConfig};
use crate::plan::{Plan, ViewData};
use crate::viewcache::ViewCache;
use fdb_data::{fault, DataError, Database, Delta, Relation, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// The `(aggregate index, group key)` entries of a [`BatchResult`] one
/// delta rewrote: each now holds the post-delta value, or is absent when
/// that value is exactly `0.0`.
pub type Changed = [(usize, Box<[i64]>)];

/// Prepared maintenance state: the maintained database copy, the query,
/// and the engine's maintained structure, if it has one.
///
/// The state owns its database — deltas mutate the copy, so the caller's
/// database stays a snapshot of prepare time (hand the same deltas to
/// [`Database::apply_delta`] to keep an external copy in step; the
/// property tests do exactly that to cross-check against cold runs).
pub struct MaintState {
    db: Database,
    q: AggQuery,
    /// `None`: every delta recomputes via [`Engine::run`].
    maint: Option<Box<dyn CustomMaint>>,
}

/// A maintained structure an engine's `prepare` builds into a
/// [`MaintState`]: LMFAO's view tree here, F-IVM's covariance view tree
/// in `fdb-ivm`. `db` is the maintained database *after* the delta was
/// applied.
pub trait CustomMaint: Send {
    /// Folds `delta` into the maintained structure and returns the
    /// updated batch result.
    fn apply_delta(
        &mut self,
        db: &Database,
        q: &AggQuery,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError>;

    /// The current maintained batch result, without applying anything.
    fn eval(&self, db: &Database, q: &AggQuery) -> Result<Arc<BatchResult>, DataError>;

    /// The entries the last successful [`CustomMaint::apply_delta`]
    /// rewrote; `None` when the result was replaced wholesale since (the
    /// default: a structure that does not track its changes).
    fn changed(&self) -> Option<&Changed> {
        None
    }

    /// The result a full re-extraction of the maintained structure gives
    /// — what the patched answer is held to bit for bit.
    #[cfg(test)]
    fn extracted(&self) -> Option<BatchResult> {
        None
    }
}

impl MaintState {
    /// A recompute-on-every-delta state — what the default
    /// [`MaintainableEngine`] implementation returns.
    pub fn recompute(db: Database, q: AggQuery) -> Self {
        Self { db, q, maint: None }
    }

    /// A state around an engine-specific [`CustomMaint`] structure.
    pub fn custom(db: Database, q: AggQuery, maint: Box<dyn CustomMaint>) -> Self {
        Self { db, q, maint: Some(maint) }
    }

    /// The maintained database (reflects every applied delta).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The prepared query.
    pub fn query(&self) -> &AggQuery {
        &self.q
    }

    /// The maintained epoch ([`Database::epoch`] of the maintained copy):
    /// one bump per delta this state has committed since prepare, exact
    /// rollback on failure.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// True when this state carries no maintained structure and every
    /// delta recomputes via [`Engine::run`](crate::Engine::run): the
    /// engine has no incremental path for the query, or the wrapper's
    /// re-prepare after a failed delta failed too.
    pub fn is_recompute(&self) -> bool {
        self.maint.is_none()
    }

    /// The `(aggregate, group key)` entries the last successful delta
    /// rewrote in the answer; every other entry equals the answer before
    /// that delta. `None` when the answer was replaced wholesale instead:
    /// after prepare, a rebuild (LMFAO's refresh fallback, the rollback
    /// after a failed delta), on a recompute state, and for structures
    /// that do not track changes (F-IVM). A delta that fails validation
    /// leaves both the answer and this list as they were.
    pub fn changed(&self) -> Option<&Changed> {
        self.maint.as_ref()?.changed()
    }
}

/// An [`Engine`] that can maintain prepared query state under deltas.
///
/// The provided methods maintain through the state's [`CustomMaint`]
/// structure, or recompute via [`Engine::run`] when it has none, so an
/// engine with genuine incremental maintenance overrides only
/// [`prepare`](MaintainableEngine::prepare) to build that structure.
///
/// **Transactionality.** [`apply_delta`](MaintainableEngine::apply_delta)
/// is a provided validate-then-commit wrapper and must not be
/// overridden; an engine that intercepts maintenance (the test doubles
/// that fail it on purpose) overrides
/// [`apply_delta_kind`](MaintainableEngine::apply_delta_kind) instead.
/// The wrapper applies the delta to the maintained database with an undo
/// token, runs the engine-specific maintenance under panic containment,
/// and on **any** failure — validation error, internal error, injected
/// fault, worker panic — restores the pre-delta epoch exactly: database
/// content and `data_id`s roll back, views the failing maintenance
/// admitted to the [`ViewCache`] under rolled-back content ids are
/// invalidated, and the maintained structure is rebuilt from the
/// restored database (degrading to recompute-per-delta if even the
/// rebuild fails or panics). Callers see `Err` and a state equivalent to the last
/// good epoch — never a half-applied one.
pub trait MaintainableEngine: Engine {
    /// Pays the one-shot evaluation cost and returns the maintained state.
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        q.validate(db)?;
        Ok(MaintState::recompute(db.clone(), q.clone()))
    }

    /// Folds `delta` into the state and returns the updated result,
    /// atomically: on `Err` the state is rolled back to the pre-delta
    /// epoch (see the trait docs). Do not override — engine-specific
    /// maintenance belongs in
    /// [`apply_delta_kind`](MaintainableEngine::apply_delta_kind).
    fn apply_delta(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        let undo = st.db.apply_delta_undoable(delta)?;
        let result = crate::morsel::contain(|| self.apply_delta_kind(st, delta)).and_then(|r| r);
        match result {
            Ok(r) => Ok(r),
            Err(e) => {
                // Capture the post-delta content id before the rollback
                // erases it: views the failed maintenance admitted under
                // it can never be served again and are dropped eagerly.
                let post_id = st.db.get(&delta.relation).map(Relation::data_id).ok();
                st.db.undo_delta(undo)?;
                if let Some(id) = post_id {
                    ViewCache::global().invalidate_id(id);
                }
                // The maintained structure may be half-updated (an
                // interrupted owner→root walk): rebuild it from the
                // restored database. Rare — genuine (non-injected)
                // maintenance failures past the database commit are
                // exceptional — so the O(data) rebuild is the error
                // path's price, not the hot path's. The rebuild is
                // contained like the maintenance it replaces: a panicking
                // `prepare` degrades to recompute instead of unwinding
                // into the caller (a serving writer thread included).
                match crate::morsel::contain(|| self.prepare(&st.db, &st.q)) {
                    Ok(Ok(fresh)) => *st = fresh,
                    _ => st.maint = None,
                }
                Err(e)
            }
        }
    }

    /// Engine-specific maintenance: `st.db` already reflects `delta`;
    /// fold it into the maintained structure and return the updated
    /// result. Implementations may leave the structure half-updated on
    /// `Err` or panic — the [`apply_delta`](MaintainableEngine::apply_delta)
    /// wrapper contains and recovers.
    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        match &mut st.maint {
            Some(m) => m.apply_delta(&st.db, &st.q, delta),
            None => self.run(&st.db, &st.q).map(Arc::new),
        }
    }

    /// The current maintained result, without applying a delta.
    fn eval(&self, st: &MaintState) -> Result<Arc<BatchResult>, DataError> {
        match &st.maint {
            Some(m) => m.eval(&st.db, &st.q),
            None => self.run(&st.db, &st.q).map(Arc::new),
        }
    }
}

/// Boxed engines forward, so heterogeneous panels (tests, benches, the
/// serving harness) can hand a `Box<dyn MaintainableEngine + Send + Sync>`
/// to anything expecting a concrete engine — notably
/// [`ServingEngine`](crate::serve::ServingEngine). The provided
/// [`apply_delta`](MaintainableEngine::apply_delta) wrapper is inherited
/// (not forwarded): it applies the delta once and dispatches the
/// engine-specific part through the boxed
/// [`apply_delta_kind`](MaintainableEngine::apply_delta_kind).
impl Engine for Box<dyn MaintainableEngine + Send + Sync> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        (**self).run(db, q)
    }
}

impl MaintainableEngine for Box<dyn MaintainableEngine + Send + Sync> {
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        (**self).prepare(db, q)
    }

    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        (**self).apply_delta_kind(st, delta)
    }

    fn eval(&self, st: &MaintState) -> Result<Arc<BatchResult>, DataError> {
        (**self).eval(st)
    }
}

/// Flat baseline: maintainable by recomputation (the default impls).
impl MaintainableEngine for FlatEngine {}

/// Factorized backend: maintainable by recomputation; its sort caches
/// still make the re-run cheap when dimension tables are unchanged.
impl MaintainableEngine for FactorizedEngine {}

// ---------------------------------------------------------------------------
// LMFAO: incremental maintenance of the layered view tree
// ---------------------------------------------------------------------------

/// The LMFAO maintained structure: the prepare-time plan (per-node
/// content ids, no relation — every row a delta needs is read from the
/// maintained database it is handed), per-node materialized views, and
/// the answer read out of the root views, kept current by patching.
struct LmfaoMaint {
    /// The toggles of the engine that prepared it.
    cfg: EngineConfig,
    plan: Plan,
    /// Per aggregate: its `(view, slot)` at the root.
    agg_slots: Vec<(usize, usize)>,
    /// Parent node per node (`None` at the root).
    parents: Vec<Option<usize>>,
    /// Prepare-time `(min, max)` per node per column — the delta-fit
    /// check: inserts outside these ranges could fall outside the dense
    /// code spaces the maintained views were built with, so they trigger
    /// the recompute fallback instead.
    ranges: Vec<Vec<Option<(i64, i64)>>>,
    /// Maintained views per node (bottom-up complete, root included).
    data: Vec<Arc<Vec<ViewData>>>,
    /// Per-node subtree signatures, kept current while the view cache is
    /// on (empty when it is off — nothing reads them then): a delta
    /// refreshes only the owner→root path's entries (off-path subtrees
    /// exclude the mutated relation, so their signatures cannot change).
    sigs: Vec<String>,
    /// The answer: extracted in full at build, patched per delta.
    result: Arc<BatchResult>,
    /// The entries the last delta rewrote (`None` after a build).
    changed: Option<Vec<(usize, Box<[i64]>)>>,
}

/// Builds the complete maintained structure from `db`, serving warm
/// subtrees from (and admitting cold ones to) the global [`ViewCache`].
/// `root` pins the join-tree root across refreshes. The relations are
/// borrowed for the build only: the result holds none of them.
fn lmfao_build(
    cfg: &EngineConfig,
    db: &Database,
    q: &AggQuery,
    root: Option<usize>,
) -> Result<LmfaoMaint, DataError> {
    let names = q.relation_refs();
    let rels = crate::plan::relations(db, &names)?;
    let mut plan = Plan::build_at(db, &names, root)?;
    let root = plan.root;
    let mut agg_slots = Vec::with_capacity(q.batch.len());
    for (i, agg) in q.batch.aggs.iter().enumerate() {
        agg_slots.push(plan.decompose(agg, i, root, cfg.share)?);
    }
    plan.finalize(&rels, cfg.dense_limit);
    let plan = plan; // freeze
    let groups: Vec<Vec<String>> =
        agg_slots.iter().map(|&(vi, _)| plan.nodes[root].views[vi].group_attrs.clone()).collect();
    let mut parents = vec![None; plan.nodes.len()];
    for (i, np) in plan.nodes.iter().enumerate() {
        for &c in &np.children {
            parents[c] = Some(i);
        }
    }
    let ranges: Vec<Vec<Option<(i64, i64)>>> =
        rels.iter().map(|r| (0..r.schema().arity()).map(|c| r.int_min_max(c)).collect()).collect();
    // Materialize every node bottom-up — the state must hold *all* views
    // (a later delta below any node probes its siblings), unlike
    // `run_batch`, which skips whole warm subtrees.
    let ctx = (cfg.view_cache_bytes > 0).then(|| CacheCtx::new(ViewCache::global(), &plan, cfg));
    let mut slots: Vec<Option<Arc<Vec<ViewData>>>> = vec![None; plan.nodes.len()];
    for &n in &plan.order {
        // A cache hit is only adoptable if its views use the exact
        // representations this plan derived: unlike `run_batch` (which
        // only probes served views), the maintenance path later *merges
        // delta views into* them, and `ViewData::merge_from` requires
        // matching outer spaces. Views admitted by an earlier maintained
        // state can carry that state's prepare-time spaces. The predicate
        // runs inside the lookup, so a rejected entry is counted as a
        // miss — never as reuse the recompute below then contradicts.
        let adoptable = |views: &[ViewData]| {
            let np = &plan.nodes[n];
            views.len() == np.views.len()
                && np
                    .views
                    .iter()
                    .zip(views.iter())
                    .all(|(vp, vd)| vd.compatible(np.key_space.as_ref(), &vp.spec))
        };
        let served = ctx.as_ref().and_then(|c| c.serve_filtered(n, n == root, adoptable));
        let views = match served {
            Some(hit) => hit,
            None => {
                let v = Arc::new(compute_node(&plan, n, rels[n], &slots, cfg, 0..rels[n].len()));
                if let Some(c) = &ctx {
                    if n == root {
                        c.admit_root(root, 1, &v);
                    } else {
                        c.admit(n, &v);
                    }
                }
                v
            }
        };
        slots[n] = Some(views);
    }
    let data: Vec<Arc<Vec<ViewData>>> =
        slots.into_iter().map(|s| s.expect("order covers every node")).collect();
    let sigs = ctx.map(CacheCtx::into_sigs).unwrap_or_default();
    let result = Arc::new(lmfao_extract(&data[root], &agg_slots, &groups));
    Ok(LmfaoMaint {
        cfg: *cfg,
        plan,
        agg_slots,
        parents,
        ranges,
        data,
        sigs,
        result,
        changed: None,
    })
}

/// Reads the whole batch result out of the root views: per aggregate,
/// every touched group whose slot is not exactly `0.0`.
fn lmfao_extract(
    root_data: &[ViewData],
    agg_slots: &[(usize, usize)],
    groups: &[Vec<String>],
) -> BatchResult {
    let mut values = Vec::with_capacity(agg_slots.len());
    for &(vi, si) in agg_slots {
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
    BatchResult { groups: groups.to_vec(), values }
}

/// Brings the held answer up to date with merged root views from the
/// root's delta views `droot`: for every aggregate, each group key
/// `droot` holds is re-read from the root views — the value
/// [`lmfao_extract`] would read there — and stored, or removed when it is
/// exactly `0.0`. Keys `droot` lacks were untouched by the merge. Records
/// every rewritten entry in `changed`.
fn lmfao_patch(m: &mut LmfaoMaint, droot: &[ViewData], changed: &mut Vec<(usize, Box<[i64]>)>) {
    let root_data = &m.data[m.plan.root];
    let result = Arc::make_mut(&mut m.result);
    for (idx, &(vi, si)) in m.agg_slots.iter().enumerate() {
        let Some(delta) = droot[vi].get(&[]) else { continue };
        let root = root_data[vi].get(&[]);
        let map = &mut result.values[idx];
        delta.for_each(|gkey, _| {
            let v = root.and_then(|g| g.get(gkey)).map_or(0.0, |p| p[si]);
            if v == 0.0 {
                map.remove(gkey);
            } else if let Some(x) = map.get_mut(gkey) {
                *x = v;
            } else {
                map.insert(gkey.into(), v);
            }
            changed.push((idx, gkey.into()));
        });
    }
}

/// The recompute fallback: rebuilds the whole maintained structure from
/// the (already mutated) database, keeping the pinned root.
fn lmfao_refresh(
    db: &Database,
    q: &AggQuery,
    m: &mut LmfaoMaint,
) -> Result<Arc<BatchResult>, DataError> {
    fault::check("maintain-view")?;
    *m = lmfao_build(&m.cfg, db, q, Some(m.plan.root))?;
    Ok(Arc::clone(&m.result))
}

/// True when every inserted row's integer values lie inside the
/// prepare-time column ranges `ranges` of the updated relation — the
/// condition under which delta rows are guaranteed to encode into every
/// dense code space the maintained views use. (Deletes always fit: the
/// maintained ranges cover every row the relation has held since the
/// last rebuild.)
fn delta_fits(ranges: &[Option<(i64, i64)>], schema: &Schema, delta: &Delta) -> bool {
    delta.inserts().all(|row| {
        row.iter().enumerate().all(|(c, v)| {
            if !schema.attr(c).ty.is_int_backed() {
                return true;
            }
            match ranges[c] {
                Some((lo, hi)) => {
                    let x = v.as_int();
                    x >= lo && x <= hi
                }
                // Empty at prepare: no dense space exists to violate,
                // but the plan chose representations for an empty
                // relation — rebuild rather than reason about it.
                None => false,
            }
        })
    })
}

/// The rows of `rel` joining a changed key of the delta views `dv`: those
/// whose key columns `kcols` (read as `Value::as_int` reads them) form a
/// join key some view of `dv` holds, in row order. The changed keys are
/// collected once; the rows are then filtered by one tight loop over the
/// first key column (a range check, then a binary search among the
/// changed first components), checking the remaining columns of a
/// composite key only for rows that pass.
fn joining_rows(rel: &Relation, kcols: &[usize], dv: &[ViewData]) -> Vec<usize> {
    let mut keys: Vec<Box<[i64]>> = Vec::new();
    for v in dv {
        v.for_each_key(|k| keys.push(k.into()));
    }
    keys.sort_unstable();
    keys.dedup();
    if keys.is_empty() {
        return Vec::new();
    }
    let Some((&first, rest)) = kcols.split_first() else {
        // No shared attribute: the child joins every row (a product).
        return (0..rel.len()).collect();
    };
    let mut firsts: Vec<i64> = keys.iter().map(|k| k[0]).collect();
    firsts.dedup();
    let (lo, hi) = (firsts[0], firsts[firsts.len() - 1]);
    let cols = Col::all(rel);
    let mut key = vec![0i64; kcols.len()];
    let mut full = |r: usize, x: i64| {
        rest.is_empty() || {
            key[0] = x;
            for (k, &c) in key[1..].iter_mut().zip(rest) {
                *k = cols[c].get_int(r);
            }
            keys.binary_search_by(|k| (**k).cmp(&key[..])).is_ok()
        }
    };
    let mut hit =
        |r: usize, x: i64| x >= lo && x <= hi && firsts.binary_search(&x).is_ok() && full(r, x);
    match &cols[first] {
        Col::I(v) => (0..v.len()).filter(|&r| hit(r, v[r])).collect(),
        Col::F(v) => (0..v.len()).filter(|&r| hit(r, v[r] as i64)).collect(),
    }
}

/// The incremental path: delta views at the owner, propagated along the
/// owner→root path. `db` already reflects the delta; it is the only
/// source of rows (the structure holds no relation).
fn lmfao_delta(
    db: &Database,
    q: &AggQuery,
    m: &mut LmfaoMaint,
    delta: &Delta,
    owner: usize,
) -> Result<Arc<BatchResult>, DataError> {
    // Signatures must embed the owner's post-delta content id.
    let rel = db.get(&delta.relation)?;
    let schema = rel.schema().clone();
    m.plan.ids[owner] = rel.data_id();
    if !delta_fits(&m.ranges[owner], &schema, delta) {
        return lmfao_refresh(db, q, m);
    }
    let cfg = &m.cfg;
    // Delta views of the owner: the inserted rows' contributions minus
    // the deleted rows', both probed against the unchanged child views.
    let mut ins = Relation::new(schema.clone());
    let mut del = Relation::new(schema);
    for (row, mult) in delta.rows() {
        if *mult > 0 { &mut ins } else { &mut del }.push_row(row)?;
    }
    let mut base: Vec<Option<Arc<Vec<ViewData>>>> = m.data.iter().cloned().map(Some).collect();
    let mut dv = compute_node(&m.plan, owner, &ins, &base, cfg, 0..ins.len());
    if !del.is_empty() {
        let mut neg = compute_node(&m.plan, owner, &del, &base, cfg, 0..del.len());
        for v in &mut neg {
            v.scale(-1.0);
        }
        merge_view_data(&mut dv, neg);
    }
    // Owner → root path.
    let mut path = vec![owner];
    while let Some(p) = m.parents[*path.last().expect("non-empty")] {
        path.push(p);
    }
    let mut cur_delta = Arc::new(dv);
    let mut reached_root = false;
    for (step, &n) in path.iter().enumerate() {
        // A fault here interrupts the owner→root walk with ancestors of
        // `n` still holding pre-delta views — exactly the half-updated
        // structure the `apply_delta` wrapper must recover from.
        fault::check("maintain-view")?;
        if step > 0 {
            if cur_delta.iter().all(ViewData::is_empty) {
                break;
            }
            // ΔV_n: only the rows of n joining a changed child key
            // contribute — probed against ΔV_child and the *current*
            // views of every off-path sibling.
            let child = path[step - 1];
            let np = &m.plan.nodes[n];
            let cpos = np.children.iter().position(|&c| c == child).expect("path child");
            let rel = db.get(&q.relations[n])?;
            let matches = joining_rows(rel, &np.child_key_cols[cpos], &cur_delta);
            if matches.is_empty() {
                // Dead delta: nothing above changes.
                break;
            }
            let sub = rel.permuted(&matches);
            let mut pdata = base.clone();
            pdata[child] = Some(Arc::clone(&cur_delta));
            cur_delta = Arc::new(compute_node(&m.plan, n, &sub, &pdata, cfg, 0..sub.len()));
        }
        // A path node's `base` entry is never probed again — ancestors
        // consult only their children, and the path child is always
        // overridden with ΔV — so drop it before the merge: with the view
        // cache bypassed the merge is then a true in-place update. With
        // the cache on, `Arc::make_mut` copy-on-writes the path node's
        // aggregate state (sized by its group domains, not the database):
        // the retained cache snapshot must stay immutable for concurrent
        // readers, so that copy is the cost of serving future cold runs,
        // not waste.
        base[n] = None;
        let views: &mut Vec<ViewData> = Arc::make_mut(&mut m.data[n]);
        merge_view_data(views, (*cur_delta).clone());
        reached_root = n == m.plan.root;
    }
    // With the view cache on, refresh the path's signatures bottom-up
    // against the cached vector (off-path subtrees exclude the owner, so
    // their signatures are unchanged), then re-admit the path under the
    // post-delta keys: off-path cache entries stay warm automatically and
    // the path is maintained in place instead of aging out.
    if cfg.view_cache_bytes > 0 {
        let cache = ViewCache::global();
        for &n in &path {
            m.sigs[n] = m.plan.node_signature(n, &m.sigs);
            let key =
                if n == m.plan.root { format!("{}#chunks1", m.sigs[n]) } else { m.sigs[n].clone() };
            cache.insert_maintained(
                &key,
                m.plan.ids[n],
                Arc::clone(&m.data[n]),
                cfg.view_cache_bytes,
            );
        }
    }
    // The answer changes only where ΔV_root has keys; a walk that died
    // below the root changed nothing.
    let mut changed = m.changed.take().unwrap_or_default();
    changed.clear();
    if reached_root {
        lmfao_patch(m, &cur_delta, &mut changed);
    }
    m.changed = Some(changed);
    // A fault here fires *after* the maintained path was re-admitted to
    // the view cache under post-delta content ids — the wrapper's
    // invalidate-on-rollback must drop those entries, or a later cold run
    // over re-applied identical content would serve views the failed
    // epoch produced.
    fault::check("maintain-publish")?;
    Ok(Arc::clone(&m.result))
}

impl CustomMaint for LmfaoMaint {
    fn apply_delta(
        &mut self,
        db: &Database,
        q: &AggQuery,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        match q.relations.iter().position(|r| *r == delta.relation) {
            // A delta outside the join leaves the result untouched.
            None => {
                self.changed = Some(Vec::new());
                Ok(Arc::clone(&self.result))
            }
            Some(owner) => lmfao_delta(db, q, self, delta, owner),
        }
    }

    fn eval(&self, _db: &Database, _q: &AggQuery) -> Result<Arc<BatchResult>, DataError> {
        Ok(Arc::clone(&self.result))
    }

    fn changed(&self) -> Option<&Changed> {
        self.changed.as_deref()
    }

    #[cfg(test)]
    fn extracted(&self) -> Option<BatchResult> {
        Some(lmfao_extract(&self.data[self.plan.root], &self.agg_slots, &self.result.groups))
    }
}

impl MaintainableEngine for LmfaoEngine {
    /// Materializes the whole view tree; every later delta is folded in
    /// along the owner→root path (see the module docs).
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        q.validate(db)?;
        let maint = lmfao_build(&self.cfg, db, q, None)?;
        Ok(MaintState::custom(db.clone(), q.clone(), Box::new(maint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{AggBatch, Aggregate, FilterOp};
    use crate::dispatch::DispatchEngine;
    use fdb_data::{AttrType, Schema, Value};

    /// F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v) with categorical codes
    /// `c`, `w` for group-bys — integer-valued measures so incremental
    /// and cold sums are bit-exact.
    fn snowflake() -> Database {
        let mut db = Database::new();
        let mut f = Relation::new(Schema::of(&[
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Categorical),
            ("x", AttrType::Double),
        ]));
        for (a, b, x) in [(0, 0, 1.0), (0, 1, 2.0), (1, 0, -3.0), (2, 1, 4.0), (1, 1, 5.0)] {
            f.push_row(&[Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(x)])
                .unwrap();
        }
        let mut d1 = Relation::new(Schema::of(&[
            ("a", AttrType::Int),
            ("w", AttrType::Categorical),
            ("u", AttrType::Double),
        ]));
        for (a, u) in [(0, 5.0), (1, -1.0), (2, 2.0)] {
            d1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(u)]).unwrap();
        }
        let mut d2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
        for (b, v) in [(0, 2.0), (1, 4.0)] {
            d2.push_row(&[Value::Int(b), Value::F64(v)]).unwrap();
        }
        db.add("F", f);
        db.add("D1", d1);
        db.add("D2", d2);
        db
    }

    fn query() -> AggQuery {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count());
        batch.push(Aggregate::sum("x"));
        batch.push(Aggregate::sum_prod("x", "u"));
        batch.push(Aggregate::count().by(&["c"]));
        batch.push(Aggregate::sum("x").by(&["c", "w"]));
        batch.push(Aggregate::sum("v").filtered("u", FilterOp::Ge(0.0)));
        AggQuery::new(&["F", "D1", "D2"], batch)
    }

    fn assert_same(tag: &str, got: &BatchResult, expect: &BatchResult, naggs: usize) {
        for i in 0..naggs {
            assert_eq!(got.groups[i], expect.groups[i], "{tag}: agg {i} groups");
            assert_eq!(
                got.grouped(i).len(),
                expect.grouped(i).len(),
                "{tag}: agg {i} key count: {:?} vs {:?}",
                got.grouped(i),
                expect.grouped(i)
            );
            for (k, v) in got.grouped(i) {
                let e = expect.grouped(i).get(k).copied().unwrap_or(f64::NAN);
                assert!(
                    (v - e).abs() <= 1e-9 * (1.0 + e.abs()),
                    "{tag}: agg {i} {k:?}: {v} vs {e}"
                );
            }
        }
    }

    /// A scripted insert/delete stream over fact and dimensions: the
    /// incremental LMFAO path must agree with cold recomputation (the
    /// flat engine over the mutated database) after every delta.
    #[test]
    fn lmfao_delta_stream_agrees_with_cold_runs() {
        let db = snowflake();
        let q = query();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut st = engine.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        let frow = |a: i64, b: i64, x: f64| {
            vec![Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(x)]
        };
        let deltas = [
            // Fact inserts within the prepare-time ranges: the pure
            // maintained path (owner == root, no ancestors to touch).
            Delta::insert("F", frow(1, 0, 7.0)),
            Delta::new("F").with_insert(frow(0, 1, -2.0)).with_insert(frow(2, 0, 1.0)),
            // Fact delete — the additive inverse.
            Delta::delete("F", frow(0, 0, 1.0)),
            // Mixed batch: net effect of insert + delete in one delta.
            Delta::new("F").with_insert(frow(2, 1, 3.0)).with_delete(frow(1, 0, -3.0)),
            // Dimension insert/delete: owner → root propagation with a
            // path rescan restricted to the matching fact rows.
            Delta::insert("D2", vec![Value::Int(0), Value::F64(-1.0)]),
            Delta::delete("D1", vec![Value::Int(1), Value::Int(1), Value::F64(-1.0)]),
            Delta::insert("D1", vec![Value::Int(1), Value::Int(1), Value::F64(6.0)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let got = engine.apply_delta(&mut st, d).unwrap();
            shadow.apply_delta(d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            assert_same(&format!("delta {i}"), &got, &cold, q.batch.len());
            // And the state's own database tracks the shadow.
            assert_eq!(st.database().get("F").unwrap().len(), shadow.get("F").unwrap().len());
        }
        // eval() re-reads the maintained result without recomputation.
        let eval = engine.eval(&st).unwrap();
        let cold = FlatEngine.run(&shadow, &q).unwrap();
        assert_same("eval", &eval, &cold, q.batch.len());
    }

    /// Inserts outside the prepare-time code ranges cannot be folded into
    /// the dense maintained views — the path must fall back to a full
    /// rebuild and still agree with cold recomputation.
    #[test]
    fn out_of_range_insert_falls_back_to_refresh() {
        let db = snowflake();
        let q = query();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut st = engine.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        // a = 9 is outside F's prepare-time range for `a`; the new D1 row
        // below makes it join.
        let deltas = [
            Delta::insert("D1", vec![Value::Int(9), Value::Int(1), Value::F64(3.0)]),
            Delta::insert("F", vec![Value::Int(9), Value::Int(0), Value::Int(0), Value::F64(8.0)]),
            Delta::insert("F", vec![Value::Int(9), Value::Int(1), Value::Int(1), Value::F64(2.0)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let got = engine.apply_delta(&mut st, d).unwrap();
            shadow.apply_delta(d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            assert_same(&format!("fallback {i}"), &got, &cold, q.batch.len());
            // The rebuilt structure releases the relations it scanned.
            assert_eq!(held(&st, &d.relation), 2, "fallback {i}: `{}` still held", d.relation);
        }
    }

    /// Holders of `name`'s relation: the state's database, this probe's
    /// handle, and anything else that kept one.
    fn held(st: &MaintState, name: &str) -> usize {
        Arc::strong_count(&st.database().get_shared(name).unwrap())
    }

    /// LMFAO whose next maintained delta runs and then fails: the wrapper
    /// must roll the database back and rebuild the half-updated structure
    /// through `prepare`.
    struct FailAfterMaintain {
        inner: LmfaoEngine,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Engine for FailAfterMaintain {
        fn name(&self) -> &'static str {
            "fail-after-maintain"
        }

        fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
            self.inner.run(db, q)
        }
    }

    impl MaintainableEngine for FailAfterMaintain {
        fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
            self.inner.prepare(db, q)
        }

        fn apply_delta_kind(
            &self,
            st: &mut MaintState,
            delta: &Delta,
        ) -> Result<Arc<BatchResult>, DataError> {
            let r = self.inner.apply_delta_kind(st, delta)?;
            if self.armed.swap(false, std::sync::atomic::Ordering::Relaxed) {
                return Err(DataError::Invalid("rejected after maintenance".into()));
            }
            Ok(r)
        }
    }

    /// A delta rejected after its maintenance ran rolls back to the exact
    /// pre-delta epoch, and the rebuilt structure holds no relation: the
    /// next deltas maintain in place and agree with cold runs.
    #[test]
    fn rejected_delta_rebuilds_without_holding_relations() {
        let db = snowflake();
        let q = query();
        let engine = FailAfterMaintain {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            armed: false.into(),
        };
        let mut st = engine.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        let frow = |a: i64, x: f64| {
            vec![Value::Int(a), Value::Int(1), Value::Int((a + 1) % 3), Value::F64(x)]
        };
        // One good delta per relation first: each then has no holder
        // besides the state's database (and the shadow holds its own copy).
        for good in [
            Delta::insert("F", frow(0, 3.0)),
            Delta::insert("D2", vec![Value::Int(1), Value::F64(4.0)]),
        ] {
            engine.apply_delta(&mut st, &good).unwrap();
            shadow.apply_delta(&good).unwrap();
        }
        for (i, bad) in [
            Delta::insert("F", frow(2, 5.0)),
            Delta::delete("D2", vec![Value::Int(0), Value::F64(2.0)]),
        ]
        .iter()
        .enumerate()
        {
            let (epoch, id) = (st.epoch(), st.database().get(&bad.relation).unwrap().data_id());
            engine.armed.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(engine.apply_delta(&mut st, bad).is_err(), "bad {i} must be rejected");
            assert_eq!(st.epoch(), epoch, "bad {i}: epoch restored");
            assert_eq!(
                st.database().get(&bad.relation).unwrap(),
                shadow.get(&bad.relation).unwrap()
            );
            assert_eq!(st.database().get(&bad.relation).unwrap().data_id(), id, "bad {i}: id");
            assert!(!st.is_recompute(), "bad {i}: the rebuild keeps maintaining");
            assert_eq!(
                held(&st, &bad.relation),
                2,
                "bad {i}: the rebuild holds `{}`",
                bad.relation
            );
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            assert_same(&format!("bad {i} eval"), &engine.eval(&st).unwrap(), &cold, q.batch.len());
            // And the same delta then applies in place.
            let got = engine.apply_delta(&mut st, bad).unwrap();
            shadow.apply_delta(bad).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            assert_same(&format!("bad {i} reapplied"), &got, &cold, q.batch.len());
            assert_eq!(held(&st, &bad.relation), 2, "bad {i} reapplied: `{}` held", bad.relation);
        }
    }

    /// Deltas on relations outside the query leave the result untouched; a
    /// degraded [`MaintState::recompute`] state recomputes per delta and
    /// agrees with the maintained one; invalid deltas error without
    /// corrupting the state.
    #[test]
    fn unrelated_recompute_and_invalid_deltas() {
        let mut db = snowflake();
        db.add(
            "Z",
            Relation::from_rows(Schema::of(&[("z", AttrType::Int)]), vec![vec![Value::Int(1)]])
                .unwrap(),
        );
        let q = query();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        let mut st = engine.prepare(&db, &q).unwrap();
        let before = engine.eval(&st).unwrap();
        // Unrelated relation: applied to the database, result unchanged.
        let got = engine.apply_delta(&mut st, &Delta::insert("Z", vec![Value::Int(7)])).unwrap();
        assert_same("unrelated", &got, &before, q.batch.len());
        assert_eq!(st.database().get("Z").unwrap().len(), 2);
        // Maintained and recompute states both agree with a cold run.
        let d =
            Delta::insert("F", vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::F64(1.0)]);
        let mut degraded = MaintState::recompute(db.clone(), q.clone());
        let mut shadow = db.clone();
        shadow.apply_delta(&d).unwrap();
        let cold = FlatEngine.run(&shadow, &q).unwrap();
        let got = engine.apply_delta(&mut st, &d).unwrap();
        assert_same("maintained", &got, &cold, q.batch.len());
        let got = engine.apply_delta(&mut degraded, &d).unwrap();
        assert_same("recompute", &got, &cold, q.batch.len());
        // Invalid delta: error, state still serves the last good result.
        let bad = Delta::delete(
            "F",
            vec![Value::Int(42), Value::Int(42), Value::Int(0), Value::F64(0.0)],
        );
        assert!(engine.apply_delta(&mut st, &bad).is_err());
        assert_same("after error", &engine.eval(&st).unwrap(), &cold, q.batch.len());
    }

    /// `got` and `want` hold the same group keys per aggregate, with values
    /// equal bit for bit.
    fn assert_bits(tag: &str, got: &BatchResult, want: &BatchResult) {
        assert_eq!(got.groups, want.groups, "{tag}: groups");
        for (i, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
            let mut gk: Vec<_> = g.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
            let mut wk: Vec<_> = w.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
            gk.sort_unstable();
            wk.sort_unstable();
            assert_eq!(gk, wk, "{tag}: agg {i}");
        }
    }

    /// The patched answer equals a full extract of the same maintained
    /// views bit for bit after every delta of a scripted stream — 1-row
    /// and 64-row inserts with real-valued measures, a delete, a dimension
    /// update, an out-of-range insert (the refresh fallback), a delta on a
    /// relation outside the join, a rolled-back delta, and a delete that
    /// empties a categorical group (whose key must disappear). Entries
    /// outside the reported change list keep their previous bits.
    #[test]
    fn patched_result_equals_a_full_extract_bit_for_bit() {
        let mut db = snowflake();
        db.add("Z", Relation::new(Schema::of(&[("z", AttrType::Int)])));
        let q = query();
        let engine = FailAfterMaintain {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            armed: false.into(),
        };
        let mut st = engine.prepare(&db, &q).unwrap();
        assert!(st.changed().is_none(), "prepare extracts in full");
        let frow = |a: i64, b: i64, x: f64| {
            vec![Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(x)]
        };
        // No insert lands in group c = 2, so the last delete empties it.
        let keys = [(0, 0), (0, 1), (1, 0), (2, 1)];
        let mut wide = Delta::new("F");
        for i in 0..64 {
            let (a, b) = keys[i % 4];
            wide.push_insert(frow(a, b, 0.1 * i as f64 - 2.5));
        }
        let d1 = |u: f64| vec![Value::Int(2), Value::Int(0), Value::F64(u)];
        // (delta, armed to fail, expected to be patched rather than rebuilt)
        let steps = [
            (Delta::insert("F", frow(1, 0, 0.7)), false, true),
            (wide, false, true),
            (Delta::delete("F", frow(0, 1, 2.0)), false, true),
            (Delta::delete("D1", d1(2.0)).with_insert(d1(-0.3)), false, true),
            (Delta::insert("F", frow(9, 0, 1.3)), false, false),
            (Delta::insert("Z", vec![Value::Int(4)]), false, true),
            (Delta::insert("F", frow(2, 1, 0.9)), true, false),
            (Delta::insert("F", frow(2, 1, 0.9)), false, true),
            // The only fact row with c = (1 + 1) % 3 = 2.
            (Delta::delete("F", frow(1, 1, 5.0)), false, true),
        ];
        let mut prev = engine.eval(&st).unwrap();
        for (i, (d, fail, patched)) in steps.iter().enumerate() {
            let tag = format!("step {i}");
            engine.armed.store(*fail, std::sync::atomic::Ordering::Relaxed);
            let got = match engine.apply_delta(&mut st, d) {
                Ok(got) => got,
                Err(_) if *fail => engine.eval(&st).unwrap(),
                Err(e) => panic!("{tag}: {e}"),
            };
            let full = st.maint.as_ref().unwrap().extracted().unwrap();
            assert_bits(&tag, &got, &full);
            assert_eq!(st.changed().is_some(), *patched, "{tag}: patched");
            if let Some(changed) = st.changed() {
                let mut untouched = (*prev).clone();
                for (agg, key) in changed {
                    untouched.values[*agg].remove(key);
                }
                let mut rest = (*got).clone();
                for (agg, key) in changed {
                    rest.values[*agg].remove(key);
                }
                assert_bits(&format!("{tag} outside the change list"), &rest, &untouched);
            }
            if d.relation == "Z" {
                assert!(Arc::ptr_eq(&got, &prev), "{tag}: an unrelated delta keeps the answer");
            }
            prev = got;
        }
        assert!(
            !prev.grouped(3).contains_key(&[2][..]),
            "the emptied group c = 2 must leave COUNT(*) BY c: {:?}",
            prev.grouped(3)
        );
    }

    /// Multi-threaded LMFAO and the dispatch composition at two-row root
    /// morsels maintain through their view trees and agree with cold runs
    /// after every delta — and so do their own cold runs, which cut the
    /// root into morsels and tree-merge the partials.
    #[test]
    fn morsel_and_dispatch_maintenance_agree() {
        let db = snowflake();
        let q = query();
        let cfg = EngineConfig { threads: 3, morsel_rows: 2, ..Default::default() };
        let lmfao = LmfaoEngine::with_config(cfg);
        let dispatch = DispatchEngine::with_config(cfg);
        let mut st_lmfao = lmfao.prepare(&db, &q).unwrap();
        let mut st_dispatch = dispatch.prepare(&db, &q).unwrap();
        let mut shadow = db.clone();
        let deltas = [
            Delta::insert("F", vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::F64(3.0)]),
            Delta::delete("F", vec![Value::Int(0), Value::Int(1), Value::Int(1), Value::F64(2.0)]),
            Delta::insert("D2", vec![Value::Int(1), Value::F64(1.0)]),
            Delta::delete("D2", vec![Value::Int(1), Value::F64(1.0)]),
        ];
        for (i, d) in deltas.iter().enumerate() {
            let a = lmfao.apply_delta(&mut st_lmfao, d).unwrap();
            let b = dispatch.apply_delta(&mut st_dispatch, d).unwrap();
            shadow.apply_delta(d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            assert_same(&format!("lmfao {i}"), &a, &cold, q.batch.len());
            assert_same(&format!("dispatch {i}"), &b, &cold, q.batch.len());
            let morsels = lmfao.run(&shadow, &q).unwrap();
            assert_same(&format!("lmfao cold {i}"), &morsels, &cold, q.batch.len());
        }
    }
}
