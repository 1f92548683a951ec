//! Domain and task parallelism (LMFAO §4, the "+parallelisation" stage of
//! the Figure 6 ablation).
//!
//! Two orthogonal strategies, both scheduled by
//! [`crate::morsel::run_stealing`] on at most `EngineConfig::threads`
//! workers:
//!
//! * **task parallelism** — the subtrees hanging off the root are
//!   independent work units ([`compute_subtrees_parallel`]);
//! * **domain parallelism** — the root relation's scan is partitioned into
//!   row morsels whose per-view partial aggregates merge additively
//!   ([`compute_root_chunked`]). This is the one fact-table partitioner:
//!   every dimension subtree is computed once and shared by all morsels.

use crate::exec::{compute_node, CacheCtx};
use crate::plan::{Plan, ViewData};
use fdb_data::{fault, DataError, Relation};
use std::sync::Arc;

pub use fdb_data::sched::default_threads;

/// Engine feature toggles (all on by default).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Use typed column kernels (monomorphized access) instead of generic
    /// per-tuple `Value` interpretation.
    pub specialize: bool,
    /// Deduplicate identical partial aggregates and consolidate views.
    pub share: bool,
    /// Worker threads for task and domain parallelism (1 = sequential):
    /// no query runs more workers than this. Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Ceiling on composite group codes per dense accumulator: group-by
    /// sets whose domain-size product stays at or below this use flat
    /// code-indexed storage instead of hash maps (see [`crate::group`]).
    /// `0` disables dense indexing entirely — the hash baseline.
    pub dense_limit: u64,
    /// Byte budget of the cross-batch [`ViewCache`](crate::viewcache::ViewCache):
    /// materialized per-node views are memoized across `Engine::run` calls
    /// and served whenever a later batch's subtree plan (and the subtree's
    /// relation content) is unchanged — the residual-filter reuse of
    /// iterative trainers. `0` bypasses the cache entirely.
    pub view_cache_bytes: usize,
    /// Rows per morsel for domain parallelism: the root scan is cut into
    /// row ranges of roughly this many rows, pulled by workers from a
    /// shared queue. Also caps the batch of the batched node scan, which
    /// every node (leaf, inner and root) runs with `specialize` on. See
    /// [`crate::morsel`].
    pub morsel_rows: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            specialize: true,
            share: true,
            threads: default_threads(),
            dense_limit: crate::group::DEFAULT_DENSE_GROUPS,
            view_cache_bytes: crate::viewcache::DEFAULT_VIEW_CACHE_BYTES,
            morsel_rows: crate::morsel::DEFAULT_MORSEL_ROWS,
        }
    }
}

impl EngineConfig {
    /// A single-threaded configuration with all other toggles on.
    pub fn sequential() -> Self {
        Self { threads: 1, ..Default::default() }
    }
}

/// Merges per-chunk view data additively into `a`.
pub(crate) fn merge_view_data(a: &mut [ViewData], b: Vec<ViewData>) {
    for (va, vb) in a.iter_mut().zip(b) {
        va.merge_from(vb);
    }
}

/// Task parallelism: computes the root's child subtrees over their
/// relations `rels` (in node order) as work units pulled by at most
/// `cfg.threads` workers. `to_compute` is the bottom-up
/// order minus the root and minus any cache-served nodes; already-served
/// entries in `data` (and each unit's own results) are visible to
/// dependent nodes, and every computed node is offered to the view cache
/// via `ctx`.
pub(crate) fn compute_subtrees_parallel(
    plan: &Plan,
    rels: &[&Relation],
    to_compute: &[usize],
    data: &mut [Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
    ctx: Option<&CacheCtx<'_>>,
) -> Result<(), DataError> {
    let partitions: Vec<Vec<usize>> = plan.nodes[plan.root]
        .children
        .iter()
        .map(|&c| to_compute.iter().copied().filter(|n| plan.subtree[c].contains(n)).collect())
        .collect();
    let shared: &[Option<Arc<Vec<ViewData>>>] = data;
    let computed = crate::morsel::run_stealing(partitions.len(), cfg.threads, |i| {
        // Cache-served children arrive through the shared snapshot;
        // locally computed nodes overlay it.
        let mut local = shared.to_vec();
        let mut out = Vec::with_capacity(partitions[i].len());
        for &n in &partitions[i] {
            fault::check("morsel-exec")?;
            let views = Arc::new(compute_node(plan, n, rels[n], &local, cfg, 0..rels[n].len()));
            if let Some(ctx) = ctx {
                ctx.admit(n, &views);
            }
            local[n] = Some(Arc::clone(&views));
            out.push((n, views));
        }
        Ok::<_, DataError>(out)
    })?;
    for part in computed {
        for (n, views) in part? {
            data[n] = Some(views);
        }
    }
    Ok(())
}

/// Domain parallelism: computes the root node over its relation `root`
/// split into morsel-sized chunks pulled by `cfg.threads` workers from a
/// shared queue (see [`crate::morsel`]), then combines the per-morsel view
/// partials with a pairwise tree merge ([`crate::morsel::tree_merge`]) on
/// the same workers. The merge tree depends only on the morsel order
/// (never the thread schedule), so the summation stays deterministic.
pub(crate) fn compute_root_chunked(
    plan: &Plan,
    root: &Relation,
    data: &[Option<Arc<Vec<ViewData>>>],
    cfg: &EngineConfig,
) -> Result<Vec<ViewData>, DataError> {
    let root_rows = root.len();
    let morsels =
        crate::morsel::plan_morsels(root_rows, cfg.morsel_rows, cfg.threads.min(root_rows));
    let partials =
        crate::morsel::run_stealing(morsels.len(), cfg.threads, |i| -> Result<_, DataError> {
            fault::check("morsel-exec")?;
            Ok(compute_node(plan, plan.root, root, data, cfg, morsels[i].clone()))
        })?;
    let partials: Vec<Vec<ViewData>> = partials.into_iter().collect::<Result<_, DataError>>()?;
    let acc = crate::morsel::tree_merge(partials, cfg.threads, |a, b| {
        merge_view_data(a, b);
        Ok(())
    })?;
    Ok(acc.expect("at least one morsel"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Destructures exhaustively (no `..`): a new `EngineConfig` field is
    /// a compile error here, so adding one has to be justified.
    #[test]
    fn default_config_enables_everything() {
        let EngineConfig { specialize, share, threads, dense_limit, view_cache_bytes, morsel_rows } =
            EngineConfig::default();
        assert!(specialize && share);
        assert!(threads >= 1);
        assert!(dense_limit > 0);
        assert!(view_cache_bytes > 0 && morsel_rows > 0);
        assert_eq!(EngineConfig::sequential().threads, 1);
    }

    #[test]
    fn merge_adds_payloads_keywise() {
        use crate::group::KeySpace;
        use crate::plan::GroupSpec;
        let spec = GroupSpec { slots: 2, space: KeySpace::new(&[(0, 3)], 16) };
        for key_space in [None, KeySpace::new(&[(0, 3)], 16)] {
            let mk = |v: f64| -> ViewData {
                let mut vd = ViewData::new(key_space.as_ref());
                let p = vd.entry_mut(&[1], &spec).payload_mut(&[2]);
                p[0] = v;
                p[1] = 2.0 * v;
                vd
            };
            let mut a = vec![mk(1.0)];
            merge_view_data(&mut a, vec![mk(10.0)]);
            assert_eq!(a[0].get(&[1]).unwrap().get(&[2]), Some(&[11.0, 22.0][..]));
            assert!(a[0].get(&[0]).is_none());
        }
    }
}
