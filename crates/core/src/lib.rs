//! # fdb-core — the unified execution layer (LMFAO)
//!
//! One aggregate-query IR and one [`Engine`] trait across the flat,
//! factorized, and LMFAO backends — the paper's primary contribution (§2,
//! §4; Schleich et al., SIGMOD 2019) made into an API seam.
//!
//! The workload: machine-learning tasks reduce to hundreds or thousands of
//! very similar sum-product aggregates over one feature extraction join
//! (Figure 5). An [`AggQuery`] captures that workload once — join
//! hypergraph + aggregate batch — and every backend consumes it:
//!
//! * [`batch`] — the aggregate IR: `SUM(Π f(attr)) WHERE cond GROUP BY cats`.
//! * [`batchgen`] — batch synthesis for the paper's four workloads:
//!   covariance matrix, decision-tree node, mutual information, k-means.
//! * [`ir`] — [`AggQuery`] (the logical query all engines share) and
//!   [`BatchResult`].
//! * [`backend`] — the [`Engine`] trait with three implementations:
//!   [`FlatEngine`] (materialized join, one scan per aggregate),
//!   [`FactorizedEngine`] (fused leapfrog + keyed ring), and
//!   [`LmfaoEngine`] (the layered batch engine below).
//! * [`plan`] — top-down aggregate decomposition along the join tree into
//!   *views*; identical partial aggregates are computed once (sharing) and
//!   views at a node are consolidated.
//! * [`group`] — dense mixed-radix group accumulators ([`GroupIndex`]):
//!   code-indexed flat storage when categorical domains are small, hash
//!   fallback otherwise ([`EngineConfig::dense_limit`]).
//! * [`exec`] — the shared-scan bottom-up evaluator with typed column
//!   kernels (specialisation).
//! * [`kernel`] — batch-at-a-time columnar kernels: mixed-radix code
//!   batches, payload scatter/merge, factor/filter passes.
//! * [`morsel`] — morsel-driven scheduling: work units pulled from a
//!   shared queue by every parallel path (root-scan morsels, root
//!   subtrees, merge pairs), so a skewed unit never pins its peers.
//! * [`parallel`] — domain/task parallelism and [`EngineConfig`]
//!   (`threads` defaults to the machine's available parallelism); the
//!   toggles reproduce the Figure 6 ablation. Root morsels are the one
//!   fact-table partitioner: each dimension subtree is computed once and
//!   the per-morsel root views merge as dense `ViewData`.
//! * [`dispatch`] — one backend decision per query from the fact
//!   cardinality ([`DispatchEngine`]: flat for tiny joins, LMFAO
//!   otherwise).
//! * [`serve`] + [`frontdoor`] — epoch-based concurrent serving
//!   ([`ServingEngine`]: snapshot readers under a single transactional
//!   writer) and the admission layer over it ([`FrontDoor`]: bounded
//!   write queue with a per-submit deadline, group commit, and a bounded
//!   retry of transient failures).
//! * [`viewcache`] — the cross-batch [`ViewCache`]: materialized per-node
//!   views memoized across `Engine::run` calls, keyed on canonical
//!   subtree plan signatures plus relation content ids; iterative
//!   trainers (one batch per decision-tree node) rescan only the nodes a
//!   changed filter actually touches
//!   ([`EngineConfig::view_cache_bytes`]).
//! * [`stats`] — `SufficientStats`: the sparse-tensor sufficient statistics
//!   (§2.1) assembled from a batch result, consumed by `fdb-ml`.

pub mod backend;
pub mod batch;
pub mod batchgen;
pub mod classical;
pub mod dispatch;
pub mod exec;
pub mod frontdoor;
pub mod group;
pub mod ir;
pub mod kernel;
pub mod maintain;
pub mod morsel;
pub mod parallel;
pub mod plan;
pub mod serve;
pub mod stats;
pub mod viewcache;

pub use backend::{all_engines, to_scan_query, Engine, FactorizedEngine, FlatEngine, LmfaoEngine};
pub use batch::{AggBatch, Aggregate, FilterOp, Fn1, GroupKey};
pub use batchgen::{covariance_batch, decision_node_batch, kmeans_batch, mutual_info_batch};
pub use classical::{eval_agg, eval_agg_batch, AggResult, ScanQuery};
pub use dispatch::{DispatchEngine, EngineChoice};
pub use frontdoor::{FrontDoor, FrontDoorConfig};
pub use group::{GroupIndex, KeySpace};
pub use ir::{AggQuery, BatchResult};
pub use maintain::{Changed, CustomMaint, MaintState, MaintainableEngine};
pub use morsel::DEFAULT_MORSEL_ROWS;
pub use parallel::EngineConfig;
pub use serve::{EpochDb, ServingEngine, ServingStats};
pub use stats::{patch_stats, stats_from_result, sufficient_stats, SufficientStats};
pub use viewcache::{ViewCache, ViewCacheStats, DEFAULT_VIEW_CACHE_BYTES};
