//! # fdb-ml
//!
//! Machine learning over relational data (paper §1.3, §2): every model
//! consumes *sufficient statistics* computed in-database by `fdb-core`
//! (LMFAO) instead of a materialized data matrix — plus the
//! structure-agnostic baselines the paper compares against.
//!
//! * [`linreg`] — ridge linear regression over the covariance matrix:
//!   batch gradient descent (50 ms retrains, Figure 3) and the closed-form
//!   Cholesky solution; model selection over feature subsets reuses one
//!   covariance matrix (§1.5).
//! * [`sgd`] — the structure-agnostic baseline: one-epoch mini-batch SGD
//!   over the materialized, shuffled data matrix (the TensorFlow stand-in).
//! * [`tree`] — CART decision trees (regression + classification) trained
//!   fully in-database: each node's costs come from one LMFAO batch with
//!   conjunctive path filters (§2.2).
//! * [`kmeans`] — Lloyd's algorithm and the Rk-means-style grid coreset
//!   (§3.3) with constant-factor approximation tests.
//! * [`pca`] — principal components by power iteration over the covariance
//!   matrix (§2.1).
//! * [`chowliu`] — mutual information and Chow-Liu trees from the
//!   mutual-information batch (Figure 5 workload).
//! * [`fd`] — functional-dependency detection and model reparameterization
//!   (§3.2): train fewer parameters, recover the original model.
//! * [`reuse`] — per-training view-cache reuse accounting: iterative
//!   trainers (CART, BGD retrains, Rk-means grid statistics) report how
//!   many views the engine served from the cross-batch cache vs rescanned.
//! * [`online`] — continuous learning over dynamic data: [`OnlineRidge`]
//!   keeps a ridge model fresh under `Delta` streams by refitting from a
//!   `MaintainableEngine`'s maintained covariance aggregates — a `d×d`
//!   solve per update batch, no retraining scan.

pub mod chowliu;
pub mod fd;
pub mod kmeans;
pub mod linalg;
pub mod linreg;
pub mod matrix;
pub mod online;
pub mod pca;
pub mod reuse;
pub mod sgd;
pub mod tree;

pub use linreg::LinearRegression;
pub use matrix::DataMatrix;
pub use online::OnlineRidge;
pub use reuse::ViewReuse;
pub use tree::DecisionTree;
