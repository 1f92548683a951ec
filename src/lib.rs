//! # fdb — Factorized In-Database Machine Learning
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"The Relational Data Borg is Learning"* (Dan Olteanu,
//! VLDB 2020). See `README.md` for a tour and `DESIGN.md` for the system
//! inventory and per-experiment index.
//!
//! ```
//! use fdb::prelude::*;
//!
//! // The paper's Figure 7 example database.
//! let db = fdb::datasets::dish::dish_database();
//! assert_eq!(db.get("Orders").unwrap().len(), 4);
//! ```

pub use fdb_core as lmfao;
pub use fdb_data as data;
pub use fdb_datasets as datasets;
pub use fdb_factorized as factorized;
pub use fdb_ifaq as ifaq;
pub use fdb_ineq as ineq;
pub use fdb_ivm as ivm;
pub use fdb_ml as ml;
pub use fdb_query as query;
pub use fdb_ring as ring;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use fdb_core::{
        AggBatch, AggQuery, Aggregate, BatchResult, DispatchEngine, Engine, EngineChoice,
        EngineConfig, EpochDb, FactorizedEngine, FilterOp, FlatEngine, FrontDoor, FrontDoorConfig,
        GroupKey, LmfaoEngine, MaintState, MaintainableEngine, ServingEngine, ServingStats,
    };
    pub use fdb_data::{AttrType, Attribute, Database, Delta, Relation, Schema, Value};
    pub use fdb_ring::{CovRing, Ring, Semiring};
}
