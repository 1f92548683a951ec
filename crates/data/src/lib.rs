//! # fdb-data
//!
//! Data-layer substrate for the `fdb` workspace: typed values, schemas,
//! dictionary encoding of categorical attributes, in-memory columnar
//! relations, sorted views, databases (catalogs), CSV import/export, and
//! the work-stealing scheduler ([`sched`]) both the CSV reader and the
//! engines run their parallel units on.
//!
//! Everything above this crate (the factorized engine, LMFAO, F-IVM, the
//! classical baseline engine) operates on [`Relation`]s described by
//! [`Schema`]s and grouped into a [`Database`].
//!
//! Design decisions (see DESIGN.md §4):
//! * [`Value`] is `Int(i64)` or `F64(f64)` with a *total* order and
//!   bit-pattern hashing so values can be used as group-by keys.
//! * Categorical attributes are dictionary-encoded into `Int` codes at load
//!   time; the [`Dictionary`] lives next to the schema. Join and group-by
//!   attributes are therefore always integers, which the factorized and
//!   LMFAO engines rely on for fast typed kernels.

pub mod catalog;
pub mod csv;
pub mod delta;
pub mod dict;
pub mod error;
pub mod fault;
pub mod relation;
pub mod sched;
pub mod schema;
pub mod sortcache;
pub mod value;

pub use catalog::Database;
pub use csv::{read_csv, relation_to_csv, write_csv};
pub use delta::{Delta, DeltaUndo};
pub use dict::Dictionary;
pub use error::DataError;
pub use fault::{FaultKind, FaultPlan};
pub use relation::{Column, Relation, RowRef};
pub use schema::{AttrType, Attribute, Schema};
pub use sortcache::{CacheCounters, SortCache};
pub use value::Value;

/// Convenience result alias used across the data layer.
pub type Result<T> = std::result::Result<T, DataError>;
