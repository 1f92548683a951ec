//! Databases: named relations plus the dictionaries of their categorical
//! attributes, in a stable insertion order.
//!
//! Relations are held as `Arc<Relation>` so databases can share unmutated
//! tables structurally: a [`Database::snapshot`] (and any clone) holds the
//! *same* `Arc`s — same memory, same [`Relation::data_id`] — so pinning an
//! epoch copies no rows and the cross-query caches keep serving the shared
//! relations. Mutation through [`Database::get_mut`] is copy-on-write
//! (`Arc::make_mut`), so sharing is never observable.

use crate::dict::Dictionary;
use crate::error::DataError;
use crate::relation::Relation;
use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// A catalog of named relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    names: Vec<String>,
    relations: HashMap<String, Arc<Relation>>,
    /// Dictionaries for categorical attributes, keyed by attribute name
    /// (attribute names are global in our star/snowflake schemas).
    /// `Arc`-held for the same reason as relations: snapshots bump a
    /// refcount per dictionary instead of copying string tables, and
    /// [`Database::dict_mut`] is copy-on-write.
    dicts: HashMap<String, Arc<Dictionary>>,
    /// Update-batch epoch: bumped once per successfully committed
    /// [`Database::apply_delta`] (and restored by
    /// [`Database::undo_delta`]). Snapshots pin an epoch, so readers can
    /// tell *which* database state they are serving — the concurrency
    /// story of `fdb-core`'s `ServingEngine`.
    epoch: u64,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a relation under `name`.
    pub fn add(&mut self, name: impl Into<String>, rel: Relation) {
        self.add_shared(name, Arc::new(rel));
    }

    /// Adds (or replaces) a relation under `name`, sharing an existing
    /// `Arc` instead of taking ownership (no copy; the relation keeps its
    /// [`Relation::data_id`]).
    pub fn add_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) {
        let name = name.into();
        if !self.relations.contains_key(&name) {
            self.names.push(name.clone());
        }
        self.relations.insert(name, rel);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .map(|r| r.as_ref())
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Looks up a relation as a shared handle (no copy).
    pub fn get_shared(&self, name: &str) -> Result<Arc<Relation>> {
        self.relations
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Looks up a relation mutably. Copy-on-write: if the relation is
    /// shared with another database (e.g. a snapshot), the shared copy is
    /// detached first, so mutation never leaks into siblings.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Swaps the `Arc` stored under an **existing** `name`, returning the
    /// previous handle — the delta layer's wholesale-replace commit and
    /// undo primitive: unlike [`Database::get_mut`] it never detaches
    /// (copies) the old content, so the caller can keep it as an O(1)
    /// rollback snapshot. `None` (and no change) if `name` is absent.
    pub(crate) fn swap_shared(&mut self, name: &str, rel: Arc<Relation>) -> Option<Arc<Relation>> {
        self.relations.get_mut(name).map(|slot| std::mem::replace(slot, rel))
    }

    /// The update-batch epoch: `0` for a freshly built database, `+1`
    /// per committed [`Database::apply_delta`]. Clones (and
    /// [`Database::snapshot`]s) carry the epoch of the state they pin;
    /// ad-hoc mutation through [`Database::get_mut`] does **not** bump it
    /// — the epoch counts *delta batches*, the unit of change the serving
    /// layer publishes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A consistent snapshot of the current epoch: an O(#relations)
    /// clone of the `Arc<Relation>` map (no row data is copied — the
    /// copy-on-write discipline of [`Database::get_mut`] keeps sharing
    /// unobservable). Readers holding a snapshot see exactly the rows,
    /// [`Relation::data_id`]s, and [`Database::epoch`] of the moment it
    /// was taken, no matter how many deltas a writer applies to the
    /// original afterwards.
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// Bumps the update-batch epoch — the delta layer's commit marker.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Restores a pre-delta epoch (the undo path's twin of
    /// [`Database::bump_epoch`]).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Relation names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the database has no relations.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(name, relation)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.names.iter().map(move |n| (n.as_str(), self.relations[n].as_ref()))
    }

    /// Total number of tuples across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Total approximate byte size across all relations.
    pub fn total_bytes(&self) -> usize {
        self.relations.values().map(|r| r.byte_size()).sum()
    }

    /// The dictionary for categorical attribute `attr`, creating it if
    /// absent. Copy-on-write when the dictionary is shared with a snapshot.
    pub fn dict_mut(&mut self, attr: &str) -> &mut Dictionary {
        Arc::make_mut(self.dicts.entry(attr.to_string()).or_default())
    }

    /// The dictionary for categorical attribute `attr`, if any.
    pub fn dict(&self, attr: &str) -> Option<&Dictionary> {
        self.dicts.get(attr).map(|d| d.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use crate::value::Value;

    fn int_rel(vals: &[i64]) -> Relation {
        Relation::from_rows(
            Schema::of(&[("a", AttrType::Int)]),
            vals.iter().map(|&v| vec![Value::Int(v)]),
        )
        .unwrap()
    }

    #[test]
    fn add_get_and_order() {
        let mut db = Database::new();
        let r = int_rel(&[1, 2]);
        db.add("R", r.clone());
        db.add("S", r.clone());
        assert_eq!(db.names(), &["R".to_string(), "S".to_string()]);
        assert_eq!(db.get("R").unwrap().len(), 2);
        assert!(db.get("T").is_err());
        assert_eq!(db.total_rows(), 4);
        assert_eq!(db.len(), 2);
        // Replacing keeps order and does not duplicate the name.
        db.add("R", r);
        assert_eq!(db.names().len(), 2);
    }

    #[test]
    fn dictionaries_per_attribute() {
        let mut db = Database::new();
        let c = db.dict_mut("city").encode("zurich");
        assert_eq!(c, 0);
        assert_eq!(db.dict("city").unwrap().decode(0), Some("zurich"));
        assert!(db.dict("country").is_none());
    }

    #[test]
    fn get_mut_is_copy_on_write_across_clones() {
        let mut db = Database::new();
        db.add("R", int_rel(&[1, 2]));
        let alias = db.clone();
        db.get_mut("R").unwrap().push_row(&[Value::Int(3)]).unwrap();
        assert_eq!(db.get("R").unwrap().len(), 3);
        assert_eq!(alias.get("R").unwrap().len(), 2, "alias untouched");
    }

    #[test]
    fn snapshot_pins_epoch_and_content_against_later_deltas() {
        use crate::delta::Delta;
        let mut db = Database::new();
        db.add("R", int_rel(&[1, 2]));
        assert_eq!(db.epoch(), 0);
        let snap = db.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert!(Arc::ptr_eq(&snap.get_shared("R").unwrap(), &db.get_shared("R").unwrap()));
        db.apply_delta(&Delta::insert("R", vec![Value::Int(3)])).unwrap();
        assert_eq!(db.epoch(), 1, "a committed delta bumps the epoch");
        assert_eq!(snap.epoch(), 0, "the snapshot stays pinned");
        assert_eq!(snap.get("R").unwrap().len(), 2, "…content included");
        assert_eq!(db.get("R").unwrap().len(), 3);
        // A failed delta does not move the epoch.
        assert!(db.apply_delta(&Delta::delete("R", vec![Value::Int(99)])).is_err());
        assert_eq!(db.epoch(), 1);
        // Ad-hoc mutation does not either: the epoch counts delta batches.
        db.get_mut("R").unwrap().push_row(&[Value::Int(4)]).unwrap();
        assert_eq!(db.epoch(), 1);
    }
}
