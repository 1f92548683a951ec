//! Inputs, made from the seed alone: generator configs, the CSV bytes a
//! cold operation ingests, the held-out rows it predicts, and delta streams.
//! The same seed gives the same bytes; the library only ever sees these
//! generated inputs, never the seed.

use fdb::data::{read_csv, relation_to_csv, DataError, Database, Delta, Relation, Schema, Value};
use fdb::datasets::{retailer, zipf_snowflake, Dataset, RetailerConfig, ZipfConfig};
use fdb::query::natural_join_all;

/// splitmix64: small, seedable, and the same everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sub-seed for one purpose, so streams drawn from one `--seed` do not
/// overlap.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let mut r = Rng::new(seed);
    for b in purpose.bytes() {
        r.0 ^= u64::from(b);
        r.next_u64();
    }
    r.next_u64()
}

pub fn retailer_at(scale: f64, seed: u64) -> Dataset {
    retailer(RetailerConfig { seed: sub_seed(seed, "retailer"), ..RetailerConfig::scaled(scale) })
}

pub fn zipf_at(fact_rows: usize, dim_rows: usize, seed: u64) -> Dataset {
    zipf_snowflake(ZipfConfig { fact_rows, dim_rows, skew: 2.0, seed: sub_seed(seed, "zipf") })
}

/// Attribute names of a dataset as the engines take them.
pub struct Features {
    pub relations: Vec<String>,
    /// Continuous features, response excluded.
    pub continuous: Vec<String>,
    pub categorical: Vec<String>,
    pub response: String,
}

fn refs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

impl Features {
    pub fn of(ds: &Dataset) -> Self {
        Self {
            relations: ds.relations.clone(),
            continuous: ds.features.continuous.clone(),
            categorical: ds.features.categorical.clone(),
            response: ds.features.response.clone(),
        }
    }

    pub fn rels(&self) -> Vec<&str> {
        refs(&self.relations)
    }

    pub fn cont(&self) -> Vec<&str> {
        refs(&self.continuous)
    }

    /// Continuous features with the response last, the column set of the
    /// covariance batch.
    pub fn cont_with_response(&self) -> Vec<&str> {
        let mut v = self.cont();
        v.push(&self.response);
        v
    }

    pub fn cat(&self) -> Vec<&str> {
        refs(&self.categorical)
    }
}

/// One relation as the bytes a cold operation starts from.
pub struct CsvTable {
    pub name: String,
    pub schema: Schema,
    pub bytes: Vec<u8>,
}

/// Parses every table into a fresh database. Fresh relations carry fresh
/// content ids, so nothing an earlier operation cached can be served: this
/// is how an operation is made cold without touching any cache API.
pub fn ingest(tables: &[CsvTable]) -> Result<Database, DataError> {
    let mut db = Database::new();
    for t in tables {
        db.add(t.name.clone(), read_csv(t.schema.clone(), &t.bytes)?);
    }
    Ok(db)
}

pub fn to_csv(db: &Database, relations: &[String]) -> Result<Vec<CsvTable>, DataError> {
    relations
        .iter()
        .map(|name| {
            let rel = db.get(name)?;
            Ok(CsvTable {
                name: name.clone(),
                schema: rel.schema().clone(),
                bytes: relation_to_csv(rel),
            })
        })
        .collect()
}

/// Every 50th fact row is held out.
const HELD_OUT_EVERY: usize = 50;

/// Held-out rows joined flat, and their true responses.
pub struct HeldOut {
    pub flat: Relation,
    pub y: Vec<f64>,
}

impl HeldOut {
    /// Root mean squared error of `preds` against the held-out responses.
    pub fn rmse(&self, preds: &[f64]) -> f64 {
        let se: f64 = preds.iter().zip(&self.y).map(|(p, y)| (p - y) * (p - y)).sum();
        (se / self.y.len().max(1) as f64).sqrt()
    }

    /// The error of always predicting the held-out mean: a model with any
    /// signal beats it.
    pub fn rmse_of_mean(&self) -> f64 {
        let mean = self.y.iter().sum::<f64>() / self.y.len().max(1) as f64;
        self.rmse(&vec![mean; self.y.len()])
    }
}

/// The training side of a dataset: CSV of everything but the held-out
/// fact rows, and the held-out rows joined flat once.
pub struct TrainInput {
    pub features: Features,
    pub tables: Vec<CsvTable>,
    /// Rows of the training join, what `SUM(1)` must come to.
    pub train_rows: usize,
    pub held_out: HeldOut,
}

impl TrainInput {
    pub fn csv_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.bytes.len()).sum()
    }
}

/// Splits the fact table (the first relation) of `ds` 98:2 and serialises
/// the training side.
pub fn train_input(ds: &Dataset) -> Result<TrainInput, DataError> {
    let features = Features::of(ds);
    let fact_name = &ds.relations[0];
    let fact = ds.db.get(fact_name)?;
    let (held, train): (Vec<usize>, Vec<usize>) =
        (0..fact.len()).partition(|r| r % HELD_OUT_EVERY == HELD_OUT_EVERY / 2);
    let with_fact = |rows: &[usize]| -> Result<Database, DataError> {
        let mut db = Database::new();
        db.add(fact_name.clone(), fact.permuted(rows));
        for name in &ds.relations[1..] {
            db.add(name.clone(), ds.db.get(name)?.clone());
        }
        Ok(db)
    };
    let flat = natural_join_all(&with_fact(&held)?, &features.rels())?;
    let y = flat.try_f64_col(flat.schema().require(&features.response)?)?.to_vec();
    if flat.len() != held.len() {
        return Err(DataError::Invalid(format!(
            "{} held-out fact rows joined to {} rows: the generator's keys are not closed",
            held.len(),
            flat.len()
        )));
    }
    let tables = to_csv(&with_fact(&train)?, &ds.relations)?;
    Ok(TrainInput { features, tables, train_rows: train.len(), held_out: HeldOut { flat, y } })
}

/// The kinds of update in a refresh stream; they take different paths
/// through maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// One fact row inserted.
    Fact1,
    /// 64 fact rows inserted in one delta.
    Fact64,
    /// One fact row deleted that an earlier delta inserted.
    Delete,
    /// A price update on the `Item` dimension: delete plus insert.
    Dim,
}

pub const DELTA_KINDS: [DeltaKind; 4] =
    [DeltaKind::Fact1, DeltaKind::Fact64, DeltaKind::Delete, DeltaKind::Dim];

#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOp {
    pub kind: DeltaKind,
    pub delta: Delta,
}

/// A stream is cut into blocks of this many deltas; a mix says how many of
/// each [`DeltaKind`] (in [`DELTA_KINDS`] order) a block holds. Only the
/// order inside a block is drawn from the seed, so every seed carries the
/// same work: 75 % single-row inserts, 10 % 64-row inserts, 10 % deletes,
/// 5 % price updates, to the delta.
pub const MIX_BLOCK: usize = 20;
pub const REFRESH_MIX: [usize; 4] = [15, 2, 2, 1];
pub const INSERT_ONLY: [usize; 4] = [MIX_BLOCK, 0, 0, 0];

/// A seeded stream of `n` deltas against a Retailer dataset. Every delta
/// applies: inserts reuse the key triple of an existing fact row, so the
/// join stays closed and each inserted fact row adds exactly one join row;
/// deletes name a row the stream itself inserted and has not yet deleted;
/// price updates track the current `Item` rows.
pub fn delta_stream(
    ds: &Dataset,
    seed: u64,
    n: usize,
    mix: [usize; 4],
) -> Result<Vec<DeltaOp>, DataError> {
    assert_eq!(mix.iter().sum::<usize>(), MIX_BLOCK, "a mix fills one block");
    let fact = ds.db.get("Inventory")?;
    let item = ds.db.get("Item")?;
    let prize = item.schema().require("prize")?;
    let mut items: Vec<Vec<Value>> = (0..item.len()).map(|r| item.row_vec(r)).collect();
    let mut live: Vec<Vec<Value>> = Vec::new();
    let mut rng = Rng::new(sub_seed(seed, "deltas"));
    let units = fact.schema().require("inventoryunits")?;
    let fact_row = |rng: &mut Rng| {
        let mut row = fact.row_vec(rng.below(fact.len()));
        row[units] = Value::F64((rng.unit() * 40.0 * 1024.0).round() / 1024.0);
        row
    };
    let mut out = Vec::with_capacity(n);
    let mut block: Vec<DeltaKind> = Vec::with_capacity(MIX_BLOCK);
    for _ in 0..n {
        if block.is_empty() {
            for (kind, count) in DELTA_KINDS.iter().zip(mix) {
                block.extend(std::iter::repeat_n(*kind, count));
            }
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        let mut kind = block.pop().expect("just refilled");
        // Only before the stream's first insert.
        if kind == DeltaKind::Delete && live.is_empty() {
            kind = DeltaKind::Fact1;
        }
        let delta = match kind {
            DeltaKind::Fact1 => {
                let row = fact_row(&mut rng);
                live.push(row.clone());
                Delta::insert("Inventory", row)
            }
            DeltaKind::Fact64 => {
                let mut d = Delta::new("Inventory");
                for _ in 0..64 {
                    d.push_insert(fact_row(&mut rng));
                }
                d
            }
            DeltaKind::Delete => {
                Delta::delete("Inventory", live.swap_remove(rng.below(live.len())))
            }
            DeltaKind::Dim => {
                let k = rng.below(items.len());
                let old = items[k].clone();
                items[k][prize] = Value::F64(1.0 + (rng.unit() * 39.0 * 64.0).round() / 64.0);
                Delta::delete("Item", old).with_insert(items[k].clone())
            }
        };
        out.push(DeltaOp { kind, delta });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            assert!(a.below(13) < 13);
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(sub_seed(1, "deltas"), sub_seed(1, "retailer"));
        assert_ne!(sub_seed(1, "deltas"), sub_seed(2, "deltas"));
    }

    #[test]
    fn same_seed_gives_byte_identical_delta_stream() {
        let ds = retailer_at(0.02, 5);
        let bytes = |seed| format!("{:?}", delta_stream(&ds, seed, 400, REFRESH_MIX).unwrap());
        assert_eq!(bytes(5), bytes(5));
        assert_ne!(bytes(5), bytes(6));
    }

    #[test]
    fn stream_has_the_stated_mix_and_every_delta_applies() {
        let ds = retailer_at(0.02, 3);
        let stream = delta_stream(&ds, 3, 2000, REFRESH_MIX).unwrap();
        // Exact, but for a delete drawn before the first insert.
        let count = |k| stream.iter().filter(|o| o.kind == k).count();
        assert!((1500..=1501).contains(&count(DeltaKind::Fact1)));
        assert_eq!(count(DeltaKind::Fact64), 200);
        assert!((199..=200).contains(&count(DeltaKind::Delete)));
        assert_eq!(count(DeltaKind::Dim), 100);
        assert!(stream.chunks(MIX_BLOCK).all(|b| b
            .iter()
            .filter(|o| o.kind == DeltaKind::Dim)
            .count()
            == 1));
        let mut db = ds.db.clone();
        for op in &stream {
            db.apply_delta(&op.delta).expect("a generated delta must apply");
        }
        let inserts = delta_stream(&ds, 3, 50, INSERT_ONLY).unwrap();
        assert!(inserts.iter().all(|o| o.kind == DeltaKind::Fact1 && o.delta.len() == 1));
    }

    #[test]
    fn train_input_splits_98_to_2_and_round_trips_csv() {
        let ds = retailer_at(0.02, 1);
        let input = train_input(&ds).unwrap();
        let fact_rows = ds.db.get("Inventory").unwrap().len();
        assert_eq!(input.train_rows + input.held_out.y.len(), fact_rows);
        assert!(input.held_out.y.len() * 40 < fact_rows && !input.held_out.y.is_empty());
        let db = ingest(&input.tables).unwrap();
        assert_eq!(db.get("Inventory").unwrap().len(), input.train_rows);
        assert_eq!(db.get("Item").unwrap(), ds.db.get("Item").unwrap());
        assert!(input.held_out.rmse_of_mean() > 0.0);
        assert_eq!(input.held_out.rmse(&input.held_out.y), 0.0);
    }
}
