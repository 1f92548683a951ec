//! A skew-controlled synthetic snowflake for scheduler experiments.
//!
//! The paper's generators (Retailer &c.) draw foreign keys i.i.d., so any
//! contiguous row split of the fact table gets statistically identical
//! work. This generator instead *clusters* the fact table by its skewed
//! key: heavy keys occupy long contiguous stretches, so equal-row chunks
//! carry very different group structures — the shape that starves a
//! one-thread-per-chunk scheduler and that morsel-sized work units are
//! meant to fix (LMFAO's root morsels, pulled from a shared queue).

use crate::features::FeatureSet;
use crate::util::{gauss, skewed_index, uniform};
use crate::Dataset;
use fdb_data::{AttrType, Database, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale and skew knobs for [`zipf_snowflake`].
#[derive(Debug, Clone, Copy)]
pub struct ZipfConfig {
    /// Fact-table rows.
    pub fact_rows: usize,
    /// Rows per dimension table (key domain size).
    pub dim_rows: usize,
    /// Power-law exponent of the fact→DimA key (0 = uniform; larger
    /// concentrates mass on few keys, see [`skewed_index`]).
    pub skew: f64,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        Self { fact_rows: 40_000, dim_rows: 64, skew: 2.0, seed: 0x51F7 }
    }
}

impl ZipfConfig {
    /// A tiny instance for unit tests.
    pub fn tiny() -> Self {
        Self { fact_rows: 600, dim_rows: 12, skew: 2.0, seed: 11 }
    }
}

/// Generates the skewed snowflake: `Fact(k1, k2, v)` clustered by the
/// Zipf-distributed `k1`, with dimensions `DimA(k1, a, grp)` and
/// `DimB(k2, b)`.
pub fn zipf_snowflake(cfg: ZipfConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dims = cfg.dim_rows.max(1);

    // DimA(k1, a, grp)
    let mut dim_a = Relation::new(Schema::of(&[
        ("k1", AttrType::Int),
        ("a", AttrType::Double),
        ("grp", AttrType::Categorical),
    ]));
    let mut a_vals = Vec::with_capacity(dims);
    for k1 in 0..dims as i64 {
        let a = uniform(&mut rng, -2.0, 2.0);
        a_vals.push(a);
        dim_a
            .push_row(&[Value::Int(k1), Value::F64(a), Value::Int(rng.gen_range(0..6))])
            .expect("generator rows are well-typed");
    }

    // DimB(k2, b)
    let mut dim_b = Relation::new(Schema::of(&[("k2", AttrType::Int), ("b", AttrType::Double)]));
    let mut b_vals = Vec::with_capacity(dims);
    for k2 in 0..dims as i64 {
        let b = uniform(&mut rng, 0.0, 5.0);
        b_vals.push(b);
        dim_b.push_row(&[Value::Int(k2), Value::F64(b)]).expect("generator rows are well-typed");
    }

    // Fact(k1, k2, v): k1 power-law-skewed, then *sorted* so heavy keys
    // form contiguous runs — contiguous morsels see unequal group structure.
    let mut rows: Vec<(i64, i64, f64)> = (0..cfg.fact_rows)
        .map(|_| {
            let k1 = skewed_index(&mut rng, dims, cfg.skew);
            let k2 = rng.gen_range(0..dims as i64);
            let v =
                3.0 * a_vals[k1 as usize] - 0.7 * b_vals[k2 as usize] + gauss(&mut rng, 0.0, 0.5);
            (k1, k2, v)
        })
        .collect();
    rows.sort_by_key(|&(k1, _, _)| k1);
    let mut fact = Relation::new(Schema::of(&[
        ("k1", AttrType::Int),
        ("k2", AttrType::Int),
        ("v", AttrType::Double),
    ]));
    for (k1, k2, v) in rows {
        fact.push_row(&[Value::Int(k1), Value::Int(k2), Value::F64(v)])
            .expect("generator rows are well-typed");
    }

    let mut db = Database::new();
    db.add("Fact", fact);
    db.add("DimA", dim_a);
    db.add("DimB", dim_b);

    Dataset {
        db,
        relations: ["Fact", "DimA", "DimB"].iter().map(|s| s.to_string()).collect(),
        features: FeatureSet::new(&["a", "b"], &["grp"], "v"),
        name: "ZipfSnowflake",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_instance_has_expected_shape() {
        let ds = zipf_snowflake(ZipfConfig::tiny());
        assert_eq!(ds.db.get("Fact").unwrap().len(), 600);
        assert_eq!(ds.db.get("DimA").unwrap().len(), 12);
        assert_eq!(ds.db.get("DimB").unwrap().len(), 12);
        assert_eq!(ds.features.response, "v");
    }

    #[test]
    fn fact_is_clustered_and_skewed() {
        let ds = zipf_snowflake(ZipfConfig::tiny());
        let k1 = ds.db.get("Fact").unwrap().int_col(0);
        assert!(k1.windows(2).all(|w| w[0] <= w[1]), "fact sorted by k1");
        // Skew 2.0 puts far more than a uniform share on the lowest keys.
        let low = k1.iter().filter(|&&k| k < 3).count();
        assert!(low * 2 > k1.len(), "heavy keys carry {low}/{} rows", k1.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = zipf_snowflake(ZipfConfig::tiny());
        let b = zipf_snowflake(ZipfConfig::tiny());
        assert_eq!(a.db.get("Fact").unwrap(), b.db.get("Fact").unwrap());
        assert_eq!(a.db.get("DimA").unwrap(), b.db.get("DimA").unwrap());
    }
}
