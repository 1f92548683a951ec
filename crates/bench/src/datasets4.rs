//! The four evaluation datasets at bench scale (Retailer, Favorita, Yelp,
//! TPC-DS), with a `--scale` knob shared by the table binaries.

use fdb_datasets::{favorita, retailer, tpcds, yelp, Dataset};
use fdb_datasets::{FavoritaConfig, RetailerConfig, TpcdsConfig, YelpConfig};

/// Builds all four datasets. `scale` multiplies the default row counts
/// (1.0 ≈ 10⁵-row fact tables; use 0.05 for quick smoke runs).
pub fn all(scale: f64) -> Vec<Dataset> {
    vec![
        retailer(RetailerConfig::scaled(scale)),
        favorita(FavoritaConfig {
            dates: ((90.0 * scale.cbrt()).ceil() as usize).max(4),
            stores: ((30.0 * scale.cbrt()).ceil() as usize).max(2),
            items: ((200.0 * scale.cbrt()).ceil() as usize).max(10),
            basket: ((40.0 * scale.cbrt()).ceil() as usize).max(4),
            ..FavoritaConfig::default()
        }),
        yelp(YelpConfig {
            users: ((2_000.0 * scale).ceil() as usize).max(20),
            businesses: ((600.0 * scale).ceil() as usize).max(10),
            reviews: ((60_000.0 * scale).ceil() as usize).max(100),
            ..YelpConfig::default()
        }),
        tpcds(TpcdsConfig {
            customers: ((3_000.0 * scale).ceil() as usize).max(30),
            stores: ((25.0 * scale.cbrt()).ceil() as usize).max(3),
            items: ((400.0 * scale).ceil() as usize).max(20),
            dates: ((120.0 * scale.cbrt()).ceil() as usize).max(10),
            sales: ((80_000.0 * scale).ceil() as usize).max(200),
            ..TpcdsConfig::default()
        }),
    ]
}

/// Parses the first CLI argument as a scale factor (default 1.0).
pub fn scale_from_args() -> f64 {
    std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Parses the second CLI argument as a worker-thread count (default: the
/// host's available cores, so a "parallel" row never oversubscribes).
pub fn threads_from_args() -> usize {
    std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(fdb_core::parallel::default_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_builds_all_four() {
        let ds = all(0.01);
        assert_eq!(ds.len(), 4);
        let names: Vec<&str> = ds.iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["Retailer", "Favorita", "Yelp", "TPC-DS"]);
        for d in &ds {
            assert!(d.db.total_rows() > 0, "{} empty", d.name);
        }
    }
}
