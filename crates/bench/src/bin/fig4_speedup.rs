//! Regenerates Figure 4 (left): LMFAO speedup over the classical engine
//! for the covariance (C) and regression-node (R) batches on all four
//! datasets. Usage: `fig4_speedup [scale] [threads]`.

use fdb_bench::{datasets4, fig4_speedup, fmt_secs, print_table};

fn main() {
    let scale = datasets4::scale_from_args();
    let threads = datasets4::threads_from_args();
    let cores = fdb_core::parallel::default_threads();
    println!(
        "\nFigure 4 (left): LMFAO vs classical one-at-a-time engine, scale {scale}, \
         {threads} threads on {cores} available cores\n"
    );
    let mut rows = Vec::new();
    for ds in datasets4::all(scale) {
        for r in fig4_speedup::measure(&ds, threads) {
            rows.push(vec![
                r.dataset.to_string(),
                r.batch.to_string(),
                r.aggregates.to_string(),
                fmt_secs(r.lmfao_secs),
                fmt_secs(r.classical_secs),
                format!("{:.1}x", r.speedup()),
            ]);
        }
    }
    print_table(&["Dataset", "Batch", "#Aggregates", "LMFAO", "Classical", "Speedup"], &rows);
}
