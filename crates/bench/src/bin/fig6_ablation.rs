//! Regenerates Figure 6: cumulative speedup of specialisation, sharing,
//! and parallelisation for covariance-batch computation on all four
//! datasets. Usage: `fig6_ablation [scale] [threads]`.

use fdb_bench::{datasets4, fig6, print_table};

fn main() {
    let scale = datasets4::scale_from_args();
    let threads = datasets4::threads_from_args();
    let cores = fdb_core::parallel::default_threads();
    println!(
        "\nFigure 6: relative speedup of code optimisations (covariance batch), scale {scale}, \
         {threads} threads on {cores} available cores\n"
    );
    let mut rows = Vec::new();
    for ds in datasets4::all(scale) {
        let row = fig6::measure(&ds, threads);
        let speedups = row.speedups();
        rows.push(
            std::iter::once(row.dataset.to_string())
                .chain(speedups.iter().map(|(_, s)| format!("{s:.1}x")))
                .collect::<Vec<String>>(),
        );
    }
    print_table(&["Dataset", "baseline", "+specialisation", "+sharing", "+parallelisation"], &rows);
}
