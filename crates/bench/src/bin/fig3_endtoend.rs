//! Regenerates Figure 3 (right): structure-agnostic vs structure-aware
//! end-to-end learning on all four datasets. Usage:
//! `fig3_endtoend [scale] [threads]`.

use fdb_bench::{datasets4, fig3, fmt_bytes, fmt_secs, print_table};

fn main() {
    let scale = datasets4::scale_from_args();
    let threads = datasets4::threads_from_args();
    let cores = fdb_core::parallel::default_threads();
    println!(
        "\nFigure 3 (right): end-to-end linear regression, scale {scale}, \
         {threads} threads on {cores} available cores"
    );
    for ds in datasets4::all(scale) {
        println!("\n{} ({} rows across {} relations)\n", ds.name, ds.db.total_rows(), ds.db.len());
        let r = fig3::end_to_end(&ds, threads);
        let rows = vec![
            vec![
                "Join".into(),
                fmt_secs(r.join_secs),
                fmt_bytes(r.matrix_bytes),
                "—".into(),
                "—".into(),
            ],
            vec![
                "Export+Import".into(),
                fmt_secs(r.export_secs),
                fmt_bytes(r.matrix_bytes),
                "—".into(),
                "—".into(),
            ],
            vec!["Shuffling".into(), fmt_secs(r.shuffle_secs), "—".into(), "—".into(), "—".into()],
            vec![
                "Query batch".into(),
                "—".into(),
                "—".into(),
                fmt_secs(r.batch_secs),
                fmt_bytes(r.stats_bytes),
            ],
            vec![
                "Grad Descent".into(),
                fmt_secs(r.sgd_secs),
                "—".into(),
                fmt_secs(r.gd_secs),
                "—".into(),
            ],
            vec![
                "Total".into(),
                fmt_secs(r.agnostic_total),
                "—".into(),
                fmt_secs(r.aware_total),
                "—".into(),
            ],
        ];
        print_table(
            &["Step", "agnostic (join+SGD)", "agn. size", "aware (LMFAO)", "aware size"],
            &rows,
        );
        println!(
            "\nSpeedup: {:.1}x.  RMSE on 2% held-out: structure-agnostic {:.4}, structure-aware {:.4}.",
            r.agnostic_total / r.aware_total.max(1e-12),
            r.sgd_rmse,
            r.lmfao_rmse
        );
    }
}
