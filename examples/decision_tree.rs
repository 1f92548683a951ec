//! In-database CART: train a regression tree on Favorita where every
//! node's split costs come from one LMFAO batch with conjunctive path
//! filters (§2.2) — the data matrix is never materialized.
//!
//! ```bash
//! cargo run --release --example decision_tree
//! ```

use fdb::datasets::{favorita, FavoritaConfig};
use fdb::lmfao::{parallel::default_threads, LmfaoEngine};
use fdb::ml::tree::{DecisionTree, Node, TreeConfig};
use fdb::query::natural_join_all;

fn print_tree(node: &Node, indent: usize) {
    let pad = "  ".repeat(indent);
    match node {
        Node::Leaf { prediction, count } => {
            println!("{pad}-> predict {prediction:.2} ({count} tuples)");
        }
        Node::Split { split, left, right } => {
            println!("{pad}if {split:?}:");
            print_tree(left, indent + 1);
            println!("{pad}else:");
            print_tree(right, indent + 1);
        }
    }
}

fn main() {
    let ds = favorita(FavoritaConfig::default());
    let rels: Vec<&str> = ds.relation_refs();
    let engine = LmfaoEngine::new();
    println!(
        "Favorita: {} sales rows, {} threads on {} available cores",
        ds.db.get("Sales").unwrap().len(),
        engine.cfg.threads,
        default_threads()
    );
    let tree = DecisionTree::fit_regression(
        &ds.db,
        &rels,
        &["txns", "oilprize"],
        &["onpromotion", "holidaytype", "perishable"],
        "unitsales",
        TreeConfig { max_depth: 3, min_samples: 50.0, thresholds: 8, min_gain: 1e-6 },
        &engine,
    )
    .unwrap();
    println!(
        "Trained a {}-leaf tree with {} LMFAO batches (one per node):",
        tree.leaves(),
        tree.batches_run
    );
    print_tree(&tree.root, 0);

    // Evaluate against predicting the global mean.
    let flat = natural_join_all(&ds.db, &rels).unwrap();
    let ycol = flat.schema().require("unitsales").unwrap();
    let mean: f64 =
        (0..flat.len()).map(|r| flat.value_f64(r, ycol)).sum::<f64>() / flat.len() as f64;
    let (mut sse_tree, mut sse_mean) = (0.0, 0.0);
    for r in 0..flat.len() {
        let y = flat.value_f64(r, ycol);
        sse_tree += (y - tree.predict_row(&flat, r).unwrap()).powi(2);
        sse_mean += (y - mean).powi(2);
    }
    println!(
        "variance explained: {:.1}% (tree SSE {:.0} vs mean SSE {:.0})",
        100.0 * (1.0 - sse_tree / sse_mean),
        sse_tree,
        sse_mean
    );
}
