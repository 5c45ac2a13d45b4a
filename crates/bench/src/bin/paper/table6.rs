//! **Table 6**: one round of edge contraction (relabel by a maximal
//! matching, deduplicate through a hash table with `+` combining) on
//! `3D-grid`, `random`, and `rMat`.
//!
//! The matching (relabeling) is computed once, untimed — exactly the
//! paper's setup. linearHash-ND runs its `xadd` fast path instead.

use phc_bench::{app_tables, arg_or_env, default_threads, time_one_par, Grid, Report};
use phc_graphs::edge_contraction::{contract, contract_nd_xadd, matching_labels, EdgeEntry};
use phc_workloads::graphs::EdgeList;

pub fn run(args: &[String]) -> Vec<Report> {
    let scale = arg_or_env(args, "--scale", "PHC_SCALE", 1);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    println!("# Table 6 reproduction: edge contraction, scale x{scale}, P = {threads}");
    println!("# (paper: 10^7-vertex graphs; defaults here are ~100x smaller)\n");

    let inputs: Vec<(&str, EdgeList)> = vec![
        (
            "3D-grid",
            phc_workloads::grid3d(crate::grid_side(32, scale)),
        ),
        ("random", phc_workloads::random_graph(100_000 * scale, 5, 1)),
        ("rMat", phc_workloads::rmat(17, 500_000 * scale, 2)),
    ];
    let mut grid = Grid::default();
    for (name, el) in &inputs {
        eprintln!("matching {name} ({} edges) ...", el.edges.len());
        let labels = matching_labels(el);
        app_tables!(EdgeEntry, |label, make| {
            // ND with the hardware-add fast path (the paper's asymmetry).
            let (label, [(one, _), (par, _)]) = if label == "linearHash-ND" {
                (
                    "linearHash-ND (xadd)",
                    time_one_par(threads, || contract_nd_xadd(el, &labels).len()),
                )
            } else {
                (
                    label,
                    time_one_par(threads, || contract(el, &labels, make).len()),
                )
            };
            grid.add(label, one, Some(par));
        });
    }

    let names: Vec<&str> = inputs.iter().map(|(name, _)| *name).collect();
    let report = grid.report("Table 6: Edge Contraction", &names);
    report.print();
    vec![report]
}
