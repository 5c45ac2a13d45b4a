//! **Table 8**: spanning forest — serial, array-based deterministic
//! reservations, and the hash-table-reservation variants. Every run's
//! output is checked to be a spanning forest.

use phc_bench::{app_tables, arg_or_env, default_threads, time_once, time_one_par, Grid, Report};
use phc_core::entry::{KeepMin, KvPair};
use phc_graphs::spanning_forest::{
    array_spanning_forest, hash_spanning_forest, is_spanning_forest, serial_spanning_forest,
};
use phc_workloads::graphs::EdgeList;

pub fn run(args: &[String]) -> Vec<Report> {
    let scale = arg_or_env(args, "--scale", "PHC_SCALE", 1);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    println!("# Table 8 reproduction: spanning forest, scale x{scale}, P = {threads}");
    println!("# (paper: 10^7-vertex graphs; defaults here are ~100x smaller)\n");

    let inputs: Vec<(&str, EdgeList)> = vec![
        ("3D-grid", phc_workloads::grid3d(40 * scale.min(5))),
        ("random", phc_workloads::random_graph(100_000 * scale, 5, 1)),
        ("rMat", phc_workloads::rmat(17, 500_000 * scale, 2)),
    ];
    let mut grid = Grid::default();
    for (name, el) in &inputs {
        eprintln!("spanning forest on {name} ({} edges) ...", el.edges.len());
        let (ts, fs) = time_once(|| serial_spanning_forest(el));
        assert!(is_spanning_forest(el, &fs));
        grid.add("serial", ts, None);
        let mut row = |label: &str, forest: &(dyn Fn() -> Vec<usize> + Sync)| {
            let [(one, a), (par, b)] = time_one_par(threads, forest);
            for f in [a, b] {
                assert!(is_spanning_forest(el, &f), "invalid forest on {name}");
            }
            grid.add(label, one, Some(par));
        };
        row("array", &|| array_spanning_forest(el));
        app_tables!(KvPair<KeepMin>, |label, make| {
            row(label, &|| hash_spanning_forest(el, make))
        });
    }

    let names: Vec<&str> = inputs.iter().map(|(name, _)| *name).collect();
    let report = grid.report("Table 8: Spanning Forest", &names);
    report.print();
    vec![report]
}
