//! **Table 7**: BFS on `3D-grid`, `random`, and `rMat` — serial,
//! deterministic array-based, and the Figure 2 hash-table BFS with
//! each of the four application tables. Every parallel run's level
//! structure is checked against the serial BFS.

use phc_bench::{app_tables, arg_or_env, default_threads, time_once, time_one_par, Grid, Report};
use phc_core::entry::U64Key;
use phc_graphs::bfs::{array_bfs, hash_bfs, levels_from_parents, serial_bfs};
use phc_graphs::Graph;

pub fn run(args: &[String]) -> Vec<Report> {
    let scale = arg_or_env(args, "--scale", "PHC_SCALE", 1);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    println!("# Table 7 reproduction: BFS, scale x{scale}, P = {threads}");
    println!("# (paper: 10^7-vertex graphs; defaults here are ~100x smaller)\n");

    let inputs: Vec<(&str, Graph)> = vec![
        (
            "3D-grid",
            Graph::from_edges(&phc_workloads::grid3d(40 * scale.min(5))),
        ),
        (
            "random",
            Graph::from_edges(&phc_workloads::random_graph(100_000 * scale, 5, 1)),
        ),
        (
            "rMat",
            Graph::from_edges(&phc_workloads::rmat(17, 500_000 * scale, 2)),
        ),
    ];
    let mut grid = Grid::default();
    for (name, g) in &inputs {
        eprintln!("bfs on {name} ({} vertices) ...", g.num_vertices());
        let (ts, reference) = time_once(|| serial_bfs(g, 0));
        grid.add("serial", ts, None);
        let levels = levels_from_parents(&reference, 0);
        let mut row = |label: &str, bfs: &(dyn Fn() -> Vec<i64> + Sync)| {
            let [(one, a), (par, b)] = time_one_par(threads, bfs);
            for parents in [a, b] {
                let got = levels_from_parents(&parents, 0);
                assert_eq!(got, levels, "level structure mismatch on {name}");
            }
            grid.add(label, one, Some(par));
        };
        row("array", &|| array_bfs(g, 0));
        app_tables!(U64Key, |label, make| row(label, &|| hash_bfs(g, 0, make)));
    }

    let names: Vec<&str> = inputs.iter().map(|(name, _)| *name).collect();
    let report = grid.report("Table 7: Breadth-First Search", &names);
    report.print();
    vec![report]
}
