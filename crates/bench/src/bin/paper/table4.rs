//! **Table 4**: the hash-table portion of one iteration of Delaunay
//! refinement — the insertions of a round's bad triangles plus a call
//! to `elements()`, timed on `phc_geometry::refine`'s own
//! `rank_bad_triangles` — on the `2DinCube` and `2Dkuzmin`
//! triangulations.
//!
//! Scaled from the paper's 5M points to `--n` (default 30k; the shape
//! — linear probing beating cuckoo beating chained — is size-stable).

use phc_bench::{app_tables, arg_or_env, default_threads, time_once, time_one_par, Grid, Report};
use phc_core::entry::U64Key;
use phc_core::DetHashTable;
use phc_geometry::refine::{bad_triangles, rank_bad_triangles};
use phc_geometry::{refine, triangulate};

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 30_000);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    let min_angle = 26.0;
    println!("# Table 4 reproduction: Delaunay refinement hash portion, {n} points, P = {threads}");
    println!("# (paper: 5M points; also runs one real refinement to report convergence)\n");

    let mut grid = Grid::default();
    for (d, pts) in [
        phc_workloads::in_cube_2d(n, 11),
        phc_workloads::kuzmin_2d(n, 12),
    ]
    .iter()
    .enumerate()
    {
        eprintln!("triangulating input {d} ...");
        let mesh = triangulate(pts);
        let bad = bad_triangles(&mesh, min_angle);
        eprintln!("  {} bad triangles", bad.len());
        app_tables!(U64Key, |label, make| {
            let [(one, _), (par, _)] =
                time_one_par(threads, || rank_bad_triangles(&bad, make).len());
            grid.add(label, one, Some(par));
        });
    }
    let report = grid.report(
        "Table 4: Delaunay Refinement (hash portion)",
        &["2DinCube", "2Dkuzmin"],
    );
    report.print();

    // End-to-end sanity: run the full deterministic refinement once.
    let pts = phc_workloads::in_cube_2d(n.min(20_000), 11);
    let mut mesh = triangulate(&pts);
    let (t, stats) = time_once(|| {
        refine(
            &mut mesh,
            min_angle,
            10 * n,
            DetHashTable::<U64Key>::new_pow2,
        )
    });
    println!(
        "full refinement (linearHash-D): {:.3}s, {} rounds, {} points added, {} bad left",
        t, stats.rounds, stats.points_added, stats.final_bad
    );
    vec![report]
}
