//! **Table 1(a–f)** (and the data behind **Figure 3**): times for
//! insert, find (random/inserted), delete (random/inserted) and
//! elements across all nine hash tables and the six input
//! distributions, at one thread and at P threads. `--fig3` keeps the
//! Figure 3 subset (`randomSeq-int`, `trigramSeq-pairInt`).

use phc_bench::ops::{run_table1_rows, OP_NAMES};
use phc_bench::{arg_or_env, datasets, default_threads, has_flag, Grid, Report};

/// Report title suffixes, in `OP_NAMES` order.
const SECTIONS: [&str; 6] = [
    "(a) Insert",
    "(b) Find Random",
    "(c) Find Inserted",
    "(d) Delete Random",
    "(e) Delete Inserted",
    "(f) Elements",
];

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 100_000);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    // Paper: n = 10^8 into 2^28 cells (load ≈ 0.37). Same load here.
    let log2 = (2 * n).next_power_of_two().trailing_zeros().max(4);
    println!(
        "# Table 1 reproduction: n = {n}, table = 2^{log2} cells, P = {threads} threads\n\
         # (paper: n = 10^8, 2^28 cells, 40 cores / 80 hyperthreads)\n"
    );

    let dists: &[&str] = if has_flag(args, "--fig3") {
        &["randomSeq-int", "trigramSeq-pairInt"]
    } else {
        &[
            "randomSeq-int",
            "randomSeq-pairInt",
            "trigramSeq",
            "trigramSeq-pairInt",
            "exptSeq-int",
            "exptSeq-pairInt",
        ]
    };
    let mut grids: Vec<Grid> = OP_NAMES.iter().map(|_| Grid::default()).collect();
    for &dist in dists {
        eprintln!("running {dist} ...");
        let rows = match dist {
            "randomSeq-int" => run_table1_rows(&datasets::random_int(n, 1), log2, threads),
            "randomSeq-pairInt" => run_table1_rows(&datasets::random_pair_int(n, 2), log2, threads),
            "trigramSeq" => {
                let (_owner, data) = datasets::StrDataset::trigram(n, 3, false);
                run_table1_rows(&data, log2, threads)
            }
            "trigramSeq-pairInt" => {
                let (_owner, data) = datasets::StrDataset::trigram(n, 4, true);
                run_table1_rows(&data, log2, threads)
            }
            "exptSeq-int" => run_table1_rows(&datasets::expt_int(n, 5), log2, threads),
            "exptSeq-pairInt" => run_table1_rows(&datasets::expt_pair_int(n, 6), log2, threads),
            _ => unreachable!(),
        };
        for row in rows {
            for (grid, op) in grids.iter_mut().zip(OP_NAMES) {
                grid.add(row.name, row.one.get(op), row.par.map(|p| p.get(op)));
            }
        }
    }

    let reports: Vec<Report> = grids
        .into_iter()
        .zip(SECTIONS)
        .map(|(grid, section)| grid.report(format!("Table 1{section}"), dists))
        .collect();
    for report in &reports {
        report.print();
    }
    reports
}
