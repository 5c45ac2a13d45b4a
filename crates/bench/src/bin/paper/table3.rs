//! **Table 3**: remove duplicates on `randomSeq-int`,
//! `trigramSeq-pairInt`, and `exptSeq-int`, timed on the root
//! package's `dedup::remove_duplicates` for the four application
//! tables.

use phase_concurrent_hashing::dedup::remove_duplicates;
use phc_bench::{app_tables, arg_or_env, datasets, default_threads, time_one_par, Grid, Report};
use phc_core::entry::HashEntry;

fn add_input<E: HashEntry>(grid: &mut Grid, input: &[E], threads: usize) {
    app_tables!(E, |label, make| {
        let [(one, _), (par, _)] = time_one_par(threads, || remove_duplicates(input, make).len());
        grid.add(label, one, Some(par));
    });
}

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 200_000);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    println!("# Table 3 reproduction: remove duplicates, n = {n}, P = {threads}\n");

    let mut grid = Grid::default();
    add_input(&mut grid, &datasets::random_int(n, 1).inserted, threads);
    let (_owner, tg) = datasets::StrDataset::trigram(n, 2, true);
    add_input(&mut grid, &tg.inserted, threads);
    add_input(&mut grid, &datasets::expt_int(n, 3).inserted, threads);

    let report = grid.report(
        "Table 3: Remove Duplicates",
        &["randomSeq-int", "trigram-pairInt", "exptSeq-int"],
    );
    report.print();
    vec![report]
}
