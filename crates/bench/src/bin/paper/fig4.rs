//! **Figure 4**: speedup of `linearHash-D` over `serialHash-HI` as
//! the thread count doubles from 1 up to `--threads`, on
//! `randomSeq-int` and `trigramSeq-pairInt`.
//!
//! Note: on a single-core host every point collapses to ≈ 1× — the
//! harness still sweeps and reports so that multi-core runs reproduce
//! the curve (EXPERIMENTS.md records this).

use phc_bench::ops::{run_ops, run_serial_ops, OP_NAMES};
use phc_bench::{arg_or_env, datasets, default_threads, OpResults, Report};
use phc_core::DetHashTable;

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 200_000);
    let max_t = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    let log2 = (2 * n).next_power_of_two().trailing_zeros().max(4);
    let mut threads: Vec<usize> = vec![1];
    while *threads.last().unwrap() * 2 <= max_t {
        threads.push(threads.last().unwrap() * 2);
    }
    if *threads.last().unwrap() != max_t {
        threads.push(max_t);
    }
    println!("# Figure 4 reproduction: speedup vs serialHash-HI, n = {n}, threads = {threads:?}\n");

    let mut reports = Vec::new();
    let mut add = |title: &str, serial: OpResults, per_thread: Vec<OpResults>| {
        let cols: Vec<String> = threads.iter().map(|t| format!("T={t}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut report = Report::new(format!("Figure 4: speedup, {title}"), &col_refs);
        for op in OP_NAMES {
            let values = per_thread
                .iter()
                .map(|r| Some(serial.get(op) / r.get(op)))
                .collect();
            report.push(op, values);
        }
        report.print();
        println!("(values are speedup factors, not seconds)\n");
        reports.push(report);
    };

    let data = datasets::random_int(n, 1);
    let serial = run_serial_ops(true, log2, &data);
    let per: Vec<_> = threads
        .iter()
        .map(|&t| run_ops(DetHashTable::new_pow2, log2, &data, t))
        .collect();
    add("randomSeq-int", serial, per);

    let (_owner, data) = datasets::StrDataset::trigram(n, 2, true);
    let serial = run_serial_ops(true, log2, &data);
    let per: Vec<_> = threads
        .iter()
        .map(|&t| run_ops(DetHashTable::new_pow2, log2, &data, t))
        .collect();
    add("trigramSeq-pairInt", serial, per);
    reports
}
