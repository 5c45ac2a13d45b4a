//! **Figure 5**: nanoseconds per operation on
//! `linearHash-D` as the load factor grows — insert and delete costs
//! must climb steeply as the table approaches full, while finds of
//! random keys stay flat longer (the history-independent layout makes
//! unsuccessful finds cheap).
//!
//! Two companion tables explain the wall-clock curve through
//! mechanism:
//!
//! * a quiescent displacement table (mean/max/home-fraction of the
//!   layout at each load, via `phc_core::stats`), always emitted;
//! * with the `obs` cargo feature, live per-insert counters and a
//!   power-of-two probe-length histogram taken from snapshot deltas
//!   around each timed insert phase.
//!
//! With `--json FILE` the envelope carries (with `obs`) the full
//! metrics snapshot, timeline included.

use phc_bench::{arg_or_env, default_threads, time_in_pool, Report};
use phc_core::phase::{ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable};
use phc_core::{DetHashTable, U64Key};
use phc_obs::{Histogram, MetricsSnapshot, Recorder};
use rayon::prelude::*;

pub fn run(args: &[String]) -> Vec<Report> {
    let log2 = arg_or_env(args, "--log2", "PHC_LOG2", 20) as u32;
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    let ops = arg_or_env(args, "--ops", "PHC_OPS", 100_000);
    let size = 1usize << log2;
    println!(
        "# Figure 5 reproduction: table = 2^{log2} cells, {ops} timed ops per point, P = {threads}"
    );
    println!("# (paper: 2^27 cells; values are ns/op)\n");

    // The paper's sweep, plus 1/3 and 3/4 — the loads EXPERIMENTS.md
    // discusses against the Figure 5 narrative.
    let loads: [f64; 12] = [
        0.1,
        0.2,
        1.0 / 3.0,
        0.4,
        0.5,
        0.6,
        0.7,
        0.75,
        0.8,
        0.9,
        0.95,
        0.98,
    ];
    let labels: Vec<String> = loads
        .iter()
        .map(|l| format!("{}", (l * 100.0).round() / 100.0))
        .collect();
    let col_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new("Figure 5: ns per op vs load (linearHash-D)", &col_refs);
    let mut quiescent = Report::new(
        "Quiescent displacement by load (linearHash-D)",
        &["mean", "max", "home-fraction"],
    );

    let mut insert_ns = Vec::new();
    let mut find_ns = Vec::new();
    let mut delete_ns = Vec::new();
    // Per-load observability deltas around the timed insert phase
    // (all-zero without the `obs` feature).
    let mut insert_deltas: Vec<MetricsSnapshot> = Vec::new();
    let mut ops_per_load: Vec<usize> = Vec::new();
    for (load, label) in loads.iter().zip(&labels) {
        // Keys 1..=fill_n fill the table; the timed ops use the next ones.
        let fill_n = (size as f64 * load) as usize;
        let table: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
        (1..=fill_n as u64)
            .into_par_iter()
            .with_min_len(1024)
            .for_each(|k| table.insert(U64Key::new(k)));
        let mut table = table;

        // Mechanism companion: displacement stats of the quiescent
        // layout at this load (also mirrored into the obs histogram).
        let stats = phc_core::stats::record_probe_histogram::<U64Key>(&table.snapshot());
        quiescent.push(
            format!("load {label}"),
            vec![
                Some(stats.mean()),
                Some(stats.max() as f64),
                Some(stats.home_fraction()),
            ],
        );

        // Timed inserts of fresh keys — capped so the table never
        // exceeds ~99% full even at the highest measured load.
        let headroom = (size - fill_n).saturating_sub(size / 100).max(16);
        let n_fresh = ops.min(headroom);
        let fresh: Vec<u64> = (1..=n_fresh as u64).map(|i| fill_n as u64 + i).collect();
        let ops = n_fresh;
        let before = Recorder::global().snapshot();
        let (ti, ()) = time_in_pool(threads, || {
            let ins = table.begin_insert();
            fresh
                .par_iter()
                .with_min_len(512)
                .for_each(|&k| ins.insert(U64Key::new(k)));
        });
        insert_deltas.push(Recorder::global().snapshot().since(&before));
        ops_per_load.push(ops);
        insert_ns.push(Some(ti * 1e9 / ops as f64));
        // Timed finds of random (mostly absent) keys.
        let probes: Vec<u64> = (0..ops as u64)
            .map(|i| phc_parutil::hash64(i) | 1)
            .collect();
        let (tf, ()) = time_in_pool(threads, || {
            let reader = table.begin_read();
            probes.par_iter().with_min_len(512).for_each(|&k| {
                std::hint::black_box(reader.find(U64Key::new(k)));
            });
        });
        find_ns.push(Some(tf * 1e9 / ops as f64));
        // Timed deletes of the fresh keys (restores the fill).
        let (td, ()) = time_in_pool(threads, || {
            let del = table.begin_delete();
            fresh
                .par_iter()
                .with_min_len(512)
                .for_each(|&k| del.delete(U64Key::new(k)));
        });
        delete_ns.push(Some(td * 1e9 / ops as f64));
        eprintln!("load {label}: done");
    }
    report.push("insert", insert_ns);
    report.push("find-random", find_ns);
    report.push("delete", delete_ns);
    report.print();
    quiescent.print();

    let mut reports = vec![report, quiescent];
    if Recorder::ENABLED {
        reports.push(live_counters_report(
            &col_refs,
            &insert_deltas,
            &ops_per_load,
        ));
        reports.push(probe_histogram_report(&labels, &insert_deltas));
        for r in &reports[2..] {
            r.print();
        }
    }
    reports
}

/// Live per-insert counters from the obs deltas: the Figure 5 curve's
/// mechanism, measured on the timed run itself rather than a quiescent
/// rescan.
fn live_counters_report(
    cols: &[&str],
    deltas: &[MetricsSnapshot],
    ops_per_load: &[usize],
) -> Report {
    use phc_obs::Counter;
    let mut r = Report::new("obs: live insert counters per op vs load", cols);
    for (name, c) in [
        ("probe-steps/op", Counter::ProbeSteps),
        ("cas-fails/op", Counter::InsertCasFail),
        ("priority-swaps/op", Counter::PrioritySwap),
    ] {
        let row: Vec<Option<f64>> = deltas
            .iter()
            .zip(ops_per_load)
            .map(|(d, &n)| Some(d.counter(c) as f64 / n.max(1) as f64))
            .collect();
        r.push(name, row);
    }
    r
}

/// Probe-length distribution of the timed inserts, one row per load,
/// power-of-two buckets as columns (trimmed to the occupied prefix).
fn probe_histogram_report(labels: &[String], deltas: &[MetricsSnapshot]) -> Report {
    let maxb = deltas
        .iter()
        .filter_map(|d| d.buckets(Histogram::ProbeLen).iter().rposition(|&x| x > 0))
        .max()
        .unwrap_or(0);
    let cols: Vec<String> = (0..=maxb).map(phc_obs::hist::bucket_label).collect();
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut r = Report::new(
        "obs: insert probe-length histogram (samples per pow2 bucket)",
        &col_refs,
    );
    for (label, d) in labels.iter().zip(deltas) {
        let buckets = d.buckets(Histogram::ProbeLen);
        r.push(
            format!("load {label}"),
            buckets[..=maxb].iter().map(|&b| Some(b as f64)).collect(),
        );
    }
    r
}
