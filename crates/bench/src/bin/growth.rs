//! Growth-path benchmark: freeze-free incremental migration vs the
//! stop-the-world rebuild, end-to-end and per-op.
//!
//! The PR 10 ablation behind `BENCH_PR10.json`. Two measurements over
//! the same from-16-cells growth workload (`hash64(i) | 1` keys):
//!
//! * **End-to-end growth time** — total milliseconds to insert N keys
//!   into a table seeded at 2^4 cells, for the freeze-free
//!   `ResizableTable`, the `RwLock`-rebuild `StwResizableTable`, and a
//!   preallocated `DetHashTable` upper bound.
//! * **Per-op latency during growth** — every insert timed
//!   individually; p50 / p99 / max nanoseconds per scheme and thread
//!   count. The **max** column is the one the freeze-free migration
//!   exists to shrink: a doubling used to stall the unlucky inserter
//!   for a table-sized copy (stop-the-world still does), while the
//!   freeze-free path pays at most a bounded block quota. The final
//!   report row carries the max-stall ratio (stop-the-world /
//!   freeze-free) at each thread count.
//!
//! With `--features obs` the envelope's counter snapshot witnesses the
//! mechanism: nonzero `migration_helps` and `migration_blocks_claimed`
//! and a populated `migration_stall_nanos` histogram.
//!
//! **1-core MLP caveat** (same as PRs 1/4/9): `nproc` = 1 on this VM,
//! so T=2/T=8 rows are oversubscribed schedules on one core, not
//! parallel speedups — useful for contention/interleaving behavior,
//! not scaling claims. A single core also caps memory-level
//! parallelism, so absolute latencies here understate the multi-core
//! gap between a bounded quota and a table-sized stall (on real
//! hardware every other thread would stall too).
//!
//! Run with `--json FILE` to dump the report envelope; CI and
//! `BENCH_PR10.json` use `--json BENCH_PR10.json`.

use phc_bench::{arg_or_env, report, Report, StwResizableTable};
use phc_core::{DetHashTable, ResizableTable, U64Key};
use phc_parutil::run_with_threads;
use rayon::prelude::*;

const SEED_LOG2: u32 = 4;
/// Preallocated capacity for the upper-bound arm: smallest power of
/// two holding N at load < 3/4.
fn prealloc_log2(n: usize) -> u32 {
    let mut log2 = SEED_LOG2;
    while (1usize << log2) * 3 / 4 < n {
        log2 += 1;
    }
    log2
}

/// Best-of-reps seconds for `f`.
fn secs(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[derive(Clone, Copy, PartialEq)]
enum Scheme {
    FreezeFree,
    Stw,
    Prealloc,
}

impl Scheme {
    fn name(self) -> &'static str {
        match self {
            Scheme::FreezeFree => "freeze-free",
            Scheme::Stw => "stop-the-world",
            Scheme::Prealloc => "preallocated",
        }
    }
}

/// One full growth run under an installed pool; returns final len.
fn grow_once(scheme: Scheme, keys: &[u64], prealloc: u32) -> usize {
    match scheme {
        Scheme::FreezeFree => {
            let t: ResizableTable<U64Key> = ResizableTable::new_pow2(SEED_LOG2);
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            t.len()
        }
        Scheme::Stw => {
            let t: StwResizableTable<U64Key> = StwResizableTable::new_pow2(SEED_LOG2);
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            t.len()
        }
        Scheme::Prealloc => {
            let t: DetHashTable<U64Key> = DetHashTable::new_pow2(prealloc);
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            t.len()
        }
    }
}

/// Times every insert of one growth run individually; returns the
/// sorted per-op latencies in nanoseconds. The probe overhead (two
/// `Instant` reads per op) is identical across schemes, so the
/// scheme-to-scheme comparison stays fair.
fn growth_latencies_ns(scheme: Scheme, keys: &[u64], prealloc: u32) -> Vec<u64> {
    let time_all = |insert: &(dyn Fn(u64) + Sync)| -> Vec<u64> {
        let mut lats: Vec<u64> = keys
            .par_chunks(256)
            .flat_map_iter(|chunk| {
                chunk
                    .iter()
                    .map(|&k| {
                        let t0 = std::time::Instant::now();
                        insert(k);
                        t0.elapsed().as_nanos() as u64
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        lats.sort_unstable();
        lats
    };
    match scheme {
        Scheme::FreezeFree => {
            let t: ResizableTable<U64Key> = ResizableTable::new_pow2(SEED_LOG2);
            time_all(&|k| t.insert(U64Key::new(k)))
        }
        Scheme::Stw => {
            let t: StwResizableTable<U64Key> = StwResizableTable::new_pow2(SEED_LOG2);
            time_all(&|k| t.insert(U64Key::new(k)))
        }
        Scheme::Prealloc => {
            let t: DetHashTable<U64Key> = DetHashTable::new_pow2(prealloc);
            time_all(&|k| t.insert(U64Key::new(k)))
        }
    }
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_or_env(&args, "--n", "PHC_N", 100_000);
    let reps = arg_or_env(&args, "--reps", "PHC_REPS", 3);
    let threads = [1usize, 2, 8];
    let prealloc = prealloc_log2(n);
    println!(
        "# Growth bench: {n} keys from 2^{SEED_LOG2} cells, prealloc 2^{prealloc}, \
         simd = {}, threads = {threads:?}\n",
        phc_core::simd::tier().name()
    );

    let keys: Vec<u64> = (0..n as u64).map(|i| phc_parutil::hash64(i) | 1).collect();
    let schemes = [Scheme::FreezeFree, Scheme::Stw, Scheme::Prealloc];

    let mut total = Report::new(
        format!("End-to-end growth time ({n} keys from 2^{SEED_LOG2} cells)"),
        &["freeze-free ms", "stop-the-world ms", "preallocated ms"],
    );
    for &t in &threads {
        let row: Vec<Option<f64>> = schemes
            .iter()
            .map(|&s| {
                Some(run_with_threads(t, || secs(reps, || grow_once(s, &keys, prealloc))) * 1e3)
            })
            .collect();
        total.push(format!("T={t}"), row);
    }

    let mut latency = Report::new(
        format!("Per-op insert latency during growth (ns, {n} keys)"),
        &["p50", "p99", "max"],
    );
    let mut stall = Report::new(
        "Worst-case per-op stall: stop-the-world max / freeze-free max".to_string(),
        &["ratio"],
    );
    for &t in &threads {
        let mut max_by_scheme = [0u64; 3];
        for (i, &s) in schemes.iter().enumerate() {
            // Best-of-reps by max: the cleanest run still has to pay
            // every migration the schedule forces, so the smallest
            // observed max is the scheme's intrinsic stall, with
            // scheduler noise minimized.
            let best = (0..reps)
                .map(|_| run_with_threads(t, || growth_latencies_ns(s, &keys, prealloc)))
                .min_by_key(|l| l[l.len() - 1])
                .expect("reps >= 1");
            max_by_scheme[i] = best[best.len() - 1];
            latency.push(
                format!("{} T={t}", s.name()),
                vec![
                    Some(pct(&best, 0.50) as f64),
                    Some(pct(&best, 0.99) as f64),
                    Some(best[best.len() - 1] as f64),
                ],
            );
        }
        stall.push(
            format!("T={t}"),
            vec![Some(max_by_scheme[1] as f64 / max_by_scheme[0] as f64)],
        );
    }

    for r in [&total, &latency, &stall] {
        r.print();
    }
    println!(
        "(max-stall ratio > 1 favors freeze-free; see the 1-core MLP caveat in the bin docs)\n"
    );

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_PR10.json");
        report::write_json(path, &[total, latency, stall]).expect("failed to write JSON");
        println!("wrote {path}");
    }
}
