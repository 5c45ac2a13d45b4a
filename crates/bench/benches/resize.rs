//! Resizing ablation (ISSUE 2 acceptance): insert-phase throughput
//! when the table must grow from a 16-cell seed, comparing
//!
//! * **stop-the-world** — the `RwLock` rebuild baseline
//!   (`StwResizableTable`): every growth serializes all inserters
//!   behind a write lock;
//! * **cooperative** — the phase-concurrent epoch scheme
//!   (`ResizableTable`): inserters claim migration blocks and share
//!   the copying work;
//! * **preallocated** — a `DetHashTable` already sized for the final
//!   load (no growth at all), the upper bound.
//!
//! The acceptance bar is cooperative-from-16-cells within 2x of
//! preallocated at 8 threads.
//!
//! PR 10 adds a per-op latency probe *during* growth: before the
//! throughput arms run, every insert of the growth workload is timed
//! individually and the p50 / p99 / max are printed per thread count
//! for both the freeze-free incremental scheme and the stop-the-world
//! baseline. The max is the statistic the freeze-free migration
//! exists to fix — one bounded block quota instead of a table-sized
//! stall. (`phc-bench --bin growth` archives the same probe into
//! `BENCH_PR10.json`.)

use criterion::{criterion_group, criterion_main, Criterion};
use phc_bench::StwResizableTable;
use phc_core::{DetHashTable, ResizableTable, U64Key};
use rayon::prelude::*;

const N: usize = 100_000;
/// Preallocated capacity: smallest power of two holding N at load < 3/4
/// (the canonical capacity the growable tables normalize to).
const PREALLOC_LOG2: u32 = 18;
const SEED_LOG2: u32 = 4; // 16 cells

/// Times every insert of a from-16-cells growth run individually and
/// returns the sorted per-op latencies in nanoseconds. The timing
/// overhead (~2 `Instant` reads per op) is identical across schemes,
/// so the comparison stays fair even though absolute throughput drops.
fn growth_latencies_ns(threads: usize, keys: &[u64], stw: bool) -> Vec<u64> {
    phc_parutil::run_with_threads(threads, || {
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
        if stw {
            let t: StwResizableTable<U64Key> = StwResizableTable::new_pow2(SEED_LOG2);
            time_all(&|k| t.insert(U64Key::new(k)))
        } else {
            let t: ResizableTable<U64Key> = ResizableTable::new_pow2(SEED_LOG2);
            time_all(&|k| t.insert(U64Key::new(k)))
        }
    })
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn latency_probe(keys: &[u64]) {
    println!("# Per-op insert latency during growth from 16 cells (ns)");
    println!("# scheme            T    p50      p99      max");
    for threads in [1usize, 2, 4, 8] {
        for (name, stw) in [("freeze-free", false), ("stop-the-world", true)] {
            let l = growth_latencies_ns(threads, keys, stw);
            println!(
                "# {name:<16} {threads:>2} {:>6} {:>8} {:>8}",
                pct(&l, 0.50),
                pct(&l, 0.99),
                l[l.len() - 1],
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    let keys: Vec<u64> = (0..N as u64).map(|i| phc_parutil::hash64(i) | 1).collect();
    latency_probe(&keys);

    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("resize/stop-the-world/from16/{threads}t"), |b| {
            b.iter(|| {
                phc_parutil::run_with_threads(threads, || {
                    let mut t: StwResizableTable<U64Key> = StwResizableTable::new_pow2(SEED_LOG2);
                    t.insert_phase(|t| {
                        keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
                    });
                    t.len()
                })
            })
        });
        c.bench_function(&format!("resize/cooperative/from16/{threads}t"), |b| {
            b.iter(|| {
                phc_parutil::run_with_threads(threads, || {
                    let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(SEED_LOG2);
                    t.insert_phase(|t| {
                        keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
                    });
                    t.len()
                })
            })
        });
        c.bench_function(&format!("resize/preallocated/{threads}t"), |b| {
            b.iter(|| {
                phc_parutil::run_with_threads(threads, || {
                    let t: DetHashTable<U64Key> = DetHashTable::new_pow2(PREALLOC_LOG2);
                    keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
                    t.capacity()
                })
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
