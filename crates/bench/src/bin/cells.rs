//! Cell-width benchmark: packed 32-bit cells vs the 64-bit baseline.
//!
//! The same logical key/value workload runs through
//! `DetHashTable<KvPair>` (one `AtomicU64` per cell) and
//! `DetHashTable<KvPair32>` (one `AtomicU32` per cell, 16-bit key /
//! 16-bit value packed). Halving the cell width
//! doubles both the cells per cache line and the lanes per SIMD vector
//! (8 × u32 per AVX2 register vs 4 × u64), so probe-bound phases get
//! faster while the table's footprint halves.
//!
//! For each load factor (1/3, 1/2, 3/4 of a 2^`--log2` cell table) and
//! thread count (1, 2, 8), measures find and insert throughput for
//! both widths over the *same* scrambled key sequence. The find
//! workload interleaves present and absent keys 50/50 (unsuccessful
//! searches scan whole clusters — where lane width pays most); the
//! insert workload prefills two thirds untimed and times the final
//! third, probing clusters of the labeled density.
//!
//! Two memory reports ride along: bytes-per-key at each load for both
//! widths (the ratio is exactly cell-width/cell-width = 0.5, reported
//! so the archived JSON carries the claim), and a shrink-cycle trace
//! on `AutoPhaseGrowTable<KvPair32>` — grow to tens of thousands of
//! keys, delete down to a sliver, delete to empty — recording the
//! deterministic capacity walk-down and the process RSS at each stage.
//!
//! Run with `--json FILE` to dump the report envelope. With
//! `--features obs` the envelope's obs snapshot carries the shrink
//! counters (`shrink_epochs`, `shrink_migrations`) and the
//! `bytes_per_key_milli` gauge.

use phc_bench::{arg_or_env, report, Report};
use phc_core::entry::{KeepMin, KvPair};
use phc_core::{AutoPhaseGrowTable, DetHashTable, KvPair32};
use phc_parutil::with_pool;
use rayon::prelude::*;

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

/// Million operations per second.
fn mops(ops: usize, s: f64) -> f64 {
    ops as f64 / s / 1e6
}

/// Distinct nonzero scrambled u16 keys: multiplication by an odd
/// constant is a bijection on the 16-bit ring, so the full sequence
/// enumerates 1..=65535 in hash-scrambled order (0 maps only to 0,
/// which the range excludes — no collision with the empty cell).
fn scrambled_keys() -> Vec<u16> {
    (1..=u16::MAX).map(|k| k.wrapping_mul(40503)).collect()
}

/// One load case as width-agnostic (key, value) pairs.
struct LoadCase {
    label: &'static str,
    n: usize,
    inserted: Vec<(u16, u16)>,
    /// 50/50 present/absent probe mix, `n` keys total.
    probes: Vec<(u16, u16)>,
}

/// The width-parameterized surface the measurement loop drives: both
/// impls are `DetHashTable` — only the entry (and so the cell atomic)
/// differs.
trait CellTable: Sync + Sized {
    type Entry: Copy + Send + Sync;
    fn build(log2: u32) -> Self;
    fn entry(key: u16, value: u16) -> Self::Entry;
    fn bulk_insert(&self, entries: &[Self::Entry]);
    fn bulk_find(&self, probes: &[Self::Entry]) -> usize;
}

impl CellTable for DetHashTable<KvPair<KeepMin>> {
    type Entry = KvPair<KeepMin>;
    fn build(log2: u32) -> Self {
        DetHashTable::new_pow2(log2)
    }
    fn entry(key: u16, value: u16) -> Self::Entry {
        KvPair::new(key as u32, value as u32)
    }
    fn bulk_insert(&self, entries: &[Self::Entry]) {
        self.par_insert_batched(entries);
    }
    fn bulk_find(&self, probes: &[Self::Entry]) -> usize {
        probes
            .par_chunks(2048)
            .map(|c| self.find_batch(c).iter().flatten().count())
            .sum()
    }
}

impl CellTable for DetHashTable<KvPair32<KeepMin>> {
    type Entry = KvPair32<KeepMin>;
    fn build(log2: u32) -> Self {
        DetHashTable::new_pow2(log2)
    }
    fn entry(key: u16, value: u16) -> Self::Entry {
        KvPair32::new(key, value)
    }
    fn bulk_insert(&self, entries: &[Self::Entry]) {
        self.par_insert_batched(entries);
    }
    fn bulk_find(&self, probes: &[Self::Entry]) -> usize {
        probes
            .par_chunks(2048)
            .map(|c| self.find_batch(c).iter().flatten().count())
            .sum()
    }
}

/// Measures one width over one load case: `(find, insert)` best-of-rep
/// seconds per thread count, in `threads` order.
fn measure<T: CellTable>(
    case: &LoadCase,
    log2: u32,
    reps: usize,
    threads: &[usize],
) -> Vec<(f64, f64)> {
    let entries: Vec<T::Entry> = case.inserted.iter().map(|&(k, v)| T::entry(k, v)).collect();
    let probes: Vec<T::Entry> = case.probes.iter().map(|&(k, v)| T::entry(k, v)).collect();
    let table = T::build(log2);
    table.bulk_insert(&entries);

    // Insert at the labeled load: prefill 2/3 untimed, time the rest.
    let split = entries.len() * 2 / 3;
    let (base, tail) = entries.split_at(split);

    threads
        .iter()
        .map(|&t| {
            with_pool(t, |pool| {
                let f = secs(reps, || pool.install(|| table.bulk_find(&probes)));
                let mut prefilled: Vec<T> = (0..reps)
                    .map(|_| {
                        let fresh = T::build(log2);
                        pool.install(|| fresh.bulk_insert(base));
                        fresh
                    })
                    .collect();
                let i = secs(reps, || {
                    let fresh = prefilled.pop().expect("one table per rep");
                    pool.install(|| fresh.bulk_insert(tail));
                    tail.len()
                });
                (f, i)
            })
        })
        .collect()
}

/// Runs a grow → mass-delete → drain cycle on packed 32-bit cells,
/// reporting the deterministic capacity walk at each quiescent stage
/// plus the process RSS (the whole-process witness that shrinking
/// actually returns memory-proportionality).
fn shrink_report(seed_log2: u32, n: usize) -> Report {
    let mut rep = Report::new(
        format!("Shrink cycle (KvPair32, u32 cells, seed 2^{seed_log2}, {n} keys)"),
        &["capacity cells", "bytes/key", "rss MB"],
    );
    let keys = scrambled_keys();
    let entries: Vec<KvPair32> = keys[..n]
        .iter()
        .map(|&k| KvPair32::new(k, k.wrapping_mul(31)))
        .collect();
    let t = AutoPhaseGrowTable::<KvPair32>::new_pow2(seed_log2);
    let mut stage = |label: &str, t: &AutoPhaseGrowTable<KvPair32>| {
        let cap = t.capacity();
        let len = t.len();
        let bpk = if len > 0 {
            Some((cap * phc_core::cell::cell_bytes::<u32>()) as f64 / len as f64)
        } else {
            None
        };
        let rss = report::resident_bytes().map(|b| b as f64 / 1e6);
        rep.push(label, vec![Some(cap as f64), bpk, rss]);
    };

    t.par_insert_batched(&entries);
    stage("grown", &t);
    t.par_delete_batched(&entries[64..]);
    stage("shrunk", &t);
    t.par_delete_batched(&entries[..64]);
    stage("floor", &t);
    rep
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let log2 = arg_or_env(&args, "--log2", "PHC_LOG2", 16) as u32;
    assert!(log2 <= 16, "u16 keys cap the table at 2^16 cells");
    let reps = arg_or_env(&args, "--reps", "PHC_REPS", 3);
    let cap = 1usize << log2;
    let threads = [1usize, 2, 8];
    println!("# Cell-width bench: u64 vs u32 cells, 2^{log2} cells, threads = {threads:?}\n");

    let keys = scrambled_keys();
    let cases: Vec<LoadCase> = [("1/3", cap / 3), ("1/2", cap / 2), ("3/4", cap * 3 / 4)]
        .into_iter()
        .map(|(label, n)| {
            let inserted: Vec<(u16, u16)> =
                keys[..n].iter().map(|&k| (k, k.wrapping_mul(31))).collect();
            // Absent keys come from the tail of the bijection — keys
            // the largest case never inserts would shrink the pool to
            // nothing at 3/4 load, so absents cycle what remains.
            let absent = &keys[n..];
            let probes = inserted
                .iter()
                .enumerate()
                .flat_map(|(i, &p)| [p, (absent[i % absent.len()], 0)])
                .take(n)
                .collect();
            LoadCase {
                label,
                n,
                inserted,
                probes,
            }
        })
        .collect();

    let cols = ["u64 Mops", "u32 Mops", "u32/u64"];
    let mut find = Report::new(
        format!("Find throughput (u64 vs u32 cells), 2^{log2} cells"),
        &cols,
    );
    let mut insert = Report::new(
        format!("Insert throughput (u64 vs u32 cells), 2^{log2} cells"),
        &cols,
    );
    let mut memory = Report::new(
        format!("Memory per key (u64 vs u32 cells), 2^{log2} cells"),
        &["u64 B/key", "u32 B/key", "ratio"],
    );

    for case in &cases {
        let wide = measure::<DetHashTable<KvPair<KeepMin>>>(case, log2, reps, &threads);
        let narrow = measure::<DetHashTable<KvPair32<KeepMin>>>(case, log2, reps, &threads);
        let tail_n = case.n - case.n * 2 / 3; // the timed insert slice
        for ((&t, (f64s, i64s)), (f32s, i32s)) in threads.iter().zip(wide).zip(narrow) {
            let label = format!("load={} T={t}", case.label);
            find.push(
                label.clone(),
                vec![
                    Some(mops(case.probes.len(), f64s)),
                    Some(mops(case.probes.len(), f32s)),
                    Some(f64s / f32s),
                ],
            );
            insert.push(
                label,
                vec![
                    Some(mops(tail_n, i64s)),
                    Some(mops(tail_n, i32s)),
                    Some(i64s / i32s),
                ],
            );
        }
        let b64 = (cap * phc_core::cell::cell_bytes::<u64>()) as f64 / case.n as f64;
        let b32 = (cap * phc_core::cell::cell_bytes::<u32>()) as f64 / case.n as f64;
        memory.push(
            format!("load={}", case.label),
            vec![Some(b64), Some(b32), Some(b32 / b64)],
        );
    }

    let shrink = shrink_report(6, 40_000);

    for r in [&find, &insert, &memory, &shrink] {
        r.print();
    }
    println!("(u32/u64 = u64 seconds / u32 seconds — higher favors packed cells)\n");

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            report::write_json(path, &[find, insert, memory, shrink])
                .expect("failed to write JSON");
            println!("wrote {path}");
        }
    }
}
