//! Cross-crate determinism tests: the paper's central claim, checked
//! end-to-end — the deterministic table's state is a pure function of
//! the operation *set*, never the order, interleaving, or thread
//! count.

use phase_concurrent_hashing::tables::{
    invariant, ConcurrentDelete, ConcurrentInsert, DetHashTable, PhaseHashTable, SerialHashHI,
    U64Key,
};
use rayon::prelude::*;

fn keys(n: usize, seed: u64) -> Vec<u64> {
    phase_concurrent_hashing::workloads::random_seq_int(n, seed)
}

/// Concurrent inserts must land in exactly the layout the sequential
/// history-independent oracle produces.
#[test]
fn concurrent_inserts_match_serial_oracle() {
    let ks = keys(50_000, 1);
    let mut oracle: SerialHashHI<U64Key> = SerialHashHI::new_pow2(17);
    for &k in &ks {
        oracle.insert(U64Key::new(k));
    }
    for round in 0..3 {
        let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(17);
        {
            let ins = t.begin_insert();
            ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
        }
        assert_eq!(t.snapshot(), oracle.snapshot(), "round {round}");
    }
}

/// Concurrent deletes leave exactly the layout of the never-inserted
/// complement.
#[test]
fn concurrent_deletes_match_serial_oracle() {
    let ks = keys(30_000, 2);
    let (dels, keeps) = ks.split_at(18_000);
    let mut oracle: SerialHashHI<U64Key> = SerialHashHI::new_pow2(16);
    let delset: std::collections::HashSet<u64> = dels.iter().copied().collect();
    for &k in keeps.iter().filter(|k| !delset.contains(k)) {
        oracle.insert(U64Key::new(k));
    }
    for round in 0..3 {
        let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(16);
        {
            let ins = t.begin_insert();
            ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
        }
        {
            let del = t.begin_delete();
            dels.par_iter().for_each(|&k| del.delete(U64Key::new(k)));
        }
        assert_eq!(t.snapshot(), oracle.snapshot(), "round {round}");
    }
}

/// The ordering invariant (Def. 2) holds at quiescence after heavily
/// contended mixed rounds of insert and delete phases.
#[test]
fn ordering_invariant_after_stress() {
    let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(14);
    let a = keys(8_000, 3);
    let b = keys(8_000, 4);
    for round in 0..6 {
        {
            let ins = t.begin_insert();
            let src = if round % 2 == 0 { &a } else { &b };
            src.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
        }
        {
            let del = t.begin_delete();
            let src = if round % 2 == 0 { &b } else { &a };
            del.delete(U64Key::new(1));
            src.par_iter().for_each(|&k| del.delete(U64Key::new(k)));
        }
        let snap = t.snapshot();
        invariant::check_ordering_invariant::<U64Key>(&snap).unwrap();
        invariant::check_no_duplicate_keys::<U64Key>(&snap).unwrap();
    }
}

/// elements() output is identical across thread counts.
#[test]
fn elements_identical_across_thread_counts() {
    let ks = keys(40_000, 5);
    let run = |threads: usize| -> Vec<U64Key> {
        phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(17);
            {
                let ins = t.begin_insert();
                ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
            }
            t.elements()
        })
    };
    let one = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// `pack` and `scan_exclusive` are byte-identical across thread counts
/// *and* across repeated runs under the work-stealing pool: stealing
/// moves chunks between workers run to run, but results land by chunk
/// index, so the output never changes.
#[test]
fn pack_and_scan_identical_across_threads_and_runs() {
    use phase_concurrent_hashing::parutil::{pack, run_with_threads, scan_exclusive};
    let input: Vec<u64> = keys(200_000, 11);
    let sizes: Vec<usize> = input.iter().map(|&k| (k % 13) as usize).collect();
    let expect_pack = pack(&input, |&x| x % 3 == 0);
    let expect_scan = scan_exclusive(&sizes);
    for threads in [1, 2, 8] {
        for run in 0..5 {
            let (p, s) = run_with_threads(threads, || {
                (pack(&input, |&x| x % 3 == 0), scan_exclusive(&sizes))
            });
            assert_eq!(p, expect_pack, "pack, threads = {threads}, run {run}");
            assert_eq!(s, expect_scan, "scan, threads = {threads}, run {run}");
        }
    }
}

/// `elements()` is identical across repeated runs at a fixed thread
/// count under the stealing scheduler (the cross-thread-count variant
/// is `elements_identical_across_thread_counts` below), and the
/// batched prefetching insert path lands in the identical layout.
#[test]
fn elements_identical_across_repeated_stealing_runs() {
    let ks = keys(40_000, 12);
    let entries: Vec<U64Key> = ks.iter().map(|&k| U64Key::new(k)).collect();
    let build = |batched: bool| -> (Vec<u64>, Vec<U64Key>) {
        phase_concurrent_hashing::parutil::run_with_threads(8, || {
            let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(17);
            {
                let ins = t.begin_insert();
                if batched {
                    ins.par_insert_batched(&entries);
                } else {
                    entries.par_iter().for_each(|&e| ins.insert(e));
                }
            }
            (t.snapshot(), t.elements())
        })
    };
    let first = build(false);
    for run in 0..4 {
        assert_eq!(first, build(false), "per-element, run {run}");
        assert_eq!(first, build(true), "batched, run {run}");
    }
}

/// The growable wrapper preserves history independence across growth
/// schedules.
#[test]
fn resizable_table_is_deterministic() {
    use phase_concurrent_hashing::tables::ResizableTable;
    let ks = keys(20_000, 6);
    let run = |order_rev: bool| {
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(6);
        t.insert_phase(|t| {
            if order_rev {
                ks.par_iter().rev().for_each(|&k| t.insert(U64Key::new(k)));
            } else {
                ks.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            }
        });
        (t.capacity(), t.snapshot())
    };
    assert_eq!(run(false), run(true));
}

/// Acceptance criterion for cooperative resizing: growing from a
/// 16-cell seed under 1, 2, and 8 threads — dozens of interleaved
/// migration epochs at the higher thread counts — ends, after phase
/// normalization, with the same canonical capacity and a bit-identical
/// snapshot as the single-threaded run. Final state is a pure function
/// of the key *set*, independent of which threads migrated which
/// blocks.
#[test]
fn cooperative_resize_identical_across_thread_counts() {
    use phase_concurrent_hashing::tables::ResizableTable;
    let ks = keys(25_000, 7);
    let run = |threads: usize| -> (usize, usize, Vec<u64>) {
        phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
            t.insert_phase(|t| {
                ks.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            });
            (t.capacity(), t.len(), t.snapshot())
        })
    };
    let one = run(1);
    assert!(one.0 > 16, "table must actually have grown");
    invariant::check_ordering_invariant::<U64Key>(&one.2).unwrap();
    invariant::check_no_duplicate_keys::<U64Key>(&one.2).unwrap();
    for threads in [2, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// Freeze-free migration acceptance: a grow→shrink→regrow cycle driven
/// entirely through per-op calls — inserts paying bounded help quotas
/// against live migrations, deletes registering behind pending shrink
/// publishes, with **no normalization between the waves** — must land,
/// after one final normalize, on the same canonical capacity and a
/// byte-identical snapshot whether 1, 2, or 8 threads did the helping.
/// This is the per-op mirror of the batched shrink cycles in the cell
/// differential suite: under the freeze-free resizer the per-op path
/// no longer serializes on a freeze handshake, yet the quiescent state
/// stays a pure function of the surviving key set.
#[test]
fn grow_shrink_regrow_under_load_identical_across_thread_counts() {
    use phase_concurrent_hashing::tables::AutoPhaseGrowTable;
    let ks = keys(20_000, 21);
    let run = |threads: usize| -> (usize, usize, Vec<u64>) {
        phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let t: AutoPhaseGrowTable<U64Key> = AutoPhaseGrowTable::new_pow2(4);
            ks.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            ks[256..].par_iter().for_each(|&k| t.delete(U64Key::new(k)));
            ks[256..].par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            t.normalize();
            (t.capacity(), t.len(), t.snapshot())
        })
    };
    let one = run(1);
    assert!(one.0 > 16, "table must actually have grown");
    invariant::check_ordering_invariant::<U64Key>(&one.2).unwrap();
    invariant::check_no_duplicate_keys::<U64Key>(&one.2).unwrap();
    for threads in [2, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// The Robin Hood table makes the same determinism promise as the det
/// table — its displacement-ordered clusters are sorted by (home
/// bucket, mixed key), so the raw snapshot is a pure function of the
/// key set. Checked across 1, 2, and 8 threads, through a delete phase.
#[test]
fn robinhood_snapshot_identical_across_thread_counts() {
    use phase_concurrent_hashing::tables::RobinHoodHashTable;
    let ks = keys(40_000, 9);
    let (dels, _) = ks.split_at(12_000);
    let run = |threads: usize| -> (Vec<u64>, Vec<u64>, usize) {
        phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let mut t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(17);
            {
                let ins = t.begin_insert();
                ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
            }
            let full = t.snapshot();
            {
                let del = t.begin_delete();
                dels.par_iter().for_each(|&k| del.delete(U64Key::new(k)));
            }
            (full, t.snapshot(), t.elements().len())
        })
    };
    let one = run(1);
    assert!(one.2 > 0);
    for threads in [2, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// Robin Hood `elements()` (decoded back to original keys) returns the
/// same key set the det table returns for the same inserts, across
/// thread counts — membership equivalence of the two layouts.
#[test]
fn robinhood_elements_match_det_across_thread_counts() {
    use phase_concurrent_hashing::tables::RobinHoodHashTable;
    let ks = keys(30_000, 10);
    let det_elems = {
        let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(16);
        {
            let ins = t.begin_insert();
            ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
        }
        let mut v = t.elements();
        v.sort_unstable();
        v
    };
    for threads in [1, 2, 8] {
        let rh_elems = phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let mut t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(16);
            {
                let ins = t.begin_insert();
                ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
            }
            let mut v = t.elements();
            v.sort_unstable();
            v
        });
        assert_eq!(rh_elems, det_elems, "threads = {threads}");
    }
}

/// Quiescent observability totals are schedule-independent: the
/// deterministic layout is a pure function of the key set, so the
/// displacement distribution scanned from the quiescent snapshot — the
/// same numbers `record_probe_histogram` mirrors into the obs
/// probe-length histogram — and the `elements()` count are identical
/// across 1, 2, and 8 threads. (Live in-flight counters like CAS-fail
/// totals are intentionally *not* asserted equal: they depend on the
/// schedule, which is exactly why the reports are built from quiescent
/// scans.)
#[test]
fn quiescent_probe_totals_identical_across_thread_counts() {
    use phase_concurrent_hashing::tables::stats;
    let ks = keys(30_000, 8);
    let run = |threads: usize| {
        phase_concurrent_hashing::parutil::run_with_threads(threads, || {
            let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(16);
            {
                let ins = t.begin_insert();
                ks.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
            }
            let st = stats::record_probe_histogram::<U64Key>(&t.snapshot());
            (t.elements().len(), st)
        })
    };
    let one = run(1);
    assert!(one.1.entries > 0);
    for threads in [2, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// The observability counter shards themselves aggregate to exact,
/// split-independent totals: distributing the same increments across
/// different thread counts leaves an identical quiescent sum.
#[test]
fn obs_counter_totals_independent_of_thread_split() {
    use phc_obs::{Counter, Registry};
    const TOTAL: u64 = 10_000;
    let total = |threads: u64| -> u64 {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let reg = &reg;
                s.spawn(move || {
                    let shard = reg.register();
                    let mut i = t;
                    while i < TOTAL {
                        shard.add(Counter::ProbeSteps, 1);
                        i += threads;
                    }
                });
            }
        });
        let (counters, _) = reg.aggregate();
        counters[Counter::ProbeSteps as usize]
    };
    assert_eq!(total(1), TOTAL);
    for threads in [2, 8] {
        assert_eq!(total(threads), TOTAL, "threads = {threads}");
    }
}
