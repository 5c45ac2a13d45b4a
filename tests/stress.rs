//! Concurrency stress tests with raw OS threads (std::thread::scope),
//! exercising contention patterns rayon's work-stealing does not:
//! threads hammering the same keys, barrier-aligned phase storms, and
//! run-to-run exact-state comparisons under maximal interleaving.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use phase_concurrent_hashing::tables::{
    invariant, AddValues, ConcurrentDelete, ConcurrentInsert, DetHashTable, KvPair, PhaseHashTable,
    U64Key,
};

const THREADS: usize = 8;

/// All threads insert the *same* keys simultaneously (maximal CAS
/// contention on identical cells); the result must be the singleton
/// layout.
#[test]
fn identical_insert_storm() {
    for round in 0..5 {
        let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(12);
        let keys: Vec<u64> = (1..=1000u64).map(|k| k * 31 + round).collect();
        let barrier = Barrier::new(THREADS);
        {
            let ins = table.begin_insert();
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        barrier.wait();
                        for &k in &keys {
                            ins.insert(U64Key::new(k));
                        }
                    });
                }
            });
        }
        let expect: DetHashTable<U64Key> = DetHashTable::new_pow2(12);
        keys.iter().for_each(|&k| expect.insert(U64Key::new(k)));
        assert_eq!(table.snapshot(), expect.snapshot(), "round {round}");
    }
}

/// All threads delete overlapping key ranges simultaneously; the
/// paper's copy-counting invariant must leave exactly the difference.
#[test]
fn overlapping_delete_storm() {
    for round in 0..5 {
        let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(12);
        let all: Vec<u64> = (1..=2000u64).collect();
        all.iter().for_each(|&k| table.insert(U64Key::new(k)));
        let barrier = Barrier::new(THREADS);
        {
            let del = table.begin_delete();
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let del = &del;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        // Each thread deletes a shifted window; windows
                        // overlap heavily.
                        for k in (1 + t as u64 * 100)..=(1500 + t as u64 * 10) {
                            del.delete(U64Key::new(k));
                        }
                    });
                }
            });
        }
        // Union of deleted windows: [1, 1500 + 70].
        let deleted_hi = 1500 + (THREADS as u64 - 1) * 10;
        let survivors: BTreeSet<u64> = table.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = (deleted_hi + 1..=2000).collect();
        assert_eq!(survivors, expect, "round {round}");
        invariant::check_ordering_invariant::<U64Key>(&table.snapshot()).unwrap();
    }
}

/// Alternating insert/delete phases from raw threads, with the exact
/// final snapshot compared across independent repetitions.
#[test]
fn phase_storm_is_reproducible() {
    let run = || {
        let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        for phase in 0..6u64 {
            if phase % 2 == 0 {
                let ins = table.begin_insert();
                std::thread::scope(|s| {
                    for t in 0..THREADS as u64 {
                        let ins = &ins;
                        s.spawn(move || {
                            for i in 0..600u64 {
                                ins.insert(U64Key::new(1 + (i * 7 + t + phase * 13) % 3000));
                            }
                        });
                    }
                });
            } else {
                let del = table.begin_delete();
                std::thread::scope(|s| {
                    for t in 0..THREADS as u64 {
                        let del = &del;
                        s.spawn(move || {
                            for i in 0..400u64 {
                                del.delete(U64Key::new(1 + (i * 11 + t * 3 + phase) % 3000));
                            }
                        });
                    }
                });
            }
        }
        table.snapshot()
    };
    // The *set* at each phase boundary is timing-independent, so the
    // final layout must be bit-identical across runs.
    let a = run();
    for _ in 0..3 {
        assert_eq!(a, run());
    }
    invariant::check_ordering_invariant::<U64Key>(&a).unwrap();
}

/// Combining (`+`) under a thread storm on one hot key: the total must
/// be exact (no lost updates through the CAS-combine path).
#[test]
fn hot_key_combine_exact() {
    let mut table: DetHashTable<KvPair<AddValues>> = DetHashTable::new_pow2(8);
    let per_thread = 5000u32;
    {
        let ins = table.begin_insert();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let ins = &ins;
                s.spawn(move || {
                    for _ in 0..per_thread {
                        ins.insert(KvPair::new(7, 1));
                    }
                });
            }
        });
    }
    let reader = table.begin_read();
    use phase_concurrent_hashing::tables::ConcurrentRead;
    let got = reader.find(KvPair::new(7, 0)).unwrap();
    assert_eq!(got.value, per_thread * THREADS as u32);
}

/// Finds and elements may run together (one phase): hammer both while
/// asserting no torn reads (every found repr decodes to a valid key).
#[test]
fn find_and_elements_share_a_phase() {
    let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(12);
    let keys: Vec<u64> = (1..=2000u64).collect();
    keys.iter().for_each(|&k| table.insert(U64Key::new(k)));
    let reader = table.begin_read();
    let bogus = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reader = &reader;
            let bogus = &bogus;
            s.spawn(move || {
                use phase_concurrent_hashing::tables::ConcurrentRead;
                if t % 2 == 0 {
                    for &k in &(1..=2000u64).collect::<Vec<_>>() {
                        match reader.find(U64Key::new(k)) {
                            Some(got) if got.0 == k => {}
                            _ => {
                                bogus.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                } else {
                    for _ in 0..20 {
                        let elems = reader.elements();
                        if elems.len() != 2000 || elems.iter().any(|k| k.0 < 1 || k.0 > 2000) {
                            bogus.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(bogus.load(Ordering::SeqCst), 0);
}
