//! The batched lookups of every engine table and of the growable
//! wrapper — `find_batch`, `find_batch_into`, `par_find_batched`,
//! `par_find_batched_into` — are wrappers over one kernel that writes
//! each result by index into an output sized once
//! (`ProbeTable::find_run`), a parallel call's grains filling disjoint
//! parts of the one buffer. So is the growable table's read-phase
//! lookup (`Reader::par_find_batched_into`). These tests hold all of
//! them to the per-op `find`, key by key.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use phc_core::{
    DetHashTable, FcHashTable, FlatTableCore, HashEntry, NdHashTable, PhaseHashTable,
    ResizableTable, RobinHoodHashTable, U64Key,
};
use phc_parutil::{grain, hash64, run_with_threads};

/// What an `_into` call must leave in front of what it appends (even,
/// so never one of the odd hashed keys below).
const PRIOR: [Option<U64Key>; 2] = [None, Some(U64Key(2))];

fn key(i: u64) -> U64Key {
    U64Key::new(hash64(i) | 1)
}

/// Every batched find entry point of `$table`, against per-op `find`:
/// pool widths 1 / 2 / 8, lengths around the grain boundaries, hits and
/// misses alternating.
macro_rules! batched_finds_equal_per_op_find {
    ($table:ty, $log2:expr) => {{
        let name = stringify!($table);
        let g = grain();
        let t = <$table>::new_pow2($log2);
        // Even indices are stored; odd ones are absent.
        let stored: Vec<U64Key> = (0..3 * g as u64).map(|i| key(2 * i)).collect();
        t.insert_batch(&stored);
        for width in [1, 2, 8] {
            run_with_threads(width, || {
                for len in [0, 1, g - 1, g, g + 1, 5 * g + 3] {
                    let what = format!("{name}, width {width}, {len} keys");
                    let probes: Vec<U64Key> = (0..len as u64).map(key).collect();
                    let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| t.find(k)).collect();
                    assert_eq!(expect.iter().flatten().count(), len.div_ceil(2), "{what}");

                    assert_eq!(t.find_batch(&probes), expect, "find_batch: {what}");
                    assert_eq!(
                        t.par_find_batched(&probes),
                        expect,
                        "par_find_batched: {what}"
                    );
                    // The `_into` forms append: behind what was there, and
                    // behind each other.
                    let mut out = PRIOR.to_vec();
                    t.find_batch_into(&probes, &mut out);
                    t.par_find_batched_into(&probes, &mut out);
                    assert_eq!(out.len(), 2 + 2 * len, "{what}");
                    assert_eq!(out[..2], PRIOR, "prior contents: {what}");
                    assert_eq!(out[2..2 + len], expect, "find_batch_into: {what}");
                    assert_eq!(out[2 + len..], expect, "par_find_batched_into: {what}");
                }
            });
        }
    }};
}

#[test]
fn batched_finds_equal_per_op_find_on_every_table() {
    batched_finds_equal_per_op_find!(DetHashTable<U64Key>, 14);
    batched_finds_equal_per_op_find!(RobinHoodHashTable<U64Key>, 14);
    batched_finds_equal_per_op_find!(FcHashTable<U64Key>, 14);
    batched_finds_equal_per_op_find!(NdHashTable<U64Key>, 14);
    // From a 16-cell seed: the lookups also run against a table that
    // grew, the first of them draining the last migration.
    batched_finds_equal_per_op_find!(ResizableTable<U64Key>, 4);
    batched_finds_equal_per_op_find!(ResizableTable<U64Key, FcHashTable<U64Key>>, 4);
    reader_finds_equal_per_op_find::<DetHashTable<U64Key>>();
    reader_finds_equal_per_op_find::<FcHashTable<U64Key>>();
}

/// The growable table's one more entry point: the read-phase handle's
/// batch lookup, which registers on no epoch. Same widths and lengths,
/// from a 16-cell seed.
fn reader_finds_equal_per_op_find<T: FlatTableCore<U64Key>>() {
    let g = grain();
    let mut t: ResizableTable<U64Key, T> = ResizableTable::new_pow2(4);
    let stored: Vec<U64Key> = (0..3 * g as u64).map(|i| key(2 * i)).collect();
    t.insert_batch(&stored);
    for width in [1, 2, 8] {
        run_with_threads(width, || {
            for len in [0, 1, g - 1, g, g + 1, 5 * g + 3] {
                let what = format!("{}, width {width}, {len} keys", T::GROW_NAME);
                let probes: Vec<U64Key> = (0..len as u64).map(key).collect();
                let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| t.find(k)).collect();
                assert_eq!(expect.iter().flatten().count(), len.div_ceil(2), "{what}");
                let mut out = PRIOR.to_vec();
                t.begin_read().par_find_batched_into(&probes, &mut out);
                assert_eq!(out[..2], PRIOR, "prior contents: {what}");
                assert_eq!(out[2..], expect, "Reader::par_find_batched_into: {what}");
            }
        });
    }
}

/// The `fc_soak` pattern — an inserter, a deleter and a reader side by
/// side — with batched lookups as the reader. fc's batch lookup scans
/// speculatively and, when a writer window opened meanwhile, redoes the
/// batch carefully *over* the speculative results; whichever path a
/// call takes, every key no writer touches must come back exact, in
/// place, behind the buffer's prior contents.
///
/// The writers churn keys homed in the upper half of the array and the
/// reader looks up keys homed in the lower half, far enough below the
/// boundary that no cluster spans it: no write ever lands on a cell a
/// lookup reads.
#[test]
fn fc_batch_lookup_beside_writers_is_exact_for_untouched_keys() {
    const LOG2: u32 = 12;
    const ROUNDS: usize = 300;
    let n = 1usize << LOG2;
    let home = |k: &U64Key| U64Key::hash(k.to_repr()) as usize & (n - 1);
    let lower: Vec<U64Key> = (0..)
        .map(key)
        .filter(|k| home(k) < n / 2 - 64)
        .take(n / 4)
        .collect();
    let churn: Vec<U64Key> = (0..)
        .map(key)
        .filter(|k| (n / 2..n - 64).contains(&home(k)))
        .take(n / 8)
        .collect();

    let t: FcHashTable<U64Key> = FcHashTable::new_pow2(LOG2);
    // Every other lower key is stored: hits and misses alternate.
    let resident: Vec<U64Key> = lower.iter().copied().step_by(2).collect();
    t.insert_batch(&resident);
    let expect: Vec<Option<U64Key>> = lower
        .iter()
        .enumerate()
        .map(|(i, &k)| (i % 2 == 0).then_some(k))
        .collect();

    /// Stops the writers when the reader is done — or has panicked.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Relaxed) {
                churn.chunks(16).for_each(|c| t.insert_batch(c));
            }
        });
        s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Relaxed) {
                churn.iter().for_each(|&k| t.delete(k));
            }
        });
        let _stop = StopOnDrop(&done);
        start.wait();
        for round in 0..ROUNDS {
            let mut out = PRIOR.to_vec();
            t.find_batch_into(&lower, &mut out);
            assert_eq!(out[..2], PRIOR, "round {round}");
            assert_eq!(out[2..], expect, "round {round}");
        }
    });
}
