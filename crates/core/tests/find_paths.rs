//! The batched lookups of every engine table and of the growable
//! wrapper — `find_batch`, `find_batch_into`, `par_find_batched`,
//! `par_find_batched_into` — are wrappers over one kernel that writes
//! each result by index into an output sized once
//! (`ProbeTable::find_run`), a parallel call's grains filling disjoint
//! parts of the one buffer. So is the growable table's read-phase
//! lookup (`Reader::par_find_batched_into`). These tests hold all of
//! them to the per-op `find`, key by key.

use phc_core::{
    DetHashTable, FcHashTable, FlatTableCore, NdHashTable, PhaseHashTable, ResizableTable,
    RobinHoodHashTable, U64Key,
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
