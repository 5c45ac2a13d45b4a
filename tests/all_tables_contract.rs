//! Contract tests run uniformly over *every* hash table in the crate
//! through the `PhaseHashTable` trait: set semantics, phase behavior,
//! combining, and stress under parallel phases. (The tables differ in
//! determinism, not in correctness — these tests pin the shared
//! contract.)

use std::collections::BTreeSet;

use phase_concurrent_hashing::tables::{
    AddValues, ChainedHashTable, ConcurrentDelete, ConcurrentInsert, ConcurrentRead,
    CuckooHashTable, DetHashTable, FcHashTable, HopscotchHashTable, KvPair, NdHashTable,
    PhaseHashTable, RobinHoodHashTable, U64Key,
};
use rayon::prelude::*;

fn check_set_semantics<T: PhaseHashTable<U64Key>>(mut table: T, label: &str) {
    let keys: Vec<u64> = phase_concurrent_hashing::workloads::random_seq_int(20_000, 42).to_vec();
    {
        let ins = table.begin_insert();
        keys.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
    }
    let expect: BTreeSet<u64> = keys.iter().copied().collect();
    {
        let reader = table.begin_read();
        for &k in expect.iter().take(2000) {
            assert_eq!(
                reader.find(U64Key::new(k)),
                Some(U64Key::new(k)),
                "{label}: find {k}"
            );
        }
        // Keys certainly absent (outside the generator's range).
        for k in 1_000_001..1_000_101u64 {
            assert_eq!(reader.find(U64Key::new(k)), None, "{label}: phantom {k}");
        }
    }
    let got: BTreeSet<u64> = table.elements().iter().map(|k| k.0).collect();
    assert_eq!(got, expect, "{label}: elements() set");

    // Delete half, in parallel.
    let dels: Vec<u64> = expect.iter().copied().step_by(2).collect();
    {
        let del = table.begin_delete();
        dels.par_iter().for_each(|&k| del.delete(U64Key::new(k)));
    }
    let after: BTreeSet<u64> = table.elements().iter().map(|k| k.0).collect();
    let expect_after: BTreeSet<u64> = expect
        .iter()
        .copied()
        .filter(|k| !dels.contains(k))
        .collect();
    assert_eq!(after, expect_after, "{label}: set after deletes");
}

#[test]
fn set_semantics_all_tables() {
    check_set_semantics(DetHashTable::<U64Key>::new_pow2(16), "linearHash-D");
    check_set_semantics(NdHashTable::<U64Key>::new_pow2(16), "linearHash-ND");
    check_set_semantics(CuckooHashTable::<U64Key>::new_pow2(17), "cuckooHash");
    check_set_semantics(ChainedHashTable::<U64Key>::new_pow2(16), "chainedHash");
    check_set_semantics(
        ChainedHashTable::<U64Key>::new_pow2_cr(16),
        "chainedHash-CR",
    );
    check_set_semantics(HopscotchHashTable::<U64Key>::new_pow2(16), "hopscotchHash");
    check_set_semantics(
        HopscotchHashTable::<U64Key>::new_pow2_pc(16),
        "hopscotchHash-PC",
    );
    check_set_semantics(RobinHoodHashTable::<U64Key>::new_pow2(16), "robinHood");
    // linearHash-FC: det's probe bodies under its own name.
    check_set_semantics(FcHashTable::<U64Key>::new_pow2(16), "linearHash-FC");
}

fn check_combining<T: PhaseHashTable<KvPair<AddValues>>>(mut table: T, label: &str) {
    // 64 hot keys, 200 increments each, from all threads at once: the
    // combining function must make concurrent duplicate inserts
    // commute exactly.
    {
        let ins = table.begin_insert();
        (0..12_800u32).into_par_iter().for_each(|i| {
            ins.insert(KvPair::new(i % 64 + 1, 1));
        });
    }
    let reader = table.begin_read();
    for k in 1..=64u32 {
        let got = reader
            .find(KvPair::new(k, 0))
            .unwrap_or_else(|| panic!("{label}: key {k}"));
        assert_eq!(got.value, 200, "{label}: key {k} sum");
    }
}

#[test]
fn additive_combining_all_tables() {
    check_combining(
        DetHashTable::<KvPair<AddValues>>::new_pow2(10),
        "linearHash-D",
    );
    check_combining(
        NdHashTable::<KvPair<AddValues>>::new_pow2(10),
        "linearHash-ND",
    );
    check_combining(
        CuckooHashTable::<KvPair<AddValues>>::new_pow2(10),
        "cuckooHash",
    );
    check_combining(
        ChainedHashTable::<KvPair<AddValues>>::new_pow2_cr(10),
        "chainedHash-CR",
    );
    check_combining(
        HopscotchHashTable::<KvPair<AddValues>>::new_pow2(10),
        "hopscotchHash",
    );
    check_combining(
        RobinHoodHashTable::<KvPair<AddValues>>::new_pow2(10),
        "robinHood",
    );
    check_combining(
        FcHashTable::<KvPair<AddValues>>::new_pow2(10),
        "linearHash-FC",
    );
}

/// Server-layer row of the contract: composing tables into an
/// `S`-shard [`KvServer`] must not change any per-shard snapshot —
/// shard `i`'s quiescent layout equals a standalone single-shard
/// replay of exactly the ops the router assigns to shard `i`, for
/// every shard count.
#[test]
fn server_shard_count_preserves_per_shard_snapshots() {
    use phase_concurrent_hashing::server::{shard_of, KvServer};
    use phase_concurrent_hashing::workloads::{kv_request_log, KvOp, KvWorkload};

    let workload = KvWorkload {
        clients: 1 << 14,
        key_space: 1 << 10,
        zipf_s: 0.8,
        get_frac: 0.30,
        del_frac: 0.15,
    };
    let log = kv_request_log(6_000, &workload, 77);
    let batch = 256usize;

    for shards in [1usize, 2, 8] {
        let server: KvServer = KvServer::new(shards, 7);
        server.apply_log(&log, batch);
        let composed = server.quiescent_snapshots();
        for (shard, composed_snap) in composed.iter().enumerate() {
            let standalone: KvServer = KvServer::new(1, 7);
            for chunk in log.chunks(batch) {
                let routed: Vec<KvOp> = chunk
                    .iter()
                    .copied()
                    .filter(|op| shard_of(op.key(), shards) == shard)
                    .collect();
                standalone.apply_batch(&routed);
            }
            assert_eq!(
                &standalone.quiescent_snapshots()[0],
                composed_snap,
                "shards={shards}: shard {shard} snapshot changed under composition"
            );
        }
    }
}

/// High-duplication parallel insert storm (the chainedHash collapse
/// scenario from Table 1) must stay correct on every table.
#[test]
fn duplicate_storm_all_tables() {
    fn storm<T: PhaseHashTable<U64Key>>(mut table: T, label: &str) {
        let keys: Vec<u64> = phase_concurrent_hashing::workloads::expt_seq_int(50_000, 9);
        {
            let ins = table.begin_insert();
            keys.par_iter().for_each(|&k| ins.insert(U64Key::new(k)));
        }
        let expect: BTreeSet<u64> = keys.iter().copied().collect();
        let got: BTreeSet<u64> = table.elements().iter().map(|k| k.0).collect();
        assert_eq!(got, expect, "{label}");
    }
    storm(DetHashTable::<U64Key>::new_pow2(17), "linearHash-D");
    storm(NdHashTable::<U64Key>::new_pow2(17), "linearHash-ND");
    storm(CuckooHashTable::<U64Key>::new_pow2(17), "cuckooHash");
    storm(ChainedHashTable::<U64Key>::new_pow2(17), "chainedHash");
    storm(
        ChainedHashTable::<U64Key>::new_pow2_cr(17),
        "chainedHash-CR",
    );
    storm(HopscotchHashTable::<U64Key>::new_pow2(17), "hopscotchHash");
    storm(RobinHoodHashTable::<U64Key>::new_pow2(17), "robinHood");
    storm(FcHashTable::<U64Key>::new_pow2(17), "linearHash-FC");
}
