//! The sharded deterministic KV server.
//!
//! ## Batch semantics
//!
//! A batch is the unit of ordering. Within one batch, every shard
//! applies its ops in a fixed **sub-phase order**: all puts, then all
//! deletes, then all gets. Gets therefore observe every same-batch put
//! and delete; a put and a delete of the same key in one batch leave
//! the key absent regardless of their relative submission order (the
//! delete sub-phase runs last of the two). Across batches, order is
//! submission order. These rules make the response log a pure function
//! of `(request log, batch size)` — independent of thread count and of
//! shard count.
//!
//! ## Combining puts
//!
//! Duplicate-key puts — in one batch or across batches — resolve
//! through the entry's commutative [`Combine`] policy (paper §4's
//! combining functions), **not** last-write-wins: concurrent inserts
//! of the same key must commute for the phase-concurrent determinism
//! guarantee to hold, and "last" is not even well defined inside a
//! concurrent insert phase. The server is a deterministic *combining*
//! KV store; pick the policy by type parameter (default
//! [`KeepMin`], or e.g. `AddValues` for a counter store).
//!
//! ## Phases
//!
//! Each shard is a [`ShardTable`]: a growable table that the server
//! reaches only under its batch lock, through `&mut`. A batch drives
//! every shard through the paper's borrow-checked phases — an insert
//! phase, a delete phase, a read phase — so the batch lock *is* the
//! phase discipline: nothing is synchronized per sub-phase at run time
//! (no room word, no reader registration, no atomic stat counter).
//! Shards are independent, so within one batch they run in parallel,
//! each in its own phase: a get-heavy shard reads while a put-heavy
//! neighbour is mid-insert (or mid-migration), with no global phase
//! barrier between them.
//!
//! ## The fc mode
//!
//! [`FcKvServer`] swaps the shard's core for `linearHash-FC` and runs
//! the same phased path. Since fc's fully-concurrent claim was withdrawn
//! (`phc_core::fc`), that core is a phase-concurrent table running the
//! deterministic core's probe bodies, so responses, snapshots and
//! counts are byte-identical to the default mode's by construction.
//! Quiescence at each batch boundary is the linearization point in both
//! modes.

use std::sync::Mutex;

use phc_core::entry::{Combine, KeepMin, KvPair};
use phc_core::{FcHashTable, ResizableTable};
use phc_workloads::KvOp;

use crate::router;
use crate::shard_table::ShardTable;

/// Response word for an acknowledged put (`'P'` tag byte).
pub const RESP_PUT_ACK: u64 = (b'P' as u64) << 56;
/// Response word for an acknowledged delete (`'D'` tag byte).
pub const RESP_DEL_ACK: u64 = (b'D' as u64) << 56;
/// Response word for a get miss (`'M'` tag byte).
pub const RESP_MISS: u64 = (b'M' as u64) << 56;
/// Tag byte of a get hit; the low 32 bits carry the value.
pub const RESP_HIT_TAG: u64 = (b'H' as u64) << 56;

/// Response word for a get hit of `value`.
#[inline]
pub fn resp_hit(value: u32) -> u64 {
    RESP_HIT_TAG | value as u64
}

/// One shard's operation counters. The server keeps one per shard as
/// plain integers under its batch lock, bumped once per batch by the
/// serial scatter pass; [`KvServer::shard_stats`] returns copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Put operations applied.
    pub puts: u64,
    /// Get operations applied.
    pub gets: u64,
    /// Gets that found their key.
    pub hits: u64,
    /// Delete operations applied.
    pub dels: u64,
}

impl ShardStatsSnapshot {
    /// Total operations this shard has applied.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets + self.dels
    }
}

/// One shard's slice of a batch, already grouped into the sub-phases
/// the shard will run (puts → deletes → gets) by the routing pass.
/// Each group keeps submission order; `get_pos[k]` is the batch-global
/// submission index of `gets[k]`, and `found[k]` what the read phase
/// found for it. Reused across batches: the vecs keep their high-water
/// capacity, so steady-state batches allocate nothing per shard.
struct ShardBatch<C: Combine> {
    puts: Vec<KvPair<C>>,
    dels: Vec<KvPair<C>>,
    gets: Vec<KvPair<C>>,
    get_pos: Vec<u32>,
    found: Vec<Option<KvPair<C>>>,
}

impl<C: Combine> ShardBatch<C> {
    fn new() -> Self {
        ShardBatch {
            puts: Vec::new(),
            dels: Vec::new(),
            gets: Vec::new(),
            get_pos: Vec::new(),
            found: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.puts.clear();
        self.dels.clear();
        self.gets.clear();
        self.get_pos.clear();
        self.found.clear();
    }

    fn len(&self) -> usize {
        self.puts.len() + self.dels.len() + self.gets.len()
    }
}

/// One shard: its table, its counters and its routing scratch, all
/// behind the server's batch lock. Aligned to a cache line: on a wider
/// pool neighbouring shards run on different workers, and none of one
/// shard's state may share a line with the next one's.
#[repr(align(64))]
struct Shard<C: Combine, T> {
    table: T,
    stats: ShardStatsSnapshot,
    batch: ShardBatch<C>,
}

impl<C: Combine, T: ShardTable<C>> Shard<C, T> {
    /// The shard's sub-phases for one batch, in the fixed order puts,
    /// deletes, gets; an empty sub-phase is skipped. Runs on a pool
    /// worker under the outer per-shard parallel loop; the batched
    /// table calls parallelize internally as well (nested parallelism is
    /// cheap in the shim — chunks of both levels share the pool). The
    /// insert and delete phases end normalized, making the shard's
    /// layout a pure function of its key set at every batch boundary.
    fn apply(&mut self) {
        let b = &mut self.batch;
        if !b.puts.is_empty() {
            self.table.put_phase(&b.puts);
        }
        if !b.dels.is_empty() {
            self.table.del_phase(&b.dels);
        }
        if !b.gets.is_empty() {
            self.table.get_phase_into(&b.gets, &mut b.found);
        }
    }
}

/// A deterministic KV service over `N` phase-concurrent shards (see
/// the [module docs](self) for semantics). The second type parameter
/// is each shard's table; the default runs the deterministic core,
/// [`FcKvServer`] the `linearHash-FC` one.
pub struct KvServer<C: Combine = KeepMin, T: ShardTable<C> = ResizableTable<KvPair<C>>> {
    /// The shards, reached only under this lock. Holding it for the
    /// whole of `apply_batch` is what lets every shard access be a
    /// `&mut` one, and it *enforces* the service's ordering contract:
    /// batches are the unit of ordering, so two batches never
    /// interleave their phases.
    shards: Mutex<Vec<Shard<C, T>>>,
    /// `shards.len()`, readable without the lock.
    num_shards: usize,
}

/// The fc-backed server mode: every shard runs the `linearHash-FC` core
/// — det's probe bodies under another name — through the same phased
/// path. Response logs are byte-identical to the default [`KvServer`].
pub type FcKvServer<C = KeepMin> = KvServer<C, ResizableTable<KvPair<C>, FcHashTable<KvPair<C>>>>;

impl<C: Combine, T: ShardTable<C>> KvServer<C, T> {
    /// Creates a server with `shards` shards (a power of two), each
    /// seeded with `2^log2_cells_per_shard` cells and growing
    /// independently as needed.
    pub fn new(shards: usize, log2_cells_per_shard: u32) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        KvServer {
            shards: Mutex::new(
                (0..shards)
                    .map(|_| Shard {
                        table: T::new_pow2(log2_cells_per_shard),
                        stats: ShardStatsSnapshot::default(),
                        batch: ShardBatch::new(),
                    })
                    .collect(),
            ),
            num_shards: shards,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard core's label (`"det"` or `"fc"`).
    pub fn mode() -> &'static str {
        T::MODE
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: u32) -> usize {
        router::shard_of(key, self.num_shards)
    }

    /// The shards, under the batch lock.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Shard<C, T>>> {
        self.shards.lock().expect("shards poisoned")
    }

    /// Applies one batch of operations and returns one response word
    /// per op, in submission order (see the [module docs](self) for
    /// the batch semantics).
    ///
    /// The request path: one routing pass partitions the batch by the
    /// deterministic router hash *and* groups each shard's slice into
    /// its sub-phases (puts/deletes ack immediately); every shard's
    /// sub-batch runs its phases in parallel with the other shards';
    /// one serial pass then scatters get responses to their submission
    /// indices and bumps the counters.
    pub fn apply_batch(&self, ops: &[KvOp]) -> Vec<u64> {
        use rayon::prelude::*;
        phc_obs::probe!(count ServerBatches);
        phc_obs::probe!(count ServerOpsRouted, ops.len() as u64);
        assert!(
            ops.len() <= u32::MAX as usize,
            "batch too large for u32 submission indices"
        );
        let mut resp = vec![0u64; ops.len()];
        let mut shards = self.lock();
        for s in shards.iter_mut() {
            s.batch.clear();
        }
        // The routing pass is stable: within a shard, every sub-phase
        // group keeps submission order, so the sub-batch a shard sees
        // is exactly the subsequence of the request log it owns —
        // independent of thread count or upstream batch framing.
        for (i, &op) in ops.iter().enumerate() {
            let b = &mut shards[router::shard_of(op.key(), self.num_shards)].batch;
            match op {
                KvOp::Put { key, val } => {
                    b.puts.push(KvPair::new(key, val));
                    resp[i] = RESP_PUT_ACK;
                }
                KvOp::Del { key } => {
                    b.dels.push(KvPair::new(key, 0));
                    resp[i] = RESP_DEL_ACK;
                }
                KvOp::Get { key } => {
                    b.gets.push(KvPair::new(key, 0));
                    b.get_pos.push(i as u32);
                }
            }
        }
        for s in shards.iter() {
            phc_obs::probe!(hist ServerShardOps, s.batch.len() as u64);
        }
        // On a single-worker pool the cross-shard fan-out is pure
        // dispatch overhead; each shard computes the same responses
        // either way (shards are independent).
        if rayon::current_num_threads() <= 1 {
            shards.iter_mut().for_each(Shard::apply);
        } else {
            shards.par_iter_mut().for_each(Shard::apply);
        }
        for s in shards.iter_mut() {
            let b = &s.batch;
            let mut hits = 0;
            for (&p, f) in b.get_pos.iter().zip(&b.found) {
                resp[p as usize] = match f {
                    Some(kv) => {
                        hits += 1;
                        resp_hit(kv.value)
                    }
                    None => RESP_MISS,
                };
            }
            let stats = &mut s.stats;
            stats.puts += b.puts.len() as u64;
            stats.dels += b.dels.len() as u64;
            stats.gets += b.gets.len() as u64;
            stats.hits += hits;
        }
        resp
    }

    /// Applies a whole request log in batches of `batch` ops,
    /// returning the concatenated response log.
    pub fn apply_log(&self, ops: &[KvOp], batch: usize) -> Vec<u64> {
        let batch = batch.max(1);
        let mut out = Vec::with_capacity(ops.len());
        for chunk in ops.chunks(batch) {
            out.extend(self.apply_batch(chunk));
        }
        out
    }

    /// Applies one operation: a batch of one. The baseline the `server`
    /// bench compares the batched path against.
    pub fn apply_op(&self, op: KvOp) -> u64 {
        self.apply_batch(&[op])[0]
    }

    /// Per-shard quiescent raw snapshots (each shard's canonical cell
    /// array). Equal across thread counts for a fixed shard count —
    /// the differential tests' witness.
    pub fn quiescent_snapshots(&self) -> Vec<Vec<u64>> {
        self.lock().iter_mut().map(|s| s.table.snapshot()).collect()
    }

    /// Appends every stored entry (all shards, shard order, each
    /// shard's deterministic cell order) to `out`. The caller-buffer
    /// export: a periodic dump loop reuses one buffer's high-water
    /// capacity across calls instead of allocating per shard per dump
    /// (the `elements_into` discipline end to end — see
    /// [`ShardTable::elements_into`]).
    pub fn elements_into(&self, out: &mut Vec<KvPair<C>>) {
        for s in self.lock().iter_mut() {
            s.table.elements_into(out);
        }
    }

    /// Per-shard stored-entry counts, at a batch boundary.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.lock().iter_mut().map(|s| s.table.len()).collect()
    }

    /// Per-shard operation counter totals, at a batch boundary.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.lock().iter().map(|s| s.stats).collect()
    }
}

/// Serializes a response log to its canonical byte form (little-endian
/// words) — the representation the byte-identical replay guarantee is
/// stated over.
pub fn response_log_bytes(resps: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(resps.len() * 8);
    for r in resps {
        out.extend_from_slice(&r.to_le_bytes());
    }
    out
}

/// FNV-1a over the canonical byte form — the compact fingerprint the
/// CI smoke asserts on.
pub fn response_log_hash(resps: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in response_log_bytes(resps) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_roundtrip<T: ShardTable<KeepMin>>(server: &KvServer<KeepMin, T>) {
        let puts: Vec<KvOp> = (1..=100u32)
            .map(|k| KvOp::Put { key: k, val: k * 7 })
            .collect();
        let r = server.apply_batch(&puts);
        assert!(r.iter().all(|&x| x == RESP_PUT_ACK));
        let gets: Vec<KvOp> = (1..=120u32).map(|k| KvOp::Get { key: k }).collect();
        let r = server.apply_batch(&gets);
        for (i, &x) in r.iter().enumerate() {
            let k = i as u32 + 1;
            if k <= 100 {
                assert_eq!(x, resp_hit(k * 7), "key {k}");
            } else {
                assert_eq!(x, RESP_MISS, "key {k}");
            }
        }
        let dels: Vec<KvOp> = (1..=50u32).map(|k| KvOp::Del { key: k }).collect();
        server.apply_batch(&dels);
        let r = server.apply_batch(&gets);
        let hits = r.iter().filter(|&&x| x != RESP_MISS).count();
        assert_eq!(hits, 50);
    }

    #[test]
    fn roundtrip_across_shard_counts() {
        for shards in [1, 2, 8] {
            let server: KvServer = KvServer::new(shards, 6);
            ops_roundtrip(&server);
        }
    }

    #[test]
    fn elements_into_appends_all_shards() {
        for shards in [1usize, 2, 8] {
            let server: KvServer = KvServer::new(shards, 6);
            let puts: Vec<KvOp> = (1..=100u32)
                .map(|k| KvOp::Put { key: k, val: k * 3 })
                .collect();
            server.apply_batch(&puts);
            // Pre-populate the buffer: the export appends, so the
            // sentinel must survive and every shard's entries must
            // land after it (not just the last shard's).
            let sentinel = KvPair::new(0xFFFF, 1);
            let mut out: Vec<KvPair<KeepMin>> = vec![sentinel];
            server.elements_into(&mut out);
            assert_eq!(out[0], sentinel, "shards = {shards}: prior contents lost");
            let mut got: Vec<(u32, u32)> = out[1..].iter().map(|e| (e.key, e.value)).collect();
            got.sort_unstable();
            let expect: Vec<(u32, u32)> = (1..=100u32).map(|k| (k, k * 3)).collect();
            assert_eq!(
                got, expect,
                "shards = {shards}: export must cover all shards"
            );
        }
    }

    #[test]
    fn within_batch_gets_see_puts_and_deletes() {
        let server: KvServer = KvServer::new(4, 6);
        let batch = [
            KvOp::Get { key: 5 }, // sub-phase order: still a hit
            KvOp::Put { key: 5, val: 50 },
            KvOp::Put { key: 6, val: 60 },
            KvOp::Del { key: 6 }, // put+del in one batch → absent
            KvOp::Get { key: 6 },
        ];
        let r = server.apply_batch(&batch);
        assert_eq!(r[0], resp_hit(50), "get sees same-batch put");
        assert_eq!(r[1], RESP_PUT_ACK);
        assert_eq!(r[4], RESP_MISS, "get sees same-batch delete");
    }

    #[test]
    fn combining_policy_resolves_duplicates() {
        use phc_core::entry::AddValues;
        let server: KvServer<AddValues> = KvServer::new(2, 6);
        let batch = [
            KvOp::Put { key: 9, val: 3 },
            KvOp::Put { key: 9, val: 4 },
            KvOp::Get { key: 9 },
        ];
        let r = server.apply_batch(&batch);
        assert_eq!(r[2], resp_hit(7), "AddValues combines duplicate puts");
    }

    #[test]
    fn stats_count_ops() {
        let server: KvServer = KvServer::new(4, 6);
        let ops = [
            KvOp::Put { key: 1, val: 1 },
            KvOp::Put { key: 2, val: 2 },
            KvOp::Get { key: 1 },
            KvOp::Get { key: 99 },
            KvOp::Del { key: 2 },
        ];
        server.apply_batch(&ops);
        let stats = server.shard_stats();
        let total: u64 = stats.iter().map(|s| s.ops()).sum();
        assert_eq!(total, 5);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.puts).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|s| s.dels).sum::<u64>(), 1);
    }

    #[test]
    fn per_op_path_matches_batch_of_one() {
        let server_a: KvServer = KvServer::new(4, 6);
        let server_b: KvServer = KvServer::new(4, 6);
        let ops: Vec<KvOp> = (1..=200u32)
            .map(|i| match i % 3 {
                0 => KvOp::Put {
                    key: i % 31 + 1,
                    val: i,
                },
                1 => KvOp::Get { key: i % 31 + 1 },
                _ => KvOp::Del { key: i % 61 + 1 },
            })
            .collect();
        let ra: Vec<u64> = ops.iter().map(|&op| server_a.apply_op(op)).collect();
        let rb = server_b.apply_log(&ops, 1);
        assert_eq!(ra, rb, "batch=1 must equal the per-op path");
    }

    /// A small mixed log with heavy key reuse, so puts, deletes, and
    /// gets all land on overlapping keys within and across batches.
    fn mixed_log(n: u32) -> Vec<KvOp> {
        (0..n)
            .map(|i| {
                let key = i.wrapping_mul(2654435761) % 97 + 1;
                match i % 3 {
                    0 => KvOp::Put { key, val: i },
                    1 => KvOp::Get { key },
                    _ => KvOp::Del { key },
                }
            })
            .collect()
    }

    #[test]
    fn fc_mode_roundtrip() {
        for shards in [1, 2, 8] {
            let server: FcKvServer = FcKvServer::new(shards, 6);
            ops_roundtrip(&server);
        }
    }

    #[test]
    fn fc_mode_matches_det_mode_byte_for_byte() {
        let log = mixed_log(3000);
        for shards in [1, 4] {
            for batch in [1, 64, 512] {
                let det: KvServer = KvServer::new(shards, 6);
                let fc: FcKvServer = FcKvServer::new(shards, 6);
                let ra = det.apply_log(&log, batch);
                let rb = fc.apply_log(&log, batch);
                assert_eq!(
                    response_log_bytes(&ra),
                    response_log_bytes(&rb),
                    "shards={shards} batch={batch}"
                );
                assert_eq!(
                    det.quiescent_snapshots(),
                    fc.quiescent_snapshots(),
                    "canonical shard layouts must agree (shards={shards} batch={batch})"
                );
            }
        }
    }

    #[test]
    fn mode_labels() {
        assert_eq!(KvServer::<KeepMin>::mode(), "det");
        assert_eq!(FcKvServer::<KeepMin>::mode(), "fc");
    }

    #[test]
    fn shard_lens_beside_a_replay_read_a_batch_boundary() {
        // Distinct puts only, so the lengths after `k` batches are the
        // per-shard counts of the first `k * BATCH` keys.
        const BATCH: usize = 64;
        let (shards, n) = (4usize, 64 * BATCH);
        let log: Vec<KvOp> = (1..=n as u32)
            .map(|key| KvOp::Put { key, val: key })
            .collect();
        let mut prefixes = vec![vec![0usize; shards]];
        for chunk in log.chunks(BATCH) {
            let mut lens = prefixes.last().unwrap().clone();
            for op in chunk {
                lens[router::shard_of(op.key(), shards)] += 1;
            }
            prefixes.push(lens);
        }
        let server: KvServer = KvServer::new(shards, 4);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                server.apply_log(&log, BATCH);
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            loop {
                let finished = done.load(std::sync::atomic::Ordering::SeqCst);
                let lens = server.shard_lens();
                assert!(prefixes.contains(&lens), "not a batch boundary: {lens:?}");
                if finished {
                    break;
                }
            }
        });
        assert_eq!(server.shard_lens(), *prefixes.last().unwrap());
    }

    #[test]
    fn response_hash_is_stable() {
        let resps = [RESP_PUT_ACK, resp_hit(7), RESP_MISS];
        assert_eq!(response_log_hash(&resps), response_log_hash(&resps));
        assert_ne!(
            response_log_hash(&resps),
            response_log_hash(&[RESP_PUT_ACK, resp_hit(8), RESP_MISS])
        );
        assert_eq!(response_log_bytes(&resps).len(), 24);
    }
}
