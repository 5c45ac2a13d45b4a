//! The table interface a [`KvServer`](crate::KvServer) shard drives,
//! abstracting over the synchronization discipline.
//!
//! A shard table is a [`phc_core::AutoGrowTable`] over some flat core,
//! and the discipline comes with the core (there is one impl, below):
//!
//! * [`AutoPhaseGrowTable`](phc_core::AutoPhaseGrowTable) — a
//!   phase-concurrent core brings a room synchronizer, which turns each
//!   batched call into a phase, so every put→delete→get sub-phase
//!   boundary inside [`apply_batch`](crate::KvServer::apply_batch)
//!   pays a room switch (entry CAS + drain wait).
//! * [`FcAutoGrowTable`](phc_core::FcAutoGrowTable) — the fully
//!   concurrent core brings no rooms at all, so a shard's three
//!   sub-batches run back-to-back as one fused pass with no
//!   synchronizer traffic between them. The sub-phase *order* is kept
//!   (it is what makes get responses a pure function of the batch), but
//!   ordering now costs only program order, not a room handshake.
//!
//! Both cores produce byte-identical canonical layouts for the same
//! key set (the fc differential suite's invariant), so swapping the
//! parameter never changes a response log — only what synchronization
//! the shard pays.

use phc_core::entry::{Combine, KvPair};
use phc_core::{AutoGrowTable, FlatTableCore};

/// One shard's table: growable, combining, deterministic at batch
/// boundaries. See the [module docs](self) for the two disciplines.
pub trait ShardTable<C: Combine>: Send + Sync {
    /// Short mode label for benches and logs (`"rooms"` / `"fc"`).
    const MODE: &'static str;

    /// Creates a table seeded with `2^log2_cells` cells.
    fn new_pow2(log2_cells: u32) -> Self;

    /// Inserts (combining on duplicate keys) through the per-op path.
    fn insert(&self, e: KvPair<C>);

    /// Deletes by key through the per-op path.
    fn delete(&self, key: KvPair<C>);

    /// Looks up by key through the per-op path.
    fn find(&self, key: KvPair<C>) -> Option<KvPair<C>>;

    /// Parallel batched insert; capacity is canonical on return.
    fn par_insert_batched(&self, entries: &[KvPair<C>]);

    /// Parallel batched delete.
    fn par_delete_batched(&self, keys: &[KvPair<C>]);

    /// Parallel batched lookup, results in key order.
    fn par_find_batched(&self, keys: &[KvPair<C>]) -> Vec<Option<KvPair<C>>>;

    /// [`par_find_batched`](Self::par_find_batched) into a
    /// caller-supplied buffer (appends; does not clear) — what
    /// [`apply_batch`](crate::KvServer::apply_batch) calls, with a
    /// buffer it keeps across batches.
    fn par_find_batched_into(&self, keys: &[KvPair<C>], out: &mut Vec<Option<KvPair<C>>>);

    /// Packs the stored entries into a caller-supplied buffer
    /// (appends; deterministic cell order). The caller-buffer form of
    /// `elements()` — a steady-state export loop reuses one buffer's
    /// high-water capacity instead of allocating a fresh `Vec` per
    /// shard per call.
    fn elements_into(&self, out: &mut Vec<KvPair<C>>);

    /// Quiescent raw cell snapshot (canonical layout witness).
    fn snapshot(&self) -> Vec<u64>;

    /// Stored-entry count.
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<C: Combine, T: FlatTableCore<KvPair<C>>> ShardTable<C> for AutoGrowTable<KvPair<C>, T> {
    const MODE: &'static str = Self::MODE;

    fn new_pow2(log2_cells: u32) -> Self {
        AutoGrowTable::new_pow2(log2_cells)
    }

    fn insert(&self, e: KvPair<C>) {
        AutoGrowTable::insert(self, e);
    }

    fn delete(&self, key: KvPair<C>) {
        AutoGrowTable::delete(self, key);
    }

    fn find(&self, key: KvPair<C>) -> Option<KvPair<C>> {
        AutoGrowTable::find(self, key)
    }

    fn par_insert_batched(&self, entries: &[KvPair<C>]) {
        AutoGrowTable::par_insert_batched(self, entries);
    }

    fn par_delete_batched(&self, keys: &[KvPair<C>]) {
        AutoGrowTable::par_delete_batched(self, keys);
    }

    fn par_find_batched(&self, keys: &[KvPair<C>]) -> Vec<Option<KvPair<C>>> {
        AutoGrowTable::par_find_batched(self, keys)
    }

    fn par_find_batched_into(&self, keys: &[KvPair<C>], out: &mut Vec<Option<KvPair<C>>>) {
        AutoGrowTable::par_find_batched_into(self, keys, out)
    }

    fn elements_into(&self, out: &mut Vec<KvPair<C>>) {
        AutoGrowTable::elements_into(self, out)
    }

    fn snapshot(&self) -> Vec<u64> {
        AutoGrowTable::snapshot(self)
    }

    fn len(&self) -> usize {
        AutoGrowTable::len(self)
    }
}
