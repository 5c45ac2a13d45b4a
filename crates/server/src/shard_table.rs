//! The table a [`KvServer`](crate::KvServer) shard is: a growable table
//! over some flat core, driven through the paper's borrow-checked
//! phases.
//!
//! The server holds its batch lock across a whole batch and reaches a
//! shard only through `&mut`, so it can open each sub-phase with
//! `PhaseHashTable::begin_insert` / `begin_delete` / `begin_read`: the
//! borrow checker keeps the sub-phases apart, and nothing has to be
//! synchronized at run time — no room word, no per-read registration on
//! the table's epoch (see "Release on drain" in `phc_core::resize`).
//! Every insert and delete sub-phase ends normalized, so a shard's
//! capacity is canonical and no migration is pending at every batch
//! boundary.
//!
//! The core picks only what the shard's probes do, not how its phases
//! are kept apart: [`KvServer`](crate::KvServer) runs the deterministic
//! core (`"det"`), [`FcKvServer`](crate::FcKvServer) the `linearHash-FC`
//! one (`"fc"`), through the same code. The fc core runs det's probe
//! bodies, so both produce byte-identical canonical layouts for the same
//! key set and swapping the parameter never changes a response log.

use phc_core::entry::{Combine, KvPair};
use phc_core::{FlatTableCore, PhaseHashTable, ResizableTable};

/// One shard's table: growable, combining, deterministic at batch
/// boundaries, and reached only through `&mut` (see the
/// [module docs](self)).
pub trait ShardTable<C: Combine>: Send {
    /// Short label of the shard's core for benches and logs (`"det"` /
    /// `"fc"`).
    const MODE: &'static str;

    /// Creates a table seeded with `2^log2_cells` cells.
    fn new_pow2(log2_cells: u32) -> Self;

    /// One insert sub-phase (combining on duplicate keys); capacity is
    /// canonical on return.
    fn put_phase(&mut self, entries: &[KvPair<C>]);

    /// One delete sub-phase; capacity is canonical on return.
    fn del_phase(&mut self, keys: &[KvPair<C>]);

    /// One read sub-phase: appends one lookup result per key to `out`,
    /// in key order.
    fn get_phase_into(&mut self, keys: &[KvPair<C>], out: &mut Vec<Option<KvPair<C>>>);

    /// Appends the stored entries to `out` (deterministic cell order).
    fn elements_into(&mut self, out: &mut Vec<KvPair<C>>);

    /// Raw cell snapshot (canonical layout witness).
    fn snapshot(&mut self) -> Vec<u64>;

    /// Stored-entry count.
    fn len(&mut self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

impl<C: Combine, T: FlatTableCore<KvPair<C>>> ShardTable<C> for ResizableTable<KvPair<C>, T> {
    const MODE: &'static str = T::LABEL;

    fn new_pow2(log2_cells: u32) -> Self {
        ResizableTable::new_pow2(log2_cells)
    }

    fn put_phase(&mut self, entries: &[KvPair<C>]) {
        self.begin_insert().par_insert_batched(entries);
    }

    fn del_phase(&mut self, keys: &[KvPair<C>]) {
        self.begin_delete().par_delete_batched(keys);
    }

    fn get_phase_into(&mut self, keys: &[KvPair<C>], out: &mut Vec<Option<KvPair<C>>>) {
        self.begin_read().par_find_batched_into(keys, out);
    }

    fn elements_into(&mut self, out: &mut Vec<KvPair<C>>) {
        self.begin_read().elements_into(out);
    }

    fn snapshot(&mut self) -> Vec<u64> {
        self.begin_read().snapshot()
    }

    fn len(&mut self) -> usize {
        ResizableTable::len(self)
    }
}
