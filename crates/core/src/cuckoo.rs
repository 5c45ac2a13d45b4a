//! `cuckooHash`: phase-concurrent cuckoo hashing (paper §6).
//!
//! Each key has two candidate cells (two independent hash functions).
//! An insertion locks both candidate cells (in index order, to avoid
//! deadlock), places the entry in the first free one, or evicts an
//! incumbent and re-inserts it recursively. The table is
//! non-deterministic: which of the two cells an entry lands in depends
//! on insertion order. Finds in a find-only phase need no locks — cells
//! are quiescent — which is the phase-concurrency advantage the paper
//! exploits.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cell::{new_cells, CellArray};
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader, TableOps};

/// Maximum eviction chain length before declaring the table too full.
/// With tables sized at load ≤ 0.5 (as in all experiments) chains stay
/// tiny; 500 matches common cuckoo implementations.
const MAX_EVICTIONS: usize = 500;

/// Phase-concurrent two-choice cuckoo hash table with per-cell locks.
///
/// ```
/// use phc_core::{CuckooHashTable, U64Key};
/// let t: CuckooHashTable<U64Key> = CuckooHashTable::new_pow2(8);
/// for k in 1..=50u64 {
///     t.insert(U64Key::new(k));
/// }
/// assert_eq!(t.len(), 50);
/// assert!(t.find(U64Key::new(25)).is_some());
/// ```
pub struct CuckooHashTable<E: HashEntry> {
    cells: CellArray<AtomicU64>,
    /// One spinlock per cell (the paper notes per-entry locks inflate
    /// the memory footprint; we keep them in a side array).
    locks: Box<[AtomicBool]>,
    mask: usize,
    _entry: PhantomData<E>,
}

unsafe impl<E: HashEntry> Send for CuckooHashTable<E> {}
unsafe impl<E: HashEntry> Sync for CuckooHashTable<E> {}

impl<E: HashEntry> CuckooHashTable<E> {
    /// Creates a table with `2^log2_size` cells.
    pub fn new_pow2(log2_size: u32) -> Self {
        let n = 1usize << log2_size;
        CuckooHashTable {
            cells: new_cells::<u64>(n, E::EMPTY),
            locks: (0..n).map(|_| AtomicBool::new(false)).collect(),
            mask: n - 1,
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The two candidate cells for an entry.
    #[inline]
    fn buckets(&self, repr: u64) -> (usize, usize) {
        let h = E::hash(repr);
        let b1 = (h as usize) & self.mask;
        // Derive the second choice from the upper hash bits; keep the
        // choices distinct so lock ordering is well defined.
        let mut b2 = (phc_parutil::hash64(h) as usize) & self.mask;
        if b2 == b1 {
            b2 = (b2 + 1) & self.mask;
        }
        (b1, b2)
    }

    #[inline]
    fn lock(&self, i: usize) {
        let mut spins = 0u32;
        while self.locks[i]
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Yield after a bounded spin so a preempted lock holder can
            // run — essential when threads outnumber cores.
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    #[inline]
    fn unlock(&self, i: usize) {
        self.locks[i].store(false, Ordering::Release);
    }

    /// Locks both cells in increasing index order.
    #[inline]
    fn lock_pair(&self, a: usize, b: usize) {
        let (lo, hi) = (a.min(b), a.max(b));
        self.lock(lo);
        self.lock(hi);
    }

    #[inline]
    fn unlock_pair(&self, a: usize, b: usize) {
        self.unlock(a.max(b));
        self.unlock(a.min(b));
    }

    /// Inserts an entry; duplicates resolve via [`HashEntry::combine`].
    ///
    /// # Panics
    /// Panics if an eviction chain exceeds `MAX_EVICTIONS` (500) moves
    /// (table too full).
    pub fn insert(&self, e: E) {
        let mut v = e.to_repr();
        debug_assert_ne!(v, E::EMPTY);
        // The cell the current entry was just evicted from: re-placing
        // it there would undo the previous step, so an evicted entry
        // always moves to (or evicts from) its *other* candidate.
        let mut avoid: Option<usize> = None;
        let mut evictions = 0usize;
        'done: {
            for _ in 0..MAX_EVICTIONS {
                let (b1, b2) = self.buckets(v);
                self.lock_pair(b1, b2);
                let c1 = self.cells[b1].load(Ordering::Relaxed);
                let c2 = self.cells[b2].load(Ordering::Relaxed);
                if E::same_key(c1, v) {
                    self.cells[b1].store(E::combine(c1, v), Ordering::Release);
                    self.unlock_pair(b1, b2);
                    break 'done;
                }
                if E::same_key(c2, v) {
                    self.cells[b2].store(E::combine(c2, v), Ordering::Release);
                    self.unlock_pair(b1, b2);
                    break 'done;
                }
                if c1 == E::EMPTY && avoid != Some(b1) {
                    self.cells[b1].store(v, Ordering::Release);
                    self.unlock_pair(b1, b2);
                    break 'done;
                }
                if c2 == E::EMPTY && avoid != Some(b2) {
                    self.cells[b2].store(v, Ordering::Release);
                    self.unlock_pair(b1, b2);
                    break 'done;
                }
                // Both occupied (or only the forbidden cell is free):
                // evict from the candidate we did not just come from.
                let (victim_cell, victim) = if avoid == Some(b1) {
                    (b2, c2)
                } else {
                    (b1, c1)
                };
                self.cells[victim_cell].store(v, Ordering::Release);
                self.unlock_pair(b1, b2);
                if victim == E::EMPTY {
                    break 'done; // the "forbidden" cell freed up concurrently
                }
                evictions += 1;
                v = victim;
                avoid = Some(victim_cell);
            }
            panic!(
                "CuckooHashTable::insert: eviction chain exceeded {MAX_EVICTIONS}; table too full"
            );
        }
        phc_obs::probe!(count CuckooEvictions, evictions);
        phc_obs::probe!(hist ProbeLen, evictions);
    }

    /// Looks up the entry with `key`'s key part. Lock-free: valid in a
    /// find/elements phase, where no writes are in flight.
    pub fn find(&self, key: E) -> Option<E> {
        let probe = key.to_repr();
        let (b1, b2) = self.buckets(probe);
        let c1 = self.cells[b1].load(Ordering::Acquire);
        if E::same_key(c1, probe) {
            return Some(E::from_repr(c1));
        }
        let c2 = self.cells[b2].load(Ordering::Acquire);
        if E::same_key(c2, probe) {
            return Some(E::from_repr(c2));
        }
        None
    }

    /// Deletes the entry with `key`'s key part (no-op if absent).
    pub fn delete(&self, key: E) {
        let probe = key.to_repr();
        let (b1, b2) = self.buckets(probe);
        self.lock_pair(b1, b2);
        let c1 = self.cells[b1].load(Ordering::Relaxed);
        if E::same_key(c1, probe) {
            self.cells[b1].store(E::EMPTY, Ordering::Release);
        } else {
            let c2 = self.cells[b2].load(Ordering::Relaxed);
            if E::same_key(c2, probe) {
                self.cells[b2].store(E::EMPTY, Ordering::Release);
            }
        }
        self.unlock_pair(b1, b2);
    }

    /// Packs the non-empty cells in cell order (parallel).
    pub fn elements(&self) -> Vec<E> {
        phc_parutil::pack_with_mask(
            &self.cells,
            |win| crate::stats::occupied_mask(win, E::EMPTY),
            |c| E::from_repr(c.load(Ordering::Acquire)),
        )
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        crate::stats::occupied_len(&self.cells, E::EMPTY)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Insert-phase handle.
pub type CuckooInserter<'t, E> = Inserter<'t, CuckooHashTable<E>>;
/// Delete-phase handle.
pub type CuckooDeleter<'t, E> = Deleter<'t, CuckooHashTable<E>>;
/// Read-phase handle.
pub type CuckooReader<'t, E> = Reader<'t, CuckooHashTable<E>>;

impl<E: HashEntry> TableOps<E> for CuckooHashTable<E> {
    const NAME: &'static str = "cuckooHash";

    fn new_pow2(log2_size: u32) -> Self {
        CuckooHashTable::new_pow2(log2_size)
    }
    fn capacity(&self) -> usize {
        CuckooHashTable::capacity(self)
    }
    fn insert(&self, e: E) {
        CuckooHashTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        CuckooHashTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        CuckooHashTable::find(self, key)
    }
    fn elements(&self) -> Vec<E> {
        CuckooHashTable::elements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeepMin, KvPair, U64Key};
    use std::collections::BTreeSet;

    #[test]
    fn insert_find_delete() {
        let t: CuckooHashTable<U64Key> = CuckooHashTable::new_pow2(10);
        for k in 1..=300u64 {
            t.insert(U64Key::new(k));
        }
        for k in 1..=300u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
        assert_eq!(t.find(U64Key::new(999)), None);
        for k in (1..=300u64).step_by(2) {
            t.delete(U64Key::new(k));
        }
        for k in 1..=300u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k % 2 == 0);
        }
    }

    #[test]
    fn eviction_chains_preserve_all_keys() {
        // Load to 50%: evictions certainly occur.
        let t: CuckooHashTable<U64Key> = CuckooHashTable::new_pow2(10);
        let keys: Vec<u64> = (1..=512u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        for &k in &keys {
            t.insert(U64Key::new(k));
        }
        for &k in &keys {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "lost {k:#x}");
        }
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn duplicate_keys_combine() {
        let t: CuckooHashTable<KvPair<KeepMin>> = CuckooHashTable::new_pow2(8);
        t.insert(KvPair::new(9, 30));
        t.insert(KvPair::new(9, 10));
        assert_eq!(t.find(KvPair::new(9, 0)).unwrap().value, 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn parallel_insert_keeps_set() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=2000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let t: CuckooHashTable<U64Key> = CuckooHashTable::new_pow2(13);
        keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_delete_keeps_complement() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=2000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let t: CuckooHashTable<U64Key> = CuckooHashTable::new_pow2(13);
        keys.iter().for_each(|&k| t.insert(U64Key::new(k)));
        let (dels, keeps) = keys.split_at(1000);
        dels.par_iter().for_each(|&k| t.delete(U64Key::new(k)));
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = keeps.iter().copied().collect();
        assert_eq!(got, expect);
    }
}
