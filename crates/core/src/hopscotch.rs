//! `hopscotchHash` / `hopscotchHash-PC`: hopscotch hashing
//! (Herlihy, Shavit & Tzafrir, DISC 2008; paper §2, §6).
//!
//! Every key lives within `H = 32` cells of its home bucket, recorded
//! in a per-bucket *hop-info* bitmap, so a find touches at most one or
//! two cache lines. Insertions that only find a free cell further away
//! repeatedly displace entries backwards until the free cell is inside
//! the neighborhood. Mutations take segment locks; lookups are
//! lock-free and — in the fully concurrent variant — validate against
//! per-bucket timestamps that displacements bump.
//!
//! The paper observed that the timestamp machinery is dead weight when
//! operations of different types are never mixed, and measured a
//! timestamp-free variant (`hopscotchHash-PC`). Both are provided here:
//! [`HopscotchHashTable::new_pow2`] (timestamps on) and
//! [`HopscotchHashTable::new_pow2_pc`] (timestamps off).
//!
//! Deadlock freedom: every mutation step acquires the (few) segment
//! locks it needs in sorted order, releasing them between steps and
//! re-validating, so no cyclic waiting is possible even across the
//! table's wraparound seam.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use std::sync::Mutex;

use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader, TableOps};

/// Neighborhood size (machine word of hop bits, as the original
/// suggests).
pub const H: usize = 32;

/// Buckets per lock segment.
const SEG_SIZE: usize = 256;

/// Concurrent hopscotch hash table.
///
/// ```
/// use phc_core::{HopscotchHashTable, U64Key};
/// let t: HopscotchHashTable<U64Key> = HopscotchHashTable::new_pow2_pc(8);
/// t.insert(U64Key::new(3));
/// t.insert(U64Key::new(3)); // idempotent
/// assert_eq!(t.len(), 1);
/// ```
pub struct HopscotchHashTable<E: HashEntry> {
    cells: Box<[AtomicU64]>,
    hop_info: Box<[AtomicU32]>,
    /// Per-bucket timestamps for the fully concurrent find protocol
    /// (unused when `timestamps` is false).
    stamps: Box<[AtomicU64]>,
    segments: Box<[Mutex<()>]>,
    timestamps: bool,
    mask: usize,
    _entry: PhantomData<E>,
}

unsafe impl<E: HashEntry> Send for HopscotchHashTable<E> {}
unsafe impl<E: HashEntry> Sync for HopscotchHashTable<E> {}

impl<E: HashEntry> HopscotchHashTable<E> {
    /// Creates a fully concurrent (timestamped) table with
    /// `2^log2_size` cells.
    pub fn new_pow2(log2_size: u32) -> Self {
        Self::with_mode(log2_size, true)
    }

    /// Creates the phase-concurrent variant (timestamp machinery
    /// removed, as in the paper's `hopscotchHash-PC`).
    pub fn new_pow2_pc(log2_size: u32) -> Self {
        Self::with_mode(log2_size, false)
    }

    fn with_mode(log2_size: u32, timestamps: bool) -> Self {
        let n = 1usize << log2_size;
        let nsegs = (n / SEG_SIZE).max(1);
        HopscotchHashTable {
            cells: (0..n).map(|_| AtomicU64::new(E::EMPTY)).collect(),
            hop_info: (0..n).map(|_| AtomicU32::new(0)).collect(),
            stamps: (0..n).map(|_| AtomicU64::new(0)).collect(),
            segments: (0..nsegs).map(|_| Mutex::new(())).collect(),
            timestamps,
            mask: n - 1,
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Whether this instance keeps timestamps (the fully concurrent
    /// protocol) or not (the `-PC` variant).
    pub fn has_timestamps(&self) -> bool {
        self.timestamps
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        (hash as usize) & self.mask
    }

    #[inline]
    fn seg_of(&self, bucket: usize) -> usize {
        (bucket / SEG_SIZE) % self.segments.len()
    }

    #[inline]
    fn dist(&self, from: usize, to: usize) -> usize {
        (to.wrapping_sub(from)) & self.mask
    }

    /// Runs `f` with the segment locks for `buckets` held (sorted,
    /// deduplicated — so no deadlock).
    fn locked<R>(&self, buckets: &[usize], f: impl FnOnce() -> R) -> R {
        let mut segs = [0usize; 4];
        let mut n = 0;
        for &b in buckets {
            let s = self.seg_of(b);
            if !segs[..n].contains(&s) {
                segs[n] = s;
                n += 1;
            }
        }
        segs[..n].sort_unstable();
        let guards: Vec<_> = segs[..n]
            .iter()
            .map(|&s| self.segments[s].lock().expect("segment lock poisoned"))
            .collect();
        let r = f();
        drop(guards);
        r
    }

    /// Searches the neighborhood of `home` for `probe`'s key; returns
    /// the cell index.
    fn find_in_neighborhood(&self, home: usize, probe: u64) -> Option<usize> {
        let mut bits = self.hop_info[home].load(Ordering::Acquire);
        while bits != 0 {
            let d = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let idx = (home + d) & self.mask;
            let c = self.cells[idx].load(Ordering::Acquire);
            if E::same_key(c, probe) {
                return Some(idx);
            }
        }
        None
    }

    /// Inserts an entry; duplicate keys resolve via
    /// [`HashEntry::combine`].
    ///
    /// # Panics
    /// Panics if no free cell can be brought into the neighborhood
    /// (table too full for hopscotch displacement).
    pub fn insert(&self, e: E) {
        let v = e.to_repr();
        debug_assert_ne!(v, E::EMPTY);
        let home = self.slot(E::hash(v));
        'outer: loop {
            // Fast path: key already present, or a free cell inside the
            // neighborhood.
            let placed = self.locked(&[home], || {
                if let Some(idx) = self.find_in_neighborhood(home, v) {
                    let c = self.cells[idx].load(Ordering::Relaxed);
                    self.cells[idx].store(E::combine(c, v), Ordering::Release);
                    return true;
                }
                for d in 0..H {
                    let idx = (home + d) & self.mask;
                    if self.cells[idx].load(Ordering::Relaxed) == E::EMPTY
                        && self.seg_of(idx) == self.seg_of(home)
                    {
                        self.cells[idx].store(v, Ordering::Release);
                        self.hop_info[home].fetch_or(1 << d, Ordering::AcqRel);
                        return true;
                    }
                }
                false
            });
            if placed {
                return;
            }
            // Slow path: locate a free cell anywhere ahead (lock-free
            // scan), claim it under its segment lock, then hop it
            // backwards into the neighborhood.
            let mut free = None;
            for d in 0..self.cells.len() {
                let idx = (home + d) & self.mask;
                if self.cells[idx].load(Ordering::Acquire) == E::EMPTY {
                    free = Some((home + d, d)); // virtual index + distance
                    break;
                }
            }
            let (mut fv, mut fd) = match free {
                Some(x) => x,
                None => panic!("HopscotchHashTable::insert: table is full"),
            };
            while fd >= H {
                // Find an entry in ((fv-H, fv)) that may hop into fv:
                // its home bucket b must satisfy dist(b, fv) < H.
                let mut moved = false;
                for back in (1..H).rev() {
                    let bv = fv - back; // candidate home bucket (virtual)
                    let b = bv & self.mask;
                    let fidx = fv & self.mask;
                    let hop_here = self.locked(&[b, fidx, home], || {
                        if self.cells[fidx].load(Ordering::Relaxed) != E::EMPTY {
                            return HopResult::FreeLost;
                        }
                        // Double-check the key didn't appear meanwhile.
                        if self.find_in_neighborhood(home, v).is_some() {
                            let idx = self.find_in_neighborhood(home, v).unwrap();
                            let c = self.cells[idx].load(Ordering::Relaxed);
                            self.cells[idx].store(E::combine(c, v), Ordering::Release);
                            return HopResult::Done;
                        }
                        let bits = self.hop_info[b].load(Ordering::Relaxed);
                        // The earliest member of b's neighborhood that
                        // sits before fv can hop forward into fv.
                        let mut probe_bits = bits;
                        while probe_bits != 0 {
                            let d = probe_bits.trailing_zeros() as usize;
                            probe_bits &= probe_bits - 1;
                            if d >= back {
                                break; // at or past fv
                            }
                            let src = (b + d) & self.mask;
                            let x = self.cells[src].load(Ordering::Relaxed);
                            if x == E::EMPTY {
                                continue;
                            }
                            // Move x from src to fv.
                            self.cells[fidx].store(x, Ordering::Release);
                            self.hop_info[b].fetch_or(1 << back, Ordering::AcqRel);
                            self.hop_info[b].fetch_and(!(1 << d), Ordering::AcqRel);
                            self.cells[src].store(E::EMPTY, Ordering::Release);
                            if self.timestamps {
                                self.stamps[b].fetch_add(1, Ordering::AcqRel);
                            }
                            return HopResult::Moved(bv + d);
                        }
                        HopResult::NoCandidate
                    });
                    match hop_here {
                        HopResult::Done => return,
                        HopResult::FreeLost => continue 'outer,
                        HopResult::Moved(new_free_virtual) => {
                            phc_obs::probe!(count HopscotchHops);
                            // The hole moved backwards to src.
                            fv = new_free_virtual;
                            fd = self.dist(home, fv & self.mask);
                            moved = true;
                            break;
                        }
                        HopResult::NoCandidate => {}
                    }
                }
                if !moved {
                    panic!(
                        "HopscotchHashTable::insert: cannot displace a free cell into the \
                         neighborhood (load too high for H = {H})"
                    );
                }
            }
            // Free cell within the neighborhood: claim it.
            let fidx = fv & self.mask;
            let done = self.locked(&[home, fidx], || {
                if self.cells[fidx].load(Ordering::Relaxed) != E::EMPTY {
                    return false;
                }
                if let Some(idx) = self.find_in_neighborhood(home, v) {
                    let c = self.cells[idx].load(Ordering::Relaxed);
                    self.cells[idx].store(E::combine(c, v), Ordering::Release);
                    return true;
                }
                self.cells[fidx].store(v, Ordering::Release);
                self.hop_info[home].fetch_or(1 << fd, Ordering::AcqRel);
                true
            });
            if done {
                return;
            }
        }
    }

    /// Looks up the entry with `key`'s key part.
    ///
    /// Lock-free. In timestamped mode the scan retries while a
    /// concurrent displacement is detected (the original's protocol);
    /// in `-PC` mode a single scan suffices because finds never run
    /// concurrently with updates.
    pub fn find(&self, key: E) -> Option<E> {
        let probe = key.to_repr();
        let home = self.slot(E::hash(probe));
        if !self.timestamps {
            return self
                .find_in_neighborhood(home, probe)
                .map(|i| E::from_repr(self.cells[i].load(Ordering::Acquire)));
        }
        // Timestamped protocol: bounded retries, then a locked scan.
        for _ in 0..4 {
            let ts = self.stamps[home].load(Ordering::Acquire);
            if let Some(i) = self.find_in_neighborhood(home, probe) {
                return Some(E::from_repr(self.cells[i].load(Ordering::Acquire)));
            }
            if self.stamps[home].load(Ordering::Acquire) == ts {
                return None;
            }
        }
        self.locked(&[home], || {
            self.find_in_neighborhood(home, probe)
                .map(|i| E::from_repr(self.cells[i].load(Ordering::Relaxed)))
        })
    }

    /// Deletes the entry with `key`'s key part (no-op if absent).
    pub fn delete(&self, key: E) {
        let probe = key.to_repr();
        let home = self.slot(E::hash(probe));
        self.locked(&[home], || {
            if let Some(idx) = self.find_in_neighborhood(home, probe) {
                let d = self.dist(home, idx);
                self.cells[idx].store(E::EMPTY, Ordering::Release);
                self.hop_info[home].fetch_and(!(1 << d), Ordering::AcqRel);
                if self.timestamps {
                    self.stamps[home].fetch_add(1, Ordering::AcqRel);
                }
            }
        });
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

enum HopResult {
    Done,
    FreeLost,
    Moved(usize),
    NoCandidate,
}

/// Insert-phase handle.
pub type HopscotchInserter<'t, E> = Inserter<'t, HopscotchHashTable<E>>;
/// Delete-phase handle.
pub type HopscotchDeleter<'t, E> = Deleter<'t, HopscotchHashTable<E>>;
/// Read-phase handle.
pub type HopscotchReader<'t, E> = Reader<'t, HopscotchHashTable<E>>;

impl<E: HashEntry> TableOps<E> for HopscotchHashTable<E> {
    const NAME: &'static str = "hopscotchHash";

    fn new_pow2(log2_size: u32) -> Self {
        HopscotchHashTable::new_pow2(log2_size)
    }
    fn capacity(&self) -> usize {
        HopscotchHashTable::capacity(self)
    }
    fn insert(&self, e: E) {
        HopscotchHashTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        HopscotchHashTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        HopscotchHashTable::find(self, key)
    }
    fn elements(&self) -> Vec<E> {
        HopscotchHashTable::elements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeepMin, KvPair, U64Key};
    use std::collections::BTreeSet;

    fn both_modes(log2: u32) -> [HopscotchHashTable<U64Key>; 2] {
        [
            HopscotchHashTable::new_pow2(log2),
            HopscotchHashTable::new_pow2_pc(log2),
        ]
    }

    #[test]
    fn insert_find_delete_both_modes() {
        for t in both_modes(10) {
            for k in 1..=300u64 {
                t.insert(U64Key::new(k));
            }
            for k in 1..=300u64 {
                assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "key {k}");
            }
            assert_eq!(t.find(U64Key::new(5000)), None);
            for k in (1..=300u64).step_by(3) {
                t.delete(U64Key::new(k));
            }
            for k in 1..=300u64 {
                assert_eq!(
                    t.find(U64Key::new(k)).is_some(),
                    (k - 1) % 3 != 0,
                    "key {k}"
                );
            }
        }
    }

    #[test]
    fn displacement_preserves_keys() {
        // Fill to 75%: displacements must happen with H = 32.
        let t: HopscotchHashTable<U64Key> = HopscotchHashTable::new_pow2(10);
        let keys: Vec<u64> = (1..=768u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        for &k in &keys {
            t.insert(U64Key::new(k));
        }
        for &k in &keys {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "lost {k:#x}");
        }
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn every_entry_within_h_of_home() {
        let t: HopscotchHashTable<U64Key> = HopscotchHashTable::new_pow2(10);
        let keys: Vec<u64> = (1..=700u64)
            .map(|i| phc_parutil::hash64(i * 31) | 1)
            .collect();
        for &k in &keys {
            t.insert(U64Key::new(k));
        }
        let mask = t.capacity() - 1;
        for (i, c) in t.cells.iter().enumerate() {
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                let home = (phc_parutil::hash64(v) as usize) & mask;
                let d = (i.wrapping_sub(home)) & mask;
                assert!(d < H, "entry at {i} is {d} cells from home {home}");
            }
        }
    }

    #[test]
    fn duplicates_combine() {
        let t: HopscotchHashTable<KvPair<KeepMin>> = HopscotchHashTable::new_pow2(8);
        t.insert(KvPair::new(4, 9));
        t.insert(KvPair::new(4, 2));
        t.insert(KvPair::new(4, 7));
        assert_eq!(t.find(KvPair::new(4, 0)).unwrap().value, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn parallel_insert_keeps_set() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=2000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        for pc in [false, true] {
            let t: HopscotchHashTable<U64Key> = HopscotchHashTable::with_mode(12, !pc);
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
            let expect: BTreeSet<u64> = keys.iter().copied().collect();
            assert_eq!(got, expect, "pc={pc}");
        }
    }

    #[test]
    fn parallel_delete_keeps_complement() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=2000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let t: HopscotchHashTable<U64Key> = HopscotchHashTable::new_pow2(12);
        keys.iter().for_each(|&k| t.insert(U64Key::new(k)));
        let (dels, keeps) = keys.split_at(1200);
        dels.par_iter().for_each(|&k| t.delete(U64Key::new(k)));
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = keeps.iter().copied().collect();
        assert_eq!(got, expect);
    }
}
