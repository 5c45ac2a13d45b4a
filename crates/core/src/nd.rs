//! `linearHash-ND`: non-deterministic phase-concurrent linear probing
//! (paper §6).
//!
//! Based on the lock-free open-addressing design of Gao, Groote &
//! Hesselink, with the paper's two changes: deletions **shift elements
//! back** instead of leaving tombstones, and there is no resizing.
//! Insertion places an entry in the *first empty cell* of its probe
//! sequence, so the layout depends on operation order — it is fast but
//! not history-independent. Because inserted entries never move,
//! duplicate key-value pairs can be merged in place with a
//! `fetch_add` (the paper's `xadd` optimization for edge contraction);
//! see [`NdHashTable::insert_add_value`].
//!
//! This is the paper's baseline, the table the deterministic one is
//! measured against, so its first-fit insert and find loops stay its
//! own (a different stop condition: an empty cell or the key, no
//! priority order). Storage, the batch
//! loops, the phase handles, the quiescent operations and the delete
//! chase (`delete_from`, the same copy-chasing structure with
//! hash-bucket homes) come from the shared engine ([`crate::probe`]);
//! the chase's `find_replacement` is this table's own per-cell scan,
//! without the engine's downward re-scan, because the shared one
//! measured slower here (see the override).
//!
//! The ND table sits outside the resize layer: its policy is not
//! `Growable` (a first-fit layout cannot be rebuilt by re-inserting in
//! cell order), so it does not implement the resizer's `FlatTableCore`
//! and is never migrated.

use std::sync::atomic::Ordering;

use crate::cell::CellAtomic;
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader};
use crate::probe::{Probe, ProbePolicy, ProbeTable};

/// Debug-build phase-discipline check shared by every ND operation:
/// asserts the probe is a real entry (matching the deterministic
/// table's checks) and, with `obs` on, counts the check so debug runs
/// can confirm the assertions actually executed.
macro_rules! nd_phase_check {
    ($probe:expr) => {
        debug_assert_ne!($probe, E::EMPTY);
        #[cfg(debug_assertions)]
        phc_obs::probe!(count NdPhaseChecks);
    };
}

/// The first-fit table's probe policy: the engine's default layout
/// (identity encoding, `E::hash & mask` homes) under its own insert,
/// find and delete-walk bodies.
pub struct NdPolicy;

impl<E: HashEntry> ProbePolicy<E> for NdPolicy {
    const NAME: &'static str = "linearHash-ND";

    fn new(_log2_size: u32) -> Self {
        NdPolicy
    }

    #[inline(always)]
    fn insert_with(t: Probe<'_, E, Self>, v: u64) -> Result<bool, u64> {
        nd_phase_check!(v);
        first_fit_insert(t, v)
    }

    #[inline(always)]
    fn find_with(t: Probe<'_, E, Self>, probe: u64) -> Option<u64> {
        nd_phase_check!(probe);
        first_fit_find(t, probe)
    }

    /// Shift-back delete (no tombstones). Concurrent-safe within a
    /// delete-only phase: the hole is filled by CAS and the duplicated
    /// element is then deleted recursively — the deterministic table's
    /// copy-chasing loop, whose copy-counting proof carries over.
    #[inline]
    fn delete_in(t: Probe<'_, E, Self>, probe: u64) -> bool {
        nd_phase_check!(probe);
        let m = t.cells.len();
        // Walk to the end of the cluster (the first empty cell, or the
        // whole wrap if there is none) so the downward scan starts
        // at-or-past the rightmost copy of the key. In a delete phase
        // cells never go back from empty to occupied, so a racy
        // "occupied" read is safe to walk past, and the downward loop
        // revalidates every cell it acts on.
        let i = m + t.home(probe);
        let mut k = i;
        while k < i + m && t.load_at(k) != E::EMPTY {
            k += 1;
        }
        t.delete_from(k.saturating_sub(1).max(i), i, probe)
    }

    /// First entry after hole `i` (virtual) that may move back to it,
    /// or ⊥ if the cluster ends first, with its lifted home
    /// (`find_replacement`'s triple). The baseline's own loop: the
    /// engine's — the same per-cell scan up, then Figure 1's re-scan
    /// down, out of line — measured 66 → 78 ns per delete on this table
    /// at 64 MiB, slower in 6 of 7 runs (EXPERIMENTS.md PR 18), as its
    /// wide-window predecessor had in PR 12.
    #[inline(always)]
    fn find_replacement(t: Probe<'_, E, Self>, i: usize) -> (usize, u64, usize) {
        let mut j = i;
        loop {
            j += 1;
            let x = t.load_at(j);
            if x == E::EMPTY {
                return (j, x, j);
            }
            let home = t.lift_home(x, j);
            if home <= i {
                return (j, x, home);
            }
        }
    }
}

/// First-fit insert: the first empty cell of the probe sequence, or the
/// cell already holding the key (merged via [`HashEntry::combine`]).
/// `Err(v)` if the table is full. A failed CAS hands back the cell's
/// current value, which the loop re-examines without re-loading it.
fn first_fit_insert<E: HashEntry>(t: Probe<'_, E, NdPolicy>, v: u64) -> Result<bool, u64> {
    let mut i = t.home(v);
    let mut c = t.cells[i].load(Ordering::Acquire);
    let mut steps = 0usize;
    let mut cas_fails = 0usize;
    let result = loop {
        let new = if c == E::EMPTY {
            v
        } else if E::same_key(c, v) {
            let merged = E::combine(c, v);
            if merged == c {
                break Ok(false);
            }
            merged
        } else {
            i = (i + 1) & t.mask;
            steps += 1;
            if steps > t.cells.len() {
                break Err(v);
            }
            c = t.cells[i].load(Ordering::Acquire);
            continue;
        };
        match t.cells[i].compare_exchange(c, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break Ok(c == E::EMPTY),
            Err(cur) => {
                cas_fails += 1;
                c = cur; // lost the race; retry on the fresh value
            }
        }
    };
    phc_obs::probe!(count ProbeSteps, steps);
    phc_obs::probe!(count InsertCasFail, cas_fails);
    phc_obs::probe!(hist ProbeLen, steps);
    phc_obs::probe!(hist CasRetries, cas_fails);
    result
}

/// First-fit find: probes until the key or an empty cell (no priority
/// early-exit: the layout is unordered).
fn first_fit_find<E: HashEntry>(t: Probe<'_, E, NdPolicy>, probe: u64) -> Option<u64> {
    let mut i = t.home(probe);
    let mut steps = 0usize;
    let result = 'scan: {
        for _ in 0..=t.cells.len() {
            let c = t.cells[i].load(Ordering::Acquire);
            if c == E::EMPTY {
                break 'scan None;
            }
            if E::same_key(c, probe) {
                break 'scan Some(c);
            }
            i = (i + 1) & t.mask;
            steps += 1;
        }
        None
    };
    phc_obs::probe!(count FindProbeSteps, steps);
    result
}

/// Non-deterministic phase-concurrent linear probing hash table.
///
/// See the [module docs](self), and [`ProbeTable`] for the operations.
/// Within a phase, inserts may run concurrently with finds (inserted
/// entries are never displaced) — the paper notes this but still
/// separates the phases in its experiments, as do we. `snapshot()` and
/// the order of `elements()` depend on history for this table.
///
/// ```
/// use phc_core::{NdHashTable, U64Key};
/// let t: NdHashTable<U64Key> = NdHashTable::new_pow2(8);
/// t.insert(U64Key::new(7));
/// assert_eq!(t.find(U64Key::new(7)), Some(U64Key::new(7)));
/// t.delete(U64Key::new(7));
/// assert_eq!(t.find(U64Key::new(7)), None);
/// ```
pub type NdHashTable<E> = ProbeTable<E, NdPolicy>;

/// Insert-phase handle of [`NdHashTable`] (see [`crate::phase`]).
pub type NdInserter<'t, E> = Inserter<'t, NdHashTable<E>>;
/// Delete-phase handle of [`NdHashTable`].
pub type NdDeleter<'t, E> = Deleter<'t, NdHashTable<E>>;
/// Read-phase handle of [`NdHashTable`].
pub type NdReader<'t, E> = Reader<'t, NdHashTable<E>>;

impl<E: HashEntry> ProbeTable<E, NdPolicy> {
    /// Inserts a key-value entry, accumulating the value field with a
    /// hardware `fetch_add` when the key is already present — valid in
    /// this table because entries never move once inserted (the paper's
    /// `xadd` fast path for edge contraction). The accumulated value
    /// must never overflow [`HashEntry::VALUE_MASK`]: like the real
    /// `xadd`, the add cannot saturate, and an overflow would carry
    /// into the key bits.
    pub fn insert_add_value(&self, e: E) {
        assert!(
            E::VALUE_MASK != 0,
            "entry type has no value field to accumulate"
        );
        let v = e.to_repr();
        nd_phase_check!(v);
        let mut i = self.probe().home(v);
        let mut steps = 0usize;
        'done: loop {
            let c = self.cells[i].load(Ordering::Acquire);
            if c == E::EMPTY {
                if self.cells[i]
                    .compare_exchange(E::EMPTY, v, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break 'done;
                }
                continue;
            }
            if E::same_key(c, v) {
                // Entries never move in this table, so the key stays at
                // cell i and the add cannot be lost.
                self.cells[i].fetch_add(v & E::VALUE_MASK, Ordering::AcqRel);
                break 'done;
            }
            i = (i + 1) & self.mask;
            steps += 1;
            assert!(
                steps <= self.cells.len(),
                "NdHashTable::insert_add_value: table is full"
            );
        }
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(hist ProbeLen, steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{AddValues, KvPair, U64Key};
    use std::collections::BTreeSet;

    #[test]
    fn insert_find_delete_roundtrip() {
        let t: NdHashTable<U64Key> = NdHashTable::new_pow2(8);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
        for k in (1..=100u64).filter(|k| k % 3 == 0) {
            t.delete(U64Key::new(k));
        }
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k % 3 != 0, "key {k}");
        }
    }

    #[test]
    fn batched_ops_match_per_element() {
        let keys: Vec<U64Key> = (1..=2000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let seq: NdHashTable<U64Key> = NdHashTable::new_pow2(12);
        for &k in &keys {
            seq.insert(k);
        }
        let batched: NdHashTable<U64Key> = NdHashTable::new_pow2(12);
        batched.insert_batch(&keys);
        // The ND layout depends on insertion order, but both paths ran
        // the same sequential order, so contents and lookups agree.
        let probes: Vec<U64Key> = (1..=4000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| seq.find(k)).collect();
        assert_eq!(batched.find_batch(&probes), expect);
        assert_eq!(batched.snapshot(), seq.snapshot());
    }

    #[test]
    fn batched_delete_matches_per_element() {
        let keys: Vec<U64Key> = (1..=2000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let (dels, keeps) = keys.split_at(1200);
        let expect: NdHashTable<U64Key> = NdHashTable::new_pow2(12);
        expect.insert_batch(&keys);
        for &k in dels {
            expect.delete(k);
        }
        let batched: NdHashTable<U64Key> = NdHashTable::new_pow2(12);
        batched.insert_batch(&keys);
        batched.delete_batch(dels);
        // Same sequential delete order ⇒ identical layout here; the
        // parallel path guarantees only the surviving key set.
        assert_eq!(batched.snapshot(), expect.snapshot());
        let par: NdHashTable<U64Key> = NdHashTable::new_pow2(12);
        par.insert_batch(&keys);
        par.par_delete_batched(dels);
        let got: BTreeSet<u64> = par.elements().iter().map(|k| k.0).collect();
        let want: BTreeSet<u64> = keeps.iter().map(|k| k.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_inserts_keep_one() {
        let t: NdHashTable<U64Key> = NdHashTable::new_pow2(6);
        for _ in 0..5 {
            t.insert(U64Key::new(11));
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn xadd_accumulates() {
        let t: NdHashTable<KvPair<AddValues>> = NdHashTable::new_pow2(6);
        for v in 1..=10u32 {
            t.insert_add_value(KvPair::new(4, v));
        }
        assert_eq!(t.find(KvPair::new(4, 0)).unwrap().value, 55);
    }

    #[test]
    fn parallel_insert_delete_contents_correct() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=3000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let t: NdHashTable<U64Key> = NdHashTable::new_pow2(13);
        keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
        let (dels, keeps) = keys.split_at(1500);
        dels.par_iter().for_each(|&k| t.delete(U64Key::new(k)));
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = keeps.iter().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn wraparound_cluster_delete() {
        let t: NdHashTable<U64Key> = NdHashTable::new_pow2(3);
        let mut picked = Vec::new();
        let mut k = 1u64;
        while picked.len() < 5 {
            if (phc_parutil::hash64(k) as usize) & 7 >= 6 {
                picked.push(k);
            }
            k += 1;
        }
        for &k in &picked {
            t.insert(U64Key::new(k));
        }
        for &k in &picked {
            t.delete(U64Key::new(k));
            assert_eq!(t.find(U64Key::new(k)), None);
        }
        assert_eq!(t.len(), 0);
    }
}
