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
//! own (a different stop condition — an empty cell or the key, no
//! priority order — and a different scan kernel). Storage, the batch
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
use crate::simd::Kernel;

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
    fn insert_with<K: Kernel>(t: Probe<'_, E, Self>, k: K, v: u64) -> Result<bool, u64> {
        nd_phase_check!(v);
        if K::WIDE {
            if let Some(key_mask) = E::SIMD_KEY_MASK {
                return insert_wide(t, k, key_mask, v);
            }
            phc_obs::probe!(count SimdFallbacks);
        }
        insert_scalar(t, v)
    }

    #[inline(always)]
    fn find_with<K: Kernel>(t: Probe<'_, E, Self>, k: K, probe: u64) -> Option<u64> {
        nd_phase_check!(probe);
        if K::WIDE {
            if let Some(key_mask) = E::SIMD_KEY_MASK {
                return find_wide(t, k, key_mask, probe);
            }
            phc_obs::probe!(count SimdFallbacks);
        }
        find_scalar(t, probe)
    }

    /// Shift-back delete (no tombstones). Concurrent-safe within a
    /// delete-only phase: the hole is filled by CAS and the duplicated
    /// element is then deleted recursively — the deterministic table's
    /// copy-chasing loop, whose copy-counting proof carries over.
    #[inline]
    fn delete_in(t: Probe<'_, E, Self>, probe: u64) -> bool {
        nd_phase_check!(probe);
        let m = t.cells.len();
        // Walk to the end of the cluster (first empty cell) so the
        // downward scan starts at-or-past the rightmost copy of the
        // key. The walk is one wide empty-scan: in a delete phase cells
        // never go back from empty to occupied, so a racy "occupied"
        // lane is as valid here as the scalar loop's one-shot racy
        // read, and the downward loop revalidates every cell it acts on
        // anyway.
        let home = t.home(probe);
        let i = m + home;
        let (hit, _) = crate::simd::scan_for_empty(t.cells, home, m, E::EMPTY);
        let hit = match hit {
            Some(_) => hit,
            None => crate::simd::scan_for_empty(t.cells, 0, home, E::EMPTY).0,
        };
        let k = match hit {
            Some((j, _)) => i + t.dist(home, j),
            None => i + m, // no empty cell: scan the whole wrap
        };
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
/// `Err(v)` if the table is full.
fn insert_scalar<E: HashEntry>(t: Probe<'_, E, NdPolicy>, v: u64) -> Result<bool, u64> {
    let mut i = t.home(v);
    let mut steps = 0usize;
    let mut cas_fails = 0usize;
    let result = loop {
        let c = t.cells[i].load(Ordering::Acquire);
        if c == E::EMPTY {
            if t.cells[i]
                .compare_exchange(E::EMPTY, v, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break Ok(true);
            }
            cas_fails += 1;
            continue; // lost the race; re-read this cell
        }
        if E::same_key(c, v) {
            let merged = E::combine(c, v);
            if merged == c
                || t.cells[i]
                    .compare_exchange(c, merged, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                break Ok(false);
            }
            cas_fails += 1;
            continue;
        }
        i = (i + 1) & t.mask;
        steps += 1;
        if steps > t.cells.len() {
            break Err(v);
        }
    };
    phc_obs::probe!(count ProbeSteps, steps);
    phc_obs::probe!(count InsertCasFail, cas_fails);
    phc_obs::probe!(hist ProbeLen, steps);
    phc_obs::probe!(hist CasRetries, cas_fails);
    result
}

/// Wide-scan first-fit insert: the `scan_for_key` kernel skips occupied
/// cells holding other keys in one compare per lane, then the candidate
/// (an empty cell or this key) is confirmed by CAS against the value
/// the scan already loaded. Skipping is sound because in an ND insert
/// phase a cell never returns to empty and its key never changes once
/// set; a candidate that was grabbed by a concurrent insert between
/// scan and confirm fails its CAS (yielding the true current value) and
/// is a counted misspeculation that re-scans from the next cell — as
/// the scalar loop would.
#[inline(always)]
fn insert_wide<E: HashEntry, K: Kernel>(
    t: Probe<'_, E, NdPolicy>,
    k: K,
    key_mask: u64,
    v: u64,
) -> Result<bool, u64> {
    let n = t.cells.len();
    let vm = v & key_mask;
    let mut i = t.home(v);
    let mut steps = 0usize;
    let mut cas_fails = 0usize;
    let mut lanes_total = 0usize;
    let mut misspecs = 0usize;
    let result = 'done: loop {
        // Fast path: at moderate loads the cell under the cursor is
        // usually empty or holds the key already — peek it scalar
        // before paying for the wide-scan setup.
        let peek = t.cells[i].load(Ordering::Acquire);
        let (j, mut c) = if peek == E::EMPTY || (peek & key_mask) == vm {
            lanes_total += 1;
            (i, peek)
        } else {
            // SAFETY (both scans): `i < n == cells.len()`.
            let (hit, lanes) = unsafe { k.scan_for_key(t.cells, i, n, E::EMPTY, key_mask, vm) };
            let (hit, lanes) = match hit {
                Some(_) => (hit, lanes),
                None => {
                    let (wrapped, more) =
                        unsafe { k.scan_for_key(t.cells, 0, i, E::EMPTY, key_mask, vm) };
                    (wrapped, lanes + more)
                }
            };
            lanes_total += lanes;
            match hit {
                Some(hit) => hit,
                // No empty cell and no copy of this key anywhere.
                None => break 'done Err(v),
            }
        };
        steps += t.dist(i, j);
        if steps > n {
            break 'done Err(v);
        }
        i = j;
        // Confirm loop seeded with the value the scan observed in its
        // loaded window: every write still goes through a CAS against
        // the cell's true contents, and a failed CAS hands back the
        // current value, so the cell is never re-loaded.
        loop {
            if c == E::EMPTY {
                match t.cells[i].compare_exchange(E::EMPTY, v, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => break 'done Ok(true),
                    Err(cur) => {
                        cas_fails += 1;
                        c = cur; // lost the race; retry on the fresh value
                        continue;
                    }
                }
            }
            if E::same_key(c, v) {
                let merged = E::combine(c, v);
                if merged == c {
                    break 'done Ok(false);
                }
                match t.cells[i].compare_exchange(c, merged, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => break 'done Ok(false),
                    Err(cur) => {
                        cas_fails += 1;
                        c = cur;
                        continue;
                    }
                }
            }
            // Misspeculation: a concurrent insert claimed the cell for
            // another key after the wide scan sampled it.
            misspecs += 1;
            i = (i + 1) & t.mask;
            steps += 1;
            if steps > n {
                break 'done Err(v);
            }
            continue 'done;
        }
    };
    phc_obs::probe!(count ProbeSteps, steps);
    phc_obs::probe!(count InsertCasFail, cas_fails);
    phc_obs::probe!(count SimdLanesScanned, lanes_total);
    phc_obs::probe!(count SimdMisspeculations, misspecs);
    phc_obs::probe!(hist ProbeLen, steps);
    phc_obs::probe!(hist CasRetries, cas_fails);
    phc_obs::probe!(hist SimdLanesPerProbe, lanes_total);
    result
}

/// First-fit find: probes until the key or an empty cell (no priority
/// early-exit: the layout is unordered).
fn find_scalar<E: HashEntry>(t: Probe<'_, E, NdPolicy>, probe: u64) -> Option<u64> {
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

/// Wide-scan find: the first-fit probe stops at the first empty cell or
/// copy of the key — exactly the `scan_for_key` kernel. Find phases are
/// quiescent, so the value the kernel loaded at the stop lane equals
/// what a re-load would return and the result is byte-identical to the
/// scalar loop at every tier.
#[inline(always)]
fn find_wide<E: HashEntry, K: Kernel>(
    t: Probe<'_, E, NdPolicy>,
    k: K,
    key_mask: u64,
    probe: u64,
) -> Option<u64> {
    let n = t.cells.len();
    let home = t.home(probe);
    let pm = probe & key_mask;
    // SAFETY (both scans): `home < n == cells.len()`.
    let (hit, lanes) = unsafe { k.scan_for_key(t.cells, home, n, E::EMPTY, key_mask, pm) };
    let (hit, lanes) = match hit {
        Some(_) => (hit, lanes),
        None => {
            let (wrapped, more) =
                unsafe { k.scan_for_key(t.cells, 0, home, E::EMPTY, key_mask, pm) };
            (wrapped, lanes + more)
        }
    };
    phc_obs::probe!(count SimdLanesScanned, lanes);
    phc_obs::probe!(hist SimdLanesPerProbe, lanes);
    // `None`: a full table without the key (the scalar guard case).
    phc_obs::probe!(count FindProbeSteps, hit.map_or(n + 1, |(j, _)| t.dist(home, j)));
    hit.map(|(_, c)| c).filter(|&c| c != E::EMPTY)
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
