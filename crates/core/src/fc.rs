//! `linearHash-FC`: the fully-concurrent history-independent hash table.
//!
//! Same prioritized linear probing and canonical layout as
//! [`DetHashTable`](crate::det::DetHashTable) (paper §4), but **without
//! the phase discipline**: inserts, deletes, and finds may run
//! concurrently, in the spirit of Attiya, Bender, Farach-Colton and
//! Oshman's *History-Independent Concurrent Hash Tables* (2025). The
//! ordering invariant (Definition 2) is maintained *online*: operations
//! detect overlap with the opposite write kind and validate/repair
//! their own writes, so every **quiescent** snapshot is byte-identical
//! to `DetHashTable` built from the same key set.
//!
//! ## Overlap detection
//!
//! Two shared state words, one per write kind, each packing
//! `(epoch << 32) | active_count`. A writer bumps *both* halves of its
//! own word on entry (`+EPOCH_ONE + 1`) and drops only the active count
//! on exit, so the epoch half is a monotone start counter. An operation
//! registers itself *first*, then snapshots the opposite word; a writer
//! of the opposite kind either shows up in that snapshot (active ≠ 0)
//! or starts later and bumps the epoch, which the lazy re-check at each
//! placement observes. This is the classic store-buffering handshake,
//! hence the `SeqCst` orderings on the state words: at least one of two
//! overlapping opposite-kind writers is guaranteed to see the other.
//!
//! When no overlap is detected — the phase-separated regime, and the
//! sharded KV server's batched sub-phases — every validation is
//! skipped and the per-op cost over `linearHash-D` is one shared-word
//! RMW pair plus one shared load per placement.
//!
//! ## Online repair
//!
//! * **Insert** validates each successful placement when a delete
//!   overlaps: it re-scans `[home(x), j)` through per-cell atomic loads
//!   and, on a violation (an empty or lower-priority cell below `x`, or
//!   a duplicate of `x`), pulls its copy back out and re-inserts it.
//! * **Delete** revalidates each of its writes when an insert overlaps:
//!   after storing `⊥` it re-runs `FINDREPLACEMENT` in case an entry
//!   placed concurrently may now legally back-shift into the hole, and
//!   after a copy-down write it scans up for an entry that the lowered
//!   cell priority newly displaces. A *miss* is also suspect: a
//!   concurrent displacement chain holds its victim in private hands
//!   between CASes, invisible to any scan, so a delete that found
//!   nothing re-walks until one full walk overlaps no insert.
//! * **Find** treats a wide-scan hit as a *hint* confirmed through a
//!   per-cell atomic re-read (unlike the quiescent-phase wide find,
//!   which may use the scanned window value directly), and retries a
//!   bounded number of times on a miss that raced an active writer.
//!
//! The handshake makes the repairs cover each other: an insert placing
//! at time `T1` validates at `T2 > T1`; a delete writing at `T3`
//! revalidates at `T4 > T3`. If `T3 < T2` the insert's validation sees
//! the delete's write; otherwise `T4 > T1` and the delete's
//! revalidation sees the placement. Either way a conflicting pair is
//! observed and repaired by at least one side, so at quiescence the
//! ordering invariant holds and the layout is the canonical one.
//!
//! Mid-operation states (an entry "in hand" between displacement CASes)
//! remain observable by concurrent finds; fc promises determinism of
//! quiescent snapshots, not of in-flight read results.
//!
//! ## Where this lives
//!
//! The probe loops are the shared engine's ([`crate::probe`]) — fc is
//! the deterministic table's order plus the engine's **hooks**, which
//! is where everything above happens: the windows register on the state
//! words, `after_place` validates a placement, `after_copy_down` /
//! `after_hole` revalidate a delete's writes, `rewalk_after_miss`
//! re-walks a suspect miss, and `find_settled` retries a racy lookup.
//! Each hook's quiescent side is a bare load-and-compare inlined into
//! the engine's loop; the repair behind it is `#[cold]` and out of
//! line, because it reaches back into the insert path and letting that
//! call graph into the hot probe loop costs ~15% insert throughput in
//! register spills alone.

use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cell::CellAtomic;
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader};
use crate::probe::{FindBatch, Growable, InsertTally, Probe, ProbePolicy, ProbeTable};

/// One writer-start unit in the epoch half of a state word.
const EPOCH_ONE: u64 = 1 << 32;
/// Mask of the active-count half of a state word.
const ACTIVE_MASK: u64 = EPOCH_ONE - 1;
/// Bounded retries for a find that misses while writers are active.
const FIND_RETRIES: usize = 8;

/// The fully-concurrent table's probe policy: the two overlap state
/// words, and the validate/repair hooks that read them.
pub struct FcPolicy {
    /// `(insert starts << 32) | active inserts`.
    ins_state: AtomicU64,
    /// `(delete starts << 32) | active deletes`.
    del_state: AtomicU64,
}

impl FcPolicy {
    /// Whether an opposite-kind writer overlapped: it was active when
    /// we snapshotted `at_start`, or has started since (epoch moved).
    #[inline]
    fn overlapped(now: u64, at_start: u64) -> bool {
        (at_start & ACTIVE_MASK) != 0 || now != at_start
    }

    /// Lazy re-check against the delete word (insert side).
    #[inline]
    fn del_overlapped(&self, del0: u64) -> bool {
        Self::overlapped(self.del_state.load(Ordering::SeqCst), del0)
    }

    /// Lazy re-check against the insert word (delete side).
    #[inline]
    fn ins_overlapped(&self, ins0: u64) -> bool {
        Self::overlapped(self.ins_state.load(Ordering::SeqCst), ins0)
    }
}

impl<E: HashEntry> ProbePolicy<E> for FcPolicy {
    const NAME: &'static str = "linearHash-FC";
    const CONFIRM_READS: bool = true;

    fn new(_log2_size: u32) -> Self {
        FcPolicy {
            ins_state: AtomicU64::new(0),
            del_state: AtomicU64::new(0),
        }
    }

    // A writer registers itself *first*, then snapshots the opposite
    // word; the snapshot is the window's token, which the ops inside
    // the window validate against.
    #[inline(always)]
    fn open_insert_window(&self) -> u64 {
        self.ins_state.fetch_add(EPOCH_ONE | 1, Ordering::SeqCst);
        self.del_state.load(Ordering::SeqCst)
    }
    #[inline(always)]
    fn close_insert_window(&self) {
        self.ins_state.fetch_sub(1, Ordering::SeqCst);
    }
    #[inline(always)]
    fn open_delete_window(&self) -> u64 {
        self.del_state.fetch_add(EPOCH_ONE | 1, Ordering::SeqCst);
        self.ins_state.load(Ordering::SeqCst)
    }
    #[inline(always)]
    fn close_delete_window(&self) {
        self.del_state.fetch_sub(1, Ordering::SeqCst);
    }

    /// Validate iff a delete overlapped.
    #[inline(always)]
    fn after_place(t: Probe<'_, E, Self>, placed: u64, at: usize, del0: u64) -> i64 {
        if t.policy().del_overlapped(del0) {
            validate_placement(t, placed, at)
        } else {
            0
        }
    }

    #[inline(always)]
    fn after_copy_down(t: Probe<'_, E, Self>, k: usize, ins0: u64) {
        if t.policy().ins_overlapped(ins0) {
            revalidate_lowered(t, k);
        }
    }

    #[inline(always)]
    fn after_hole(t: Probe<'_, E, Self>, k: usize, ins0: u64) -> Option<(usize, u64, usize)> {
        if t.policy().ins_overlapped(ins0) {
            recheck_hole(t, k)
        } else {
            None
        }
    }

    /// A delete's *miss* is only final once a full walk ran with no
    /// insert overlap: a concurrent inserter's displacement chain holds
    /// its displaced victim in private hands between the displacing CAS
    /// and the re-placement CAS, so a scan can race past a key that is
    /// very much still a member (the lost-delete race — the inserter's
    /// own placement validation cannot see it either, because the
    /// re-placed copy may violate nothing). The in-flight copy must
    /// land before its carrier retires from `ins_state`, so re-walking
    /// until a round observes zero active inserters and no epoch
    /// advance makes the miss sound. Waits only on in-flight inserts;
    /// inserts never wait on deletes, so there is no cycle.
    #[inline(always)]
    fn rewalk_after_miss(&self, ins_before: &mut u64) -> bool {
        let now = self.ins_state.load(Ordering::SeqCst);
        if !Self::overlapped(now, *ins_before) {
            return false;
        }
        *ins_before = now;
        phc_obs::probe!(count FcHelps);
        true
    }

    /// Bounded-retry lookup: quiescent misses return after two extra
    /// shared loads; misses that raced an active writer retry up to
    /// [`FIND_RETRIES`] times (counted as `FcHelps`).
    #[inline(always)]
    fn find_settled(&self, mut attempt: impl FnMut() -> Option<u64>) -> Option<u64> {
        let mut retries = 0usize;
        loop {
            let ins0 = self.ins_state.load(Ordering::SeqCst);
            let del0 = self.del_state.load(Ordering::SeqCst);
            let r = attempt();
            if r.is_some() {
                return r;
            }
            let racy = self.ins_overlapped(ins0) || self.del_overlapped(del0);
            if !racy || retries >= FIND_RETRIES {
                return None;
            }
            retries += 1;
            phc_obs::probe!(count FcHelps);
        }
    }

    /// Speculative quiescent fast path: if no writer is registered when
    /// the batch starts, the whole batch runs the det-style direct scan
    /// (trusting the kernel's already-loaded stop-lane value, no
    /// per-cell confirmation, no retries) and then validates that
    /// *both* state words are unchanged. Any insert or delete that
    /// could have overlapped the scans either was registered at the
    /// start (seen as `active > 0`) or bumped an epoch afterwards (seen
    /// by the re-load), so unchanged words prove the reads were
    /// effectively quiescent — torn SIMD windows need a concurrent
    /// write. On validation failure the careful loop redoes the batch
    /// in place, overwriting every speculative result.
    ///
    /// The state snapshots live here, across the call into the bound
    /// frame, so they cannot bloat the scan loop's register allocation.
    fn find_batch_into(
        table: &ProbeTable<E, Self>,
        keys: &[E],
        out: &mut [MaybeUninit<Option<E>>],
    ) {
        let p = &table.policy;
        let ins0 = p.ins_state.load(Ordering::SeqCst);
        let del0 = p.del_state.load(Ordering::SeqCst);
        if ins0 & ACTIVE_MASK == 0 && del0 & ACTIVE_MASK == 0 {
            crate::simd::bind(
                table,
                FindBatch::<E, false> {
                    keys,
                    out: &mut *out,
                },
            );
            // Order the cell scans before the validation loads: the
            // re-loads below must observe any registration whose write
            // could have raced the scans.
            std::sync::atomic::fence(Ordering::SeqCst);
            if p.ins_state.load(Ordering::SeqCst) == ins0
                && p.del_state.load(Ordering::SeqCst) == del0
            {
                return;
            }
            // A writer window opened mid-batch; the speculative reads
            // may have seen torn or mid-repair windows.
            phc_obs::probe!(count FcHelps);
        }
        find_batch_careful(table, keys, out);
    }

    /// Debug-build witness that a speculative wide-scan hit was looked
    /// at through a per-cell atomic value before use (the fc analogue
    /// of `nd.rs`'s `NdPhaseChecks`): asserts the confirmed index is a
    /// real cell and counts the confirmation.
    #[inline(always)]
    fn spec_check(at: usize, mask: usize) {
        debug_assert!(at <= mask, "fc: confirm index out of range");
        #[cfg(debug_assertions)]
        phc_obs::probe!(count FcSpecChecks);
    }

    #[inline(always)]
    fn record_insert(t: &InsertTally, wide: bool) {
        phc_obs::probe!(count ProbeSteps, t.steps);
        phc_obs::probe!(count FcDisplacements, t.swaps);
        phc_obs::probe!(hist FcDisplacementChain, t.swaps);
        if wide {
            phc_obs::probe!(count SimdLanesScanned, t.lanes);
        }
    }

    #[inline(always)]
    fn record_find_wide(lanes: usize, _steps: usize) {
        phc_obs::probe!(count SimdLanesScanned, lanes);
    }
}

impl<E: HashEntry> Growable<E> for FcPolicy {
    const GROW_NAME: &'static str = "linearHash-FC-grow";
    const LABEL: &'static str = "fc";
    /// Every operation may overlap every other: nothing to keep apart.
    type Gate = crate::rooms::NoRooms;
}

/// The careful (per-cell confirming, bounded-retry) batch lookup — the
/// fallback when a writer is registered or opened a window mid-batch.
/// `#[cold]`/`#[inline(never)]` keeps it out of the speculative fast
/// path's caller.
#[cold]
#[inline(never)]
fn find_batch_careful<E: HashEntry>(
    table: &ProbeTable<E, FcPolicy>,
    keys: &[E],
    out: &mut [MaybeUninit<Option<E>>],
) {
    crate::simd::bind(table, FindBatch::<E, true> { keys, out });
}

/// Re-scans `[home(x), j)` through per-cell atomic loads. A cell that
/// is empty, lower-priority than `x`, or a duplicate of `x` means the
/// placement at `j` violates the ordering invariant: pull the copy at
/// `j` back out and re-insert `x` from scratch (the re-insert
/// re-validates itself). If the copy is no longer at `j` a concurrent
/// displacer or deleter took responsibility for it. Returns the net
/// fill-count delta of the repair.
#[cold]
#[inline(never)]
fn validate_placement<E: HashEntry>(t: Probe<'_, E, FcPolicy>, x: u64, j: usize) -> i64 {
    phc_obs::probe!(count FcRepairScans);
    let home = t.home(x);
    let mut i = home;
    while i != j {
        let c = t.cells[i].load(Ordering::Acquire);
        if c == E::EMPTY || E::same_key(c, x) || E::cmp_priority(c, x) == CmpOrdering::Less {
            let kv = t.cells.len() + j;
            if t.delete_from::<false>(kv, kv - t.dist(home, j), x, 0) {
                let del0 = t.policy().del_state.load(Ordering::SeqCst);
                return match t.insert_stored(x, del0) {
                    Ok(n) => n - 1,
                    Err(_) => panic!("FcHashTable: table full during repair"),
                };
            }
            return 0;
        }
        i = (i + 1) & t.mask;
    }
    0
}

/// After the final `⊥` store, when an insert overlapped the delete: an
/// entry placed concurrently above the new hole may now legally
/// back-shift into it. Re-run `FINDREPLACEMENT` and, if a candidate
/// appears and the hole is still `⊥`, refill it and hand the duplicate
/// back to the delete loop to chase exactly like a normal replacement.
#[cold]
#[inline(never)]
fn recheck_hole<E: HashEntry>(t: Probe<'_, E, FcPolicy>, k: usize) -> Option<(usize, u64, usize)> {
    phc_obs::probe!(count FcRepairScans);
    let refill = t.find_replacement(k);
    (refill.1 != E::EMPTY && t.cas_at(k, E::EMPTY, refill.1)).then_some(refill)
}

/// After a copy-down write lowered the priority at virtual index `k`,
/// scan up for an entry `y` that hashes at or before `k` and outranks
/// the new occupant: such a `y` was legally placed while `k` still held
/// the higher-priority victim and now violates the invariant. Repair by
/// pulling `y` out and re-inserting it.
#[cold]
#[inline(never)]
fn revalidate_lowered<E: HashEntry>(t: Probe<'_, E, FcPolicy>, k: usize) {
    phc_obs::probe!(count FcRepairScans);
    for q in (k + 1)..(k + 1 + t.cells.len()) {
        let y = t.load_at(q);
        if y == E::EMPTY {
            return;
        }
        let ck = t.load_at(k);
        if ck == E::EMPTY {
            // `k` was re-deleted; that delete revalidates it.
            return;
        }
        if t.lift_home(y, q) <= k && E::cmp_priority(y, ck) == CmpOrdering::Greater {
            if t.delete_from::<false>(q, t.lift_home(y, q), y, 0) {
                let del0 = t.policy().del_state.load(Ordering::SeqCst);
                if t.insert_stored(y, del0).is_err() {
                    panic!("FcHashTable: table full during repair");
                }
            }
            return;
        }
    }
}

/// The fully-concurrent deterministic linear-probing hash table.
///
/// See the [module docs](self) for the algorithm, and [`ProbeTable`]
/// for the operations — every one of them callable concurrently with
/// any other. Like [`DetHashTable`](crate::det::DetHashTable) the table
/// does not resize; wrap it in [`crate::resize::ResizableTable`] (it
/// implements [`crate::resize::FlatTableCore`]) for cooperative growth.
/// Under insert/delete overlap a repair may cancel an insert's fill
/// credit; `insert_counted` reports the *net* outcome of the call.
///
/// ```
/// use phc_core::{FcHashTable, U64Key};
/// let t: FcHashTable<U64Key> = FcHashTable::new_pow2(8);
/// // No phases: interleave freely from any thread.
/// t.insert(U64Key::new(7));
/// t.delete(U64Key::new(7));
/// t.insert(U64Key::new(9));
/// assert_eq!(t.find(U64Key::new(9)), Some(U64Key::new(9)));
/// assert_eq!(t.find(U64Key::new(7)), None);
/// ```
pub type FcHashTable<E> = ProbeTable<E, FcPolicy>;

/// Insert handle of [`FcHashTable`] for the phase API
/// ([`crate::phase`]).
pub type FcInserter<'t, E> = Inserter<'t, FcHashTable<E>>;
/// Delete handle of [`FcHashTable`].
pub type FcDeleter<'t, E> = Deleter<'t, FcHashTable<E>>;
/// Read handle of [`FcHashTable`].
pub type FcReader<'t, E> = Reader<'t, FcHashTable<E>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DetHashTable;
    use crate::entry::U64Key;
    use std::collections::BTreeSet;

    fn det_snapshot_of(keys: &[u64], log2: u32) -> Vec<u64> {
        let d: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
        for &k in keys {
            d.insert(U64Key::new(k));
        }
        d.snapshot()
    }

    #[test]
    fn quiescent_snapshot_matches_det() {
        let keys: Vec<u64> = (1..=700u64).map(|k| k.wrapping_mul(0x9E37) | 1).collect();
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(10);
        // Interleave inserts and (re-)deletes sequentially.
        for (n, &k) in keys.iter().enumerate() {
            t.insert(U64Key::new(k));
            if n % 3 == 0 {
                t.delete(U64Key::new(k));
            }
        }
        let survivors: Vec<u64> = keys
            .iter()
            .enumerate()
            .filter(|(n, _)| n % 3 != 0)
            .map(|(_, &k)| k)
            .collect();
        let set: BTreeSet<u64> = survivors.iter().copied().collect();
        let set: Vec<u64> = set.into_iter().collect();
        assert_eq!(t.snapshot(), det_snapshot_of(&set, 10));
    }

    #[test]
    fn mixed_concurrent_ops_stay_canonical() {
        // 4 threads, each inserting its own key range and deleting a
        // deterministic subset of its *own* keys afterwards: the
        // survivor set is schedule-independent, so the quiescent
        // snapshot must equal det's for that set — this exercises the
        // overlap validation and repair paths hard.
        const THREADS: u64 = 4;
        const PER: u64 = 600;
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(13);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for th in 0..THREADS {
                let t = &t;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let base = 1 + th * PER;
                    for k in base..base + PER {
                        t.insert(U64Key::new(k));
                        if k % 2 == 0 {
                            t.delete(U64Key::new(k));
                        }
                        // Interleave lookups of our own live keys.
                        if k % 7 == 0 {
                            let _ = t.find(U64Key::new(base));
                        }
                    }
                });
            }
        });
        let survivors: Vec<u64> = (1..=THREADS * PER).filter(|k| k % 2 == 1).collect();
        let expect: BTreeSet<u64> = survivors.iter().copied().collect();
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        assert_eq!(got, expect);
        let snap = t.snapshot();
        crate::invariant::check_ordering_invariant::<U64Key>(&snap).unwrap();
        assert_eq!(snap, det_snapshot_of(&survivors, 13));
    }

    #[test]
    fn concurrent_disjoint_inserts_and_deletes_repair() {
        // One thread inserts fresh keys while another deletes a
        // pre-loaded disjoint set: every insert overlaps deletes and
        // vice versa, so validation/revalidation run constantly.
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(12);
        let dels: Vec<u64> = (1..=800u64).map(|k| k * 2).collect();
        for &k in &dels {
            t.insert(U64Key::new(k));
        }
        let ins: Vec<u64> = (1..=800u64).map(|k| k * 2 + 1).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let t1 = &t;
            let b1 = &barrier;
            let ins1 = &ins;
            s.spawn(move || {
                b1.wait();
                for &k in ins1 {
                    t1.insert(U64Key::new(k));
                }
            });
            let t2 = &t;
            let b2 = &barrier;
            let dels2 = &dels;
            s.spawn(move || {
                b2.wait();
                for &k in dels2 {
                    t2.delete(U64Key::new(k));
                }
            });
        });
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = ins.iter().copied().collect();
        assert_eq!(got, expect);
        let snap = t.snapshot();
        crate::invariant::check_ordering_invariant::<U64Key>(&snap).unwrap();
        assert_eq!(snap, det_snapshot_of(&ins, 12));
    }

    #[test]
    fn grows_cooperatively_as_flat_core() {
        use crate::resize::ResizableTable;
        let t: ResizableTable<U64Key, FcHashTable<U64Key>> = ResizableTable::new_pow2(4);
        for k in 1..=300u64 {
            t.insert(U64Key::new(k));
        }
        t.normalize();
        assert!(t.capacity() > 16);
        assert_eq!(t.len(), 300);
        for k in 1..=300u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "key {k}");
        }
    }
}
