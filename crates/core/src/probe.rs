//! The prioritized-probe engine: one `INSERT` / `FIND` / `DELETE` /
//! `FINDREPLACEMENT` (paper Figure 1) for every linear-probing table in
//! this crate.
//!
//! [`ProbeTable<E, P>`] is a cell array, an index mask and a policy
//! `P`. The deterministic table ([`crate::det`]), the Robin Hood table
//! ([`crate::robinhood`]) and `linearHash-FC` ([`crate::fc`]) are type
//! aliases of it; they differ only in their policy's **order** — how a
//! repr is stored (`stored` / `unstored`), where it homes (`home`), when
//! two stored words carry the same key (`same_key`) and when one
//! outranks the other (`outranks`). det and fc take every default
//! (identity encoding, `E::hash & mask`, `E::cmp_priority`); Robin Hood
//! stores a bijectively mixed key field and reads home and rank off the
//! mixed bits.
//!
//! There are no hooks. Every table here is phase-concurrent
//! (Definition 1): operations of one kind may overlap each other, never
//! another kind, so no probe loop validates or repairs what a different
//! kind of operation did — the caller's phases (or a
//! [`RoomSync`](crate::RoomSync)) rule that out.
//!
//! The policy is a type parameter: every call is monomorphised, there
//! is no `dyn`, no function pointer, and no probe loop branches on
//! which table it serves.
//!
//! Each operation has one body: the Figure 1 loop over per-cell atomic
//! loads, for every entry type and every cell width.
//!
//! The first-fit table ([`crate::nd`]) is the paper's baseline: it
//! keeps its own insert and find loops (a different stop condition and
//! kernel) by overriding the policy's body entry points, and takes
//! everything else — storage, the delete chase, the batch loops, the
//! quiescent operations — from here.
//!
//! ## Batch loops
//!
//! `insert_run`, `find_run` and `delete_run` serve every batched entry
//! point here and every window of the growable wrapper, each with the
//! home slot of the item [`PREFETCH_AHEAD`] places on prefetched (see
//! [`crate::batch`]). A lookup batch writes its results by index into
//! slots the caller sized once; in parallel, each grain of keys gets
//! the matching grain of that one output. The delete chase asks where a
//! cell's occupant *hashes*, so it is scalar, scans cell by cell, and
//! hashes each candidate once.
//!
//! ## Migration
//!
//! A cell only ever holds ⊥ or a stored entry: there is no marker word,
//! and no loop below tests for one. The growable wrapper
//! ([`crate::resize`]) moves a retiring table's contents out with
//! [`ProbeTable::drain_range`], which only *reads* — the wrapper's
//! writer gate has by then made the array immutable, so plain loads see
//! its final contents.

use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

use crate::batch::{prefetch_slot, PREFETCH_AHEAD};
use crate::cell::{AtomOf, CellArray, CellAtomic};
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader, TableOps};

pub(crate) use policy::{AsRepr, Growable, Probe, ProbePolicy};

/// The policy traits, and the types in their signatures, live in a
/// private module: they are `pub` so the public aliases can name them
/// as bounds, but unreachable from outside the crate — callers name
/// tables, not policies.
mod policy {
    use crate::cell::AtomOf;
    use crate::entry::HashEntry;
    use std::cmp::Ordering as CmpOrdering;

    /// A table's working set by value: the cell slice and the index mask,
    /// copied out of the table, and the table itself (for its policy).
    /// Every probe body runs on one of these rather than on
    /// `&ProbeTable`, so a batch loop holds the slice and mask in
    /// registers across iterations (through `&self` the compiler would
    /// have to re-load both fields after every atomic cell access).
    ///
    /// Four words, so it crosses a call boundary in memory: built inside
    /// the frame that loops over it, never handed to one: a callee that
    /// copies it out with one wide load cannot store-forward from the
    /// caller's four 8-byte stores, a ~13-tick stall per call measured
    /// on the per-op insert.
    pub struct Probe<'a, E: HashEntry, P: ProbePolicy<E>> {
        pub cells: &'a [AtomOf<E::Repr>],
        pub mask: usize,
        pub table: &'a super::ProbeTable<E, P>,
    }

    impl<E: HashEntry, P: ProbePolicy<E>> Clone for Probe<'_, E, P> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<E: HashEntry, P: ProbePolicy<E>> Copy for Probe<'_, E, P> {}

    impl<'a, E: HashEntry, P: ProbePolicy<E>> Probe<'a, E, P> {
        /// The table's policy state.
        #[inline(always)]
        pub fn policy(self) -> &'a P {
            &self.table.policy
        }
    }

    /// What a table over the probe engine supplies. Every method has
    /// the deterministic table's behaviour as its default.
    pub trait ProbePolicy<E: HashEntry>: Sized + Send + Sync + 'static {
        /// `PhaseHashTable::NAME` of the table.
        const NAME: &'static str;
        /// The counter displacement swaps are reported under.
        const SWAPS: phc_obs::Counter = phc_obs::Counter::PrioritySwap;

        /// Policy state for a table of `2^log2_size` cells; panics if
        /// `E` does not meet the table's entry requirements.
        fn new(log2_size: u32) -> Self;

        // ---- order ----

        /// Encodes a repr into the form the cells hold.
        #[inline(always)]
        fn stored(&self, repr: u64) -> u64 {
            repr
        }
        /// Inverse of [`stored`](Self::stored).
        #[inline(always)]
        fn unstored(&self, cell: u64) -> u64 {
            cell
        }
        /// Decodes the cell a lookup of `probe_repr` matched. Same
        /// result as `unstored(cell)`; policies with a costly inverse
        /// rebuild the key bits from the probe instead.
        #[inline(always)]
        fn recover(&self, probe_repr: u64, cell: u64) -> u64 {
            let _ = probe_repr;
            self.unstored(cell)
        }
        /// Home bucket of a stored word.
        #[inline(always)]
        fn home(&self, stored: u64, mask: usize) -> usize {
            (E::hash(stored) as usize) & mask
        }
        /// Whether two stored words carry the same key (`c` may be ⊥).
        #[inline(always)]
        fn same_key(&self, c: u64, v: u64) -> bool {
            E::same_key(c, v)
        }
        /// Whether cell `c` has strictly higher priority than `v` (⊥
        /// outranks nothing).
        #[inline(always)]
        fn outranks(&self, c: u64, v: u64) -> bool {
            E::cmp_priority(c, v) == CmpOrdering::Greater
        }
        // ---- bodies ----
        //
        // The prioritized probe of Figure 1. Only the first-fit
        // baseline overrides these, with its own loops.

        /// Inserts stored word `v`: `Ok(whether it filled an empty
        /// cell)` or `Err(carried stored word)` when the probe wrapped
        /// the array.
        #[inline(always)]
        fn insert_with(t: Probe<'_, E, Self>, v: u64) -> Result<bool, u64> {
            t.prioritized_insert(v)
        }
        /// Looks up stored word `probe`, returning the matching cell.
        #[inline(always)]
        fn find_with(t: Probe<'_, E, Self>, probe: u64) -> Option<u64> {
            t.prioritized_find(probe)
        }
        /// Deletes stored word `probe`'s key; `true` iff this call
        /// stored the final ⊥.
        #[inline(always)]
        fn delete_in(t: Probe<'_, E, Self>, probe: u64) -> bool {
            t.prioritized_delete(probe)
        }
        /// Figure 1 `FINDREPLACEMENT(i)` for the delete chase:
        /// `(j, v', home)` — the entry that may legally fill the hole at
        /// virtual index `i` (or ⊥), its virtual location, and its
        /// lifted home, which the scan computed to accept it.
        #[inline(always)]
        fn find_replacement(t: Probe<'_, E, Self>, i: usize) -> (usize, u64, usize) {
            t.find_replacement(i)
        }
    }

    /// Policies [`crate::resize::ResizableTable`] may wrap: the
    /// history-independent ones, whose layout migration can rebuild
    /// with the ordinary insert.
    pub trait Growable<E: HashEntry>: ProbePolicy<E> {
        /// `FlatTableCore::GROW_NAME` of the table.
        const GROW_NAME: &'static str;
        /// `FlatTableCore::LABEL` of the table.
        const LABEL: &'static str;
    }

    /// An item of an insert run: an entry, or a raw repr (what a
    /// migration sweep drains out of a retiring table).
    pub trait AsRepr<E>: Copy {
        /// The item in `HashEntry::to_repr` form.
        fn repr(self) -> u64;
    }
    impl<E: HashEntry> AsRepr<E> for E {
        #[inline(always)]
        fn repr(self) -> u64 {
            self.to_repr()
        }
    }
    impl<E: HashEntry> AsRepr<E> for u64 {
        #[inline(always)]
        fn repr(self) -> u64 {
            self
        }
    }
}

/// A linear-probing table over the probe engine: the cell array, the
/// index mask, and the policy's state.
///
/// Not named directly — use the aliases
/// [`DetHashTable`](crate::DetHashTable),
/// [`RobinHoodHashTable`](crate::RobinHoodHashTable),
/// [`FcHashTable`](crate::FcHashTable) and
/// [`NdHashTable`](crate::NdHashTable), whose module docs give each
/// table's algorithm and guarantees. The table does not resize; size it
/// so the load factor stays below ~0.9 (the paper's experiments run at
/// loads up to 1/3 by default), or wrap it in
/// [`crate::resize::ResizableTable`].
pub struct ProbeTable<E: HashEntry, P: ProbePolicy<E>> {
    pub(crate) cells: CellArray<AtomOf<E::Repr>>,
    pub(crate) mask: usize,
    pub(crate) policy: P,
    _entry: PhantomData<E>,
}

impl<E: HashEntry, P: ProbePolicy<E>> ProbeTable<E, P> {
    /// Creates a table with `2^log2_size` cells, all empty.
    ///
    /// # Panics
    ///
    /// Panics if `E` does not meet the table's entry requirements (see
    /// the alias's module docs; only the Robin Hood table has any).
    pub fn new_pow2(log2_size: u32) -> Self {
        let policy = P::new(log2_size);
        let n = 1usize << log2_size;
        ProbeTable {
            cells: crate::cell::new_cells::<E::Repr>(n, E::EMPTY),
            mask: n - 1,
            policy,
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Raw view of the cell array (for invariant checkers and tests).
    /// Cell width follows the entry type's `Repr`; cells hold *stored*
    /// words (the Robin Hood table's have a mixed key field).
    pub fn raw_cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }

    /// Snapshot of the raw cell contents. Two history-independent
    /// tables of one kind and capacity built from the same key set have
    /// equal snapshots — the strongest form of the guarantee (for entry
    /// types whose reprs are canonical; pointer entries are
    /// deterministic at the payload level instead). The first-fit
    /// table's layout depends on history.
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    /// The borrowed working set the probe bodies run on.
    #[inline(always)]
    pub(crate) fn probe(&self) -> Probe<'_, E, P> {
        Probe {
            cells: &self.cells,
            mask: self.mask,
            table: self,
        }
    }

    #[cold]
    fn full(&self) -> ! {
        panic!(
            "{}::insert: table is full (capacity {})",
            P::NAME,
            self.cells.len()
        )
    }

    /// Inserts an entry (Figure 1, `INSERT`). Safe to call from any
    /// number of threads during an insert phase.
    ///
    /// Duplicate keys are resolved with [`HashEntry::combine`] — a
    /// commutative rule, so concurrent duplicate inserts still commute.
    ///
    /// # Panics
    ///
    /// Panics if the table is full (the probe wrapped all the way
    /// around), matching the paper's precondition that
    /// `|contents ∪ inserts| < |M|`.
    pub fn insert(&self, e: E) {
        self.insert_counted(e);
    }

    /// Like [`insert`](Self::insert), but returns `true` iff the call
    /// filled a previously empty cell. Under concurrent displacement
    /// the credit may be earned while carrying *another* thread's
    /// entry, so the return value is a **global** net-new-element count
    /// credit (exactly one `true` per element added across all
    /// threads), not a statement about this particular key — the
    /// credit [`crate::resize::ResizableTable`]'s exact load accounting
    /// counts.
    pub fn insert_counted(&self, e: E) -> bool {
        let v = e.to_repr();
        debug_assert_ne!(v, E::EMPTY);
        let v = self.policy.stored(v);
        P::insert_with(self.probe(), v).unwrap_or_else(|_| self.full())
    }

    /// The batch insert loop: inserts `carry` — a repr an earlier run
    /// handed back — and then `items` in slice order, with upcoming home
    /// slots prefetched (see [`crate::batch`]). The one loop behind
    /// [`insert_batch`](Self::insert_batch) and behind every window of
    /// the growable wrapper ([`crate::resize`]), migration included.
    ///
    /// The run stops once `fill_budget` of its inserts have filled an
    /// empty cell, and at the first insert whose probe wrapped the
    /// whole array: any displacements that insert performed stand, and
    /// the repr it was left carrying is stored nowhere. Returns
    /// `(consumed, fills, carry)`: how many of `items` were taken, how
    /// many inserts earned a fill credit (see
    /// [`insert_counted`](Self::insert_counted)), and that homeless
    /// repr, which the caller must re-home. An incoming `carry` that
    /// could not be placed comes back with `consumed == 0`.
    pub(crate) fn insert_run<I: AsRepr<E>>(
        &self,
        carry: Option<u64>,
        items: &[I],
        fill_budget: usize,
    ) -> (usize, usize, Option<u64>) {
        let t = self.probe();
        let p = t.policy();
        let mut fills = 0usize;
        if let Some(c) = carry {
            if fill_budget == 0 {
                return (0, 0, carry);
            }
            match P::insert_with(t, p.stored(c)) {
                Ok(filled) => fills += filled as usize,
                Err(homeless) => return (0, 0, Some(p.unstored(homeless))),
            }
        }
        let (mut consumed, mut carry) = (0usize, None);
        t.pipelined(items, |_, r, stored| {
            debug_assert_ne!(r, E::EMPTY);
            if fills >= fill_budget {
                return false;
            }
            consumed += 1;
            match P::insert_with(t, stored) {
                Ok(filled) => {
                    fills += filled as usize;
                    true
                }
                Err(homeless) => {
                    carry = Some(p.unstored(homeless));
                    false
                }
            }
        });
        (consumed, fills, carry)
    }

    /// Inserts a batch of entries with software prefetching: before
    /// probing entry `i`, the home slot of entry `i + PREFETCH_AHEAD`
    /// is prefetched (see [`crate::batch`]), keeping several cache
    /// misses in flight instead of serializing them. Semantically
    /// identical to inserting the entries one by one in slice order — and for the
    /// history-independent tables, to *any* insertion of the same set.
    pub fn insert_batch(&self, entries: &[E]) {
        let (_, _, carry) = self.insert_run(None, entries, usize::MAX);
        if carry.is_some() {
            self.full();
        }
    }

    /// Inserts a slice in parallel through the batched prefetching
    /// path: scheduler chunks of [`phc_parutil::grain`] entries, each
    /// processed by [`insert_batch`](Self::insert_batch). A slice of at
    /// most one grain runs on the calling thread.
    pub fn par_insert_batched(&self, entries: &[E]) {
        phc_parutil::for_each_grain(entries, |chunk| self.insert_batch(chunk));
    }

    /// Looks up the entry with `key`'s key part (Figure 1, `FIND`).
    /// Safe to call concurrently with other finds and `elements`.
    pub fn find(&self, key: E) -> Option<E> {
        let r = key.to_repr();
        debug_assert_ne!(r, E::EMPTY);
        let probe = self.policy.stored(r);
        P::find_with(self.probe(), probe).map(|c| E::from_repr(self.policy.recover(r, c)))
    }

    /// The batch lookup loop — the one kernel behind every batched find
    /// of this table and of the growable wrapper, the read analogue of
    /// [`insert_run`](Self::insert_run): writes `self.find(keys[i])` to
    /// `out[i]`, **every** slot, with upcoming home slots prefetched.
    /// Panics unless `out` is as long as `keys`.
    pub(crate) fn find_run(&self, keys: &[E], out: &mut [MaybeUninit<Option<E>>]) {
        let n = keys.len();
        assert_eq!(n, out.len());
        if n == 0 {
            return;
        }
        let t = self.probe();
        // One length for both slices: no bounds check per store.
        let out = &mut out[..n];
        t.pipelined(keys, |i, r, stored| {
            out[i].write(P::find_with(t, stored).map(|c| E::from_repr(t.policy().recover(r, c))));
            true
        });
    }

    /// Looks up a batch of keys with software prefetching (the read
    /// analogue of [`insert_batch`](Self::insert_batch)), returning
    /// results in key order: `out[i] == self.find(keys[i])`.
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        let mut out = Vec::new();
        self.find_batch_into(keys, &mut out);
        out
    }

    /// [`find_batch`](Self::find_batch) into a caller-provided buffer:
    /// **appends** one result per key to `out`, reusing its allocation.
    pub fn find_batch_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        // SAFETY: `find_run` writes every slot it is handed.
        unsafe { phc_parutil::append_with(out, keys.len(), |slots| self.find_run(keys, slots)) }
    }

    /// Parallel batched lookup: results in key order, computed in
    /// grain-sized prefetching chunks on the scheduler (on the calling
    /// thread for at most one grain of keys).
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        let mut out = Vec::new();
        self.par_find_batched_into(keys, &mut out);
        out
    }

    /// [`par_find_batched`](Self::par_find_batched) into a
    /// caller-provided buffer (appends; does not clear).
    pub fn par_find_batched_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        // SAFETY: the grains partition the slots, and `find_run` writes
        // every slot of the grain it is handed.
        unsafe {
            phc_parutil::append_with(out, keys.len(), |slots| {
                phc_parutil::for_each_grain_into(keys, slots, |chunk, slots| {
                    self.find_run(chunk, slots)
                })
            })
        }
    }

    /// Deletes the entry whose key equals `key`'s key part (Figure 1,
    /// `DELETE`). A no-op if absent. Safe to call from any number of
    /// threads during a delete phase.
    pub fn delete(&self, key: E) {
        self.delete_counted(key);
    }

    /// Like [`delete`](Self::delete), but returns `true` iff the call
    /// performed the final store of `⊥` that shrank the table — a
    /// global net-removed-element credit (one `true` per element
    /// removed across all threads), mirroring
    /// [`insert_counted`](Self::insert_counted).
    pub fn delete_counted(&self, key: E) -> bool {
        let r = key.to_repr();
        debug_assert_ne!(r, E::EMPTY);
        P::delete_in(self.probe(), self.policy.stored(r))
    }

    /// The batch delete loop: deletes `keys` in slice order, prefetching
    /// upcoming home slots, and returns how many of the deletes earned
    /// a removal credit (see [`delete_counted`](Self::delete_counted)).
    /// The one loop behind [`delete_batch`](Self::delete_batch) and the
    /// growable wrapper's.
    pub(crate) fn delete_run(&self, keys: &[E]) -> usize {
        let t = self.probe();
        let mut removed = 0usize;
        t.pipelined(keys, |_, _, stored| {
            removed += P::delete_in(t, stored) as usize;
            true
        });
        removed
    }

    /// Deletes a batch of keys with software prefetching of upcoming
    /// home slots — the delete analogue of
    /// [`insert_batch`](Self::insert_batch) /
    /// [`find_batch`](Self::find_batch). Semantically identical to
    /// deleting the keys one by one in slice order.
    pub fn delete_batch(&self, keys: &[E]) {
        self.delete_run(keys);
    }

    /// Deletes a slice in parallel through the batched prefetching
    /// path: scheduler chunks of [`phc_parutil::grain`] keys, each
    /// processed by [`delete_batch`](Self::delete_batch). For the
    /// history-independent tables the final layout equals that of any
    /// other deletion of the same set; for the first-fit table only the
    /// surviving key set does.
    pub fn par_delete_batched(&self, keys: &[E]) {
        phc_parutil::for_each_grain(keys, |chunk| self.delete_batch(chunk));
    }

    /// Packs the non-empty cells into a vector in cell order (paper §4,
    /// `ELEMENTS`). Runs in parallel via a prefix sum, so the output is
    /// deterministic for a given layout. Safe to call concurrently with
    /// finds.
    pub fn elements(&self) -> Vec<E> {
        let mut out = Vec::new();
        self.elements_into(&mut out);
        out
    }

    /// [`elements`](Self::elements) into a caller-provided buffer:
    /// **appends** to `out` (prior contents are preserved), reusing its
    /// allocation. Repeated packers (the KV server's export loop) call
    /// this once per batch with a retained buffer instead of allocating
    /// a fresh `Vec` each time. The appended suffix is identical to
    /// what `elements()` returns.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        // Mask-based pack: the count pass popcounts per-window occupancy
        // masks, and only the surviving cells are decoded. The offsets
        // come from a deterministic prefix sum.
        let base = out.len();
        phc_parutil::pack_with_mask_into(
            &self.cells,
            |win| crate::stats::occupied_mask(win, E::EMPTY),
            |c| E::from_repr(self.policy.unstored(c.load(Ordering::Acquire))),
            out,
        );
        phc_obs::probe!(hist PackSize, out.len() - base);
    }

    /// Applies `f` to every stored entry, in parallel, without
    /// materializing the packed array (paper §6: the applications
    /// "require either returning the elements of the hash table or
    /// mapping over the elements"). Iteration order is unspecified;
    /// use [`elements`](Self::elements) when a deterministic sequence
    /// matters.
    pub fn for_each_entry(&self, f: impl Fn(E) + Send + Sync) {
        use rayon::prelude::*;
        self.cells.par_iter().with_min_len(4096).for_each(|c| {
            let v = c.load(Ordering::Acquire);
            if v != E::EMPTY {
                f(E::from_repr(self.policy.unstored(v)));
            }
        });
    }

    /// Number of occupied cells (exact at quiescence).
    pub fn len(&self) -> usize {
        crate::stats::occupied_len(&self.cells, E::EMPTY)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (parallel).
    pub fn clear(&mut self) {
        use rayon::prelude::*;
        self.cells
            .par_iter()
            .with_min_len(4096)
            .for_each(|c| c.store(E::EMPTY, Ordering::Relaxed));
    }
}

impl<E: HashEntry, P: Growable<E>> ProbeTable<E, P> {
    /// Copies the occupants of the cells in `range` to the front of
    /// `out`, decoded and in cell order, and returns how many there
    /// were. `out` must be at least as long as the range. Nothing is
    /// stored to the table.
    ///
    /// This is the sweep primitive of the growable wrapper
    /// ([`crate::resize::ResizableTable`]), which calls it on a retiring
    /// table only after its writer gate has excluded every insert and
    /// delete — so the loads race nothing and the result is the range's
    /// final content. The copy is unconditional and the write index
    /// advances by a compare result: at load 3/4 (growth) and at load
    /// 1/8 (shrink) alike there is no occupancy branch to mispredict.
    pub fn drain_range(&self, range: std::ops::Range<usize>, out: &mut [u64]) -> usize {
        let cells = &self.cells[range];
        let out = &mut out[..cells.len()];
        let mut n = 0usize;
        for cell in cells {
            let c = cell.load(Ordering::Acquire);
            out[n] = c;
            n += usize::from(c != E::EMPTY);
        }
        for slot in &mut out[..n] {
            *slot = self.policy.unstored(*slot);
        }
        n
    }
}

impl<'a, E: HashEntry, P: ProbePolicy<E>> Probe<'a, E, P> {
    #[inline(always)]
    pub(crate) fn load_at(self, virtual_idx: usize) -> u64 {
        self.cells[virtual_idx & self.mask].load(Ordering::Acquire)
    }

    #[inline(always)]
    pub(crate) fn cas_at(self, virtual_idx: usize, old: u64, new: u64) -> bool {
        self.cells[virtual_idx & self.mask]
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Forward distance from bucket `from` to bucket `to` (both already
    /// reduced), in `[0, capacity)`.
    #[inline(always)]
    pub(crate) fn dist(self, from: usize, to: usize) -> usize {
        (to.wrapping_sub(from)) & self.mask
    }

    #[inline(always)]
    pub(crate) fn home(self, stored: u64) -> usize {
        self.policy().home(stored, self.mask)
    }

    /// The virtual home position of the stored word observed at virtual
    /// index `at`: the largest virtual index ≤ `at` congruent to its
    /// home bucket (see "Wraparound" in [`crate::det`]). Exact whenever
    /// the entry lies inside its cluster — always, while the table is
    /// not full.
    #[inline(always)]
    pub(crate) fn lift_home(self, stored: u64, at: usize) -> usize {
        at - self.dist(self.home(stored), at & self.mask)
    }

    #[inline(always)]
    pub(crate) fn prefetch(self, stored: u64) {
        prefetch_slot(self.cells, self.home(stored));
    }

    /// Figure 1 `INSERT`: walk past the cells that outrank `v`, swap
    /// into the first that does not, and carry the displaced entry
    /// onward. A failed CAS hands back the cell's current value, which
    /// the loop re-examines without re-loading the cell.
    #[inline]
    pub(crate) fn prioritized_insert(self, mut v: u64) -> Result<bool, u64> {
        let p = self.policy();
        let n = self.cells.len();
        let mut i = self.home(v);
        let mut c = self.cells[i].load(Ordering::Acquire);
        let mut t = InsertTally::default();
        let result = loop {
            if p.same_key(c, v) {
                // Duplicate key: converge on the combined value.
                let merged = E::combine(c, v);
                if merged == c {
                    break Ok(false);
                }
                match self.cells[i].compare_exchange(c, merged, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => break Ok(false),
                    Err(cur) => {
                        t.cas_fails += 1;
                        c = cur; // cell changed under us; re-check
                        continue;
                    }
                }
            }
            if !p.outranks(c, v) {
                match self.cells[i].compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) if c == E::EMPTY => break Ok(true),
                    // `c` has strictly lower priority than `v`: the cell
                    // is ours and `c` is carried onward.
                    Ok(_) => {
                        t.swaps += 1;
                        v = c;
                    }
                    // The cell's priority can only have risen: re-run
                    // the comparison on the value the CAS saw.
                    Err(cur) => {
                        t.cas_fails += 1;
                        c = cur;
                        continue;
                    }
                }
            }
            i = (i + 1) & self.mask;
            t.steps += 1;
            if t.steps > n {
                break Err(v);
            }
            c = self.cells[i].load(Ordering::Acquire);
        };
        t.record(P::SWAPS);
        result
    }

    /// The batch-prefetch loop: before running `op` on item `i`, the
    /// home slot of item `i + PREFETCH_AHEAD` is prefetched (see
    /// [`crate::batch`]), keeping that many cache misses in flight
    /// instead of serializing them. `op` gets the item's index, repr and
    /// stored word and returns `false` to stop the batch.
    #[inline(always)]
    fn pipelined<I: AsRepr<E>>(self, items: &[I], mut op: impl FnMut(usize, u64, u64) -> bool) {
        let p = self.policy();
        for e in items.iter().take(PREFETCH_AHEAD) {
            self.prefetch(p.stored(e.repr()));
        }
        for (i, item) in items.iter().enumerate() {
            if let Some(next) = items.get(i + PREFETCH_AHEAD) {
                self.prefetch(p.stored(next.repr()));
            }
            let r = item.repr();
            if !op(i, r, p.stored(r)) {
                return;
            }
        }
    }

    /// Figure 1 `FIND`: walk past the cells that outrank `probe` — ⊥
    /// outranks nothing, and keys on the path are priority-sorted — and
    /// report whether the cell the walk stops at holds the key.
    #[inline]
    pub(crate) fn prioritized_find(self, probe: u64) -> Option<u64> {
        let p = self.policy();
        let n = self.cells.len();
        let mut i = self.home(probe);
        let mut c = self.cells[i].load(Ordering::Acquire);
        let mut steps = 0usize;
        while p.outranks(c, probe) {
            // Guard against a (mis-used) full table of higher-priority
            // keys.
            if steps == n {
                break;
            }
            i = (i + 1) & self.mask;
            steps += 1;
            c = self.cells[i].load(Ordering::Acquire);
        }
        phc_obs::probe!(count FindProbeSteps, steps);
        p.same_key(c, probe).then_some(c)
    }

    /// Figure 1 `DELETE`, lines 27-29, then the chase.
    ///
    /// Deliberately without an inline hint: inlined into the batch loops
    /// the chase costs ~6% of delete throughput in register pressure
    /// (EXPERIMENTS.md PR 12); a call per delete is the cheaper shape.
    pub(crate) fn prioritized_delete(self, probe: u64) -> bool {
        let p = self.policy();
        // Virtual indices: base the walk at `capacity + bucket` so `k`
        // can step below `i` without underflow.
        let i = self.cells.len() + self.home(probe);
        // Walk forward past higher-priority cells to land at or past the
        // last copy of the key.
        let mut k = i;
        loop {
            let c = self.load_at(k);
            if c == E::EMPTY || !p.outranks(c, probe) {
                break;
            }
            k += 1;
        }
        self.delete_from(k, i, probe)
    }

    /// Figure 1 `DELETE`, lines 30-41, seeded at virtual position `k`
    /// with virtual home `i`: walk down to the copy of `v`'s key, fill
    /// its cell with the replacement, and chase the replacement's other
    /// copy. `v` is the word we are currently responsible for deleting
    /// (the paper carries keys; carrying full words is equivalent
    /// because a key occupies at most one distinct cell value, and the
    /// CAS needs the exact loaded word anyway).
    #[inline]
    pub(crate) fn delete_from(self, mut k: usize, mut i: usize, mut v: u64) -> bool {
        let p = self.policy();
        let mut steps = 0usize;
        let result = loop {
            if k < i {
                break false;
            }
            steps += 1;
            let c = self.load_at(k);
            if c == E::EMPTY || !p.same_key(c, v) {
                k -= 1;
                continue;
            }
            let (j, vprime, home) = P::find_replacement(self, k);
            if self.cas_at(k, c, vprime) {
                if vprime == E::EMPTY {
                    break true;
                }
                // A second copy of `vprime` now exists at `k`; we are
                // responsible for deleting the one at `j`.
                (k, v, i) = (j, vprime, home);
            } else {
                // Someone else changed the cell: the copy we were
                // chasing moved to a lower index (deletes move entries
                // down) — step back and keep looking.
                k -= 1;
            }
        };
        phc_obs::probe!(count DeleteProbeSteps, steps);
        result
    }

    /// Figure 1, `FINDREPLACEMENT(i)`: returns `(j, v', home)` where
    /// `v'` is the entry that may legally fill the hole at virtual index
    /// `i` (or ⊥), `j` is its (virtual) location and `home` its lifted
    /// home, `lift_home(v', j)` (for ⊥, `j` itself) — which the scan
    /// computed to accept `v'`, and which the chase continues from.
    ///
    /// A loop over single cells: at the loads the tables run at the
    /// candidate is almost always in the next cell or two, where loading
    /// four at a time only added work (EXPERIMENTS.md PR 18).
    pub(crate) fn find_replacement(self, i: usize) -> (usize, u64, usize) {
        // The lifted home of `val` seen at `at` if it may fill the hole:
        // ⊥ always may; an entry may unless it homes strictly after `i`.
        let fits = |val: u64, at: usize| {
            if val == E::EMPTY {
                return Some(at);
            }
            let home = self.lift_home(val, at);
            (home <= i).then_some(home)
        };
        let mut j = i + 1;
        let (mut v, mut home) = loop {
            let val = self.load_at(j);
            if let Some(home) = fits(val, j) {
                break (val, home);
            }
            j += 1;
        };
        // The candidate may have been shifted down by a concurrent
        // delete while we scanned; walk back down to find its current
        // position. (The paper notes this second, downward loop is
        // essential.)
        let mut k = j - 1;
        while k > i {
            let vp = self.load_at(k);
            if let Some(h) = fits(vp, k) {
                (j, v, home) = (k, vp, h);
            }
            k -= 1;
        }
        (j, v, home)
    }
}

/// What one insert did, for its instruments.
#[derive(Default)]
struct InsertTally {
    /// Cells advanced past the home bucket.
    steps: usize,
    /// Failed CASes.
    cas_fails: usize,
    /// Entries displaced and carried onward.
    swaps: usize,
}

impl InsertTally {
    /// Reports the tallies, displacement swaps under `swaps` (the
    /// policy's `SWAPS`).
    #[inline(always)]
    fn record(&self, swaps: phc_obs::Counter) {
        phc_obs::probe!(count ProbeSteps, self.steps);
        phc_obs::probe!(count InsertCasFail, self.cas_fails);
        phc_obs::Recorder::global().count(swaps, self.swaps as u64);
        phc_obs::probe!(hist ProbeLen, self.steps);
    }
}

// The engine's batch operations on the phase handles (see
// [`crate::phase`]; the per-op `insert` / `delete` / `find` come with
// the handle).

impl<E: HashEntry, P: ProbePolicy<E>> Inserter<'_, ProbeTable<E, P>> {
    /// Batched prefetching insert (see [`ProbeTable::insert_batch`]).
    pub fn insert_batch(&self, entries: &[E]) {
        self.0.insert_batch(entries);
    }
    /// Parallel batched insert (see [`ProbeTable::par_insert_batched`]).
    pub fn par_insert_batched(&self, entries: &[E]) {
        self.0.par_insert_batched(entries);
    }
}
impl<E: HashEntry, P: ProbePolicy<E>> Deleter<'_, ProbeTable<E, P>> {
    /// Batched prefetching delete (see [`ProbeTable::delete_batch`]).
    pub fn delete_batch(&self, keys: &[E]) {
        self.0.delete_batch(keys);
    }
    /// Parallel batched delete (see [`ProbeTable::par_delete_batched`]).
    pub fn par_delete_batched(&self, keys: &[E]) {
        self.0.par_delete_batched(keys);
    }
}
impl<E: HashEntry, P: ProbePolicy<E>> Reader<'_, ProbeTable<E, P>> {
    /// Batched prefetching lookup (see [`ProbeTable::find_batch`]).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.find_batch(keys)
    }
    /// Parallel batched lookup (see [`ProbeTable::par_find_batched`]).
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.par_find_batched(keys)
    }
}

impl<E: HashEntry, P: ProbePolicy<E>> TableOps<E> for ProbeTable<E, P> {
    const NAME: &'static str = P::NAME;

    fn new_pow2(log2_size: u32) -> Self {
        ProbeTable::new_pow2(log2_size)
    }
    fn capacity(&self) -> usize {
        ProbeTable::capacity(self)
    }
    fn insert(&self, e: E) {
        ProbeTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        ProbeTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        ProbeTable::find(self, key)
    }
    fn elements(&self) -> Vec<E> {
        ProbeTable::elements(self)
    }
}

impl<E: HashEntry, P: Growable<E>> crate::resize::FlatTableCore<E> for ProbeTable<E, P> {
    type Policy = P;
    const GROW_NAME: &'static str = P::GROW_NAME;
    const LABEL: &'static str = P::LABEL;

    fn new_pow2(log2_size: u32) -> Self {
        ProbeTable::new_pow2(log2_size)
    }
    fn engine(&self) -> &ProbeTable<E, P> {
        self
    }
}

#[cfg(test)]
mod tests {
    /// The behaviours every table over the prioritized engine shares,
    /// instantiated once per policy. Table-specific tests (the Robin
    /// Hood mixer and invariant, the first-fit table) live beside their
    /// policy.
    macro_rules! policy_suite {
        ($name:ident, $table:ident) => {
            mod $name {
                use crate::entry::{KeepMin, KvPair, U64Key};
                use crate::phase::*;
                use crate::probe::ProbePolicy;
                use std::collections::BTreeSet;

                type Table<E> = crate::$table<E>;

                fn hashed_keys(n: u64) -> Vec<U64Key> {
                    (1..=n)
                        .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
                        .collect()
                }

                #[test]
                fn insert_then_find() {
                    let t: Table<U64Key> = Table::new_pow2(8);
                    for k in [1u64, 2, 3, 100, 200] {
                        t.insert(U64Key::new(k));
                    }
                    for k in [1u64, 2, 3, 100, 200] {
                        assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
                    }
                    assert_eq!(t.find(U64Key::new(4)), None);
                    assert_eq!(t.len(), 5);
                }

                #[test]
                fn duplicate_insert_is_idempotent() {
                    let t: Table<U64Key> = Table::new_pow2(6);
                    for _ in 0..10 {
                        t.insert(U64Key::new(42));
                    }
                    assert_eq!(t.len(), 1);
                    assert_eq!(t.elements(), vec![U64Key::new(42)]);
                }

                #[test]
                fn delete_removes_only_target() {
                    let t: Table<U64Key> = Table::new_pow2(8);
                    for k in 1..=50u64 {
                        t.insert(U64Key::new(k));
                    }
                    for k in (1..=50u64).filter(|k| k % 2 == 0) {
                        t.delete(U64Key::new(k));
                    }
                    for k in 1..=50u64 {
                        let expect = (k % 2 == 1).then(|| U64Key::new(k));
                        assert_eq!(t.find(U64Key::new(k)), expect, "key {k}");
                    }
                    assert_eq!(t.len(), 25);
                }

                #[test]
                fn delete_absent_is_noop() {
                    let t: Table<U64Key> = Table::new_pow2(6);
                    t.insert(U64Key::new(5));
                    t.delete(U64Key::new(6));
                    t.delete(U64Key::new(5));
                    t.delete(U64Key::new(5));
                    assert_eq!(t.len(), 0);
                }

                #[test]
                fn history_independence_of_snapshot() {
                    // Insert the same set in three very different
                    // orders; the raw array must be identical (Def. 2
                    // gives unique representation).
                    let set: Vec<u64> = (1..=200).map(|i| i * 17 % 1009 + 1).collect();
                    let mut orders = vec![set.clone()];
                    let mut rev = set.clone();
                    rev.reverse();
                    orders.push(rev);
                    let mut shuffled = set.clone();
                    // Deterministic shuffle.
                    for i in (1..shuffled.len()).rev() {
                        let j = (phc_parutil::hash64(i as u64) as usize) % (i + 1);
                        shuffled.swap(i, j);
                    }
                    orders.push(shuffled);

                    let mut snaps = Vec::new();
                    for order in &orders {
                        let t: Table<U64Key> = Table::new_pow2(9);
                        for &k in order {
                            t.insert(U64Key::new(k));
                        }
                        snaps.push(t.snapshot());
                    }
                    assert_eq!(snaps[0], snaps[1]);
                    assert_eq!(snaps[0], snaps[2]);
                }

                #[test]
                fn history_independence_after_deletes() {
                    // {insert A∪B; delete B} in varying orders must
                    // equal {insert A}.
                    let a: Vec<u64> = (1..=100).map(|i| i * 13 + 7).collect();
                    let b: Vec<u64> = (1..=60).map(|i| i * 29 + 11).collect();

                    let direct: Table<U64Key> = Table::new_pow2(9);
                    let aset: BTreeSet<u64> = a.iter().copied().collect();
                    let bset: BTreeSet<u64> = b.iter().copied().collect();
                    for &k in aset.difference(&bset) {
                        direct.insert(U64Key::new(k));
                    }

                    let t: Table<U64Key> = Table::new_pow2(9);
                    for &k in a.iter().chain(&b) {
                        t.insert(U64Key::new(k));
                    }
                    for &k in b.iter().rev() {
                        t.delete(U64Key::new(k));
                    }
                    assert_eq!(t.snapshot(), direct.snapshot());
                }

                #[test]
                fn elements_sorted_by_cell_order_is_deterministic() {
                    let t1: Table<U64Key> = Table::new_pow2(8);
                    let t2: Table<U64Key> = Table::new_pow2(8);
                    for k in 1..=100u64 {
                        t1.insert(U64Key::new(k));
                    }
                    for k in (1..=100u64).rev() {
                        t2.insert(U64Key::new(k));
                    }
                    assert_eq!(t1.elements(), t2.elements());
                    let mut sorted: Vec<u64> = t1.elements().iter().map(|k| k.0).collect();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (1..=100u64).collect::<Vec<_>>());
                }

                #[test]
                fn elements_recover_original_keys() {
                    let t: Table<U64Key> = Table::new_pow2(10);
                    for k in 1..=500u64 {
                        t.insert(U64Key::new(k));
                    }
                    let mut got: Vec<u64> = t.elements().iter().map(|k| k.0).collect();
                    got.sort_unstable();
                    assert_eq!(got, (1..=500u64).collect::<Vec<_>>());
                    // `elements_into` appends the same sequence.
                    let mut buf = vec![U64Key::new(9999)];
                    t.elements_into(&mut buf);
                    assert_eq!(buf[0], U64Key::new(9999));
                    assert_eq!(buf[1..], t.elements()[..]);
                }

                #[test]
                fn kv_combine_min_under_duplicates() {
                    let t: Table<KvPair<KeepMin>> = Table::new_pow2(8);
                    t.insert(KvPair::new(7, 30));
                    t.insert(KvPair::new(7, 10));
                    t.insert(KvPair::new(7, 20));
                    let got = t.find(KvPair::new(7, 0)).unwrap();
                    assert_eq!(got.value, 10);
                    assert_eq!(t.len(), 1);
                }

                #[test]
                fn wraparound_cluster() {
                    // Force keys whose home lands in the last buckets
                    // of a tiny table so clusters wrap.
                    let t: Table<U64Key> = Table::new_pow2(3); // 8 cells
                    let view = t.probe();
                    let mut picked = Vec::new();
                    let mut k = 1u64;
                    while picked.len() < 5 {
                        if view.home(ProbePolicy::<U64Key>::stored(view.policy(), k)) >= 6 {
                            picked.push(k);
                        }
                        k += 1;
                    }
                    for &k in &picked {
                        t.insert(U64Key::new(k));
                    }
                    for &k in &picked {
                        assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "key {k}");
                    }
                    // Delete them all through the wrapped cluster.
                    for &k in &picked {
                        t.delete(U64Key::new(k));
                        assert_eq!(t.find(U64Key::new(k)), None);
                    }
                    assert_eq!(t.len(), 0);
                }

                /// Figure 1's `FINDREPLACEMENT(i)`, transcribed over a
                /// quiescent snapshot: scan up to the first cell that is
                /// ⊥ or homes at or before `i`, then back down for the
                /// lowest such cell.
                fn figure1_replacement(
                    cells: &[u64],
                    home_of: impl Fn(u64) -> usize,
                    i: usize,
                ) -> (usize, u64) {
                    let mask = cells.len() - 1;
                    let lifted =
                        |v: u64, at: usize| at - ((at & mask).wrapping_sub(home_of(v)) & mask);
                    let fits = |v: u64, at: usize| v == 0 || lifted(v, at) <= i;
                    let mut j = i + 1;
                    while !fits(cells[j & mask], j) {
                        j += 1;
                    }
                    let mut v = cells[j & mask];
                    for k in (i + 1..j).rev() {
                        if fits(cells[k & mask], k) {
                            (j, v) = (k, cells[k & mask]);
                        }
                    }
                    (j, v)
                }

                #[test]
                fn find_replacement_matches_figure_1_and_returns_the_lifted_home() {
                    const LOG2: u32 = 8;
                    let n = 1usize << LOG2;
                    for load_quarters in [1, 2, 3] {
                        let t: Table<U64Key> = Table::new_pow2(LOG2);
                        let view = t.probe();
                        let home_of = |stored: u64| view.home(stored);
                        // Six keys homed in the last two buckets make a
                        // cluster that wraps the array end ...
                        let wrapping = (1u64..)
                            .filter(|&k| {
                                home_of(ProbePolicy::<U64Key>::stored(view.policy(), k)) >= n - 2
                            })
                            .take(6);
                        // ... and hashed keys bring the table to its load.
                        let fill = (1u64..).map(|i| phc_parutil::hash64(i) | 1);
                        for k in wrapping.chain(fill).take(n * load_quarters / 4) {
                            t.insert(U64Key::new(k));
                        }
                        let cells = t.snapshot();
                        assert_eq!(t.len(), n * load_quarters / 4);
                        assert!(
                            cells[..n / 2]
                                .iter()
                                .any(|&v| v != 0 && home_of(v) >= n - 2),
                            "no cluster wraps the array end"
                        );
                        for c in (0..n).filter(|&c| cells[c] != 0) {
                            let i = n + c;
                            let (j, v, home) = view.find_replacement(i);
                            let what = format!("load {load_quarters}/4, hole at cell {c}");
                            assert_eq!((j, v), figure1_replacement(&cells, home_of, i), "{what}");
                            assert!(j > i && cells[j & (n - 1)] == v, "{what}");
                            if v != 0 {
                                assert_eq!(home, view.lift_home(v, j), "{what}");
                                assert!(home <= i, "{what}");
                            }
                        }
                    }
                }

                #[test]
                #[should_panic(expected = "full")]
                fn insert_into_full_table_panics() {
                    let t: Table<U64Key> = Table::new_pow2(2); // 4 cells
                    for k in 1..=5u64 {
                        t.insert(U64Key::new(k));
                    }
                }

                #[test]
                fn batched_insert_matches_per_element_snapshot() {
                    let keys = hashed_keys(4000);
                    let seq: Table<U64Key> = Table::new_pow2(13);
                    for &k in &keys {
                        seq.insert(k);
                    }
                    let batched: Table<U64Key> = Table::new_pow2(13);
                    batched.insert_batch(&keys);
                    assert_eq!(batched.snapshot(), seq.snapshot());
                    let par: Table<U64Key> = Table::new_pow2(13);
                    par.par_insert_batched(&keys);
                    assert_eq!(par.snapshot(), seq.snapshot());
                }

                #[test]
                fn batched_find_matches_per_element() {
                    let t: Table<U64Key> = Table::new_pow2(13);
                    t.insert_batch(&hashed_keys(4000));
                    // Probe a mix of present and absent keys.
                    let probes = hashed_keys(8000);
                    let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| t.find(k)).collect();
                    assert_eq!(expect.iter().filter(|f| f.is_some()).count(), 4000);
                    assert_eq!(t.find_batch(&probes), expect);
                    assert_eq!(t.par_find_batched(&probes), expect);
                }

                #[test]
                fn batched_delete_matches_per_element_snapshot() {
                    let keys = hashed_keys(4000);
                    let (dels, _) = keys.split_at(2500);
                    let expect: Table<U64Key> = Table::new_pow2(13);
                    expect.insert_batch(&keys);
                    for &k in dels {
                        expect.delete(k);
                    }
                    let batched: Table<U64Key> = Table::new_pow2(13);
                    batched.insert_batch(&keys);
                    batched.delete_batch(dels);
                    assert_eq!(batched.snapshot(), expect.snapshot());
                    let par: Table<U64Key> = Table::new_pow2(13);
                    par.insert_batch(&keys);
                    par.par_delete_batched(dels);
                    assert_eq!(par.snapshot(), expect.snapshot());
                }

                #[test]
                fn batched_paths_match_per_op_on_dense_keys() {
                    let keys: Vec<U64Key> = (1..=500u64).map(U64Key::new).collect();
                    let a: Table<U64Key> = Table::new_pow2(10);
                    let b: Table<U64Key> = Table::new_pow2(10);
                    a.insert_batch(&keys);
                    for &k in &keys {
                        b.insert(k);
                    }
                    assert_eq!(a.snapshot(), b.snapshot());
                    let dels: Vec<U64Key> = keys.iter().copied().step_by(3).collect();
                    a.delete_batch(&dels);
                    for &k in &dels {
                        b.delete(k);
                    }
                    assert_eq!(a.snapshot(), b.snapshot());
                    assert_eq!(a.find_batch(&keys), b.find_batch(&keys));
                }

                #[test]
                fn parallel_insert_matches_sequential_snapshot() {
                    use rayon::prelude::*;
                    let keys = hashed_keys(4000);
                    let seq: Table<U64Key> = Table::new_pow2(13);
                    for &k in &keys {
                        seq.insert(k);
                    }
                    for _ in 0..4 {
                        let par: Table<U64Key> = Table::new_pow2(13);
                        keys.par_iter().for_each(|&k| par.insert(k));
                        assert_eq!(par.snapshot(), seq.snapshot());
                    }
                }

                #[test]
                fn parallel_delete_matches_sequential_snapshot() {
                    use rayon::prelude::*;
                    let keys = hashed_keys(4000);
                    let (dels, keeps) = keys.split_at(2500);
                    let expect: Table<U64Key> = Table::new_pow2(13);
                    for &k in keeps {
                        expect.insert(k);
                    }
                    for _ in 0..4 {
                        // Sequential build, parallel delete ...
                        let t: Table<U64Key> = Table::new_pow2(13);
                        for &k in &keys {
                            t.insert(k);
                        }
                        dels.par_iter().for_each(|&k| t.delete(k));
                        assert_eq!(t.snapshot(), expect.snapshot());
                        // ... and parallel build, parallel delete.
                        let t: Table<U64Key> = Table::new_pow2(13);
                        keys.par_iter().for_each(|&k| t.insert(k));
                        dels.par_iter().for_each(|&k| t.delete(k));
                        assert_eq!(t.snapshot(), expect.snapshot());
                    }
                }

                #[test]
                fn for_each_entry_visits_exactly_the_contents() {
                    use std::sync::atomic::{AtomicU64, Ordering};
                    let t: Table<U64Key> = Table::new_pow2(10);
                    for k in 1..=500u64 {
                        t.insert(U64Key::new(k));
                    }
                    let sum = AtomicU64::new(0);
                    let count = AtomicU64::new(0);
                    t.for_each_entry(|e| {
                        sum.fetch_add(e.0, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(count.load(Ordering::Relaxed), 500);
                    assert_eq!(sum.load(Ordering::Relaxed), 500 * 501 / 2);
                }

                #[test]
                fn phase_api_compiles_and_works() {
                    let mut t: Table<U64Key> = PhaseHashTable::new_pow2(8);
                    {
                        let ins = t.begin_insert();
                        ins.insert(U64Key::new(9));
                    }
                    {
                        let del = t.begin_delete();
                        del.delete(U64Key::new(9));
                    }
                    let reader = t.begin_read();
                    assert_eq!(reader.find(U64Key::new(9)), None);
                }

                #[test]
                fn phase_api_batch_handles() {
                    let all: Vec<U64Key> = (1..=60u64).map(U64Key::new).collect();
                    let mut t: Table<U64Key> = Table::new_pow2(8);
                    t.begin_insert().insert_batch(&all);
                    t.begin_delete().delete_batch(&all[..30]);
                    let reader = t.begin_read();
                    assert_eq!(reader.find(U64Key::new(31)), Some(U64Key::new(31)));
                    assert_eq!(reader.find(U64Key::new(1)), None);
                    let found = reader.find_batch(&all);
                    assert_eq!(found.iter().filter(|f| f.is_some()).count(), 30);
                    assert_eq!(reader.elements().len(), 30);
                }
            }
        };
    }

    policy_suite!(det, DetHashTable);
    policy_suite!(robinhood, RobinHoodHashTable);
    policy_suite!(fc, FcHashTable);
}
