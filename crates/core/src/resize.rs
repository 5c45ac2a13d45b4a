//! Growable wrapper over the flat probe-engine tables (paper §4,
//! "Resizing").
//!
//! The paper outlines a lock-free scheme in which inserts detect an
//! overfull table, link a new table of twice the size, and
//! cooperatively migrate elements. [`ResizableTable`] implements that
//! scheme with **incremental migration**: the backing store is a chain
//! of **epochs**, each owning one fixed-size core table (any
//! [`FlatTableCore`]: the deterministic, Robin Hood or fully-concurrent
//! table). An inserter whose fill credits bring its epoch's load to the
//! 3/4 threshold publishes a doubled successor epoch with a single
//! CAS. Every operation that subsequently notices the pending
//! migration pays one bounded *block quota*: it passes the retiring
//! epoch's **drain gate**, claims up to `HELP_QUOTA_BLOCKS` fixed-size
//! blocks of the retiring cell array from a shared atomic cursor,
//! copies each block's occupants out with plain loads, re-inserts them
//! into the successor, and then proceeds against the live tail.
//! Migration cost is spread across all operating threads with a hard
//! per-op bound — there is no exclusive lock and no stop-the-world
//! rebuild (the original `RwLock` implementation lives on in
//! `phc-bench` as the `resize` benchmark's ablation baseline).
//!
//! Every core insert this module performs — per-op, batched, or a
//! migration re-insert — is one call of `fill_window`, which runs the
//! engine's own batch insert loop under a window it opens and closes.
//!
//! ## Drain gate
//!
//! Every writer of an epoch registers on it for the length of one
//! *window* — at most `WINDOW_CHUNK` inserts (`fill_window`) or deletes
//! (`delete_batch`): `state.fetch_add(ACTIVE_ONE)`, then a re-read of
//! `next`. A writer that finds a successor un-registers without having
//! touched a cell and re-routes; otherwise it runs its window and
//! retires with one RMW (which, for inserts, also posts the window's
//! fill credits). A helper that has seen `next` non-null waits until
//! the registered half of `state` reads zero (`gate_writers`) before it
//! claims a block. Registration, the re-read, the publishing CAS and
//! the helper's load are all `SeqCst`, which makes the pair a
//! store-buffering (Dekker) handshake: in their single total order a
//! writer's registration either precedes the helper's load of `state` —
//! the helper then waits for the retiring RMW, after which every cell
//! write of that window is visible — or follows it, and then it also
//! follows the publish the helper had already observed, so the writer's
//! re-read returns the successor. Either way: **once a helper has read
//! zero after the publish, no thread stores to the retiring array ever
//! again.** The gate stays open; later helpers pass it with one load.
//!
//! Migration is therefore a read: each block is claimed by exactly one
//! helper (the cursor), drained with plain loads into a stack buffer
//! ([`ProbeTable::drain_range`]) and re-inserted into the live tail in
//! cell order. No marker is written, no cell of the source changes, and
//! the cores carry no migration check on any probe path — the fc core's
//! multi-cell displacement and repair protocols included, since its
//! writer windows open and close inside the epoch registration. Every
//! entry in the array when the gate opened lies in exactly one block,
//! so it reaches the successor exactly once; the cores'
//! combine-on-duplicate semantics absorb the one benign overlap (a key
//! inserted directly into the tail while its old copy still awaits
//! migration).
//!
//! The gate wait is bounded by one window per thread, and writers never
//! wait while registered (helping and publishing happen outside the
//! registration), so there is no cycle. An insert that meets a pending
//! migration still goes straight to the tail and still pays only its
//! block quota. A non-resizing insert window costs the two registration
//! RMWs; the first returns the item count the fill budget needs.
//!
//! ## Determinism
//!
//! Within a phase, the *moment* growth triggers depends on thread
//! timing, so the capacity **during** a phase is schedule-dependent.
//! Two facts restore determinism at phase end:
//!
//! * the element count is exact — every insert that fills an empty cell
//!   (see [`DetHashTable::insert_counted`]) credits its epoch, and
//!   migration re-inserts credit the successor, so at quiescence the
//!   tail epoch's credit count equals the number of stored entries; and
//! * the growth trigger `items * 4 >= capacity * 3` only fires when the
//!   *final* element count also exceeds the threshold (credits never
//!   exceed the final count during an insert phase), so mid-phase
//!   growth can never overshoot the canonical capacity.
//!
//! [`insert_phase`](ResizableTable::insert_phase) therefore normalizes
//! after the phase: it drains pending migration and keeps doubling
//! while `len * 4 >= capacity * 3`. The final capacity is the smallest
//! power of two (≥ the initial capacity) with load < 3/4 — a pure
//! function of the final key set — and for a fixed capacity the
//! deterministic table's layout is a pure function of its contents, so
//! `snapshot()` is equal across thread counts and schedules.
//!
//! ## Shrinking
//!
//! The same epoch chain runs **downward**: a delete that drops the load
//! below 1/8 publishes a *halved* successor (never below the seed
//! capacity, the floor), and the usual cooperative block migration
//! copies the survivors across. The 1/8 trigger against the 3/4 growth
//! threshold leaves a wide hysteresis band — a freshly shrunk table
//! sits at load < 1/4, so alternating inserts and deletes near a
//! boundary cannot oscillate. Determinism mirrors the growth argument
//! in reverse: during a delete phase the live count only falls, so the
//! racy count that triggers a mid-phase shrink is an upper bound on the
//! final count — every mid-phase shrink is one that normalization
//! (which re-checks with exact counts) would also perform, and the
//! halving sequence from a deterministic starting capacity is itself
//! deterministic. The quiescent capacity is therefore a pure function
//! of the phase history of key sets, independent of thread count, and
//! for a fixed capacity the layout is canonical — so grow → delete →
//! shrink → regrow cycles snapshot byte-identically across schedules.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cell::AtomOf;
use crate::det::DetHashTable;
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader, TableOps};
use crate::probe::{AsRepr, Growable, ProbePolicy, ProbeTable};

/// The fixed-capacity tables the growth machinery builds on: the
/// history-independent probe-engine tables — [`DetHashTable`],
/// [`crate::RobinHoodHashTable`] and [`crate::FcHashTable`]. An `Epoch`
/// (cooperative migration), the stop-the-world rebuilder in
/// `phc-bench`, and the room wrappers
/// ([`crate::rooms`]) are generic over it, with `DetHashTable` as the
/// default type parameter everywhere.
///
/// Implemented for [`ProbeTable`] over a growable policy — a trait
/// private to this crate, so any other implementor can only wrap one of
/// those — and [`engine`](Self::engine) is the whole interface: callers
/// use the engine's own methods (`insert_counted`, `find_batch`, …).
/// Reprs cross the engine's surface **untransformed**
/// (`HashEntry::to_repr` form) even for a core that stores an internal
/// encoding, because migration re-inserts them into a *different* table
/// instance.
pub trait FlatTableCore<E: HashEntry>: Send + Sync + Sized {
    /// The engine policy behind the table (not nameable outside this
    /// crate).
    type Policy: Growable<E>;
    /// `PhaseHashTable::NAME` for the growable wrapper over this core
    /// (e.g. `"linearHash-D-grow"`).
    const GROW_NAME: &'static str;

    /// Creates a table with `2^log2_size` cells, all empty.
    fn new_pow2(log2_size: u32) -> Self;
    /// The table as the probe engine it is.
    fn engine(&self) -> &ProbeTable<E, Self::Policy>;
}

/// Grow when `items * DEN >= capacity * NUM` (keeps load < 3/4).
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// Shrink when `items * SHRINK_FACTOR < capacity` (load < 1/8) and the
/// capacity is above the seed floor. A halved table then sits at load
/// < 1/4 — comfortably inside the (1/8, 3/4) hysteresis band, so a
/// single insert or delete near either boundary cannot flip the
/// capacity back.
const SHRINK_FACTOR: usize = 8;

/// Brief spin, then yield. The waits in migration are short in the
/// common case, but when cores are oversubscribed the thread being
/// waited on needs the CPU to make progress — pure spinning can burn a
/// whole scheduler quantum per waiter.
fn spin_wait(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Cells per migration block. Small enough that a 16-cell seed table
/// still exercises the block path, large enough that cursor traffic is
/// negligible for big tables.
const MIGRATION_BLOCK: usize = 512;

/// Migration blocks one operation claims per help quota — the bound on
/// the work a single insert does for a pending migration
/// (`HELP_QUOTA_BLOCKS * MIGRATION_BLOCK` cell loads plus the
/// re-inserts for their occupants). Two blocks keep the helper count
/// comfortably ahead of the drain for any load ≥ the shrink floor
/// while staying three orders of magnitude below a full 196k-cell
/// drain.
const HELP_QUOTA_BLOCKS: usize = 2;

/// Operations per writer window, insert or delete. A window holds its
/// epoch registration for its whole run and the drain gate waits for
/// every open window, on every core, so this bounds the gate wait (one
/// window per thread) — and how stale an insert window's threshold
/// estimate can get.
const WINDOW_CHUNK: usize = 256;

/// `help`'s block count for a full drain: every block still unclaimed,
/// then a wait for the ones other helpers hold.
const DRAIN: usize = usize::MAX;

/// One link in the growth chain: a fixed-capacity table plus the
/// coordination state for gating and migrating it.
struct Epoch<E: HashEntry, T: FlatTableCore<E>> {
    table: T,
    /// Packed coordination word: open writer windows — insert and
    /// delete alike — in the high 32 bits (`ACTIVE_ONE` units, the
    /// drain gate's side of the handshake in the module docs),
    /// empty-cell fill credits in the low 32. A window's retiring RMW
    /// posts its credits (or debits) in the same operation. The credits
    /// are exact: once the epoch is quiescent the low half equals the
    /// number of stored entries (see module docs). Capacities are
    /// < 2^31 cells, so the halves cannot carry into each other.
    state: AtomicUsize,
    /// Successor epoch; non-null marks this epoch as *retiring*: new
    /// operations divert to the tail after paying a help quota.
    next: AtomicPtr<Epoch<E, T>>,
    /// Next migration block index to claim.
    cursor: AtomicUsize,
    /// Migration blocks fully drained.
    done: AtomicUsize,
    _entry: PhantomData<E>,
}

/// One open writer window in `Epoch::state`'s high half.
const ACTIVE_ONE: usize = 1 << 32;
/// Mask of the fill-credit (items) half of `Epoch::state`.
const ITEMS_MASK: usize = ACTIVE_ONE - 1;

impl<E: HashEntry, T: FlatTableCore<E>> Epoch<E, T> {
    fn new_pow2(log2_size: u32) -> Self {
        assert!(log2_size < 31, "epoch capacity must stay below 2^31 cells");
        Epoch {
            table: T::new_pow2(log2_size),
            state: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            cursor: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            _entry: PhantomData,
        }
    }

    /// The epoch's table, as the probe engine it is.
    fn core(&self) -> &ProbeTable<E, T::Policy> {
        self.table.engine()
    }

    fn capacity(&self) -> usize {
        self.core().capacity()
    }

    fn blocks(&self) -> usize {
        self.capacity().div_ceil(MIGRATION_BLOCK)
    }

    fn items(&self) -> usize {
        self.state.load(Ordering::Acquire) & ITEMS_MASK
    }

    /// The item count at which the epoch publishes a doubled successor.
    fn grow_at(&self) -> usize {
        (self.capacity() * MAX_LOAD_NUM).div_ceil(MAX_LOAD_DEN)
    }

    fn items_under_shrink(items: usize, capacity: usize, floor: usize) -> bool {
        capacity > floor && items * SHRINK_FACTOR < capacity
    }
}

/// A deterministic phase-concurrent hash table that doubles its backing
/// array when the load factor reaches 3/4 — including in the middle of
/// an insert phase, with all inserting threads sharing the migration
/// work (see the [module docs](self)).
///
/// Generic over the fixed-capacity core `T` (default: the
/// deterministic linear-probing table); `ResizableTable<E,
/// RobinHoodHashTable<E>>` is the growable Robin Hood table. Every
/// determinism argument in the module docs applies verbatim to any
/// core whose fixed-capacity layout is a pure function of its
/// contents.
pub struct ResizableTable<E: HashEntry, T: FlatTableCore<E> = DetHashTable<E>> {
    /// Oldest epoch that may still hold entries; advances as epochs
    /// drain. Its `next` chain ends at the live tail.
    current: AtomicPtr<Epoch<E, T>>,
    /// Every epoch ever published. Retired epochs are kept — cell
    /// arrays included — until `Drop`, so the memory owned is the sum
    /// over the table's whole history, not a multiple of the tail: a
    /// 1 Ki-cell table taken through 11 doublings and back down through
    /// 11 halvings still owns about three times its *peak* array.
    /// Releasing drained epochs early is ROADMAP item 3.
    allocated: Mutex<Vec<*mut Epoch<E, T>>>,
    /// Seed capacity exponent: shrinking never goes below `2^min_log2`,
    /// which keeps the quiescent capacity a pure function of the phase
    /// history (and bounds worst-case churn for tiny key sets).
    min_log2: u32,
}

// SAFETY: epochs are only mutated through atomics and the interior
// core table (Sync per the `FlatTableCore` supertraits); raw epoch
// pointers are freed only in `Drop`, which requires exclusive access.
unsafe impl<E: HashEntry, T: FlatTableCore<E>> Send for ResizableTable<E, T> {}
unsafe impl<E: HashEntry, T: FlatTableCore<E>> Sync for ResizableTable<E, T> {}

impl<E: HashEntry, T: FlatTableCore<E>> ResizableTable<E, T> {
    /// Creates a table with `2^log2_size` initial cells.
    pub fn new_pow2(log2_size: u32) -> Self {
        let first = Box::into_raw(Box::new(Epoch::new_pow2(log2_size)));
        ResizableTable {
            current: AtomicPtr::new(first),
            allocated: Mutex::new(vec![first]),
            min_log2: log2_size,
        }
    }

    /// The shrink floor in cells (the seed capacity).
    #[inline]
    fn floor_capacity(&self) -> usize {
        1usize << self.min_log2
    }

    fn current_epoch(&self) -> &Epoch<E, T> {
        // SAFETY: `current` always points into `allocated`, whose
        // entries outlive `&self` (freed only in Drop).
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn next_of<'t>(&'t self, ep: &Epoch<E, T>) -> Option<&'t Epoch<E, T>> {
        let p = ep.next.load(Ordering::SeqCst);
        // SAFETY: as in `current_epoch`.
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Current capacity (cells) — of the tail table once quiescent.
    pub fn capacity(&self) -> usize {
        self.quiesce();
        self.current_epoch().capacity()
    }

    /// Number of stored entries (exact at phase quiescence).
    pub fn len(&self) -> usize {
        self.quiesce();
        self.current_epoch().items()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs an insert phase and **normalizes** the capacity afterwards.
    ///
    /// Mid-phase, concurrent inserts may race past the load threshold
    /// before one of them grows the table, so the capacity *during* a
    /// phase can depend on timing. The phase wrapper drains any pending
    /// migration and re-checks the threshold once the phase is
    /// quiescent, making the final capacity — and hence the final
    /// layout — a pure function of the contents. Use this (rather than
    /// bare [`insert`](Self::insert)) whenever you rely on snapshot
    /// determinism.
    pub fn insert_phase<R>(&mut self, f: impl FnOnce(&Self) -> R) -> R {
        let r = f(self);
        self.normalize();
        r
    }

    /// Drains pending migration, grows until the load is below the 3/4
    /// threshold, and shrinks (down to the seed floor) while it is
    /// below 1/8. Called between phases (`&self` methods quiesce but do
    /// not normalize). Exposed crate-internally so room wrappers can
    /// normalize at batch boundaries without taking `&mut self`. On
    /// return the tail is quiescent and canonical, and the
    /// `bytes_per_key_milli` gauge reflects its footprint.
    pub(crate) fn normalize(&self) {
        loop {
            self.quiesce();
            let ep = self.current_epoch();
            if ep.items() >= ep.grow_at() {
                self.publish_successor(ep);
                self.help(ep, DRAIN);
                continue;
            }
            let (items, cap) = (ep.items(), ep.capacity());
            if Epoch::<E, T>::items_under_shrink(items, cap, self.floor_capacity()) {
                self.publish_shrunk(ep);
                self.help(ep, DRAIN);
                continue;
            }
            let bytes = cap * crate::cell::cell_bytes::<E::Repr>();
            if let Some(milli) = (bytes * 1000).checked_div(items) {
                phc_obs::probe!(gauge BytesPerKeyMilli, milli);
            }
            return;
        }
    }

    /// Helps until the epoch chain is a single live table.
    fn quiesce(&self) {
        loop {
            let ep = self.current_epoch();
            if ep.next.load(Ordering::SeqCst).is_null() {
                return;
            }
            self.help(ep, DRAIN);
        }
    }

    /// Runs one insert window on `ep`, which the caller found without a
    /// successor: the only place this module inserts into a core.
    /// Registers on the epoch and re-checks `ep.next` — if a successor
    /// was published in between, the registration is withdrawn, nothing
    /// is inserted and the caller re-routes (the writer's half of the
    /// drain-gate handshake, see the module docs). Otherwise `carry` and
    /// `items` go to the engine's insert run, budgeted with the fills
    /// left below the growth threshold, and one RMW posts the run's fill
    /// credits and retires the registration together. A successor is
    /// published — publish only, and only after retiring; helping is
    /// paid by the operations that follow, one quota each — when the
    /// posted count reached the threshold, or when the run handed back a
    /// homeless repr: the table hard-filled below the canonical capacity
    /// (tiny seed tables under heavy concurrency).
    ///
    /// Returns how many of `items` the run took and the repr still to
    /// be re-homed, which goes first into the caller's next window.
    ///
    /// The budget comes from the credit count the registering RMW
    /// returns (exact for this thread, approximate across threads), which
    /// only shifts *when* growth triggers mid-phase, never the canonical
    /// capacity. Credits land in the epoch the entries went into; if
    /// that epoch is retired later its credits go with it and the
    /// migration re-credits the entries at their next home, so the
    /// tail's count stays exact (see module docs).
    fn fill_window<I: AsRepr<E>>(
        &self,
        ep: &Epoch<E, T>,
        carry: Option<u64>,
        items: &[I],
    ) -> (usize, Option<u64>) {
        let (core, grow_at) = (ep.core(), ep.grow_at());
        let start_items = ep.state.fetch_add(ACTIVE_ONE, Ordering::SeqCst) & ITEMS_MASK;
        if !ep.next.load(Ordering::SeqCst).is_null() {
            ep.state.fetch_sub(ACTIVE_ONE, Ordering::SeqCst);
            return (0, carry);
        }
        #[cfg(test)]
        tests::in_window_hook();
        let budget = grow_at.saturating_sub(start_items);
        let token = core.policy.open_insert_window();
        let (consumed, fills, carry) = core.insert_run(carry, items, token, budget);
        core.policy.close_insert_window();
        let closing = fills.wrapping_sub(ACTIVE_ONE);
        let items_now = (ep.state.fetch_add(closing, Ordering::SeqCst) & ITEMS_MASK) + fills;
        if (carry.is_some() || items_now >= grow_at) && ep.next.load(Ordering::SeqCst).is_null() {
            self.publish_successor(ep);
        }
        (consumed, carry)
    }

    /// Inserts an entry, publishing a doubled successor when the load
    /// threshold is hit. Callable from any number of threads during an
    /// insert phase. When a migration is pending the insert pays one
    /// bounded block quota and proceeds against the live tail — it
    /// never waits for other threads' blocks, so the worst-case stall
    /// is `HELP_QUOTA_BLOCKS` blocks regardless of table size.
    pub fn insert(&self, e: E) {
        self.insert_batch(&[e]);
    }

    /// Inserts a batch of entries through bounded insert windows of
    /// `WINDOW_CHUNK` entries. A window registers and pays its fill
    /// credits once (instead of once per entry) and bounds how long the
    /// epoch registration is held, so a migrator's drain gate never
    /// waits on a whole batch. When a migration is pending the batch
    /// pays one help quota per window and routes the window straight to
    /// the live tail.
    ///
    /// Callers that rely on snapshot determinism normalize at phase
    /// end, exactly as with per-op [`insert`](Self::insert).
    pub fn insert_batch(&self, entries: &[E]) {
        let mut rest = entries;
        // A repr left homeless by a hard-full insert; goes in ahead of
        // `rest`.
        let mut carry: Option<u64> = None;
        while !rest.is_empty() || carry.is_some() {
            let ep = self.current_epoch();
            let window = &rest[..rest.len().min(WINDOW_CHUNK)];
            let consumed = if ep.next.load(Ordering::SeqCst).is_null() {
                let (consumed, homeless) = self.fill_window(ep, carry, window);
                carry = homeless;
                consumed
            } else {
                self.help(ep, HELP_QUOTA_BLOCKS);
                self.insert_batch_into_chain(ep, carry.take(), window);
                window.len()
            };
            rest = &rest[consumed..];
        }
    }

    /// Parallel batched insert: chunks by [`phc_parutil::grain`] and
    /// drives [`insert_batch`](Self::insert_batch) per chunk (on the
    /// calling thread for at most one grain — the server's per-shard
    /// sub-batches are usually well under one).
    pub fn par_insert_batched(&self, entries: &[E]) {
        phc_parutil::for_each_grain(entries, |chunk| self.insert_batch(chunk));
    }

    /// Registers the caller as an epoch writer for a delete window,
    /// draining any in-progress migration first — unlike an insert, a
    /// delete must find its key, so it only ever runs against a chain of
    /// one. Returns the registered epoch; the caller must retire with
    /// `fetch_sub(ACTIVE_ONE + removed)`. The same drain-gate handshake
    /// as `fill_window`'s.
    fn register_for_delete(&self) -> &Epoch<E, T> {
        loop {
            let ep = self.current_epoch();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                self.help(ep, DRAIN);
                continue;
            }
            ep.state.fetch_add(ACTIVE_ONE, Ordering::SeqCst);
            if !ep.next.load(Ordering::SeqCst).is_null() {
                // Published between the null-check and registration.
                ep.state.fetch_sub(ACTIVE_ONE, Ordering::SeqCst);
                continue;
            }
            return ep;
        }
    }

    /// Deletes by key. Callable from any number of threads during a
    /// delete phase — or, for cores like `FcHashTable`, concurrently
    /// with inserts. A delete that drops the load below 1/8 publishes a
    /// halved successor and helps migrate it, mirroring the insert
    /// side's cooperative growth (see the module docs on why mid-phase
    /// triggers preserve the canonical quiescent capacity).
    pub fn delete(&self, key: E) {
        self.delete_batch(&[key]);
    }

    /// Publishes and helps migrate a halved successor when `items`
    /// leaves `ep` under the shrink threshold. Called after the caller
    /// has retired from the epoch (its own registration would hold the
    /// drain gate shut against its own help).
    fn maybe_shrink(&self, ep: &Epoch<E, T>, items: usize) {
        if Epoch::<E, T>::items_under_shrink(items, ep.capacity(), self.floor_capacity())
            && ep.next.load(Ordering::SeqCst).is_null()
        {
            self.publish_shrunk(ep);
            self.help(ep, DRAIN);
        }
    }

    /// Deletes a batch of keys through the engine's delete loop, one
    /// delete window and one retire-and-debit RMW per `WINDOW_CHUNK`
    /// keys (the returned word carries the item count for the shrink
    /// check for free). The chunking bounds how long one batch keeps
    /// the epoch registration held — the drain gate waits for it, so an
    /// unbounded batch would stall every migration helper for the whole
    /// batch; re-registering per chunk also lets the shrink check (and a
    /// racing grow publish) land between chunks.
    pub fn delete_batch(&self, keys: &[E]) {
        for chunk in keys.chunks(WINDOW_CHUNK) {
            let ep = self.register_for_delete();
            let core = ep.core();
            let token = core.policy.open_delete_window();
            let removed = core.delete_run(chunk, token);
            core.policy.close_delete_window();
            let prev = ep.state.fetch_sub(ACTIVE_ONE + removed, Ordering::SeqCst);
            self.maybe_shrink(ep, (prev & ITEMS_MASK) - removed);
        }
    }

    /// Parallel batched delete: chunks by [`phc_parutil::grain`].
    pub fn par_delete_batched(&self, keys: &[E]) {
        phc_parutil::for_each_grain(keys, |chunk| self.delete_batch(chunk));
    }

    /// Looks up a key (find/elements phase).
    pub fn find(&self, key: E) -> Option<E> {
        self.quiesce();
        self.current_epoch().core().find(key)
    }

    /// Batched lookup through the core's prefetching batch kernel
    /// (one result per key, in key order).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        self.quiesce();
        self.current_epoch().core().find_batch(keys)
    }

    /// Parallel batched lookup: chunks by [`phc_parutil::grain`];
    /// results stay in key order.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        phc_parutil::flat_map_grain(keys, |chunk| self.find_batch(chunk))
    }

    /// Packs the contents (deterministic sequence).
    pub fn elements(&self) -> Vec<E> {
        self.quiesce();
        self.current_epoch().core().elements()
    }

    /// [`elements`](Self::elements) into a caller-supplied buffer
    /// (appends; does not clear). Steady-state callers reuse one
    /// buffer's high-water capacity instead of allocating a fresh
    /// `Vec` per pack.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        self.quiesce();
        self.current_epoch().core().elements_into(out)
    }

    /// Raw snapshot of the current backing array.
    pub fn snapshot(&self) -> Vec<u64> {
        self.quiesce();
        self.current_epoch().core().snapshot()
    }

    /// Raw view of the live cell array (for invariant checkers).
    pub fn with_raw_cells<R>(&self, f: impl FnOnce(&[AtomOf<E::Repr>]) -> R) -> R {
        self.quiesce();
        f(self.current_epoch().core().raw_cells())
    }

    /// Publishes a doubled successor for `ep` (retiring it) unless one
    /// already exists.
    #[cold]
    fn publish_successor(&self, ep: &Epoch<E, T>) {
        self.publish_successor_log2(ep, ep.capacity().trailing_zeros() + 1);
    }

    /// Publishes a *halved* successor for `ep` — the downward epoch of
    /// the cooperative shrinker. Same gate-and-migrate machinery as
    /// growth; only the target capacity differs.
    #[cold]
    fn publish_shrunk(&self, ep: &Epoch<E, T>) {
        debug_assert!(ep.capacity() > self.floor_capacity());
        self.publish_successor_log2(ep, ep.capacity().trailing_zeros() - 1);
    }

    /// Publishes a successor of `2^log2` cells for `ep` (retiring it)
    /// unless one already exists.
    fn publish_successor_log2(&self, ep: &Epoch<E, T>, log2: u32) {
        // Serialize publishers on the registry lock: racing threads
        // would otherwise each allocate (and fault in) a table-sized
        // epoch only to lose the CAS and free it.
        let mut registry = self.allocated.lock().expect("epoch registry poisoned");
        if !ep.next.load(Ordering::SeqCst).is_null() {
            return;
        }
        let fresh = Box::into_raw(Box::new(Epoch::new_pow2(log2)));
        match ep
            .next
            .compare_exchange(ptr::null_mut(), fresh, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                phc_obs::probe!(count EpochsPublished);
                if (1usize << log2) < ep.capacity() {
                    phc_obs::probe!(count ShrinkEpochs);
                }
                phc_obs::probe!(phase EpochPublish);
                registry.push(fresh);
            }
            // Unreachable while publishers hold the lock, but keep the
            // lost-race path sound regardless.
            Err(_) => drop(unsafe { Box::from_raw(fresh) }),
        }
    }

    /// The helper's half of the drain-gate handshake (module docs):
    /// waits until no writer window is registered on the retiring epoch
    /// `ep`. From the first time this returns, `ep`'s cell array is
    /// immutable, and every later call is a single load.
    fn gate_writers(&self, ep: &Epoch<E, T>) {
        let mut spins = 0u32;
        while ep.state.load(Ordering::SeqCst) >= ACTIVE_ONE {
            spin_wait(&mut spins);
        }
    }

    /// One operation's contribution to the pending migration of the
    /// retiring epoch `ep` (a no-op if it is not retiring): pass the
    /// drain gate, then claim up to `max_blocks` blocks off the cursor,
    /// read each one's occupants into a stack buffer and re-insert them
    /// down the chain. Never waits for a block another thread claimed;
    /// the thread that finishes the last block advances `current`.
    ///
    /// With `HELP_QUOTA_BLOCKS` this is the only migration work an
    /// insert ever performs, so its worst-case stall during growth is
    /// the gate wait plus one quota, not a table-sized drain. With
    /// [`DRAIN`] — the quiescence paths: phase boundaries, reads,
    /// deletes — it claims every remaining block and then does wait for
    /// other helpers' in-flight ones, so `ep` is retired on return.
    fn help(&self, ep: &Epoch<E, T>, max_blocks: usize) {
        let Some(next) = self.next_of(ep) else { return };
        phc_obs::probe!(count MigrationHelps);
        let t0 = if phc_obs::Recorder::ENABLED {
            phc_obs::now_ns()
        } else {
            0
        };
        self.gate_writers(ep);
        let nblocks = ep.blocks();
        let shrinking = next.capacity() < ep.capacity();
        let mut buf = [0u64; MIGRATION_BLOCK];
        for _ in 0..max_blocks {
            let b = ep.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                break;
            }
            phc_obs::probe!(count MigrationBlocksClaimed);
            if b == 0 {
                // Once per epoch: the gate is open and the drain began.
                phc_obs::probe!(phase DrainGate);
            }
            let lo = b * MIGRATION_BLOCK;
            let hi = (lo + MIGRATION_BLOCK).min(ep.capacity());
            let n = ep.core().drain_range(lo..hi, &mut buf);
            if shrinking {
                phc_obs::probe!(count ShrinkMigrations, n);
            }
            self.insert_batch_into_chain(next, None, &buf[..n]);
            if ep.done.fetch_add(1, Ordering::Release) + 1 == nblocks {
                self.advance_current();
            }
        }
        if max_blocks == DRAIN {
            // The epoch may not be retired until every entry has moved.
            let mut spins = 0u32;
            while ep.done.load(Ordering::Acquire) < nblocks {
                spin_wait(&mut spins);
            }
            self.advance_current();
        }
        if phc_obs::Recorder::ENABLED {
            phc_obs::probe!(hist MigrationStallNanos, (phc_obs::now_ns() - t0) as usize);
        }
    }

    /// Inserts `carry` and `items` into the live tail of the chain
    /// starting at `start`, one [`fill_window`](Self::fill_window) of
    /// `WINDOW_CHUNK` items at a time, publishing successors on
    /// threshold/full as usual but **without** helping or claiming —
    /// migration re-inserts must not recurse into block draining
    /// (unbounded chains would overflow the stack; claims are owned by
    /// `help` callers). A window that finds its epoch retiring
    /// (published between the tail walk and the window open) takes
    /// nothing, and the walk starts over from the new tail.
    fn insert_batch_into_chain<I: AsRepr<E>>(
        &self,
        start: &Epoch<E, T>,
        mut carry: Option<u64>,
        mut items: &[I],
    ) {
        while !items.is_empty() || carry.is_some() {
            let mut ep = start;
            while let Some(n) = self.next_of(ep) {
                ep = n;
            }
            let window = &items[..items.len().min(WINDOW_CHUNK)];
            let (consumed, homeless) = self.fill_window(ep, carry, window);
            carry = homeless;
            items = &items[consumed..];
        }
    }

    /// Advances `current` past fully drained epochs.
    fn advance_current(&self) {
        loop {
            let cur = self.current.load(Ordering::Acquire);
            // SAFETY: as in `current_epoch`.
            let ep = unsafe { &*cur };
            let next = ep.next.load(Ordering::SeqCst);
            if next.is_null() || ep.done.load(Ordering::Acquire) < ep.blocks() {
                return;
            }
            // On CAS failure another thread advanced for us; re-check
            // from the new head (a later epoch may also be drained).
            if self
                .current
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                phc_obs::probe!(phase MigrationFinish);
            }
        }
    }
}

impl<E: HashEntry, T: FlatTableCore<E>> Drop for ResizableTable<E, T> {
    fn drop(&mut self) {
        let epochs = std::mem::take(&mut *self.allocated.lock().expect("epoch registry poisoned"));
        for p in epochs {
            // SAFETY: each pointer was Box::into_raw'd exactly once and
            // appears in the registry exactly once.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// Insert-phase handle for [`ResizableTable`] (see [`crate::phase`]).
pub type ResizableInserter<'t, E, T = DetHashTable<E>> = Inserter<'t, ResizableTable<E, T>>;
/// Delete-phase handle.
pub type ResizableDeleter<'t, E, T = DetHashTable<E>> = Deleter<'t, ResizableTable<E, T>>;
/// Read-phase handle.
pub type ResizableReader<'t, E, T = DetHashTable<E>> = Reader<'t, ResizableTable<E, T>>;

impl<E: HashEntry, T: FlatTableCore<E>> TableOps<E> for ResizableTable<E, T> {
    const NAME: &'static str = T::GROW_NAME;

    fn new_pow2(log2_size: u32) -> Self {
        ResizableTable::new_pow2(log2_size)
    }
    /// Cells of the oldest live epoch; unlike the inherent
    /// [`capacity`](ResizableTable::capacity), drains no migration.
    fn capacity(&self) -> usize {
        self.current_epoch().capacity()
    }
    fn insert(&self, e: E) {
        ResizableTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        ResizableTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        ResizableTable::find(self, key)
    }
    fn elements(&self) -> Vec<E> {
        ResizableTable::elements(self)
    }
    /// Every phase transition normalizes: leaving an insert phase
    /// through `begin_*`/`elements` lands on the canonical capacity, so
    /// generic phase-discipline code sees deterministic snapshots.
    fn before_phase(&self) {
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::U64Key;
    use crate::invariant::{check_no_duplicate_keys, check_ordering_invariant};

    #[test]
    fn grows_past_initial_capacity() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4); // 16 cells
        for k in 1..=1000u64 {
            t.insert(U64Key::new(k));
        }
        assert!(t.capacity() >= 1024, "capacity {}", t.capacity());
        assert_eq!(t.len(), 1000);
        for k in 1..=1000u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn growth_preserves_history_independence() {
        let build = |order: &[u64]| {
            let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
            for &k in order {
                t.insert(U64Key::new(k));
            }
            t
        };
        let keys: Vec<u64> = (1..=500).collect();
        let mut rev = keys.clone();
        rev.reverse();
        let a = build(&keys);
        let b = build(&rev);
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn delete_updates_count() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(10);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        for k in 1..=40u64 {
            t.delete(U64Key::new(k));
        }
        // Deleting absent keys must not corrupt the count.
        t.delete(U64Key::new(9999));
        assert_eq!(t.len(), 60);
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k > 40);
        }
    }

    #[test]
    fn duplicate_inserts_do_not_inflate_count() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(6);
        for _ in 0..100 {
            t.insert(U64Key::new(7));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 64);
    }

    #[test]
    fn parallel_growth_count_is_exact() {
        use rayon::prelude::*;
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        (1..=5000u64)
            .into_par_iter()
            .for_each(|k| t.insert(U64Key::new(k)));
        assert_eq!(t.len(), 5000);
        // Final capacity is the unique power of two keeping load ≤ 3/4.
        assert!(t.capacity() * MAX_LOAD_NUM >= 5000 * MAX_LOAD_DEN - t.capacity());
        for k in (1..=5000u64).step_by(97) {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn parallel_growth_is_deterministic() {
        use rayon::prelude::*;
        let build = || {
            let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
            t.insert_phase(|t| {
                (1..=3000u64)
                    .into_par_iter()
                    .for_each(|k| t.insert(U64Key::new(k)));
            });
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn migration_preserves_table_invariants() {
        use rayon::prelude::*;
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        t.insert_phase(|t| {
            (1..=4000u64)
                .into_par_iter()
                .for_each(|k| t.insert(U64Key::new(k)));
        });
        // The migrated layout still satisfies the ordering invariant
        // (Definition 2) and holds each key exactly once.
        let snap = t.snapshot();
        check_ordering_invariant::<U64Key>(&snap).unwrap();
        check_no_duplicate_keys::<U64Key>(&snap).unwrap();
        // And the capacity is canonical for the key count: growth
        // fired exactly when required, with no overshoot.
        crate::invariant::check_canonical_capacity::<U64Key>(&snap, 16).unwrap();
    }

    #[test]
    fn drain_range_reads_every_entry_and_stores_nothing() {
        fn run<T: FlatTableCore<U64Key>>() {
            let table = T::new_pow2(6);
            let t = table.engine();
            // The all-ones word is an ordinary key.
            for k in (1..=39u64).chain([u64::MAX]) {
                assert!(t.insert_counted(U64Key::new(k)));
            }
            let before = t.snapshot();
            let expect: Vec<u64> = t.elements().iter().map(|e| e.to_repr()).collect();
            let mut got = Vec::new();
            let mut buf = [0u64; 16];
            for lo in (0..t.capacity()).step_by(16) {
                let n = t.drain_range(lo..lo + 16, &mut buf);
                got.extend_from_slice(&buf[..n]);
            }
            // Blocks are read in cell order, so the drained reprs must
            // equal the packed elements exactly — nothing lost,
            // nothing duplicated, nothing reordered — and the source
            // is byte-for-byte what it was.
            assert_eq!(got, expect, "{}", T::GROW_NAME);
            assert_eq!(t.snapshot(), before, "{}", T::GROW_NAME);
        }
        run::<DetHashTable<U64Key>>();
        run::<crate::robinhood::RobinHoodHashTable<U64Key>>();
        run::<crate::fc::FcHashTable<U64Key>>();
    }

    thread_local! {
        /// Runs once inside this thread's next insert window, after it
        /// registered on its epoch and before it inserts anything.
        static IN_WINDOW: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn in_window_hook() {
        if let Some(f) = IN_WINDOW.with(|h| h.borrow_mut().take()) {
            f();
        }
    }

    fn registered(ep: &Epoch<U64Key, DetHashTable<U64Key>>) -> usize {
        ep.state.load(Ordering::SeqCst) / ACTIVE_ONE
    }

    #[test]
    fn open_window_holds_the_drain_gate_shut() {
        use std::sync::mpsc::channel;
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(11); // 4 blocks
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        let ep = t.current_epoch();
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (helping_tx, helping_rx) = channel();
        std::thread::scope(|s| {
            // A writer that stops inside its registered window.
            s.spawn(|| {
                IN_WINDOW.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }));
                });
                t.insert_batch(&[U64Key::new(101), U64Key::new(102)]);
            });
            entered_rx.recv().unwrap();
            assert_eq!(registered(ep), 1);
            t.publish_successor(ep);
            // A helper: it must sit at the gate while the window is open.
            let helper = s.spawn(|| {
                helping_tx.send(()).unwrap();
                t.help(ep, DRAIN);
            });
            helping_rx.recv().unwrap();
            for _ in 0..200 {
                std::thread::yield_now();
                assert_eq!(
                    ep.cursor.load(Ordering::SeqCst),
                    0,
                    "claimed past an open window"
                );
                assert!(!helper.is_finished());
            }
            assert_eq!(registered(ep), 1);
            release_tx.send(()).unwrap();
        });
        // The window ran on the old epoch (it had registered before the
        // publish), the helper then drained it: nothing was lost.
        assert_eq!(registered(ep), 0);
        assert!(ep.cursor.load(Ordering::SeqCst) >= ep.blocks());
        assert_eq!(t.len(), 102);
        for k in 1..=102u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn window_opened_after_publish_takes_nothing() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(6);
        t.insert(U64Key::new(1));
        let ep = t.current_epoch();
        t.publish_successor(ep);
        let before = ep.core().snapshot();
        let items = [U64Key::new(2), U64Key::new(3)];
        assert_eq!(t.fill_window(ep, Some(9), &items), (0, Some(9)));
        assert_eq!(t.fill_window(ep, None, &items), (0, None));
        assert_eq!(
            ep.state.load(Ordering::SeqCst),
            1,
            "no registration, one credit"
        );
        assert_eq!(ep.core().snapshot(), before);
    }

    #[test]
    fn concurrent_batches_from_tiny_seed_match_the_sequential_build() {
        // 16 cells -> 16 Ki cells: ten doublings, every one of them
        // published and drained under eight threads' insert windows.
        fn run<T: FlatTableCore<U64Key>>() {
            let keys: Vec<U64Key> = (1..=8000u64)
                .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
                .collect();
            let seq: ResizableTable<U64Key, T> = ResizableTable::new_pow2(4);
            for &k in &keys {
                seq.insert(k);
            }
            seq.normalize();
            assert_eq!(seq.capacity(), 1 << 14);
            let expect = seq.snapshot();
            for rep in 0..200 {
                let t: ResizableTable<U64Key, T> = ResizableTable::new_pow2(4);
                std::thread::scope(|s| {
                    for part in keys.chunks(keys.len() / 8) {
                        let t = &t;
                        s.spawn(move || t.insert_batch(part));
                    }
                });
                t.normalize();
                assert_eq!(t.len(), keys.len(), "{} rep {rep}", T::GROW_NAME);
                assert!(t.snapshot() == expect, "{} rep {rep}", T::GROW_NAME);
            }
        }
        run::<DetHashTable<U64Key>>();
        run::<crate::robinhood::RobinHoodHashTable<U64Key>>();
    }

    #[test]
    fn every_insert_route_crosses_the_threshold_alike() {
        // Exactly 3/4 of a 2^k-cell seed: the insert that posts the
        // crossing credit publishes the doubled successor in that same
        // call, whichever route carried it — per-op, one batch, or the
        // chain route behind a successor that already exists.
        fn run<T: FlatTableCore<U64Key>>() {
            const K: u32 = 7;
            let keys: Vec<U64Key> = (1..=3u64 << (K - 2))
                .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
                .collect();
            let per_op: ResizableTable<U64Key, T> = ResizableTable::new_pow2(K);
            for &k in &keys {
                per_op.insert(k);
            }
            let batch: ResizableTable<U64Key, T> = ResizableTable::new_pow2(K);
            batch.insert_batch(&keys);
            // The chain route: a half-size seed whose successor (2^K
            // cells) is force-published first, so every key travels
            // `insert_batch_into_chain` into that 2^K-cell tail.
            let chain: ResizableTable<U64Key, T> = ResizableTable::new_pow2(K - 1);
            chain.publish_successor(chain.current_epoch());
            chain.insert_batch(&keys);
            for t in [&per_op, &batch, &chain] {
                assert_eq!(t.capacity(), 2 << K, "{}", T::GROW_NAME);
                assert_eq!(t.len(), keys.len(), "{}", T::GROW_NAME);
                t.normalize();
            }
            assert_eq!(per_op.snapshot(), batch.snapshot(), "{}", T::GROW_NAME);
            assert_eq!(per_op.snapshot(), chain.snapshot(), "{}", T::GROW_NAME);
        }
        run::<DetHashTable<U64Key>>();
        run::<crate::robinhood::RobinHoodHashTable<U64Key>>();
        run::<crate::fc::FcHashTable<U64Key>>();
    }

    #[test]
    fn insert_during_pending_migration_diverts_without_loss() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(11); // 4 blocks
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        // Force a pending migration by hand; nobody has helped yet.
        t.publish_successor(t.current_epoch());
        // Each of these pays one bounded quota and lands in the tail
        // while part of the old cell array is still unmigrated.
        for k in 101..=120u64 {
            t.insert(U64Key::new(k));
        }
        assert_eq!(t.len(), 120);
        for k in 1..=120u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn delete_after_forced_publish_sees_every_key() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(11);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        t.publish_successor(t.current_epoch());
        // Deletes drain the pending migration before registering, so
        // they must observe keys still sitting in the unmigrated
        // region (and the shrink that follows must not lose any).
        for k in 1..=50u64 {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.len(), 50);
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k > 50);
        }
    }

    #[test]
    fn phase_api_normalizes_between_phases() {
        use crate::phase::*;
        let mut t: ResizableTable<U64Key> = PhaseHashTable::new_pow2(4);
        {
            let ins = t.begin_insert();
            for k in 1..=300u64 {
                ins.insert(U64Key::new(k));
            }
        }
        {
            let del = t.begin_delete();
            for k in 1..=100u64 {
                del.delete(U64Key::new(k));
            }
        }
        let reader = t.begin_read();
        assert_eq!(reader.find(U64Key::new(50)), None);
        assert_eq!(reader.find(U64Key::new(200)), Some(U64Key::new(200)));
        assert_eq!(reader.elements().len(), 200);
    }
}
