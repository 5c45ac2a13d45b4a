//! Growable wrapper over the flat probe-engine tables (paper §4,
//! "Resizing").
//!
//! The paper outlines a lock-free scheme in which inserts detect an
//! overfull table, link a new table of twice the size, and
//! cooperatively migrate elements. [`ResizableTable`] implements that
//! scheme with **incremental migration**: the backing store is a chain
//! of **epochs**, each owning one fixed-size core table (any
//! [`FlatTableCore`]: the deterministic, Robin Hood or `linearHash-FC`
//! table) until that table is drained, and a small header for good. An
//! inserter whose fill credits bring its epoch's load to the
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
//! Every thread that touches an epoch's cells — writer or reader —
//! registers on the epoch for the length of one *window*: at most
//! `WINDOW_CHUNK` inserts (`fill_window`) or deletes (`delete_batch`),
//! or one read call (`open_window`: a `find`, at most one grain of a
//! `find_batch`, one array pass of `elements*` / `snapshot`). The one
//! exception is a read through a read-phase handle, which needs no
//! registration (see "Release on drain").
//! Registering is `state.fetch_add(ACTIVE_ONE)`, then
//! a re-read of `next`. A thread that finds a successor un-registers
//! without having touched a cell and re-routes; otherwise it runs its
//! window and retires with one RMW (which, for writers, also posts the
//! window's fill credits or debits). A helper that has seen `next`
//! non-null waits until the registered half of `state` reads zero
//! (`pass_drain_gate`) before it
//! claims a block. Registration, the re-read, the publishing CAS and
//! the helper's load are all `SeqCst`, which makes the pair a
//! store-buffering (Dekker) handshake: in their single total order a
//! window's registration either precedes the helper's load of `state` —
//! the helper then waits for the retiring RMW, after which every cell
//! access of that window is over and its writes are visible — or follows
//! it, and then it also follows the publish the helper had already
//! observed, so the window's re-read returns the successor. Either way:
//! **once a helper has read zero after the publish, no thread but the
//! owner of a claimed block touches the retiring array ever again.** The
//! gate stays open; later helpers pass it with one load.
//!
//! Migration is therefore a read: each block is claimed by exactly one
//! helper (the cursor), drained with plain loads into a stack buffer
//! ([`ProbeTable::drain_range`]) and re-inserted into the live tail in
//! cell order. No marker is written, no cell of the source changes, and
//! the cores carry no migration check on any probe path. Every entry in
//! the array when the gate opened lies in exactly one block,
//! so it reaches the successor exactly once; the cores'
//! combine-on-duplicate semantics absorb the one benign overlap (a key
//! inserted directly into the tail while its old copy still awaits
//! migration).
//!
//! The gate wait is bounded by one window per thread — for a reader
//! that is one grain of finds or one pass over the array — and nobody
//! waits while registered (helping and publishing happen outside the
//! registration), so there is no cycle. An insert that meets a pending
//! migration still goes straight to the tail and still pays only its
//! block quota. A window on a table that is not resizing costs the two
//! registration RMWs; an insert window's first returns the item count
//! the fill budget needs.
//!
//! ## Release on drain
//!
//! The cells of an epoch are therefore reachable in exactly three ways:
//! a registration taken while `next` was null, a claimed block not yet
//! counted into `done`, or a read-phase handle ([`Reader`], from
//! `PhaseHashTable::begin_read`). The handle registers nowhere, and needs
//! not to: `begin_read` normalizes, so the chain is one epoch when the
//! handle is made, and the exclusive borrow the handle holds keeps every
//! window — and with it every publish — out until it drops; with no
//! successor there is no helper to drain or free what it reads. When the
//! `done` increment of some helper completes the count, all three are
//! gone for good — the gate was passed before the first claim, every
//! later registration withdraws, a handle made later reads the successor
//! (its `begin_read` drained this epoch first), and the `AcqRel`
//! increments order every other helper's block reads before this one —
//! so that helper advances `current` and **drops the core
//! table in place**: the cell array goes back to the allocator (straight
//! to the OS for arrays above the allocator's mmap threshold) while the
//! migration's last operation is still running. What stays until `Drop`
//! is the epoch's header (`state`, `next`, `cursor`, `done`, the
//! capacity as a `log2`; 64 bytes for the deterministic core), which is
//! all a thread holding a stale `current` or walking `next` ever reads.
//! A table owns its live chain's arrays — the tail at quiescence, old +
//! new during a resize — whatever its history
//! ([`owned_cell_bytes`](ResizableTable::owned_cell_bytes)). Debug
//! builds overwrite a released array with a poison word first and assert
//! in `Epoch::core` that the core is still there, so a stale read fails
//! loudly instead of returning a plausible miss.
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

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::det::DetHashTable;
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader, TableOps};
use crate::probe::{AsRepr, Growable, ProbeTable};

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
    /// Short label of the core for benches and logs: `"det"`,
    /// `"robinhood"` or `"fc"`.
    const LABEL: &'static str;

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

/// One link in the growth chain: the coordination state for one
/// fixed-capacity table, and that table for as long as it can hold an
/// entry.
///
/// The **header** — everything but `table` — lives until the
/// [`ResizableTable`] is dropped, so a stale `current` or `next` pointer
/// is always dereferenceable, and it answers every question that does
/// not need a cell: capacity, block count, thresholds, item count,
/// whether a successor exists. The **core** (`table`: cell array plus
/// policy state) is dropped in place by the helper that drains the last
/// migration block (see "Release on drain" in the module docs); what
/// stays behind is `size_of::<Epoch>()` bytes per resize, 64 for the
/// deterministic core.
struct Epoch<E: HashEntry, T: FlatTableCore<E>> {
    /// The core table; `None` once released. Reached only through
    /// [`core`](Self::core), under an epoch registration or a claimed
    /// block, and written only by [`release`](Self::release).
    table: UnsafeCell<Option<T>>,
    /// Packed coordination word: open windows — insert, delete and read
    /// alike — in the high 32 bits (`ACTIVE_ONE` units, the drain
    /// gate's side of the handshake in the module docs), empty-cell fill
    /// credits in the low 32. A writer window's retiring RMW posts its
    /// credits (or debits) in the same operation. The credits are exact:
    /// once the epoch is quiescent the low half equals the number of
    /// stored entries (see module docs). Capacities are < 2^31 cells, so
    /// the halves cannot carry into each other.
    state: AtomicUsize,
    /// Successor epoch; non-null marks this epoch as *retiring*: new
    /// operations divert to the tail after paying a help quota.
    next: AtomicPtr<Epoch<E, T>>,
    /// Next migration block index to claim.
    cursor: AtomicUsize,
    /// Migration blocks fully drained.
    done: AtomicUsize,
    /// `log2` of the core's cell count (the core itself may be gone).
    log2: u32,
    /// Whether the core was released. Bookkeeping for
    /// [`ResizableTable::owned_cell_bytes`] and the debug check in
    /// [`core`](Self::core); no access decision reads it.
    released: AtomicBool,
    _entry: PhantomData<E>,
}

// SAFETY: every field but `table` is an atomic or immutable. `table` is
// shared as `&T` (`T: Sync`) by the threads the drain-gate protocol
// admits, and written exactly once, by `release`, whose contract is that
// no such thread exists any more; it is dropped on whichever thread
// releases it (`T: Send`).
unsafe impl<E: HashEntry, T: FlatTableCore<E>> Sync for Epoch<E, T> {}

/// One open window in `Epoch::state`'s high half.
const ACTIVE_ONE: usize = 1 << 32;
/// Mask of the fill-credit (items) half of `Epoch::state`.
const ITEMS_MASK: usize = ACTIVE_ONE - 1;

/// What a released cell array is overwritten with in debug builds before
/// it is freed (truncated to the cell width): not `⊥`, and a repr no test
/// inserts, so a read through a stale pointer returns an entry nobody
/// stored instead of a plausible miss.
#[cfg(any(debug_assertions, test))]
const POISON: u64 = 0xDEAD_CE11_DEAD_CE11;

impl<E: HashEntry, T: FlatTableCore<E>> Epoch<E, T> {
    fn new_pow2(log2_size: u32) -> Self {
        assert!(log2_size < 31, "epoch capacity must stay below 2^31 cells");
        Epoch {
            table: UnsafeCell::new(Some(T::new_pow2(log2_size))),
            state: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            cursor: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            log2: log2_size,
            released: AtomicBool::new(false),
            _entry: PhantomData,
        }
    }

    /// The epoch's table, as the probe engine it is. Callers hold what
    /// keeps it alive: a registration on this epoch taken while `next`
    /// was null (`fill_window`, [`Window`]), a claimed block that has
    /// not been counted into `done` yet (`help`), or a read-phase handle
    /// on a chain of one epoch (`read_phase_core`).
    fn core(&self) -> &ProbeTable<E, T::Policy> {
        debug_assert!(
            !self.released.load(Ordering::SeqCst),
            "core of a released epoch"
        );
        // SAFETY: `release` is the only writer, and it runs after every
        // block is counted into `done`, which is after the drain gate
        // read zero registrations behind the publish — so it cannot
        // overlap a caller described above, and the option is still
        // `Some` for them.
        unsafe { (*self.table.get()).as_ref().unwrap_unchecked() }.engine()
    }

    /// Frees the core: cell array and policy state.
    ///
    /// # Safety
    ///
    /// At most once per epoch, by the helper whose `done` increment
    /// completed the last block: every block is drained, the drain gate
    /// has been passed, and so no thread holds or can obtain `core()`.
    unsafe fn release(&self) {
        #[cfg(debug_assertions)]
        {
            use crate::cell::{CellAtomic, CellWord};
            for c in self.core().raw_cells() {
                c.store(POISON & <E::Repr as CellWord>::MAX_REPR, Ordering::Relaxed);
            }
        }
        self.released.store(true, Ordering::SeqCst);
        // SAFETY: exclusive per the contract above.
        unsafe { *self.table.get() = None };
    }

    fn capacity(&self) -> usize {
        1 << self.log2
    }

    /// Bytes of the core's cell array while it is owned.
    fn cell_bytes(&self) -> usize {
        self.capacity() * crate::cell::cell_bytes::<E::Repr>()
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

/// A registration on an epoch that had no successor when it was taken:
/// for as long as it is open the drain gate stays shut, so the epoch's
/// cells can be neither drained nor freed. Dropping it retires the
/// registration; a delete window retires through
/// [`retire_debiting`](Self::retire_debiting) instead.
struct Window<'t, E: HashEntry, T: FlatTableCore<E>>(&'t Epoch<E, T>);

impl<'t, E: HashEntry, T: FlatTableCore<E>> Window<'t, E, T> {
    fn core(&self) -> &ProbeTable<E, T::Policy> {
        self.0.core()
    }

    /// Retires the registration and debits `removed` items in one RMW;
    /// returns the epoch and the item count left.
    fn retire_debiting(self, removed: usize) -> (&'t Epoch<E, T>, usize) {
        let ep = self.0;
        std::mem::forget(self);
        let prev = ep.state.fetch_sub(ACTIVE_ONE + removed, Ordering::SeqCst);
        (ep, (prev & ITEMS_MASK) - removed)
    }
}

impl<E: HashEntry, T: FlatTableCore<E>> Drop for Window<'_, E, T> {
    fn drop(&mut self) {
        self.0.state.fetch_sub(ACTIVE_ONE, Ordering::SeqCst);
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
    /// Every epoch ever published, freed in `Drop`. A drained epoch
    /// keeps only its header here (its cell array went back to the
    /// allocator when its last block landed), so the memory owned is the
    /// live chain's arrays — the tail alone at quiescence, old + new
    /// during a resize — plus one header and one pointer per resize the
    /// table has ever done. The lock also serializes publishers.
    allocated: Mutex<Vec<*mut Epoch<E, T>>>,
    /// Seed capacity exponent: shrinking never goes below `2^min_log2`,
    /// which keeps the quiescent capacity a pure function of the phase
    /// history (and bounds worst-case churn for tiny key sets).
    min_log2: u32,
}

// SAFETY: epochs are only mutated through atomics, the interior core
// table (Sync per the `FlatTableCore` supertraits) and `Epoch::release`
// (see `Epoch`'s `Sync` impl); raw epoch pointers are freed only in
// `Drop`, which requires exclusive access.
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

    /// The oldest epoch that may still hold entries — its *header*:
    /// the cells behind it are reachable only through a [`Window`] or a
    /// claimed block.
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

    /// Bytes of cell array the table owns right now: the arrays of the
    /// epochs not yet drained. Equal to the tail's array at quiescence,
    /// whatever the table's history; old + new while a resize runs.
    /// Drains nothing, and walks every epoch header ever published — a
    /// diagnostic, not a hot-path call.
    pub fn owned_cell_bytes(&self) -> usize {
        let registry = self.allocated.lock().expect("epoch registry poisoned");
        registry
            .iter()
            // SAFETY: as in `current_epoch`.
            .map(|&p| unsafe { &*p })
            .filter(|ep| !ep.released.load(Ordering::SeqCst))
            .map(Epoch::cell_bytes)
            .sum()
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
            if let Some(milli) = (ep.cell_bytes() * 1000).checked_div(items) {
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
        let grow_at = ep.grow_at();
        let start_items = ep.state.fetch_add(ACTIVE_ONE, Ordering::SeqCst) & ITEMS_MASK;
        if !ep.next.load(Ordering::SeqCst).is_null() {
            ep.state.fetch_sub(ACTIVE_ONE, Ordering::SeqCst);
            return (0, carry);
        }
        // Registered with no successor: the cells are ours to touch.
        let core = ep.core();
        #[cfg(test)]
        tests::in_window_hook();
        let budget = grow_at.saturating_sub(start_items);
        let (consumed, fills, carry) = core.insert_run(carry, items, budget);
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

    /// Opens a [`Window`] on the table's only epoch, draining any
    /// in-progress migration first: what a delete window and every read
    /// call run under. Unlike an insert, they must see every key, so
    /// they only ever run against a chain of one — and they must keep
    /// that epoch's cells from being drained and freed under them, so
    /// they register on it. The same drain-gate handshake as
    /// `fill_window`'s.
    fn open_window(&self) -> Window<'_, E, T> {
        loop {
            let ep = self.current_epoch();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                self.help(ep, DRAIN);
                continue;
            }
            ep.state.fetch_add(ACTIVE_ONE, Ordering::SeqCst);
            let window = Window(ep);
            if ep.next.load(Ordering::SeqCst).is_null() {
                #[cfg(test)]
                tests::in_window_hook();
                return window;
            }
            // Published between the null-check and registration: the
            // window retires here without having touched a cell.
        }
    }

    /// Deletes by key. Callable from any number of threads during a
    /// delete phase. A delete that drops the load below 1/8 publishes a
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
    /// registration and one retire-and-debit RMW per `WINDOW_CHUNK`
    /// keys (the returned word carries the item count for the shrink
    /// check for free). The chunking bounds how long one batch keeps
    /// the epoch registration held — the drain gate waits for it, so an
    /// unbounded batch would stall every migration helper for the whole
    /// batch; re-registering per chunk also lets the shrink check (and a
    /// racing grow publish) land between chunks.
    pub fn delete_batch(&self, keys: &[E]) {
        for chunk in keys.chunks(WINDOW_CHUNK) {
            let window = self.open_window();
            let removed = window.core().delete_run(chunk);
            let (ep, items) = window.retire_debiting(removed);
            self.maybe_shrink(ep, items);
        }
    }

    /// Parallel batched delete: chunks by [`phc_parutil::grain`].
    pub fn par_delete_batched(&self, keys: &[E]) {
        phc_parutil::for_each_grain(keys, |chunk| self.delete_batch(chunk));
    }

    /// Looks up a key (find/elements phase). Like every read accessor
    /// below, one read window: it drains any pending migration, then
    /// holds a registration on the table's only epoch for the call.
    pub fn find(&self, key: E) -> Option<E> {
        self.open_window().core().find(key)
    }

    /// One read window over the core's batch lookup loop
    /// ([`ProbeTable::find_run`]), which writes every slot of `out`. The
    /// batched finds below hand it at most one [`phc_parutil::grain`] of
    /// keys, so a long batch never holds the drain gate shut for longer;
    /// an empty batch opens no window.
    fn find_window(&self, keys: &[E], out: &mut [MaybeUninit<Option<E>>]) {
        if !keys.is_empty() {
            self.open_window().core().find_run(keys, out);
        }
    }

    /// Batched lookup through the core's prefetching batch kernel
    /// (one result per key, in key order).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        let mut out = Vec::new();
        self.find_batch_into(keys, &mut out);
        out
    }

    /// [`find_batch`](Self::find_batch) into a caller-supplied buffer
    /// (appends; does not clear), one read window per grain of keys.
    pub fn find_batch_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        let grain = phc_parutil::grain();
        // SAFETY: the grains partition the slots, and `find_window`
        // writes every slot of the grain it is handed.
        unsafe {
            phc_parutil::append_with(out, keys.len(), |slots| {
                for (chunk, slots) in keys.chunks(grain).zip(slots.chunks_mut(grain)) {
                    self.find_window(chunk, slots);
                }
            })
        }
    }

    /// Parallel batched lookup: chunks by [`phc_parutil::grain`];
    /// results stay in key order.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        let mut out = Vec::new();
        self.par_find_batched_into(keys, &mut out);
        out
    }

    /// [`par_find_batched`](Self::par_find_batched) into a
    /// caller-supplied buffer (appends; does not clear): on the calling
    /// thread for at most one grain, and without allocating once the
    /// buffer has reached its high-water capacity. A read-phase handle
    /// has the same lookup without the registrations.
    pub fn par_find_batched_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        // SAFETY: as in `find_batch_into`.
        unsafe {
            phc_parutil::append_with(out, keys.len(), |slots| {
                phc_parutil::for_each_grain_into(keys, slots, |chunk, slots| {
                    self.find_window(chunk, slots)
                })
            })
        }
    }

    /// Packs the contents (deterministic sequence).
    pub fn elements(&self) -> Vec<E> {
        self.open_window().core().elements()
    }

    /// [`elements`](Self::elements) into a caller-supplied buffer
    /// (appends; does not clear). Steady-state callers reuse one
    /// buffer's high-water capacity instead of allocating a fresh
    /// `Vec` per pack.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        self.open_window().core().elements_into(out)
    }

    /// Raw snapshot of the current backing array.
    pub fn snapshot(&self) -> Vec<u64> {
        self.open_window().core().snapshot()
    }

    /// The live core for the [`Reader`] methods below, reached without a
    /// registration — the third way an epoch's cells are reachable (see
    /// "Release on drain"): `begin_read` left a chain of one epoch, and
    /// the handle's borrow keeps every publish out until it drops.
    fn read_phase_core(&self) -> &ProbeTable<E, T::Policy> {
        debug_assert!(
            self.current_epoch().next.load(Ordering::SeqCst).is_null(),
            "read phase over a resizing table"
        );
        self.current_epoch().core()
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
                drop(registry);
                self.report_owned();
            }
            // Unreachable while publishers hold the lock, but keep the
            // lost-race path sound regardless.
            Err(_) => drop(unsafe { Box::from_raw(fresh) }),
        }
    }

    /// Sets the `table_bytes_owned` gauge (counting builds only: the
    /// walk is per publish and per release, never per operation).
    fn report_owned(&self) {
        if phc_obs::Recorder::ENABLED {
            phc_obs::probe!(gauge TableBytesOwned, self.owned_cell_bytes());
        }
    }

    /// The helper's half of the drain-gate handshake (module docs):
    /// waits until no window — insert, delete or read — is registered on
    /// the retiring epoch `ep`. From the first time this returns, `ep`'s
    /// cell array is immutable and reachable only through claimed
    /// blocks, and every later call is a single load.
    fn pass_drain_gate(&self, ep: &Epoch<E, T>) {
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
    /// the thread that finishes the last block advances `current` and
    /// frees `ep`'s cell array.
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
        self.pass_drain_gate(ep);
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
            // AcqRel: the increment that completes the count has every
            // other helper's block reads ordered before it.
            if ep.done.fetch_add(1, Ordering::AcqRel) + 1 == nblocks {
                self.advance_current();
                // SAFETY: this call completed the last block, once.
                unsafe { ep.release() };
                phc_obs::probe!(count EpochArraysReleased);
                self.report_owned();
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
    fn capacity(&self) -> usize {
        ResizableTable::capacity(self)
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

/// The batched insert of an insert phase. It ends normalized, so a phase
/// driven through it leaves the canonical capacity and no pending
/// migration behind, whichever call was its last.
impl<E: HashEntry, T: FlatTableCore<E>> Inserter<'_, ResizableTable<E, T>> {
    /// [`ResizableTable::par_insert_batched`], then normalizes.
    pub fn par_insert_batched(&self, entries: &[E]) {
        self.0.par_insert_batched(entries);
        self.0.normalize();
    }
}

/// The batched delete of a delete phase; like the insert, it ends
/// normalized (on the shrunk capacity, if the deletes emptied the table
/// out).
impl<E: HashEntry, T: FlatTableCore<E>> Deleter<'_, ResizableTable<E, T>> {
    /// [`ResizableTable::par_delete_batched`], then normalizes.
    pub fn par_delete_batched(&self, keys: &[E]) {
        self.0.par_delete_batched(keys);
        self.0.normalize();
    }
}

/// The reads of a read phase. Unlike the table's own `&self` reads they
/// register on no epoch: the handle itself keeps the cells alive (see
/// "Release on drain" in the [module docs](self)). The per-key
/// [`ConcurrentRead::find`](crate::phase::ConcurrentRead::find) and
/// `elements` go through the table's own methods and register as usual.
impl<E: HashEntry, T: FlatTableCore<E>> Reader<'_, ResizableTable<E, T>> {
    /// [`ResizableTable::par_find_batched_into`] without registering.
    pub fn par_find_batched_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        self.0.read_phase_core().par_find_batched_into(keys, out)
    }

    /// [`ResizableTable::elements_into`] without registering.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        self.0.read_phase_core().elements_into(out)
    }

    /// [`ResizableTable::snapshot`] without registering.
    pub fn snapshot(&self) -> Vec<u64> {
        self.0.read_phase_core().snapshot()
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
    fn migrated_contents_equal_the_key_set() {
        use rayon::prelude::*;
        // From 2^8 cells, 20,000 parallel inserts cross several doublings.
        fn grown<T: FlatTableCore<U64Key>>(keys: &[u64]) -> Vec<u64> {
            let mut t = ResizableTable::<U64Key, T>::new_pow2(8);
            t.insert_phase(|t| keys.par_iter().for_each(|&k| t.insert(U64Key::new(k))));
            let mut got: Vec<u64> = t.elements().iter().map(|e| e.to_repr()).collect();
            assert_eq!(t.len(), got.len());
            got.sort_unstable();
            got
        }
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| 1 + (phc_parutil::hash64(i ^ 0x617) & ((1 << 40) - 1)))
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(grown::<DetHashTable<U64Key>>(&keys), expect, "det");
        let rh = grown::<crate::robinhood::RobinHoodHashTable<U64Key>>(&keys);
        assert_eq!(rh, expect, "robinhood");
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
        /// Runs once inside this thread's next window — insert, delete
        /// or read — after it registered on its epoch and before it
        /// touches a cell.
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

    /// Stops `op` inside its registered window on a 100-key table,
    /// publishes a successor and starts a helper: the helper must sit at
    /// the gate — no block claimed, nothing freed — until the window is
    /// let go. Returns the table, drained.
    fn gate_stays_shut_during(
        op: impl FnOnce(&ResizableTable<U64Key>) + Send,
    ) -> ResizableTable<U64Key> {
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
            // A thread that stops inside its registered window.
            s.spawn(|| {
                IN_WINDOW.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }));
                });
                op(&t);
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
            assert!(!ep.released.load(Ordering::SeqCst));
            release_tx.send(()).unwrap();
        });
        // The window ran on the old epoch (it had registered before the
        // publish); the helper then drained that epoch and freed its
        // array.
        assert_eq!(registered(ep), 0);
        assert!(ep.cursor.load(Ordering::SeqCst) >= ep.blocks());
        assert!(ep.released.load(Ordering::SeqCst));
        assert_eq!(t.owned_cell_bytes(), t.current_epoch().cell_bytes());
        t
    }

    #[test]
    fn open_window_holds_the_drain_gate_shut() {
        let t = gate_stays_shut_during(|t| t.insert_batch(&[U64Key::new(101), U64Key::new(102)]));
        // Nothing the window wrote was lost.
        assert_eq!(t.len(), 102);
        for k in 1..=102u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn open_read_holds_the_drain_gate_shut() {
        // The reader is still inside its `find_batch` when the successor
        // is published: it must get every answer from the array it
        // registered on, which therefore cannot be drained (let alone
        // freed) under it.
        let keys: Vec<U64Key> = (1..=120u64).map(U64Key::new).collect();
        let t = gate_stays_shut_during(|t| {
            let found = t.find_batch(&keys);
            for (k, f) in keys.iter().zip(found) {
                assert_eq!(f, (k.0 <= 100).then_some(*k));
            }
        });
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn read_phase_handle_registers_on_no_epoch() {
        use crate::phase::PhaseHashTable;
        use std::{cell::Cell, rc::Rc};
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(6);
        let keys: Vec<U64Key> = (1..=40u64).map(U64Key::new).collect();
        t.insert_batch(&keys);
        // Fewer keys than a grain: every read below runs on this thread,
        // where the hook is armed.
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        IN_WINDOW.with(|h| *h.borrow_mut() = Some(Box::new(move || f.set(true))));
        let expect: Vec<Option<U64Key>> = keys.iter().map(|&k| Some(k)).collect();
        {
            let reader = t.begin_read();
            let mut found = Vec::new();
            reader.par_find_batched_into(&keys, &mut found);
            assert_eq!(found, expect);
            let mut elements = Vec::new();
            reader.elements_into(&mut elements);
            assert_eq!(elements.len(), 40);
            assert_eq!(reader.snapshot().len(), 64);
        }
        assert!(!fired.get(), "a read-phase handle opened a window");
        assert_eq!(t.find_batch(&keys), expect);
        assert!(fired.get(), "the `&self` read must open a window");
    }

    #[test]
    fn read_phase_after_a_pending_migration_sees_every_key() {
        use crate::phase::PhaseHashTable;
        // Exactly 3/4 of the seed: the last insert publishes the doubled
        // successor and returns, leaving the whole migration pending.
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(7);
        let keys: Vec<U64Key> = (1..=96u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        t.insert_batch(&keys);
        assert!(
            t.next_of(t.current_epoch()).is_some(),
            "no migration pending"
        );
        let reader = t.begin_read();
        let mut found = Vec::new();
        reader.par_find_batched_into(&keys, &mut found);
        assert_eq!(found, keys.iter().map(|&k| Some(k)).collect::<Vec<_>>());
        drop(reader);
        assert_eq!(t.len(), 96);
        assert_eq!(
            t.owned_cell_bytes(),
            256 * 8,
            "the seed array was not released"
        );
    }

    #[test]
    fn drained_epochs_own_no_cells() {
        // The header that outlives a drained epoch (and the bound on
        // what a resize leaves behind).
        assert_eq!(
            std::mem::size_of::<Epoch<U64Key, DetHashTable<U64Key>>>(),
            64
        );
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        let keys: Vec<U64Key> = (1..=20_000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        // Every array the table owns belongs to the live chain, and the
        // chain is never longer than old + new.
        let check_chain = |t: &ResizableTable<U64Key>| {
            let (mut ep, mut chain, mut links) = (t.current_epoch(), 0, 0);
            loop {
                chain += ep.cell_bytes();
                links += 1;
                match t.next_of(ep) {
                    Some(n) => ep = n,
                    None => break,
                }
            }
            assert!(links <= 2, "chain of {links}");
            assert_eq!(t.owned_cell_bytes(), chain);
        };
        let check_quiescent = |t: &ResizableTable<U64Key>, cells: usize| {
            assert_eq!(t.capacity(), cells);
            assert_eq!(t.owned_cell_bytes(), cells * 8, "at {cells} cells");
        };
        for cycle in 1..=8 {
            for &k in &keys {
                t.insert(k);
                check_chain(&t);
            }
            check_quiescent(&t, 16 << 11);
            for &k in &keys {
                t.delete(k);
                check_chain(&t);
            }
            check_quiescent(&t, 16);
            // 11 doublings and 11 halvings a cycle, each leaving one
            // header behind and nothing else.
            let published = t.allocated.lock().unwrap().len();
            assert_eq!(published, 1 + 22 * cycle);
        }
    }

    /// `&self` finds beside inserts break the phase contract, but safe
    /// code can issue them, and they race every publish and release of
    /// the growth below: the drain gate must keep each of them off an
    /// array it frees.
    #[test]
    fn finds_beside_inserts_and_publishes_never_read_a_freed_array() {
        use crate::entry::KvPair;
        use std::sync::atomic::AtomicBool;
        type Table = ResizableTable<KvPair>;
        let val = |k: u32| k.wrapping_mul(7) + 1;
        let entries: Vec<KvPair> = (1..=12_008u32).map(|k| KvPair::new(k, val(k))).collect();
        let (resident, incoming) = entries.split_at(8);
        // The key a poisoned cell would carry: a find of it through a
        // stale pointer hits on the first cell it looks at.
        let poison = KvPair::new((POISON >> 32) as u32, 0);

        let seq: Table = ResizableTable::new_pow2(4);
        seq.insert_batch(&entries);
        seq.normalize();
        assert_eq!(seq.capacity(), 16 << 10);

        for rep in 0..20 {
            let t: Table = ResizableTable::new_pow2(4);
            t.insert_batch(resident);
            let writing = AtomicBool::new(true);
            std::thread::scope(|s| {
                let writers: Vec<_> = incoming
                    .chunks(incoming.len() / 4)
                    .map(|part| s.spawn(|| part.iter().for_each(|&e| t.insert(e))))
                    .collect();
                for r in 0..4 {
                    let (t, writing) = (&t, &writing);
                    s.spawn(move || {
                        let mut found = Vec::new();
                        while writing.load(Ordering::SeqCst) {
                            // A find racing a displacement of its key may
                            // miss; what it returns must be what was put.
                            if r % 2 == 0 {
                                for &e in resident {
                                    assert!(t.find(e).is_none_or(|f| f == e));
                                }
                            } else {
                                found.clear();
                                t.find_batch_into(resident, &mut found);
                                for (e, f) in resident.iter().zip(&found) {
                                    assert!(f.is_none_or(|f| f == *e));
                                }
                            }
                            assert_eq!(t.find(poison), None, "read a freed array");
                        }
                    });
                }
                for w in writers {
                    w.join().unwrap();
                }
                writing.store(false, Ordering::SeqCst);
            });
            t.normalize();
            assert_eq!(t.len(), entries.len(), "rep {rep}");
            assert!(t.snapshot() == seq.snapshot(), "rep {rep}");
            assert_eq!(t.owned_cell_bytes(), (16 << 10) * 8);
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
