//! Room synchronization: automatic phase separation.
//!
//! The paper's conclusion names this as future work: "exploring ways
//! to automatically separate operations into phases efficiently, e.g.
//! by using room synchronizations [Blelloch, Cheng & Gibbons 2003]".
//!
//! A *room* admits any number of threads concurrently, but only one
//! room may be occupied at a time. Mapping the hash table's operation
//! subsets to three rooms — insert, delete, read — gives a table whose
//! callers need no phase discipline at all: each operation enters its
//! room (waiting for a different occupied room to drain), runs, and
//! leaves. Within any room the operations commute, so the table state
//! remains deterministic *per room occupancy*; unlike the statically
//! phased API, the room schedule itself depends on timing, so
//! [`AutoPhaseTable`] trades the end-to-end determinism guarantee for
//! drop-in convenience (exactly the trade-off the paper describes).
//!
//! The implementation is a compact ticket-free room synchronizer: one
//! word packs the active room and its occupancy count; entry CASes the
//! count up if the room matches or the table is idle, otherwise spins
//! (with exponential backoff parking) until the room drains.
//!
//! Every phase-concurrent table — det, nd, Robin Hood, `linearHash-FC`,
//! cuckoo, hopscotch, chained, or a growable [`ResizableTable`] over any
//! of the flat cores — fits the one wrapper here, [`AutoPhaseTable`]: the
//! table plus one [`RoomSync`]. There is no synchronizer-free variant, so
//! a drop-in table whose phases can overlap cannot be built.
//!
//! Rooms are for callers that cannot separate phases themselves. A
//! caller that can — the KV server in `phc-server`, whose batch lock
//! already orders every shard's puts, deletes and gets — takes the
//! bare [`ResizableTable`] through the phase API
//! ([`crate::phase::PhaseHashTable`]) instead, and pays no synchronizer
//! at all.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::det::DetHashTable;
use crate::entry::HashEntry;
use crate::fc::FcHashTable;
use crate::phase::TableOps;
use crate::resize::{FlatTableCore, ResizableTable};

/// The three rooms of a phase-concurrent hash table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Room {
    /// Concurrent inserts.
    Insert = 1,
    /// Concurrent deletes.
    Delete = 2,
    /// Concurrent finds and elements.
    Read = 3,
}

/// A room synchronizer: many threads per room, one room at a time.
///
/// State word: high 8 bits = active room id (0 = idle), low 56 bits =
/// occupancy count.
#[derive(Default)]
pub struct RoomSync {
    state: AtomicU64,
    /// Id of the last room to hold the synchronizer (0 before any
    /// entry) — only used to count room *switches*.
    last: AtomicU64,
}

const COUNT_MASK: u64 = (1 << 56) - 1;

impl RoomSync {
    /// Creates an idle synchronizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enters `room`, waiting until no other room is occupied.
    ///
    /// Instrumentation: a *wait* is any entry that spun on a different
    /// occupied room (`RoomWaits` + the wait duration in
    /// `RoomSwitchNanos`); a *switch* is an entry that claimed an idle
    /// synchronizer last held by a different room (`RoomSwitches`) —
    /// exactly the op-kind boundary crossings a mixed workload pays for.
    pub fn enter(&self, room: Room) {
        let id = room as u64;
        let mut spins = 0u32;
        let mut wait_start: Option<std::time::Instant> = None;
        loop {
            let s = self.state.load(Ordering::Acquire);
            let active = s >> 56;
            if active == 0 || active == id {
                let count = s & COUNT_MASK;
                let next = (id << 56) | (count + 1);
                if self
                    .state
                    .compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    if active == 0 && phc_obs::Recorder::ENABLED {
                        // Fresh occupancy: count a switch if the last
                        // holder was a different room. Counting builds
                        // only — the swap is a locked RMW per room entry
                        // that nothing else reads.
                        let prev = self.last.swap(id, Ordering::Relaxed);
                        if prev != 0 && prev != id {
                            phc_obs::probe!(count RoomSwitches);
                        }
                    }
                    if let Some(t0) = wait_start {
                        phc_obs::probe!(count RoomWaits);
                        phc_obs::probe!(count RoomSwitchNanos, t0.elapsed().as_nanos() as u64);
                    }
                    return;
                }
                continue; // CAS raced; retry immediately
            }
            // Another room is occupied: back off.
            wait_start.get_or_insert_with(std::time::Instant::now);
            spins += 1;
            if spins < 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Leaves the current room (must pair with a prior `enter` of the
    /// same room). The last thread out resets the room to idle.
    pub fn exit(&self, room: Room) {
        let id = room as u64;
        loop {
            let s = self.state.load(Ordering::Acquire);
            debug_assert_eq!(s >> 56, id, "exit from a room not entered");
            let count = s & COUNT_MASK;
            debug_assert!(count > 0);
            let next = if count == 1 {
                0
            } else {
                (id << 56) | (count - 1)
            };
            if self
                .state
                .compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Runs `f` inside `room`: [`enter`](Self::enter), `f`,
    /// [`exit`](Self::exit).
    pub fn with<R>(&self, room: Room, f: impl FnOnce() -> R) -> R {
        self.enter(room);
        let r = f();
        self.exit(room);
        r
    }

    /// The currently active room, if any (racy; for tests/telemetry).
    pub fn active_room(&self) -> Option<Room> {
        match self.state.load(Ordering::Acquire) >> 56 {
            1 => Some(Room::Insert),
            2 => Some(Room::Delete),
            3 => Some(Room::Read),
            _ => None,
        }
    }
}

/// A phase-concurrent hash table with automatic phase separation: any
/// thread may call any operation at any time; a [`RoomSync`]
/// serializes *operation types*, not operations.
///
/// Note the weaker guarantee versus the phased API: a history-independent
/// table's layout is always a valid layout of its contents, but *which*
/// inserts land before which deletes depends on the room schedule
/// (timing). Use the phased API when you need end-to-end determinism;
/// use this when you need drop-in concurrency.
///
/// Generic over any [`TableOps`] table `T` (default: the deterministic
/// linear-probing table): `AutoPhaseTable<E, CuckooHashTable<E>>` is the
/// room-synchronized cuckoo table, and [`AutoPhaseGrowTable`] the
/// growable one.
pub struct AutoPhaseTable<E: HashEntry, T: TableOps<E> = DetHashTable<E>> {
    table: T,
    rooms: RoomSync,
    _entry: PhantomData<E>,
}

/// [`AutoPhaseTable`] over [`FcHashTable`]: the same drop-in API and the
/// same room synchronizer as over det.
pub type FcAutoTable<E> = AutoPhaseTable<E, FcHashTable<E>>;

/// [`AutoPhaseTable`] over a [`ResizableTable`]: the room-synchronized
/// table that grows and shrinks, with the batched calls of the block
/// below.
pub type AutoPhaseGrowTable<E, C = DetHashTable<E>> = AutoPhaseTable<E, ResizableTable<E, C>>;

/// [`AutoPhaseGrowTable`] over `ResizableTable<E, FcHashTable<E>>`.
pub type FcAutoGrowTable<E> = AutoPhaseGrowTable<E, FcHashTable<E>>;

impl<E: HashEntry, T: TableOps<E>> AutoPhaseTable<E, T> {
    /// Creates a table with `2^log2_size` cells (the seed capacity of a
    /// growable table).
    pub fn new_pow2(log2_size: u32) -> Self {
        AutoPhaseTable {
            table: T::new_pow2(log2_size),
            rooms: RoomSync::new(),
            _entry: PhantomData,
        }
    }

    /// Number of cells (enters the read room). A growable table grows
    /// under insert load and shrinks back toward its seed when deletes
    /// empty it out (see the shrinking notes in [`crate::resize`]).
    pub fn capacity(&self) -> usize {
        self.rooms.with(Room::Read, || self.table.capacity())
    }

    /// Inserts an entry (enters the insert room).
    pub fn insert(&self, e: E) {
        self.rooms.with(Room::Insert, || self.table.insert(e));
    }

    /// Deletes by key (enters the delete room).
    pub fn delete(&self, key: E) {
        self.rooms.with(Room::Delete, || self.table.delete(key));
    }

    /// Looks up a key (enters the read room).
    pub fn find(&self, key: E) -> Option<E> {
        self.rooms.with(Room::Read, || self.table.find(key))
    }

    /// Packs the contents (enters the read room).
    pub fn elements(&self) -> Vec<E> {
        self.rooms.with(Room::Read, || self.table.elements())
    }

    /// Grants direct phased access when the caller has `&mut`
    /// (no synchronization needed — the borrow is exclusive).
    pub fn raw_mut(&mut self) -> &mut T {
        &mut self.table
    }
}

/// What only the growable table has. A room switch needs **no migration
/// quiescence**: inside the insert room a pending migration is just more
/// insert work, paid in bounded quotas by the operations that pass by,
/// and the delete and read rooms see fully migrated tables because every
/// `ResizableTable` delete window and read call registers behind a full
/// drain, not because the room grant waits.
impl<E: HashEntry, C: FlatTableCore<E>> AutoPhaseGrowTable<E, C> {
    /// Batched parallel insert: one insert-room entry for the whole batch
    /// (per-op calls pay a room CAS pair per entry), normalized before
    /// leaving the room. That makes the batch boundary a deterministic
    /// cut — the capacity is canonical for the key set and the layout a
    /// pure function of the contents — which the per-op calls, that never
    /// normalize, cannot promise. The pool workers that run the inner
    /// chunks act for this caller, which stays in the room until they end.
    pub fn par_insert_batched(&self, entries: &[E]) {
        self.rooms.with(Room::Insert, || {
            self.table.par_insert_batched(entries);
            self.table.normalize();
        });
    }

    /// Batched parallel delete: one delete-room entry for the batch,
    /// normalized before leaving the room so a batch that empties the
    /// table out lands on the canonical (possibly shrunk) capacity.
    pub fn par_delete_batched(&self, keys: &[E]) {
        self.rooms.with(Room::Delete, || {
            self.table.par_delete_batched(keys);
            self.table.normalize();
        });
    }

    /// Batched parallel lookup: one read-room entry for the batch;
    /// results are in key order.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        self.rooms
            .with(Room::Read, || self.table.par_find_batched(keys))
    }

    /// [`par_find_batched`](Self::par_find_batched) into a
    /// caller-supplied buffer (appends; does not clear): one read-room
    /// entry, and no allocation for a batch of at most one grain once
    /// the buffer has reached its high-water capacity.
    pub fn par_find_batched_into(&self, keys: &[E], out: &mut Vec<Option<E>>) {
        self.rooms
            .with(Room::Read, || self.table.par_find_batched_into(keys, out))
    }

    /// Packs the contents into a caller-supplied buffer (enters the
    /// read room; appends without allocating a fresh `Vec`).
    pub fn elements_into(&self, out: &mut Vec<E>) {
        self.rooms
            .with(Room::Read, || self.table.elements_into(out));
    }

    /// Drains any pending migration to completion and grows to the
    /// canonical capacity (enters the insert room — normalization
    /// re-inserts entries, which is insert work). This is the one
    /// place a full table-sized migration drain is paid on purpose;
    /// ordinary operations only ever pay bounded help quotas. Call
    /// after a burst of per-op [`insert`](Self::insert)s when you need
    /// the snapshot-determinism guarantee the batched path provides.
    pub fn normalize(&self) {
        self.rooms.with(Room::Insert, || self.table.normalize());
    }

    /// Number of stored entries (enters the read room; exact because
    /// the read path itself drains any pending migration before
    /// counting — the room grant does not need to).
    pub fn len(&self) -> usize {
        self.rooms.with(Room::Read, || self.table.len())
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw snapshot of the live backing array (enters the read room).
    pub fn snapshot(&self) -> Vec<u64> {
        self.rooms.with(Room::Read, || self.table.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::U64Key;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_roundtrip() {
        let t: AutoPhaseTable<U64Key> = AutoPhaseTable::new_pow2(10);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
        for k in 1..=50u64 {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.elements().len(), 50);
    }

    #[test]
    fn rooms_are_mutually_exclusive() {
        // Instrumented: track max simultaneous occupancy per room and
        // assert no two rooms ever overlap.
        let sync = RoomSync::new();
        let in_insert = AtomicUsize::new(0);
        let in_delete = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let sync = &sync;
                let in_insert = &in_insert;
                let in_delete = &in_delete;
                let violations = &violations;
                s.spawn(move || {
                    for i in 0..500 {
                        if (t + i) % 2 == 0 {
                            sync.with(Room::Insert, || {
                                in_insert.fetch_add(1, Ordering::SeqCst);
                                if in_delete.load(Ordering::SeqCst) > 0 {
                                    violations.fetch_add(1, Ordering::SeqCst);
                                }
                                std::hint::spin_loop();
                                in_insert.fetch_sub(1, Ordering::SeqCst);
                            });
                        } else {
                            sync.with(Room::Delete, || {
                                in_delete.fetch_add(1, Ordering::SeqCst);
                                if in_insert.load(Ordering::SeqCst) > 0 {
                                    violations.fetch_add(1, Ordering::SeqCst);
                                }
                                std::hint::spin_loop();
                                in_delete.fetch_sub(1, Ordering::SeqCst);
                            });
                        }
                    }
                });
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert_eq!(sync.active_room(), None);
    }

    #[test]
    fn reentrant_same_room_is_fine_across_threads() {
        let sync = RoomSync::new();
        let peak = AtomicUsize::new(0);
        let cur = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let sync = &sync;
                let (peak, cur) = (&peak, &cur);
                s.spawn(move || {
                    for _ in 0..200 {
                        sync.with(Room::Read, || {
                            let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(c, Ordering::SeqCst);
                            cur.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        // At least sometimes multiple threads share the room (not a
        // strict guarantee on 1 core, so only assert sanity).
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    /// A [`TableOps`] double over [`DetHashTable`] that logs every call
    /// reaching it. The first `insert` after a receiver is put in `hold`
    /// raises `inside` and parks until the test sends on (or drops) the
    /// channel; later inserts pass straight through.
    struct HeldInsert {
        inner: DetHashTable<U64Key>,
        hold: std::sync::Mutex<Option<std::sync::mpsc::Receiver<()>>>,
        inside: std::sync::atomic::AtomicBool,
        reached: std::sync::Mutex<Vec<&'static str>>,
    }

    impl HeldInsert {
        fn reach(&self, call: &'static str) {
            self.reached.lock().unwrap().push(call);
        }

        fn reached(&self, call: &str) -> usize {
            self.reached
                .lock()
                .unwrap()
                .iter()
                .filter(|c| **c == call)
                .count()
        }
    }

    impl TableOps<U64Key> for HeldInsert {
        const NAME: &'static str = "held-insert";

        fn new_pow2(log2_size: u32) -> Self {
            HeldInsert {
                inner: DetHashTable::new_pow2(log2_size),
                hold: Default::default(),
                inside: Default::default(),
                reached: Default::default(),
            }
        }

        fn capacity(&self) -> usize {
            self.inner.capacity()
        }

        fn insert(&self, e: U64Key) {
            self.reach("insert");
            let held = self.hold.lock().unwrap().take();
            if let Some(release) = held {
                self.inside.store(true, Ordering::SeqCst);
                let _ = release.recv();
                self.inside.store(false, Ordering::SeqCst);
            }
            self.inner.insert(e);
        }

        fn delete(&self, key: U64Key) {
            self.reach("delete");
            self.inner.delete(key);
        }

        fn find(&self, key: U64Key) -> Option<U64Key> {
            self.reach("find");
            self.inner.find(key)
        }

        fn elements(&self) -> Vec<U64Key> {
            self.inner.elements()
        }
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    /// The wrapper, not the table, keeps the rooms apart: while one
    /// insert is held inside the table, a delete and a find wait at the
    /// wrapper and a second insert goes through.
    #[test]
    fn held_insert_excludes_delete_and_find() {
        let mut t = AutoPhaseTable::<U64Key, HeldInsert>::new_pow2(8);
        let (release, held) = std::sync::mpsc::channel();
        *t.raw_mut().hold.get_mut().unwrap() = Some(held);
        let (t, table) = (&t, &t.table);
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion below drops it
            // and unparks the held insert instead of hanging the scope.
            let release = release;
            s.spawn(|| t.insert(U64Key::new(1)));
            wait_until("the held insert", || table.inside.load(Ordering::SeqCst));
            s.spawn(|| t.delete(U64Key::new(1)));
            let found = s.spawn(|| t.find(U64Key::new(2)));
            s.spawn(|| t.insert(U64Key::new(2)));
            wait_until("the second insert", || table.reached("insert") == 2);
            // The channel forces the overlap; the pause only gives a
            // wrapper that lets them in time to show it. No delay lets a
            // delete or find through a correct one.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(table.reached("delete"), 0, "a delete ran beside an insert");
            assert_eq!(table.reached("find"), 0, "a find ran beside an insert");
            release.send(()).unwrap();
            assert_eq!(found.join().unwrap(), Some(U64Key::new(2)));
        });
        assert_eq!((table.reached("delete"), table.reached("find")), (1, 1));
        assert_eq!(t.elements(), [U64Key::new(2)]);
    }

    /// Four threads freely mix inserts, deletes and finds on one
    /// wrapper: each inserts 800 keys of its own, deletes every fourth
    /// right after inserting it and finds the rest. Returns the table
    /// once it is checked to hold exactly the 2,400 never-deleted keys.
    fn mixed_calls_stay_a_set<T: TableOps<U64Key>>(log2_size: u32) -> AutoPhaseTable<U64Key, T> {
        let t = AutoPhaseTable::<U64Key, T>::new_pow2(log2_size);
        let key = |tid: u64, i: u64| tid * 10_000 + i + 1;
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..800u64 {
                        t.insert(U64Key::new(key(tid, i)));
                        if i % 4 == 0 {
                            t.delete(U64Key::new(key(tid, i)));
                        } else {
                            assert!(t.find(U64Key::new(key(tid, i))).is_some());
                        }
                    }
                });
            }
        });
        let elems = t.elements();
        assert_eq!(elems.len(), 4 * 600);
        let contents: BTreeSet<u64> = elems.iter().map(|k| k.0).collect();
        let survivors: BTreeSet<u64> = (0..4u64)
            .flat_map(|tid| (0..800u64).filter(|i| i % 4 != 0).map(move |i| key(tid, i)))
            .collect();
        assert_eq!(contents, survivors);
        t
    }

    /// The layout of a history-independent table is a valid one for its
    /// contents, however the rooms were scheduled.
    fn history_independent(snap: &[u64]) {
        crate::invariant::check_ordering_invariant::<U64Key>(snap).unwrap();
        crate::invariant::check_no_duplicate_keys::<U64Key>(snap).unwrap();
    }

    #[test]
    fn mixed_calls_det() {
        history_independent(
            &mixed_calls_stay_a_set::<DetHashTable<U64Key>>(13)
                .raw_mut()
                .snapshot(),
        );
    }

    #[test]
    fn mixed_calls_fc() {
        history_independent(
            &mixed_calls_stay_a_set::<FcHashTable<U64Key>>(13)
                .raw_mut()
                .snapshot(),
        );
    }

    #[test]
    fn mixed_calls_robinhood() {
        mixed_calls_stay_a_set::<crate::RobinHoodHashTable<U64Key>>(13);
    }

    #[test]
    fn mixed_calls_nd() {
        mixed_calls_stay_a_set::<crate::NdHashTable<U64Key>>(13);
    }

    #[test]
    fn mixed_calls_cuckoo() {
        mixed_calls_stay_a_set::<crate::CuckooHashTable<U64Key>>(13);
    }

    #[test]
    fn mixed_calls_hopscotch() {
        mixed_calls_stay_a_set::<crate::HopscotchHashTable<U64Key>>(13);
    }

    #[test]
    fn mixed_calls_chained() {
        mixed_calls_stay_a_set::<crate::ChainedHashTable<U64Key>>(13);
    }

    /// From a 16-cell seed: many cooperative migrations inside the insert
    /// room, interleaved with the read and delete rooms.
    #[test]
    fn mixed_calls_grow_det_from_tiny_seed() {
        let t = mixed_calls_stay_a_set::<ResizableTable<U64Key>>(4);
        assert!(t.capacity() > 16, "table must have grown");
        history_independent(&t.snapshot());
    }

    #[test]
    fn mixed_calls_grow_fc_from_tiny_seed() {
        let t = mixed_calls_stay_a_set::<ResizableTable<U64Key, FcHashTable<U64Key>>>(4);
        assert!(t.capacity() > 16, "table must have grown");
        history_independent(&t.snapshot());
    }

    #[test]
    fn fc_wrappers_carry_the_same_room_sync_as_det() {
        // One wrapper for every table: the table plus one `RoomSync`,
        // over fc exactly as over det, fixed or growable.
        use std::mem::size_of;
        fn sync_bytes<T: TableOps<U64Key>>() -> usize {
            size_of::<AutoPhaseTable<U64Key, T>>() - size_of::<T>()
        }
        assert_eq!(sync_bytes::<DetHashTable<U64Key>>(), size_of::<RoomSync>());
        assert_eq!(sync_bytes::<FcHashTable<U64Key>>(), size_of::<RoomSync>());
        assert_eq!(
            sync_bytes::<ResizableTable<U64Key>>(),
            sync_bytes::<ResizableTable<U64Key, FcHashTable<U64Key>>>()
        );
        assert_eq!(
            sync_bytes::<ResizableTable<U64Key>>(),
            size_of::<RoomSync>()
        );
    }

    #[test]
    fn fc_auto_quiescent_snapshot_matches_room_table() {
        // Phase-separated usage: the wrapper over det and over fc must
        // produce the same canonical layout.
        let rooms: AutoPhaseTable<U64Key> = AutoPhaseTable::new_pow2(10);
        let mut fc: FcAutoTable<U64Key> = FcAutoTable::new_pow2(10);
        for k in 1..=500u64 {
            rooms.insert(U64Key::new(k));
            fc.insert(U64Key::new(k));
        }
        for k in (1..=500u64).step_by(3) {
            rooms.delete(U64Key::new(k));
            fc.delete(U64Key::new(k));
        }
        let mut rooms = rooms;
        assert_eq!(rooms.raw_mut().snapshot(), fc.raw_mut().snapshot());
    }
}
