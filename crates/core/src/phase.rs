//! Phase-concurrency expressed in the type system.
//!
//! Definition 1 of the paper allows a *subset* of operations to proceed
//! concurrently; the hash tables here support the subsets
//! `{insert}`, `{delete}`, `{find, elements}`. The C++ original leaves
//! phase separation to programmer discipline; in Rust we can make
//! mixing phases a **compile error**: entering a phase borrows the
//! table mutably (`&mut self`), and the returned handle is the only way
//! to operate on the table while the phase is open. Handles are `Sync`,
//! so any number of threads may share `&Inserter` within the phase —
//! but no `Deleter` or `Reader` can coexist with it.
//!
//! ```
//! use phc_core::{DetHashTable, U64Key, PhaseHashTable, ConcurrentInsert, ConcurrentRead};
//! let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(10);
//! {
//!     let ins = table.begin_insert();
//!     // `&ins` can be shared across rayon tasks here.
//!     ins.insert(U64Key::new(7));
//! } // insert phase ends when the handle drops
//! let reader = table.begin_read();
//! assert!(reader.find(U64Key::new(7)).is_some());
//! ```

use crate::entry::HashEntry;

/// The three operation subsets a phase can run (paper Definition 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseKind {
    /// Concurrent inserts.
    Insert,
    /// Concurrent deletes.
    Delete,
    /// Concurrent finds and `elements`.
    Read,
}

/// RAII marker for one open phase: emits a begin record on the
/// observability timeline when constructed and the matching end record
/// when dropped. Phase handles embed one of these, so with the `obs`
/// cargo feature every `begin_*`/drop pair shows up as a timeline
/// cycle; without the feature both emissions are inline no-ops.
pub struct PhaseSpan(PhaseKind);

impl PhaseSpan {
    /// Opens a span (emits the phase's begin event).
    pub fn begin(kind: PhaseKind) -> Self {
        match kind {
            PhaseKind::Insert => phc_obs::probe!(phase InsertBegin),
            PhaseKind::Delete => phc_obs::probe!(phase DeleteBegin),
            PhaseKind::Read => phc_obs::probe!(phase ReadBegin),
        }
        PhaseSpan(kind)
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        match self.0 {
            PhaseKind::Insert => phc_obs::probe!(phase InsertEnd),
            PhaseKind::Delete => phc_obs::probe!(phase DeleteEnd),
            PhaseKind::Read => phc_obs::probe!(phase ReadEnd),
        }
    }
}

/// Concurrent insertion handle for one phase.
pub trait ConcurrentInsert<E: HashEntry>: Sync {
    /// Inserts `e`; concurrent calls from any number of threads are
    /// allowed within the phase and commute (for deterministic tables).
    fn insert(&self, e: E);
}

/// Concurrent deletion handle for one phase.
pub trait ConcurrentDelete<E: HashEntry>: Sync {
    /// Deletes the entry whose key equals `key`'s key part (the value
    /// part of `key` is ignored). Deleting an absent key is a no-op.
    fn delete(&self, key: E);
}

/// Concurrent read handle (find + elements phase).
pub trait ConcurrentRead<E: HashEntry>: Sync {
    /// Looks up the entry with `key`'s key part.
    fn find(&self, key: E) -> Option<E>;
}

/// The `&self` operations a table offers, from which the phase API is
/// built: implement this and the table is a [`PhaseHashTable`] whose
/// handles are the generic [`Inserter`] / [`Deleter`] / [`Reader`].
///
/// Phase discipline is the caller's here — these are the table's own
/// methods under the names the handles forward to. Go through
/// [`PhaseHashTable`] to have the borrow checker keep the phases apart.
pub trait TableOps<E: HashEntry>: Send + Sync + Sized {
    /// Short name used by the benchmark harnesses (matches the paper's
    /// labels, e.g. `"linearHash-D"`).
    const NAME: &'static str;

    /// Creates a table with `2^log2_size` cells.
    fn new_pow2(log2_size: u32) -> Self;
    /// Number of cells.
    fn capacity(&self) -> usize;
    /// Inserts `e` (insert phase).
    fn insert(&self, e: E);
    /// Deletes the entry with `key`'s key part (delete phase).
    fn delete(&self, key: E);
    /// Looks up the entry with `key`'s key part (read phase).
    fn find(&self, key: E) -> Option<E>;
    /// Packs the contents in cell order (read phase).
    fn elements(&self) -> Vec<E>;
    /// Runs at every phase boundary — each `begin_*` and
    /// [`PhaseHashTable::elements`] — while the table is exclusively
    /// borrowed. The growable table lands on its canonical capacity
    /// here; fixed-capacity tables need nothing.
    fn before_phase(&self) {}
}

/// Insert-phase handle of table `T`. The embedded [`PhaseSpan`]
/// brackets the phase on the observability timeline. A handle exposes
/// only its own phase's operations — it does not dereference to the
/// table, so a `Deleter` cannot reach `insert`.
pub struct Inserter<'t, T>(pub(crate) &'t T, #[allow(dead_code)] PhaseSpan);
/// Delete-phase handle of table `T` (see [`Inserter`]).
pub struct Deleter<'t, T>(pub(crate) &'t T, #[allow(dead_code)] PhaseSpan);
/// Read-phase handle of table `T` (see [`Inserter`]).
pub struct Reader<'t, T>(pub(crate) &'t T, #[allow(dead_code)] PhaseSpan);

impl<E: HashEntry, T: TableOps<E>> ConcurrentInsert<E> for Inserter<'_, T> {
    #[inline]
    fn insert(&self, e: E) {
        self.0.insert(e);
    }
}
impl<E: HashEntry, T: TableOps<E>> ConcurrentDelete<E> for Deleter<'_, T> {
    #[inline]
    fn delete(&self, key: E) {
        self.0.delete(key);
    }
}
impl<E: HashEntry, T: TableOps<E>> ConcurrentRead<E> for Reader<'_, T> {
    #[inline]
    fn find(&self, key: E) -> Option<E> {
        self.0.find(key)
    }
}
impl<T> Reader<'_, T> {
    /// Packs the table contents (allowed in the read phase).
    pub fn elements<E: HashEntry>(&self) -> Vec<E>
    where
        T: TableOps<E>,
    {
        self.0.elements()
    }
}

/// A phase-concurrent hash table: one operation type at a time, any
/// number of threads within a phase. Implemented for every
/// [`TableOps`] table.
///
/// `elements()` (paper §4) packs the table contents into a vector; for
/// the deterministic table the result is independent of the order in
/// which the preceding operations ran.
pub trait PhaseHashTable<E: HashEntry>: Send + Sized {
    /// Insert-phase handle type.
    type Inserter<'t>: ConcurrentInsert<E>
    where
        Self: 't;
    /// Delete-phase handle type.
    type Deleter<'t>: ConcurrentDelete<E>
    where
        Self: 't;
    /// Read-phase handle type.
    type Reader<'t>: ConcurrentRead<E>
    where
        Self: 't;

    /// Short name used by the benchmark harnesses (matches the paper's
    /// labels, e.g. `"linearHash-D"`).
    const NAME: &'static str;

    /// Creates a table with `2^log2_size` cells.
    fn new_pow2(log2_size: u32) -> Self;

    /// Number of cells.
    fn capacity(&self) -> usize;

    /// Begins an insert phase.
    fn begin_insert(&mut self) -> Self::Inserter<'_>;

    /// Begins a delete phase.
    fn begin_delete(&mut self) -> Self::Deleter<'_>;

    /// Begins a read (find/elements) phase.
    fn begin_read(&mut self) -> Self::Reader<'_>;

    /// Packs the current contents into a vector (parallel; order is the
    /// table's cell order). Deterministic for history-independent
    /// tables.
    fn elements(&mut self) -> Vec<E>;

    /// Number of occupied cells (linear scan; intended for tests and
    /// load accounting, not hot paths).
    fn count(&mut self) -> usize {
        self.elements().len()
    }
}

impl<E: HashEntry, T: TableOps<E>> PhaseHashTable<E> for T {
    type Inserter<'t>
        = Inserter<'t, T>
    where
        T: 't;
    type Deleter<'t>
        = Deleter<'t, T>
    where
        T: 't;
    type Reader<'t>
        = Reader<'t, T>
    where
        T: 't;

    const NAME: &'static str = T::NAME;

    fn new_pow2(log2_size: u32) -> Self {
        TableOps::new_pow2(log2_size)
    }

    fn capacity(&self) -> usize {
        TableOps::capacity(self)
    }

    fn begin_insert(&mut self) -> Inserter<'_, T> {
        self.before_phase();
        Inserter(self, PhaseSpan::begin(PhaseKind::Insert))
    }

    fn begin_delete(&mut self) -> Deleter<'_, T> {
        self.before_phase();
        Deleter(self, PhaseSpan::begin(PhaseKind::Delete))
    }

    fn begin_read(&mut self) -> Reader<'_, T> {
        self.before_phase();
        Reader(self, PhaseSpan::begin(PhaseKind::Read))
    }

    fn elements(&mut self) -> Vec<E> {
        self.before_phase();
        TableOps::elements(self)
    }
}
