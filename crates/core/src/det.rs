//! `linearHash-D`: the deterministic phase-concurrent hash table
//! (paper §4, Figure 1).
//!
//! Open addressing with a *prioritized* variant of linear probing,
//! extending the sequential history-independent table of Blelloch &
//! Golovin. The table maintains the **ordering invariant** (Definition
//! 2): if a key `v` hashes to location `i` and is stored at `j`, every
//! cell in `[i, j)` holds a key of priority ≥ `v`. Together with a
//! total priority order on keys this makes the array layout a pure
//! function of the key set — independent of the order, interleaving, or
//! parallelism of the operations that built it.
//!
//! * `insert` swaps itself into the first lower-priority cell on its
//!   probe path and then carries the displaced entry forward.
//! * `delete` replaces the victim with the nearest following entry that
//!   may legally move back (the priority-ordered analogue of backward-
//!   shift deletion) and then recursively deletes the copy.
//! * `find` stops early at the first cell of lower priority — absent
//!   keys are often *cheaper* to look up than in plain linear probing.
//! * `elements` packs the non-empty cells with a parallel prefix sum,
//!   yielding a deterministic sequence.
//!
//! ## Wraparound
//!
//! The paper's pseudocode compares raw indices (`k ≥ i`, `h(v) > i`),
//! which is only meaningful inside a cluster. We make those comparisons
//! exact under modulo wraparound by working with **virtual indices**:
//! unbounded integers reduced mod the table size only at memory access.
//! A stored entry's virtual hash position is recovered by subtracting
//! the forward distance from its hash bucket to its current cell —
//! valid because clusters are shorter than the table (the table must
//! not become full, a precondition the paper also imposes).
//!
//! The probe loops themselves live in [`crate::probe`], shared with
//! the Robin Hood, `linearHash-FC` and first-fit tables; this table is
//! the engine's default policy — identity encoding, `E::hash & mask`
//! homes, `E::cmp_priority` order.

use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader};
use crate::probe::{Growable, ProbePolicy, ProbeTable};

/// The deterministic table's probe policy: every default of the engine.
pub struct DetPolicy;

impl<E: HashEntry> ProbePolicy<E> for DetPolicy {
    const NAME: &'static str = "linearHash-D";

    fn new(_log2_size: u32) -> Self {
        DetPolicy
    }
}

impl<E: HashEntry> Growable<E> for DetPolicy {
    const GROW_NAME: &'static str = "linearHash-D-grow";
    const LABEL: &'static str = "det";
}

/// The deterministic phase-concurrent linear-probing hash table.
///
/// See the [module docs](self) for the algorithm and guarantees, and
/// [`ProbeTable`] for the operations. The table does not resize; size
/// it so the load factor stays below ~0.9 (the paper's experiments run
/// at loads up to 1/3 by default). For a growable wrapper see
/// [`crate::resize::ResizableTable`].
///
/// ```
/// use phc_core::{DetHashTable, U64Key};
/// let a: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
/// let b: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
/// for k in 1..=100u64 {
///     a.insert(U64Key::new(k));            // ascending
///     b.insert(U64Key::new(101 - k));      // descending
/// }
/// // History independence: identical layout from any insertion order.
/// assert_eq!(a.snapshot(), b.snapshot());
/// ```
pub type DetHashTable<E> = ProbeTable<E, DetPolicy>;

/// Insert-phase handle of [`DetHashTable`] (see [`crate::phase`]).
pub type DetInserter<'t, E> = Inserter<'t, DetHashTable<E>>;
/// Delete-phase handle of [`DetHashTable`].
pub type DetDeleter<'t, E> = Deleter<'t, DetHashTable<E>>;
/// Read-phase handle of [`DetHashTable`].
pub type DetReader<'t, E> = Reader<'t, DetHashTable<E>>;
