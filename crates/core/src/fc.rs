//! `linearHash-FC`: the deterministic table under its own name.
//!
//! This table used to promise more than [`DetHashTable`]: inserts,
//! deletes and finds in any overlap, in the spirit of Attiya, Bender,
//! Farach-Colton and Oshman's *History-Independent Concurrent Hash
//! Tables* (2025), with quiescent snapshots still byte-identical to
//! det's. The promise rested on two shared overlap-counter words and three
//! online repairs — placement validation, hole re-check, lowered-cell
//! revalidation — and it did not hold: under real insert‖delete overlap
//! a delete's chase can miss an entry that a displacement chain holds
//! in hand, and the key is lost (DESIGN.md §5.7 gives the interleaving
//! and why neither obvious repair closes it).
//! The claim is withdrawn. `linearHash-FC` is now a **phase-concurrent**
//! table with exactly det's contract — Definition 1 leaves phase
//! separation to the caller — and det's probe bodies: the engine's
//! defaults, no hooks, no state.
//!
//! The policy stays a type of its own for one reason: code that
//! implements a trait for both `DetHashTable<E>` and `FcHashTable<E>`
//! (and for their wrappers) would hold two conflicting impls if the two
//! were aliases of one type. The drop-in wrappers
//! ([`FcAutoTable`](crate::FcAutoTable),
//! [`FcAutoGrowTable`](crate::FcAutoGrowTable)) keep phases apart with a
//! [`RoomSync`](crate::RoomSync), exactly as det's do.
//!
//! [`DetHashTable`]: crate::det::DetHashTable

use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader};
use crate::probe::{Growable, ProbePolicy, ProbeTable};

/// The `linearHash-FC` probe policy: every default of the engine, like
/// [`DetPolicy`](crate::det::DetPolicy).
pub struct FcPolicy;

impl<E: HashEntry> ProbePolicy<E> for FcPolicy {
    const NAME: &'static str = "linearHash-FC";

    fn new(_log2_size: u32) -> Self {
        FcPolicy
    }
}

impl<E: HashEntry> Growable<E> for FcPolicy {
    const GROW_NAME: &'static str = "linearHash-FC-grow";
    const LABEL: &'static str = "fc";
}

/// The `linearHash-FC` table: [`DetHashTable`](crate::det::DetHashTable)'s
/// layout, operations and phase contract (see the [module docs](self)).
///
/// ```
/// use phc_core::{FcHashTable, U64Key};
/// let t: FcHashTable<U64Key> = FcHashTable::new_pow2(8);
/// t.insert(U64Key::new(7));
/// t.insert(U64Key::new(9));
/// t.delete(U64Key::new(7));
/// assert_eq!(t.find(U64Key::new(9)), Some(U64Key::new(9)));
/// assert_eq!(t.find(U64Key::new(7)), None);
/// ```
pub type FcHashTable<E> = ProbeTable<E, FcPolicy>;

/// Insert-phase handle of [`FcHashTable`] (see [`crate::phase`]).
pub type FcInserter<'t, E> = Inserter<'t, FcHashTable<E>>;
/// Delete-phase handle of [`FcHashTable`].
pub type FcDeleter<'t, E> = Deleter<'t, FcHashTable<E>>;
/// Read-phase handle of [`FcHashTable`].
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
    fn carries_no_state_beyond_det() {
        use std::mem::size_of;
        assert_eq!(size_of::<FcPolicy>(), 0);
        assert_eq!(
            size_of::<FcHashTable<U64Key>>(),
            size_of::<DetHashTable<U64Key>>()
        );
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
