//! The stop-the-world resizer: the baseline arm of the `resize`
//! benchmark and the `growth` bin. It was `phc-core`'s growable table
//! before cooperative migration; it lives here because those two
//! harnesses are its only users.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

use phc_core::{DetHashTable, FlatTableCore, HashEntry};

/// Grow when `items * DEN >= capacity * NUM` (keeps load < 3/4) — the
/// cooperative resizer's threshold.
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// The stop-the-world growable table: inserts share a read lock; the
/// thread that sees the threshold takes the write lock and rebuilds
/// into a doubled table while every other inserter blocks.
///
/// Generic over the same [`FlatTableCore`] as the cooperative resizer
/// ([`phc_core::ResizableTable`]), and grows at the same 3/4 load, so
/// after normalization both land on the identical array.
pub struct StwResizableTable<E: HashEntry, T: FlatTableCore<E> = DetHashTable<E>> {
    inner: RwLock<T>,
    items: AtomicUsize,
    _entry: PhantomData<E>,
}

impl<E: HashEntry, T: FlatTableCore<E>> StwResizableTable<E, T> {
    /// Creates a table with `2^log2_size` initial cells.
    pub fn new_pow2(log2_size: u32) -> Self {
        StwResizableTable {
            inner: RwLock::new(T::new_pow2(log2_size)),
            items: AtomicUsize::new(0),
            _entry: PhantomData,
        }
    }

    /// Current capacity (cells).
    pub fn capacity(&self) -> usize {
        self.inner
            .read()
            .expect("table lock poisoned")
            .engine()
            .capacity()
    }

    /// Number of stored entries (exact).
    pub fn len(&self) -> usize {
        self.items.load(Ordering::Acquire)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs an insert phase and normalizes the capacity afterwards.
    pub fn insert_phase<R>(&mut self, f: impl FnOnce(&Self) -> R) -> R {
        let r = f(self);
        while self.len() * MAX_LOAD_DEN >= self.capacity() * MAX_LOAD_NUM {
            self.grow();
        }
        r
    }

    /// Inserts an entry, growing (stop-the-world) at the threshold.
    pub fn insert(&self, e: E) {
        loop {
            let guard = self.inner.read().expect("table lock poisoned");
            if self.items.load(Ordering::Acquire) * MAX_LOAD_DEN
                >= guard.engine().capacity() * MAX_LOAD_NUM
            {
                drop(guard);
                self.grow();
                continue;
            }
            if guard.engine().insert_counted(e) {
                self.items.fetch_add(1, Ordering::AcqRel);
            }
            return;
        }
    }

    /// Deletes by key.
    pub fn delete(&self, key: E) {
        let guard = self.inner.read().expect("table lock poisoned");
        if guard.engine().delete_counted(key) {
            self.items.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Looks up a key.
    pub fn find(&self, key: E) -> Option<E> {
        self.inner
            .read()
            .expect("table lock poisoned")
            .engine()
            .find(key)
    }

    /// Packs the contents.
    pub fn elements(&self) -> Vec<E> {
        self.inner
            .read()
            .expect("table lock poisoned")
            .engine()
            .elements()
    }

    /// Raw snapshot of the current backing array.
    pub fn snapshot(&self) -> Vec<u64> {
        self.inner
            .read()
            .expect("table lock poisoned")
            .engine()
            .snapshot()
    }

    #[cold]
    fn grow(&self) {
        use rayon::prelude::*;
        let mut w = self.inner.write().expect("table lock poisoned");
        // Another thread may have grown while we waited.
        if self.items.load(Ordering::Acquire) * MAX_LOAD_DEN < w.engine().capacity() * MAX_LOAD_NUM
        {
            return;
        }
        let log2 = w.engine().capacity().trailing_zeros() + 1;
        let bigger = T::new_pow2(log2);
        let elems = w.engine().elements();
        elems.par_iter().with_min_len(1024).for_each(|&e| {
            bigger.engine().insert_counted(e);
        });
        *w = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phc_core::{ResizableTable, U64Key};

    #[test]
    fn cooperative_matches_stop_the_world() {
        // Same key set, same seed capacity: after normalization both
        // growth strategies must land on the identical array.
        let keys: Vec<u64> = (1..=2000).map(|i| phc_parutil::hash64(i) | 1).collect();
        let mut coop: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        coop.insert_phase(|t| {
            for &k in &keys {
                t.insert(U64Key::new(k));
            }
        });
        let mut stw: StwResizableTable<U64Key> = StwResizableTable::new_pow2(4);
        stw.insert_phase(|t| {
            for &k in &keys {
                t.insert(U64Key::new(k));
            }
        });
        assert_eq!(coop.capacity(), stw.capacity());
        assert_eq!(coop.snapshot(), stw.snapshot());
    }
}
