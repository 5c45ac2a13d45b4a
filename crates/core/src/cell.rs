//! Cell-width abstraction: the atomic word backing a table cell.
//!
//! Every flat table in this crate stores entries in a contiguous array
//! of atomic cells. Historically that cell was hard-coded to
//! `AtomicU64`; this module makes the width a *parameter*, so an entry
//! type whose key+value pack into 32 bits
//! ([`KvPair32`](crate::entry::KvPair32)) can halve its bytes-per-cell,
//! and so the memory traffic of every probe step.
//!
//! ## Design: widened logic over narrow storage
//!
//! The [`HashEntry`](crate::entry::HashEntry) contract stays expressed
//! on `u64` "logical reprs". A narrow cell stores the low
//! [`CellWord::BITS`] bits of the repr and *zero-extends* on load.
//! Because every entry with `Repr = u32` packs its whole repr into 32
//! bits, zero-extension is lossless, and because zero-extension is
//! monotone, the masked **unsigned order** and masked **equality** the
//! `SIMD_KEY_MASK` contract relies on are preserved verbatim. Tables
//! therefore keep all probe/CAS/combine logic in u64 and only the
//! storage changes width.
//!
//! [`CellAtomic`] deliberately mirrors the inherent method names and
//! shapes of `AtomicU64` (`load`/`store`/`compare_exchange`/…, all
//! taking or returning the widened `u64`): generic table code written
//! against `&[W::Atomic]` reads exactly like the concrete code it
//! replaced, and the `u64` instantiation compiles to the identical
//! instructions.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The value side of a cell width: `u64` (full-word cells) or `u32`
/// (sub-word cells). An entry type picks its width through
/// [`HashEntry::Repr`](crate::entry::HashEntry::Repr).
pub trait CellWord: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    /// The atomic cell backing this width.
    type Atomic: CellAtomic;
    /// Bits per cell (64 or 32).
    const BITS: u32;
    /// Largest logical repr this width can store (`2^BITS - 1`).
    const MAX_REPR: u64;
}

impl CellWord for u64 {
    type Atomic = AtomicU64;
    const BITS: u32 = 64;
    const MAX_REPR: u64 = u64::MAX;
}

impl CellWord for u32 {
    type Atomic = AtomicU32;
    const BITS: u32 = 32;
    const MAX_REPR: u64 = u32::MAX as u64;
}

/// An atomic table cell, accessed through widened `u64` values.
///
/// Narrow cells truncate on store (callers guarantee the value fits —
/// the [`HashEntry`](crate::entry::HashEntry) contract requires
/// `to_repr()` to fit in `Repr::BITS` bits; debug builds assert it)
/// and zero-extend on load.
pub trait CellAtomic: Send + Sync + 'static {
    /// Creates a cell holding `v`.
    fn new_cell(v: u64) -> Self;

    /// Atomic load, zero-extended.
    fn load(&self, order: Ordering) -> u64;

    /// Atomic store (truncating; debug-asserts the value fits).
    fn store(&self, v: u64, order: Ordering);

    /// Atomic compare-exchange on the widened values. Failure returns
    /// the zero-extended current value.
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;

    /// Weak form of [`compare_exchange`](Self::compare_exchange).
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;

    /// Atomic add (wrapping at the cell width), returning the previous
    /// widened value. The ND table's `fetch_add` fast path relies on
    /// the carry behavior matching the cell width, which it does: a
    /// value field overflowing its `VALUE_MASK` corrupts the key bits
    /// identically at either width.
    fn fetch_add(&self, v: u64, order: Ordering) -> u64;
}

impl CellAtomic for AtomicU64 {
    #[inline(always)]
    fn new_cell(v: u64) -> Self {
        AtomicU64::new(v)
    }

    #[inline(always)]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    #[inline(always)]
    fn store(&self, v: u64, order: Ordering) {
        AtomicU64::store(self, v, order)
    }

    #[inline(always)]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        AtomicU64::compare_exchange(self, current, new, success, failure)
    }

    #[inline(always)]
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        AtomicU64::compare_exchange_weak(self, current, new, success, failure)
    }

    #[inline(always)]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, v, order)
    }
}

impl CellAtomic for AtomicU32 {
    #[inline(always)]
    fn new_cell(v: u64) -> Self {
        debug_assert!(v <= u32::MAX as u64, "repr {v:#x} does not fit a u32 cell");
        AtomicU32::new(v as u32)
    }

    #[inline(always)]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU32::load(self, order) as u64
    }

    #[inline(always)]
    fn store(&self, v: u64, order: Ordering) {
        debug_assert!(v <= u32::MAX as u64, "repr {v:#x} does not fit a u32 cell");
        AtomicU32::store(self, v as u32, order)
    }

    #[inline(always)]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        debug_assert!(current <= u32::MAX as u64 && new <= u32::MAX as u64);
        AtomicU32::compare_exchange(self, current as u32, new as u32, success, failure)
            .map(|v| v as u64)
            .map_err(|v| v as u64)
    }

    #[inline(always)]
    fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        debug_assert!(current <= u32::MAX as u64 && new <= u32::MAX as u64);
        AtomicU32::compare_exchange_weak(self, current as u32, new as u32, success, failure)
            .map(|v| v as u64)
            .map_err(|v| v as u64)
    }

    #[inline(always)]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        AtomicU32::fetch_add(self, v as u32, order) as u64
    }
}

/// The atomic cell type of a width — shorthand for table fields:
/// `Box<[AtomOf<E::Repr>]>`.
pub type AtomOf<W> = <W as CellWord>::Atomic;

/// Allocates `cap` cells initialized to `empty`, every one of them
/// **written** before this returns: a fresh table's pages are resident.
///
/// `⊥` is zero, and "allocate, then fill with a known zero" is a pattern
/// the optimiser may fold into `calloc`, whose lazily mapped pages move
/// the page faults out of construction and into the first inserts.
/// Whether it does depends on what got inlined where, so an unrelated
/// edit could trade the benchmark's `setup_s` against its
/// `throughput_mops` (EXPERIMENTS.md PR 18). A store of a value the
/// optimiser cannot know is not a zero fill it can fold, which pins the
/// eager arrangement; `tests::fresh_cells_are_resident` holds it.
pub fn new_cells<W: CellWord>(cap: usize, empty: u64) -> Box<[W::Atomic]> {
    let empty = std::hint::black_box(empty);
    (0..cap).map(|_| W::Atomic::new_cell(empty)).collect()
}

/// Bytes occupied by one cell of width `W`.
pub const fn cell_bytes<W: CellWord>() -> usize {
    (W::BITS / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<W: CellWord>(vals: &[u64]) {
        for &v in vals {
            let c = W::Atomic::new_cell(v);
            assert_eq!(c.load(Ordering::Relaxed), v);
            c.store(v ^ 1, Ordering::Relaxed);
            assert_eq!(c.load(Ordering::Relaxed), v ^ 1);
            assert_eq!(
                c.compare_exchange(v ^ 1, v, Ordering::AcqRel, Ordering::Acquire),
                Ok(v ^ 1)
            );
            assert_eq!(
                c.compare_exchange(v ^ 1, v, Ordering::AcqRel, Ordering::Acquire),
                Err(v),
                "failed CAS must return the observed value"
            );
            c.store(7, Ordering::Relaxed);
            assert_eq!(c.fetch_add(3, Ordering::AcqRel), 7);
            assert_eq!(c.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn u64_cells_roundtrip() {
        roundtrip::<u64>(&[0, 1, 1 << 40, u64::MAX - 1]);
    }

    #[test]
    fn u32_cells_roundtrip_zero_extended() {
        roundtrip::<u32>(&[0, 1, 0xFFFF_0001, u32::MAX as u64 - 1]);
        // Loads are genuinely zero-extended, not sign-extended. Call
        // through the trait: the inherent `AtomicU32::load` would
        // shadow it on the concrete type and return `u32`.
        let c = <u32 as CellWord>::Atomic::new_cell(0x8000_0001);
        assert_eq!(CellAtomic::load(&c, Ordering::Relaxed), 0x8000_0001u64);
    }

    #[test]
    fn u32_fetch_add_wraps_at_width() {
        let c = AtomicU32::new_cell(u32::MAX as u64);
        c.fetch_add(1, Ordering::AcqRel);
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }

    /// Resident set size of this process, in bytes.
    #[cfg(target_os = "linux")]
    fn vm_rss() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        let kib: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        kib * 1024
    }

    /// `new_cells` must fault its pages in itself (see its docs). The
    /// fold into `calloc` this guards against is an optimisation, so the
    /// run that counts is the `--release` one CI makes.
    #[cfg(target_os = "linux")]
    #[test]
    fn fresh_cells_are_resident() {
        const BYTES: usize = 32 << 20;
        // Sibling tests allocate and free beside this one, which can
        // hide the rise (never fake one of this size): a few attempts.
        let resident = (0..3).any(|_| {
            let before = vm_rss();
            let cells = new_cells::<u64>(BYTES / 8, 0);
            let rise = vm_rss().saturating_sub(before);
            // The first load from the caller comes after the reading.
            assert_eq!(cells[cells.len() / 2].load(Ordering::Relaxed), 0);
            rise >= BYTES / 10 * 9
        });
        assert!(resident, "32 MiB of fresh cells left VmRSS where it was");
    }

    #[test]
    fn new_cells_initializes_to_empty() {
        let cells = new_cells::<u32>(16, 0);
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 0));
        assert_eq!(cell_bytes::<u32>(), 4);
        assert_eq!(cell_bytes::<u64>(), 8);
    }
}
