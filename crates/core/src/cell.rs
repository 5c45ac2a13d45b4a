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
//!
//! ## Allocation: cell arrays at TLB reach
//!
//! Every flat table — det, nd, fc, Robin Hood (growable or not),
//! cuckoo and hopscotch — gets its cells from [`new_cells`], as a
//! [`CellArray`]. An array of 2 MiB (`HUGE_PAGE`) or more is
//! allocated on a 2 MiB boundary and advised `MADV_HUGEPAGE` before its
//! first byte is written, so where the kernel offers transparent huge
//! pages the fill maps 2 MiB pages: a 64 MiB table is 32 page faults
//! and 32 TLB entries instead of 16,384 of each. Where THP is `never`
//! the advice does nothing and only the alignment differs from a
//! `Box<[_]>`. There is no switch: the layout of a table never depends
//! on where its cells sit (DESIGN.md §5.11).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::Deref;
use std::ptr::NonNull;
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
/// `CellArray<AtomOf<E::Repr>>`.
pub type AtomOf<W> = <W as CellWord>::Atomic;

/// The size of a huge page, and the array size from which
/// [`new_cells`] asks for them.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// An owned, fixed-length array of cells: what [`new_cells`] returns
/// and every flat table keeps its cells in. It reads as a slice
/// (`Deref<Target = [A]>`); only its allocation differs from a
/// `Box<[A]>`: an array of 2 MiB or more starts on a huge-page
/// boundary and is advised to be backed by huge pages.
pub struct CellArray<A> {
    ptr: NonNull<A>,
    len: usize,
}

// SAFETY: `ptr` is the one owner of its `len` cells (`len` is plain
// data), exactly as a `Box<[A]>` owns its slice: sending the array
// sends the cells, and the thread that drops it drops them.
unsafe impl<A: Send> Send for CellArray<A> {}
// SAFETY: `&CellArray` hands out only `&[A]` (`Deref`); nothing mutates
// `ptr` or `len` after `build`.
unsafe impl<A: Sync> Sync for CellArray<A> {}

impl<A> CellArray<A> {
    /// The layout of an array of `len` cells: huge-page aligned from
    /// [`HUGE_PAGE`] bytes on, naturally aligned below.
    fn layout(len: usize) -> Layout {
        let natural = Layout::array::<A>(len).expect("cell array size overflows");
        if natural.size() >= HUGE_PAGE {
            natural
                .align_to(HUGE_PAGE)
                .expect("cell array size overflows")
        } else {
            natural
        }
    }

    /// Allocates `len` cells and writes `init()` into each, after the
    /// huge-page advice and before anything else touches them.
    fn build(len: usize, init: impl Fn() -> A) -> Self {
        let layout = Self::layout(len);
        if layout.size() == 0 {
            return CellArray {
                ptr: NonNull::dangling(),
                len,
            };
        }
        // Plain `alloc`, not `alloc_zeroed`: for an over-aligned layout
        // std's zeroing allocation writes the block before returning,
        // so advice given after it finds the pages already faulted in
        // at 4 KiB.
        // SAFETY: the layout has a nonzero size.
        let raw = unsafe { alloc(layout) } as *mut A;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        if layout.align() == HUGE_PAGE {
            advise_huge_pages(raw as *mut u8, layout.size());
        }
        for i in 0..len {
            // SAFETY: `i < len`, inside the block just allocated.
            unsafe { raw.add(i).write(init()) };
        }
        CellArray { ptr, len }
    }
}

impl<A> Deref for CellArray<A> {
    type Target = [A];

    #[inline(always)]
    fn deref(&self) -> &[A] {
        // SAFETY: `ptr` holds `len` initialised cells (or is dangling
        // with `len * size_of::<A>() == 0`) for as long as `self` lives.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<A> Drop for CellArray<A> {
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        // SAFETY: the cells were initialised by `build`, are dropped
        // once, and the block was allocated with this same layout.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.ptr.as_ptr(),
                self.len,
            ));
            if layout.size() != 0 {
                dealloc(self.ptr.as_ptr() as *mut u8, layout);
            }
        }
    }
}

/// Asks the kernel to back `[addr, addr + len)` with transparent huge
/// pages. Advice only: where THP is `never` (or the call fails) the
/// pages stay 4 KiB, so the result is ignored.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
))]
fn advise_huge_pages(addr: *mut u8, len: usize) {
    // `MADV_HUGEPAGE` in the kernel's generic `mman-common.h`, which
    // both architectures use.
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    // SAFETY: the range is one live allocation of ours, page-aligned;
    // `MADV_HUGEPAGE` changes how it is backed, never its contents.
    unsafe { madvise(addr.cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
fn advise_huge_pages(_addr: *mut u8, _len: usize) {}

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
///
/// An array of 2 MiB or more is allocated huge-page
/// aligned and advised (`madvise(MADV_HUGEPAGE)`, on Linux) **before**
/// the fill, so the fill's faults map 2 MiB pages where the kernel's
/// THP setting allows: 512× fewer faults, and one TLB entry covers 512×
/// the cells (DESIGN.md §5.11). Smaller arrays are allocated as a
/// `Box<[_]>` would be.
pub fn new_cells<W: CellWord>(cap: usize, empty: u64) -> CellArray<W::Atomic> {
    let empty = std::hint::black_box(empty);
    CellArray::build(cap, || W::Atomic::new_cell(empty))
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

    /// The address of an array's first cell.
    fn addr<A>(cells: &CellArray<A>) -> usize {
        cells.as_ptr() as usize
    }

    #[test]
    fn huge_arrays_start_on_a_huge_page() {
        fn check<W: CellWord>() {
            let width = cell_bytes::<W>();
            for bytes in [HUGE_PAGE, 4 * HUGE_PAGE] {
                let cells = new_cells::<W>(bytes / width, 7);
                assert_eq!(
                    addr(&cells) % HUGE_PAGE,
                    0,
                    "{bytes} B of {width}-byte cells"
                );
                assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 7));
            }
            // One cell short of the threshold: a plain array.
            let cells = new_cells::<W>((HUGE_PAGE - 8) / width, 7);
            assert_eq!(CellArray::<W::Atomic>::layout(cells.len()).align(), width);
            assert_eq!(addr(&cells) % width, 0);
            assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 7));
        }
        check::<u64>();
        check::<u32>();
    }

    /// `AnonHugePages` of the `/proc/self/smaps` mapping holding `addr`.
    #[cfg(target_os = "linux")]
    fn anon_huge_kib(addr: usize) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if inside && line.starts_with("AnonHugePages:") {
                return line.split_whitespace().nth(1).unwrap().parse().unwrap();
            }
        }
        0
    }

    /// Where the kernel offers transparent huge pages to advised memory,
    /// a fresh large array gets some: the advice came before the fill.
    #[cfg(target_os = "linux")]
    #[test]
    fn huge_arrays_are_backed_by_huge_pages() {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        let offered = thp.contains("[always]") || thp.contains("[madvise]");
        const BYTES: usize = 32 << 20;
        // Huge pages are handed out only while the kernel has free 2 MiB
        // blocks: a few attempts.
        let backed = (0..3).any(|_| {
            let cells = new_cells::<u64>(BYTES / 8, 0);
            assert_eq!(addr(&cells) % HUGE_PAGE, 0);
            offered && anon_huge_kib(addr(&cells)) > 0
        });
        if offered {
            assert!(
                backed,
                "32 MiB of fresh cells got no huge page (THP: {})",
                thp.trim()
            );
        } else {
            println!(
                "skip: THP is not offered to advised memory ({}); alignment only",
                thp.trim()
            );
        }
    }

    #[test]
    fn new_cells_initializes_to_empty() {
        assert!(new_cells::<u64>(0, 0).is_empty());
        let cells = new_cells::<u32>(16, 0);
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 0));
        assert_eq!(cell_bytes::<u32>(), 4);
        assert_eq!(cell_bytes::<u64>(), 8);
    }
}
