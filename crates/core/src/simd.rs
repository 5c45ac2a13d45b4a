//! Wide-scan (SIMD) primitives over the cell array.
//!
//! The linear-probe find, the insert's empty/lower-priority search,
//! `elements()` packing and occupancy counting are forward scans over a
//! contiguous `AtomicU64` array whose stop condition is a compare on
//! the cell word: exactly the shape wide vector loads were built for.
//! This module provides those scans — two stop scans and an occupancy
//! mask — with runtime dispatch AVX2 → SSE2 → scalar and a `PHC_SIMD`
//! environment knob (read once, like `PHC_THREADS`) to pin a tier for
//! benchmarking and differential testing. What it does not hold is a
//! plain wide *load*: the one scan whose predicate hashes the cell (the
//! delete chase's `find_replacement`, [`crate::probe`]) runs cell by
//! cell, which measured faster than filling a window first.
//!
//! ## Why unsynchronized wide loads are sound here
//!
//! The phase-concurrency discipline of the paper (operations of one
//! type per phase) is what makes a 2–4-lane load *safe to rely on*:
//!
//! * **Read phases are quiescent.** During `find` / `find_batch` /
//!   `elements()` no thread writes any cell, so a wide load races with
//!   nothing and observes exactly the values a sequence of per-cell
//!   atomic loads would. The same holds for `len()` / stats taken at
//!   quiescence.
//! * **Insert phases are monotone.** During an insert phase a cell's
//!   priority only ever increases (a CAS stores a higher-priority key
//!   over a lower one; `combine` keeps the key) and, in the ND table,
//!   cells only go from empty to occupied. The wide loads are therefore
//!   *speculative*: a lane observed as "skip" (higher priority /
//!   occupied by another key) remains skippable forever, and a lane
//!   observed as a candidate is re-checked with a per-cell **atomic**
//!   load + CAS before anything is written. A stale candidate is a
//!   counted misspeculation that simply re-scans.
//!
//! ## No reserved lanes
//!
//! A lane is ⊥ or an entry, nothing else: the resizer
//! ([`crate::resize`]) migrates a retiring array by reading it behind
//! a writer gate and never stores a marker into a cell, and no kernel
//! here pads a partial window — tails run lane by lane. So the
//! all-ones word is an ordinary (maximum-rank) key at every tier and
//! both cell widths.
//!
//! Two hardware assumptions back the speculative case, both documented
//! de-facto guarantees of x86-64: naturally aligned 8-byte lanes of a
//! vector load do not tear (each lane is individually atomic), and
//! loads are not reordered with loads (TSO), so no fence is needed
//! before the confirming atomic access. Strictly speaking a racing
//! non-atomic load is outside the Rust memory model — the same
//! compromise seqlock-style crates make — so the scalar kernels below
//! use real atomic loads, `cfg(miri)` pins the scalar tier, and every
//! value that influences a *write* is confirmed through the existing
//! atomic path first. Quiescent-phase results are byte-identical
//! across tiers by construction; the differential suite asserts it.
//!
//! ## Tiers and cell widths
//!
//! | tier | vector width | 64-bit cells/probe window | 32-bit cells |
//! |---|---|---|---|
//! | `avx2` | 256-bit | 4 | 8 |
//! | `sse2` | 128-bit | 2 (64-bit compares synthesized from 32-bit ops) | 4 (native `epi32` ops) |
//! | `scalar` | — | 1 (per-cell atomic loads; the reference semantics) | 1 |
//!
//! Every kernel is written once per (tier, scan) over a small lane
//! trait and instantiated per cell width (see [`crate::cell`]): the
//! scans are generic over the atomic cell type, fold on `A::BITS` (a
//! constant, so the branch disappears), and always speak zero-extended
//! `u64` values to callers. Sub-word cells double the lanes per vector
//! *and* halve the bytes per examined cell — the two compounding wins
//! of the compact-entry layout.
//!
//! ## One binder
//!
//! A tier is a zero-sized kernel value (`Scalar`, `Sse2`, `Avx2`). The
//! probe engine ([`crate::probe`]) writes each operation as a body
//! generic over the kernel type and hands it to `bind`, which reads
//! [`tier`] once and runs the body with that tier's kernels — inside a
//! `#[target_feature(enable = "avx2")]` frame for the AVX2 tier, so the
//! kernels inline into the body's loops. That is the only place a tier
//! is turned into code and the only AVX2 frame outside the kernels;
//! the free functions [`scan_le`] / [`scan_for_key`] resolve the tier
//! on every call and are for callers that scan once.
//!
//! SSE2 is the x86-64 baseline, so the `sse2` tier is always available
//! there; `avx2` is used when `is_x86_feature_detected!` reports it (or
//! falls back one tier, counted in `SimdFallbacks`, when `PHC_SIMD=avx2`
//! is forced on hardware without it). Non-x86 targets always run scalar.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::cell::CellAtomic;

/// A dispatch tier for the wide-scan kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Per-cell atomic loads — the reference semantics.
    Scalar,
    /// 128-bit kernels (x86-64 baseline).
    Sse2,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name (matches the `PHC_SIMD` values).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Clamps a requested tier to what this build/CPU can actually run.
/// Downgrades are counted as `SimdFallbacks`.
fn clamp(requested: SimdTier) -> SimdTier {
    if cfg!(miri) {
        // Wide raw loads are outside the model Miri checks; always take
        // the atomic scalar kernels under it.
        return SimdTier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if requested == SimdTier::Avx2 && !is_x86_feature_detected!("avx2") {
            phc_obs::probe!(count SimdFallbacks);
            return SimdTier::Sse2;
        }
        requested
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        if requested != SimdTier::Scalar {
            phc_obs::probe!(count SimdFallbacks);
        }
        SimdTier::Scalar
    }
}

/// The tier selected by the environment (read **once**): `PHC_SIMD` is
/// `avx2`, `sse2` or `scalar`, defaulting to the best detected tier.
fn env_tier() -> SimdTier {
    static DEFAULT: OnceLock<SimdTier> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let requested = match std::env::var("PHC_SIMD").ok().as_deref() {
            Some("scalar") => SimdTier::Scalar,
            Some("sse2") => SimdTier::Sse2,
            Some("avx2") => SimdTier::Avx2,
            // Unset (or unrecognized): auto-detect the best tier.
            _ => SimdTier::Avx2,
        };
        clamp(requested)
    })
}

/// Process-wide tier override installed by [`set_tier`]; `0` = none.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The active dispatch tier: the [`set_tier`] override if installed,
/// otherwise the once-read `PHC_SIMD` / auto-detected default.
#[inline]
pub fn tier() -> SimdTier {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Sse2,
        3 => SimdTier::Avx2,
        _ => env_tier(),
    }
}

/// Overrides the dispatch tier process-wide (`None` restores the
/// environment default). For benchmarks and differential tests that
/// compare tiers within one process; requests are clamped to what the
/// CPU supports, so forcing `Avx2` on a non-AVX2 box runs SSE2 (and
/// anything non-scalar on a non-x86 box runs scalar). Every tier
/// produces identical results on quiescent tables, so flipping this
/// concurrently with table operations is benign, if pointless.
pub fn set_tier(tier: Option<SimdTier>) {
    let code = match tier.map(clamp) {
        None => 0,
        Some(SimdTier::Scalar) => 1,
        Some(SimdTier::Sse2) => 2,
        Some(SimdTier::Avx2) => 3,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// Outcome of a forward stop-scan: the stop lane — its index in the
/// cell array *and the value the kernel observed there*, extracted from
/// the already-loaded vector window — plus the number of cell lanes the
/// kernel examined (for the `SimdLanesScanned` counter and
/// `SimdLanesPerProbe` histogram). Returning the observed value lets
/// the speculative insert path seed its per-cell CAS confirm from the
/// same loaded window instead of re-loading the cell, and lets
/// quiescent readers skip the re-load entirely.
pub type ScanHit = (Option<(usize, u64)>, usize);

// ---------------------------------------------------------------------
// Tier-bound kernels and the binder
// ---------------------------------------------------------------------

pub(crate) use kernel::Kernel;

/// `pub` in a private module: nameable as a bound by the (equally
/// unreachable) probe-policy traits, but not from outside the crate.
mod kernel {
    use super::ScanHit;
    use crate::cell::CellAtomic;

    /// The stop-scan kernels of one dispatch tier, as a zero-sized value.
    /// A probe body generic over `K: Kernel` has its kernels selected at
    /// compile time; [`bind`](super::bind) is what picks the `K`. The two
    /// methods have the contracts of the free functions
    /// [`scan_le`](super::scan_le) / [`scan_for_key`](super::scan_for_key)
    /// (the latter with the probe already masked); the cell width folds on
    /// `A::BITS` inside each, and 32-bit instantiations feed the
    /// `Simd32LanesScanned` counter here, so every caller of the sub-word
    /// kernels is counted without touching the call sites.
    pub trait Kernel: Copy {
        /// Whether this tier scans with vector loads. `false` only for
        /// [`Scalar`](super::Scalar): its callers run the per-cell reference loops instead
        /// of a wide body.
        const WIDE: bool;

        /// See [`scan_le`](super::scan_le).
        ///
        /// # Safety
        ///
        /// `start <= end <= cells.len()` (see the module docs for the
        /// wide-load race argument).
        unsafe fn scan_le<A: CellAtomic>(
            self,
            cells: &[A],
            start: usize,
            end: usize,
            key_mask: u64,
            threshold: u64,
        ) -> ScanHit;

        /// See [`scan_for_key`](super::scan_for_key); `probe_masked` is
        /// `probe & key_mask`.
        ///
        /// # Safety
        ///
        /// `start <= end <= cells.len()`.
        unsafe fn scan_for_key<A: CellAtomic>(
            self,
            cells: &[A],
            start: usize,
            end: usize,
            empty: u64,
            key_mask: u64,
            probe_masked: u64,
        ) -> ScanHit;
    }
}

/// The per-cell atomic-load tier — the reference semantics.
#[derive(Clone, Copy)]
pub(crate) struct Scalar;

impl Kernel for Scalar {
    const WIDE: bool = false;

    #[inline(always)]
    unsafe fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        for (lane, cell) in cells[start..end].iter().enumerate() {
            let c = cell.load(Ordering::Acquire);
            if c & key_mask <= threshold {
                return (Some((start + lane, c)), lane + 1);
            }
        }
        (None, end - start)
    }

    #[inline(always)]
    unsafe fn scan_for_key<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        for (lane, cell) in cells[start..end].iter().enumerate() {
            let c = cell.load(Ordering::Acquire);
            if c == empty || c & key_mask == probe_masked {
                return (Some((start + lane, c)), lane + 1);
            }
        }
        (None, end - start)
    }
}

/// Implements [`Kernel`] for an x86 tier type over the lane-generic
/// bodies in [`x86`]. A macro only because the two tiers differ in
/// nothing but the function names.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_kernel {
    ($tier:ident, $scan_le:ident, $scan_for_key:ident) => {
        impl Kernel for $tier {
            const WIDE: bool = true;

            #[inline(always)]
            unsafe fn scan_le<A: CellAtomic>(
                self,
                cells: &[A],
                start: usize,
                end: usize,
                key_mask: u64,
                threshold: u64,
            ) -> ScanHit {
                debug_assert!(start <= end && end <= cells.len());
                // SAFETY: the range is in bounds per this method's
                // contract, and a value of the tier type exists only
                // after `tier()` reported the tier as runnable.
                let hit = unsafe {
                    if A::BITS == 32 {
                        x86::$scan_le::<u32>(cells.as_ptr().cast(), start, end, key_mask, threshold)
                    } else {
                        x86::$scan_le::<u64>(cells.as_ptr().cast(), start, end, key_mask, threshold)
                    }
                };
                if A::BITS == 32 {
                    phc_obs::probe!(count Simd32LanesScanned, hit.1);
                }
                hit
            }

            #[inline(always)]
            unsafe fn scan_for_key<A: CellAtomic>(
                self,
                cells: &[A],
                start: usize,
                end: usize,
                empty: u64,
                key_mask: u64,
                probe_masked: u64,
            ) -> ScanHit {
                debug_assert!(start <= end && end <= cells.len());
                // SAFETY: as in `scan_le`.
                let hit = unsafe {
                    if A::BITS == 32 {
                        let ptr = cells.as_ptr().cast();
                        x86::$scan_for_key::<u32>(ptr, start, end, empty, key_mask, probe_masked)
                    } else {
                        let ptr = cells.as_ptr().cast();
                        x86::$scan_for_key::<u64>(ptr, start, end, empty, key_mask, probe_masked)
                    }
                };
                if A::BITS == 32 {
                    phc_obs::probe!(count Simd32LanesScanned, hit.1);
                }
                hit
            }
        }
    };
}

/// The 128-bit tier (x86-64 baseline). Constructed only by this
/// module's dispatch sites.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Sse2(());
#[cfg(target_arch = "x86_64")]
x86_kernel!(Sse2, scan_le_sse2, scan_for_key_sse2);

/// The 256-bit tier. A value is proof that the CPU supports AVX2: this
/// module constructs one only after [`tier`] reported `Avx2`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());
#[cfg(target_arch = "x86_64")]
x86_kernel!(Avx2, scan_le_avx2, scan_for_key_avx2);

/// An operation that still needs its scan kernels: a probe, or a whole
/// prefetching batch loop, over a context `C` (the table). The context
/// travels beside the body, not inside it, so it reaches the tier's
/// frame as a reference *parameter* — which is what lets the compiler
/// keep a table's loop-invariant fields (a policy's mixer constants,
/// say) in registers across the loop's stores; a reference loaded out
/// of the body carries no such guarantee. Implementations mark `run`
/// `#[inline(always)]`, so the body — and through it the kernels it
/// calls — inlines into the frame [`bind`] runs it in.
pub(crate) trait TierBody<C: ?Sized> {
    /// What the body returns.
    type Out;
    /// Runs the body on `ctx` with `kernel`'s scans.
    fn run<K: Kernel>(self, ctx: &C, kernel: K) -> Self::Out;
}

/// Resolves the dispatch tier **once** and runs `body` on `ctx` with that
/// tier's kernels — the only place that turns [`tier`] into a kernel,
/// and the only place that enters an AVX2 frame. Hot loops hand their
/// whole loop in as one body, so they pay this once per operation or
/// batch rather than once per probe window; `SimdRedispatches` counts
/// the resolutions that bound a wide tier.
///
/// Each tier's frame is a function of its own, so this is a tier load
/// and one call: with a body inlined here, every caller would carry
/// that tier's copy of the whole loop and pay its prologue on the way
/// to the AVX2 frame.
#[inline(always)]
pub(crate) fn bind<C: ?Sized, B: TierBody<C>>(ctx: &C, body: B) -> B::Out {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => {
            phc_obs::probe!(count SimdRedispatches);
            // SAFETY: `tier()` reports Avx2 only when the CPU supports
            // it.
            unsafe { run_avx2(ctx, body) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => {
            phc_obs::probe!(count SimdRedispatches);
            run(ctx, body, Sse2(()))
        }
        _ => run(ctx, body, Scalar),
    }
}

/// The AVX2 frame: `body.run` is `#[inline(always)]`, so the body is
/// compiled here with the feature enabled and the AVX2 kernels inline
/// into its loops.
///
/// # Safety
///
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<C: ?Sized, B: TierBody<C>>(ctx: &C, body: B) -> B::Out {
    body.run(ctx, Avx2(()))
}

/// The frame of a tier that needs no target feature.
#[inline(never)]
fn run<C: ?Sized, B: TierBody<C>, K: Kernel>(ctx: &C, body: B, kernel: K) -> B::Out {
    body.run(ctx, kernel)
}

// ---------------------------------------------------------------------
// Dispatching scans
// ---------------------------------------------------------------------

/// First index `i` in `[start, end)` with
/// `cells[i] & key_mask <= threshold` (unsigned): the stop condition of
/// the deterministic table's prioritized probe, where `threshold` is
/// the masked repr being inserted or sought. Under the
/// [`SIMD_KEY_MASK`](crate::entry::HashEntry::SIMD_KEY_MASK) contract a
/// stop lane is an exact key match iff its masked value *equals*
/// `threshold`; anything below is empty or lower priority.
///
/// Each call resolves the tier at runtime (counted as a
/// `SimdRedispatches`); hot loops bind their kernels once per
/// operation or batch instead (see [`crate::probe`]).
///
/// # Panics
///
/// Panics unless `start <= end <= cells.len()`.
#[inline]
pub fn scan_le<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    key_mask: u64,
    threshold: u64,
) -> ScanHit {
    assert!(start <= end && end <= cells.len());
    phc_obs::probe!(count SimdRedispatches);
    // SAFETY (all arms): the range was just checked; `tier()` reports a
    // tier only when the CPU can run it.
    unsafe {
        match tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => Avx2(()).scan_le(cells, start, end, key_mask, threshold),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => Sse2(()).scan_le(cells, start, end, key_mask, threshold),
            _ => Scalar.scan_le(cells, start, end, key_mask, threshold),
        }
    }
}

/// First index `i` in `[start, end)` with `cells[i] == empty` or
/// `cells[i] & key_mask == probe & key_mask`: the stop condition of the
/// ND table's first-fit probe (an empty slot or the probe's own key).
///
/// # Panics
///
/// Panics unless `start <= end <= cells.len()`.
#[inline]
pub fn scan_for_key<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    empty: u64,
    key_mask: u64,
    probe: u64,
) -> ScanHit {
    assert!(start <= end && end <= cells.len());
    phc_obs::probe!(count SimdRedispatches);
    let pm = probe & key_mask;
    // SAFETY (all arms): as in `scan_le`.
    unsafe {
        match tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => Avx2(()).scan_for_key(cells, start, end, empty, key_mask, pm),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => Sse2(()).scan_for_key(cells, start, end, empty, key_mask, pm),
            _ => Scalar.scan_for_key(cells, start, end, empty, key_mask, pm),
        }
    }
}

/// First index `i` in `[start, end)` with `cells[i] == empty` — the
/// speculative empty-slot search. Equivalent to [`scan_for_key`] with a
/// key mask of 0... except that a zero mask would match every cell;
/// this is the dedicated raw-equality form.
#[inline]
pub fn scan_for_empty<A: CellAtomic>(cells: &[A], start: usize, end: usize, empty: u64) -> ScanHit {
    // An empty lane is the only lane whose repr equals `empty`, so the
    // key-or-empty kernel with the probe pinned to `empty` under a full
    // mask degenerates to exactly this search.
    scan_for_key(cells, start, end, empty, u64::MAX, empty)
}

/// Occupancy bitmask of a window of at most 64 cells: bit `j` is set
/// iff `window[j] != empty`. Bits at positions `>= window.len()` are
/// zero. This is the count/pack primitive: `elements()` and `len()`
/// popcount it, migration iterates its set bits.
#[inline]
pub fn scan_nonempty_mask<A: CellAtomic>(window: &[A], empty: u64) -> u64 {
    debug_assert!(window.len() <= 64);
    let (ptr, len) = (window.as_ptr(), window.len());
    match tier() {
        // SAFETY (both arms): the window is a live slice, so `len`
        // lanes from `ptr` are in bounds; `tier()` reports Avx2 only
        // when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            if A::BITS == 32 {
                x86::nonempty_mask_avx2::<u32>(ptr.cast(), len, empty)
            } else {
                x86::nonempty_mask_avx2::<u64>(ptr.cast(), len, empty)
            }
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe {
            if A::BITS == 32 {
                x86::nonempty_mask_sse2::<u32>(ptr.cast(), len, empty)
            } else {
                x86::nonempty_mask_sse2::<u64>(ptr.cast(), len, empty)
            }
        },
        _ => nonempty_mask_scalar(window, empty),
    }
}

/// Scalar-tier [`scan_nonempty_mask`]: per-cell atomic loads.
fn nonempty_mask_scalar<A: CellAtomic>(window: &[A], empty: u64) -> u64 {
    let mut mask = 0u64;
    for (j, c) in window.iter().enumerate() {
        if c.load(Ordering::Acquire) != empty {
            mask |= 1 << j;
        }
    }
    mask
}

// ---------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------
//
// SAFETY (all kernels below): callers pass a pointer/range inside one
// live cell allocation, so every load is in bounds and lane-aligned.
// The loads are unsynchronized; see the module docs for why the phase
// discipline (quiescence or monotonicity + atomic confirm) makes that
// acceptable, and note that each naturally aligned 8- or 4-byte lane
// of an x86 vector load is individually non-tearing.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::ScanHit;
    use core::arch::x86_64::*;

    /// A cell width as the vector kernels see it: the per-lane compare,
    /// broadcast and mask-extraction ops of one lane size, at both
    /// vector widths. Every scan below is written once per tier over
    /// this trait. Masks, thresholds and sentinels arrive as widened
    /// `u64`s and truncate losslessly at the narrow width (sub-word
    /// reprs are `< 2^32`; the widened `u64::MAX` mask truncates to the
    /// all-ones 32-bit mask).
    ///
    /// The 256-bit methods carry no `target_feature` of their own: they
    /// are `#[inline(always)]` and only ever called from the AVX2
    /// kernels, whose frame they compile in.
    pub trait Lane: Copy {
        /// Lanes per 128-bit vector (2 or 4); a 256-bit vector holds
        /// twice as many.
        const PER_128: usize;
        /// Zero-extends one lane.
        fn widen(self) -> u64;
        unsafe fn splat128(v: u64) -> __m128i;
        /// Per-lane `a == b`, all-ones where true.
        unsafe fn eq128(a: __m128i, b: __m128i) -> __m128i;
        /// Per-lane **unsigned** `a > b`.
        unsafe fn ugt128(a: __m128i, b: __m128i) -> __m128i;
        /// One bit per lane of a compare result, lane 0 lowest.
        unsafe fn bits128(m: __m128i) -> u32;
        unsafe fn splat256(v: u64) -> __m256i;
        unsafe fn eq256(a: __m256i, b: __m256i) -> __m256i;
        unsafe fn ugt256(a: __m256i, b: __m256i) -> __m256i;
        unsafe fn bits256(m: __m256i) -> u32;
    }

    impl Lane for u64 {
        const PER_128: usize = 2;
        #[inline(always)]
        fn widen(self) -> u64 {
            self
        }
        #[inline(always)]
        unsafe fn splat128(v: u64) -> __m128i {
            _mm_set1_epi64x(v as i64)
        }
        /// SSE2 has no `cmpeq_epi64`: compare the 32-bit halves, swap
        /// them within each 64-bit lane and AND — a lane is all-ones
        /// iff both its halves matched.
        #[inline(always)]
        unsafe fn eq128(a: __m128i, b: __m128i) -> __m128i {
            let eq32 = _mm_cmpeq_epi32(a, b);
            _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0xB1))
        }
        /// SSE2 has no 64-bit compare either: compare the biased 32-bit
        /// halves, then `hi_gt | (hi_eq & lo_gt)`.
        #[inline(always)]
        unsafe fn ugt128(a: __m128i, b: __m128i) -> __m128i {
            let bias32 = _mm_set1_epi32(i32::MIN);
            let gt32 = _mm_cmpgt_epi32(_mm_xor_si128(a, bias32), _mm_xor_si128(b, bias32));
            let eq32 = _mm_cmpeq_epi32(a, b);
            let hi_gt = _mm_shuffle_epi32(gt32, 0xF5); // hi results → both halves
            let lo_gt = _mm_shuffle_epi32(gt32, 0xA0); // lo results → both halves
            let hi_eq = _mm_shuffle_epi32(eq32, 0xF5);
            _mm_or_si128(hi_gt, _mm_and_si128(hi_eq, lo_gt))
        }
        #[inline(always)]
        unsafe fn bits128(m: __m128i) -> u32 {
            _mm_movemask_pd(_mm_castsi128_pd(m)) as u32
        }
        #[inline(always)]
        unsafe fn splat256(v: u64) -> __m256i {
            _mm256_set1_epi64x(v as i64)
        }
        #[inline(always)]
        unsafe fn eq256(a: __m256i, b: __m256i) -> __m256i {
            _mm256_cmpeq_epi64(a, b)
        }
        /// The sign-bit bias turns unsigned order into the signed order
        /// `cmpgt` implements.
        #[inline(always)]
        unsafe fn ugt256(a: __m256i, b: __m256i) -> __m256i {
            let bias = _mm256_set1_epi64x(i64::MIN);
            _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias))
        }
        #[inline(always)]
        unsafe fn bits256(m: __m256i) -> u32 {
            _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32
        }
    }

    /// Twice the lanes per vector, and the compare ops are *native* at
    /// this width at both tiers (`cmpeq_epi32` / `cmpgt_epi32`), so the
    /// SSE2 tier stops paying the shuffle tax it pays on 64-bit cells.
    impl Lane for u32 {
        const PER_128: usize = 4;
        #[inline(always)]
        fn widen(self) -> u64 {
            self as u64
        }
        #[inline(always)]
        unsafe fn splat128(v: u64) -> __m128i {
            _mm_set1_epi32(v as u32 as i32)
        }
        #[inline(always)]
        unsafe fn eq128(a: __m128i, b: __m128i) -> __m128i {
            _mm_cmpeq_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn ugt128(a: __m128i, b: __m128i) -> __m128i {
            let bias = _mm_set1_epi32(i32::MIN);
            _mm_cmpgt_epi32(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias))
        }
        #[inline(always)]
        unsafe fn bits128(m: __m128i) -> u32 {
            _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
        }
        #[inline(always)]
        unsafe fn splat256(v: u64) -> __m256i {
            _mm256_set1_epi32(v as u32 as i32)
        }
        #[inline(always)]
        unsafe fn eq256(a: __m256i, b: __m256i) -> __m256i {
            _mm256_cmpeq_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn ugt256(a: __m256i, b: __m256i) -> __m256i {
            let bias = _mm256_set1_epi32(i32::MIN);
            _mm256_cmpgt_epi32(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias))
        }
        #[inline(always)]
        unsafe fn bits256(m: __m256i) -> u32 {
            _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
        }
    }

    /// The stop lane of a 256-bit window, read back out of the loaded
    /// vector (not re-loaded from memory: the value handed to the
    /// caller is the one the compare saw).
    #[inline(always)]
    unsafe fn lane_of_256<L: Lane>(w: __m256i, lane: usize) -> u64 {
        let mut buf = [0u64; 4];
        _mm256_storeu_si256(buf.as_mut_ptr().cast(), w);
        buf.as_ptr().cast::<L>().add(lane).read().widen()
    }

    /// [`lane_of_256`] for a 128-bit window.
    #[inline(always)]
    unsafe fn lane_of_128<L: Lane>(w: __m128i, lane: usize) -> u64 {
        let mut buf = [0u64; 2];
        _mm_storeu_si128(buf.as_mut_ptr().cast(), w);
        buf.as_ptr().cast::<L>().add(lane).read().widen()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_le_avx2<L: Lane>(
        ptr: *const L,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let step = 2 * L::PER_128;
        let maskv = L::splat256(key_mask);
        let thr = L::splat256(threshold);
        let mut i = start;
        while i + step <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let gt = L::ugt256(_mm256_and_si256(w, maskv), thr);
            let le = !L::bits256(gt) & ((1 << step) - 1);
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                return (
                    Some((i + lane, lane_of_256::<L>(w, lane))),
                    i + step - start,
                );
            }
            i += step;
        }
        tail_le(ptr, i, start, end, key_mask, threshold)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_for_key_avx2<L: Lane>(
        ptr: *const L,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let step = 2 * L::PER_128;
        let maskv = L::splat256(key_mask);
        let emptyv = L::splat256(empty);
        let probev = L::splat256(probe_masked);
        let mut i = start;
        while i + step <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let stop = _mm256_or_si256(
                L::eq256(w, emptyv),
                L::eq256(_mm256_and_si256(w, maskv), probev),
            );
            let bits = L::bits256(stop);
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                return (
                    Some((i + lane, lane_of_256::<L>(w, lane))),
                    i + step - start,
                );
            }
            i += step;
        }
        tail_key(ptr, i, start, end, empty, key_mask, probe_masked)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn nonempty_mask_avx2<L: Lane>(ptr: *const L, len: usize, empty: u64) -> u64 {
        let step = 2 * L::PER_128;
        let emptyv = L::splat256(empty);
        let mut mask = 0u64;
        let mut j = 0;
        while j + step <= len {
            let w = _mm256_loadu_si256(ptr.add(j).cast());
            let eq = L::bits256(L::eq256(w, emptyv)) as u64;
            mask |= (!eq & ((1 << step) - 1)) << j;
            j += step;
        }
        mask | tail_nonempty(ptr, j, len, empty)
    }

    #[inline]
    pub unsafe fn scan_le_sse2<L: Lane>(
        ptr: *const L,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let step = L::PER_128;
        let maskv = L::splat128(key_mask);
        let thr = L::splat128(threshold);
        let mut i = start;
        while i + step <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let gt = L::ugt128(_mm_and_si128(w, maskv), thr);
            let le = !L::bits128(gt) & ((1 << step) - 1);
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                return (
                    Some((i + lane, lane_of_128::<L>(w, lane))),
                    i + step - start,
                );
            }
            i += step;
        }
        tail_le(ptr, i, start, end, key_mask, threshold)
    }

    #[inline]
    pub unsafe fn scan_for_key_sse2<L: Lane>(
        ptr: *const L,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let step = L::PER_128;
        let maskv = L::splat128(key_mask);
        let emptyv = L::splat128(empty);
        let probev = L::splat128(probe_masked);
        let mut i = start;
        while i + step <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let stop = _mm_or_si128(
                L::eq128(w, emptyv),
                L::eq128(_mm_and_si128(w, maskv), probev),
            );
            let bits = L::bits128(stop);
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                return (
                    Some((i + lane, lane_of_128::<L>(w, lane))),
                    i + step - start,
                );
            }
            i += step;
        }
        tail_key(ptr, i, start, end, empty, key_mask, probe_masked)
    }

    pub unsafe fn nonempty_mask_sse2<L: Lane>(ptr: *const L, len: usize, empty: u64) -> u64 {
        let step = L::PER_128;
        let emptyv = L::splat128(empty);
        let mut mask = 0u64;
        let mut j = 0;
        while j + step <= len {
            let w = _mm_loadu_si128(ptr.add(j).cast());
            let eq = L::bits128(L::eq128(w, emptyv)) as u64;
            mask |= (!eq & ((1 << step) - 1)) << j;
            j += step;
        }
        mask | tail_nonempty(ptr, j, len, empty)
    }

    /// Scalar tail of the `<=` scan over `[i, end)` (raw loads — same
    /// lanes the vector body would have examined, widened compares).
    #[inline(always)]
    unsafe fn tail_le<L: Lane>(
        ptr: *const L,
        mut i: usize,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read().widen();
            if c & key_mask <= threshold {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }

    /// Scalar tail of the key-or-empty scan over `[i, end)`.
    #[inline(always)]
    unsafe fn tail_key<L: Lane>(
        ptr: *const L,
        mut i: usize,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read().widen();
            if c == empty || c & key_mask == probe_masked {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }

    /// Scalar tail of the occupancy mask over `[j, len)`.
    #[inline(always)]
    unsafe fn tail_nonempty<L: Lane>(ptr: *const L, mut j: usize, len: usize, empty: u64) -> u64 {
        let mut mask = 0u64;
        while j < len {
            if ptr.add(j).read().widen() != empty {
                mask |= 1 << j;
            }
            j += 1;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};

    /// Held by every test that sets or asserts on the process-wide tier
    /// override, so they do not fight over it when run concurrently.
    static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` under every tier this machine can execute, restoring
    /// the default afterwards.
    fn for_each_tier(f: impl Fn(SimdTier)) {
        let _guard = TIER_LOCK.lock().unwrap();
        for t in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            set_tier(Some(t));
            f(tier());
        }
        set_tier(None);
    }

    fn cells_of(vals: &[u64]) -> Vec<AtomicU64> {
        vals.iter().map(|&v| AtomicU64::new(v)).collect()
    }

    /// Pseudorandom cell array mixing empties, small and huge values
    /// (both sides of the sign bit, so unsigned compares are stressed).
    fn random_cells(n: usize, seed: u64) -> Vec<AtomicU64> {
        (0..n as u64)
            .map(|i| {
                let h = phc_parutil::hash64(seed ^ i);
                AtomicU64::new(match h % 4 {
                    0 => 0,
                    1 => h | (1 << 63),
                    _ => h >> 16,
                })
            })
            .collect()
    }

    fn scan_le_ref(
        cells: &[AtomicU64],
        start: usize,
        end: usize,
        mask: u64,
        thr: u64,
    ) -> Option<usize> {
        (start..end).find(|&i| cells[i].load(Ordering::Relaxed) & mask <= thr)
    }

    fn scan_key_ref(
        cells: &[AtomicU64],
        start: usize,
        end: usize,
        empty: u64,
        mask: u64,
        probe: u64,
    ) -> Option<usize> {
        (start..end).find(|&i| {
            let c = cells[i].load(Ordering::Relaxed);
            c == empty || c & mask == probe & mask
        })
    }

    #[test]
    fn tiers_agree_on_scan_le() {
        let cells = random_cells(257, 0xA11CE);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 257usize), (3, 250), (100, 103), (7, 7)] {
                for &thr in &[0u64, 1, 1 << 40, u64::MAX >> 16, u64::MAX] {
                    for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                        let expect = scan_le_ref(&cells, start, end, mask, thr);
                        let (got, lanes) = scan_le(&cells, start, end, mask, thr);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) thr {thr:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(
                                v,
                                cells[i].load(Ordering::Relaxed),
                                "hit value, tier {t:?}"
                            );
                        }
                        assert!(lanes <= end - start + 3, "lane count sane");
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_scan_for_key() {
        let cells = random_cells(193, 0xBEE);
        // Pick probes that actually occur plus ones that do not.
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed))
            .collect();
        probes.push(0xDEAD_BEEF_0000_0001);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 193usize), (5, 188), (60, 64)] {
                for &probe in &probes {
                    if probe == 0 {
                        continue; // probe must be a non-empty repr
                    }
                    for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                        let expect = scan_key_ref(&cells, start, end, 0, mask, probe);
                        let (got, _) = scan_for_key(&cells, start, end, 0, mask, probe);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) probe {probe:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(
                                v,
                                cells[i].load(Ordering::Relaxed),
                                "hit value, tier {t:?}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_nonempty_mask() {
        let cells = random_cells(64, 7);
        for_each_tier(|t| {
            for len in [0usize, 1, 2, 3, 4, 7, 8, 31, 63, 64] {
                let expect: u64 = (0..len)
                    .filter(|&j| cells[j].load(Ordering::Relaxed) != 0)
                    .fold(0, |m, j| m | (1 << j));
                assert_eq!(
                    scan_nonempty_mask(&cells[..len], 0),
                    expect,
                    "tier {t:?} len {len}"
                );
            }
        });
    }

    #[test]
    fn nonzero_empty_sentinel() {
        let empty = u64::MAX;
        let cells = cells_of(&[empty, 5, empty, 9, 1, empty]);
        for_each_tier(|t| {
            let (hit, _) = scan_for_empty(&cells, 1, 6, empty);
            assert_eq!(hit, Some((2, empty)), "tier {t:?}");
            assert_eq!(scan_nonempty_mask(&cells, empty), 0b011010, "tier {t:?}");
        });
    }

    #[test]
    fn scan_le_unsigned_order_across_sign_bit() {
        // A cell with the top bit set is *greater* than a small
        // threshold under unsigned order — a signed compare would stop
        // on it. All tiers must skip it.
        let cells = cells_of(&[1 << 63, (1 << 63) | 7, 42]);
        for_each_tier(|t| {
            let (hit, _) = scan_le(&cells, 0, 3, u64::MAX, 1000);
            assert_eq!(hit, Some((2, 42)), "tier {t:?}");
        });
    }

    /// Pseudorandom 32-bit cell array (empties, values straddling the
    /// 32-bit sign bit) for the sub-word kernel differentials.
    fn random_cells_u32(n: usize, seed: u64) -> Vec<AtomicU32> {
        (0..n as u64)
            .map(|i| {
                let h = phc_parutil::hash64(seed ^ i);
                AtomicU32::new(match h % 4 {
                    0 => 0,
                    1 => (h as u32) | (1 << 31),
                    _ => (h as u32) >> 8,
                })
            })
            .collect()
    }

    #[test]
    fn tiers_agree_on_scan_le_u32_cells() {
        let cells = random_cells_u32(261, 0xC0FFEE);
        let reference = |start: usize, end: usize, mask: u64, thr: u64| {
            (start..end).find(|&i| (cells[i].load(Ordering::Relaxed) as u64) & mask <= thr)
        };
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 261usize), (3, 250), (100, 104), (7, 7), (1, 9)] {
                for &thr in &[0u64, 1, 1 << 20, (u32::MAX >> 8) as u64, u32::MAX as u64] {
                    for &mask in &[u64::MAX, 0xFFFF_0000] {
                        let expect = reference(start, end, mask, thr);
                        let (got, lanes) = scan_le(&cells, start, end, mask, thr);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) thr {thr:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(v, cells[i].load(Ordering::Relaxed) as u64);
                            assert!(v <= u32::MAX as u64, "hit value must be zero-extended");
                        }
                        assert!(lanes <= end - start + 7, "lane count sane");
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_scan_for_key_u32_cells() {
        let cells = random_cells_u32(197, 0xBEE5);
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed) as u64)
            .collect();
        probes.push(0xDEAD_0001);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 197usize), (5, 188), (60, 65)] {
                for &probe in &probes {
                    if probe == 0 {
                        continue;
                    }
                    for &mask in &[u64::MAX, 0xFFFF_0000] {
                        let expect = (start..end).find(|&i| {
                            let c = cells[i].load(Ordering::Relaxed) as u64;
                            c == 0 || c & (mask & u32::MAX as u64) == probe & mask & u32::MAX as u64
                        });
                        let (got, _) = scan_for_key(&cells, start, end, 0, mask, probe);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) probe {probe:#x} mask {mask:#x}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_nonempty_mask_u32_cells() {
        let cells = random_cells_u32(64, 11);
        for_each_tier(|t| {
            for len in [0usize, 1, 3, 4, 5, 8, 9, 31, 63, 64] {
                let expect: u64 = (0..len)
                    .filter(|&j| cells[j].load(Ordering::Relaxed) != 0)
                    .fold(0, |m, j| m | (1 << j));
                assert_eq!(
                    scan_nonempty_mask(&cells[..len], 0),
                    expect,
                    "tier {t:?} len {len}"
                );
            }
        });
    }

    #[test]
    fn u32_scan_le_unsigned_order_across_sign_bit() {
        // The 32-bit sign-bias trick: a cell with bit 31 set is greater
        // than a small threshold under unsigned order.
        let cells: Vec<AtomicU32> = [1u32 << 31, (1 << 31) | 7, 42]
            .iter()
            .map(|&v| AtomicU32::new(v))
            .collect();
        for_each_tier(|t| {
            let (hit, _) = scan_le(&cells, 0, 3, u64::MAX, 1000);
            assert_eq!(hit, Some((2, 42)), "tier {t:?}");
        });
    }

    #[test]
    fn env_default_is_clamped_and_stable() {
        let _guard = TIER_LOCK.lock().unwrap();
        let a = tier();
        let b = tier();
        assert_eq!(a, b);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(a, SimdTier::Scalar);
    }

    #[test]
    fn set_tier_round_trips() {
        let _guard = TIER_LOCK.lock().unwrap();
        set_tier(Some(SimdTier::Scalar));
        assert_eq!(tier(), SimdTier::Scalar);
        set_tier(None);
        assert_eq!(tier(), env_tier());
    }
}
