//! Scalar stop scans, and a tier API whose only tier is `Scalar`.
//!
//! These names stay because the repo benchmark compiles against them
//! and times the scans per tier. The probe engine ([`crate::probe`])
//! never calls them, and the SSE2 / AVX2 kernels once behind them are
//! deleted (DESIGN.md §5.4). Every tier request clamps to `Scalar`.

use std::sync::atomic::Ordering;

use crate::cell::CellAtomic;

/// A scan tier. Every request resolves to `Scalar`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Per-cell atomic loads: the only tier there is.
    Scalar,
    /// Withdrawn; requests for it run `Scalar`.
    Sse2,
    /// Withdrawn; requests for it run `Scalar`.
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// The active tier: always [`SimdTier::Scalar`].
pub fn tier() -> SimdTier {
    SimdTier::Scalar
}

/// Requests a tier; every request clamps to `Scalar`.
pub fn set_tier(_tier: Option<SimdTier>) {}

/// The first stop index with the value seen there, and cells examined.
type Hit = (Option<(usize, u64)>, usize);

/// First `i` in `[start, end)` with `cells[i] & mask <= thr` (unsigned):
/// under the [`SIMD_KEY_MASK`](crate::entry::HashEntry::SIMD_KEY_MASK)
/// contract, the prioritized probe's stop condition.
pub fn scan_le<A: CellAtomic>(cells: &[A], start: usize, end: usize, mask: u64, thr: u64) -> Hit {
    scan(&cells[start..end], start, |c| c & mask <= thr)
}

/// First `i` in `[start, end)` with `cells[i] == empty` or `cells[i] &
/// mask == probe & mask`: the first-fit probe's stop condition.
pub fn scan_for_key<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    empty: u64,
    mask: u64,
    probe: u64,
) -> Hit {
    let stop = |c: u64| c == empty || c & mask == probe & mask;
    scan(&cells[start..end], start, stop)
}

fn scan<A: CellAtomic>(window: &[A], start: usize, stop: impl Fn(u64) -> bool) -> Hit {
    let cells = window.iter().map(|c| c.load(Ordering::Acquire));
    match cells.enumerate().find(|&(_, c)| stop(c)) {
        Some((lane, c)) => (Some((start + lane, c)), lane + 1),
        None => (None, window.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};

    #[test]
    fn scan_le_unsigned_order_across_sign_bit() {
        let cells = [1 << 63, (1 << 63) | 7, 42].map(AtomicU64::new);
        assert_eq!(scan_le(&cells, 0, 3, u64::MAX, 1000), (Some((2, 42)), 3));
        let cells = [1 << 31, (1 << 31) | 7, 42].map(AtomicU32::new);
        assert_eq!(scan_le(&cells, 0, 3, u64::MAX, 1000), (Some((2, 42)), 3));
    }

    #[test]
    fn nonzero_empty_sentinel() {
        let e = u64::MAX;
        let cells = [e, 5, e, 9, 1, e].map(AtomicU64::new);
        assert_eq!(scan_for_key(&cells, 1, 6, e, !0, 7), (Some((2, e)), 2));
        assert_eq!(scan_for_key(&cells, 3, 6, e, !0, 1), (Some((4, 1)), 2));
    }

    #[test]
    fn set_tier_clamps_every_request_to_scalar() {
        set_tier(Some(SimdTier::Avx2));
        assert_eq!(tier(), SimdTier::Scalar);
    }
}
