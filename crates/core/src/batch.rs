//! Software prefetching for batched table operations.
//!
//! Linear probing at scale is bound by memory latency, not CAS cost
//! (Maier et al., "Concurrent Hash Tables: Fast and General?(!)"):
//! each operation starts with a cache miss on its home slot, and a
//! per-element loop serializes those misses. The engine's batch loops
//! ([`crate::probe`]: insert, find and delete alike, for every table
//! over the engine) process a slice of operations per scheduler chunk
//! and issue a prefetch for the home slot of the entry
//! [`PREFETCH_AHEAD`] positions ahead before probing the current one,
//! keeping that many misses in flight and letting the memory system
//! overlap them.
//!
//! Prefetching is a pure performance hint: it never changes which
//! cells are read or written, so the deterministic layout and
//! history-independence guarantees are untouched.

use crate::cell::CellAtomic;

/// How many operations ahead the batch loops prefetch — one distance
/// for inserts, finds and deletes, at every pool width.
///
/// An independent random read of a table far beyond the last-level
/// cache costs 9–10 ns on the bench box, so a distance of 8 (PR 4's
/// value, tuned on a one-core box) leaves the loop waiting on memory:
/// swept 8 / 16 / 32 on 4 Mi keys in a 64 MiB table, insert reads 30 /
/// 22 / 25 ns per key, find 35 / 27 / 32 and delete 46 / 39 / 41
/// (medians of six interleaved rounds, EXPERIMENTS.md PR 18). 16 is the
/// knee; beyond it nothing is gained.
///
/// There is deliberately no shorter distance for inserts on a
/// multi-worker pool. PR 4 clamped them to 2 there, measured with two
/// threads time-slicing *one* core — where a deep write pipeline only
/// evicts the other thread's lines. On two real cores the clamp erased
/// the width-2 insert speed-up on a shared table (29 ns per key
/// clamped, 17 unclamped, slower in 6 of 6 rounds), and a server shard
/// is written by one worker at a time anyway.
pub const PREFETCH_AHEAD: usize = 16;

/// Hints the memory system to pull `cells[idx]`'s cache line toward
/// the core. On x86_64 this is `prefetcht0`; elsewhere it degrades to
/// a plain relaxed load (which also brings the line in, at the cost of
/// occupying a load slot). Generic over the cell width: prefetching a
/// 32-bit cell pulls the same cache line a 64-bit cell would.
#[inline(always)]
pub fn prefetch_slot<A: CellAtomic>(cells: &[A], idx: usize) {
    debug_assert!(idx < cells.len());
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(cells.as_ptr().add(idx) as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::atomic::Ordering;
        let _ = cells[idx].load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn prefetch_is_side_effect_free() {
        let cells: Vec<AtomicU64> = (0..64).map(AtomicU64::new).collect();
        for i in 0..cells.len() {
            prefetch_slot(&cells, i);
        }
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), i as u64);
        }
    }
}
