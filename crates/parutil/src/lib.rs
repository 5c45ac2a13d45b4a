//! PBBS-style parallel primitives underpinning the phase-concurrent hash
//! table reproduction.
//!
//! The SPAA'14 paper builds on the Problem Based Benchmark Suite's
//! sequence primitives: parallel prefix sums (`scan`), parallel pack
//! (`pack`), deterministic hash-based random number generation for
//! reproducible inputs, and bump arenas for variable-sized payloads that
//! the hash tables store by pointer. This crate provides those
//! substrates on top of [rayon]'s work-stealing fork-join model (the
//! paper used Cilk Plus, which has the same model).
//!
//! Everything here is deterministic: given the same inputs, `scan` and
//! `pack` produce identical outputs regardless of how rayon schedules
//! the blocks, and [`rng`] derives all randomness by hashing indices so
//! parallel generation is order-independent.
//!
//! The crate root holds the grain helpers the tables' batched paths are
//! built on: [`grain`], [`for_each_grain`], and — for operations that
//! return one result per item — [`for_each_grain_into`] over an output
//! sized once with [`append_with`], so that every chunk writes its own
//! part of one buffer instead of returning a buffer to be concatenated.

#![warn(missing_docs)]

pub mod arena;
pub mod pack;
pub mod pool;
pub mod rng;
pub mod scan;

pub use arena::Arena;
pub use pack::{
    pack, pack_index, pack_index_with_mask, pack_with, pack_with_mask, pack_with_mask_into,
};
pub use pool::{run_with_threads, with_pool};
pub use rng::{hash64, hash64_pair, IndexRng};
pub use scan::{scan_exclusive, scan_inclusive, scan_inplace_exclusive};

/// Default grain size for blocked parallel loops.
///
/// Chosen so that per-block scheduling overhead is negligible relative to
/// the work of a block while still exposing ample parallelism for tables
/// of ≥ 2^20 cells.
pub const DEFAULT_GRAIN: usize = 2048;

/// Grain size for blocked parallel loops: [`DEFAULT_GRAIN`]. Every
/// blocked primitive in this crate (and the batched table paths) uses
/// it.
pub fn grain() -> usize {
    DEFAULT_GRAIN
}

/// Runs `f` on each [`grain`]-sized chunk of `items`: on the calling
/// thread when there is a single chunk (a pool dispatch buys a handful
/// of keys nothing), on the pool otherwise.
pub fn for_each_grain<T: Sync>(items: &[T], f: impl Fn(&[T]) + Send + Sync) {
    use rayon::prelude::*;
    if items.len() <= grain() {
        f(items)
    } else {
        items.par_chunks(grain()).for_each(f)
    }
}

/// [`for_each_grain`] for chunk functions that produce one result per
/// item: each chunk of `items` is handed the same-index chunk of `out`
/// to fill, so results land in item order whichever thread ran each
/// chunk — with no per-chunk buffer and nothing to concatenate.
///
/// # Panics
///
/// Panics unless `out` is as long as `items`.
pub fn for_each_grain_into<T: Sync, R: Send>(
    items: &[T],
    out: &mut [R],
    f: impl Fn(&[T], &mut [R]) + Send + Sync,
) {
    use rayon::prelude::*;
    assert_eq!(items.len(), out.len());
    let grain = grain();
    if items.len() <= grain {
        f(items, out)
    } else {
        out.par_chunks_mut(grain)
            .zip(items.par_chunks(grain))
            .for_each(|(slots, chunk)| f(chunk, slots))
    }
}

/// Appends `n` elements to `out`, written in place by `fill`: how a
/// batch operation that *appends* its results sizes its output once, up
/// front, for a kernel that then writes each slot by index. `fill` gets
/// the `n` slots behind `out`'s contents, uninitialised — filling them
/// with a placeholder first is a second pass over the output, which on
/// cache-resident tables measured 2–7% of a batched lookup
/// (EXPERIMENTS.md PR 18).
///
/// # Safety
///
/// `fill` must initialise every slot of the slice it is handed.
pub unsafe fn append_with<R>(
    out: &mut Vec<R>,
    n: usize,
    fill: impl FnOnce(&mut [std::mem::MaybeUninit<R>]),
) {
    out.reserve(n);
    fill(&mut out.spare_capacity_mut()[..n]);
    // SAFETY: `reserve` made room for `n` more elements, and `fill`
    // initialised them (this function's contract). Had it panicked
    // instead, the length would have stayed where it was.
    unsafe { out.set_len(out.len() + n) };
}

/// Splits `n` items into blocks of roughly `grain` items and returns the
/// number of blocks. Zero items yield zero blocks.
#[inline]
pub fn num_blocks(n: usize, grain: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.div_ceil(grain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_blocks_edges() {
        assert_eq!(num_blocks(0, 100), 0);
        assert_eq!(num_blocks(1, 100), 1);
        assert_eq!(num_blocks(100, 100), 1);
        assert_eq!(num_blocks(101, 100), 2);
        assert_eq!(num_blocks(200, 100), 2);
    }
}
