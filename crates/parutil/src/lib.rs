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

#[cfg(test)]
mod grain_tests {
    // One test covers the latch *and* the override because they share
    // process-global state: asserting the default, the stale env read,
    // and the live override in sequence avoids ordering races with a
    // concurrently running sibling test.
    #[test]
    fn grain_env_is_latched_but_override_is_live() {
        // PHC_GRAIN is unset in the test environment, so the once-read
        // value must be the compiled default.
        assert_eq!(super::grain(), super::DEFAULT_GRAIN);
        // The documented footgun: writing the env var *after* the
        // first read has no effect — the value is latched.
        std::env::set_var("PHC_GRAIN", "7");
        assert_eq!(super::grain(), super::DEFAULT_GRAIN);
        std::env::remove_var("PHC_GRAIN");
        // The in-process override takes effect immediately.
        super::set_grain_for_test(Some(7));
        assert_eq!(super::grain(), 7);
        super::set_grain_for_test(None);
        assert_eq!(super::grain(), super::DEFAULT_GRAIN);
    }
}

/// Default grain size for blocked parallel loops.
///
/// Chosen so that per-block scheduling overhead is negligible relative to
/// the work of a block while still exposing ample parallelism for tables
/// of ≥ 2^20 cells.
pub const DEFAULT_GRAIN: usize = 2048;

/// In-process override for [`grain`] (0 = no override). Unlike the
/// env knob, which is latched at first use, this is read on every
/// call, so tests and long-lived servers can retune without a
/// re-exec.
static GRAIN_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Overrides the grain returned by [`grain`] for the current process
/// (`None` restores the `PHC_GRAIN`/default behavior). The env knob
/// is read once and latched — setting `PHC_GRAIN` after the first
/// [`grain`] call silently does nothing — so this is the supported
/// way to change the grain after startup (mirroring
/// `phc_core::simd::set_tier`).
pub fn set_grain_for_test(grain: Option<usize>) {
    GRAIN_OVERRIDE.store(grain.unwrap_or(0), std::sync::atomic::Ordering::SeqCst);
}

/// Grain size for blocked parallel loops: the in-process override
/// ([`set_grain_for_test`]) if one is set, else the `PHC_GRAIN`
/// environment variable (read **once**, at first use), else
/// [`DEFAULT_GRAIN`]. Lets benchmarks sweep grain sizes without
/// rebuilding; every blocked primitive in this crate (and the batched
/// table paths) uses it.
pub fn grain() -> usize {
    let o = GRAIN_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static GRAIN: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *GRAIN.get_or_init(|| {
        std::env::var("PHC_GRAIN")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&g: &usize| g > 0)
            .unwrap_or(DEFAULT_GRAIN)
    })
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

/// [`for_each_grain`] for chunk functions that return results: the
/// chunks' outputs concatenated in chunk order, whichever thread ran
/// each.
pub fn flat_map_grain<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&[T]) -> Vec<R> + Send + Sync,
) -> Vec<R> {
    use rayon::prelude::*;
    if items.len() <= grain() {
        f(items)
    } else {
        items.par_chunks(grain()).flat_map_iter(f).collect()
    }
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
