//! Parallel pack (filter) built on [`scan`](crate::scan).
//!
//! `pack` is the engine of the hash table's `elements()` operation: it
//! compacts the non-empty cells of the table array into a contiguous
//! output while preserving index order. Because the offsets come from a
//! deterministic prefix sum, the packed output is identical across runs
//! and thread counts — the property the paper relies on for determinism.

use rayon::prelude::*;

use crate::grain;
use crate::scan::scan_exclusive;

/// Packs the elements of `input` satisfying `keep` into a new vector,
/// preserving their relative order.
///
/// ```
/// let out = phc_parutil::pack(&[1, 2, 3, 4, 5, 6], |&x| x % 2 == 0);
/// assert_eq!(out, vec![2, 4, 6]);
/// ```
pub fn pack<T, F>(input: &[T], keep: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    pack_with(input, |x| if keep(x) { Some(x.clone()) } else { None })
}

/// Packs `f(x)` for every element where `f` returns `Some`, preserving
/// order. This is a fused filter+map so callers can transform table cells
/// (e.g. unpack an atomic word into an entry) in one pass.
///
/// `f` is evaluated **exactly once per element**: each block collects
/// its survivors into a local buffer during the count pass, and the
/// write pass just moves those buffers to their scanned offsets. (The
/// obvious two-pass formulation re-evaluates `f` in the write pass —
/// doubling the work for closures that do atomic loads + unpacking.)
pub fn pack_with<T, U, F>(input: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Send + Sync,
{
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let grain = grain();
    let mut buffers: Vec<Vec<U>> = input
        .par_chunks(grain)
        .map(|chunk| chunk.iter().filter_map(&f).collect())
        .collect();
    let counts: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let (offsets, total) = scan_exclusive(&counts);
    let mut out: Vec<U> = Vec::with_capacity(total);
    // SAFETY: every slot in 0..total is written exactly once below —
    // block b writes the half-open range [offsets[b], offsets[b] + counts[b])
    // and those ranges partition 0..total by construction of the scan.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(total);
    }
    let out_ptr = SendPtr(out.as_mut_ptr());
    buffers
        .par_iter_mut()
        .zip(offsets.par_iter())
        .for_each(|(buf, &offset)| {
            // Rebind to capture the SendPtr by value (Send, not Sync).
            #[allow(clippy::redundant_locals)]
            let out_ptr = out_ptr;
            // SAFETY: moves the buffer's elements into this block's
            // disjoint range (see above); set_len(0) forgets the moved
            // values so they are not dropped twice.
            unsafe {
                std::ptr::copy_nonoverlapping(buf.as_ptr(), out_ptr.0.add(offset), buf.len());
                buf.set_len(0);
            }
        });
    out
}

/// Returns the indices `i` for which `keep(&input[i])` holds, in order.
///
/// Like [`pack_with`], `keep` is evaluated exactly once per element.
pub fn pack_index<T, F>(input: &[T], keep: F) -> Vec<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let grain = grain();
    let mut buffers: Vec<Vec<usize>> = input
        .par_chunks(grain)
        .enumerate()
        .map(|(b, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(|(j, x)| keep(x).then_some(b * grain + j))
                .collect()
        })
        .collect();
    let counts: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let (offsets, total) = scan_exclusive(&counts);
    let mut out: Vec<usize> = Vec::with_capacity(total);
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(total);
    }
    let out_ptr = SendPtr(out.as_mut_ptr());
    buffers
        .par_iter_mut()
        .zip(offsets.par_iter())
        .for_each(|(buf, &offset)| {
            // Rebind to capture the SendPtr by value (Send, not Sync).
            #[allow(clippy::redundant_locals)]
            let out_ptr = out_ptr;
            // SAFETY: disjoint ranges; usize is Copy so no double drop.
            unsafe {
                std::ptr::copy_nonoverlapping(buf.as_ptr(), out_ptr.0.add(offset), buf.len());
                buf.set_len(0);
            }
        });
    out
}

/// Packs `decode(x)` for every element whose bit is set in the
/// occupancy masks produced by `mask_of`, preserving index order.
///
/// This is the mask counterpart of [`pack_with`]: instead of evaluating
/// a per-element predicate, the count pass asks `mask_of` for a
/// **bitmask per window of up to 64 elements** (bit `j` set ⇔
/// `window[j]` survives) — the shape of a hash table's occupancy mask —
/// and popcounts it. The masks
/// are computed once, kept per block, and the write pass decodes just
/// the set bits into each block's disjoint output range, so `decode`
/// runs exactly once per survivor and never on a dropped element.
///
/// Like [`pack_with`], the output is a pure function of the input:
/// offsets come from a deterministic prefix sum over the per-block
/// popcounts, independent of thread count or scheduling.
pub fn pack_with_mask<T, U, M, F>(input: &[T], mask_of: M, decode: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    M: Fn(&[T]) -> u64 + Send + Sync,
    F: Fn(&T) -> U + Send + Sync,
{
    let mut out = Vec::new();
    pack_with_mask_impl(input, mask_of, |_, x| decode(x), &mut out);
    out
}

/// [`pack_with_mask`] into a caller-provided buffer: the packed
/// entries are **appended** to `out` (existing contents are
/// preserved), so a caller that packs repeatedly (the KV server's
/// per-shard export loop, for one) reuses one allocation instead of
/// paying a fresh `Vec` per call — and a multi-source caller can pack
/// several inputs into one buffer back to back. The appended suffix is
/// byte-identical to what [`pack_with_mask`] returns.
pub fn pack_with_mask_into<T, U, M, F>(input: &[T], mask_of: M, decode: F, out: &mut Vec<U>)
where
    T: Sync,
    U: Send,
    M: Fn(&[T]) -> u64 + Send + Sync,
    F: Fn(&T) -> U + Send + Sync,
{
    pack_with_mask_impl(input, mask_of, |_, x| decode(x), out);
}

/// Returns the indices of the set bits of the occupancy masks produced
/// by `mask_of`, in ascending order — the index-only counterpart of
/// [`pack_with_mask`] (cf. [`pack_index`]).
pub fn pack_index_with_mask<T, M>(input: &[T], mask_of: M) -> Vec<usize>
where
    T: Sync,
    M: Fn(&[T]) -> u64 + Send + Sync,
{
    let mut out = Vec::new();
    pack_with_mask_impl(input, mask_of, |i, _| i, &mut out);
    out
}

/// Shared engine: packs `decode(index, element)` for each set bit of
/// the per-window masks, in ascending index order, **appended** to
/// `out` (existing contents and capacity are preserved).
fn pack_with_mask_impl<T, U, M, F>(input: &[T], mask_of: M, decode: F, out: &mut Vec<U>)
where
    T: Sync,
    U: Send,
    M: Fn(&[T]) -> u64 + Send + Sync,
    F: Fn(usize, &T) -> U + Send + Sync,
{
    let n = input.len();
    if n == 0 {
        return;
    }
    let block = grain().next_multiple_of(64);
    let blocks: Vec<(usize, Vec<u64>)> = input
        .par_chunks(block)
        .enumerate()
        .map(|(b, chunk)| (b * block, chunk.chunks(64).map(&mask_of).collect()))
        .collect();
    let counts: Vec<usize> = blocks
        .iter()
        .map(|(_, masks)| masks.iter().map(|m| m.count_ones() as usize).sum())
        .collect();
    let (offsets, total) = scan_exclusive(&counts);
    let base = out.len();
    out.reserve(total);
    // SAFETY: every slot in base..base+total is written exactly once by
    // the disjoint per-block ranges below; the prior contents in
    // 0..base are untouched.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(base + total);
    }
    let out_ptr = SendPtr(unsafe { out.as_mut_ptr().add(base) });
    blocks
        .par_iter()
        .zip(offsets.par_iter())
        .for_each(|((base, masks), &offset)| {
            #[allow(clippy::redundant_locals)]
            let out_ptr = out_ptr;
            let mut cursor = offset;
            for (w, &m) in masks.iter().enumerate() {
                let win_base = base + w * 64;
                let mut bits = m;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let idx = win_base + j;
                    // SAFETY: disjoint range per block (see
                    // `pack_with_mask`).
                    unsafe {
                        out_ptr.0.add(cursor).write(decode(idx, &input[idx]));
                    }
                    cursor += 1;
                }
            }
        });
}

/// A raw pointer wrapper that asserts cross-thread transferability.
///
/// Sound only because each thread writes a disjoint range (guaranteed by
/// the exclusive scan of per-block counts).
struct SendPtr<U>(*mut U);
impl<U> Clone for SendPtr<U> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<U> Copy for SendPtr<U> {}
unsafe impl<U: Send> Send for SendPtr<U> {}
unsafe impl<U: Send> Sync for SendPtr<U> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = pack(&[], |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn keep_all() {
        let input: Vec<u32> = (0..10_000).collect();
        assert_eq!(pack(&input, |_| true), input);
    }

    #[test]
    fn keep_none() {
        let input: Vec<u32> = (0..10_000).collect();
        assert!(pack(&input, |_| false).is_empty());
    }

    #[test]
    fn keep_every_third_preserves_order() {
        let input: Vec<u32> = (0..100_000).collect();
        let out = pack(&input, |&x| x % 3 == 0);
        let expect: Vec<u32> = (0..100_000).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pack_with_transforms() {
        let input: Vec<u32> = (0..50_000).collect();
        let out = pack_with(&input, |&x| if x % 2 == 0 { Some(x * 10) } else { None });
        let expect: Vec<u32> = (0..50_000).filter(|x| x % 2 == 0).map(|x| x * 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pack_index_matches_positions() {
        let input: Vec<u32> = (0..30_000).map(|i| i % 7).collect();
        let idx = pack_index(&input, |&x| x == 0);
        let expect: Vec<usize> = (0..30_000).filter(|i| i % 7 == 0).collect();
        assert_eq!(idx, expect);
    }

    #[test]
    fn pack_with_evaluates_closure_once_per_element() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let input: Vec<u32> = (0..100_000).collect();
        let calls = AtomicUsize::new(0);
        let out = pack_with(&input, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            (x % 4 == 0).then_some(x)
        });
        assert_eq!(calls.load(Ordering::Relaxed), input.len());
        assert_eq!(out.len(), 25_000);
    }

    #[test]
    fn pack_index_evaluates_predicate_once_per_element() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let input: Vec<u32> = (0..100_000).collect();
        let calls = AtomicUsize::new(0);
        let idx = pack_index(&input, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x % 10 == 0
        });
        assert_eq!(calls.load(Ordering::Relaxed), input.len());
        assert_eq!(idx.len(), 10_000);
    }

    #[test]
    fn pack_with_drops_no_survivors() {
        // Moved (not re-evaluated, not leaked) values: every survivor
        // is dropped exactly once by the caller of pack_with.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let input: Vec<u32> = (0..10_000).collect();
        let out = pack_with(&input, |&x| (x % 2 == 0).then(|| D));
        assert_eq!(out.len(), 5_000);
        let before = DROPS.load(Ordering::Relaxed);
        drop(out);
        assert_eq!(DROPS.load(Ordering::Relaxed) - before, 5_000);
    }

    /// Reference mask closure: bit j set ⇔ window[j] is odd.
    fn odd_mask(win: &[u64]) -> u64 {
        win.iter()
            .enumerate()
            .fold(0, |m, (j, &x)| m | (u64::from(x % 2 == 1) << j))
    }

    #[test]
    fn pack_with_mask_matches_pack_with() {
        for n in [0usize, 1, 63, 64, 65, 4096, 100_000] {
            let input: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let expect = pack_with(&input, |&x| (x % 2 == 1).then_some(x * 3));
            let got = pack_with_mask(&input, odd_mask, |&x| x * 3);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn pack_with_mask_into_appends() {
        let input: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let expect = pack_with_mask(&input, odd_mask, |&x| x * 3);
        let mut out = vec![u64::MAX; 100]; // prior contents must survive
        pack_with_mask_into(&input, odd_mask, |&x| x * 3, &mut out);
        assert_eq!(out[..100], [u64::MAX; 100]);
        assert_eq!(out[100..], expect[..]);
    }

    #[test]
    fn pack_with_mask_into_reuses_buffer() {
        let input: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let expect = pack_with_mask(&input, odd_mask, |&x| x * 3);
        let mut out = Vec::new();
        pack_with_mask_into(&input, odd_mask, |&x| x * 3, &mut out);
        assert_eq!(out, expect);
        let cap = out.capacity();
        out.clear();
        pack_with_mask_into(&input, odd_mask, |&x| x * 3, &mut out);
        assert_eq!(out, expect);
        assert_eq!(out.capacity(), cap, "second pack must not reallocate");
    }

    #[test]
    fn pack_with_mask_into_empty_input_preserves_buffer() {
        let mut out = vec![7u64, 8, 9];
        pack_with_mask_into(&[], odd_mask, |&x: &u64| x, &mut out);
        assert_eq!(out, [7, 8, 9]);
    }

    #[test]
    fn pack_index_with_mask_matches_pack_index() {
        let input: Vec<u64> = (0..70_000u64).map(|i| i.wrapping_mul(31)).collect();
        let expect = pack_index(&input, |&x| x % 2 == 1);
        assert_eq!(pack_index_with_mask(&input, odd_mask), expect);
    }

    #[test]
    fn pack_with_mask_decodes_survivors_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let input: Vec<u64> = (0..50_000).collect();
        let calls = AtomicUsize::new(0);
        let out = pack_with_mask(&input, odd_mask, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 25_000);
        assert_eq!(calls.load(Ordering::Relaxed), 25_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let input: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let a = pack(&input, |&x| x % 5 < 2);
        let b = pack(&input, |&x| x % 5 < 2);
        assert_eq!(a, b);
    }
}
