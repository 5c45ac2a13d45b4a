//! In-repo stand-in for the `rayon` crate.
//!
//! This workspace builds in environments with no access to crates.io,
//! so the subset of rayon's API the workspace actually uses is
//! reimplemented here. The model is a simplified version of rayon's
//! producer/consumer architecture:
//!
//! * a [`Producer`] is an indexed, splittable source (slice, range,
//!   `Vec`, chunks, zip, enumerate, …);
//! * an [`Adapter`] is the chain of per-item adaptors (`map`, `filter`,
//!   `filter_map`, `flat_map_iter`, `flatten`, `copied`, `cloned`); it
//!   turns one piece's sequential iterator into the matching
//!   `std::iter` adaptor over its borrowed closures;
//! * [`ParIter`] pairs the two. A terminal (`for_each`, `sum`,
//!   `collect`, …) cuts the producer into at most
//!   `current_num_threads() * 4` contiguous pieces (respecting
//!   `with_min_len`) and runs each adapted piece as one monomorphic
//!   loop. Results come back in piece order, so order-sensitive
//!   terminals (`collect`) behave exactly like rayon's indexed
//!   counterparts. A lone piece — always so at width 1 — runs on the
//!   calling thread and allocates nothing.
//!
//! Pieces run on a **persistent work-stealing worker pool** (see
//! [`pool`]): workers are spawned once (lazily) and parked when idle; a
//! parallel call publishes a job descriptor and participants claim
//! pieces from a shared atomic cursor, so load imbalance is absorbed by
//! stealing instead of blocking behind the slowest fixed share. Pieces
//! write results by index, and piece boundaries depend only on (len,
//! min_len, width), which keeps every order-sensitive terminal
//! deterministic under stealing. The pool width defaults to the
//! machine's parallelism and can be pinned once per process with the
//! `PHC_THREADS` environment variable.
//!
//! Differences from real rayon, none observable by this workspace:
//! stealing is cursor-based rather than deque-based, reductions do not
//! short-circuit across pieces, and adaptors that change the item count
//! end the indexed part of a chain (`zip`, `enumerate` and `rev` apply
//! to the source only).

use std::cell::Cell;

pub mod pool;

pub use pool::set_threads_for_test;

pub mod prelude {
    //! The traits needed to call parallel-iterator methods.
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

// ---------------------------------------------------------------------------
// Thread accounting: a thread-local "current pool width".
// ---------------------------------------------------------------------------

thread_local! {
    pub(crate) static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel iterators will use on this thread:
/// the installed width, or the persistent pool's size (`PHC_THREADS`
/// or the machine's available parallelism).
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|c| c.get())
        .unwrap_or_else(pool::configured_pool_size)
}

/// Applies a pool width for the duration of `f`, restoring the
/// previous width afterwards (also on unwind).
fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(POOL_THREADS.with(|c| c.replace(Some(width))));
    f()
}

/// A width-limited view of the persistent worker pool.
/// [`ThreadPool::install`] runs a closure *on* a pool worker with the
/// pool's width applied; parallel iterators under it claim chunks with
/// at most `num_threads` concurrent participants.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The width this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` on one of the persistent pool's worker threads with
    /// this pool's width installed, blocking until it completes.
    /// Called from inside a pool worker (nested `install`), it runs in
    /// place with the width swapped in and restored afterwards.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let width = self.threads;
        if pool::on_worker() {
            return with_width(width, f);
        }
        let func = pool::SyncCell::new(Some(f));
        let out = pool::SyncCell::new(None);
        let chunk = |_i: usize| {
            // SAFETY: a one-shot job runs its single chunk exactly once.
            let f = unsafe { (*func.get()).take().expect("install closure ran twice") };
            let r = f();
            unsafe { *out.get() = Some(r) };
        };
        pool::run_oneshot(width, &chunk);
        out.into_inner().expect("install closure did not run")
    }
}

/// Builder matching `rayon::ThreadPoolBuilder`'s used surface.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: Option<usize>,
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.threads.unwrap_or_else(current_num_threads),
        })
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let width = current_num_threads();
    if width <= 1 {
        return (a(), b());
    }
    let funcs = (pool::SyncCell::new(Some(a)), pool::SyncCell::new(Some(b)));
    let ra = pool::SyncCell::new(None);
    let rb = pool::SyncCell::new(None);
    let chunk = |i: usize| {
        // SAFETY: the cursor hands each chunk index to exactly one
        // participant, so each cell pair is touched by one thread.
        unsafe {
            if i == 0 {
                let f = (*funcs.0.get()).take().expect("join arm ran twice");
                *ra.get() = Some(f());
            } else {
                let f = (*funcs.1.get()).take().expect("join arm ran twice");
                *rb.get() = Some(f());
            }
        }
    };
    pool::run_job(2, width, &chunk);
    (
        ra.into_inner().expect("join arm did not run"),
        rb.into_inner().expect("join arm did not run"),
    )
}

// ---------------------------------------------------------------------------
// Producers: indexed splittable sources.
// ---------------------------------------------------------------------------

/// An indexed source of `len` items that can be split at an index and
/// turned into a sequential iterator.
pub trait Producer: Sized + Send {
    /// Item produced.
    type Item: Send;
    /// Whether no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Sequential iterator over one piece.
    type IntoIter: Iterator<Item = Self::Item>;

    /// Number of items.
    fn len(&self) -> usize;
    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// Sequential iteration over the whole piece.
    fn into_iter(self) -> Self::IntoIter;
}

/// Producer over `&[T]`.
pub struct SliceProducer<'a, T>(&'a [T]);

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (SliceProducer(l), SliceProducer(r))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'a, T>(&'a mut [T]);

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (SliceMutProducer(l), SliceMutProducer(r))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

/// Producer over an owned `Vec<T>`.
pub struct VecProducer<T>(Vec<T>);

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let right = self.0.split_off(index);
        (self, VecProducer(right))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Producer over an integer range.
pub struct RangeProducer<T> {
    start: T,
    end: T,
}

macro_rules! range_producer {
    ($($t:ty),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type IntoIter = std::ops::Range<$t>;
            fn len(&self) -> usize {
                if self.end > self.start { (self.end - self.start) as usize } else { 0 }
            }
            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.start + index as $t;
                (
                    RangeProducer { start: self.start, end: mid },
                    RangeProducer { start: mid, end: self.end },
                )
            }
            fn into_iter(self) -> Self::IntoIter {
                self.start..self.end
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                ParIter::new(RangeProducer { start: self.start, end: self.end })
            }
        }

        impl IntoParallelIterator for std::ops::RangeInclusive<$t> {
            type Item = $t;
            type Iter = ParIter<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let (start, end) = (*self.start(), *self.end());
                let (start, end) =
                    if start > end { (start, start) } else { (start, end + 1) };
                ParIter::new(RangeProducer { start, end })
            }
        }
    )*};
}

range_producer!(u16, u32, u64, usize, i32, i64);

/// Producer of `&[T]` chunks.
pub struct ChunksProducer<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(mid);
        (
            ChunksProducer {
                slice: l,
                size: self.size,
            },
            ChunksProducer {
                slice: r,
                size: self.size,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
}

/// Producer of `&mut [T]` chunks.
pub struct ChunksMutProducer<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(mid);
        (
            ChunksMutProducer {
                slice: l,
                size: self.size,
            },
            ChunksMutProducer {
                slice: r,
                size: self.size,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
}

/// Producer zipping two producers (length = shorter side).
pub struct ZipProducer<A, B>(A, B);

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    fn len(&self) -> usize {
        self.0.len().min(self.1.len())
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.0.split_at(index);
        let (bl, br) = self.1.split_at(index);
        (ZipProducer(al, bl), ZipProducer(ar, br))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().zip(self.1.into_iter())
    }
}

/// Producer pairing items with their global index.
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = std::iter::Zip<std::ops::Range<usize>, P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: l,
                offset: self.offset,
            },
            EnumerateProducer {
                base: r,
                offset: self.offset + index,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        let n = self.base.len();
        (self.offset..self.offset + n).zip(self.base.into_iter())
    }
}

/// Producer yielding the base in reverse order.
pub struct RevProducer<P>(P);

impl<P: Producer> Producer for RevProducer<P>
where
    P::IntoIter: DoubleEndedIterator,
{
    type Item = P::Item;
    type IntoIter = std::iter::Rev<P::IntoIter>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let n = self.0.len();
        let (l, r) = self.0.split_at(n - index);
        (RevProducer(r), RevProducer(l))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().rev()
    }
}

// ---------------------------------------------------------------------------
// Per-piece adapter chains.
// ---------------------------------------------------------------------------

/// A chain of sequential adaptors applied to each piece: `adapt` turns
/// a piece's iterator `I` into the matching `std::iter` adaptor over the
/// chain's borrowed closures, so every piece runs as one monomorphic
/// loop.
pub trait Adapter<I: Iterator>: Sync + Send {
    /// Item the adapted piece yields.
    type Item: Send;
    /// The adapted piece iterator.
    type Out<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;
    /// Wraps one piece's iterator.
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a>;
}

/// The empty chain: a piece's items as its producer yields them.
pub struct Id;

impl<I: Iterator<Item: Send>> Adapter<I> for Id {
    type Item = I::Item;
    type Out<'a> = I;
    fn adapt(&self, it: I) -> I {
        it
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<A, F>(A, F);

impl<I: Iterator, A: Adapter<I>, F, T: Send> Adapter<I> for Map<A, F>
where
    F: Fn(A::Item) -> T + Sync + Send,
{
    type Item = T;
    type Out<'a>
        = std::iter::Map<A::Out<'a>, &'a F>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).map(&self.1)
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<A, F>(A, F);

impl<I: Iterator, A: Adapter<I>, F> Adapter<I> for Filter<A, F>
where
    F: Fn(&A::Item) -> bool + Sync + Send,
{
    type Item = A::Item;
    type Out<'a>
        = std::iter::Filter<A::Out<'a>, &'a F>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).filter(&self.1)
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<A, F>(A, F);

impl<I: Iterator, A: Adapter<I>, F, T: Send> Adapter<I> for FilterMap<A, F>
where
    F: Fn(A::Item) -> Option<T> + Sync + Send,
{
    type Item = T;
    type Out<'a>
        = std::iter::FilterMap<A::Out<'a>, &'a F>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).filter_map(&self.1)
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<A, F>(A, F);

impl<I: Iterator, A: Adapter<I>, F, U> Adapter<I> for FlatMapIter<A, F>
where
    F: Fn(A::Item) -> U + Sync + Send,
    U: IntoIterator<Item: Send>,
{
    type Item = U::Item;
    type Out<'a>
        = std::iter::FlatMap<A::Out<'a>, U, &'a F>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).flat_map(&self.1)
    }
}

/// See [`ParallelIterator::flatten`].
pub struct Flatten<A>(A);

impl<I: Iterator, A: Adapter<I, Item: IntoIterator<Item: Send>>> Adapter<I> for Flatten<A> {
    type Item = <A::Item as IntoIterator>::Item;
    type Out<'a>
        = std::iter::Flatten<A::Out<'a>>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).flatten()
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<A>(A);

impl<'t, I: Iterator, A: Adapter<I, Item = &'t T>, T: Copy + Send + Sync + 't> Adapter<I>
    for Copied<A>
{
    type Item = T;
    type Out<'a>
        = std::iter::Copied<A::Out<'a>>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).copied()
    }
}

/// See [`ParallelIterator::cloned`].
pub struct Cloned<A>(A);

impl<'t, I: Iterator, A: Adapter<I, Item = &'t T>, T: Clone + Send + Sync + 't> Adapter<I>
    for Cloned<A>
{
    type Item = T;
    type Out<'a>
        = std::iter::Cloned<A::Out<'a>>
    where
        Self: 'a;
    fn adapt<'a>(&'a self, it: I) -> Self::Out<'a> {
        self.0.adapt(it).cloned()
    }
}

// ---------------------------------------------------------------------------
// The parallel iterator and its executor.
// ---------------------------------------------------------------------------

/// A parallel iterator: a [`Producer`] cut into ordered pieces, with an
/// [`Adapter`] chain applied to each piece. [`ParIter`] is the one
/// implementation; the trait carries the rayon-shaped methods.
pub trait ParallelIterator: Sized + Send {
    /// Item type.
    type Item: Send;
    /// The indexed source.
    type Base: Producer;
    /// The adaptors applied to each piece of the source.
    type Chain: Adapter<<Self::Base as Producer>::IntoIter, Item = Self::Item>;

    /// The source, its minimum piece length and the adapter chain.
    fn into_parts(self) -> (Self::Base, usize, Self::Chain);

    /// Maps each item.
    fn map<T, F>(self, f: F) -> ParIter<Self::Base, Map<Self::Chain, F>>
    where
        T: Send,
        F: Fn(Self::Item) -> T + Sync + Send,
    {
        then(self, |a| Map(a, f))
    }

    /// Keeps items matching the predicate.
    fn filter<F>(self, f: F) -> ParIter<Self::Base, Filter<Self::Chain, F>>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        then(self, |a| Filter(a, f))
    }

    /// Maps and filters in one pass.
    fn filter_map<T, F>(self, f: F) -> ParIter<Self::Base, FilterMap<Self::Chain, F>>
    where
        T: Send,
        F: Fn(Self::Item) -> Option<T> + Sync + Send,
    {
        then(self, |a| FilterMap(a, f))
    }

    /// Flattens nested iterables (sequentially within each piece).
    fn flatten(self) -> ParIter<Self::Base, Flatten<Self::Chain>>
    where
        Self::Item: IntoIterator<Item: Send>,
    {
        then(self, Flatten)
    }

    /// Maps each item to an iterable and flattens (the iterable is
    /// consumed sequentially within each piece, as in rayon).
    fn flat_map_iter<U, F>(self, f: F) -> ParIter<Self::Base, FlatMapIter<Self::Chain, F>>
    where
        U: IntoIterator<Item: Send>,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        then(self, |a| FlatMapIter(a, f))
    }

    /// Copies referenced items.
    fn copied<'a, T>(self) -> ParIter<Self::Base, Copied<Self::Chain>>
    where
        T: Copy + Send + Sync + 'a,
        Self: ParallelIterator<Item = &'a T>,
    {
        then(self, Copied)
    }

    /// Clones referenced items.
    fn cloned<'a, T>(self) -> ParIter<Self::Base, Cloned<Self::Chain>>
    where
        T: Clone + Send + Sync + 'a,
        Self: ParallelIterator<Item = &'a T>,
    {
        then(self, Cloned)
    }

    /// Applies `op` to every item.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |it| it.for_each(&op)).for_each(drop);
    }

    /// Number of items.
    fn count(self) -> usize {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |it| it.count()).sum()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |it| it.sum::<S>()).sum()
    }

    /// Minimum item (first one on ties, like rayon's indexed min).
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |it| it.min()).flatten().min()
    }

    /// Maximum item (last one on ties, like rayon's indexed max).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |it| it.max()).flatten().max()
    }

    /// Whether all items satisfy the predicate (no cross-piece
    /// short-circuit).
    fn all<F>(self, f: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Sync,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |mut it| it.all(&f)).all(|b| b)
    }

    /// Whether any item satisfies the predicate.
    fn any<F>(self, f: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Sync,
    {
        let (base, min_len, chain) = self.into_parts();
        run(base, min_len, &chain, |mut it| it.any(&f)).any(|b| b)
    }

    /// Collects into a container.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Appends one adaptor to `iter`'s chain.
fn then<I: ParallelIterator, B>(iter: I, link: impl FnOnce(I::Chain) -> B) -> ParIter<I::Base, B> {
    let (producer, min_len, chain) = iter.into_parts();
    ParIter {
        producer,
        min_len,
        adapt: link(chain),
    }
}

/// Per-piece results in piece order: the lone piece's result, or else
/// every piece's.
type Pieces<R> = std::iter::Chain<std::option::IntoIter<R>, std::vec::IntoIter<R>>;

/// Runs `f` over each piece of `producer`, adapted by `adapt`, and
/// returns the results in piece order. A lone piece (always so at width
/// 1) runs on the caller and allocates nothing.
fn run<'a, P, A, R, F>(producer: P, min_len: usize, adapt: &'a A, f: F) -> Pieces<R>
where
    P: Producer,
    A: Adapter<P::IntoIter>,
    R: Send,
    F: Fn(A::Out<'a>) -> R + Sync,
{
    let len = producer.len();
    let width = current_num_threads();
    // Over-partition so participants that finish early steal the tail
    // instead of idling. Piece boundaries depend only on (len, min_len,
    // width) — never on scheduling — so per-piece results are
    // reproducible across runs and pool states.
    let pieces = if width <= 1 {
        1
    } else {
        (width * pool::OVERPARTITION).min(len.div_ceil(min_len).max(1))
    };
    if pieces <= 1 {
        return Some(f(adapt.adapt(producer.into_iter())))
            .into_iter()
            .chain(Vec::new());
    }
    // Cut into `pieces` contiguous parts of near-equal size.
    let mut parts = Vec::with_capacity(pieces);
    let mut rest = producer;
    let mut remaining = len;
    for i in (1..pieces).rev() {
        let take = remaining.div_ceil(i + 1);
        let (l, r) = rest.split_at(take);
        parts.push(pool::SyncCell::new(Some(l)));
        rest = r;
        remaining -= take;
    }
    parts.push(pool::SyncCell::new(Some(rest)));
    let results: Vec<pool::SyncCell<Option<R>>> =
        (0..pieces).map(|_| pool::SyncCell::new(None)).collect();
    let chunk = |i: usize| {
        // SAFETY: the pool's cursor hands each chunk index to exactly
        // one participant, so cell `i` is touched by one thread only;
        // results land by index, making the output independent of
        // which worker ran the chunk.
        let part = unsafe { (*parts[i].get()).take().expect("piece ran twice") };
        let r = f(adapt.adapt(part.into_iter()));
        unsafe { *results[i].get() = Some(r) };
    };
    pool::run_job(pieces, width, &chunk);
    let results: Vec<R> = results
        .into_iter()
        .map(|c| c.into_inner().expect("piece did not run"))
        .collect();
    None.into_iter().chain(results)
}

/// A parallel iterator over a [`Producer`], with an [`Adapter`] chain
/// applied to each piece. Index-preserving adaptors (`zip`,
/// `enumerate`, `rev`) apply to the source, before any chain.
pub struct ParIter<P, A = Id> {
    producer: P,
    min_len: usize,
    adapt: A,
}

impl<P: Producer, A: Adapter<P::IntoIter>> ParallelIterator for ParIter<P, A> {
    type Item = A::Item;
    type Base = P;
    type Chain = A;

    fn into_parts(self) -> (P, usize, A) {
        (self.producer, self.min_len, self.adapt)
    }
}

impl<P, A> ParIter<P, A> {
    /// Requires pieces of at least `n` items (bounds thread overhead).
    pub fn with_min_len(mut self, n: usize) -> Self {
        self.min_len = n.max(1);
        self
    }
}

impl<P: Producer> ParIter<P> {
    fn new(producer: P) -> Self {
        ParIter {
            producer,
            min_len: 1,
            adapt: Id,
        }
    }

    /// Pairs items positionally with another indexed iterator.
    pub fn zip<Z, Q>(self, other: Z) -> ParIter<ZipProducer<P, Q>>
    where
        Q: Producer,
        Z: IntoParallelIterator<Iter = ParIter<Q>>,
    {
        self.map_source(|p| ZipProducer(p, other.into_par_iter().producer))
    }

    /// Pairs items with their index.
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        self.map_source(|base| EnumerateProducer { base, offset: 0 })
    }

    /// Reverses the iteration order.
    pub fn rev(self) -> ParIter<RevProducer<P>>
    where
        P::IntoIter: DoubleEndedIterator,
    {
        self.map_source(RevProducer)
    }

    fn map_source<Q: Producer>(self, f: impl FnOnce(P) -> Q) -> ParIter<Q> {
        ParIter {
            producer: f(self.producer),
            min_len: self.min_len,
            adapt: Id,
        }
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<VecProducer<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(VecProducer(self))
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(SliceProducer(self))
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(SliceProducer(self))
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = ParIter<SliceMutProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(SliceMutProducer(self))
    }
}

impl<P: Producer, A: Adapter<P::IntoIter>> IntoParallelIterator for ParIter<P, A> {
    type Item = A::Item;
    type Iter = Self;
    fn into_par_iter(self) -> Self {
        self
    }
}

/// Collection construction from a parallel iterator.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds the collection.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let (base, min_len, chain) = iter.into_parts();
        let mut pieces = run(base, min_len, &chain, |it| it.collect::<Vec<T>>());
        // The first piece (the only one at width 1) becomes the result.
        let mut out = pieces.next().unwrap_or_default();
        let rest: Vec<Vec<T>> = pieces.collect();
        out.reserve_exact(rest.iter().map(Vec::len).sum());
        for p in rest {
            out.extend(p);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Slice extension traits.
// ---------------------------------------------------------------------------

/// `par_iter`/`par_chunks` on shared slices (and, via deref, `Vec`,
/// `Box<[T]>`, arrays).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>>;
    /// Parallel iterator over `&[T]` chunks of `size` (last may be
    /// shorter).
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceProducer<'_, T>> {
        ParIter::new(SliceProducer(self))
    }
    fn par_chunks(&self, size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(size > 0, "chunk size must be positive");
        ParIter::new(ChunksProducer { slice: self, size })
    }
}

/// `par_iter_mut`/`par_chunks_mut`/parallel sorts on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T`.
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>>;
    /// Parallel iterator over `&mut [T]` chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
    /// Sorts by key (piece-sorted in parallel, then merged).
    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
    /// Sorts by comparator (piece-sorted in parallel, then merged).
    fn par_sort_unstable_by<F>(&mut self, f: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    /// Sorts naturally ordered items.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutProducer<'_, T>> {
        ParIter::new(SliceMutProducer(self))
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        assert!(size > 0, "chunk size must be positive");
        ParIter::new(ChunksMutProducer { slice: self, size })
    }

    fn par_sort_unstable_by_key<K, F>(&mut self, f: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        self.par_sort_unstable_by(|a, b| f(a).cmp(&f(b)));
    }

    fn par_sort_unstable_by<F>(&mut self, f: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        par_merge_sort(self, &f);
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.par_sort_unstable_by(T::cmp);
    }
}

/// Recursive fork-join merge sort: halves sorted on separate threads,
/// then merged. Falls back to the sequential sort for small inputs.
fn par_merge_sort<T: Send, F>(v: &mut [T], cmp: &F)
where
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    const SEQ_CUTOFF: usize = 1 << 14;
    if v.len() <= SEQ_CUTOFF || current_num_threads() <= 1 {
        v.sort_unstable_by(cmp);
        return;
    }
    let mid = v.len() / 2;
    {
        let (lo, hi) = v.split_at_mut(mid);
        join(|| par_merge_sort(lo, cmp), || par_merge_sort(hi, cmp));
    }
    // Merge the sorted halves through a scratch vector of indices-free
    // moved items. `T: Send` but not `Copy`; use Vec<T> and ptr reads.
    let mut merged: Vec<T> = Vec::with_capacity(v.len());
    unsafe {
        let (mut i, mut j) = (0usize, mid);
        let base = v.as_ptr();
        while i < mid && j < v.len() {
            let take_left = cmp(&*base.add(i), &*base.add(j)) != std::cmp::Ordering::Greater;
            let idx = if take_left { &mut i } else { &mut j };
            merged.push(std::ptr::read(base.add(*idx)));
            *idx += 1;
        }
        while i < mid {
            merged.push(std::ptr::read(base.add(i)));
            i += 1;
        }
        while j < v.len() {
            merged.push(std::ptr::read(base.add(j)));
            j += 1;
        }
        std::ptr::copy_nonoverlapping(merged.as_ptr(), v.as_mut_ptr(), v.len());
        merged.set_len(0);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).collect();
        let doubled: Vec<u64> = v.par_iter().with_min_len(64).map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn ranges_and_sum() {
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 999 * 1000 / 2);
        let s: u64 = (1..=1000u64).into_par_iter().sum();
        assert_eq!(s, 1000 * 1001 / 2);
    }

    #[test]
    fn zip_enumerate_rev() {
        let a: Vec<usize> = (0..500).collect();
        let b: Vec<usize> = (0..500).map(|x| x * 10).collect();
        let pairs: Vec<(usize, (usize, usize))> = a
            .par_iter()
            .zip(b.par_iter())
            .enumerate()
            .with_min_len(16)
            .map(|(i, (&x, &y))| (i, (x, y)))
            .collect();
        assert_eq!(pairs.len(), 500);
        for (i, (x, y)) in pairs {
            assert_eq!(x, i);
            assert_eq!(y, i * 10);
        }
        let r: Vec<usize> = a.par_iter().rev().copied().collect();
        let mut expect = a.clone();
        expect.reverse();
        assert_eq!(r, expect);
    }

    #[test]
    fn chunks_line_up() {
        let v: Vec<usize> = (0..1000).collect();
        let mut out = vec![0usize; 1000];
        out.par_chunks_mut(64)
            .zip(v.par_chunks(64))
            .for_each(|(o, i)| {
                o.copy_from_slice(i);
            });
        assert_eq!(out, v);
    }

    // One test covers the env latch *and* the override because they
    // share process-global state; sequencing the assertions inside one
    // test avoids ordering races with sibling tests.
    #[test]
    fn threads_env_is_latched_but_override_is_live() {
        // Force the once-read default, whatever it is on this host.
        let latched = current_num_threads();
        // The documented footgun: writing the env var after the first
        // parallel touch has no effect — the value is latched.
        std::env::set_var("PHC_THREADS", "17");
        assert_eq!(
            current_num_threads(),
            latched,
            "env writes after first touch must be stale"
        );
        std::env::remove_var("PHC_THREADS");
        // The in-process override takes effect immediately...
        set_threads_for_test(Some(3));
        assert_eq!(current_num_threads(), 3);
        // ...but an explicitly installed width still wins.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 2);
        set_threads_for_test(None);
        assert_eq!(current_num_threads(), latched);
    }

    #[test]
    fn install_sets_width() {
        for t in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            assert_eq!(pool.install(current_num_threads), t);
        }
    }

    #[test]
    fn install_runs_on_pool_worker() {
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inside = pool.install(std::thread::current);
        assert_ne!(
            inside.id(),
            caller,
            "install must ship the closure to a pool worker"
        );
        assert!(
            inside.name().unwrap_or("").starts_with("phc-pool-"),
            "install ran on {:?}, not a pool worker",
            inside.name()
        );
    }

    #[test]
    fn nested_install_restores_width() {
        let outer = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (before, during, after) = outer.install(|| {
            let before = current_num_threads();
            let during = inner.install(current_num_threads);
            (before, during, current_num_threads())
        });
        assert_eq!(before, 4);
        assert_eq!(during, 2);
        assert_eq!(after, 4, "nested install must restore the outer width");
        // The installing thread's own width is untouched too.
        let base = current_num_threads();
        outer.install(|| ());
        assert_eq!(current_num_threads(), base);
    }

    #[test]
    fn chunk_panic_propagates() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..1000usize)
                    .into_par_iter()
                    .with_min_len(1)
                    .for_each(|i| {
                        if i == 517 {
                            panic!("boom in chunk");
                        }
                    });
            })
        }));
        assert!(caught.is_err(), "panic inside a chunk must propagate");
        // The pool survives and runs the next job normally.
        let s: usize = pool.install(|| (0..100usize).into_par_iter().sum());
        assert_eq!(s, 4950);
    }

    #[test]
    fn join_runs_both_and_propagates() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(|| (), || panic!("right arm"))
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn par_sort_matches_std() {
        let mut a: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut b = a.clone();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| a.par_sort_unstable());
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn filter_map_collect_matches_sequential_at_widths_1_and_2() {
        let v: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let keep = |&x: &u64| (x % 3 == 0).then_some(x >> 1);
        let expect: Vec<u64> = v.iter().filter_map(keep).collect();
        for t in [1, 2] {
            let pool = ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            let got: Vec<u64> = pool.install(|| v.par_iter().filter_map(keep).collect());
            assert_eq!(got, expect, "width {t}");
        }
    }

    #[test]
    fn filter_min_max_count() {
        let v: Vec<i64> = (-500..500).collect();
        let evens = v.par_iter().with_min_len(10).filter(|x| **x % 2 == 0);
        assert_eq!(evens.count(), 500);
        assert_eq!(v.par_iter().copied().min(), Some(-500));
        assert_eq!(v.par_iter().copied().max(), Some(499));
        assert!(v.par_iter().any(|&x| x == 250));
        assert!(v.par_iter().all(|&x| x < 500));
    }
}
