//! Sharded counters: one cache-line-aligned slot block per thread,
//! registered in a registry and aggregated on read.
//!
//! [`Registry::register`] leaks the block, keeps a `&'static` to it so
//! totals survive thread teardown, and returns a [`ShardWriter`] that
//! cannot leave the registering thread. That thread is then the block's
//! only writer, so a bump is a `Relaxed` load and store, not a locked
//! read-modify-write, and no cache line bounces between writers;
//! readers pay the full scan, the right trade for metrics written
//! millions of times and read once per report.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::hist::{bucket, BUCKETS};
use crate::{Counter, Histogram};

/// One thread's counter block. Aligned to two cache lines so adjacent
/// blocks never share a line. Atomic so that a concurrent reader sees
/// whole values.
#[repr(align(128))]
struct Shard {
    thread_id: u64,
    counters: [AtomicU64; Counter::COUNT],
    histograms: [[AtomicU64; BUCKETS]; Histogram::COUNT],
}

/// The owner's increment: no other thread writes `cell`, so a load and
/// a store cannot lose an update.
#[inline(always)]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// The registering thread's write handle to its shard, neither `Send`
/// nor `Sync`, so the shard has one writer:
///
/// ```compile_fail
/// let registry = phc_obs::Registry::new();
/// let shard = registry.register();
/// std::thread::spawn(move || shard.add(phc_obs::Counter::ProbeSteps, 1));
/// ```
pub struct ShardWriter {
    shard: &'static Shard,
    _owner: PhantomData<*const ()>,
}

impl ShardWriter {
    /// The registering thread's index (dense, in registration order).
    pub fn thread_id(&self) -> u64 {
        self.shard.thread_id
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        bump(&self.shard.counters[c as usize], n);
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record(&self, h: Histogram, value: u64) {
        bump(&self.shard.histograms[h as usize][bucket(value)], 1);
    }

    /// Records `n` identical histogram samples in one bump.
    #[inline]
    pub fn record_many(&self, h: Histogram, value: u64, n: u64) {
        bump(&self.shard.histograms[h as usize][bucket(value)], n);
    }
}

/// A set of registered shards, aggregated on read.
pub struct Registry {
    shards: Mutex<Vec<&'static Shard>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            shards: Mutex::new(Vec::new()),
        }
    }

    /// Registers a new shard (typically one per thread) and returns
    /// its write handle. The shard lives for the rest of the process,
    /// so its totals survive the caller.
    pub fn register(&self) -> ShardWriter {
        let mut shards = self.shards.lock().expect("shard registry poisoned");
        let shard: &'static Shard = Box::leak(Box::new(Shard {
            thread_id: shards.len() as u64,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }));
        shards.push(shard);
        ShardWriter {
            shard,
            _owner: PhantomData,
        }
    }

    /// Number of shards ever registered.
    pub fn shard_count(&self) -> usize {
        self.shards.lock().expect("shard registry poisoned").len()
    }

    /// Sums every shard into `(counter totals, histogram buckets)`.
    /// Exact when the instrumented code is quiescent; otherwise a
    /// monotone lower bound per cell.
    pub fn aggregate(&self) -> ([u64; Counter::COUNT], [[u64; BUCKETS]; Histogram::COUNT]) {
        let shards = self.shards.lock().expect("shard registry poisoned");
        let mut counters = [0u64; Counter::COUNT];
        let mut histograms = [[0u64; BUCKETS]; Histogram::COUNT];
        for shard in shards.iter() {
            for (total, cell) in counters.iter_mut().zip(shard.counters.iter()) {
                *total += cell.load(Relaxed);
            }
            for (htotals, hcells) in histograms.iter_mut().zip(shard.histograms.iter()) {
                for (total, cell) in htotals.iter_mut().zip(hcells.iter()) {
                    *total += cell.load(Relaxed);
                }
            }
        }
        (counters, histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_counts_and_buckets() {
        let reg = Registry::new();
        let s = reg.register();
        s.add(Counter::ProbeSteps, 5);
        s.add(Counter::ProbeSteps, 7);
        s.record(Histogram::ProbeLen, 0);
        s.record(Histogram::ProbeLen, 3);
        s.record_many(Histogram::ProbeLen, 4, 10);
        let (counters, hists) = reg.aggregate();
        assert_eq!(counters[Counter::ProbeSteps as usize], 12);
        let h = &hists[Histogram::ProbeLen as usize];
        assert_eq!(h[bucket(0)], 1);
        assert_eq!(h[bucket(3)], 1);
        assert_eq!(h[bucket(4)], 10);
    }

    #[test]
    fn registration_and_teardown_under_8_threads() {
        // Eight threads register, count, and exit; aggregation after
        // teardown must see every increment and every shard.
        let reg = Registry::new();
        let mut ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let reg = &reg;
                    scope.spawn(move || {
                        let shard = reg.register();
                        for i in 0..1000 {
                            shard.add(Counter::ProbeSteps, 1);
                            shard.add(Counter::InsertCasFail, (i % 2 == 0) as u64);
                            shard.record(Histogram::ProbeLen, t);
                        }
                        shard.thread_id()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(reg.shard_count(), 8);
        let (counters, hists) = reg.aggregate();
        assert_eq!(counters[Counter::ProbeSteps as usize], 8_000);
        assert_eq!(counters[Counter::InsertCasFail as usize], 4_000);
        assert_eq!(
            hists[Histogram::ProbeLen as usize].iter().sum::<u64>(),
            8_000
        );
        // Thread ids are dense and unique.
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn aggregate_is_stable_across_reads() {
        let reg = Registry::new();
        {
            let s = reg.register();
            s.add(Counter::PrioritySwap, 3);
        } // the handle is gone; the registry keeps the shard
        let a = reg.aggregate();
        let b = reg.aggregate();
        assert_eq!(a.0, b.0);
        assert_eq!(a.0[Counter::PrioritySwap as usize], 3);
    }
}
