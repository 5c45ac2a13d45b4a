//! `phc-obs`: zero-cost observability for the phase-concurrent hash
//! tables.
//!
//! The paper's evaluation (§6) explains throughput through *mechanism*
//! metrics — probe distances, CAS contention, phase structure — that
//! the tables themselves never exposed at runtime. This crate provides
//! that instrumentation layer in three pieces:
//!
//! * **Sharded counters** ([`shard::Registry`]): each thread owns a
//!   cache-line-aligned shard of per-event counters, registered once
//!   in a global registry and aggregated on read. The thread caches
//!   its [`shard::ShardWriter`] in a thread-local and is the shard's
//!   only writer, so a hot-path increment is a load and a store to
//!   memory no other thread writes.
//! * **Power-of-two-bucket histograms** ([`hist`]): built on the same
//!   shards; bucket `b` covers `[2^(b-1), 2^b)` so a 32-slot array
//!   captures any probe length or pack size.
//! * **Phase timeline** ([`ring::Ring`]): a bounded lock-free ring of
//!   `(thread, event, monotonic ns)` records emitted at phase
//!   begin/end and resize epoch publish/freeze/finish.
//!
//! The public entry point is the [`Recorder`] facade plus the
//! [`probe!`] macro. Both are feature-gated: without the `obs` cargo
//! feature, `Recorder` is a unit struct whose methods are inline
//! no-ops, so instrumented crates compile to exactly the code they had
//! before instrumentation. The building blocks (registry, ring, bucket
//! math) are always compiled so tests can exercise them directly.
//!
//! Aggregated state is read through [`MetricsSnapshot`], which also
//! renders itself as JSON (the build environment has no serde) for
//! EXPERIMENTS.md bookkeeping and the bench harnesses.

#![warn(missing_docs)]

pub mod hist;
pub mod ring;
pub mod shard;

pub use ring::{Ring, TimelineRecord};
pub use shard::{Registry, ShardWriter};

/// Defines the counter enum plus its name table in one place.
macro_rules! define_ids {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident { $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(usize)]
        $vis enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Number of variants.
            pub const COUNT: usize = [$($ty::$variant),+].len();
            /// Every variant, in declaration (= index) order.
            pub const ALL: [$ty; Self::COUNT] = [$($ty::$variant),+];

            /// Stable snake_case name used in JSON dumps.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }
    };
}

define_ids! {
    /// Event counters aggregated across all thread shards.
    pub enum Counter {
        /// Failed CAS during a `DetHashTable` insert probe.
        InsertCasFail => "insert_cas_fail",
        /// Successful priority swap that displaced an incumbent entry.
        PrioritySwap => "priority_swap",
        /// Cells advanced past the home bucket during inserts.
        ProbeSteps => "probe_steps",
        /// Cells advanced past the home bucket during finds.
        FindProbeSteps => "find_probe_steps",
        /// Virtual-index steps walked during deletes.
        DeleteProbeSteps => "delete_probe_steps",
        /// Migration blocks claimed from a retiring epoch's cursor.
        MigrationBlocksClaimed => "migration_blocks_claimed",
        /// Successor epochs published by the cooperative resizer.
        EpochsPublished => "epochs_published",
        /// Room-synchronizer entries that had to wait for another room.
        RoomWaits => "room_waits",
        /// Jobs submitted to the persistent work-stealing scheduler.
        SchedJobs => "sched_jobs",
        /// Chunks executed by a pool worker other than the submitter.
        SchedSteals => "sched_steals",
        /// Robin Hood displacement swaps: occupied cells whose entry
        /// was evicted and carried forward by a richer (higher
        /// priority) insert.
        RobinHoodShifts => "robinhood_shifts",
        /// Request batches applied by the sharded KV server.
        ServerBatches => "server_batches",
        /// Operations routed to shards by the KV server's partitioner.
        ServerOpsRouted => "server_ops_routed",
        /// Room-synchronizer transitions to a different room (each one
        /// is a full drain of the previous room's occupants).
        RoomSwitches => "room_switches",
        /// Nanoseconds spent waiting for room transitions to drain.
        RoomSwitchNanos => "room_switch_nanos",
        /// Halving (shrink) epochs published by the cooperative
        /// resizer when deletes push the load below the shrink
        /// threshold.
        ShrinkEpochs => "shrink_epochs",
        /// Entries migrated out of frozen epochs during shrink
        /// (downward) migrations.
        ShrinkMigrations => "shrink_migrations",
        /// Help-along quanta performed by operations that found a
        /// migration pending: each count is one bounded block quota
        /// claimed and migrated before the operation proceeded against
        /// the successor epoch.
        MigrationHelps => "migration_helps",
        /// Cell arrays of drained epochs handed back to the allocator by
        /// the cooperative resizer: one per retired epoch, counted by
        /// the helper that drained its last block. Equals
        /// `epochs_published` whenever no migration is in flight.
        EpochArraysReleased => "epoch_arrays_released",
    }
}

define_ids! {
    /// Level gauges: last-written values (not monotonic sums). Written
    /// with [`Recorder::set_gauge`]; a snapshot reports the most recent
    /// value.
    pub enum Gauge {
        /// Live-table memory per stored key, in milli-bytes (×1000, so
        /// fractional bytes survive integer storage). Set on quiescent
        /// normalization from `capacity × cell_bytes / items`.
        BytesPerKeyMilli => "bytes_per_key_milli",
        /// Bytes of cell array the growable table that last published or
        /// released an epoch owns: the tail's array at quiescence, old +
        /// new while a resize runs.
        TableBytesOwned => "table_bytes_owned",
    }
}

define_ids! {
    /// Power-of-two-bucket histograms (see [`hist::bucket`]).
    pub enum Histogram {
        /// Probe length per insert (displacement steps past home).
        ProbeLen => "probe_len",
        /// `elements()` pack sizes (entries returned per call).
        PackSize => "pack_size",
        /// Robin Hood displacement (cells past home) per stored entry,
        /// mirrored from quiescent snapshots.
        RhDisplacement => "rh_displacement",
        /// Ops landing on one shard in one server batch (the router's
        /// per-shard fan-out distribution).
        ServerShardOps => "server_shard_ops",
        /// Nanoseconds an operation spent inside migration work (help
        /// quanta and full drains): the per-op stall the freeze-free
        /// resizer bounds. One sample per help/drain episode.
        MigrationStallNanos => "migration_stall_nanos",
    }
}

define_ids! {
    /// Phase-timeline event kinds.
    pub enum PhaseEvent {
        /// An insert phase handle was created.
        InsertBegin => "insert_begin",
        /// An insert phase handle was dropped.
        InsertEnd => "insert_end",
        /// A delete phase handle was created.
        DeleteBegin => "delete_begin",
        /// A delete phase handle was dropped.
        DeleteEnd => "delete_end",
        /// A read phase handle was created.
        ReadBegin => "read_begin",
        /// A read phase handle was dropped.
        ReadEnd => "read_end",
        /// The resizer published a doubled successor epoch.
        EpochPublish => "epoch_publish",
        /// A retiring epoch's drain began: the helper that claimed its
        /// first migration block had passed the drain gate (no writer
        /// window open on the epoch). One event per epoch.
        DrainGate => "drain_gate",
        /// A drained epoch was retired from the chain.
        MigrationFinish => "migration_finish",
    }
}

impl PhaseEvent {
    /// Inverse of `self as usize` for ring decoding.
    pub fn from_index(i: u64) -> Option<PhaseEvent> {
        PhaseEvent::ALL.get(i as usize).copied()
    }
}

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Aggregated view of every metric: counter totals, histogram buckets,
/// and the (quiescent) timeline contents. The disabled build returns
/// an all-zero snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Histogram buckets, indexed by `Histogram as usize` then bucket.
    pub histograms: [[u64; hist::BUCKETS]; Histogram::COUNT],
    /// Gauge levels (last written value), indexed by `Gauge as usize`.
    pub gauges: [u64; Gauge::COUNT],
    /// Timeline records in emission order.
    pub timeline: Vec<TimelineRecord>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; Counter::COUNT],
            histograms: [[0; hist::BUCKETS]; Histogram::COUNT],
            gauges: [0; Gauge::COUNT],
            timeline: Vec::new(),
        }
    }
}

impl MetricsSnapshot {
    /// Total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Bucket array for one histogram.
    pub fn buckets(&self, h: Histogram) -> &[u64; hist::BUCKETS] {
        &self.histograms[h as usize]
    }

    /// Number of samples recorded into one histogram.
    pub fn samples(&self, h: Histogram) -> u64 {
        self.buckets(h).iter().sum()
    }

    /// Level of one gauge (last written value).
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Counter and histogram deltas since `earlier` (timeline and
    /// gauges are returned as-is — records are not subtractive and
    /// gauges are levels, not sums). Counters are monotonic, so
    /// saturating subtraction only masks misuse.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (o, e) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *o = o.saturating_sub(*e);
        }
        for (oh, eh) in out.histograms.iter_mut().zip(earlier.histograms.iter()) {
            for (o, e) in oh.iter_mut().zip(eh.iter()) {
                *o = o.saturating_sub(*e);
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-emitted; the build
    /// environment has no serde). Keys are the stable names from the
    /// id enums.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in Histogram::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let buckets = self.buckets(*h);
            let last = buckets.iter().rposition(|&b| b > 0).map_or(0, |p| p + 1);
            out.push_str(&format!("\"{}\": [", h.name()));
            for (j, b) in buckets[..last].iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push(']');
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", g.name(), self.gauge(*g)));
        }
        out.push_str("},\n  \"timeline\": [");
        for (i, r) in self.timeline.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"t_ns\": {}, \"thread\": {}, \"event\": \"{}\"}}",
                r.t_ns,
                r.thread,
                r.event.name()
            ));
        }
        out.push_str("]\n}");
        out
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// Timeline capacity (records). Power of two; old records are
    /// overwritten once the ring wraps.
    const TIMELINE_CAPACITY: usize = 8192;

    static GLOBAL: Recorder = Recorder {
        registry: Registry::new(),
        ring: OnceLock::new(),
        gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
    };

    thread_local! {
        /// This thread's shard in the global registry, registered on
        /// the thread's first bump or timeline push.
        static SHARD: ShardWriter = GLOBAL.registry.register();
    }

    /// The live recorder: a global shard registry plus the phase
    /// timeline. Obtain it with [`Recorder::global`]; hot paths go
    /// through the [`probe!`](crate::probe) macro. A counter or
    /// histogram bump reaches the calling thread's shard through a
    /// thread-local, not through the recorder.
    pub struct Recorder {
        registry: Registry,
        ring: OnceLock<Ring>,
        gauges: [AtomicU64; Gauge::COUNT],
    }

    impl Recorder {
        /// Whether this build records anything.
        pub const ENABLED: bool = true;

        /// The process-wide recorder.
        #[inline(always)]
        pub fn global() -> &'static Recorder {
            &GLOBAL
        }

        fn ring(&self) -> &Ring {
            self.ring.get_or_init(|| Ring::new(TIMELINE_CAPACITY))
        }

        /// The calling thread's shard index (stable for its lifetime).
        pub fn thread_id(&self) -> u64 {
            SHARD.with(ShardWriter::thread_id)
        }

        /// Adds `n` to a counter.
        #[inline]
        pub fn count(&self, c: Counter, n: u64) {
            if n != 0 {
                SHARD.with(|s| s.add(c, n));
            }
        }

        /// Records one histogram sample.
        #[inline]
        pub fn record(&self, h: Histogram, value: u64) {
            SHARD.with(|s| s.record(h, value));
        }

        /// Records `n` identical histogram samples.
        #[inline]
        pub fn record_many(&self, h: Histogram, value: u64, n: u64) {
            if n != 0 {
                SHARD.with(|s| s.record_many(h, value, n));
            }
        }

        /// Sets a gauge to `v` (last writer wins).
        #[inline]
        pub fn set_gauge(&self, g: Gauge, v: u64) {
            self.gauges[g as usize].store(v, Ordering::Relaxed);
        }

        /// Emits a phase-timeline record stamped with this thread and
        /// the current monotonic time.
        #[inline]
        pub fn phase(&self, e: PhaseEvent) {
            self.ring().push(self.thread_id(), e, now_ns());
        }

        /// Aggregates every shard and dumps the timeline. Counters are
        /// exact whenever the recorded code is quiescent; the timeline
        /// dump additionally assumes no concurrent `phase` emission
        /// (see [`Ring::dump`]).
        pub fn snapshot(&self) -> MetricsSnapshot {
            let (counters, histograms) = self.registry.aggregate();
            MetricsSnapshot {
                counters,
                histograms,
                gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
                timeline: self.ring().dump(),
            }
        }
    }
}

#[cfg(not(feature = "obs"))]
mod enabled {
    use super::*;

    /// The disabled recorder: a unit struct whose methods are inline
    /// no-ops, so instrumentation compiles away entirely.
    pub struct Recorder;

    impl Recorder {
        /// Whether this build records anything.
        pub const ENABLED: bool = false;

        /// The process-wide recorder (a no-op unit).
        #[inline(always)]
        pub fn global() -> &'static Recorder {
            static GLOBAL: Recorder = Recorder;
            &GLOBAL
        }

        /// No-op (threads are not tracked without the `obs` feature).
        #[inline(always)]
        pub fn thread_id(&self) -> u64 {
            0
        }

        /// No-op.
        #[inline(always)]
        pub fn count(&self, _c: Counter, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn record(&self, _h: Histogram, _value: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn record_many(&self, _h: Histogram, _value: u64, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn set_gauge(&self, _g: Gauge, _v: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn phase(&self, _e: PhaseEvent) {}

        /// Returns an all-zero snapshot.
        pub fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot::default()
        }
    }
}

pub use enabled::Recorder;

/// Hot-path instrumentation macro. Compiles to an inline no-op without
/// the `obs` feature (the arguments are still evaluated, so pass cheap
/// locals, not computations you only want under the feature).
///
/// ```
/// phc_obs::probe!(count ProbeSteps, 3);
/// phc_obs::probe!(count InsertCasFail);
/// phc_obs::probe!(hist ProbeLen, 3);
/// phc_obs::probe!(phase InsertBegin);
/// ```
#[macro_export]
macro_rules! probe {
    (count $c:ident) => {
        $crate::Recorder::global().count($crate::Counter::$c, 1)
    };
    (count $c:ident, $n:expr) => {
        $crate::Recorder::global().count($crate::Counter::$c, $n as u64)
    };
    (hist $h:ident, $v:expr) => {
        $crate::Recorder::global().record($crate::Histogram::$h, $v as u64)
    };
    (hist $h:ident, $v:expr, $n:expr) => {
        $crate::Recorder::global().record_many($crate::Histogram::$h, $v as u64, $n as u64)
    };
    (gauge $g:ident, $v:expr) => {
        $crate::Recorder::global().set_gauge($crate::Gauge::$g, $v as u64)
    };
    (phase $e:ident) => {
        $crate::Recorder::global().phase($crate::PhaseEvent::$e)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, e) in PhaseEvent::ALL.iter().enumerate() {
            assert_eq!(PhaseEvent::from_index(i as u64), Some(*e));
        }
        assert_eq!(PhaseEvent::from_index(PhaseEvent::COUNT as u64), None);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        a.counters[Counter::ProbeSteps as usize] = 3;
        b.counters[Counter::ProbeSteps as usize] = 10;
        b.histograms[Histogram::ProbeLen as usize][2] = 4;
        let d = b.since(&a);
        assert_eq!(d.counter(Counter::ProbeSteps), 7);
        assert_eq!(d.buckets(Histogram::ProbeLen)[2], 4);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut s = MetricsSnapshot::default();
        s.counters[Counter::ProbeSteps as usize] = 42;
        s.histograms[Histogram::ProbeLen as usize][0] = 5;
        s.histograms[Histogram::ProbeLen as usize][3] = 1;
        s.timeline.push(TimelineRecord {
            seq: 1,
            thread: 0,
            event: PhaseEvent::InsertBegin,
            t_ns: 7,
        });
        s.gauges[Gauge::BytesPerKeyMilli as usize] = 10667;
        let json = s.to_json();
        assert!(json.contains("\"probe_steps\": 42"), "{json}");
        assert!(json.contains("\"bytes_per_key_milli\": 10667"), "{json}");
        assert!(json.contains("\"probe_len\": [5, 0, 0, 1]"), "{json}");
        assert!(json.contains("\"event\": \"insert_begin\""), "{json}");
        // Trailing all-zero buckets are trimmed.
        assert!(json.contains("\"pack_size\": []"), "{json}");
    }

    #[test]
    fn recorder_facade_compiles_in_both_forms() {
        let r = Recorder::global();
        r.count(Counter::ProbeSteps, 2);
        r.record(Histogram::ProbeLen, 2);
        r.phase(PhaseEvent::InsertBegin);
        r.phase(PhaseEvent::InsertEnd);
        let snap = r.snapshot();
        if Recorder::ENABLED {
            assert!(snap.counter(Counter::ProbeSteps) >= 2);
            assert!(snap.samples(Histogram::ProbeLen) >= 1);
        } else {
            assert_eq!(snap, MetricsSnapshot::default());
        }
    }

    #[test]
    fn gauge_is_level_not_sum() {
        let r = Recorder::global();
        r.set_gauge(Gauge::BytesPerKeyMilli, 8000);
        r.set_gauge(Gauge::BytesPerKeyMilli, 4000);
        let snap = r.snapshot();
        if Recorder::ENABLED {
            assert_eq!(snap.gauge(Gauge::BytesPerKeyMilli), 4000);
            // `since` passes gauges through unchanged: levels, not sums.
            let d = snap.since(&snap.clone());
            assert_eq!(d.gauge(Gauge::BytesPerKeyMilli), 4000);
        } else {
            assert_eq!(snap.gauge(Gauge::BytesPerKeyMilli), 0);
        }
    }
}
