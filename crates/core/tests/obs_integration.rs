//! End-to-end observability (the `obs` feature's acceptance test): a
//! deterministic-table workload must leave nonzero probe counters, a
//! populated probe-length histogram, and at least one complete phase
//! cycle (begin → end per phase kind) in the global recorder.
#![cfg(feature = "obs")]

use phc_core::phase::{ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable};
use phc_core::{AutoPhaseGrowTable, DetHashTable, KvPair32, RobinHoodHashTable, U64Key};
use phc_obs::{Counter, Gauge, Histogram, PhaseEvent, Recorder};

/// True iff `needle` occurs as an (ordered, not necessarily
/// contiguous) subsequence of `hay`.
fn is_subsequence(needle: &[PhaseEvent], hay: &[PhaseEvent]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[test]
fn det_workload_emits_counters_histogram_and_timeline_cycle() {
    let rec = Recorder::global();
    let before = rec.snapshot();

    // 1000 keys in 1024 cells: at load ~0.98 linear probing is forced
    // to displace heavily, so the step counters are far from zero.
    let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(10);
    {
        let ins = t.begin_insert();
        for k in 1..=1000u64 {
            ins.insert(U64Key::new(k));
        }
    }
    {
        let del = t.begin_delete();
        for k in 501..=1000u64 {
            del.delete(U64Key::new(k));
        }
    }
    let found = {
        let reader = t.begin_read();
        (1..=500u64)
            .filter(|&k| reader.find(U64Key::new(k)).is_some())
            .count()
    };
    assert_eq!(found, 500);

    // Counter deltas. The step counters tally *displacement* steps
    // (zero for a home-slot hit), so the histogram gets exactly one
    // sample per insert while the step totals are merely guaranteed
    // nonzero — hugely so for inserts at this load. Assert `>=`, not
    // `==` — other tests in this binary share the global recorder.
    let delta = rec.snapshot().since(&before);
    assert!(delta.counter(Counter::ProbeSteps) >= 1000);
    assert!(delta.counter(Counter::DeleteProbeSteps) >= 1);
    assert!(delta.counter(Counter::FindProbeSteps) >= 1);
    assert!(delta.samples(Histogram::ProbeLen) >= 1000);

    // Timeline: the harness runs each #[test] on its own thread, so
    // filtering by this thread's id isolates exactly the six phase
    // records the workload above emitted, in order.
    let me = rec.thread_id();
    let mine: Vec<PhaseEvent> = rec
        .snapshot()
        .timeline
        .iter()
        .filter(|r| r.thread == me)
        .map(|r| r.event)
        .collect();
    assert!(
        is_subsequence(
            &[
                PhaseEvent::InsertBegin,
                PhaseEvent::InsertEnd,
                PhaseEvent::DeleteBegin,
                PhaseEvent::DeleteEnd,
                PhaseEvent::ReadBegin,
                PhaseEvent::ReadEnd,
            ],
            &mine,
        ),
        "missing a full phase cycle; this thread's timeline: {mine:?}"
    );
}

/// A grow→delete→shrink cycle on packed 32-bit cells must leave
/// nonzero traces of every PR 9 instrument: shrink epochs and
/// migrated-entry counts, and a bytes-per-key gauge level.
#[test]
fn shrink_cycle_emits_shrink_counters_and_memory_gauge() {
    let rec = Recorder::global();
    let before = rec.snapshot();

    let t = AutoPhaseGrowTable::<KvPair32>::new_pow2(6);
    let entries: Vec<KvPair32> = (1..=3000u16)
        .map(|k| KvPair32::new(k, k.wrapping_mul(31)))
        .collect();
    t.par_insert_batched(&entries);
    let grown = t.capacity();
    assert!(grown > 64, "3000 keys must outgrow the 2^6 seed");
    // Delete all but a sliver; the normalizing batch boundary walks
    // the capacity back down, counting each halving epoch and every
    // entry it migrates downward.
    t.par_delete_batched(&entries[8..]);
    assert!(t.capacity() < grown);

    let delta = rec.snapshot().since(&before);
    assert!(
        delta.counter(Counter::ShrinkEpochs) >= 1,
        "no shrink epochs"
    );
    assert!(
        delta.counter(Counter::ShrinkMigrations) >= 1,
        "no downward migrations counted"
    );
    assert!(
        rec.snapshot().gauge(Gauge::BytesPerKeyMilli) > 0,
        "bytes-per-key gauge never set"
    );
}

/// Robin Hood inserts at load 3/4 displace entries, and the quiescent
/// displacement scan fills its histogram.
#[test]
fn robinhood_inserts_count_shifts_and_displacements() {
    let rec = Recorder::global();
    let before = rec.snapshot();
    let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
    let keys: Vec<U64Key> = (1..=6144u64)
        .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
        .collect();
    t.insert_batch(&keys);
    t.record_displacement_histogram();
    let delta = rec.snapshot().since(&before);
    assert!(
        delta.counter(Counter::RobinHoodShifts) > 0,
        "RH inserts must displace at 3/4 load"
    );
    assert!(
        delta.samples(Histogram::RhDisplacement) > 0,
        "RH displacement histogram empty"
    );
}

/// Incremental migration: a forced growth workload must pay help
/// quotas (nonzero help counter and stall-histogram samples) and log one
/// `drain_gate` timeline event per drained epoch, and nothing may count
/// a forwarded probe — there is no marker to meet.
#[test]
fn growth_workload_helps_and_never_forwards() {
    let rec = Recorder::global();
    let before = rec.snapshot();

    let t = phc_core::ResizableTable::<U64Key>::new_pow2(4);
    for k in 1..=2000u64 {
        t.insert(U64Key::new(k));
    }
    assert_eq!(t.len(), 2000);

    let delta = rec.snapshot().since(&before);
    assert!(
        delta.counter(Counter::EpochsPublished) >= 1,
        "growth never published an epoch"
    );
    assert!(
        delta.counter(Counter::MigrationHelps) >= 1,
        "no operation paid a help quota"
    );
    assert!(
        delta.samples(Histogram::MigrationStallNanos) >= 1,
        "no migration stall samples recorded"
    );
    assert_eq!(delta.counter(Counter::ForwardedProbes), 0);

    // One thread published and drained every epoch but the live one:
    // one `drain_gate` per publish, not one per help.
    let me = rec.thread_id();
    let count = |kind: PhaseEvent| {
        let timeline = rec.snapshot().timeline;
        timeline
            .iter()
            .filter(|r| r.thread == me && r.event == kind)
            .count()
    };
    assert_eq!(count(PhaseEvent::EpochPublish), 8, "16 -> 4096 cells");
    assert_eq!(count(PhaseEvent::DrainGate), 8);

    // At quiescence every published successor has retired its
    // predecessor, whose cell array was freed when its last block
    // landed: releases == publishes. The counters are process-global and
    // sibling tests resize tables of their own meanwhile (a migration of
    // theirs in flight at either snapshot skews the delta either way), so
    // the run is repeated until one falls in a quiet window.
    let quiet = (0..1000).any(|_| {
        let before = rec.snapshot();
        let t = phc_core::ResizableTable::<U64Key>::new_pow2(4);
        for k in 1..=2000u64 {
            t.insert(U64Key::new(k));
        }
        assert_eq!(t.len(), 2000);
        let delta = rec.snapshot().since(&before);
        delta.counter(Counter::EpochsPublished) == 8
            && delta.counter(Counter::EpochArraysReleased) == 8
    });
    assert!(quiet, "drained epochs kept their cell arrays");
    assert!(rec.snapshot().gauge(Gauge::TableBytesOwned) > 0);
}

#[test]
fn pack_sizes_recorded_by_elements() {
    let rec = Recorder::global();
    let before = rec.snapshot();
    let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(10);
    {
        let ins = t.begin_insert();
        for k in 1..=300u64 {
            ins.insert(U64Key::new(k));
        }
    }
    assert_eq!(t.elements().len(), 300);
    let delta = rec.snapshot().since(&before);
    assert!(delta.samples(Histogram::PackSize) >= 1);
}
