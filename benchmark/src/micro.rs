//! Layer rows below the wrappers: the flat cores' bulk phases and the
//! SIMD scan kernels, measured in the same session as the ladder so
//! every served number can be stated as a multiple of the in-session
//! preallocated-det floor. All rows are ns per op (or per call) of one
//! pass over the keys, in calls of `call` keys, converted to the
//! reference core clock like every other reported time.

use std::hint::black_box;
use std::time::Instant;

use phc_core::entry::HashEntry;
use phc_core::simd::{self, SimdTier};
use phc_core::{
    DetHashTable, FcHashTable, NdHashTable, PhaseHashTable, RobinHoodHashTable, U64Key,
};

use crate::clock;
use crate::gen::distinct_keys;
use crate::trace::Tracer;
use crate::workloads::BULK_CLOCK_SHARE;

/// Sizes of the core rows.
#[derive(Clone, Copy)]
pub struct MicroPlan {
    /// Tables have `2^log2_cells` cells.
    pub log2_cells: u32,
    /// Keys per call.
    pub call: usize,
    /// Seed of the key sets.
    pub seed: u64,
}

impl MicroPlan {
    /// Keys that fill the table to load 1/2.
    pub fn half_load(&self) -> usize {
        1 << (self.log2_cells - 1)
    }
    /// Keys that fill the table to load 3/4.
    pub fn three_quarter_load(&self) -> usize {
        3 << (self.log2_cells - 2)
    }
}

/// Times `f` over `keys` in calls of `call` keys; records one span per
/// call and returns ns per key.
fn phase<K>(
    tracer: &mut Tracer,
    name: &'static str,
    keys: &[K],
    call: usize,
    mut f: impl FnMut(&[K]),
) -> f64 {
    let mut total = 0u64;
    for (c, chunk) in keys.chunks(call).enumerate() {
        let t0 = Instant::now();
        f(chunk);
        let t1 = Instant::now();
        total += clock::scaled_ns(t0, t1, BULK_CLOCK_SHARE);
        tracer.record(name, 0, c as u32, t0, t1, chunk.len() as u32);
    }
    total as f64 / keys.len() as f64
}

/// The det rows: the five bulk phases at load 1/2, insert and find-hit
/// at load 3/4, and find-hit at load 3/4 again under the scalar tier.
pub struct DetRows {
    /// `par_insert_batched`, load 0 → 1/2.
    pub insert: f64,
    /// `par_find_batched` of stored keys at load 1/2.
    pub find_hit: f64,
    /// `par_find_batched` of absent keys at load 1/2.
    pub find_miss: f64,
    /// `elements()`, ns per stored key.
    pub elements: f64,
    /// `par_delete_batched`, load 1/2 → 0.
    pub delete: f64,
    /// `par_insert_batched`, load 0 → 3/4.
    pub insert_l75: f64,
    /// `par_find_batched` of stored keys at load 3/4.
    pub find_hit_l75: f64,
    /// The same find-hit pass forced to `SimdTier::Scalar`.
    pub find_hit_l75_scalar: f64,
}

/// Measures the det rows.
pub fn det_rows(plan: MicroPlan, tracer: &mut Tracer) -> DetRows {
    let keys = distinct_keys(plan.three_quarter_load(), plan.seed, 2);
    let absent = distinct_keys(plan.half_load(), plan.seed, 3);
    let half = &keys[..plan.half_load()];
    let call = plan.call;

    let t: DetHashTable<U64Key> = DetHashTable::new_pow2(plan.log2_cells);
    let insert = phase(tracer, "det.par_insert_batched", half, call, |c| {
        t.par_insert_batched(c)
    });
    let find_hit = phase(tracer, "det.par_find_batched", half, call, |c| {
        black_box(t.par_find_batched(c));
    });
    let find_miss = phase(tracer, "det.par_find_batched.miss", &absent, call, |c| {
        black_box(t.par_find_batched(c));
    });
    let t0 = Instant::now();
    let packed = black_box(t.elements());
    let t1 = Instant::now();
    tracer.record("det.elements", 0, 0, t0, t1, packed.len() as u32);
    let elements = clock::scaled_ns(t0, t1, BULK_CLOCK_SHARE) as f64 / packed.len().max(1) as f64;
    drop(packed);
    let delete = phase(tracer, "det.par_delete_batched", half, call, |c| {
        t.par_delete_batched(c)
    });
    drop(t);

    let t: DetHashTable<U64Key> = DetHashTable::new_pow2(plan.log2_cells);
    let insert_l75 = phase(tracer, "det.par_insert_batched.l75", &keys, call, |c| {
        t.par_insert_batched(c)
    });
    let find_hit_l75 = phase(tracer, "det.par_find_batched.l75", &keys, call, |c| {
        black_box(t.par_find_batched(c));
    });
    simd::set_tier(Some(SimdTier::Scalar));
    let find_hit_l75_scalar = phase(
        tracer,
        "det.par_find_batched.l75.scalar",
        &keys,
        call,
        |c| {
            black_box(t.par_find_batched(c));
        },
    );
    simd::set_tier(None);
    DetRows {
        insert,
        find_hit,
        find_miss,
        elements,
        delete,
        insert_l75,
        find_hit_l75,
        find_hit_l75_scalar,
    }
}

/// Insert / find-hit / delete of one core at load 1/2 through the
/// sequential batch calls every core exposes — the guard rows for a
/// probe-engine merge.
pub struct CoreRows {
    /// `insert_batch`.
    pub insert: f64,
    /// `find_batch` of stored keys.
    pub find_hit: f64,
    /// `delete_batch`.
    pub delete: f64,
}

fn core_rows(
    tracer: &mut Tracer,
    names: [&'static str; 3],
    keys: &[U64Key],
    call: usize,
    insert: impl FnMut(&[U64Key]),
    find: impl FnMut(&[U64Key]),
    delete: impl FnMut(&[U64Key]),
) -> CoreRows {
    CoreRows {
        insert: phase(tracer, names[0], keys, call, insert),
        find_hit: phase(tracer, names[1], keys, call, find),
        delete: phase(tracer, names[2], keys, call, delete),
    }
}

/// Guard rows of `FcHashTable`, `RobinHoodHashTable`, `NdHashTable`,
/// in that order.
pub fn guard_rows(plan: MicroPlan, tracer: &mut Tracer) -> [CoreRows; 3] {
    let keys = distinct_keys(plan.half_load(), plan.seed, 2);
    let call = plan.call;
    let fc: FcHashTable<U64Key> = FcHashTable::new_pow2(plan.log2_cells);
    let fc_rows = core_rows(
        tracer,
        ["fc.insert_batch", "fc.find_batch", "fc.delete_batch"],
        &keys,
        call,
        |c| fc.insert_batch(c),
        |c| {
            black_box(fc.find_batch(c));
        },
        |c| fc.delete_batch(c),
    );
    drop(fc);
    // Robin Hood exposes its batched delete on the delete-phase handle
    // only; the handle is a plain borrow, so taking it per call is free.
    let rh = std::cell::RefCell::new(RobinHoodHashTable::<U64Key>::new_pow2(plan.log2_cells));
    let rh_rows = core_rows(
        tracer,
        [
            "robinhood.insert_batch",
            "robinhood.find_batch",
            "robinhood.delete_batch",
        ],
        &keys,
        call,
        |c| rh.borrow().insert_batch(c),
        |c| {
            black_box(rh.borrow().find_batch(c));
        },
        |c| rh.borrow_mut().begin_delete().delete_batch(c),
    );
    drop(rh);
    let nd: NdHashTable<U64Key> = NdHashTable::new_pow2(plan.log2_cells);
    let nd_rows = core_rows(
        tracer,
        ["nd.insert_batch", "nd.find_batch", "nd.delete_batch"],
        &keys,
        call,
        |c| nd.insert_batch(c),
        |c| {
            black_box(nd.find_batch(c));
        },
        |c| nd.delete_batch(c),
    );
    [fc_rows, rh_rows, nd_rows]
}

/// ns per call of the two stop-scan kernels at each tier, in
/// `[scalar, sse2, avx2]` order. A tier the CPU lacks runs (and so
/// reports) the next one down, as `set_tier` clamps.
pub struct SimdRows {
    /// `simd::scan_le` over 32-cell windows.
    pub scan_le: [f64; 3],
    /// `simd::scan_for_key` over 32-cell windows.
    pub scan_for_key: [f64; 3],
}

/// Cells per scanned window.
const WINDOW: usize = 32;

/// Times the scan kernels over every aligned 32-cell window of an
/// L2-resident det table at load 3/4. Window `i` scans for the value
/// found at offset `7i mod 32` of the window (or for an empty cell if
/// that one is empty), so stop positions are spread over the window
/// without the benchmark knowing where the table homes a key.
pub fn simd_rows(seed: u64, tracer: &mut Tracer) -> SimdRows {
    const LOG2_CELLS: u32 = 14;
    const SWEEPS: usize = 64;
    let keys = distinct_keys(3 << (LOG2_CELLS - 2), seed, 4);
    let t: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2_CELLS);
    t.insert_batch(&keys);
    let cells = t.raw_cells();
    let mask = <U64Key as HashEntry>::SIMD_KEY_MASK.expect("U64Key is a masked entry type");
    let empty = <U64Key as HashEntry>::EMPTY;
    let targets: Vec<u64> = (0..cells.len() / WINDOW)
        .map(|i| cells[i * WINDOW + (7 * i) % WINDOW].load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    let calls = (SWEEPS * targets.len()) as f64;
    let mut rows = SimdRows {
        scan_le: [0.0; 3],
        scan_for_key: [0.0; 3],
    };
    let le_names = [
        "simd.scan_le.scalar",
        "simd.scan_le.sse2",
        "simd.scan_le.avx2",
    ];
    let key_names = [
        "simd.scan_for_key.scalar",
        "simd.scan_for_key.sse2",
        "simd.scan_for_key.avx2",
    ];
    for (i, tier) in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2]
        .into_iter()
        .enumerate()
    {
        simd::set_tier(Some(tier));
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            for (w, &target) in targets.iter().enumerate() {
                black_box(simd::scan_le(
                    cells,
                    w * WINDOW,
                    (w + 1) * WINDOW,
                    mask,
                    target & mask,
                ));
            }
        }
        let t1 = Instant::now();
        for _ in 0..SWEEPS {
            for (w, &target) in targets.iter().enumerate() {
                black_box(simd::scan_for_key(
                    cells,
                    w * WINDOW,
                    (w + 1) * WINDOW,
                    empty,
                    mask,
                    target,
                ));
            }
        }
        let t2 = Instant::now();
        tracer.record(le_names[i], 0, i as u32, t0, t1, calls as u32);
        tracer.record(key_names[i], 0, i as u32, t1, t2, calls as u32);
        // The table sits in L2: the kernels run at the core's pace.
        rows.scan_le[i] = clock::scaled_ns(t0, t1, 1.0) as f64 / calls;
        rows.scan_for_key[i] = clock::scaled_ns(t1, t2, 1.0) as f64 / calls;
    }
    simd::set_tier(None);
    rows
}
