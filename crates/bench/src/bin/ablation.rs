//! Ablations of the design choices DESIGN.md calls out (not a paper
//! artifact):
//!
//! * **cost of priorities** — the deterministic table's only extra
//!   work over first-fit probing is the priority comparison + swap
//!   chain; measured head-to-head at rising duplicate rates (the paper
//!   attributes its D-vs-ND gap to exactly this);
//! * **elements()** — deterministic pack vs a thread-racy
//!   filter-and-collect of the same cells. The racy arm is the slower
//!   one: a sequential filter-and-collect costs about as much, so the
//!   gap is the branchy filter into a growing `Vec`, not a cost of
//!   determinism (EXPERIMENTS.md, Ablations);
//! * **hash quality** — the table with the production mixer vs a
//!   deliberately weak multiplicative hash (cluster blowup).
//!
//! Every arm runs once to warm up, then `SAMPLES` times; each cell is
//! the median seconds per run, and the last column is the ratio of the
//! two arms. N and the table size are fixed; the bin takes no flags.
//!
//! ```text
//! cargo run --release -p phc-bench --bin ablation
//! ```

use phc_bench::{time_once, Report};
use phc_core::entry::HashEntry;
use phc_core::{DetHashTable, NdHashTable, U64Key};
use rayon::prelude::*;
use std::cmp::Ordering;

const N: usize = 50_000;
const LOG2: u32 = 17;
const SAMPLES: usize = 10;

/// `U64Key` with a deliberately weak hash (identity on the low bits):
/// adjacent keys collide into runs, inflating cluster lengths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WeakHashKey(u64);

impl HashEntry for WeakHashKey {
    type Repr = u64;
    const EMPTY: u64 = 0;
    fn to_repr(self) -> u64 {
        self.0
    }
    fn from_repr(repr: u64) -> Self {
        WeakHashKey(repr)
    }
    fn hash(repr: u64) -> u64 {
        repr.wrapping_mul(11) // nearly-sequential buckets
    }
    fn cmp_priority(a: u64, b: u64) -> Ordering {
        a.cmp(&b)
    }
    fn same_key(a: u64, b: u64) -> bool {
        a == b && a != 0
    }
}

/// Median seconds of `SAMPLES` runs of `f`, after one warm-up run.
fn median_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| time_once(|| std::hint::black_box(f())).0)
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}

/// Times two arms and pushes `[a, b, a / b]` as one row.
fn compare<A, B>(report: &mut Report, label: &str, a: impl FnMut() -> A, b: impl FnMut() -> B) {
    let (a, b) = (median_secs(a), median_secs(b));
    report.push(label, vec![Some(a), Some(b), Some(a / b)]);
}

fn main() {
    println!("# Ablations: N = {N} keys, 2^{LOG2} cells, median of {SAMPLES} runs (seconds)\n");

    // --- priorities vs first-fit at increasing duplicate rates.
    let mut priority = Report::new(
        "Ablation: priority vs first-fit insert",
        &["det", "nd", "det/nd"],
    );
    for (label, dup_mod) in [
        ("unique", u64::MAX),
        ("dup10", 10 * N as u64 / 100),
        ("dup1", N as u64 / 100),
    ] {
        let keys: Vec<u64> = (0..N as u64)
            .map(|i| (phc_parutil::hash64(i) % dup_mod.max(1)).max(1))
            .collect();
        compare(
            &mut priority,
            label,
            || {
                let t: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2);
                keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            },
            || {
                let t: NdHashTable<U64Key> = NdHashTable::new_pow2(LOG2);
                keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            },
        );
    }
    priority.print();

    // --- deterministic pack vs racy collect for elements().
    let t: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2);
    (1..=N as u64).for_each(|k| t.insert(U64Key::new(phc_parutil::hash64(k) | 1)));
    let mut elements = Report::new(
        "Ablation: elements()",
        &["det-pack", "racy-collect", "pack/racy"],
    );
    compare(
        &mut elements,
        "elements",
        || t.elements().len(),
        || {
            t.raw_cells()
                .par_iter()
                .filter_map(|c| {
                    let x = c.load(std::sync::atomic::Ordering::Relaxed);
                    (x != 0).then_some(x)
                })
                .collect::<Vec<u64>>()
                .len()
        },
    );
    elements.print();

    // --- hash quality: strong mixer vs weak multiplicative hash.
    let seq: Vec<u64> = (1..=N as u64).collect();
    let mut hash = Report::new("Ablation: hash quality", &["weak", "strong", "weak/strong"]);
    compare(
        &mut hash,
        "sequential",
        || {
            let t: DetHashTable<WeakHashKey> = DetHashTable::new_pow2(LOG2);
            seq.par_iter().for_each(|&k| t.insert(WeakHashKey(k)));
        },
        || {
            let t: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2);
            seq.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
        },
    );
    hash.print();
}
