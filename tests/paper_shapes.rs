//! The paper's count-based shapes, checked deterministically: a fixed
//! key set, no timing, so these run with the rest of the suite.

use phc_core::stats::probe_stats;
use phc_core::{DetHashTable, NdHashTable, U64Key};

/// Figure 5's table: 2^16 cells.
const LOG2: u32 = 16;

/// Knuth's mean displacement of a stored key under linear probing at
/// load `alpha`: (1/(1−α) − 1)/2.
fn knuth_displacement(alpha: f64) -> f64 {
    (1.0 / (1.0 - alpha) - 1.0) / 2.0
}

/// Figure 5's mechanism: the mean displacement of the deterministic
/// and the non-deterministic layouts both follow Knuth's curve, within
/// ±10% at every load from 0.2 to 0.9. (At 0.1 the expected mean is
/// 0.056 and one key set's reading strays further, so it is left out.)
#[test]
fn figure5_mean_displacement_follows_knuth() {
    for alpha in [0.2, 1.0 / 3.0, 0.5, 0.75, 0.9] {
        let n = ((1u64 << LOG2) as f64 * alpha) as u64;
        let det: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2);
        let nd: NdHashTable<U64Key> = NdHashTable::new_pow2(LOG2);
        for i in 0..n {
            let key = U64Key::new(phc_parutil::hash64(i) | 1);
            det.insert(key);
            nd.insert(key);
        }
        for (name, cells) in [("det", det.snapshot()), ("nd", nd.snapshot())] {
            let ratio = probe_stats::<U64Key>(&cells).mean() / knuth_displacement(alpha);
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{name} at load {alpha:.2}: mean displacement / Knuth = {ratio:.3}"
            );
        }
    }
}
