//! Differential suite for sub-word (32-bit) cells and deterministic
//! shrinking.
//!
//! Two families of guarantees are pinned here:
//!
//! * **Width differential** — a table of packed [`KvPair32`] entries
//!   (`Repr = u32`, `AtomicU32` cells) must decode to exactly the same
//!   key/value sets as the 64-bit [`KvPair`] reference built from the
//!   same logical operations, at loads 1/3, 1/2, and 3/4 and under
//!   every SIMD dispatch tier. The 64-bit table runs the layer that
//!   PRs 5–8 validated; these tests extend that trust to the narrow
//!   cells and the doubled-lane kernels.
//! * **Shrink determinism** — grow→delete→shrink→regrow cycles must
//!   land on the same capacity and byte-identical quiescent snapshots
//!   whether driven by 1, 2, or 8 threads, because the canonical
//!   capacity is a pure function of the phase history (see the
//!   shrinking notes in `phc_core::resize`).

use std::sync::{Mutex, MutexGuard};

use phc_core::simd::{set_tier, SimdTier};
use phc_core::{
    AutoPhaseGrowTable, DetHashTable, FcAutoGrowTable, FcHashTable, FlatTableCore, HashEntry,
    KvPair, KvPair32, NdHashTable, ResizableTable, RobinHoodHashTable, U64Key,
};
use phc_parutil::{hash64, run_with_threads};
use rayon::prelude::*;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TIERS: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2];

fn with_tier<R>(t: SimdTier, f: impl FnOnce() -> R) -> R {
    set_tier(Some(t));
    let r = f();
    set_tier(None);
    r
}

/// Cell counts for a 2^12 table at loads 1/3, 1/2, and 3/4.
const LOG2: u32 = 12;
const LOADS: [usize; 3] = [4096 / 3, 4096 / 2, 4096 * 3 / 4];

/// `n` distinct logical (key, value) pairs that fit both entry widths:
/// 16-bit nonzero keys, 16-bit values. Keys are `1..=n` (n stays far
/// below 2^16 at every load above), values are hash-scrambled so the
/// value half exercises arbitrary bit patterns.
fn kv_logical(n: usize, seed: u64) -> Vec<(u16, u16)> {
    (0..n as u64)
        .map(|i| (1 + i as u16, hash64(i ^ seed) as u16))
        .collect()
}

/// Decoded, sorted (key, value) content — the width-independent
/// observable the two cell widths are compared on.
fn decode<E: HashEntry>(v: Vec<E>, f: impl Fn(E) -> (u32, u32)) -> Vec<(u32, u32)> {
    let mut kv: Vec<(u32, u32)> = v.into_iter().map(f).collect();
    kv.sort_unstable();
    kv
}

fn kv32(e: KvPair32) -> (u32, u32) {
    (e.key as u32, e.value as u32)
}

fn kv64(e: KvPair) -> (u32, u32) {
    (e.key, e.value)
}

/// Width-independent observables of one build+probe+delete run:
/// decoded content, finds (as decoded hits), and len, before and after
/// a delete wave.
#[derive(PartialEq, Eq, Debug)]
struct Observed {
    content: Vec<(u32, u32)>,
    finds: Vec<Option<(u32, u32)>>,
    len: usize,
    content_after_delete: Vec<(u32, u32)>,
    len_after_delete: usize,
}

/// Drives one fixed-capacity core generically: parallel insert of the
/// logical pairs, batched find over present + absent keys, then a
/// parallel delete of every third key. `mk` maps a logical pair to the
/// entry type; `dec` decodes back. (One closure per table operation is
/// the clearest parameterization here, arity lint notwithstanding.)
#[allow(clippy::too_many_arguments)]
fn run_core<E: HashEntry>(
    pairs: &[(u16, u16)],
    insert: impl Fn(&[E]),
    find_batch: impl Fn(&[E]) -> Vec<Option<E>>,
    delete: impl Fn(&[E]),
    elements: impl Fn() -> Vec<E>,
    len: impl Fn() -> usize,
    mk: impl Fn(u16, u16) -> E + Sync,
    dec: impl Fn(E) -> (u32, u32) + Copy,
) -> Observed {
    let entries: Vec<E> = pairs.iter().map(|&(k, v)| mk(k, v)).collect();
    insert(&entries);
    let mut probes = entries.clone();
    // Guaranteed-absent keys: above every inserted key, below 2^16.
    probes.extend((0..256u16).map(|i| mk(u16::MAX - i, 0)));
    let finds = find_batch(&probes)
        .into_iter()
        .map(|o| o.map(dec))
        .collect();
    let content = decode(elements(), dec);
    let n = len();
    let dels: Vec<E> = entries.iter().copied().step_by(3).collect();
    delete(&dels);
    Observed {
        content,
        finds,
        len: n,
        content_after_delete: decode(elements(), dec),
        len_after_delete: len(),
    }
}

fn assert_widths_agree(label: &str, narrow: &Observed, wide: &Observed, tier: SimdTier) {
    assert_eq!(
        narrow, wide,
        "{label}: 32-bit cells diverged from the 64-bit reference at {tier:?}"
    );
}

#[test]
fn det_32bit_matches_64bit_reference_at_all_loads_and_tiers() {
    let _g = lock();
    for &n in &LOADS {
        let pairs = kv_logical(n, 0xD32);
        for tier in TIERS {
            let (narrow, wide) = with_tier(tier, || {
                let t32 = DetHashTable::<KvPair32>::new_pow2(LOG2);
                let t64 = DetHashTable::<KvPair>::new_pow2(LOG2);
                let narrow = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t32.insert(e)),
                    |ps| t32.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t32.delete(d)),
                    || t32.elements(),
                    || t32.len(),
                    KvPair32::new,
                    kv32,
                );
                let wide = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t64.insert(e)),
                    |ps| t64.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t64.delete(d)),
                    || t64.elements(),
                    || t64.len(),
                    |k, v| KvPair::new(k as u32, v as u32),
                    kv64,
                );
                (narrow, wide)
            });
            assert_widths_agree("det", &narrow, &wide, tier);
        }
    }
}

#[test]
fn nd_32bit_matches_64bit_reference_at_all_loads_and_tiers() {
    let _g = lock();
    for &n in &LOADS {
        let pairs = kv_logical(n, 0x5332);
        for tier in TIERS {
            let (narrow, wide) = with_tier(tier, || {
                let t32 = NdHashTable::<KvPair32>::new_pow2(LOG2);
                let t64 = NdHashTable::<KvPair>::new_pow2(LOG2);
                // Sequential drive: ND layouts are history-dependent,
                // so a fixed op order keeps even raw layouts (and
                // therefore the decoded sets) deterministic.
                let narrow = run_core(
                    &pairs,
                    |es| es.iter().for_each(|&e| t32.insert(e)),
                    |ps| t32.find_batch(ps),
                    |ds| ds.iter().for_each(|&d| t32.delete(d)),
                    || t32.elements(),
                    || t32.len(),
                    KvPair32::new,
                    kv32,
                );
                let wide = run_core(
                    &pairs,
                    |es| es.iter().for_each(|&e| t64.insert(e)),
                    |ps| t64.find_batch(ps),
                    |ds| ds.iter().for_each(|&d| t64.delete(d)),
                    || t64.elements(),
                    || t64.len(),
                    |k, v| KvPair::new(k as u32, v as u32),
                    kv64,
                );
                (narrow, wide)
            });
            assert_widths_agree("nd", &narrow, &wide, tier);
        }
    }
}

#[test]
fn rh_32bit_matches_64bit_reference_at_all_loads_and_tiers() {
    let _g = lock();
    for &n in &LOADS {
        let pairs = kv_logical(n, 0x4232);
        for tier in TIERS {
            let (narrow, wide) = with_tier(tier, || {
                let t32 = RobinHoodHashTable::<KvPair32>::new_pow2(LOG2);
                let t64 = RobinHoodHashTable::<KvPair>::new_pow2(LOG2);
                let narrow = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t32.insert(e)),
                    |ps| t32.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t32.delete(d)),
                    || t32.elements(),
                    || t32.len(),
                    KvPair32::new,
                    kv32,
                );
                let wide = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t64.insert(e)),
                    |ps| t64.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t64.delete(d)),
                    || t64.elements(),
                    || t64.len(),
                    |k, v| KvPair::new(k as u32, v as u32),
                    kv64,
                );
                (narrow, wide)
            });
            assert_widths_agree("rh", &narrow, &wide, tier);
        }
    }
}

#[test]
fn fc_32bit_matches_64bit_reference_at_all_loads_and_tiers() {
    let _g = lock();
    for &n in &LOADS {
        let pairs = kv_logical(n, 0xFC32);
        for tier in TIERS {
            let (narrow, wide) = with_tier(tier, || {
                let t32 = FcHashTable::<KvPair32>::new_pow2(LOG2);
                let t64 = FcHashTable::<KvPair>::new_pow2(LOG2);
                let narrow = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t32.insert(e)),
                    |ps| t32.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t32.delete(d)),
                    || t32.elements(),
                    || t32.len(),
                    KvPair32::new,
                    kv32,
                );
                let wide = run_core(
                    &pairs,
                    |es| es.par_iter().for_each(|&e| t64.insert(e)),
                    |ps| t64.find_batch(ps),
                    |ds| ds.par_iter().for_each(|&d| t64.delete(d)),
                    || t64.elements(),
                    || t64.len(),
                    |k, v| KvPair::new(k as u32, v as u32),
                    kv64,
                );
                (narrow, wide)
            });
            assert_widths_agree("fc", &narrow, &wide, tier);
        }
    }
}

/// The narrow table's raw snapshot is itself history-independent: the
/// same key set built by different schedules lands on byte-identical
/// cells, exactly as for 64-bit entries (paper §3) — and the cells
/// really are half-width.
#[test]
fn kvpair32_layout_is_history_independent_and_half_width() {
    let _g = lock();
    let pairs = kv_logical(4096 / 2, 0x4132);
    let entries: Vec<KvPair32> = pairs.iter().map(|&(k, v)| KvPair32::new(k, v)).collect();
    let forward = DetHashTable::<KvPair32>::new_pow2(LOG2);
    let shuffled = DetHashTable::<KvPair32>::new_pow2(LOG2);
    entries.iter().for_each(|&e| forward.insert(e));
    // Reverse order, parallel.
    let rev: Vec<KvPair32> = entries.iter().rev().copied().collect();
    rev.par_iter().for_each(|&e| shuffled.insert(e));
    assert_eq!(forward.snapshot(), shuffled.snapshot());
    assert_eq!(
        std::mem::size_of_val(&forward.raw_cells()[0]),
        4,
        "KvPair32 cells must be 4 bytes"
    );
    assert_eq!(
        std::mem::size_of_val(&DetHashTable::<KvPair>::new_pow2(4).raw_cells()[0]),
        8,
        "KvPair cells stay 8 bytes"
    );
}

/// `elements_into` appends exactly what `elements` returns, reusing
/// the caller's buffer across calls.
#[test]
fn elements_into_matches_elements() {
    let pairs = kv_logical(1000, 0xE170);
    let t = DetHashTable::<KvPair32>::new_pow2(LOG2);
    pairs
        .iter()
        .for_each(|&(k, v)| t.insert(KvPair32::new(k, v)));
    let mut buf: Vec<KvPair32> = Vec::new();
    t.elements_into(&mut buf);
    assert_eq!(buf, t.elements());
    // Packing into a non-empty buffer appends: the prior contents
    // survive and the packed entries land after them (the multi-shard
    // export contract).
    let sentinel = KvPair32::new(0xDEAD, 0xBEEF);
    let mut pre = vec![sentinel; 3];
    t.elements_into(&mut pre);
    assert_eq!(pre[..3], [sentinel; 3]);
    assert_eq!(pre[3..], t.elements()[..]);
    // Re-packing into the same buffer after the caller clears reuses
    // the high-water capacity (no shrink of the allocation).
    let cap = buf.capacity();
    buf.clear();
    t.elements_into(&mut buf);
    assert_eq!(buf, t.elements());
    assert!(buf.capacity() >= cap);
}

// --- shrinking ---------------------------------------------------------

/// One grow→delete→shrink→regrow cycle on the growable wrapper,
/// driven through the batched (normalizing) paths. Returns the
/// (capacity, snapshot) observables at each quiescent boundary.
fn shrink_cycle<T>(keys: &[u64]) -> Vec<(usize, Vec<u64>)>
where
    T: core_like::GrowTable,
{
    let t = T::new_pow2(8);
    let mut out = Vec::new();
    let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();

    t.par_insert_batched(&entries);
    out.push((t.capacity(), t.snapshot()));

    // Delete all but a sliver: capacity must fall back toward the
    // floor (1/8 trigger, halving until the load leaves the band).
    let dels: Vec<U64Key> = entries[64..].to_vec();
    t.par_delete_batched(&dels);
    out.push((t.capacity(), t.snapshot()));

    // Regrow: same keys again — history independence plus canonical
    // capacity means the snapshot must match the first fill exactly.
    t.par_insert_batched(&entries[64..]);
    out.push((t.capacity(), t.snapshot()));

    // Drain to empty: capacity lands on the seed floor.
    t.par_delete_batched(&entries);
    out.push((t.capacity(), t.snapshot()));
    out
}

/// Object-safe-enough facade over the two growable wrappers so the
/// shrink cycle runs identically against both synchronization
/// disciplines.
mod core_like {
    use super::*;

    pub trait GrowTable {
        fn new_pow2(log2: u32) -> Self;
        fn par_insert_batched(&self, entries: &[U64Key]);
        fn par_delete_batched(&self, keys: &[U64Key]);
        fn capacity(&self) -> usize;
        fn snapshot(&self) -> Vec<u64>;
    }

    impl GrowTable for AutoPhaseGrowTable<U64Key> {
        fn new_pow2(log2: u32) -> Self {
            AutoPhaseGrowTable::new_pow2(log2)
        }
        fn par_insert_batched(&self, entries: &[U64Key]) {
            AutoPhaseGrowTable::par_insert_batched(self, entries)
        }
        fn par_delete_batched(&self, keys: &[U64Key]) {
            AutoPhaseGrowTable::par_delete_batched(self, keys)
        }
        fn capacity(&self) -> usize {
            AutoPhaseGrowTable::capacity(self)
        }
        fn snapshot(&self) -> Vec<u64> {
            AutoPhaseGrowTable::snapshot(self)
        }
    }

    impl GrowTable for FcAutoGrowTable<U64Key> {
        fn new_pow2(log2: u32) -> Self {
            FcAutoGrowTable::new_pow2(log2)
        }
        fn par_insert_batched(&self, entries: &[U64Key]) {
            FcAutoGrowTable::par_insert_batched(self, entries)
        }
        fn par_delete_batched(&self, keys: &[U64Key]) {
            FcAutoGrowTable::par_delete_batched(self, keys)
        }
        fn capacity(&self) -> usize {
            FcAutoGrowTable::capacity(self)
        }
        fn snapshot(&self) -> Vec<u64> {
            FcAutoGrowTable::snapshot(self)
        }
    }
}

fn shrink_keys(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1 + (hash64(i ^ 0x5412) >> 8))
        .collect()
}

#[test]
fn capacity_shrinks_after_mass_delete_and_returns_to_floor() {
    let keys = shrink_keys(20_000);
    let stages = shrink_cycle::<AutoPhaseGrowTable<U64Key>>(&keys);
    let grown = stages[0].0;
    assert!(grown >= 1 << 15, "20k keys must grow well past the seed");
    // After deleting all but 64 keys: halve while 64 * 8 < capacity,
    // i.e. land on exactly 512 cells.
    assert_eq!(stages[1].0, 512, "post-delete capacity must be canonical");
    // Regrown to the same key set ⇒ same capacity and byte-identical
    // snapshot as the first fill.
    assert_eq!(stages[2].0, grown);
    assert_eq!(stages[2].1, stages[0].1, "regrow must reproduce the layout");
    // Fully drained ⇒ back to the 2^8 seed floor, all-empty cells.
    assert_eq!(stages[3].0, 1 << 8, "empty table sits on the seed floor");
    assert!(stages[3].1.iter().all(|&c| c == U64Key::EMPTY));
}

#[test]
fn shrink_cycle_identical_across_1_2_8_threads() {
    let keys = shrink_keys(20_000);
    let reference = run_with_threads(1, || shrink_cycle::<AutoPhaseGrowTable<U64Key>>(&keys));
    for threads in [2usize, 8] {
        let got = run_with_threads(threads, || {
            shrink_cycle::<AutoPhaseGrowTable<U64Key>>(&keys)
        });
        assert_eq!(
            got,
            reference,
            "rooms shrink cycle diverged at T={threads} (capacities: {:?} vs {:?})",
            got.iter().map(|s| s.0).collect::<Vec<_>>(),
            reference.iter().map(|s| s.0).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn fc_shrink_cycle_identical_across_1_2_8_threads() {
    let keys = shrink_keys(20_000);
    let reference = run_with_threads(1, || shrink_cycle::<FcAutoGrowTable<U64Key>>(&keys));
    for threads in [2usize, 8] {
        let got = run_with_threads(threads, || shrink_cycle::<FcAutoGrowTable<U64Key>>(&keys));
        assert_eq!(got, reference, "fc shrink cycle diverged at T={threads}");
    }
    // Both disciplines land on the same canonical layouts too.
    let rooms = run_with_threads(4, || shrink_cycle::<AutoPhaseGrowTable<U64Key>>(&keys));
    assert_eq!(rooms, reference, "rooms vs fc shrink cycles diverged");
}

// --- Migration: the drain sweep and the interleavings around it -------

/// Builds a core and reads every block out of it as a migrator would
/// (behind the resizer's drain gate nothing else touches the array —
/// here nothing else exists): the drained reprs are exactly the packed
/// elements, in cell order, and the sweep stored nothing — the raw cells
/// are byte-identical afterwards and every key is still found.
fn check_drain<E: HashEntry, T: FlatTableCore<E>>(
    label: &str,
    pairs: &[(u16, u16)],
    mk: impl Fn(u16, u16) -> E,
    tier: SimdTier,
) {
    const DRAIN_LOG2: u32 = 11;
    let table = T::new_pow2(DRAIN_LOG2);
    let t = table.engine();
    let entries: Vec<E> = pairs.iter().map(|&(k, v)| mk(k, v)).collect();
    entries.iter().for_each(|&e| t.insert(e));
    let before = t.snapshot();

    let mut drained = Vec::new();
    let mut buf = [0u64; 64];
    for lo in (0..t.capacity()).step_by(64) {
        let n = t.drain_range(lo..lo + 64, &mut buf);
        drained.extend(buf[..n].iter().map(|&r| E::from_repr(r)));
    }
    assert_eq!(drained.len(), pairs.len(), "{label} at {tier:?}");
    assert_eq!(
        drained,
        t.elements(),
        "{label}: the sweep must return the content in cell order at {tier:?}"
    );
    assert_eq!(
        t.snapshot(),
        before,
        "{label}: the sweep must not store to the source at {tier:?}"
    );
    for &e in &entries {
        assert_eq!(t.find(e), Some(e), "{label} at {tier:?}");
    }
}

#[test]
fn drain_sweep_returns_cell_order_content_and_leaves_source_untouched() {
    let _g = lock();
    // Includes the top of both packed domains: the all-ones cell word
    // is an ordinary entry.
    let mut pairs = kv_logical(1024, 0x10F0);
    pairs.push((u16::MAX, u16::MAX));
    let kv = |k: u16, v: u16| -> KvPair { KvPair::new(k as u32 * 0x1_0001, v as u32 * 0x1_0001) };
    for tier in TIERS {
        with_tier(tier, || {
            check_drain::<_, DetHashTable<KvPair32>>("det32", &pairs, KvPair32::new, tier);
            check_drain::<_, DetHashTable<KvPair>>("det64", &pairs, kv, tier);
            check_drain::<_, RobinHoodHashTable<KvPair32>>("rh32", &pairs, KvPair32::new, tier);
            check_drain::<_, RobinHoodHashTable<KvPair>>("rh64", &pairs, kv, tier);
            check_drain::<_, FcHashTable<KvPair32>>("fc32", &pairs, KvPair32::new, tier);
            check_drain::<_, FcHashTable<KvPair>>("fc64", &pairs, kv, tier);
        });
    }
}

/// The all-ones cell word is an ordinary key on every growable core, at
/// both cell widths: insert it, find it, carry it through two doublings
/// (two migrations read it out of a retiring array and re-insert it),
/// delete it.
fn check_all_ones_key<E: HashEntry, T: FlatTableCore<E>>(
    label: &str,
    top: E,
    mk: impl Fn(u16) -> E,
    tier: SimdTier,
) {
    assert_eq!(top.to_repr(), <E::Repr as phc_core::CellWord>::MAX_REPR);
    let t: ResizableTable<E, T> = ResizableTable::new_pow2(4);
    t.insert(top);
    assert_eq!(t.find(top), Some(top), "{label} at {tier:?}");
    let others: Vec<E> = (1..=40).map(mk).collect();
    t.insert_batch(&others);
    assert_eq!(t.capacity(), 64, "{label}: two doublings at {tier:?}");
    assert_eq!(t.len(), 41, "{label} at {tier:?}");
    assert_eq!(t.find(top), Some(top), "{label} at {tier:?}");
    assert!(t.elements().contains(&top), "{label} at {tier:?}");
    t.delete(top);
    assert_eq!(t.find(top), None, "{label} at {tier:?}");
    assert_eq!(t.len(), 40, "{label} at {tier:?}");
    for &e in &others {
        assert_eq!(t.find(e), Some(e), "{label} at {tier:?}");
    }
}

#[test]
fn all_ones_key_is_an_ordinary_key_on_every_growable_core() {
    let _g = lock();
    let top32: KvPair32 = KvPair32::new(u16::MAX, u16::MAX);
    let top64: KvPair = KvPair::new(u32::MAX, u32::MAX);
    let topk = U64Key::new(u64::MAX);
    let kv32 = |k: u16| -> KvPair32 { KvPair32::new(k, k) };
    let kv64 = |k: u16| -> KvPair { KvPair::new(k as u32, 7) };
    let key = |k: u16| U64Key::new(hash64(k as u64) | 1);
    for tier in TIERS {
        with_tier(tier, || {
            check_all_ones_key::<_, DetHashTable<_>>("det32", top32, kv32, tier);
            check_all_ones_key::<_, DetHashTable<_>>("det64", top64, kv64, tier);
            check_all_ones_key::<_, DetHashTable<_>>("det-u64", topk, key, tier);
            check_all_ones_key::<_, RobinHoodHashTable<_>>("rh32", top32, kv32, tier);
            check_all_ones_key::<_, RobinHoodHashTable<_>>("rh64", top64, kv64, tier);
            check_all_ones_key::<_, RobinHoodHashTable<_>>("rh-u64", topk, key, tier);
            check_all_ones_key::<_, FcHashTable<_>>("fc32", top32, kv32, tier);
            check_all_ones_key::<_, FcHashTable<_>>("fc64", top64, kv64, tier);
            check_all_ones_key::<_, FcHashTable<_>>("fc-u64", topk, key, tier);
        });
    }
}

/// Per-op insert / delete / re-insert waves on the growable wrapper
/// with **no normalize between waves** — the interleaving incremental
/// migration has to survive: wave 1's grow publishes race each other,
/// wave 2's deletes register against (and drain) migrations that are
/// still pending from wave 1 while their own shrink publishes race the
/// remaining deletes, and wave 3's grow publishes land on an epoch
/// chain whose head can still be a part-migrated shrink epoch. Only
/// the final `normalize()` pays a full drain; the quiescent state
/// after it must be a pure function of the surviving key set.
type StormObserved = (usize, usize, Vec<u64>, Vec<(u32, u32)>);

fn storm_observables<E: HashEntry>(
    pairs: &[(u16, u16)],
    mk: impl Fn(u16, u16) -> E + Sync,
    dec: impl Fn(E) -> (u32, u32) + Copy,
) -> StormObserved {
    let t = AutoPhaseGrowTable::<E>::new_pow2(4);
    let entries: Vec<E> = pairs.iter().map(|&(k, v)| mk(k, v)).collect();
    entries.par_iter().for_each(|&e| t.insert(e));
    let dels: Vec<E> = entries[64..].to_vec();
    dels.par_iter().for_each(|&d| t.delete(d));
    dels.par_iter().for_each(|&e| t.insert(e));
    t.normalize();
    (
        t.capacity(),
        t.len(),
        t.snapshot(),
        decode(t.elements(), dec),
    )
}

#[test]
fn interleaved_grow_shrink_storm_identical_across_threads_tiers_and_widths() {
    let _g = lock();
    let pairs = kv_logical(3000, 0x57A3);
    let mut reference32: Option<StormObserved> = None;
    for tier in TIERS {
        with_tier(tier, || {
            for threads in [1usize, 2, 8] {
                let got32 = run_with_threads(threads, || {
                    storm_observables::<KvPair32>(&pairs, KvPair32::new, kv32)
                });
                let got64 = run_with_threads(threads, || {
                    storm_observables::<KvPair>(
                        &pairs,
                        |k, v| KvPair::new(k as u32, v as u32),
                        kv64,
                    )
                });
                // Cell widths agree on the logical outcome...
                assert_eq!(
                    got32.3, got64.3,
                    "storm contents diverged across widths at {tier:?}, T={threads}"
                );
                assert_eq!(got32.0, got64.0, "storm capacities diverged across widths");
                // ...and within a width, every (threads, tier) run
                // lands on the same canonical capacity and
                // byte-identical quiescent snapshot.
                match &reference32 {
                    None => reference32 = Some(got32),
                    Some(r) => assert_eq!(
                        &got32, r,
                        "storm quiescent state diverged at {tier:?}, T={threads}"
                    ),
                }
            }
        });
    }
}

/// Shrinking composes with the 32-bit cells: the same cycle on packed
/// entries, capacity and decoded contents deterministic across thread
/// counts.
#[test]
fn kvpair32_shrink_cycle_identical_across_threads() {
    let pairs = kv_logical(3000, 0x32C7);
    // The room wrapper normalizes at every batch boundary, so each
    // stage is a deterministic cut: capacity AND raw (32-bit-cell)
    // snapshot must agree across thread counts.
    let cycle = || {
        let t = AutoPhaseGrowTable::<KvPair32>::new_pow2(6);
        let entries: Vec<KvPair32> = pairs.iter().map(|&(k, v)| KvPair32::new(k, v)).collect();
        t.par_insert_batched(&entries);
        let mut out = vec![(t.capacity(), t.snapshot())];
        t.par_delete_batched(&entries[32..]);
        out.push((t.capacity(), t.snapshot()));
        t.par_insert_batched(&entries[32..]);
        out.push((t.capacity(), t.snapshot()));
        out
    };
    let reference = run_with_threads(1, cycle);
    assert!(reference[0].0 > 64 && reference[1].0 < reference[0].0);
    for threads in [2usize, 8] {
        let got = run_with_threads(threads, cycle);
        assert_eq!(
            got, reference,
            "KvPair32 shrink cycle diverged at T={threads}"
        );
    }
}
