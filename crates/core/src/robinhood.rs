//! `robinHood`: a phase-concurrent, masked-compare Robin Hood hash table.
//!
//! Robin Hood hashing orders each probe cluster by home bucket: an
//! inserting key steals the slot of any entry closer to its own home
//! ("richer") and carries the displaced entry onward. The classic
//! formulation compares *displacements*; this table reaches the same
//! layout through a priority trick that makes the displacement rule
//! coincide with the deterministic table's ordering invariant — and
//! therefore with one masked unsigned compare per cell:
//!
//! * Every stored repr has its key field passed through a **bijective,
//!   zero-fixing mixer** (an invertible xorshift-multiply chain on the
//!   key field's width). The mixed field is what the cells hold; value
//!   bits pass through untouched.
//! * The home bucket is the top `log2(capacity)` bits of the
//!   **complement** of the masked (mixed) repr. Higher masked value ⟹
//!   earlier (or equal) home bucket — home position is monotone
//!   non-increasing in the masked value.
//! * Probing uses the deterministic table's prioritized linear probing
//!   with "masked value, descending" as the priority order. Its
//!   ordering invariant (every cell on the probe path outranks the
//!   probe) then *implies* the Robin Hood property: entries in a
//!   cluster appear in non-decreasing home-bucket order, with
//!   same-bucket ties broken by the mixed value — a total, canonical
//!   rule, so the layout is a pure function of the key set (history
//!   independence carries over from the deterministic table's proof,
//!   which only needs a hash function and a total priority order with
//!   ⊥ lowest).
//!
//! The payoff is that the displacement-ordered stop condition — "stop
//! at the first entry no richer than me, or an empty cell, or my own
//! key" — is exactly `masked(cell) <= masked(probe)`, the stop the
//! deterministic table's probe loop takes. There is no per-cell
//! displacement arithmetic anywhere on the hot path.
//!
//! ## Entry-type requirements
//!
//! The construction needs the key field to be maskable and the mixer to
//! preserve the empty sentinel, so `new_pow2` asserts:
//!
//! * `E::SIMD_KEY_MASK` is `Some(M)` with `M` a **top-aligned
//!   contiguous** bit range (`M == u64::MAX << M.trailing_zeros()`);
//! * `E::EMPTY == 0` (the mixer fixes 0, so empty cells stay the
//!   lowest-priority masked value);
//! * `log2(capacity)` ≤ the mask width (home buckets are drawn from the
//!   mixed key bits).
//!
//! [`U64Key`](crate::entry::U64Key) and [`KvPair`](crate::entry::KvPair)
//! qualify; pointer entries ([`StrRef`](crate::entry::StrRef)) do not.
//!
//! `E::hash` and `E::cmp_priority` are **never** called here — slotting
//! and priority both come from the masked mixed bits. `E::combine` *is*
//! called on transformed reprs, which is sound because the
//! `SIMD_KEY_MASK` contract makes key identity a pure function of the
//! masked bits (identical for both operands when `combine` runs) and
//! `combine` only produces new value bits, which are untransformed.
//! Reprs are un-mixed before any `E::from_repr` (find results,
//! `elements`, migration), so callers only ever see original entries.
//! [`snapshot`](RobinHoodHashTable::snapshot) returns the raw
//! (transformed) cells: still canonical per key set, so snapshot
//! equality remains the strongest determinism check.
//!
//! The probe loops are the shared engine's ([`crate::probe`]): this
//! module supplies the *order* — the mixer, the home rule and the
//! masked compares — and nothing else.

use crate::cell::CellWord;
use crate::entry::HashEntry;
use crate::phase::{Deleter, Inserter, Reader};
use crate::probe::{Growable, ProbePolicy, ProbeTable};

/// Multiplicative inverse of an odd `c` modulo 2^64 (Newton iteration:
/// each step doubles the number of correct low bits, starting from the
/// 3 bits that `c` itself gets right). Truncating the result to `w`
/// bits yields the inverse modulo 2^w.
fn mod_inverse_odd(c: u64) -> u64 {
    debug_assert_eq!(c & 1, 1, "only odd constants are invertible mod 2^w");
    let mut x = c;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
    }
    x
}

/// Exact inverse of `x ^= x >> s` on a `w`-bit value: iterating
/// `x = y ^ (x >> s)` recovers one more `s`-bit chunk (top-down) per
/// step, so running until the shift total covers 64 bits is always
/// enough.
#[inline]
fn inv_xorshift(y: u64, s: u32, wmask: u64) -> u64 {
    let mut x = y;
    let mut covered = s;
    while covered < 64 {
        x = y ^ (x >> s);
        covered += s;
    }
    x & wmask
}

/// Bijective, zero-fixing mixer on the `w`-bit key field (`w = 64 -
/// tz`, where `tz` is the key mask's trailing-zero count). An
/// fmix-style xorshift/odd-multiply chain: every step is a bijection on
/// w-bit values and maps 0 to 0, so the whole chain does too — distinct
/// keys get distinct mixed values and the empty sentinel is preserved.
/// The inverse constants are derived once at construction.
#[derive(Clone, Copy, Debug)]
struct Mixer {
    /// Key field offset (trailing zeros of the key mask).
    tz: u32,
    /// Low-`w`-bit mask (the key mask shifted down to bit 0).
    wmask: u64,
    /// Whether the key field spans the whole word (`tz == 0`): the
    /// masking steps are the identity then, and the hot paths skip
    /// them (the branch predicts perfectly — it never changes).
    full: bool,
    s1: u32,
    s2: u32,
    c1: u64,
    c2: u64,
    c1_inv: u64,
    c2_inv: u64,
}

impl Mixer {
    /// `word_bits` is the stored cell width (`E::Repr::BITS`): the key
    /// field occupies bits `[tz, word_bits)` of the repr.
    fn for_key_mask(key_mask: u64, word_bits: u32) -> Self {
        let tz = key_mask.trailing_zeros();
        let w = word_bits - tz;
        let wmask = key_mask >> tz;
        // fmix64-flavoured shifts scaled to the field width; the
        // multiplier constants stay odd after masking (both end in a
        // set low bit), so they remain invertible mod 2^w.
        let s1 = w / 2 + 1;
        let s2 = (w / 2).saturating_sub(3).max(1);
        let c1 = 0xff51_afd7_ed55_8ccd & wmask;
        let c2 = 0xc4ce_b9fe_1a85_ec53 & wmask;
        Mixer {
            tz,
            wmask,
            full: wmask == u64::MAX,
            s1,
            s2,
            c1,
            c2,
            c1_inv: mod_inverse_odd(c1) & wmask,
            c2_inv: mod_inverse_odd(c2) & wmask,
        }
    }

    #[inline]
    fn mix(&self, k: u64) -> u64 {
        debug_assert_eq!(k & !self.wmask, 0);
        let mut x = k;
        x ^= x >> self.s1;
        x = x.wrapping_mul(self.c1);
        if !self.full {
            x &= self.wmask;
        }
        x ^= x >> self.s2;
        x = x.wrapping_mul(self.c2);
        if !self.full {
            x &= self.wmask;
        }
        x ^= x >> self.s1;
        x
    }

    #[inline]
    fn unmix(&self, y: u64) -> u64 {
        let m = self.wmask;
        let mut x = inv_xorshift(y, self.s1, m);
        x = x.wrapping_mul(self.c2_inv) & m;
        x = inv_xorshift(x, self.s2, m);
        x = x.wrapping_mul(self.c1_inv) & m;
        inv_xorshift(x, self.s1, m)
    }
}

/// The Robin Hood table's probe policy: the order read off the mixed
/// key field. Built (and its entry-type requirements checked) by
/// [`RobinHoodHashTable::new_pow2`].
pub struct RhPolicy {
    /// `E::SIMD_KEY_MASK`, cached (construction proves it exists).
    key_mask: u64,
    /// `Repr::BITS - log2(capacity)`: the home bucket is
    /// `(!t & key_mask) >> home_shift`.
    home_shift: u32,
    mixer: Mixer,
}

impl<E: HashEntry> ProbePolicy<E> for RhPolicy {
    const NAME: &'static str = "robinHood";
    const SWAPS: phc_obs::Counter = phc_obs::Counter::RobinHoodShifts;

    /// Panics if `E` does not meet the Robin Hood entry requirements
    /// (see the [module docs](self)): a top-aligned contiguous
    /// `SIMD_KEY_MASK`, a zero `EMPTY` sentinel, and
    /// `1 <= log2_size <=` the mask width.
    fn new(log2_size: u32) -> Self {
        let key_mask = E::SIMD_KEY_MASK
            .expect("RobinHoodHashTable requires a maskable key field (SIMD_KEY_MASK)");
        let bits = <E::Repr as CellWord>::BITS;
        let max = <E::Repr as CellWord>::MAX_REPR;
        assert_eq!(
            key_mask,
            (max << key_mask.trailing_zeros()) & max,
            "RobinHoodHashTable requires a key mask top-aligned within the cell width"
        );
        assert_eq!(
            E::EMPTY,
            0,
            "RobinHoodHashTable requires EMPTY == 0 (the mixer fixes 0)"
        );
        let width = bits - key_mask.trailing_zeros();
        assert!(
            log2_size >= 1 && log2_size <= width,
            "RobinHoodHashTable requires 1 <= log2_size ({log2_size}) <= key width ({width})"
        );
        RhPolicy {
            key_mask,
            home_shift: bits - log2_size,
            mixer: Mixer::for_key_mask(key_mask, bits),
        }
    }

    /// Mixes the key field of an original repr into its stored form.
    #[inline(always)]
    fn stored(&self, repr: u64) -> u64 {
        let m = &self.mixer;
        if m.full {
            // Full-width key field: the recombine is the identity.
            return m.mix(repr);
        }
        (m.mix(repr >> m.tz) << m.tz) | (repr & !self.key_mask)
    }

    #[inline(always)]
    fn unstored(&self, t: u64) -> u64 {
        let m = &self.mixer;
        (m.unmix(t >> m.tz) << m.tz) | (t & !self.key_mask)
    }

    /// The match proves the key fields coincide (the mixer is bijective
    /// on the key field), and the value bits pass through the transform
    /// untouched — so the result is the probe's own key bits plus the
    /// cell's value bits, with no unmixing on the lookup fast path.
    #[inline(always)]
    fn recover(&self, probe_repr: u64, cell: u64) -> u64 {
        (probe_repr & self.key_mask) | (cell & !self.key_mask)
    }

    /// The top `log2(capacity)` bits of the complement of the masked
    /// value, taken within the cell width (`!t & key_mask` confines the
    /// complement to the key field, so the shift is exact for sub-word
    /// reprs too). Monotone non-increasing in `t & key_mask`, which is
    /// what couples the priority order to the Robin Hood displacement
    /// rule (see the module docs).
    #[inline(always)]
    fn home(&self, t: u64, _mask: usize) -> usize {
        ((!t & self.key_mask) >> self.home_shift) as usize
    }

    // The `SIMD_KEY_MASK` contract collapses `same_key` /
    // `cmp_priority` to masked equality / unsigned masked compare, and
    // the mixer's bijectivity keeps distinct keys distinct. `v` is a
    // stored entry, so its masked value is nonzero and ⊥ never matches.
    #[inline(always)]
    fn same_key(&self, c: u64, v: u64) -> bool {
        c & self.key_mask == v & self.key_mask
    }

    /// The cell's entry is at least as close to its home as `v` is to
    /// its own (richer, or home-tied with the higher mixed value).
    #[inline(always)]
    fn outranks(&self, c: u64, v: u64) -> bool {
        c & self.key_mask > v & self.key_mask
    }
}

impl<E: HashEntry> Growable<E> for RhPolicy {
    const GROW_NAME: &'static str = "robinHood-grow";
    const LABEL: &'static str = "robinhood";
}

/// The phase-concurrent Robin Hood hash table.
///
/// See the [module docs](self) for the layout rule and guarantees, and
/// [`ProbeTable`] for the operations. Same phase discipline and
/// concurrency contract as [`DetHashTable`](crate::det::DetHashTable):
/// any number of threads may run the *same* operation type
/// concurrently; the layout (and therefore `snapshot()`, which returns
/// the raw *transformed* cells — the mixer depends only on the entry
/// type, never the history, so the transform does not weaken the check)
/// is a pure function of the stored key set. Entries are un-mixed on
/// the way out of `find`, `elements` and migration, so callers only
/// ever see original reprs.
///
/// ```
/// use phc_core::{RobinHoodHashTable, U64Key};
/// let a: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
/// let b: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
/// for k in 1..=100u64 {
///     a.insert(U64Key::new(k));            // ascending
///     b.insert(U64Key::new(101 - k));      // descending
/// }
/// // History independence: identical layout from any insertion order.
/// assert_eq!(a.snapshot(), b.snapshot());
/// ```
pub type RobinHoodHashTable<E> = ProbeTable<E, RhPolicy>;

/// Insert-phase handle of [`RobinHoodHashTable`] (see [`crate::phase`]).
pub type RobinHoodInserter<'t, E> = Inserter<'t, RobinHoodHashTable<E>>;
/// Delete-phase handle of [`RobinHoodHashTable`].
pub type RobinHoodDeleter<'t, E> = Deleter<'t, RobinHoodHashTable<E>>;
/// Read-phase handle of [`RobinHoodHashTable`].
pub type RobinHoodReader<'t, E> = Reader<'t, RobinHoodHashTable<E>>;

impl<E: HashEntry> ProbeTable<E, RhPolicy> {
    /// Displacement distribution of a quiescent snapshot under the
    /// Robin Hood home rule (distance from each entry's complement-of-
    /// mixed-key bucket). The hash-based
    /// [`probe_stats`](crate::stats::probe_stats) would be wrong here —
    /// this table never consults `E::hash`.
    pub fn displacement_stats(&self) -> crate::stats::ProbeStats {
        let snap = self.snapshot();
        let t = self.probe();
        crate::stats::probe_stats_with(&snap, |c| c != E::EMPTY, |c| t.home(c))
    }

    /// Like [`displacement_stats`](Self::displacement_stats), but also
    /// mirrors the distribution into the global observability
    /// `rh_displacement` histogram (one bulk add per distance; a no-op
    /// without the `obs` feature). Benchmarks call this on a quiescent
    /// snapshot to embed the Robin Hood probe-length curve in their
    /// JSON reports.
    pub fn record_displacement_histogram(&self) -> crate::stats::ProbeStats {
        let stats = self.displacement_stats();
        for (d, &count) in stats.histogram.iter().enumerate() {
            if count > 0 {
                phc_obs::probe!(hist RhDisplacement, d, count);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeepMin, KvPair, U64Key};

    #[test]
    fn mixer_roundtrip_full_width() {
        let m = Mixer::for_key_mask(u64::MAX, 64);
        assert_eq!(m.mix(0), 0);
        for i in 0..2000u64 {
            let k = phc_parutil::hash64(i);
            assert_eq!(m.unmix(m.mix(k)), k, "k={k:#x}");
        }
        assert_eq!(m.unmix(m.mix(u64::MAX)), u64::MAX);
    }

    #[test]
    fn mixer_roundtrip_half_width() {
        // KvPair's key field: top 32 bits.
        let m = Mixer::for_key_mask(0xFFFF_FFFF_0000_0000, 64);
        assert_eq!(m.mix(0), 0);
        for i in 0..2000u64 {
            let k = phc_parutil::hash64(i) & m.wmask;
            assert_eq!(m.unmix(m.mix(k)), k, "k={k:#x}");
        }
        assert_eq!(m.unmix(m.mix(m.wmask)), m.wmask);
    }

    #[test]
    fn transform_roundtrips_and_preserves_value_bits() {
        let t: RobinHoodHashTable<KvPair<KeepMin>> = RobinHoodHashTable::new_pow2(6);
        for i in 1..500u64 {
            let repr = KvPair::<KeepMin>::new(i as u32, (i * 7) as u32).to_repr();
            let p = &t.policy;
            let tr = ProbePolicy::<KvPair<KeepMin>>::stored(p, repr);
            assert_eq!(tr & !p.key_mask, repr & !p.key_mask, "value bits move");
            assert_eq!(ProbePolicy::<KvPair<KeepMin>>::unstored(p, tr), repr);
        }
    }

    /// The defining Robin Hood layout property, checked directly on a
    /// snapshot: every stored entry's probe path from its home bucket
    /// is fully occupied by strictly richer (higher masked value)
    /// entries — equivalently, clusters are sorted by home bucket.
    fn assert_robin_hood_invariant(t: &RobinHoodHashTable<U64Key>) {
        let snap = t.snapshot();
        let n = snap.len();
        for (j, &c) in snap.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let home = t.probe().home(c);
            let mut i = home;
            while i != j {
                let on_path = snap[i];
                assert!(
                    on_path != 0 && (on_path & t.policy.key_mask) > (c & t.policy.key_mask),
                    "cell {j} (home {home}) has a poorer or empty cell at {i}"
                );
                i = (i + 1) & (n - 1);
            }
        }
    }

    #[test]
    fn layout_satisfies_robin_hood_invariant() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
        for i in 1..=192u64 {
            t.insert(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        assert_robin_hood_invariant(&t);
        // Still holds after deletes compact the clusters.
        for i in 1..=96u64 {
            t.delete(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        assert_robin_hood_invariant(&t);
    }

    #[test]
    fn displacement_stats_count_all_entries() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(12);
        let n = (1usize << 12) * 3 / 4;
        for i in 1..=n as u64 {
            t.insert(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        let s = t.record_displacement_histogram();
        assert_eq!(s.entries, t.len());
        assert_eq!(s.histogram.iter().sum::<usize>(), s.entries);
        // At load 3/4 a healthy mixer keeps a solid fraction at home.
        assert!(s.home_fraction() > 0.2, "home {}", s.home_fraction());
    }

    #[test]
    fn membership_agrees_with_det_table() {
        use rayon::prelude::*;
        let key = |i: u64| U64Key::new(phc_parutil::hash64(i) | 1);
        let sorted = |v: Vec<U64Key>| {
            let mut r: Vec<u64> = v.into_iter().map(|e| e.to_repr()).collect();
            r.sort_unstable();
            r
        };
        // 3000 serial inserts, then load 3/4 (3072 of 4096) in parallel.
        for (n, parallel) in [(3000u64, false), (3072, true)] {
            let det: crate::det::DetHashTable<U64Key> = crate::det::DetHashTable::new_pow2(12);
            let rh: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(12);
            let insert = |i: u64| {
                det.insert(key(i));
                rh.insert(key(i));
            };
            if parallel {
                (1..=n).into_par_iter().for_each(insert);
            } else {
                (1..=n).for_each(insert);
            }
            for i in 1..=2 * n {
                assert_eq!(det.find(key(i)), rh.find(key(i)), "n {n}, probe {i}");
            }
            assert_eq!(det.len(), rh.len());
            assert_eq!(sorted(det.elements()), sorted(rh.elements()), "n {n}");
        }
    }
}
