//! Entry representations for the hash tables.
//!
//! Every open-addressing table in this crate stores entries in an array
//! of `AtomicU64` cells. The [`HashEntry`] trait maps a typed entry to
//! and from its 64-bit representation and supplies the three ingredients
//! the deterministic table needs (paper §3–4):
//!
//! * a **hash function** on the key, giving the start of the probe
//!   sequence;
//! * a **total priority order** on keys, with the empty element `⊥`
//!   lowest — this is what makes the layout history-independent;
//! * a **combining rule** for duplicate keys, so that inserting the same
//!   key twice (possibly with different associated values) resolves to a
//!   unique, order-independent cell value (paper §4, "Combining").
//!
//! Entries that do not fit in a word are stored as pointers into an
//! [`Arena`](phc_parutil::Arena), exactly as the paper prescribes
//! ("a pointer (which fits in a word) to the structure can be stored in
//! the hash table instead").

use std::cmp::Ordering;

use phc_parutil::hash64;

use crate::cell::CellWord;

/// A fixed-width entry storable in one atomic cell.
///
/// # Contract
///
/// * `to_repr` never returns [`HashEntry::EMPTY`], and both `to_repr`
///   and `EMPTY` fit in [`Repr::BITS`](crate::cell::CellWord::BITS)
///   bits (narrow cells store the low bits and zero-extend on load);
/// * `hash`, `cmp_priority` and `same_key` are pure functions of the
///   representations;
/// * `cmp_priority` restricted to the key part is a total order and
///   treats `EMPTY` as strictly lowest;
/// * `same_key(EMPTY, x)` is `false` for every valid `x`;
/// * `combine(a, b)` is only called with `same_key(a, b)`; it must be
///   commutative and associative on the value part so that concurrent
///   duplicate inserts commute (paper §4, "Combining").
///
/// `EMPTY` is the **only** reserved word. Every other value that fits
/// the cell — the all-ones word included — is an ordinary entry: no
/// table, kernel or migration path stores a marker of its own in a cell
/// (the growable wrapper drains a retiring table by reading it, see
/// [`crate::resize`]).
pub trait HashEntry: Copy + Eq + Send + Sync + std::fmt::Debug {
    /// Width of the atomic cell storing this entry's repr. `u64` is the
    /// full-word default; entries whose packed repr fits 32 bits (e.g.
    /// [`KvPair32`]) declare `u32` and halve the table's bytes-per-cell
    /// — the flat tables allocate `Repr::Atomic` cells and the SIMD
    /// kernels scan twice the lanes per vector. All trait methods stay
    /// expressed on the zero-extended `u64` logical repr (lossless and
    /// order-preserving for sub-word widths; see [`crate::cell`]).
    type Repr: CellWord;

    /// Representation of the empty cell `⊥`.
    const EMPTY: u64;

    /// Bit mask of the associated-value field within the repr (0 for
    /// pure keys). Used by the ND table's `fetch_add` fast path, which
    /// must never carry into key bits.
    const VALUE_MASK: u64 = 0;

    /// When `Some(mask)`, declares that this entry type's key semantics
    /// are a pure function of the masked representation, enabling the
    /// wide-scan (SIMD) probe paths in [`crate::simd`]:
    ///
    /// * `same_key(a, b)  ⇔  a & mask == b & mask` for non-empty `a`,
    ///   `b`, and `EMPTY & mask` differs from every non-empty masked
    ///   repr;
    /// * `cmp_priority(a, b) == (a & mask).cmp(&(b & mask))` as
    ///   **unsigned** integers (so `EMPTY` masks to the smallest value).
    ///
    /// Entry types whose key lives behind a pointer (e.g.
    /// [`StrRef`]) cannot satisfy this and keep the default `None`,
    /// which routes every probe through the scalar paths.
    ///
    /// The Robin Hood table ([`crate::robinhood`]) additionally
    /// requires the mask to be *top-aligned and contiguous*
    /// (`mask == u64::MAX << mask.trailing_zeros()`) with `EMPTY == 0`,
    /// because it derives home buckets from the high bits of a
    /// bijectively remixed key field. Both built-in masked entry types
    /// ([`U64Key`], [`KvPair`]) satisfy this.
    const SIMD_KEY_MASK: Option<u64> = None;

    /// Encodes the entry. Must differ from `EMPTY`.
    fn to_repr(self) -> u64;

    /// Decodes a non-empty representation.
    fn from_repr(repr: u64) -> Self;

    /// Hash of the key part; the probe sequence starts at
    /// `hash(repr) mod table_size`. Must not be called on `EMPTY`.
    fn hash(repr: u64) -> u64;

    /// Priority comparison on the key part. `EMPTY` compares lowest.
    fn cmp_priority(a: u64, b: u64) -> Ordering;

    /// Whether two representations carry the same key.
    fn same_key(a: u64, b: u64) -> bool;

    /// Deterministic resolution of two entries with equal keys. The
    /// default keeps the current entry (pure-set semantics).
    #[inline]
    fn combine(current: u64, _new: u64) -> u64 {
        current
    }
}

/// A plain `u64` key (no associated value). Keys must be nonzero; `0`
/// is the empty sentinel.
///
/// Priority is the numeric order of the key itself, which is a total
/// order as the paper requires, with `⊥ = 0` naturally lowest.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct U64Key(pub u64);

impl U64Key {
    /// Constructs a key, panicking on the one reserved value, `0` (the
    /// empty cell).
    #[inline]
    pub fn new(k: u64) -> Self {
        assert_ne!(k, 0, "U64Key cannot be 0 (reserved for the empty cell)");
        U64Key(k)
    }
}

impl HashEntry for U64Key {
    type Repr = u64;
    const EMPTY: u64 = 0;
    // The repr *is* the key: raw equality and unsigned numeric order
    // coincide with `same_key` / `cmp_priority`, with `⊥ = 0` lowest.
    const SIMD_KEY_MASK: Option<u64> = Some(u64::MAX);

    #[inline]
    fn to_repr(self) -> u64 {
        debug_assert_ne!(self.0, 0);
        self.0
    }

    #[inline]
    fn from_repr(repr: u64) -> Self {
        U64Key(repr)
    }

    #[inline]
    fn hash(repr: u64) -> u64 {
        hash64(repr)
    }

    #[inline]
    fn cmp_priority(a: u64, b: u64) -> Ordering {
        a.cmp(&b)
    }

    #[inline]
    fn same_key(a: u64, b: u64) -> bool {
        a == b && a != Self::EMPTY
    }
}

/// Policy deciding which value survives when the same key is inserted
/// twice. All policies are commutative and associative so concurrent
/// duplicate inserts commute (required for determinism).
pub trait Combine: Copy + Eq + Send + Sync + std::fmt::Debug + Default + 'static {
    /// Combines the values of two entries with equal keys.
    fn combine(a: u32, b: u32) -> u32;
}

/// Keeps the minimum value (the paper's `min` combining function; also
/// the "priority update" rule used by spanning forest).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KeepMin;
impl Combine for KeepMin {
    #[inline]
    fn combine(a: u32, b: u32) -> u32 {
        a.min(b)
    }
}

/// Keeps the maximum value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KeepMax;
impl Combine for KeepMax {
    #[inline]
    fn combine(a: u32, b: u32) -> u32 {
        a.max(b)
    }
}

/// Adds the values (the paper's `+` combining function, used by edge
/// contraction for accumulating edge weights). Wrapping on overflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AddValues;
impl Combine for AddValues {
    #[inline]
    fn combine(a: u32, b: u32) -> u32 {
        a.wrapping_add(b)
    }
}

/// A key-value pair packed into one word: 32-bit key (nonzero) in the
/// high half, 32-bit value in the low half.
///
/// The paper uses a double-word CAS to update key-value pairs
/// atomically; packing both halves into a single 64-bit word achieves
/// the same atomicity with an ordinary CAS. The combining policy `C`
/// resolves duplicate keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvPair<C: Combine = KeepMin> {
    /// The key; must be nonzero.
    pub key: u32,
    /// The associated value.
    pub value: u32,
    _policy: std::marker::PhantomData<C>,
}

impl<C: Combine> KvPair<C> {
    /// Creates a pair; panics if `key == 0` (reserved for `⊥`).
    #[inline]
    pub fn new(key: u32, value: u32) -> Self {
        assert_ne!(
            key, 0,
            "KvPair key cannot be 0 (reserved for the empty cell)"
        );
        KvPair {
            key,
            value,
            _policy: std::marker::PhantomData,
        }
    }
}

impl<C: Combine> HashEntry for KvPair<C> {
    type Repr = u64;
    const EMPTY: u64 = 0;
    const VALUE_MASK: u64 = 0xFFFF_FFFF;
    // The key occupies the high half, so the masked repr is `key << 32`:
    // masked equality is key equality and unsigned masked order is the
    // key order used by `cmp_priority`, with `⊥ = 0` masking lowest.
    const SIMD_KEY_MASK: Option<u64> = Some(0xFFFF_FFFF_0000_0000);

    #[inline]
    fn to_repr(self) -> u64 {
        ((self.key as u64) << 32) | self.value as u64
    }

    #[inline]
    fn from_repr(repr: u64) -> Self {
        KvPair {
            key: (repr >> 32) as u32,
            value: repr as u32,
            _policy: std::marker::PhantomData,
        }
    }

    #[inline]
    fn hash(repr: u64) -> u64 {
        hash64(repr >> 32)
    }

    #[inline]
    fn cmp_priority(a: u64, b: u64) -> Ordering {
        (a >> 32).cmp(&(b >> 32))
    }

    #[inline]
    fn same_key(a: u64, b: u64) -> bool {
        (a >> 32) == (b >> 32) && (a >> 32) != 0
    }

    #[inline]
    fn combine(current: u64, new: u64) -> u64 {
        debug_assert!(Self::same_key(current, new));
        (current & !0xFFFF_FFFF) | C::combine(current as u32, new as u32) as u64
    }
}

/// A key-value pair packed into one **32-bit** cell: 16-bit key
/// (nonzero) in the high half, 16-bit value in the low half — the
/// sub-word counterpart of [`KvPair`].
///
/// Declaring `Repr = u32` stores this entry in `AtomicU32` cells:
/// half the memory traffic per probe step and, on the wide-scan
/// paths, 8 cells per AVX2 vector instead of 4. The logical-repr
/// contract is identical to `KvPair`'s, scaled down: masked equality
/// (`0xFFFF_0000`) is key equality, masked unsigned order is the key
/// priority order, and `⊥ = 0` masks lowest. The same [`Combine`]
/// policies apply, operating on the zero-extended 16-bit values
/// (`AddValues` wraps at 16 bits, exactly as it wraps at 32 for
/// `KvPair` — truncating the 32-bit sum is the mod-2^16 sum, so the
/// policy stays commutative and associative).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvPair32<C: Combine = KeepMin> {
    /// The key; must be nonzero.
    pub key: u16,
    /// The associated value.
    pub value: u16,
    _policy: std::marker::PhantomData<C>,
}

impl<C: Combine> KvPair32<C> {
    /// Creates a pair; panics if `key == 0` (reserved for `⊥`).
    #[inline]
    pub fn new(key: u16, value: u16) -> Self {
        assert_ne!(
            key, 0,
            "KvPair32 key cannot be 0 (reserved for the empty cell)"
        );
        KvPair32 {
            key,
            value,
            _policy: std::marker::PhantomData,
        }
    }
}

impl<C: Combine> HashEntry for KvPair32<C> {
    type Repr = u32;
    const EMPTY: u64 = 0;
    const VALUE_MASK: u64 = 0xFFFF;
    // Key in the high half of the 32-bit word: the masked repr is
    // `key << 16`, so masked equality is key equality and masked
    // unsigned order is key order, with `⊥ = 0` lowest. The mask is
    // top-aligned and contiguous *within the 32-bit cell width*, which
    // is what the Robin Hood layout requires of sub-word entries.
    const SIMD_KEY_MASK: Option<u64> = Some(0xFFFF_0000);

    #[inline]
    fn to_repr(self) -> u64 {
        ((self.key as u64) << 16) | self.value as u64
    }

    #[inline]
    fn from_repr(repr: u64) -> Self {
        KvPair32 {
            key: (repr >> 16) as u16,
            value: repr as u16,
            _policy: std::marker::PhantomData,
        }
    }

    #[inline]
    fn hash(repr: u64) -> u64 {
        hash64(repr >> 16)
    }

    #[inline]
    fn cmp_priority(a: u64, b: u64) -> Ordering {
        (a >> 16).cmp(&(b >> 16))
    }

    #[inline]
    fn same_key(a: u64, b: u64) -> bool {
        (a >> 16) == (b >> 16) && (a >> 16) != 0
    }

    #[inline]
    fn combine(current: u64, new: u64) -> u64 {
        debug_assert!(Self::same_key(current, new));
        let v = C::combine(current as u16 as u32, new as u16 as u32) as u16;
        (current & !0xFFFF) | v as u64
    }
}

/// The out-of-line payload for string-keyed entries: a string key plus a
/// 64-bit value, matching the paper's `trigramSeq-pairInt` input where
/// "key-value pairs are stored as a pointer to a structure with a
/// pointer to a string".
///
/// For pure string keys (the `trigramSeq` input) the value is unused.
#[derive(Debug)]
pub struct StrPayload<'a> {
    /// The string key (typically interned in an arena).
    pub key: &'a str,
    /// The associated value (0 for pure keys).
    pub value: u64,
}

/// A pointer-sized entry referencing a [`StrPayload`] — one level of
/// indirection exactly as the paper prescribes for entries wider than a
/// word. `⊥` is the null pointer.
///
/// Priority is lexicographic byte order of the key. Duplicate keys are
/// combined by keeping the payload with the **minimum value** (ties keep
/// the incumbent), which is deterministic at the key/value level.
/// As in the original code, *which pointer* to several equal payloads
/// survives can vary, but the key and value it dereferences to cannot.
#[derive(Clone, Copy, Debug)]
pub struct StrRef<'a>(pub &'a StrPayload<'a>);

impl<'a> StrRef<'a> {
    #[inline]
    fn payload(repr: u64) -> &'a StrPayload<'a> {
        debug_assert_ne!(repr, 0);
        // SAFETY: reprs only come from `to_repr` of a reference whose
        // lifetime `'a` covers the table, per this type's contract.
        unsafe { &*(repr as usize as *const StrPayload<'a>) }
    }

    /// The string key.
    #[inline]
    pub fn key(&self) -> &'a str {
        self.0.key
    }

    /// The associated value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.value
    }
}

impl PartialEq for StrRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key && self.0.value == other.0.value
    }
}
impl Eq for StrRef<'_> {}

impl<'a> HashEntry for StrRef<'a> {
    type Repr = u64;
    const EMPTY: u64 = 0;

    #[inline]
    fn to_repr(self) -> u64 {
        self.0 as *const StrPayload as usize as u64
    }

    #[inline]
    fn from_repr(repr: u64) -> Self {
        StrRef(Self::payload(repr))
    }

    #[inline]
    fn hash(repr: u64) -> u64 {
        let key = Self::payload(repr).key.as_bytes();
        // FNV-1a over the bytes, then a 64-bit finalize for avalanche.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        hash64(h)
    }

    #[inline]
    fn cmp_priority(a: u64, b: u64) -> Ordering {
        match (a, b) {
            (0, 0) => Ordering::Equal,
            (0, _) => Ordering::Less,
            (_, 0) => Ordering::Greater,
            _ => Self::payload(a)
                .key
                .as_bytes()
                .cmp(Self::payload(b).key.as_bytes()),
        }
    }

    #[inline]
    fn same_key(a: u64, b: u64) -> bool {
        a != 0 && b != 0 && (a == b || Self::payload(a).key == Self::payload(b).key)
    }

    #[inline]
    fn combine(current: u64, new: u64) -> u64 {
        if Self::payload(new).value < Self::payload(current).value {
            new
        } else {
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64key_roundtrip() {
        for k in [1u64, 42, u64::MAX] {
            let e = U64Key::new(k);
            assert_eq!(U64Key::from_repr(e.to_repr()), e);
            assert_ne!(e.to_repr(), U64Key::EMPTY);
        }
    }

    #[test]
    #[should_panic]
    fn u64key_rejects_zero() {
        U64Key::new(0);
    }

    #[test]
    fn u64key_priority_total_order() {
        assert_eq!(U64Key::cmp_priority(1, 2), Ordering::Less);
        assert_eq!(U64Key::cmp_priority(2, 1), Ordering::Greater);
        assert_eq!(U64Key::cmp_priority(5, 5), Ordering::Equal);
        // EMPTY is lowest.
        assert_eq!(U64Key::cmp_priority(U64Key::EMPTY, 1), Ordering::Less);
    }

    #[test]
    fn u64key_same_key_excludes_empty() {
        assert!(!U64Key::same_key(U64Key::EMPTY, U64Key::EMPTY));
        assert!(U64Key::same_key(7, 7));
        assert!(!U64Key::same_key(7, 8));
    }

    #[test]
    fn kvpair_roundtrip() {
        let p: KvPair<KeepMin> = KvPair::new(3, 99);
        let r = p.to_repr();
        assert_eq!(<KvPair<KeepMin>>::from_repr(r), p);
        assert_ne!(r, <KvPair<KeepMin>>::EMPTY);
    }

    #[test]
    fn kvpair_priority_ignores_value() {
        let a: KvPair<KeepMin> = KvPair::new(5, 1);
        let b: KvPair<KeepMin> = KvPair::new(5, 2);
        assert_eq!(
            <KvPair<KeepMin>>::cmp_priority(a.to_repr(), b.to_repr()),
            Ordering::Equal
        );
        assert!(<KvPair<KeepMin>>::same_key(a.to_repr(), b.to_repr()));
    }

    #[test]
    fn kvpair_combine_min() {
        let a: KvPair<KeepMin> = KvPair::new(5, 10);
        let b: KvPair<KeepMin> = KvPair::new(5, 3);
        let c = <KvPair<KeepMin>>::combine(a.to_repr(), b.to_repr());
        assert_eq!(<KvPair<KeepMin>>::from_repr(c).value, 3);
        // Commutativity.
        let c2 = <KvPair<KeepMin>>::combine(b.to_repr(), a.to_repr());
        assert_eq!(c, c2);
    }

    #[test]
    fn kvpair_combine_add() {
        let a: KvPair<AddValues> = KvPair::new(5, 10);
        let b: KvPair<AddValues> = KvPair::new(5, 3);
        let c = <KvPair<AddValues>>::combine(a.to_repr(), b.to_repr());
        assert_eq!(<KvPair<AddValues>>::from_repr(c).value, 13);
    }

    #[test]
    fn strref_roundtrip_and_order() {
        let pa = StrPayload {
            key: "apple",
            value: 2,
        };
        let pb = StrPayload {
            key: "banana",
            value: 1,
        };
        let a = StrRef(&pa);
        let b = StrRef(&pb);
        assert_eq!(StrRef::from_repr(a.to_repr()).key(), "apple");
        assert_eq!(
            StrRef::cmp_priority(a.to_repr(), b.to_repr()),
            Ordering::Less
        );
        assert_eq!(
            StrRef::cmp_priority(StrRef::EMPTY, a.to_repr()),
            Ordering::Less
        );
        assert!(!StrRef::same_key(a.to_repr(), b.to_repr()));
    }

    #[test]
    fn strref_same_key_across_distinct_pointers() {
        let p1 = StrPayload {
            key: "dup",
            value: 9,
        };
        let p2 = StrPayload {
            key: "dup",
            value: 4,
        };
        let (r1, r2) = (StrRef(&p1).to_repr(), StrRef(&p2).to_repr());
        assert!(StrRef::same_key(r1, r2));
        assert_eq!(StrRef::cmp_priority(r1, r2), Ordering::Equal);
        // Combine keeps the min value.
        assert_eq!(StrRef::from_repr(StrRef::combine(r1, r2)).value(), 4);
        assert_eq!(StrRef::from_repr(StrRef::combine(r2, r1)).value(), 4);
    }

    #[test]
    fn strref_hash_same_for_equal_keys() {
        let p1 = StrPayload {
            key: "hash-me",
            value: 1,
        };
        let p2 = StrPayload {
            key: "hash-me",
            value: 2,
        };
        assert_eq!(
            StrRef::hash(StrRef(&p1).to_repr()),
            StrRef::hash(StrRef(&p2).to_repr())
        );
    }

    #[test]
    fn kvpair32_roundtrip_and_fits_cell() {
        let p: KvPair32<KeepMin> = KvPair32::new(3, 99);
        let r = p.to_repr();
        assert!(r <= <u32 as crate::cell::CellWord>::MAX_REPR);
        assert_eq!(<KvPair32<KeepMin>>::from_repr(r), p);
        assert_ne!(r, <KvPair32<KeepMin>>::EMPTY);
        // The top of the packed domain is the all-ones cell word.
        let hi: KvPair32<KeepMin> = KvPair32::new(u16::MAX, u16::MAX);
        assert_eq!(hi.to_repr(), <u32 as crate::cell::CellWord>::MAX_REPR);
        assert_eq!(<KvPair32<KeepMin>>::from_repr(hi.to_repr()), hi);
    }

    #[test]
    fn kvpair32_priority_and_combine() {
        let a: KvPair32<KeepMin> = KvPair32::new(5, 10);
        let b: KvPair32<KeepMin> = KvPair32::new(5, 3);
        assert_eq!(
            <KvPair32<KeepMin>>::cmp_priority(a.to_repr(), b.to_repr()),
            Ordering::Equal
        );
        assert!(<KvPair32<KeepMin>>::same_key(a.to_repr(), b.to_repr()));
        let c = <KvPair32<KeepMin>>::combine(a.to_repr(), b.to_repr());
        assert_eq!(<KvPair32<KeepMin>>::from_repr(c).value, 3);
        assert_eq!(c, <KvPair32<KeepMin>>::combine(b.to_repr(), a.to_repr()));
        // AddValues wraps at 16 bits without touching the key half.
        let x: KvPair32<AddValues> = KvPair32::new(7, u16::MAX);
        let y: KvPair32<AddValues> = KvPair32::new(7, 2);
        let s = <KvPair32<AddValues>>::combine(x.to_repr(), y.to_repr());
        let s = <KvPair32<AddValues>>::from_repr(s);
        assert_eq!((s.key, s.value), (7, 1));
    }

    #[test]
    fn kvpair32_masked_order_matches_priority() {
        // The SIMD contract: masked unsigned order == cmp_priority, and
        // EMPTY masks lowest — checked on the zero-extended u64 values
        // the kernels actually compare.
        let mask = <KvPair32<KeepMin>>::SIMD_KEY_MASK.unwrap();
        let reprs: Vec<u64> = [(1u16, 0u16), (1, 9), (2, 0), (u16::MAX, 5)]
            .iter()
            .map(|&(k, v)| KvPair32::<KeepMin>::new(k, v).to_repr())
            .collect();
        for &a in &reprs {
            assert!(<KvPair32<KeepMin>>::EMPTY & mask < a & mask);
            for &b in &reprs {
                assert_eq!(
                    (a & mask).cmp(&(b & mask)),
                    <KvPair32<KeepMin>>::cmp_priority(a, b)
                );
                assert_eq!(
                    a & mask == b & mask,
                    <KvPair32<KeepMin>>::same_key(a, b) || (a & mask == 0 && b & mask == 0)
                );
            }
        }
    }

    #[test]
    fn kvpair_hash_depends_only_on_key() {
        let a: KvPair<KeepMin> = KvPair::new(9, 1);
        let b: KvPair<KeepMin> = KvPair::new(9, 77);
        assert_eq!(
            <KvPair<KeepMin>>::hash(a.to_repr()),
            <KvPair<KeepMin>>::hash(b.to_repr())
        );
    }
}
