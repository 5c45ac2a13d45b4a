//! Input generation: every request log and key set the benchmark feeds
//! the program is a pure function of `--seed`, produced here and
//! nowhere else. The program under test receives only the generated
//! `KvOp`s / keys — never the seed or the generator.
//!
//! Randomness is an *index* RNG (SplitMix64 finalizer over
//! `seed + stream + index`): draw `i` of a stream is a function of `i`
//! alone, so logs can be cut, replayed or regenerated without carrying
//! generator state around.

use phc_core::U64Key;
use phc_workloads::KvOp;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stream of the index RNG.
#[derive(Clone, Copy)]
pub struct IndexRng {
    base: u64,
}

impl IndexRng {
    /// Stream `stream` of seed `seed`; streams are decorrelated by
    /// running the pair through the mixer once.
    pub fn new(seed: u64, stream: u64) -> Self {
        IndexRng {
            base: mix64(seed ^ mix64(stream.wrapping_mul(GOLDEN))),
        }
    }

    /// Draw number `i` of this stream.
    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        mix64(self.base.wrapping_add(i.wrapping_mul(GOLDEN)))
    }

    /// Draw `i` reduced to `0..bound` (multiply-shift; bias < 2^-32
    /// for the bounds used here).
    #[inline]
    pub fn below(&self, i: u64, bound: u64) -> u64 {
        ((self.at(i) >> 32) * bound) >> 32
    }

    /// Draw `i` as a value the server accepts: `1..=u32::MAX-2`, so no
    /// entry can pack to the all-ones forwarding sentinel.
    #[inline]
    pub fn value(&self, i: u64) -> u32 {
        1 + self.below(i, u32::MAX as u64 - 2) as u32
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF with a guide table: the
/// top bits of the draw index a table of starting ranks, and a short
/// binary search finishes. Ranks map to keys through a fixed bijection
/// that scatters the hot keys over the key space (and so over shards).
/// It does not depend on the seed: which keys are hot, which shard owns
/// them and how long their probe sequences are is a property of the
/// workload, and only the order of requests varies from seed to seed.
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
    key_mask: u32,
    key_mul: u32,
    key_add: u32,
}

const GUIDE_BITS: u32 = 16;

impl Zipf {
    /// `n` must be a power of two (the rank→key map is a bijection on
    /// `log2 n` bits).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n.is_power_of_two() && n <= 1 << 31);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        cdf[n - 1] = 1.0;
        let g = 1usize << GUIDE_BITS;
        let mut guide = Vec::with_capacity(g + 1);
        let mut r = 0usize;
        for j in 0..g {
            let u = j as f64 / g as f64;
            while cdf[r] <= u {
                r += 1;
            }
            guide.push(r as u32);
        }
        guide.push(n as u32 - 1);
        let salt = mix64(0x7a69_7066);
        Zipf {
            cdf,
            guide,
            key_mask: n as u32 - 1,
            key_mul: (salt as u32) | 1,
            key_add: (salt >> 32) as u32,
        }
    }

    /// The rank a uniform 64-bit draw selects (0 = most popular).
    #[inline]
    pub fn rank(&self, draw: u64) -> u32 {
        let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let j = (draw >> (64 - GUIDE_BITS)) as usize;
        let (mut lo, mut hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        // First rank whose cdf exceeds u lies in [lo, hi].
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cdf[mid] > u {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u32
    }

    /// The key (`1..=n`) a draw selects.
    #[inline]
    pub fn key(&self, draw: u64) -> u32 {
        1 + (self
            .rank(draw)
            .wrapping_mul(self.key_mul)
            .wrapping_add(self.key_add)
            & self.key_mask)
    }
}

/// Seeded bijection on `0..2^bits`: odd multiplies and xor-shifts,
/// each invertible modulo `2^bits`.
#[inline]
fn permute(i: u32, bits: u32, salt: u64) -> u32 {
    let mask = (1u32 << bits) - 1;
    let mut x = i.wrapping_add(salt as u32) & mask;
    x = x.wrapping_mul(0x9E37_79B1) & mask;
    x ^= x >> (bits / 2);
    x = x.wrapping_mul(((salt >> 32) as u32) | 1) & mask;
    x ^= x >> (bits / 2 + 1);
    x
}

/// Puts of every key `1..=key_space` for which `keep(key)` holds, in
/// key order, with seeded values — the preload of a workload.
pub fn preload_puts(key_space: u32, seed: u64, keep: impl Fn(u32) -> bool) -> Vec<KvOp> {
    let vals = IndexRng::new(seed, 10);
    (1..=key_space)
        .filter(|&k| keep(k))
        .map(|key| KvOp::Put {
            key,
            val: vals.value(key as u64),
        })
        .collect()
}

/// A stationary mixed log: `get_pct`% gets, `del_pct`% deletes, the
/// rest puts; keys Zipf(`zipf_s`) over `1..=key_space` (`zipf_s = 0`
/// is uniform).
pub fn mixed_log(
    n_ops: usize,
    key_space: usize,
    zipf_s: f64,
    get_pct: u64,
    del_pct: u64,
    seed: u64,
) -> Vec<KvOp> {
    assert!(key_space.is_power_of_two());
    let kinds = IndexRng::new(seed, 1);
    let keys = IndexRng::new(seed, 2);
    let vals = IndexRng::new(seed, 3);
    let zipf = (zipf_s > 0.0).then(|| Zipf::new(key_space, zipf_s));
    (0..n_ops as u64)
        .map(|i| {
            let key = match &zipf {
                Some(z) => z.key(keys.at(i)),
                None => 1 + keys.below(i, key_space as u64) as u32,
            };
            match kinds.below(i, 100) {
                r if r < get_pct => KvOp::Get { key },
                r if r < get_pct + del_pct => KvOp::Del { key },
                _ => KvOp::Put {
                    key,
                    val: vals.value(i),
                },
            }
        })
        .collect()
}

/// Grow-then-shrink: `2^bits` distinct keys put in a seeded hashed
/// order, one get of an earlier-put key after every 8 puts, then every
/// key deleted in the same order. Returns the log and the index at
/// which the delete half starts.
pub fn grow_shrink_log(bits: u32, seed: u64) -> (Vec<KvOp>, usize) {
    let n = 1u32 << bits;
    let salt = mix64(seed ^ 0x6772_6f77);
    let vals = IndexRng::new(seed, 4);
    let picks = IndexRng::new(seed, 5);
    let key_at = |j: u32| 1 + permute(j, bits, salt);
    let mut log = Vec::with_capacity(n as usize * 2 + n as usize / 8);
    for j in 0..n {
        log.push(KvOp::Put {
            key: key_at(j),
            val: vals.value(j as u64),
        });
        if j % 8 == 7 {
            let earlier = picks.below(j as u64, j as u64 + 1) as u32;
            log.push(KvOp::Get {
                key: key_at(earlier),
            });
        }
    }
    let delete_start = log.len();
    log.extend((0..n).map(|j| KvOp::Del { key: key_at(j) }));
    (log, delete_start)
}

/// Read-modify-write: triplets put → get → del on one Zipf key.
pub fn rmw_log(n_ops: usize, key_space: usize, zipf_s: f64, seed: u64) -> Vec<KvOp> {
    let keys = IndexRng::new(seed, 6);
    let vals = IndexRng::new(seed, 7);
    let zipf = Zipf::new(key_space, zipf_s);
    let mut log = Vec::with_capacity(n_ops);
    let mut t = 0u64;
    while log.len() < n_ops {
        let key = zipf.key(keys.at(t));
        log.push(KvOp::Put {
            key,
            val: vals.value(t),
        });
        log.push(KvOp::Get { key });
        log.push(KvOp::Del { key });
        t += 1;
    }
    log.truncate(n_ops);
    log
}

/// `n` distinct random `u64` keys from stream `stream`. The mixer is a
/// bijection, so distinct indices give distinct keys and two streams'
/// ranges of one seed never collide; the two reserved reprs (0 = empty,
/// all-ones = forwarding sentinel) are skipped.
pub fn distinct_keys(n: usize, seed: u64, stream: u64) -> Vec<U64Key> {
    let base = mix64(seed).wrapping_add(stream << 40);
    (0u64..)
        .map(|i| mix64(base.wrapping_add(i)))
        .filter(|&k| k != 0 && k != u64::MAX)
        .take(n)
        .map(U64Key::new)
        .collect()
}

/// Order-sensitive fingerprint of a log (generator determinism tests
/// and the result file's `input_hash`).
pub fn log_hash(log: &[KvOp]) -> u64 {
    log.iter().fold(0x006c_6f67_u64, |h, op| {
        let word = match *op {
            KvOp::Put { key, val } => (1u64 << 62) ^ ((key as u64) << 32) ^ val as u64,
            KvOp::Get { key } => (2u64 << 62) ^ key as u64,
            KvOp::Del { key } => (3u64 << 62) ^ key as u64,
        };
        mix64(h ^ word).wrapping_add(h << 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_of(log: &[KvOp]) -> (f64, f64, f64) {
        let n = log.len() as f64;
        let gets = log.iter().filter(|o| matches!(o, KvOp::Get { .. })).count() as f64;
        let dels = log.iter().filter(|o| matches!(o, KvOp::Del { .. })).count() as f64;
        (gets / n, dels / n, (n - gets - dels) / n)
    }

    fn assert_domain(log: &[KvOp], key_space: u32) {
        for op in log {
            assert!(
                (1..=key_space).contains(&op.key()),
                "key out of range: {op:?}"
            );
            if let KvOp::Put { key, val } = *op {
                assert!((1..=u32::MAX - 2).contains(&val));
                assert_ne!(((key as u64) << 32) | val as u64, u64::MAX);
            }
        }
    }

    #[test]
    fn same_seed_same_log_other_seed_other_log() {
        let a = mixed_log(50_000, 1 << 12, 0.99, 95, 0, 7);
        assert_eq!(
            log_hash(&a),
            log_hash(&mixed_log(50_000, 1 << 12, 0.99, 95, 0, 7))
        );
        assert_ne!(
            log_hash(&a),
            log_hash(&mixed_log(50_000, 1 << 12, 0.99, 95, 0, 8))
        );
        let (g, at) = grow_shrink_log(10, 7);
        let (g2, at2) = grow_shrink_log(10, 7);
        assert_eq!((log_hash(&g), at), (log_hash(&g2), at2));
        assert_eq!(
            log_hash(&rmw_log(3000, 1 << 8, 0.99, 7)),
            log_hash(&rmw_log(3000, 1 << 8, 0.99, 7))
        );
        assert_eq!(distinct_keys(1000, 7, 0), distinct_keys(1000, 7, 0));
    }

    #[test]
    fn op_mix_is_within_half_a_percent_of_nominal() {
        let (g, d, p) = mix_of(&mixed_log(400_000, 1 << 16, 0.99, 95, 0, 7));
        assert!((g - 0.95).abs() < 0.005 && d == 0.0 && (p - 0.05).abs() < 0.005);
        let (g, d, p) = mix_of(&mixed_log(400_000, 1 << 22, 0.0, 50, 25, 11));
        assert!((g - 0.50).abs() < 0.005, "{g}");
        assert!((d - 0.25).abs() < 0.005, "{d}");
        assert!((p - 0.25).abs() < 0.005, "{p}");
        let (g, d, p) = mix_of(&rmw_log(300_000, 1 << 16, 0.99, 7));
        assert!(
            (g - 1.0 / 3.0).abs() < 0.005
                && (d - 1.0 / 3.0).abs() < 0.005
                && (p - 1.0 / 3.0).abs() < 0.005
        );
    }

    #[test]
    fn no_zero_key_and_no_all_ones_entry() {
        assert_domain(&mixed_log(100_000, 1 << 16, 0.99, 95, 0, 7), 1 << 16);
        assert_domain(&mixed_log(100_000, 1 << 22, 0.0, 50, 25, 7), 1 << 22);
        assert_domain(&grow_shrink_log(12, 7).0, 1 << 12);
        assert_domain(&rmw_log(30_000, 1 << 16, 0.99, 7), 1 << 16);
        assert_domain(&preload_puts(1 << 12, 7, |k| k % 2 == 1), 1 << 12);
        for k in distinct_keys(10_000, 7, 1) {
            assert!(k.0 != 0 && k.0 != u64::MAX);
        }
    }

    #[test]
    fn grow_shrink_puts_each_key_once_and_deletes_them_all() {
        let (log, delete_start) = grow_shrink_log(10, 3);
        let mut put = vec![false; 1025];
        for op in &log[..delete_start] {
            match *op {
                KvOp::Put { key, .. } => {
                    assert!(!put[key as usize], "key {key} put twice");
                    put[key as usize] = true;
                }
                KvOp::Get { key } => assert!(put[key as usize], "get of a key not yet put"),
                KvOp::Del { .. } => panic!("delete in the put half"),
            }
        }
        assert!(put[1..].iter().all(|&p| p));
        assert_eq!(log.len() - delete_start, 1024);
        assert!(log[delete_start..]
            .iter()
            .all(|o| matches!(o, KvOp::Del { .. })));
    }

    #[test]
    fn zipf_is_skewed_and_keys_cover_a_bijection() {
        let z = Zipf::new(1 << 10, 0.99);
        let rng = IndexRng::new(7, 0);
        let mut counts = vec![0u32; 1 << 10];
        for i in 0..200_000 {
            counts[z.rank(rng.at(i)) as usize] += 1;
        }
        // P(rank 0) = 1/H ≈ 0.13 for n = 1024, s = 0.99.
        assert!(counts[0] > 20_000 && counts[0] < 32_000, "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[500]);
        let mut seen = vec![false; 1 << 10];
        for r in 0..1u32 << 10 {
            let k = 1 + (r.wrapping_mul(z.key_mul).wrapping_add(z.key_add) & z.key_mask);
            assert!(!std::mem::replace(&mut seen[k as usize - 1], true));
        }
    }

    #[test]
    fn distinct_key_streams_do_not_overlap() {
        let mut all: Vec<u64> = distinct_keys(5000, 9, 0).iter().map(|k| k.0).collect();
        all.extend(distinct_keys(5000, 9, 1).iter().map(|k| k.0));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10_000);
    }
}
