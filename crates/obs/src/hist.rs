//! Power-of-two histogram buckets.
//!
//! Bucket 0 holds the value 0, bucket 1 holds the value 1, and bucket
//! `b ≥ 1` holds values in `[2^(b-1), 2^b)`; everything at or above
//! `2^(BUCKETS-2)` lands in the last bucket. 32 buckets therefore
//! cover every value a table of < 2^31 cells can produce (probe
//! lengths, pack sizes) with a fixed-size array that fits in a thread
//! shard.

/// Number of buckets per histogram.
pub const BUCKETS: usize = 32;

/// The bucket index for `value`.
#[inline]
pub fn bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Human-readable label for bucket `b` (`"0"`, `"1"`, `"2-3"`, ...).
pub fn bucket_label(b: usize) -> String {
    assert!(b < BUCKETS);
    match b {
        0 => "0".to_string(),
        1 => "1".to_string(),
        _ if b == BUCKETS - 1 => format!("{}+", 1u64 << (b - 1)),
        _ => format!("{}-{}", 1u64 << (b - 1), (1u64 << b) - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // The satellite checklist's boundary cases: 0, 1, 2^k, 2^k + 1.
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        for k in 1..30u32 {
            let p = 1u64 << k;
            assert_eq!(bucket(p), k as usize + 1, "2^{k}");
            assert_eq!(bucket(p + 1), k as usize + 1, "2^{k}+1");
            assert_eq!(bucket(p - 1), k as usize, "2^{k}-1");
        }
        // Everything huge saturates into the last bucket.
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket(1u64 << 40), BUCKETS - 1);
    }

    #[test]
    fn labels_match_buckets() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(1), "1");
        assert_eq!(bucket_label(2), "2-3");
        assert_eq!(bucket_label(5), "16-31");
        assert_eq!(
            bucket_label(BUCKETS - 1),
            format!("{}+", 1u64 << (BUCKETS - 2))
        );
        // Every label's lower bound is in its own bucket.
        for b in 2..BUCKETS - 1 {
            assert_eq!(bucket(1u64 << (b - 1)), b);
            assert_eq!(bucket((1u64 << b) - 1), b);
        }
    }
}
