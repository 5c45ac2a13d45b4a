//! The sequential reference the server's responses are checked
//! against: a dense key → value map (keys are `1..=key_space`, values
//! are never 0, so 0 marks "absent") applying each batch as the
//! server's contract states — puts, then deletes, then gets, with
//! `KeepMin` combining of duplicate puts. It shares no code with the
//! tables; only the response-word encoding comes from `phc_server`.

use phc_server::{resp_hit, RESP_DEL_ACK, RESP_MISS, RESP_PUT_ACK};
use phc_workloads::KvOp;

/// Sequential model of a `KvServer<KeepMin>`.
pub struct Oracle {
    vals: Vec<u32>,
}

impl Oracle {
    /// An empty store over keys `1..=key_space`.
    pub fn new(key_space: u32) -> Self {
        Oracle {
            vals: vec![0; key_space as usize + 1],
        }
    }

    /// Applies one batch and writes the expected response word of
    /// every op into `out`, in submission order.
    pub fn apply_batch(&mut self, ops: &[KvOp], out: &mut Vec<u64>) {
        out.clear();
        out.resize(ops.len(), 0);
        for (op, r) in ops.iter().zip(out.iter_mut()) {
            if let KvOp::Put { key, val } = *op {
                let slot = &mut self.vals[key as usize];
                *slot = if *slot == 0 { val } else { (*slot).min(val) };
                *r = RESP_PUT_ACK;
            }
        }
        for (op, r) in ops.iter().zip(out.iter_mut()) {
            if let KvOp::Del { key } = *op {
                self.vals[key as usize] = 0;
                *r = RESP_DEL_ACK;
            }
        }
        for (op, r) in ops.iter().zip(out.iter_mut()) {
            if let KvOp::Get { key } = *op {
                *r = match self.vals[key as usize] {
                    0 => RESP_MISS,
                    v => resp_hit(v),
                };
            }
        }
    }

    /// The stored `(key, value)` pairs in key order.
    pub fn entries(&self) -> Vec<(u32, u32)> {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k as u32, v))
            .collect()
    }
}

/// Number of entries in which two key-sorted `(key, value)` lists
/// differ: keys present on one side only, plus keys whose values
/// differ. (A bare key set is a list with `()` values.)
pub fn diff_sorted<K: Ord, V: PartialEq>(a: &[(K, V)], b: &[(K, V)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                diff += (a[i].1 != b[j].1) as u64;
                i += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_phase_order_and_keep_min() {
        let mut o = Oracle::new(16);
        let mut out = Vec::new();
        o.apply_batch(
            &[
                KvOp::Get { key: 5 },
                KvOp::Put { key: 5, val: 50 },
                KvOp::Put { key: 5, val: 40 },
                KvOp::Put { key: 6, val: 60 },
                KvOp::Del { key: 6 },
                KvOp::Get { key: 6 },
            ],
            &mut out,
        );
        assert_eq!(
            out,
            [
                resp_hit(40),
                RESP_PUT_ACK,
                RESP_PUT_ACK,
                RESP_PUT_ACK,
                RESP_DEL_ACK,
                RESP_MISS
            ]
        );
        o.apply_batch(
            &[KvOp::Put { key: 5, val: 45 }, KvOp::Get { key: 5 }],
            &mut out,
        );
        assert_eq!(
            out[1],
            resp_hit(40),
            "KeepMin keeps the smaller value across batches"
        );
        assert_eq!(o.entries(), [(5, 40)]);
    }

    #[test]
    fn diff_counts_missing_extra_and_changed() {
        let a = [(1, 1), (2, 2), (4, 4)];
        assert_eq!(diff_sorted(&a, &a), 0);
        assert_eq!(diff_sorted(&a, &[(1, 1), (4, 4)]), 1);
        assert_eq!(
            diff_sorted(&a, &[(1, 1), (2, 9), (3, 3), (4, 4), (5, 5)]),
            3
        );
        assert_eq!(diff_sorted(&[], &a), 3);
    }
}
