//! Every adaptor under every terminal equals the sequential chain, at
//! widths 1, 2 and 8, for empty and one-item inputs and for lengths on
//! both sides of the piece boundaries that `with_min_len` sets.

use std::sync::Mutex;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Lengths on both sides of `k * min_len` and of the piece cap
/// (`4 * width` pieces) for min_len 1 and 16 at widths 2 and 8.
const LENS: [usize; 19] = [
    0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129, 511, 512, 513, 1000,
];

/// Asserts that the parallel chain `$par` (re-evaluated for each
/// terminal) yields what the sequential chain `$seq` does.
macro_rules! check {
    ($ctx:expr, $seq:expr, $par:expr) => {{
        let ctx = $ctx;
        let seq: Vec<u64> = $seq.collect();
        assert_eq!($par.collect::<Vec<u64>>(), seq, "collect, {ctx}");
        assert_eq!($par.count(), seq.len(), "count, {ctx}");
        assert_eq!($par.sum::<u64>(), seq.iter().sum::<u64>(), "sum, {ctx}");
        assert_eq!($par.min(), seq.iter().copied().min(), "min, {ctx}");
        assert_eq!($par.max(), seq.iter().copied().max(), "max, {ctx}");
        let hit = |x: u64| x % 7 == 3;
        assert_eq!($par.any(hit), seq.iter().any(|&x| hit(x)), "any, {ctx}");
        assert_eq!(
            $par.all(|x| !hit(x)),
            !seq.iter().any(|&x| hit(x)),
            "all, {ctx}"
        );
        let seen = Mutex::new(Vec::new());
        $par.for_each(|x| seen.lock().unwrap().push(x));
        let mut seen = seen.into_inner().unwrap();
        let mut expect = seq.clone();
        seen.sort_unstable();
        expect.sort_unstable();
        assert_eq!(seen, expect, "for_each, {ctx}");
    }};
}

#[test]
fn every_adaptor_under_every_terminal_matches_the_sequential_chain() {
    for width in [1, 2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        for min_len in [1, 16] {
            for len in LENS {
                let v: Vec<u64> = (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
                    .collect();
                let at = format!("width {width}, min_len {min_len}, len {len}");
                let p = || v.par_iter().with_min_len(min_len);
                pool.install(|| {
                    check!(format!("copied, {at}"), v.iter().copied(), p().copied());
                    check!(format!("cloned, {at}"), v.iter().cloned(), p().cloned());
                    check!(
                        format!("map, {at}"),
                        v.iter().map(|&x| x * 3 + 1),
                        p().map(|&x| x * 3 + 1)
                    );
                    check!(
                        format!("filter, {at}"),
                        v.iter().filter(|x| **x % 3 != 0).copied(),
                        p().filter(|x| **x % 3 != 0).copied()
                    );
                    check!(
                        format!("filter_map, {at}"),
                        v.iter().filter_map(|&x| (x % 4 != 1).then_some(x ^ 5)),
                        p().filter_map(|&x| (x % 4 != 1).then_some(x ^ 5))
                    );
                    check!(
                        format!("flat_map_iter, {at}"),
                        v.iter().flat_map(|&x| 0..x % 4),
                        p().flat_map_iter(|&x| 0..x % 4)
                    );
                    check!(
                        format!("flatten, {at}"),
                        v.iter().flat_map(|&x| vec![x; (x % 3) as usize]),
                        p().map(|&x| vec![x; (x % 3) as usize]).flatten()
                    );
                    check!(
                        format!("chain of four, {at}"),
                        v.iter()
                            .copied()
                            .filter(|x| x % 2 == 0)
                            .map(|x| x / 2)
                            .filter_map(|x| x.checked_sub(3)),
                        p().copied()
                            .filter(|x| x % 2 == 0)
                            .map(|x| x / 2)
                            .filter_map(|x| x.checked_sub(3))
                    );
                    check!(
                        format!("enumerate, {at}"),
                        v.iter().enumerate().map(|(i, &x)| x ^ i as u64),
                        p().enumerate().map(|(i, &x)| x ^ i as u64)
                    );
                    check!(
                        format!("rev, {at}"),
                        v.iter().rev().copied(),
                        p().rev().copied()
                    );
                    check!(
                        format!("range, {at}"),
                        (0..len as u64).map(|x| x * x),
                        (0..len as u64)
                            .into_par_iter()
                            .with_min_len(min_len)
                            .map(|x| x * x)
                    );
                });
            }
        }
    }
}
