//! **Table 2**: random writes (scatter) vs conditional random writes
//! vs hash table insertion. The paper's headline: at load 1/3, a deterministic hash insert costs only ≈ 1.3× a raw
//! random write, because both are dominated by one cache miss.

use std::sync::atomic::{AtomicU64, Ordering};

use phc_bench::{arg_or_env, default_threads, time_in_pool, time_once, Report};
use phc_core::{DetHashTable, U64Key};
use rayon::prelude::*;

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 1_000_000);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    let log2 = (2 * n).next_power_of_two().trailing_zeros().max(4);
    let size = 1usize << log2;
    println!("# Table 2 reproduction: n = {n} operations, array/table = 2^{log2}, P = {threads}\n");

    let keys = phc_workloads::random_seq_int(n, 7);
    let slots: Vec<usize> = keys
        .iter()
        .map(|&k| (phc_parutil::hash64(k) as usize) & (size - 1))
        .collect();

    // Random write: unconditional scatter.
    let array: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
    let scatter_1 = time_once(|| {
        for (&s, &k) in slots.iter().zip(&keys) {
            array[s].store(k, Ordering::Relaxed);
        }
    })
    .0;
    let scatter_p = time_in_pool(threads, || {
        slots
            .par_iter()
            .zip(keys.par_iter())
            .with_min_len(1024)
            .for_each(|(&s, &k)| {
                array[s].store(k, Ordering::Relaxed);
            });
    })
    .0;

    // Conditional random write: CAS only into empty slots.
    let cond: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
    let cond_1 = time_once(|| {
        for (&s, &k) in slots.iter().zip(&keys) {
            if cond[s].load(Ordering::Relaxed) == 0 {
                let _ = cond[s].compare_exchange(0, k, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
    })
    .0;
    let cond2: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
    let cond_p = time_in_pool(threads, || {
        slots
            .par_iter()
            .zip(keys.par_iter())
            .with_min_len(1024)
            .for_each(|(&s, &k)| {
                if cond2[s].load(Ordering::Relaxed) == 0 {
                    let _ = cond2[s].compare_exchange(0, k, Ordering::Relaxed, Ordering::Relaxed);
                }
            });
    })
    .0;

    // Hash table insertion (linearHash-D).
    let t1: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
    let ins_1 = time_once(|| {
        for &k in &keys {
            t1.insert(U64Key::new(k));
        }
    })
    .0;
    let t2: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
    let ins_p = time_in_pool(threads, || {
        keys.par_iter()
            .with_min_len(1024)
            .for_each(|&k| t2.insert(U64Key::new(k)));
    })
    .0;

    let mut report = Report::new("Table 2: Memory operations", &["(1)", "(P)"]);
    report.push("Random write", vec![Some(scatter_1), Some(scatter_p)]);
    report.push("Conditional random write", vec![Some(cond_1), Some(cond_p)]);
    report.push("Hash table insertion", vec![Some(ins_1), Some(ins_p)]);
    report.print();
    println!(
        "insert/scatter ratio: (1) {:.2}x   (P) {:.2}x   (paper: ~1.3x at 40h)",
        ins_1 / scatter_1,
        ins_p / scatter_p
    );
    vec![report]
}
