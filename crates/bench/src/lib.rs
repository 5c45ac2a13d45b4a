//! Benchmark harnesses regenerating every table and figure of the
//! paper's evaluation (§6).
//!
//! `--bin paper` reproduces the paper's artifacts, named on its command
//! line or all ten in paper order; the other bins measure design
//! choices beyond the paper:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `paper table1` | Table 1(a–f) (also Figure 3 with `--fig3`) |
//! | `paper table2` | Table 2 (random writes vs hash insertion) |
//! | `paper table3` | Table 3 (remove duplicates) |
//! | `paper table4` | Table 4 (Delaunay refinement) |
//! | `paper table5` | Table 5 (suffix tree insert + search) |
//! | `paper table6` | Table 6 (edge contraction) |
//! | `paper table7` | Table 7 (BFS) |
//! | `paper table8` | Table 8 (spanning forest) |
//! | `paper fig4`   | Figure 4 (speedup vs threads) |
//! | `paper fig5`   | Figure 5 (time per op vs load factor) |
//! | `growth` | Resizing ablation: stop-the-world vs freeze-free vs preallocated, end-to-end and per-op stalls (not a paper artifact) |
//! | `ablation` | Priority vs first-fit insert, deterministic pack vs racy collect, strong vs weak hash (not a paper artifact) |
//! | `cells`  | Cell width: packed 32-bit vs 64-bit cells, bytes per key, shrink-cycle memory (not a paper artifact) |
//! | `sched`  | Scheduler ablation: per-call spawn vs persistent pool vs pool + batched prefetching (PR 4, not a paper artifact) |
//! | `server` | Sharded KV server: batch-size and shard sweeps vs the per-op baseline (PR 7, not a paper artifact) |
//!
//! Sizes are scaled from the paper's `n = 10^8` to laptop scale; set
//! `--n` (or env `PHC_N`) to push them up; `ablation` takes no flags.
//! Output is aligned text; bins that take `--json FILE` also dump
//! machine-readable results there.

#![warn(missing_docs)]

pub mod datasets;
pub mod ops;
pub mod report;
pub mod roster;
pub mod stw;

pub use datasets::{Dataset, StrDataset};
pub use ops::{run_ops, run_serial_ops, OpResults};
pub use report::{Grid, Report, Row};
pub use stw::StwResizableTable;

/// Reads a `--flag value` style argument or an environment default.
pub fn arg_or_env(args: &[String], flag: &str, env: &str, default: usize) -> usize {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if let Some(v) = args.get(pos + 1) {
            return v
                .parse()
                .unwrap_or_else(|_| panic!("bad value for {flag}: {v}"));
        }
    }
    std::env::var(env)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The default parallel thread count for the "(P)" columns: all
/// available cores (the paper's 40h column used 80 hyperthreads).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Times `f` once and returns seconds.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = std::time::Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Times `f` running inside a fresh rayon pool with `threads` workers.
pub fn time_in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> (f64, R) {
    phc_parutil::with_pool(threads, |pool| pool.install(|| time_once(f)))
}

/// Times `f` inside a width-1 pool, then inside a width-`threads` pool:
/// the paper's "(1)" and "(P)" columns, each with its run's result.
pub fn time_one_par<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> [(f64, R); 2] {
    [time_in_pool(1, &f), time_in_pool(threads, &f)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_par_runs_at_width_one_then_p() {
        let [(_, one), (_, par)] = time_one_par(3, rayon::current_num_threads);
        assert_eq!((one, par), (1, 3));
    }
}
