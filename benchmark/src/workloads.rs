//! The six workloads: what each feeds the program, at which pool
//! width, and why it exists. Sizes are the full-run sizes; `--quick`
//! shifts every op count (and the key spaces of the three large
//! workloads) down by 4 bits.

use phc_core::U64Key;
use phc_workloads::KvOp;

use crate::gen;

/// Which shard table a served workload runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `KvServer` — `AutoPhaseGrowTable` shards, one room per sub-phase.
    Rooms,
    /// `FcKvServer` — `FcAutoGrowTable` shards, no rooms.
    Fc,
}

/// A request log served through `apply_batch`.
pub struct ServerWorkload {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Shard-table discipline.
    pub mode: Mode,
    /// Pool width the timed rounds run at.
    pub width: usize,
    /// Shards of the timed configuration.
    pub shards: usize,
    /// Seed capacity of every shard, `2^log2_cells` cells.
    pub log2_cells: u32,
    /// Ops per `apply_batch` call.
    pub batch: usize,
    /// Consecutive calls that make one latency sample (one client
    /// request). 1 everywhere except the batch-64 workloads, where a
    /// request is a burst of 16 batches: the p99 of a single 1.5 µs call
    /// sits on a knee of the platform's noise (see the README).
    pub burst: usize,
    /// Times the log is applied per round (state carries over).
    pub passes: usize,
    /// Keys are `1..=key_space`.
    pub key_space: u32,
    /// Puts applied (untimed) to every fresh server before a round.
    pub preload: Vec<KvOp>,
    /// The timed request log.
    pub log: Vec<KvOp>,
    /// Op index of pass 1 (a batch boundary) at which contents are
    /// exported and checked and bytes-per-key is read: the put/delete
    /// boundary where there is one, else the end of the log.
    pub checkpoint: usize,
    /// End of the part of the log that carries puts (the whole log
    /// except on `serve_grow_shrink`, whose second half only deletes).
    pub put_half_end: usize,
    /// Share of a call's time that scales with the core clock (the rest
    /// waits for L3 and DRAM): what `clock::scaled_ns` converts. Measured
    /// on the bench box as the slope of log throughput over log core
    /// clock across a few hundred rounds; see the README.
    pub clock_share: f64,
}

/// Bulk phases straight on a preallocated `DetHashTable<U64Key>`.
pub struct TableWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Pool width.
    pub width: usize,
    /// The table has `2^log2_cells` cells.
    pub log2_cells: u32,
    /// Keys per `par_*_batched` call.
    pub call: usize,
    /// Keys inserted, found and deleted.
    pub keys: Vec<U64Key>,
    /// As many keys that are never inserted.
    pub absent: Vec<U64Key>,
    /// As `ServerWorkload::clock_share`.
    pub clock_share: f64,
}

/// One workload's inputs.
pub enum Workload {
    /// Served through a `KvServer`.
    Server(ServerWorkload),
    /// Driven on a table directly.
    Table(TableWorkload),
}

impl Workload {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Server(w) => w.name,
            Workload::Table(w) => w.name,
        }
    }
    /// Pool width of the timed rounds.
    pub fn width(&self) -> usize {
        match self {
            Workload::Server(w) => w.width,
            Workload::Table(w) => w.width,
        }
    }
    /// Ops one round applies (served: the log times its passes; table:
    /// five phases over the keys).
    pub fn ops_per_round(&self) -> u64 {
        match self {
            Workload::Server(w) => (w.log.len() * w.passes) as u64,
            Workload::Table(w) => 5 * w.keys.len() as u64,
        }
    }
    /// Calls one round makes into the program.
    pub fn calls_per_round(&self) -> usize {
        match self {
            Workload::Server(w) => w.log.len().div_ceil(w.batch) * w.passes,
            Workload::Table(w) => 4 * w.keys.len().div_ceil(w.call) + 1,
        }
    }
    /// Fingerprint of the generated inputs.
    pub fn input_hash(&self) -> u64 {
        match self {
            Workload::Server(w) => gen::log_hash(&w.log) ^ gen::log_hash(&w.preload).rotate_left(1),
            Workload::Table(w) => w
                .keys
                .iter()
                .chain(&w.absent)
                .fold(0, |h, k| gen::mix64(h ^ k.0)),
        }
    }
}

/// `clock_share` of the bulk phases on a table far larger than L2
/// (`table_phases_bulk` and the flat-core rows of a traced run).
pub const BULK_CLOCK_SHARE: f64 = 0.5;

/// Name and one-line reason of every workload, in run order. The
/// reasons are the `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "serve_read_resident",
        "95/5 get/put, Zipf 0.99, 64 Ki keys in 1 MiB of L2-resident shards, batch 1024: probes are cheap, so the server's route/scatter/gather share is at its largest; resize and delete must not move it",
    ),
    (
        "serve_churn_large",
        "50/25/25 get/put/del uniform over 4 Mi keys, 32 MiB of cells far beyond L2, batch 4096, width 2: cache-miss-bound probes, deletes beside reads, the only gated row on the parallel shard fan-out",
    ),
    (
        "serve_grow_shrink",
        "4 Mi distinct puts from 1 Ki-cell shards then every key deleted, batch 1024: every op rides the resize path, 11 doublings and 11 halvings per shard; the growth tax and its memory spike show only here",
    ),
    (
        "serve_rmw_small_rooms",
        "put-get-del triplets on one Zipf key, batch 64 over rooms shards: about 5 ops per shard sub-phase, so room switches, the scratch mutex and the response Vec dominate",
    ),
    (
        "serve_rmw_small_fc",
        "the same log and batching through FcKvServer: a gain for rooms that costs fc, or the reverse, shows as one row up and one down; the only gated row over fc.rs",
    ),
    (
        "table_phases_bulk",
        "paper Table 1 on a preallocated DetHashTable: insert, find-hit, find-miss, elements, delete of 4 Mi keys in 8 Mi cells; no server, rooms or resize, so those layers predict no movement here",
    ),
];

/// Generates the inputs of workload `name` from `seed`.
pub fn build(name: &str, seed: u64, quick: bool) -> Result<Workload, String> {
    let shift = if quick { 4 } else { 0 };
    let served =
        |name, mode, width, batch, passes, key_space: u32, preload: Vec<KvOp>, log: Vec<KvOp>| {
            let end = log.len();
            // L2-resident shards run at the core's pace; the large ones
            // wait for memory more than half of the time.
            let clock_share = match name {
                "serve_read_resident" => 0.75,
                "serve_churn_large" => 0.3,
                "serve_grow_shrink" => 0.45,
                _ => 0.95,
            };
            ServerWorkload {
                name,
                mode,
                width,
                shards: 4,
                log2_cells: 10,
                batch,
                burst: if batch < 1024 { 16 } else { 1 },
                passes,
                key_space,
                preload,
                log,
                checkpoint: end,
                put_half_end: end,
                clock_share,
            }
        };
    Ok(match name {
        "serve_read_resident" => Workload::Server(served(
            "serve_read_resident",
            Mode::Rooms,
            1,
            1024,
            4,
            1 << 16,
            gen::preload_puts(1 << 16, seed, |_| true),
            gen::mixed_log((8 << 20) >> shift, 1 << 16, 0.99, 95, 0, seed),
        )),
        "serve_churn_large" => {
            let key_space = (1u32 << 22) >> shift;
            Workload::Server(served(
                "serve_churn_large",
                Mode::Rooms,
                2,
                4096,
                1,
                key_space,
                gen::preload_puts(key_space, seed, |k| k % 2 == 1),
                gen::mixed_log((12 << 20) >> shift, key_space as usize, 0.0, 50, 25, seed),
            ))
        }
        "serve_grow_shrink" => {
            let bits = 22 - shift;
            let (log, delete_start) = gen::grow_shrink_log(bits, seed);
            let mut w = served(
                "serve_grow_shrink",
                Mode::Rooms,
                1,
                1024,
                1,
                1 << bits,
                Vec::new(),
                log,
            );
            assert_eq!(
                delete_start % w.batch,
                0,
                "put/delete boundary must be a batch boundary"
            );
            w.checkpoint = delete_start;
            w.put_half_end = delete_start;
            Workload::Server(w)
        }
        "serve_rmw_small_rooms" | "serve_rmw_small_fc" => {
            let (name, mode) = if name.ends_with("fc") {
                ("serve_rmw_small_fc", Mode::Fc)
            } else {
                ("serve_rmw_small_rooms", Mode::Rooms)
            };
            Workload::Server(served(
                name,
                mode,
                1,
                64,
                4,
                1 << 16,
                Vec::new(),
                gen::rmw_log((6 << 20) >> shift, 1 << 16, 0.99, seed),
            ))
        }
        "table_phases_bulk" => {
            let n = (1usize << 22) >> shift;
            Workload::Table(TableWorkload {
                name: "table_phases_bulk",
                width: 1,
                log2_cells: 23 - shift,
                call: 1 << 14 >> (shift / 2),
                keys: gen::distinct_keys(n, seed, 0),
                absent: gen::distinct_keys(n, seed, 1),
                clock_share: BULK_CLOCK_SHARE,
            })
        }
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other:?}; one of {}",
                names.join(", ")
            ));
        }
    })
}
