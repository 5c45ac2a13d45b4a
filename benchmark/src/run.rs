//! The end-to-end measurement: timed rounds on fresh servers/tables,
//! every output checked.
//!
//! Timing discipline: one warm-up round (discarded, and the round the
//! sequential oracle checks word by word) followed by timed rounds of a
//! fixed op count each, on a fresh target whose preload is redone
//! untimed. Each call is bracketed by two clock reads; what happens
//! between calls (hashing and checking the responses, probing the core
//! clock) is outside every timed interval. Every interval is converted
//! to the reference core clock (see `clock`) as it is taken. Every
//! metric is computed per round and reported as the median over the
//! timed rounds.

use std::time::Instant;

use phc_core::entry::{KeepMin, KvPair};
use phc_core::{DetHashTable, U64Key};
use phc_server::{response_log_hash, KvServer, ShardStatsSnapshot, ShardTable};
use phc_workloads::KvOp;

use crate::clock;
use crate::gen::mix64;
use crate::oracle::{diff_sorted, Oracle};
use crate::rss;
use crate::stats::{median, percentile_sorted, Summary};
use crate::workloads::{Mode, ServerWorkload, TableWorkload, Workload};

/// The server surface the benchmark drives, object-safe so one code
/// path serves both shard-table modes.
pub trait ServerApi: Send + Sync {
    /// `KvServer::apply_batch`.
    fn apply_batch(&self, ops: &[KvOp]) -> Vec<u64>;
    /// `KvServer::shard_stats`.
    fn shard_stats(&self) -> Vec<ShardStatsSnapshot>;
    /// `KvServer::shard_lens`.
    fn shard_lens(&self) -> Vec<usize>;
    /// `KvServer::elements_into`, as key-sorted `(key, value)` pairs.
    fn sorted_elements(&self) -> Vec<(u32, u32)>;
}

impl<T: ShardTable<KeepMin>> ServerApi for KvServer<KeepMin, T> {
    fn apply_batch(&self, ops: &[KvOp]) -> Vec<u64> {
        KvServer::apply_batch(self, ops)
    }
    fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        KvServer::shard_stats(self)
    }
    fn shard_lens(&self) -> Vec<usize> {
        KvServer::shard_lens(self)
    }
    fn sorted_elements(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<KvPair<KeepMin>> = Vec::new();
        self.elements_into(&mut out);
        let mut pairs: Vec<(u32, u32)> = out.iter().map(|e| (e.key, e.value)).collect();
        pairs.sort_unstable();
        pairs
    }
}

/// A fresh server of `shards` shards in `mode`.
pub fn new_server(mode: Mode, shards: usize, log2_cells: u32) -> Box<dyn ServerApi> {
    match mode {
        Mode::Rooms => Box::new(phc_server::KvServer::<KeepMin>::new(shards, log2_cells)),
        Mode::Fc => Box::new(phc_server::FcKvServer::<KeepMin>::new(shards, log2_cells)),
    }
}

/// Runs `f` on the pool at width `width`.
pub fn at_width<R: Send>(width: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool builder does not fail")
        .install(f)
}

/// Ops per preload call.
const PRELOAD_BATCH: usize = 4096;

/// Builds a server and applies the preload: the program-side set-up of
/// one round. Returns the server and the nanoseconds it took.
pub fn fresh_server(w: &ServerWorkload, shards: usize) -> (Box<dyn ServerApi>, u64) {
    let t0 = Instant::now();
    let server = new_server(w.mode, shards, w.log2_cells);
    for chunk in w.preload.chunks(PRELOAD_BATCH) {
        server.apply_batch(chunk);
    }
    let setup_ns = clock::scaled_ns(t0, Instant::now(), w.clock_share);
    (server, setup_ns)
}

/// Where a batch sits in a round.
pub struct BatchAt<'a> {
    /// Pass over the log, from 0.
    pub pass: usize,
    /// Index of the batch's first op within the log.
    pub first_op: usize,
    /// The batch.
    pub ops: &'a [KvOp],
}

/// Order-sensitive fold of response words (one multiply per word —
/// cheap enough to run on every round).
#[inline]
fn fold(hash: u64, words: &[u64]) -> u64 {
    words.iter().fold(hash, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Applies the workload's log `passes` times in batches, timing each
/// `apply_batch` and folding every response into the returned hash.
/// `lat` receives one sample per `w.burst` consecutive calls: the sum
/// of their timed intervals. `watch` sees each batch's responses after
/// the timed interval closed.
pub fn drive(
    server: &dyn ServerApi,
    w: &ServerWorkload,
    passes: usize,
    lat: &mut Vec<u64>,
    mut watch: impl FnMut(&BatchAt, &mut Vec<u64>),
) -> u64 {
    let mut hash = 0;
    let (mut burst_ns, mut burst_calls) = (0, 0);
    for pass in 0..passes {
        for (b, ops) in w.log.chunks(w.batch).enumerate() {
            let t0 = Instant::now();
            let mut resp = server.apply_batch(ops);
            burst_ns += clock::scaled_ns(t0, Instant::now(), w.clock_share);
            burst_calls += 1;
            if burst_calls == w.burst {
                lat.push(std::mem::take(&mut burst_ns));
                burst_calls = 0;
            }
            hash = fold(hash, &resp);
            watch(
                &BatchAt {
                    pass,
                    first_op: b * w.batch,
                    ops,
                },
                &mut resp,
            );
        }
    }
    if burst_calls > 0 {
        lat.push(burst_ns);
    }
    hash
}

/// Per-round end-to-end values of the timed rounds.
#[derive(Default)]
pub struct Rounds {
    /// Program-side set-up (fresh target + preload), seconds.
    pub setup_s: Vec<f64>,
    /// Ops ÷ summed call time, Mops/s.
    pub throughput_mops: Vec<f64>,
    /// Median call latency, µs.
    pub batch_p50_us: Vec<f64>,
    /// 99th-percentile call latency, µs.
    pub batch_p99_us: Vec<f64>,
    /// Calls of every timed round pooled (traced runs use it for the
    /// stall metrics); empty unless `keep_calls`.
    pub pooled_calls_ns: Vec<u64>,
    /// Share of timed time in calls slower than 10× the round median,
    /// per round.
    pub stall_share: Vec<f64>,
    /// Reported ÷ measured nanoseconds of the round: what converting
    /// to the reference core clock did to it (1 = nothing).
    pub clock_factor: Vec<f64>,
}

impl Rounds {
    fn push(&mut self, setup_ns: u64, ops: u64, lat: &mut [u64], plan: &Plan) {
        let total: u64 = lat.iter().sum();
        if plan.keep_calls {
            self.pooled_calls_ns.extend_from_slice(lat);
        }
        lat.sort_unstable();
        let p50 = percentile_sorted(lat, 0.5);
        let slow: u64 = lat.iter().filter(|&&l| l > 10 * p50).sum();
        self.setup_s.push(setup_ns as f64 / 1e9);
        self.throughput_mops.push(ops as f64 * 1e3 / total as f64);
        self.batch_p50_us.push(p50 as f64 / 1e3);
        self.batch_p99_us
            .push(percentile_sorted(lat, 0.99) as f64 / 1e3);
        self.stall_share.push(slow as f64 / total as f64);
        self.clock_factor.push(clock::take_factor());
    }
}

/// What one end-to-end run of a workload produced.
pub struct Outcome {
    /// Per-round values of the timed rounds.
    pub rounds: Rounds,
    /// Seconds each generation of the inputs took.
    pub gen_s: Vec<f64>,
    /// Peak resident set of the first timed round, MiB.
    pub peak_rss_mb: f64,
    /// Whether the peak counter could be reset before that round.
    pub rss_reset: bool,
    /// Ops and exported entries whose results were checked.
    pub attempted: u64,
    /// Those that differed from the oracle.
    pub failed: u64,
    /// Latency samples per timed round: calls, or bursts of calls where
    /// the workload groups them.
    pub samples_per_round: usize,
    /// Ops per round.
    pub ops_per_round: u64,
    /// Seconds spent checking outside the rounds (oracle round,
    /// determinism replays).
    pub verify_s: f64,
    /// What went wrong, one line per kind of failure.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(samples_per_round: usize, ops_per_round: u64, plan: &Plan) -> Self {
        Outcome {
            rounds: Rounds::default(),
            gen_s: vec![plan.first_gen_s],
            peak_rss_mb: 0.0,
            rss_reset: false,
            attempted: 0,
            failed: 0,
            samples_per_round,
            ops_per_round,
            verify_s: 0.0,
            notes: Vec::new(),
        }
    }
}

/// How long and how carefully to run.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Timed rounds stop once their summed timed time reaches this.
    pub seconds: f64,
    /// At least this many timed rounds.
    pub min_rounds: usize,
    /// At most this many.
    pub max_rounds: usize,
    /// Inject one wrong response word and drop one exported key before
    /// checking: the run must then report exactly two failed ops.
    pub self_test: bool,
    /// Keep every call latency of every round (traced runs).
    pub keep_calls: bool,
    /// Run the 1-shard and 16-shard determinism replays.
    pub replays: bool,
    /// Seconds the caller's generation of the inputs took: the first
    /// sample of `Outcome::gen_s`.
    pub first_gen_s: f64,
    /// How many more times to regenerate the inputs (after every second
    /// timed round, so the samples spread over the run).
    pub regens: usize,
}

/// Regenerates the workload's inputs and returns the seconds it took.
pub type Regen<'a> = &'a mut (dyn FnMut() -> f64 + Send);

/// Runs a workload end to end: warm-up/oracle round, timed rounds,
/// determinism replays.
pub fn run(w: &Workload, plan: Plan, regen: Regen) -> Outcome {
    match w {
        Workload::Server(s) => run_server(
            s,
            w.calls_per_round().div_ceil(s.burst),
            w.ops_per_round(),
            plan,
            regen,
        ),
        Workload::Table(t) => run_table(t, w.calls_per_round(), w.ops_per_round(), plan, regen),
    }
}

/// The timed rounds of a run, at pool width `width`: until their summed
/// timed time reaches the plan's seconds, within its round limits.
/// `round` runs one round on a fresh target, pushing one latency per
/// call, and returns (set-up ns, wrong results). The peak resident set
/// is taken around the first round; after every second round, while
/// the plan asks for more samples, the inputs are generated once more.
fn timed_rounds(
    out: &mut Outcome,
    width: usize,
    plan: &Plan,
    regen: Regen,
    lat: &mut Vec<u64>,
    mut round: impl FnMut(&mut Vec<u64>) -> (u64, u64) + Send,
) {
    at_width(width, || {
        let mut timed = 0.0;
        while out.rounds.setup_s.len() < plan.min_rounds
            || (timed < plan.seconds && out.rounds.setup_s.len() < plan.max_rounds)
        {
            let first = out.rounds.setup_s.is_empty();
            if first {
                out.rss_reset = rss::reset_peak();
            }
            lat.clear();
            clock::take_factor();
            let (setup_ns, failed) = round(lat);
            if first {
                out.peak_rss_mb = rss::peak_mib();
            }
            timed += lat.iter().sum::<u64>() as f64 / 1e9;
            out.attempted += out.ops_per_round;
            out.failed += failed;
            if failed > 0 {
                out.notes.push(format!(
                    "round {}: {failed} of {} results are wrong",
                    out.rounds.setup_s.len() + 1,
                    out.ops_per_round
                ));
            }
            out.rounds.push(setup_ns, out.ops_per_round, lat, plan);
            if out.rounds.setup_s.len().is_multiple_of(2) && out.gen_s.len() <= plan.regens {
                out.gen_s.push(regen());
            }
        }
    })
}

/// Round 0's view of a served workload: responses word by word against
/// the oracle, contents at the checkpoint, and the canonical
/// fingerprints the replays must reproduce.
struct Checked {
    failed: u64,
    attempted: u64,
    /// `response_log_hash` of every pass-1 batch, chained.
    pass1_hash: u64,
    /// Key-sorted contents at the checkpoint.
    contents: Vec<(u32, u32)>,
}

fn checked_round(w: &ServerWorkload, plan: &Plan, lat: &mut Vec<u64>) -> (Checked, u64) {
    let mut oracle = Oracle::new(w.key_space);
    let mut expected = Vec::new();
    oracle.apply_batch(&w.preload, &mut expected);
    let (server, _) = fresh_server(w, w.shards);
    let mut c = Checked {
        failed: 0,
        attempted: 0,
        pass1_hash: 0,
        contents: Vec::new(),
    };
    let hash = drive(server.as_ref(), w, w.passes, lat, |at, resp| {
        oracle.apply_batch(at.ops, &mut expected);
        if at.pass == 0 {
            c.pass1_hash = mix64(c.pass1_hash ^ response_log_hash(resp));
        }
        if plan.self_test && at.pass == 0 && at.first_op == 0 {
            resp[0] ^= 1;
        }
        c.failed += resp.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
        c.attempted += resp.len() as u64;
        if at.pass == 0 && at.first_op + at.ops.len() == w.checkpoint {
            c.contents = server.sorted_elements();
            let want = oracle.entries();
            c.failed += if plan.self_test {
                diff_sorted(&minus_one_key(&c.contents), &want)
            } else {
                diff_sorted(&c.contents, &want)
            };
            c.attempted += want.len().max(1) as u64;
        }
    });
    (c, hash)
}

/// The self-test's dropped key: `contents` without its last entry — or,
/// where the export is empty, with one entry no oracle holds — so the
/// comparison is off by exactly one either way.
fn minus_one_key(contents: &[(u32, u32)]) -> Vec<(u32, u32)> {
    match contents.split_last() {
        Some((_, rest)) => rest.to_vec(),
        None => vec![(u32::MAX, 1)],
    }
}

/// Pass 1 of the log on `shards` shards at pool width `width`: the
/// chained `response_log_hash` and the contents at the checkpoint.
fn replay(w: &ServerWorkload, shards: usize, width: usize) -> (u64, Vec<(u32, u32)>) {
    at_width(width, || {
        let (server, _) = fresh_server(w, shards);
        let (mut hash, mut contents) = (0, Vec::new());
        drive(server.as_ref(), w, 1, &mut Vec::new(), |at, resp| {
            hash = mix64(hash ^ response_log_hash(resp));
            if at.first_op + at.ops.len() == w.checkpoint {
                contents = server.sorted_elements();
            }
        });
        (hash, contents)
    })
}

fn run_server(
    w: &ServerWorkload,
    samples_per_round: usize,
    ops_per_round: u64,
    plan: Plan,
    regen: Regen,
) -> Outcome {
    let mut out = Outcome::new(samples_per_round, ops_per_round, &plan);
    let mut lat: Vec<u64> = Vec::with_capacity(samples_per_round);

    let t = Instant::now();
    let (checked, hash0) = at_width(w.width, || checked_round(w, &plan, &mut lat));
    out.verify_s += t.elapsed().as_secs_f64();
    out.attempted += checked.attempted;
    out.failed += checked.failed;
    if checked.failed > 0 {
        out.notes.push(format!(
            "round 0: {} of {} checked results differ from the oracle",
            checked.failed, checked.attempted
        ));
    }

    // A later round is checked by its response hash: all of it counts
    // as wrong if that differs from round 0's.
    timed_rounds(&mut out, w.width, &plan, regen, &mut lat, |lat| {
        let (server, setup_ns) = fresh_server(w, w.shards);
        let hash = drive(server.as_ref(), w, w.passes, lat, |_, _| {});
        (setup_ns, if hash == hash0 { 0 } else { ops_per_round })
    });

    if plan.replays {
        let t = Instant::now();
        for (shards, width) in [(1, 1), (16, 2)] {
            let (hash, contents) = replay(w, shards, width);
            out.attempted += w.log.len() as u64;
            if hash != checked.pass1_hash || contents != checked.contents {
                out.failed += w.log.len() as u64;
                out.notes.push(format!(
                    "determinism: {shards} shard(s) x width {width} disagrees with {} shards x width {} (hash {}, contents {})",
                    w.shards,
                    w.width,
                    if hash == checked.pass1_hash { "equal" } else { "differs" },
                    if contents == checked.contents { "equal" } else { "differ" },
                ));
            }
        }
        out.verify_s += t.elapsed().as_secs_f64();
    }
    out
}

/// Runs `f`, pushing its duration onto `lat`.
#[inline]
fn timed<R>(lat: &mut Vec<u64>, clock_share: f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    lat.push(clock::scaled_ns(t0, Instant::now(), clock_share));
    r
}

/// One round of the bulk phases (insert, find-hit, find-miss,
/// elements, delete) on a fresh table. Pushes one latency per call and
/// returns (set-up ns, failed ops).
pub fn table_round(
    w: &TableWorkload,
    lat: &mut Vec<u64>,
    sorted_keys: Option<&[(u64, ())]>,
    key_sum: u64,
    self_test: bool,
) -> (u64, u64) {
    let share = w.clock_share;
    let t0 = Instant::now();
    let table: DetHashTable<U64Key> = DetHashTable::new_pow2(w.log2_cells);
    let setup_ns = clock::scaled_ns(t0, Instant::now(), share);
    let mut failed = 0u64;
    for chunk in w.keys.chunks(w.call) {
        timed(lat, share, || table.par_insert_batched(chunk));
    }
    for (c, chunk) in w.keys.chunks(w.call).enumerate() {
        let mut found = timed(lat, share, || table.par_find_batched(chunk));
        if self_test && c == 0 {
            found[0] = None;
        }
        failed += found
            .iter()
            .zip(chunk)
            .filter(|(f, k)| **f != Some(**k))
            .count() as u64;
    }
    for chunk in w.absent.chunks(w.call) {
        let found = timed(lat, share, || table.par_find_batched(chunk));
        failed += found.iter().filter(|f| f.is_some()).count() as u64;
    }
    let mut packed = timed(lat, share, || table.elements());
    if self_test {
        packed.pop();
    }
    failed += match sorted_keys {
        // Round 0: the exact set.
        Some(want) => {
            let mut got: Vec<(u64, ())> = packed.iter().map(|k| (k.0, ())).collect();
            got.sort_unstable();
            diff_sorted(&got, want)
        }
        // Later rounds: size and an order-free sum over mixed keys.
        None => {
            let sum = packed.iter().fold(0u64, |s, k| s.wrapping_add(mix64(k.0)));
            if packed.len() == w.keys.len() && sum == key_sum {
                0
            } else {
                w.keys.len() as u64
            }
        }
    };
    for chunk in w.keys.chunks(w.call) {
        timed(lat, share, || table.par_delete_batched(chunk));
    }
    failed += table.len() as u64;
    (setup_ns, failed)
}

fn run_table(
    w: &TableWorkload,
    samples_per_round: usize,
    ops_per_round: u64,
    plan: Plan,
    regen: Regen,
) -> Outcome {
    let mut out = Outcome::new(samples_per_round, ops_per_round, &plan);
    let t = Instant::now();
    let mut sorted: Vec<(u64, ())> = w.keys.iter().map(|k| (k.0, ())).collect();
    sorted.sort_unstable();
    let key_sum = w.keys.iter().fold(0u64, |s, k| s.wrapping_add(mix64(k.0)));
    let mut lat = Vec::with_capacity(samples_per_round);
    at_width(w.width, || {
        let (_, failed) = table_round(w, &mut lat, Some(&sorted), key_sum, plan.self_test);
        out.attempted += ops_per_round;
        out.failed += failed;
        if failed > 0 {
            out.notes.push(format!(
                "round 0: {failed} of {ops_per_round} results are wrong"
            ));
        }
    });
    drop(sorted);
    out.verify_s = t.elapsed().as_secs_f64();

    timed_rounds(&mut out, w.width, &plan, regen, &mut lat, |lat| {
        table_round(w, lat, None, key_sum, false)
    });
    out
}

/// `rounds` unchecked rounds of `w` at pool width `width` — the side
/// measurements of a traced run (other pool width, obs-on build).
/// `mark(r, false)` runs right before round `r`'s first timed call
/// (after the untimed preload), `mark(r, true)` right after its last.
/// Returns each round's throughput in Mops/s.
pub fn plain_rounds(
    w: &Workload,
    width: usize,
    rounds: usize,
    mut mark: impl FnMut(usize, bool) + Send,
) -> Vec<f64> {
    at_width(width, || {
        let mut lat = Vec::new();
        let mut throughput = Vec::new();
        for r in 0..rounds {
            lat.clear();
            match w {
                Workload::Server(s) => {
                    let (server, _) = fresh_server(s, s.shards);
                    mark(r, false);
                    drive(server.as_ref(), s, s.passes, &mut lat, |_, _| {});
                }
                Workload::Table(t) => {
                    mark(r, false);
                    table_round(t, &mut lat, None, 0, false);
                }
            }
            mark(r, true);
            throughput.push(w.ops_per_round() as f64 * 1e3 / lat.iter().sum::<u64>() as f64);
        }
        throughput
    })
}

/// The five end-to-end metrics of an outcome, in report order, with
/// their units.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, Summary)> {
    let gen_s = median(&o.gen_s);
    vec![
        (
            "setup_s",
            "s",
            Summary::new(o.rounds.setup_s.iter().map(|s| gen_s + s).collect()),
        ),
        (
            "throughput_mops",
            "Mops/s",
            Summary::new(o.rounds.throughput_mops.clone()),
        ),
        (
            "batch_p50_us",
            "us",
            Summary::new(o.rounds.batch_p50_us.clone()),
        ),
        (
            "batch_p99_us",
            "us",
            Summary::new(o.rounds.batch_p99_us.clone()),
        ),
        ("peak_rss_mb", "MiB", Summary::new(vec![o.peak_rss_mb])),
    ]
}
