//! Spans and the layer ladder.
//!
//! Nothing inside `apply_batch` can be timed from outside, so a served
//! workload's per-layer times come from a *ladder*: the benchmark
//! routes each batch itself (`phc_server::shard_of`, untimed) and
//! replays the identical per-shard sub-batches, in the server's
//! puts → deletes → gets order, against mirror stacks built from public
//! types — the shard wrapper, the bare `ResizableTable`, and the flat
//! core preallocated at the capacity the workload peaks at. Layout is a
//! pure function of the key set, so every mirror holds exactly the
//! server's state. A layer's self time is its level minus the level
//! below; every level is timed with the same two clock reads per batch,
//! so timer cost cancels in the differences, and every level's times
//! are converted to the reference core clock (`clock`) as the
//! end-to-end ones are, so a turbo stretch during one level does not
//! show up as another layer's self time. Spans keep the timestamps as
//! read.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions, into a pre-sized buffer that is
//! written out when the run ends.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use phc_core::entry::{KeepMin, KvPair};
use phc_core::resize::FlatTableCore;
use phc_core::{
    AutoPhaseGrowTable, DetHashTable, FcAutoGrowTable, FcHashTable, PhaseHashTable, ResizableTable,
};
use phc_server::shard_of;
use phc_workloads::KvOp;

use crate::clock;
use crate::rss;
use crate::run::fresh_server;
use crate::stats::median;
use crate::workloads::{Mode, ServerWorkload};

type Kv = KvPair<KeepMin>;

/// One timed interval. `parent` is the id of the span that caused it
/// (0 = none); spans of one batch share `batch_id`.
#[derive(Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `server.apply_batch`.
    pub name: &'static str,
    /// 1-based id, unique within the file.
    pub id: u32,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    /// Batch (or call) index the span belongs to.
    pub batch_id: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Ops the call carried.
    pub ops: u32,
}

/// In-memory span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans (recording beyond that
    /// still works, it just reallocates inside an untimed gap).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        batch_id: u32,
        start: Instant,
        end: Instant,
        ops: u32,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            batch_id,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            ops,
        });
        id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 112);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"batch_id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}}}",
                s.name, s.id, s.parent, s.batch_id, s.start_ns, s.end_ns, s.ops
            );
        }
        out
    }
}

/// A rung of the ladder below the server: a per-shard table driven
/// with whole sub-batches. `&mut self` because the bare
/// `ResizableTable` normalizes through its exclusive-borrow phase API.
pub trait Level: Send + Sized {
    /// Creates a table of `2^log2_cells` cells.
    fn new_pow2(log2_cells: u32) -> Self;
    /// The put sub-phase of one batch.
    fn put(&mut self, entries: &[Kv]);
    /// The delete sub-phase.
    fn del(&mut self, keys: &[Kv]);
    /// The get sub-phase.
    fn get(&mut self, keys: &[Kv]) -> Vec<Option<Kv>>;
    /// Cells, at quiescence.
    fn cells(&mut self) -> usize;
    /// Stored entries, at quiescence.
    fn entries(&mut self) -> usize;
}

macro_rules! wrapper_level {
    ($ty:ty) => {
        impl Level for $ty {
            fn new_pow2(log2_cells: u32) -> Self {
                <$ty>::new_pow2(log2_cells)
            }
            fn put(&mut self, entries: &[Kv]) {
                self.par_insert_batched(entries)
            }
            fn del(&mut self, keys: &[Kv]) {
                self.par_delete_batched(keys)
            }
            fn get(&mut self, keys: &[Kv]) -> Vec<Option<Kv>> {
                self.par_find_batched(keys)
            }
            fn cells(&mut self) -> usize {
                self.capacity()
            }
            fn entries(&mut self) -> usize {
                self.len()
            }
        }
    };
}
wrapper_level!(AutoPhaseGrowTable<Kv>);
wrapper_level!(FcAutoGrowTable<Kv>);

/// The flat bottom rung, driven through the sequential batch calls —
/// what the resize layer itself runs on its core for a sub-batch of at
/// most one grain, which is every sub-batch of these workloads. (The
/// cores' own `par_*_batched` dispatch to the pool even for a handful
/// of keys, so they would put the bottom rung *above* the one it
/// should sit below.)
macro_rules! flat_level {
    ($ty:ty) => {
        impl Level for $ty {
            fn new_pow2(log2_cells: u32) -> Self {
                <$ty>::new_pow2(log2_cells)
            }
            fn put(&mut self, entries: &[Kv]) {
                self.insert_batch(entries)
            }
            fn del(&mut self, keys: &[Kv]) {
                self.delete_batch(keys)
            }
            fn get(&mut self, keys: &[Kv]) -> Vec<Option<Kv>> {
                self.find_batch(keys)
            }
            fn cells(&mut self) -> usize {
                self.capacity()
            }
            fn entries(&mut self) -> usize {
                self.len()
            }
        }
    };
}
flat_level!(DetHashTable<Kv>);
flat_level!(FcHashTable<Kv>);

/// The bare resize layer: the wrappers' `par_*_batched` + `normalize()`
/// without the room (or fc) wrapper. `normalize` itself is
/// crate-private, so the mirror reaches it through the two public
/// exclusive-borrow entry points that end in it.
impl<T: FlatTableCore<Kv>> Level for ResizableTable<Kv, T> {
    fn new_pow2(log2_cells: u32) -> Self {
        ResizableTable::new_pow2(log2_cells)
    }
    fn put(&mut self, entries: &[Kv]) {
        self.insert_phase(|t| t.par_insert_batched(entries))
    }
    fn del(&mut self, keys: &[Kv]) {
        self.par_delete_batched(keys);
        drop(self.begin_read());
    }
    fn get(&mut self, keys: &[Kv]) -> Vec<Option<Kv>> {
        self.par_find_batched(keys)
    }
    fn cells(&mut self) -> usize {
        self.capacity()
    }
    fn entries(&mut self) -> usize {
        self.len()
    }
}

/// One shard's slice of a batch, grouped by sub-phase.
#[derive(Default)]
struct Routed {
    puts: Vec<Kv>,
    dels: Vec<Kv>,
    gets: Vec<Kv>,
}

/// The benchmark's own copy of the server's routing pass: partition by
/// `shard_of`, group by sub-phase, keep submission order.
fn route(ops: &[KvOp], shards: &mut [Routed]) {
    for r in shards.iter_mut() {
        r.puts.clear();
        r.dels.clear();
        r.gets.clear();
    }
    let n = shards.len();
    for &op in ops {
        let r = &mut shards[shard_of(op.key(), n)];
        match op {
            KvOp::Put { key, val } => r.puts.push(Kv::new(key, val)),
            KvOp::Del { key } => r.dels.push(Kv::new(key, 0)),
            KvOp::Get { key } => r.gets.push(Kv::new(key, 0)),
        }
    }
}

fn apply_routed<L: Level>(tables: &mut [L], routed: &[Routed]) {
    for (t, r) in tables.iter_mut().zip(routed) {
        if !r.puts.is_empty() {
            t.put(&r.puts);
        }
        if !r.dels.is_empty() {
            t.del(&r.dels);
        }
        if !r.gets.is_empty() {
            black_box(t.get(&r.gets));
        }
    }
}

/// Per-shard cell count (log2) of the flat bottom rung: the smallest
/// power of two, at least the seed size, that keeps the largest key
/// set the shard ever holds during preload + one pass under load 3/4.
fn flat_log2_cells(w: &ServerWorkload) -> u32 {
    let mut present = vec![false; w.key_space as usize + 1];
    let mut live = vec![0usize; w.shards];
    let mut peak = 0usize;
    let mut set = |key: u32, on: bool, live: &mut [usize]| {
        let slot = &mut present[key as usize];
        if *slot != on {
            *slot = on;
            let s = shard_of(key, w.shards);
            if on {
                live[s] += 1;
            } else {
                live[s] -= 1;
            }
        }
    };
    for batch in std::iter::once(&w.preload[..]).chain(w.log.chunks(w.batch)) {
        for op in batch {
            if let KvOp::Put { key, .. } = *op {
                set(key, true, &mut live);
            }
        }
        peak = peak.max(live.iter().copied().max().unwrap_or(0));
        for op in batch {
            if let KvOp::Del { key } = *op {
                set(key, false, &mut live);
            }
        }
    }
    let mut log2 = w.log2_cells;
    while peak * 4 >= (1usize << log2) * 3 {
        log2 += 1;
    }
    log2
}

/// Names of the ladder's span kinds.
const SERVER: &str = "server.apply_batch";
const ROUTE: &str = "server.route";

/// Nanoseconds one level spent over one pass of the log.
#[derive(Clone, Copy, Default)]
struct LevelTime {
    total_ns: u64,
    /// The part spent on batches before `put_half_end`.
    put_half_ns: u64,
}

/// What the ladder measured on one served workload, per op of one
/// pass. Each time is the median over the repetitions.
pub struct Ladder {
    /// `apply_batch`, ns per op.
    pub server_ns: f64,
    /// The benchmark's routing pass alone.
    pub route_ns: f64,
    /// The shard wrapper mirror (`AutoPhaseGrowTable` / `FcAutoGrowTable`).
    pub wrapper_ns: f64,
    /// The bare `ResizableTable` mirror.
    pub resizable_ns: f64,
    /// The preallocated flat core.
    pub flat_ns: f64,
    /// `ResizableTable` ÷ flat core over the put-bearing part of the log.
    pub growth_tax_x: f64,
    /// Wrapper-mirror `capacity × 8 ÷ len` at the checkpoint.
    pub bytes_per_key: f64,
    /// (Peak − base) ÷ (checkpoint − base) resident set over the server
    /// pass, base = resident set before the server existed.
    pub peak_over_steady_rss: f64,
    /// Max ÷ mean ops per shard.
    pub shard_imbalance: f64,
    /// Hits ÷ gets.
    pub get_hit_ratio: f64,
}

struct Pass<'a> {
    w: &'a ServerWorkload,
    tracer: &'a mut Tracer,
    /// Id of each batch's `server.apply_batch` span.
    server_span: Vec<u32>,
    routed: Vec<Routed>,
}

impl Pass<'_> {
    fn in_put_half(&self, batch: usize) -> bool {
        batch * self.w.batch < self.w.put_half_end
    }

    fn server(&mut self, ladder: &mut Ladder) -> LevelTime {
        let w = self.w;
        let base = rss::current_mib();
        let reset = rss::reset_peak();
        let (server, _) = fresh_server(w, w.shards);
        let mut time = LevelTime::default();
        let mut steady = 0.0;
        self.server_span.clear();
        for (b, ops) in w.log.chunks(w.batch).enumerate() {
            let t0 = Instant::now();
            black_box(server.apply_batch(ops));
            let t1 = Instant::now();
            let ns = clock::scaled_ns(t0, t1, w.clock_share);
            time.total_ns += ns;
            if self.in_put_half(b) {
                time.put_half_ns += ns;
            }
            let id = self
                .tracer
                .record(SERVER, 0, b as u32, t0, t1, ops.len() as u32);
            self.server_span.push(id);
            if b * w.batch + ops.len() == w.checkpoint {
                steady = rss::current_mib();
            }
        }
        let peak = rss::peak_mib();
        ladder.peak_over_steady_rss = if reset && steady > base {
            (peak - base) / (steady - base)
        } else {
            0.0
        };
        let stats = server.shard_stats();
        let per_shard: Vec<f64> = stats.iter().map(|s| s.ops() as f64).collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        ladder.shard_imbalance = per_shard.iter().copied().fold(0.0, f64::max) / mean;
        let (gets, hits) = stats
            .iter()
            .fold((0, 0), |(g, h), s| (g + s.gets, h + s.hits));
        ladder.get_hit_ratio = hits as f64 / gets.max(1) as f64;
        time
    }

    fn route(&mut self) -> LevelTime {
        let w = self.w;
        let mut time = LevelTime::default();
        for (b, ops) in w.log.chunks(w.batch).enumerate() {
            let t0 = Instant::now();
            route(ops, &mut self.routed);
            black_box(&self.routed);
            let t1 = Instant::now();
            time.total_ns += clock::scaled_ns(t0, t1, w.clock_share);
            self.tracer.record(
                ROUTE,
                self.server_span[b],
                b as u32,
                t0,
                t1,
                ops.len() as u32,
            );
        }
        time
    }

    /// One pass over mirror tables of type `L`. Also returns the tables'
    /// bytes per stored key (`cells × 8 ÷ entries`) at the checkpoint.
    fn level<L: Level>(&mut self, name: &'static str, log2_cells: u32) -> (LevelTime, f64) {
        let w = self.w;
        let mut tables: Vec<L> = (0..w.shards).map(|_| L::new_pow2(log2_cells)).collect();
        for chunk in w.preload.chunks(4096) {
            route(chunk, &mut self.routed);
            apply_routed(&mut tables, &self.routed);
        }
        let mut time = LevelTime::default();
        let mut bytes_per_key = 0.0;
        for (b, ops) in w.log.chunks(w.batch).enumerate() {
            route(ops, &mut self.routed);
            let t0 = Instant::now();
            apply_routed(&mut tables, &self.routed);
            let t1 = Instant::now();
            let ns = clock::scaled_ns(t0, t1, w.clock_share);
            time.total_ns += ns;
            if self.in_put_half(b) {
                time.put_half_ns += ns;
            }
            self.tracer.record(
                name,
                self.server_span[b],
                b as u32,
                t0,
                t1,
                ops.len() as u32,
            );
            if b * w.batch + ops.len() == w.checkpoint {
                let (cells, entries) = tables
                    .iter_mut()
                    .fold((0, 0), |(c, e), t| (c + t.cells(), e + t.entries()));
                bytes_per_key = cells as f64 * 8.0 / entries.max(1) as f64;
            }
        }
        (time, bytes_per_key)
    }

    /// The three rungs below the server — wrapper `W`, bare resizable
    /// `R`, flat core `F` — appended to `times[2..5]`. Returns the
    /// wrapper rung's bytes per key.
    fn mirrors<W: Level, R: Level, F: Level>(
        &mut self,
        names: [&'static str; 3],
        flat_log2: u32,
        times: &mut [Vec<LevelTime>; 5],
    ) -> f64 {
        let seed_log2 = self.w.log2_cells;
        let (wrapper, bytes_per_key) = self.level::<W>(names[0], seed_log2);
        times[2].push(wrapper);
        times[3].push(self.level::<R>(names[1], seed_log2).0);
        times[4].push(self.level::<F>(names[2], flat_log2).0);
        bytes_per_key
    }
}

/// Runs the ladder over one pass of the log (at whatever pool width the
/// caller installed), repeating it up to `max_reps` times while the
/// repetitions so far took less than `budget_s`, and keeps the spans of
/// the last repetition.
pub fn ladder(w: &ServerWorkload, max_reps: usize, budget_s: f64, tracer: &mut Tracer) -> Ladder {
    let flat_log2 = flat_log2_cells(w);
    let mut out = Ladder {
        server_ns: 0.0,
        route_ns: 0.0,
        wrapper_ns: 0.0,
        resizable_ns: 0.0,
        flat_ns: 0.0,
        growth_tax_x: 0.0,
        bytes_per_key: 0.0,
        peak_over_steady_rss: 0.0,
        shard_imbalance: 0.0,
        get_hit_ratio: 0.0,
    };
    let mut times: [Vec<LevelTime>; 5] = Default::default();
    let spans_before = tracer.spans().len();
    let mut pass = Pass {
        w,
        tracer,
        server_span: Vec::new(),
        routed: (0..w.shards).map(|_| Routed::default()).collect(),
    };
    let started = Instant::now();
    while times[0].is_empty()
        || (times[0].len() < max_reps && started.elapsed().as_secs_f64() < budget_s)
    {
        pass.tracer.truncate(spans_before);
        times[0].push(pass.server(&mut out));
        times[1].push(pass.route());
        out.bytes_per_key = match w.mode {
            Mode::Rooms => pass
                .mirrors::<AutoPhaseGrowTable<Kv>, ResizableTable<Kv>, DetHashTable<Kv>>(
                    ["rooms.shard_batch", "resize.shard_batch", "det.shard_batch"],
                    flat_log2,
                    &mut times,
                ),
            Mode::Fc => pass
                .mirrors::<FcAutoGrowTable<Kv>, ResizableTable<Kv, FcHashTable<Kv>>, FcHashTable<Kv>>(
                    ["fc.shard_batch", "resize.shard_batch", "fccore.shard_batch"],
                    flat_log2,
                    &mut times,
                ),
        };
    }
    let ops = w.log.len() as f64;
    let per_op = |level: &[LevelTime]| {
        median(
            &level
                .iter()
                .map(|t| t.total_ns as f64 / ops)
                .collect::<Vec<_>>(),
        )
    };
    out.server_ns = per_op(&times[0]);
    out.route_ns = per_op(&times[1]);
    out.wrapper_ns = per_op(&times[2]);
    out.resizable_ns = per_op(&times[3]);
    out.flat_ns = per_op(&times[4]);
    out.growth_tax_x = median(
        &times[3]
            .iter()
            .zip(&times[4])
            .map(|(r, f)| r.put_half_ns as f64 / f.put_half_ns.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    out
}
