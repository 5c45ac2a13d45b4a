//! Metric names, units and the result documents: the per-workload
//! result object, the human-readable table, and the one-line JSON the
//! driver reads. `BENCHMARK.json` lists the same names; a test holds
//! the two together.

use crate::json::{self, obj, Value};
use crate::run::{end_to_end, Outcome};
use crate::stats::{median, Summary};

/// Result-file schema tag.
pub const SCHEMA: &str = "phc-benchmark/1";

/// End-to-end metrics: name, unit, which direction is better.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("throughput_mops", "Mops/s", "higher"),
    ("batch_p50_us", "us", "lower"),
    ("batch_p99_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: name, unit, which direction is better. A layer
/// that is not on a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("server.self_ns_per_op", "ns", "lower"),
    ("server.route_ns_per_op", "ns", "lower"),
    ("server.shard_imbalance", "ratio", "lower"),
    ("server.get_hit_ratio", "ratio", "higher"),
    ("server.batches", "count", "lower"),
    ("server.ops_routed", "count", "lower"),
    ("rooms.self_ns_per_op", "ns", "lower"),
    ("rooms.switches_per_batch", "count", "lower"),
    ("rooms.switch_ns_per_op", "ns", "lower"),
    ("rooms.waits", "count", "lower"),
    ("fc.wrapper_self_ns_per_op", "ns", "lower"),
    ("fc.repair_scans", "count", "lower"),
    ("fc.spec_checks", "count", "lower"),
    ("fc.helps", "count", "lower"),
    ("resize.self_ns_per_op", "ns", "lower"),
    ("resize.growth_tax_x", "x", "lower"),
    ("resize.stall_p999_us", "us", "lower"),
    ("resize.stall_time_share", "ratio", "lower"),
    ("resize.epochs_published", "count", "lower"),
    ("resize.shrink_epochs", "count", "lower"),
    ("resize.migration_blocks_claimed", "count", "lower"),
    ("resize.migration_helps", "count", "lower"),
    ("resize.forwarded_probes", "count", "lower"),
    ("resize.bytes_per_key", "B", "lower"),
    ("resize.peak_over_steady_rss", "ratio", "lower"),
    ("det.insert_ns_per_op", "ns", "lower"),
    ("det.find_hit_ns_per_op", "ns", "lower"),
    ("det.find_miss_ns_per_op", "ns", "lower"),
    ("det.delete_ns_per_op", "ns", "lower"),
    ("det.elements_ns_per_key", "ns", "lower"),
    ("det.insert_l75_ns_per_op", "ns", "lower"),
    ("det.find_hit_l75_ns_per_op", "ns", "lower"),
    ("det.probe_steps_per_insert", "count", "lower"),
    ("det.probe_steps_per_find", "count", "lower"),
    ("det.priority_swaps_per_insert", "count", "lower"),
    ("det.cas_fail_per_insert", "count", "lower"),
    ("fc.insert_ns_per_op", "ns", "lower"),
    ("fc.find_hit_ns_per_op", "ns", "lower"),
    ("fc.delete_ns_per_op", "ns", "lower"),
    ("robinhood.insert_ns_per_op", "ns", "lower"),
    ("robinhood.find_hit_ns_per_op", "ns", "lower"),
    ("robinhood.delete_ns_per_op", "ns", "lower"),
    ("nd.insert_ns_per_op", "ns", "lower"),
    ("nd.find_hit_ns_per_op", "ns", "lower"),
    ("nd.delete_ns_per_op", "ns", "lower"),
    ("simd.scan_le_ns_per_call.scalar", "ns", "lower"),
    ("simd.scan_le_ns_per_call.sse2", "ns", "lower"),
    ("simd.scan_le_ns_per_call.avx2", "ns", "lower"),
    ("simd.scan_for_key_ns_per_call.scalar", "ns", "lower"),
    ("simd.scan_for_key_ns_per_call.sse2", "ns", "lower"),
    ("simd.scan_for_key_ns_per_call.avx2", "ns", "lower"),
    ("simd.find_speedup_vs_scalar", "x", "higher"),
    ("simd.lanes_per_probe", "count", "lower"),
    ("simd.redispatches_per_op", "count", "lower"),
    ("simd.misspeculations", "count", "lower"),
    ("pool.width2_ratio", "ratio", "higher"),
    ("pool.jobs", "count", "lower"),
    ("pool.steals", "count", "lower"),
    ("floor.det_ns_per_op", "ns", "lower"),
    ("floor.multiple", "x", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Per-layer values in `PER_LAYER` order, filled in by name.
pub struct LayerValues(Vec<f64>);

impl Default for LayerValues {
    fn default() -> Self {
        LayerValues(vec![0.0; PER_LAYER.len()])
    }
}

impl LayerValues {
    /// Sets metric `name`; panics on a name `PER_LAYER` does not list,
    /// so the table and the code cannot drift apart.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }
    /// `(name, unit, value)` of every metric.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER.iter().zip(&self.0).map(|(m, &v)| (m.0, m.1, v))
    }
}

fn summary_value(unit: &str, s: &Summary) -> Value {
    obj(vec![
        ("unit", Value::Str(unit.into())),
        ("median", Value::Num(s.median())),
        ("min", Value::Num(s.min())),
        ("max", Value::Num(s.max())),
        ("samples", Value::Num(s.rounds.len() as f64)),
        (
            "rounds",
            Value::Arr(s.rounds.iter().map(|&x| Value::Num(x)).collect()),
        ),
    ])
}

/// Facts about a run that are not metrics.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--quick`.
    pub quick: bool,
    /// Pool width of the timed rounds.
    pub width: usize,
    /// Fingerprint of the generated inputs.
    pub input_hash: u64,
}

/// The result object of one workload (a member of `result.json`'s
/// `workloads`, and the whole of `result-<workload>.json`).
pub fn workload_value(info: &RunInfo, o: &Outcome, layers: Option<&LayerValues>) -> Value {
    let mut members = vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("workload", Value::Str(info.workload.into())),
        ("seed", Value::Num(info.seed as f64)),
        ("quick", Value::Bool(info.quick)),
        ("width", Value::Num(info.width as f64)),
        (
            "input_hash",
            Value::Str(format!("{:016x}", info.input_hash)),
        ),
        ("rounds", Value::Num(o.rounds.setup_s.len() as f64)),
        (
            "latency_samples_per_round",
            Value::Num(o.samples_per_round as f64),
        ),
        ("ops_per_round", Value::Num(o.ops_per_round as f64)),
        ("ops_attempted", Value::Num(o.attempted as f64)),
        ("ops_failed", Value::Num(o.failed as f64)),
        ("correct", Value::Bool(o.failed == 0)),
        ("rss_reset", Value::Bool(o.rss_reset)),
        (
            "harness",
            obj(vec![
                ("input_gen_s", Value::Num(median(&o.gen_s))),
                ("verify_s", Value::Num(o.verify_s)),
                (
                    "clock_factor",
                    summary_value("x", &Summary::new(o.rounds.clock_factor.clone())),
                ),
            ]),
        ),
        (
            "end_to_end",
            Value::Obj(
                end_to_end(o)
                    .iter()
                    .map(|(name, unit, s)| (name.to_string(), summary_value(unit, s)))
                    .collect(),
            ),
        ),
        (
            "notes",
            Value::Arr(o.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
    ];
    if let Some(layers) = layers {
        members.push((
            "per_layer",
            Value::Obj(
                layers
                    .iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            obj(vec![
                                ("value", Value::Num(v)),
                                ("unit", Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    obj(members)
}

/// The human-readable block of one workload.
pub fn print_workload(info: &RunInfo, o: &Outcome, layers: Option<&LayerValues>) {
    println!(
        "== {}  (seed {}, width {}, {} timed rounds of {} ops, {} latency samples each{})",
        info.workload,
        info.seed,
        info.width,
        o.rounds.setup_s.len(),
        o.ops_per_round,
        o.samples_per_round,
        if info.quick { ", quick" } else { "" }
    );
    for (name, unit, s) in end_to_end(o) {
        println!(
            "  {name:<18} {:>14.4} {unit:<7} min {:.4}  max {:.4}  n={}",
            s.median(),
            s.min(),
            s.max(),
            s.rounds.len()
        );
    }
    let clock = Summary::new(o.rounds.clock_factor.clone());
    println!(
        "  times are at the reference core clock: reported / measured = {:.4} (rounds {:.4} to {:.4})",
        clock.median(),
        clock.min(),
        clock.max()
    );
    println!(
        "  ops_attempted      {:>14}         ops_failed {}{}",
        o.attempted,
        o.failed,
        if o.rss_reset {
            ""
        } else {
            "  (peak RSS covers the whole process: reset refused)"
        }
    );
    for note in &o.notes {
        println!("  ! {note}");
    }
    if let Some(layers) = layers {
        for (name, unit, v) in layers.iter() {
            println!("  {name:<38} {v:>16.4} {unit}");
        }
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (`layers` = None) or the per-layer ones.
pub fn driver_line(o: &Outcome, layers: Option<&LayerValues>) -> String {
    let metric = |v: f64, unit: &str| {
        obj(vec![
            ("value", Value::Num(v)),
            ("unit", Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Value)> = match layers {
        Some(layers) => layers
            .iter()
            .map(|(n, u, v)| (n.to_string(), metric(v, u)))
            .collect(),
        None => end_to_end(o)
            .iter()
            .map(|(n, u, s)| (n.to_string(), metric(s.median(), u)))
            .collect(),
    };
    json::write(&obj(vec![
        ("correct", Value::Bool(o.failed == 0)),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}
