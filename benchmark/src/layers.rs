//! The traced run: where a workload's nanoseconds go, layer by layer.
//!
//! A traced run measures, in one session: a few reference rounds (obs
//! off, as in the end-to-end run), the layer ladder, the same rounds at
//! the other pool width, the flat-core and SIMD rows, and — from the
//! separate `--features obs` build, run as a child process — the obs
//! counters of one round plus its throughput, which gives the cost of
//! turning `obs` on. Counters are read from
//! `MetricsSnapshot::to_json()` by name.

use std::path::Path;
use std::process::Command;

use phc_core::{DetHashTable, U64Key};

use crate::gen::distinct_keys;
use crate::json::{self, Value};
use crate::micro::{self, MicroPlan};
use crate::report::LayerValues;
use crate::run::{self, at_width, Outcome, Plan};
use crate::stats::{median, percentile_sorted};
use crate::trace::{self, Tracer};
use crate::workloads::{Mode, Workload};

/// Sizes of a traced run.
#[derive(Clone, Copy)]
pub struct TracePlan {
    /// Reference rounds (and obs-on rounds in the child).
    pub rounds: usize,
    /// Rounds at the other pool width.
    pub other_width_rounds: usize,
    /// Most ladder repetitions.
    pub ladder_reps: usize,
    /// The ladder starts another repetition only within this many
    /// seconds.
    pub ladder_budget_s: f64,
    /// Core-row sizes.
    pub micro: MicroPlan,
}

impl TracePlan {
    /// The full or the `--quick` plan for `seed`.
    pub fn new(seed: u64, quick: bool) -> Self {
        let micro = |log2_cells, call| MicroPlan {
            log2_cells,
            call,
            seed,
        };
        if quick {
            TracePlan {
                rounds: 1,
                other_width_rounds: 1,
                ladder_reps: 1,
                ladder_budget_s: 0.0,
                micro: micro(19, 1 << 12),
            }
        } else {
            TracePlan {
                rounds: 3,
                other_width_rounds: 2,
                ladder_reps: 3,
                ladder_budget_s: 3.5,
                micro: micro(23, 1 << 14),
            }
        }
    }
}

fn reference_plan(rounds: usize) -> Plan {
    Plan {
        seconds: 0.0,
        min_rounds: rounds,
        max_rounds: rounds,
        self_test: false,
        keep_calls: true,
        replays: false,
        first_gen_s: 0.0,
        regens: 0,
    }
}

/// Runs the traced measurement of `w`. `obs_bin` is the counting
/// build; without it every obs-derived metric reads 0 (with a warning).
pub fn traced(
    w: &Workload,
    seed: u64,
    quick: bool,
    obs_bin: Option<&Path>,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> (Outcome, LayerValues) {
    let plan = TracePlan::new(seed, quick);
    let mut v = LayerValues::default();

    let reference = run::run(w, reference_plan(plan.rounds), &mut || 0.0);
    let thr = median(&reference.rounds.throughput_mops);
    let mut pooled = reference.rounds.pooled_calls_ns.clone();
    pooled.sort_unstable();
    v.set(
        "resize.stall_p999_us",
        percentile_sorted(&pooled, 0.999) as f64 / 1e3,
    );
    v.set(
        "resize.stall_time_share",
        median(&reference.rounds.stall_share),
    );

    if let Workload::Server(s) = w {
        let l = at_width(1, || {
            trace::ladder(s, plan.ladder_reps, plan.ladder_budget_s, tracer)
        });
        v.set("server.self_ns_per_op", l.server_ns - l.wrapper_ns);
        v.set("server.route_ns_per_op", l.route_ns);
        v.set("server.shard_imbalance", l.shard_imbalance);
        v.set("server.get_hit_ratio", l.get_hit_ratio);
        let wrapper_self = match s.mode {
            Mode::Rooms => "rooms.self_ns_per_op",
            Mode::Fc => "fc.wrapper_self_ns_per_op",
        };
        v.set(wrapper_self, l.wrapper_ns - l.resizable_ns);
        v.set("resize.self_ns_per_op", l.resizable_ns - l.flat_ns);
        v.set("resize.growth_tax_x", l.growth_tax_x);
        v.set("resize.bytes_per_key", l.bytes_per_key);
        v.set("resize.peak_over_steady_rss", l.peak_over_steady_rss);
    }

    let other = if w.width() == 1 { 2 } else { 1 };
    let other_thr = median(&run::plain_rounds(
        w,
        other,
        plan.other_width_rounds,
        |_, _| {},
    ));
    v.set(
        "pool.width2_ratio",
        if other == 2 {
            other_thr / thr
        } else {
            thr / other_thr
        },
    );

    at_width(1, || {
        let det = micro::det_rows(plan.micro, tracer);
        v.set("det.insert_ns_per_op", det.insert);
        v.set("det.find_hit_ns_per_op", det.find_hit);
        v.set("det.find_miss_ns_per_op", det.find_miss);
        v.set("det.delete_ns_per_op", det.delete);
        v.set("det.elements_ns_per_key", det.elements);
        v.set("det.insert_l75_ns_per_op", det.insert_l75);
        v.set("det.find_hit_l75_ns_per_op", det.find_hit_l75);
        v.set(
            "simd.find_speedup_vs_scalar",
            det.find_hit_l75_scalar / det.find_hit_l75,
        );
        let floor = (det.insert + det.find_hit) / 2.0;
        v.set("floor.det_ns_per_op", floor);
        v.set("floor.multiple", 1e3 / thr / floor);
        for (core, rows) in ["fc", "robinhood", "nd"]
            .iter()
            .zip(micro::guard_rows(plan.micro, tracer))
        {
            v.set(&format!("{core}.insert_ns_per_op"), rows.insert);
            v.set(&format!("{core}.find_hit_ns_per_op"), rows.find_hit);
            v.set(&format!("{core}.delete_ns_per_op"), rows.delete);
        }
        let simd = micro::simd_rows(seed, tracer);
        for (i, tier) in ["scalar", "sse2", "avx2"].iter().enumerate() {
            v.set(&format!("simd.scan_le_ns_per_call.{tier}"), simd.scan_le[i]);
            v.set(
                &format!("simd.scan_for_key_ns_per_call.{tier}"),
                simd.scan_for_key[i],
            );
        }
    });

    match obs_bin {
        Some(bin) => match obs_counts(bin, w.name(), seed, quick, out_dir) {
            Ok(doc) => fill_counts(&mut v, &doc, thr),
            Err(e) => println!("warning: no obs counters ({e}); count metrics read 0"),
        },
        None => println!("warning: no --obs-bin given; count metrics read 0"),
    }
    (reference, v)
}

/// Runs the counting build as a child and parses what it wrote.
fn obs_counts(
    bin: &Path,
    workload: &str,
    seed: u64,
    quick: bool,
    out_dir: &Path,
) -> Result<Value, String> {
    let out = out_dir.join(format!("obs-{workload}.json"));
    let mut cmd = Command::new(bin);
    cmd.arg("--obs-child")
        .arg(&out)
        .args(["--workload", workload, "--seed", &seed.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", bin.display()));
    }
    let text =
        std::fs::read_to_string(&out).map_err(|e| format!("cannot read {}: {e}", out.display()))?;
    json::parse(&text)
}

/// Counter `name` of snapshot `section`, by its JSON name.
fn counter(doc: &Value, section: &str, name: &str) -> f64 {
    match doc.path(&[section, "counters", name]).and_then(Value::num) {
        Some(x) => x,
        None => {
            println!(
                "warning: obs counter {name:?} is missing from the {section} snapshot; reads 0"
            );
            0.0
        }
    }
}

fn fill_counts(v: &mut LayerValues, doc: &Value, thr_obs_off: f64) {
    let num = |k: &str| doc.get(k).and_then(Value::num).unwrap_or(0.0);
    let round = |name: &str| counter(doc, "round", name);
    let (ops, batches) = (num("round_ops").max(1.0), num("round_batches").max(1.0));
    v.set("server.batches", round("server_batches"));
    v.set("server.ops_routed", round("server_ops_routed"));
    v.set("rooms.switches_per_batch", round("room_switches") / batches);
    v.set("rooms.switch_ns_per_op", round("room_switch_nanos") / ops);
    v.set("rooms.waits", round("room_waits"));
    v.set("fc.repair_scans", round("fc_repair_scans"));
    v.set("fc.spec_checks", round("fc_spec_checks"));
    v.set("fc.helps", round("fc_helps"));
    v.set("resize.epochs_published", round("epochs_published"));
    v.set("resize.shrink_epochs", round("shrink_epochs"));
    v.set(
        "resize.migration_blocks_claimed",
        round("migration_blocks_claimed"),
    );
    v.set("resize.migration_helps", round("migration_helps"));
    v.set("resize.forwarded_probes", round("forwarded_probes"));
    let probes: f64 = doc
        .path(&["round", "histograms", "simd_lanes_per_probe"])
        .and_then(Value::nums)
        .map_or(0.0, |b| b.iter().sum());
    // Not every probe path samples the histogram (fc's does not); with
    // no samples there is no per-probe figure.
    let lanes = if probes > 0.0 {
        round("simd_lanes_scanned") / probes
    } else {
        0.0
    };
    v.set("simd.lanes_per_probe", lanes);
    v.set("simd.redispatches_per_op", round("simd_redispatches") / ops);
    v.set("simd.misspeculations", round("simd_misspeculations"));
    v.set("pool.jobs", round("sched_jobs"));
    v.set("pool.steals", round("sched_steals"));
    let det_ops = num("det_ops").max(1.0);
    v.set(
        "det.probe_steps_per_insert",
        counter(doc, "det_insert", "probe_steps") / det_ops,
    );
    v.set(
        "det.priority_swaps_per_insert",
        counter(doc, "det_insert", "priority_swap") / det_ops,
    );
    v.set(
        "det.cas_fail_per_insert",
        counter(doc, "det_insert", "insert_cas_fail") / det_ops,
    );
    v.set(
        "det.probe_steps_per_find",
        counter(doc, "det_find", "find_probe_steps") / det_ops,
    );
    let thr_on = doc
        .get("throughput_mops")
        .and_then(Value::nums)
        .map_or(0.0, |t| median(&t));
    v.set("trace.overhead_pct", (thr_obs_off / thr_on - 1.0) * 100.0);
}

/// The body of the counting build's child run: two rounds with an obs
/// snapshot on either side (the counts of the first are reported; at
/// width 1 they are the same every round),
/// then a det insert pass and find-hit pass at load 1/2 with their own
/// snapshots. Writes one JSON document to `out`.
pub fn obs_child(w: &Workload, seed: u64, quick: bool, out: &Path) -> std::io::Result<()> {
    let plan = TracePlan::new(seed, quick);
    let snapshot = || phc_obs::Recorder::global().snapshot();
    let mut before = snapshot();
    let mut round_counts = String::from("{}");
    let throughput = run::plain_rounds(w, w.width(), plan.rounds.min(2), |r, done| {
        if !done {
            before = snapshot();
        } else if r == 0 {
            round_counts = snapshot().since(&before).to_json();
        }
    });
    let (ops, batches) = (w.ops_per_round(), w.calls_per_round());
    let keys = distinct_keys(plan.micro.half_load(), seed, 2);
    let (det_insert, det_find) = at_width(1, || {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(plan.micro.log2_cells);
        let s0 = snapshot();
        for c in keys.chunks(plan.micro.call) {
            t.par_insert_batched(c);
        }
        let s1 = snapshot();
        for c in keys.chunks(plan.micro.call) {
            std::hint::black_box(t.par_find_batched(c));
        }
        (s1.since(&s0).to_json(), snapshot().since(&s1).to_json())
    });
    let thr: Vec<String> = throughput.iter().map(|&x| json::num(x)).collect();
    std::fs::write(
        out,
        format!(
            "{{\"obs_enabled\": {}, \"round_ops\": {ops}, \"round_batches\": {batches}, \"det_ops\": {}, \"throughput_mops\": [{}],\n\"round\": {round_counts},\n\"det_insert\": {det_insert},\n\"det_find\": {det_find}}}\n",
            cfg!(feature = "obs"),
            keys.len(),
            thr.join(", ")
        ),
    )
}
