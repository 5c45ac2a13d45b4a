//! Command line of the repo benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! phc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--quick] [--self-test] [--out-dir DIR] [--obs-bin PATH]
//! phc-benchmark compare A.json B.json [--bench-json PATH]
//! ```
//!
//! With `--workload` it measures that workload in this process and
//! ends with the one-line JSON the driver reads. Without, it runs
//! itself once per workload (a fresh process each, so peak memory and
//! allocator state never leak between workloads) and merges the
//! results into `<out-dir>/result.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use phc_benchmark::json::{self, obj, Value};
use phc_benchmark::report::{self, RunInfo};
use phc_benchmark::run::{self, Plan};
use phc_benchmark::trace::Tracer;
use phc_benchmark::workloads::{self, WORKLOADS};
use phc_benchmark::{clock, compare, layers};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_test: bool,
    out_dir: PathBuf,
    obs_bin: Option<PathBuf>,
    bench_json: PathBuf,
    obs_child: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--self-test]\n       run.sh compare A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
        quick: false,
        self_test: false,
        out_dir: PathBuf::from("benchmark/out"),
        obs_bin: None,
        bench_json: PathBuf::from("BENCHMARK.json"),
        obs_child: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out-dir" => a.out_dir = value("a directory")?.into(),
            "--obs-bin" => a.obs_bin = Some(value("a path")?.into()),
            "--bench-json" => a.bench_json = value("a path")?.into(),
            "--obs-child" => a.obs_child = Some(value("an output path")?.into()),
            "--quick" => a.quick = true,
            "--self-test" => a.self_test = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is enough.
            "--trace" => {
                a.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "compare" => {
                a.compare = Some((
                    value("two result files")?.into(),
                    value("two result files")?.into(),
                ))
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Where one workload's result object goes: the end-to-end run and
/// the traced run write separate files.
fn part_path(out_dir: &Path, trace: bool, workload: &str) -> PathBuf {
    let kind = if trace { "layers" } else { "result" };
    out_dir.join(format!("{kind}-{workload}.json"))
}

/// Seconds since `t0` at the reference core clock; generating inputs
/// is arithmetic on the core.
fn gen_seconds(t0: Instant) -> f64 {
    clock::scaled_ns(t0, Instant::now(), 1.0) as f64 / 1e9
}

/// Measures one workload in this process.
fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    // Set-up is measured several times and reported as a median: the
    // inputs are generated again after every second timed round (which
    // also shows that the generator repeats), the program-side part once
    // per round.
    let t0 = Instant::now();
    let w = workloads::build(name, a.seed, a.quick)?;
    let first_gen_s = gen_seconds(t0);
    let info = RunInfo {
        workload: w.name(),
        seed: a.seed,
        quick: a.quick,
        width: w.width(),
        input_hash: w.input_hash(),
    };
    let mut generator_repeats = true;
    let mut regen = || {
        let t0 = Instant::now();
        let again = workloads::build(name, a.seed, a.quick);
        let took = gen_seconds(t0);
        generator_repeats &= again.is_ok_and(|again| again.input_hash() == info.input_hash);
        took
    };
    let (outcome, layers) = if a.trace {
        let mut tracer = Tracer::with_capacity(1 << 20);
        let (o, v) = layers::traced(
            &w,
            a.seed,
            a.quick,
            a.obs_bin.as_deref(),
            &a.out_dir,
            &mut tracer,
        );
        write_file(
            &a.out_dir.join(format!("trace-{name}.jsonl")),
            &tracer.to_jsonl(),
        )?;
        (o, Some(v))
    } else {
        let rounds = if a.quick { (2, 2) } else { (5, 30) };
        let plan = Plan {
            seconds: a.seconds,
            min_rounds: rounds.0,
            max_rounds: rounds.1,
            self_test: a.self_test,
            keep_calls: false,
            replays: true,
            first_gen_s,
            regens: if a.quick { 0 } else { 4 },
        };
        (run::run(&w, plan, &mut regen), None)
    };
    if !generator_repeats {
        return Err(format!(
            "{name}: seed {} generated two different inputs",
            a.seed
        ));
    }
    report::print_workload(&info, &outcome, layers.as_ref());
    write_file(
        &part_path(&a.out_dir, a.trace, name),
        &(json::write(&report::workload_value(&info, &outcome, layers.as_ref())) + "\n"),
    )?;
    let ok = if a.self_test {
        let pass = outcome.failed == 2;
        println!(
            "self-test: injected 1 wrong result and 1 dropped key; {} reported as failed: {}",
            outcome.failed,
            if pass { "PASS" } else { "FAIL" }
        );
        pass
    } else {
        true
    };
    println!("{}", report::driver_line(&outcome, layers.as_ref()));
    Ok(ok)
}

/// Runs every workload, each in a child process, and merges the parts.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut parts: Vec<(String, Value)> = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        // End-to-end first, obs and tracing off; then, if asked, the traced run.
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
                .args([
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out-dir")
                .arg(&a.out_dir);
            if a.quick {
                cmd.arg("--quick");
            }
            if a.self_test && !trace {
                cmd.arg("--self-test");
            }
            if let Some(bin) = &a.obs_bin {
                cmd.arg("--obs-bin").arg(bin);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            ok &= status.success();
        }
        let mut part = read_json(&part_path(&a.out_dir, false, name))?;
        if a.trace {
            let layers = read_json(&part_path(&a.out_dir, true, name))?;
            if let (Value::Obj(members), Some(per_layer)) = (&mut part, layers.get("per_layer")) {
                members.push(("per_layer".into(), per_layer.clone()));
            }
        }
        parts.push((name.to_string(), part));
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = obj(vec![
        ("schema", Value::Str(report::SCHEMA.into())),
        ("seed", Value::Num(a.seed as f64)),
        ("quick", Value::Bool(a.quick)),
        ("seconds", Value::Num(a.seconds)),
        ("threads_available", Value::Num(threads as f64)),
        (
            "simd_tier",
            Value::Str(phc_core::simd::tier().name().into()),
        ),
        ("workloads", Value::Obj(parts)),
    ]);
    let path = a.out_dir.join("result.json");
    write_file(&path, &pretty(&doc))?;
    println!("wrote {}", path.display());
    let failed: f64 = WORKLOADS
        .iter()
        .filter_map(|(name, _)| {
            doc.path(&["workloads", name, "ops_failed"])
                .and_then(Value::num)
        })
        .sum();
    println!("ops_failed over all workloads: {failed}");
    Ok(ok)
}

/// The result document with one workload per line group: top-level
/// members and each workload's members on their own lines, so the
/// committed baselines diff readably.
fn pretty(doc: &Value) -> String {
    let mut out = String::from("{\n");
    let members = doc.obj().unwrap_or(&[]);
    for (i, (k, v)) in members.iter().enumerate() {
        let last = i + 1 == members.len();
        match (k.as_str(), v) {
            ("workloads", Value::Obj(ws)) => {
                out += "  \"workloads\": {\n";
                for (j, (name, w)) in ws.iter().enumerate() {
                    out += &format!("    {}: {{\n", json::quote(name));
                    let fields = w.obj().unwrap_or(&[]);
                    for (f, (fk, fv)) in fields.iter().enumerate() {
                        let comma = if f + 1 == fields.len() { "" } else { "," };
                        out += &format!("      {}: {}{comma}\n", json::quote(fk), json::write(fv));
                    }
                    out += if j + 1 == ws.len() {
                        "    }\n"
                    } else {
                        "    },\n"
                    };
                }
                out += "  }";
            }
            _ => out += &format!("  {}: {}", json::quote(k), json::write(v)),
        }
        out += if last { "\n" } else { ",\n" };
    }
    out + "}\n"
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    if let Some((pa, pb)) = &a.compare {
        let c = compare::compare(&read_json(pa)?, &read_json(pb)?, &read_json(&a.bench_json)?)?;
        compare::print(&c);
        return Ok(!c.regressed());
    }
    if let Some(out) = &a.obs_child {
        let name = a
            .workload
            .as_deref()
            .ok_or("--obs-child needs --workload")?;
        let w = workloads::build(name, a.seed, a.quick)?;
        layers::obs_child(&w, a.seed, a.quick, out)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        return Ok(true);
    }
    match &a.workload {
        Some(name) => run_one(&a, name),
        None => run_all(&a),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("phc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
