//! The binary end to end at `--quick` size: all six workloads, the
//! self-test, a traced run, and `compare` on what they wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

use phc_benchmark::json::{self, Value};
use phc_benchmark::report::{END_TO_END, PER_LAYER};
use phc_benchmark::workloads::WORKLOADS;

const BIN: &str = env!("CARGO_BIN_EXE_phc-benchmark");

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str], out: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out-dir")
        .arg(out)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(o: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&o.stdout);
    json::parse(stdout.lines().last().expect("some output")).expect("the last line is JSON")
}

#[test]
fn quick_run_of_all_six_workloads_is_correct_and_fast() {
    let out = out_dir("all-six");
    let t = Instant::now();
    let o = run(&["--quick", "--seed", "7"], &out);
    let took = t.elapsed().as_secs_f64();
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(
        took < 20.0,
        "a --quick run of all six workloads took {took:.1} s"
    );

    let path = out.join("result.json");
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for (name, _) in WORKLOADS {
        let w = doc
            .path(&["workloads", name])
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            w.get("ops_failed").and_then(Value::num),
            Some(0.0),
            "{name}"
        );
        assert!(w.get("ops_attempted").and_then(Value::num).unwrap() >= 1.0);
        for (metric, unit, _) in END_TO_END {
            let m = w
                .path(&["end_to_end", metric])
                .unwrap_or_else(|| panic!("{name}.{metric} missing"));
            assert_eq!(m.get("unit").and_then(Value::str), Some(unit));
            let median = m.get("median").and_then(Value::num).unwrap();
            assert!(median > 0.0, "{name}.{metric} = {median}");
            assert_eq!(
                m.get("rounds").and_then(Value::arr).unwrap().len() as f64,
                m.get("samples").and_then(Value::num).unwrap()
            );
        }
    }

    // A run compared with itself: nothing is worse, and `compare` exits 0.
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let same = Command::new(BIN)
        .args([
            "compare",
            path.to_str().unwrap(),
            path.to_str().unwrap(),
            "--bench-json",
            bench,
        ])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(table.contains("0 worse"), "{table}");
    assert_eq!(
        table
            .lines()
            .filter(|l| l.starts_with("serve_") || l.starts_with("table_"))
            .count(),
        30,
        "{table}"
    );
}

#[test]
fn driver_line_has_exactly_the_contract_keys() {
    let out = out_dir("driver-line");
    let o = run(
        &[
            "--workload",
            "serve_rmw_small_fc",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ],
        &out,
    );
    assert!(o.status.success());
    let line = last_line(&o);
    let keys: Vec<&str> = line
        .obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let metrics = line.get("metrics").and_then(Value::obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.0));
    for ((_, m), (_, unit, _)) in metrics.iter().zip(END_TO_END) {
        assert!(m.get("value").and_then(Value::num).unwrap() > 0.0);
        assert_eq!(m.get("unit").and_then(Value::str), Some(unit));
    }
}

#[test]
fn self_test_reports_exactly_the_injected_failures() {
    for (name, _) in WORKLOADS {
        let out = out_dir(&format!("self-test-{name}"));
        let o = run(&["--workload", name, "--quick", "--self-test"], &out);
        let stdout = String::from_utf8_lossy(&o.stdout);
        assert!(o.status.success(), "{name}: {stdout}");
        assert!(
            stdout.contains("2 reported as failed: PASS"),
            "{name}: {stdout}"
        );
        let line = last_line(&o);
        assert_eq!(line.get("failed").and_then(Value::num), Some(2.0), "{name}");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)), "{name}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_spans() {
    let out = out_dir("traced");
    // No counting build here, so the obs-derived metrics read 0 with a warning.
    let o = run(
        &[
            "--workload",
            "serve_rmw_small_rooms",
            "--quick",
            "--trace",
            "1",
        ],
        &out,
    );
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(o.status.success(), "{stdout}");
    assert!(stdout.contains("warning: no --obs-bin given"));
    let line = last_line(&o);
    let metrics = line.get("metrics").and_then(Value::obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, PER_LAYER.map(|m| m.0));
    let value = |name: &str| {
        line.path(&["metrics", name, "value"])
            .and_then(Value::num)
            .unwrap()
    };
    assert!(value("server.route_ns_per_op") > 0.0);
    assert!(value("det.insert_ns_per_op") > 0.0);
    assert!(value("floor.multiple") > 0.0);
    assert_eq!(
        value("fc.wrapper_self_ns_per_op"),
        0.0,
        "fc is not on a rooms workload's path"
    );

    let spans = std::fs::read_to_string(out.join("trace-serve_rmw_small_rooms.jsonl")).unwrap();
    let first = json::parse(spans.lines().next().unwrap()).unwrap();
    let keys: Vec<&str> = first
        .obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["name", "id", "parent", "batch_id", "start_ns", "end_ns", "ops"]
    );
    for name in [
        "server.apply_batch",
        "server.route",
        "rooms.shard_batch",
        "resize.shard_batch",
        "det.shard_batch",
        "simd.scan_le.avx2",
    ] {
        assert!(
            spans.contains(&format!("\"name\": \"{name}\"")),
            "no {name} span"
        );
    }
    // Every ladder span names its batch's server span as parent.
    let parent_of_child = spans
        .lines()
        .map(|l| json::parse(l).unwrap())
        .find(|s| s.get("name").and_then(Value::str) == Some("det.shard_batch"))
        .unwrap();
    assert!(parent_of_child.get("parent").and_then(Value::num).unwrap() >= 1.0);
}

#[test]
fn unknown_workload_and_missing_inputs_fail_without_a_result() {
    let out = out_dir("bad-args");
    let o = run(&["--workload", "no_such_workload"], &out);
    assert!(!o.status.success());
    assert!(o.stdout.is_empty());
}
