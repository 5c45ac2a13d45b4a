//! `BENCHMARK.json` and the code must name the same workloads and
//! metrics, and the file must stay inside the driver's limits.

use phc_benchmark::json::{self, Value};
use phc_benchmark::report::{END_TO_END, PER_LAYER};
use phc_benchmark::workloads::WORKLOADS;

fn bench() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::str)
        .unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

fn well_formed_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn workloads_match_the_code() {
    let b = bench();
    let listed = b.get("workloads").and_then(Value::arr).unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, (name, why)) in listed.iter().zip(WORKLOADS) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "why"), why);
        assert!(well_formed_name(name));
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "{name}: why is {} chars",
            why.chars().count()
        );
        assert_eq!(entry.obj().unwrap().len(), 2);
    }
}

#[test]
fn end_to_end_metrics_match_the_code_and_have_bounds() {
    let b = bench();
    let listed = b.get("end_to_end").and_then(Value::arr).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, (name, unit, better)) in listed.iter().zip(END_TO_END) {
        assert_eq!(
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better")
            ),
            (name, unit, better)
        );
        let bound = entry.get("bound").and_then(Value::num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        assert!(well_formed_name(name) && well_formed_unit(unit));
        assert_eq!(entry.obj().unwrap().len(), 4);
    }
    let setup = listed
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
    let largest = listed
        .iter()
        .filter_map(|e| e.get("bound").and_then(Value::num))
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Value::num),
        Some(largest),
        "setup_s takes the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_code() {
    let b = bench();
    let listed = b.get("per_layer").and_then(Value::arr).unwrap();
    assert!(listed.len() <= 128);
    assert_eq!(listed.len(), PER_LAYER.len());
    let mut seen = std::collections::BTreeSet::new();
    for (entry, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
        assert_eq!(
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better")
            ),
            (name, unit, better)
        );
        assert!(
            well_formed_name(name) && well_formed_unit(unit),
            "{name} [{unit}]"
        );
        assert!(better == "lower" || better == "higher");
        assert!(seen.insert(name), "{name} listed twice");
        assert_eq!(entry.obj().unwrap().len(), 3);
    }
    for (name, ..) in END_TO_END {
        assert!(seen.insert(name), "{name} is both end-to-end and per-layer");
    }
}

#[test]
fn command_paths_and_run_length_are_inside_the_limits() {
    let b = bench();
    let keys: Vec<&str> = b.obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = b
        .get("command")
        .and_then(Value::arr)
        .unwrap()
        .iter()
        .map(|c| c.str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = b
        .get("paths")
        .and_then(Value::arr)
        .unwrap()
        .iter()
        .map(|c| c.str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = b.get("run_seconds").and_then(Value::num).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}
