//! `compare A.json B.json`: one verdict per (workload, end-to-end
//! metric), B judged against A with the bounds fixed in
//! `BENCHMARK.json`, from the per-round values both files carry.
//!
//! With `shift` = how far B's median is on the *worse* side of A's, as
//! a share of A's median, and `bound` the metric's bound:
//!
//! | medians | rounds | verdict |
//! |---|---|---|
//! | `shift > bound` | ranges overlap by at most `bound` | `worse` |
//! | `shift < -bound` | ranges overlap by at most `bound` | `better` |
//! | beyond the bound either way | min–max ranges overlap by more | `unresolved` |
//! | within the bound | both sides' quartile spread within `bound` | `within` |
//! | within the bound | spread wider, but every B round better than every A round | `better` |
//! | within the bound | spread wider, otherwise | `unresolved` |
//!
//! Overlap and spread are shares of A's median too. A metric with one
//! value per run (`peak_rss_mb`) has zero-width ranges, so it is never
//! `unresolved`.

use crate::json::Value;
use crate::stats::{median, quartiles};

/// The outcome for one metric on one workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B is better than A by more than the bound, and the rounds agree.
    Better,
    /// B is worse than A by more than the bound, and the rounds agree.
    Worse,
    /// The medians are within the bound and the rounds are steady
    /// enough to say so.
    Within,
    /// The rounds are too spread out to support a verdict.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's rounds against A's for a metric where `higher_is_better`
/// or not, with `bound` as a share of A's median.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    // Work in "cost" space, where larger is worse.
    let cost = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|&x| if higher_is_better { -x } else { x })
            .collect()
    };
    let (a, b) = (cost(a), cost(b));
    let scale = median(&a).abs().max(f64::MIN_POSITIVE);
    let shift = (median(&b) - median(&a)) / scale;
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(&a), range(&b));
    let overlap = (a_hi.min(b_hi) - a_lo.max(b_lo)).max(0.0) / scale;
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            0.0
        } else {
            let (q1, q3) = quartiles(v);
            (q3 - q1) / scale
        }
    };
    if shift.abs() > bound {
        return match (overlap > bound, shift > 0.0) {
            (true, _) => Verdict::Unresolved,
            (false, true) => Verdict::Worse,
            (false, false) => Verdict::Better,
        };
    }
    if spread(&a) <= bound && spread(&b) <= bound {
        Verdict::Within
    } else if b_hi < a_lo {
        Verdict::Better
    } else {
        Verdict::Unresolved
    }
}

/// One row of the comparison.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's median.
    pub a: f64,
    /// B's median.
    pub b: f64,
    /// B's median relative to A's, signed as measured (not as cost).
    pub change: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
pub struct Comparison {
    /// One row per (workload, metric) present in both files.
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B.
    pub more_failures: Vec<String>,
    /// Workloads or metrics present on one side only.
    pub missing: Vec<String>,
}

impl Comparison {
    /// Whether `compare` must exit non-zero.
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }
}

/// The `workloads` object of a full result file, or a single-workload
/// file wrapped as one.
fn workloads(doc: &Value) -> Vec<(String, &Value)> {
    match doc.get("workloads").and_then(Value::obj) {
        Some(members) => members.iter().map(|(k, v)| (k.clone(), v)).collect(),
        None => doc
            .get("workload")
            .and_then(Value::str)
            .map(|name| vec![(name.to_string(), doc)])
            .unwrap_or_default(),
    }
}

fn failed_share(w: &Value) -> f64 {
    let get = |k| w.get(k).and_then(Value::num).unwrap_or(0.0);
    get("ops_failed") / get("ops_attempted").max(1.0)
}

/// Compares result documents `a` and `b` under the bounds of the
/// parsed `BENCHMARK.json`.
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Comparison, String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
        missing: Vec::new(),
    };
    let (a_workloads, b_workloads) = (workloads(a), workloads(b));
    for (name, wa) in &a_workloads {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            out.missing.push(format!("{name}: only in A"));
            continue;
        };
        if failed_share(wb) > failed_share(wa) {
            out.more_failures.push(name.clone());
        }
        for m in metrics {
            let field = |k| {
                m.get(k)
                    .and_then(Value::str)
                    .ok_or("end_to_end entry lacks a string field")
            };
            let (metric, better) = (field("name")?, field("better")?);
            let bound = m
                .get("bound")
                .and_then(Value::num)
                .ok_or("end_to_end entry lacks a bound")?;
            let rounds = |w: &Value| {
                w.path(&["end_to_end", metric, "rounds"])
                    .and_then(Value::nums)
            };
            let (Some(ra), Some(rb)) = (rounds(wa), rounds(wb)) else {
                out.missing
                    .push(format!("{name}.{metric}: not in both files"));
                continue;
            };
            let (ma, mb) = (median(&ra), median(&rb));
            out.rows.push(Row {
                workload: name.clone(),
                metric: metric.to_string(),
                a: ma,
                b: mb,
                change: (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                bound,
                verdict: verdict(&ra, &rb, better == "higher", bound),
            });
        }
    }
    for (name, _) in &b_workloads {
        if !a_workloads.iter().any(|(n, _)| n == name) {
            out.missing.push(format!("{name}: only in B"));
        }
    }
    Ok(out)
}

/// Prints the comparison as a table.
pub fn print(c: &Comparison) {
    println!(
        "{:<24} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for r in &c.rows {
        println!(
            "{:<24} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    for w in &c.more_failures {
        println!("{w}: B fails a larger share of its ops than A");
    }
    for m in &c.missing {
        println!("{m}");
    }
    let count = |v| c.rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} worse, {} within, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Within),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdict_table() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up20 = [120.0, 121.0, 119.0, 120.5, 119.5];
        let up3 = [103.0, 104.0, 102.0, 103.5, 102.5];
        let noisy = [80.0, 125.0, 100.0, 70.0, 130.0];
        let noisy_up = [100.0, 150.0, 125.0, 95.0, 155.0];
        // Lower is better (a latency), bound 10%.
        assert_eq!(verdict(&steady, &up20, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&up20, &steady, false, 0.10), Verdict::Better);
        assert_eq!(verdict(&steady, &up3, false, 0.10), Verdict::Within);
        assert_eq!(verdict(&steady, &steady, false, 0.10), Verdict::Within);
        // Medians 25% apart, but the rounds overlap by far more than the bound.
        assert_eq!(verdict(&noisy, &noisy_up, false, 0.10), Verdict::Unresolved);
        // Medians equal, spread wider than the bound: not "unchanged".
        assert_eq!(verdict(&noisy, &noisy, false, 0.10), Verdict::Unresolved);
        // Too spread out to call unchanged, yet every B round beats every A round.
        assert_eq!(
            verdict(
                &[100.0, 112.0, 101.0, 113.0, 106.0],
                &[99.0, 98.0, 96.0, 99.5, 97.0],
                false,
                0.10
            ),
            Verdict::Better
        );
        // Steady rounds within the bound are "within", even if all of B is a hair lower.
        assert_eq!(
            verdict(&up3, &[100.0, 100.5, 99.5, 100.2, 99.8], false, 0.10),
            Verdict::Within
        );
        // Higher is better (a throughput): the same data flips.
        assert_eq!(verdict(&steady, &up20, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&up20, &steady, true, 0.10), Verdict::Worse);
        // One value per run never goes unresolved.
        assert_eq!(verdict(&[200.0], &[204.0], false, 0.05), Verdict::Within);
        assert_eq!(verdict(&[200.0], &[220.0], false, 0.05), Verdict::Worse);
    }

    fn doc(thr: &[f64], failed: u64) -> Value {
        let rounds: Vec<String> = thr.iter().map(|x| x.to_string()).collect();
        parse(&format!(
            r#"{{"workloads": {{"w": {{"ops_attempted": 1000, "ops_failed": {failed},
                 "end_to_end": {{"throughput_mops": {{"rounds": [{}]}}}}}}}}}}"#,
            rounds.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_bounds_and_flags_regressions() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "throughput_mops", "unit": "Mops/s", "better": "higher", "bound": 0.07},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let a = doc(&[50.0, 50.5, 49.5], 0);
        let same = compare(&a, &doc(&[50.2, 50.6, 49.9], 0), &bench).unwrap();
        assert_eq!(same.rows.len(), 1, "setup_s is in neither file");
        assert_eq!(same.rows[0].verdict, Verdict::Within);
        assert_eq!(same.missing.len(), 1);
        assert!(!same.regressed());
        let slower = compare(&a, &doc(&[40.0, 40.5, 39.5], 0), &bench).unwrap();
        assert_eq!(slower.rows[0].verdict, Verdict::Worse);
        assert!(slower.regressed());
        let failing = compare(&a, &doc(&[50.0, 50.5, 49.5], 3), &bench).unwrap();
        assert_eq!(failing.more_failures, ["w"]);
        assert!(failing.regressed());
    }
}
