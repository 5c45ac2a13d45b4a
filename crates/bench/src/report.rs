//! Aligned-text report tables (paper-style rows) with optional JSON
//! dumps for EXPERIMENTS.md bookkeeping. JSON is emitted by hand (the
//! build environment has no serde), escaping only what report strings
//! can contain.

/// One row of a report: a label plus one value per column.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. `linearHash-D`).
    pub label: String,
    /// Values in column order; `None` renders as `-` (like the paper's
    /// serial-only cells).
    pub values: Vec<Option<f64>>,
}

/// A titled table with named columns.
#[derive(Clone, Debug)]
pub struct Report {
    /// Table title (e.g. `Table 1(a): Insert, randomSeq-int`).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Report {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([5])
            .max()
            .unwrap()
            .max(self.title.len().min(24));
        let col_w = 12usize;
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {c:>col_w$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:<label_w$}", r.label));
            for v in &r.values {
                match v {
                    Some(x) => out.push_str(&format!(" {:>col_w$}", format_time(*x))),
                    None => out.push_str(&format!(" {:>col_w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Rows whose cells arrive one input at a time: the builder behind
/// every table with a `{input}(1)` / `{input}(P)` column pair per input.
#[derive(Default)]
pub struct Grid {
    rows: Vec<Row>,
}

impl Grid {
    /// Appends a "(1)" / "(P)" pair to row `label`, adding the row after
    /// the existing ones on first use (`None` renders as `-`).
    pub fn add(&mut self, label: &str, one: f64, par: Option<f64>) {
        match self.rows.iter_mut().find(|r| r.label == label) {
            Some(row) => row.values.extend([Some(one), par]),
            None => self.rows.push(Row {
                label: label.to_string(),
                values: vec![Some(one), par],
            }),
        }
    }

    /// The report: columns `{input}(1)`, `{input}(P)` for each input in
    /// order; every row must have a pair for every input.
    pub fn report(self, title: impl Into<String>, inputs: &[&str]) -> Report {
        let mut report = Report {
            title: title.into(),
            columns: inputs
                .iter()
                .flat_map(|i| [format!("{i}(1)"), format!("{i}(P)")])
                .collect(),
            rows: Vec::new(),
        };
        for row in self.rows {
            report.push(row.label, row.values);
        }
        report
    }
}

/// Formats seconds with sensible precision across µs–minutes.
pub fn format_time(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0}")
    } else if secs >= 1.0 {
        format!("{secs:.2}")
    } else if secs >= 1e-3 {
        format!("{secs:.4}")
    } else {
        format!("{secs:.2e}")
    }
}

/// Provenance stamped into every JSON dump, so archived numbers can be
/// traced back to the commit and build flags that produced them.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// `git rev-parse HEAD` at run time (`"unknown"` outside a
    /// checkout or without a `git` binary).
    pub git_sha: String,
    /// Cargo features that change what the dump contains.
    pub features: Vec<String>,
    /// Resident set size of the process at dump time, in bytes
    /// (`None` off Linux). Dumps are written after the measured
    /// workloads, so this is effectively the run's memory footprint —
    /// the denominator for bytes-per-key claims.
    pub rss_bytes: Option<u64>,
}

/// Current resident set size in bytes, from the `VmRSS` line of
/// `/proc/self/status` (reported in kB, so no page-size assumption —
/// `/proc/self/statm` counts pages, whose size varies by kernel
/// config: 4 KiB on x86-64, commonly 16 or 64 KiB on arm64). Returns
/// `None` off Linux or if the file is unreadable; cheap enough to
/// sample per rep.
pub fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

impl RunMeta {
    /// Captures the provenance of the running binary.
    pub fn capture() -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let mut features = Vec::new();
        if cfg!(feature = "obs") {
            features.push("obs".to_string());
        }
        RunMeta {
            git_sha,
            features,
            rss_bytes: resident_bytes(),
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"git_sha\": {}, \"features\": [",
            json_string(&self.git_sha)
        );
        for (i, f) in self.features.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(f));
        }
        out.push_str("], \"rss_bytes\": ");
        match self.rss_bytes {
            Some(b) => out.push_str(&b.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Writes a set of reports as JSON to `path`, wrapped in an envelope
/// carrying [`RunMeta`] provenance and — when the `obs` feature is on —
/// the aggregated observability snapshot (counters, histograms, phase
/// timeline) at write time.
pub fn write_json(path: &str, reports: &[Report]) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    json.push_str(&format!("\"meta\": {},\n", RunMeta::capture().to_json()));
    if phc_obs::Recorder::ENABLED {
        json.push_str(&format!(
            "\"obs\": {},\n",
            phc_obs::Recorder::global().snapshot().to_json()
        ));
    } else {
        json.push_str("\"obs\": null,\n");
    }
    json.push_str(&format!("\"reports\": {}}}\n", reports_json(reports)));
    std::fs::write(path, json)
}

/// Renders the reports array (the envelope's `"reports"` value).
fn reports_json(reports: &[Report]) -> String {
    let mut json = String::from("[\n");
    for (i, rep) in reports.iter().enumerate() {
        json.push_str("  {\n");
        json.push_str(&format!("    \"title\": {},\n", json_string(&rep.title)));
        json.push_str("    \"columns\": [");
        for (j, c) in rep.columns.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&json_string(c));
        }
        json.push_str("],\n    \"rows\": [\n");
        for (j, row) in rep.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"label\": {}, \"values\": [",
                json_string(&row.label)
            ));
            for (k, v) in row.values.iter().enumerate() {
                if k > 0 {
                    json.push_str(", ");
                }
                match v {
                    Some(x) => json.push_str(&json_number(*x)),
                    None => json.push_str("null"),
                }
            }
            json.push_str("]}");
            json.push_str(if j + 1 < rep.rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("    ]\n  }");
        json.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    json.push(']');
    json
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 as a JSON number (JSON has no NaN/Infinity; report
/// timings are finite, but map the degenerate cases to null anyway).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integral floats without a dot; keep them numbers
        // but unambiguous as floats for downstream tooling.
        if s.contains('.') || s.contains('e') || s.contains('-') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut r = Report::new("Test", &["(1)", "(P)"]);
        r.push("linearHash-D", vec![Some(1.5), Some(0.25)]);
        r.push("serialHash-HI", vec![Some(2.0), None]);
        let text = r.render();
        assert!(text.contains("linearHash-D"));
        assert!(text.contains("1.50"));
        assert!(text.contains('-'));
        // All data lines have the same width.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn grid_pairs_columns_per_input() {
        let mut g = Grid::default();
        for _ in ["a", "b"] {
            g.add("serial", 1.0, None);
            g.add("linearHash-D", 2.0, Some(0.5));
        }
        let r = g.report("T", &["a", "b"]);
        assert_eq!(r.columns, ["a(1)", "a(P)", "b(1)", "b(P)"]);
        assert_eq!(r.rows[0].label, "serial");
        assert_eq!(r.rows[0].values, [Some(1.0), None, Some(1.0), None]);
        assert_eq!(
            r.rows[1].values,
            [Some(2.0), Some(0.5), Some(2.0), Some(0.5)]
        );
    }

    #[test]
    fn time_formats() {
        assert_eq!(format_time(123.4), "123");
        assert_eq!(format_time(1.234), "1.23");
        assert_eq!(format_time(0.1234), "0.1234");
        assert!(format_time(1.2e-5).contains('e'));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_rejected() {
        let mut r = Report::new("T", &["a", "b"]);
        r.push("x", vec![Some(1.0)]);
    }

    #[test]
    fn json_escaping_and_shape() {
        let mut r = Report::new("Quote \" and \\ slash", &["(1)"]);
        r.push("row\n1", vec![Some(1.5)]);
        r.push("row2", vec![None]);
        let path = std::env::temp_dir().join("phc_report_test.json");
        let path = path.to_str().unwrap();
        write_json(path, &[r]).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(text.contains("\"Quote \\\" and \\\\ slash\""), "{text}");
        assert!(text.contains("\"row\\n1\""), "{text}");
        assert!(text.contains("[1.5]"), "{text}");
        assert!(text.contains("[null]"), "{text}");
        // Envelope keys.
        assert!(text.contains("\"meta\""), "{text}");
        assert!(text.contains("\"git_sha\""), "{text}");
        assert!(text.contains("\"rss_bytes\""), "{text}");
        assert!(text.contains("\"obs\""), "{text}");
        assert!(text.contains("\"reports\""), "{text}");
    }

    #[test]
    fn run_meta_features_follow_build() {
        let meta = RunMeta::capture();
        assert!(!meta.git_sha.is_empty());
        assert_eq!(
            meta.features.contains(&"obs".to_string()),
            cfg!(feature = "obs")
        );
        if cfg!(target_os = "linux") {
            // A running test binary is resident by definition.
            assert!(meta.rss_bytes.expect("/proc/self/status readable on Linux") > 0);
        }
    }

    #[test]
    fn json_numbers() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(-0.25), "-0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
