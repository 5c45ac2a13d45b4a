//! Regenerates the paper's evaluation (§6): Tables 1–8 and Figures
//! 3–5, one module per artifact. Runs the artifacts named on the
//! command line, in that order, or all ten in paper order.
//!
//! ```text
//! cargo run --release -p phc-bench --bin paper                      # all ten
//! cargo run --release -p phc-bench --bin paper -- table3 fig5 --n 20000
//! cargo run --release -p phc-bench --bin paper -- table1 --fig3     # the Fig. 3 subset
//! ```
//!
//! Flags (defaults are per artifact; the env var after each is read
//! when the flag is absent):
//!
//! * `--n`, `PHC_N`: keys, points or text bytes (Tables 1–5, Fig. 4);
//! * `--scale`, `PHC_SCALE`: graph size (Tables 6–8);
//! * `--threads`, `PHC_THREADS`: the "(P)" width, or Fig. 4's largest;
//! * `--queries`, `PHC_QUERIES`: searches (Table 5);
//! * `--log2`, `PHC_LOG2` and `--ops`, `PHC_OPS`: Fig. 5's table and
//!   timed ops per load;
//! * `--fig3`: Table 1's Figure 3 subset;
//! * `--json FILE`: every selected artifact's reports in one envelope.

mod fig4;
mod fig5;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;
mod table7;
mod table8;

use phc_bench::Report;

/// Runs one artifact on the command line's flags, prints its reports
/// and returns them.
type Run = fn(&[String]) -> Vec<Report>;

/// Every artifact, in paper order.
const ARTIFACTS: [(&str, Run); 10] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("table7", table7::run),
    ("table8", table8::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
];

/// The flags that take a value; `--fig3` is the one bare flag.
const VALUE_FLAGS: [&str; 7] = [
    "--n",
    "--scale",
    "--threads",
    "--queries",
    "--log2",
    "--ops",
    "--json",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut selected = Vec::new();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if arg != "--fig3" {
            match ARTIFACTS.iter().find(|(name, _)| name == arg) {
                Some(artifact) => selected.push(artifact),
                None => {
                    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
                    eprintln!(
                        "paper: unknown artifact or flag `{arg}`\n\
                         artifacts: {}\nflags: {} FILE, --fig3",
                        names.join(" "),
                        VALUE_FLAGS.join(" N, ")
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    if selected.is_empty() {
        selected = ARTIFACTS.iter().collect();
    }

    let reports: Vec<Report> = selected.iter().flat_map(|(_, run)| run(&args)).collect();

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            phc_bench::report::write_json(path, &reports).expect("write json");
            eprintln!("wrote {path}");
        }
    }
}
