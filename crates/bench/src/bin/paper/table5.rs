//! **Table 5**: suffix tree construction (the hash-table insert phase)
//! and search, on three synthetic corpora standing in for `etext99` /
//! `retail96` / `sprot34.dat` (see DESIGN.md §4).

use phc_bench::{app_tables, arg_or_env, default_threads, time_in_pool, time_once, Grid, Report};
use phc_core::entry::{KeepMin, KvPair};
use phc_core::phase::PhaseHashTable;
use phc_core::DetHashTable;
use phc_parutil::IndexRng;
use phc_strings::SuffixTree;
use rayon::prelude::*;

/// Half random substrings of the text (hits), half random strings
/// (mostly misses), lengths 1..=50 (paper setup).
fn queries(text: &[u8], n_queries: usize) -> Vec<Vec<u8>> {
    let rng = IndexRng::new(77);
    (0..n_queries)
        .map(|q| {
            let q = q as u64;
            let len = 1 + (rng.gen(q * 3) % 50) as usize;
            if q.is_multiple_of(2) {
                let len = len.min(text.len() - 1);
                let start = (rng.gen(q * 3 + 1) % (text.len() - len) as u64) as usize;
                text[start..start + len].to_vec()
            } else {
                (0..len)
                    .map(|j| (rng.gen(q * 100 + j as u64) % 26) as u8 + b'a')
                    .collect()
            }
        })
        .collect()
}

type Kv = KvPair<KeepMin>;

/// Times (a) the parallel insert of the skeleton's edges into a table
/// of twice as many cells and (b) the searches, for one table type at
/// width `threads`.
fn time_width<T: PhaseHashTable<Kv>>(
    make: impl FnOnce(u32) -> T,
    skeleton: &SuffixTree<'_, DetHashTable<Kv>>,
    queries: &[Vec<u8>],
    threads: usize,
) -> (f64, f64) {
    let (text, edges) = (skeleton.text, skeleton.edges());
    let log2 = (2 * edges.len().max(2))
        .next_power_of_two()
        .trailing_zeros();
    let mut table = make(log2);
    let (t_insert, ()) = time_in_pool(threads, || SuffixTree::insert_edges(&mut table, edges));
    let (t_search, hits) = time_in_pool(threads, || {
        let reader = table.begin_read();
        queries
            .par_iter()
            .with_min_len(64)
            .filter(|pat| {
                SuffixTree::<T>::search_with(text, &skeleton.nodes, &reader, pat).is_some()
            })
            .count()
    });
    assert!(
        hits >= queries.len() / 2,
        "every even query is a real substring"
    );
    (t_insert, t_search)
}

pub fn run(args: &[String]) -> Vec<Report> {
    let n = arg_or_env(args, "--n", "PHC_N", 200_000); // text bytes
    let q = arg_or_env(args, "--queries", "PHC_QUERIES", 20_000);
    let threads = arg_or_env(args, "--threads", "PHC_THREADS", default_threads());
    println!("# Table 5 reproduction: suffix tree, {n}-byte texts, {q} searches, P = {threads}");
    println!("# texts are synthetic stand-ins: english-like / retail-like / protein-like\n");

    let texts = [
        ("english", phc_workloads::text::english_like(n, 1)),
        ("retail", phc_workloads::text::retail_like(n, 2)),
        ("protein", phc_workloads::text::protein_like(n, 3)),
    ];
    let (mut insert, mut search) = (Grid::default(), Grid::default());
    for (name, text) in &texts {
        eprintln!("building skeleton for {name} ...");
        let (t_skel, st) = time_once(|| SuffixTree::build(text, DetHashTable::new_pow2));
        eprintln!("  {} nodes, skeleton {:.2}s", st.num_nodes(), t_skel);
        let queries = queries(text, q);
        app_tables!(Kv, |label, make| {
            let (i1, s1) = time_width(make, &st, &queries, 1);
            let (ip, sp) = time_width(make, &st, &queries, threads);
            insert.add(label, i1, Some(ip));
            search.add(label, s1, Some(sp));
        });
    }

    let inputs = ["english", "retail", "protein"];
    let reports = vec![
        insert.report("Table 5(a): Suffix Tree Insert", &inputs),
        search.report("Table 5(b): Suffix Tree Search", &inputs),
    ];
    for report in &reports {
        report.print();
    }
    reports
}
