//! The Table 1 operation runner: times insert / find / delete /
//! elements phases for any phase-concurrent table and entry type.

use phc_core::entry::HashEntry;
use phc_core::phase::{ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable};
use phc_core::serial::{SerialHashHD, SerialHashHI};
use rayon::prelude::*;

use crate::datasets::Dataset;
use crate::time_in_pool;

/// Seconds for each of the paper's six measured operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpResults {
    /// Insert `n` entries into an empty table.
    pub insert: f64,
    /// Find an independent random sample (after inserting `n`).
    pub find_random: f64,
    /// Find the inserted keys themselves.
    pub find_inserted: f64,
    /// Delete a random sample.
    pub delete_random: f64,
    /// Delete the inserted keys.
    pub delete_inserted: f64,
    /// Pack the contents into an array.
    pub elements: f64,
}

impl OpResults {
    /// The value for a named operation (harness plumbing).
    pub fn get(&self, op: &str) -> f64 {
        match op {
            "insert" => self.insert,
            "find_random" => self.find_random,
            "find_inserted" => self.find_inserted,
            "delete_random" => self.delete_random,
            "delete_inserted" => self.delete_inserted,
            "elements" => self.elements,
            _ => panic!("unknown op {op}"),
        }
    }
}

/// Canonical operation names, in the paper's Table 1 order.
pub const OP_NAMES: [&str; 6] = [
    "insert",
    "find_random",
    "find_inserted",
    "delete_random",
    "delete_inserted",
    "elements",
];

/// Runs the six operations for one concurrent table type with
/// `threads` workers. `make(log2)` builds a fresh table.
pub fn run_ops<E, T>(
    make: impl Fn(u32) -> T + Sync,
    log2: u32,
    data: &Dataset<E>,
    threads: usize,
) -> OpResults
where
    E: HashEntry,
    T: PhaseHashTable<E>,
{
    let mut out = OpResults::default();
    let fill = |table: &mut T| {
        let ins = table.begin_insert();
        data.inserted
            .par_iter()
            .with_min_len(256)
            .for_each(|&e| ins.insert(e));
    };

    // Insert.
    let mut table = make(log2);
    out.insert = time_in_pool(threads, || {
        fill(&mut table);
    })
    .0;

    // Find random / inserted (table already filled).
    out.find_random = time_in_pool(threads, || {
        let reader = table.begin_read();
        data.random.par_iter().with_min_len(256).for_each(|&e| {
            std::hint::black_box(reader.find(e));
        });
    })
    .0;
    out.find_inserted = time_in_pool(threads, || {
        let reader = table.begin_read();
        data.inserted.par_iter().with_min_len(256).for_each(|&e| {
            std::hint::black_box(reader.find(e));
        });
    })
    .0;

    // Elements.
    out.elements = time_in_pool(threads, || {
        std::hint::black_box(table.elements().len());
    })
    .0;

    // Delete random.
    out.delete_random = time_in_pool(threads, || {
        let del = table.begin_delete();
        data.random
            .par_iter()
            .with_min_len(256)
            .for_each(|&e| del.delete(e));
    })
    .0;

    // Delete inserted (refill first, untimed).
    let mut table = make(log2);
    phc_parutil::run_with_threads(threads, || fill(&mut table));
    out.delete_inserted = time_in_pool(threads, || {
        let del = table.begin_delete();
        data.inserted
            .par_iter()
            .with_min_len(256)
            .for_each(|&e| del.delete(e));
    })
    .0;

    out
}

/// Runs the six operations for the serial baselines.
pub fn run_serial_ops<E: HashEntry>(
    history_independent: bool,
    log2: u32,
    data: &Dataset<E>,
) -> OpResults {
    if history_independent {
        run_serial_impl(
            data,
            || SerialHashHI::<E>::new_pow2(log2),
            SerialOps {
                insert: SerialHashHI::insert,
                find: |t, e| {
                    std::hint::black_box(t.find(e));
                },
                delete: SerialHashHI::delete,
                elements: |t| t.elements().len(),
            },
        )
    } else {
        run_serial_impl(
            data,
            || SerialHashHD::<E>::new_pow2(log2),
            SerialOps {
                insert: SerialHashHD::insert,
                find: |t, e| {
                    std::hint::black_box(t.find(e));
                },
                delete: SerialHashHD::delete,
                elements: |t| t.elements().len(),
            },
        )
    }
}

struct SerialOps<T, E> {
    insert: fn(&mut T, E),
    find: fn(&T, E),
    delete: fn(&mut T, E),
    elements: fn(&T) -> usize,
}

fn run_serial_impl<E: HashEntry, T>(
    data: &Dataset<E>,
    make: impl Fn() -> T,
    ops: SerialOps<T, E>,
) -> OpResults {
    let mut out = OpResults::default();
    let mut table = make();
    out.insert = crate::time_once(|| {
        for &e in &data.inserted {
            (ops.insert)(&mut table, e);
        }
    })
    .0;
    out.find_random = crate::time_once(|| {
        for &e in &data.random {
            (ops.find)(&table, e);
        }
    })
    .0;
    out.find_inserted = crate::time_once(|| {
        for &e in &data.inserted {
            (ops.find)(&table, e);
        }
    })
    .0;
    out.elements = crate::time_once(|| {
        std::hint::black_box((ops.elements)(&table));
    })
    .0;
    out.delete_random = crate::time_once(|| {
        for &e in &data.random {
            (ops.delete)(&mut table, e);
        }
    })
    .0;
    let mut table = make();
    for &e in &data.inserted {
        (ops.insert)(&mut table, e);
    }
    out.delete_inserted = crate::time_once(|| {
        for &e in &data.inserted {
            (ops.delete)(&mut table, e);
        }
    })
    .0;
    out
}

/// One Table 1 row: label, single-thread results, parallel results
/// (absent for the serial baselines, like the paper's `-` cells).
pub struct TableRow {
    /// Paper-style label (e.g. `linearHash-D`).
    pub name: &'static str,
    /// One-thread column.
    pub one: OpResults,
    /// P-thread column (`None` for serial tables).
    pub par: Option<OpResults>,
}

/// Runs all nine of the paper's Table 1 rows for one dataset.
pub fn run_table1_rows<E: HashEntry>(
    data: &Dataset<E>,
    log2: u32,
    par_threads: usize,
) -> Vec<TableRow> {
    use crate::roster::{cuckoo, ChainedHashTable, DetHashTable, NdHashTable};
    use phc_core::HopscotchHashTable;
    let mut rows = Vec::new();
    rows.push(TableRow {
        name: "serialHash-HI",
        one: run_serial_ops(true, log2, data),
        par: None,
    });
    rows.push(TableRow {
        name: "serialHash-HD",
        one: run_serial_ops(false, log2, data),
        par: None,
    });
    macro_rules! row {
        ($name:literal, $make:expr) => {
            rows.push(TableRow {
                name: $name,
                one: run_ops($make, log2, data, 1),
                par: Some(run_ops($make, log2, data, par_threads)),
            });
        };
    }
    row!("linearHash-D", DetHashTable::<E>::new_pow2);
    row!("linearHash-ND", NdHashTable::<E>::new_pow2);
    row!("cuckooHash", cuckoo::<E>);
    row!("chainedHash", ChainedHashTable::<E>::new_pow2);
    row!("chainedHash-CR", ChainedHashTable::<E>::new_pow2_cr);
    row!("hopscotchHash", HopscotchHashTable::<E>::new_pow2);
    row!("hopscotchHash-PC", HopscotchHashTable::<E>::new_pow2_pc);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::random_int;
    use phc_core::{DetHashTable, NdHashTable, U64Key};

    #[test]
    fn runs_all_ops_det() {
        let data = random_int(5000, 1);
        let r = run_ops(DetHashTable::<U64Key>::new_pow2, 14, &data, 2);
        for op in OP_NAMES {
            assert!(r.get(op) > 0.0, "{op}");
        }
    }

    #[test]
    fn runs_all_ops_nd() {
        let data = random_int(5000, 2);
        let r = run_ops(NdHashTable::<U64Key>::new_pow2, 14, &data, 1);
        assert!(r.insert > 0.0);
    }

    #[test]
    fn runs_serial_both() {
        let data = random_int(3000, 3);
        let hi = run_serial_ops(true, 13, &data);
        let hd = run_serial_ops(false, 13, &data);
        assert!(hi.insert > 0.0 && hd.insert > 0.0);
    }
}
