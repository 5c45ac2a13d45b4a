//! The paper's application roster: the four tables Tables 3–8 compare,
//! named once.

use phc_core::entry::HashEntry;
pub use phc_core::{ChainedHashTable, CuckooHashTable, DetHashTable, NdHashTable};

/// `cuckooHash` at `2^(log2 + 1)` cells: one extra bit keeps its
/// two-choice load below 1/2 where the linear tables sit at `2^log2`.
pub fn cuckoo<E: HashEntry>(log2: u32) -> CuckooHashTable<E> {
    CuckooHashTable::new_pow2(log2 + 1)
}

/// Runs `body` once per application table, in the paper's row order,
/// with `label` bound to the row label and `make` to the table's
/// `fn(log2) -> table` constructor (the tables' types differ, hence a
/// macro):
///
/// ```
/// let mut labels = Vec::new();
/// phc_bench::app_tables!(phc_core::U64Key, |label, make| {
///     let _table = make(4);
///     labels.push(label);
/// });
/// assert_eq!(labels, ["linearHash-D", "linearHash-ND", "cuckooHash", "chainedHash-CR"]);
/// ```
#[macro_export]
macro_rules! app_tables {
    ($E:ty, |$label:ident, $make:ident| $body:expr) => {{
        {
            let ($label, $make) = ("linearHash-D", $crate::roster::DetHashTable::<$E>::new_pow2);
            $body;
        }
        {
            let ($label, $make) = ("linearHash-ND", $crate::roster::NdHashTable::<$E>::new_pow2);
            $body;
        }
        {
            let ($label, $make) = ("cuckooHash", $crate::roster::cuckoo::<$E>);
            $body;
        }
        {
            let ($label, $make) = (
                "chainedHash-CR",
                $crate::roster::ChainedHashTable::<$E>::new_pow2_cr,
            );
            $body;
        }
    }};
}
