//! Suffix trees backed by phase-concurrent hash tables
//! (paper §5; Table 5).
//!
//! "To allow for expected constant time look-ups, a hash table is used
//! to store the children of each internal node" — the insert phase
//! (tree construction) and the find phase (pattern search) are
//! naturally separated, which is exactly the phase-concurrency the
//! table provides.
//!
//! Pipeline, all built here from scratch:
//!
//! * [`suffix_array`](mod@suffix_array) — prefix-doubling suffix array plus Kasai LCP;
//! * [`suffix_tree`] — tree skeleton from SA+LCP (stack construction),
//!   child edges inserted **in parallel** into a phase-concurrent hash
//!   table keyed by `(node, first byte)`; searches walk the tree with
//!   hash finds.

#![warn(missing_docs)]

pub mod suffix_array;
pub mod suffix_tree;

pub use suffix_array::{lcp_kasai, suffix_array};
pub use suffix_tree::SuffixTree;
