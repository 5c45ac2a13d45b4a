//! The repo benchmark: six workloads, five end-to-end metrics, and a
//! per-layer ladder from `server` down to `simd`. See `README.md`.

pub mod clock;
pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod micro;
pub mod oracle;
pub mod report;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
