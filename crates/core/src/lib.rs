//! Deterministic phase-concurrent hash tables.
//!
//! A Rust reproduction of **Shun & Blelloch, "Phase-Concurrent Hash
//! Tables for Determinism", SPAA 2014**: a linear-probing hash table
//! whose array layout — and therefore the output of its `elements()`
//! operation — is a pure function of its contents, independent of the
//! order or interleaving of the operations that built it, as long as
//! operations of different types (insert / delete / find+elements) are
//! separated into *phases*.
//!
//! The crate also contains every comparison table from the paper's
//! evaluation, implemented from scratch:
//!
//! | Type | Paper label | Notes |
//! |---|---|---|
//! | [`DetHashTable`] | `linearHash-D` | deterministic, history-independent (the contribution) |
//! | [`NdHashTable`] | `linearHash-ND` | first-fit linear probing, shift-back deletes |
//! | [`CuckooHashTable`] | `cuckooHash` | phase-concurrent two-choice cuckoo with per-cell locks |
//! | [`HopscotchHashTable`] | `hopscotchHash(-PC)` | neighborhood hashing with segment locks |
//! | [`ChainedHashTable`] | `chainedHash(-CR)` | Lea-style striped-lock chaining |
//! | [`SerialHashHI`] / [`SerialHashHD`] | `serialHash-HI/HD` | sequential baselines |
//! | [`RobinHoodHashTable`] | `robinHood` | masked-compare displacement-ordered contender (see [`robinhood`]) |
//! | [`FcHashTable`] | `linearHash-FC` | det's contract under its own name; the fully-concurrent claim is withdrawn (see [`fc`]) |
//!
//! Phase discipline is enforced by the type system: see [`phase`].

#![warn(missing_docs)]

pub mod batch;
pub mod cell;
pub mod chained;
pub mod cuckoo;
pub mod det;
pub mod entry;
pub mod fc;
pub mod hopscotch;
pub mod invariant;
pub mod nd;
pub mod phase;
pub mod priority_write;
pub mod probe;
pub mod resize;
pub mod robinhood;
pub mod rooms;
pub mod serial;
pub mod simd;
pub mod stats;

pub use cell::{AtomOf, CellAtomic, CellWord};
pub use chained::ChainedHashTable;
pub use cuckoo::CuckooHashTable;
pub use det::DetHashTable;
pub use entry::{
    AddValues, Combine, HashEntry, KeepMax, KeepMin, KvPair, KvPair32, StrPayload, StrRef, U64Key,
};
pub use fc::FcHashTable;
pub use hopscotch::HopscotchHashTable;
pub use nd::NdHashTable;
pub use phase::{
    ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable, PhaseKind, PhaseSpan,
};
pub use priority_write::{
    write_max, write_max_u32, write_max_usize, write_min, write_min_u32, write_min_usize,
};
pub use resize::{FlatTableCore, ResizableTable};
pub use robinhood::RobinHoodHashTable;
pub use rooms::{AutoPhaseGrowTable, AutoPhaseTable, FcAutoGrowTable, FcAutoTable, Room, RoomSync};
pub use serial::{SerialHashHD, SerialHashHI};
