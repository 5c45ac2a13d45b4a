//! A deterministic sharded KV service layer over the phase-concurrent
//! hash tables (ROADMAP item 1; see `DESIGN.md` §5.6).
//!
//! The paper's tables promise deterministic results at any thread
//! count *within* a phase; this crate composes that guarantee across
//! `N` independent shards into an end-to-end service property:
//!
//! > the response log is a pure function of the request log —
//! > byte-identical across thread counts **and** shard counts.
//!
//! Three pieces make that hold:
//!
//! * a deterministic hash [`router`] (stable partition, decorrelated
//!   from the tables' probe hash);
//! * per-shard [`ShardTable`]s — growable tables the server reaches
//!   only under its batch lock, through `&mut`, and drives through the
//!   paper's borrow-checked phases (`begin_insert` / `begin_delete` /
//!   `begin_read`, one per sub-batch): the lock is the phase
//!   discipline, so no room synchronizer and no per-read registration
//!   is paid, while shards still run in parallel, each in its own phase
//!   (a get-heavy shard never blocks a put-heavy one);
//! * a fixed within-batch sub-phase order (puts → deletes → gets) plus
//!   response re-assembly at submission indices, so neither routing
//!   nor scheduling can reorder what a client observes.
//!
//! The [`FcKvServer`] mode swaps each shard's *core* for the
//! `linearHash-FC` table and runs the same phased path: same response
//! log byte-for-byte (see [`shard_table`]).

#![warn(missing_docs)]

pub mod router;
pub mod server;
pub mod shard_table;

pub use router::shard_of;
pub use server::{
    resp_hit, response_log_bytes, response_log_hash, FcKvServer, KvServer, ShardStatsSnapshot,
    RESP_DEL_ACK, RESP_HIT_TAG, RESP_MISS, RESP_PUT_ACK,
};
pub use shard_table::ShardTable;
