//! Delaunay triangulation and deterministic parallel Delaunay
//! refinement (paper §5; Table 4).
//!
//! The refinement application is the paper's motivating example: bad
//! triangles live in a phase-concurrent hash table; every round reads
//! them out with a deterministic `elements()`, resolves conflicts with
//! priority writes (deterministic reservations), inserts the winning
//! circumcenters, and inserts the newly created bad triangles back into
//! a table. A deterministic table ⇒ deterministic priorities ⇒ a
//! deterministic final mesh.
//!
//! Substrates built here from scratch:
//!
//! * [`predicates`] — **exact** orientation and in-circle tests via
//!   integer arithmetic on grid-snapped coordinates (points snap to a
//!   2^26 grid; all determinants then fit in `i128`);
//! * [`mesh`] — triangle-soup mesh with adjacency and Bowyer–Watson
//!   point insertion;
//! * [`delaunay`] — incremental Delaunay triangulation of a point set;
//! * [`refine`](mod@refine) — the parallel deterministic refinement loop.

#![warn(missing_docs)]

pub mod delaunay;
pub mod mesh;
pub mod predicates;
pub mod refine;

pub use delaunay::triangulate;
pub use mesh::{IPoint, Mesh, Tri, NONE};
pub use refine::{refine, RefineStats};
