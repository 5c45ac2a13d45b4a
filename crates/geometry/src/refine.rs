//! Deterministic parallel Delaunay refinement (paper §5; Table 4).
//!
//! Each round:
//!
//! 1. **elements phase** — read the bad-triangle ids out of the
//!    phase-concurrent hash table; their positions in the returned
//!    sequence are the round's priorities (deterministic for the
//!    deterministic table — the crux of the paper's argument);
//! 2. **reserve** — every bad triangle computes, on the quiescent
//!    mesh, the cavity its circumcenter insertion would retriangulate
//!    plus the ring of outside neighbors whose adjacency would change
//!    (its *affected set*), and priority-writes its rank onto each;
//! 3. **commit** — triangles that won their entire affected set are
//!    *active* (paper's term); affected sets of active triangles are
//!    pairwise disjoint, so their insertions cannot conflict. Patches
//!    are computed in parallel and applied in rank order (cheap stores;
//!    the predicate-heavy work happened in step 2);
//! 4. **insert phase** — newly created bad triangles and still-alive
//!    losers go into a fresh table for the next round.
//!
//! Triangles touching the enclosing super-triangle are never refined
//! (standard practice; keeps the cascade away from the artificial
//! boundary).

use std::sync::atomic::{AtomicU32, Ordering};

use phc_core::entry::U64Key;
use phc_core::phase::{ConcurrentInsert, PhaseHashTable};
use phc_core::write_min_u32;
use rayon::prelude::*;

use crate::mesh::{IPoint, Mesh};
use crate::predicates::{circumcenter, has_small_angle};

/// Outcome counters for a refinement run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefineStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Steiner points inserted.
    pub points_added: usize,
    /// Bad triangles remaining when the run stopped (0 unless a cap
    /// was hit).
    pub final_bad: usize,
}

struct Candidate {
    rank: u32,
    tri: u32,
    cc: IPoint,
    cavity: Vec<u32>,
    affected: Vec<u32>,
}

/// Whether triangle `t` needs refinement.
fn is_bad(mesh: &Mesh, t: u32, min_angle: f64) -> bool {
    let tri = &mesh.tris[t as usize];
    if !tri.alive || mesh.touches_super(t) {
        return false;
    }
    let [a, b, c] = mesh.corners(t);
    has_small_angle(a, b, c, min_angle)
}

/// Refines `mesh` until no triangle (not touching the super-triangle)
/// has an angle below `min_angle` degrees, or `max_points` Steiner
/// points have been added. Generic over the phase-concurrent table
/// used for the bad-triangle set; `make_table(log2)` builds a table of
/// `2^log2` cells.
pub fn refine<T, F>(
    mesh: &mut Mesh,
    min_angle: f64,
    max_points: usize,
    mut make_table: F,
) -> RefineStats
where
    T: PhaseHashTable<U64Key>,
    F: FnMut(u32) -> T,
{
    let mut stats = RefineStats {
        rounds: 0,
        points_added: 0,
        final_bad: 0,
    };

    let mut bad = rank_bad_triangles(&bad_triangles(mesh, min_angle), &mut make_table);

    while !bad.is_empty() && stats.points_added < max_points {
        stats.rounds += 1;
        // Budget for this round: never exceed the point cap.
        let budget = max_points - stats.points_added;

        // ---- Reserve: compute affected sets on the quiescent mesh.
        let mesh_ref: &Mesh = mesh;
        let candidates: Vec<Option<Candidate>> = bad
            .par_iter()
            .enumerate()
            .with_min_len(16)
            .map(|(rank, &t)| {
                if !mesh_ref.tris[t as usize].alive {
                    return None; // destroyed in an earlier round
                }
                debug_assert!(is_bad(mesh_ref, t, min_angle));
                let [a, b, c] = mesh_ref.corners(t);
                let cc = circumcenter(a, b, c)?;
                let t0 = mesh_ref.locate(t, cc)?;
                let cavity = mesh_ref.cavity(t0, cc);
                // Reject circumcenters that collide with a mesh vertex
                // (possible after grid snapping).
                for &ct in &cavity {
                    for &v in &mesh_ref.tris[ct as usize].v {
                        if mesh_ref.points[v as usize] == cc {
                            return None;
                        }
                    }
                }
                let mut affected = cavity.clone();
                for (_, _, outer) in mesh_ref.cavity_boundary(&cavity) {
                    if outer != crate::mesh::NONE {
                        affected.push(outer);
                    }
                }
                affected.sort_unstable();
                affected.dedup();
                Some(Candidate {
                    rank: rank as u32,
                    tri: t,
                    cc,
                    cavity,
                    affected,
                })
            })
            .collect();

        let marks: Vec<AtomicU32> = (0..mesh.tris.len())
            .map(|_| AtomicU32::new(u32::MAX))
            .collect();
        candidates
            .par_iter()
            .with_min_len(16)
            .flatten()
            .for_each(|cand| {
                for &a in &cand.affected {
                    write_min_u32(&marks[a as usize], cand.rank);
                }
            });

        // ---- Commit: winners own every mark; cap to the point budget
        // by rank (deterministic).
        let mut winners: Vec<&Candidate> = candidates
            .iter()
            .flatten()
            .filter(|cand| {
                cand.affected
                    .iter()
                    .all(|&a| marks[a as usize].load(Ordering::Acquire) == cand.rank)
            })
            .collect();
        winners.truncate(budget);
        let winner_ranks: std::collections::HashSet<u32> = winners.iter().map(|w| w.rank).collect();

        // Apply in rank order (winners' affected sets are disjoint, so
        // this is conflict-free; sequential order fixes new ids
        // deterministically).
        let mut created: Vec<u32> = Vec::new();
        for w in &winners {
            let pid = mesh.points.len() as u32;
            mesh.points.push(w.cc);
            created.extend(mesh.retriangulate(&w.cavity, pid));
            stats.points_added += 1;
        }

        // ---- Next round's bad set: new bad triangles + surviving
        // losers (their triangle may have been destroyed by a winner).
        let next: Vec<u32> = {
            let mesh_ref: &Mesh = mesh;
            let mut next: Vec<u32> = created
                .par_iter()
                .filter(|&&t| is_bad(mesh_ref, t, min_angle))
                .copied()
                .collect();
            next.extend(candidates.iter().flatten().filter_map(|cand| {
                (!winner_ranks.contains(&cand.rank) && mesh_ref.tris[cand.tri as usize].alive)
                    .then_some(cand.tri)
            }));
            next
        };
        if next.is_empty() {
            bad = next;
            break;
        }
        bad = rank_bad_triangles(&next, &mut make_table);
    }
    stats.final_bad = bad.len();
    stats
}

/// The ids of every triangle of `mesh` that needs refinement: the scan
/// that seeds the first round.
pub fn bad_triangles(mesh: &Mesh, min_angle: f64) -> Vec<u32> {
    (0..mesh.tris.len() as u32)
        .into_par_iter()
        .filter(|&t| is_bad(mesh, t, min_angle))
        .collect()
}

/// The hash-table portion of a round (the part Table 4 times): inserts
/// `bad` into a fresh table of twice as many cells, rounded up to a
/// power of two (paper §6), and reads it back with `elements()`. The
/// returned order is the round's priority order, deterministic iff the
/// table is.
pub fn rank_bad_triangles<T, F>(bad: &[u32], make_table: F) -> Vec<u32>
where
    T: PhaseHashTable<U64Key>,
    F: FnOnce(u32) -> T,
{
    let log2 = (2 * bad.len().max(2)).next_power_of_two().trailing_zeros();
    let mut table = make_table(log2);
    {
        let ins = table.begin_insert();
        bad.par_iter()
            .with_min_len(64)
            .for_each(|&t| ins.insert(U64Key::new(t as u64 + 1)));
    }
    table.elements().iter().map(|k| (k.0 - 1) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delaunay::triangulate;
    use phc_core::DetHashTable;

    fn make_det(log2: u32) -> DetHashTable<U64Key> {
        DetHashTable::new_pow2(log2)
    }

    #[test]
    fn refine_eliminates_bad_triangles() {
        let pts = phc_workloads::in_cube_2d(200, 1);
        let mut mesh = triangulate(&pts);
        let stats = refine(&mut mesh, 25.0, 100_000, make_det);
        assert_eq!(stats.final_bad, 0, "stats: {stats:?}");
        assert!(stats.points_added > 0);
        mesh.check_integrity().unwrap();
        // Every surviving interior triangle meets the angle bound.
        for t in 0..mesh.tris.len() as u32 {
            assert!(!is_bad(&mesh, t, 25.0), "triangle {t} still bad");
        }
    }

    #[test]
    fn refinement_preserves_delaunay() {
        let pts = phc_workloads::in_cube_2d(100, 2);
        let mut mesh = triangulate(&pts);
        refine(&mut mesh, 22.0, 50_000, make_det);
        mesh.check_integrity().unwrap();
        mesh.check_delaunay().unwrap();
    }

    #[test]
    fn refinement_is_deterministic() {
        let pts = phc_workloads::kuzmin_2d(150, 3);
        let run = || {
            let mut mesh = triangulate(&pts);
            let stats = refine(&mut mesh, 24.0, 50_000, make_det);
            (
                stats,
                mesh.points.clone(),
                mesh.tris.iter().map(|t| (t.v, t.alive)).collect::<Vec<_>>(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn point_cap_respected() {
        let pts = phc_workloads::in_cube_2d(200, 4);
        let mut mesh = triangulate(&pts);
        let stats = refine(&mut mesh, 28.0, 25, make_det);
        assert!(stats.points_added <= 25);
        mesh.check_integrity().unwrap();
    }

    #[test]
    fn already_good_mesh_is_untouched() {
        // A symmetric 4-point square yields well-shaped triangles.
        let pts = vec![
            phc_workloads::Point2d { x: 0.0, y: 0.0 },
            phc_workloads::Point2d { x: 1.0, y: 0.0 },
            phc_workloads::Point2d { x: 0.0, y: 1.0 },
            phc_workloads::Point2d { x: 1.0, y: 1.0 },
        ];
        let mut mesh = triangulate(&pts);
        let before = mesh.live_triangles();
        let stats = refine(&mut mesh, 20.0, 1000, make_det);
        assert_eq!(stats.points_added, 0);
        assert_eq!(mesh.live_triangles(), before);
    }
}
