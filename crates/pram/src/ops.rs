//! Shared graph-over-forest operations: ALTER and the deterministic fallback.
//!
//! `ALTER(E)` (paper §4.2) is the step every stage uses to keep the edge set
//! consistent with the contracting labeled digraph: replace each edge `(u,v)`
//! by `(u.p, v.p)` and delete the self-loops this creates.
//!
//! [`deterministic_cc_fallback`] is the workspace-wide safety net: the paper's algorithms terminate within their round budgets w.h.p.;
//! if a round-capped loop ever exhausts its budget (it should not — benches
//! count this), the remaining contraction is finished by a simple
//! deterministic hook-to-minimum + flatten loop that is unconditionally
//! correct.

use crate::arena::SolverArena;
use crate::cost::CostTracker;
use crate::edge::Edge;
use crate::forest::ParentForest;
use crate::primitives::{retain, retain_edges_with};
use rayon::prelude::*;

/// ALTER(E): move every edge to the endpoints' parents; optionally delete the
/// loops this creates. Charges `(|E|, 2)` plus compaction when dropping loops.
pub fn alter_edges(
    forest: &ParentForest,
    edges: &mut Vec<Edge>,
    drop_loops: bool,
    tracker: &CostTracker,
) {
    tracker.charge(edges.len() as u64, 2);
    edges.par_iter_mut().for_each(|e| {
        *e = Edge::new(forest.parent(e.u()), forest.parent(e.v()));
    });
    if drop_loops {
        retain(edges, |e| !e.is_loop(), tracker);
    }
}

/// [`alter_edges`] drawing its loop-compaction scratch from `arena`: the
/// hot-loop variant (LTZ rounds, the paper's phase retries) that performs
/// zero heap allocations once the arena is warm. Identical output and
/// charges.
pub fn alter_edges_with(
    forest: &ParentForest,
    edges: &mut Vec<Edge>,
    drop_loops: bool,
    arena: &mut SolverArena,
    tracker: &CostTracker,
) {
    tracker.charge(edges.len() as u64, 2);
    edges.par_iter_mut().for_each(|e| {
        *e = Edge::new(forest.parent(e.u()), forest.parent(e.v()));
    });
    if drop_loops {
        retain_edges_with(edges, |e| !e.is_loop(), arena, tracker);
    }
}

/// Deterministic connectivity finisher: repeatedly (flatten; alter; hook each
/// edge's larger root under the smaller). Parent ids strictly decrease along
/// every hook, so the digraph stays acyclic and the loop terminates — each
/// round removes every root that still sees a smaller neighbour label.
///
/// Returns the number of rounds taken. Correct for any input; used only as
/// the safety net behind the randomized round-capped algorithms.
pub fn deterministic_cc_fallback(
    forest: &ParentForest,
    edges: &mut Vec<Edge>,
    tracker: &CostTracker,
) -> u64 {
    let mut rounds = 0;
    loop {
        forest.flatten(tracker);
        alter_edges(forest, edges, true, tracker);
        if edges.is_empty() {
            return rounds;
        }
        rounds += 1;
        tracker.charge(edges.len() as u64, 1);
        edges.par_iter().for_each(|e| {
            let (u, v) = e.ends();
            let (lo, hi) = if u < v { (u, v) } else { (v, u) };
            forest.offer_parent_min(hi, lo);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CostTracker {
        CostTracker::new()
    }

    #[test]
    fn alter_moves_to_parents() {
        let f = ParentForest::new(4);
        f.set_parent(1, 0);
        f.set_parent(3, 2);
        let mut e = vec![Edge::new(1, 3), Edge::new(0, 1)];
        alter_edges(&f, &mut e, true, &t());
        assert_eq!(e, vec![Edge::new(0, 2)]); // (0,1) became a loop (0,0)
    }

    #[test]
    fn alter_can_keep_loops() {
        let f = ParentForest::new(2);
        f.set_parent(1, 0);
        let mut e = vec![Edge::new(0, 1)];
        alter_edges(&f, &mut e, false, &t());
        assert_eq!(e, vec![Edge::new(0, 0)]);
    }

    #[test]
    fn fallback_contracts_path() {
        let n = 64u32;
        let f = ParentForest::new(n as usize);
        let mut e: Vec<Edge> = (0..n - 1).map(|i| Edge::new(i, i + 1)).collect();
        let rounds = deterministic_cc_fallback(&f, &mut e, &t());
        assert!(edgesless_and_single_root(&f, n));
        assert!(rounds <= 64, "rounds={rounds}");
        assert!(e.is_empty());
    }

    #[test]
    fn fallback_contracts_random_multigraph() {
        use crate::rng::Stream;
        let n = 200u32;
        let s = Stream::new(5, 5);
        let mut e: Vec<Edge> = (0..600)
            .map(|i| {
                Edge::new(
                    s.below(2 * i, n as u64) as u32,
                    s.below(2 * i + 1, n as u64) as u32,
                )
            })
            .collect();
        // Add loops and parallels explicitly.
        e.push(Edge::new(7, 7));
        e.push(Edge::new(3, 4));
        e.push(Edge::new(4, 3));
        let f = ParentForest::new(n as usize);
        let orig = e.clone();
        deterministic_cc_fallback(&f, &mut e, &t());
        // Every edge's endpoints share a root.
        let tr = t();
        for &edge in &orig {
            assert_eq!(
                f.find_root(edge.u(), &tr),
                f.find_root(edge.v(), &tr),
                "edge {:?} split",
                edge.ends()
            );
        }
    }

    fn edgesless_and_single_root(f: &ParentForest, n: u32) -> bool {
        let tr = t();
        let r0 = f.find_root(0, &tr);
        (0..n).all(|v| f.find_root(v, &tr) == r0)
    }

    #[test]
    fn fallback_respects_components() {
        // Two disjoint triangles.
        let f = ParentForest::new(6);
        let mut e = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 0),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(5, 3),
        ];
        deterministic_cc_fallback(&f, &mut e, &t());
        let tr = t();
        assert_eq!(f.find_root(0, &tr), f.find_root(2, &tr));
        assert_eq!(f.find_root(3, &tr), f.find_root(5, &tr));
        assert_ne!(f.find_root(0, &tr), f.find_root(3, &tr));
    }
}
