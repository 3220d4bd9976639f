//! MAXLINK (paper §5.2.1): hook every vertex to the highest-level parent in
//! its closed neighbourhood.
//!
//! `MAXLINK(V)`: repeat twice — for each `v ∈ V`, let
//! `u = argmax_{w ∈ N*(v).p} ℓ(w)`; if `ℓ(u) > ℓ(v)` then `v.p = u`.
//!
//! The arg-max over concurrent neighbours is a priority write, realized with
//! [`MaxCells`] over packed `(level, vertex)` words.
//!
//! **Practical deviation:** hooking happens on a
//! strictly larger `(level, id)` *pair*, not a strictly larger level alone.
//! With the paper's huge `β₁ = (log n)^80` budgets, random level-ups break
//! level symmetry instantly; at practical budgets a level-symmetric graph
//! (e.g. a path where every vertex goes dormant and levels up in lock-step)
//! would stall for many rounds waiting for a coin flip. Lexicographic hooking
//! is the standard LTZ-style tie-break: `(ℓ(x), x)` strictly increases along
//! every parent chain (levels are monotone and only roots level up), so the
//! labeled digraph stays acyclic for *any* CRCW write resolution.

use crate::state::LtzState;
use parcc_pram::cost::CostTracker;
use parcc_pram::crcw::MaxCells;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use rayon::prelude::*;

/// One MAXLINK iteration over the active vertex set.
///
/// Neighbourhoods are the current-graph adjacency: original (altered) edges
/// plus the added edges stored in the hash tables. Charges
/// `(|active| + |E| + Σ table sizes, 1)`.
pub fn maxlink_iteration(
    active: &[Vertex],
    edges: &[Edge],
    st: &LtzState,
    forest: &ParentForest,
    best: &MaxCells,
    tracker: &CostTracker,
) {
    let table_work: u64 = active.par_iter().map(|&v| st.occupied(v) as u64).sum();
    tracker.charge(active.len() as u64 * 2 + edges.len() as u64 + table_work, 1);

    // Clear scratch cells for the active set only.
    active.par_iter().for_each(|&v| best.clear(v as usize));

    // N*(v) contains v itself.
    active.par_iter().for_each(|&v| {
        let p = forest.parent(v);
        best.offer(v as usize, st.level(p), p);
    });
    // Original (altered) edges contribute in both directions.
    edges.par_iter().for_each(|e| {
        let (a, b) = e.ends();
        let pb = forest.parent(b);
        best.offer(a as usize, st.level(pb), pb);
        let pa = forest.parent(a);
        best.offer(b as usize, st.level(pa), pa);
    });
    // Added edges (v, w ∈ H(v)) contribute in both directions.
    active.par_iter().for_each(|&v| {
        let pv = forest.parent(v);
        let lv = st.level(pv);
        for w in st.items(v) {
            let pw = forest.parent(w);
            best.offer(v as usize, st.level(pw), pw);
            best.offer(w as usize, lv, pv);
        }
    });

    // Apply: hook strictly upward in (level, id).
    active.par_iter().for_each(|&v| {
        let (lvl, u) = best.best(v as usize);
        let lv = st.level(v);
        if lvl > lv || (lvl == lv && u > v) {
            forest.set_parent(v, u);
        }
    });
}

/// `MAXLINK(V)`: two iterations (paper pseudocode).
pub fn maxlink(
    active: &[Vertex],
    edges: &[Edge],
    st: &LtzState,
    forest: &ParentForest,
    best: &MaxCells,
    tracker: &CostTracker,
) {
    for _ in 0..2 {
        maxlink_iteration(active, edges, st, forest, best, tracker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Budget;

    fn setup(n: usize) -> (ParentForest, LtzState, MaxCells, CostTracker) {
        (
            ParentForest::new(n),
            LtzState::new(n, Budget::for_n(n), 7),
            MaxCells::new(n),
            CostTracker::new(),
        )
    }

    #[test]
    fn equal_levels_hook_by_id() {
        let (f, st, best, tr) = setup(3);
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        maxlink(&[0, 1, 2], &edges, &st, &f, &best, &tr);
        // Ties break towards larger ids: 2 absorbs the chain.
        assert!(f.is_root(2));
        assert_eq!(f.parent(1), 2);
        let _ = f.max_height(); // acyclic
    }

    #[test]
    fn hooks_to_higher_level_neighbor() {
        let (f, st, best, tr) = setup(3);
        st.set_level(2, 3);
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        maxlink(&[0, 1, 2], &edges, &st, &f, &best, &tr);
        assert_eq!(f.parent(1), 2);
        // Second iteration lets 0 see 1's new parent (level 3) via N*(0).p.
        assert_eq!(f.parent(0), 2);
        assert!(f.is_root(2));
    }

    #[test]
    fn picks_maximum_level_among_neighbors() {
        let (f, st, best, tr) = setup(4);
        st.set_level(2, 2);
        st.set_level(3, 5);
        let edges = vec![Edge::new(0, 2), Edge::new(0, 3)];
        maxlink_iteration(&[0, 2, 3], &edges, &st, &f, &best, &tr);
        assert_eq!(f.parent(0), 3);
    }

    #[test]
    fn added_edges_contribute() {
        let (f, mut st, best, tr) = setup(3);
        st.ensure_table(0, &tr);
        st.insert(0, 2);
        st.set_level(2, 4);
        maxlink_iteration(&[0, 2], &[], &st, &f, &best, &tr);
        assert_eq!(f.parent(0), 2);
    }

    #[test]
    fn added_edges_contribute_reverse_direction() {
        let (f, mut st, best, tr) = setup(3);
        st.ensure_table(0, &tr);
        st.insert(0, 2);
        st.set_level(0, 4);
        maxlink_iteration(&[0, 2], &[], &st, &f, &best, &tr);
        assert_eq!(f.parent(2), 0);
    }

    #[test]
    fn level_invariant_preserved() {
        let (f, st, best, tr) = setup(6);
        for v in 0..6 {
            st.set_level(v, 1 + (v % 3));
        }
        let edges: Vec<Edge> = (0..5).map(|i| Edge::new(i, i + 1)).collect();
        for _ in 0..4 {
            maxlink(&[0, 1, 2, 3, 4, 5], &edges, &st, &f, &best, &tr);
        }
        for v in 0..6u32 {
            if !f.is_root(v) {
                let p = f.parent(v);
                let up = (st.level(p), p) > (st.level(v), v);
                assert!(up, "lexicographic invariant broken at {v}");
            }
        }
        let _ = f.max_height(); // panics on cycles
    }
}
