//! The *labeled digraph* of the paper (§2.1): a global parent pointer `v.p`
//! per vertex.
//!
//! Initially every vertex is its own parent (a root, i.e. a self-loop in the
//! digraph). Subroutines move parents only within the vertex's true connected
//! component (the *contraction algorithm* discipline, §2.1), and maintain that
//! the only cycles are self-loops. A tree is *flat* when its height is ≤ 1;
//! the algorithms' output contract is a flat forest whose roots label the
//! components.

use crate::cost::CostTracker;
use crate::edge::Vertex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parent-pointer forest with ARBITRARY CRCW update semantics.
#[derive(Debug)]
pub struct ParentForest {
    p: Vec<AtomicU32>,
}

impl ParentForest {
    /// `n` singleton trees: `v.p = v` for every vertex.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        let p = (0..n as u32).map(AtomicU32::new).collect();
        Self { p }
    }

    /// Rebuild a forest from explicit parent pointers.
    #[must_use]
    pub fn from_parents(parents: Vec<u32>) -> Self {
        Self {
            p: parents.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True if the forest has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// `v.p`.
    #[inline]
    #[must_use]
    pub fn parent(&self, v: Vertex) -> Vertex {
        self.p[v as usize].load(Ordering::Relaxed)
    }

    /// `v.p = u` (concurrent writers race; arbitrary winner).
    #[inline]
    pub fn set_parent(&self, v: Vertex, u: Vertex) {
        self.p[v as usize].store(u, Ordering::Relaxed);
    }

    /// Priority hook: `v.p = min(v.p, u)`. Used by the deterministic fallback,
    /// where strictly-decreasing parent ids guarantee acyclicity.
    #[inline]
    pub fn offer_parent_min(&self, v: Vertex, u: Vertex) {
        self.p[v as usize].fetch_min(u, Ordering::Relaxed);
    }

    /// Is `v` a root (`v.p = v`)?
    #[inline]
    #[must_use]
    pub fn is_root(&self, v: Vertex) -> bool {
        self.parent(v) == v
    }

    /// `v.p.p`.
    #[inline]
    #[must_use]
    pub fn grandparent(&self, v: Vertex) -> Vertex {
        self.parent(self.parent(v))
    }

    /// One SHORTCUT step on a single vertex: `v.p = v.p.p`.
    #[inline]
    pub fn shortcut_vertex(&self, v: Vertex) {
        let gp = self.grandparent(v);
        self.set_parent(v, gp);
    }

    /// SHORTCUT(V) over all vertices (paper §5.2): one synchronous round of
    /// `v.p = v.p.p`. Charges `(n, 1)`.
    pub fn shortcut_all(&self, tracker: &CostTracker) {
        tracker.charge(self.len() as u64, 1);
        // Read the full parent array first so every grandparent is evaluated
        // against the same round-start state (synchronous PRAM step).
        let snap: Vec<u32> = self
            .p
            .par_iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        self.p.par_iter().enumerate().for_each(|(v, cell)| {
            let gp = snap[snap[v] as usize];
            cell.store(gp, Ordering::Relaxed);
        });
    }

    /// SHORTCUT over an explicit vertex set. Charges `(|set|, 1)`.
    ///
    /// Unlike [`shortcut_all`](Self::shortcut_all) this reads live cells, so
    /// within the round a vertex may observe another's fresh write — permitted
    /// by the CRCW model (any interleaving of the step's reads/writes).
    pub fn shortcut_set(&self, set: &[Vertex], tracker: &CostTracker) {
        tracker.charge(set.len() as u64, 1);
        set.par_iter().for_each(|&v| self.shortcut_vertex(v));
    }

    /// Chase parent pointers to the root of `v`'s tree.
    ///
    /// Used (a) by verification code and (b) as the implementation of the
    /// paper's `v.p^{(2R+1)}` snapshot replay (Def. 5.18) — both compute the
    /// unique root of `v`'s current tree. The caller charges
    /// depth `O(max height)`; work is charged here per hop.
    #[must_use]
    pub fn find_root(&self, v: Vertex, tracker: &CostTracker) -> Vertex {
        let mut x = v;
        let mut hops = 0u64;
        loop {
            let px = self.parent(x);
            if px == x {
                tracker.charge_work(hops + 1);
                return x;
            }
            x = px;
            hops += 1;
            debug_assert!(
                hops <= self.len() as u64,
                "cycle in labeled digraph at vertex {v}"
            );
        }
    }

    /// Pointer-jump with **live** reads until every tree is flat (height ≤ 1).
    ///
    /// Within a pass a vertex may observe another's fresh write, so chains
    /// collapse much faster than the synchronous `O(log height)` schedule —
    /// great for the final clean-up, but *not* a faithful PRAM round count.
    /// Use [`flatten_synchronous`](Self::flatten_synchronous) where measured
    /// depth matters.
    pub fn flatten(&self, tracker: &CostTracker) {
        loop {
            let changed: bool = self
                .p
                .par_iter()
                .map(|cell| {
                    let p = cell.load(Ordering::Relaxed);
                    let gp = self.p[p as usize].load(Ordering::Relaxed);
                    if p != gp {
                        cell.store(gp, Ordering::Relaxed);
                        true
                    } else {
                        false
                    }
                })
                .reduce(|| false, |a, b| a | b);
            tracker.charge(self.len() as u64, 1);
            if !changed {
                return;
            }
        }
    }

    /// Pointer-jump with snapshot (round-synchronous) semantics until every
    /// tree is flat: exactly `ceil(log2 height)` + 1 charged rounds — the
    /// PRAM-faithful variant used where depth is measured (e.g. the
    /// Shiloach–Vishkin baseline).
    pub fn flatten_synchronous(&self, tracker: &CostTracker) {
        loop {
            let snap = self.snapshot();
            tracker.charge(self.len() as u64, 1);
            let changed: bool = self
                .p
                .par_iter()
                .enumerate()
                .map(|(v, cell)| {
                    let gp = snap[snap[v] as usize];
                    if gp != snap[v] || snap[v] != cell.load(Ordering::Relaxed) {
                        cell.store(gp, Ordering::Relaxed);
                        snap[v] != gp
                    } else {
                        false
                    }
                })
                .reduce(|| false, |a, b| a | b);
            if !changed {
                return;
            }
        }
    }

    /// Component label per vertex (= root id), chasing pointers as needed.
    #[must_use]
    pub fn labels(&self, tracker: &CostTracker) -> Vec<Vertex> {
        (0..self.len() as u32)
            .into_par_iter()
            .map(|v| self.find_root(v, tracker))
            .collect()
    }

    /// Copy of the raw parent array (used by INTERWEAVE's revert, §7.1 Step 5).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u32> {
        self.p
            .par_iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Restore from a snapshot taken on a forest of the same size.
    pub fn restore(&self, snap: &[u32]) {
        assert_eq!(snap.len(), self.len());
        self.p
            .par_iter()
            .zip(snap.par_iter())
            .for_each(|(c, &v)| c.store(v, Ordering::Relaxed));
    }

    /// Number of roots.
    #[must_use]
    pub fn root_count(&self) -> usize {
        (0..self.len() as u32)
            .into_par_iter()
            .filter(|&v| self.is_root(v))
            .count()
    }

    /// Height of the tallest tree (0 = all singletons; for test assertions).
    /// Panics on a non-loop cycle.
    #[must_use]
    pub fn max_height(&self) -> usize {
        (0..self.len() as u32)
            .into_par_iter()
            .map(|v| {
                let mut x = v;
                let mut h = 0usize;
                while !self.is_root(x) {
                    x = self.parent(x);
                    h += 1;
                    assert!(h <= self.len(), "cycle in labeled digraph");
                }
                h
            })
            .reduce(|| 0, usize::max)
    }
}

impl Clone for ParentForest {
    fn clone(&self) -> Self {
        Self::from_parents(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CostTracker {
        CostTracker::new()
    }

    #[test]
    fn new_is_identity() {
        let f = ParentForest::new(5);
        assert_eq!(f.len(), 5);
        assert!((0..5u32).all(|v| f.is_root(v)));
        assert_eq!(f.root_count(), 5);
        assert_eq!(f.max_height(), 0);
    }

    #[test]
    fn set_parent_and_height() {
        let f = ParentForest::new(4);
        f.set_parent(1, 0);
        f.set_parent(2, 1);
        f.set_parent(3, 2);
        assert_eq!(f.max_height(), 3);
        assert_eq!(f.root_count(), 1);
        assert_eq!(f.find_root(3, &t()), 0);
    }

    #[test]
    fn shortcut_halves_chain() {
        let f = ParentForest::new(4);
        f.set_parent(1, 0);
        f.set_parent(2, 1);
        f.set_parent(3, 2);
        f.shortcut_all(&t());
        assert!(f.max_height() <= 2);
        f.shortcut_all(&t());
        assert_eq!(f.max_height(), 1);
    }

    #[test]
    fn flatten_long_chain() {
        let n = 1000;
        let f = ParentForest::new(n);
        for v in 1..n as u32 {
            f.set_parent(v, v - 1);
        }
        f.flatten(&t());
        assert_eq!(f.max_height(), 1);
        assert_eq!(f.root_count(), 1);
        let tr = t();
        assert!((0..n as u32).all(|v| f.find_root(v, &tr) == 0));
    }

    #[test]
    fn labels_assign_roots() {
        let f = ParentForest::new(6);
        f.set_parent(1, 0);
        f.set_parent(2, 0);
        f.set_parent(4, 3);
        let l = f.labels(&t());
        assert_eq!(l, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let f = ParentForest::new(5);
        f.set_parent(1, 0);
        let snap = f.snapshot();
        f.set_parent(2, 0);
        f.set_parent(3, 0);
        f.restore(&snap);
        assert_eq!(f.parent(1), 0);
        assert!(f.is_root(2));
        assert!(f.is_root(3));
    }

    #[test]
    fn clone_is_independent() {
        let f = ParentForest::new(3);
        let g = f.clone();
        f.set_parent(1, 0);
        assert!(g.is_root(1));
    }

    #[test]
    fn shortcut_set_only_touches_set() {
        let f = ParentForest::new(6);
        f.set_parent(1, 0);
        f.set_parent(2, 1);
        f.set_parent(4, 3);
        f.set_parent(5, 4);
        f.shortcut_set(&[2], &t());
        assert_eq!(f.parent(2), 0);
        assert_eq!(f.parent(5), 4); // untouched
    }

    #[test]
    fn shortcut_charges_cost() {
        let f = ParentForest::new(10);
        let tr = t();
        f.shortcut_all(&tr);
        assert_eq!(tr.work(), 10);
        assert_eq!(tr.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn max_height_detects_cycles() {
        let f = ParentForest::new(2);
        f.set_parent(0, 1);
        f.set_parent(1, 0);
        let _ = f.max_height();
    }
}
