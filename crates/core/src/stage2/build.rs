//! BUILD(V, E, b) — the skeleton graph (paper §5.1).
//!
//! The skeleton `H` sub-samples the current graph while preserving the two
//! properties Stage 2 needs (Lemmas 5.4, 5.5): every component of `H` either
//! equals a component of the current graph exactly (small components are kept
//! verbatim — all their edges ride along with a low-degree vertex) or is
//! still large; and `|E(H)| ≤ (m+n)/polylog`.
//!
//! Degree classification uses the estimation subgraph: the current edges
//! themselves in the dense (Theorem-3) path, or the pre-sampled `H₂` in the
//! work-efficient path (§7.3, Lemma 7.4). Estimated degrees are tallied with
//! `fetch_add` counters — the CRCW hash-table occupancy tally of the paper
//! computes the same degree estimate; we charge the paper's `O(log b)`
//! counting depth.

use parcc_pram::cost::{ceil_log2, CostTracker};
use parcc_pram::crcw::Flags;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::primitives::simplify_edges;
use parcc_pram::rng::Stream;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Reusable per-vertex counters/marks for Stage 2.
#[derive(Debug)]
pub struct Stage2Scratch {
    /// Degree / child tally cells.
    pub counts: Vec<AtomicU32>,
    /// High-degree marks (BUILD).
    pub high: Flags,
    /// Head marks (INCREASE Step 5).
    pub head: Flags,
}

impl Stage2Scratch {
    /// Scratch for an `n`-vertex digraph.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut counts = Vec::with_capacity(n);
        counts.resize_with(n, || AtomicU32::new(0));
        Self {
            counts,
            high: Flags::new(n),
            head: Flags::new(n),
        }
    }

    /// Zero the tally cells and marks for the given vertices.
    pub fn clear_for(&self, verts: &[Vertex], tracker: &CostTracker) {
        tracker.charge(verts.len() as u64, 1);
        verts.par_iter().for_each(|&v| {
            self.counts[v as usize].store(0, Ordering::Relaxed);
            self.high.unset(v as usize);
            self.head.unset(v as usize);
        });
    }
}

/// The skeleton graph plus classification telemetry.
#[derive(Debug)]
pub struct Skeleton {
    /// `E(H)`: deduplicated, loop-free skeleton edges (ends are roots).
    pub edges: Vec<Edge>,
    /// Number of vertices classified high.
    pub high_count: usize,
}

/// Classify the active roots as high/low degree using `est_edges` (sampled
/// from the current graph with probability `est_rate`), leaving the marks in
/// `scratch.high`. Threshold: estimated current-graph degree ≥ `hi_factor·b`.
#[allow(clippy::too_many_arguments)] // the paper's signature
pub fn classify_degrees(
    est_edges: &[Edge],
    active: &[Vertex],
    b: u64,
    hi_factor: u32,
    est_rate: f64,
    scratch: &Stage2Scratch,
    tracker: &CostTracker,
) -> usize {
    scratch.clear_for(active, tracker);
    // Tally sampled degrees (multiplicity degree, as in Lemma 7.4).
    tracker.charge(est_edges.len() as u64, 1);
    est_edges.par_iter().for_each(|e| {
        scratch.counts[e.u() as usize].fetch_add(1, Ordering::Relaxed);
        if !e.is_loop() {
            scratch.counts[e.v() as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
    // The paper tallies hash-table occupancy with a binary tree: log-depth.
    let tau = ((hi_factor as f64) * (b as f64) * est_rate).max(1.0) as u32;
    tracker.charge(active.len() as u64, ceil_log2(tau.max(2) as u64));
    active
        .par_iter()
        .filter(|&&v| {
            let hi = scratch.counts[v as usize].load(Ordering::Relaxed) >= tau;
            if hi {
                scratch.high.set(v as usize);
            }
            hi
        })
        .count()
}

/// BUILD(V, E, b), dense path: classify by the current edges themselves,
/// keep every edge touching a low vertex, down-sample high–high edges with
/// probability `q`, and deduplicate.
#[must_use]
#[allow(clippy::too_many_arguments)] // the paper's signature
pub fn build_skeleton(
    cur_edges: &[Edge],
    active: &[Vertex],
    b: u64,
    hi_factor: u32,
    q: f64,
    scratch: &Stage2Scratch,
    stream: Stream,
    tracker: &CostTracker,
) -> Skeleton {
    let high_count = classify_degrees(cur_edges, active, b, hi_factor, 1.0, scratch, tracker);
    tracker.charge(cur_edges.len() as u64, 1);
    let kept: Vec<Edge> = cur_edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            let both_high = scratch.high.get(e.u() as usize) && scratch.high.get(e.v() as usize);
            if !both_high || stream.coin(i as u64, q) {
                Some(e)
            } else {
                None
            }
        })
        .collect();
    let edges = simplify_edges(&kept, true, tracker);
    Skeleton { edges, high_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{component_count, components};
    use parcc_graph::Graph;

    fn active_of(g: &Graph) -> Vec<Vertex> {
        (0..g.n() as u32).collect()
    }

    #[test]
    fn classify_splits_by_degree() {
        // Star: center has huge degree, leaves degree 1.
        let g = gen::star(200);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let hc = classify_degrees(g.edges(), &active_of(&g), 8, 8, 1.0, &scratch, &tracker);
        assert_eq!(hc, 1);
        assert!(scratch.high.get(0));
        assert!(!scratch.high.get(1));
    }

    #[test]
    fn low_edges_always_kept() {
        // A path: every vertex is low ⇒ the skeleton is the whole path.
        let g = gen::path(100);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let sk = build_skeleton(
            g.edges(),
            &active_of(&g),
            8,
            8,
            0.05,
            &scratch,
            Stream::new(1, 1),
            &tracker,
        );
        assert_eq!(sk.high_count, 0);
        assert_eq!(sk.edges.len(), g.m());
    }

    #[test]
    fn high_high_edges_are_sampled() {
        // Complete graph with b tuned so all vertices are high.
        let g = gen::complete(120);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let sk = build_skeleton(
            g.edges(),
            &active_of(&g),
            4,
            8,
            0.1,
            &scratch,
            Stream::new(2, 2),
            &tracker,
        );
        assert_eq!(sk.high_count, 120);
        let frac = sk.edges.len() as f64 / g.m() as f64;
        assert!(frac < 0.2, "skeleton kept too much: {frac}");
        assert!(frac > 0.02, "skeleton kept too little: {frac}");
    }

    #[test]
    fn small_components_preserved_exactly_lemma_5_4() {
        // Tiny cliques (low degree) + one dense expander (high degree).
        let mut parts: Vec<Graph> = (0..10).map(|_| gen::complete(4)).collect();
        parts.push(gen::random_regular(400, 40, 3));
        let g = Graph::disjoint_union(&parts);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let sk = build_skeleton(
            g.edges(),
            &active_of(&g),
            4,
            4,
            0.3,
            &scratch,
            Stream::new(3, 3),
            &tracker,
        );
        let h = Graph::new(g.n(), sk.edges.clone());
        let ours = components(&h);
        // Every small-clique component must be preserved *exactly*.
        for base in (0..40).step_by(4) {
            for v in base..base + 4 {
                assert_eq!(ours[v], ours[base], "small component split at vertex {v}");
            }
        }
        // And H must not merge components (it is a subgraph).
        assert!(component_count(&h) >= component_count(&g));
    }

    #[test]
    fn skeleton_has_no_loops_or_duplicates() {
        let g = Graph::from_pairs(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let sk = build_skeleton(
            g.edges(),
            &active_of(&g),
            8,
            8,
            1.0,
            &scratch,
            Stream::new(4, 4),
            &tracker,
        );
        assert_eq!(sk.edges, vec![Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn estimation_rate_scales_threshold() {
        let g = gen::star(41);
        let sampled = g.edge_sampled(0.5, 7);
        let scratch = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let hc = classify_degrees(
            sampled.edges(),
            &active_of(&g),
            8,
            4,
            0.5,
            &scratch,
            &tracker,
        );
        assert_eq!(hc, 1, "center should classify high through the sample");
    }
}
