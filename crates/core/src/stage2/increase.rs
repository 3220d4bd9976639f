//! INCREASE(V, E, b) (paper §5.3): raise the degree of every surviving root
//! of the current graph to ≥ `b`.
//!
//! After DENSIFY, vertices re-point at their tree roots (the paper's
//! `v.p^{(2R+1)}` replay — realized as a bounded root-chase),
//! trees are tallied, *heads* (≥ 2b children) absorb non-heads across
//! `E_close` edges, and a leader/non-leader coin round merges what remains.
//! Lemma 5.25: every vertex that is still a root afterwards has current-graph
//! degree ≥ b; Lemma 5.24: small skeleton components are completely finished
//! and can be ignored from here on.

use crate::params::Params;
use crate::stage1::reduce::distinct_endpoints;
use crate::stage1::Stage1Scratch;
use crate::stage2::build::Stage2Scratch;
use crate::stage2::densify::{densify, DensifyOutcome};
use parcc_pram::cost::{ceil_log2, CostTracker};
use parcc_pram::crcw::Flags;
use parcc_pram::edge::Edge;
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;
use parcc_pram::rng::Stream;
use rayon::prelude::*;
use std::sync::atomic::Ordering;

use super::CurrentGraph;

/// Telemetry from one INCREASE call.
#[derive(Debug)]
pub struct IncreaseOutcome {
    /// DENSIFY's report.
    pub densify: DensifyOutcome,
    /// Number of heads (trees with ≥ 2b members).
    pub heads: usize,
}

/// Steps 2–9 of INCREASE over the given current-graph vertex set, *without*
/// the final `ALTER(E)` — the shared body of the dense (Theorem-3) path and
/// the work-efficient path of §7.3, where the expensive `ALTER(E(G'))` is
/// replaced by altering the small sampled subgraph instead.
#[allow(clippy::too_many_arguments)] // the paper's signature
pub fn increase_core(
    active: &[parcc_pram::edge::Vertex],
    skeleton_edges: Vec<Edge>,
    b: u64,
    forest: &ParentForest,
    params: &Params,
    s2: &Stage2Scratch,
    seed: u64,
    tracker: &CostTracker,
) -> IncreaseOutcome {
    // Step 2: DENSIFY the skeleton.
    let dens = densify(skeleton_edges, b, forest, params, seed, tracker);
    let eclose = &dens.eclose;

    // Steps 3–4: every current-graph vertex re-points at its tree root and
    // is tallied there (the paper's hash table H'(u); `fetch_add` computes
    // the same distinct-children count). Depth: the paper's O(R) replay.
    s2.clear_for(active, tracker);
    tracker.charge(active.len() as u64, params.densify_rounds(b));
    active.par_iter().for_each(|&v| {
        let u = forest.find_root(v, tracker);
        s2.counts[u as usize].fetch_add(1, Ordering::Relaxed);
        forest.set_parent(v, u);
    });

    // Step 5: heads have at least 2b tree members.
    tracker.charge(active.len() as u64, ceil_log2(b.max(2)));
    let heads = active
        .par_iter()
        .filter(|&&v| {
            let is_head = s2.counts[v as usize].load(Ordering::Relaxed) as u64 >= 2 * b;
            if is_head {
                s2.head.set(v as usize);
            }
            is_head
        })
        .count();

    // Step 6: non-head roots hook under adjacent head roots.
    tracker.charge(eclose.len() as u64, 1);
    eclose.par_iter().for_each(|e| {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            if v != w
                && forest.is_root(v)
                && forest.is_root(w)
                && s2.head.get(v as usize)
                && !s2.head.get(w as usize)
            {
                forest.set_parent(w, v);
            }
        }
    });

    // Step 7: SHORTCUT(V).
    forest.shortcut_set(active, tracker);

    // Step 8: leader/non-leader merge (leaders at p = 1/2; a root hooks only
    // under a root of opposite leader polarity, so no cycles can form).
    let leader = Flags::new(forest.len());
    let coin = Stream::new(seed, 0x1ead);
    tracker.charge(active.len() as u64 + eclose.len() as u64, 2);
    active.par_iter().for_each(|&v| {
        if coin.coin(v as u64, 0.5) {
            leader.set(v as usize);
        }
    });
    eclose.par_iter().for_each(|e| {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            if v != w
                && forest.is_root(v)
                && forest.is_root(w)
                && leader.get(v as usize)
                && !leader.get(w as usize)
            {
                forest.set_parent(w, forest.parent(v));
            }
        }
    });

    // Step 9: SHORTCUT(V).
    forest.shortcut_set(active, tracker);

    IncreaseOutcome {
        densify: dens,
        heads,
    }
}

/// Dense-path INCREASE: the core followed by the Step-10 `ALTER(E)` and a
/// refresh of the current vertex set.
#[allow(clippy::too_many_arguments)] // the paper's signature
pub fn increase(
    cur: &mut CurrentGraph,
    skeleton_edges: Vec<Edge>,
    b: u64,
    forest: &ParentForest,
    params: &Params,
    s1: &Stage1Scratch,
    s2: &Stage2Scratch,
    seed: u64,
    tracker: &CostTracker,
) -> IncreaseOutcome {
    let out = increase_core(
        &cur.active,
        skeleton_edges,
        b,
        forest,
        params,
        s2,
        seed,
        tracker,
    );
    // Step 10: ALTER(E) and refresh the current vertex set. Loops are
    // **kept** — the paper's §5.3/§6 current graph retains them: a
    // contracted region's internal edges become loops that carry its degree
    // (Lemma 5.25 counts them) and its lazy-walk spectral gap (§6: "Our edge
    // sampling in Stage 3 will operate on all edges including loops").
    alter_edges(forest, &mut cur.edges, false, tracker);
    cur.active = distinct_endpoints(&cur.edges, s1, tracker);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::reduce::reduce;
    use crate::stage2::build::build_skeleton;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::components;
    use parcc_graph::Graph;

    /// Stage 1 + dense BUILD + INCREASE on `g`; returns the forest and the
    /// final current graph.
    fn run_pipeline(g: &Graph, b: u64, seed: u64) -> (ParentForest, CurrentGraph) {
        let n = g.n();
        let forest = ParentForest::new(n);
        let s1 = Stage1Scratch::new(n);
        let s2 = Stage2Scratch::new(n);
        let tracker = CostTracker::new();
        // Weakened Stage 1 and DENSIFY budgets so INCREASE receives a live
        // remnant (otherwise the degree assertion would hold vacuously).
        let mut params = Params::for_n(n).with_seed(seed);
        params.extract_rounds = 0;
        params.reduce_rounds = 0;
        params.densify_rounds_per_log_b = 1;
        params.bounded_solve_rounds = 0;
        let out = reduce(g.edges(), &params, &forest, &s1, &tracker);
        let mut cur = CurrentGraph {
            edges: out.edges,
            active: out.active,
        };
        let sk = build_skeleton(
            &cur.edges,
            &cur.active,
            b,
            params.hi_threshold_factor,
            params.sparsify_prob,
            &s2,
            Stream::new(seed, 0xb11d),
            &tracker,
        );
        let _ = increase(
            &mut cur, sk.edges, b, &forest, &params, &s1, &s2, seed, &tracker,
        );
        (forest, cur)
    }

    fn degree_of_roots(cur: &CurrentGraph) -> std::collections::HashMap<u32, u64> {
        let mut deg = std::collections::HashMap::new();
        for e in &cur.edges {
            *deg.entry(e.u()).or_insert(0) += 1;
            if e.u() != e.v() {
                *deg.entry(e.v()).or_insert(0) += 1;
            }
        }
        deg
    }

    #[test]
    fn lemma_5_25_min_degree_reaches_b() {
        // A long cycle under weakened budgets leaves a live remnant; every
        // surviving root must then have degree ≥ b.
        let g = gen::cycle(1 << 14);
        let b = 16;
        let (_, cur) = run_pipeline(&g, b, 1);
        assert!(
            !cur.active.is_empty(),
            "workload fully contracted — test became vacuous; shrink budgets"
        );
        let deg = degree_of_roots(&cur);
        for (&v, &d) in &deg {
            assert!(
                d >= b,
                "root {v} has degree {d} < b={b} ({} active)",
                cur.active.len()
            );
        }
    }

    #[test]
    fn contraction_respects_components() {
        let g = gen::mixture(11);
        let truth = components(&g);
        let (forest, _) = run_pipeline(&g, 16, 2);
        let tr = CostTracker::new();
        for v in 0..g.n() as u32 {
            let r = forest.find_root(v, &tr);
            assert_eq!(truth[r as usize], truth[v as usize]);
        }
    }

    #[test]
    fn small_components_fully_finish_lemma_5_24() {
        // Lemma 5.24's post-condition verbatim: all edges adjacent to a
        // small component's vertices must be loops (the component is done;
        // its loops stay in the current graph carrying its degree).
        let parts: Vec<Graph> = (0..20).map(|_| gen::complete(5)).collect();
        let g = Graph::disjoint_union(&parts).permuted(5);
        let (forest, cur) = run_pipeline(&g, 16, 3);
        for e in &cur.edges {
            assert!(e.is_loop(), "non-loop edge {:?} survived", e.ends());
        }
        // And each clique is one tree.
        let truth = components(&g);
        let tr = CostTracker::new();
        for v in 0..g.n() as u32 {
            let r = forest.find_root(v, &tr);
            assert_eq!(truth[r as usize], truth[v as usize]);
        }
    }

    #[test]
    fn cycle_survives_with_degree_or_finishes() {
        // Cycles have tiny gap; INCREASE still must not split them, and any
        // surviving root must meet the degree bound or the component is done.
        let g = gen::cycle(3000);
        let b = 8;
        let (forest, cur) = run_pipeline(&g, b, 7);
        let tr = CostTracker::new();
        let r0 = forest.find_root(0, &tr);
        for v in 0..g.n() as u32 {
            assert_eq!(forest.find_root(v, &tr), r0, "cycle split at {v}");
        }
        let _ = cur;
    }
}
