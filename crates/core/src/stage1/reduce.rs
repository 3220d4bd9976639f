//! REDUCE(V, E, k) — the `poly(log n)`-shrink (paper §4.3), Stage 1's entry
//! point.
//!
//! EXTRACT knocks the vertex count down to `n/log log n`; a long FILTER then
//! separates the dense part `V'`; the sparse remainder `E'` (expected `O(1)`
//! edges per surviving vertex, Lemma 4.15) is contracted by `k` MATCHING
//! rounds; REVERSE re-roots at the dense part. Lemma 4.25: the current graph
//! ends with `n/polylog n` vertices, in `O(log log n)` depth and linear work.

use crate::params::Params;
use crate::stage1::extract::extract;
use crate::stage1::filter::{filter, reverse};
use crate::stage1::matching::matching;
use crate::stage1::scratch::Stage1Scratch;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// The current graph after Stage 1.
#[derive(Debug)]
pub struct Stage1Output {
    /// Altered edge set: loop-free, both ends roots.
    pub edges: Vec<Edge>,
    /// The current-graph vertex set: distinct roots with adjacent edges.
    pub active: Vec<Vertex>,
}

/// Distinct endpoints of `edges` (claim-once through the scratch marks).
pub(crate) fn distinct_endpoints(
    edges: &[Edge],
    scratch: &Stage1Scratch,
    tracker: &CostTracker,
) -> Vec<Vertex> {
    tracker.charge(edges.len() as u64, 1);
    let verts: Vec<Vertex> = edges
        .par_iter()
        .flat_map_iter(|e| [e.u(), e.v()])
        .filter(|&v| scratch.vert_mark.try_claim(v as usize, 2))
        .collect();
    verts
        .par_iter()
        .for_each(|&v| scratch.vert_mark.clear(v as usize));
    verts
}

/// Run Stage 1 on the input graph's edge list, contracting into `forest`.
///
/// Post-conditions (Lemma 4.21 made explicit by a final cleanup): every tree
/// in the labeled digraph is flat, and both ends of every returned edge are
/// roots.
#[must_use]
pub fn reduce(
    input_edges: &[Edge],
    params: &Params,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    tracker: &CostTracker,
) -> Stage1Output {
    reduce_vec(input_edges.to_vec(), params, forest, scratch, tracker)
}

/// Stage-1 entry for shard-chunked inputs (`GraphStore` backends): the
/// working copy is assembled straight from the shard slices — one
/// exact-size allocation, no intermediate flat graph — and then follows
/// the identical pipeline, so a single shard is bit-for-bit [`reduce`].
#[must_use]
pub fn reduce_sharded(
    shards: &[&[Edge]],
    params: &Params,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    tracker: &CostTracker,
) -> Stage1Output {
    let total = shards.iter().map(|s| s.len()).sum();
    let mut e = Vec::with_capacity(total);
    for s in shards {
        e.extend_from_slice(s);
    }
    reduce_vec(e, params, forest, scratch, tracker)
}

/// The shared Stage-1 body: consumes the working edge vector in place.
fn reduce_vec(
    mut e: Vec<Edge>,
    params: &Params,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    tracker: &CostTracker,
) -> Stage1Output {
    let stream = Stream::new(params.seed, 0x51a6e1);
    tracker.charge(e.len() as u64, 1);
    alter_edges(forest, &mut e, true, tracker);

    // Step 1: EXTRACT (the log log n shrink).
    let _ = extract(
        &mut e,
        params.extract_rounds,
        params.filter_delete_prob,
        forest,
        scratch,
        stream.substream(1),
        tracker,
    );

    // Step 2: the long FILTER separates the dense part V'.
    let out = filter(
        &e,
        params.reduce_rounds,
        params.filter_delete_prob,
        forest,
        scratch,
        stream.substream(2),
        tracker,
    );
    let v_prime = out.survivors;

    // Step 3: flatten the hooks and realign E.
    forest.shortcut_set(&out.hooked, tracker);
    alter_edges(forest, &mut e, true, tracker);

    // Step 4: E' = the edges not internal to V'.
    tracker.charge(v_prime.len() as u64, 1);
    v_prime
        .par_iter()
        .for_each(|&v| scratch.in_vprime.set(v as usize));
    let mut e_sparse: Vec<Edge> = e
        .par_iter()
        .copied()
        .filter(|ed| {
            !(scratch.in_vprime.get(ed.u() as usize) && scratch.in_vprime.get(ed.v() as usize))
        })
        .collect();
    tracker.charge(e.len() as u64, 1);

    // Step 5: contract the sparse part with MATCHING rounds.
    for round in 0..params.reduce_rounds {
        if e_sparse.is_empty() {
            break;
        }
        let tag = scratch.next_tag();
        let hooked = matching(
            &mut e_sparse,
            forest,
            scratch,
            stream.substream(0x500 + round as u64),
            tag,
            tracker,
        );
        forest.shortcut_set(&hooked, tracker);
        alter_edges(forest, &mut e_sparse, true, tracker);
    }

    // Step 6: REVERSE(V', E).
    reverse(&v_prime, &mut e, forest, tracker);
    v_prime
        .par_iter()
        .for_each(|&v| scratch.in_vprime.unset(v as usize));

    // Practical cleanup replacing the paper's interleaved shortcut schedule:
    // tree heights are O(1) at this point, so a full
    // flatten costs O(n) work over O(1) rounds and certifies Lemma 4.21's
    // post-condition exactly.
    forest.flatten(tracker);
    alter_edges(forest, &mut e, true, tracker);

    let active = distinct_endpoints(&e, scratch, tracker);
    Stage1Output { edges: e, active }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::components;
    use parcc_graph::Graph;

    fn run_reduce(g: &Graph, seed: u64) -> (ParentForest, Stage1Output, CostTracker) {
        let forest = ParentForest::new(g.n());
        let scratch = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let params = Params::for_n(g.n()).with_seed(seed);
        let out = reduce(g.edges(), &params, &forest, &scratch, &tracker);
        (forest, out, tracker)
    }

    #[test]
    fn postconditions_flat_and_on_roots() {
        for (g, seed) in [
            (gen::gnp(3000, 0.002, 1), 1u64),
            (gen::cycle(2048), 2),
            (gen::grid2d(40, 40, false), 3),
            (gen::mixture(4), 4),
        ] {
            let (forest, out, _) = run_reduce(&g, seed);
            assert!(forest.max_height() <= 1, "trees must be flat");
            for e in &out.edges {
                assert!(forest.is_root(e.u()) && forest.is_root(e.v()));
                assert!(!e.is_loop());
            }
        }
    }

    #[test]
    fn strong_contraction_on_connected_graphs() {
        let g = gen::gnp(8000, 0.002, 7);
        let (_, out, _) = run_reduce(&g, 5);
        assert!(
            out.active.len() < g.n() / 8,
            "reduce should shrink to a small fraction: {} of {}",
            out.active.len(),
            g.n()
        );
    }

    #[test]
    fn contraction_respects_components() {
        for seed in 0..3u64 {
            let g = gen::mixture(seed);
            let truth = components(&g);
            let (forest, _, _) = run_reduce(&g, seed);
            let tr = CostTracker::new();
            for v in 0..g.n() as u32 {
                let r = forest.find_root(v, &tr);
                assert_eq!(truth[r as usize], truth[v as usize]);
            }
        }
    }

    #[test]
    fn small_components_often_fully_contract() {
        // 30 tiny cliques: most must be done (single root, no edges) after
        // stage 1.
        let parts: Vec<Graph> = (0..30).map(|_| gen::complete(4)).collect();
        let g = Graph::disjoint_union(&parts).permuted(3);
        let (_, out, _) = run_reduce(&g, 9);
        assert!(
            out.active.len() < g.n() / 2,
            "tiny cliques should mostly contract, {} active",
            out.active.len()
        );
    }

    #[test]
    fn work_is_linear_ish() {
        let g = gen::gnp(20_000, 0.0005, 3);
        let (_, _, tracker) = run_reduce(&g, 11);
        let per_item = tracker.work() as f64 / (g.n() + g.m()) as f64;
        assert!(per_item < 500.0, "work per item {per_item}");
    }

    #[test]
    fn edgeless_input() {
        let g = Graph::new(100, vec![]);
        let (forest, out, _) = run_reduce(&g, 1);
        assert_eq!(forest.root_count(), 100);
        assert!(out.edges.is_empty());
        assert!(out.active.is_empty());
    }

    #[test]
    fn deterministic_per_seed_single_threaded() {
        // Coin flips are pure functions of the seed; CRCW race winners are
        // not. Under one thread the winners are pinned too, so the whole
        // run must be bit-reproducible.
        let g = gen::gnp(2000, 0.003, 5);
        let (f1, o1, _) = parcc_pram::run_single_threaded(|| run_reduce(&g, 42));
        let (f2, o2, _) = parcc_pram::run_single_threaded(|| run_reduce(&g, 42));
        assert_eq!(f1.snapshot(), f2.snapshot());
        assert_eq!(o1.edges, o2.edges);
    }
}
