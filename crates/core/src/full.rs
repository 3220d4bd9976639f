//! The overall algorithm (paper §7): CONNECTIVITY with **unknown** spectral
//! gap — Theorem 1.
//!
//! After Stage 1, the algorithm guesses `λ ≥ b^{-ε}` with `b = b₀` and tries
//! the Stage-2 + Stage-3 machinery under a time budget of `O(log b)`. If the
//! sampled subgraph `H₁` fully contracts, the guess was good enough: the
//! `[KKT95]` REMAIN pass finishes the unsampled inter-component edges and we
//! are done. Otherwise the labeled digraph is reverted, the gap guess is
//! raised to `b^{growth}` (double-exponential progress, §3.4), and — to pay
//! for the next, more expensive phase — the current graph is shrunk further
//! by MATCHING rounds over the persistent `E_filter` edge set.
//!
//! Work-efficiency machinery from §7.3/§7.4: degree classification reads the
//! pre-sampled `H₂` instead of all of `E(G′)` (SPARSEBUILD), and the edges
//! of low-degree vertices are fetched through the [`AuxArray`] — a
//! padded-sorted adjacency index built once — so each phase costs
//! `O((m+n)/polylog)` instead of `O(m)`.
//!
//! Library guarantee: if every phase fails (impossible for the theory, but
//! the library promises correctness, not "w.h.p. correctness"), a final
//! Theorem-2 pass over the remaining current graph finishes the job.

use crate::params::Params;
use crate::stage1::reduce::{distinct_endpoints, reduce_sharded};
use crate::stage1::{filter::reverse, matching, Stage1Scratch};
use crate::stage2::{classify_degrees, increase_core, CurrentGraph, Stage2Scratch};
use parcc_graph::Graph;
use parcc_ltz::connect::{ltz_connectivity, LtzParams, LtzStats};
use parcc_ltz::round::LtzEngine;
use parcc_ltz::state::Budget;
use parcc_pram::arena::SolverArena;
use parcc_pram::cost::{ceil_log2, ceil_loglog, Cost, CostTracker};
use parcc_pram::crcw::Flags;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges_with;
use parcc_pram::primitives::{padded_sort, retain_edges_with, simplify_edges_with};
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// The auxiliary adjacency array (paper §7.4.1, BUILDAUXILIARY): the current
/// graph's directed edges padded-sorted by first endpoint, built **once**
/// after Stage 1, so that per-phase extraction of a low-degree vertex's edges
/// costs output size, not `O(m)`.
#[derive(Debug)]
pub struct AuxArray {
    offsets: Vec<u32>,
    targets: Vec<Vertex>,
    /// Vertices with non-empty adjacency, i.e. `V(G′)`.
    verts: Vec<Vertex>,
}

impl AuxArray {
    /// Below this half-edge count the counting pass stays sequential.
    const PAR_CUTOFF: usize = 1 << 13;

    /// Build from the post-Stage-1 current edges (`O(m)` work, padded-sort
    /// depth). The per-vertex counting runs as chunked private histograms
    /// (the same contention-free pattern as `Graph::degrees`), and the
    /// `targets` column is filled during that same pass rather than by a
    /// second scan of the sorted half-edges.
    #[must_use]
    pub fn build(n: usize, edges: &[Edge], tracker: &CostTracker) -> Self {
        let mut directed: Vec<Edge> = Vec::with_capacity(edges.len() * 2);
        directed.extend(edges.iter().copied());
        directed.extend(edges.iter().map(|e| e.rev()));
        padded_sort(&mut directed, tracker);
        tracker.charge(directed.len() as u64 + n as u64, 2);
        let m2 = directed.len();
        let mut targets = vec![0 as Vertex; m2];
        // The parallel path pays one n-sized private histogram per chunk;
        // on a contracted current graph (n ≫ m2) that would dwarf the
        // counting itself, so it also requires the edges to outnumber the
        // vertices.
        let mut offsets: Vec<u32> = if m2 < Self::PAR_CUTOFF || n > m2 {
            let mut counts = vec![0u32; n + 1];
            for (e, t) in directed.iter().zip(&mut targets) {
                counts[e.u() as usize + 1] += 1;
                *t = e.v();
            }
            counts
        } else {
            let chunk = m2
                .div_ceil((rayon::current_num_threads() * 4).max(1))
                .max(Self::PAR_CUTOFF / 2);
            directed
                .par_chunks(chunk)
                .zip(targets.par_chunks_mut(chunk))
                .with_min_len(1)
                .map(|(es, ts)| {
                    let mut counts = vec![0u32; n + 1];
                    for (e, t) in es.iter().zip(ts) {
                        counts[e.u() as usize + 1] += 1;
                        *t = e.v();
                    }
                    counts
                })
                .reduce(
                    || vec![0u32; n + 1],
                    |mut a, b| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                        a
                    },
                )
        };
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let verts: Vec<Vertex> = (0..n as u32)
            .into_par_iter()
            .filter(|&v| offsets[v as usize + 1] > offsets[v as usize])
            .collect();
        Self {
            offsets,
            targets,
            verts,
        }
    }

    /// The recorded neighbours of `u` (as of Stage-1 time).
    #[must_use]
    pub fn neighbors(&self, u: Vertex) -> &[Vertex] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// `V(G′)`.
    #[must_use]
    pub fn verts(&self) -> &[Vertex] {
        &self.verts
    }

    /// Collect the **altered** edges of every vertex whose current root
    /// satisfies `emit_root` (paper §7.4.2/§7.4.3: the wake-up extraction;
    /// work ∝ scan of `V(G′)` + output). Loops are dropped.
    #[must_use]
    pub fn extract_altered(
        &self,
        forest: &ParentForest,
        emit_root: impl Fn(Vertex) -> bool + Sync,
        tracker: &CostTracker,
    ) -> Vec<Edge> {
        let out: Vec<Edge> = self
            .verts
            .par_iter()
            .flat_map_iter(|&u| {
                let ru = forest.find_root(u, tracker);
                let slice: &[Vertex] = if emit_root(ru) {
                    self.neighbors(u)
                } else {
                    &[]
                };
                slice.iter().filter_map(move |&w| {
                    let rw = forest.find_root(w, tracker);
                    (ru != rw).then_some(Edge::new(ru, rw))
                })
            })
            .collect();
        tracker.charge(self.verts.len() as u64 + out.len() as u64, 2);
        out
    }
}

/// Telemetry for a single INTERWEAVE phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTrace {
    /// The gap guess `b` for this phase.
    pub b: u64,
    /// Live current-graph vertices entering the phase.
    pub active_before: usize,
    /// EXPAND-MAXLINK rounds spent on the `H₁` attempt.
    pub solve_rounds: u64,
    /// Did the attempt contract all of `H₁` (phase succeeded)?
    pub solved: bool,
    /// Simulated cost spent in this phase.
    pub cost: Cost,
}

/// Telemetry for a full CONNECTIVITY run.
#[derive(Debug, Clone, Default)]
pub struct ConnectivityStats {
    /// Cost of Stage 1.
    pub stage1: Cost,
    /// Per-phase traces.
    pub phases: Vec<PhaseTrace>,
    /// Phase index that solved (None ⇒ the final safety pass did).
    pub solved_at_phase: Option<u32>,
    /// Theorem-2 telemetry of the REMAIN pass.
    pub remain: LtzStats,
    /// Edges handled by REMAIN.
    pub remain_edges: usize,
    /// Total simulated cost.
    pub total: Cost,
    /// High-water bytes retained by the run's reusable buffer pool.
    pub arena_peak_bytes: u64,
}

/// SPARSEBUILD(G′, H₂, b) (paper §7.3.1): classify degrees from `H₂`, pull
/// the low vertices' edges through the aux array, and union with `H₂`.
#[allow(clippy::too_many_arguments)]
fn sparse_build(
    aux: &AuxArray,
    h2_edges: &[Edge],
    live: &[Vertex],
    b: u64,
    params: &Params,
    s2: &Stage2Scratch,
    forest: &ParentForest,
    arena: &mut SolverArena,
    tracker: &CostTracker,
) -> Vec<Edge> {
    // Steps 1–3: high/low classification from the sampled subgraph.
    let _ = classify_degrees(
        h2_edges,
        live,
        b,
        params.hi_threshold_factor,
        params.sparsify_prob,
        s2,
        tracker,
    );
    // Step 4: E' = the altered edges of vertices with a low root.
    let low_edges = aux.extract_altered(forest, |r| !s2.high.get(r as usize), tracker);
    // Step 5: E' ∪ E(H₂).
    let mut skeleton = low_edges;
    skeleton.extend_from_slice(h2_edges);
    let out = simplify_edges_with(&skeleton, true, arena, tracker);
    arena.give_edges(skeleton);
    out
}

/// CONNECTIVITY(G) — Theorem 1. Returns component labels (a canonical root
/// per vertex) and the run telemetry.
#[must_use]
pub fn connectivity(
    g: &Graph,
    params: &Params,
    tracker: &CostTracker,
) -> (Vec<Vertex>, ConnectivityStats) {
    connectivity_sharded(g.n(), &[g.edges()], params, tracker)
}

/// CONNECTIVITY over shard-chunked edge slices — the `GraphStore`-native
/// entry point. Stage 1 assembles its working copy per shard
/// ([`reduce_sharded`]), so a sharded store solves without ever
/// materializing a flat [`Graph`]; with a single shard this is exactly
/// [`connectivity`].
#[must_use]
pub fn connectivity_sharded(
    n: usize,
    shards: &[&[Edge]],
    params: &Params,
    tracker: &CostTracker,
) -> (Vec<Vertex>, ConnectivityStats) {
    let forest = ParentForest::new(n);
    let s1 = Stage1Scratch::new(n);
    let s2 = Stage2Scratch::new(n);
    let mut arena = SolverArena::new();
    let mut stats = ConnectivityStats::default();
    let start = tracker.snapshot();

    // Step 2: Stage 1 preprocessing.
    let out = reduce_sharded(shards, params, &forest, &s1, tracker);
    let cur = CurrentGraph {
        edges: out.edges,
        active: out.active,
    };
    stats.stage1 = tracker.snapshot().since(start);

    // Step 3: the pre-sampled subgraphs H₁ (solve attempts) and H₂
    // (skeleton building), with independent randomness (§3.4).
    let h1_stream = Stream::new(params.seed, 0x111);
    let h2_stream = Stream::new(params.seed, 0x222);
    tracker.charge(cur.edges.len() as u64 * 2, 2);
    let h1_mask: Vec<bool> = (0..cur.edges.len() as u64)
        .into_par_iter()
        .map(|i| h1_stream.coin(i, params.sparsify_prob))
        .collect();
    let h1_edges: Vec<Edge> = cur
        .edges
        .par_iter()
        .zip(h1_mask.par_iter())
        .filter_map(|(&e, &keep)| keep.then_some(e))
        .collect();
    let mut h2_edges: Vec<Edge> = cur
        .edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| h2_stream.coin(i as u64, params.sparsify_prob).then_some(e))
        .collect();

    // Step 4: the persistent filter edge set and the auxiliary array.
    let mut efilter = cur.edges.clone();
    tracker.charge(efilter.len() as u64, 1);
    let aux = AuxArray::build(n, &cur.edges, tracker);
    let mut live: Vec<Vertex> = cur.active.clone();
    let filter_stream = Stream::new(params.seed, 0xf17);

    let ltz_params = LtzParams {
        budget: Budget::for_n(n),
        ..LtzParams::for_n(n).with_seed(params.seed ^ 0x99)
    };

    // Step 5: the phase loop.
    let mut solved = false;
    for i in 0..params.max_phases {
        let phase_start = tracker.snapshot();
        let b = params.b_at_phase(i);
        tracker.charge(live.len() as u64, 1);
        live.retain(|&v| forest.is_root(v));
        let active_before = live.len();
        if cur.edges.is_empty() || active_before == 0 {
            solved = true;
            stats.solved_at_phase = Some(i);
            break;
        }

        // ---- Try the guess: INCREASE (sparse) + solve H₁ (Steps 2–4). ----
        let snapshot = forest.snapshot();
        tracker.charge(live.len() as u64, 1); // paper copies V(G′)'s parents
        let skeleton = sparse_build(
            &aux, &h2_edges, &live, b, params, &s2, &forest, &mut arena, tracker,
        );
        let _ = increase_core(
            &live,
            skeleton,
            b,
            &forest,
            params,
            &s2,
            params.seed ^ (0x1000 + i as u64),
            tracker,
        );
        // Fresh engine over (a copy of) H₁: construction ALTERs it to the
        // contracted digraph. Budgets: 20·log b EXPAND-MAXLINK rounds plus
        // the bounded Theorem-2 tail.
        let mut engine = LtzEngine::new(
            n,
            h1_edges.clone(),
            &forest,
            Budget::for_n(n),
            params.seed ^ (0x2000 + i as u64),
            tracker,
        );
        let round_budget = params.densify_rounds(b) + params.bounded_solve_rounds;
        let mut solve_rounds = 0;
        while !engine.is_done() && solve_rounds < round_budget {
            engine.step(&forest, tracker);
            solve_rounds += 1;
        }
        let attempt_done = engine.is_done() && i >= params.force_phase_failures;
        drop(engine);

        if attempt_done {
            // ---- REMAIN (Step 4 / §7.1): finish the unsampled edges. ----
            let mut eremain: Vec<Edge> = cur
                .edges
                .par_iter()
                .zip(h1_mask.par_iter())
                .filter_map(|(&e, &in_h1)| (!in_h1).then_some(e))
                .collect();
            tracker.charge(cur.edges.len() as u64, 1);
            alter_edges_with(&forest, &mut eremain, true, &mut arena, tracker);
            let simplified = simplify_edges_with(&eremain, true, &mut arena, tracker);
            arena.give_edges(eremain);
            let eremain = simplified;
            stats.remain_edges = eremain.len();
            stats.remain = ltz_connectivity(eremain, &forest, ltz_params, tracker);
            solved = true;
            stats.solved_at_phase = Some(i);
            stats.phases.push(PhaseTrace {
                b,
                active_before,
                solve_rounds,
                solved: true,
                cost: tracker.snapshot().since(phase_start),
            });
            break;
        }

        // ---- Step 5: wrong guess — revert the try. ----
        forest.restore(&snapshot);
        tracker.charge(live.len() as u64, 1);

        // ---- Step 6: shrink E_filter with MATCHING rounds. ----
        let next_b = params.b_at_phase(i + 1);
        let rounds = 4 + 2 * ceil_log2(next_b.min(1 << 40));
        let mut hooked_all: Vec<Vertex> = Vec::new();
        for r in 0..rounds {
            if efilter.is_empty() {
                break;
            }
            let tag = s1.next_tag();
            let hooked = matching(
                &mut efilter,
                &forest,
                &s1,
                filter_stream.substream((i as u64) << 16 | r),
                tag,
                tracker,
            );
            hooked_all.extend_from_slice(&hooked);
            forest.shortcut_set(&hooked, tracker);
            alter_edges_with(&forest, &mut efilter, true, &mut arena, tracker);
            let del = filter_stream.substream(0xdead_0000 | (i as u64) << 8 | r);
            retain_edges_with(
                &mut efilter,
                |&ed| !del.coin(ed.0, params.filter_delete_prob),
                &mut arena,
                tracker,
            );
        }

        // ---- Step 7: shortcuts flatten what the matchings built. ----
        let vfilter = distinct_endpoints(&efilter, &s1, tracker);
        let sweeps = 2 + i as u64 + ceil_loglog(n.max(4) as u64);
        for _ in 0..sweeps {
            forest.shortcut_set(&hooked_all, tracker);
            forest.shortcut_set(&vfilter, tracker);
        }

        // ---- Step 8: E' = edges of vertices outside V(E_filter). ----
        let in_vfilter = Flags::new(n);
        tracker.charge(vfilter.len() as u64, 1);
        vfilter.par_iter().for_each(|&v| in_vfilter.set(v as usize));
        let mut e_extra = aux.extract_altered(&forest, |r| !in_vfilter.get(r as usize), tracker);

        // ---- Step 9: contract E' with MATCHING rounds. ----
        for r in 0..rounds {
            if e_extra.is_empty() {
                break;
            }
            let tag = s1.next_tag();
            let hooked = matching(
                &mut e_extra,
                &forest,
                &s1,
                filter_stream.substream(0xe0000 | (i as u64) << 8 | r),
                tag,
                tracker,
            );
            forest.shortcut_set(&hooked, tracker);
            alter_edges_with(&forest, &mut e_extra, true, &mut arena, tracker);
        }

        // ---- Step 10: REVERSE(V(E_filter), E(H₂)). ----
        reverse(&vfilter, &mut h2_edges, &forest, tracker);

        stats.phases.push(PhaseTrace {
            b,
            active_before,
            solve_rounds,
            solved: false,
            cost: tracker.snapshot().since(phase_start),
        });
    }

    if !solved {
        // Library safety pass: all phases failed — finish the
        // remnant current graph directly with Theorem 2.
        let mut remnant = cur.edges.clone();
        alter_edges_with(&forest, &mut remnant, true, &mut arena, tracker);
        let remnant = simplify_edges_with(&remnant, true, &mut arena, tracker);
        stats.remain_edges = remnant.len();
        stats.remain = ltz_connectivity(remnant, &forest, ltz_params, tracker);
    }

    // Step 6 of CONNECTIVITY + final flatten for clean labels.
    forest.flatten(tracker);
    let labels = forest.labels(tracker);
    stats.total = tracker.snapshot().since(start);
    stats.arena_peak_bytes = arena.stats().peak_bytes;
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn check(g: &Graph, seed: u64) -> ConnectivityStats {
        let params = Params::for_n(g.n()).with_seed(seed);
        let tracker = CostTracker::new();
        let (labels, stats) = connectivity(g, &params, &tracker);
        assert!(
            same_partition(&labels, &components(g)),
            "wrong partition on n={} m={}",
            g.n(),
            g.m()
        );
        stats
    }

    #[test]
    fn correct_on_standard_families() {
        for (g, seed) in [
            (gen::path(2000), 1u64),
            (gen::cycle(1500), 2),
            (gen::complete(60), 3),
            (gen::grid2d(30, 30, false), 4),
            (gen::hypercube(10), 5),
            (gen::random_regular(2000, 8, 6), 6),
            (gen::gnp(2500, 0.004, 7), 7),
        ] {
            check(&g, seed);
        }
    }

    #[test]
    fn correct_on_messy_inputs() {
        check(&gen::mixture(3), 1);
        check(&gen::expander_union(4, 300, 6, 2), 2);
        check(&gen::with_isolated(&gen::barbell(30, 3), 10), 3);
        check(&Graph::from_pairs(5, &[(0, 0), (1, 2), (2, 1), (3, 4)]), 4);
        check(&Graph::new(0, vec![]), 5);
        check(&Graph::new(7, vec![]), 6);
    }

    #[test]
    fn expanders_solve_in_an_early_phase() {
        let g = gen::random_regular(6000, 8, 9);
        let stats = check(&g, 11);
        let solved = stats.solved_at_phase.expect("must solve in a phase");
        assert!(solved <= 2, "expander should solve early, got {solved}");
    }

    #[test]
    fn aux_array_roundtrip() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 3)];
        let tracker = CostTracker::new();
        let aux = AuxArray::build(4, &edges, &tracker);
        assert_eq!(aux.verts(), &[0, 1, 2, 3]);
        let mut n0: Vec<u32> = aux.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
        assert_eq!(aux.neighbors(2), &[1]);
    }

    #[test]
    fn aux_extract_altered_filters_and_alters() {
        let edges = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let tracker = CostTracker::new();
        let aux = AuxArray::build(4, &edges, &tracker);
        let forest = ParentForest::new(4);
        forest.set_parent(1, 0); // (0,1) becomes a loop — dropped
        let out = aux.extract_altered(&forest, |r| r == 2 || r == 3, &tracker);
        let mut canon: Vec<Edge> = out.into_iter().map(Edge::canonical).collect();
        canon.sort_unstable();
        canon.dedup();
        assert_eq!(canon, vec![Edge::new(2, 3)]);
    }

    #[test]
    fn phase_costs_are_recorded() {
        let g = gen::cycle(3000);
        let stats = check(&g, 21);
        assert!(!stats.phases.is_empty());
        for p in &stats.phases {
            assert!(p.b >= 8);
            assert!(p.cost.work > 0);
        }
        assert!(stats.total.work > 0);
        assert!(stats.stage1.work > 0);
    }
}

#[cfg(test)]
mod phase_tests {
    use super::*;
    use crate::stage1::reduce::reduce;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    #[test]
    fn forced_phase_failures_exercise_revert_and_stay_correct() {
        for force in [1u32, 3] {
            let g = gen::cycle(3000);
            let mut params = Params::for_n(g.n());
            params.force_phase_failures = force;
            let tracker = CostTracker::new();
            let (labels, stats) = connectivity(&g, &params, &tracker);
            assert!(same_partition(&labels, &components(&g)));
            // The first `force` phases must be recorded as failures.
            let failed = stats.phases.iter().take_while(|p| !p.solved).count();
            assert!(
                failed >= force as usize || stats.solved_at_phase.is_none(),
                "expected ≥{force} failed phases, trace: {:?}",
                stats.phases.iter().map(|p| p.solved).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn efilter_shrinks_across_forced_failures() {
        let g = gen::cycle(4000);
        let mut params = Params::for_n(g.n());
        params.force_phase_failures = 3;
        let tracker = CostTracker::new();
        let (_, stats) = connectivity(&g, &params, &tracker);
        let lives: Vec<usize> = stats.phases.iter().map(|p| p.active_before).collect();
        assert!(lives.len() >= 2);
        for w in lives.windows(2) {
            assert!(
                w[1] <= w[0],
                "live vertices must shrink monotonically: {lives:?}"
            );
        }
        // And substantially so between the first failed guesses.
        if lives[0] > 50 {
            assert!(
                lives[1] < lives[0] / 2,
                "E_filter rounds should shrink the graph geometrically: {lives:?}"
            );
        }
    }

    #[test]
    fn zero_phases_falls_back_to_safety_pass() {
        let g = gen::gnp(800, 0.004, 5);
        let mut params = Params::for_n(g.n());
        params.max_phases = 0;
        let tracker = CostTracker::new();
        let (labels, stats) = connectivity(&g, &params, &tracker);
        assert!(same_partition(&labels, &components(&g)));
        assert!(stats.solved_at_phase.is_none());
        assert!(stats.phases.is_empty());
    }

    #[test]
    fn sparse_build_produces_component_safe_skeleton() {
        // SPARSEBUILD output edges must connect co-component roots only.
        let g = gen::mixture(21);
        let n = g.n();
        let forest = ParentForest::new(n);
        let s1 = Stage1Scratch::new(n);
        let s2 = Stage2Scratch::new(n);
        let tracker = CostTracker::new();
        let params = Params::for_n(n);
        let out = reduce(g.edges(), &params, &forest, &s1, &tracker);
        let aux = AuxArray::build(n, &out.edges, &tracker);
        let h2: Vec<Edge> = out
            .edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 == 0)
            .map(|(_, &e)| e)
            .collect();
        let mut arena = SolverArena::new();
        let skeleton = sparse_build(
            &aux,
            &h2,
            &out.active,
            16,
            &params,
            &s2,
            &forest,
            &mut arena,
            &tracker,
        );
        let truth = components(&g);
        for e in &skeleton {
            assert_eq!(
                truth[e.u() as usize],
                truth[e.v() as usize],
                "skeleton edge crosses components"
            );
            assert!(!e.is_loop());
        }
    }
}
