//! [`ComponentSolver`] adapters for the paper's own pipelines: the full
//! unknown-λ algorithm (Theorem 1) and the known-gap three-stage pipeline
//! (Theorem 3).

use crate::full::connectivity_sharded;
use crate::params::Params;
use crate::stage3::connectivity_known_gap;
use parcc_graph::incremental::BatchedUpdate;
use parcc_graph::solver::{ComponentSolver, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::store::{shard_slices, GraphStore};
use parcc_graph::Graph;
use parcc_pram::edge::Edge;

/// The paper's main result (Theorem 1): `O(m + n)` work,
/// `O(log(1/λ) + log log n)` time, no gap knowledge needed.
pub struct PaperSolver;

impl PaperSolver {
    /// The shared pipeline: Stage 1 consumes the shard-chunked slices
    /// directly ([`connectivity_sharded`]); the flat entry passes a single
    /// shard.
    fn run(&self, n: usize, shards: &[&[Edge]], ctx: &SolveCtx) -> SolveReport {
        let mut solved_at = None;
        let mut remain_rounds = 0;
        let mut remain_edges = 0;
        let mut arena_peak = 0;
        let report = SolveReport::measure(ctx, |tracker| {
            let params = Params::for_n(n).with_seed(ctx.seed);
            let (labels, stats) = connectivity_sharded(n, shards, &params, tracker);
            solved_at = stats.solved_at_phase;
            remain_rounds = stats.remain.rounds;
            remain_edges = stats.remain_edges;
            arena_peak = stats.arena_peak_bytes;
            let phases = stats.phases.len() as u64;
            (labels, Some(phases))
        });
        report
            .note(
                "solved_at_phase",
                solved_at.map_or_else(|| "safety".into(), |p| p.to_string()),
            )
            .note("remain_edges", remain_edges)
            .note("remain_rounds", remain_rounds)
            .note("arena_peak_bytes", arena_peak)
    }
}

impl ComponentSolver for PaperSolver {
    fn name(&self) -> &'static str {
        "paper"
    }
    fn description(&self) -> &'static str {
        "Farhadi-Liu-Shi [SPAA'24] (Theorem 1): O(m+n) work, O(log(1/λ) + loglog n) time"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            deterministic: false,
            seeded: true,
            parallel: true,
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        self.run(g.n(), &[g.edges()], ctx)
    }

    /// Shard-native: Stage 1 reads the store's shard slices in place — no
    /// flat [`Graph`] is ever materialized for sharded inputs.
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        let slices = shard_slices(store);
        self.run(store.n(), &slices, ctx)
            .note("store_shards", store.shard_count())
    }
}

// Serve mode: the paper pipeline has no incremental structure, so it rides
// the flatten-and-resolve default (batches append as shards, each epoch
// re-solves — still shard-native through `solve_store`).
impl BatchedUpdate for PaperSolver {}

/// Theorem 3: the three-stage pipeline with a fixed gap parameter `b`
/// (defaulting to the phase-0 guess `b₀ ≈ log n`).
pub struct KnownGapSolver;

impl ComponentSolver for KnownGapSolver {
    fn name(&self) -> &'static str {
        "known-gap"
    }
    fn description(&self) -> &'static str {
        "stage-1/2/3 pipeline with fixed b≈log n [SPAA'24 Theorem 3]: O(m+n) work when λ ≥ 1/log n"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            deterministic: false,
            seeded: true,
            parallel: true,
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        let mut sampled = 0;
        let mut cleanup = 0;
        let report = SolveReport::measure(ctx, |tracker| {
            let params = Params::for_n(g.n()).with_seed(ctx.seed);
            let b = u64::from(params.b0);
            let (labels, stats) = connectivity_known_gap(g, b, &params, tracker);
            sampled = stats.sampled_edges;
            cleanup = stats.cleanup_edges;
            (labels, Some(stats.ltz.rounds))
        });
        report
            .note("sampled_edges", sampled)
            .note("cleanup_edges", cleanup)
    }
}

impl BatchedUpdate for KnownGapSolver {}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    #[test]
    fn adapters_match_oracle() {
        let g = gen::mixture(2);
        let truth = components(&g);
        for s in [&PaperSolver as &dyn ComponentSolver, &KnownGapSolver] {
            let r = s.solve(&g, &SolveCtx::with_seed(3));
            assert!(same_partition(&r.labels, &truth), "{} wrong", s.name());
            assert!(r.cost.work > 0, "{} must charge the tracker", s.name());
            for &l in &r.labels {
                assert_eq!(r.labels[l as usize], l, "{}: non-canonical", s.name());
            }
        }
    }

    #[test]
    fn paper_notes_phase_telemetry() {
        let g = gen::random_regular(600, 8, 4);
        let r = PaperSolver.solve(&g, &SolveCtx::new());
        assert!(r.notes.iter().any(|(k, _)| *k == "solved_at_phase"));
    }
}
