//! [`ComponentSolver`] adapter for the Theorem-2 (LTZ) substrate, so the
//! registry can run it standalone against the paper's pipeline and the
//! classical baselines.

use crate::connect::{ltz_connectivity, LtzParams};
use parcc_graph::incremental::BatchedUpdate;
use parcc_graph::solver::{ComponentSolver, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::store::{concat_edges, GraphStore};
use parcc_graph::Graph;
use parcc_pram::edge::Edge;
use parcc_pram::forest::ParentForest;

/// Liu–Tarjan–Zhong (`[LTZ20]`, the paper's Theorem 2): `O(log d + log log
/// n)` time with `O(m + n)` processors, run standalone on the raw input.
pub struct LtzSolver;

impl LtzSolver {
    /// The shared run: the engine takes ownership of a working edge
    /// vector, so both entries hand it one (the store entry assembles it
    /// straight from the shard slices, never building a flat [`Graph`]).
    ///
    /// The input multiset is simplified first (canonicalize, padded sort,
    /// adjacent dedup): EXPAND-MAXLINK charges `O(|E|)` per round, so
    /// paying one sort up front to make every round scan *distinct* edges
    /// only is the Liu–Tarjan engineering trade — and on already-simple
    /// inputs the sort is the only cost. The sort rides the `PARCC_SORT`
    /// backend, so the radix/cmp comparison (E16) covers this pipeline.
    fn run(&self, n: usize, edges: Vec<Edge>, ctx: &SolveCtx) -> SolveReport {
        let mut note_fallback = false;
        let mut note_level = 0;
        let mut note_dedup = 0usize;
        let mut note_arena_peak = 0u64;
        let report = SolveReport::measure(ctx, |tracker| {
            let forest = ParentForest::new(n);
            let simplified = parcc_pram::primitives::simplify_edges(&edges, true, tracker);
            note_dedup = edges.len() - simplified.len();
            let stats = ltz_connectivity(
                simplified,
                &forest,
                LtzParams::for_n(n).with_seed(ctx.seed),
                tracker,
            );
            forest.flatten(tracker);
            note_fallback = stats.fallback_engaged;
            note_level = stats.max_level;
            note_arena_peak = stats.arena_peak_bytes;
            (forest.labels(tracker), Some(stats.rounds))
        });
        report
            .note("fallback", note_fallback)
            .note("max_level", note_level)
            .note("dedup_removed", note_dedup)
            .note("arena_peak_bytes", note_arena_peak)
    }
}

impl ComponentSolver for LtzSolver {
    fn name(&self) -> &'static str {
        "ltz"
    }
    fn description(&self) -> &'static str {
        "LTZ [SPAA'20] (Theorem 2): O(log d + loglog n) time, O(m·rounds) work"
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
        self.run(g.n(), g.edges().to_vec(), ctx)
    }

    /// Shard-native: the working edge vector is concatenated from the
    /// shard slices in one exact-size allocation.
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        self.run(store.n(), concat_edges(store), ctx)
            .note("store_shards", store.shard_count())
    }
}

// Serve mode: LTZ restarts per epoch via the flatten-and-resolve default.
impl BatchedUpdate for LtzSolver {}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    #[test]
    fn adapter_matches_oracle() {
        let g = gen::mixture(5);
        let r = LtzSolver.solve(&g, &SolveCtx::with_seed(11));
        assert!(same_partition(&r.labels, &components(&g)));
        assert!(r.rounds.unwrap() >= 1);
        assert!(r.cost.work > 0);
        for &l in &r.labels {
            assert_eq!(r.labels[l as usize], l, "labels must be canonical");
        }
    }
}
