//! One-thread determinism of every registered solver on a sharded store.
//!
//! The pool used to group workers by node under a forced synthetic
//! multi-node layout; it is one flat work-stealing pool now, so there is
//! no layout left to force. What stays is the guarantee this binary was
//! built around: with one effective thread, the scheduling collapses to
//! the plain sequential schedule, and repeated runs are bit-identical.

use parcc::graph::generators as gen;
use parcc::graph::ShardedGraph;
use parcc::solver::{self, SolveCtx};

/// Run `f` with the effective thread count pinned to `k`.
fn with_threads<T>(k: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(k)
        .build()
        .expect("pool")
        .install(f)
}

/// With one effective thread, repeated runs of every registered solver on
/// a 4-shard store are bit-for-bit identical.
#[test]
fn one_thread_runs_are_bit_identical_under_synthetic_topology() {
    for (name, g) in [
        ("mixture", gen::mixture(7)),
        ("mesh2d", gen::grid2d(20, 20, false)),
        ("powerlaw", gen::chung_lu(800, 2.5, 6.0, 7)),
    ] {
        let sharded = ShardedGraph::from_graph(&g, 4);
        for s in solver::registry() {
            let a = with_threads(1, || s.solve_store(&sharded, &SolveCtx::with_seed(7)));
            let b = with_threads(1, || s.solve_store(&sharded, &SolveCtx::with_seed(7)));
            assert_eq!(
                a.labels,
                b.labels,
                "{name}/{}: 1-thread labels must be bit-identical",
                s.name()
            );
        }
    }
}
