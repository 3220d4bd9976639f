//! Shape checks on the simulated cost model: the claims of Theorems 1 and 2
//! at coarse, assertion-safe granularity (precise series live in the bench
//! harness's experiment tables).

use parcc::core::{connectivity, Params};
use parcc::graph::generators as gen;
use parcc::ltz::{ltz_connectivity, LtzParams};
use parcc::pram::cost::CostTracker;
use parcc::pram::forest::ParentForest;

fn run_main(g: &parcc::graph::Graph) -> (u64, f64) {
    let tracker = CostTracker::new();
    let (_, stats) = connectivity(g, &Params::for_n(g.n()), &tracker);
    (
        stats.total.depth,
        stats.total.work as f64 / (g.n() + g.m()) as f64,
    )
}

#[test]
fn work_per_item_stays_bounded_as_n_grows() {
    // Theorem 1's O(m+n) work: the per-item work must not grow with n
    // (generous 2× envelope per 4× size step).
    let mut prev: Option<f64> = None;
    for k in [12usize, 14, 16] {
        let n = 1 << k;
        let g = gen::random_regular(n, 8, 3);
        let (_, per_item) = run_main(&g);
        if let Some(p) = prev {
            assert!(
                per_item < 2.0 * p,
                "work per item grew from {p} to {per_item} at n={n}"
            );
        }
        prev = Some(per_item);
    }
}

#[test]
fn expander_depth_is_flat_in_n() {
    // λ constant ⇒ depth ≈ constant + loglog n: a 64× larger expander may
    // cost only marginally more depth.
    let (d_small, _) = run_main(&gen::random_regular(1 << 10, 8, 5));
    let (d_large, _) = run_main(&gen::random_regular(1 << 16, 8, 5));
    assert!(
        (d_large as f64) < 2.0 * d_small as f64,
        "expander depth should be near-flat: {d_small} → {d_large}"
    );
}

#[test]
fn cycle_depth_exceeds_expander_depth() {
    // λ(cycle) ≈ 1/n² ⇒ the log(1/λ) term must show up.
    let n = 1 << 14;
    let (d_exp, _) = run_main(&gen::random_regular(n, 8, 5));
    let (d_cyc, _) = run_main(&gen::cycle(n));
    assert!(
        d_cyc as f64 > 1.2 * d_exp as f64,
        "cycle depth {d_cyc} should exceed expander depth {d_exp}"
    );
}

#[test]
fn cycle_depth_grows_with_n() {
    let (d1, _) = run_main(&gen::cycle(1 << 10));
    let (d2, _) = run_main(&gen::cycle(1 << 16));
    assert!(d2 > d1, "cycle depth must grow with log(1/λ): {d1} → {d2}");
}

#[test]
fn ltz_work_is_superlinear_on_paths() {
    // Theorem 2 is Θ(m·(log d + loglog n)) work: per-edge work on paths
    // must grow with n, while the new algorithm's stays bounded.
    let mut ltz_per_edge = Vec::new();
    for k in [10usize, 14] {
        let g = gen::path(1 << k);
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let _ = ltz_connectivity(
            g.edges().to_vec(),
            &forest,
            LtzParams::for_n(g.n()),
            &tracker,
        );
        ltz_per_edge.push(tracker.work() as f64 / g.m() as f64);
    }
    assert!(
        ltz_per_edge[1] > 1.15 * ltz_per_edge[0],
        "LTZ per-edge work should grow on paths: {ltz_per_edge:?}"
    );
}

#[test]
fn depth_accounts_for_every_stage() {
    let g = gen::mixture(3);
    let tracker = CostTracker::new();
    let (_, stats) = connectivity(&g, &Params::for_n(g.n()), &tracker);
    // Tracker and stats must agree, and the parts must not exceed the total.
    assert_eq!(stats.total.depth, tracker.depth());
    assert_eq!(stats.total.work, tracker.work());
    let phase_depth: u64 = stats.phases.iter().map(|p| p.cost.depth).sum();
    assert!(stats.stage1.depth + phase_depth <= stats.total.depth);
}
