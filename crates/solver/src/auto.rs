//! The `auto` dispatcher (ROADMAP "solver autotuning", heuristic v1):
//! sniff the input cheaply and delegate to the registered solver the sniff
//! predicts will win.
//!
//! The paper's pipeline is the safe default — linear work on *every*
//! input. HashMin label propagation beats it only in one regime: when the
//! diameter is tiny (rounds ≈ `d`) **and** the graph is dense enough that
//! its per-round full-edge scans stay cheap relative to the paper's
//! staging overhead. The sniff therefore checks, in increasing cost order:
//!
//! 1. **m/n ratio** — skip the probe entirely on sparse inputs (average
//!    degree over non-isolated vertices below `DENSE_AVG_DEG` = 4); they
//!    go to `paper`.
//! 2. **degree histogram** — the store's cached degrees give the
//!    non-isolated vertex count (isolated vertices are free for every
//!    solver and would dilute the density signal).
//! 3. **diameter probe** — a two-sweep BFS lower bound from a couple of
//!    random *non-isolated* roots (an isolated root returns a vacuous
//!    `est = 0` that certifies nothing, so roots resample away from
//!    degree-0 vertices). Only if the estimate stays within
//!    `2·⌈log₂ n⌉ + 4` does `label-prop` get the job.
//!
//! The two-sweep estimate is a *lower* bound, so an adversarial input can
//! still fool step 3 into picking `label-prop` on a large-diameter graph;
//! that costs rounds, never correctness, and the families in the zoo
//! estimate near-exactly. It also means the dispatcher cannot *promise*
//! polylog rounds — `caps()` reports that honestly.

use parcc_baselines::LabelPropSolver;
use parcc_core::PaperSolver;
use parcc_graph::solver::{ComponentSolver, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::store::GraphStore;
use parcc_graph::traverse::{bfs, UNREACHED};
use parcc_graph::{Csr, Graph};
use parcc_pram::rng::Stream;

/// Average degree (over non-isolated vertices) below which the diameter
/// probe is skipped and `paper` chosen outright.
const DENSE_AVG_DEG: f64 = 4.0;

/// Two-sweep BFS tries for the diameter probe.
const PROBE_TRIES: u32 = 2;

/// Random draws per probe root before falling back to a linear scan for a
/// non-isolated vertex.
const ROOT_RESAMPLES: u64 = 16;

/// What the sniff decided, and why.
struct Choice {
    delegate: &'static dyn ComponentSolver,
    probe: String,
}

/// Draw a probe root, resampling away from isolated vertices: BFS from a
/// degree-0 root reaches nothing, so the sweep would report `est = 0` — a
/// vacuous lower bound that certifies a "tiny diameter" on any input.
/// After `ROOT_RESAMPLES` misses, fall back to the first non-isolated
/// vertex (the caller guarantees `m > 0`, so one exists).
fn probe_root(degrees: &[u32], stream: &Stream, t: u32, n: usize) -> u32 {
    for j in 0..ROOT_RESAMPLES {
        let s = stream.below(u64::from(t) * ROOT_RESAMPLES + j, n as u64) as u32;
        if degrees[s as usize] > 0 {
            return s;
        }
    }
    degrees.iter().position(|&d| d > 0).unwrap_or(0) as u32
}

/// Two-sweep diameter lower bound over a prebuilt CSR (the store may have
/// assembled it shard-parallel; `traverse::diameter_estimate` would
/// rebuild it from a flat graph).
fn two_sweep(csr: &Csr, degrees: &[u32], n: usize, tries: u32, seed: u64) -> u32 {
    let stream = Stream::new(seed, 0xd1a);
    (0..tries)
        .map(|t| {
            let s = probe_root(degrees, &stream, t, n);
            let d1 = bfs(csr, s);
            let (far, _) = d1
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d != UNREACHED)
                .max_by_key(|&(_, &d)| d)
                .unwrap_or((s as usize, &0));
            bfs(csr, far as u32)
                .into_iter()
                .filter(|&d| d != UNREACHED)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Run the sniff. `degrees` comes from the store's cached histogram;
/// `csr` is only invoked when the density gate passes.
fn pick(n: usize, m: usize, degrees: &[u32], csr: &dyn Fn() -> Csr, seed: u64) -> Choice {
    if n == 0 || m == 0 {
        return Choice {
            delegate: &PaperSolver,
            probe: "empty input".into(),
        };
    }
    let touched = degrees.iter().filter(|&&d| d > 0).count().max(1);
    let avg_deg = 2.0 * m as f64 / touched as f64;
    if avg_deg < DENSE_AVG_DEG {
        return Choice {
            delegate: &PaperSolver,
            probe: format!("avg_deg={avg_deg:.1} (sparse)"),
        };
    }
    // Largest diameter estimate that still goes to label-prop.
    let cap = 2 * parcc_pram::cost::ceil_log2(n.max(2) as u64) + 4;
    let est = u64::from(two_sweep(&csr(), degrees, n, PROBE_TRIES, seed));
    if est <= cap {
        Choice {
            delegate: &LabelPropSolver,
            probe: format!("avg_deg={avg_deg:.1} diam_est={est}<={cap}"),
        }
    } else {
        Choice {
            delegate: &PaperSolver,
            probe: format!("avg_deg={avg_deg:.1} diam_est={est}>{cap}"),
        }
    }
}

/// The `auto` registry entry: input-sniffing dispatch between `label-prop`
/// (tiny-diameter dense graphs) and `paper` (everything else).
pub struct AutoSolver;

impl ComponentSolver for AutoSolver {
    fn name(&self) -> &'static str {
        "auto"
    }
    fn description(&self) -> &'static str {
        "autotuner v1: sniff m/n + degrees + diameter probe, delegate to label-prop or paper"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            // The probe and the paper delegate both consume the seed.
            deterministic: false,
            seeded: true,
            parallel: true,
            // The two-sweep probe is only a *lower* bound on the diameter:
            // an adversarial input can be dispatched to label-prop with a
            // round count linear in the true diameter, so polylog rounds
            // cannot be promised.
            polylog_rounds: false,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        let choice = pick(g.n(), g.m(), g.degrees(), &|| Csr::build(g), ctx.seed);
        choice
            .delegate
            .solve(g, ctx)
            .note("delegate", choice.delegate.name())
            .note("probe", choice.probe)
    }
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        let choice = pick(
            store.n(),
            store.m(),
            store.degrees(),
            &|| store.csr(),
            ctx.seed,
        );
        choice
            .delegate
            .solve_store(store, ctx)
            .note("delegate", choice.delegate.name())
            .note("probe", choice.probe)
    }
}

// Serve mode: re-sniffs the accumulated store on every epoch via the
// flatten-and-resolve default, so the delegate can change as the graph
// densifies.
impl parcc_graph::incremental::BatchedUpdate for AutoSolver {}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::store::ShardedGraph;
    use parcc_graph::traverse::{components, same_partition};

    fn delegate_of(r: &SolveReport) -> String {
        r.notes
            .iter()
            .find(|(k, _)| *k == "delegate")
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    #[test]
    fn dense_tiny_diameter_goes_to_label_prop() {
        for g in [gen::random_regular(512, 8, 3), gen::complete(64)] {
            let r = AutoSolver.solve(&g, &SolveCtx::with_seed(5));
            assert_eq!(delegate_of(&r), "label-prop", "n={}", g.n());
            assert!(same_partition(&r.labels, &components(&g)));
        }
    }

    #[test]
    fn sparse_or_huge_diameter_goes_to_paper() {
        for g in [
            gen::cycle(512),                         // sparse: avg_deg 2
            gen::path(600),                          // sparse
            Graph::new(0, vec![]),                   // empty
            gen::with_isolated(&gen::path(40), 500), // isolated-diluted
            gen::path_of_cliques(40, 6, 2),          // dense but huge diameter
        ] {
            let r = AutoSolver.solve(&g, &SolveCtx::with_seed(5));
            assert_eq!(delegate_of(&r), "paper", "n={}", g.n());
            assert!(same_partition(&r.labels, &components(&g)));
        }
    }

    #[test]
    fn store_entry_sniffs_without_flattening_and_matches_flat() {
        let g = gen::random_regular(400, 8, 9);
        let sg = ShardedGraph::from_graph(&g, 4);
        let flat = AutoSolver.solve(&g, &SolveCtx::with_seed(7));
        let sharded = AutoSolver.solve_store(&sg, &SolveCtx::with_seed(7));
        assert_eq!(delegate_of(&flat), delegate_of(&sharded));
        assert!(same_partition(&flat.labels, &sharded.labels));
    }

    #[test]
    fn probe_roots_skip_isolated_vertices() {
        // Dense shape (avg degree ≈ 7 over touched vertices) with a huge
        // diameter, drowned in isolated vertices. A probe rooted at an
        // isolated vertex reports est=0 and would hand this to label-prop;
        // resampled roots must land on the clique path and see the real
        // diameter, for every seed.
        let g = gen::with_isolated(&gen::path_of_cliques(40, 6, 2), 4000);
        for seed in 0..8 {
            let r = AutoSolver.solve(&g, &SolveCtx::with_seed(seed));
            assert_eq!(delegate_of(&r), "paper", "seed {seed}: vacuous probe");
            assert!(same_partition(&r.labels, &components(&g)));
        }
    }

    #[test]
    fn caps_do_not_promise_polylog_rounds() {
        // The two-sweep estimate is a lower bound, so the dispatcher may
        // hand adversarial inputs to label-prop; claiming polylog rounds
        // here would be unsound.
        assert!(!AutoSolver.caps().polylog_rounds);
        assert!(AutoSolver.caps().seeded);
    }

    #[test]
    fn isolated_vertices_do_not_dilute_the_density_signal() {
        // A dense clique plus many isolated vertices: m/n over all vertices
        // is tiny, but the histogram restricts to touched vertices.
        let g = gen::with_isolated(&gen::complete(60), 4000);
        let r = AutoSolver.solve(&g, &SolveCtx::with_seed(1));
        assert_eq!(delegate_of(&r), "label-prop");
        assert!(same_partition(&r.labels, &components(&g)));
    }
}
