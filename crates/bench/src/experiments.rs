//! Experiment runners E1–E12. Each regenerates the series behind one
//! checkable claim of the paper and returns a printable [`Table`].
//!
//! Cross-solver comparisons (E12, E14) are driven by the
//! [`parcc_solver`] registry — adding a solver there adds it to the
//! comparison tables and Criterion benches with no harness change. The
//! stage-level probes (E1–E11, E13) call the pipeline internals directly
//! because they measure telemetry the [`parcc_solver::ComponentSolver`]
//! seam deliberately abstracts away (per-phase traces, scratch states,
//! ablation knobs).

use crate::table::Table;
use crate::workloads::Family;
use parcc_core::stage1::{matching, reduce, Stage1Scratch};
use parcc_core::stage2::{build_skeleton, increase, CurrentGraph, Stage2Scratch};
use parcc_core::{connectivity, Params};
use parcc_graph::generators as gen;
use parcc_graph::traverse::{component_count, diameter_estimate};
use parcc_graph::wal::{SyncPolicy, Wal};
use parcc_graph::{Graph, ShardedGraph};
use parcc_ltz::{ltz_connectivity, LtzParams};
use parcc_pram::cost::CostTracker;
use parcc_pram::forest::ParentForest;
use parcc_pram::rng::Stream;
use parcc_solver::SolveCtx;
use parcc_spectral::gap::min_component_gap;
use std::time::Instant;

fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

/// E1 (Theorem 1): depth tracks `log(1/λ) + log log n`, work stays linear.
#[must_use]
pub fn e1_main_scaling(quick: bool) -> Table {
    let mut t = Table::new(
        "E1 — Theorem 1: CONNECTIVITY depth ~ log(1/λ) + loglog n at O(m+n) work",
        &[
            "family",
            "n",
            "m",
            "λ(est)",
            "depth",
            "work/(m+n)",
            "phase",
            "depth/bound",
        ],
    );
    let sizes: &[usize] = if quick {
        &[1 << 10, 1 << 12]
    } else {
        &[1 << 10, 1 << 12, 1 << 14, 1 << 16]
    };
    for fam in [
        Family::Expander,
        Family::Hypercube,
        Family::Grid,
        Family::Cycle,
    ] {
        for &n in sizes {
            let g = fam.build(n, 7);
            let lambda = fam.gap_label(&g);
            let params = Params::for_n(g.n());
            let tracker = CostTracker::new();
            let (_, stats) = connectivity(&g, &params, &tracker);
            let bound = (1.0 / lambda).log2() + (g.n().max(4) as f64).log2().log2();
            let depth = stats.total.depth as f64;
            t.row(vec![
                fam.name().into(),
                g.n().to_string(),
                g.m().to_string(),
                f(lambda),
                f(depth),
                f(stats.total.work as f64 / (g.n() + g.m()) as f64),
                stats.solved_at_phase.map_or("-".into(), |p| p.to_string()),
                f(depth / bound.max(1.0)),
            ]);
        }
    }
    t
}

/// E2 (Theorem 2, `[LTZ20]`): depth `O(log d + loglog n)`, work `Θ(m·rounds)`.
#[must_use]
pub fn e2_ltz(quick: bool) -> Table {
    let mut t = Table::new(
        "E2 — Theorem 2 (LTZ substrate): depth ~ log d, work superlinear (Θ(m·rounds))",
        &[
            "graph", "n", "d(est)", "rounds", "depth", "work/m", "fallback",
        ],
    );
    let ks: &[usize] = if quick { &[8, 64] } else { &[8, 64, 512, 4096] };
    for &k in ks {
        let g = gen::path_of_cliques(k, 8, 2);
        run_e2_row(&mut t, format!("cliques×{k}"), &g);
    }
    let n = if quick { 1 << 12 } else { 1 << 15 };
    run_e2_row(&mut t, "expander".into(), &gen::random_regular(n, 8, 5));
    run_e2_row(&mut t, "path".into(), &gen::path(n));
    t
}

fn run_e2_row(t: &mut Table, name: String, g: &Graph) {
    let forest = ParentForest::new(g.n());
    let tracker = CostTracker::new();
    let stats = ltz_connectivity(
        g.edges().to_vec(),
        &forest,
        LtzParams::for_n(g.n()),
        &tracker,
    );
    t.row(vec![
        name,
        g.n().to_string(),
        diameter_estimate(g, 2, 1).to_string(),
        stats.rounds.to_string(),
        tracker.depth().to_string(),
        f(tracker.work() as f64 / g.m().max(1) as f64),
        if stats.fallback_engaged { "yes" } else { "no" }.into(),
    ]);
}

/// E3 (Lemma 4.4): one MATCHING call removes a constant root fraction.
#[must_use]
pub fn e3_matching(quick: bool) -> Table {
    let mut t = Table::new(
        "E3 — Lemma 4.4: MATCHING removes a constant fraction of roots per O(1)-depth call",
        &["family", "n", "roots after", "shrink", "depth"],
    );
    let n = if quick { 1 << 12 } else { 1 << 15 };
    for fam in Family::ALL {
        let g = fam.build(n, 3);
        let forest = ParentForest::new(g.n());
        let scratch = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let mut e = g.edges().to_vec();
        let _ = matching(
            &mut e,
            &forest,
            &scratch,
            Stream::new(5, 5),
            scratch.next_tag(),
            &tracker,
        );
        let roots = forest.root_count();
        t.row(vec![
            fam.name().into(),
            g.n().to_string(),
            roots.to_string(),
            f(roots as f64 / g.n() as f64),
            tracker.depth().to_string(),
        ]);
    }
    t
}

/// E4+E5 (Lemmas 4.20/4.25): REDUCE contracts to `n/polylog` in
/// `O(log log n)` depth at linear work.
#[must_use]
pub fn e5_reduce(quick: bool) -> Table {
    let mut t = Table::new(
        "E5 — Lemma 4.25: REDUCE shrinks to n/polylog at O(loglog n) depth, O(m+n) work",
        &[
            "n",
            "m",
            "active after",
            "n/active",
            "depth",
            "depth/loglog",
            "work/(m+n)",
        ],
    );
    let sizes: &[usize] = if quick {
        &[1 << 12, 1 << 14]
    } else {
        &[1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    for &n in sizes {
        let g = gen::gnp(n, 16.0 / n as f64, 9);
        let forest = ParentForest::new(g.n());
        let scratch = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let params = Params::for_n(g.n());
        let out = reduce(g.edges(), &params, &forest, &scratch, &tracker);
        let loglog = (g.n() as f64).log2().log2();
        t.row(vec![
            g.n().to_string(),
            g.m().to_string(),
            out.active.len().to_string(),
            if out.active.is_empty() {
                "all".into()
            } else {
                f(g.n() as f64 / out.active.len() as f64)
            },
            tracker.depth().to_string(),
            f(tracker.depth() as f64 / loglog),
            f(tracker.work() as f64 / (g.n() + g.m()) as f64),
        ]);
    }
    t
}

/// E6 (Lemmas 5.4/5.5): the skeleton is sparse and preserves small
/// components exactly.
#[must_use]
pub fn e6_skeleton(quick: bool) -> Table {
    let mut t = Table::new(
        "E6 — Lemmas 5.4/5.5: skeleton size ≤ (m+n)/polylog; small components exact",
        &[
            "n",
            "m",
            "|E(H)|",
            "m/|E(H)|",
            "high",
            "small comps",
            "preserved",
        ],
    );
    let n = if quick { 1 << 11 } else { 1 << 13 };
    for seed in [1u64, 2, 3] {
        // Dense expander + tiny cliques (the small components).
        let mut parts = vec![gen::random_regular(n, 256, seed)];
        let smalls = 25;
        for i in 0..smalls {
            parts.push(gen::complete(3 + (i % 3)));
        }
        let g = Graph::disjoint_union(&parts);
        let s2 = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        let active: Vec<u32> = (0..g.n() as u32).collect();
        let params = Params::for_n(g.n());
        let sk = build_skeleton(
            g.edges(),
            &active,
            8,
            4,
            params.sparsify_prob,
            &s2,
            Stream::new(seed, 0xe6),
            &tracker,
        );
        let h = Graph::new(g.n(), sk.edges.clone());
        let truth = parcc_graph::traverse::components(&g);
        let ours = parcc_graph::traverse::components(&h);
        // A small component is preserved iff its vertices share an H-label.
        let mut preserved = 0;
        let mut base_v = n;
        for i in 0..smalls {
            let size = 3 + (i % 3);
            if (base_v..base_v + size).all(|v| ours[v] == ours[base_v]) {
                preserved += 1;
            }
            base_v += size;
        }
        let _ = truth;
        t.row(vec![
            g.n().to_string(),
            g.m().to_string(),
            sk.edges.len().to_string(),
            f(g.m() as f64 / sk.edges.len().max(1) as f64),
            sk.high_count.to_string(),
            smalls.to_string(),
            preserved.to_string(),
        ]);
    }
    t
}

/// E7 (Lemma 5.25): INCREASE raises every surviving root's degree to ≥ b.
#[must_use]
pub fn e7_increase(quick: bool) -> Table {
    let mut t = Table::new(
        "E7 — Lemma 5.25: after INCREASE every surviving root has degree ≥ b",
        &["b", "n", "active after", "min deg", "ok", "heads"],
    );
    let n = if quick { 1 << 13 } else { 1 << 15 };
    let g = gen::cycle(n);
    for b in [8u64, 16, 32, 64] {
        let forest = ParentForest::new(g.n());
        let s1 = Stage1Scratch::new(g.n());
        let s2 = Stage2Scratch::new(g.n());
        let tracker = CostTracker::new();
        // Ablation: weakened Stage 1 and DENSIFY budgets so INCREASE receives
        // a live remnant rather than a fully contracted graph (at bench
        // scale the default budgets finish small remnants outright).
        let mut params = Params::for_n(g.n());
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
            Stream::new(b, 0xe7),
            &tracker,
        );
        let inc = increase(
            &mut cur, sk.edges, b, &forest, &params, &s1, &s2, b, &tracker,
        );
        let mut deg = std::collections::HashMap::new();
        for e in &cur.edges {
            *deg.entry(e.u()).or_insert(0u64) += 1;
            if e.u() != e.v() {
                *deg.entry(e.v()).or_insert(0) += 1;
            }
        }
        let min_deg = deg.values().copied().min().unwrap_or(u64::MAX);
        t.row(vec![
            b.to_string(),
            g.n().to_string(),
            cur.active.len().to_string(),
            if cur.active.is_empty() {
                "done".into()
            } else {
                min_deg.to_string()
            },
            (cur.active.is_empty() || min_deg >= b).to_string(),
            inc.heads.to_string(),
        ]);
    }
    t
}

/// E8 (Corollary C.3): sampling preserves the spectral gap once the minimum
/// degree is large enough.
#[must_use]
pub fn e8_gap_sampling(quick: bool) -> Table {
    let mut t = Table::new(
        "E8 — Corollary C.3: λ(sample) ≥ λ − O(√(ln n / (p·deg))) when p·deg is large",
        &[
            "n",
            "deg",
            "p",
            "p·deg",
            "λ before",
            "λ after",
            "Δλ",
            "connected",
        ],
    );
    let n = if quick { 800 } else { 2000 };
    for d in [16usize, 64, 256] {
        for p in [0.125f64, 0.03125] {
            let g = gen::random_regular(n, d, 11);
            let before = min_component_gap(&g, 1);
            let s = g.edge_sampled(p, 13);
            let after = min_component_gap(&s, 2);
            t.row(vec![
                n.to_string(),
                d.to_string(),
                f(p),
                f(p * d as f64),
                f(before),
                f(after),
                f(before - after),
                (component_count(&s) == 1).to_string(),
            ]);
        }
    }
    t
}

/// E9 (Appendix B): naive sampling preserves connectivity but destroys the
/// diameter.
#[must_use]
pub fn e9_sampling_pitfall(quick: bool) -> Table {
    let mut t = Table::new(
        "E9 — Appendix B: edge sampling blows up the diameter (polylog → n/polylog)",
        &["levels", "n", "d before", "d after", "blowup", "connected"],
    );
    let levels: &[u32] = if quick { &[8, 9] } else { &[8, 9, 10, 11] };
    for &l in levels {
        let g = gen::sampling_pitfall(l, 48);
        let s = g.edge_sampled(0.15, 99);
        let before = diameter_estimate(&g, 3, 1);
        let after = diameter_estimate(&s, 3, 1);
        t.row(vec![
            l.to_string(),
            g.n().to_string(),
            before.to_string(),
            after.to_string(),
            f(after as f64 / before.max(1) as f64),
            (component_count(&s) == 1).to_string(),
        ]);
    }
    t
}

/// E10 (§3.4/§7): the unknown-λ search — phase trace and REMAIN split.
///
/// Finding: at benchmarkable scales phase 0
/// always succeeds — one EXPAND-MAXLINK round compounds ≳16× contraction
/// (two MAXLINK passes of two iterations each plus a shortcut is pointer
/// doubling), so any `O(log b)` budget covers any remnant a laptop-sized
/// input can produce, and the λ-dependent cost lands in the REMAIN pass —
/// exactly where the paper's cycle lower bound lives. The guess-fail-revert
/// machinery itself is exercised by unit tests (engine snapshot/restore,
/// forced fallback).
#[must_use]
pub fn e10_phase_trace(quick: bool) -> Table {
    let mut t = Table::new(
        "E10 — §7: gap-guess search: phase trace + REMAIN split (λ-cost lives in REMAIN)",
        &[
            "graph",
            "solved@",
            "b",
            "solve rounds",
            "phase depth",
            "remain edges",
            "remain rounds",
        ],
    );
    let n = if quick { 1 << 12 } else { 1 << 14 };
    for (name, g) in [
        ("expander", gen::random_regular(n, 8, 5)),
        ("cycle", gen::cycle(n)),
        ("barbell", gen::barbell(n / 2, 4)),
    ] {
        let params = Params::for_n(g.n());
        let tracker = CostTracker::new();
        let (_, stats) = connectivity(&g, &params, &tracker);
        let last = stats.phases.last();
        t.row(vec![
            name.into(),
            stats
                .solved_at_phase
                .map_or("safety".into(), |p| p.to_string()),
            last.map_or("-".into(), |p| p.b.to_string()),
            last.map_or("-".into(), |p| p.solve_rounds.to_string()),
            last.map_or("-".into(), |p| p.cost.depth.to_string()),
            stats.remain_edges.to_string(),
            stats.remain.rounds.to_string(),
        ]);
    }
    t
}

/// E10b (ablation): force the first phases to fail, exercising the
/// guess-fail → revert → E_filter-shrink loop (§7.1 Steps 5–10) end to end;
/// the `active` column shows the current graph shrinking geometrically
/// between guesses, exactly as §3.4 requires to keep total work linear.
#[must_use]
pub fn e10b_forced_phases(quick: bool) -> Table {
    let mut t = Table::new(
        "E10b — ablation: phases 0-2 forced to fail; E_filter shrinks the graph between guesses",
        &[
            "graph",
            "phase",
            "b",
            "live before",
            "solved",
            "phase depth",
        ],
    );
    let n = if quick { 1 << 12 } else { 1 << 14 };
    for (name, g) in [
        ("cycle", gen::cycle(n)),
        ("expander", gen::random_regular(n, 8, 5)),
    ] {
        let mut params = Params::for_n(g.n());
        params.force_phase_failures = 3;
        let tracker = CostTracker::new();
        let (labels, stats) = connectivity(&g, &params, &tracker);
        // The ablation must not affect correctness.
        assert!(
            parcc_graph::traverse::same_partition(&labels, &parcc_graph::traverse::components(&g)),
            "forced-failure ablation broke correctness"
        );
        for (i, p) in stats.phases.iter().enumerate() {
            t.row(vec![
                name.into(),
                i.to_string(),
                p.b.to_string(),
                p.active_before.to_string(),
                p.solved.to_string(),
                p.cost.depth.to_string(),
            ]);
        }
    }
    t
}

/// E13 (ablation): the doubly-exponential budget schedule is
/// what delivers Theorem 2's `log log n` term. The schedule governs how many
/// dormancy/level-up waits a vertex needs before its table can hold a large
/// neighbourhood: `O(log log S)` under the paper's schedule vs `Θ(log S)`
/// under plain doubling. (End-to-end round counts do *not* separate at
/// benchmarkable scales — lexicographic MAXLINK hooking already compounds
/// ≳16× contraction per round, so tables never become the bottleneck; the
/// null result shows in this experiment's own table.)
#[must_use]
pub fn e13_budget_ablation(_quick: bool) -> Table {
    use parcc_ltz::{Budget, GrowthSchedule};
    let mut t = Table::new(
        "E13 — ablation: level-ups needed for a table to reach capacity S (loglog vs log walk)",
        &["target S", "paper levels", "geometric levels", "ratio"],
    );
    let mut paper = Budget::for_n(1 << 22);
    paper.schedule = GrowthSchedule::DoublyExponential;
    let mut geo = paper;
    geo.schedule = GrowthSchedule::Geometric;
    let levels_to =
        |b: &Budget, s: usize| -> u32 { (1..=64).find(|&l| b.table_size(l) >= s).unwrap_or(64) };
    for exp in [8u32, 12, 16, 20] {
        let target = 1usize << exp;
        let lp = levels_to(&paper, target);
        let lg = levels_to(&geo, target);
        t.row(vec![
            format!("2^{exp}"),
            lp.to_string(),
            lg.to_string(),
            format!("{:.1}", lg as f64 / lp as f64),
        ]);
    }
    t
}

/// E11 (Appendix A): on cycles (λ ≈ 1/n²) measured depth grows like
/// `Θ(log n) = Θ(log(1/λ))`, and one n-cycle vs two n/2-cycles cost the same
/// — the 2-CYCLE hardness shape.
#[must_use]
pub fn e11_two_cycle(quick: bool) -> Table {
    let mut t = Table::new(
        "E11 — Appendix A: cycle depth ~ log(1/λ); 1-cycle vs 2-cycle indistinguishable cost",
        &[
            "n",
            "log2(1/λ)",
            "depth C_n",
            "depth 2×C_(n/2)",
            "depth/log(1/λ)",
        ],
    );
    let sizes: &[usize] = if quick {
        &[1 << 9, 1 << 11]
    } else {
        &[1 << 9, 1 << 11, 1 << 13, 1 << 15]
    };
    for &n in sizes {
        let lam = parcc_spectral::closed_form::cycle(n);
        let d1 = {
            let tracker = CostTracker::new();
            let (_, s) = connectivity(&gen::cycle(n), &Params::for_n(n), &tracker);
            s.total.depth
        };
        let d2 = {
            let tracker = CostTracker::new();
            let (_, s) = connectivity(&gen::two_cycles(n), &Params::for_n(n), &tracker);
            s.total.depth
        };
        let log_inv = (1.0 / lam).log2();
        t.row(vec![
            n.to_string(),
            f(log_inv),
            d1.to_string(),
            d2.to_string(),
            f(d1 as f64 / log_inv),
        ]);
    }
    t
}

/// E12 (§1/§2.3): the comparison table — who wins where. Driven entirely
/// by the solver registry: every registered solver runs on every family it
/// suits, and every labeling is verified against the union-find oracle.
#[must_use]
pub fn e12_comparison(quick: bool) -> Table {
    let mut t = Table::new(
        "E12 — comparison: depth & work across all registered solvers (oracle-verified)",
        &[
            "family",
            "algorithm",
            "rounds",
            "depth",
            "work/(m+n)",
            "wall ms",
            "verified",
        ],
    );
    let n = if quick { 1 << 11 } else { 1 << 13 };
    for fam in [
        Family::Expander,
        Family::Cycle,
        Family::PowerLaw,
        Family::Union,
    ] {
        let g = fam.build(n, 9);
        let mn = (g.n() + g.m()) as f64;
        let oracle = parcc_solver::oracle_labels(&g);
        for s in parcc_solver::registry() {
            let caps = s.caps();
            if !fam.suits(&caps) {
                continue;
            }
            let r = s.solve(&g, &SolveCtx::with_seed(9));
            let verified = parcc_graph::traverse::same_partition(&r.labels, &oracle);
            let (depth, work_per) = if caps.tracks_cost {
                (r.cost.depth.to_string(), f(r.cost.work as f64 / mn))
            } else {
                // Sequential reference: depth = work = m·α by definition.
                ("m·α".into(), "-".into())
            };
            t.row(vec![
                fam.name().into(),
                s.name().into(),
                r.rounds.map_or("-".into(), |x| x.to_string()),
                depth,
                work_per,
                f(r.wall.as_secs_f64() * 1e3),
                if verified { "ok" } else { "MISMATCH" }.into(),
            ]);
        }
    }
    t
}

/// E14: wall-clock self-speedup of the realized PRAM — the same run under
/// 1..k rayon threads. (This box's core count bounds the sweep.)
#[must_use]
pub fn e14_thread_scaling(quick: bool) -> Table {
    let mut t = Table::new(
        "E14 — wall-clock scaling: connectivity under varying rayon thread counts",
        &["threads", "n", "m", "wall ms", "speedup"],
    );
    let n = if quick { 1 << 16 } else { 1 << 19 };
    let g = gen::random_regular(n, 8, 5);
    let solver = parcc_solver::default_solver();
    let cores = std::thread::available_parallelism().map_or(2, |c| c.get());
    let mut base_ms = 0.0;
    let mut threads = 1;
    while threads <= cores {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        // Warm-up + best of 3.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            pool.install(|| {
                let _ = solver.solve(&g, &SolveCtx::with_seed(5));
            });
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if threads == 1 {
            base_ms = best;
        }
        t.row(vec![
            threads.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            f(best),
            f(base_ms / best),
        ]);
        threads *= 2;
    }
    t
}

/// E15: the storage engine — the same graph solved flat and sharded
/// through the registry's `solve_store` seam. Every sharded run is
/// verified against the flat oracle; the table reports the shard widths
/// so a regression in the shard-native `paper` path (stage 1 consuming
/// chunk slices) shows up as a wall/verification delta.
#[must_use]
pub fn e15_sharded_storage(quick: bool) -> Table {
    let mut t = Table::new(
        "E15 — sharded storage: flat vs ShardedGraph through solve_store (oracle-verified)",
        &[
            "family", "shards", "n", "m", "solver", "wall ms", "verified",
        ],
    );
    let n = if quick { 1 << 12 } else { 1 << 14 };
    for fam in [Family::Expander, Family::PowerLaw, Family::Union] {
        let g = fam.build(n, 9);
        let oracle = parcc_solver::oracle_labels(&g);
        for solver in [
            parcc_solver::default_solver(),
            parcc_solver::find("ltz").expect("ltz"),
        ] {
            for k in [1usize, 4, 16] {
                let sg = ShardedGraph::from_graph(&g, k);
                let t0 = Instant::now();
                let r = solver.solve_store(&sg, &SolveCtx::with_seed(9));
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                let verified = parcc_graph::traverse::same_partition(&r.labels, &oracle);
                t.row(vec![
                    fam.name().into(),
                    k.to_string(),
                    g.n().to_string(),
                    g.m().to_string(),
                    solver.name().into(),
                    f(wall),
                    if verified { "ok" } else { "MISMATCH" }.into(),
                ]);
            }
        }
    }
    t
}

/// E16: the sort backbone — radix vs comparison backend across the
/// workload zoo. Raw sort throughput on the packed edge words, then the
/// end-to-end `paper` and `ltz` solves under each `PARCC_SORT` backend
/// (flipped via the runtime override), every labeling oracle-verified.
/// The `allocs` column is the counting-allocator delta for the radix-paper
/// run — zero unless the binary installs the hook (the `experiments` bin
/// and CI smoke do; library test runs report 0).
#[must_use]
pub fn e16_sort_backends(quick: bool) -> Table {
    use parcc_pram::sort::{self, SortBackend};
    let mut t = Table::new(
        "E16 — hot paths: radix vs cmp sort backend (sort throughput + end-to-end walls)",
        &[
            "family",
            "m",
            "sort radix ms",
            "sort cmp ms",
            "sort speedup",
            "paper r/c ms",
            "ltz r/c ms",
            "paper allocs",
            "verified",
        ],
    );
    let n = if quick { 1 << 12 } else { 1 << 16 };
    let best_sort = |words: &[u64], backend: SortBackend| -> f64 {
        sort::set_backend_override(Some(backend));
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut copy = words.to_vec();
            let t0 = Instant::now();
            sort::sort_u64(&mut copy);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        sort::set_backend_override(None);
        best
    };
    for fam in [
        Family::Expander,
        Family::PowerLaw,
        Family::Cycle,
        Family::Union,
    ] {
        let g = fam.build(n, 13);
        let words: Vec<u64> = g.edges().iter().map(|e| e.0).collect();
        let sr = best_sort(&words, SortBackend::Radix);
        let sc = best_sort(&words, SortBackend::Cmp);
        let oracle = parcc_solver::oracle_labels(&g);
        let mut verified = true;
        let mut solve = |name: &str, backend: SortBackend| -> (f64, u64) {
            sort::set_backend_override(Some(backend));
            let r = parcc_solver::find(name)
                .expect("registered")
                .solve(&g, &SolveCtx::with_seed(13));
            sort::set_backend_override(None);
            verified &= parcc_graph::traverse::same_partition(&r.labels, &oracle);
            (r.wall.as_secs_f64() * 1e3, r.allocs)
        };
        let (pr, pr_allocs) = solve("paper", SortBackend::Radix);
        let (pc, _) = solve("paper", SortBackend::Cmp);
        let (lr, _) = solve("ltz", SortBackend::Radix);
        let (lc, _) = solve("ltz", SortBackend::Cmp);
        t.row(vec![
            fam.name().into(),
            g.m().to_string(),
            f(sr),
            f(sc),
            f(sc / sr.max(1e-9)),
            format!("{}/{}", f(pr), f(pc)),
            format!("{}/{}", f(lr), f(lc)),
            pr_allocs.to_string(),
            if verified { "ok" } else { "MISMATCH" }.into(),
        ]);
    }
    t
}

/// E17: the serve mode under a mixed insert/query workload. A writer
/// thread submits edge batches at three rates (idle/steady/flood) while
/// the reader pins epoch snapshots and times `same-component` queries;
/// afterwards the final published labeling is verified against the
/// union-find oracle on the base graph plus everything submitted. Reads
/// never block on in-flight merges — the latency tail stays flat as the
/// writer rate climbs — and flood epochs < batches shows the merge
/// thread coalescing queued batches into one snapshot publish.
#[must_use]
pub fn e17_serve_mixed(quick: bool) -> Table {
    let mut t = Table::new(
        "E17 — serve mode: mixed insert/query, epoch-pinned snapshot reads under writer load",
        &[
            "algo",
            "writer",
            "batches",
            "edges/batch",
            "queries",
            "kq/s",
            "p50 µs",
            "p99 µs",
            "epochs",
            "verified",
        ],
    );
    let n = if quick { 1 << 11 } else { 1 << 14 };
    let queries: usize = if quick { 2_000 } else { 20_000 };
    let base = gen::gnp(n, 1.5 / n as f64, 21);
    let pool = gen::gnp(n, 2.0 / n as f64, 22);
    let pe = pool.edges();
    for algo in ["union-find", "ltz"] {
        for (mode, batches, per_batch) in [
            ("idle", 0usize, 0usize),
            ("steady", 8, 256),
            ("flood", 32, 256),
        ] {
            let mut state = parcc_solver::begin_incremental(algo, 0).expect("registered");
            state.ensure_n(base.n());
            state.absorb_batch(base.edges());
            let engine = parcc_solver::ServeEngine::start(state);
            let mut lat_us: Vec<f64> = Vec::with_capacity(queries);
            let pairs = Stream::new(0xE17, 77);
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for b in 0..batches {
                        let batch: Vec<_> = (0..per_batch)
                            .map(|i| pe[(b * per_batch + i) % pe.len()])
                            .collect();
                        engine.submit_batch(batch);
                        if mode == "steady" {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                        }
                    }
                });
                for q in 0..queries {
                    let u = pairs.below(2 * q as u64, n as u64) as u32;
                    let v = pairs.below(2 * q as u64 + 1, n as u64) as u32;
                    let tq = Instant::now();
                    let snap = engine.snapshot();
                    std::hint::black_box(snap.same_component(u, v));
                    lat_us.push(tq.elapsed().as_secs_f64() * 1e6);
                }
            });
            let reader_wall = t0.elapsed().as_secs_f64();
            let snap = engine.flush();
            let mut all = base.edges().to_vec();
            all.extend((0..batches * per_batch).map(|i| pe[i % pe.len()]));
            let oracle_g = Graph::new(n, all);
            let verified = parcc_graph::traverse::same_partition(
                snap.labels(),
                &parcc_solver::oracle_labels(&oracle_g),
            );
            lat_us.sort_by(f64::total_cmp);
            let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
            t.row(vec![
                algo.into(),
                mode.into(),
                batches.to_string(),
                per_batch.to_string(),
                queries.to_string(),
                f(queries as f64 / reader_wall.max(1e-9) / 1e3),
                f(pct(0.50)),
                f(pct(0.99)),
                snap.epoch().to_string(),
                if verified { "ok" } else { "MISMATCH" }.into(),
            ]);
        }
    }
    t
}

/// E18: the storage backends head-to-head — parsing a text edge list vs
/// memory-mapping the PGB binary of the same graph. One powerlaw graph
/// per target size is written in both formats, then loaded through the
/// same `open_store` entry the CLI uses (binary loads include the full
/// endpoint-validation pass, so the speedup is honest: both columns end
/// with a solver-ready, checked store). The tail columns run the default
/// solver end-to-end on each backend and cross-check the partitions.
#[must_use]
pub fn e18_store(quick: bool) -> Table {
    use parcc_graph::io::{open_store, save_binary, write_edge_list_sharded, DEFAULT_LOAD_CHUNK};
    let mut t = Table::new(
        "E18 — storage: text parse vs PGB mmap (load walls, bytes/edge, end-to-end labels)",
        &[
            "m",
            "shards",
            "text MiB",
            "pgb MiB",
            "B/edge",
            "parse ms",
            "map ms",
            "load speedup",
            "labels text ms",
            "labels map ms",
            "verified",
        ],
    );
    let targets: &[usize] = if quick {
        &[100_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    for &target_m in targets {
        let avg_deg = 8.0;
        // m ≈ n·avg/2 for Chung–Lu, so invert for the target edge count.
        let n = target_m * 2 / avg_deg as usize;
        let k = 8;
        let sg = gen::chung_lu_sharded(n, 2.5, avg_deg, 11, k);
        let dir = std::env::temp_dir();
        let tag = format!("parcc-e18-{}-{target_m}", std::process::id());
        let txt = dir.join(format!("{tag}.txt"));
        let pgb = dir.join(format!("{tag}.pgb"));
        let text_bytes =
            write_edge_list_sharded(&sg, std::fs::File::create(&txt).expect("create text"))
                .expect("write text");
        let pgb_bytes = save_binary(&sg, &pgb).expect("write pgb");
        let time_load = |path: &std::path::Path| {
            let t0 = Instant::now();
            let loaded =
                open_store(path.to_str().expect("utf8 path"), DEFAULT_LOAD_CHUNK).expect("load");
            (loaded, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (text_loaded, parse_ms) = time_load(&txt);
        let (map_loaded, map_ms) = time_load(&pgb);
        let solver = parcc_solver::default_solver();
        let time_solve = |loaded: &parcc_graph::io::LoadedStore| {
            let t0 = Instant::now();
            let r = solver.solve_store(loaded.store(), &SolveCtx::with_seed(11));
            (r.labels, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (text_labels, text_solve_ms) = time_solve(&text_loaded);
        let (map_labels, map_solve_ms) = time_solve(&map_loaded);
        let verified = parcc_graph::traverse::same_partition(&text_labels, &map_labels);
        let _ = std::fs::remove_file(&txt);
        let _ = std::fs::remove_file(&pgb);
        t.row(vec![
            sg.m().to_string(),
            k.to_string(),
            f(text_bytes as f64 / f64::from(1 << 20)),
            f(pgb_bytes as f64 / f64::from(1 << 20)),
            f(pgb_bytes as f64 / sg.m().max(1) as f64),
            f(parse_ms),
            f(map_ms),
            f(parse_ms / map_ms.max(1e-9)),
            f(text_solve_ms),
            f(map_solve_ms),
            if verified { "ok" } else { "MISMATCH" }.into(),
        ]);
    }
    t
}

/// E19: the adaptive hybrid against its two pure endpoints on the two
/// regimes it must bridge. A 2-D mesh is the label-prop worst case
/// (diameter Θ(side), so pure HashMin needs Θ(side) rounds); a low-diameter
/// powerlaw graph is the paper pipeline's overkill case (label-prop
/// converges in a handful of sweeps at a fraction of the simulated work).
/// The hybrid must bound rounds on the mesh by switching to the paper
/// kernel, and undercut the paper's work on the powerlaw input by
/// converging inside its sweep phase. The phases column shows where each
/// hybrid run spent its rounds.
#[must_use]
pub fn e19_adaptive(quick: bool) -> Table {
    let mut t = Table::new(
        "E19 — adaptive hybrid vs pure label-prop vs pure paper (oracle-verified)",
        &[
            "input",
            "n",
            "m",
            "algorithm",
            "rounds",
            "work/(m+n)",
            "wall ms",
            "phases",
            "verified",
        ],
    );
    let side = if quick { 64 } else { 192 };
    let pl_n = if quick { 1 << 13 } else { 1 << 16 };
    let inputs: Vec<(String, Graph)> = vec![
        (
            format!("mesh2d {side}x{side}"),
            gen::grid2d(side, side, false),
        ),
        (
            format!("powerlaw {pl_n}"),
            gen::chung_lu(pl_n, 2.5, 8.0, 13),
        ),
    ];
    for (name, g) in &inputs {
        let mn = (g.n() + g.m()) as f64;
        let oracle = parcc_solver::oracle_labels(g);
        for algo in ["label-prop", "paper", "hybrid"] {
            let s = parcc_solver::find(algo).expect("registered solver");
            let r = s.solve(g, &SolveCtx::with_seed(13));
            let verified = parcc_graph::traverse::same_partition(&r.labels, &oracle);
            let phases = if r.phases.is_empty() {
                "-".into()
            } else {
                r.phases
                    .iter()
                    .map(|p| format!("{}:{}", p.name, p.rounds))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            t.row(vec![
                name.clone(),
                g.n().to_string(),
                g.m().to_string(),
                algo.into(),
                r.rounds.map_or("-".into(), |x| x.to_string()),
                f(r.cost.work as f64 / mn),
                f(r.wall.as_secs_f64() * 1e3),
                phases,
                if verified { "ok" } else { "MISMATCH" }.into(),
            ]);
        }
    }
    t
}

/// E20: thread scaling — the default solver on a sharded store swept
/// over worker-pool sizes, reporting wall, speedup vs the 1-thread run,
/// and parallel efficiency (speedup / threads). When `PARCC_E20_JSON`
/// names a path, the same rows are also written there as JSON (CI's
/// scaling-smoke job uploads it as `BENCH_topology.json`).
#[must_use]
pub fn e20_scaling(quick: bool) -> Table {
    let mut t = Table::new(
        "E20 — thread scaling: default solver on a sharded store",
        &["threads", "n", "m", "wall ms", "speedup", "efficiency"],
    );
    let n = if quick { 1 << 15 } else { 1 << 19 };
    let g = gen::random_regular(n, 8, 5);
    let sg = ShardedGraph::from_graph(&g, 8);
    let solver = parcc_solver::default_solver();
    // 1/2/4 always (the CI gate reads the 4-thread row), then keep
    // doubling while the machine has the cores to back it.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut counts = vec![1usize, 2, 4];
    while counts.last().copied().unwrap_or(4) * 2 <= cores {
        counts.push(counts.last().unwrap() * 2);
    }
    let mut base_ms = 0.0;
    let mut json_rows = Vec::new();
    for &k in &counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .expect("pool");
        // Warm-up ride along: best of 3 keeps the cold first solve out.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            pool.install(|| {
                let _ = solver.solve_store(&sg, &SolveCtx::with_seed(5));
            });
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if k == 1 {
            base_ms = best;
        }
        let speedup = base_ms / best.max(1e-9);
        t.row(vec![
            k.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            f(best),
            f(speedup),
            f(speedup / k as f64),
        ]);
        json_rows.push(format!(
            "    {{\"threads\": {k}, \"wall_ms\": {best:.3}, \"speedup\": {speedup:.3}, \"efficiency\": {:.3}}}",
            speedup / k as f64
        ));
    }
    if let Ok(path) = std::env::var("PARCC_E20_JSON") {
        let body = format!(
            "{{\n  \"workload\": \"expander n={} d=8 (sharded x8), seed 5, best of 3\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            g.n(),
            json_rows.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {path}: {e}");
        }
    }
    t
}

/// E21 (ISSUE 10): the durability tax. The serve commit path is timed
/// with the write-ahead log disabled, appending without fsync (`off`),
/// fsyncing on a 100 ms clock (`interval`), and fsyncing every batch
/// (`batch`, the default) — then the per-batch log is replayed into
/// fresh state and verified against the union-find oracle, so the table
/// prices both halves of the guarantee: what a committed batch costs to
/// make durable, and what recovering it costs at restart.
#[must_use]
pub fn e21_durability(quick: bool) -> Table {
    let mut t = Table::new(
        "E21 — durability: WAL commit overhead by sync policy + crash-recovery replay",
        &[
            "wal",
            "batches",
            "edges/batch",
            "commit wall ms",
            "overhead",
            "replay ms",
            "recovered",
            "verified",
        ],
    );
    let n = if quick { 1 << 11 } else { 1 << 14 };
    let batches: usize = if quick { 32 } else { 128 };
    let per_batch: usize = if quick { 256 } else { 1024 };
    let pool = gen::gnp(n, 3.0 / n as f64, 0xE2);
    let pe = pool.edges();
    let batch_at = |b: usize| -> Vec<parcc_pram::edge::Edge> {
        (0..per_batch)
            .map(|i| pe[(b * per_batch + i) % pe.len()])
            .collect()
    };
    let oracle = {
        let all: Vec<_> = (0..batches).flat_map(batch_at).collect();
        parcc_solver::oracle_labels(&Graph::new(n, all))
    };
    let wal_path = std::env::temp_dir().join(format!("parcc-e21-{}.wal", std::process::id()));
    let mut base_ms = 0.0;
    let mut json_rows = Vec::new();
    for policy in [
        None,
        Some(SyncPolicy::Off),
        Some(SyncPolicy::parse("interval").expect("valid")),
        Some(SyncPolicy::Batch),
    ] {
        let _ = std::fs::remove_file(&wal_path);
        let label = policy.map_or("none", SyncPolicy::name);
        let mut state = parcc_solver::begin_incremental("union-find", 0).expect("registered");
        state.ensure_n(n);
        let engine = parcc_solver::ServeEngine::start(state);
        let mut wal = policy.map(|p| Wal::open(&wal_path, p).expect("fresh wal").0);
        let t0 = Instant::now();
        for b in 0..batches {
            let batch = batch_at(b);
            if let Some(w) = wal.as_mut() {
                w.append(&batch).expect("append");
            }
            engine.submit_batch(batch);
        }
        let snap = engine.flush();
        let commit_ms = t0.elapsed().as_secs_f64() * 1e3;
        if policy.is_none() {
            base_ms = commit_ms;
        }
        let overhead = commit_ms / base_ms.max(1e-9);
        assert!(
            parcc_graph::traverse::same_partition(snap.labels(), &oracle),
            "served partition diverges from the oracle (wal={label})"
        );
        // Price the restart: replay the log into fresh state and verify.
        let (replay_ms, recovered, verified) = if policy.is_some() {
            drop(wal);
            let tr = Instant::now();
            let (_, replay) = Wal::open(&wal_path, SyncPolicy::Off).expect("reopen");
            let mut fresh = parcc_solver::begin_incremental("union-find", 0).expect("registered");
            fresh.ensure_n(n);
            fresh.absorb_batches(&replay.batches);
            let labels = fresh.labels();
            let ms = tr.elapsed().as_secs_f64() * 1e3;
            (
                f(ms),
                replay.batch_count().to_string(),
                parcc_graph::traverse::same_partition(&labels, &oracle).to_string(),
            )
        } else {
            ("-".into(), "-".into(), "true".into())
        };
        json_rows.push(format!(
            "    {{\"wal\": \"{label}\", \"commit_wall_ms\": {commit_ms:.3}, \"overhead\": {overhead:.3}}}"
        ));
        t.row(vec![
            label.into(),
            batches.to_string(),
            per_batch.to_string(),
            f(commit_ms),
            f(overhead),
            replay_ms,
            recovered,
            verified,
        ]);
    }
    let _ = std::fs::remove_file(&wal_path);
    if let Ok(path) = std::env::var("PARCC_E21_JSON") {
        let body = format!(
            "{{\n  \"workload\": \"gnp n={n} c=3, {batches} batches x {per_batch} edges, union-find serve\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {path}: {e}");
        }
    }
    t
}

/// Every experiment table, in id order.
#[must_use]
pub fn all(quick: bool) -> Vec<Table> {
    vec![
        e1_main_scaling(quick),
        e2_ltz(quick),
        e3_matching(quick),
        e5_reduce(quick),
        e6_skeleton(quick),
        e7_increase(quick),
        e8_gap_sampling(quick),
        e9_sampling_pitfall(quick),
        e10_phase_trace(quick),
        e10b_forced_phases(quick),
        e11_two_cycle(quick),
        e12_comparison(quick),
        e13_budget_ablation(quick),
        e14_thread_scaling(quick),
        e15_sharded_storage(quick),
        e16_sort_backends(quick),
        e17_serve_mixed(quick),
        e18_store(quick),
        e19_adaptive(quick),
        e20_scaling(quick),
        e21_durability(quick),
    ]
}

/// A cheap sanity check used by tests: every experiment renders non-empty.
#[must_use]
pub fn smoke() -> usize {
    let tables = all(true);
    tables.iter().map(|t| t.rows.len()).sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_experiments_produce_rows() {
        // Runs the full quick suite once; asserts every table has data.
        let tables = super::all(true);
        assert_eq!(tables.len(), 21);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has no rows", t.title);
        }
    }

    #[test]
    fn e12_covers_every_registered_solver_and_verifies() {
        let t = super::e12_comparison(true);
        for row in &t.rows {
            assert_eq!(row[6], "ok", "{}/{} failed verification", row[0], row[1]);
        }
        // Every registered solver appears on at least one family.
        for s in parcc_solver::registry() {
            assert!(
                t.rows.iter().any(|r| r[1] == s.name()),
                "{} missing from E12",
                s.name()
            );
        }
    }

    #[test]
    fn e17_serve_rows_verify_and_coalesce() {
        let t = super::e17_serve_mixed(true);
        assert_eq!(t.rows.len(), 6, "2 algos × 3 writer modes");
        for row in &t.rows {
            assert_eq!(row[9], "ok", "{}/{} failed verification", row[0], row[1]);
            let batches: u64 = row[2].parse().unwrap();
            let epochs: u64 = row[8].parse().unwrap();
            assert!(
                epochs <= batches,
                "{}/{}: epochs {epochs} must not exceed batches {batches} (coalescing)",
                row[0],
                row[1]
            );
            if batches > 0 {
                assert!(epochs >= 1, "{}/{}: writes must publish", row[0], row[1]);
            }
        }
    }

    #[test]
    fn e19_hybrid_wins_both_regimes() {
        let t = super::e19_adaptive(true);
        assert_eq!(t.rows.len(), 6, "3 solvers x 2 regimes");
        for row in &t.rows {
            assert_eq!(row[8], "ok", "{}/{} failed verification", row[0], row[3]);
        }
        let col = |input: &str, algo: &str, idx: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(input) && r[3] == algo)
                .unwrap_or_else(|| panic!("missing {input}/{algo}"))[idx]
                .parse()
                .unwrap()
        };
        // Mesh: the switch must bound rounds far below pure HashMin's
        // Theta(side) fixpoint march (wall clocks are too noisy to pin).
        let lp_mesh = col("mesh2d", "label-prop", 4);
        let hy_mesh = col("mesh2d", "hybrid", 4);
        assert!(
            hy_mesh * 4.0 < lp_mesh,
            "hybrid must cut mesh rounds: {hy_mesh} vs label-prop {lp_mesh}"
        );
        // Powerlaw: converging inside the sweep phase must undercut the
        // full pipeline's simulated work (deterministic, unlike wall).
        let paper_pl = col("powerlaw", "paper", 5);
        let hy_pl = col("powerlaw", "hybrid", 5);
        assert!(
            hy_pl < paper_pl,
            "hybrid must undercut paper work on powerlaw: {hy_pl} vs {paper_pl}"
        );
    }

    #[test]
    fn e18_backends_agree_and_mapping_is_not_slower() {
        let t = super::e18_store(true);
        assert_eq!(t.rows.len(), 1, "quick mode runs one size");
        for row in &t.rows {
            assert_eq!(row[10], "ok", "partitions must match across backends");
            // The ≥10× acceptance claim is checked at 1M edges by CI's
            // store-smoke; the quick graph is small enough that we only
            // pin the direction here, not the magnitude.
            let speedup: f64 = row[7].parse().unwrap();
            assert!(speedup >= 1.0, "mapping slower than parsing: {speedup}x");
        }
    }

    #[test]
    fn e1_bound_ratio_is_moderate() {
        let t = super::e1_main_scaling(true);
        // depth/bound must stay within a sane constant envelope (shape test).
        for row in &t.rows {
            let ratio: f64 = row[7].parse().unwrap();
            assert!(
                ratio > 0.0 && ratio < 2000.0,
                "ratio {ratio} out of envelope"
            );
        }
    }
}
