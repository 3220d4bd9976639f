//! Offline layers: loading, registry solves, and the per-layer probes of
//! the rayon shim, the PRAM primitives, stage 1 and the baselines.

use crate::serve::Server;
use crate::trace::Samples;
use crate::{Run, THREADS};
use parcc_core::stage1::{reduce_sharded, Stage1Scratch};
use parcc_core::Params;
use parcc_graph::io::{open_store, LoadedStore, DEFAULT_LOAD_CHUNK};
use parcc_graph::store::shard_slices;
use parcc_graph::{Graph, MappedGraph};
use parcc_pram::alloc_track;
use parcc_pram::edge::edge_words;
use parcc_pram::{CostTracker, ParentForest};
use parcc_solver::{verify_partition, SolveCtx, SolveReport};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::hint::black_box;
use std::time::Duration;

const MIB: f64 = (1u64 << 20) as f64;

fn pools() -> [ThreadPool; 2] {
    THREADS.map(|t| {
        ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("a scoped pool always builds")
    })
}

/// `setup_s`: load the text edge list the way `parcc stats file.txt` does,
/// plus spawn `parcc serve` on the PGB preload until its first reply.
/// The run repeats it between its other phases and reports the median.
#[derive(Default)]
pub struct Setup {
    total: Samples,
    load: Samples,
}

impl Setup {
    /// One timed set-up; returns the loaded store.
    pub fn once(&mut self, run: &mut Run) -> LoadedStore {
        let wal = run.work.join("setup.wal");
        let (text, pgb, parcc) = (&run.text_path, &run.pgb_path, &run.parcc);
        let ((loaded, load_d, spawn_d), _) = run.tr.op("setup", |tr| {
            let (loaded, load_d) = tr.span("graph.io.open_store", || {
                open_store(text, DEFAULT_LOAD_CHUNK)
            });
            let (server, spawn_d) = tr.span("cli.spawn_to_first_reply", || {
                Server::start(parcc, &wal, pgb).expect("parcc serve starts")
            });
            server.quit().expect("parcc serve quits");
            (loaded, load_d, spawn_d)
        });
        let _ = std::fs::remove_file(&wal);
        let store = loaded.unwrap_or_else(|e| panic!("loading {}: {e}", text.display()));
        let (m, want) = (store.store().m(), run.graph.m());
        run.rep.check(m == want, || {
            format!("text load read {m} edges, wrote {want}")
        });
        self.total.push((load_d + spawn_d).as_secs_f64());
        self.load.push_ms(load_d);
        store
    }

    pub fn report(self, run: &mut Run) {
        let (total, load) = (self.total, self.load);
        run.rep.e2e("setup_s", total.median(), "s", total.len());
        run.rep
            .layer("graph.text_load_ms", load.median(), "ms", load.len());
    }
}

/// One timed registry solve on `store`, verified against the union-find
/// oracle on `flat`, the same graph.
fn solve(
    run: &mut Run,
    store: &LoadedStore,
    flat: &Graph,
    pool: &ThreadPool,
    op: &'static str,
    name: &'static str,
) -> (SolveReport, Duration) {
    let solver = parcc_solver::find(name).expect("registered solver");
    let ctx = SolveCtx::with_seed(run.seed);
    let (report, wall) = run.tr.op(op, |tr| {
        pool.install(|| {
            tr.span("solver.solve_store", || {
                solver.solve_store(store.store(), &ctx)
            })
            .0
        })
    });
    let verdict = verify_partition(flat, &report.labels);
    run.rep.check(verdict.is_ok(), || {
        format!("{op}: {}", verdict.clone().unwrap_err())
    });
    (report, wall)
}

/// The timed solves, in the order each round runs them: metric, solver,
/// pool. The 1-thread ones are end-to-end metrics. The 2-thread ones are
/// per-layer metrics, without a bound, and run only in traced runs: a
/// 2-thread solve wakes the second worker at every parallel step, and on
/// a shared two-core virtual machine each wake-up waits for the
/// hypervisor, so their medians moved by half between runs of the same
/// code as the host's load changed.
const CASES: [(&str, &str, usize); 6] = [
    ("paper_ms.t1", "paper", 0),
    ("paper_ms.t2", "paper", 1),
    ("ltz_ms.t1", "ltz", 0),
    ("ltz_ms.t2", "ltz", 1),
    ("hybrid_ms.t1", "hybrid", 0),
    ("hybrid_ms.t2", "hybrid", 1),
];

/// The cases a run times, with their index in [`CASES`]: all of them in a
/// traced run, else the 1-thread ones.
fn cases(traced: bool) -> impl Iterator<Item = (usize, (&'static str, &'static str, usize))> {
    CASES
        .into_iter()
        .enumerate()
        .filter(move |(_, c)| c.2 == 0 || traced)
}

/// The timed solves: `paper`, `ltz` and `hybrid` at 1 thread, and in a
/// traced run also at 2, one of each per round; the run spreads its
/// rounds over its budget.
pub struct Solves {
    pools: [ThreadPool; 2],
    flat: Graph,
    times: Vec<Samples>,
    peak: Samples,
    untraced: Samples,
    paper_t1: Option<SolveReport>,
    ltz_rounds: u64,
    rounds: usize,
}

impl Solves {
    /// Pools, the oracle's graph, and one untimed round: the first solves
    /// fault in the heap that later ones reuse.
    pub fn new(run: &mut Run, store: &LoadedStore) -> Self {
        let this = Self {
            pools: pools(),
            flat: store.store().to_flat().into_owned(),
            times: vec![Samples::default(); CASES.len()],
            peak: Samples::default(),
            untraced: Samples::default(),
            paper_t1: None,
            ltz_rounds: 0,
            rounds: 0,
        };
        for (_, (_, name, pool)) in cases(run.tr.on()) {
            solve(run, store, &this.flat, &this.pools[pool], "warmup", name);
        }
        this
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// One timed, verified solve of every case.
    pub fn round(&mut self, run: &mut Run, store: &LoadedStore) {
        for (i, (metric, name, pool)) in cases(run.tr.on()) {
            let live = alloc_track::live_bytes();
            let (report, wall) = solve(run, store, &self.flat, &self.pools[pool], metric, name);
            self.times[i].push_ms(wall);
            if metric == "paper_ms.t1" {
                self.peak
                    .push(report.peak_bytes.saturating_sub(live) as f64 / MIB);
                self.paper_t1 = Some(report);
                if run.tr.on() {
                    // The same solve with nothing recorded: the difference
                    // is the tracing overhead.
                    let mut off = crate::trace::Tracer::new(false);
                    std::mem::swap(&mut run.tr, &mut off);
                    let (_, wall) = solve(
                        run,
                        store,
                        &self.flat,
                        &self.pools[0],
                        "paper_ms.t1",
                        "paper",
                    );
                    std::mem::swap(&mut run.tr, &mut off);
                    self.untraced.push_ms(wall);
                }
            } else if metric == "ltz_ms.t1" {
                self.ltz_rounds = report.rounds.unwrap_or(0);
            }
        }
        self.rounds += 1;
    }

    pub fn report(self, run: &mut Run, store: &LoadedStore) {
        for (i, (metric, _, pool)) in cases(run.tr.on()) {
            let t = &self.times[i];
            if pool == 0 {
                run.rep.e2e(metric, t.median(), "ms", t.len());
            } else {
                run.rep.layer(metric, t.median(), "ms", t.len());
            }
        }
        let peak = &self.peak;
        run.rep.e2e("peak_mib", peak.median(), "MiB", peak.len());

        let paper = self.paper_t1.expect("at least one round");
        let mn = (store.store().m() + store.store().n()) as f64;
        let rep = &mut run.rep;
        rep.layer("core.work_per_mn", paper.cost.work as f64 / mn, "ratio", 1);
        rep.layer("core.depth", paper.cost.depth as f64, "steps", 1);
        rep.layer("core.allocs.t1", paper.allocs as f64, "count", 1);
        rep.layer("ltz.rounds", self.ltz_rounds as f64, "count", 1);
        if run.tr.on() {
            let traced = self.times[0].median();
            let base = self.untraced.median();
            rep.layer(
                "trace.overhead_pct",
                (traced - base) / base * 100.0,
                "%",
                self.untraced.len(),
            );
        }
    }
}

/// Call `f` `reps` times on `pool`, each call a child span `child` of its
/// own root span `op`; returns the calls' durations and the last result.
fn probe<R>(
    run: &mut Run,
    pool: &ThreadPool,
    op: &'static str,
    child: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (Vec<Duration>, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        run.tr.op(op, |tr| {
            pool.install(|| {
                let (out, d) = tr.span(child, &mut f);
                times.push(d);
                last = Some(out);
            });
        });
    }
    (times, last.expect("reps is at least 1"))
}

fn ms(times: &[Duration]) -> Samples {
    let mut s = Samples::default();
    times.iter().for_each(|&d| s.push_ms(d));
    s
}

/// Per-layer probes of the offline layers (traced runs only).
pub fn layers(run: &mut Run, store: &LoadedStore) {
    let pools = pools();
    let tiny = run.tiny;
    let reps = if tiny { 1 } else { 5 };
    let flat = store.store().to_flat().into_owned();

    // shims/rayon: dispatch cost of a tiny reduction and a large collect.
    let small: Vec<u64> = (0..2048).collect();
    let big = if tiny { 1 << 14 } else { 4 << 20 };
    for (t, pool) in pools.iter().enumerate() {
        let (calls, sum) = probe(
            run,
            pool,
            "rayon.tiny_sum",
            "rayon.par_iter.sum",
            if tiny { 10 } else { 2000 },
            || black_box(&small).par_iter().sum::<u64>(),
        );
        run.rep
            .check(sum == 2047 * 2048 / 2, || format!("rayon sum gave {sum}"));
        let mut us = Samples::default();
        calls.iter().for_each(|&d| us.push_us(d));
        let name = ["rayon.tiny_sum_us.t1", "rayon.tiny_sum_us.t2"][t];
        run.rep.layer(name, us.median(), "us", us.len());

        let (times, out) = probe(
            run,
            pool,
            "rayon.collect",
            "rayon.map.collect",
            reps,
            || {
                (0..black_box(big) as u64)
                    .into_par_iter()
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .collect::<Vec<u64>>()
            },
        );
        run.rep.check(out.len() == big, || {
            format!("collect gave {} items", out.len())
        });
        let name = ["rayon.collect_ms.t1", "rayon.collect_ms.t2"][t];
        let s = ms(&times);
        run.rep.layer(name, s.median(), "ms", s.len());
    }

    // crates/pram: the sort and simplify primitives on the packed edges.
    let keys = edge_words(flat.edges()).to_vec();
    let sorted = |k: &[u64]| k.windows(2).all(|w| w[0] <= w[1]);
    for (t, pool) in pools.iter().enumerate() {
        let (times, out) = probe(run, pool, "pram.sort", "pram.sort.sort_u64", reps, || {
            let mut k = keys.clone();
            parcc_pram::sort::sort_u64(&mut k);
            k
        });
        run.rep
            .check(sorted(&out), || "sort_u64 left keys unsorted".into());
        let s = ms(&times);
        run.rep.layer(
            ["pram.sort_ms.t1", "pram.sort_ms.t2"][t],
            s.median(),
            "ms",
            s.len(),
        );

        let (times, out) = probe(
            run,
            pool,
            "pram.simplify",
            "pram.primitives.simplify_edges",
            reps,
            || parcc_pram::primitives::simplify_edges(flat.edges(), true, &CostTracker::new()),
        );
        run.rep.check(out.len() <= flat.m(), || {
            "simplify grew the edge set".into()
        });
        let s = ms(&times);
        run.rep.layer(
            ["pram.simplify_ms.t1", "pram.simplify_ms.t2"][t],
            s.median(),
            "ms",
            s.len(),
        );
    }
    let (times, out) = probe(
        run,
        &pools[0],
        "pram.sort_std",
        "std.sort_unstable",
        reps,
        || {
            let mut k = keys.clone();
            k.sort_unstable();
            k
        },
    );
    run.rep
        .check(sorted(&out), || "sort_unstable left keys unsorted".into());
    let s = ms(&times);
    run.rep
        .layer("pram.sort_std_ms.t1", s.median(), "ms", s.len());

    // crates/core: stage 1 alone; the rest of `paper` is the difference.
    let n = store.store().n();
    let params = Params::for_n(n).with_seed(run.seed);
    let slices = shard_slices(store.store());
    for (t, pool) in pools.iter().enumerate() {
        let mut times = Vec::new();
        for _ in 0..if tiny { 1 } else { 3 } {
            let forest = ParentForest::new(n);
            let scratch = Stage1Scratch::new(n);
            let tracker = CostTracker::new();
            let (out, _) = run.tr.op("core.stage1", |tr| {
                pool.install(|| {
                    let (out, d) = tr.span("core.stage1.reduce_sharded", || {
                        reduce_sharded(&slices, &params, &forest, &scratch, &tracker)
                    });
                    times.push(d);
                    out
                })
            });
            if t == 0 && times.len() == 1 {
                run.rep
                    .layer("core.stage1_live", out.active.len() as f64, "count", 1);
                run.rep
                    .layer("core.stage1_edges", out.edges.len() as f64, "count", 1);
            }
        }
        let s = ms(&times);
        let stage1 = s.median();
        let paper = run.rep.value(["paper_ms.t1", "paper_ms.t2"][t]);
        run.rep.layer(
            ["core.stage1_ms.t1", "core.stage1_ms.t2"][t],
            stage1,
            "ms",
            s.len(),
        );
        run.rep.layer(
            ["core.after_stage1_ms.t1", "core.after_stage1_ms.t2"][t],
            paper - stage1,
            "ms",
            s.len(),
        );
    }

    // crates/baselines and crates/solver: the oracle floor, SV and `auto`.
    for (metric, name, pool) in [
        ("baselines.union_find_ms", "union-find", 0),
        ("baselines.sv_ms.t2", "shiloach-vishkin", 1),
        ("solver.auto_ms.t2", "auto", 1),
    ] {
        let mut s = Samples::default();
        for _ in 0..reps {
            let (_, wall) = solve(run, store, &flat, &pools[pool], metric, name);
            s.push_ms(wall);
        }
        run.rep.layer(metric, s.median(), "ms", s.len());
    }

    // crates/graph: open + CRC-validate the PGB file.
    let pgb = run.pgb_path.clone();
    let (times, mg) = probe(
        run,
        &pools[1],
        "graph.pgb_open",
        "graph.MappedGraph.open_validate",
        reps,
        || {
            let mg = MappedGraph::open(&pgb).expect("generated PGB opens");
            mg.validate().expect("generated PGB validates");
            mg
        },
    );
    let g = &run.graph;
    run.rep.check(mg.n() == g.n() && mg.m() == g.m(), || {
        "PGB n/m differ from the generated graph".into()
    });
    let s = ms(&times);
    run.rep
        .layer("graph.pgb_open_ms", s.median(), "ms", s.len());
}
