//! The repository benchmark.
//!
//! One run generates one seeded workload graph, writes it as a text edge
//! list and as PGB into a temporary directory, and measures it through the
//! public entry points of every layer:
//!
//! * offline: registry solves (`paper`, `ltz`, `hybrid`) on the store that
//!   `io::open_store` loads from the text file, at 1 and 2 threads, each
//!   checked against the union-find oracle;
//! * serving: the real `parcc serve --wal` binary, driven over its
//!   stdin/stdout protocol by one closed-loop client in sessions that each
//!   restart on the run's write-ahead log; the component count is checked
//!   against a library union-find after every restart and at the end of
//!   every session.
//!
//! The two interleave: set-ups, serve sessions and rounds of solves
//! alternate over the whole `--seconds` budget.
//!
//! With `--trace 0` it prints the end-to-end metrics. With `--trace 1` the
//! same operations run with spans recorded, plus one probe per layer
//! (shim, PRAM primitives, stage 1, baselines, serve engine, storage and
//! WAL), and it prints the per-layer metrics; the spans are written to
//! `--spans DIR`. The last line of standard output is the result object;
//! the line before it is the run record (host, thread counts, source
//! revision, inputs and the sample count behind every metric).
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --parcc PATH --work DIR [--spans DIR] [--source REV] [--tiny]`.

mod offline;
mod serve;
mod trace;

use parcc_graph::generators;
use parcc_graph::io::{save_binary, write_edge_list, DEFAULT_LOAD_CHUNK};
use parcc_graph::{Graph, ShardedGraph};
use parcc_pram::alloc_track::CountingAllocator;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Thread counts every parallel measurement runs at. The reference host
/// has two cores and one NUMA node, so four threads would oversubscribe it.
pub const THREADS: [usize; 2] = [1, 2];

/// The workloads. Why each one exists is recorded in `BENCHMARK.json`.
fn workload_graph(name: &str, seed: u64, tiny: bool) -> Option<Graph> {
    Some(match (name, tiny) {
        // The paper's target regime: a random 8-regular expander, λ ≈ 0.35.
        ("expander-200k", false) => generators::random_regular(200_000, 8, seed),
        ("expander-200k", true) => generators::random_regular(2_000, 8, seed),
        // λ = Θ(1/n) and diameter ≈ 400: stages 2–3 see real work.
        ("mesh-400", false) => generators::grid2d(400, 400, true),
        ("mesh-400", true) => generators::grid2d(20, 20, true),
        _ => return None,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Metrics, attempted and failed operations of one run.
#[derive(Default)]
pub struct Report {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layer.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Count one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// A metric already reported, end-to-end or per-layer.
    pub fn value(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .chain(&self.layer)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not measured"))
            .value
    }
}

/// Everything a phase of the run needs.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub tiny: bool,
    /// Measuring time budget of the whole run.
    pub budget: Duration,
    /// When measuring began, after the inputs were written.
    pub start: Instant,
    pub graph: Graph,
    pub text_path: PathBuf,
    pub pgb_path: PathBuf,
    pub work: PathBuf,
    pub parcc: PathBuf,
    pub tr: Tracer,
    pub rep: Report,
}

/// Removes the run's temporary directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    parcc: PathBuf,
    work: PathBuf,
    spans: Option<PathBuf>,
    source: String,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut parcc, mut work, mut spans, mut source, mut tiny) =
        (None, None, None, "unknown".to_string(), false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--parcc" => parcc = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        parcc: parcc.ok_or("--parcc is required")?,
        work: work.ok_or("--work is required")?,
        spans,
        source,
        tiny,
    })
}

fn write_inputs(g: &Graph, text: &Path, pgb: &Path) -> std::io::Result<()> {
    let f = std::io::BufWriter::new(std::fs::File::create(text)?);
    write_edge_list(g, f)?;
    let k = g.m().div_ceil(DEFAULT_LOAD_CHUNK).max(1);
    save_binary(&ShardedGraph::from_graph(g, k), pgb)?;
    Ok(())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Host facts for the run record: cores, NUMA nodes and L3 size in bytes.
fn host_facts() -> (usize, usize, Option<u64>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let numa = std::fs::read_dir("/sys/devices/system/node")
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.strip_prefix("node")
                        .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()))
                })
                .count()
        })
        .unwrap_or(0)
        .max(1);
    let l3 = (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if read_trimmed(&format!("{dir}/level"))? != "3" {
            return None;
        }
        let size = read_trimmed(&format!("{dir}/size"))?;
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size.as_str(), 1),
            },
        };
        digits.parse::<u64>().ok().map(|v| v * scale)
    });
    (nproc, numa, l3)
}

/// Cumulative steal and total CPU time of all cores, in clock ticks, from
/// `/proc/stat`: the time the hypervisor ran something else while a core
/// of this machine was ready to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `steal_at_start` is [`cpu_ticks`] when measuring began.
fn run_record(
    run: &Run,
    args: &Args,
    printed: &[Metric],
    steal_at_start: Option<(u64, u64)>,
) -> String {
    let (nproc, numa, l3) = host_facts();
    // The share of the cores' time the host took away during the run: a
    // run that reads slower than its neighbours with a high share was
    // contended, not slowed by the program.
    let steal_pct = steal_at_start
        .zip(cpu_ticks())
        .filter(|((_, t0), (_, t1))| t1 > t0)
        .map_or_else(
            || "null".to_string(),
            |((s0, t0), (s1, t1))| format!("{:.1}", (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0),
        );
    let g = &run.graph;
    let bytes = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let edge_bytes = g.m() as u64 * 8;
    let peak = run
        .rep
        .e2e
        .iter()
        .find(|m| m.name == "peak_mib")
        .map_or(0.0, |m| m.value);
    let fits = l3.map_or_else(
        || "unknown".to_string(),
        |l3| {
            let working = edge_bytes as f64 + peak * (1u64 << 20) as f64;
            (working <= l3 as f64).to_string()
        },
    );
    let samples: Vec<String> = printed
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    format!(
        "{{\"record\": \"perfbench\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"source\": \"{}\", \"host\": {{\"nproc\": {nproc}, \"numa_nodes\": {numa}, \
         \"l3_bytes\": {}, \"steal_pct\": {steal_pct}}}, \"threads\": {:?}, \"serve_threads\": {}, \
         \"input\": {{\"n\": {}, \"m\": {}, \"edge_bytes\": {edge_bytes}, \"text_bytes\": {}, \
         \"pgb_bytes\": {}}}, \"fits_in_l3\": {fits}, \"bandwidth_metrics\": false, \
         \"spans\": {}, \"samples\": {{{}}}}}",
        run.workload,
        run.seed,
        args.seconds,
        u8::from(args.trace),
        args.source,
        l3.map_or_else(|| "null".to_string(), |v| v.to_string()),
        THREADS,
        serve::SERVE_THREADS,
        g.n(),
        g.m(),
        bytes(&run.text_path),
        bytes(&run.pgb_path),
        run.tr.span_count(),
        samples.join(", ")
    )
}

fn main() {
    // Everything outside an explicit pool, set-up's text load included,
    // runs at one thread: on a shared two-core virtual machine, waking a
    // second core costs a trip through the hypervisor whose price follows
    // the host's load, not the program.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the global pool is built once, first");
    let code = match parse_args().and_then(|args| bench(&args)) {
        Ok(failed) => i32::from(failed),
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One benchmark run; `Ok(true)` when an operation failed its check.
fn bench(args: &Args) -> Result<bool, String> {
    let graph = workload_graph(&args.workload, args.seed, args.tiny)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    if !args.parcc.is_file() {
        return Err(format!("no parcc binary at {}", args.parcc.display()));
    }
    let work = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let _cleanup = TempDir(work.clone());
    let text_path = work.join("graph.txt");
    let pgb_path = work.join("graph.pgb");
    write_inputs(&graph, &text_path, &pgb_path).map_err(|e| format!("writing inputs: {e}"))?;

    let mut run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        tiny: args.tiny,
        budget: Duration::from_secs(args.seconds),
        start: Instant::now(),
        graph,
        text_path,
        pgb_path,
        work,
        parcc: args.parcc.clone(),
        tr: Tracer::new(args.trace),
        rep: Report::default(),
    };

    let steal_at_start = cpu_ticks();
    let mut setup = offline::Setup::default();
    let store = setup.once(&mut run);
    let mut solves = offline::Solves::new(&mut run, &store);
    let mut serve = serve::Serve::new(&run);
    // The run is cut into slots of a set-up, a serve session and offline
    // rounds up to the slot's share of the budget, so that each metric's
    // samples spread over the whole run and a burst of load from other
    // tenants of the host moves a few samples of each, not all of one.
    let slots = if args.tiny { 2 } else { serve::SESSIONS };
    let min_rounds = if args.tiny { 1 } else { 3 };
    for slot in 0..slots {
        if slot > 0 {
            drop(setup.once(&mut run));
        }
        serve.session(&mut run);
        let until = run.budget * (slot + 1) as u32 / slots as u32;
        while run.start.elapsed() < until || (slot + 1 == slots && solves.rounds() < min_rounds) {
            solves.round(&mut run, &store);
        }
    }
    let (wal, acked) = serve.finish(&mut run);
    solves.report(&mut run, &store);
    setup.report(&mut run);
    if args.trace {
        offline::layers(&mut run, &store);
        serve::layers(&mut run, &wal, acked);
    }

    if let Some(dir) = args.spans.as_ref().filter(|_| args.trace) {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| run.tr.write_jsonl(&path));
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }

    let printed = if args.trace {
        &run.rep.layer
    } else {
        &run.rep.e2e
    };
    println!("{}", run_record(&run, args, printed, steal_at_start));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.rep.failed == 0,
        run.rep.attempted,
        run.rep.failed,
        json_metrics(printed)
    );
    Ok(run.rep.failed > 0)
}
