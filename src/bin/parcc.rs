//! `parcc` — command-line connected components.
//!
//! ```text
//! parcc labels  graph.txt              # one component label per vertex
//! parcc stats   graph.txt              # components, sizes, simulated PRAM cost
//! parcc --algo ltz stats graph.txt     # any registered solver by name
//! parcc compare graph.txt              # every registered solver, verified
//! parcc compare --json graph.txt       # machine-readable comparison
//! parcc compare --baseline b.json g.txt # warn on wall/depth regressions
//! parcc compare --baseline b.json --fail g.txt # ...and exit 1 on any warning
//! parcc --policy tuned.policy stats g.txt # load adaptive thresholds from a file
//! parcc tune --out tuned.policy r1.json r2.json # refit thresholds from stored runs
//! parcc gen cycle 1000 > g.txt         # generators (cycle/path/mesh2d/expander/gnp/powerlaw)
//! parcc gen mesh2d 300 > g.txt         # 300x300 grid (n = 90000)
//! parcc gen gnp 10000 7 12 > g.txt     # seed 7, average degree 12
//! parcc gen --shards 4 gnp 10000 > g.txt # sharded on-disk format
//! parcc convert g.txt g.pgb            # text -> zero-copy binary (PGB)
//! parcc convert --verify g.txt g.pgb   # + round-trip partition check
//! parcc stats g.pgb                    # every command auto-detects binary
//! parcc --ooc stats g.pgb              # out-of-core: shard-at-a-time solve
//! parcc serve g.txt                    # long-lived insert/query protocol
//! cat g.txt | parcc stats -            # '-' reads stdin
//! parcc --threads 4 stats g.txt        # pin the worker pool size
//! parcc --help                         # full usage + solver table
//! ```
//!
//! Text input: `u v` per line (any whitespace, tabs included), `#`/`%`
//! comments, optional `# nodes: N` (SNAP's `# Nodes: N Edges: M` banner
//! works too); sharded files add `# shards: K` and `# shard i` markers
//! (still valid flat files — the markers are comments). Binary input is
//! the PGB format written by `convert` (magic-sniffed automatically):
//! page-aligned shards of packed edge words, memory-mapped and served to
//! the solvers zero-copy. Text streams in chunks into a [`ShardedGraph`];
//! either way solving goes through the shard-aware registry entry, so the
//! flat edge vector never materializes for the native solvers.
//!
//! The worker pool size is `--threads N` if given, else the `PARCC_THREADS`
//! env var, else the machine's available parallelism. `--threads 1` runs
//! fully sequentially and bit-for-bit deterministically.

use parcc::core::ComponentIndex;
use parcc::graph::generators as gen;
use parcc::graph::io::{
    open_binary, open_store, read_edge_list_sharded, save_binary, write_edge_list,
    write_edge_list_sharded, LoadedStore, DEFAULT_LOAD_CHUNK,
};
use parcc::graph::traverse::same_partition;
use parcc::graph::wal::{SyncPolicy, Wal};
use parcc::graph::{Graph, GraphStore, ShardedGraph};
use parcc::pram::alloc_track;
use parcc::pram::edge::Edge;
use parcc::solver::{self, ComponentSolver, ServeEngine, SolveCtx};
use std::io::{BufRead, Write};
use std::time::Instant;

/// The CLI installs the counting-allocator hook so `stats`/`compare`
/// report real `allocs`/`peak_bytes` telemetry. Overhead is two relaxed
/// atomic ops per heap allocation — and the point of the hot-path work is
/// that the solve loops barely allocate at all.
#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;

/// Load any input — text (flat or shard-marked, streamed into a
/// [`ShardedGraph`]) or PGB binary (magic-sniffed, memory-mapped and
/// endpoint-validated) — plus the load wall time. stdin (`-`) is text
/// only: a mapped store needs a seekable file.
fn load(path: &str) -> Result<(LoadedStore, std::time::Duration), String> {
    let start = Instant::now();
    let loaded = if path == "-" {
        let stdin = std::io::stdin();
        let mut lock = stdin.lock();
        let head = lock.fill_buf().map_err(|e| e.to_string())?;
        if head.starts_with(&parcc::graph::mmap::MAGIC) {
            return Err(
                "binary (PGB) input cannot be read from stdin; pass the file path instead".into(),
            );
        }
        read_edge_list_sharded(lock, DEFAULT_LOAD_CHUNK).map(LoadedStore::Text)?
    } else {
        open_store(path, DEFAULT_LOAD_CHUNK)?
    };
    Ok((loaded, start.elapsed()))
}

/// `"K (sizes [a, b, …])"` — the shard telemetry line.
fn shard_summary(sizes: &[usize]) -> String {
    let shown: Vec<usize> = sizes.iter().copied().take(8).collect();
    let ell = if sizes.len() > 8 { ", …" } else { "" };
    format!("{} (sizes {shown:?}{ell})", sizes.len())
}

/// The `storage:` stats line: which backend the input landed in.
fn storage_summary(loaded: &LoadedStore) -> String {
    match loaded {
        LoadedStore::Text(_) => "text (parsed to heap shards)".into(),
        LoadedStore::Mapped(mg) => format!(
            "binary ({}, {:.1} MiB on disk)",
            if mg.is_zero_copy() {
                "mmap zero-copy"
            } else {
                "decoded to heap"
            },
            mg.file_bytes() as f64 / f64::from(1 << 20)
        ),
    }
}

fn usage_text() -> String {
    let mut s = String::from(
        "usage:\n\
         \x20 parcc [--threads N] [--algo NAME] [--policy FILE] [--ooc] labels  <file|->\n\
         \x20 parcc [--threads N] [--algo NAME] [--policy FILE] [--ooc] stats   <file|->\n\
         \x20 parcc [--threads N] [--policy FILE] compare [--json] [--baseline FILE [--fail]] <file|->\n\
         \x20 parcc [--threads N] [--algo NAME] [--policy FILE] serve [--wal PATH [--wal-sync P]] [file]\n\
         \x20 parcc convert [--verify] <in: file|-> <out.pgb>\n\
         \x20 parcc gen [--shards K] <cycle|path|expander|gnp|powerlaw|mesh2d> <n> [seed] [avg-deg]\n\
         \x20 parcc tune [--out FILE] [--sort-probe] [run.json ...]\n\
         \x20 parcc --help | -h\n\
         \n\
         \x20 labels    print one `vertex label` row per vertex\n\
         \x20 stats     components, sizes (via ComponentIndex), simulated PRAM cost,\n\
         \x20           shard + storage telemetry\n\
         \x20 compare   run EVERY registered solver on the same graph, verify each\n\
         \x20           partition against the union-find oracle, print a table\n\
         \x20           (--json for machine-readable output; exit 1 on any mismatch;\n\
         \x20           --baseline FILE diffs wall/depth against a stored\n\
         \x20           `compare --json` output and warns on slowdowns — warn-only\n\
         \x20           unless --fail promotes the warnings to exit status 1,\n\
         \x20           for fixed-hardware CI runners)\n\
         \x20 convert   write any input (text or binary) as a PGB binary file:\n\
         \x20           page-aligned packed-edge shards that later runs memory-map\n\
         \x20           zero-copy (--verify re-opens the output and checks the\n\
         \x20           structure and the solved partition match the input)\n\
         \x20 gen       write a generated edge list to stdout; avg-deg applies to\n\
         \x20           expander/gnp/powerlaw (default 8); --shards K emits the\n\
         \x20           sharded on-disk format (gnp/powerlaw/mesh2d build shards\n\
         \x20           natively); mesh2d takes the grid SIDE as <n> (n = side²,\n\
         \x20           the high-diameter family that stresses hybrid's switch)\n\
         \x20 tune      refit the adaptive dispatch policy from stored\n\
         \x20           `compare --json` outputs (one file per run) and emit a\n\
         \x20           policy file (--out FILE, else stdout) that --policy /\n\
         \x20           PARCC_POLICY loads into auto and hybrid; --sort-probe\n\
         \x20           additionally times radix digit-width / write-combining\n\
         \x20           candidates on this machine and folds the winner into\n\
         \x20           the emitted sort_* keys\n\
         \x20 serve     long-lived line protocol on stdin/stdout: writers buffer\n\
         \x20           edges with `add u v [u v ...]` and submit them with\n\
         \x20           `commit` (absorbed by a background merge); readers ask\n\
         \x20           `same-component u v` / `component-size v` /\n\
         \x20           `component-count` against epoch-pinned snapshots (reads\n\
         \x20           never block on merges); `flush` waits for all submitted\n\
         \x20           batches, `save PATH` snapshots the merged forest as a PGB\n\
         \x20           binary for instant restart, `stats`/`epoch`/`help`\n\
         \x20           introspect, `quit` exits. [file] preloads a graph as epoch\n\
         \x20           0 — a PGB file preloads straight off the map (no '-':\n\
         \x20           stdin is the protocol channel). Default --algo: union-find\n\
         \x20           (natively incremental); others re-solve per epoch.\n\
         \x20           --wal PATH appends every committed batch to a\n\
         \x20           checksummed write-ahead log before acking, replays it\n\
         \x20           on startup (truncating a torn tail at the last valid\n\
         \x20           record), and compacts it on `save` — acknowledged\n\
         \x20           commits survive a crash. --wal-sync batch|interval|off\n\
         \x20           trades fsync frequency for append latency (default:\n\
         \x20           batch = one fsync per commit)\n\
         \n\
         \x20 --threads N   worker pool size (else PARCC_THREADS, else all cores)\n\
         \x20 --algo NAME   solver for labels/stats/serve (default: paper;\n\
         \x20               serve defaults to union-find)\n\
         \x20 --policy FILE adaptive dispatch thresholds for auto/hybrid\n\
         \x20               (see `parcc tune`; else the PARCC_POLICY env var,\n\
         \x20               else built-in defaults)\n\
         \x20 --ooc         out-of-core: stream a PGB binary shard-at-a-time\n\
         \x20               through natively incremental union-find, releasing\n\
         \x20               each shard's pages behind the cursor (labels/stats,\n\
         \x20               binary input only; residency stays near one shard)\n\
         \n\
         \x20 inputs may be flat or sharded text edge lists, or PGB binaries\n\
         \x20 (auto-detected); text streams in chunks, binaries map zero-copy,\n\
         \x20 and everything is solved shard-aware\n\
         \n\
         registered solvers (parcc compare runs them all):\n",
    );
    for sv in solver::registry() {
        s.push_str(&format!("  {:<18} {}\n", sv.name(), sv.description()));
    }
    s
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Strip `--flag value` (anywhere before positional arguments); returns the
/// value if the flag was present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args[pos + 1].clone();
    // `--baseline --json` must not swallow `--json` as the baseline path —
    // that used to surface as a baffling "cannot open --json" later.
    if value.starts_with("--") {
        return Err(format!("{flag} needs a value, but found flag '{value}'"));
    }
    args.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Strip a bare `--flag`; returns whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

fn apply_threads_flag(args: &mut Vec<String>) -> Result<(), String> {
    let Some(v) = take_flag_value(args, "--threads")? else {
        return Ok(());
    };
    let n: usize = v.parse().map_err(|e| format!("bad --threads value: {e}"))?;
    if n == 0 {
        // Match `--shards 0`: an explicit error beats a silent clamp to 1.
        return Err("--threads must be >= 1".into());
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| e.to_string())
}

fn pick_solver(name: Option<&str>) -> Result<&'static dyn ComponentSolver, String> {
    match name {
        None => Ok(solver::default_solver()),
        Some(name) => solver::find(name).ok_or_else(|| {
            format!(
                "unknown algorithm '{name}'; registered: {}",
                solver::names().join(", ")
            )
        }),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return;
    }
    if let Err(e) = apply_threads_flag(&mut args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let algo_name = match take_flag_value(&mut args, "--algo") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let shards = match take_flag_value(&mut args, "--shards") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let policy_path = match take_flag_value(&mut args, "--policy") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ooc = take_flag(&mut args, "--ooc");
    let wal_path = match take_flag_value(&mut args, "--wal") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let wal_sync = match take_flag_value(&mut args, "--wal-sync") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let subcommand = args.first().cloned();
    if wal_path.is_some() && subcommand.as_deref() != Some("serve") {
        eprintln!("error: --wal is only valid with serve");
        std::process::exit(2);
    }
    if wal_sync.is_some() && wal_path.is_none() {
        eprintln!("error: --wal-sync requires --wal PATH");
        std::process::exit(2);
    }
    if policy_path.is_some()
        && !matches!(
            subcommand.as_deref(),
            Some("labels" | "stats" | "compare" | "serve")
        )
    {
        eprintln!("error: --policy is only valid with labels/stats/compare/serve");
        std::process::exit(2);
    }
    if let Some(path) = policy_path.as_deref() {
        match solver::policy::Policy::load(std::path::Path::new(path)) {
            Ok(p) => solver::policy::set_active(p),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    } else {
        // Resolve PARCC_POLICY (or defaults) up front: loading errors
        // surface before any solve starts, and the policy's sort tuning is
        // installed into the radix layer for the whole run.
        let _ = solver::policy::active();
    }
    if algo_name.is_some() && !matches!(subcommand.as_deref(), Some("labels" | "stats" | "serve")) {
        eprintln!(
            "error: --algo is only valid with labels/stats/serve (compare runs every solver)"
        );
        std::process::exit(2);
    }
    if shards.is_some() && subcommand.as_deref() != Some("gen") {
        eprintln!("error: --shards is only valid with gen (inputs carry their own shard markers)");
        std::process::exit(2);
    }
    if ooc && !matches!(subcommand.as_deref(), Some("labels" | "stats")) {
        eprintln!("error: --ooc is only valid with labels/stats");
        std::process::exit(2);
    }
    if ooc {
        let name = algo_name.as_deref().unwrap_or("union-find");
        if !solver::is_natively_incremental(name) {
            eprintln!(
                "error: --ooc requires a natively incremental solver (union-find); \
                 '{name}' would buffer the whole edge list in memory"
            );
            std::process::exit(2);
        }
    }
    let algo = match pick_solver(algo_name.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match subcommand.as_deref() {
        Some("labels") => cmd_labels(algo, args.get(1).map(String::as_str), ooc),
        Some("stats") => cmd_stats(algo, args.get(1).map(String::as_str), ooc),
        Some("compare") => cmd_compare(&mut args),
        Some("convert") => cmd_convert(&mut args),
        Some("gen") => cmd_gen(&args[1..], shards.as_deref()),
        Some("tune") => cmd_tune(&mut args),
        // Serve defaults to the natively incremental solver, not the
        // registry default (`pick_solver` above already validated an
        // explicit --algo name).
        Some("serve") => cmd_serve(
            algo_name.as_deref().unwrap_or("union-find"),
            args.get(1).map(String::as_str),
            wal_path.as_deref(),
            wal_sync.as_deref(),
        ),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Open the binary input for `--ooc` runs: no eager validation (the
/// driver endpoint-checks shard by shard, so no page is touched twice).
fn load_ooc(path: &str) -> Result<solver::MappedGraph, String> {
    if path == "-" {
        return Err("--ooc needs a seekable PGB binary file, not stdin".into());
    }
    if !parcc::graph::io::sniff_binary(path) {
        return Err(format!(
            "--ooc requires a PGB binary input; convert first: parcc convert {path} {path}.pgb"
        ));
    }
    open_binary(path)
}

fn cmd_labels(algo: &dyn ComponentSolver, path: Option<&str>, ooc: bool) -> Result<(), String> {
    let path = path.unwrap_or_else(|| usage());
    let labels = if ooc {
        solver::solve_out_of_core(&load_ooc(path)?, "union-find")?.labels
    } else {
        let (loaded, _) = load(path)?;
        algo.solve_store(loaded.store(), &SolveCtx::new()).labels
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (v, l) in labels.iter().enumerate() {
        writeln!(out, "{v} {l}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_stats(algo: &dyn ComponentSolver, path: Option<&str>, ooc: bool) -> Result<(), String> {
    if ooc {
        return cmd_stats_ooc(path.unwrap_or_else(|| usage()));
    }
    let (loaded, load_wall) = load(path.unwrap_or_else(|| usage()))?;
    let g = loaded.store();
    let report = algo.solve_store(g, &SolveCtx::new());
    let index = ComponentIndex::from_labels(report.labels);
    let mut sizes: Vec<usize> = index.sizes().to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("vertices:        {}", g.n());
    println!("edges:           {}", g.m());
    println!("shards:          {}", shard_summary(&loaded.shard_sizes()));
    println!("storage:         {}", storage_summary(&loaded));
    println!("threads:         {}", rayon::current_num_threads());
    println!("algorithm:       {}", algo.name());
    println!("components:      {}", index.count());
    println!("largest:         {:?}", &sizes[..sizes.len().min(5)]);
    if let Some(r) = report.rounds {
        println!("rounds:          {r}");
    }
    println!("simulated depth: {} PRAM steps", report.cost.depth);
    println!(
        "simulated work:  {} ops ({:.1} per edge+vertex)",
        report.cost.work,
        report.cost.work as f64 / (g.n() + g.m()).max(1) as f64
    );
    println!(
        "allocations:     {} heap allocs during solve",
        report.allocs
    );
    println!(
        "alloc peak:      {:.1} MiB live",
        report.peak_bytes as f64 / (1 << 20) as f64
    );
    for (key, value) in &report.notes {
        println!("{:<16} {value}", format!("{key}:"));
    }
    for p in &report.phases {
        println!(
            "{:<16} {} round(s), {} live edge(s), {:.1} ms, {} alloc(s)",
            format!("phase {}:", p.name),
            p.rounds,
            p.edges,
            p.wall.as_secs_f64() * 1e3,
            p.allocs
        );
    }
    println!("load time:       {:.1} ms", load_wall.as_secs_f64() * 1e3);
    println!("wall time:       {:.1} ms", report.wall.as_secs_f64() * 1e3);
    Ok(())
}

/// `stats --ooc`: the out-of-core telemetry view — same headline numbers,
/// plus the residency evidence that the working set stayed bounded.
fn cmd_stats_ooc(path: &str) -> Result<(), String> {
    let mg = load_ooc(path)?;
    let report = solver::solve_out_of_core(&mg, "union-find")?;
    let index = ComponentIndex::from_labels(report.labels);
    let mut sizes: Vec<usize> = index.sizes().to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("vertices:        {}", mg.n());
    println!("edges:           {}", report.edges);
    println!("shards:          {}", shard_summary(&mg.shard_sizes()));
    println!(
        "storage:         binary (out-of-core stream, {:.1} MiB on disk)",
        report.file_bytes as f64 / f64::from(1 << 20)
    );
    println!("threads:         {}", rayon::current_num_threads());
    println!("algorithm:       union-find (out-of-core)");
    println!("components:      {}", index.count());
    println!("largest:         {:?}", &sizes[..sizes.len().min(5)]);
    match report.resident_peak {
        Some(peak) => println!(
            "resident peak:   {:.1} MiB of {:.1} MiB mapped",
            peak as f64 / f64::from(1 << 20),
            report.file_bytes as f64 / f64::from(1 << 20)
        ),
        None => println!("resident peak:   unmeasured (no mincore on this platform)"),
    }
    println!("wall time:       {:.1} ms", report.wall.as_secs_f64() * 1e3);
    Ok(())
}

/// `parcc convert [--verify] <in> <out.pgb>`: serialize any input to the
/// binary format; with `--verify`, re-open the output zero-copy and check
/// both the structure (shard-for-shard) and the solved partition.
fn cmd_convert(args: &mut Vec<String>) -> Result<(), String> {
    let verify = take_flag(args, "--verify");
    let (input, output) = match (args.get(1), args.get(2)) {
        (Some(i), Some(o)) => (i.clone(), o.clone()),
        _ => return Err("convert needs an input and an output path".into()),
    };
    let (loaded, load_wall) = load(&input)?;
    let store = loaded.store();
    let start = Instant::now();
    let bytes = save_binary(store, &output).map_err(|e| format!("{output}: {e}"))?;
    let write_wall = start.elapsed();
    println!(
        "wrote {output}: {} vertices, {} edges, {} shards, {bytes} bytes ({:.2} B/edge)",
        store.n(),
        store.m(),
        store.shard_count(),
        bytes as f64 / store.m().max(1) as f64
    );
    println!(
        "load {:.1} ms, write {:.1} ms",
        load_wall.as_secs_f64() * 1e3,
        write_wall.as_secs_f64() * 1e3
    );
    if verify {
        let mapped = open_binary(&output)?;
        mapped.validate().map_err(|e| format!("{output}: {e}"))?;
        if mapped.n() != store.n()
            || mapped.m() != store.m()
            || mapped.shard_count() != store.shard_count()
            || (0..store.shard_count()).any(|i| mapped.shard(i) != store.shard(i))
        {
            return Err(format!("{output}: round-trip structure mismatch"));
        }
        let original = solver::oracle_labels(&store.to_flat());
        let roundtrip = solver::oracle_labels(&mapped.to_flat());
        if !same_partition(&original, &roundtrip) {
            return Err(format!("{output}: round-trip partition mismatch"));
        }
        let components = ComponentIndex::from_labels(roundtrip).count();
        println!("verified: structure and partition match ({components} components)");
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render per-phase telemetry as a JSON array body (no brackets).
fn phases_json(phases: &[solver::PhaseStat]) -> String {
    phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\": \"{}\", \"phase_rounds\": {}, \"phase_edges\": {}, \"phase_wall_ms\": {:.3}, \"phase_allocs\": {}}}",
                json_escape(p.name),
                p.rounds,
                p.edges,
                p.wall.as_secs_f64() * 1e3,
                p.allocs
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_compare(args: &mut Vec<String>) -> Result<(), String> {
    // Value-taking flags first: `--baseline --json` must die with a clean
    // "needs a value" error instead of eating the `--json` switch.
    let baseline = take_flag_value(args, "--baseline")?;
    let json = take_flag(args, "--json");
    let fail = take_flag(args, "--fail");
    if fail && baseline.is_none() {
        return Err("--fail only makes sense with --baseline (it hardens its warnings)".into());
    }
    let (loaded, _) = load(args.get(1).map(String::as_str).unwrap_or_else(|| usage()))?;
    let g = loaded.store();
    let rows = solver::compare_store(g, 0x5EED);
    let all_verified = rows.iter().all(|r| r.verified);
    let mn = (g.n() + g.m()).max(1) as f64;
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"vertices\": {},\n  \"edges\": {},\n  \"shards\": {},\n  \"threads\": {},\n  \"all_verified\": {},\n  \"solvers\": [\n",
            g.n(),
            g.m(),
            g.shard_count(),
            rayon::current_num_threads(),
            all_verified
        ));
        for (i, r) in rows.iter().enumerate() {
            let notes = r
                .notes
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            // Phases last: the baseline scanners take the FIRST occurrence
            // of name/wall_ms per line, which must stay the solver's own.
            let phases = phases_json(&r.phases);
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"components\": {}, \"verified\": {}, \"rounds\": {}, \"depth\": {}, \"work\": {}, \"work_per_mn\": {:.3}, \"wall_ms\": {:.3}, \"allocs\": {}, \"peak_bytes\": {}, \"deterministic\": {}, \"seeded\": {}, \"parallel\": {}, \"notes\": {{{}}}, \"phases\": [{}]}}{}\n",
                json_escape(r.name),
                r.components,
                r.verified,
                r.rounds.map_or("null".into(), |x| x.to_string()),
                r.cost.depth,
                r.cost.work,
                r.cost.work as f64 / mn,
                r.wall.as_secs_f64() * 1e3,
                r.allocs,
                r.peak_bytes,
                r.caps.deterministic,
                r.caps.seeded,
                r.caps.parallel,
                notes,
                phases,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
    } else {
        println!(
            "comparing {} solvers on {} vertices / {} edges / {} shard(s) ({} threads)\n",
            rows.len(),
            g.n(),
            g.m(),
            g.shard_count(),
            rayon::current_num_threads()
        );
        println!(
            "{:<18} {:>10} {:>8} {:>10} {:>12} {:>10} {:>9}",
            "algorithm", "components", "rounds", "depth", "work/(m+n)", "wall ms", "verified"
        );
        for r in &rows {
            let work_per = if r.caps.tracks_cost {
                format!("{:.1}", r.cost.work as f64 / mn)
            } else {
                "-".into()
            };
            let depth = if r.caps.tracks_cost {
                r.cost.depth.to_string()
            } else {
                "-".into()
            };
            println!(
                "{:<18} {:>10} {:>8} {:>10} {:>12} {:>10.1} {:>9}",
                r.name,
                r.components,
                r.rounds.map_or("-".into(), |x| x.to_string()),
                depth,
                work_per,
                r.wall.as_secs_f64() * 1e3,
                if r.verified { "ok" } else { "MISMATCH" }
            );
        }
    }
    if let Some(path) = baseline {
        let warned = warn_regressions(&rows, &path)?;
        if warned > 0 {
            if fail {
                return Err(format!(
                    "--fail: {warned} regression warning(s) vs baseline {path}"
                ));
            }
            eprintln!("{warned} regression warning(s) vs baseline {path} (warn-only)");
        }
    }
    if all_verified {
        Ok(())
    } else {
        Err("at least one solver's partition disagrees with the union-find oracle".into())
    }
}

/// Scan one line of stored `compare --json` output for `"key": <number>`.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scan one line for `"key": "value"`.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// The `--baseline FILE` regression hook: diff each solver's wall/depth
/// against a stored `compare --json` output and warn on slowdowns. Depth
/// is compared only where it is reproducible (see below).
/// Returns the warning count. **Warn-only** by default (exit status
/// unchanged) because wall clocks across machines are not comparable;
/// `--fail` opts fixed-hardware runners into a hard exit.
fn warn_regressions(rows: &[solver::CompareRow], path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // One solver object per line in our emitted JSON; scan for name/wall/depth.
    let mut base: Vec<(String, f64, f64)> = Vec::new();
    for line in text.lines() {
        if let Some(name) = json_str_field(line, "name") {
            if let Some(wall) = json_num_field(line, "wall_ms") {
                let depth = json_num_field(line, "depth").unwrap_or(0.0);
                base.push((name.to_string(), wall, depth));
            }
        }
    }
    if base.is_empty() {
        return Err(format!(
            "{path}: no solver entries found (expected stored `parcc compare --json` output)"
        ));
    }
    // With several threads the simulated depth of the randomized solvers
    // depends on the schedule, so only a reproducible depth is gated: a
    // deterministic solver, or any solver at one effective thread.
    let one_thread = rayon::current_num_threads() == 1;
    let mut warned = 0usize;
    for r in rows {
        let Some((_, base_wall, base_depth)) = base.iter().find(|(n, _, _)| n == r.name) else {
            eprintln!("note: {} not in baseline {path}", r.name);
            continue;
        };
        let wall = r.wall.as_secs_f64() * 1e3;
        // Relative gate + absolute floor: sub-millisecond jitter on tiny
        // graphs should not read as a regression.
        if wall > base_wall * 1.25 && wall - base_wall > 0.05 {
            warned += 1;
            eprintln!(
                "warning: {}: wall {wall:.3} ms vs baseline {base_wall:.3} ms (+{:.0}%)",
                r.name,
                (wall / base_wall.max(1e-9) - 1.0) * 100.0
            );
        }
        let depth = r.cost.depth as f64;
        let reproducible = r.caps.deterministic || one_thread;
        if r.caps.tracks_cost && reproducible && *base_depth > 0.0 && depth > base_depth * 1.05 {
            warned += 1;
            eprintln!(
                "warning: {}: depth {depth:.0} vs baseline {base_depth:.0}",
                r.name
            );
        }
    }
    Ok(warned)
}

/// `parcc tune [--out FILE] <run.json> ...`: refit the adaptive dispatch
/// policy from stored `compare --json` runs (one input graph per file) and
/// emit a policy file for `--policy` / `PARCC_POLICY`. Line-oriented like
/// `warn_regressions`: the emitter writes one solver object per line.
fn cmd_tune(args: &mut Vec<String>) -> Result<(), String> {
    let out_path = take_flag_value(args, "--out")?;
    let sort_probe = take_flag(args, "--sort-probe");
    let files = &args[1..];
    if files.is_empty() && !sort_probe {
        return Err(
            "tune needs stored `parcc compare --json` file(s), --sort-probe, or both".into(),
        );
    }
    let mut groups: Vec<Vec<solver::policy::TuneObservation>> = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut n = 0u64;
        let mut m = 0u64;
        let mut group: Vec<solver::policy::TuneObservation> = Vec::new();
        for line in text.lines() {
            // Header lines carry the input size; solver lines carry a name.
            if json_str_field(line, "name").is_none() {
                if let Some(v) = json_num_field(line, "vertices") {
                    n = v as u64;
                }
                if let Some(e) = json_num_field(line, "edges") {
                    m = e as u64;
                }
                continue;
            }
            let (Some(name), Some(wall_ms)) = (
                json_str_field(line, "name"),
                json_num_field(line, "wall_ms"),
            ) else {
                continue;
            };
            // Hybrid reports its sweep-phase length as the `sweeps` note.
            let sweep_rounds = json_str_field(line, "sweeps").and_then(|s| s.parse().ok());
            group.push(solver::policy::TuneObservation {
                solver: name.to_string(),
                n,
                m,
                wall_ms,
                sweep_rounds,
            });
        }
        if group.is_empty() {
            return Err(format!(
                "{path}: no solver entries found (expected stored `parcc compare --json` output)"
            ));
        }
        groups.push(group);
    }
    let mut policy = solver::policy::refit(&groups);
    if sort_probe {
        // Measure the radix candidates on this machine and fold the winner
        // into the emitted policy (`sort_digit_bits` / `sort_wc`).
        eprintln!("probing radix sort tunings (1M synthetic edge keys, best of 3)...");
        let rows = parcc::pram::sort::probe_tunings(1_000_000, 3);
        for &(bits, wc, ms) in &rows {
            eprintln!(
                "  bits={bits} wc={} : {ms:.1} ms",
                if wc { "on" } else { "off" }
            );
        }
        let (bits, wc, _) = rows[0];
        policy.sort_digit_bits = bits;
        policy.sort_wc = wc;
        eprintln!("winner: sort_digit_bits={bits} sort_wc={wc}");
    }
    let text = policy.to_file_string();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "tuned policy from {} run(s) -> {path} (load with --policy or PARCC_POLICY)",
                groups.len()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Report (on stderr) when a generator's structural minimum overrides the
/// requested size, instead of silently altering it.
fn clamp(what: &str, requested: usize, min: usize) -> usize {
    if requested < min {
        eprintln!("note: {what} requires n >= {min}; generating n={min} (requested {requested})");
    }
    requested.max(min)
}

fn cmd_gen(args: &[String], shards: Option<&str>) -> Result<(), String> {
    let (family, rest) = args.split_first().ok_or("gen needs a family")?;
    let n: usize = rest
        .first()
        .ok_or("gen needs a size")?
        .parse()
        .map_err(|e| format!("bad size: {e}"))?;
    let seed: u64 = rest
        .get(1)
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))?;
    let avg_deg: f64 = rest
        .get(2)
        .map_or(Ok(8.0), |s| s.parse())
        .map_err(|e| format!("bad avg-deg: {e}"))?;
    if avg_deg <= 0.0 || !avg_deg.is_finite() {
        return Err(format!("avg-deg must be positive, got {avg_deg}"));
    }
    let k: usize = match shards {
        None => 0,
        Some(s) => {
            let k = s.parse().map_err(|e| format!("bad --shards value: {e}"))?;
            if k == 0 {
                return Err("--shards must be >= 1".into());
            }
            k
        }
    };
    if rest.get(2).is_some() && matches!(family.as_str(), "cycle" | "path" | "mesh2d") {
        eprintln!("note: avg-deg is ignored for {family} (degree is structural)");
    }
    // The row-parallel random families emit shards natively (the flat edge
    // vector never materializes); the structural families build flat and
    // get partitioned.
    let flat_build = |family: &str| -> Result<Graph, String> {
        Ok(match family {
            "cycle" => gen::cycle(clamp("cycle", n, 3)),
            "path" => gen::path(clamp("path", n, 2)),
            // mesh2d takes the grid SIDE as <n> (n = side^2): the
            // high-diameter regime where label propagation needs
            // Theta(side) rounds and the hybrid switch earns its keep.
            "mesh2d" => {
                let side = clamp("mesh2d", n, 2);
                gen::grid2d(side, side, false)
            }
            "expander" => {
                let n = clamp("expander", n, 4);
                let mut d = (avg_deg.round() as usize).max(1);
                if d >= n {
                    eprintln!("note: expander degree {d} must be < n={n}; using {}", n - 1);
                    d = n - 1;
                }
                if n * d % 2 == 1 {
                    // Both n and d odd: no d-regular graph exists. d < n, so
                    // d+1 ≤ n-1 stays legal and makes n·d even.
                    eprintln!(
                        "note: no {d}-regular graph on odd n={n}; using degree {}",
                        d + 1
                    );
                    d += 1;
                }
                gen::random_regular(n, d, seed)
            }
            "gnp" => gen::gnp(n, (avg_deg / n.max(1) as f64).min(1.0), seed),
            "powerlaw" => gen::chung_lu(n, 2.5, avg_deg, seed),
            other => return Err(format!("unknown family '{other}'")),
        })
    };
    let stdout = std::io::stdout();
    let out = std::io::BufWriter::new(stdout.lock());
    if k == 0 {
        return write_edge_list(&flat_build(family)?, out).map_err(|e| e.to_string());
    }
    let sg = match family.as_str() {
        "gnp" => gen::gnp_sharded(n, (avg_deg / n.max(1) as f64).min(1.0), seed, k),
        "powerlaw" => gen::chung_lu_sharded(n, 2.5, avg_deg, seed, k),
        "mesh2d" => {
            let side = clamp("mesh2d", n, 2);
            gen::grid2d_sharded(side, side, false, k)
        }
        _ => ShardedGraph::from_graph(&flat_build(family)?, k),
    };
    // Byte count is for programmatic callers (convert, benches); gen's
    // contract is a clean edge list on stdout and nothing on stderr.
    write_edge_list_sharded(&sg, out)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Per-session durability and protocol state threaded through
/// [`serve_command`]: the edge buffer, the optional WAL, what recovery
/// replayed, and how many merge failures have been surfaced to the client
/// (each failure is reported exactly once, at the next flush barrier).
struct ServeSession {
    pending: Vec<Edge>,
    wal: Option<Wal>,
    recovered_batches: u64,
    recovered_edges: u64,
    reported_failures: u64,
}

impl ServeSession {
    fn new() -> Self {
        Self {
            pending: Vec::new(),
            wal: None,
            recovered_batches: 0,
            recovered_edges: 0,
            reported_failures: 0,
        }
    }
}

/// `parcc serve [file]`: absorb the optional initial graph into fresh
/// incremental state (it becomes the epoch-0 snapshot), replay the WAL if
/// one was requested (`--wal`), start the engine, and hand stdin/stdout
/// to the protocol loop.
fn cmd_serve(
    algo: &str,
    path: Option<&str>,
    wal_path: Option<&str>,
    wal_sync: Option<&str>,
) -> Result<(), String> {
    let mut state =
        solver::begin_incremental(algo, 0).ok_or_else(|| format!("unknown algorithm '{algo}'"))?;
    if let Some(path) = path {
        if path == "-" {
            return Err("serve reads its protocol from stdin; preload from a file, not '-'".into());
        }
        let (loaded, _) = load(path)?;
        let g = loaded.store();
        state.ensure_n(g.n());
        for i in 0..g.shard_count() {
            state.absorb_batch(g.shard(i));
        }
    }
    let mut session = ServeSession::new();
    if let Some(wp) = wal_path {
        let policy = SyncPolicy::parse(wal_sync.unwrap_or("batch"))?;
        let (wal, replay) = Wal::open(wp, policy)?;
        // Replay before the engine starts: recovered batches are part of
        // the epoch-0 snapshot, exactly like a preloaded graph. Replay is
        // idempotent for connectivity, so batches that were also captured
        // in a preloaded snapshot merge harmlessly.
        state.absorb_batches(&replay.batches);
        eprintln!(
            "wal: replayed {} batches ({} edges) from {wp} [sync={}]{}",
            replay.batch_count(),
            replay.edges,
            policy.name(),
            if replay.torn_bytes > 0 {
                format!("; truncated {} torn tail bytes", replay.torn_bytes)
            } else {
                String::new()
            }
        );
        session.recovered_batches = replay.batch_count();
        session.recovered_edges = replay.edges;
        session.wal = Some(wal);
    }
    let engine = ServeEngine::start(state);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_session(&engine, &mut session, stdin.lock(), stdout.lock())
}

const SERVE_HELP: &str = "commands:\n\
    \x20 add u v [u v ...]    buffer edges for the next batch\n\
    \x20 commit               submit buffered edges as one batch (async merge;\n\
    \x20                      under --wal the batch is appended to the log\n\
    \x20                      before the ack, so an acknowledged commit\n\
    \x20                      survives a crash)\n\
    \x20 flush                wait until all submitted batches are merged\n\
    \x20                      (reports `error: merge thread failed` if a\n\
    \x20                      merge panicked since the last flush)\n\
    \x20 save PATH            flush, then write the merged connectivity\n\
    \x20                      forest as a PGB binary (instant restart via\n\
    \x20                      `parcc serve PATH` — partition-equivalent,\n\
    \x20                      not the original edges); under --wal the log\n\
    \x20                      compacts, so restart cost stays O(n + tail)\n\
    \x20 same-component u v   query the current published snapshot\n\
    \x20 component-size v     size of v's component\n\
    \x20 component-count      number of components among tracked vertices\n\
    \x20 epoch                current published epoch\n\
    \x20 stats                engine summary (plus wal:/recovered: lines\n\
    \x20                      when --wal is active)\n\
    \x20 quit                 exit";

fn parse_vertex(s: Option<&str>, what: &str) -> Result<u32, String> {
    let s = s.ok_or_else(|| format!("{what}: missing vertex id"))?;
    s.parse()
        .map_err(|e| format!("{what}: bad vertex '{s}': {e}"))
}

/// One protocol command → one reply string (multi-line only for `help`
/// and `stats` under `--wal`). Command-level problems come back as `Err`
/// and are reported as `error: …` lines without ending the session.
fn serve_command(
    engine: &ServeEngine,
    session: &mut ServeSession,
    line: &str,
) -> Result<Option<String>, String> {
    let mut words = line.split_whitespace();
    let cmd = words.next().expect("caller skips blank lines");
    match cmd {
        "add" => {
            let ids: Vec<&str> = words.collect();
            if ids.is_empty() || !ids.len().is_multiple_of(2) {
                return Err(format!(
                    "add expects an even number of vertex ids, got {}",
                    ids.len()
                ));
            }
            let mut edges = Vec::with_capacity(ids.len() / 2);
            for pair in ids.chunks_exact(2) {
                let u = parse_vertex(Some(pair[0]), "add")?;
                let v = parse_vertex(Some(pair[1]), "add")?;
                edges.push(Edge::new(u, v));
            }
            session.pending.extend(edges); // all-or-nothing: nothing buffered on a parse error
            Ok(Some(format!("ok pending={}", session.pending.len())))
        }
        "commit" => {
            if session.pending.is_empty() {
                return Err("nothing to commit (use `add u v` first)".into());
            }
            // Durability before acknowledgement: the batch reaches the WAL
            // before it is submitted (and before the `batch N` ack). On an
            // append failure the buffer is kept — the writer may retry
            // `commit` (the WAL rewinds its cursor, so a torn partial
            // record is overwritten by the retry).
            if let Some(wal) = session.wal.as_mut() {
                wal.append(&session.pending).map_err(|e| {
                    format!("commit: wal append failed ({e}); batch kept pending, retry commit")
                })?;
            }
            let edges = session.pending.len();
            let seq = engine.submit_batch(std::mem::take(&mut session.pending));
            Ok(Some(format!("batch {seq} edges={edges}")))
        }
        "flush" => {
            let snap = engine.flush();
            // The flush barrier is where asynchronous merge failures become
            // visible; each is surfaced exactly once.
            let failures = engine.merge_failures();
            if failures > session.reported_failures {
                session.reported_failures = failures;
                let detail = engine
                    .last_merge_error()
                    .unwrap_or_else(|| "unknown panic".into());
                return Err(format!(
                    "merge thread failed: {detail} (failures={failures}; merging resumed, \
                     restart with --wal to recover the lost batches)"
                ));
            }
            Ok(Some(format!("epoch {}", snap.epoch())))
        }
        "save" => {
            let path = words.next().ok_or("save: missing output path")?;
            // Flush first so the snapshot covers every submitted batch,
            // then persist the star forest (v, label(v)) — the smallest
            // edge set with the same partition. Restarting from it
            // reconstructs identical connectivity in O(n) edges no matter
            // how many inserts this session absorbed.
            let snap = engine.flush();
            let labels = snap.labels();
            let edges: Vec<Edge> = labels
                .iter()
                .enumerate()
                .filter(|&(v, &l)| v as u32 != l)
                .map(|(v, &l)| Edge::new(v as u32, l))
                .collect();
            let k = edges.len().div_ceil(DEFAULT_LOAD_CHUNK).max(1);
            let forest = ShardedGraph::from_slice(snap.n(), &edges, k);
            let bytes = save_binary(&forest, path).map_err(|e| format!("save {path}: {e}"))?;
            let mut reply = format!(
                "saved {path} epoch={} n={} edges={} bytes={bytes}",
                snap.epoch(),
                snap.n(),
                edges.len()
            );
            // The snapshot now covers every merged batch, so the WAL can
            // compact — unless merges failed, in which case the log still
            // holds the only durable copy of the failed batches and must
            // survive until a restart replays them.
            if let Some(wal) = session.wal.as_mut() {
                if engine.merge_failures() == 0 {
                    wal.compact()
                        .map_err(|e| format!("save {path}: wal compact failed: {e}"))?;
                    reply.push_str(" wal=compacted");
                } else {
                    reply.push_str(" wal=kept");
                }
            }
            Ok(Some(reply))
        }
        "same-component" => {
            let u = parse_vertex(words.next(), "same-component")?;
            let v = parse_vertex(words.next(), "same-component")?;
            let snap = engine.snapshot();
            Ok(Some(format!(
                "same-component {} epoch={}",
                snap.same_component(u, v),
                snap.epoch()
            )))
        }
        "component-size" => {
            let v = parse_vertex(words.next(), "component-size")?;
            let snap = engine.snapshot();
            Ok(Some(format!(
                "component-size {} epoch={}",
                snap.component_size(v),
                snap.epoch()
            )))
        }
        "component-count" => {
            let snap = engine.snapshot();
            Ok(Some(format!(
                "component-count {} epoch={}",
                snap.component_count(),
                snap.epoch()
            )))
        }
        "epoch" => Ok(Some(format!("epoch {}", engine.epoch()))),
        "stats" => {
            let snap = engine.snapshot();
            let mut reply = format!(
                "stats algo={} n={} components={} epoch={} submitted={} merged={} pending={} failures={}",
                engine.algo(),
                snap.n(),
                snap.component_count(),
                snap.epoch(),
                engine.submitted_batches(),
                engine.merged_batches(),
                session.pending.len(),
                engine.merge_failures()
            );
            if let Some(wal) = session.wal.as_ref() {
                reply.push_str(&format!(
                    "\nwal: path={} sync={} records={} bytes={} synced={}",
                    wal.path().display(),
                    wal.policy().name(),
                    wal.records(),
                    wal.bytes(),
                    wal.syncs()
                ));
                reply.push_str(&format!(
                    "\nrecovered: batches={} edges={}",
                    session.recovered_batches, session.recovered_edges
                ));
            }
            Ok(Some(reply))
        }
        "help" => Ok(Some(SERVE_HELP.into())),
        "quit" | "exit" => Ok(None),
        other => Err(format!("unknown command '{other}' (try `help`)")),
    }
}

/// The protocol loop: one command per line, one reply per command, errors
/// reported inline without killing the session. Generic over the streams
/// so the integration tests can drive it through pipes or buffers alike.
fn serve_session<R: BufRead, W: Write>(
    engine: &ServeEngine,
    session: &mut ServeSession,
    input: R,
    mut out: W,
) -> Result<(), String> {
    for line in input.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let reply = match serve_command(engine, session, line) {
            Ok(Some(reply)) => reply,
            Ok(None) => {
                writeln!(out, "bye").map_err(|e| e.to_string())?;
                out.flush().map_err(|e| e.to_string())?;
                return Ok(());
            }
            Err(e) => format!("error: {e}"),
        };
        writeln!(out, "{reply}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}
