//! Serving layers: the `parcc serve` protocol driven by one closed-loop
//! client, its restart on the run's write-ahead log, and the per-layer
//! probes of the serve engine, incremental union-find, snapshots and WAL.

use crate::trace::Samples;
use crate::Run;
use parcc_baselines::DisjointSets;
use parcc_graph::snapshot::LabelSnapshot;
use parcc_graph::wal::{SyncPolicy, Wal};
use parcc_pram::edge::Edge;
use parcc_pram::rng::Stream;
use parcc_solver::{begin_incremental, IncrementalSolver, ServeEngine};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `parcc serve` runs with this many worker threads. Its protocol loop
/// and merge thread are threads of their own, and the pool only checks
/// the PGB preload at start-up; one worker keeps `setup_s` and
/// `restart_ms` free of cross-core wake-ups, whose cost on a shared
/// virtual machine follows the host's load.
pub const SERVE_THREADS: usize = 1;
/// Edges per committed batch.
const BATCH: usize = 64;
/// Reads issued while each batch merges.
const READS: usize = 16;

/// A running `parcc serve --wal PATH --wal-sync batch PRELOAD`, spoken to
/// one line at a time. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Server {
    /// Spawn and wait for the first reply (to `epoch`).
    pub fn start(parcc: &Path, wal: &Path, preload: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(parcc)
            .arg("--threads")
            .arg(SERVE_THREADS.to_string())
            .args(["serve", "--wal-sync", "batch", "--wal"])
            .arg(wal)
            .arg(preload)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Self {
            child: Some(child),
            stdin,
            stdout,
            line: String::new(),
        };
        let reply = server.call("epoch")?;
        if !reply.starts_with("epoch ") {
            return Err(std::io::Error::other(format!("first reply was {reply:?}")));
        }
        Ok(server)
    }

    /// Send one command and return its one-line reply.
    pub fn call(&mut self, cmd: &str) -> std::io::Result<&str> {
        self.send(std::iter::once(cmd))?;
        self.reply(cmd)
    }

    /// Send `cmds` in one write, then collect their replies in order.
    pub fn pipeline(&mut self, cmds: &[String]) -> std::io::Result<Vec<String>> {
        self.send(cmds.iter().map(String::as_str))?;
        cmds.iter()
            .map(|cmd| self.reply(cmd).map(str::to_string))
            .collect()
    }

    fn send<'a>(&mut self, cmds: impl Iterator<Item = &'a str>) -> std::io::Result<()> {
        let mut buf = String::new();
        for cmd in cmds {
            buf.push_str(cmd);
            buf.push('\n');
        }
        self.stdin.write_all(buf.as_bytes())?;
        self.stdin.flush()
    }

    fn reply(&mut self, cmd: &str) -> std::io::Result<&str> {
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other(format!(
                "parcc serve closed its output after {cmd:?}"
            )));
        }
        Ok(self.line.trim_end())
    }

    /// `quit`, then wait for the process to exit.
    pub fn quit(mut self) -> std::io::Result<()> {
        let reply = self.call("quit")?.to_string();
        let status = self.child.take().expect("not yet reaped").wait()?;
        if reply != "bye" || !status.success() {
            return Err(std::io::Error::other(format!(
                "quit gave {reply:?}, exit {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Seeded random edges over `n` vertices.
struct EdgeGen {
    stream: Stream,
    next: u64,
    n: u64,
}

impl EdgeGen {
    fn new(seed: u64, salt: u64, n: usize) -> Self {
        Self {
            stream: Stream::new(seed, salt),
            next: 0,
            n: n as u64,
        }
    }

    fn vertex(&mut self) -> u32 {
        self.next += 1;
        self.stream.below(self.next, self.n) as u32
    }

    fn batch(&mut self) -> Vec<Edge> {
        (0..BATCH)
            .map(|_| Edge::new(self.vertex(), self.vertex()))
            .collect()
    }
}

/// The library oracle: union-find over the preload plus every acked batch.
struct Oracle {
    dsu: DisjointSets,
    components: usize,
}

impl Oracle {
    fn new(run: &Run) -> Self {
        let g = &run.graph;
        let mut oracle = Self {
            dsu: DisjointSets::new(g.n()),
            components: g.n(),
        };
        oracle.absorb(g.edges());
        oracle
    }

    fn absorb(&mut self, edges: &[Edge]) {
        for e in edges {
            if self.dsu.union(e.u(), e.v()) {
                self.components -= 1;
            }
        }
    }
}

/// Check a `component-count` reply against the oracle.
fn check_count(run: &mut Run, server: &mut Server, oracle: &Oracle, when: &str) {
    let reply = server.call("component-count").map(str::to_string);
    let got = reply.as_ref().ok().and_then(|r| {
        r.strip_prefix("component-count ")?
            .split_whitespace()
            .next()?
            .parse::<usize>()
            .ok()
    });
    run.rep.check(got == Some(oracle.components), || {
        format!(
            "{when}: component-count reply {reply:?}, oracle {}",
            oracle.components
        )
    });
}

/// Server processes per run, each restarted on the WAL the previous one
/// left. The run spreads them over its budget, between rounds of offline
/// solves, so every serve metric samples the whole run rather than the
/// few seconds a single session lasts.
pub const SESSIONS: usize = 16;
/// Cycles per session. The count is fixed rather than timed, so every run
/// replays the same WAL sizes on restart, 256 to 4,096 batches.
const CYCLES: usize = 256;

/// One closed-loop cycle: `add` 64 edges, `commit`, 16 reads pipelined in
/// one write while that merge is in flight, `flush`. Returns the
/// commit-to-flush-reply time, the reads' time per read, and whether the
/// batch was acknowledged.
///
/// With one read in flight, a read's reply time is mostly the wake-up of
/// an idle core, which on a shared virtual machine moved the median by
/// 60% between runs of the same code. A pipelined burst pays that wake-up
/// once, so its time per read is what the server's snapshot lookups and
/// the protocol cost.
fn cycle(
    run: &mut Run,
    server: &mut Server,
    batch: &[Edge],
    queries: &[String],
) -> (Duration, Duration, bool) {
    let mut add = String::with_capacity(4 + batch.len() * 16);
    add.push_str("add");
    for e in batch {
        add.push_str(&format!(" {} {}", e.u(), e.v()));
    }
    let mut replies = Vec::with_capacity(READS + 3);
    let (res, _) = run.tr.op(
        "serve.cycle",
        |tr| -> std::io::Result<(Duration, Duration)> {
            let (r, _) = tr.span("cli.add", || server.call(&add).map(str::to_string));
            replies.push(("add", "ok pending=", r?));
            let t0 = Instant::now();
            let (r, _) = tr.span("cli.commit", || server.call("commit").map(str::to_string));
            replies.push(("commit", "batch ", r?));
            let (r, reads) = tr.span("cli.reads", || server.pipeline(queries));
            for (i, reply) in r?.into_iter().enumerate() {
                let want = if i % 2 == 0 {
                    "same-component "
                } else {
                    "component-size "
                };
                replies.push(("read", want, reply));
            }
            let (r, _) = tr.span("cli.flush", || server.call("flush").map(str::to_string));
            let visible = t0.elapsed();
            replies.push(("flush", "epoch ", r?));
            Ok((visible, reads / READS as u32))
        },
    );
    let (visible, per_read) = res.unwrap_or_else(|e| panic!("serve protocol: {e}"));
    let acked = replies[1].2.starts_with("batch ");
    for (cmd, want, reply) in replies {
        run.rep.check(reply.starts_with(want), || {
            format!("{cmd}: unexpected reply {reply:?}")
        });
    }
    (visible, per_read, acked)
}

/// The end-to-end serve workload: `parcc serve --wal` on the PGB preload,
/// driven by one closed-loop client for [`SESSIONS`] sessions of
/// [`CYCLES`] cycles each. Every session is a server process that restarts
/// on the WAL the previous ones left; each restart on a non-empty WAL, and
/// one more after the last session, is timed for `restart_ms`.
pub struct Serve {
    wal: PathBuf,
    oracle: Oracle,
    edges: EdgeGen,
    reads: EdgeGen,
    visible: Samples,
    read: Samples,
    restart: Samples,
    batches: u64,
}

impl Serve {
    pub fn new(run: &Run) -> Self {
        let n = run.graph.n();
        Self {
            wal: run.work.join("serve.wal"),
            oracle: Oracle::new(run),
            edges: EdgeGen::new(run.seed, 0x5e7e, n),
            reads: EdgeGen::new(run.seed, 0x7ead, n),
            visible: Samples::default(),
            read: Samples::default(),
            restart: Samples::default(),
            batches: 0,
        }
    }

    /// Spawn on the WAL, timed when there is a log to replay, and check
    /// the recovered component count.
    fn restart(&mut self, run: &mut Run) -> Server {
        let (parcc, pgb, wal) = (&run.parcc, &run.pgb_path, &self.wal);
        let (server, d) = run.tr.op("serve.restart", |tr| {
            tr.span("cli.spawn_to_first_reply", || {
                Server::start(parcc, wal, pgb)
            })
            .0
        });
        if self.batches > 0 {
            self.restart.push_ms(d);
        }
        let mut server = server.expect("parcc serve starts");
        check_count(run, &mut server, &self.oracle, "after restart");
        server
    }

    /// One session: restart, the closed loop, a final count check, `quit`.
    pub fn session(&mut self, run: &mut Run) {
        let mut server = self.restart(run);
        for _ in 0..if run.tiny { 10 } else { CYCLES } {
            let batch = self.edges.batch();
            let queries: Vec<String> = (0..READS)
                .map(|i| {
                    let u = self.reads.vertex();
                    if i % 2 == 0 {
                        format!("same-component {u} {}", self.reads.vertex())
                    } else {
                        format!("component-size {u}")
                    }
                })
                .collect();
            let (d, per_read, acked) = cycle(run, &mut server, &batch, &queries);
            self.visible.push_ms(d);
            self.read.push_us(per_read);
            if acked {
                self.oracle.absorb(&batch);
                self.batches += 1;
            }
        }
        check_count(run, &mut server, &self.oracle, "end of session");
        server.quit().expect("parcc serve quits");
    }

    /// The last restart, then the metrics. Returns the WAL's path and the
    /// number of batches it acknowledged.
    pub fn finish(mut self, run: &mut Run) -> (PathBuf, u64) {
        self.restart(run).quit().expect("parcc serve quits");
        let (visible, read, restart) = (&self.visible, &self.read, &self.restart);
        // Per-layer metrics, without a bound: a cycle crosses between the
        // client, the protocol thread and the merge thread several times,
        // and on a shared two-core virtual machine each cross-core wake-up
        // waits for the hypervisor. Between runs of the same code these
        // medians moved by 20% to 130% as the host's load changed, and
        // the tails by several times.
        let rep = &mut run.rep;
        for (name, s, unit) in [
            ("commit_visible_ms.p50", visible, "ms"),
            ("read_us.p50", read, "us"),
            ("restart_ms", restart, "ms"),
        ] {
            rep.layer(name, s.median(), unit, s.len());
        }
        rep.layer(
            "commit_visible_ms.p99",
            visible.percentile(0.99),
            "ms",
            visible.len(),
        );
        rep.layer("read_us.p99", read.percentile(0.99), "us", read.len());
        (self.wal, self.batches)
    }
}

/// Union-find incremental state preloaded with the workload graph, the
/// way `parcc serve` builds it.
fn preloaded(run: &Run) -> Box<dyn IncrementalSolver> {
    let mut state = begin_incremental("union-find", 0).expect("union-find is registered");
    state.ensure_n(run.graph.n());
    state.absorb_batch(run.graph.edges());
    state
}

/// Per-layer probes of the serving layers (traced runs only).
/// `wal` is the serve session's log, holding `acked` batches.
pub fn layers(run: &mut Run, wal: &Path, acked: u64) {
    let tiny = run.tiny;
    let n = run.graph.n();
    let mut oracle = Oracle::new(run);

    // crates/solver: the in-process engine under the CLI loop's traffic.
    let engine = ServeEngine::start(preloaded(run));
    let mut edges = EdgeGen::new(run.seed, 0xe5e7, n);
    let mut reads = EdgeGen::new(run.seed, 0xe7ad, n);
    let (mut submit, mut flush, mut read) =
        (Samples::default(), Samples::default(), Samples::default());
    let epoch0 = engine.epoch();
    let (min, budget, start) = (if tiny { 20 } else { 1000 }, run.budget / 4, Instant::now());
    while flush.len() < min || start.elapsed() < budget {
        let batch = edges.batch();
        oracle.absorb(&batch);
        let ((), cycle) = run.tr.op("engine.cycle", |tr| {
            let (_, d) = tr.span("serve.submit_batch", || engine.submit_batch(batch));
            submit.push_us(d);
            for _ in 0..READS {
                let (u, v) = (reads.vertex(), reads.vertex());
                let (_, d) = tr.span("serve.snapshot_same_component", || {
                    std::hint::black_box(engine.snapshot().same_component(u, v))
                });
                read.push(d.as_secs_f64() * 1e9);
            }
            let _ = tr.span("serve.flush", || engine.flush());
        });
        flush.push_ms(cycle);
    }
    let batches = flush.len();
    let snap = engine.flush();
    run.rep
        .check(snap.component_count() == oracle.components, || {
            format!(
                "engine count {} vs oracle {}",
                snap.component_count(),
                oracle.components
            )
        });
    let failures = engine.merge_failures();
    run.rep
        .check(failures == 0, || format!("{failures} merge failures"));
    let epochs = (snap.epoch() - epoch0) as f64 / batches as f64;
    drop(snap);
    drop(engine);
    let rep = &mut run.rep;
    rep.layer("serve.submit_us.p50", submit.median(), "us", submit.len());
    rep.layer("serve.flush_ms.p50", flush.median(), "ms", batches);
    rep.layer("serve.flush_ms.p99", flush.percentile(0.99), "ms", batches);
    rep.layer("serve.read_ns.p50", read.median(), "ns", read.len());
    rep.layer("serve.epochs_per_batch", epochs, "ratio", batches);
    rep.layer("serve.merge_failures", failures as f64, "count", batches);

    // crates/graph: incremental absorb, then the Θ(n) publish it feeds.
    let mut state = preloaded(run);
    let mut absorb = Samples::default();
    for _ in 0..if tiny { 20 } else { 1000 } {
        let batch = edges.batch();
        let (_, d) = run.tr.op("graph.absorb", |tr| {
            tr.span("graph.IncrementalSolver.absorb_batch", || {
                state.absorb_batch(&batch)
            })
        });
        absorb.push_us(d);
    }
    let (mut labels_ms, mut build_ms) = (Samples::default(), Samples::default());
    for epoch in 0..if tiny { 3 } else { 10 } {
        let (snap, _) = run.tr.op("graph.publish", |tr| {
            let (labels, d) = tr.span("graph.IncrementalSolver.labels", || state.labels());
            labels_ms.push_ms(d);
            let (snap, d) = tr.span("graph.LabelSnapshot.from_labels", || {
                LabelSnapshot::from_labels(epoch, labels)
            });
            build_ms.push_ms(d);
            snap
        });
        run.rep.check(snap.n() == n, || {
            format!("snapshot has {} vertices", snap.n())
        });
    }
    let rep = &mut run.rep;
    rep.layer("graph.absorb_us.p50", absorb.median(), "us", absorb.len());
    rep.layer("graph.labels_ms", labels_ms.median(), "ms", labels_ms.len());
    rep.layer(
        "graph.snapshot_build_ms",
        build_ms.median(),
        "ms",
        build_ms.len(),
    );

    // crates/graph: WAL appends under the `batch` policy, then replay of
    // the log the CLI session left behind.
    let probe = run.work.join("probe.wal");
    let (mut log, _) = Wal::open(&probe, SyncPolicy::Batch).expect("fresh WAL opens");
    let mut append = Samples::default();
    let appends = if tiny { 10 } else { 200 };
    for _ in 0..appends {
        let batch = edges.batch();
        let ((r, d), _) = run.tr.op("graph.wal_append", |tr| {
            tr.span("graph.Wal.append", || log.append(&batch))
        });
        run.rep.check(r.is_ok(), || format!("wal append: {r:?}"));
        append.push_us(d);
    }
    let syncs = log.syncs() as f64 / appends as f64;
    drop(log);
    let _ = std::fs::remove_file(&probe);
    let mut replay = Samples::default();
    let mut replayed = 0;
    for _ in 0..3 {
        let ((r, d), _) = run.tr.op("graph.wal_replay", |tr| {
            tr.span("graph.Wal.open", || Wal::open(wal, SyncPolicy::Batch))
        });
        let (_, rp) = r.unwrap_or_else(|e| panic!("replaying {}: {e}", wal.display()));
        replayed = rp.batch_count();
        replay.push_ms(d);
    }
    let rep = &mut run.rep;
    rep.check(replayed == acked, || {
        format!("the session's WAL replayed {replayed} of {acked} acknowledged batches")
    });
    rep.layer(
        "graph.wal_append_us.p50",
        append.median(),
        "us",
        append.len(),
    );
    rep.layer("graph.wal_syncs_per_commit", syncs, "ratio", appends);
    rep.layer("graph.wal_replay_ms", replay.median(), "ms", replay.len());

    // src/bin/parcc: what the protocol adds on top of the engine.
    let commit = rep.value("commit_visible_ms.p50");
    let read_cli = rep.value("read_us.p50");
    rep.layer(
        "cli.commit_overhead_ms",
        commit - flush.median(),
        "ms",
        batches,
    );
    rep.layer(
        "cli.read_overhead_us",
        read_cli - read.median() / 1e3,
        "us",
        read.len(),
    );
}
