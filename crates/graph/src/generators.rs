//! Workload generators for the experiment suite.
//!
//! The algorithm's behaviour depends on the input only through `(n, m, λ, d)`
//! — vertex/edge counts, component-wise spectral gap, and diameter — so the
//! families below are chosen to sweep exactly those axes:
//!
//! * **λ ≈ const (expanders):** [`random_regular`], [`gnp`], [`complete`];
//!   the paper's headline `O(log log n)`-time regime.
//! * **λ polynomially small:** [`cycle`], [`path`], [`grid2d`],
//!   [`barbell`], [`ring_of_cliques`]; the `Ω(log(1/λ))` regime.
//! * **diameter sweeps:** [`path_of_cliques`] (for the LTZ `log d` term).
//! * **heavy-tailed degrees:** [`chung_lu`] (the social-network motivation).
//! * **Appendix B:** [`sampling_pitfall`] — polylog diameter, but sampling
//!   each edge w.p. `1/polylog` blows the diameter up to `n/polylog`.
//!
//! All random generators are deterministic functions of their seed.

use crate::repr::Graph;
use crate::store::ShardedGraph;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// Simple path `0 − 1 − … − (n−1)`. `λ ≈ π²/n²`, diameter `n−1`.
#[must_use]
pub fn path(n: usize) -> Graph {
    let edges = (0..n.saturating_sub(1) as u32)
        .map(|i| Edge::new(i, i + 1))
        .collect();
    Graph::new(n, edges)
}

/// Cycle `C_n`. `λ = 1 − cos(2π/n) ≈ 2π²/n²`, diameter `⌊n/2⌋`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs ≥ 3 vertices");
    let mut edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
    edges.push(Edge::new(n as u32 - 1, 0));
    Graph::new(n, edges)
}

/// Two disjoint cycles of `n/2` vertices each — the 2-CYCLE hard instance
/// (Appendix A). `n` must be even and ≥ 6.
#[must_use]
pub fn two_cycles(n: usize) -> Graph {
    assert!(n.is_multiple_of(2) && n >= 6, "need even n ≥ 6");
    Graph::disjoint_union(&[cycle(n / 2), cycle(n / 2)])
}

/// Complete graph `K_n`. `λ = n/(n−1)`, diameter 1.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push(Edge::new(u, v));
        }
    }
    Graph::new(n, edges)
}

/// Star `K_{1,n−1}`: vertex 0 joined to all others. `λ = 1`.
#[must_use]
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let edges = (1..n as u32).map(|v| Edge::new(0, v)).collect();
    Graph::new(n, edges)
}

/// Complete binary tree on `n` vertices (heap-indexed).
#[must_use]
pub fn binary_tree(n: usize) -> Graph {
    let edges = (1..n as u32).map(|v| Edge::new((v - 1) / 2, v)).collect();
    Graph::new(n, edges)
}

/// `rows × cols` grid; with `torus`, opposite borders are glued.
/// `λ = Θ(1/max(rows,cols)²)`.
#[must_use]
pub fn grid2d(rows: usize, cols: usize, torus: bool) -> Graph {
    let at = |r: usize, c: usize| (r * cols + c) as Vertex;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::new(at(r, c), at(r, c + 1)));
            } else if torus && cols > 2 {
                edges.push(Edge::new(at(r, c), at(r, 0)));
            }
            if r + 1 < rows {
                edges.push(Edge::new(at(r, c), at(r + 1, c)));
            } else if torus && rows > 2 {
                edges.push(Edge::new(at(r, c), at(0, c)));
            }
        }
    }
    Graph::new(rows * cols, edges)
}

/// [`grid2d`] emitted shard-native (`parcc gen mesh2d --shards`): each
/// worker generates a contiguous band of grid rows directly, so the flat
/// edge vector never materializes. The merged edge list is identical
/// edge-for-edge to `grid2d(rows, cols, torus)` at any shard count.
#[must_use]
pub fn grid2d_sharded(rows: usize, cols: usize, torus: bool, k: usize) -> ShardedGraph {
    let at = move |r: usize, c: usize| (r * cols + c) as Vertex;
    ShardedGraph::from_rows(rows * cols, k, rows as u64, move |row| {
        let r = row as usize;
        (0..cols).flat_map(move |c| {
            // Same per-cell order as the flat generator: right, then down.
            let right = if c + 1 < cols {
                Some(Edge::new(at(r, c), at(r, c + 1)))
            } else if torus && cols > 2 {
                Some(Edge::new(at(r, c), at(r, 0)))
            } else {
                None
            };
            let down = if r + 1 < rows {
                Some(Edge::new(at(r, c), at(r + 1, c)))
            } else if torus && rows > 2 {
                Some(Edge::new(at(r, c), at(0, c)))
            } else {
                None
            };
            right.into_iter().chain(down)
        })
    })
}

/// The `dim`-dimensional hypercube `Q_dim` on `2^dim` vertices.
/// Normalized spectral gap `λ = 2/dim`, diameter `dim`.
#[must_use]
pub fn hypercube(dim: u32) -> Graph {
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n as u32 {
        for b in 0..dim {
            let w = v ^ (1 << b);
            if v < w {
                edges.push(Edge::new(v, w));
            }
        }
    }
    Graph::new(n, edges)
}

/// Erdős–Rényi `G(n, p)` via the Batagelj–Brandes skipping sampler
/// (`O(n + m)` expected time). Above the connectivity threshold
/// `p ≥ (1+ε)ln n / n` this is an expander w.h.p.
#[must_use]
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    if n == 0 || p == 0.0 {
        return Graph::new(n, vec![]);
    }
    let stream = Stream::new(seed, 0x6e70);
    // One independent skip-sampling run per vertex row `v` (its candidate
    // lower neighbours `w < v`), each driven by a per-row substream — the
    // rows are independent Bernoulli families, so the distribution is the
    // same G(n, p) and the output is a pure function of the seed,
    // independent of thread count.
    let edges: Vec<Edge> = (1..n as u64)
        .into_par_iter()
        .flat_map_iter(|v| GnpRow::new(stream.substream(v), v as Vertex, p))
        .collect();
    Graph::new(n, edges)
}

/// [`gnp`]'s sharded emit path: each of `k` shards collects its contiguous
/// band of vertex rows directly, so the flat edge vector never
/// materializes. Same per-row substreams as the flat generator — the
/// merged edge list is identical edge-for-edge to `gnp(n, p, seed)` at any
/// `k` or thread count.
#[must_use]
pub fn gnp_sharded(n: usize, p: f64, seed: u64, k: usize) -> ShardedGraph {
    assert!((0.0..=1.0).contains(&p));
    if n == 0 || p == 0.0 {
        return ShardedGraph::new(n, vec![Vec::new(); k.max(1)]);
    }
    let stream = Stream::new(seed, 0x6e70);
    ShardedGraph::from_rows(n, k, n as u64 - 1, move |row| {
        let v = row + 1;
        GnpRow::new(stream.substream(v), v as Vertex, p)
    })
}

/// Skip-sampling iterator over the edges `(w, v)` with `w < v` kept
/// independently with probability `p` (Batagelj–Brandes geometric jumps).
struct GnpRow {
    stream: Stream,
    v: Vertex,
    /// Next candidate, offset by one (0 = candidate `w = 0` not yet tried).
    w: u64,
    draws: u64,
    ln_q: f64,
    p: f64,
}

impl GnpRow {
    fn new(stream: Stream, v: Vertex, p: f64) -> Self {
        Self {
            stream,
            v,
            w: 0,
            draws: 0,
            ln_q: (1.0 - p).ln(),
            p,
        }
    }
}

impl Iterator for GnpRow {
    type Item = Edge;
    fn next(&mut self) -> Option<Edge> {
        if self.p <= 0.0 {
            return None;
        }
        // `1 - p` rounded to 1.0 (p below f64 epsilon): `ln_q` is 0 and the
        // skip formula degenerates (−∞ cast-saturates to 0, which would emit
        // the *complete* graph). Expected edge count at such p is ~0.
        if self.ln_q == 0.0 && self.p < 1.0 {
            return None;
        }
        let skip = if self.p >= 1.0 {
            0
        } else {
            let r = self.stream.unit(self.draws).max(f64::MIN_POSITIVE);
            self.draws += 1;
            ((1.0 - r).ln() / self.ln_q).floor() as u64
        };
        let w = self.w + skip;
        self.w = w + 1;
        (w < self.v as u64).then(|| Edge::new(w as Vertex, self.v))
    }
}

/// Random `d`-regular multigraph via the configuration model: `n·d` stubs,
/// shuffled and paired. Loops/parallel edges possible (the paper's model
/// allows them); for `d ≥ 3` these are expanders w.h.p. `n·d` must be even.
#[must_use]
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    let stream = Stream::new(seed, 0x4e86);
    // Shuffle the n·d stubs by sorting on per-stub random keys (a parallel
    // random permutation), then pair adjacent stubs. On the astronomically
    // unlikely key ties the sorted tuples are `(key, vertex)` — stubs of the
    // same vertex are interchangeable and ties across vertices order by
    // vertex id, so the output is still a pure function of the seed.
    let mut keyed: Vec<(u64, Vertex)> = (0..(n * d) as u64)
        .into_par_iter()
        .map(|i| (stream.hash(i), (i as usize / d) as Vertex))
        .collect();
    keyed.par_sort_unstable();
    let edges = keyed
        .par_chunks(2)
        .map(|c| Edge::new(c[0].1, c[1].1))
        .collect();
    Graph::new(n, edges)
}

/// Chung–Lu graph with power-law expected degrees
/// `w_i ∝ (i + i0)^{−1/(γ−1)}`, scaled to average degree `avg_deg`, via the
/// Miller–Hagberg `O(n + m)` sampler. Models the social/communication graphs
/// the paper's introduction motivates.
#[must_use]
pub fn chung_lu(n: usize, gamma: f64, avg_deg: f64, seed: u64) -> Graph {
    if n == 0 {
        return Graph::new(0, vec![]);
    }
    let (w, total) = chung_lu_weights(n, gamma, avg_deg);
    let stream = Stream::new(seed, 0xc1);
    // Rows `u` are sampled independently (the Miller–Hagberg outer loop
    // carries no state across rows), so they parallelize directly; each row
    // gets its own substream, making the output a pure function of the seed
    // at any thread count.
    let w = &w;
    let edges: Vec<Edge> = (0..n as u64 - 1)
        .into_par_iter()
        .flat_map_iter(|u| chung_lu_row(u, w, total, &stream))
        .collect();
    Graph::new(n, edges)
}

/// [`chung_lu`]'s sharded emit path: `k` shards, each collecting its band
/// of rows directly (never materializing the flat edge vector). Identical
/// merged output to `chung_lu(n, gamma, avg_deg, seed)`.
#[must_use]
pub fn chung_lu_sharded(n: usize, gamma: f64, avg_deg: f64, seed: u64, k: usize) -> ShardedGraph {
    if n == 0 {
        return ShardedGraph::new(0, vec![Vec::new(); k.max(1)]);
    }
    let (w, total) = chung_lu_weights(n, gamma, avg_deg);
    let stream = Stream::new(seed, 0xc1);
    let rows = n as u64 - 1;
    ShardedGraph::from_rows(n, k, rows, move |u| chung_lu_row(u, &w, total, &stream))
}

/// The Miller–Hagberg expected-degree weights `w_i ∝ (i + 1)^{−1/(γ−1)}`
/// scaled to `avg_deg`, plus their sum (already sorted descending, as the
/// sampler requires).
fn chung_lu_weights(n: usize, gamma: f64, avg_deg: f64) -> (Vec<f64>, f64) {
    assert!(gamma > 2.0, "need γ > 2 for a finite mean");
    let alpha = 1.0 / (gamma - 1.0);
    let i0 = 1.0;
    let mut w: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-alpha)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_deg * n as f64 / sum;
    for wi in &mut w {
        *wi *= scale;
    }
    let total: f64 = w.iter().sum();
    (w, total)
}

/// One Miller–Hagberg row: the edges `(u, v)` with `v > u`, drawn from
/// `u`'s dedicated substream (shared by the flat and sharded emitters).
fn chung_lu_row(u: u64, w: &[f64], total: f64, stream: &Stream) -> Vec<Edge> {
    let n = w.len();
    let u = u as usize;
    let row = stream.substream(u as u64);
    let mut draws = 0u64;
    let mut unit = || {
        let r = row.unit(draws);
        draws += 1;
        r
    };
    let mut out = Vec::new();
    let mut v = u + 1;
    let mut p = (w[u] * w[v] / total).min(1.0);
    while v < n && p > 0.0 {
        if p < 1.0 {
            let r = unit().max(f64::MIN_POSITIVE);
            v += ((1.0 - r).ln() / (1.0 - p).ln()).floor() as usize;
        }
        if v < n {
            let q = (w[u] * w[v] / total).min(1.0);
            if unit() < q / p {
                out.push(Edge::new(u as Vertex, v as Vertex));
            }
            p = q;
            v += 1;
        }
    }
    out
}

/// Two cliques `K_k` joined by a path of `bridge` extra vertices.
/// A classic tiny-conductance instance: `λ = O(1/k²)` for `bridge = 0`.
#[must_use]
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 2);
    let left = complete(k);
    let right = complete(k);
    let mut g = Graph::disjoint_union(&[left, right]);
    let n0 = g.n();
    let mut edges = g.edges().to_vec();
    // Path from vertex k-1 (in left clique) through bridge vertices to k (in right).
    let mut prev = (k - 1) as Vertex;
    for b in 0..bridge {
        let nb = (n0 + b) as Vertex;
        edges.push(Edge::new(prev, nb));
        prev = nb;
    }
    edges.push(Edge::new(prev, k as Vertex));
    g = Graph::new(n0 + bridge, edges);
    g
}

/// `k` cliques of size `c` arranged in a ring, consecutive cliques joined by
/// one edge. `λ = Θ(1/(k²c²))`-ish: well-connected locally, bad globally.
#[must_use]
pub fn ring_of_cliques(k: usize, c: usize) -> Graph {
    assert!(k >= 3 && c >= 2);
    let parts: Vec<Graph> = (0..k).map(|_| complete(c)).collect();
    let mut g = Graph::disjoint_union(&parts);
    let mut edges = g.edges().to_vec();
    for i in 0..k {
        let a = (i * c) as Vertex; // first vertex of clique i
        let b = (((i + 1) % k) * c + 1).min(g.n() - 1) as Vertex;
        edges.push(Edge::new(a, b));
    }
    g = Graph::new(g.n(), edges);
    g
}

/// `k` cliques of size `c` in a path, consecutive cliques joined by `width`
/// parallel bridge edges. Diameter `≈ 3k` with `m ≈ k·c²/2`: a *diameter
/// sweep* family at near-constant density (for the LTZ `log d` term).
#[must_use]
pub fn path_of_cliques(k: usize, c: usize, width: usize) -> Graph {
    assert!(k >= 1 && c >= 2 && width >= 1);
    let parts: Vec<Graph> = (0..k).map(|_| complete(c)).collect();
    let g = Graph::disjoint_union(&parts);
    let mut edges = g.edges().to_vec();
    for i in 0..k - 1 {
        for wdt in 0..width {
            let a = (i * c + wdt % c) as Vertex;
            let b = ((i + 1) * c + (wdt + 1) % c) as Vertex;
            edges.push(Edge::new(a, b));
        }
    }
    Graph::new(g.n(), edges)
}

/// Disjoint union of `count` random `d`-regular expanders of `size` vertices
/// each: the paper's "union of well-connected components" regime, with
/// min component-wise λ ≈ const.
#[must_use]
pub fn expander_union(count: usize, size: usize, d: usize, seed: u64) -> Graph {
    let parts: Vec<Graph> = (0..count)
        .map(|i| random_regular(size, d, seed.wrapping_add(i as u64 * 0x9E37)))
        .collect();
    Graph::disjoint_union(&parts)
}

/// A mixture stressing every code path at once: a few expanders, many tiny
/// cliques (the "small components" the skeleton graph must preserve exactly,
/// Lemma 5.4), one long cycle (tiny λ), and isolated vertices.
#[must_use]
pub fn mixture(seed: u64) -> Graph {
    let mut parts = vec![
        random_regular(2000, 8, seed),
        gnp(1500, 0.01, seed ^ 1),
        cycle(900),
    ];
    for i in 0..40 {
        parts.push(complete(3 + (i % 5)));
    }
    parts.push(Graph::new(25, vec![])); // isolated vertices
    Graph::disjoint_union(&parts).permuted(seed ^ 2)
}

/// Add `extra` isolated vertices to `g`.
#[must_use]
pub fn with_isolated(g: &Graph, extra: usize) -> Graph {
    Graph::new(g.n() + extra, g.edges().to_vec())
}

/// The Appendix-B construction: a graph with **polylog diameter** whose
/// `1/polylog`-sampled subgraph stays connected w.h.p. but has diameter
/// `Ω(n/polylog)`.
///
/// Structure: a backbone path of `2^levels` vertices whose
/// consecutive pairs are joined by `bundle` parallel edges (bundles survive
/// sampling w.h.p., keeping connectivity and the path), plus a balanced
/// binary tree over the path positions with **single** edges providing the
/// small diameter. Tree vertices are anchored to their leftmost descendant
/// leaf with a bundle (keeping them connected after sampling). Under sampling,
/// surviving tree edges form subcritical fragments that only yield short
/// shortcuts, so the diameter degrades to `Ω(len/polylog)`.
#[must_use]
pub fn sampling_pitfall(levels: u32, bundle: u32) -> Graph {
    assert!(levels >= 2 && bundle >= 1);
    let len = 1usize << levels; // path vertices 0..len-1
    let internal = len - 1; // heap nodes 1..len-1 → vertices len-1+k
    let n = len + internal;
    let internal_vx = |k: usize| (len - 1 + k) as Vertex;
    let mut edges = Vec::new();
    // Bundled backbone path.
    for i in 0..len - 1 {
        for _ in 0..bundle {
            edges.push(Edge::new(i as Vertex, (i + 1) as Vertex));
        }
    }
    // Single-copy binary tree; heap child 2k / 2k+1; heap index ≥ len ⇒ leaf.
    let child_vx = |c: usize| -> Vertex {
        if c >= len {
            (c - len) as Vertex
        } else {
            internal_vx(c)
        }
    };
    for k in 1..len {
        for c in [2 * k, 2 * k + 1] {
            if c < 2 * len {
                edges.push(Edge::new(internal_vx(k), child_vx(c)));
            }
        }
    }
    // Anchor each internal node to its leftmost descendant leaf with a bundle.
    for k in 1..len {
        let mut j = k;
        while j < len {
            j *= 2;
        }
        let leaf = (j - len) as Vertex;
        for _ in 0..bundle {
            edges.push(Edge::new(internal_vx(k), leaf));
        }
    }
    Graph::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::{component_count, diameter_exact};

    #[test]
    fn path_shape() {
        let g = path(10);
        assert_eq!((g.n(), g.m()), (10, 9));
        assert_eq!(component_count(&g), 1);
        assert_eq!(diameter_exact(&g), 9);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!((g.n(), g.m()), (8, 8));
        assert_eq!(g.min_degree(), 2);
        assert_eq!(diameter_exact(&g), 4);
    }

    #[test]
    fn two_cycles_shape() {
        let g = two_cycles(12);
        assert_eq!((g.n(), g.m()), (12, 12));
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!((g.n(), g.m()), (6, 15));
        assert_eq!(g.min_degree(), 5);
        assert_eq!(diameter_exact(&g), 1);
    }

    #[test]
    fn star_and_tree() {
        assert_eq!(star(5).degrees(), vec![4, 1, 1, 1, 1]);
        let t = binary_tree(7);
        assert_eq!(t.m(), 6);
        assert_eq!(diameter_exact(&t), 4);
    }

    #[test]
    fn grid_shapes() {
        let g = grid2d(3, 4, false);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(component_count(&g), 1);
        let t = grid2d(4, 4, true);
        assert_eq!(t.m(), 2 * 16);
        assert!(t.degrees().iter().all(|&d| d == 4));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!((g.n(), g.m()), (16, 32));
        assert!(g.degrees().iter().all(|&d| d == 4));
        assert_eq!(diameter_exact(&g), 4);
    }

    #[test]
    fn gnp_density_and_determinism() {
        let n = 2000;
        let p = 0.01;
        let g = gnp(n, p, 5);
        let expect = (n * (n - 1) / 2) as f64 * p;
        let m = g.m() as f64;
        assert!((m - expect).abs() < 0.15 * expect, "m={m} expect≈{expect}");
        assert_eq!(g, gnp(n, p, 5));
        assert_ne!(g, gnp(n, p, 6));
    }

    #[test]
    fn gnp_no_loops_no_out_of_range() {
        let g = gnp(500, 0.02, 1);
        assert!(g.edges().iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn gnp_underflow_p_yields_no_edges() {
        // p below f64 epsilon: 1 − p rounds to 1.0 and the skip-sampling
        // recurrence degenerates; the guard must emit nothing (expected
        // edge count ≈ n²p/2 ≈ 0), not the complete graph.
        assert_eq!(gnp(1000, 1e-18, 1).m(), 0);
        assert_eq!(gnp(1000, f64::MIN_POSITIVE, 1).m(), 0);
    }

    #[test]
    fn gnp_connected_above_threshold() {
        // p = 4 ln n / n — safely above connectivity threshold.
        let n = 1000;
        let p = 4.0 * (n as f64).ln() / n as f64;
        assert_eq!(component_count(&gnp(n, p, 7)), 1);
    }

    #[test]
    fn random_regular_degree_sum() {
        let g = random_regular(100, 4, 3);
        assert_eq!(g.m(), 200);
        // Total degree = n·d (loops counted once in degrees, but the stub
        // count is exact on edge multiset size).
        assert_eq!(g, random_regular(100, 4, 3));
    }

    #[test]
    fn random_regular_is_connected_expander() {
        let g = random_regular(500, 6, 11);
        assert_eq!(component_count(&g), 1);
        assert!(diameter_exact(&g) <= 8, "expander diameter should be small");
    }

    #[test]
    fn chung_lu_sane() {
        let n = 3000;
        let g = chung_lu(n, 2.5, 6.0, 13);
        let avg = 2.0 * g.m() as f64 / n as f64;
        assert!(avg > 2.0 && avg < 12.0, "avg degree {avg}");
        let dmax = *g.degrees().iter().max().unwrap();
        assert!(dmax > 30, "power law should give heavy head, dmax={dmax}");
        assert_eq!(g, chung_lu(n, 2.5, 6.0, 13));
    }

    #[test]
    fn sharded_emit_matches_flat_generators() {
        for k in [1usize, 4, 7] {
            let sg = gnp_sharded(600, 0.01, 11, k);
            assert_eq!(sg.shard_count(), k);
            assert_eq!(sg.flat_clone(), gnp(600, 0.01, 11), "gnp k={k}");
            let sc = chung_lu_sharded(500, 2.5, 6.0, 13, k);
            assert_eq!(
                sc.flat_clone(),
                chung_lu(500, 2.5, 6.0, 13),
                "chung_lu k={k}"
            );
            for torus in [false, true] {
                let sm = grid2d_sharded(14, 9, torus, k);
                assert_eq!(
                    sm.flat_clone(),
                    grid2d(14, 9, torus),
                    "grid2d k={k} torus={torus}"
                );
            }
        }
        // Degenerate sizes still produce the requested shard width.
        assert_eq!(gnp_sharded(0, 0.5, 1, 3).shard_count(), 3);
        assert_eq!(grid2d_sharded(0, 0, false, 2).shard_count(), 2);
        assert_eq!(chung_lu_sharded(0, 2.5, 4.0, 1, 2).shard_count(), 2);
        assert_eq!(gnp_sharded(10, 0.0, 1, 2).m(), 0);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(component_count(&g), 1);
        assert_eq!(g.m(), 2 * 10 + 3);
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(component_count(&g), 1);
        assert_eq!(g.m(), 4 * 10 + 4);
    }

    #[test]
    fn path_of_cliques_diameter_grows() {
        let d1 = diameter_exact(&path_of_cliques(3, 6, 2));
        let d2 = diameter_exact(&path_of_cliques(12, 6, 2));
        assert!(d2 >= 3 * d1, "diameter should grow with chain length");
        assert_eq!(component_count(&path_of_cliques(12, 6, 2)), 1);
    }

    #[test]
    fn expander_union_components() {
        let g = expander_union(5, 200, 6, 17);
        assert_eq!(g.n(), 1000);
        assert_eq!(component_count(&g), 5);
    }

    #[test]
    fn mixture_has_many_components() {
        let g = mixture(1);
        // 3 big parts + 40 cliques + 25 isolated
        assert_eq!(component_count(&g), 3 + 40 + 25);
    }

    #[test]
    fn with_isolated_adds() {
        let g = with_isolated(&complete(3), 4);
        assert_eq!(g.n(), 7);
        assert_eq!(component_count(&g), 5);
    }

    #[test]
    fn sampling_pitfall_small_diameter_before() {
        let g = sampling_pitfall(8, 8); // 256 path vertices, 511 total
        assert_eq!(component_count(&g), 1);
        let d = diameter_exact(&g);
        assert!(d <= 4 * 8, "diameter {d} should be O(levels) via the tree");
    }

    #[test]
    fn sampling_pitfall_diameter_blows_up_after() {
        // bundle chosen so bundles survive sampling w.h.p.
        let levels = 9; // path length 512
        let g = sampling_pitfall(levels, 48);
        let p = 0.15;
        let s = g.edge_sampled(p, 99);
        assert_eq!(component_count(&s), 1, "bundles must keep it connected");
        let before = diameter_exact(&g);
        let after = diameter_exact(&s);
        assert!(
            after as f64 > 4.0 * before as f64,
            "sampling should blow up diameter: before={before}, after={after}"
        );
    }
}
