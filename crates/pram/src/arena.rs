//! Reusable buffer pools for the solver hot paths.
//!
//! Every phase of the paper's pipeline — and every EXPAND-MAXLINK round of
//! the LTZ engine — used to allocate fresh `Vec`s for edge sets, vertex
//! lists and sort scratch, then drop them at the end of the call. At
//! millions of edges per phase that is pure allocator traffic on the
//! memory-bandwidth-bound contraction loop. A [`SolverArena`] keeps those
//! buffers alive between calls: the `*_into`/`*_with` primitive variants
//! (`padded_sort_with`, `simplify_edges_into`, `retain_edges_with`,
//! `alter_edges_with`) check a buffer out, fill it, and check it back in,
//! so a warm arena makes repeat passes allocation-free.
//!
//! The arena is deliberately **not** thread-safe: it is owned by one
//! pipeline (a solver run, an `LtzEngine`) and handed down `&mut`. Scratch
//! needed *inside* parallel loops (per-vertex table drains) uses
//! thread-local buffers instead — see `parcc-ltz`.
//!
//! High-water telemetry ([`ArenaStats`]) feeds the `allocs`/`peak_bytes`
//! reporting in `SolveReport`.

use crate::edge::{Edge, Vertex};

/// Point-in-time usage counters for a [`SolverArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer checkouts served (hits + misses).
    pub takes: u64,
    /// Checkouts that found the pool empty and allocated a fresh buffer.
    pub misses: u64,
    /// High-water mark of bytes retained across all pooled buffers.
    pub peak_bytes: u64,
}

/// Pools of reusable `Vec` buffers for the solver pipelines.
///
/// Three typed pools cover every hot-path scratch need: packed edges,
/// vertex ids, and raw `u64` words (radix-sort scratch and histograms).
/// `take_*` pops a cleared buffer (or allocates an empty one on a miss);
/// `give_*` returns it for reuse. Buffers keep their capacity across the
/// round trip — steady state performs zero heap allocations.
#[derive(Debug, Default)]
pub struct SolverArena {
    edges: Vec<Vec<Edge>>,
    verts: Vec<Vec<Vertex>>,
    words: Vec<Vec<u64>>,
    takes: u64,
    misses: u64,
    retained_bytes: u64,
    peak_bytes: u64,
}

macro_rules! pool_pair {
    ($take:ident, $give:ident, $field:ident, $t:ty, $take_doc:literal, $give_doc:literal) => {
        #[doc = $take_doc]
        #[must_use]
        pub fn $take(&mut self) -> Vec<$t> {
            self.takes += 1;
            match self.$field.pop() {
                Some(buf) => {
                    self.retained_bytes -= (buf.capacity() * std::mem::size_of::<$t>()) as u64;
                    buf
                }
                None => {
                    self.misses += 1;
                    Vec::new()
                }
            }
        }

        #[doc = $give_doc]
        pub fn $give(&mut self, mut buf: Vec<$t>) {
            buf.clear();
            self.retained_bytes += (buf.capacity() * std::mem::size_of::<$t>()) as u64;
            self.peak_bytes = self.peak_bytes.max(self.retained_bytes);
            self.$field.push(buf);
        }
    };
}

impl SolverArena {
    /// An empty arena (no buffers pooled yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pool_pair!(
        take_edges,
        give_edges,
        edges,
        Edge,
        "Check out a cleared edge buffer (pool hit keeps its capacity).",
        "Return an edge buffer to the pool for reuse."
    );
    pool_pair!(
        take_verts,
        give_verts,
        verts,
        Vertex,
        "Check out a cleared vertex-id buffer.",
        "Return a vertex-id buffer to the pool for reuse."
    );
    pool_pair!(
        take_words,
        give_words,
        words,
        u64,
        "Check out a cleared `u64` word buffer (radix scratch, histograms).",
        "Return a word buffer to the pool for reuse."
    );

    /// Usage counters (checkouts, pool misses, retained-byte high water).
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes,
            misses: self.misses,
            peak_bytes: self.peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_keeps_capacity() {
        let mut a = SolverArena::new();
        let mut b = a.take_edges();
        assert!(b.is_empty());
        b.extend((0..100u32).map(|i| Edge::new(i, i + 1)));
        let cap = b.capacity();
        a.give_edges(b);
        let b2 = a.take_edges();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap, "capacity must survive the round trip");
    }

    #[test]
    fn stats_track_misses_and_peak() {
        let mut a = SolverArena::new();
        let b1 = a.take_words(); // miss
        let mut b2 = a.take_words(); // miss
        b2.resize(1024, 0);
        a.give_words(b2);
        a.give_words(b1);
        let _b3 = a.take_words(); // hit (LIFO pops the empty b1... either way a hit)
        let s = a.stats();
        assert_eq!(s.takes, 3);
        assert_eq!(s.misses, 2);
        assert!(s.peak_bytes >= 1024 * 8, "peak {} too small", s.peak_bytes);
    }

    #[test]
    fn typed_pools_are_independent() {
        let mut a = SolverArena::new();
        a.give_verts(vec![1, 2, 3]);
        assert!(a.take_edges().is_empty());
        let v = a.take_verts();
        assert!(v.is_empty(), "give clears the buffer");
        assert!(v.capacity() >= 3);
    }
}
