//! Offline, API-compatible stand-in for the subset of [`rayon`] the `parcc`
//! workspace uses — now with a **real parallel runtime**.
//!
//! The build environment has no network access, so the crates.io `rayon`
//! cannot be fetched. This shim keeps the same names and signatures the
//! workspace calls (`par_iter`, `into_par_iter`, `for_each`,
//! `reduce(identity, op)`, `join`, `ThreadPoolBuilder`, …) so swapping the
//! path dependency for crates.io rayon requires no source changes — but
//! unlike the original sequential shim, work actually executes across a
//! global work-stealing thread pool.
//!
//! ## Scheduler
//!
//! A process-wide pool is created lazily on first parallel use ([`pool`]).
//! Each worker owns a deque; a batch submitter pushes `threads − 1`
//! *executor* jobs round-robin and then becomes an executor itself, each
//! executor pulling chunk indices off the batch's shared counter until none
//! remain — so at most the effective thread count of threads ever run one
//! batch concurrently, with chunks balancing dynamically across them. Idle
//! workers steal from the back of other deques and park on a condvar. The
//! effective thread count comes from `ThreadPoolBuilder::build_global`, else
//! the `PARCC_THREADS` env var, else `RAYON_NUM_THREADS`, else
//! [`std::thread::available_parallelism`].
//!
//! ## Chunking policy
//!
//! A parallel pipeline bottoms out in an indexed source of `n` slots; the
//! driver cuts `0..n` into contiguous chunks of
//! `max(floor, n / (4 × threads))` slots — `floor` being the `with_min_len`
//! hint if given, else 64 — folds each chunk sequentially in slot order on
//! some thread, and combines per-chunk results on the caller **in chunk
//! order**. Order-sensitive results (`collect`) are
//! therefore deterministic at any thread count; only side effects on shared
//! state (the ARBITRARY CRCW cells in `parcc-pram`) race.
//!
//! ## One-thread deterministic fallback
//!
//! Whenever the effective thread count is 1 (`PARCC_THREADS=1`, a
//! `num_threads(1)` install, or a single-core machine), every pipeline folds
//! inline on the calling thread in index order and `join` runs its closures
//! sequentially — bit-for-bit the schedule of the old sequential shim, with
//! no worker threads spawned at all. Sequential execution is a legal
//! ARBITRARY CRCW schedule, so this pins one deterministic resolution of
//! every write race for tests and reproducible runs.
//!
//! [`rayon`]: https://docs.rs/rayon

mod iter;
mod pool;
mod sort;

pub use iter::{
    ChunksMutPar, ChunksPar, EnumeratePar, FilterMapPar, FilterPar, FlatMapIterPar, IndexedParIter,
    IntoParIter, MapPar, Par, ParIter, ParSlice, RangeItem, RangePar, SliceMutPar, SlicePar,
    VecPar, ZipPar,
};
pub use pool::{current_num_threads, join};

/// Error building a thread pool (global pool already initialized with a
/// conflicting size).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool is already initialized with a different size")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A scoped thread-count override.
///
/// Unlike crates.io rayon, `build()` does not spawn a dedicated pool:
/// [`ThreadPool::install`] instead pins the *effective* thread count (up to
/// the global pool's capacity) for the duration of the closure, on the
/// calling thread and every job it transitively spawns. `num_threads(1)`
/// installs are guaranteed fully sequential and deterministic.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

/// Restores the previous override even if `f` unwinds.
struct OverrideGuard(usize);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        pool::set_override(self.0);
    }
}

impl ThreadPool {
    /// Run `f` with this pool's thread count in effect.
    pub fn install<T, F: FnOnce() -> T>(&self, f: F) -> T {
        let _guard = OverrideGuard(pool::set_override(self.threads));
        f()
    }

    /// The thread count `install` will pin (0 = the global default). Once
    /// the global pool exists, this is capped at its capacity like the
    /// effective count; before first parallel use the capacity is undecided
    /// (and querying it here must not lock it in — that would break a later
    /// `build_global`), so the requested count is reported as-is.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        if self.threads == 0 {
            current_num_threads()
        } else {
            pool::clamp_to_capacity(self.threads)
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requested thread count (0 = use the global default).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Finish building a scoped-override pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }

    /// Set the global pool's default thread count. Must be called before the
    /// pool's first parallel use (or request its current size); errors
    /// otherwise, like rayon.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if self.num_threads == 0 {
            return Ok(());
        }
        pool::configure_global(self.num_threads).map_err(|()| ThreadPoolBuildError(()))
    }
}

/// The traits the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IndexedParIter, IntoParIter, Par, ParIter, ParSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn map_collect_preserves_order_at_any_thread_count() {
        let expect: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
        for threads in [1, 2, 8] {
            let got: Vec<u64> = with_threads(threads, || {
                (0..10_000u64).into_par_iter().map(|i| i * 3).collect()
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn filter_keeps_relative_order() {
        let v: Vec<u32> = (0..50_000).collect();
        for threads in [1, 8] {
            let got: Vec<u32> = with_threads(threads, || {
                v.par_iter().copied().filter(|x| x % 7 == 0).collect()
            });
            let expect: Vec<u32> = v.iter().copied().filter(|x| x % 7 == 0).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn for_each_runs_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        with_threads(8, || {
            (0..10_000usize).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn work_actually_lands_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        with_threads(8, || {
            (0..100_000u64).into_par_iter().for_each(|i| {
                if i % 10_000 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        // The pool's capacity is ≥ 8 even on a single core, and the sleeps
        // force overlap, so worker threads must actually join the submitter.
        assert!(
            ids.lock().unwrap().len() > 1,
            "no worker thread ever ran a job"
        );
    }

    #[test]
    fn sum_min_max_count_reduce() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let n = 100_000u64;
                let s: u64 = (0..n).into_par_iter().sum();
                assert_eq!(s, n * (n - 1) / 2);
                assert_eq!((0..n).into_par_iter().max(), Some(n - 1));
                assert_eq!((0..n).into_par_iter().min(), Some(0));
                assert_eq!(
                    (0..n).into_par_iter().filter(|x| x % 2 == 0).count(),
                    50_000
                );
                let m = (0..n).into_par_iter().reduce(|| 0, u64::max);
                assert_eq!(m, n - 1);
            });
        }
    }

    #[test]
    fn zip_and_chunks_line_up() {
        let a: Vec<u32> = (0..10_000).collect();
        let mut out = vec![0u32; 10_000];
        with_threads(8, || {
            out.par_iter_mut()
                .zip(a.par_iter())
                .for_each(|(o, &x)| *o = x * 2);
        });
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
        let sums: Vec<u32> =
            with_threads(8, || a.par_chunks(100).map(|c| c.iter().sum()).collect());
        assert_eq!(sums.len(), 100);
        assert_eq!(sums.iter().sum::<u32>(), a.iter().sum::<u32>());
    }

    #[test]
    fn flat_map_iter_and_enumerate() {
        let pairs: Vec<(usize, u32)> = with_threads(4, || {
            (0..1000u32)
                .into_par_iter()
                .enumerate()
                .flat_map_iter(|(i, v)| [(i, v)])
                .collect()
        });
        assert_eq!(pairs.len(), 1000);
        assert!(pairs.iter().all(|&(i, v)| i as u32 == v));
    }

    #[test]
    fn any_all_early_exit() {
        with_threads(8, || {
            assert!((0..1_000_000u64).into_par_iter().any(|x| x == 999_999));
            assert!(!(0..1_000_000u64).into_par_iter().any(|x| x > 1_000_000));
            assert!((0..1_000_000u64).into_par_iter().all(|x| x < 1_000_000));
        });
    }

    #[test]
    fn vec_by_value_moves_items() {
        let v: Vec<String> = (0..5000).map(|i| i.to_string()).collect();
        let lens: usize = with_threads(8, || v.into_par_iter().map(|s| s.len()).sum());
        assert!(lens > 0);
        // Undriven by-value iterators drop their contents cleanly.
        let w: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        drop(w.into_par_iter());
    }

    #[test]
    fn par_sort_matches_std_sort() {
        let mut v: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(13))
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        for threads in [1, 8] {
            let mut got = v.clone();
            with_threads(threads, || got.par_sort_unstable());
            assert_eq!(got, expect, "threads={threads}");
        }
        with_threads(8, || v.par_sort_unstable_by_key(|x| std::cmp::Reverse(*x)));
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn join_returns_both_and_nests() {
        let (a, b) = with_threads(8, || {
            crate::join(
                || crate::join(|| 1 + 1, || 2 + 2),
                || (0..10_000u64).into_par_iter().sum::<u64>(),
            )
        });
        assert_eq!(a, (2, 4));
        assert_eq!(b, 10_000 * 9_999 / 2);
    }

    #[test]
    fn panics_propagate_from_jobs() {
        let r = std::panic::catch_unwind(|| {
            with_threads(8, || {
                (0..100_000u64).into_par_iter().for_each(|i| {
                    assert!(i != 54_321, "boom");
                });
            });
        });
        assert!(r.is_err());
        // The pool must still be usable afterwards.
        let s: u64 = with_threads(8, || (0..1000u64).into_par_iter().sum());
        assert_eq!(s, 1000 * 999 / 2);
    }

    #[test]
    fn install_single_thread_is_deterministic_inline() {
        let id = std::thread::current().id();
        with_threads(1, || {
            (0..10_000u64).into_par_iter().for_each(|_| {
                assert_eq!(
                    std::thread::current().id(),
                    id,
                    "1-thread install must stay inline"
                );
            });
            assert_eq!(crate::current_num_threads(), 1);
        });
    }

    #[test]
    fn explicit_min_len_hint_lets_coarse_chunk_pipelines_fan_out() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let v: Vec<u64> = (0..16_000).collect();
        let ids = Mutex::new(HashSet::new());
        with_threads(4, || {
            // 16 slots of 1000 items: below the default 64-slot floor, so
            // only the explicit hint makes this parallel.
            v.par_chunks(1000).with_min_len(1).for_each(|c| {
                assert_eq!(c.len(), 1000);
                std::thread::sleep(std::time::Duration::from_millis(1));
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert!(
            ids.lock().unwrap().len() > 1,
            "coarse chunks must run on several threads"
        );
    }

    #[test]
    fn zip_with_longer_by_value_vec_drops_the_tail() {
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let v: Vec<D> = (0..100).map(|_| D(drops.clone())).collect();
        with_threads(4, || {
            v.into_par_iter().zip(0..30u64).for_each(|_| {});
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            100,
            "zip tail must be dropped, not leaked"
        );
    }

    #[test]
    fn any_short_circuits_and_drops_skipped_items() {
        use std::sync::Arc;
        struct D(u64, Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        const N: usize = 100_000;
        for threads in [1, 8] {
            let drops = Arc::new(AtomicUsize::new(0));
            let preds = AtomicUsize::new(0);
            let v: Vec<D> = (0..N as u64).map(|i| D(i, drops.clone())).collect();
            let found = with_threads(threads, || {
                v.into_par_iter().any(|d| {
                    preds.fetch_add(1, Ordering::SeqCst);
                    d.0 == 10
                })
            });
            assert!(found);
            assert_eq!(
                drops.load(Ordering::SeqCst),
                N,
                "skipped items must be dropped"
            );
            assert!(
                preds.load(Ordering::SeqCst) < N,
                "any must short-circuit at threads={threads}"
            );
        }
    }

    #[test]
    fn batch_concurrency_is_capped_at_the_effective_thread_count() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        for threads in [2, 3] {
            let ids = Mutex::new(HashSet::new());
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            with_threads(threads, || {
                (0..50_000u64).into_par_iter().for_each(|i| {
                    let c = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(c, Ordering::SeqCst);
                    if i % 10_000 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    ids.lock().unwrap().insert(std::thread::current().id());
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            });
            let distinct = ids.lock().unwrap().len();
            assert!(
                distinct <= threads,
                "{distinct} executors at threads={threads}"
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= threads,
                "{peak} concurrent chunks at threads={threads}"
            );
        }
    }

    #[test]
    fn nested_install_override_propagates_into_jobs() {
        with_threads(8, || {
            (0..1000u64).into_par_iter().for_each(|_| {
                assert_eq!(crate::current_num_threads(), 8);
            });
        });
    }
}
