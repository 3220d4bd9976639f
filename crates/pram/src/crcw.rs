//! Shared-memory cells with ARBITRARY CRCW write semantics.
//!
//! The paper's subroutines repeatedly use two concurrent-write idioms:
//!
//! 1. **write-then-check** ("each arc writes itself to the private memory of
//!    `v`, then checks whether the arc written to `v` equals itself") — an
//!    arbitrary writer wins and everyone can identify the winner afterwards.
//!    Realized by [`TagCells`]: racing relaxed stores, any interleaving is a
//!    valid ARBITRARY resolution.
//! 2. **priority write** (MAXLINK's arg-max over neighbour levels) — realized
//!    by [`MaxCells`] with `fetch_max` over a packed `(key, value)` word, a
//!    standard constant-time CRCW simulation.
//!
//! All orderings are `Relaxed`: the batch-completion barrier at the end of
//! every parallel pass (the pool's job handoff and completion latch are
//! Release/Acquire) provides the necessary happens-before edges between
//! rounds, and races *within* a round are exactly the concurrent writes the
//! model permits. With more than one worker thread these races are real —
//! any writer may win, and `tests/threads.rs` hammers exactly that — while
//! one effective thread serializes each pass in index order, pinning one
//! deterministic ARBITRARY resolution.

use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Sentinel for an unoccupied cell.
pub const EMPTY: u64 = u64::MAX;

/// An array of cells supporting concurrent tagged writes with arbitrary
/// winner resolution.
#[derive(Debug)]
pub struct TagCells {
    cells: Vec<AtomicU64>,
}

impl TagCells {
    /// `n` cells, all [`EMPTY`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(EMPTY));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent write; an arbitrary concurrent writer wins.
    #[inline]
    pub fn write(&self, i: usize, tag: u64) {
        self.cells[i].store(tag, Ordering::Relaxed);
    }

    /// Read the current winner (or [`EMPTY`]).
    #[inline]
    #[must_use]
    pub fn read(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Is the cell unoccupied?
    #[inline]
    #[must_use]
    pub fn vacant(&self, i: usize) -> bool {
        self.read(i) == EMPTY
    }

    /// First-writer-wins claim: succeeds iff the cell was [`EMPTY`].
    ///
    /// (On a CRCW PRAM this is two steps: write, then check the winner; a CAS
    /// realizes the same contract in one hardware op.) A relaxed load runs
    /// first and turns away a claim on an occupied cell without the CAS, so
    /// the repeat claims of a scan over edge endpoints read the cache line
    /// instead of taking it exclusive.
    #[inline]
    pub fn try_claim(&self, i: usize, tag: u64) -> bool {
        let cell = &self.cells[i];
        cell.load(Ordering::Relaxed) == EMPTY
            && cell
                .compare_exchange(EMPTY, tag, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Clear one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(EMPTY, Ordering::Relaxed);
    }

    /// Clear every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(EMPTY, Ordering::Relaxed));
    }
}

/// Cells supporting concurrent priority (maximum) writes.
///
/// Values are packed `(key << 32) | payload`; `fetch_max` then selects the
/// highest key and, among equal keys, the highest payload — a deterministic
/// tie-break that is one valid ARBITRARY resolution.
#[derive(Debug)]
pub struct MaxCells {
    cells: Vec<AtomicU64>,
}

/// Pack a `(key, payload)` pair for [`MaxCells`].
#[inline]
#[must_use]
pub fn pack(key: u32, payload: u32) -> u64 {
    (key as u64) << 32 | payload as u64
}

/// Inverse of [`pack`].
#[inline]
#[must_use]
pub fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl MaxCells {
    /// `n` cells, all zero (the identity for `max` since packed keys are ≥ 0).
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(0));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent priority write.
    #[inline]
    pub fn offer(&self, i: usize, key: u32, payload: u32) {
        self.cells[i].fetch_max(pack(key, payload), Ordering::Relaxed);
    }

    /// Current maximum as `(key, payload)`; `(0, 0)` if never offered.
    #[inline]
    #[must_use]
    pub fn best(&self, i: usize) -> (u32, u32) {
        unpack(self.cells[i].load(Ordering::Relaxed))
    }

    /// Zero one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(0, Ordering::Relaxed);
    }

    /// Zero every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// Cells supporting concurrent priority (minimum) writes over `u32` values.
///
/// The dual of [`MaxCells`], used by hook-to-minimum steps (Shiloach–Vishkin
/// conditional hooking, deterministic fallbacks).
#[derive(Debug)]
pub struct MinCells {
    cells: Vec<AtomicU64>,
}

impl MinCells {
    /// `n` cells, all [`EMPTY`] (the identity for `min`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(EMPTY));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent priority write.
    #[inline]
    pub fn offer(&self, i: usize, value: u32) {
        self.cells[i].fetch_min(value as u64, Ordering::Relaxed);
    }

    /// Current minimum, or `None` if never offered.
    #[inline]
    #[must_use]
    pub fn best(&self, i: usize) -> Option<u32> {
        let v = self.cells[i].load(Ordering::Relaxed);
        (v != EMPTY).then_some(v as u32)
    }

    /// Reset one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(EMPTY, Ordering::Relaxed);
    }

    /// Reset every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(EMPTY, Ordering::Relaxed));
    }
}

/// A parallel bit-flag array (marks: "dormant", "head", "deleted", ...).
#[derive(Debug)]
pub struct Flags {
    bits: Vec<AtomicBool>,
}

impl Flags {
    /// `n` flags, all false.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut bits = Vec::with_capacity(n);
        bits.resize_with(n, || AtomicBool::new(false));
        Self { bits }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if there are no flags.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Set flag `i`.
    #[inline]
    pub fn set(&self, i: usize) {
        self.bits[i].store(true, Ordering::Relaxed);
    }

    /// Clear flag `i`.
    #[inline]
    pub fn unset(&self, i: usize) {
        self.bits[i].store(false, Ordering::Relaxed);
    }

    /// Read flag `i`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.bits[i].load(Ordering::Relaxed)
    }

    /// Clear every flag in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.bits
            .par_iter()
            .for_each(|b| b.store(false, Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_cells_start_empty() {
        let t = TagCells::new(4);
        assert_eq!(t.len(), 4);
        assert!((0..4).all(|i| t.vacant(i)));
    }

    #[test]
    fn tag_write_read() {
        let t = TagCells::new(2);
        t.write(0, 99);
        assert_eq!(t.read(0), 99);
        assert!(t.vacant(1));
        t.clear(0);
        assert!(t.vacant(0));
    }

    #[test]
    fn try_claim_first_wins() {
        let t = TagCells::new(1);
        assert!(t.try_claim(0, 5));
        assert!(!t.try_claim(0, 6));
        assert_eq!(t.read(0), 5);
    }

    #[test]
    fn try_claim_fails_on_written_cell() {
        let t = TagCells::new(2);
        t.write(0, 7);
        assert!(!t.try_claim(0, 8));
        assert_eq!(t.read(0), 7);
        // A cleared cell is claimable again.
        t.clear(0);
        assert!(t.try_claim(0, 9));
        assert_eq!(t.read(0), 9);
        assert!(t.try_claim(1, 3));
    }

    #[test]
    fn concurrent_writes_some_winner() {
        let t = TagCells::new(1);
        (0..1000u64).into_par_iter().for_each(|i| t.write(0, i));
        let w = t.read(0);
        assert!(w < 1000, "winner must be one of the written tags");
    }

    #[test]
    fn concurrent_claims_exactly_one_winner() {
        let t = TagCells::new(1);
        let winners: Vec<u64> = (0..1000u64)
            .into_par_iter()
            .filter(|&i| t.try_claim(0, i))
            .collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(t.read(0), winners[0]);
    }

    #[test]
    fn max_cells_select_maximum_key() {
        let m = MaxCells::new(1);
        (0..1000u32)
            .into_par_iter()
            .for_each(|i| m.offer(0, i, i + 7));
        assert_eq!(m.best(0), (999, 999 + 7));
    }

    #[test]
    fn max_cells_tie_break_on_payload() {
        let m = MaxCells::new(1);
        m.offer(0, 5, 1);
        m.offer(0, 5, 9);
        m.offer(0, 5, 3);
        assert_eq!(m.best(0), (5, 9));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let w = pack(123, 456);
        assert_eq!(unpack(w), (123, 456));
        assert_eq!(unpack(pack(u32::MAX, 0)), (u32::MAX, 0));
    }

    #[test]
    fn flags_set_get_reset() {
        let f = Flags::new(3);
        f.set(1);
        assert!(!f.get(0) && f.get(1) && !f.get(2));
        f.unset(1);
        assert!(!f.get(1));
        f.set(0);
        f.set(2);
        f.reset_all();
        assert!((0..3).all(|i| !f.get(i)));
    }

    #[test]
    fn min_cells_select_minimum() {
        let m = MinCells::new(2);
        assert_eq!(m.best(0), None);
        (1..1000u32).into_par_iter().for_each(|i| m.offer(0, i));
        assert_eq!(m.best(0), Some(1));
        m.clear(0);
        assert_eq!(m.best(0), None);
    }

    #[test]
    fn reset_all_clears_tags() {
        let t = TagCells::new(100);
        for i in 0..100 {
            t.write(i, i as u64);
        }
        t.reset_all();
        assert!((0..100).all(|i| t.vacant(i)));
    }
}
