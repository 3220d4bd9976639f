#![warn(missing_docs)]

//! # parcc-bench
//!
//! The experiment harness: one runner per experiment id in [`experiments`],
//! each regenerating the series that checks one of the paper's claims. The `experiments` binary prints every table; the Criterion
//! benches in `benches/` wrap the wall-clock-relevant subset.
//!
//! The paper (SPAA 2024 theory track) contains no empirical tables or
//! figures; the reproduced "evaluation" is the set of checkable theorem /
//! lemma / appendix claims; each runner's doc names the claim it checks.

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
