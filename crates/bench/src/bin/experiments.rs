//! Regenerate every experiment table (the runners in
//! `parcc_bench::experiments`).
//!
//! Usage:
//!   experiments            — full-size tables (minutes)
//!   experiments --quick    — reduced sizes (seconds)
//!   experiments e2 e9      — selected experiment ids only

use parcc_bench::experiments as ex;
use parcc_bench::Table;

/// Real `allocs` columns in the tables (E16) need the counting hook.
#[global_allocator]
static ALLOC: parcc_pram::alloc_track::CountingAllocator =
    parcc_pram::alloc_track::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    let run = |id: &str, table: fn(bool) -> Table| {
        if ids.is_empty() || ids.iter().any(|x| x == id) {
            table(quick).print();
        }
    };
    eprintln!(
        "parcc experiment suite ({} mode) — paper: arXiv:2312.02332 (SPAA 2024)",
        if quick { "quick" } else { "full" }
    );
    run("e1", ex::e1_main_scaling);
    run("e2", ex::e2_ltz);
    run("e3", ex::e3_matching);
    run("e5", ex::e5_reduce);
    run("e6", ex::e6_skeleton);
    run("e7", ex::e7_increase);
    run("e8", ex::e8_gap_sampling);
    run("e9", ex::e9_sampling_pitfall);
    run("e10", ex::e10_phase_trace);
    run("e10b", ex::e10b_forced_phases);
    run("e11", ex::e11_two_cycle);
    run("e12", ex::e12_comparison);
    run("e13", ex::e13_budget_ablation);
    run("e14", ex::e14_thread_scaling);
    run("e15", ex::e15_sharded_storage);
    run("e16", ex::e16_sort_backends);
    run("e17", ex::e17_serve_mixed);
    run("e18", ex::e18_store);
    run("e19", ex::e19_adaptive);
    run("e20", ex::e20_scaling);
    run("e21", ex::e21_durability);
}
