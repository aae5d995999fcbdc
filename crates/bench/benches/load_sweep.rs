//! Capacity sweep: multi-client offered-load steps per transport with
//! coordinated-omission-correct SLO reporting (the nectar-load engine).
//!
//!     cargo bench -p nectar-bench --bench load_sweep [-- --quick]
//!
//! Each transport is driven by an open-loop Poisson client fleet at
//! increasing aggregate request rates; every point reports goodput and
//! p50/p90/p99/p99.9 latency measured from each request's *intended*
//! start time, and the sweep locates the capacity knee (last step still
//! served at ≥95% of offered). Results land in `BENCH_load.json` (in
//! `$NECTAR_BENCH_DIR` when set, else the workspace root) plus a
//! markdown table on stdout. `--quick` (or `NECTAR_LOAD_QUICK=1`) runs
//! the two-transport CI smoke configuration.
//!
//! Determinism contract: the JSON is integer-valued and schedule-
//! derived only, so two runs with the same seed produce byte-identical
//! files — CI double-runs the quick sweep and diffs the bytes.

use nectar_load::sweep::{run_sweep, variants_json, SweepConfig};

const SEED: u64 = 0x10ad_5eed;

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var("NECTAR_LOAD_QUICK").is_ok();
    let cfg = if quick { SweepConfig::quick(SEED) } else { SweepConfig::full(SEED) };

    println!(
        "load_sweep: {} transports x {} load steps, {} clients/point, {} ms measured, oracle armed, baseline + fastpath",
        cfg.transports.len(),
        cfg.offered_rps.len(),
        cfg.clients,
        cfg.measure.as_nanos() / 1_000_000,
    );
    let mut results = Vec::new();
    for cfg in [cfg.clone(), cfg.fastpath()] {
        let result = run_sweep(&cfg);
        println!("--- {}", cfg.variant);
        print!("{}", result.to_markdown());
        for s in &result.sweeps {
            println!("  {} capacity knee: {} rps", s.transport.name(), s.knee_rps());
        }
        results.push(result);
    }
    // knee movement summary: the fast path must not regress a knee
    for (b, f) in results[0].sweeps.iter().zip(&results[1].sweeps) {
        println!(
            "  {}: knee {} -> {} rps ({})",
            b.transport.name(),
            b.knee_rps(),
            f.knee_rps(),
            if f.knee_rps() > b.knee_rps() {
                "up"
            } else if f.knee_rps() == b.knee_rps() {
                "flat"
            } else {
                "DOWN"
            }
        );
    }

    nectar_bench::write_artifact("BENCH_load.json", &variants_json(&results));
}
