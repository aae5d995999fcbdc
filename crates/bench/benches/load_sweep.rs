//! Capacity sweep: multi-client offered-load steps per transport with
//! coordinated-omission-correct SLO reporting (the nectar-load engine).
//!
//!     cargo bench -p nectar-bench --bench load_sweep [-- --quick]
//!
//! Each transport is driven by an open-loop Poisson client fleet at
//! increasing aggregate request rates; every point reports goodput and
//! p50/p90/p99/p99.9 latency measured from each request's *intended*
//! start time, and the sweep locates the capacity knee (the last step
//! that served requests with its CO-corrected p99 inside the SLO —
//! `nectar_load::sweep::knee`). Results land in `BENCH_load.json` (in
//! `$NECTAR_BENCH_DIR` when set, else the workspace root) plus a
//! markdown table on stdout. `--quick` (or `NECTAR_LOAD_QUICK=1`) runs
//! the two-transport CI smoke configuration.
//!
//! Determinism contract: the JSON is integer-valued and schedule-
//! derived only, so two runs with the same seed produce byte-identical
//! files — CI double-runs the quick sweep and diffs the bytes.

use nectar_load::sweep::{run_sweep, variants_json, SweepConfig, SweepResult};

const SEED: u64 = 0x10ad_5eed;

/// What the artifact claims, checked before it is written: every
/// transport of both variants served requests and has a knee, and the
/// fast path never moves a knee down.
fn check(base: &SweepResult, fast: &SweepResult) {
    assert_eq!((base.variant, fast.variant), ("baseline", "fastpath"));
    for r in [base, fast] {
        assert!(!r.sweeps.is_empty(), "{}: no transports", r.variant);
        for s in &r.sweeps {
            let name = s.transport.name();
            assert!(
                s.points.iter().any(|p| p.responses > 0),
                "{}/{name}: served nothing",
                r.variant
            );
            assert!(s.knee_rps() > 0, "{}/{name}: no capacity knee", r.variant);
        }
    }
    for (b, f) in base.sweeps.iter().zip(&fast.sweeps) {
        assert!(
            f.knee_rps() >= b.knee_rps(),
            "{}: fastpath knee regressed ({} < {})",
            b.transport.name(),
            f.knee_rps(),
            b.knee_rps()
        );
    }
}

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
    for (b, f) in results[0].sweeps.iter().zip(&results[1].sweeps) {
        println!("  {}: knee {} -> {} rps", b.transport.name(), b.knee_rps(), f.knee_rps());
    }

    check(&results[0], &results[1]);
    nectar_bench::write_artifact("BENCH_load.json", &variants_json(&results));
}
