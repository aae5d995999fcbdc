//! `nectar-benchmark`: the Nectar simulator's two-clock benchmark.
//!
//! ```text
//! nectar-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! nectar-benchmark suite [--seed N] [--seconds S] [--quick] [--out FILE]
//! nectar-benchmark compare A.json B.json
//! nectar-benchmark spec
//! ```
//!
//! See README.md next to this package.

pub mod compare;
pub mod json;
pub mod layers;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

/// Dispatch one command line (without the program name).
pub fn cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(())
        }
        Some("compare") => compare::main(&args[1..]),
        Some("suite") => suite::main(&args[1..]),
        None => suite::main(&[]),
        Some(_) => run::main(args),
    }
}
