//! Discrete-event simulation kernel for the Nectar reproduction.
//!
//! The original Nectar system (SIGCOMM 1990) was measured on real hardware:
//! 16.5 MHz SPARC communication processors, VME backplanes, 100 Mbit/s
//! fiber links and crossbar HUBs. This crate provides the deterministic
//! discrete-event substrate on which the rest of the workspace rebuilds
//! that system: a nanosecond virtual clock, an event queue with total
//! ordering, deterministic random numbers, and the statistics and tracing
//! infrastructure used by the benchmark harness to regenerate the paper's
//! tables and figures.
//!
//! The kernel is intentionally small and synchronous (no async runtime,
//! no threads): determinism is a hard requirement because the benchmark
//! harness compares simulated latencies down to the microsecond, and
//! property tests replay scenarios from seeds.

pub mod check;
pub mod cpu;
pub mod deadlines;
pub mod json;
pub mod metrics;
pub mod par;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use cpu::{Burst, Cpu, StepStatus};
pub use deadlines::Deadlines;
pub use metrics::MetricsSnapshot;
pub use par::par_map;
pub use queue::{EventCall, EventFn, SchedStats, Scheduler, TimerId};
pub use rng::Pcg32;
pub use stats::{BucketHist, Histogram, RateMeter};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
