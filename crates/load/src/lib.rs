//! `nectar-load` — the deterministic multi-client workload engine.
//!
//! The paper's evaluation (§6) is single-pair microbenchmarks, but its
//! central claim is that the CAB is a *shared* protocol engine. This
//! crate drives fleets of hundreds to thousands of simulated clients
//! across multi-HUB topologies against the CAB-resident protocols and
//! reports service-level objectives the way a capacity planner would:
//!
//! * [`workload`] — open-loop (Poisson) and closed-loop (think time)
//!   arrival models with per-request payload-size distributions, all
//!   drawn from the deterministic sim RNG: same seed ⇒ bit-identical
//!   schedules.
//! * [`recorder`] — a coordinated-omission-correct latency recorder:
//!   latency is measured from each request's *intended* start, backed
//!   by the bounded-memory `BucketHist` so recording is O(1) space.
//! * [`client`] — the client itself: a CAB thread issuing one
//!   outstanding request at a time over any [`LoadTransport`].
//! * [`fleet`] — deployment: topology selection, echo services, and
//!   client placement across CABs, plus the shared `net/load/*`
//!   ledger wired into `nectar::World` metrics.
//! * [`sweep`] — the capacity-sweep driver: step offered load per
//!   protocol until goodput saturates, locate the knee, and render
//!   `BENCH_load.json` plus a markdown SLO table.

pub mod client;
pub mod fleet;
pub mod recorder;
pub mod sweep;
pub mod workload;

pub use client::{ClientSpec, LoadClient};
pub use fleet::{deploy_fleet, fleet_topology, Fleet, FleetPlan};
pub use recorder::{LoadRecorder, SharedRecorder, TransportRecord};
pub use sweep::{LoadPoint, SweepConfig, SweepResult, TransportSweep};
pub use workload::{Arrival, SizeDist, MIN_PAYLOAD};

/// The transports the load engine can drive. Extends the Table 1 set
/// (`nectar::scenario::Transport`) with TCP, which the paper-fidelity
/// ping-pong scenarios model separately as a byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadTransport {
    Datagram,
    Rmp,
    ReqResp,
    Udp,
    Tcp,
}

impl LoadTransport {
    pub const COUNT: usize = 5;
    pub const ALL: [LoadTransport; LoadTransport::COUNT] = [
        LoadTransport::Datagram,
        LoadTransport::Rmp,
        LoadTransport::ReqResp,
        LoadTransport::Udp,
        LoadTransport::Tcp,
    ];

    pub fn index(self) -> usize {
        match self {
            LoadTransport::Datagram => 0,
            LoadTransport::Rmp => 1,
            LoadTransport::ReqResp => 2,
            LoadTransport::Udp => 3,
            LoadTransport::Tcp => 4,
        }
    }

    /// The Nectarine message transport behind this load transport;
    /// `None` for TCP, which is a connection.
    pub fn message(self) -> Option<nectar::scenario::Transport> {
        use nectar::scenario::Transport;
        match self {
            LoadTransport::Datagram => Some(Transport::Datagram),
            LoadTransport::Rmp => Some(Transport::Rmp),
            LoadTransport::ReqResp => Some(Transport::ReqResp),
            LoadTransport::Udp => Some(Transport::Udp),
            LoadTransport::Tcp => None,
        }
    }

    /// Stable lower-case name used in JSON and markdown output.
    pub fn name(self) -> &'static str {
        match self {
            LoadTransport::Datagram => "datagram",
            LoadTransport::Rmp => "rmp",
            LoadTransport::ReqResp => "reqresp",
            LoadTransport::Udp => "udp",
            LoadTransport::Tcp => "tcp",
        }
    }
}
