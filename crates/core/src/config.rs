//! Whole-system configuration: one struct gathering every tunable of
//! the reproduction, with paper-calibrated defaults.

use nectar_cab::{CostModel, LinkModel};
use nectar_host::HostCostModel;
use nectar_hub::HubConfig;
use nectar_sim::SimDuration;
use nectar_stack::rmp::RmpConfig;
use nectar_stack::tcp::TcpConfig;

/// Fault injection on fibers (applied where a frame enters the
/// network, per transmitting CAB).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Probability a frame is silently lost.
    pub loss: f64,
    /// Probability a frame has one bit flipped (the hardware CRC must
    /// catch it).
    pub corrupt: f64,
}

/// Configuration for building a [`crate::world::World`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub cab_costs: CostModel,
    pub link: LinkModel,
    pub hub: HubConfig,
    pub host_costs: HostCostModel,
    pub tcp: TcpConfig,
    /// RMP retransmission tuning for every CAB; `max_fragment` is
    /// always the datalink limit, [`nectar_cab::proto::MTU`]. The
    /// default keeps the paper's constant 5 ms timeout; chaos scenarios
    /// raise `rto_max`/`max_retries` so stop-and-wait channels can ride
    /// out scheduled link outages.
    pub rmp: RmpConfig,
    pub faults: FaultPlan,
    /// Ablation A1 (§3.1's planned experiment): process IP input in a
    /// high-priority thread instead of at interrupt level.
    pub ip_in_thread: bool,
    /// Batched host I/O (DESIGN.md §14). Doorbell interrupts coalesce:
    /// while one is in flight toward a node (scheduled but not yet
    /// delivered), a second ring within that window is dropped instead
    /// of scheduled — safe because both interrupt handlers drain their
    /// *entire* signal queue per interrupt, so one delivery observes
    /// everything the suppressed ones would have. Frame interrupts
    /// coalesce the same way on the fiber side, and CAB system threads
    /// dequeue up to 16 mailbox entries per scheduling burst instead of
    /// the paper's 4, amortizing context switches under load at the
    /// cost of per-thread latency fairness. Off by default: the legacy
    /// schedule takes (and pays for) every interrupt, which the pinned
    /// fixtures record.
    pub batched_io: bool,
    /// Master seed: ISNs, fault injection, workloads.
    pub seed: u64,
    /// Force the conformance oracle (`nectar_stack::conform`) on or
    /// off for sockets created by this world. `None` keeps the
    /// process-wide default: on in debug builds, off in release.
    /// `Some` sets that process-wide switch (`conform::set_enabled`) in
    /// `World::new`, so it reaches every world built afterwards on any
    /// thread: worlds built concurrently, such as tests in one binary,
    /// must agree on it.
    pub oracle: Option<bool>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cab_costs: CostModel::default(),
            link: LinkModel::default(),
            hub: HubConfig::default(),
            host_costs: HostCostModel::default(),
            tcp: TcpConfig::default(),
            rmp: RmpConfig::default(),
            faults: FaultPlan::default(),
            ip_in_thread: false,
            batched_io: false,
            seed: 0x5eca_1ab1,
            oracle: None,
        }
    }
}

impl Config {
    /// The modern transport fast path (DESIGN.md §14) over the
    /// paper-calibrated defaults: windowed RMP, TCP SACK + window
    /// scaling, and batched host I/O.
    ///
    /// The RTO floor is also raised to 250 ms (RFC 6298's suggested
    /// granularity): the default 10 ms LAN floor sits *inside* the
    /// peer's delayed-ack window, so every echo reply whose ack rides
    /// on the client's next request (~1/rate later) spuriously
    /// retransmits under load. A floor above the 200 ms delack timeout
    /// eliminates those retransmits without extra ack traffic.
    pub fn modern() -> Config {
        let mut c = Config::default();
        c.rmp.window = 8;
        c.tcp.sack = true;
        c.tcp.wscale = Some(2);
        c.tcp.rto_min = SimDuration::from_millis(250);
        c.batched_io = true;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let c = Config::default();
        assert_eq!(c.link.fiber_bits_per_sec, 100_000_000);
        assert_eq!(c.hub.setup_latency, SimDuration::from_nanos(700));
        assert_eq!(c.cab_costs.ctx_switch, SimDuration::from_micros(20));
        assert_eq!(c.faults.loss, 0.0);
    }

    #[test]
    fn fastpath_flips_exactly_the_transport_knobs() {
        let fast = Config::modern();
        assert_eq!(fast.rmp.window, 8);
        assert!(fast.tcp.sack);
        assert_eq!(fast.tcp.wscale, Some(2));
        assert_eq!(fast.tcp.rto_min, SimDuration::from_millis(250));
        assert!(fast.batched_io);
    }
}
