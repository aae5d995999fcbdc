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
    /// RMP retransmission tuning for every CAB. `max_fragment` is
    /// ignored — the fragment limit is always derived from [`Config::mtu`].
    /// The default keeps the paper's constant 5 ms timeout; chaos
    /// scenarios raise `rto_max`/`max_retries` so stop-and-wait channels
    /// can ride out scheduled link outages.
    pub rmp: RmpConfig,
    /// Datalink payload limit for IP packets and RMP fragments. The
    /// default admits an 8 KiB message in one packet, matching the
    /// paper's Figure 7/8 sweeps up to 8192 bytes.
    pub mtu: usize,
    /// Latency of the VME interrupt line (doorbell) in each direction.
    pub doorbell_latency: SimDuration,
    pub faults: FaultPlan,
    /// Ablation A1 (§3.1's planned experiment): process IP input in a
    /// high-priority thread instead of at interrupt level.
    pub ip_in_thread: bool,
    /// Batched host I/O, part 1: coalesce doorbell interrupts. When a
    /// doorbell is already in flight toward a node (scheduled but not
    /// yet delivered), a second ring within that window is dropped
    /// instead of scheduled — safe because both interrupt handlers
    /// drain their *entire* signal queue per interrupt, so one delivery
    /// observes everything the suppressed ones would have. Off by
    /// default: the legacy schedule takes (and pays for) every
    /// interrupt, which the pinned fixtures record.
    pub doorbell_coalesce: bool,
    /// Batched host I/O, part 2: how many mailbox entries a CAB system
    /// thread dequeues per scheduling burst. The legacy value 4 models
    /// the paper's tight loop; raising it amortizes context switches
    /// under load at the cost of per-thread latency fairness.
    pub mailbox_burst: usize,
    /// Master seed: ISNs, fault injection, workloads.
    pub seed: u64,
    /// Record a stage trace (Figure 6).
    pub trace: bool,
    /// Force the conformance oracle (`nectar_stack::conform`) on or
    /// off for sockets created by this world. `None` keeps the
    /// process-wide default: the `NECTAR_ORACLE` env var if set,
    /// otherwise on in debug builds and off in release. `Some` sets
    /// that process-wide switch (`conform::set_enabled`) in
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
            mtu: 8 * 1024 + 64,
            doorbell_latency: SimDuration::from_micros(1),
            faults: FaultPlan::default(),
            ip_in_thread: false,
            doorbell_coalesce: false,
            mailbox_burst: 4,
            seed: 0x5eca_1ab1,
            trace: false,
            oracle: None,
        }
    }
}

impl Config {
    /// The modern transport fast path (DESIGN.md §14) over the
    /// paper-calibrated defaults: windowed RMP, TCP SACK + window
    /// scaling, and batched host I/O (doorbell/RX interrupt coalescing
    /// + larger mailbox bursts).
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
        c.doorbell_coalesce = true;
        c.mailbox_burst = 16;
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
        assert!(c.mtu > 8192);
        assert_eq!(c.faults.loss, 0.0);
    }

    #[test]
    fn fastpath_flips_exactly_the_transport_knobs() {
        let fast = Config::modern();
        assert_eq!(fast.rmp.window, 8);
        assert!(fast.tcp.sack);
        assert_eq!(fast.tcp.wscale, Some(2));
        assert_eq!(fast.tcp.rto_min, SimDuration::from_millis(250));
        assert!(fast.doorbell_coalesce);
        assert_eq!(fast.mailbox_burst, 16);
    }
}
