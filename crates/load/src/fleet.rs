//! Fleet deployment: pick a topology, install one echo service per
//! transport, and place clients across the remaining CABs.
//!
//! Setup order is fixed — servers first (one CAB each, in mix order),
//! then clients in ascending global index, each with an RNG stream
//! forked from the plan seed in that same order — so two fleets built
//! from the same plan evolve bit-identically.

use nectar::scenario::{CabEcho, CabTcpEchoServer};
use nectar::world::{SharedLoadLedger, World};
use nectar::{ClosSpec, Topology};
use nectar_cab::HostOpMode;
use nectar_sim::{Pcg32, SimDuration, SimTime};

use crate::client::{ClientSpec, LoadClient};
use crate::recorder::{LoadRecorder, SharedRecorder};
use crate::workload::{Arrival, SizeDist};
use crate::LoadTransport;

/// Well-known ports for the fleet's echo services.
pub const UDP_LOAD_PORT: u16 = 7;
pub const TCP_LOAD_PORT: u16 = 5000;
/// Each UDP client binds `UDP_CLIENT_PORT_BASE + global index`.
pub const UDP_CLIENT_PORT_BASE: u16 = 9000;

/// A declarative fleet: how many clients per transport, how they
/// arrive, and how long they run.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    pub seed: u64,
    /// `(transport, endpoint count)` — one echo-service CAB per entry.
    pub mix: Vec<(LoadTransport, usize)>,
    /// Client threads packed onto each client CAB.
    pub clients_per_cab: usize,
    /// Lightweight endpoints multiplexed onto each client thread.
    /// TCP endpoints are whole connections and never multiplex — a TCP
    /// mix entry always gets one endpoint per thread. Use 1 for the
    /// classic one-thread-per-client fleet.
    pub endpoints_per_client: usize,
    pub arrival: Arrival,
    pub size: SizeDist,
    pub timeout: SimDuration,
    pub start: SimTime,
    pub stop: SimTime,
}

impl FleetPlan {
    /// Total endpoints — the unit of offered load.
    pub fn total_clients(&self) -> usize {
        self.mix.iter().map(|(_, n)| n).sum()
    }

    fn epc(&self) -> usize {
        self.endpoints_per_client.max(1)
    }

    /// Client threads the plan forks (endpoints grouped per thread).
    pub fn client_threads(&self) -> usize {
        self.mix
            .iter()
            .map(|(t, n)| if *t == LoadTransport::Tcp { *n } else { n.div_ceil(self.epc()) })
            .sum()
    }

    /// CABs the plan needs: one per mix entry (echo service) plus the
    /// client CABs.
    pub fn cabs(&self) -> usize {
        self.mix.len() + self.client_threads().div_ceil(self.clients_per_cab.max(1))
    }

    /// The topology this plan should run on.
    pub fn topology(&self) -> Topology {
        fleet_topology(self.cabs())
    }
}

/// Smallest standard topology fitting `cabs` boards: one HUB up to its
/// port budget, two bridged HUBs past that, then a folded-Clos fabric
/// of 16×16 HUBs sized by [`ClosSpec::for_cabs`].
pub fn fleet_topology(cabs: usize) -> Topology {
    if cabs <= 16 {
        Topology::single_hub(cabs)
    } else if cabs <= 30 {
        Topology::two_hubs(cabs)
    } else {
        Topology::folded_clos(&ClosSpec::for_cabs(cabs))
    }
}

/// Handles shared by a deployed fleet.
pub struct Fleet {
    pub recorder: SharedRecorder,
    pub ledger: SharedLoadLedger,
    pub total_clients: usize,
    /// `(transport, (cab, mailbox-or-port))` per echo service.
    pub servers: Vec<(LoadTransport, (u16, u16))>,
}

/// Deploy the plan onto a world built over (at least) `plan.cabs()`
/// boards: echo services on CABs `0..mix.len()`, clients packed onto
/// the CABs after them.
pub fn deploy_fleet(world: &mut World, plan: &FleetPlan) -> Fleet {
    assert!(
        world.topo.cabs() >= plan.cabs(),
        "fleet needs {} CABs, topology has {}",
        plan.cabs(),
        world.topo.cabs()
    );
    let recorder = LoadRecorder::shared();
    let ledger = world.attach_load_ledger();

    let mut servers = Vec::with_capacity(plan.mix.len());
    for (si, (t, _)) in plan.mix.iter().enumerate() {
        let s = si as u16;
        let cab = &mut world.cabs[si];
        let addr = match t.message() {
            Some(transport) => {
                let mbox = cab.shared.create_mailbox(false, HostOpMode::SharedMemory);
                cab.fork_app(Box::new(CabEcho::new(transport, mbox, UDP_LOAD_PORT)));
                (s, transport.addr(mbox, UDP_LOAD_PORT))
            }
            None => {
                let tc = cab.proto.tcp_cond;
                let accept = cab.shared.create_mailbox_on(false, HostOpMode::SharedMemory, tc);
                cab.fork_app(Box::new(CabTcpEchoServer::new(TCP_LOAD_PORT, accept)));
                (s, TCP_LOAD_PORT)
            }
        };
        servers.push((*t, addr));
    }

    let n_servers = plan.mix.len();
    let mut master = Pcg32::seeded(plan.seed ^ 0x10ad);
    let mut thread = 0usize; // global client-thread index (CAB packing)
    let mut ep = 0usize; // global endpoint index (RNG forking)
    for (mi, (t, count)) in plan.mix.iter().enumerate() {
        let server = servers[mi].1;
        let epc = if *t == LoadTransport::Tcp { 1 } else { plan.epc() };
        let mut left = *count;
        while left > 0 {
            let n = left.min(epc);
            // fork by global endpoint index: an endpoint's stream does
            // not depend on how endpoints are grouped into threads
            let rngs: Vec<Pcg32> = (0..n).map(|k| master.fork((ep + k) as u64)).collect();
            let cab = n_servers + thread / plan.clients_per_cab.max(1);
            let spec = ClientSpec {
                transport: *t,
                server,
                arrival: plan.arrival,
                size: plan.size,
                timeout: plan.timeout,
                start: plan.start,
                stop: plan.stop,
                udp_port: UDP_CLIENT_PORT_BASE + thread as u16,
                rngs,
            };
            world.cabs[cab].fork_app(Box::new(LoadClient::new(
                spec,
                recorder.clone(),
                ledger.clone(),
            )));
            ep += n;
            thread += 1;
            left -= n;
        }
    }

    Fleet { recorder, ledger, total_clients: ep, servers }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(mix: Vec<(LoadTransport, usize)>) -> FleetPlan {
        FleetPlan {
            seed: 1,
            mix,
            clients_per_cab: 12,
            endpoints_per_client: 1,
            arrival: Arrival::Open { mean_gap: SimDuration::from_micros(500) },
            size: SizeDist::Fixed(64),
            timeout: SimDuration::from_millis(50),
            start: SimTime::ZERO,
            stop: SimTime::ZERO + SimDuration::from_millis(10),
        }
    }

    #[test]
    fn plan_counts_cabs_for_servers_and_clients() {
        let p = plan(vec![(LoadTransport::ReqResp, 24), (LoadTransport::Udp, 13)]);
        assert_eq!(p.total_clients(), 37);
        // 2 servers + ceil(37/12)=4 client CABs
        assert_eq!(p.cabs(), 6);
        assert_eq!(p.topology().cabs(), 6);
    }

    #[test]
    fn topology_scales_with_fleet_size() {
        assert_eq!(fleet_topology(8).hubs, 1);
        assert_eq!(fleet_topology(16).hubs, 1);
        assert_eq!(fleet_topology(25).hubs, 2);
        let big = fleet_topology(40);
        assert!(big.hubs >= 3);
        assert!(big.cabs() >= 40);
        // past the two-HUB budget the fleet rides a folded Clos, and
        // it keeps scaling to the multi-pod sizes the scale bench uses
        assert!(big.stages() >= 2, "40-CAB fleet should be leaf-spine");
        let huge = fleet_topology(400);
        assert!(huge.stages() == 3, "400-CAB fleet should cross pods via cores");
        assert!(huge.cabs() >= 400);
    }

    #[test]
    fn endpoint_multiplexing_shrinks_the_thread_count() {
        let mut p = plan(vec![(LoadTransport::ReqResp, 120), (LoadTransport::Tcp, 5)]);
        p.endpoints_per_client = 30;
        // 120 reqresp endpoints ride ceil(120/30)=4 threads; TCP never
        // multiplexes, so its 5 endpoints are 5 threads
        assert_eq!(p.total_clients(), 125);
        assert_eq!(p.client_threads(), 9);
        // 2 servers + ceil(9/12) = 1 client CAB
        assert_eq!(p.cabs(), 3);
    }
}
