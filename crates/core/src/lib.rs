//! # Nectar
//!
//! A full reproduction of *Protocol Implementation on the Nectar
//! Communication Processor* (Cooper, Steenkiste, Sansom, Zill —
//! SIGCOMM 1990) as a deterministic discrete-event simulation.
//!
//! The original Nectar was a 100 Mbit/s fiber LAN whose hosts attached
//! through programmable communication processors (CABs). This crate
//! assembles the reproduction's substrates — the HUB crossbar network
//! (`nectar-hub`), the CAB board and runtime system (`nectar-cab`),
//! the protocol engines (`nectar-stack`), and the host/VME model
//! (`nectar-host`) — into a runnable [`world::World`], and provides
//! the scenario building blocks behind the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use nectar::config::Config;
//! use nectar::scenario::{EchoServer, Pinger, Transport};
//! use nectar::world::World;
//! use nectar_cab::reqs::FIRST_USER_MBOX;
//! use nectar_cab::HostOpMode;
//! use nectar_sim::{SimDuration, SimTime};
//!
//! // two hosts on one HUB
//! let (mut world, mut sim) = World::single_hub(Config::default(), 2);
//!
//! // an echo service mailbox on CAB 1, a reply mailbox on CAB 0
//! let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
//! let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
//! assert_eq!(svc, FIRST_USER_MBOX);
//!
//! let (echo, _) = EchoServer::new(Transport::Datagram, svc, 0, false);
//! world.hosts[1].spawn(Box::new(echo));
//! let (ping, rtts, done) =
//!     Pinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 10, false);
//! world.hosts[0].spawn(Box::new(ping));
//!
//! // the echo server polls its mailbox forever, so stop when the pinger
//! // is done; the second is only a guard against a hang
//! let guard = SimTime::ZERO + SimDuration::from_secs(1);
//! assert!(world.run_until_done(&mut sim, guard, |_| done.get()));
//! let median = rtts.borrow_mut().median();
//! assert!(median.as_micros() > 100 && median.as_micros() < 1000);
//! ```

pub mod collective;
pub mod config;
pub mod fault;
pub mod netdev;
pub mod scenario;
pub mod topology;
pub mod world;

pub use collective::{CollectiveGroup, TreeShape};
pub use config::{Config, FaultPlan};
pub use fault::{
    FaultEngine, FaultScript, GilbertElliott, LinkId, LinkPlan, NodeOutage, NodeRef, Verdict,
};
pub use topology::{Attachment, ClosSpec, Topology};
pub use world::{LoadLedger, NetStats, SharedLoadLedger, Sim, World};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use nectar_cab as cab;
pub use nectar_host as host;
pub use nectar_hub as hub;
pub use nectar_sim as sim;
pub use nectar_stack as stack;
pub use nectar_wire as wire;
