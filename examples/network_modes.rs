//! The three CAB interfaces of §5, side by side on the same workload:
//! a 256 KiB host-to-host transfer.
//!
//! 1. **Network device** (§5.1): host-resident TCP/IP, the CAB only
//!    moves raw packets.
//! 2. **Protocol engine** (§5.2): TCP/IP offloaded to the CAB.
//! 3. **Application-level engine** (§5.3): the Nectar-specific RMP
//!    with application mailboxes, the leanest path.
//!
//!     cargo run -p nectar-examples --bin network_modes

use nectar::cab::reqs::TcpCtl;
use nectar::cab::HostOpMode;
use nectar::config::Config;
use nectar::netdev::{HostStackSink, HostStackStreamer, HostWire, NETDEV_MTU};
use nectar::scenario::{HostRmpStreamer, HostSink, HostTcpStreamer};
use nectar::sim::{SimDuration, SimTime};
use nectar::world::World;

const TOTAL: u64 = 256 * 1024;

fn network_device_mode() -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let (sink, meter, _, done) =
        HostStackSink::new(1, HostWire::CabRaw { dst_cab: 0 }, 5000, TOTAL);
    world.hosts[1].spawn(Box::new(sink));
    let (streamer, _) =
        HostStackStreamer::new(0, HostWire::CabRaw { dst_cab: 1 }, 5000, NETDEV_MTU - 44, TOTAL);
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(120), |_| done.get());
    assert!(done.get());
    let v = meter.borrow().mbits_per_sec_to_last();
    v
}

fn protocol_engine_mode() -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let accept = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let listen = TcpCtl::Listen { port: 5000, accept_mbox: accept }.encode();
    let msg = world.cabs[1].shared.begin_put(nectar::cab::reqs::MB_TCP_CTL, listen.len()).unwrap();
    world.cabs[1].shared.msg_write(&msg, 0, &listen);
    world.cabs[1].shared.end_put(nectar::cab::reqs::MB_TCP_CTL, msg);
    let (sink, meter, _, done) = HostSink::new(data, Some(accept), TOTAL);
    world.hosts[1].spawn(Box::new(sink));
    let src = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (streamer, _) = HostTcpStreamer::new(1, 5000, src, 8192, TOTAL);
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(120), |_| done.get());
    assert!(done.get());
    let v = meter.borrow().mbits_per_sec_to_last();
    v
}

fn application_engine_mode() -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let sink_mbox = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (sink, meter, _, done) = HostSink::new(sink_mbox, None, TOTAL);
    world.hosts[1].spawn(Box::new(sink));
    let (streamer, _) = HostRmpStreamer::new((1, sink_mbox), src_mbox, 8192, TOTAL);
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(120), |_| done.get());
    assert!(done.get());
    let v = meter.borrow().mbits_per_sec_to_last();
    v
}

fn main() {
    println!("the three CAB interfaces of §5, one 256 KiB host-to-host transfer each");
    println!();
    let nd = network_device_mode();
    println!("  1. network device   (host TCP/IP)   : {nd:>6.1} Mbit/s");
    let pe = protocol_engine_mode();
    println!("  2. protocol engine  (CAB TCP/IP)    : {pe:>6.1} Mbit/s");
    let ae = application_engine_mode();
    println!("  3. application mode (RMP+mailboxes) : {ae:>6.1} Mbit/s");
    println!();
    println!("offloading the protocol to the CAB buys {:.1}x over the", pe / nd);
    println!("network-device path — the paper's §6.3 argument (6.4 vs 24 Mbit/s).");
    assert!(pe > nd * 1.5);
}
