//! Figure 8: host-to-host throughput vs message size, plus the two
//! §5.1/§6.3 comparison points.
//!
//! Paper anchors: both protocols flatten against the ~30 Mbit/s VME
//! bus; TCP/IP tops out ≈24 Mbit/s, RMP ≈28 Mbit/s. As a simple
//! network device (host-resident TCP/IP) the same hardware manages
//! only 6.4 Mbit/s, and the hosts' own 10 Mbit/s Ethernet does
//! 7.2 Mbit/s because it bypasses the VME bus.

use nectar::config::Config;
use nectar::netdev::{eth_port, HostStackSink, HostStackStreamer, HostWire, NETDEV_MTU};
use nectar::world::World;
use nectar_bench::{
    host_throughput, print_series, print_size_header, size_sweep, volume_for, StreamProto,
};
use nectar_sim::{SimDuration, SimTime};

fn netdev_mode_throughput() -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let total = 400_000u64;
    let (sink, meter, received, done) =
        HostStackSink::new(1, HostWire::CabRaw { dst_cab: 0 }, 5000, total);
    world.hosts[1].spawn(Box::new(sink));
    let (streamer, _) =
        HostStackStreamer::new(0, HostWire::CabRaw { dst_cab: 1 }, 5000, NETDEV_MTU - 44, total);
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(120), |_| done.get());
    assert!(done.get(), "netdev sink got {}/{total}", received.get());
    let m = meter.borrow().mbits_per_sec_to_last();
    m
}

fn ethernet_throughput() -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let total = 400_000u64;
    let rx1 = eth_port(&mut world, 1);
    let rx0 = eth_port(&mut world, 0);
    let (sink, meter, received, done) = HostStackSink::new(
        1,
        HostWire::Ethernet { dst_host: 0, rx: rx1, bits_per_sec: 10_000_000 },
        5000,
        total,
    );
    world.hosts[1].spawn(Box::new(sink));
    let (streamer, _) = HostStackStreamer::new(
        0,
        HostWire::Ethernet { dst_host: 1, rx: rx0, bits_per_sec: 10_000_000 },
        5000,
        NETDEV_MTU - 44,
        total,
    );
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(120), |_| done.get());
    assert!(done.get(), "ethernet sink got {}/{total}", received.get());
    let m = meter.borrow().mbits_per_sec_to_last();
    m
}

fn main() {
    let sizes = size_sweep();
    println!("Figure 8: host-to-host throughput (Mbit/s) vs message size");
    println!();
    print_size_header(&sizes);
    for (proto, label) in [(StreamProto::Tcp, "TCP/IP"), (StreamProto::Rmp, "RMP")] {
        let vals: Vec<f64> = sizes
            .iter()
            .map(|&s| host_throughput(Config::default(), proto, s, volume_for(s)))
            .collect();
        print_series(label, &vals);
    }
    println!();
    println!("comparison points (8 KiB-class transfers):");
    let nd = netdev_mode_throughput();
    println!("  CAB as network device (host TCP/IP): {nd:>5.1} Mbit/s   (paper: 6.4)");
    let eth = ethernet_throughput();
    println!("  on-board 10 Mbit/s Ethernet:         {eth:>5.1} Mbit/s   (paper: 7.2)");
    println!();
    println!("paper anchors: TCP max ~24, RMP ~28, both VME-limited (~30 Mbit/s)");
}
