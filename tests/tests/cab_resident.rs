//! CAB-resident workloads: application threads running on the
//! communication processors themselves (§5.3), covering Table 1's
//! CAB↔CAB column and the Figure 7 streaming setups.

use nectar::config::Config;
use nectar::scenario::{
    CabEcho, CabPinger, CabRmpStreamer, CabSink, CabTcpListener, CabTcpStreamer, Transport,
};
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

fn cab_ping(transport: Transport, size: usize, count: u32) -> (f64, bool) {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(transport, svc, 7)));
    let server = (1u16, transport.addr(svc, 7));
    let (ping, rtts, done) = CabPinger::new(transport, server, reply, 9000, size, count);
    world.cabs[0].fork_app(Box::new(ping));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(30), |_| done.get());
    let median = rtts.borrow_mut().median().as_micros_f64();
    (median, done.get())
}

#[test]
fn cab_to_cab_datagram_latency() {
    let (median, done) = cab_ping(Transport::Datagram, 32, 20);
    assert!(done);
    println!("cab-cab datagram RTT = {median:.1} us");
    // Table 1 anchor: 179 us CAB-CAB (reconstructed); must be well
    // under the host-host 325 us
    assert!((100.0..260.0).contains(&median), "median={median}");
}

#[test]
fn cab_to_cab_rmp_latency() {
    let (median, done) = cab_ping(Transport::Rmp, 32, 20);
    assert!(done);
    println!("cab-cab rmp RTT = {median:.1} us");
    assert!(median < 300.0, "median={median}");
}

#[test]
fn cab_to_cab_reqresp_latency() {
    let (median, done) = cab_ping(Transport::ReqResp, 32, 20);
    assert!(done);
    println!("cab-cab rr RTT = {median:.1} us");
    assert!(median < 350.0, "median={median}");
}

#[test]
fn cab_to_cab_udp_latency() {
    let (median, done) = cab_ping(Transport::Udp, 32, 20);
    assert!(done);
    println!("cab-cab udp RTT = {median:.1} us");
    assert!(median < 600.0, "median={median}");
}

/// Each UDP pinger binds the reply port it was given. With one port
/// for all of them, the second bind on a CAB takes over the first
/// pinger's replies and the first never finishes.
#[test]
fn two_udp_pingers_on_one_cab_both_finish() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(Transport::Udp, svc, 7)));
    let mut dones = Vec::new();
    for port in [9000, 9001] {
        let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let (ping, _, done) = CabPinger::new(Transport::Udp, (1, 7), reply, port, 32, 10);
        world.cabs[0].fork_app(Box::new(ping));
        dones.push(done);
    }
    let deadline = SimTime::ZERO + SimDuration::from_secs(5);
    world.run_until_done(&mut sim, deadline, |_| dones.iter().all(|d| d.get()));
    assert!(dones.iter().all(|d| d.get()), "a pinger lost its replies");
}

#[test]
fn cab_to_cab_rmp_throughput_approaches_fiber_rate() {
    // Figure 7 anchor: RMP at 8 KiB reaches ≈90 of 100 Mbit/s.
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total = 4_000_000u64; // 4 MB
    let (sink, meter, received, done) = CabSink::new(sink_mbox, total);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 8192, total);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(10), |_| done.get());
    assert!(done.get(), "sink got {} of {total}", received.get());
    let mbps = meter.borrow().mbits_per_sec_to_last();
    println!("cab-cab RMP 8KiB throughput = {mbps:.1} Mbit/s");
    assert!((80.0..98.0).contains(&mbps), "mbps={mbps}");
}

#[test]
fn cab_to_cab_rmp_small_messages_overhead_dominates() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total = 64_000u64;
    let (sink, meter, _, done) = CabSink::new(sink_mbox, total);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 64, total);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(30), |_| done.get());
    assert!(done.get());
    let mbps = meter.borrow().mbits_per_sec_to_last();
    println!("cab-cab RMP 64B throughput = {mbps:.2} Mbit/s");
    // per-packet overhead dominates: way below fiber rate
    assert!(mbps < 20.0, "mbps={mbps}");
}

#[test]
fn cab_to_cab_tcp_throughput() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total = 2_000_000u64;
    world.cabs[1].fork_app(Box::new(CabTcpListener::new(5000, accept, data)));
    let (sink, meter, received, done) = CabSink::new(data, total);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabTcpStreamer::new(1, 5000, 8192, total);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(20), |_| done.get());
    assert!(done.get(), "sink got {} of {total}", received.get());
    let mbps = meter.borrow().mbits_per_sec_to_last();
    println!("cab-cab TCP 8KiB-chunk throughput = {mbps:.1} Mbit/s");
    // Figure 7: TCP well below RMP because of the software checksum,
    // but still tens of Mbit/s
    assert!((25.0..80.0).contains(&mbps), "mbps={mbps}");
}

#[test]
fn cab_to_cab_tcp_without_checksum_approaches_rmp() {
    let mut config = Config::default();
    config.tcp.compute_checksum = false;
    let (mut world, mut sim) = World::single_hub(config, 2);
    let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total = 2_000_000u64;
    world.cabs[1].fork_app(Box::new(CabTcpListener::new(5000, accept, data)));
    let (sink, meter, _, done) = CabSink::new(data, total);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabTcpStreamer::new(1, 5000, 8192, total);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(20), |_| done.get());
    assert!(done.get());
    let mbps = meter.borrow().mbits_per_sec_to_last();
    println!("cab-cab TCP-no-cksum throughput = {mbps:.1} Mbit/s");
    assert!(mbps > 55.0, "mbps={mbps}");
}
