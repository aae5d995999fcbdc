//! Full-system integration tests: every transport end-to-end between
//! two hosts through their CABs and a HUB.

use nectar::config::Config;
use nectar::fault::{FaultScript, LinkId, LinkPlan, NodeRef};
use nectar::scenario::{
    CabRmpStreamer, CabSink, CabTcpListener, CabTcpStreamer, EchoServer, Pinger, Transport,
};
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

fn ping_pong(transport: Transport, size: usize, count: u32, block: bool) -> (f64, bool) {
    let config = Config::default();
    let (mut world, mut sim) = World::single_hub(config, 2);
    let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let port = 7000u16;
    let server = match transport {
        Transport::Udp => (1u16, port),
        _ => (1u16, svc),
    };
    let (echo, _) = EchoServer::new(transport, svc, port, block);
    world.hosts[1].spawn(Box::new(echo));
    let (ping, rtts, done) = Pinger::new(transport, server, reply, 7001, size, count, block);
    world.hosts[0].spawn(Box::new(ping));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(30), |_| done.get());
    let median = rtts.borrow_mut().median().as_micros_f64();
    (median, done.get())
}

#[test]
fn datagram_ping_pong_completes() {
    let (median, done) = ping_pong(Transport::Datagram, 32, 20, false);
    assert!(done, "pinger did not finish");
    println!("datagram RTT median = {median:.1} us");
    // Table 1 anchor: 325 us host-to-host round trip (±40 % band for
    // the simulation)
    assert!((200.0..500.0).contains(&median), "median={median}");
}

#[test]
fn rmp_ping_pong_completes() {
    let (median, done) = ping_pong(Transport::Rmp, 32, 20, false);
    assert!(done);
    println!("rmp RTT median = {median:.1} us");
    assert!((200.0..800.0).contains(&median), "median={median}");
}

#[test]
fn reqresp_ping_pong_completes() {
    let (median, done) = ping_pong(Transport::ReqResp, 32, 20, false);
    assert!(done);
    println!("rr RTT median = {median:.1} us");
    // abstract: RPC < 500 us
    assert!(median < 500.0, "median={median}");
}

#[test]
fn udp_ping_pong_completes() {
    let (median, done) = ping_pong(Transport::Udp, 32, 20, false);
    assert!(done);
    println!("udp RTT median = {median:.1} us");
    assert!((300.0..1200.0).contains(&median), "median={median}");
}

#[test]
fn blocking_wait_also_works_and_is_slower() {
    let (poll_median, d1) = ping_pong(Transport::Datagram, 32, 10, false);
    let (block_median, d2) = ping_pong(Transport::Datagram, 32, 10, true);
    assert!(d1 && d2);
    println!("poll={poll_median:.1} us block={block_median:.1} us");
    assert!(
        block_median > poll_median,
        "blocking path must pay syscall+interrupt costs: poll={poll_median} block={block_median}"
    );
}

/// A 50 ms dark-fiber window on the sender's uplink, opening just
/// after the transfer starts.
fn outage_script() -> FaultScript {
    let from = SimTime::ZERO + SimDuration::from_micros(100);
    let until = from + SimDuration::from_millis(50);
    FaultScript {
        links: vec![(
            LinkId::new(NodeRef::Cab(0), NodeRef::Hub(0)),
            LinkPlan { down: vec![(from, until)], ..LinkPlan::default() },
        )],
        outages: Vec::new(),
    }
}

#[test]
fn rmp_stream_survives_a_50ms_link_outage() {
    // The paper's constant 5 ms timeout with 10 retries would give up
    // inside the window — the chaos-tuned backoff must outlive it.
    let mut config = Config::default();
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;
    let (mut world, mut sim) = World::single_hub(config, 2);
    world.install_fault_script(&mut sim, &outage_script());

    let total_bytes = 64 * 1024u64;
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (sink, _, received, done) = CabSink::new(sink_mbox, total_bytes);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 1024, total_bytes);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(30), |_| done.get());

    assert!(done.get(), "RMP delivered only {} of {total_bytes}", received.get());
    assert_eq!(received.get(), total_bytes);
    let snap = world.metrics();
    assert!(snap.get("net/fault/frames_down_dropped").unwrap() > 0, "outage never bit");
    assert!(
        snap.get("net/link/cab0-hub0/frames_down_dropped").unwrap() > 0,
        "per-link ledger missed the outage"
    );
    assert!(
        snap.get("node/0/rmp/retransmits").unwrap() > 0,
        "recovery must come from RMP retransmission"
    );
}

#[test]
fn tcp_stream_survives_a_50ms_link_outage() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    world.install_fault_script(&mut sim, &outage_script());

    let total_bytes = 64 * 1024u64;
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (sink, _, received, done) = CabSink::new(sink_mbox, total_bytes);
    world.cabs[1].fork_app(Box::new(CabTcpListener::new(5000, accept, sink_mbox)));
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabTcpStreamer::new(1, 5000, 1024, total_bytes);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(30), |_| done.get());

    assert!(done.get(), "TCP delivered only {} of {total_bytes}", received.get());
    assert_eq!(received.get(), total_bytes);
    let snap = world.metrics();
    assert!(snap.get("net/fault/frames_down_dropped").unwrap() > 0, "outage never bit");
    assert!(
        snap.get("node/0/tcp/retransmits").unwrap() > 0,
        "recovery must come from TCP retransmission"
    );
}

#[test]
fn larger_messages_cost_more_vme_time() {
    let (small, _) = ping_pong(Transport::Datagram, 32, 10, false);
    let (large, _) = ping_pong(Transport::Datagram, 1024, 10, false);
    println!("32B={small:.1}us 1KiB={large:.1}us");
    // 2 x (1024-32)/4 words x 1 us ≈ 500 us extra per direction
    assert!(large > small + 400.0, "small={small} large={large}");
}
