//! Whole-system integration tests: deployment scale, fault injection,
//! multi-hop routing, ICMP, determinism.

use nectar::config::{Config, FaultPlan};
use nectar::scenario::{
    two_hub_pair_load, CabEcho, CabPinger, CabRmpStreamer, CabSink, EchoServer, HostSink, Pinger,
    Transport,
};
use nectar::topology::Topology;
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

fn until(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

#[test]
fn production_deployment_26_hosts_2_hubs() {
    // §6: "the prototype system consists of 2 HUBs and 26 hosts in
    // full-time use"
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    // every CAB answers datagram pings; every CAB pings its antipode
    let mut services = Vec::new();
    for i in 0..26 {
        let svc = world.cabs[i].shared.create_mailbox(false, HostOpMode::SharedMemory);
        world.cabs[i].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
        services.push(svc);
    }
    let mut dones = Vec::new();
    for i in 0..26u16 {
        let dst = (i + 13) % 26;
        let reply = world.cabs[i as usize].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let (p, _, done) =
            CabPinger::new(Transport::Datagram, (dst, services[dst as usize]), reply, 0, 32, 5);
        world.cabs[i as usize].fork_app(Box::new(p));
        dones.push((i, done));
    }
    world.run_until_done(&mut sim, until(30), |_| dones.iter().all(|(_, done)| done.get()));
    for (i, done) in &dones {
        assert!(done.get(), "CAB {i} did not complete its pings");
    }
    // traffic crossed the trunk in both directions
    assert!(world.hubs[0].stats().forwarded > 0);
    assert!(world.hubs[1].stats().forwarded > 0);
}

#[test]
fn multi_hop_chain_routing() {
    // four HUBs in a chain: frames consume one route byte per HUB
    let (mut world, mut sim) = World::new(Config::default(), Topology::chain(4, 3));
    let n = world.cabs.len();
    assert_eq!(n, 12);
    let svc = world.cabs[n - 1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[n - 1].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (p, rtts, done) =
        CabPinger::new(Transport::Datagram, ((n - 1) as u16, svc), reply, 0, 32, 10);
    world.cabs[0].fork_app(Box::new(p));
    world.run_until_done(&mut sim, until(10), |_| done.get());
    assert!(done.get());
    // each of the four HUBs forwarded the pings
    for h in 0..4 {
        assert!(world.hubs[h].stats().forwarded >= 10, "hub {h} saw no traffic");
    }
    let m = rtts.borrow_mut().median().as_micros_f64();
    // three extra HUB transits each way vs single hub: small but real
    assert!((100.0..400.0).contains(&m), "median={m}");
}

#[test]
fn datagrams_are_lossy_but_rmp_is_reliable_under_loss() {
    let config = Config { faults: FaultPlan { loss: 0.10, corrupt: 0.0 }, ..Default::default() };
    let (mut world, mut sim) = World::single_hub(config, 2);
    // RMP stream must deliver everything despite 10% frame loss
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total = 200_000u64;
    let (sink, _, received, done) = CabSink::new(sink_mbox, total);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 4096, total);
    world.cabs[0].fork_app(Box::new(streamer));
    world.run_until_done(&mut sim, until(60), |_| done.get());
    assert!(done.get(), "RMP delivered only {} of {total}", received.get());
    assert!(world.stats.frames_lost_injected > 0, "loss injection never fired");
    // retransmissions happened
    let s = world.cabs[0].proto.rmp_tx().values().next().unwrap().stats();
    assert!(s.retransmits > 0);
}

#[test]
fn corruption_is_dropped_by_crc_and_tcp_recovers() {
    let config = Config { faults: FaultPlan { loss: 0.0, corrupt: 0.05 }, ..Default::default() };
    let (mut world, mut sim) = World::single_hub(config, 2);
    let accept = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let listen = nectar_cab::reqs::TcpCtl::Listen { port: 5000, accept_mbox: accept }.encode();
    let msg = world.cabs[1].shared.begin_put(nectar_cab::reqs::MB_TCP_CTL, listen.len()).unwrap();
    world.cabs[1].shared.msg_write(&msg, 0, &listen);
    world.cabs[1].shared.end_put(nectar_cab::reqs::MB_TCP_CTL, msg);
    let total = 100_000u64;
    let (sink, _, received, done) = HostSink::new(data, Some(accept), total);
    world.hosts[1].spawn(Box::new(sink));
    let src = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (streamer, _) = nectar::scenario::HostTcpStreamer::new(1, 5000, src, 8192, total);
    world.hosts[0].spawn(Box::new(streamer));
    world.run_until_done(&mut sim, until(120), |_| done.get());
    assert!(done.get(), "TCP delivered only {} of {total}", received.get());
    assert!(world.stats.frames_corrupted_injected > 0);
    let crc_drops: u64 = world.cabs.iter().map(|c| c.stats.frames_crc_dropped).sum();
    assert!(crc_drops > 0, "hardware CRC must have caught corrupted frames");
}

#[test]
fn tcp_close_written_behind_send_requests_still_delivers_every_byte() {
    // The TCP thread drains its control mailbox before its send-request
    // mailbox. A host that writes its last send requests and then the
    // close, all before the thread next runs, must still get every byte
    // onto the wire ahead of the FIN.
    use nectar::scenario::CabTcpListener;
    use nectar_cab::reqs::{self, TcpCtl};
    use nectar_host::{HostCx, HostProcess, HostStep};

    struct SendThenClose {
        recv_mbox: u16,
        chunks: Vec<Vec<u8>>,
        sync: Option<u16>,
    }
    impl HostProcess for SendThenClose {
        fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
            let Some(sync) = self.sync else {
                let sync = cx.sync_alloc();
                let open = TcpCtl::Open {
                    dst_cab: 1,
                    port: 5000,
                    recv_mbox: self.recv_mbox,
                    reply_sync: sync,
                };
                cx.put_message(reqs::MB_TCP_CTL, &open.encode()).unwrap();
                self.sync = Some(sync);
                return HostStep::Yield;
            };
            match cx.sync_poll(sync) {
                None => HostStep::Yield,
                Some(0) => panic!("connection refused"),
                Some(v) => {
                    // one atomic host burst: sends, then the close
                    let conn = (v - 1) as u16;
                    for chunk in &self.chunks {
                        cx.put_message(reqs::MB_TCP_SEND, &reqs::tcp_send_encode(conn, chunk))
                            .unwrap();
                    }
                    cx.put_message(reqs::MB_TCP_CTL, &TcpCtl::Close { conn }.encode()).unwrap();
                    HostStep::Done
                }
            }
        }
    }

    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    // listen before boot so the SYN cannot beat the listener thread,
    // which then attaches the accepted connection to `data`
    let listen = TcpCtl::Listen { port: 5000, accept_mbox: accept }.encode();
    let msg = world.cabs[1].shared.begin_put(reqs::MB_TCP_CTL, listen.len()).unwrap();
    world.cabs[1].shared.msg_write(&msg, 0, &listen);
    world.cabs[1].shared.end_put(reqs::MB_TCP_CTL, msg);
    world.cabs[1].fork_app(Box::new(CabTcpListener::new(5000, accept, data)));
    let src = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let sent: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let chunks = sent.chunks(1000).map(<[u8]>::to_vec).collect();
    world.hosts[0].spawn(Box::new(SendThenClose { recv_mbox: src, chunks, sync: None }));
    world.run_until(&mut sim, until(5));

    // nobody reads `data`: everything the connection delivered is
    // still queued there, in order, with the empty EOF marker last
    let shared = &mut world.cabs[1].shared;
    let mut msgs = Vec::new();
    while let Ok(msg) = shared.begin_get(data) {
        msgs.push(shared.msg_bytes(&msg).to_vec());
        shared.end_get(data, msg);
    }
    let eof = msgs.pop().expect("nothing was delivered");
    assert!(eof.is_empty(), "last delivery is data, not EOF: the FIN never arrived");
    let got = msgs.concat();
    assert!(
        got == sent,
        "{} of {} bytes written ahead of the close arrived",
        got.len(),
        sent.len()
    );
}

#[test]
fn icmp_echo_end_to_end() {
    // ping CAB 1 from a thread on CAB 0 through IP/ICMP
    use nectar_cab::proto::{ip_for_cab, ip_output};
    use nectar_cab::{CabThread, Cx, Step};
    use nectar_wire::icmp::IcmpMessage;
    use nectar_wire::ipv4::IpProtocol;

    struct PingThread {
        reply_mbox: u16,
        sent: bool,
        got: nectar::scenario::SharedFlag,
    }
    impl CabThread for PingThread {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            if !self.sent {
                self.sent = true;
                cx.proto.ping_mbox = Some(self.reply_mbox);
                let req = IcmpMessage::EchoRequest { ident: 7, seq: 1, payload: b"ping".to_vec() };
                ip_output(cx, ip_for_cab(1), IpProtocol::ICMP, &req.build());
                return Step::Yield;
            }
            let Some(m) = cx.try_get(self.reply_mbox) else {
                return Step::Block(cx.mbox_cond(self.reply_mbox));
            };
            let bytes = cx.shared.msg_bytes(&m).to_vec();
            cx.end_get(self.reply_mbox, m);
            // [src ip; 4][ident u16][seq u16]
            assert_eq!(&bytes[..4], &ip_for_cab(1).octets());
            assert_eq!(u16::from_be_bytes([bytes[4], bytes[5]]), 7);
            self.got.set(true);
            Step::Done
        }
    }
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let got = std::rc::Rc::new(std::cell::Cell::new(false));
    world.cabs[0].fork_app(Box::new(PingThread {
        reply_mbox: reply,
        sent: false,
        got: got.clone(),
    }));
    world.run_until_done(&mut sim, until(5), |_| got.get());
    assert!(got.get(), "no echo reply");
    // the responder's ICMP ran as an upcall, not a thread
    assert!(world.cabs[1].rt.upcalls_run > 0);
}

#[test]
fn deterministic_replay_same_seed_same_trace() {
    let run = || {
        let (mut world, mut sim) = World::single_hub(Config::default(), 2);
        world.trace.set_enabled(true);
        let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
        let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
        let (echo, _) = EchoServer::new(Transport::Datagram, svc, 0, false);
        world.hosts[1].spawn(Box::new(echo));
        let (ping, _, done) = Pinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 10, false);
        world.hosts[0].spawn(Box::new(ping));
        world.run_until_done(&mut sim, until(5), |_| done.get());
        assert!(done.get());
        world
            .trace
            .events()
            .iter()
            .map(|e| (e.at.as_nanos(), e.node, e.tag.to_string(), e.info))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b, "two runs with the same seed must be identical");
    assert!(!a.is_empty());
    // Every stamp folded into one FNV-1a digest, pinned: a change that
    // moves any Figure 6 stage boundary — its time, node, tag or
    // correlation value — changes the digest; one that moves nothing
    // keeps it.
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    for (at, node, tag, info) in &a {
        fold(&at.to_le_bytes());
        fold(&node.to_le_bytes());
        fold(tag.as_bytes());
        fold(&info.to_le_bytes());
    }
    assert_eq!(digest, 0x296e_98c6_c8fc_2730, "the Figure 6 stage trace moved: {digest:#018x}");
}

/// The schedule digest of the `stream_twohub` benchmark world (13
/// saturating 4 KiB streams over two HUBs, seed 13, oracle off) at 50 ms
/// of simulated time, pinned: a change that moves, adds, drops or
/// reorders any event in the stream mix — a CAB burst, a frame hop, a
/// timer — changes it; a change to host-side speed alone keeps it.
#[test]
fn stream_mix_schedule_digest_is_pinned() {
    let run = || {
        let config = Config { seed: 13, oracle: Some(false), ..Config::default() };
        let (mut world, mut sim) = World::new(config, Topology::two_hubs(26));
        let _handles = two_hub_pair_load(&mut world, u64::MAX / 2, 4096);
        world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_millis(50));
        (sim.executed(), sim.event_digest())
    };
    let (events, digest) = run();
    assert_eq!((events, digest), run(), "two runs with the same seed must be identical");
    assert_eq!(
        digest, 0x6dfd_b09a_7676_3f56,
        "the stream mix schedule moved: {digest:#018x} after {events} events"
    );
}

#[test]
fn different_seeds_change_fault_patterns_not_correctness() {
    for seed in [1u64, 2, 3] {
        let config =
            Config { faults: FaultPlan { loss: 0.05, corrupt: 0.02 }, seed, ..Default::default() };
        let (mut world, mut sim) = World::single_hub(config, 2);
        let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let total = 50_000u64;
        let (sink, _, received, done) = CabSink::new(sink_mbox, total);
        world.cabs[1].fork_app(Box::new(sink));
        let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 2048, total);
        world.cabs[0].fork_app(Box::new(streamer));
        world.run_until_done(&mut sim, until(60), |_| done.get());
        assert!(done.get(), "seed {seed}: {} of {total}", received.get());
    }
}

#[test]
fn mixed_concurrent_traffic() {
    // RMP stream and datagram ping-pong share the same pair of CABs:
    // the latency path keeps working while bulk data flows
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (sink, _, _, stream_done) = CabSink::new(sink_mbox, 500_000);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 8192, 500_000);
    world.cabs[0].fork_app(Box::new(streamer));

    let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (p, rtts, ping_done) = CabPinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 20);
    world.cabs[0].fork_app(Box::new(p));

    world.run_until_done(&mut sim, until(30), |_| stream_done.get() && ping_done.get());
    assert!(stream_done.get());
    assert!(ping_done.get());
    let m = rtts.borrow_mut().median().as_micros_f64();
    // latency under load: worse than idle (142 us) but bounded (the
    // 8 KiB frames add up to ~660 us of fiber occupancy per direction)
    assert!(m < 2_000.0, "median under load = {m}");
}

#[test]
fn rpc_mode_mailbox_datagram_roundtrip() {
    // a full datagram ping-pong where the pinger's request mailbox is
    // driven in RPC mode would need an RPC-mode Pinger; instead verify
    // the RPC ops work against a live protocol mailbox end to end
    use nectar_cab::shared::SigEntry;
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let dst = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(Transport::Datagram, dst, 0)));

    // hand-drive the host side: RPC Begin_Put into MB_DG_SEND
    let reply_sync = world.cabs[0].shared.sync_alloc();
    let req = nectar_cab::reqs::SendReq { dst_cab: 1, dst_mbox: dst, src_mbox: 0 }
        .encode(&[0u8, 0, 0, 0]);
    world.cabs[0].shared.cab_sigq.push_back(SigEntry::RpcBeginPut {
        mbox: nectar_cab::reqs::MB_DG_SEND,
        size: req.len() as u32,
        reply: reply_sync,
    });
    world.cabs[0].host_interrupt(SimTime::ZERO);
    sim.immediately(|w, s| nectar::world::kick_cab(w, s, 0));
    world.run_until(&mut sim, until(1));
    let handle = world.cabs[0].shared.sync_read(reply_sync).expect("begin_put done");
    assert!(handle > 0);
    let m = world.cabs[0].shared.handles.get(handle - 1).unwrap();
    world.cabs[0].shared.mem.dma_write(m.data, &req);
    let done_sync = world.cabs[0].shared.sync_alloc();
    world.cabs[0].shared.cab_sigq.push_back(SigEntry::RpcEndPut {
        mbox: nectar_cab::reqs::MB_DG_SEND,
        msg_index: handle - 1,
        reply: done_sync,
    });
    let t = sim.now();
    world.cabs[0].host_interrupt(t);
    sim.immediately(|w, s| nectar::world::kick_cab(w, s, 0));
    world.run_until(&mut sim, until(2));
    // the datagram went out and was echoed back to mailbox 0 on CAB 0
    // (src_mbox 0 = MB_DG_SEND is where the echo lands; just verify the
    // send thread consumed the request and transmitted)
    assert!(world.cabs[0].proto.stats.datagrams_out >= 1);
    assert!(world.cabs[1].proto.stats.datagrams_in >= 1);
}
