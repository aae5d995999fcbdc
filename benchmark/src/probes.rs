//! Layer probes: the host-clock unit cost of one public function per
//! layer, on inputs shaped like the workloads' (4 KiB stream messages,
//! 64 B requests, the 52-HUB fabric). Each is a timed loop of at least
//! [`Probes::min_time`]; a probe's number times the matching in-run
//! count is the *estimated* host time a run spends in that function.
//!
//! The host crate has no stand-alone entry point worth timing; it is
//! measured through `paper_pair` only.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use nectar::config::Config;
use nectar::world::World;
use nectar_cab::memory::Heap;
use nectar_cab::{CabShared, HostOpMode};
use nectar_hub::crossbar::{Hub, HubConfig};
use nectar_load::deploy_fleet;
use nectar_sim::{BucketHist, Pcg32, Scheduler, SimDuration, SimTime};
use nectar_stack::ip::{IpEndpoint, IpInput};
use nectar_stack::reqresp::{RrClient, RrClientAction, RrConfig, RrServer, RrServerAction};
use nectar_stack::rmp::{RmpConfig, RmpReceiver, RmpRecvAction, RmpSendAction, RmpSender};
use nectar_stack::tcp::{TcpConfig, TcpStack, TcpStackEvent};
use nectar_wire::datalink::{DatalinkHeader, DatalinkProto, Frame};
use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
use nectar_wire::nectar::{ReqRespHeader, RmpHeader};
use nectar_wire::route::Route;
use nectar_wire::{crc32, internet_checksum};

use crate::workloads::clos_fleet_plan;

pub struct Probes {
    /// Least wall time one probe's loop runs for.
    pub min_time: Duration,
    /// Fresh 52-HUB worlds built for the `core.*` / `load.*` probes.
    pub world_builds: usize,
}

impl Probes {
    pub fn new(quick: bool) -> Probes {
        if quick {
            Probes { min_time: Duration::from_millis(10), world_builds: 1 }
        } else {
            Probes { min_time: Duration::from_millis(200), world_builds: 5 }
        }
    }

    /// Nanoseconds per unit of work. `batch` does some units and returns
    /// how many; it runs once untimed to warm up, then until `min_time`.
    fn ns_per_unit(&self, mut batch: impl FnMut() -> u64) -> f64 {
        black_box(batch());
        let t0 = Instant::now();
        let mut units = 0u64;
        while t0.elapsed() < self.min_time {
            units += black_box(batch());
        }
        t0.elapsed().as_nanos() as f64 / units.max(1) as f64
    }

    /// Every probe, by metric name.
    pub fn run_all(&self, seed: u64) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
        put("sim.queue_ns_per_event", self.queue());
        put("sim.timer_arm_cancel_ns", self.timer_arm_cancel());
        put("sim.hist_record_ns", self.hist_record());
        let buf4k: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
        let once = |f: &dyn Fn(&[u8]) -> u32, data: &[u8]| {
            self.ns_per_unit(|| {
                black_box(f(black_box(data)));
                1
            })
        };
        put("wire.cksum_ns_per_kib", once(&|d| internet_checksum(d) as u32, &buf4k) / 4.0);
        put("wire.cksum_64b_ns", once(&|d| internet_checksum(d) as u32, &buf4k[..64]));
        put("wire.crc32_ns_per_kib", once(&crc32, &buf4k) / 4.0);
        put("wire.frame_build_parse_ns", self.frame_build_parse(&buf4k));
        put("hub.frame_arrival_ns", self.hub_frame_arrival());
        put("stack.tcp_ns_per_segment", self.tcp_segment());
        put("stack.rmp_ns_per_msg", self.rmp_msg(&buf4k));
        put("stack.rr_ns_per_call", self.rr_call());
        put("stack.ip_frag_reasm_ns", self.ip_frag_reasm());
        put("cab.heap_ns_per_op", self.heap_op());
        put("cab.mbox_put_get_ns", self.mbox_put_get());
        let fabric = self.fabric(seed);
        put("core.world_build_us_per_cab", fabric.world_build_us_per_cab);
        put("core.route_table_us_per_cab", fabric.route_table_us_per_cab);
        put("core.metrics_snapshot_us_per_cab", fabric.snapshot_us_per_cab);
        put("load.deploy_us_per_endpoint", fabric.deploy_us_per_endpoint);
        out
    }

    /// `Scheduler::at_call` + `run` on a warm scheduler: each batch
    /// spreads its events over the next 10 ms so they land in wheel
    /// buckets the way a world's do, then drains them.
    fn queue(&self) -> f64 {
        const EVENTS: u64 = 100_000;
        fn bump(w: &mut u64, _: &mut Scheduler<u64>, arg: u64) {
            *w = w.wrapping_add(arg);
        }
        let mut rng = Pcg32::seeded(1);
        let mut s = Scheduler::<u64>::new();
        let mut world = 0u64;
        self.ns_per_unit(|| {
            let now = s.now();
            for i in 0..EVENTS {
                let at = now + SimDuration::from_nanos(rng.range(0, 10_000_000) as u64);
                s.at_call(at, bump, i);
            }
            s.run(&mut world);
            EVENTS
        })
    }

    /// Arm a timer a few ms out and cancel it, as a retransmit timer
    /// that an ack beats. The wheel is run forward each batch so the
    /// dead keys surface and their slots recycle, which is part of a
    /// cancelled timer's cost.
    fn timer_arm_cancel(&self) -> f64 {
        const TIMERS: u64 = 10_000;
        fn nop(_: &mut u64, _: &mut Scheduler<u64>, _: u64) {}
        let mut s = Scheduler::<u64>::new();
        let mut world = 0u64;
        self.ns_per_unit(|| {
            let now = s.now();
            for i in 0..TIMERS {
                let id = s.at_call(now + SimDuration::from_micros(5_000 + i % 64), nop, i);
                black_box(s.cancel(id));
            }
            s.run_until(&mut world, now + SimDuration::from_millis(6));
            TIMERS
        })
    }

    fn hist_record(&self) -> f64 {
        const SAMPLES: u64 = 100_000;
        let mut rng = Pcg32::seeded(2);
        let mut h = BucketHist::new();
        self.ns_per_unit(|| {
            for _ in 0..SAMPLES {
                h.record_nanos(rng.range(50_000, 20_000_000) as u64);
            }
            SAMPLES
        })
    }

    /// `Frame::build` + `parse_header` + `check_crc` on a 4 KiB payload
    /// over a two-hop route: one frame's life at its two ends.
    fn frame_build_parse(&self, payload: &[u8]) -> f64 {
        let route = Route::new(vec![3u8, 9]);
        let header = DatalinkHeader {
            dst_cab: 7,
            src_cab: 1,
            proto: DatalinkProto::Rmp,
            flags: 0,
            payload_len: payload.len() as u16,
            msg_id: 1,
        };
        self.ns_per_unit(|| {
            let f = Frame::build(black_box(&route), header, black_box(payload));
            let h = f.parse_header().expect("a frame we just built parses");
            f.check_crc().expect("and its CRC holds");
            black_box(h.payload_len);
            1
        })
    }

    /// `Hub::frame_arrival` with packet switching: one frame with a long
    /// source route is offered again and again, each arrival consuming a
    /// hop, spaced a serialization time apart so no backlog builds.
    fn hub_frame_arrival(&self) -> f64 {
        const HOPS: usize = 60;
        let hops: Vec<u8> = (0..HOPS).map(|i| (i % 16) as u8).collect();
        let header = DatalinkHeader {
            dst_cab: 7,
            src_cab: 1,
            proto: DatalinkProto::Datagram,
            flags: 0,
            payload_len: 64,
            msg_id: 1,
        };
        let frame = Frame::build(&Route::new(hops), header, &[0u8; 64]);
        let ser = SimDuration::serialization(frame.wire_len(), 100_000_000);
        let mut hub = Hub::new(0, HubConfig::default());
        let mut now = SimTime::ZERO;
        self.ns_per_unit(|| {
            let mut f = frame.clone();
            for i in 0..HOPS {
                now += ser;
                black_box(hub.frame_arrival(now, (i % 16) as u8, &mut f, ser));
            }
            HOPS as u64
        })
    }

    /// Two `TcpStack`s back to back moving 64 KiB; the unit is one
    /// segment transmitted by either side (data or ack), so the cost
    /// covers building it and the peer processing it.
    fn tcp_segment(&self) -> f64 {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let data = vec![0x42u8; 65536];
        self.ns_per_unit(|| {
            let cfg = TcpConfig::default();
            let mut sa = TcpStack::new(a, cfg, 1);
            let mut sb = TcpStack::new(b, cfg, 2);
            sb.listen(80);
            let mut now = SimTime::ZERO;
            let mut segments = 0u64;
            // (deliver to a?, segment)
            let mut inflight: Vec<(bool, Vec<u8>)> = Vec::new();
            let mut absorb =
                |from_a: bool, evs: Vec<TcpStackEvent>, q: &mut Vec<(bool, Vec<u8>)>| {
                    for e in evs {
                        if let TcpStackEvent::Transmit { segment, .. } = e {
                            segments += 1;
                            q.push((!from_a, segment));
                        }
                    }
                };
            let (id, evs) = sa.connect(now, (b, 80), None);
            absorb(true, evs, &mut inflight);
            let (mut sent, mut received, mut b_conn) = (0usize, 0usize, None);
            let mut rounds = 0;
            while received < data.len() {
                rounds += 1;
                assert!(rounds < 100_000, "TCP probe transfer stalled");
                now += SimDuration::from_micros(10);
                if sent < data.len() {
                    let (n, evs) = sa.send(now, id, &data[sent..]);
                    sent += n;
                    absorb(true, evs, &mut inflight);
                }
                for (to_a, seg) in std::mem::take(&mut inflight) {
                    let (src, dst) = if to_a { (b, a) } else { (a, b) };
                    let ip = Ipv4Header::new(src, dst, IpProtocol::TCP, seg.len());
                    let evs = if to_a {
                        sa.on_packet(now, &ip, &seg)
                    } else {
                        let evs = sb.on_packet(now, &ip, &seg);
                        for e in &evs {
                            if let TcpStackEvent::Incoming { id, .. } = e {
                                b_conn = Some(*id);
                            }
                        }
                        evs
                    };
                    absorb(to_a, evs, &mut inflight);
                }
                if let Some(bid) = b_conn {
                    received += sb.recv(bid, usize::MAX).len();
                    absorb(false, sb.poll(now), &mut inflight);
                }
                absorb(true, sa.poll(now), &mut inflight);
            }
            segments
        })
    }

    /// One 4 KiB message `RmpSender` → `RmpReceiver` → ack → delivered.
    fn rmp_msg(&self, message: &[u8]) -> f64 {
        const MSGS: u64 = 256;
        let mut tx = RmpSender::new(2, 7, 3, RmpConfig::default());
        let mut rx = RmpReceiver::new();
        let mut now = SimTime::ZERO;
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        self.ns_per_unit(|| {
            for _ in 0..MSGS {
                now += SimDuration::from_micros(100);
                tx.send(message.to_vec());
                tx.poll(now, &mut sends);
                let mut delivered = false;
                while let Some(action) = sends.pop() {
                    match action {
                        RmpSendAction::Transmit { packet, .. } => {
                            let (hdr, payload) = RmpHeader::parse(&packet).expect("RMP data");
                            rx.on_data(1, &hdr, payload, &mut recvs);
                            for r in recvs.drain(..) {
                                if let RmpRecvAction::Ack { packet, .. } = r {
                                    let (ack, _) = RmpHeader::parse(&packet).expect("RMP ack");
                                    tx.on_ack(now, &ack, &mut sends);
                                }
                            }
                        }
                        RmpSendAction::Delivered { .. } => delivered = true,
                        RmpSendAction::Failed { .. } => panic!("RMP probe message failed"),
                    }
                }
                assert!(delivered, "RMP probe message was not acknowledged");
            }
            MSGS
        })
    }

    /// One 64 B call `RrClient` → `RrServer` → reply → reply-ack.
    fn rr_call(&self) -> f64 {
        const CALLS: u64 = 256;
        let mut client = RrClient::new(2, 10, 11, RrConfig::default());
        let mut server = RrServer::new();
        let mut now = SimTime::ZERO;
        let (mut cacts, mut sacts) = (Vec::new(), Vec::new());
        let request = vec![0x5au8; 64];
        self.ns_per_unit(|| {
            for _ in 0..CALLS {
                now += SimDuration::from_micros(100);
                client.call(now, request.clone(), &mut cacts);
                let mut answered = false;
                while let Some(action) = cacts.pop() {
                    let RrClientAction::Transmit { packet, .. } = action else {
                        answered |= matches!(action, RrClientAction::Response { .. });
                        continue;
                    };
                    let (hdr, payload) = ReqRespHeader::parse(&packet).expect("RR packet");
                    match hdr.kind {
                        nectar_wire::nectar::ReqRespKind::Request => {
                            server.on_request(1, &hdr, payload, &mut sacts);
                        }
                        _ => server.on_reply_ack(1, &hdr),
                    }
                    while let Some(s) = sacts.pop() {
                        match s {
                            RrServerAction::Execute { client_cab, reply_mbox, req_id, payload } => {
                                server.reply(client_cab, reply_mbox, req_id, payload, &mut sacts);
                            }
                            RrServerAction::Transmit { packet, .. } => {
                                let (rh, rp) = ReqRespHeader::parse(&packet).expect("RR reply");
                                client.on_reply(now, &rh, rp, &mut cacts);
                            }
                        }
                    }
                }
                assert!(answered, "RR probe call got no response");
            }
            CALLS
        })
    }

    /// `IpEndpoint::output` of 8 KiB through a 1500 B MTU, then `input`
    /// of every fragment until the datagram is delivered.
    fn ip_frag_reasm(&self) -> f64 {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut tx = IpEndpoint::new(a);
        let mut rx = IpEndpoint::new(b);
        let payload = vec![0x17u8; 8192];
        let now = SimTime::from_nanos(1_000_000);
        self.ns_per_unit(|| {
            let packets = tx.output(b, IpProtocol::UDP, black_box(&payload), 1500);
            let mut delivered = 0usize;
            for p in &packets {
                if let IpInput::Delivered { payload, .. } = rx.input(now, p) {
                    delivered = payload.len();
                }
            }
            assert_eq!(delivered, payload.len(), "IP probe datagram was not reassembled");
            1
        })
    }

    /// CAB heap alloc/free churn over message-sized blocks.
    fn heap_op(&self) -> f64 {
        const OPS: u64 = 1000;
        let mut rng = Pcg32::seeded(7);
        self.ns_per_unit(|| {
            let mut h = Heap::new(0, 1 << 20);
            let mut live = Vec::new();
            for _ in 0..OPS {
                if live.len() > 32 || (rng.chance(0.4) && !live.is_empty()) {
                    let i = rng.range(0, live.len());
                    h.free(live.swap_remove(i));
                } else if let Some(a) = h.alloc(rng.range(8, 4096)) {
                    live.push(a);
                }
            }
            black_box(h.bytes_in_use());
            OPS
        })
    }

    /// The two-phase mailbox cycle on a 64 B message: `begin_put`,
    /// write, `end_put`, `begin_get`, `end_get`.
    fn mbox_put_get(&self) -> f64 {
        const MSGS: u64 = 1000;
        let mut shared = CabShared::new();
        let mbox = shared.create_mailbox(false, HostOpMode::SharedMemory);
        let body = [0x33u8; 64];
        self.ns_per_unit(|| {
            for _ in 0..MSGS {
                let msg = shared.begin_put(mbox, body.len()).expect("heap has room");
                shared.msg_write(&msg, 0, &body);
                shared.end_put(mbox, msg);
                let got = shared.begin_get(mbox).expect("the message just put");
                black_box(shared.msg_bytes(&got)[0]);
                shared.end_get(mbox, got);
            }
            // the wakeups a runtime would consume each burst
            black_box(shared.notices.take());
            MSGS
        })
    }

    /// Set-up pieces on the `clos_fleet` fabric (52 HUBs, 432 CABs,
    /// 10 080 endpoints), each per unit so they compare across sizes.
    fn fabric(&self, seed: u64) -> Fabric {
        let plan = clos_fleet_plan(seed);
        let topo = plan.topology();
        let cabs = topo.cabs() as f64;
        let endpoints = plan.total_clients() as f64;
        let config = Config { seed, oracle: Some(false), ..Config::default() };

        let route_ns = self.ns_per_unit(|| {
            for src in 0..topo.cabs() as u16 {
                black_box(topo.routes_from(src).expect("the fabric is connected"));
            }
            topo.cabs() as u64
        });

        let (mut build, mut deploy, mut snapshot) = (0.0, 0.0, 0.0);
        for _ in 0..self.world_builds {
            let t0 = Instant::now();
            let (mut world, sim) = World::new(config, plan.topology());
            build += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let fleet = deploy_fleet(&mut world, &plan);
            deploy += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            black_box(world.metrics());
            snapshot += t0.elapsed().as_secs_f64();
            drop((world, sim, fleet));
        }
        let n = self.world_builds as f64;
        Fabric {
            world_build_us_per_cab: build / n * 1e6 / cabs,
            route_table_us_per_cab: route_ns / 1e3,
            snapshot_us_per_cab: snapshot / n * 1e6 / cabs,
            deploy_us_per_endpoint: deploy / n * 1e6 / endpoints,
        }
    }
}

struct Fabric {
    world_build_us_per_cab: f64,
    route_table_us_per_cab: f64,
    snapshot_us_per_cab: f64,
    deploy_us_per_endpoint: f64,
}
