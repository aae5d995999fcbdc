//! The world: every HUB, CAB and host wired together on one event
//! queue.
//!
//! Execution model: CABs and hosts are burst-atomic state machines
//! (one burst per event); frames move between them through the HUB
//! model with cut-through timing. This module owns the glue — effect
//! routing, kick scheduling, fault injection — and the public
//! [`World::run_until`] / [`World::run_until_done`] / [`World::run_for`]
//! drivers used by tests, examples and the benchmark harness.

use std::cell::RefCell;
use std::rc::Rc;

use nectar_cab::proto::MTU;
use nectar_cab::{Cab, CabEffect};
use nectar_host::{Host, HostEffect};
use nectar_hub::{Hub, HubDecision};
use nectar_sim::{SchedStats, Scheduler, SimDuration, SimTime, TimerId, Trace};
use nectar_stack::rmp::RmpConfig;
use nectar_wire::datalink::Frame;

use crate::config::Config;
use crate::fault::{FaultEngine, FaultScript, NodeRef, Verdict};
use crate::topology::{Attachment, Topology};

/// The event queue specialized to this world.
pub type Sim = Scheduler<World>;

/// Latency of the VME interrupt line (doorbell) in each direction.
const DOORBELL_LATENCY: SimDuration = SimDuration::from_micros(1);

/// Mailbox entries a CAB system thread dequeues per scheduling burst
/// under [`Config::batched_io`] (the paper's tight loop takes 4).
const BATCHED_MAILBOX_BURST: usize = 16;

/// Global frame counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    pub frames_launched: u64,
    pub frames_lost_injected: u64,
    pub frames_corrupted_injected: u64,
    pub frames_hub_dropped: u64,
    /// Wire bytes of launched frames.
    pub bytes_launched: u64,
    /// Wire bytes removed by fault injection.
    pub bytes_lost_injected: u64,
    /// Frames a HUB forwarded out a port with nothing attached.
    pub frames_dead_end: u64,
    pub bytes_dead_end: u64,
}

impl NetStats {
    /// Book one fiber hop's fault verdict against `frame`: count an
    /// injected loss or corruption (the engine counted a down fiber or
    /// node), flip a corrupted bit, and say whether the frame goes on.
    fn book_hop(&mut self, verdict: Verdict, frame: &mut Frame) -> bool {
        match verdict {
            Verdict::Lose => {
                self.frames_lost_injected += 1;
                self.bytes_lost_injected += frame.wire_len() as u64;
                false
            }
            Verdict::Down => false,
            Verdict::Corrupt(bit) => {
                frame.corrupt_bit(bit);
                self.frames_corrupted_injected += 1;
                true
            }
            Verdict::Deliver => true,
        }
    }
}

/// Aggregate request accounting for workload drivers (nectar-load).
/// One shared ledger per world; every load client updates it inline,
/// and [`World::publish_metrics`] surfaces it as `net/load/*` when
/// attached. The counters form a conservation identity the load tests
/// pin:
///
/// ```text
/// responses + timeouts + failures <= requests_sent <= requests_intended
/// ```
///
/// with equality on the left once every outstanding request has either
/// completed or timed out (drive the world past the last deadline),
/// and on the right once every intended request was dispatched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadLedger {
    /// Requests the open/closed-loop schedules called for.
    pub requests_intended: u64,
    /// Requests actually dispatched onto a transport.
    pub requests_sent: u64,
    /// Requests answered by a matching response.
    pub responses: u64,
    /// Requests abandoned at their client-side deadline.
    pub timeouts: u64,
    /// Requests the transport refused outright (e.g. a rejected call).
    pub failures: u64,
    /// Responses that arrived after their request had timed out.
    pub stale_replies: u64,
    /// Dispatches that ran late relative to their intended start (the
    /// coordinated-omission signal: latency is still measured from the
    /// intended time).
    pub late_dispatch: u64,
    /// Application payload bytes sent with requests.
    pub bytes_sent: u64,
    /// Application payload bytes received in responses.
    pub bytes_received: u64,
}

/// Shared handle to a [`LoadLedger`].
pub type SharedLoadLedger = Rc<RefCell<LoadLedger>>;

/// The complete simulated Nectar installation.
pub struct World {
    pub config: Config,
    pub topo: Topology,
    pub hubs: Vec<Hub>,
    pub cabs: Vec<Cab>,
    /// Host `i` is attached to CAB `i` (the paper's systems were
    /// one-to-one).
    pub hosts: Vec<Host>,
    pub trace: Trace,
    pub stats: NetStats,
    /// Ethernet receive queues for the §6.3 comparison interface,
    /// registered by [`crate::netdev::eth_port`].
    pub eth_ports: Vec<Option<crate::netdev::EthPort>>,
    /// Scheduler counters (e.g. past-timestamp clamps), published into
    /// [`World::metrics`].
    pub sched: SchedStats,
    /// The one live self-kick per CAB. Every [`kick_cab`] cancels it
    /// and schedules a fresh one from the CAB's newly reported next
    /// work time, so a superseded wakeup (a retransmit timer obsoleted
    /// by an ACK, a chain kick overtaken by a frame arrival) dies in
    /// the event arena instead of firing and re-polling.
    cab_wake: Vec<Option<TimerId>>,
    /// Same, for the hosts.
    host_wake: Vec<Option<TimerId>>,
    /// Doorbell coalescing ([`Config::batched_io`]): true while
    /// a host→CAB doorbell interrupt is scheduled but not yet
    /// delivered, per CAB. Ringing again inside that window is a no-op
    /// — safe because the interrupt handler drains the entire signal
    /// queue, so the one in-flight delivery observes everything the
    /// suppressed rings would have announced.
    cab_doorbell_pending: Vec<bool>,
    /// Same, for CAB→host doorbells.
    host_doorbell_pending: Vec<bool>,
    /// The fault authority: owns the fault RNG stream, the installed
    /// [`FaultScript`] (if any) and all per-link/per-node fault
    /// accounting. With no script installed it reproduces the legacy
    /// global-plan draws bit for bit.
    pub faults: FaultEngine,
    /// Aggregate load-driver accounting, attached by
    /// [`World::attach_load_ledger`]. `None` keeps the metric snapshot
    /// on the legacy key set (no `net/load/*`), which the pinned
    /// fixtures depend on.
    pub load: Option<SharedLoadLedger>,
}

impl World {
    /// Build a world over a topology. One host per CAB.
    pub fn new(config: Config, topo: Topology) -> (World, Sim) {
        if let Some(on) = config.oracle {
            nectar_stack::conform::set_enabled(on);
        }
        let n = topo.cabs();
        let mut cabs = Vec::with_capacity(n);
        let mut hub_routes = vec![None; topo.hubs];
        for i in 0..n as u16 {
            let mut cab = Cab::new(
                i,
                config.cab_costs,
                config.link,
                config.tcp,
                config.seed ^ (i as u64) << 17,
            );
            // deploy the route cache: one BFS per CAB-bearing HUB, its
            // table shared by every CAB on that HUB; a fabric whose
            // diameter exceeds the route prefix cannot be fully
            // addressed and is rejected at boot
            let hub = topo.cab_port[i as usize].0;
            let routes = hub_routes[hub as usize].get_or_insert_with(|| {
                Rc::new(
                    topo.routes_from_hub(hub)
                        .unwrap_or_else(|e| panic!("HUB {hub}: route table build failed: {e}")),
                )
            });
            cab.net.routes = Rc::clone(routes);
            cab.proto.ip_in_thread = config.ip_in_thread;
            cab.proto.rmp_cfg = RmpConfig { max_fragment: MTU, ..config.rmp };
            if config.batched_io {
                cab.rx_coalesce = true;
                cab.proto.burst_limit = BATCHED_MAILBOX_BURST;
            }
            cabs.push(cab);
        }
        let hosts = (0..n as u16).map(|i| Host::new(i, i, config.host_costs)).collect();
        let hubs = (0..topo.hubs as u16).map(|h| Hub::new(h, config.hub)).collect();
        let mut sim = Sim::new();
        let world = World {
            faults: FaultEngine::new(config.seed, config.faults),
            trace: Trace::new(),
            config,
            topo,
            hubs,
            cabs,
            hosts,
            stats: NetStats::default(),
            eth_ports: (0..n).map(|_| None).collect(),
            sched: sim.stats(),
            cab_wake: vec![None; n],
            host_wake: vec![None; n],
            cab_doorbell_pending: vec![false; n],
            host_doorbell_pending: vec![false; n],
            load: None,
        };
        // boot every CAB and host (threads initialize, then idle)
        for i in 0..n {
            sim.at_call(SimTime::ZERO, kick_cab_event, i as u64);
            sim.at_call(SimTime::ZERO, kick_host_event, i as u64);
        }
        (world, sim)
    }

    /// Convenience single-HUB constructor.
    pub fn single_hub(config: Config, hosts: usize) -> (World, Sim) {
        World::new(config, Topology::single_hub(hosts))
    }

    /// Attach (or return the already-attached) load ledger. Workload
    /// drivers clone the handle into every client; attaching also
    /// switches [`World::publish_metrics`] to include `net/load/*`.
    pub fn attach_load_ledger(&mut self) -> SharedLoadLedger {
        self.load.get_or_insert_with(Default::default).clone()
    }

    /// Install a per-link [`FaultScript`], replacing any previous one.
    /// Noop clauses are pruned — an effectively-empty script leaves the
    /// engine disabled and the schedule bit-identical to a fault-free
    /// world. CAB blackout windows additionally schedule an input-FIFO
    /// flush at outage start: a dark board loses whatever its DMA
    /// engine had buffered.
    pub fn install_fault_script(&mut self, sim: &mut Sim, script: &FaultScript) {
        self.faults.install(script);
        for o in self.faults.outages().to_vec() {
            if let NodeRef::Cab(c) = o.node {
                let c = c as usize;
                sim.at(o.from, move |w, _s| {
                    let (frames, bytes) = w.cabs[c].flush_rx_fifo();
                    if frames > 0 {
                        w.faults.note_fifo_flush(NodeRef::Cab(c as u16), frames, bytes);
                    }
                });
            }
        }
    }

    /// Run until the queue drains or `deadline` passes.
    pub fn run_until(&mut self, sim: &mut Sim, deadline: SimTime) {
        sim.run_until(self, deadline);
    }

    /// Run until `done(world)` holds, with `deadline` as the hang guard;
    /// says whether it held. Hosts poll forever (paper §3.2), so a world
    /// with a host process never drains its queue: this is how a driver
    /// stops when its transfer does. The clock is left at the completing
    /// event (see [`Scheduler::run_until_or`]).
    pub fn run_until_done(
        &mut self,
        sim: &mut Sim,
        deadline: SimTime,
        done: impl FnMut(&World) -> bool,
    ) -> bool {
        sim.run_until_or(self, deadline, done)
    }

    /// Run for a span of simulated time from `sim.now()`.
    pub fn run_for(&mut self, sim: &mut Sim, d: SimDuration) {
        let deadline = sim.now() + d;
        self.run_until(sim, deadline);
    }

    /// Assemble the observability snapshot: every counter, CPU meter
    /// and queue gauge in the installation under the workspace naming
    /// scheme (`node/<id>/link/tx_bytes`, `hub/<h>/port/<p>/…`,
    /// `net/…`). Component instruments are always-on plain integers;
    /// this is the pull point that gathers them, so simulation hot
    /// paths never pay for snapshot assembly.
    pub fn metrics(&self) -> nectar_sim::MetricsSnapshot {
        let mut r = nectar_sim::MetricsSnapshot::new();
        self.publish_metrics(&mut r);
        r
    }

    /// Deterministic JSON form of [`World::metrics`]: sorted keys,
    /// integer values, byte-identical across same-seed runs.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Write every instrument into a snapshot.
    fn publish_metrics(&self, r: &mut nectar_sim::MetricsSnapshot) {
        let s = &self.stats;
        r.set("net/frames_launched", s.frames_launched);
        r.set("net/frames_lost_injected", s.frames_lost_injected);
        r.set("net/frames_corrupted_injected", s.frames_corrupted_injected);
        r.set("net/frames_hub_dropped", s.frames_hub_dropped);
        r.set("net/frames_dead_end", s.frames_dead_end);
        r.set("net/bytes_launched", s.bytes_launched);
        r.set("net/bytes_lost_injected", s.bytes_lost_injected);
        r.set("net/bytes_dead_end", s.bytes_dead_end);

        // IP endpoint health aggregated over every CAB: the reassembly
        // counters are what make fragment-flood experiments (and the
        // eviction caps) attributable.
        let mut ip = nectar_stack::ip::IpStats::default();
        for cab in &self.cabs {
            let s = cab.proto.ip.stats();
            ip.delivered += s.delivered;
            ip.fragments_in += s.fragments_in;
            ip.fragmented_out += s.fragmented_out;
            ip.packets_out += s.packets_out;
            ip.bad += s.bad;
            ip.reassembly_expired += s.reassembly_expired;
            ip.reassembly_dropped += s.reassembly_dropped;
        }
        r.set("net/ip/delivered", ip.delivered);
        r.set("net/ip/fragments_in", ip.fragments_in);
        r.set("net/ip/fragmented_out", ip.fragmented_out);
        r.set("net/ip/packets_out", ip.packets_out);
        r.set("net/ip/bad", ip.bad);
        r.set("net/ip/reassembly_expired", ip.reassembly_expired);
        r.set("net/ip/reassembly_dropped", ip.reassembly_dropped);

        // Fault accounting: engine totals, then one group per link and
        // per node a script ever touched (none without a script).
        let fs = &self.faults.stats;
        r.set("net/fault/frames_down_dropped", fs.frames_down_dropped);
        r.set("net/fault/bytes_down_dropped", fs.bytes_down_dropped);
        r.set("net/fault/fifo_flushed_frames", fs.fifo_flushed_frames);
        r.set("net/fault/fifo_flushed_bytes", fs.fifo_flushed_bytes);
        for (link, st) in self.faults.link_stats() {
            let label = link.label();
            let p = |suffix: &str| format!("net/link/{label}/{suffix}");
            r.set(p("frames_lost"), st.frames_lost);
            r.set(p("bytes_lost"), st.bytes_lost);
            r.set(p("frames_corrupted"), st.frames_corrupted);
            r.set(p("frames_down_dropped"), st.frames_down_dropped);
            r.set(p("bytes_down_dropped"), st.bytes_down_dropped);
            r.set(p("burst_entries"), st.burst_entries);
        }
        for (node, st) in self.faults.node_stats() {
            let p = |suffix: &str| format!("net/node/{node}/{suffix}");
            r.set(p("frames_down_dropped"), st.frames_down_dropped);
            r.set(p("bytes_down_dropped"), st.bytes_down_dropped);
            r.set(p("fifo_flushed_frames"), st.fifo_flushed_frames);
            r.set(p("fifo_flushed_bytes"), st.fifo_flushed_bytes);
        }

        // Workload-driver accounting, when a load ledger is attached.
        if let Some(l) = &self.load {
            let l = l.borrow();
            r.set("net/load/requests_intended", l.requests_intended);
            r.set("net/load/requests_sent", l.requests_sent);
            r.set("net/load/responses", l.responses);
            r.set("net/load/timeouts", l.timeouts);
            r.set("net/load/failures", l.failures);
            r.set("net/load/stale_replies", l.stale_replies);
            r.set("net/load/late_dispatch", l.late_dispatch);
            r.set("net/load/bytes_sent", l.bytes_sent);
            r.set("net/load/bytes_received", l.bytes_received);
        }

        // In-network collective accounting. Every `replicas` entry is a
        // real datalink transmit, so fan-out is explicit in the
        // frame-conservation ledger: each replica counts once in
        // `net/frames_launched` and once at its receiver.
        let mut agg = nectar_stack::collective::CollectiveStats::default();
        for cab in &self.cabs {
            let s = cab.proto.coll().stats();
            agg.multicasts += s.multicasts;
            agg.replicas += s.replicas;
            agg.delivers += s.delivers;
            agg.arrives_rx += s.arrives_rx;
            agg.arrives_tx += s.arrives_tx;
            agg.arrive_retransmits += s.arrive_retransmits;
            agg.duplicate_arrives += s.duplicate_arrives;
            agg.stale_arrives += s.stale_arrives;
            agg.straggler_resends += s.straggler_resends;
            agg.releases += s.releases;
            agg.releases_forwarded += s.releases_forwarded;
            agg.duplicate_releases += s.duplicate_releases;
            agg.completions += s.completions;
            agg.failures += s.failures;
            agg.misdirected_drops += s.misdirected_drops;
        }
        r.set("net/collective/multicasts", agg.multicasts);
        r.set("net/collective/replicas", agg.replicas);
        r.set("net/collective/delivers", agg.delivers);
        r.set("net/collective/arrives_rx", agg.arrives_rx);
        r.set("net/collective/arrives_tx", agg.arrives_tx);
        r.set("net/collective/arrive_retransmits", agg.arrive_retransmits);
        r.set("net/collective/duplicate_arrives", agg.duplicate_arrives);
        r.set("net/collective/stale_arrives", agg.stale_arrives);
        r.set("net/collective/straggler_resends", agg.straggler_resends);
        r.set("net/collective/releases", agg.releases);
        r.set("net/collective/releases_forwarded", agg.releases_forwarded);
        r.set("net/collective/duplicate_releases", agg.duplicate_releases);
        r.set("net/collective/completions", agg.completions);
        r.set("net/collective/failures", agg.failures);
        r.set("net/collective/misdirected_drops", agg.misdirected_drops);

        // a nonzero value means some cost model produced a timestamp in
        // the past and the scheduler clamped it to "now"
        r.set("sched/clamped_past", self.sched.clamped_past());

        for (i, cab) in self.cabs.iter().enumerate() {
            let p = |suffix: &str| format!("node/{i}/{suffix}");
            r.set(p("cab/cpu_busy_ns"), cab.cpu.busy().as_nanos());
            r.set(p("cab/ctx_switches"), cab.rt.ctx_switches);
            r.set(p("cab/interrupts_taken"), cab.rt.interrupts_taken);
            r.set(p("cab/upcalls_run"), cab.rt.upcalls_run);
            r.set(p("cab/host_signals"), cab.stats.host_signals);

            r.set(p("link/tx_frames"), cab.net.tx_frames);
            r.set(p("link/tx_bytes"), cab.net.tx_bytes);
            r.set(p("link/no_route_drops"), cab.net.no_route_drops);
            r.set(p("link/rx_frames"), cab.stats.frames_rx);
            r.set(p("link/rx_bytes"), cab.stats.bytes_rx);
            r.set(p("link/rx_crc_dropped"), cab.stats.frames_crc_dropped);
            r.set(p("link/rx_fifo_dropped_frames"), cab.stats.frames_fifo_dropped);
            r.set(p("link/rx_fifo_dropped_bytes"), cab.stats.bytes_fifo_dropped);
            r.set(p("link/rx_fifo_high_bytes"), cab.stats.rx_fifo_high);
            // misroutes only arise from injected route corruption
            r.set(p("link/rx_misrouted"), cab.stats.frames_misrouted);

            let mut enq_msgs = 0u64;
            let mut enq_bytes = 0u64;
            let mut deq_msgs = 0u64;
            let mut deq_bytes = 0u64;
            let mut depth = 0u64;
            let mut depth_high = 0u64;
            for mb in &cab.shared.mailboxes {
                enq_msgs += mb.delivered;
                enq_bytes += mb.enq_bytes;
                deq_msgs += mb.deq_msgs;
                deq_bytes += mb.deq_bytes;
                depth += mb.queue.len() as u64;
                depth_high = depth_high.max(mb.depth_high);
            }
            r.set(p("mbox/enqueued_msgs"), enq_msgs);
            r.set(p("mbox/enqueued_bytes"), enq_bytes);
            r.set(p("mbox/dequeued_msgs"), deq_msgs);
            r.set(p("mbox/dequeued_bytes"), deq_bytes);
            r.set(p("mbox/depth"), depth);
            r.set(p("mbox/depth_high"), depth_high);
            r.set(p("sigq/cab_depth_high"), cab.shared.cab_sigq_high);
            r.set(p("sigq/host_depth_high"), cab.shared.host_sigq_high);

            let ps = &cab.proto.stats;
            r.set(p("proto/frames_in"), ps.frames_in);
            r.set(p("proto/crc_drops"), ps.crc_drops);
            r.set(p("proto/no_mbox_drops"), ps.no_mbox_drops);
            r.set(p("proto/no_space_drops"), ps.no_space_drops);
            r.set(p("proto/datagrams_in"), ps.datagrams_in);
            r.set(p("proto/datagrams_out"), ps.datagrams_out);
            r.set(p("proto/rmp_msgs_in"), ps.rmp_msgs_in);
            r.set(p("proto/rr_requests_in"), ps.rr_requests_in);
            r.set(p("proto/bad_requests"), ps.bad_requests);
            r.set(p("proto/ip_packets_in"), ps.ip_packets_in);

            let ts = cab.proto.tcp.total_socket_stats();
            let tss = cab.proto.tcp.stats();
            r.set(p("tcp/segs_out"), ts.segs_out);
            r.set(p("tcp/segs_in"), ts.segs_in);
            r.set(p("tcp/bytes_out"), ts.bytes_out);
            r.set(p("tcp/bytes_in"), ts.bytes_in);
            r.set(p("tcp/retransmits"), ts.retransmits);
            r.set(p("tcp/fast_retransmits"), ts.fast_retransmits);
            r.set(p("tcp/timeouts"), ts.timeouts);
            r.set(p("tcp/checksum_drops"), tss.checksum_drops);
            r.set(p("tcp/no_socket_drops"), tss.no_socket_drops);
            r.set(p("tcp/sack_blocks_in"), ts.sack_blocks_in);
            r.set(p("tcp/sack_retransmits"), ts.sack_retransmits);

            let mut frags_sent = 0u64;
            let mut rmp_retx = 0u64;
            let mut msgs_delivered = 0u64;
            let mut msgs_failed = 0u64;
            for tx in cab.proto.rmp_tx().values() {
                let st = tx.stats();
                frags_sent += st.fragments_sent;
                rmp_retx += st.retransmits;
                msgs_delivered += st.messages_delivered;
                msgs_failed += st.messages_failed;
            }
            r.set(p("rmp/fragments_sent"), frags_sent);
            r.set(p("rmp/retransmits"), rmp_retx);
            r.set(p("rmp/messages_delivered"), msgs_delivered);
            r.set(p("rmp/messages_failed"), msgs_failed);
            let rs = cab.proto.rmp_rx.stats();
            r.set(p("rmp/fragments_in"), rs.fragments_in);
            r.set(p("rmp/duplicates"), rs.duplicates);
            r.set(p("rmp/delivered"), rs.delivered);
            r.set(p("rmp/acks_sent"), rs.acks_sent);
        }

        for (i, host) in self.hosts.iter().enumerate() {
            let p = |suffix: &str| format!("node/{i}/host/{suffix}");
            r.set(p("cpu_busy_ns"), host.cpu.busy().as_nanos());
            r.set(p("proc_switches"), host.stats.proc_switches);
            r.set(p("cab_interrupts"), host.stats.cab_interrupts);
            r.set(p("vme_words"), host.stats.vme_words);
        }

        for (h, hub) in self.hubs.iter().enumerate() {
            let hs = hub.stats();
            let p = |suffix: &str| format!("hub/{h}/{suffix}");
            r.set(p("rx_frames"), hs.rx_frames);
            r.set(p("rx_bytes"), hs.rx_bytes);
            r.set(p("forwarded_frames"), hs.forwarded + hs.forwarded_circuit);
            r.set(p("forwarded_circuit"), hs.forwarded_circuit);
            r.set(p("forwarded_bytes"), hs.forwarded_bytes);
            r.set(
                p("dropped_frames"),
                hs.dropped_bad_route + hs.dropped_bad_port + hs.dropped_backlog,
            );
            r.set(p("dropped_bytes"), hs.dropped_bytes);
            r.set(p("held_frames"), hs.held_frames); // xon/xoff holds
            for port in 0..nectar_hub::PORTS {
                let st = hub.port_stats(port);
                if st.tx_frames == 0 {
                    continue; // quiet ports would bloat the snapshot
                }
                r.set(format!("hub/{h}/port/{port}/tx_frames"), st.tx_frames);
                r.set(format!("hub/{h}/port/{port}/tx_bytes"), st.tx_bytes);
                r.set(format!("hub/{h}/port/{port}/backlog_high_ns"), st.backlog_high.as_nanos());
            }
        }

        // Per-stage fabric hotspot rollup: which Clos stage is
        // saturating, without scraping hundreds of per-HUB keys.
        let mut stages = vec![[0u64; 5]; self.topo.stages()];
        for (h, hub) in self.hubs.iter().enumerate() {
            let [rx, forwarded, dropped, held, backlog_high] =
                &mut stages[self.topo.stage(h as u16) as usize];
            let hs = hub.stats();
            *rx += hs.rx_frames;
            *forwarded += hs.forwarded + hs.forwarded_circuit;
            *dropped += hs.dropped_bad_route + hs.dropped_bad_port + hs.dropped_backlog;
            *held += hs.held_frames;
            for port in 0..nectar_hub::PORTS {
                *backlog_high = (*backlog_high).max(hub.port_stats(port).backlog_high.as_nanos());
            }
        }
        for (s, [rx, forwarded, dropped, held, backlog_high]) in stages.into_iter().enumerate() {
            let p = |suffix: &str| format!("net/fabric/stage/{s}/{suffix}");
            r.set(p("rx_frames"), rx);
            r.set(p("forwarded_frames"), forwarded);
            r.set(p("dropped_frames"), dropped);
            r.set(p("held_frames"), held);
            r.set(p("backlog_high_ns"), backlog_high);
        }
    }
}

/// [`kick_cab`] in the scheduler's allocation-free event form.
fn kick_cab_event(w: &mut World, sim: &mut Sim, i: u64) {
    kick_cab(w, sim, i as usize);
}

/// Run one CAB burst and route its effects; self-reschedules while the
/// CAB reports more work.
///
/// Whatever ran this kick — the pending wakeup itself, a frame arrival,
/// a host doorbell — the burst just executed recomputes the CAB's next
/// work time, so the previously scheduled wakeup is obsolete: it is
/// cancelled here and replaced, and a node never has more than one
/// live self-wake. This is how protocol timers get cancelled on
/// progress (an ACK moves a retransmit deadline and the wakeup parked
/// on the old one dies in the arena), and it is what keeps a busy CAB
/// from being stepped ahead of the clock: a second wake chain would
/// run queued thread bursts before interrupts that arrive meanwhile.
pub fn kick_cab(w: &mut World, sim: &mut Sim, i: usize) {
    if let Some(id) = w.cab_wake[i].take() {
        sim.cancel(id);
    }
    let now = sim.now();
    let (fx, status) = {
        let trace = &mut w.trace;
        w.cabs[i].step(now, trace)
    };
    route_cab_effects(w, sim, i, fx, status.burst_end(now));
    if let Some(at) = status.wake(now) {
        debug_assert!(w.cab_wake[i].is_none(), "CAB {i} would hold two live self-wakes");
        w.cab_wake[i] = Some(sim.at_call(at, kick_cab_event, i as u64));
    }
}

/// [`kick_host`] in the scheduler's allocation-free event form.
fn kick_host_event(w: &mut World, sim: &mut Sim, i: u64) {
    kick_host(w, sim, i as usize);
}

/// Run one host burst against its CAB's shared memory and route the
/// effects. Pending-wakeup handling mirrors [`kick_cab`].
pub fn kick_host(w: &mut World, sim: &mut Sim, i: usize) {
    if let Some(id) = w.host_wake[i].take() {
        sim.cancel(id);
    }
    let now = sim.now();
    let cab_id = w.hosts[i].cab_id as usize;
    let (fx, status) = {
        let (hosts, cabs, trace) = (&mut w.hosts, &mut w.cabs, &mut w.trace);
        hosts[i].step(now, &mut cabs[cab_id].shared, trace)
    };
    // side effects (doorbell writes) become visible when the burst's
    // stores have actually crossed the bus: at burst end
    let burst_end = status.burst_end(now);
    for e in fx {
        match e {
            HostEffect::InterruptCab => {
                if w.config.batched_io {
                    if w.cab_doorbell_pending[cab_id] {
                        continue; // a delivery is in flight; it will drain this signal too
                    }
                    w.cab_doorbell_pending[cab_id] = true;
                }
                sim.at(burst_end + DOORBELL_LATENCY, move |w, s| {
                    w.cab_doorbell_pending[cab_id] = false;
                    let t = s.now();
                    w.cabs[cab_id].host_interrupt(t);
                    kick_cab(w, s, cab_id);
                });
            }
            HostEffect::EthTransmit { dst_host, packet, first_byte } => {
                // the 10 Mbit/s comparison interface: direct host link
                let prop = SimDuration::from_micros(5);
                let at = (first_byte + prop).max(now);
                sim.at(at, move |w, s| {
                    crate::netdev::eth_deliver(w, s, dst_host as usize, packet);
                });
            }
        }
    }
    if let Some(at) = status.wake(now) {
        debug_assert!(w.host_wake[i].is_none(), "host {i} would hold two live self-wakes");
        w.host_wake[i] = Some(sim.at_call(at, kick_host_event, i as u64));
    }
}

fn route_cab_effects(
    w: &mut World,
    sim: &mut Sim,
    i: usize,
    fx: Vec<CabEffect>,
    burst_end: nectar_sim::SimTime,
) {
    for e in fx {
        match e {
            CabEffect::Transmit { mut frame, first_byte } => {
                let wire_len = frame.wire_len();
                w.stats.frames_launched += 1;
                w.stats.bytes_launched += wire_len as u64;
                let (hub, port) = w.topo.cab_port[i];
                // fault injection where the frame enters the network:
                // the legacy global plan, then the CAB↔HUB link plan
                let verdict = w.faults.entry_verdict(i as u16, hub, first_byte, wire_len);
                if !w.stats.book_hop(verdict, &mut frame) {
                    continue;
                }
                let prop = w.config.link.fiber_propagation;
                let at = first_byte + prop;
                sim.at(at, move |w, s| {
                    hub_frame_arrival(w, s, hub as usize, port, frame);
                });
            }
            CabEffect::InterruptHost => {
                // host index == cab index in this world
                let host = i;
                if w.config.batched_io {
                    if w.host_doorbell_pending[host] {
                        continue;
                    }
                    w.host_doorbell_pending[host] = true;
                }
                sim.at(burst_end + DOORBELL_LATENCY, move |w, s| {
                    w.host_doorbell_pending[host] = false;
                    let t = s.now();
                    w.hosts[host].cab_interrupt(t);
                    kick_host(w, s, host);
                });
            }
        }
    }
}

fn hub_frame_arrival(w: &mut World, sim: &mut Sim, hub: usize, in_port: u8, mut frame: Frame) {
    let now = sim.now();
    let wire_len = frame.wire_len();
    // a blacked-out HUB is dark: frames reaching any of its ports vanish
    if w.faults.node_is_down(NodeRef::Hub(hub as u16), now) {
        w.faults.note_node_down_drop(NodeRef::Hub(hub as u16), wire_len);
        return;
    }
    let ser = SimDuration::serialization(wire_len, w.config.link.fiber_bits_per_sec);
    match w.hubs[hub].frame_arrival(now, in_port, &mut frame, ser) {
        HubDecision::Forward { out_port, first_byte_out } => {
            let prop = w.config.link.fiber_propagation;
            let at = first_byte_out + prop;
            match w.topo.port_map[hub][out_port as usize] {
                Attachment::Cab(c) => {
                    // the outbound HUB↔CAB fiber has its own plan,
                    // judged as the first byte leaves the crossbar
                    let verdict = w.faults.forward_verdict(
                        hub as u16,
                        NodeRef::Cab(c),
                        first_byte_out,
                        wire_len,
                    );
                    if !w.stats.book_hop(verdict, &mut frame) {
                        return;
                    }
                    let c = c as usize;
                    sim.at(at, move |w, s| {
                        deliver_frame_to_cab(w, s, c, frame);
                    });
                }
                Attachment::Hub { hub: h2, in_port: p2 } => {
                    let verdict = w.faults.forward_verdict(
                        hub as u16,
                        NodeRef::Hub(h2),
                        first_byte_out,
                        wire_len,
                    );
                    if !w.stats.book_hop(verdict, &mut frame) {
                        return;
                    }
                    sim.at(at, move |w, s| {
                        hub_frame_arrival(w, s, h2 as usize, p2, frame);
                    });
                }
                Attachment::None => {
                    w.stats.frames_dead_end += 1;
                    w.stats.bytes_dead_end += frame.wire_len() as u64;
                }
            }
        }
        HubDecision::Drop(_) => {
            w.stats.frames_hub_dropped += 1;
        }
        HubDecision::Hold { resume_at } => {
            // xon/xoff backpressure: the frame never entered the
            // crossbar (hop unconsumed, nothing counted), so it waits
            // on the upstream link and is re-offered when the output's
            // backlog drains to the xon watermark. `resume_at` is
            // strictly after `now` because the backlog exceeded xoff ≥
            // xon, so this cannot loop at one instant.
            debug_assert!(resume_at > now, "xoff hold must move time forward");
            sim.at(resume_at, move |w, s| {
                hub_frame_arrival(w, s, hub, in_port, frame);
            });
        }
    }
}

/// A frame's last hop: off the fiber into the destination CAB's input
/// FIFO (unless the board is blacked out), then a kick to process it.
fn deliver_frame_to_cab(w: &mut World, sim: &mut Sim, c: usize, frame: Frame) {
    let t = sim.now();
    // a dark destination board receives nothing
    if w.faults.node_is_down(NodeRef::Cab(c as u16), t) {
        w.faults.note_node_down_drop(NodeRef::Cab(c as u16), frame.wire_len());
        return;
    }
    w.cabs[c].deliver_frame(t, frame);
    kick_cab(w, sim, c);
}
