//! Observability-layer integration tests: determinism of the metrics
//! snapshot and conservation identities at the link, HUB, and mailbox
//! boundaries of the §6 production deployment (26 hosts, 2 HUBs).

use nectar::config::{Config, FaultPlan};
use nectar::fault::{FaultScript, GilbertElliott, LinkId, LinkPlan, NodeOutage, NodeRef};
use nectar::scenario::{two_hub_pair_load, CabEcho, CabPinger, CabRmpStreamer, CabSink, Transport};
use nectar::topology::Topology;
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{MetricsSnapshot, SimDuration, SimTime};

fn until(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Run the paper's production deployment — every CAB pings its
/// antipode through the two-HUB fabric — until the last pinger is done
/// and return the finished world, with its stage trace if `trace`.
/// Datagrams carry no acks, so the last reply consumed means no frame
/// is in flight: the ledger identities below hold at that instant.
fn run_all_pairs(trace: bool) -> World {
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    world.trace.set_enabled(trace);
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
    world
}

#[test]
fn metrics_snapshot_deterministic_across_runs() {
    // Same seed, same scenario, run twice: the JSON snapshot and the
    // trace buffer must be byte-for-byte identical.
    let run = || {
        let world = run_all_pairs(true);
        let trace: Vec<_> = world
            .trace
            .events()
            .iter()
            .map(|e| (e.at.as_nanos(), e.node, e.tag.to_string(), e.info))
            .collect();
        (world.metrics_json(), trace)
    };
    let (json_a, trace_a) = run();
    let (json_b, trace_b) = run();
    assert_eq!(json_a, json_b, "metrics snapshots must be byte-identical");
    assert_eq!(trace_a, trace_b, "trace buffers must be identical");
    assert!(!trace_a.is_empty());
    // and the snapshot is genuinely populated
    let snap: Vec<_> = json_a.lines().collect();
    assert!(snap.len() > 100, "expected a rich snapshot, got {} lines", snap.len());
}

/// Sum every `node/<i>/<suffix>` (or `hub/<h>/<suffix>`) value.
fn total(snap: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    snap.sum_matching(prefix, suffix)
}

#[test]
fn conservation_all_pairs_26_hosts_2_hubs() {
    let world = run_all_pairs(false);
    let snap = world.metrics();

    // Link boundary: every transmitted frame was launched onto the
    // fiber exactly once.
    let tx_frames = total(&snap, "node/", "/link/tx_frames");
    let tx_bytes = total(&snap, "node/", "/link/tx_bytes");
    assert_eq!(tx_frames, snap.get("net/frames_launched").unwrap());
    assert_eq!(tx_bytes, snap.get("net/bytes_launched").unwrap());
    assert!(tx_frames >= 26 * 5 * 2, "all-pairs traffic missing: {tx_frames}");

    // Global frame identity: every launched frame met exactly one
    // fate — injected loss, a HUB drop, a dead-end port, an RX-FIFO
    // overflow, or delivery into a CAB's receive FIFO.
    let hub_dropped = total(&snap, "hub/", "/dropped_frames");
    let rx = total(&snap, "node/", "/link/rx_frames");
    let fifo_dropped = total(&snap, "node/", "/link/rx_fifo_dropped_frames");
    assert_eq!(
        snap.get("net/frames_launched").unwrap(),
        snap.get("net/frames_lost_injected").unwrap()
            + snap.get("net/frames_dead_end").unwrap()
            + hub_dropped
            + rx
            + fifo_dropped,
    );
    // ... and the same holds for bytes, because a frame's wire length
    // is invariant across HUB hops.
    assert_eq!(
        snap.get("net/bytes_launched").unwrap(),
        snap.get("net/bytes_lost_injected").unwrap()
            + snap.get("net/bytes_dead_end").unwrap()
            + total(&snap, "hub/", "/dropped_bytes")
            + total(&snap, "node/", "/link/rx_bytes")
            + total(&snap, "node/", "/link/rx_fifo_dropped_bytes"),
    );

    // HUB boundary, per hub: everything received was forwarded or
    // dropped, and the per-port counters add up to the totals.
    for h in 0..world.hubs.len() {
        let g = |s: &str| snap.get(&format!("hub/{h}/{s}")).unwrap();
        assert_eq!(g("rx_frames"), g("forwarded_frames") + g("dropped_frames"), "hub {h}");
        assert_eq!(g("rx_bytes"), g("forwarded_bytes") + g("dropped_bytes"), "hub {h}");
        let port_tx = snap.sum_matching(&format!("hub/{h}/port/"), "/tx_frames");
        let port_bytes = snap.sum_matching(&format!("hub/{h}/port/"), "/tx_bytes");
        assert_eq!(port_tx, g("forwarded_frames"), "hub {h} port frame sum");
        assert_eq!(port_bytes, g("forwarded_bytes"), "hub {h} port byte sum");
        assert!(g("rx_frames") > 0, "hub {h} saw no traffic");
    }
    // the trunk carried traffic both ways, so each hub forwarded on
    // some port and recorded a backlog watermark
    assert!(total(&snap, "hub/", "/backlog_high_ns") > 0);

    // Mailbox boundary, per node: enqueued == dequeued + still queued.
    for i in 0..world.cabs.len() {
        let g = |s: &str| snap.get(&format!("node/{i}/mbox/{s}")).unwrap();
        assert_eq!(g("enqueued_msgs"), g("dequeued_msgs") + g("depth"), "node {i}");
        if g("depth") == 0 {
            assert_eq!(g("enqueued_bytes"), g("dequeued_bytes"), "node {i} bytes");
        }
        assert!(g("depth_high") >= 1, "node {i} never queued a message");
    }

    // CPU accounting: every CAB did work and the meters saw it.
    for i in 0..world.cabs.len() {
        let busy = snap.get(&format!("node/{i}/cab/cpu_busy_ns")).unwrap();
        assert!(busy > 0, "CAB {i} cpu_busy_ns is zero");
    }
}

#[test]
fn conservation_holds_under_injected_loss() {
    // Loss injection must show up in the ledger, not leak frames: the
    // global identity stays exact while RMP's retransmissions drive
    // the stream to completion.
    let config = Config { faults: FaultPlan { loss: 0.08, corrupt: 0.0 }, ..Default::default() };
    let (mut world, mut sim) = World::single_hub(config, 2);
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let total_bytes = 150_000u64;
    let (sink, _, received, done) = CabSink::new(sink_mbox, total_bytes);
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, 4096, total_bytes);
    world.cabs[0].fork_app(Box::new(streamer));
    // the sink thread reads the last message a context switch after its
    // ack crossed the fiber, so nothing is in flight at completion
    world.run_until_done(&mut sim, until(60), |_| done.get());
    assert!(done.get(), "RMP delivered only {} of {total_bytes}", received.get());

    let snap = world.metrics();
    let lost = snap.get("net/frames_lost_injected").unwrap();
    assert!(lost > 0, "loss injection never fired");
    assert_eq!(
        snap.get("net/frames_launched").unwrap(),
        lost + snap.get("net/frames_dead_end").unwrap()
            + total(&snap, "hub/", "/dropped_frames")
            + total(&snap, "node/", "/link/rx_frames")
            + total(&snap, "node/", "/link/rx_fifo_dropped_frames"),
    );
    assert_eq!(
        snap.get("net/bytes_launched").unwrap(),
        snap.get("net/bytes_lost_injected").unwrap()
            + snap.get("net/bytes_dead_end").unwrap()
            + total(&snap, "hub/", "/dropped_bytes")
            + total(&snap, "node/", "/link/rx_bytes")
            + total(&snap, "node/", "/link/rx_fifo_dropped_bytes"),
    );
    // the sender's observed retransmissions are visible in the snapshot
    assert!(snap.get("node/0/rmp/retransmits").unwrap() > 0);
    assert_eq!(snap.get("node/1/rmp/delivered").unwrap(), {
        let s = world.cabs[1].proto.rmp_rx.stats();
        s.delivered
    });
}

#[test]
fn per_link_fault_keys_are_complete_sorted_and_deterministic() {
    // A script touching every clause type must surface a full per-link
    // and per-node key set, in sorted order, byte-identical across runs.
    let down_from = SimTime::ZERO + SimDuration::from_millis(1);
    let script = FaultScript {
        links: vec![
            (
                LinkId::new(NodeRef::Cab(3), NodeRef::Hub(1)),
                LinkPlan { loss: 0.2, ..LinkPlan::default() },
            ),
            (
                LinkId::new(NodeRef::Hub(0), NodeRef::Hub(1)),
                LinkPlan {
                    corrupt: 0.1,
                    burst: Some(GilbertElliott::default()),
                    down: vec![(down_from, down_from + SimDuration::from_millis(5))],
                    ..LinkPlan::default()
                },
            ),
        ],
        outages: vec![NodeOutage {
            node: NodeRef::Cab(8),
            from: down_from,
            until: down_from + SimDuration::from_millis(5),
        }],
    };
    let run = || {
        let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
        world.install_fault_script(&mut sim, &script);
        let _handles = two_hub_pair_load(&mut world, 8 * 1024, 1024);
        world.run_until(&mut sim, until(30));
        world.metrics()
    };
    let snap = run();

    // every installed link plan publishes its whole counter family
    for label in ["cab3-hub1", "hub0-hub1"] {
        for suffix in [
            "frames_lost",
            "bytes_lost",
            "frames_corrupted",
            "frames_down_dropped",
            "bytes_down_dropped",
            "burst_entries",
        ] {
            let key = format!("net/link/{label}/{suffix}");
            assert!(snap.get(&key).is_some(), "missing per-link fault key {key}");
        }
    }
    for suffix in
        ["frames_down_dropped", "bytes_down_dropped", "fifo_flushed_frames", "fifo_flushed_bytes"]
    {
        let key = format!("net/node/cab8/{suffix}");
        assert!(snap.get(&key).is_some(), "missing per-node fault key {key}");
    }
    // links the script never named stay off the ledger
    assert!(
        snap.iter().all(|(k, _)| !k.starts_with("net/link/cab0-")),
        "unplanned link leaked into the fault ledger"
    );

    // sorted key order (the fixture diff story depends on it) …
    let keys: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "snapshot keys must iterate in sorted order");

    // … and the whole snapshot replays byte-identically
    assert_eq!(snap.to_json(), run().to_json());
}
