//! In-network collective suite (ISSUE 10): tree barrier, reduction
//! combining and fan-out multicast, run end-to-end over real fabrics.
//!
//! What is pinned here, beyond "the answer comes out":
//!
//! 1. **Interior combining** — the root's engine receives exactly one
//!    Arrive per *direct child* per epoch, not one per descendant.
//!    That stat is the proof that reduction work happened inside the
//!    fabric rather than at the root.
//! 2. **Conservation under fan-out** — every multicast replica is a
//!    real datalink transmit, so the launched-frames ledger must still
//!    balance against the usual sinks with replication in play.
//! 3. **Loss recovery** — a barrier fleet under uniform frame loss
//!    still completes every epoch with the right value, and the
//!    engine's retransmit/straggler counters show the recovery path
//!    actually ran.

use nectar::collective::{deploy_barrier_fleet, CollectiveGroup, MulticastRoot, MulticastSink};
use nectar::config::Config;
use nectar::fault::{FaultScript, LinkPlan};
use nectar::scenario::two_hub_pair_load;
use nectar::topology::Topology;
use nectar::world::World;
use nectar_sim::{MetricsSnapshot, SimDuration, SimTime};
use nectar_wire::collective::CombineOp;

fn deadline(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// The frame-conservation identity from the chaos harness, including
/// the fault-engine sink terms (zero when no script is installed).
fn assert_frames_conserved(snap: &MetricsSnapshot) {
    let g = |k: &str| snap.get(k).unwrap_or(0);
    let launched = g("net/frames_launched");
    let sinks = g("net/frames_lost_injected")
        + g("net/frames_dead_end")
        + g("net/fault/frames_down_dropped")
        + snap.sum_matching("hub/", "/dropped_frames")
        + snap.sum_matching("node/", "/link/rx_frames")
        + snap.sum_matching("node/", "/link/rx_fifo_dropped_frames");
    assert_eq!(launched, sinks, "frame conservation broke under collective traffic");
}

/// A 16-member 4-ary reduction tree across both HUBs: every member
/// contributes `i + 1` for three epochs of Sum. Each epoch must
/// complete with Σ(1..=16) = 136 at every member, and the root must
/// have combined — it hears from its direct children only.
#[test]
fn tree_barrier_sums_across_two_hubs() {
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    let members: Vec<u16> = (0..16).collect();
    let group = CollectiveGroup::tree(5, members, 4);
    let epochs = 3u32;
    let handles =
        deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, epochs, |i| i as u64 + 1);

    world.run_until(&mut sim, deadline(200));

    for (i, h) in handles.iter().enumerate() {
        assert!(!h.failed.get(), "member {i} failed");
        assert!(h.done.get(), "member {i} never finished");
        assert_eq!(h.completions.get(), epochs as u64, "member {i} epoch count");
        assert_eq!(h.last_value.get(), 136, "member {i} final reduction value");
    }

    // interior combining: the root hears one Arrive per direct child
    // per epoch — 4 children × 3 epochs — never one per descendant
    // (15 × 3 would mean the fabric combined nothing).
    let root = group.members[0] as usize;
    let root_children = group.topo_of(0).1.len() as u64;
    assert_eq!(root_children, 4);
    let root_stats = world.cabs[root].proto.coll().stats();
    assert_eq!(
        root_stats.arrives_rx,
        root_children * epochs as u64,
        "root received uncombined arrives"
    );

    // aggregated metrics appear once any CAB enables the engine, and
    // the ledger still balances with barrier traffic in flight
    let snap = world.metrics();
    // one Completed per member per epoch — every engine notifies its
    // local member when the release propagates down
    assert_eq!(
        snap.get("net/collective/completions"),
        Some(group.members.len() as u64 * epochs as u64)
    );
    assert_eq!(snap.get("net/collective/failures"), Some(0));
    assert!(snap.get("net/collective/arrives_rx").unwrap_or(0) > 0);
    assert_frames_conserved(&snap);
}

/// Min and Max reductions over disjoint member sets of the same world:
/// each group's engine state is keyed by group id, so two fleets on
/// disjoint CABs run concurrently without cross-talk.
#[test]
fn min_and_max_reductions_pick_the_extremes() {
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    let min_group = CollectiveGroup::tree(1, (0..8).collect(), 2);
    let max_group = CollectiveGroup::tree(2, (8..16).collect(), 2);
    let min_h = deploy_barrier_fleet(&mut world, &min_group, CombineOp::Min, 2, |i| i as u64 + 7);
    let max_h = deploy_barrier_fleet(&mut world, &max_group, CombineOp::Max, 2, |i| i as u64 + 7);

    world.run_until(&mut sim, deadline(200));

    for (i, h) in min_h.iter().enumerate() {
        assert!(h.done.get() && !h.failed.get(), "min member {i} incomplete");
        assert_eq!(h.last_value.get(), 7, "min member {i}");
    }
    for (i, h) in max_h.iter().enumerate() {
        assert!(h.done.get() && !h.failed.get(), "max member {i} incomplete");
        assert_eq!(h.last_value.get(), 14, "max member {i}");
    }
    assert_frames_conserved(&world.metrics());
}

/// Fan-out multicast through a 16-member tree: the root pushes 32
/// frames of 256 B; every other member must see all 32, each replica
/// is a real transmit, and the ledger balances with replication in
/// play. Replicas outnumber the root's own sends — the proof that
/// interior CABs did the fan-out, not the source.
#[test]
fn multicast_fans_out_through_interior_cabs() {
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    let members: Vec<u16> = (0..16).collect();
    let group = CollectiveGroup::tree(9, members, 4);
    let mboxes = group.deploy(&mut world);

    const FRAMES: u32 = 32;
    const SIZE: usize = 256;
    let (root, root_done) = MulticastRoot::new(group.group, SIZE, FRAMES);
    world.cabs[group.members[0] as usize].fork_app(Box::new(root));

    let mut sinks = Vec::new();
    for (i, (&m, &mb)) in group.members.iter().zip(&mboxes).enumerate().skip(1) {
        let (sink, received, bytes, done) = MulticastSink::new(group.group, mb, FRAMES as u64);
        world.cabs[m as usize].fork_app(Box::new(sink));
        sinks.push((i, received, bytes, done));
    }

    world.run_until(&mut sim, deadline(200));

    assert!(root_done.get(), "root never finished sending");
    for (i, received, bytes, done) in &sinks {
        assert!(done.get(), "member {i} did not drain the multicast");
        assert_eq!(received.get(), FRAMES as u64, "member {i} delivery count");
        assert_eq!(bytes.get(), FRAMES as u64 * SIZE as u64, "member {i} delivered bytes");
    }

    let snap = world.metrics();
    // one replica per tree edge per frame: 15 edges × 32 frames
    assert_eq!(snap.get("net/collective/replicas"), Some(15 * FRAMES as u64));
    assert_eq!(snap.get("net/collective/delivers"), Some(15 * FRAMES as u64));
    // the source itself only transmits to its direct children; the
    // other 11 edges per frame are interior fan-out
    let src_stats = world.cabs[group.members[0] as usize].proto.coll().stats();
    assert_eq!(src_stats.replicas, 4 * FRAMES as u64);
    assert_frames_conserved(&snap);
}

/// A barrier fleet under 2% uniform frame loss on every fiber: the
/// per-epoch retransmit timer and the root's straggler re-ack must
/// carry every member through five epochs with the exact sum, and the
/// recovery counters prove loss actually hit collective traffic.
#[test]
fn barrier_completes_under_frame_loss() {
    let topo = Topology::two_hubs(26);
    let heal = SimTime::ZERO + SimDuration::from_millis(400);
    let script = FaultScript::uniform(
        &topo,
        LinkPlan { loss: 0.02, until: Some(heal), ..LinkPlan::default() },
    );
    let (mut world, mut sim) = World::new(Config::default(), topo);
    world.install_fault_script(&mut sim, &script);

    let group = CollectiveGroup::tree(3, (0..16).collect(), 4);
    let epochs = 5u32;
    let handles =
        deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, epochs, |i| i as u64 + 1);

    world.run_until(&mut sim, deadline(2_000));

    for (i, h) in handles.iter().enumerate() {
        assert!(!h.failed.get(), "member {i} gave up under 2% loss");
        assert!(h.done.get(), "member {i} stuck under 2% loss");
        assert_eq!(h.last_value.get(), 136, "member {i} reduced wrong value under loss");
    }

    let snap = world.metrics();
    let retrans = snap.get("net/collective/arrive_retransmits").unwrap_or(0)
        + snap.get("net/collective/straggler_resends").unwrap_or(0)
        + snap.get("net/collective/duplicate_arrives").unwrap_or(0)
        + snap.get("net/collective/duplicate_releases").unwrap_or(0);
    assert!(
        snap.get("net/frames_lost_injected").unwrap_or(0) > 0,
        "fault script never fired — loss test proves nothing"
    );
    assert!(retrans > 0, "no recovery machinery ran despite injected loss");
    assert_eq!(
        snap.get("net/collective/completions"),
        Some(group.members.len() as u64 * epochs as u64)
    );
    assert_frames_conserved(&snap);
}

/// Chaos composition: a barrier fleet sharing the fabric with the
/// pairwise RMP/TCP load, 2% uniform frame loss on every fiber and the
/// conformance oracle armed. The barrier must complete every epoch
/// with the exact sum, the streams must deliver, and the ledger must
/// balance with collective replication and injected loss as explicit
/// terms.
#[test]
fn collective_barrier_composes_with_unicast_load_under_loss() {
    const BYTES_PER_PAIR: u64 = 4 * 1024;
    let topo = Topology::two_hubs(26);
    let heal = SimTime::ZERO + SimDuration::from_millis(400);
    let script = FaultScript::uniform(
        &topo,
        LinkPlan { loss: 0.02, until: Some(heal), ..LinkPlan::default() },
    );
    let mut config = Config { oracle: Some(true), ..Config::default() };
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;
    let (mut world, mut sim) = World::new(config, topo);
    world.install_fault_script(&mut sim, &script);
    let streams = two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024);
    let group = CollectiveGroup::tree(3, (0..16).collect(), 4);
    let members = deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, 5, |i| i as u64 + 1);

    world.run_until(&mut sim, deadline(10_000));

    for (i, h) in members.iter().enumerate() {
        assert!(h.done.get(), "member {i} stuck under chaos");
        assert!(!h.failed.get(), "member {i} gave up");
        assert_eq!(h.last_value.get(), 136, "member {i} reduced wrong value under chaos");
    }
    for (i, (received, _)) in streams.iter().enumerate() {
        assert_eq!(received.get(), BYTES_PER_PAIR, "stream {i} short under chaos");
    }
    let snap = world.metrics();
    assert!(snap.get("net/frames_lost_injected").unwrap_or(0) > 0, "loss never fired");
    assert!(snap.get("net/collective/replicas").unwrap_or(0) > 0, "no fan-out in the composed run");
    assert_frames_conserved(&snap);
}

/// Same seed, same fleet ⇒ byte-identical metrics JSON across a fresh
/// rerun — the collective engine draws no hidden entropy.
#[test]
fn collective_runs_are_deterministic() {
    let run = || {
        let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
        let group = CollectiveGroup::tree(5, (0..16).collect(), 4);
        let _h = deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, 3, |i| i as u64 + 1);
        world.run_until(&mut sim, deadline(200));
        (world.metrics_json(), sim.event_digest())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.1, b.1, "same-seed collective rerun executed a different schedule");
    assert!(a.0 == b.0, "same-seed collective rerun diverged");
}
