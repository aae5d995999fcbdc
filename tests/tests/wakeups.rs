//! One live self-wake per node: simulator work tracks simulated work.
//!
//! Every kick cancels the node's pending self-wake and schedules one
//! replacement, so steady traffic must cost a steady number of events
//! per simulated second and leave a bounded queue — superseded wakeups
//! die in the arena instead of living on as extra poll chains.

use nectar::config::Config;
use nectar::scenario::{two_hub_pair_load, EchoServer, Pinger, SharedFlag, Transport};
use nectar::topology::Topology;
use nectar::world::{Sim, World};
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

const HOSTS: usize = 26;

fn twohub(bytes_per_pair: u64) -> (World, Sim, Vec<SharedFlag>) {
    let (mut world, sim) = World::new(Config::default(), Topology::two_hubs(HOSTS));
    let handles = two_hub_pair_load(&mut world, bytes_per_pair, 1024);
    (world, sim, handles.into_iter().map(|(_, done)| done).collect())
}

#[test]
fn saturating_load_costs_the_same_events_every_slice() {
    let (mut world, mut sim, _done) = twohub(u64::MAX / 2);
    let slice = SimDuration::from_millis(30);
    // a CAB, its host, and a share of a HUB: a handful of queued events
    // each (self-wake, doorbell, frames in flight), never thousands
    let pending_cap = 4 * (2 * HOSTS + 2);
    let mut per_slice = Vec::new();
    for _ in 0..10 {
        let before = sim.executed();
        world.run_for(&mut sim, slice);
        per_slice.push(sim.executed() - before);
        assert!(
            sim.pending() < pending_cap,
            "{} events pending at {}: stale wakeups are accumulating",
            sim.pending(),
            sim.now()
        );
    }
    // the first slice holds connection set-up; the second is steady state
    let steady = per_slice[1] as f64;
    for (i, &n) in per_slice.iter().enumerate().skip(1) {
        let ratio = n as f64 / steady;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "slice {i} executed {n} events, {ratio:.2}x slice 1: {per_slice:?}"
        );
    }
    assert!(sim.cancelled() > 0, "no superseded wakeup was ever cancelled");
}

#[test]
fn same_seed_runs_are_identical() {
    let run = || {
        let (mut world, mut sim, _done) = twohub(u64::MAX / 2);
        world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_millis(10));
        (world.metrics_json(), sim.executed(), sim.cancelled())
    };
    assert_eq!(run(), run());
}

/// A protocol deadline retired before it expires wakes nothing. After
/// one host request-response call the reply has retired the call's
/// retransmit deadline at interrupt level, so the client CAB has no
/// work left: no timer wake, no context switch, no CPU time.
#[test]
fn a_retired_deadline_wakes_nothing() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (echo, _) = EchoServer::new(Transport::ReqResp, svc, 0, false);
    world.hosts[1].spawn(Box::new(echo));
    let (ping, _, done) = Pinger::new(Transport::ReqResp, (1, svc), reply, 0, 32, 1, false);
    world.hosts[0].spawn(Box::new(ping));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(1), |_| done.get());
    assert!(done.get(), "the call never completed");
    let cab = &world.cabs[0];
    assert_eq!(cab.next_work(sim.now()), None, "the retired call's rto still wakes the CAB");
    let (switches, busy) = (cab.rt.ctx_switches, cab.cpu.busy());
    world.run_for(&mut sim, SimDuration::from_millis(20));
    let cab = &world.cabs[0];
    assert_eq!((cab.rt.ctx_switches, cab.cpu.busy()), (switches, busy), "an idle CAB ran");
}

#[test]
fn finite_load_drains_the_queue() {
    let (mut world, mut sim, done) = twohub(64 * 1024);
    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_secs(2));
    assert!(done.iter().all(|d| d.get()), "a stream did not finish");
    assert_eq!(sim.pending(), 0, "events left behind after every stream finished");
}
