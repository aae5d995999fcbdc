//! Circuit switching through the HUB controller (§2.1: "commands that
//! the CABs use to set up both packet-switching and circuit-switching
//! connections"), exercised at the world level.

use nectar::config::Config;
use nectar::scenario::{CabEcho, CabPinger, Transport};
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_hub::{HubCommand, HubReply};
use nectar_sim::{SimDuration, SimTime};

#[test]
fn circuit_reduces_hub_transit_latency() {
    // Baseline: packet-switched ping between CABs 0 and 1.
    let rtt = |with_circuit: bool| {
        let (mut world, mut sim) = World::single_hub(Config::default(), 2);
        if with_circuit {
            // pin both directions of the 0<->1 path through the crossbar
            assert_eq!(
                world.hubs[0].execute(HubCommand::OpenCircuit { in_port: 0, out_port: 1 }),
                HubReply::Ok
            );
            assert_eq!(
                world.hubs[0].execute(HubCommand::OpenCircuit { in_port: 1, out_port: 0 }),
                HubReply::Ok
            );
        }
        let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
        world.cabs[1].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
        let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let (p, rtts, done) = CabPinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 20);
        world.cabs[0].fork_app(Box::new(p));
        world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(10), |_| done.get());
        assert!(done.get());
        let m = rtts.borrow_mut().median().as_micros_f64();
        (m, world.hubs[0].stats().forwarded, world.hubs[0].stats().forwarded_circuit)
    };

    let (packet_rtt, fwd, circ) = rtt(false);
    assert!(fwd > 0 && circ == 0);
    let (circuit_rtt, fwd2, circ2) = rtt(true);
    assert_eq!(fwd2, 0, "all traffic must ride the circuit");
    assert!(circ2 > 0);
    // circuit transit (100 ns) beats packet setup (700 ns) per transit:
    // 1.2 us per roundtrip
    let saved = packet_rtt - circuit_rtt;
    assert!(
        (0.5..3.0).contains(&saved),
        "circuit should save ~1.2 us per RTT; packet={packet_rtt} circuit={circuit_rtt}"
    );
}

#[test]
fn circuit_blocks_unrelated_packet_traffic_on_that_output() {
    // three CABs; a circuit from 2 to 1 reserves output port 1, so
    // packet traffic 0 -> 1 is refused at the HUB (backlog drop)
    let (mut world, mut sim) = World::single_hub(Config::default(), 3);
    assert_eq!(
        world.hubs[0].execute(HubCommand::OpenCircuit { in_port: 2, out_port: 1 }),
        HubReply::Ok
    );
    let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (p, _, done) = CabPinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 1);
    world.cabs[0].fork_app(Box::new(p));
    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_secs(1));
    assert!(!done.get(), "datagram should be dropped while the circuit holds the port");
    assert!(world.stats.frames_hub_dropped > 0);
    // closing the circuit restores packet switching
    assert_eq!(world.hubs[0].execute(HubCommand::CloseCircuit { in_port: 2 }), HubReply::Ok);
    // a fresh reply mailbox: the first pinger still blocks on the old one
    let reply2 = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (p2, _, done2) = CabPinger::new(Transport::Datagram, (1, svc), reply2, 0, 32, 1);
    world.cabs[0].fork_app(Box::new(p2));
    let t = sim.now();
    sim.at(t, |w, s| nectar::world::kick_cab(w, s, 0));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(2), |_| done2.get());
    assert!(done2.get(), "packet switching must work again after CloseCircuit");
}
