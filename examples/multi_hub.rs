//! The paper's production deployment: 26 hosts on 2 HUBs (§6: "the
//! prototype system consists of 2 HUBs and 26 hosts in full-time
//! use"), with multi-hop source routing through the trunk.
//!
//! Runs an all-pairs latency survey from host 0 and a trunk-crossing
//! ping from every host, then prints the latency split between
//! same-HUB and cross-HUB destinations.
//!
//!     cargo run -p nectar-examples --bin multi_hub

use nectar::cab::HostOpMode;
use nectar::config::Config;
use nectar::scenario::{CabEcho, CabPinger, Transport};
use nectar::sim::{SimDuration, SimTime};
use nectar::topology::Topology;
use nectar::world::World;

fn main() {
    let topo = Topology::two_hubs(26);
    let (mut world, mut sim) = World::new(Config::default(), topo);
    println!("deployment: 26 hosts, 2 HUBs, one trunk (paper §6)");
    println!();

    // an echo thread on every CAB
    let mut services = Vec::new();
    for i in 0..26 {
        let svc = world.cabs[i].shared.create_mailbox(false, HostOpMode::SharedMemory);
        world.cabs[i].fork_app(Box::new(CabEcho::new(Transport::Datagram, svc, 0)));
        services.push(svc);
    }
    // CAB 0 pings every other CAB, one destination at a time so the
    // trunk's contribution is not buried in scheduler contention
    let mut same_hub = Vec::new();
    let mut cross_hub = Vec::new();
    let mut deadline = SimTime::ZERO;
    for dst in 1..26u16 {
        let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let (p, rtts, done) =
            CabPinger::new(Transport::Datagram, (dst, services[dst as usize]), reply, 0, 32, 5);
        world.cabs[0].fork_app(Box::new(p));
        // kick CAB 0 so the new thread is scheduled
        deadline += SimDuration::from_millis(100);
        let at = sim.now();
        sim.at(at, |w, s| nectar::world::kick_cab(w, s, 0));
        world.run_until(&mut sim, deadline);
        assert!(done.get(), "ping to CAB {dst} did not finish");
        let m = rtts.borrow_mut().median().as_micros_f64();
        // interleaved attachment: even CABs on hub 0 with CAB 0
        if dst % 2 == 0 {
            same_hub.push(m);
        } else {
            cross_hub.push(m);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("  all 25 destinations answered");
    println!("  same-HUB  median RTT : {:>6.1} us over {} pairs", avg(&same_hub), same_hub.len());
    println!(
        "  cross-HUB median RTT : {:>6.1} us over {} pairs (one extra 700 ns HUB + trunk)",
        avg(&cross_hub),
        cross_hub.len()
    );
    println!();
    println!("  frames forwarded hub0: {:?}", world.hubs[0].stats());
    println!("  frames forwarded hub1: {:?}", world.hubs[1].stats());
    let delta = avg(&cross_hub) - avg(&same_hub);
    println!(
        "  trunk cost           : {delta:>6.2} us per roundtrip (2 extra HUB transits + fiber)"
    );
    assert!(delta > 0.0, "the trunk hop must cost something");
}
