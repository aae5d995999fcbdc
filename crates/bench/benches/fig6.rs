//! Figure 6: one-way host-to-host datagram latency breakdown.
//!
//! Paper anchors: ~163 µs total one-way; roughly 40 % spent in the
//! host–CAB interface (VME words at 1 µs each), 40 % in CAB-to-CAB
//! processing and the wire, and 20 % in the host creating and reading
//! the message. Legible stage fragments from the scan: 18 µs around
//! begin_put, 8 µs datalink, ~10 µs pass-message, 20 µs end_get.

use nectar::config::Config;
use nectar::scenario::{EchoServer, Pinger, Transport};
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

fn main() {
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);
    world.trace.set_enabled(true);
    let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (echo, _) = EchoServer::new(Transport::Datagram, svc, 0, false);
    world.hosts[1].spawn(Box::new(echo));
    // several pings; the breakdown below uses the LAST forward leg so
    // caches and scheduling are warm
    let (ping, rtts, done) = Pinger::new(Transport::Datagram, (1, svc), reply, 0, 32, 5, false);
    world.hosts[0].spawn(Box::new(ping));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(5), |_| done.get());
    assert!(done.get());

    // the forward leg of the last ping: from the pinger's final
    // host_begin_put (node 0x1000) to the echo server's host_end_get
    // (node 0x1001)
    let events = world.trace.events();
    let last_send_idx = events
        .iter()
        .rposition(|e| e.tag == "host_begin_put" && e.node == 0x1000)
        .expect("pinger sent");
    let start = events[last_send_idx].at;
    let leg: Vec<_> = events
        .iter()
        .skip(last_send_idx)
        .take_while(|e| e.tag != "host_end_get" || e.node != 0x1001)
        .collect();
    let end_get = events
        .iter()
        .skip(last_send_idx)
        .find(|e| e.tag == "host_end_get" && e.node == 0x1001)
        .expect("echo server read the message");

    println!("Figure 6: one-way host-to-host datagram latency breakdown (32-byte message)");
    println!();
    let mut prev = start;
    let mut iface_us = 0.0;
    let mut rows: Vec<(&str, u32, f64)> = Vec::new();
    for e in leg.iter().skip(1).map(|e| **e).chain(std::iter::once(*end_get)) {
        let delta = e.at.saturating_since(prev).as_micros_f64();
        rows.push((e.tag, e.node, delta));
        if e.tag == "host_end_put" || e.tag == "host_end_get" {
            iface_us += delta;
        }
        prev = e.at;
    }
    println!("{:<22} {:>8} {:>12}", "stage boundary", "node", "delta (us)");
    println!("{}", "-".repeat(46));
    for (tag, node, delta) in &rows {
        let who =
            if *node >= 0x1000 { format!("host{}", node - 0x1000) } else { format!("cab{node}") };
        println!("{tag:<22} {who:>8} {delta:>12.1}");
    }
    let total = end_get.at.saturating_since(start).as_micros_f64();
    println!("{}", "-".repeat(46));
    println!("{:<22} {:>8} {total:>12.1}", "TOTAL one-way", "");
    println!();
    // Bucket percentages in the paper's three groups. The host-side
    // stamped deltas mix application work (msg_setup) with VME bus
    // words; split them using the cost model.
    let msg_setup = nectar_host::HostCostModel::default().msg_setup.as_micros_f64();
    let host_deltas = iface_us; // host_end_put + host_end_get deltas
    let host_work = 2.0 * msg_setup;
    let host_iface = (host_deltas - host_work).max(0.0);
    let wire_and_cab = total - host_deltas;
    println!("buckets (paper: ~40% host-CAB interface, ~40% CAB+wire, ~20% host msg create/read):");
    println!("  host-CAB interface : {host_iface:>6.1} us ({:>4.1}%)", 100.0 * host_iface / total);
    println!(
        "  CAB + wire         : {wire_and_cab:>6.1} us ({:>4.1}%)",
        100.0 * wire_and_cab / total
    );
    println!("  host create/read   : {host_work:>6.1} us ({:>4.1}%)", 100.0 * host_work / total);
    println!();
    let median = rtts.borrow_mut().median().as_micros_f64();
    println!("roundtrip median over 5 pings: {median:.1} us (paper Table 1: 325 us)");
    println!("paper one-way total: ~163 us");
}
