//! Quickstart: the five-minute tour of the Nectar reproduction.
//!
//! Builds a two-host network, sends a reliable message from host 0 to
//! a mailbox on CAB 1, makes a remote procedure call, and prints what
//! happened — the basic Nectarine workflow of §3.5.
//!
//!     cargo run -p nectar-examples --bin quickstart

use nectar::cab::HostOpMode;
use nectar::config::Config;
use nectar::scenario::{EchoServer, Pinger, Transport};
use nectar::sim::{SimDuration, SimTime};
use nectar::world::World;

fn main() {
    // 1. Build the world: two hosts, each behind a CAB, one 16x16 HUB.
    let (mut world, mut sim) = World::single_hub(Config::default(), 2);

    // 2. Create mailboxes: a service mailbox on CAB 1 (host-readable so
    //    the host process on host 1 can consume from it) and a reply
    //    mailbox on CAB 0.
    let service = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);

    // 3. Host 1 runs an echo server on the service mailbox; host 0
    //    makes 20 request-response (RPC) calls through it and measures
    //    round trips.
    let (echo, echoed) = EchoServer::new(Transport::ReqResp, service, 0, false);
    world.hosts[1].spawn(Box::new(echo));
    let (pinger, rtts, done) =
        Pinger::new(Transport::ReqResp, (1, service), reply, 0, 64, 20, false);
    world.hosts[0].spawn(Box::new(pinger));

    // 4. Run until the pinger finishes. The echo server polls its
    //    mailbox forever (§3.2), so the event queue never drains; the
    //    two seconds are only a guard against a hang.
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(2), |_| done.get());

    // 5. Report.
    assert!(done.get(), "the pinger should have finished");
    let mut rtts = rtts.borrow_mut();
    println!("nectar quickstart");
    println!("  remote procedure calls completed : 20");
    println!("  requests served by host 1        : {}", echoed.get());
    println!("  median round trip                : {}", rtts.median());
    println!("  min / max                        : {} / {}", rtts.min(), rtts.max());
    println!();
    println!("the paper's abstract promises RPC under 500 us between host");
    println!("processes; this run measured {}.", rtts.median());

    // 6. The observability snapshot: every counter, CPU meter and
    //    queue high-watermark in the installation, as deterministic
    //    JSON (same seed => byte-identical output).
    println!();
    println!("metrics snapshot:");
    print!("{}", world.metrics_json());
}
