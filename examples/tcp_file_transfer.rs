//! Bulk TCP/IP transfer between two host processes, with optional
//! fiber loss injection to exercise retransmission, and end-to-end
//! goodput reporting — the protocol-engine mode of §5.2.
//!
//!     cargo run -p nectar-examples --bin tcp_file_transfer -- --loss 0.01 --kib 512

use nectar::cab::reqs::TcpCtl;
use nectar::cab::HostOpMode;
use nectar::config::Config;
use nectar::scenario::{HostSink, HostTcpStreamer};
use nectar::sim::{SimDuration, SimTime};
use nectar::world::World;
use nectar_examples::arg;

fn main() {
    let loss: f64 = arg("--loss", 0.0);
    let kib: u64 = arg("--kib", 256);
    let total = kib * 1024;

    let mut config = Config::default();
    config.faults.loss = loss;
    let (mut world, mut sim) = World::single_hub(config, 2);

    // server side: listen on port 5000, deliver accepted-connection
    // data into a host-readable mailbox
    let accept = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let data = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let listen = TcpCtl::Listen { port: 5000, accept_mbox: accept }.encode();
    let msg = world.cabs[1].shared.begin_put(nectar::cab::reqs::MB_TCP_CTL, listen.len()).unwrap();
    world.cabs[1].shared.msg_write(&msg, 0, &listen);
    world.cabs[1].shared.end_put(nectar::cab::reqs::MB_TCP_CTL, msg);

    let (sink, meter, received, done) = HostSink::new(data, Some(accept), total);
    world.hosts[1].spawn(Box::new(sink));

    let src = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let (streamer, _) = HostTcpStreamer::new(1, 5000, src, 8192, total);
    world.hosts[0].spawn(Box::new(streamer));

    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(300), |_| done.get());

    println!("tcp file transfer ({kib} KiB, fiber loss {:.2}%)", loss * 100.0);
    println!("  delivered    : {} of {} bytes", received.get(), total);
    println!("  goodput      : {:.1} Mbit/s", meter.borrow().mbits_per_sec_to_last());
    println!("  frames lost  : {}", world.stats.frames_lost_injected);
    let sender = &world.cabs[0];
    for id in sender.proto.tcp_conns.keys() {
        if let Some(sock) = sender.proto.tcp.socket(*id) {
            let st = sock.stats();
            println!(
                "  tcp sender   : {} segs out, {} retransmits, {} fast retransmits, {} timeouts",
                st.segs_out, st.retransmits, st.fast_retransmits, st.timeouts
            );
        }
    }
    assert!(done.get(), "transfer did not complete");
    println!("  integrity    : complete in-order stream received");
}
