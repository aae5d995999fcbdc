//! Shared experiment drivers for the benchmark harness.
//!
//! Each bench target (`table1`, `fig6`, `fig7`, `fig8`, `scalars`, the
//! ablations) prints the corresponding table/figure of the paper from
//! a fresh simulation. The functions here own the common world setup
//! so every bench measures through exactly the same code paths as the
//! tests and examples.

use nectar::config::Config;
use nectar::scenario::{
    CabEcho, CabPinger, CabRmpStreamer, CabSink, CabTcpListener, CabTcpStreamer, EchoServer,
    HostRmpStreamer, HostSink, HostTcpStreamer, Pinger, Transport,
};
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_sim::{SimDuration, SimTime};

/// Echo-server UDP port used by latency experiments.
pub const UDP_ECHO_PORT: u16 = 7;
/// TCP port used by throughput experiments.
pub const TCP_PORT: u16 = 5000;

/// Drop a metrics snapshot next to a figure/table result.
///
/// When `NECTAR_METRICS_DIR` is set, writes the world's observability
/// snapshot to `<dir>/<tag>.json` (creating the directory); the JSON
/// is deterministic, so re-running a bench with the same seed produces
/// byte-identical files. Without the variable this is a no-op, so the
/// measurement loops stay untouched.
pub fn emit_snapshot(tag: &str, world: &World) {
    let Ok(dir) = std::env::var("NECTAR_METRICS_DIR") else { return };
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("metrics: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, world.metrics_json()) {
        eprintln!("metrics: cannot write {}: {e}", path.display());
    }
}

/// Write a `BENCH_*.json` artifact into `$NECTAR_BENCH_DIR`, or the
/// workspace root when unset: `cargo bench` runs targets from
/// `crates/bench/`, which is not where the committed artifacts live.
/// A bench that cannot record its result has failed, so I/O errors
/// exit nonzero.
pub fn write_artifact(name: &str, json: &str) {
    let dir = std::env::var("NECTAR_BENCH_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into());
    let path = std::path::Path::new(&dir).join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("bench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The hang guard of a driver run: every driver stops when its
/// transfer completes, and asserts that it did before this deadline.
fn until(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Round-trip latency between two host processes (Table 1 column 1).
/// Returns the median RTT in microseconds.
pub fn host_rtt(config: Config, transport: Transport, size: usize, count: u32) -> f64 {
    let (mut world, mut sim) = World::single_hub(config, 2);
    let svc = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    let server = (1u16, transport.addr(svc, UDP_ECHO_PORT));
    let (echo, _) = EchoServer::new(transport, svc, UDP_ECHO_PORT, false);
    world.hosts[1].spawn(Box::new(echo));
    let (ping, rtts, done) = Pinger::new(transport, server, reply, 7001, size, count, false);
    world.hosts[0].spawn(Box::new(ping));
    world.run_until_done(&mut sim, until(60), |_| done.get());
    assert!(done.get(), "{transport:?} host ping-pong did not finish");
    emit_snapshot(&format!("host_rtt_{transport:?}_{size}"), &world);
    let m = rtts.borrow_mut().median().as_micros_f64();
    m
}

/// Round-trip latency between two CAB-resident threads (Table 1
/// column 2). Returns the median RTT in microseconds.
pub fn cab_rtt(config: Config, transport: Transport, size: usize, count: u32) -> f64 {
    let (mut world, mut sim) = World::single_hub(config, 2);
    let svc = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    world.cabs[1].fork_app(Box::new(CabEcho::new(transport, svc, UDP_ECHO_PORT)));
    let server = (1u16, transport.addr(svc, UDP_ECHO_PORT));
    let (ping, rtts, done) = CabPinger::new(transport, server, reply, 9000, size, count);
    world.cabs[0].fork_app(Box::new(ping));
    world.run_until_done(&mut sim, until(60), |_| done.get());
    assert!(done.get(), "{transport:?} CAB ping-pong did not finish");
    emit_snapshot(&format!("cab_rtt_{transport:?}_{size}"), &world);
    let m = rtts.borrow_mut().median().as_micros_f64();
    m
}

/// Which Figure 7/8 series to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamProto {
    Rmp,
    Tcp,
    TcpNoChecksum,
}

/// CAB-to-CAB streaming throughput at one message size (Figure 7).
/// Returns Mbit/s of delivered payload.
pub fn cab_throughput(mut config: Config, proto: StreamProto, msg_size: usize, total: u64) -> f64 {
    if proto == StreamProto::TcpNoChecksum {
        config.tcp.compute_checksum = false;
    }
    let (mut world, mut sim) = World::single_hub(config, 2);
    let (meter, received, done) = match proto {
        StreamProto::Rmp => {
            let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
            let src_mbox = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
            let (sink, meter, received, done) = CabSink::new(sink_mbox, total);
            world.cabs[1].fork_app(Box::new(sink));
            let (streamer, _) = CabRmpStreamer::new((1, sink_mbox), src_mbox, msg_size, total);
            world.cabs[0].fork_app(Box::new(streamer));
            (meter, received, done)
        }
        StreamProto::Tcp | StreamProto::TcpNoChecksum => {
            let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
            let data = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
            world.cabs[1].fork_app(Box::new(CabTcpListener::new(TCP_PORT, accept, data)));
            let (sink, meter, received, done) = CabSink::new(data, total);
            world.cabs[1].fork_app(Box::new(sink));
            let (streamer, _) = CabTcpStreamer::new(1, TCP_PORT, msg_size, total);
            world.cabs[0].fork_app(Box::new(streamer));
            (meter, received, done)
        }
    };
    world.run_until_done(&mut sim, until(600), |_| done.get());
    assert!(done.get(), "{proto:?} sink got {}/{total} at size {msg_size}", received.get());
    emit_snapshot(&format!("cab_throughput_{proto:?}_{msg_size}"), &world);
    let m = meter.borrow().mbits_per_sec_to_last();
    m
}

/// Host-to-host streaming throughput at one message size (Figure 8).
pub fn host_throughput(mut config: Config, proto: StreamProto, msg_size: usize, total: u64) -> f64 {
    if proto == StreamProto::TcpNoChecksum {
        config.tcp.compute_checksum = false;
    }
    let (mut world, mut sim) = World::single_hub(config, 2);
    let (meter, received, done) = match proto {
        StreamProto::Rmp => {
            let sink_mbox = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
            let src_mbox = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
            let (sink, meter, received, done) = HostSink::new(sink_mbox, None, total);
            world.hosts[1].spawn(Box::new(sink));
            let (streamer, _) = HostRmpStreamer::new((1, sink_mbox), src_mbox, msg_size, total);
            world.hosts[0].spawn(Box::new(streamer));
            (meter, received, done)
        }
        StreamProto::Tcp | StreamProto::TcpNoChecksum => {
            let accept = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
            let data = world.cabs[1].shared.create_mailbox(true, HostOpMode::SharedMemory);
            // server side: listen via the control mailbox from the host
            let listen =
                nectar_cab::reqs::TcpCtl::Listen { port: TCP_PORT, accept_mbox: accept }.encode();
            let msg =
                world.cabs[1].shared.begin_put(nectar_cab::reqs::MB_TCP_CTL, listen.len()).unwrap();
            world.cabs[1].shared.msg_write(&msg, 0, &listen);
            world.cabs[1].shared.end_put(nectar_cab::reqs::MB_TCP_CTL, msg);
            let (sink, meter, received, done) = HostSink::new(data, Some(accept), total);
            world.hosts[1].spawn(Box::new(sink));
            let src_mbox = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
            let (streamer, _) = HostTcpStreamer::new(1, TCP_PORT, src_mbox, msg_size, total);
            world.hosts[0].spawn(Box::new(streamer));
            (meter, received, done)
        }
    };
    world.run_until_done(&mut sim, until(600), |_| done.get());
    assert!(done.get(), "host {proto:?} sink got {}/{total}", received.get());
    emit_snapshot(&format!("host_throughput_{proto:?}_{msg_size}"), &world);
    let m = meter.borrow().mbits_per_sec_to_last();
    m
}

/// The message-size sweep of Figures 7 and 8.
pub fn size_sweep() -> Vec<usize> {
    vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
}

/// Scale the transferred volume to the message size so small-message
/// points finish in reasonable wall time while large ones smooth out.
pub fn volume_for(msg_size: usize) -> u64 {
    (msg_size as u64 * 200).clamp(100_000, 4_000_000)
}

/// Pretty-print one figure series.
pub fn print_series(label: &str, values: &[f64]) {
    print!("{label:>16} |");
    for v in values {
        print!(" {v:>7.2}");
    }
    println!();
}

pub fn print_size_header(sizes: &[usize]) {
    print!("{:>16} |", "message bytes");
    for s in sizes {
        print!(" {s:>7}");
    }
    println!();
    println!("{}", "-".repeat(18 + sizes.len() * 8));
}
