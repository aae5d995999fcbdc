//! Figure 7: CAB-to-CAB throughput vs message size.
//!
//! Series: TCP/IP, TCP without software checksum, and the Nectar
//! reliable message protocol (RMP). Paper anchors: RMP reaches ≈90 of
//! the 100 Mbit/s fiber at 8 KiB; TCP w/o checksum is close to RMP;
//! TCP/IP is roughly halved by the software checksum; throughput
//! doubles with message size up to ~256 bytes.

use nectar::config::Config;
use nectar_bench::{
    cab_throughput, print_series, print_size_header, size_sweep, volume_for, StreamProto,
};

fn main() {
    let sizes = size_sweep();
    println!("Figure 7: CAB-to-CAB throughput (Mbit/s) vs message size");
    println!();
    print_size_header(&sizes);
    // the fast-path RMP window: same protocol, 8 messages in flight
    let mut windowed = Config::default();
    windowed.rmp.window = 8;
    for (proto, cfg, label) in [
        (StreamProto::Tcp, Config::default(), "TCP/IP"),
        (StreamProto::TcpNoChecksum, Config::default(), "TCP w/o checksum"),
        (StreamProto::Rmp, Config::default(), "RMP"),
        (StreamProto::Rmp, windowed, "RMP window=8"),
    ] {
        let vals: Vec<f64> =
            sizes.iter().map(|&s| cab_throughput(cfg, proto, s, volume_for(s))).collect();
        print_series(label, &vals);
    }
    println!();
    println!("paper anchors: RMP(8KiB) ~90; TCP ~= RMP/2 at large sizes; doubling up to 256B");
}
