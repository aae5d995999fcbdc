//! Figure 8: host-to-host throughput vs message size, plus the two
//! §5.1/§6.3 comparison points.
//!
//! Paper anchors: both protocols flatten against the ~30 Mbit/s VME
//! bus; TCP/IP tops out ≈24 Mbit/s, RMP ≈28 Mbit/s. As a simple
//! network device (host-resident TCP/IP) the same hardware manages
//! only 6.4 Mbit/s, and the hosts' own 10 Mbit/s Ethernet does
//! 7.2 Mbit/s because it bypasses the VME bus.

use nectar::config::Config;
use nectar_bench::{
    ethernet_throughput, host_throughput, netdev_mode_throughput, print_series, print_size_header,
    size_sweep, volume_for, StreamProto,
};

fn main() {
    let sizes = size_sweep();
    println!("Figure 8: host-to-host throughput (Mbit/s) vs message size");
    println!();
    print_size_header(&sizes);
    for (proto, label) in [(StreamProto::Tcp, "TCP/IP"), (StreamProto::Rmp, "RMP")] {
        let vals: Vec<f64> = sizes
            .iter()
            .map(|&s| host_throughput(Config::default(), proto, s, volume_for(s)))
            .collect();
        print_series(label, &vals);
    }
    println!();
    println!("comparison points (8 KiB-class transfers):");
    let nd = netdev_mode_throughput();
    println!("  CAB as network device (host TCP/IP): {nd:>5.1} Mbit/s   (paper: 6.4)");
    let eth = ethernet_throughput();
    println!("  on-board 10 Mbit/s Ethernet:         {eth:>5.1} Mbit/s   (paper: 7.2)");
    println!();
    println!("paper anchors: TCP max ~24, RMP ~28, both VME-limited (~30 Mbit/s)");
}
