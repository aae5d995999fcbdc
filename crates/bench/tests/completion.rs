//! The paper drivers stop when their transfer does: the numbers they
//! return are the ones a run to the old fixed deadline returned, and the
//! snapshot they leave describes the transfer, not an idle tail of host
//! polling.
//!
//! One test, run in order: it sets `NECTAR_METRICS_DIR`, which every
//! driver call in the process reads.

use nectar::config::Config;
use nectar::scenario::Transport;
use nectar_bench::{cab_rtt, host_rtt, host_throughput, volume_for, StreamProto};

#[test]
fn drivers_stop_at_completion_and_the_paper_numbers_do_not_move() {
    let config = Config::default();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("completion-metrics");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("NECTAR_METRICS_DIR", &dir);
    let host_dgram = host_rtt(config, Transport::Datagram, 32, 100);
    std::env::remove_var("NECTAR_METRICS_DIR");

    // Table 1's headline and the Figure 8 RMP plateau, to the bit
    assert_eq!(host_dgram, 342.0);
    assert_eq!(
        host_throughput(config, StreamProto::Rmp, 8192, volume_for(8192)),
        31.32890667202073
    );
    // the slowest of the eight Table 1 medians
    let mut slowest = host_dgram.max(cab_rtt(config, Transport::Datagram, 32, 100));
    for t in [Transport::Rmp, Transport::ReqResp, Transport::Udp] {
        slowest = slowest.max(host_rtt(config, t, 32, 100)).max(cab_rtt(config, t, 32, 100));
    }
    assert_eq!(slowest, 484.5);

    // The echo server's host polls until the world stops. A hundred
    // 342 µs round trips are 34 ms; run to the 60 s hang guard, its CPU
    // reads 60 s busy.
    let snapshot = std::fs::read_to_string(dir.join("host_rtt_Datagram_32.json"))
        .expect("the driver wrote its snapshot");
    let busy_ns: u64 = snapshot
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"node/1/host/cpu_busy_ns\": "))
        .expect("snapshot has the echo host's CPU meter")
        .trim_end_matches(',')
        .parse()
        .expect("metrics are integers");
    assert!(
        busy_ns < 100_000_000,
        "echo host busy for {busy_ns} ns: the world ran on past the pings"
    );
}
