//! The paper drivers stop when their transfer does: the numbers they
//! return are the ones a run to the old fixed deadline returned, and the
//! snapshot they leave describes the transfer, not an idle tail of host
//! polling.
//!
//! One test, run in order: it sets `NECTAR_METRICS_DIR`, which every
//! driver call in the process reads.

use nectar::config::Config;
use nectar::scenario::Transport;
use nectar_bench::{cab_rtt, cab_throughput, host_rtt, host_throughput, volume_for, StreamProto};

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
    // Table 1's CAB column, and with it the slowest of the eight medians
    let mut slowest = host_dgram;
    for (t, cab_us) in [
        (Transport::Datagram, 142.6),
        (Transport::Rmp, 210.6),
        (Transport::ReqResp, 173.6),
        (Transport::Udp, 405.0),
    ] {
        assert_eq!(cab_rtt(config, t, 32, 100), cab_us, "{t:?}");
        slowest = slowest.max(host_rtt(config, t, 32, 100));
    }
    assert_eq!(slowest, 484.5);
    // the Figure 7 plateaus (print as 88.68 and 49.35)
    for (proto, mbps) in
        [(StreamProto::Rmp, 88.67645892773686), (StreamProto::Tcp, 49.34856148898079)]
    {
        assert_eq!(cab_throughput(config, proto, 8192, volume_for(8192)), mbps, "{proto:?}");
    }

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
