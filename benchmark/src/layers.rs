//! Per-layer metrics derived from a rep: the always-on public counters
//! (`World::metrics()`, the scheduler's executed/cancelled/pending)
//! turned into the ratios README.md lists. Layer = crate.

use crate::workloads::Rep;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The estimated split of a run's host time: each in-run count times
/// the probed unit cost of the function it counts (`cost` looks a probe
/// up by name), as a share of the run's wall time. Estimates: the probes
/// run hot in a tight loop, the simulator does not.
pub fn est_wall_shares(rep: &Rep, cost: impl Fn(&str) -> f64, run_s: f64) -> Vec<(String, f64)> {
    let r = &rep.rollup;
    let kib = |bytes: u64| bytes as f64 / 1024.0;
    let share = |ns: f64| ns / (run_s * 1e9);
    let sim = share(rep.events as f64 * cost("sim.queue_ns_per_event"));
    // CRC-32 runs over every frame launched (built) and received (checked),
    // the software checksum over TCP payload out and in
    let wire = share(
        kib(r.sum("net/bytes_launched") + r.sum("node/link/rx_bytes"))
            * cost("wire.crc32_ns_per_kib")
            + kib(r.sum("node/tcp/bytes_out") + r.sum("node/tcp/bytes_in"))
                * cost("wire.cksum_ns_per_kib"),
    );
    let hub = share(r.sum("hub/forwarded_frames") as f64 * cost("hub.frame_arrival_ns"));
    let stack = share(
        r.sum("node/tcp/segs_out") as f64 * cost("stack.tcp_ns_per_segment")
            + r.sum("node/rmp/fragments_sent") as f64 * cost("stack.rmp_ns_per_msg"),
    );
    [
        ("sim.est_wall_share", sim),
        ("wire.est_wall_share", wire),
        ("hub.est_wall_share", hub),
        ("stack.est_wall_share", stack),
        // CAB and host step logic, which outside measurement cannot split
        ("core.unattributed_wall_share", 1.0 - sim - wire - hub - stack),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

/// Every simulated-clock per-layer metric of one rep, by name. Values
/// the workload cannot observe from outside stay zero.
pub fn in_run(rep: &Rep) -> Vec<(String, f64)> {
    let r = &rep.rollup;
    let ops = rep.attempted;
    let per_op = |key: &str| ratio(r.sum(key), ops);
    let world_ns = rep.world_ns;
    let worlds_ns = world_ns * r.count("node/cab/cpu_busy_ns");
    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, x: f64| v.push((name.to_string(), x));

    let sim_ms = (world_ns * rep.worlds) as f64 / 1e6;
    put("sim.events_per_sim_ms", if sim_ms > 0.0 { rep.events as f64 / sim_ms } else { 0.0 });
    put("sim.pending_at_end", rep.pending_at_end as f64);
    put("sim.cancelled_share", ratio(rep.cancelled, rep.events + rep.cancelled));

    put(
        "wire.launched_bytes_per_payload_byte",
        ratio(r.sum("net/bytes_launched"), rep.payload_bytes),
    );
    put("wire.crc_drops", r.sum("node/link/rx_crc_dropped") as f64);

    put("hub.forwarded_frames", r.sum("hub/forwarded_frames") as f64);
    put("hub.hops_per_frame", ratio(r.sum("hub/forwarded_frames"), r.sum("net/frames_launched")));
    put("hub.dropped_frames", r.sum("hub/dropped_frames") as f64);
    put("hub.held_frames", r.sum("hub/held_frames") as f64);
    put("hub.backlog_high_us", r.max("hub/port/backlog_high_ns") as f64 / 1e3);

    put("stack.tcp_segs_per_op", per_op("node/tcp/segs_out"));
    put("stack.tcp_retransmits", r.sum("node/tcp/retransmits") as f64);
    put("stack.tcp_fast_retransmits", r.sum("node/tcp/fast_retransmits") as f64);
    put("stack.tcp_timeouts", r.sum("node/tcp/timeouts") as f64);
    put("stack.tcp_checksum_drops", r.sum("node/tcp/checksum_drops") as f64);
    put("stack.rmp_retransmits", r.sum("node/rmp/retransmits") as f64);
    put("stack.rmp_duplicates", r.sum("node/rmp/duplicates") as f64);
    put("stack.rmp_acks_per_msg", ratio(r.sum("node/rmp/acks_sent"), r.sum("node/rmp/delivered")));
    put("stack.rmp_failed", r.sum("node/rmp/messages_failed") as f64);
    put("stack.ip_fragments", r.sum("net/ip/fragments_in") as f64);

    put("cab.sim_cpu_util_max", ratio(r.max("node/cab/cpu_busy_ns"), world_ns));
    put("cab.sim_cpu_util_mean", ratio(r.sum("node/cab/cpu_busy_ns"), worlds_ns));
    put("cab.sim_cpu_us_per_op", per_op("node/cab/cpu_busy_ns") / 1e3);
    put("cab.ctx_switches_per_op", per_op("node/cab/ctx_switches"));
    put("cab.interrupts_per_op", per_op("node/cab/interrupts_taken"));
    put("cab.upcalls_per_op", per_op("node/cab/upcalls_run"));
    put("cab.mbox_msgs_per_op", per_op("node/mbox/enqueued_msgs"));
    put("cab.mbox_depth_high", r.max("node/mbox/depth_high") as f64);
    put("cab.rx_fifo_high_bytes", r.max("node/link/rx_fifo_high_bytes") as f64);
    put("cab.rx_fifo_drops", r.sum("node/link/rx_fifo_dropped_frames") as f64);
    put("cab.no_space_drops", r.sum("node/proto/no_space_drops") as f64);

    put("host.sim_cpu_us_per_op", per_op("node/host/cpu_busy_ns") / 1e3);
    put("host.vme_words_per_op", per_op("node/host/vme_words"));
    put("host.proc_switches_per_op", per_op("node/host/proc_switches"));
    put("host.cab_interrupts_per_op", per_op("node/host/cab_interrupts"));

    put("core.frames_launched", r.sum("net/frames_launched") as f64);
    put("core.frames_lost_injected", r.sum("net/frames_lost_injected") as f64);
    put("core.frames_corrupted_injected", r.sum("net/frames_corrupted_injected") as f64);
    put("core.frames_dead_end", r.sum("net/frames_dead_end") as f64);

    put(
        "load.late_dispatch_share",
        ratio(r.sum("net/load/late_dispatch"), r.sum("net/load/requests_sent")),
    );
    put("load.stale_replies", r.sum("net/load/stale_replies") as f64);
    put("load.timeouts", r.sum("net/load/timeouts") as f64);

    put("failed_ratio", ratio(rep.failed, rep.attempted));
    v
}
