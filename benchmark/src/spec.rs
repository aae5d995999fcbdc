//! The benchmark's contract in one place: workload names, every metric
//! with its unit, direction and bound, and the `BENCHMARK.json` that is
//! generated from them (`nectar-benchmark spec`). A test checks that the
//! committed file is this module's output.

use crate::json::Value;

/// The transports the fleet workloads report per-transport numbers for,
/// in `nectar_load::LoadTransport::ALL` order.
pub const TRANSPORTS: [&str; 5] = ["datagram", "rmp", "reqresp", "udp", "tcp"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "paper_pair",
        why: "closed loop, one pair on one HUB: the paper's Table 1/Fig 7/Fig 8 points; only workload with the host/VME path; no queueing, so a contention-only optimisation predicts no change",
    },
    WorkloadSpec {
        name: "stream_twohub",
        why: "closed loop, 13 saturating 4 KiB streams (7 RMP, 6 TCP) over two HUBs: MTU-sized frames load wire (checksum, CRC), stack segments and hub forwarding; exposes event growth over simulated time",
    },
    WorkloadSpec {
        name: "lossy_twohub",
        why: "stream_twohub with 2% loss, 0.5% corruption and the oracle armed: retransmit timers, duplicates and CRC rejection; a fast-path gain that taxes recovery shows here only",
    },
    WorkloadSpec {
        name: "rpc_mixed",
        why: "open loop Poisson, 60 endpoints over five transports, 64 B, three rates (light/heavy/over): per-message CAB runtime and timer cost dominate, queueing amplifies any CAB saving",
    },
    WorkloadSpec {
        name: "clos_fleet",
        why: "open loop, 10080 request-response endpoints on a 52-HUB three-stage Clos at 32k rps: set-up, memory and many mostly-idle nodes; per-CAB protocol work is light",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Simulated time or a count made by the simulator: repeats exactly
    /// at a fixed seed.
    Sim,
    /// Wall clock or memory of the machine running the simulator.
    Host,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may get worse.
    /// End-to-end metrics only; per-layer metrics carry 0.
    pub bound: f64,
}

fn e2e(name: &str, unit: &'static str, better: Better, clock: Clock, bound: f64) -> Metric {
    Metric { name: name.to_string(), unit, better, clock, bound }
}

/// Metrics a user of the simulator (host clock) or of the modelled
/// system (simulated clock) would see. Every workload reports every
/// one; README.md says what each means on each workload.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    vec![
        e2e("setup_s", "s", Lower, Host, 0.25),
        e2e("wall_s", "s", Lower, Host, 0.15),
        e2e("peak_rss_mib", "MiB", Lower, Host, 0.20),
        e2e("sim_goodput_mbps", "Mbit/s", Higher, Sim, 0.15),
        e2e("sim_typical_us", "sim_us", Lower, Sim, 0.15),
        e2e("sim_tail_us", "sim_us", Lower, Sim, 0.25),
    ]
}

/// Metrics of single layers (layer = crate). No bounds: they explain a
/// movement, they do not gate one. Zero where a workload has no such
/// layer activity or cannot observe it from outside.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    use Clock::*;
    let m = |name: &str, unit: &'static str, better: Better, clock: Clock| Metric {
        name: name.to_string(),
        unit,
        better,
        clock,
        bound: 0.0,
    };
    let mut v = vec![
        // in-run counters, read from the always-on public counters
        m("sim.events_per_sim_ms", "1/ms", Lower, Sim),
        m("sim.pending_at_end", "count", Lower, Sim),
        m("sim.cancelled_share", "ratio", Lower, Sim),
        m("sim.events_per_wall_s", "1/s", Higher, Host),
        m("wire.launched_bytes_per_payload_byte", "ratio", Lower, Sim),
        m("wire.crc_drops", "count", Lower, Sim),
        m("hub.forwarded_frames", "count", Lower, Sim),
        m("hub.hops_per_frame", "ratio", Lower, Sim),
        m("hub.dropped_frames", "count", Lower, Sim),
        m("hub.held_frames", "count", Lower, Sim),
        m("hub.backlog_high_us", "sim_us", Lower, Sim),
        m("stack.tcp_segs_per_op", "ratio", Lower, Sim),
        m("stack.tcp_retransmits", "count", Lower, Sim),
        m("stack.tcp_fast_retransmits", "count", Lower, Sim),
        m("stack.tcp_timeouts", "count", Lower, Sim),
        m("stack.tcp_checksum_drops", "count", Lower, Sim),
        m("stack.rmp_retransmits", "count", Lower, Sim),
        m("stack.rmp_duplicates", "count", Lower, Sim),
        m("stack.rmp_acks_per_msg", "ratio", Lower, Sim),
        m("stack.rmp_failed", "count", Lower, Sim),
        m("stack.ip_fragments", "count", Lower, Sim),
        m("cab.sim_cpu_util_max", "ratio", Lower, Sim),
        m("cab.sim_cpu_util_mean", "ratio", Lower, Sim),
        m("cab.sim_cpu_us_per_op", "sim_us", Lower, Sim),
        m("cab.ctx_switches_per_op", "ratio", Lower, Sim),
        m("cab.interrupts_per_op", "ratio", Lower, Sim),
        m("cab.upcalls_per_op", "ratio", Lower, Sim),
        m("cab.mbox_msgs_per_op", "ratio", Lower, Sim),
        m("cab.mbox_depth_high", "count", Lower, Sim),
        m("cab.rx_fifo_high_bytes", "bytes", Lower, Sim),
        m("cab.rx_fifo_drops", "count", Lower, Sim),
        m("cab.no_space_drops", "count", Lower, Sim),
        m("host.sim_cpu_us_per_op", "sim_us", Lower, Sim),
        m("host.vme_words_per_op", "ratio", Lower, Sim),
        m("host.proc_switches_per_op", "ratio", Lower, Sim),
        m("host.cab_interrupts_per_op", "ratio", Lower, Sim),
        m("core.frames_launched", "count", Lower, Sim),
        m("core.frames_lost_injected", "count", Lower, Sim),
        m("core.frames_corrupted_injected", "count", Lower, Sim),
        m("core.frames_dead_end", "count", Lower, Sim),
        m("load.late_dispatch_share", "ratio", Lower, Sim),
        m("load.stale_replies", "count", Lower, Sim),
        m("load.timeouts", "count", Lower, Sim),
        m("load.p50_us", "sim_us", Lower, Sim),
        m("load.p99_us", "sim_us", Lower, Sim),
        m("load.slo_rps", "1/s", Higher, Sim),
    ];
    for t in TRANSPORTS {
        v.push(m(&format!("load.p50_us.{t}"), "sim_us", Lower, Sim));
        v.push(m(&format!("load.p99_us.{t}"), "sim_us", Lower, Sim));
        v.push(m(&format!("load.slo_rps.{t}"), "1/s", Higher, Sim));
    }
    v.extend([
        m("paper.err_pct", "%", Lower, Sim),
        m("paper.host_dgram_rtt_us", "sim_us", Lower, Sim),
        m("paper.cab_rmp_8k_mbps", "Mbit/s", Higher, Sim),
        m("paper.host_tcp_8k_mbps", "Mbit/s", Higher, Sim),
        m("paper.host_rmp_8k_mbps", "Mbit/s", Higher, Sim),
        m("failed_ratio", "ratio", Lower, Sim),
        // layer probes: host-clock unit cost of one public function
        m("sim.queue_ns_per_event", "ns", Lower, Host),
        m("sim.timer_arm_cancel_ns", "ns", Lower, Host),
        m("sim.hist_record_ns", "ns", Lower, Host),
        m("wire.cksum_ns_per_kib", "ns", Lower, Host),
        m("wire.cksum_64b_ns", "ns", Lower, Host),
        m("wire.crc32_ns_per_kib", "ns", Lower, Host),
        m("wire.frame_build_parse_ns", "ns", Lower, Host),
        m("hub.frame_arrival_ns", "ns", Lower, Host),
        m("stack.tcp_ns_per_segment", "ns", Lower, Host),
        m("stack.rmp_ns_per_msg", "ns", Lower, Host),
        m("stack.rr_ns_per_call", "ns", Lower, Host),
        m("stack.ip_frag_reasm_ns", "ns", Lower, Host),
        m("cab.heap_ns_per_op", "ns", Lower, Host),
        m("cab.mbox_put_get_ns", "ns", Lower, Host),
        m("core.world_build_us_per_cab", "us", Lower, Host),
        m("core.route_table_us_per_cab", "us", Lower, Host),
        m("core.metrics_snapshot_us_per_cab", "us", Lower, Host),
        m("load.deploy_us_per_endpoint", "us", Lower, Host),
        // traced rep: span totals and the estimated host-time split
        m("core.topology_s", "s", Lower, Host),
        m("core.world_new_s", "s", Lower, Host),
        m("load.deploy_s", "s", Lower, Host),
        m("core.run_until_s", "s", Lower, Host),
        m("core.metrics_snapshot_s", "s", Lower, Host),
        m("bench.rep_self_s", "s", Lower, Host),
        m("sim.slice_wall_ratio", "ratio", Lower, Host),
        m("trace_overhead_pct", "%", Lower, Host),
        m("sim.est_wall_share", "ratio", Lower, Host),
        m("wire.est_wall_share", "ratio", Lower, Host),
        m("hub.est_wall_share", "ratio", Lower, Host),
        m("stack.est_wall_share", "ratio", Lower, Host),
        m("core.unattributed_wall_share", "ratio", Lower, Host),
    ]);
    v
}

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Names and units are restricted so every consumer (the driver, shell
/// tools, trace viewers) can carry them unquoted.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// The `BENCHMARK.json` document, keys in the contract's order.
pub fn benchmark_json() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let e2e = end_to_end()
        .into_iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.name())
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let layers = per_layer()
        .into_iter()
        .map(|m| {
            Value::obj().with("name", m.name).with("unit", m.unit).with("better", m.better.name())
        })
        .collect::<Vec<_>>();
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::from(*s)).collect());
    Value::obj()
        .with("command", strs(&["bash", "benchmark/run.sh"]))
        .with("paths", strs(&["benchmark"]))
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", e2e)
        .with("per_layer", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_and_unit_validators() {
        for good in ["setup_s", "load.p99_us.tcp", "a", "9lives", "x-y_z.0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/no", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "1/s", "Mbit/s", "%", "sim_us", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seventeen_letters_", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in &e2e {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json().to_pretty(),
            "regenerate with: benchmark/run.sh spec > BENCHMARK.json"
        );
    }
}
