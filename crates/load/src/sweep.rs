//! The capacity-sweep driver: step offered load per transport, measure
//! goodput and tail latency at each point, and locate the capacity
//! knee — the highest offered load whose coordinated-omission-correct
//! p99 still meets the latency SLO.
//!
//! Why an SLO knee and not a goodput ratio: open-loop clients with one
//! outstanding request eventually serve *every* request even past
//! saturation (they just run ever later), so achieved/offered stays
//! near 1 and is dominated by Poisson sampling noise at smoke scale.
//! Saturation is unambiguous in the CO-corrected tail instead: once
//! the fleet falls behind, latency measured from intended start grows
//! with the backlog and p99 blows past any reasonable SLO.
//!
//! Every reported quantity is integer-valued and every world is built
//! from a seed that is a pure function of the sweep seed, transport
//! and load step, so the rendered JSON is byte-identical across
//! same-seed runs — the determinism contract `BENCH_load.json` is
//! pinned on.

use nectar::config::Config;
use nectar::world::World;
use nectar_sim::{SimDuration, SimTime};

use crate::fleet::{deploy_fleet, FleetPlan};
use crate::workload::{Arrival, SizeDist};
use crate::LoadTransport;

/// Parameters of one capacity sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub seed: u64,
    pub transports: Vec<LoadTransport>,
    /// Endpoints per load point (all driving one transport).
    pub clients: usize,
    pub clients_per_cab: usize,
    /// Endpoints multiplexed per client thread (see
    /// [`crate::fleet::FleetPlan::endpoints_per_client`]).
    pub endpoints_per_client: usize,
    /// Aggregate offered load steps, requests per second.
    pub offered_rps: Vec<u64>,
    pub size: SizeDist,
    /// Measurement window of simulated time per point.
    pub measure: SimDuration,
    /// Per-request client deadline.
    pub timeout: SimDuration,
    /// The latency SLO: a load point whose CO-corrected p99 exceeds
    /// this is saturated; the knee is the last point that meets it.
    pub slo_p99: SimDuration,
    /// Arm the conformance oracle (`nectar_stack::conform`) during the
    /// sweep: any TCP transition violation aborts the run.
    pub oracle: bool,
    /// Base world configuration for every load point. `seed` and
    /// `oracle` are overridden per point; everything else (transport
    /// knobs, host-I/O batching) carries through, which is how the
    /// fast-path variant sweeps run.
    pub base: Config,
    /// Variant label rendered into the JSON (`"baseline"`,
    /// `"fastpath"`), so one artifact can hold both sweeps.
    pub variant: &'static str,
}

impl SweepConfig {
    /// Seconds-of-sim-time smoke configuration for CI.
    pub fn quick(seed: u64) -> SweepConfig {
        SweepConfig {
            seed,
            transports: vec![LoadTransport::ReqResp, LoadTransport::Udp],
            clients: 12,
            clients_per_cab: 6,
            endpoints_per_client: 1,
            offered_rps: vec![2_000, 8_000],
            size: SizeDist::Fixed(64),
            measure: SimDuration::from_millis(60),
            timeout: SimDuration::from_millis(25),
            slo_p99: SimDuration::from_millis(5),
            oracle: true,
            base: Config::default(),
            variant: "baseline",
        }
    }

    /// The full benchmark sweep behind `BENCH_load.json`. The step
    /// grid is deliberately uneven: it clusters points around each
    /// transport's observed knee region (tcp ~3.5k, udp ~4k, rmp
    /// ~6-7k, reqresp ~8-9k, datagram ~12-16k) so a one-step knee
    /// shift is resolvable, with sparse anchors below and above.
    pub fn full(seed: u64) -> SweepConfig {
        SweepConfig {
            seed,
            transports: vec![
                LoadTransport::Datagram,
                LoadTransport::Rmp,
                LoadTransport::ReqResp,
                LoadTransport::Udp,
                LoadTransport::Tcp,
            ],
            clients: 48,
            clients_per_cab: 12,
            endpoints_per_client: 1,
            offered_rps: vec![
                1_000, 2_000, 3_400, 3_600, 4_000, 5_000, 6_000, 7_000, 8_000, 9_000, 10_000,
                12_000, 14_000, 16_000, 20_000,
            ],
            size: SizeDist::Fixed(256),
            measure: SimDuration::from_millis(400),
            timeout: SimDuration::from_millis(50),
            slo_p99: SimDuration::from_millis(10),
            oracle: true,
            base: Config::default(),
            variant: "baseline",
        }
    }

    /// This sweep over the modern transport fast path
    /// ([`Config::modern`]). Same transports, steps and SLO — only the
    /// world configuration and the variant label change.
    pub fn fastpath(mut self) -> SweepConfig {
        self.base = Config::modern();
        self.variant = "fastpath";
        self
    }
}

/// One measured load point. All integers, rendered verbatim into JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadPoint {
    pub offered_rps: u64,
    pub achieved_rps: u64,
    /// Response payload bits delivered per second of sim time.
    pub goodput_bps: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub responses: u64,
    pub timeouts: u64,
    pub failures: u64,
    pub stale_replies: u64,
    pub late_dispatch: u64,
    /// Protocol retransmissions during the point (RMP / RR / TCP).
    pub retransmits: u64,
    /// Frames dropped in the fabric (HUB contention, CAB FIFO, CRC).
    pub drops: u64,
}

/// All points for one transport plus the located knee.
#[derive(Clone, Debug)]
pub struct TransportSweep {
    pub transport: LoadTransport,
    pub points: Vec<LoadPoint>,
    /// Index into `points` of the capacity knee: the last point that
    /// served requests with its CO-corrected p99 inside the SLO.
    pub knee: Option<usize>,
}

impl TransportSweep {
    pub fn knee_rps(&self) -> u64 {
        self.knee.map(|i| self.points[i].offered_rps).unwrap_or(0)
    }
}

/// The finished sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub seed: u64,
    pub variant: &'static str,
    pub clients: u64,
    pub measure_ns: u64,
    pub slo_p99_ns: u64,
    pub sweeps: Vec<TransportSweep>,
}

/// Run one load point: a fresh world, a single-transport fleet at the
/// given aggregate offered rate, measured over `cfg.measure`.
pub fn run_point(cfg: &SweepConfig, t: LoadTransport, offered_rps: u64) -> LoadPoint {
    // per-client mean gap so the aggregate open-loop rate is `offered`
    let gap_ns = (cfg.clients as u64)
        .saturating_mul(1_000_000_000)
        .checked_div(offered_rps)
        .unwrap_or(u64::MAX)
        .max(1);
    let plan = FleetPlan {
        seed: cfg.seed ^ ((t.index() as u64) << 56) ^ offered_rps,
        mix: vec![(t, cfg.clients)],
        clients_per_cab: cfg.clients_per_cab,
        endpoints_per_client: cfg.endpoints_per_client,
        arrival: Arrival::Open { mean_gap: SimDuration::from_nanos(gap_ns) },
        size: cfg.size,
        timeout: cfg.timeout,
        // 20ms warmup before the first intended start: the whole fleet
        // connects at t=0, and the TCP handshake storm alone leaves
        // ~10ms of server backlog. Measuring from t=1ms would fold
        // that setup transient into the p99 of every mid-load point.
        start: SimTime::ZERO + SimDuration::from_millis(20),
        stop: SimTime::ZERO + SimDuration::from_millis(20) + cfg.measure,
    };
    let config = Config { seed: plan.seed, oracle: Some(cfg.oracle), ..cfg.base };
    let (mut world, mut sim) = World::new(config, plan.topology());
    let fleet = deploy_fleet(&mut world, &plan);
    // run past the stop time so in-flight requests resolve or time out
    let drain = cfg.timeout + SimDuration::from_millis(20);
    world.run_until(&mut sim, plan.stop + drain);

    let rec = fleet.recorder.borrow();
    let r = rec.record(t);
    let measure_ns = cfg.measure.as_nanos().max(1);
    let achieved_rps = (r.responses as u128 * 1_000_000_000 / measure_ns as u128) as u64;
    let goodput_bps = (r.bytes_received as u128 * 8 * 1_000_000_000 / measure_ns as u128) as u64;

    let mut retransmits = 0u64;
    let mut drops = world.stats.frames_hub_dropped;
    for cab in &world.cabs {
        drops += cab.stats.frames_fifo_dropped + cab.stats.frames_crc_dropped;
        match t {
            LoadTransport::Rmp => {
                retransmits +=
                    cab.proto.rmp_tx.values().map(|tx| tx.stats().retransmits).sum::<u64>();
            }
            LoadTransport::ReqResp => {
                retransmits +=
                    cab.proto.rr_clients.values().map(|c| c.stats().retransmits).sum::<u64>();
            }
            LoadTransport::Tcp => {
                retransmits += cab.proto.tcp.total_socket_stats().retransmits;
            }
            LoadTransport::Datagram | LoadTransport::Udp => {}
        }
    }

    LoadPoint {
        offered_rps,
        achieved_rps,
        goodput_bps,
        p50_ns: r.latency.percentile_nanos(0.50),
        p90_ns: r.latency.percentile_nanos(0.90),
        p99_ns: r.latency.percentile_nanos(0.99),
        p999_ns: r.latency.percentile_nanos(0.999),
        responses: r.responses,
        timeouts: r.timeouts,
        failures: r.failures,
        stale_replies: r.stale_replies,
        late_dispatch: r.late_dispatch,
        retransmits,
        drops,
    }
}

/// Run the whole sweep: every transport through every load step.
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    let mut sweeps = Vec::with_capacity(cfg.transports.len());
    for &t in &cfg.transports {
        let points: Vec<LoadPoint> =
            cfg.offered_rps.iter().map(|&rps| run_point(cfg, t, rps)).collect();
        let slo = cfg.slo_p99.as_nanos();
        let knee = points
            .iter()
            .enumerate()
            .rev()
            .find(|(_, p)| p.responses > 0 && p.p99_ns <= slo)
            .map(|(i, _)| i);
        sweeps.push(TransportSweep { transport: t, points, knee });
    }
    SweepResult {
        seed: cfg.seed,
        variant: cfg.variant,
        clients: cfg.clients as u64,
        measure_ns: cfg.measure.as_nanos(),
        slo_p99_ns: cfg.slo_p99.as_nanos(),
        sweeps,
    }
}

/// Render several sweep variants (e.g. baseline + fastpath) into one
/// deterministic JSON artifact — the `BENCH_load.json` layout.
pub fn variants_json(results: &[SweepResult]) -> String {
    let mut out = String::from("{\n\"variants\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(r.to_json().trim_end());
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n}\n");
    out
}

impl LoadPoint {
    fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"offered_rps\":{},\"achieved_rps\":{},\"goodput_bps\":{},",
                "\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},",
                "\"responses\":{},\"timeouts\":{},\"failures\":{},",
                "\"stale_replies\":{},\"late_dispatch\":{},",
                "\"retransmits\":{},\"drops\":{}}}"
            ),
            self.offered_rps,
            self.achieved_rps,
            self.goodput_bps,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.responses,
            self.timeouts,
            self.failures,
            self.stale_replies,
            self.late_dispatch,
            self.retransmits,
            self.drops,
        )
    }
}

impl SweepResult {
    /// Deterministic JSON: fixed key order, integers only. Two
    /// same-seed sweeps render byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"seed\": {},\n  \"variant\": \"{}\",\n  \"clients\": {},\n  \"measure_ns\": {},\n  \"slo_p99_ns\": {},\n  \"transports\": [\n",
            self.seed, self.variant, self.clients, self.measure_ns, self.slo_p99_ns
        ));
        for (i, s) in self.sweeps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"transport\": \"{}\", \"knee_rps\": {}, \"points\": [\n",
                s.transport.name(),
                s.knee_rps()
            ));
            for (j, p) in s.points.iter().enumerate() {
                let sep = if j + 1 < s.points.len() { "," } else { "" };
                out.push_str(&format!("      {}{}\n", p.to_json(), sep));
            }
            let sep = if i + 1 < self.sweeps.len() { "," } else { "" };
            out.push_str(&format!("    ]}}{}\n", sep));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable SLO table (latencies in microseconds).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| transport | offered rps | achieved rps | goodput Mbit/s | p50 µs | p90 µs | p99 µs | p99.9 µs | timeouts | retransmits | drops |\n");
        out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
        for s in &self.sweeps {
            for (j, p) in s.points.iter().enumerate() {
                let knee = if Some(j) == s.knee { " ◄ knee" } else { "" };
                out.push_str(&format!(
                    "| {}{} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    s.transport.name(),
                    knee,
                    p.offered_rps,
                    p.achieved_rps,
                    p.goodput_bps / 1_000_000,
                    p.p50_ns / 1_000,
                    p.p90_ns / 1_000,
                    p.p99_ns / 1_000,
                    p.p999_ns / 1_000,
                    p.timeouts,
                    p.retransmits,
                    p.drops,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_light_datagram_point_serves_nearly_all_requests() {
        let cfg = SweepConfig {
            seed: 42,
            transports: vec![LoadTransport::Datagram],
            clients: 4,
            clients_per_cab: 4,
            endpoints_per_client: 1,
            offered_rps: vec![1_000],
            size: SizeDist::Fixed(64),
            measure: SimDuration::from_millis(20),
            timeout: SimDuration::from_millis(10),
            slo_p99: SimDuration::from_millis(5),
            oracle: false,
            base: Config::default(),
            variant: "baseline",
        };
        let p = run_point(&cfg, LoadTransport::Datagram, 1_000);
        assert!(p.responses > 0, "no responses at a trivial load: {p:?}");
        assert_eq!(p.failures, 0);
        assert!(p.p50_ns > 0);
        // nearly all requests must be served at 1k rps from 4 clients
        assert!(p.achieved_rps * 100 >= p.offered_rps * 80, "light load underserved: {p:?}");
    }

    #[test]
    fn sweep_json_is_stable_across_runs() {
        let cfg = SweepConfig {
            seed: 7,
            transports: vec![LoadTransport::Udp],
            clients: 3,
            clients_per_cab: 3,
            endpoints_per_client: 1,
            offered_rps: vec![500, 2_000],
            size: SizeDist::Fixed(32),
            measure: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(5),
            slo_p99: SimDuration::from_millis(5),
            oracle: false,
            base: Config::default(),
            variant: "baseline",
        };
        let a = run_sweep(&cfg).to_json();
        let b = run_sweep(&cfg).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"transport\": \"udp\""));
        assert!(a.contains("\"variant\": \"baseline\""));
    }

    #[test]
    fn variants_json_wraps_both_sweeps() {
        let mut cfg = SweepConfig::quick(3);
        cfg.transports = vec![LoadTransport::Udp];
        cfg.offered_rps = vec![500];
        cfg.measure = SimDuration::from_millis(10);
        cfg.oracle = false;
        let base = run_sweep(&cfg);
        let fast = run_sweep(&cfg.clone().fastpath());
        let json = variants_json(&[base, fast]);
        assert!(json.contains("\"variants\": ["));
        assert!(json.contains("\"variant\": \"baseline\""));
        assert!(json.contains("\"variant\": \"fastpath\""));
    }
}
