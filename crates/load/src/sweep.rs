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
//! [`measure_point`] is the one place a load point is computed from a
//! [`FleetPlan`] and [`knee`] the one knee rule; [`run_sweep`] and the
//! scale bench (`BENCH_scale.json`) are both callers.
//!
//! Every reported quantity is integer-valued and every world is built
//! from a seed that is a pure function of the sweep seed, transport
//! and load step, so the rendered JSON is byte-identical across
//! same-seed runs — the determinism contract `BENCH_load.json` is
//! pinned on.

use nectar::config::Config;
use nectar::world::World;
use nectar_sim::json::Json::{self, Arr, Obj, Row, S, U};
use nectar_sim::{par_map, SimDuration, SimTime};

use crate::fleet::{deploy_fleet, FleetPlan};
use crate::workload::{Arrival, SizeDist};
use crate::LoadTransport;

/// Parameters of one capacity sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
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
    /// Base world configuration for every load point. `base.seed` is
    /// the sweep's master seed, mixed per point with the transport and
    /// load step; `base.oracle` arms the conformance oracle
    /// (`nectar_stack::conform`) for the sweep, so any TCP transition
    /// violation aborts the run. Everything else (transport knobs,
    /// host-I/O batching) carries through unchanged, which is how the
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
            transports: vec![LoadTransport::ReqResp, LoadTransport::Udp],
            clients: 12,
            clients_per_cab: 6,
            endpoints_per_client: 1,
            offered_rps: vec![2_000, 8_000],
            size: SizeDist::Fixed(64),
            measure: SimDuration::from_millis(60),
            timeout: SimDuration::from_millis(25),
            slo_p99: SimDuration::from_millis(5),
            base: Config { seed, oracle: Some(true), ..Config::default() },
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
            base: Config { seed, oracle: Some(true), ..Config::default() },
            variant: "baseline",
        }
    }

    /// This sweep over the modern transport fast path
    /// ([`Config::modern`]). Same transports, steps, SLO, seed and
    /// oracle — only the transport knobs and the variant label change.
    pub fn fastpath(mut self) -> SweepConfig {
        self.base = Config { seed: self.base.seed, oracle: self.base.oracle, ..Config::modern() };
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

/// Simulated time every load point waits before its first intended
/// start: the whole fleet connects at t=0, and the TCP handshake storm
/// alone leaves ~10ms of server backlog. Measuring from t=1ms would
/// fold that setup transient into the p99 of every mid-load point.
const WARMUP: SimDuration = SimDuration::from_millis(20);

/// The open-loop schedule of one load point, as the `arrival`, `start`
/// and `stop` of its [`FleetPlan`]: a per-endpoint mean gap that makes
/// the aggregate rate over `endpoints` equal `offered_rps`, and
/// `measure` of intended starts after the warm-up.
pub fn schedule(
    endpoints: usize,
    offered_rps: u64,
    measure: SimDuration,
) -> (Arrival, SimTime, SimTime) {
    let gap_ns = (endpoints as u64)
        .saturating_mul(1_000_000_000)
        .checked_div(offered_rps)
        .unwrap_or(u64::MAX)
        .max(1);
    let start = SimTime::ZERO + WARMUP;
    (Arrival::Open { mean_gap: SimDuration::from_nanos(gap_ns) }, start, start + measure)
}

/// Measure one load point: a fresh world under `config`, the plan's
/// single-transport fleet run over its `start..stop` window and on
/// until in-flight requests resolve or time out. The world is returned
/// for callers that read more out of it (the scale sweep's per-stage
/// rollup). `offered_rps` is the rate the plan's [`schedule`] was built
/// for.
pub fn measure_point(plan: &FleetPlan, config: Config, offered_rps: u64) -> (LoadPoint, World) {
    let t = plan.mix[0].0;
    assert!(plan.mix.iter().all(|&(m, _)| m == t), "a load point drives one transport");
    let (mut world, mut sim) = World::new(config, plan.topology());
    let fleet = deploy_fleet(&mut world, plan);
    world.run_until(&mut sim, plan.stop + plan.timeout + SimDuration::from_millis(20));

    let rec = fleet.recorder.borrow();
    let r = rec.record(t);
    let measure_ns = (plan.stop - plan.start).as_nanos().max(1);
    let per_sec = |n: u64| (n as u128 * 1_000_000_000 / measure_ns as u128) as u64;

    let mut retransmits = 0u64;
    let mut drops = world.stats.frames_hub_dropped;
    for cab in &world.cabs {
        drops += cab.stats.frames_fifo_dropped + cab.stats.frames_crc_dropped;
        retransmits += match t {
            LoadTransport::Rmp => {
                cab.proto.rmp_tx().values().map(|tx| tx.stats().retransmits).sum::<u64>()
            }
            LoadTransport::ReqResp => {
                cab.proto.rr_clients().values().map(|c| c.stats().retransmits).sum::<u64>()
            }
            LoadTransport::Tcp => cab.proto.tcp.total_socket_stats().retransmits,
            LoadTransport::Datagram | LoadTransport::Udp => 0,
        };
    }

    let point = LoadPoint {
        offered_rps,
        achieved_rps: per_sec(r.responses),
        goodput_bps: per_sec(r.bytes_received * 8),
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
    };
    (point, world)
}

/// The capacity knee: the last point that served requests with its
/// CO-corrected p99 inside the SLO. A point that meets the SLO after
/// one that missed it still counts — the scan is from the heavy end.
pub fn knee(points: &[LoadPoint], slo_p99_ns: u64) -> Option<usize> {
    points.iter().rposition(|p| p.responses > 0 && p.p99_ns <= slo_p99_ns)
}

/// Run one load point of a sweep: a single-transport fleet at the
/// given aggregate offered rate, measured over `cfg.measure`.
pub fn run_point(cfg: &SweepConfig, t: LoadTransport, offered_rps: u64) -> LoadPoint {
    let (arrival, start, stop) = schedule(cfg.clients, offered_rps, cfg.measure);
    let plan = FleetPlan {
        seed: cfg.base.seed ^ ((t.index() as u64) << 56) ^ offered_rps,
        mix: vec![(t, cfg.clients)],
        clients_per_cab: cfg.clients_per_cab,
        endpoints_per_client: cfg.endpoints_per_client,
        arrival,
        size: cfg.size,
        timeout: cfg.timeout,
        start,
        stop,
    };
    let config = Config { seed: plan.seed, ..cfg.base };
    measure_point(&plan, config, offered_rps).0
}

/// Run the whole sweep: every transport through every load step, the
/// points — independent worlds — in parallel.
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    let grid: Vec<(LoadTransport, u64)> = cfg
        .transports
        .iter()
        .flat_map(|&t| cfg.offered_rps.iter().map(move |&rps| (t, rps)))
        .collect();
    let mut measured = par_map(&grid, |&(t, rps)| run_point(cfg, t, rps)).into_iter();
    let sweeps = cfg
        .transports
        .iter()
        .map(|&transport| {
            let points: Vec<LoadPoint> = measured.by_ref().take(cfg.offered_rps.len()).collect();
            let knee = knee(&points, cfg.slo_p99.as_nanos());
            TransportSweep { transport, points, knee }
        })
        .collect();
    SweepResult {
        seed: cfg.base.seed,
        variant: cfg.variant,
        clients: cfg.clients as u64,
        measure_ns: cfg.measure.as_nanos(),
        slo_p99_ns: cfg.slo_p99.as_nanos(),
        sweeps,
    }
}

/// Render several sweep variants (e.g. baseline + fastpath) into one
/// deterministic JSON artifact — the `BENCH_load.json` layout: fixed
/// key order, integers only, so two same-seed sweeps render
/// byte-identical strings.
pub fn variants_json(results: &[SweepResult]) -> String {
    let transport = |s: &TransportSweep| {
        Obj(vec![
            ("transport", S(s.transport.name())),
            ("knee_rps", U(s.knee_rps())),
            ("points", Arr(s.points.iter().map(|p| Row(p.fields())).collect())),
        ])
    };
    let variant = |r: &SweepResult| {
        Obj(vec![
            ("seed", U(r.seed)),
            ("variant", S(r.variant)),
            ("clients", U(r.clients)),
            ("measure_ns", U(r.measure_ns)),
            ("slo_p99_ns", U(r.slo_p99_ns)),
            ("transports", Arr(r.sweeps.iter().map(transport).collect())),
        ])
    };
    Obj(vec![("variants", Arr(results.iter().map(variant).collect()))]).render()
}

impl LoadPoint {
    /// The point as the fields of one artifact row, in column order.
    pub fn fields(&self) -> Vec<(&'static str, Json<'static>)> {
        vec![
            ("offered_rps", U(self.offered_rps)),
            ("achieved_rps", U(self.achieved_rps)),
            ("goodput_bps", U(self.goodput_bps)),
            ("p50_ns", U(self.p50_ns)),
            ("p90_ns", U(self.p90_ns)),
            ("p99_ns", U(self.p99_ns)),
            ("p999_ns", U(self.p999_ns)),
            ("responses", U(self.responses)),
            ("timeouts", U(self.timeouts)),
            ("failures", U(self.failures)),
            ("stale_replies", U(self.stale_replies)),
            ("late_dispatch", U(self.late_dispatch)),
            ("retransmits", U(self.retransmits)),
            ("drops", U(self.drops)),
        ]
    }
}

impl SweepResult {
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
            transports: vec![LoadTransport::Datagram],
            clients: 4,
            clients_per_cab: 4,
            endpoints_per_client: 1,
            offered_rps: vec![1_000],
            size: SizeDist::Fixed(64),
            measure: SimDuration::from_millis(20),
            timeout: SimDuration::from_millis(10),
            slo_p99: SimDuration::from_millis(5),
            base: Config { seed: 42, oracle: Some(false), ..Config::default() },
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
            transports: vec![LoadTransport::Udp],
            clients: 3,
            clients_per_cab: 3,
            endpoints_per_client: 1,
            offered_rps: vec![500, 2_000],
            size: SizeDist::Fixed(32),
            measure: SimDuration::from_millis(10),
            timeout: SimDuration::from_millis(5),
            slo_p99: SimDuration::from_millis(5),
            base: Config { seed: 7, oracle: Some(false), ..Config::default() },
            variant: "baseline",
        };
        let fast = cfg.clone().fastpath();
        let run = || {
            let results = [run_sweep(&cfg), run_sweep(&fast)];
            assert_eq!(results.each_ref().map(|r| r.variant), ["baseline", "fastpath"]);
            variants_json(&results)
        };
        assert_eq!(run(), run());
    }

    fn point(offered_rps: u64, responses: u64, p99_ns: u64) -> LoadPoint {
        LoadPoint { offered_rps, responses, p99_ns, ..LoadPoint::default() }
    }

    #[test]
    fn knee_is_the_last_served_point_inside_the_slo() {
        let slo = 10_000;
        // none meet the SLO, or the ones that would served nothing
        assert_eq!(knee(&[point(1, 5, slo + 1), point(2, 0, 0)], slo), None);
        assert_eq!(knee(&[], slo), None);
        // all meet it: the heaviest step
        assert_eq!(knee(&[point(1, 5, 10), point(2, 5, 20), point(3, 5, slo)], slo), Some(2));
        // a point back inside the SLO after one that missed still counts
        assert_eq!(knee(&[point(1, 5, 10), point(2, 5, slo + 1), point(3, 5, 30)], slo), Some(2));
        assert_eq!(knee(&[point(1, 5, 10), point(2, 5, slo + 1)], slo), Some(0));
    }

    #[test]
    fn variants_json_wraps_both_sweeps() {
        let result = |variant, knee| SweepResult {
            seed: 7,
            variant,
            clients: 3,
            measure_ns: 10_000_000,
            slo_p99_ns: 5_000_000,
            sweeps: vec![TransportSweep {
                transport: LoadTransport::Udp,
                points: vec![
                    LoadPoint { achieved_rps: 498, drops: 1, ..point(500, 5, 400_000) },
                    LoadPoint { goodput_bps: 9, retransmits: 2, ..point(2_000, 19, 6_000_000) },
                ],
                knee,
            }],
        };
        let want = r#"{
  "variants": [
    {
      "seed": 7,
      "variant": "baseline",
      "clients": 3,
      "measure_ns": 10000000,
      "slo_p99_ns": 5000000,
      "transports": [
        {
          "transport": "udp",
          "knee_rps": 500,
          "points": [
            {"offered_rps":500,"achieved_rps":498,"goodput_bps":0,"p50_ns":0,"p90_ns":0,"p99_ns":400000,"p999_ns":0,"responses":5,"timeouts":0,"failures":0,"stale_replies":0,"late_dispatch":0,"retransmits":0,"drops":1},
            {"offered_rps":2000,"achieved_rps":0,"goodput_bps":9,"p50_ns":0,"p90_ns":0,"p99_ns":6000000,"p999_ns":0,"responses":19,"timeouts":0,"failures":0,"stale_replies":0,"late_dispatch":0,"retransmits":2,"drops":0}
          ]
        }
      ]
    },
    {
      "seed": 7,
      "variant": "fastpath",
      "clients": 3,
      "measure_ns": 10000000,
      "slo_p99_ns": 5000000,
      "transports": [
        {
          "transport": "udp",
          "knee_rps": 0,
          "points": [
            {"offered_rps":500,"achieved_rps":498,"goodput_bps":0,"p50_ns":0,"p90_ns":0,"p99_ns":400000,"p999_ns":0,"responses":5,"timeouts":0,"failures":0,"stale_replies":0,"late_dispatch":0,"retransmits":0,"drops":1},
            {"offered_rps":2000,"achieved_rps":0,"goodput_bps":9,"p50_ns":0,"p90_ns":0,"p99_ns":6000000,"p999_ns":0,"responses":19,"timeouts":0,"failures":0,"stale_replies":0,"late_dispatch":0,"retransmits":2,"drops":0}
          ]
        }
      ]
    }
  ]
}
"#;
        assert_eq!(variants_json(&[result("baseline", Some(0)), result("fastpath", None)]), want);
    }
}
