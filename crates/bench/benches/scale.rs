//! Scale sweep: capacity knee and tail latency as the fabric grows
//! from the paper's two bridged HUBs to a three-stage folded-Clos of
//! 16×16 crossbars, with xon/xoff trunk backpressure armed.
//!
//!     cargo bench -p nectar-bench --bench scale [-- --quick]
//!
//! Each fabric size runs a single-transport (req/resp) fleet — at the
//! largest size 10k+ lightweight endpoints multiplexed over a few
//! hundred client threads — through increasing aggregate offered
//! load. Every point reports CO-correct p50/p99 and the per-stage
//! hotspot rollup (`net/fabric/stage/*`); the sweep locates the SLO
//! knee per size. One chaos point then re-runs the largest fabric
//! with the fault engine and the conformance oracle armed. Results
//! land in `BENCH_scale.json` (in `$NECTAR_BENCH_DIR` when set, else
//! the workspace root).
//!
//! Determinism contract: every reported quantity is integer-valued
//! and schedule-derived, so same-seed runs render byte-identical
//! JSON — CI double-runs `--quick` and diffs the bytes.

use nectar::config::Config;
use nectar::fault::{FaultScript, LinkPlan};
use nectar::world::World;
use nectar_hub::Backpressure;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{SimDuration, SimTime};

const SEED: u64 = 0x5ca1e;
/// A load point whose CO-corrected p99 exceeds this is saturated.
const SLO_P99: SimDuration = SimDuration::from_millis(10);

/// One fabric size of the sweep. The topology itself is derived: the
/// fleet's CAB demand lands in `fleet_topology`'s folded-Clos band,
/// so hub count and stage count fall out of the endpoint counts.
struct SizeCfg {
    label: &'static str,
    /// Echo-service CABs; endpoints split evenly across them.
    servers: usize,
    endpoints: usize,
    endpoints_per_client: usize,
    offered_rps: Vec<u64>,
    measure: SimDuration,
}

impl SizeCfg {
    fn sizes(quick: bool) -> Vec<SizeCfg> {
        let ms = SimDuration::from_millis;
        if quick {
            vec![
                SizeCfg {
                    label: "two-hub",
                    servers: 1,
                    endpoints: 40,
                    endpoints_per_client: 2,
                    offered_rps: vec![2_000, 6_000],
                    measure: ms(60),
                },
                SizeCfg {
                    label: "clos-8",
                    servers: 4,
                    endpoints: 240,
                    endpoints_per_client: 6,
                    offered_rps: vec![4_000, 12_000, 24_000],
                    measure: ms(60),
                },
                SizeCfg {
                    label: "clos-11",
                    servers: 4,
                    endpoints: 960,
                    endpoints_per_client: 12,
                    offered_rps: vec![6_000, 16_000, 32_000],
                    measure: ms(40),
                },
            ]
        } else {
            vec![
                SizeCfg {
                    label: "two-hub",
                    servers: 1,
                    endpoints: 52,
                    endpoints_per_client: 2,
                    offered_rps: vec![2_000, 4_000, 6_000, 8_000, 10_000],
                    measure: ms(200),
                },
                SizeCfg {
                    label: "clos-8",
                    servers: 4,
                    endpoints: 480,
                    endpoints_per_client: 12,
                    offered_rps: vec![4_000, 8_000, 16_000, 24_000, 32_000],
                    measure: ms(200),
                },
                SizeCfg {
                    label: "clos-52",
                    servers: 8,
                    endpoints: 10_080,
                    endpoints_per_client: 30,
                    offered_rps: vec![8_000, 16_000, 32_000, 48_000, 64_000],
                    measure: ms(100),
                },
            ]
        }
    }

    fn plan(&self, offered_rps: u64) -> FleetPlan {
        let per_server = self.endpoints / self.servers;
        assert_eq!(per_server * self.servers, self.endpoints, "endpoints split evenly");
        let gap_ns = (self.endpoints as u64)
            .saturating_mul(1_000_000_000)
            .checked_div(offered_rps)
            .unwrap_or(u64::MAX)
            .max(1);
        FleetPlan {
            seed: SEED ^ ((self.endpoints as u64) << 40) ^ offered_rps,
            mix: vec![(LoadTransport::ReqResp, per_server); self.servers],
            clients_per_cab: 1,
            endpoints_per_client: self.endpoints_per_client,
            arrival: Arrival::Open { mean_gap: SimDuration::from_nanos(gap_ns) },
            size: SizeDist::Fixed(128),
            timeout: SimDuration::from_millis(50),
            // same warmup rationale as the load sweep: let the deploy
            // transient drain before the first intended start
            start: SimTime::ZERO + SimDuration::from_millis(20),
            stop: SimTime::ZERO + SimDuration::from_millis(20) + self.measure,
        }
    }
}

/// The world configuration every scale point runs under: defaults plus
/// xon/xoff trunk backpressure — the regime that publishes the
/// per-stage `net/fabric/stage/*` hotspot rollup.
fn scale_config(seed: u64, oracle: bool) -> Config {
    let mut config = Config { seed, oracle: Some(oracle), ..Config::default() };
    config.hub.backpressure = Some(Backpressure::default());
    config
}

#[derive(Clone, Default)]
struct Point {
    offered_rps: u64,
    achieved_rps: u64,
    responses: u64,
    timeouts: u64,
    failures: u64,
    p50_ns: u64,
    p99_ns: u64,
    held_frames: u64,
    drops: u64,
}

#[derive(Clone, Default)]
struct StageRow {
    stage: usize,
    rx_frames: u64,
    forwarded_frames: u64,
    dropped_frames: u64,
    held_frames: u64,
    backlog_high_ns: u64,
}

struct SizeResult {
    label: &'static str,
    hubs: u64,
    stages: u64,
    cabs: u64,
    endpoints: u64,
    client_threads: u64,
    points: Vec<Point>,
    /// `net/fabric/stage/*` rollup at the heaviest offered step.
    stages_hot: Vec<StageRow>,
    knee: Option<usize>,
}

impl SizeResult {
    fn knee_rps(&self) -> u64 {
        self.knee.map(|i| self.points[i].offered_rps).unwrap_or(0)
    }

    fn p99_at_knee(&self) -> u64 {
        self.knee.map(|i| self.points[i].p99_ns).unwrap_or(0)
    }
}

fn run_point(size: &SizeCfg, offered_rps: u64) -> (Point, Vec<StageRow>) {
    let plan = size.plan(offered_rps);
    let config = scale_config(plan.seed, false);
    let (mut world, mut sim) = World::new(config, plan.topology());
    let fleet = deploy_fleet(&mut world, &plan);
    world.run_until(&mut sim, plan.stop + plan.timeout + SimDuration::from_millis(20));

    let rec = fleet.recorder.borrow();
    let r = rec.record(LoadTransport::ReqResp);
    let measure_ns = size.measure.as_nanos().max(1);
    let snap = world.metrics();
    let g = |k: String| snap.get(&k).unwrap_or(0);
    let stages = world.topo.stages();
    let rows: Vec<StageRow> = (0..stages)
        .map(|s| StageRow {
            stage: s,
            rx_frames: g(format!("net/fabric/stage/{s}/rx_frames")),
            forwarded_frames: g(format!("net/fabric/stage/{s}/forwarded_frames")),
            dropped_frames: g(format!("net/fabric/stage/{s}/dropped_frames")),
            held_frames: g(format!("net/fabric/stage/{s}/held_frames")),
            backlog_high_ns: g(format!("net/fabric/stage/{s}/backlog_high_ns")),
        })
        .collect();
    let point = Point {
        offered_rps,
        achieved_rps: (r.responses as u128 * 1_000_000_000 / measure_ns as u128) as u64,
        responses: r.responses,
        timeouts: r.timeouts,
        failures: r.failures,
        p50_ns: r.latency.percentile_nanos(0.50),
        p99_ns: r.latency.percentile_nanos(0.99),
        held_frames: rows.iter().map(|row: &StageRow| row.held_frames).sum(),
        drops: world.stats.frames_hub_dropped,
    };
    (point, rows)
}

fn run_size(size: &SizeCfg) -> SizeResult {
    let plan = size.plan(size.offered_rps[0]);
    let topo = plan.topology();
    let mut points = Vec::new();
    let mut stages_hot = Vec::new();
    for &rps in &size.offered_rps {
        let (p, rows) = run_point(size, rps);
        println!(
            "  {} @ {} rps: achieved {} rps, p99 {} µs, held {} frames",
            size.label,
            rps,
            p.achieved_rps,
            p.p99_ns / 1_000,
            p.held_frames
        );
        points.push(p);
        stages_hot = rows; // keep the heaviest (last) step's rollup
    }
    let slo = SLO_P99.as_nanos();
    let knee = points
        .iter()
        .enumerate()
        .rev()
        .find(|(_, p)| p.responses > 0 && p.p99_ns <= slo)
        .map(|(i, _)| i);
    SizeResult {
        label: size.label,
        hubs: topo.hubs as u64,
        stages: topo.stages() as u64,
        cabs: topo.cabs() as u64,
        endpoints: size.endpoints as u64,
        client_threads: plan.client_threads() as u64,
        points,
        stages_hot,
        knee,
    }
}

struct ChaosResult {
    label: &'static str,
    loss_permille: u64,
    hubs: u64,
    intended: u64,
    responses: u64,
    timeouts: u64,
    failures: u64,
    conserved: bool,
    oracle_armed: bool,
}

/// One chaos point at the largest fabric size: uniform per-fiber
/// loss, conformance oracle armed, conservation identity checked on
/// the load ledger.
fn run_chaos(size: &SizeCfg) -> ChaosResult {
    const LOSS: f64 = 0.02;
    let mid = size.offered_rps[size.offered_rps.len() / 2];
    let plan = size.plan(mid);
    let topo = plan.topology();
    let script = FaultScript::uniform(&topo, LinkPlan { loss: LOSS, ..LinkPlan::default() });
    assert!(!script.is_empty());

    let mut config = scale_config(plan.seed ^ 0xc4a05, true);
    // give the req/resp retransmitters room to ride out the loss
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;
    let (mut world, mut sim) = World::new(config, plan.topology());
    world.install_fault_script(&mut sim, &script);
    let fleet = deploy_fleet(&mut world, &plan);
    world.run_until(&mut sim, plan.stop + SimDuration::from_secs(1));
    assert!(
        nectar_stack::conform::enabled(),
        "oracle was disarmed mid-run; the chaos-clean claim is vacuous"
    );

    let led = *fleet.ledger.borrow();
    let conserved = led.responses + led.timeouts + led.failures == led.requests_intended;
    assert!(conserved, "chaos ledger leaked requests");
    assert!(led.responses > 0, "chaos fleet made no progress under {LOSS} loss");
    ChaosResult {
        label: size.label,
        loss_permille: (LOSS * 1000.0) as u64,
        hubs: topo.hubs as u64,
        intended: led.requests_intended,
        responses: led.responses,
        timeouts: led.timeouts,
        failures: led.failures,
        conserved,
        oracle_armed: true,
    }
}

fn to_json(quick: bool, sizes: &[SizeResult], chaos: &ChaosResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n\"seed\": {},\n\"mode\": \"{}\",\n\"slo_p99_ns\": {},\n\"sizes\": [\n",
        SEED,
        if quick { "quick" } else { "full" },
        SLO_P99.as_nanos()
    ));
    for (i, s) in sizes.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"label\": \"{}\", \"hubs\": {}, \"stages\": {}, \"cabs\": {}, \
             \"endpoints\": {}, \"client_threads\": {}, \"knee_rps\": {}, \
             \"p99_ns_at_knee\": {},\n   \"points\": [\n",
            s.label,
            s.hubs,
            s.stages,
            s.cabs,
            s.endpoints,
            s.client_threads,
            s.knee_rps(),
            s.p99_at_knee()
        ));
        for (j, p) in s.points.iter().enumerate() {
            let sep = if j + 1 < s.points.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"offered_rps\":{},\"achieved_rps\":{},\"responses\":{},\
                 \"timeouts\":{},\"failures\":{},\"p50_ns\":{},\"p99_ns\":{},\
                 \"held_frames\":{},\"drops\":{}}}{}\n",
                p.offered_rps,
                p.achieved_rps,
                p.responses,
                p.timeouts,
                p.failures,
                p.p50_ns,
                p.p99_ns,
                p.held_frames,
                p.drops,
                sep
            ));
        }
        out.push_str("   ],\n   \"stage_hotspots\": [\n");
        for (j, r) in s.stages_hot.iter().enumerate() {
            let sep = if j + 1 < s.stages_hot.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"stage\":{},\"rx_frames\":{},\"forwarded_frames\":{},\
                 \"dropped_frames\":{},\"held_frames\":{},\"backlog_high_ns\":{}}}{}\n",
                r.stage,
                r.rx_frames,
                r.forwarded_frames,
                r.dropped_frames,
                r.held_frames,
                r.backlog_high_ns,
                sep
            ));
        }
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        out.push_str(&format!("   ]}}{}\n", sep));
    }
    out.push_str(&format!(
        "],\n\"chaos\": {{\"label\": \"{}\", \"loss_permille\": {}, \
         \"hubs\": {}, \"intended\": {}, \"responses\": {}, \"timeouts\": {}, \
         \"failures\": {}, \"conserved\": {}, \"oracle_armed\": {}}}\n}}\n",
        chaos.label,
        chaos.loss_permille,
        chaos.hubs,
        chaos.intended,
        chaos.responses,
        chaos.timeouts,
        chaos.failures,
        chaos.conserved,
        chaos.oracle_armed
    ));
    out
}

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var("NECTAR_SCALE_QUICK").is_ok();
    let sizes = SizeCfg::sizes(quick);
    println!(
        "scale: {} fabric sizes, req/resp fleets up to {} endpoints, backpressure armed",
        sizes.len(),
        sizes.iter().map(|s| s.endpoints).max().unwrap_or(0)
    );
    let results: Vec<SizeResult> = sizes.iter().map(run_size).collect();

    println!("| size | hubs | stages | cabs | endpoints | knee rps | p99 µs @ knee |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for s in &results {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            s.label,
            s.hubs,
            s.stages,
            s.cabs,
            s.endpoints,
            s.knee_rps(),
            s.p99_at_knee() / 1_000
        );
    }

    let largest = sizes.last().expect("at least one size");
    println!("chaos: {} under {}%-loss fabric, oracle armed", largest.label, 2);
    let chaos = run_chaos(largest);
    println!(
        "  chaos ledger: intended={} responses={} timeouts={} failures={} (conserved)",
        chaos.intended, chaos.responses, chaos.timeouts, chaos.failures
    );

    nectar_bench::write_artifact("BENCH_scale.json", &to_json(quick, &results, &chaos));
}
