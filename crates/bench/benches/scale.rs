//! Scale sweep: capacity knee and tail latency as the fabric grows
//! from the paper's two bridged HUBs to a three-stage folded-Clos of
//! 16×16 crossbars, with xon/xoff trunk backpressure armed.
//!
//!     cargo bench -p nectar-bench --bench scale [-- --quick]
//!
//! Each fabric size runs a single-transport (req/resp) fleet — at the
//! largest size 10k+ lightweight endpoints multiplexed over a few
//! hundred client threads — through increasing aggregate offered
//! load. Every point is a `nectar_load::sweep::measure_point` row plus
//! the frames the fabric held, with the per-stage hotspot rollup
//! (`net/fabric/stage/*`) read from the world it ran in; the sweep
//! locates the SLO knee per size. One chaos point then re-runs the
//! largest fabric with the fault engine and the conformance oracle
//! armed. Results land in `BENCH_scale.json` (in `$NECTAR_BENCH_DIR`
//! when set, else the workspace root).
//!
//! Determinism contract: every reported quantity is integer-valued
//! and schedule-derived, so same-seed runs render byte-identical
//! JSON — CI double-runs `--quick` and diffs the bytes.

use nectar::config::Config;
use nectar::fault::{FaultScript, LinkPlan};
use nectar::world::World;
use nectar_hub::Backpressure;
use nectar_load::sweep::{knee, measure_point, schedule};
use nectar_load::{deploy_fleet, FleetPlan, LoadPoint, LoadTransport, SizeDist};
use nectar_sim::json::Json::{self, Arr, Obj, Row, B, S, U};
use nectar_sim::{par_map, SimDuration};

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
        let (arrival, start, stop) = schedule(self.endpoints, offered_rps, self.measure);
        FleetPlan {
            seed: SEED ^ ((self.endpoints as u64) << 40) ^ offered_rps,
            mix: vec![(LoadTransport::ReqResp, per_server); self.servers],
            clients_per_cab: 1,
            endpoints_per_client: self.endpoints_per_client,
            arrival,
            size: SizeDist::Fixed(128),
            timeout: SimDuration::from_millis(50),
            start,
            stop,
        }
    }
}

/// The world configuration every scale point runs under: defaults plus
/// xon/xoff trunk backpressure, so an oversubscribed stage holds frames
/// (the rollup's `held_frames`) instead of dropping them.
fn scale_config(seed: u64, oracle: bool) -> Config {
    let mut config = Config { seed, oracle: Some(oracle), ..Config::default() };
    config.hub.backpressure = Some(Backpressure::default());
    config
}

/// Columns of the `net/fabric/stage/<s>/*` rollup, in artifact order.
const STAGE_COLS: [&str; 5] =
    ["rx_frames", "forwarded_frames", "dropped_frames", "held_frames", "backlog_high_ns"];

/// One load point through the shared engine, plus what only this sweep
/// reads from the world it ran in.
struct Measured {
    point: LoadPoint,
    /// Frames the fabric held under xon/xoff.
    held_frames: u64,
    /// The stage rollup, a row of [`STAGE_COLS`] per stage.
    stages: Vec<[u64; 5]>,
}

struct SizeResult {
    label: &'static str,
    hubs: u64,
    stages: u64,
    cabs: u64,
    endpoints: u64,
    client_threads: u64,
    points: Vec<Measured>,
    knee: Option<usize>,
}

impl SizeResult {
    fn knee_rps(&self) -> u64 {
        self.knee.map(|i| self.points[i].point.offered_rps).unwrap_or(0)
    }

    fn p99_at_knee(&self) -> u64 {
        self.knee.map(|i| self.points[i].point.p99_ns).unwrap_or(0)
    }

    /// The stage rollup at the heaviest offered step.
    fn stages_hot(&self) -> &[[u64; 5]] {
        self.points.last().map_or(&[], |m| &m.stages)
    }
}

fn run_point(size: &SizeCfg, offered_rps: u64) -> Measured {
    let plan = size.plan(offered_rps);
    let (point, world) = measure_point(&plan, scale_config(plan.seed, false), offered_rps);
    let snap = world.metrics();
    let stage = |s| STAGE_COLS.map(|k| snap.get(&format!("net/fabric/stage/{s}/{k}")).unwrap_or(0));
    Measured {
        point,
        held_frames: snap.sum_matching("net/fabric/stage/", "/held_frames"),
        stages: (0..world.topo.stages()).map(stage).collect(),
    }
}

fn size_result(size: &SizeCfg, points: Vec<Measured>) -> SizeResult {
    let plan = size.plan(size.offered_rps[0]);
    let topo = plan.topology();
    for Measured { point: p, held_frames, .. } in &points {
        println!(
            "  {} @ {} rps: achieved {} rps, p99 {} µs, held {} frames",
            size.label,
            p.offered_rps,
            p.achieved_rps,
            p.p99_ns / 1_000,
            held_frames
        );
    }
    let load_points: Vec<LoadPoint> = points.iter().map(|m| m.point).collect();
    SizeResult {
        label: size.label,
        hubs: topo.hubs as u64,
        stages: topo.stages() as u64,
        cabs: topo.cabs() as u64,
        endpoints: size.endpoints as u64,
        client_threads: plan.client_threads() as u64,
        knee: knee(&load_points, SLO_P99.as_nanos()),
        points,
    }
}

/// One chaos point at the largest fabric size: uniform per-fiber
/// loss, conformance oracle armed, conservation identity checked on
/// the load ledger. Returns the artifact's `chaos` row; what the row
/// claims is asserted here, where the values are still typed.
fn run_chaos(size: &SizeCfg) -> Json<'static> {
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
    let oracle_armed = nectar_stack::conform::enabled();
    assert!(oracle_armed, "oracle was disarmed mid-run; the chaos-clean claim is vacuous");

    let led = *fleet.ledger.borrow();
    let conserved = led.responses + led.timeouts + led.failures == led.requests_intended;
    assert!(conserved, "chaos ledger leaked requests");
    assert!(led.responses > 0, "chaos fleet made no progress under {LOSS} loss");
    println!(
        "  chaos ledger: intended={} responses={} timeouts={} failures={} (conserved)",
        led.requests_intended, led.responses, led.timeouts, led.failures
    );
    Row(vec![
        ("label", S(size.label)),
        ("loss_permille", U((LOSS * 1000.0) as u64)),
        ("hubs", U(topo.hubs as u64)),
        ("intended", U(led.requests_intended)),
        ("responses", U(led.responses)),
        ("timeouts", U(led.timeouts)),
        ("failures", U(led.failures)),
        ("conserved", B(conserved)),
        ("oracle_armed", B(oracle_armed)),
    ])
}

/// What the artifact claims about the sizes, checked before it is
/// written (the chaos row's claims are asserted in [`run_chaos`]).
fn check(sizes: &[SizeResult]) {
    assert!(sizes.len() >= 3, "only {} fabric sizes", sizes.len());
    assert!(sizes.windows(2).all(|w| w[0].hubs < w[1].hubs), "fabric sizes not strictly growing");
    assert!(sizes.iter().any(|s| s.stages >= 2), "no multi-stage Clos size in the sweep");
    for s in sizes {
        assert!(s.knee_rps() > 0, "{}: no capacity knee", s.label);
        assert!(s.points.iter().any(|m| m.point.responses > 0), "{}: served nothing", s.label);
        assert_eq!(s.stages_hot().len() as u64, s.stages, "{}: rollup misses stages", s.label);
    }
}

fn to_json(quick: bool, sizes: &[SizeResult], chaos: Json) -> String {
    let point = |m: &Measured| {
        let mut row = m.point.fields();
        row.push(("held_frames", U(m.held_frames)));
        Row(row)
    };
    let hotspot = |(stage, cols): (usize, &[u64; 5])| {
        let mut row = vec![("stage", U(stage as u64))];
        row.extend(STAGE_COLS.iter().zip(cols).map(|(&k, &v)| (k, U(v))));
        Row(row)
    };
    let size = |s: &SizeResult| {
        Obj(vec![
            ("label", S(s.label)),
            ("hubs", U(s.hubs)),
            ("stages", U(s.stages)),
            ("cabs", U(s.cabs)),
            ("endpoints", U(s.endpoints)),
            ("client_threads", U(s.client_threads)),
            ("knee_rps", U(s.knee_rps())),
            ("p99_ns_at_knee", U(s.p99_at_knee())),
            ("points", Arr(s.points.iter().map(point).collect())),
            ("stage_hotspots", Arr(s.stages_hot().iter().enumerate().map(hotspot).collect())),
        ])
    };
    Obj(vec![
        ("seed", U(SEED)),
        ("mode", S(if quick { "quick" } else { "full" })),
        ("slo_p99_ns", U(SLO_P99.as_nanos())),
        ("sizes", Arr(sizes.iter().map(size).collect())),
        ("chaos", chaos),
    ])
    .render()
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
    // every point of every size is its own world: run them in parallel
    let grid: Vec<(&SizeCfg, u64)> =
        sizes.iter().flat_map(|s| s.offered_rps.iter().map(move |&rps| (s, rps))).collect();
    let mut measured = par_map(&grid, |&(size, rps)| run_point(size, rps)).into_iter();
    let results: Vec<SizeResult> = sizes
        .iter()
        .map(|s| size_result(s, measured.by_ref().take(s.offered_rps.len()).collect()))
        .collect();

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

    check(&results);
    nectar_bench::write_artifact("BENCH_scale.json", &to_json(quick, &results, chaos));
}
