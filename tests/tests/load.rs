//! Load-engine integration: determinism at fleet scale, composition
//! with the chaos fault engine and the conformance oracle, and the
//! load ledger's conservation identity.
//!
//! The determinism test is the strong form the BENCH_load.json
//! contract rests on: two worlds built from the same plan inside one
//! process get *different* `HashMap` hash keys (std's `RandomState`
//! salts per instance), so any iteration-order dependence in the CAB
//! protocol threads shows up as diverging metric snapshots here.

use nectar::config::Config;
use nectar::fault::{FaultScript, LinkPlan};
use nectar::world::World;
use nectar_load::sweep::{run_sweep, variants_json};
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist, SweepConfig};
use nectar_sim::{SimDuration, SimTime};

/// A mixed-protocol plan with ≥200 clients across both HUBs.
fn big_mixed_plan(seed: u64) -> FleetPlan {
    FleetPlan {
        seed,
        mix: vec![
            (LoadTransport::Datagram, 48),
            (LoadTransport::Rmp, 48),
            (LoadTransport::ReqResp, 48),
            (LoadTransport::Udp, 48),
            (LoadTransport::Tcp, 48),
        ],
        clients_per_cab: 12,
        endpoints_per_client: 1,
        arrival: Arrival::Open { mean_gap: SimDuration::from_millis(2) },
        size: SizeDist::Uniform(32, 256),
        timeout: SimDuration::from_millis(20),
        start: SimTime::ZERO + SimDuration::from_millis(1),
        stop: SimTime::ZERO + SimDuration::from_millis(21),
    }
}

/// One full fleet run: returns the metric snapshot (which includes the
/// `net/load/*` ledger), a per-transport recorder digest and the
/// schedule digest.
fn run_fleet(
    plan: &FleetPlan,
    config: Config,
    script: Option<&FaultScript>,
) -> (String, String, u64) {
    let (mut world, mut sim) = World::new(config, plan.topology());
    if let Some(s) = script {
        world.install_fault_script(&mut sim, s);
    }
    let fleet = deploy_fleet(&mut world, plan);
    assert!(fleet.total_clients >= 200, "plan too small: {}", fleet.total_clients);
    // Generous horizon: the offered load deliberately saturates the
    // client CABs (12 threads × 20 µs context switches), so the
    // open-loop backlog drains well after `stop`. The queue empties
    // once every client finishes, and `run_until` returns early then.
    world.run_until(&mut sim, plan.stop + SimDuration::from_secs(2));

    let rec = fleet.recorder.borrow();
    let mut digest = String::new();
    for t in LoadTransport::ALL {
        let r = rec.record(t);
        digest.push_str(&format!(
            "{}: sent={} resp={} to={} fail={} stale={} late={} p50={} p99={}\n",
            t.name(),
            r.requests_sent,
            r.responses,
            r.timeouts,
            r.failures,
            r.stale_replies,
            r.late_dispatch,
            r.latency.percentile_nanos(0.50),
            r.latency.percentile_nanos(0.99),
        ));
    }
    let led = *fleet.ledger.borrow();
    // Conservation: every dispatched request resolves exactly once —
    // response, timeout, or stream failure; refused dispatches (sent
    // never incremented) land in `failures` too, so the three sinks
    // together account for every intended request.
    assert_eq!(
        led.responses + led.timeouts + led.failures,
        led.requests_intended,
        "unresolved or double-counted requests: {led:?}\n{digest}"
    );
    assert!(led.requests_sent <= led.requests_intended);
    assert!(led.responses > 0, "fleet made no progress: {led:?}");
    (world.metrics_json(), digest, sim.event_digest())
}

/// ISSUE 5 acceptance: a ≥200-client mixed-protocol fleet, run twice
/// in-process with the conformance oracle armed, must produce
/// byte-identical metric snapshots (including `net/load/*`) and
/// byte-identical latency digests — and zero oracle violations.
#[test]
fn mixed_fleet_double_run_is_bit_identical() {
    let plan = big_mixed_plan(0xfee1_600d);
    let config = Config { seed: plan.seed, oracle: Some(true), ..Config::default() };
    let (m1, d1, e1) = run_fleet(&plan, config, None);
    let (m2, d2, e2) = run_fleet(&plan, config, None);
    assert_eq!(e1, e2, "same-seed runs executed different schedules");
    assert!(d1 == d2, "latency digests diverged:\n--- run 1\n{d1}\n--- run 2\n{d2}");
    assert!(m1 == m2, "metric snapshots diverged across same-seed runs");
    // the ledger must actually be in the snapshot
    assert!(m1.contains("\"net/load/responses\""), "net/load/* keys missing from metrics");
}

/// A fleet with a different seed must actually behave differently —
/// guards against the digest comparing constants. The oracle is left at
/// the process default: the sibling tests arm it on other threads, and
/// `Config::oracle` flips a process-wide switch.
#[test]
fn different_seeds_give_different_schedules() {
    let p1 = big_mixed_plan(0xfee1_600d);
    let p2 = big_mixed_plan(0x0dd_5eed);
    let c1 = Config { seed: p1.seed, ..Config::default() };
    let c2 = Config { seed: p2.seed, ..Config::default() };
    let (m1, _, _) = run_fleet(&p1, c1, None);
    let (m2, _, _) = run_fleet(&p2, c2, None);
    assert!(m1 != m2, "independent seeds produced identical worlds");
}

/// Chaos composition: a small fleet rides out a lossy fabric with the
/// conformance oracle armed. Retransmitting transports still complete
/// requests; the ledger conservation identity holds with timeouts now
/// doing real work; and the oracle sees no illegal TCP transitions.
#[test]
fn small_fleet_survives_faults_with_oracle_armed() {
    let plan = FleetPlan {
        seed: 0xc0a5,
        mix: vec![(LoadTransport::Rmp, 8), (LoadTransport::ReqResp, 8), (LoadTransport::Tcp, 8)],
        clients_per_cab: 8,
        endpoints_per_client: 1,
        arrival: Arrival::Open { mean_gap: SimDuration::from_millis(2) },
        size: SizeDist::Fixed(128),
        timeout: SimDuration::from_millis(25),
        start: SimTime::ZERO + SimDuration::from_millis(1),
        stop: SimTime::ZERO + SimDuration::from_millis(26),
    };
    let mut config = Config { seed: plan.seed, oracle: Some(true), ..Config::default() };
    // give stop-and-wait channels room to back off through the loss
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;
    let topo = plan.topology();
    let script = FaultScript::uniform(&topo, LinkPlan { loss: 0.03, ..LinkPlan::default() });
    assert!(!script.is_empty());

    let (mut world, mut sim) = World::new(config, topo);
    world.install_fault_script(&mut sim, &script);
    let fleet = deploy_fleet(&mut world, &plan);
    world.run_until(&mut sim, plan.stop + SimDuration::from_secs(2));
    assert!(
        nectar_stack::conform::enabled(),
        "oracle was disarmed mid-run; the zero-violation claim is vacuous"
    );

    let led = *fleet.ledger.borrow();
    assert_eq!(led.responses + led.timeouts + led.failures, led.requests_intended);
    assert!(led.responses > 0, "no requests survived 3% loss: {led:?}");
    let rec = fleet.recorder.borrow();
    for t in [LoadTransport::Rmp, LoadTransport::ReqResp] {
        assert!(rec.record(t).responses > 0, "{} made no progress under loss", t.name());
    }
}

/// The quick capacity sweep (the CI smoke configuration) renders
/// byte-identical JSON across two in-process runs and finds a knee for
/// every transport it drives.
#[test]
fn quick_sweep_is_deterministic_and_finds_knees() {
    let cfg = SweepConfig::quick(0x5eed);
    let r1 = run_sweep(&cfg);
    let r2 = run_sweep(&cfg);
    assert_eq!(
        variants_json(std::slice::from_ref(&r1)),
        variants_json(&[r2]),
        "sweep JSON diverged across same-seed runs"
    );
    for s in &r1.sweeps {
        assert!(
            s.points.iter().any(|p| p.responses > 0),
            "{} served nothing at any load step",
            s.transport.name()
        );
        assert!(
            s.knee.is_some(),
            "{} has no capacity knee — even the lightest step was saturated",
            s.transport.name()
        );
    }
    // the markdown table renders one row per point
    let md = r1.to_markdown();
    let rows = md.lines().filter(|l| l.starts_with("| ")).count();
    assert_eq!(rows, cfg.transports.len() * cfg.offered_rps.len() + 1);
}
