//! Shard-invariance suite: the deterministic sharded runner must make
//! shard count unobservable.
//!
//! The contract under test (DESIGN.md §13): in deterministic mode the
//! merged `(time, seq)` event order — and therefore every metric
//! snapshot, fixture, and latency digest — is bit-for-bit the
//! single-thread result at *any* shard count. Fast mode promises less
//! (per-shard determinism only), and its reproducibility and
//! conservation properties are pinned here too.
//!
//! The fixture comparison reuses the committed kernel-swap fixture
//! (`fixtures/twohub_metrics.json`); a diff there means sharding
//! changed observable behaviour, which is never intentional.

use nectar::config::Config;
use nectar::scenario::two_hub_pair_load;
use nectar::shard::{run_fast, ShardedWorld};
use nectar::topology::Topology;
use nectar::world::{Sim, World};
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{MetricsSnapshot, SimDuration, SimTime};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/twohub_metrics.json");

/// The committed 26-host scenario, identical to simkernel.rs.
fn pair_world() -> (World, Sim) {
    let (mut world, sim) = World::new(Config::default(), Topology::two_hubs(26));
    let _handles = two_hub_pair_load(&mut world, u64::MAX / 2, 1024);
    (world, sim)
}

fn pair_deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(10)
}

/// ISSUE 6 acceptance: deterministic mode reproduces the committed
/// single-thread fixture byte-identically at shards = 1, 2 and 4.
/// Shards 1 and 2 split along HUB domains; 4 exercises the per-node
/// fallback, which cuts every CAB↔HUB fiber.
#[test]
fn det_mode_reproduces_twohub_fixture_at_any_shard_count() {
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; bless it via the simkernel test first");
    for shards in [1, 2, 4] {
        let mut sw = ShardedWorld::build(shards, pair_world);
        sw.run_until(pair_deadline());
        let got = sw.metrics_json();
        assert!(
            got == want,
            "deterministic mode at {shards} shards diverged from the committed fixture \
             (got {} bytes, want {})",
            got.len(),
            want.len()
        );
    }
}

/// The same invariance, checked against a fresh unsharded run instead
/// of the committed file — catches divergence even right after an
/// intentional re-bless.
#[test]
fn det_mode_matches_unsharded_run_exactly() {
    let (mut world, mut sim) = pair_world();
    world.run_until(&mut sim, pair_deadline());
    let want = world.metrics_json();
    for shards in [2, 4] {
        let mut sw = ShardedWorld::build(shards, pair_world);
        sw.run_until(pair_deadline());
        assert!(sw.metrics_json() == want, "{shards}-shard run diverged from single-thread");
        // the pair load is unbounded, so events remain pending at the
        // deadline — just confirm the sharded run actually did work
        assert!(sw.executed() > 0, "sharded run executed nothing");
    }
}

/// The shard-invariance contract with the ISSUE 8 transport fast path
/// enabled — windowed RMP, TCP SACK + window scaling, doorbell
/// coalescing and a larger mailbox burst — and the conformance oracle
/// armed: deterministic mode at 2 and 4 shards must still be
/// bit-identical to the unsharded run. (The committed fixture pins the
/// *defaults*; this pins that the new knobs don't smuggle
/// shard-visible state into the event order.)
#[test]
fn det_mode_matches_unsharded_with_fast_path_enabled() {
    let config = Config { oracle: Some(true), ..Config::modern() };
    let build = move || {
        let (mut world, sim) = World::new(config, Topology::two_hubs(26));
        let _handles = two_hub_pair_load(&mut world, u64::MAX / 2, 1024);
        (world, sim)
    };
    let (mut world, mut sim) = build();
    world.run_until(&mut sim, pair_deadline());
    let want = world.metrics_json();
    for shards in [2, 4] {
        let mut sw = ShardedWorld::build(shards, build);
        sw.run_until(pair_deadline());
        assert!(
            sw.metrics_json() == want,
            "fast-path {shards}-shard run diverged from single-thread"
        );
        assert!(sw.executed() > 0, "sharded fast-path run executed nothing");
    }
}

/// A ≥200-client mixed-protocol fleet (the PR 5 load engine) under the
/// deterministic sharded runner: merged metric snapshots *and* merged
/// per-transport latency digests must be byte-identical at shards =
/// 1/2/4 and equal to the unsharded run.
#[test]
fn det_mode_preserves_fleet_latency_digests() {
    let plan = FleetPlan {
        seed: 0x51a4d ^ 0xfee1_600d, // fixed, arbitrary
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
    };
    let deadline = plan.stop + SimDuration::from_secs(2);
    let config = Config { seed: plan.seed, oracle: Some(true), ..Config::default() };

    // unsharded reference
    let run_unsharded = || {
        let (mut world, mut sim) = World::new(config, plan.topology());
        let fleet = deploy_fleet(&mut world, &plan);
        world.run_until(&mut sim, deadline);
        let digest = fleet_digest(&[fleet.recorder.borrow().clone()]);
        (world.metrics_json(), digest)
    };
    let (want_metrics, want_digest) = run_unsharded();
    assert!(want_digest.contains("p99="), "digest format drifted");

    for shards in [1, 2, 4] {
        // every shard deploys the full fleet; only owned clients run,
        // so per-shard recorders hold disjoint pieces of the truth
        let mut recorders = Vec::new();
        let mut sw = ShardedWorld::build(shards, || {
            let (mut world, sim) = World::new(config, plan.topology());
            let fleet = deploy_fleet(&mut world, &plan);
            recorders.push(fleet.recorder.clone());
            (world, sim)
        });
        sw.run_until(deadline);
        assert!(sw.metrics_json() == want_metrics, "fleet metrics diverged at {shards} shards");
        let parts: Vec<_> = recorders.iter().map(|r| r.borrow().clone()).collect();
        let digest = fleet_digest(&parts);
        assert!(
            digest == want_digest,
            "latency digest diverged at {shards} shards:\n--- unsharded\n{want_digest}\n--- {shards} shards\n{digest}"
        );
    }
}

/// Merge per-shard recorders (counter sums + histogram merges) and
/// render the same digest format as the load suite.
fn fleet_digest(parts: &[nectar_load::LoadRecorder]) -> String {
    let mut digest = String::new();
    for t in LoadTransport::ALL {
        let mut merged = nectar_load::TransportRecord::default();
        for p in parts {
            let r = p.record(t);
            merged.latency.merge(&r.latency);
            merged.requests_sent += r.requests_sent;
            merged.responses += r.responses;
            merged.timeouts += r.timeouts;
            merged.failures += r.failures;
            merged.stale_replies += r.stale_replies;
            merged.late_dispatch += r.late_dispatch;
            merged.bytes_sent += r.bytes_sent;
            merged.bytes_received += r.bytes_received;
        }
        digest.push_str(&format!(
            "{}: sent={} resp={} to={} fail={} stale={} late={} p50={} p99={}\n",
            t.name(),
            merged.requests_sent,
            merged.responses,
            merged.timeouts,
            merged.failures,
            merged.stale_replies,
            merged.late_dispatch,
            merged.latency.percentile_nanos(0.50),
            merged.latency.percentile_nanos(0.99),
        ));
    }
    digest
}

/// Fast mode's weaker contract: two same-recipe runs at the same shard
/// count produce byte-identical merged snapshots (per-shard
/// determinism), even though no global event order is defined.
#[test]
fn fast_mode_is_reproducible_run_to_run() {
    let topo = Topology::two_hubs(26);
    let run = || {
        let parts = run_fast(2, &topo, pair_deadline(), pair_world, |_, w, _| w.metrics());
        MetricsSnapshot::merge_sum(&parts).to_json()
    };
    let a = run();
    assert!(a.contains("net/frames_launched"), "fast run produced an empty snapshot");
    assert_eq!(a, run(), "fast mode diverged across same-recipe runs");
}

/// Fast mode at quiescence: with a finite workload fully drained before
/// the deadline, nothing is in flight at a shard boundary, so frame and
/// byte conservation must hold on the merged snapshot — and every
/// stream must have completed, proving cross-shard frames actually
/// flow (not just that nothing deadlocks).
#[test]
fn fast_mode_conserves_frames_at_quiescence() {
    let topo = Topology::two_hubs(26);
    const BYTES_PER_PAIR: u64 = 64 * 1024;
    let deadline = SimTime::ZERO + SimDuration::from_millis(400);
    for shards in [2, 4] {
        let parts = run_fast(
            shards,
            &topo,
            deadline,
            || {
                let (mut world, sim) = World::new(Config::default(), Topology::two_hubs(26));
                let _handles = two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024);
                (world, sim)
            },
            |_, w, sim| {
                // per-shard stream completion: every pair handle this
                // shard owns the receiver of must be done
                (w.metrics(), sim.pending(), sim.executed())
            },
        );
        assert!(parts.iter().all(|(_, pending, _)| *pending == 0), "events left at quiescence");
        let snaps: Vec<_> = parts.iter().map(|(m, _, _)| m.clone()).collect();
        let snap = MetricsSnapshot::merge_sum(&snaps);
        let g = |k: &str| snap.get(k).unwrap_or(0);
        let launched = g("net/frames_launched");
        assert!(launched > 0, "no traffic at {shards} shards");
        let sinks = g("net/frames_lost_injected")
            + g("net/frames_dead_end")
            + snap.sum_matching("hub/", "/dropped_frames")
            + snap.sum_matching("node/", "/link/rx_frames")
            + snap.sum_matching("node/", "/link/rx_fifo_dropped_frames");
        assert_eq!(launched, sinks, "frame conservation broke at {shards} shards");
        // every pair's payload crossed the fabric end to end
        let delivered = snap.sum_matching("node/", "/rmp/messages_delivered");
        assert!(delivered > 0, "RMP made no progress at {shards} shards");
    }
}

/// ISSUE 10: the in-network collective engine under the shard contract.
/// A 16-member reduction tree spanning both HUB domains — Arrive
/// combining at interior CABs, Release fan-out, straggler timers —
/// must leave the merged metric snapshot byte-identical to the
/// unsharded run at shards = 1, 2 and 4.
#[test]
fn det_mode_matches_unsharded_with_collectives() {
    use nectar::collective::{deploy_barrier_fleet, CollectiveGroup};
    use nectar_wire::collective::CombineOp;

    let epochs = 3u32;
    let deadline = SimTime::ZERO + SimDuration::from_millis(200);
    let build = |handles: &mut Vec<Vec<nectar::collective::MemberHandles>>| {
        let (mut world, sim) = World::new(Config::default(), Topology::two_hubs(26));
        let group = CollectiveGroup::tree(5, (0..16).collect(), 4);
        handles.push(deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, epochs, |i| {
            i as u64 + 1
        }));
        (world, sim)
    };

    let mut solo = Vec::new();
    let (mut world, mut sim) = build(&mut solo);
    world.run_until(&mut sim, deadline);
    let want = world.metrics_json();
    assert!(solo[0].iter().all(|h| h.done.get() && h.last_value.get() == 136));

    for shards in [1, 2, 4] {
        let mut handle_sets = Vec::new();
        let mut sw = ShardedWorld::build(shards, || build(&mut handle_sets));
        sw.run_until(deadline);
        assert!(
            sw.metrics_json() == want,
            "collective {shards}-shard run diverged from single-thread"
        );
        // each member runs on whichever shard owns its CAB; merge the
        // replicated handle sets to confirm the barrier completed
        for i in 0..16 {
            assert!(
                handle_sets.iter().any(|h| h[i].done.get()),
                "member {i} never finished at {shards} shards"
            );
            let value = handle_sets.iter().map(|h| h[i].last_value.get()).max().unwrap();
            assert_eq!(value, 136, "member {i} reduction diverged at {shards} shards");
        }
    }
}

/// Chaos composition: a barrier fleet sharing the fabric with the
/// pairwise RMP/TCP load, 2% uniform frame loss on every fiber and the
/// conformance oracle armed, under the sharded kernel. The barrier
/// must complete every epoch with the exact sum, the streams must
/// deliver, and the ledger must balance with collective replication
/// and injected loss as explicit terms.
#[test]
fn collective_barrier_composes_with_chaos_under_shards() {
    use nectar::collective::{deploy_barrier_fleet, CollectiveGroup};
    use nectar::fault::{FaultScript, LinkPlan};
    use nectar_wire::collective::CombineOp;

    let topo = Topology::two_hubs(26);
    let heal = SimTime::ZERO + SimDuration::from_millis(400);
    let script = FaultScript::uniform(
        &topo,
        LinkPlan { loss: 0.02, until: Some(heal), ..LinkPlan::default() },
    );
    let mut config = Config { oracle: Some(true), ..Config::default() };
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;

    const BYTES_PER_PAIR: u64 = 4 * 1024;
    let epochs = 5u32;
    let mut handle_sets = Vec::new();
    let mut load_sets = Vec::new();
    let mut sw = ShardedWorld::build(2, || {
        let (mut world, mut sim) = World::new(config, Topology::two_hubs(26));
        world.install_fault_script(&mut sim, &script);
        load_sets.push(two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024));
        let group = CollectiveGroup::tree(3, (0..16).collect(), 4);
        handle_sets.push(deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, epochs, |i| {
            i as u64 + 1
        }));
        (world, sim)
    });
    sw.run_until(SimTime::ZERO + SimDuration::from_secs(10));

    // barrier: every member done with the exact sum, despite loss
    for i in 0..16 {
        assert!(handle_sets.iter().any(|h| h[i].done.get()), "member {i} stuck under chaos");
        assert!(handle_sets.iter().all(|h| !h[i].failed.get()), "member {i} gave up");
        let value = handle_sets.iter().map(|h| h[i].last_value.get()).max().unwrap();
        assert_eq!(value, 136, "member {i} reduced wrong value under chaos");
    }
    // unicast load: every stream delivered its bytes post-heal
    let pairs = load_sets[0].len();
    for i in 0..pairs {
        let received: u64 = load_sets.iter().map(|h| h[i].0.get()).sum();
        assert_eq!(received, BYTES_PER_PAIR, "stream {i} short under chaos");
    }
    // ledger: launched = sinks with replication and injected loss
    let snap = sw.metrics();
    let g = |k: &str| snap.get(k).unwrap_or(0);
    assert!(g("net/frames_lost_injected") > 0, "loss never fired");
    assert!(g("net/collective/replicas") > 0, "no fan-out in the composed run");
    let launched = g("net/frames_launched");
    let sinks = g("net/frames_lost_injected")
        + g("net/frames_dead_end")
        + g("net/fault/frames_down_dropped")
        + snap.sum_matching("hub/", "/dropped_frames")
        + snap.sum_matching("node/", "/link/rx_frames")
        + snap.sum_matching("node/", "/link/rx_fifo_dropped_frames");
    assert_eq!(launched, sinks, "conservation broke with collectives under chaos");
}
