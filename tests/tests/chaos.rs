//! Chaos invariant harness: randomized per-link fault schedules
//! against the §6 production deployment (26 hosts, 2 HUBs).
//!
//! Every case draws a [`FaultScript`] — per-fiber loss, corruption,
//! Gilbert–Elliott bursts, link down-windows and CAB blackouts, all
//! healed well before the horizon — installs it, drives the pairwise
//! RMP/TCP load, and asserts the global invariants:
//!
//! 1. **Progress**: the event queue drains before the horizon (no
//!    scheduler deadlock, no timer storm).
//! 2. **Post-heal delivery**: every stream completes with exactly its
//!    payload byte count once the faults lift.
//! 3. **Conservation**: every launched frame met exactly one fate —
//!    injected loss, a down/dark drop, a HUB drop, a dead-end port, an
//!    RX-FIFO overflow, or delivery into a CAB's input FIFO.
//! 4. **Sequence sanity**: per TCP socket, `snd_una ≤ snd_nxt`, and
//!    `snd_una`/`rcv_nxt` only move forward between samples.
//!
//! A failing schedule is shrunk (greedy clause removal) to a minimal
//! script and printed along with the replay seed; re-run one case with
//! `NECTAR_CHECK_SEED=<seed>`, and scale the sweep with
//! `NECTAR_CHAOS_CASES=<n>`.

use nectar::config::Config;
use nectar::fault::{FaultScript, LinkPlan};
use nectar::scenario::two_hub_pair_load;
use nectar::topology::Topology;
use nectar::world::World;
use nectar_sim::{check, SimDuration, SimTime};
use nectar_stack::tcp::TcpState;
use nectar_wire::tcp::SeqNum;

/// Payload per stream — small enough for a debug-build sweep, large
/// enough that every stream spans many fragments/segments.
const BYTES_PER_PAIR: u64 = 12 * 1024;

/// All injected faults heal by here (enforced by the generator).
fn heal_time() -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(40)
}

/// Hard horizon: with every fault healed at 40 ms, all recovery paths
/// (RMP backoff, TCP RTO doubling, TIME_WAIT drain) fit long before
/// this; hitting it with events still queued is a deadlock/storm.
fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(60)
}

/// Chaos tuning: the paper's constant 5 ms RMP timeout and 10 retries
/// give up after 50 ms of darkness — under scheduled outages the
/// channel must instead back off and outlive the window.
fn chaos_config(seed: u64) -> Config {
    chaos_tuned(Config::default(), seed)
}

/// The chaos tuning applied over any base profile.
fn chaos_tuned(base: Config, seed: u64) -> Config {
    let mut config = Config { seed, ..base };
    config.rmp.rto_max = SimDuration::from_millis(20);
    config.rmp.max_retries = 64;
    // Every chaos case runs with the conformance oracle armed: on top
    // of the four harness invariants below, each socket carries its
    // own monitor (sequence-space sanity, legal state transitions,
    // emission bounds) and reassembly/RMP delivery are cross-checked,
    // all panicking with a replay seed on violation.
    config.oracle = Some(true);
    config
}

/// One socket's identity, state and `(snd_una, snd_nxt, rcv_nxt)`.
type SocketSample = ((usize, u32), TcpState, (SeqNum, SeqNum, SeqNum));

/// Sample every TCP socket across the fabric.
fn seq_sample(world: &World) -> Vec<SocketSample> {
    let mut out = Vec::new();
    for (i, cab) in world.cabs.iter().enumerate() {
        for (id, sock) in cab.proto.tcp.sockets() {
            out.push(((i, *id), sock.state(), sock.seq_state()));
        }
    }
    out
}

/// The ISSUE 8 transport fast path on top of the chaos tuning:
/// windowed RMP, TCP SACK + window scaling, and batched host I/O, all
/// under the same armed oracle. Chaos is exactly where these paths
/// earn their keep — loss and outages are what exercise selective
/// acks and scoreboard retransmission.
fn fastpath_config(seed: u64) -> Config {
    let mut config = chaos_tuned(Config::modern(), seed);
    // chaos keeps the LAN RTO floor: recovery after the 40 ms heal is
    // what the horizon and the progress samples are sized for
    config.tcp.rto_min = Config::default().tcp.rto_min;
    config
}

/// Run one fault schedule to quiescence and check every invariant.
/// `Err` carries a human-readable violation for the shrink report.
fn run_case(seed: u64, script: &FaultScript) -> Result<(), String> {
    run_case_with(chaos_config(seed), script)
}

/// [`run_case`] with an explicit world configuration.
fn run_case_with(config: Config, script: &FaultScript) -> Result<(), String> {
    let (mut world, mut sim) = World::new(config, Topology::two_hubs(26));
    world.install_fault_script(&mut sim, script);
    let handles = two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024);

    world.run_until(&mut sim, heal_time());
    let mid = seq_sample(&world);
    world.run_until(&mut sim, horizon());
    let end = seq_sample(&world);

    // 1. progress: quiescent before the horizon
    if sim.pending() != 0 {
        return Err(format!("{} events still pending at the horizon", sim.pending()));
    }

    // 2. post-heal delivery, exact byte counts
    for (i, (received, done)) in handles.iter().enumerate() {
        if !done.get() || received.get() != BYTES_PER_PAIR {
            return Err(format!(
                "stream {i} delivered {} of {BYTES_PER_PAIR} bytes (done={})",
                received.get(),
                done.get()
            ));
        }
    }

    // 3. frames/bytes conservation, with the fault-engine sink terms
    let snap = world.metrics();
    let g = |k: &str| snap.get(k).unwrap_or(0);
    let launched = g("net/frames_launched");
    let sinks = g("net/frames_lost_injected")
        + g("net/frames_dead_end")
        + g("net/fault/frames_down_dropped")
        + snap.sum_matching("hub/", "/dropped_frames")
        + snap.sum_matching("node/", "/link/rx_frames")
        + snap.sum_matching("node/", "/link/rx_fifo_dropped_frames");
    if launched != sinks {
        return Err(format!("frame conservation broke: launched={launched} sinks={sinks}"));
    }
    let bytes_launched = g("net/bytes_launched");
    let byte_sinks = g("net/bytes_lost_injected")
        + g("net/bytes_dead_end")
        + g("net/fault/bytes_down_dropped")
        + snap.sum_matching("hub/", "/dropped_bytes")
        + snap.sum_matching("node/", "/link/rx_bytes")
        + snap.sum_matching("node/", "/link/rx_fifo_dropped_bytes");
    if bytes_launched != byte_sinks {
        return Err(format!(
            "byte conservation broke: launched={bytes_launched} sinks={byte_sinks}"
        ));
    }

    // 4. sequence sanity: per socket, and forward-only between samples.
    // The cross-sample check only applies once the connection was
    // synchronized at the first sample: before the handshake completes
    // `rcv_nxt` is a placeholder, not a sequence position.
    for sample in [&mid, &end] {
        for ((cab, id), _, (snd_una, snd_nxt, _)) in sample.iter() {
            if !snd_una.before_eq(*snd_nxt) {
                return Err(format!(
                    "cab {cab} socket {id}: snd_una {snd_una:?} ran past snd_nxt {snd_nxt:?}"
                ));
            }
        }
    }
    for (key, state, (una_mid, _, rcv_mid)) in mid.iter() {
        if !state.synchronized() {
            continue;
        }
        if let Some((_, _, (una_end, _, rcv_end))) = end.iter().find(|(k, _, _)| k == key) {
            if !una_mid.before_eq(*una_end) || !rcv_mid.before_eq(*rcv_end) {
                return Err(format!(
                    "cab {} socket {}: sequence state moved backwards",
                    key.0, key.1
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn chaos_randomized_fault_schedules_preserve_invariants() {
    // ≥20 randomized schedules by default; NECTAR_CHAOS_CASES overrides
    // (CI smoke runs 5, the full sweep runs more). NECTAR_CHECK_SEED
    // replays a single failing case exactly.
    let n = check::cases_from_env("NECTAR_CHAOS_CASES", 20);
    let topo = Topology::two_hubs(26);
    check::cases(n, |g| {
        let seed = g.u64();
        let script = FaultScript::random(g, &topo, heal_time());
        if let Err(violation) = run_case(seed, &script) {
            // shrink to a minimal script that still breaks an invariant
            let minimal =
                check::shrink(script, |s| s.shrink_candidates(), |s| run_case(seed, s).is_err());
            let min_violation = run_case(seed, &minimal).unwrap_err();
            panic!(
                "chaos invariant violated: {violation}\n\
                 minimal fault script ({min_violation}):\n{minimal:#?}"
            );
        }
    });
}

#[test]
fn fast_path_chaos_schedule_preserves_invariants() {
    // One randomized schedule with the modern fast path enabled:
    // progress, exact post-heal delivery, conservation and sequence
    // sanity must all hold with windowed RMP retransmitting out of a
    // shared timer and TCP repairing holes from the SACK scoreboard.
    let topo = Topology::two_hubs(26);
    let mut g = check::Gen::new(0xfa57_0001);
    let seed = g.u64();
    let script = FaultScript::random(&mut g, &topo, heal_time());
    if let Err(violation) = run_case_with(fastpath_config(seed), &script) {
        panic!("fast-path chaos case violated an invariant: {violation}");
    }
}

#[test]
fn chaos_runs_with_the_oracle_armed() {
    // `chaos_config` must force the conformance oracle on, so the sweep
    // exercises the per-socket monitors even in release builds (where
    // the oracle defaults off).
    let (_world, _sim) = World::new(chaos_config(1), Topology::two_hubs(26));
    assert!(nectar_stack::conform::enabled(), "chaos must run with the conformance oracle enabled");
}

#[test]
fn faults_lift_at_heal_deadline() {
    // loss = 1.0 on every fiber with a heal deadline: nothing gets
    // through before heal, every stream completes after, and the
    // per-link loss counters stop growing the moment the deadline
    // passes. This pins that `LinkPlan::until` is honored end-to-end
    // (install → entry_verdict → world), not merely present in the
    // script — with inert deadlines the pre-heal blackout would be
    // permanent and no stream could ever finish.
    let topo = Topology::two_hubs(26);
    let script = FaultScript::uniform(
        &topo,
        LinkPlan { loss: 1.0, until: Some(heal_time()), ..LinkPlan::default() },
    );
    let (mut world, mut sim) = World::new(chaos_config(7), Topology::two_hubs(26));
    world.install_fault_script(&mut sim, &script);
    let handles = two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024);

    world.run_until(&mut sim, heal_time());
    let lost_at_heal = world.metrics().sum_matching("net/link/", "/frames_lost");
    assert!(lost_at_heal > 0, "loss=1.0 must be dropping frames before heal");
    for (received, _) in &handles {
        assert_eq!(received.get(), 0, "no payload can arrive through loss=1.0");
    }

    world.run_until(&mut sim, horizon());
    assert_eq!(
        world.metrics().sum_matching("net/link/", "/frames_lost"),
        lost_at_heal,
        "per-link loss counters must stop growing once the faults heal"
    );
    for (i, (received, done)) in handles.iter().enumerate() {
        assert!(
            done.get() && received.get() == BYTES_PER_PAIR,
            "stream {i} must complete after heal (got {} of {BYTES_PER_PAIR} bytes)",
            received.get()
        );
    }
}

#[test]
fn chaos_case_replays_bit_identically() {
    // same seed + same script ⇒ byte-identical snapshots, even under a
    // fault schedule exercising every engine feature
    let topo = Topology::two_hubs(26);
    let run = || {
        let mut g = check::Gen::new(0xdead_beef);
        let seed = g.u64();
        let script = FaultScript::random(&mut g, &topo, heal_time());
        let (mut world, mut sim) = World::new(chaos_config(seed), Topology::two_hubs(26));
        world.install_fault_script(&mut sim, &script);
        let _handles = two_hub_pair_load(&mut world, BYTES_PER_PAIR, 1024);
        world.run_until(&mut sim, horizon());
        (world.metrics_json(), sim.event_digest())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.1, b.1, "same-seed chaos runs must execute the same schedule");
    assert_eq!(a.0, b.0, "same-seed chaos runs must be bit-identical");
}
