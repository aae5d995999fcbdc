//! Board-level pin for select()-before-read: no CAB reader pays a
//! charged Begin_Get to find its mailbox empty.
//!
//! Every failed Begin_Get costs the full mailbox-op charge (~4 µs of
//! CAB CPU) for zero work. When the echo services and the load client
//! discovered emptiness *through* that charge on every wake, the
//! polling tax scaled with traffic — the flat udp knee at 4k rps in
//! BENCH_load.json. Every CAB mailbox reader now reads through
//! `Cx::try_get` (or `Cx::get_message`, built on it), so an empty
//! mailbox costs a free queue-count read.
//!
//! `CabShared::mbox_empty_polls` counts exactly the failed Begin_Gets,
//! so the pin is absolute: zero, world-wide, on the echo fleets of all
//! five transports and on the two-HUB stream mix. What is left for it
//! to count is host-side polling and RPC-mode gets, which none of these
//! runs do.

use nectar::config::Config;
use nectar::scenario::two_hub_pair_load;
use nectar::topology::Topology;
use nectar::world::World;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{SimDuration, SimTime};

fn empty_polls(world: &World) -> u64 {
    world.cabs.iter().map(|c| c.shared.mbox_empty_polls).sum()
}

/// Run a small echo fleet for `window_ms` of load and return
/// (world-wide empty Begin_Gets, responses served).
fn run_fleet(transport: LoadTransport, window_ms: u64) -> (u64, u64) {
    let plan = FleetPlan {
        seed: 0x9011,
        mix: vec![(transport, 4)],
        clients_per_cab: 2,
        endpoints_per_client: 2,
        arrival: Arrival::Open { mean_gap: SimDuration::from_micros(500) },
        size: SizeDist::Fixed(64),
        timeout: SimDuration::from_millis(10),
        start: SimTime::ZERO + SimDuration::from_millis(1),
        stop: SimTime::ZERO + SimDuration::from_millis(1 + window_ms),
    };
    let config = Config { seed: plan.seed, ..Config::default() };
    let (mut world, mut sim) = World::new(config, plan.topology());
    let fleet = deploy_fleet(&mut world, &plan);
    world.run_until(&mut sim, plan.stop + SimDuration::from_millis(30));
    let responses = fleet.ledger.borrow().responses;
    (empty_polls(&world), responses)
}

/// 4× the traffic, same fleet, and still not one empty Begin_Get. Covers
/// the echo services (`CabEcho`, `CabTcpEchoServer`) and the
/// multiplexed `LoadClient` over every transport.
#[test]
fn empty_mailbox_polls_do_not_scale_with_traffic() {
    for transport in LoadTransport::ALL {
        let (polls_small, resp_small) = run_fleet(transport, 5);
        let (polls_big, resp_big) = run_fleet(transport, 20);
        assert!(
            resp_big >= resp_small * 3,
            "{transport:?}: the long window should serve ~4x the requests \
             ({resp_small} vs {resp_big})"
        );
        assert_eq!(
            (polls_small, polls_big),
            (0, 0),
            "{transport:?}: empty Begin_Gets at {resp_small} and {resp_big} responses"
        );
    }
}

/// The Figure 7 applications — `CabSink`, `CabTcpListener` and the two
/// streamers — over 20 ms of the 26-CAB stream mix.
#[test]
fn stream_mix_pays_no_empty_polls() {
    let (mut world, mut sim) = World::new(Config::default(), Topology::two_hubs(26));
    let handles = two_hub_pair_load(&mut world, u64::MAX / 2, 1024);
    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_millis(20));
    assert!(handles.iter().all(|(received, _)| received.get() > 0), "a stream never delivered");
    assert_eq!(empty_polls(&world), 0);
}
