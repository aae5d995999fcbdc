//! Board-level pin for the select()-before-read fix: mailbox ops per
//! wake must not include charged empty Begin_Gets.
//!
//! Every failed Begin_Get costs the full mailbox-op charge (~4 µs of
//! CAB CPU) for zero work. Before this fix the echo services and the
//! load client discovered emptiness *through* that charge on every
//! wake, so the polling tax scaled with traffic — the flat udp knee at
//! 4k rps in BENCH_load.json. Every server loop now reads through
//! `Cx::try_get` (or `Cx::get_message`, built on it), so an empty
//! mailbox costs a free queue-count read. The empty polls left come
//! from readers that still Begin_Get without looking, a constant that
//! does not grow with traffic.
//!
//! `CabShared::mbox_empty_polls` counts exactly those failed
//! Begin_Gets, so the pin is: drive 4× the traffic through an echo
//! fleet and require the world-wide empty-poll count to stay flat
//! instead of scaling with the message count.

use nectar::config::Config;
use nectar::world::World;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{SimDuration, SimTime};

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
    let polls = world.cabs.iter().map(|c| c.shared.mbox_empty_polls).sum();
    let responses = fleet.ledger.borrow().responses;
    (polls, responses)
}

/// 4× the traffic, same fleet: the empty-poll count may not scale with
/// it. Covers CabEcho (datagram/reqresp/udp) and the
/// multiplexed LoadClient in one sweep — any of them regressing to
/// poll-by-failed-Begin_Get makes the count track the response count.
#[test]
fn empty_mailbox_polls_do_not_scale_with_traffic() {
    for transport in [LoadTransport::Datagram, LoadTransport::ReqResp, LoadTransport::Udp] {
        let (polls_small, resp_small) = run_fleet(transport, 5);
        let (polls_big, resp_big) = run_fleet(transport, 20);
        assert!(
            resp_big >= resp_small * 3,
            "{transport:?}: the long window should serve ~4x the requests \
             ({resp_small} vs {resp_big})"
        );
        // startup probes are identical across the two runs; per-wake
        // polling would add hundreds more in the long window
        assert!(
            polls_big <= polls_small + resp_big / 10,
            "{transport:?}: empty Begin_Gets scale with traffic \
             ({polls_small} at {resp_small} responses, {polls_big} at {resp_big})"
        );
    }
}

/// Absolute form of the same pin for one transport: across a whole
/// fleet run the failed Begin_Gets stay bounded by the (constant)
/// per-thread startup probes — mailbox ops per *wake* is then success
/// ops only.
#[test]
fn echo_fleet_pays_at_most_constant_empty_polls() {
    let (polls, responses) = run_fleet(LoadTransport::Datagram, 20);
    assert!(responses > 50, "fleet too idle to measure: {responses} responses");
    assert!(
        polls < 50,
        "a datagram echo fleet should pay only startup empty polls, got {polls} \
         over {responses} responses"
    );
}
