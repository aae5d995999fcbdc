//! Copy census: the byte path's heap budget, as a count.
//!
//! A counting global allocator watches the 26-CAB two-HUB stream mix
//! (the `stream_twohub` benchmark workload: 7 RMP and 6 TCP saturating
//! 4 KiB streams) from 50 ms to 350 ms of simulated time and divides
//! what the simulator allocated by the payload it delivered. Both
//! figures are counts of a seeded, single-threaded run, so they repeat
//! exactly on any machine and in any build profile: a copy that creeps
//! back into the send or receive path fails here instead of in a
//! profile. DESIGN.md §9 has the ownership table the budget is derived
//! from.
//!
//! The same counters take a set-up census: the allocations and bytes
//! of building the `stream_twohub` world and one `rpc_mixed` fleet.
//! Wall-clock set-up time swings between process-level modes from run
//! to run; these counts do not, so they are the witness that set-up
//! did not grow.
//!
//! This file is its own test binary with exactly one `#[test]`, so no
//! other test's allocations land in the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nectar::config::Config;
use nectar::scenario::{two_hub_pair_load, CabSink, CabTcpListener, CabTcpStreamer, SharedCount};
use nectar::topology::Topology;
use nectar::world::World;
use nectar_cab::HostOpMode;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{SimDuration, SimTime};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation request and its size.
struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through untouched.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MSG_BYTES: usize = 4096;

/// The budget on the two-HUB mix. The byte path as built reads 3.45 heap
/// bytes per payload byte and 19.4 allocations per message. Before it
/// had a budget it read 8.23 and 33.4, and the first budget was 4.5 and
/// 28; 23.8 allocations before the CAB reused its notice buffers and
/// stopped collecting engine keys on every burst. One more
/// message-sized copy on the TCP streams alone adds 0.44 B/B and on the
/// RMP streams alone 0.57, so the bound sits closer than either: a
/// single copy creeping back in fails.
const MAX_BYTES_PER_BYTE: f64 = 3.6;
const MAX_ALLOCS_PER_MSG: f64 = 21.0;
/// Set-up budgets, as (allocations, heap bytes): what building each
/// world cost when the census was introduced, before a CAB sized its
/// thread and mailbox tables for what it creates at boot (350 / 193222
/// and 302 / 235895 after).
const MAX_TWOHUB_SETUP: (u64, u64) = (428, 225_670);
const MAX_RPC_MIXED_SETUP: (u64, u64) = (332, 248_375);
const WARM: SimDuration = SimDuration::from_millis(50);
const END: SimDuration = SimDuration::from_millis(350);

fn config() -> Config {
    // the oracle pinned off, as `stream_twohub` runs it, so a debug and
    // a release build count the same allocations
    Config { seed: 13, oracle: Some(false), ..Config::default() }
}

/// What one measured window cost.
struct Census {
    payload_bytes: u64,
    bytes_per_byte: f64,
    allocs_per_msg: f64,
}

/// Run `world` to 50 ms, then count heap traffic and delivered payload
/// up to 350 ms.
fn census(mut world: World, mut sim: nectar::world::Sim, received: &[SharedCount]) -> Census {
    let delivered = || received.iter().map(|c| c.get()).sum::<u64>();
    world.run_until(&mut sim, SimTime::ZERO + WARM);
    let (payload0, allocs0, bytes0) =
        (delivered(), ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    world.run_until(&mut sim, SimTime::ZERO + END);
    let payload_bytes = delivered() - payload0;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    Census {
        payload_bytes,
        bytes_per_byte: bytes as f64 / payload_bytes as f64,
        allocs_per_msg: allocs as f64 * MSG_BYTES as f64 / payload_bytes as f64,
    }
}

/// `build`'s result and the (allocations, bytes) it took to build it.
fn counted<T>(build: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (allocs0, bytes0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let built = build();
    let cost = (ALLOCS.load(Ordering::Relaxed) - allocs0, BYTES.load(Ordering::Relaxed) - bytes0);
    (built, cost)
}

/// Building the `stream_twohub` world: topology, world and the 13
/// stream pairs.
fn twohub_setup() -> (u64, u64) {
    counted(|| {
        let (mut world, sim) = World::new(config(), Topology::two_hubs(26));
        let handles = two_hub_pair_load(&mut world, u64::MAX / 2, MSG_BYTES);
        (world, sim, handles)
    })
    .1
}

/// Building one `rpc_mixed` fleet as the benchmark builds its light
/// step: twelve endpoints of each transport, twelve clients per CAB,
/// 64 B requests at 5000 rps aggregate, seed 13.
fn rpc_mixed_setup() -> (u64, u64) {
    let (rps, endpoints) = (5_000u64, 60u64);
    let start = SimTime::ZERO + SimDuration::from_millis(20);
    let plan = FleetPlan {
        seed: 13 ^ rps,
        mix: LoadTransport::ALL.iter().map(|t| (*t, endpoints as usize / 5)).collect(),
        clients_per_cab: 12,
        endpoints_per_client: 1,
        arrival: Arrival::Open {
            mean_gap: SimDuration::from_nanos(endpoints * 1_000_000_000 / rps),
        },
        size: SizeDist::Fixed(64),
        timeout: SimDuration::from_millis(50),
        start,
        stop: start + SimDuration::from_millis(500),
    };
    counted(|| {
        let config = Config { seed: plan.seed, oracle: Some(false), ..Config::default() };
        let (mut world, sim) = World::new(config, plan.topology());
        let fleet = deploy_fleet(&mut world, &plan);
        (world, sim, fleet)
    })
    .1
}

/// The benchmark's stream mix: 13 pairs over two HUBs.
fn twohub_mix() -> Census {
    let (mut world, sim) = World::new(config(), Topology::two_hubs(26));
    let handles = two_hub_pair_load(&mut world, u64::MAX / 2, MSG_BYTES);
    let received: Vec<SharedCount> = handles.into_iter().map(|(bytes, _)| bytes).collect();
    census(world, sim, &received)
}

/// One RMP pair alone (pair 0 of the mix is an RMP stream).
fn rmp_pair() -> Census {
    let (mut world, sim) = World::new(config(), Topology::two_hubs(2));
    let handles = two_hub_pair_load(&mut world, u64::MAX / 2, MSG_BYTES);
    census(world, sim, &[handles[0].0.clone()])
}

/// One TCP pair alone, wired as the mix wires its TCP pairs.
fn tcp_pair() -> Census {
    let (mut world, sim) = World::new(config(), Topology::two_hubs(2));
    let sink_mbox = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let accept = world.cabs[1].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let (sink, _meter, received, _done) = CabSink::new(sink_mbox, u64::MAX / 2);
    world.cabs[1].fork_app(Box::new(CabTcpListener::new(5000, accept, sink_mbox)));
    world.cabs[1].fork_app(Box::new(sink));
    let (streamer, _) = CabTcpStreamer::new(1, 5000, MSG_BYTES, u64::MAX / 2);
    world.cabs[0].fork_app(Box::new(streamer));
    census(world, sim, &[received])
}

#[test]
fn byte_path_stays_inside_its_copy_budget() {
    let twohub = twohub_setup();
    let rpc = rpc_mixed_setup();
    println!(
        "setup_census: allocs / heap B to build — stream_twohub world {} / {}, \
         rpc_mixed fleet {} / {}",
        twohub.0, twohub.1, rpc.0, rpc.1
    );
    for (what, cost, max) in [
        ("stream_twohub world", twohub, MAX_TWOHUB_SETUP),
        ("rpc_mixed fleet", rpc, MAX_RPC_MIXED_SETUP),
    ] {
        assert!(
            cost.0 <= max.0 && cost.1 <= max.1,
            "building the {what} took {} allocations / {} B (budget {} / {})",
            cost.0,
            cost.1,
            max.0,
            max.1
        );
    }
    let mix = twohub_mix();
    let rmp = rmp_pair();
    let tcp = tcp_pair();
    println!(
        "copy_budget: heap B per payload B / allocs per 4 KiB msg — \
         twohub mix {:.2} / {:.1} ({} B delivered), rmp pair {:.2} / {:.1}, tcp pair {:.2} / {:.1}",
        mix.bytes_per_byte,
        mix.allocs_per_msg,
        mix.payload_bytes,
        rmp.bytes_per_byte,
        rmp.allocs_per_msg,
        tcp.bytes_per_byte,
        tcp.allocs_per_msg,
    );
    // nothing simulated moved: the window delivers what it always has
    assert_eq!(mix.payload_bytes, 18_300_096, "the measured window's payload moved");
    assert!(
        mix.bytes_per_byte <= MAX_BYTES_PER_BYTE,
        "{:.2} heap bytes allocated per payload byte delivered (budget {MAX_BYTES_PER_BYTE}): \
         a per-layer copy is back on the byte path",
        mix.bytes_per_byte
    );
    assert!(
        mix.allocs_per_msg <= MAX_ALLOCS_PER_MSG,
        "{:.1} allocations per 4 KiB message (budget {MAX_ALLOCS_PER_MSG})",
        mix.allocs_per_msg
    );
}
