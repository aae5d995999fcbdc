//! Footprint census: what a `clos_fleet` world holds per CAB, as counts.
//!
//! Builds the 432-CAB, 52-HUB folded-Clos world of the `clos_fleet`
//! benchmark workload (eight request-response services, 10 080
//! endpoints at 32 k requests/s), runs the first 20 ms of its load
//! window and counts two things:
//!
//! - the data-memory bytes backed across all CABs (image length, not
//!   capacity): each image grows with its heap, so this is the sum of
//!   the heaps' page-rounded high-water marks, where an image allocated
//!   whole would read 432 × 960 KiB;
//! - the distinct route tables: one per CAB-bearing HUB (36), where a
//!   table per CAB would read 432.
//!
//! Both are counts of a seeded, single-threaded run. The world is built
//! twice in one process and both builds must read the values recorded
//! here, in any build profile.

use std::collections::BTreeSet;
use std::rc::Rc;

use nectar::config::Config;
use nectar::world::World;
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{SimDuration, SimTime};

/// Σ backed image bytes after the window, recorded when images began
/// to grow with the heap.
const BACKED_BYTES: usize = 434_176;
/// CAB-bearing leaf HUBs of the 432-CAB fabric.
const ROUTE_TABLES: usize = 36;

/// The `clos_fleet` plan at seed 13, cut to a 20 ms window.
fn clos_fleet_plan() -> FleetPlan {
    let start = SimTime::ZERO + SimDuration::from_millis(20);
    FleetPlan {
        seed: 13 ^ 32_000,
        mix: vec![(LoadTransport::ReqResp, 1260); 8],
        clients_per_cab: 1,
        endpoints_per_client: 30,
        // 10 080 endpoints at 32 000 requests/s in aggregate
        arrival: Arrival::Open { mean_gap: SimDuration::from_nanos(315_000) },
        size: SizeDist::Fixed(128),
        timeout: SimDuration::from_millis(50),
        start,
        stop: start + SimDuration::from_millis(20),
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    cabs: usize,
    backed_bytes: usize,
    route_tables: usize,
}

fn census() -> Footprint {
    let plan = clos_fleet_plan();
    let config = Config { seed: plan.seed, oracle: Some(false), ..Config::default() };
    let (mut world, mut sim) = World::new(config, plan.topology());
    deploy_fleet(&mut world, &plan);
    world.run_until(&mut sim, plan.stop);
    let tables: BTreeSet<_> = world.cabs.iter().map(|c| Rc::as_ptr(&c.net.routes)).collect();
    Footprint {
        cabs: world.cabs.len(),
        backed_bytes: world.cabs.iter().map(|c| c.shared.mem.backed()).sum(),
        route_tables: tables.len(),
    }
}

#[test]
fn clos_fleet_world_backs_what_it_uses() {
    let first = census();
    println!(
        "footprint: clos_fleet 432 CABs — {} data-memory bytes backed ({} per CAB), {} route tables",
        first.backed_bytes,
        first.backed_bytes / first.cabs,
        first.route_tables,
    );
    assert_eq!(census(), first, "a second build of the same world counted differently");
    assert_eq!(first.cabs, 432);
    assert_eq!(first.route_tables, ROUTE_TABLES, "route tables are no longer one per HUB");
    assert_eq!(first.backed_bytes, BACKED_BYTES, "backed CAB data memory moved");
}
