//! Property tests over randomized multi-stage folded-Clos fabrics.
//!
//! The topology generator admits a large family of shapes (pods ×
//! leaves × spines × cores × uplink spread); hand-picked examples in
//! the unit tests cover the corners, and this suite samples the
//! interior: for every sampled spec the fabric must validate, every
//! cached route must actually traverse the port map to its
//! destination, reachability must be symmetric, and the whole route
//! table must be byte-identical run-to-run — the determinism the
//! per-source route cache is allowed to rely on.
//!
//! The last three tests pin the cache a [`World`] deploys on the
//! 432-CAB `clos_fleet` fabric: one table per CAB-bearing HUB, shared
//! by its CABs, agreeing with the per-pair routes, and no route from a
//! CAB to itself.

use std::collections::BTreeMap;
use std::rc::Rc;

use nectar::config::Config;
use nectar::topology::{Attachment, ClosSpec, Topology};
use nectar::world::World;
use nectar_cab::{CabThread, Cx, Step};
use nectar_hub::PORTS;
use nectar_sim::{Pcg32, SimDuration, SimTime};
use nectar_wire::datalink::DatalinkProto;
use nectar_wire::route::Route;

/// Draw a spec satisfying the generator's documented constraints:
/// `uplinks % spines == 0`, `cores % spines == 0`, leaf and spine port
/// budgets respected, cores present iff multi-pod.
fn sample_spec(rng: &mut Pcg32) -> ClosSpec {
    let spp = [1, 2, 4][rng.below(3) as usize];
    let ups = 1 + rng.below(2) as usize; // uplinks landing per spine
    let uplinks = spp * ups;
    let cabs_per_leaf = 1 + rng.below((PORTS - uplinks) as u32) as usize;
    if rng.chance(0.5) {
        // two-stage leaf–spine, single pod
        let max_lpp = PORTS / ups;
        ClosSpec {
            pods: 1,
            leaves_per_pod: 1 + rng.below(max_lpp as u32) as usize,
            spines_per_pod: spp,
            cores: 0,
            uplinks_per_leaf: uplinks,
            cabs_per_leaf,
        }
    } else {
        // three-stage, cores shared across pods
        let cps = 1 + rng.below(2) as usize; // cores owned per spine
        let max_lpp = (PORTS - cps) / ups;
        ClosSpec {
            pods: 2 + rng.below(8) as usize,
            leaves_per_pod: 1 + rng.below(max_lpp as u32) as usize,
            spines_per_pod: spp,
            cores: spp * cps,
            uplinks_per_leaf: uplinks,
            cabs_per_leaf,
        }
    }
}

/// Walk `route` through the port map from `src`'s leaf and require it
/// to terminate exactly at `dst`'s CAB port — the property the HUBs
/// enforce frame by frame at runtime.
fn assert_route_traverses(t: &Topology, src: u16, dst: u16, route: &Route) {
    let (mut hub, _) = t.cab_port[src as usize];
    let hops = route.hops();
    assert!(!hops.is_empty(), "route {src}->{dst} is empty");
    for (i, &hop) in hops.iter().enumerate() {
        assert!((hop as usize) < PORTS, "route {src}->{dst} hop {i} = {hop} out of range");
        match t.port_map[hub as usize][hop as usize] {
            Attachment::Hub { hub: next, .. } => {
                assert!(i + 1 < hops.len(), "route {src}->{dst} ends on a trunk at HUB {hub}");
                hub = next;
            }
            Attachment::Cab(c) => {
                assert_eq!(i + 1, hops.len(), "route {src}->{dst} hits a CAB mid-route");
                assert_eq!(c, dst, "route {src}->{dst} delivered to CAB {c}");
            }
            Attachment::None => {
                panic!("route {src}->{dst} hop {i} exits HUB {hub} port {hop} into nothing")
            }
        }
    }
}

/// Flatten the full route cache (every source) into one byte string:
/// `src, dst, len, hops…` in table order.
fn route_table_bytes(t: &Topology) -> Vec<u8> {
    let mut out = Vec::new();
    for src in 0..t.cabs() as u16 {
        let table = t.routes_from(src).expect("sampled fabrics stay under MAX_HOPS");
        for (dst, r) in &table {
            out.extend_from_slice(&src.to_le_bytes());
            out.extend_from_slice(&dst.to_le_bytes());
            out.push(r.hops().len() as u8);
            out.extend_from_slice(r.hops());
        }
    }
    out
}

#[test]
fn randomized_fabrics_route_every_pair_validly() {
    let mut rng = Pcg32::seeded(0xc105);
    for case in 0..12 {
        let spec = sample_spec(&mut rng);
        let t = Topology::folded_clos(&spec);
        t.validate().unwrap_or_else(|e| panic!("case {case} {spec:?}: {e}"));
        let diameter = t.diameter();
        assert!((1..=5).contains(&diameter), "case {case} {spec:?}: diameter {diameter}");

        // full coverage on small fabrics, a deterministic sample of
        // sources on big ones — every destination either way
        let cabs = t.cabs() as u16;
        let srcs: Vec<u16> =
            if cabs <= 40 { (0..cabs).collect() } else { (0..8).map(|i| i * (cabs / 8)).collect() };
        for &src in &srcs {
            let table = t.routes_from(src).unwrap();
            assert_eq!(
                table.len(),
                cabs as usize - 1,
                "case {case} {spec:?}: src {src} cannot reach everyone"
            );
            for (&dst, r) in &table {
                assert!(
                    r.hops().len() <= diameter,
                    "case {case} {spec:?}: route {src}->{dst} longer than the diameter"
                );
                assert_route_traverses(&t, src, dst, r);
                // the cache agrees with the per-pair computation
                assert_eq!(r, &t.route(src, dst).unwrap());
            }
        }
    }
}

#[test]
fn reachability_is_symmetric_with_equal_path_lengths() {
    let mut rng = Pcg32::seeded(0x5e11);
    for _ in 0..8 {
        let spec = sample_spec(&mut rng);
        let t = Topology::folded_clos(&spec);
        let cabs = t.cabs() as u16;
        let step = (cabs as usize / 12).max(1) as u16;
        let mut a = 0u16;
        while a < cabs {
            let mut b = a + 1;
            while b < cabs {
                let ab = t.route(a, b).expect("forward route");
                let ba = t.route(b, a).expect("reverse route");
                // trunks are bidirectional pairs, so BFS shortest-path
                // lengths agree in both directions
                assert_eq!(
                    ab.hops().len(),
                    ba.hops().len(),
                    "{spec:?}: asymmetric path length {a}<->{b}"
                );
                b += step;
            }
            a += step;
        }
    }
}

#[test]
fn route_cache_is_byte_identical_run_to_run() {
    let mut rng = Pcg32::seeded(0xcac4e);
    for _ in 0..4 {
        let spec = sample_spec(&mut rng);
        // two independently built fabrics from the same spec
        let t1 = Topology::folded_clos(&spec);
        let t2 = Topology::folded_clos(&spec);
        let b1 = route_table_bytes(&t1);
        assert!(!b1.is_empty());
        assert_eq!(b1, route_table_bytes(&t2), "{spec:?}: route cache not deterministic");
    }
}

/// The 432-CAB `clos_fleet` fabric: 36 CAB-bearing leaves, 52 HUBs.
fn clos_432() -> Topology {
    Topology::folded_clos(&ClosSpec::for_cabs(432))
}

#[test]
fn world_route_tables_match_per_pair_routes() {
    let topo = clos_432();
    let (world, _sim) = World::new(Config::default(), topo.clone());
    // `route(src, dst)` reads only src's HUB, so one per-pair BFS per
    // (HUB, dst) is the reference for every CAB on that HUB
    let mut reference = BTreeMap::new();
    for (src, cab) in world.cabs.iter().enumerate() {
        let src = src as u16;
        assert_eq!(cab.net.routes.len(), topo.cabs());
        for dst in (0..topo.cabs() as u16).filter(|&d| d != src) {
            let want = reference
                .entry((topo.cab_port[src as usize].0, dst))
                .or_insert_with(|| topo.route(src, dst).unwrap());
            assert_eq!(cab.net.routes[dst as usize].as_ref(), Some(&*want), "route {src}->{dst}");
        }
    }
}

#[test]
fn world_builds_one_route_table_per_cab_bearing_hub() {
    let topo = clos_432();
    let (world, _sim) = World::new(Config::default(), topo.clone());
    let mut tables: Vec<&Rc<Vec<Option<Route>>>> = Vec::new();
    for cab in &world.cabs {
        if !tables.iter().any(|t| Rc::ptr_eq(t, &cab.net.routes)) {
            tables.push(&cab.net.routes);
        }
    }
    let mut leaves: Vec<u16> = topo.cab_port.iter().map(|&(hub, _)| hub).collect();
    leaves.dedup();
    assert_eq!(leaves.len(), 36);
    assert_eq!(tables.len(), leaves.len(), "one shared table per CAB-bearing HUB");
}

#[test]
fn a_datagram_to_oneself_has_no_route() {
    // the shared table holds a route to each CAB's own port; the CAB
    // must still refuse it, counting a no-route drop and launching
    // nothing
    let (mut world, mut sim) = World::new(Config::default(), clos_432());
    world.cabs[7].fork_app(Box::new(SendOnce { dst: 7 }));
    world.cabs[8].fork_app(Box::new(SendOnce { dst: 9 }));
    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_millis(5));
    assert_eq!(world.cabs[7].net.no_route_drops, 1);
    assert_eq!(world.cabs[7].net.tx_frames, 0);
    // the control: a send to a neighbour launches one frame
    assert_eq!(world.cabs[8].net.no_route_drops, 0);
    assert_eq!(world.cabs[8].net.tx_frames, 1);
}

/// A CAB thread that sends one raw datagram to `dst`, then exits.
struct SendOnce {
    dst: u16,
}

impl CabThread for SendOnce {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        cx.datalink_send(self.dst, DatalinkProto::Datagram, 0, b"hello");
        Step::Done
    }
}
