//! Network topology: HUBs, attachments, and source-route computation.
//!
//! §2.1 of the paper: "The Nectar system consists of a set of host
//! computers connected in an arbitrary mesh via crossbar switches
//! called HUBs. … Large Nectar systems are built using multiple HUBs.
//! In such systems, some of the HUB I/O ports are used to connect
//! together HUBs. The CABs use source routing to send a message
//! through the network." This module computes those source routes by
//! breadth-first search over the HUB graph.
//!
//! Beyond the paper's two-HUB deployment, [`Topology::folded_clos`]
//! generates multi-stage folded-Clos fabrics of 16×16 crossbars
//! (leaf/spine/core), and [`Topology::routes_from_hub`] builds a whole
//! route table from a single BFS — the route cache every CAB on that
//! HUB shares, rather than one BFS per CAB or per (src, dst) pair.

use std::collections::{BTreeMap, VecDeque};

use nectar_hub::PORTS;
use nectar_wire::route::{Route, RouteError};

/// What sits behind a HUB output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attachment {
    /// A CAB's fiber pair.
    Cab(u16),
    /// A trunk to another HUB; the frame arrives at that HUB's
    /// `in_port`.
    Hub { hub: u16, in_port: u8 },
    /// Unused port.
    None,
}

/// A multi-stage folded-Clos fabric description for
/// [`Topology::folded_clos`]. Stage 0 (leaves) hosts CABs; stage 1
/// (spines) joins the leaves of one pod; stage 2 (cores) joins pods.
///
/// Wiring: leaf uplink `j` goes to pod spine `j % spines_per_pod`;
/// spine `s` (of every pod) owns cores `s·(cores/spines_per_pod) ..`,
/// one trunk to each; core `c` has one down trunk per pod. With
/// `cores == 0` the fabric is a two-stage leaf–spine (single pod);
/// with `spines_per_pod == 0` the two leaves trunk directly to each
/// other (the degenerate 2-HUB fabric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosSpec {
    /// Pods (leaf + spine groups). Must be 1 unless `cores > 0`.
    pub pods: usize,
    /// CAB-bearing leaf HUBs per pod.
    pub leaves_per_pod: usize,
    /// Spine HUBs per pod (0 only for the direct two-leaf fabric).
    pub spines_per_pod: usize,
    /// Core HUBs shared across pods (0 for a two-stage fabric).
    pub cores: usize,
    /// Trunk uplink ports per leaf.
    pub uplinks_per_leaf: usize,
    /// CABs attached to each leaf.
    pub cabs_per_leaf: usize,
}

impl ClosSpec {
    /// Total HUB count of the fabric this spec describes.
    pub fn hubs(&self) -> usize {
        self.pods * (self.leaves_per_pod + self.spines_per_pod) + self.cores
    }

    /// Total CAB count.
    pub fn cabs(&self) -> usize {
        self.pods * self.leaves_per_pod * self.cabs_per_leaf
    }

    /// A standard spec for `cabs` endpoints: 12 CABs per leaf, four
    /// spines per pod, four uplinks per leaf, cores only when more
    /// than one pod is needed. Scales to 16 pods (2304 CABs).
    pub fn for_cabs(cabs: usize) -> ClosSpec {
        const CABS_PER_LEAF: usize = 12;
        const LEAVES_PER_POD: usize = 12;
        let leaves = cabs.div_ceil(CABS_PER_LEAF);
        if leaves <= LEAVES_PER_POD {
            ClosSpec {
                pods: 1,
                leaves_per_pod: leaves.max(2),
                spines_per_pod: 4,
                cores: 0,
                uplinks_per_leaf: 4,
                cabs_per_leaf: CABS_PER_LEAF,
            }
        } else {
            ClosSpec {
                pods: leaves.div_ceil(LEAVES_PER_POD),
                leaves_per_pod: LEAVES_PER_POD,
                spines_per_pod: 4,
                cores: 4,
                uplinks_per_leaf: 4,
                cabs_per_leaf: CABS_PER_LEAF,
            }
        }
    }
}

/// The physical layout of the network.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of HUBs.
    pub hubs: usize,
    /// Per CAB: (hub index, port) of its attachment. A CAB's fiber
    /// pair terminates at one HUB port, used for both directions.
    pub cab_port: Vec<(u16, u8)>,
    /// Per HUB, per port: what the output side of the port drives.
    pub port_map: Vec<[Attachment; PORTS]>,
    /// Per HUB: its stage in a multi-stage fabric. Stage 0 is the
    /// CAB-facing (leaf) stage; single-stage topologies are all 0.
    pub hub_stage: Vec<u8>,
}

impl Topology {
    /// All `n` CABs on one HUB (n ≤ 16).
    #[allow(clippy::needless_range_loop)]
    pub fn single_hub(n: usize) -> Topology {
        assert!(n <= PORTS, "a 16x16 HUB has {PORTS} ports");
        let mut port_map = vec![[Attachment::None; PORTS]];
        let mut cab_port = Vec::with_capacity(n);
        for i in 0..n {
            port_map[0][i] = Attachment::Cab(i as u16);
            cab_port.push((0, i as u8));
        }
        Topology { hubs: 1, cab_port, port_map, hub_stage: vec![0] }.validated()
    }

    /// The paper's production deployment shape: CABs split across two
    /// HUBs joined by one trunk on the last port of each (§6: "2 HUBs
    /// and 26 hosts").
    pub fn two_hubs(n: usize) -> Topology {
        let per_hub = PORTS - 1; // one port reserved for the trunk
        assert!(n <= 2 * per_hub, "two-HUB mesh holds at most {}", 2 * per_hub);
        let trunk = (PORTS - 1) as u8;
        let mut port_map = vec![[Attachment::None; PORTS]; 2];
        port_map[0][trunk as usize] = Attachment::Hub { hub: 1, in_port: trunk };
        port_map[1][trunk as usize] = Attachment::Hub { hub: 0, in_port: trunk };
        let mut cab_port = Vec::with_capacity(n);
        for i in 0..n {
            let hub = (i % 2) as u16; // interleave for even split
            let slot = (i / 2) as u8;
            port_map[hub as usize][slot as usize] = Attachment::Cab(i as u16);
            cab_port.push((hub, slot));
        }
        Topology { hubs: 2, cab_port, port_map, hub_stage: vec![0; 2] }.validated()
    }

    /// A linear chain of HUBs with `per_hub` CABs on each — exercises
    /// multi-hop source routes of arbitrary length.
    ///
    /// Each HUB spends exactly one port per trunk it actually has:
    /// inner HUBs give up two, the end HUBs only one (their spare port
    /// is a usable CAB slot, so a two-HUB chain holds 15 CABs per
    /// HUB). Trunks occupy the top ports; CABs pack from port 0.
    #[allow(clippy::needless_range_loop)]
    pub fn chain(hubs: usize, per_hub: usize) -> Topology {
        assert!(hubs >= 1);
        let trunks = |h: usize| usize::from(h > 0) + usize::from(h + 1 < hubs);
        for h in 0..hubs {
            assert!(
                per_hub + trunks(h) <= PORTS,
                "HUB {h} has {} ports for CABs but {per_hub} were asked",
                PORTS - trunks(h)
            );
        }
        let mut port_map = vec![[Attachment::None; PORTS]; hubs];
        for h in 0..hubs {
            // trunk to the next HUB on the top port; trunk back to the
            // previous one directly below it (or on the top port when
            // this is the last HUB and has no next-trunk).
            let next_port = (PORTS - 1) as u8;
            let prev_port = if h + 1 < hubs { (PORTS - 2) as u8 } else { (PORTS - 1) as u8 };
            if h + 1 < hubs {
                let in_port = if h + 2 < hubs { (PORTS - 2) as u8 } else { (PORTS - 1) as u8 };
                port_map[h][next_port as usize] = Attachment::Hub { hub: (h + 1) as u16, in_port };
            }
            if h > 0 {
                let in_port = (PORTS - 1) as u8;
                port_map[h][prev_port as usize] = Attachment::Hub { hub: (h - 1) as u16, in_port };
            }
        }
        let mut cab_port = Vec::new();
        for h in 0..hubs {
            for s in 0..per_hub {
                let cab = cab_port.len() as u16;
                port_map[h][s] = Attachment::Cab(cab);
                cab_port.push((h as u16, s as u8));
            }
        }
        let t = Topology { hubs, cab_port, port_map, hub_stage: vec![0; hubs] }.validated();
        assert_eq!(t.cabs(), hubs * per_hub, "chain capacity must be exact");
        t
    }

    /// A multi-stage folded-Clos fabric of 16×16 crossbars — the
    /// "arbitrary mesh" of §2.1 at scale. HUBs are numbered leaves
    /// first (pod-major), then spines (pod-major), then cores;
    /// `hub_stage` records 0/1/2 accordingly.
    pub fn folded_clos(spec: &ClosSpec) -> Topology {
        let ClosSpec { pods, leaves_per_pod: lpp, spines_per_pod: spp, cores, .. } = *spec;
        let uplinks = spec.uplinks_per_leaf;
        let cabs_per_leaf = spec.cabs_per_leaf;
        assert!(pods >= 1 && lpp >= 1);
        assert!(cabs_per_leaf + uplinks <= PORTS, "leaf ports oversubscribed");
        let hubs = spec.hubs();
        let mut port_map = vec![[Attachment::None; PORTS]; hubs];
        let mut hub_stage = vec![0u8; hubs];
        // hub numbering
        let leaf = |p: usize, i: usize| (p * lpp + i) as u16;
        let spine = |p: usize, s: usize| (pods * lpp + p * spp + s) as u16;
        let core = |c: usize| (pods * (lpp + spp) + c) as u16;
        for p in 0..pods {
            for s in 0..spp {
                hub_stage[spine(p, s) as usize] = 1;
            }
        }
        for c in 0..cores {
            hub_stage[core(c) as usize] = 2;
        }

        if spp == 0 {
            // degenerate fabric: two leaves trunked directly together
            assert!(pods == 1 && lpp == 2 && cores == 0, "spineless Clos must be two leaves");
            assert!(uplinks >= 1);
            for j in 0..uplinks {
                let port = (PORTS - uplinks + j) as u8;
                port_map[0][port as usize] = Attachment::Hub { hub: 1, in_port: port };
                port_map[1][port as usize] = Attachment::Hub { hub: 0, in_port: port };
            }
        } else {
            assert!(
                uplinks >= 1 && uplinks.is_multiple_of(spp),
                "uplinks must spread evenly over spines"
            );
            let ups = uplinks / spp; // leaf uplinks landing on each spine
            let cps = if cores == 0 {
                assert!(pods == 1, "multi-pod fabric needs cores");
                0
            } else {
                assert!(cores % spp == 0, "cores must spread evenly over spines");
                cores / spp
            };
            assert!(lpp * ups + cps <= PORTS, "spine ports oversubscribed");
            assert!(cores == 0 || pods <= PORTS, "core ports oversubscribed");
            for p in 0..pods {
                // leaf ↔ spine trunks
                for i in 0..lpp {
                    for j in 0..uplinks {
                        let s = j % spp;
                        let k = j / spp; // which of this leaf's links to spine s
                        let leaf_port = (PORTS - uplinks + j) as u8;
                        let spine_port = (i * ups + k) as u8;
                        port_map[leaf(p, i) as usize][leaf_port as usize] =
                            Attachment::Hub { hub: spine(p, s), in_port: spine_port };
                        port_map[spine(p, s) as usize][spine_port as usize] =
                            Attachment::Hub { hub: leaf(p, i), in_port: leaf_port };
                    }
                }
                // spine ↔ core trunks: spine s owns cores s·cps .. (s+1)·cps
                for s in 0..spp {
                    for k in 0..cps {
                        let c = s * cps + k;
                        let spine_port = (PORTS - cps + k) as u8;
                        let core_port = p as u8;
                        port_map[spine(p, s) as usize][spine_port as usize] =
                            Attachment::Hub { hub: core(c), in_port: core_port };
                        port_map[core(c) as usize][core_port as usize] =
                            Attachment::Hub { hub: spine(p, s), in_port: spine_port };
                    }
                }
            }
        }
        // CABs pack the low leaf ports
        let mut cab_port = Vec::with_capacity(spec.cabs());
        for p in 0..pods {
            for i in 0..lpp {
                let row = &mut port_map[leaf(p, i) as usize];
                for (slot, att) in row.iter_mut().enumerate().take(cabs_per_leaf) {
                    let cab = cab_port.len() as u16;
                    *att = Attachment::Cab(cab);
                    cab_port.push((leaf(p, i), slot as u8));
                }
            }
        }
        Topology { hubs, cab_port, port_map, hub_stage }.validated()
    }

    pub fn cabs(&self) -> usize {
        self.cab_port.len()
    }

    /// The HUB's stage in a multi-stage fabric (0 = leaf).
    pub fn stage(&self, hub: u16) -> u8 {
        self.hub_stage[hub as usize]
    }

    /// Number of distinct stages in the fabric.
    pub fn stages(&self) -> usize {
        self.hub_stage.iter().copied().max().unwrap_or(0) as usize + 1
    }

    /// Structural invariant check, run by every constructor:
    ///
    /// - every trunk has a matching reverse entry (`port_map[a][p] =
    ///   Hub{b, q}` ⇒ `port_map[b][q] = Hub{a, p}`), no self-loops;
    /// - every `Attachment::Cab(i)` appears exactly once and agrees
    ///   with `cab_port[i]`, and vice versa;
    /// - all hub indices and ports are in range and `hub_stage` covers
    ///   every HUB.
    pub fn validate(&self) -> Result<(), String> {
        if self.hub_stage.len() != self.hubs {
            return Err(format!("hub_stage covers {} of {} HUBs", self.hub_stage.len(), self.hubs));
        }
        if self.port_map.len() != self.hubs {
            return Err(format!("port_map covers {} of {} HUBs", self.port_map.len(), self.hubs));
        }
        let mut seen_cab = vec![false; self.cab_port.len()];
        for (h, ports) in self.port_map.iter().enumerate() {
            for (p, att) in ports.iter().enumerate() {
                match *att {
                    Attachment::None => {}
                    Attachment::Cab(c) => {
                        let Some(&(ch, cp)) = self.cab_port.get(c as usize) else {
                            return Err(format!("HUB {h} port {p}: unknown CAB {c}"));
                        };
                        if (ch, cp) != (h as u16, p as u8) {
                            return Err(format!(
                                "CAB {c} attached at HUB {h} port {p} but cab_port says \
                                 ({ch}, {cp})"
                            ));
                        }
                        if seen_cab[c as usize] {
                            return Err(format!("CAB {c} attached twice"));
                        }
                        seen_cab[c as usize] = true;
                    }
                    Attachment::Hub { hub, in_port } => {
                        if hub as usize == h {
                            return Err(format!("HUB {h} port {p}: self-loop trunk"));
                        }
                        let Some(peer) = self.port_map.get(hub as usize) else {
                            return Err(format!("HUB {h} port {p}: unknown peer HUB {hub}"));
                        };
                        let Some(back) = peer.get(in_port as usize) else {
                            return Err(format!(
                                "HUB {h} port {p}: peer in_port {in_port} out of range"
                            ));
                        };
                        if *back != (Attachment::Hub { hub: h as u16, in_port: p as u8 }) {
                            return Err(format!(
                                "trunk HUB {h} port {p} → HUB {hub} port {in_port} has no \
                                 matching reverse entry (found {back:?})"
                            ));
                        }
                    }
                }
            }
        }
        for (c, &(h, p)) in self.cab_port.iter().enumerate() {
            if h as usize >= self.hubs || p as usize >= PORTS {
                return Err(format!("cab_port[{c}] = ({h}, {p}) out of range"));
            }
            if !seen_cab[c] {
                return Err(format!("CAB {c} in cab_port but not attached to any HUB port"));
            }
        }
        Ok(())
    }

    fn validated(self) -> Topology {
        if let Err(e) = self.validate() {
            panic!("topology constructor produced an invalid layout: {e}");
        }
        self
    }

    /// One BFS from `start_hub`: the trunk-port path to every
    /// reachable HUB (`None` when unreachable). Deterministic — the
    /// frontier expands in port order, ties broken by discovery order.
    fn hub_paths(&self, start_hub: u16) -> Vec<Option<Vec<u8>>> {
        let mut paths: Vec<Option<Vec<u8>>> = vec![None; self.hubs];
        paths[start_hub as usize] = Some(Vec::new());
        let mut q = VecDeque::new();
        q.push_back(start_hub);
        while let Some(h) = q.pop_front() {
            for (port, att) in self.port_map[h as usize].iter().enumerate() {
                if let Attachment::Hub { hub, .. } = att {
                    if paths[*hub as usize].is_none() {
                        let mut path = paths[h as usize].clone().unwrap();
                        path.push(port as u8);
                        paths[*hub as usize] = Some(path);
                        q.push_back(*hub);
                    }
                }
            }
        }
        paths
    }

    /// Compute the source route from `src` to `dst`: one output-port
    /// byte per HUB traversed.
    pub fn route(&self, src: u16, dst: u16) -> Result<Route, RouteError> {
        if src == dst {
            return Ok(Route::empty());
        }
        let (start_hub, _) = *self.cab_port.get(src as usize).ok_or(RouteError::Unreachable)?;
        let (dst_hub, dst_port) =
            *self.cab_port.get(dst as usize).ok_or(RouteError::Unreachable)?;
        let paths = self.hub_paths(start_hub);
        let path = paths[dst_hub as usize].as_ref().ok_or(RouteError::Unreachable)?;
        let mut hops = path.clone();
        hops.push(dst_port);
        Route::try_new(hops)
    }

    /// Every fiber in the installation as a canonical
    /// [`LinkId`](crate::fault::LinkId): one CAB↔HUB link per CAB plus
    /// each HUB↔HUB trunk once, in sorted order.
    pub fn links(&self) -> Vec<crate::fault::LinkId> {
        use crate::fault::{LinkId, NodeRef};
        let mut out = std::collections::BTreeSet::new();
        for (cab, &(hub, _)) in self.cab_port.iter().enumerate() {
            out.insert(LinkId::new(NodeRef::Cab(cab as u16), NodeRef::Hub(hub)));
        }
        for (h, ports) in self.port_map.iter().enumerate() {
            for att in ports {
                if let Attachment::Hub { hub, .. } = att {
                    out.insert(LinkId::new(NodeRef::Hub(h as u16), NodeRef::Hub(*hub)));
                }
            }
        }
        out.into_iter().collect()
    }

    /// The route cache of one HUB: routes from any CAB attached to
    /// `hub` to every CAB, indexed by destination, from a single BFS over
    /// the HUB graph (O(hubs·PORTS + cabs)). CABs on one HUB differ only
    /// in which entry is their own port, so they can share the table.
    /// Destinations with no path are `None`; a destination whose path
    /// exceeds the route prefix fails the whole table, since a fabric
    /// you cannot fully address is a configuration error.
    pub fn routes_from_hub(&self, hub: u16) -> Result<Vec<Option<Route>>, RouteError> {
        let paths = self.hub_paths(hub);
        self.cab_port
            .iter()
            .map(|&(dst_hub, dst_port)| {
                paths[dst_hub as usize]
                    .as_ref()
                    .map(|path| Route::try_new([&path[..], &[dst_port]].concat()))
                    .transpose()
            })
            .collect()
    }

    /// The per-source route cache: [`Topology::routes_from_hub`] of
    /// `src`'s HUB without `src` itself.
    pub fn routes_from(&self, src: u16) -> Result<BTreeMap<u16, Route>, RouteError> {
        let Some(&(hub, _)) = self.cab_port.get(src as usize) else {
            return Ok(BTreeMap::new());
        };
        let table = self.routes_from_hub(hub)?.into_iter().enumerate();
        Ok(table
            .filter_map(|(dst, r)| Some((dst as u16, r?)))
            .filter(|&(dst, _)| dst != src)
            .collect())
    }

    /// Fabric diameter in route hops: the longest shortest route
    /// between any two CABs (trunk hops + the final CAB port).
    pub fn diameter(&self) -> usize {
        let mut cab_hubs: Vec<u16> = self.cab_port.iter().map(|&(h, _)| h).collect();
        cab_hubs.sort_unstable();
        cab_hubs.dedup();
        let mut max = 0;
        for &h in &cab_hubs {
            let paths = self.hub_paths(h);
            for &d in &cab_hubs {
                if let Some(p) = &paths[d as usize] {
                    max = max.max(p.len() + 1);
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hub_routes_are_one_hop() {
        let t = Topology::single_hub(4);
        let r = t.route(0, 3).unwrap();
        assert_eq!(r.hops(), &[3]);
        let r = t.route(2, 1).unwrap();
        assert_eq!(r.hops(), &[1]);
        assert!(t.route(0, 0).unwrap().is_empty());
    }

    #[test]
    fn two_hub_routes() {
        let t = Topology::two_hubs(26);
        assert_eq!(t.cabs(), 26);
        // cab 0 on hub 0 port 0; cab 1 on hub 1 port 0
        let r = t.route(0, 1).unwrap();
        assert_eq!(r.hops().len(), 2);
        assert_eq!(r.hops()[0], 15); // trunk port
        assert_eq!(r.hops()[1], 0); // cab 1's port on hub 1
                                    // same-hub pair stays one hop
        let r = t.route(0, 2).unwrap();
        assert_eq!(r.hops().len(), 1);
    }

    #[test]
    fn chain_routes_scale_with_distance() {
        let t = Topology::chain(4, 3);
        assert_eq!(t.cabs(), 12);
        // cab 0 (hub 0) to cab 11 (hub 3): 3 trunk hops + final port
        let r = t.route(0, 11).unwrap();
        assert_eq!(r.hops().len(), 4);
        // reverse direction
        let r = t.route(11, 0).unwrap();
        assert_eq!(r.hops().len(), 4);
        // neighbours on the same hub
        let r = t.route(0, 1).unwrap();
        assert_eq!(r.hops().len(), 1);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn chain_end_hubs_reclaim_the_unused_trunk_port() {
        // a two-HUB chain has one trunk per HUB, so 15 CAB slots each —
        // the old layout wasted one port reserving a trunk that does
        // not exist
        let t = Topology::chain(2, PORTS - 1);
        assert_eq!(t.cabs(), 2 * (PORTS - 1));
        t.validate().unwrap();
        assert_eq!(t.route(0, (PORTS - 1) as u16).unwrap().hops().len(), 2);
        // a single-HUB chain is a full 16-CAB hub
        assert_eq!(Topology::chain(1, PORTS).cabs(), PORTS);
    }

    #[test]
    #[should_panic(expected = "ports for CABs")]
    fn chain_capacity_is_asserted_exactly() {
        // 3 HUBs: the middle one has two trunks, so 15 CABs cannot fit
        Topology::chain(3, PORTS - 1);
    }

    #[test]
    fn overlong_chain_routes_error_instead_of_panicking() {
        use nectar_wire::route::{RouteError, MAX_HOPS};
        // 70 HUBs × 1 CAB: the end-to-end path needs 70 hops
        let t = Topology::chain(MAX_HOPS + 6, 1);
        let far = (t.cabs() - 1) as u16;
        match t.route(0, far) {
            Err(RouteError::TooLong { len, max }) => {
                assert_eq!(len, MAX_HOPS + 6);
                assert_eq!(max, MAX_HOPS);
            }
            other => panic!("expected TooLong, got {other:?}"),
        }
        // nearby pairs still route fine
        assert!(t.route(0, 1).is_ok());
        // and the route-table build surfaces the same error (it trips
        // on the first destination past the prefix, at MAX_HOPS + 1)
        assert_eq!(
            t.routes_from(0).unwrap_err(),
            RouteError::TooLong { len: MAX_HOPS + 1, max: MAX_HOPS }
        );
    }

    #[test]
    fn routes_from_covers_everyone() {
        let t = Topology::two_hubs(10);
        let routes = t.routes_from(3).unwrap();
        assert_eq!(routes.len(), 9);
        assert!(!routes.contains_key(&3));
        // the cache agrees with per-pair computation
        for (dst, r) in &routes {
            assert_eq!(r, &t.route(3, *dst).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "16x16")]
    fn oversubscribed_single_hub_panics() {
        Topology::single_hub(17);
    }

    #[test]
    fn links_enumerate_every_fiber_once() {
        use crate::fault::{LinkId, NodeRef};
        let t = Topology::two_hubs(26);
        let links = t.links();
        // 26 CAB fibers + 1 trunk
        assert_eq!(links.len(), 27);
        assert!(links.contains(&LinkId::new(NodeRef::Hub(0), NodeRef::Hub(1))));
        assert!(links.contains(&LinkId::new(NodeRef::Cab(25), NodeRef::Hub(1))));
        let mut sorted = links.clone();
        sorted.sort();
        assert_eq!(links, sorted, "links come out in canonical order");

        let c = Topology::chain(3, 2);
        // 6 CAB fibers + 2 trunks
        assert_eq!(c.links().len(), 8);
    }

    #[test]
    fn folded_clos_two_stage_routes() {
        // 6 leaves + 2 spines, 84 CABs
        let spec = ClosSpec {
            pods: 1,
            leaves_per_pod: 6,
            spines_per_pod: 2,
            cores: 0,
            uplinks_per_leaf: 2,
            cabs_per_leaf: 14,
        };
        let t = Topology::folded_clos(&spec);
        assert_eq!(t.hubs, 8);
        assert_eq!(t.cabs(), 84);
        assert_eq!(t.stages(), 2);
        t.validate().unwrap();
        // same-leaf pair: one hop; cross-leaf: leaf→spine→leaf
        assert_eq!(t.route(0, 1).unwrap().hops().len(), 1);
        assert_eq!(t.route(0, 14).unwrap().hops().len(), 3);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn folded_clos_three_stage_routes_cross_pods() {
        let spec = ClosSpec {
            pods: 2,
            leaves_per_pod: 13,
            spines_per_pod: 2,
            cores: 2,
            uplinks_per_leaf: 2,
            cabs_per_leaf: 14,
        };
        let t = Topology::folded_clos(&spec);
        assert_eq!(t.hubs, 32);
        assert_eq!(t.cabs(), 364);
        assert_eq!(t.stages(), 3);
        t.validate().unwrap();
        // cross-pod: leaf→spine→core→spine→leaf
        let far = (t.cabs() - 1) as u16;
        assert_eq!(t.route(0, far).unwrap().hops().len(), 5);
        assert_eq!(t.diameter(), 5);
        // every pair routes (spot-check the full table from one src)
        assert_eq!(t.routes_from(0).unwrap().len(), t.cabs() - 1);
    }

    #[test]
    fn folded_clos_degenerate_two_hub_fabric() {
        let spec = ClosSpec {
            pods: 1,
            leaves_per_pod: 2,
            spines_per_pod: 0,
            cores: 0,
            uplinks_per_leaf: 2,
            cabs_per_leaf: 14,
        };
        let t = Topology::folded_clos(&spec);
        assert_eq!(t.hubs, 2);
        assert_eq!(t.cabs(), 28);
        assert_eq!(t.diameter(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn clos_spec_for_cabs_scales() {
        for cabs in [31, 100, 144, 400, 1000, 2304] {
            let spec = ClosSpec::for_cabs(cabs);
            assert!(spec.cabs() >= cabs, "{cabs}: spec holds only {}", spec.cabs());
            let t = Topology::folded_clos(&spec);
            t.validate().unwrap();
            assert!(t.route(0, (cabs - 1) as u16).is_ok());
        }
    }

    #[test]
    fn validator_catches_a_missing_reverse_trunk_entry() {
        let mut t = Topology::two_hubs(4);
        t.port_map[1][PORTS - 1] = Attachment::None;
        let err = t.validate().unwrap_err();
        assert!(err.contains("reverse"), "{err}");
    }
}
