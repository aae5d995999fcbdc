//! CAB-resident collectives: multicast fan-out, tree barrier, and
//! reduction combining.
//!
//! The NIC-based collectives literature (Quadrics/Myrinet barrier
//! offload; in-network computing surveys) moves collective progress off
//! the hosts and into the network interface. The Nectar CAB — a
//! programmable protocol processor behind a low-latency crossbar — is
//! exactly that platform, so this engine runs *in* the network: frames
//! are replicated and reduction operands combined at intermediate CABs,
//! never round-tripped through end hosts.
//!
//! Like every engine in this crate it is a pure state machine: calls
//! carry `now` and input packets, and effects come back as
//! [`CollectiveAction`]s. Three primitives share one group table:
//!
//! * **Multicast** — the group's root fans a payload down a
//!   source-rooted distribution tree. Interior CABs forward the *same*
//!   [`FrameBuf`] to each child ([`CollectiveAction::Replicate`] is an
//!   `Rc` bump, never a deep copy).
//! * **Tree barrier** — every member calls [`CollectiveEngine::arrive`];
//!   leaves report upstream, interior CABs wait for all children plus
//!   themselves and send *one* combined `Arrive` per subtree, and the
//!   root releases back down the multicast path.
//! * **Reduction** — the same gather wave carries a u64 operand
//!   combined with [`CombineOp`] at each interior CAB, so the root
//!   receives one frame per child subtree, not one per leaf.
//!
//! Reliability: a `Release` doubles as the acknowledgment for `Arrive`.
//! A node retransmits its (combined) `Arrive` on a timer until the
//! release for that epoch comes back; a parent that already released an
//! epoch answers a straggler's stale `Arrive` by resending the cached
//! release to that child only. Per-epoch gather state means a straggler
//! from epoch N can never count toward epoch N+1.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::collective::{CollectiveHeader, CollectiveKind, CombineOp, COLLECTIVE_HEADER_LEN};
use nectar_wire::{FrameBuf, WireError};

/// Engine tunables.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveConfig {
    /// Retransmit interval for an unacknowledged `Arrive`.
    pub rto: SimDuration,
    /// `Arrive` retransmissions before the epoch is abandoned.
    pub max_retries: u32,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig { rto: SimDuration::from_millis(2), max_retries: 20 }
    }
}

/// One node's position in a group's distribution/combining tree.
#[derive(Clone, Debug)]
pub struct GroupTopo {
    /// Upstream CAB; `None` at the root.
    pub parent: Option<u16>,
    /// Downstream CABs this node replicates to / gathers from.
    pub children: Vec<u16>,
}

/// Effects produced by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveAction {
    /// Send a freshly built collective packet to `dst_cab` (an
    /// `Arrive` heading upstream).
    Transmit { dst_cab: u16, packet: Vec<u8> },
    /// Replicate a shared collective message to `dst_cab`. The
    /// [`FrameBuf`] is a clone of the received (or root-built) message,
    /// so the whole fan-out tree shares one payload allocation; the
    /// datalink must use its zero-copy path.
    Replicate { dst_cab: u16, packet: FrameBuf },
    /// A multicast payload arrived for the local application.
    Deliver { group: u16, payload: FrameBuf },
    /// The barrier/reduction `epoch` released at this node; `value` is
    /// the combined result (0 for a pure barrier).
    Completed { group: u16, epoch: u32, value: u64 },
    /// The epoch's `Arrive` exhausted its retries.
    Failed { group: u16, epoch: u32 },
}

/// Engine counters (surfaced as `net/collective/*` metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectiveStats {
    /// Multicasts originated at this node.
    pub multicasts: u64,
    /// Zero-copy replicas emitted downstream (multicast + release).
    pub replicas: u64,
    /// Multicast payloads delivered to the local application.
    pub delivers: u64,
    /// Child `Arrive`s absorbed into a gather.
    pub arrives_rx: u64,
    /// Combined `Arrive`s sent upstream.
    pub arrives_tx: u64,
    /// Timer-driven `Arrive` retransmissions.
    pub arrive_retransmits: u64,
    /// Retransmitted `Arrive`s for an epoch already gathered.
    pub duplicate_arrives: u64,
    /// `Arrive`s for an epoch this node already released.
    pub stale_arrives: u64,
    /// Cached releases resent to individual stragglers.
    pub straggler_resends: u64,
    /// Epochs released at the root.
    pub releases: u64,
    /// Releases forwarded down the tree at interior nodes.
    pub releases_forwarded: u64,
    /// Releases for an epoch already completed here.
    pub duplicate_releases: u64,
    /// Epochs completed at this node (root or released).
    pub completions: u64,
    /// Epochs abandoned after retry exhaustion.
    pub failures: u64,
    /// Packets dropped: unknown group or non-child sender.
    pub misdirected_drops: u64,
}

/// In-progress gather for one epoch.
#[derive(Debug)]
struct Gather {
    arrived: BTreeSet<u16>,
    local: bool,
    op: CombineOp,
    value: u64,
}

impl Gather {
    fn new(op: CombineOp) -> Gather {
        Gather { arrived: BTreeSet::new(), local: false, op, value: op.identity() }
    }
}

/// An `Arrive` sent upstream, awaiting its release.
#[derive(Debug)]
struct PendingUp {
    epoch: u32,
    op: CombineOp,
    value: u64,
    deadline: SimTime,
    retries: u32,
}

#[derive(Debug)]
struct Group {
    topo: GroupTopo,
    /// Gathers keyed by epoch: a straggler from epoch N can never leak
    /// into epoch N+1's arrival set.
    gathers: BTreeMap<u32, Gather>,
    /// At most one combined `Arrive` is in flight upstream.
    pending_up: Option<PendingUp>,
    /// Lowest epoch not yet released at this node.
    next_release: u32,
    /// The latest release message, kept to answer stragglers.
    last_release: Option<(u32, FrameBuf)>,
}

/// The per-CAB collective engine: group table plus per-group gather,
/// retransmit, and release-cache state.
#[derive(Debug, Default)]
pub struct CollectiveEngine {
    cfg: CollectiveConfig,
    groups: BTreeMap<u16, Group>,
    stats: CollectiveStats,
}

impl CollectiveEngine {
    pub fn new(cfg: CollectiveConfig) -> Self {
        CollectiveEngine { cfg, groups: BTreeMap::new(), stats: CollectiveStats::default() }
    }

    pub fn stats(&self) -> &CollectiveStats {
        &self.stats
    }

    /// Install this node's slice of a group tree. Re-installing a group
    /// resets its state.
    pub fn install_group(&mut self, group: u16, parent: Option<u16>, children: Vec<u16>) {
        self.groups.insert(
            group,
            Group {
                topo: GroupTopo { parent, children },
                gathers: BTreeMap::new(),
                pending_up: None,
                next_release: 0,
                last_release: None,
            },
        );
    }

    pub fn topo(&self, group: u16) -> Option<&GroupTopo> {
        self.groups.get(&group).map(|g| &g.topo)
    }

    /// Fan `payload` out to the subtree below this node. Called at the
    /// group root (the tree is source-rooted there); the sender is not
    /// re-delivered its own payload. Returns false for unknown groups.
    pub fn multicast(
        &mut self,
        group: u16,
        payload: &[u8],
        out: &mut Vec<CollectiveAction>,
    ) -> bool {
        let Some(g) = self.groups.get(&group) else {
            self.stats.misdirected_drops += 1;
            return false;
        };
        let hdr = CollectiveHeader {
            kind: CollectiveKind::Multicast,
            op: CombineOp::None,
            group,
            epoch: 0,
            value: 0,
        };
        let buf = FrameBuf::new(hdr.build(payload));
        for &child in &g.topo.children {
            out.push(CollectiveAction::Replicate { dst_cab: child, packet: buf.clone() });
        }
        self.stats.multicasts += 1;
        self.stats.replicas += g.topo.children.len() as u64;
        true
    }

    /// The local application reached the barrier / contributed `value`
    /// to the reduction for the group's current epoch. Returns false
    /// for unknown groups.
    pub fn arrive(
        &mut self,
        now: SimTime,
        group: u16,
        op: CombineOp,
        value: u64,
        out: &mut Vec<CollectiveAction>,
    ) -> bool {
        let Some(g) = self.groups.get_mut(&group) else {
            self.stats.misdirected_drops += 1;
            return false;
        };
        let epoch = g.next_release;
        let gather = g.gathers.entry(epoch).or_insert_with(|| Gather::new(op));
        if gather.local {
            // one arrive per release — a second is a duplicate
            self.stats.duplicate_arrives += 1;
            return true;
        }
        gather.local = true;
        gather.value = gather.op.combine(gather.value, value);
        self.maybe_complete(now, group, epoch, out);
        true
    }

    /// Process a received collective packet. `msg` is the zero-copy
    /// payload view from the datalink frame; multicast/release
    /// replication clones it onward without copying.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        src_cab: u16,
        msg: &FrameBuf,
        out: &mut Vec<CollectiveAction>,
    ) -> Result<(), WireError> {
        let (hdr, _) = CollectiveHeader::parse(msg.as_slice())?;
        match hdr.kind {
            CollectiveKind::Multicast => self.on_multicast(&hdr, msg, out),
            CollectiveKind::Arrive => self.on_arrive(now, src_cab, &hdr, out),
            CollectiveKind::Release => self.on_release(&hdr, msg, out),
        }
        Ok(())
    }

    fn on_multicast(
        &mut self,
        hdr: &CollectiveHeader,
        msg: &FrameBuf,
        out: &mut Vec<CollectiveAction>,
    ) {
        let Some(g) = self.groups.get(&hdr.group) else {
            self.stats.misdirected_drops += 1;
            return;
        };
        for &child in &g.topo.children {
            out.push(CollectiveAction::Replicate { dst_cab: child, packet: msg.clone() });
        }
        self.stats.replicas += g.topo.children.len() as u64;
        self.stats.delivers += 1;
        out.push(CollectiveAction::Deliver {
            group: hdr.group,
            payload: msg.slice(COLLECTIVE_HEADER_LEN..msg.len()),
        });
    }

    fn on_arrive(
        &mut self,
        now: SimTime,
        src_cab: u16,
        hdr: &CollectiveHeader,
        out: &mut Vec<CollectiveAction>,
    ) {
        let Some(g) = self.groups.get_mut(&hdr.group) else {
            self.stats.misdirected_drops += 1;
            return;
        };
        if hdr.epoch < g.next_release {
            // straggler from an epoch we already released: the release
            // (= the ack) was lost on the way down. Resend it to this
            // child only.
            self.stats.stale_arrives += 1;
            if let Some((epoch, buf)) = &g.last_release {
                if *epoch == hdr.epoch {
                    out.push(CollectiveAction::Replicate { dst_cab: src_cab, packet: buf.clone() });
                    self.stats.straggler_resends += 1;
                    self.stats.replicas += 1;
                }
            }
            return;
        }
        if !g.topo.children.contains(&src_cab) {
            self.stats.misdirected_drops += 1;
            return;
        }
        let gather = g.gathers.entry(hdr.epoch).or_insert_with(|| Gather::new(hdr.op));
        if !gather.arrived.insert(src_cab) {
            // retransmitted arrive for a gather still in progress:
            // absorb without recombining (Sum would double-count)
            self.stats.duplicate_arrives += 1;
            return;
        }
        gather.value = gather.op.combine(gather.value, hdr.value);
        self.stats.arrives_rx += 1;
        self.maybe_complete(now, hdr.group, hdr.epoch, out);
    }

    fn on_release(
        &mut self,
        hdr: &CollectiveHeader,
        msg: &FrameBuf,
        out: &mut Vec<CollectiveAction>,
    ) {
        let Some(g) = self.groups.get_mut(&hdr.group) else {
            self.stats.misdirected_drops += 1;
            return;
        };
        if hdr.epoch < g.next_release {
            self.stats.duplicate_releases += 1;
            return;
        }
        g.pending_up = None;
        g.gathers.remove(&hdr.epoch);
        for &child in &g.topo.children {
            out.push(CollectiveAction::Replicate { dst_cab: child, packet: msg.clone() });
        }
        self.stats.replicas += g.topo.children.len() as u64;
        if !g.topo.children.is_empty() {
            self.stats.releases_forwarded += 1;
        }
        g.last_release = Some((hdr.epoch, msg.clone()));
        g.next_release = hdr.epoch + 1;
        self.stats.completions += 1;
        out.push(CollectiveAction::Completed {
            group: hdr.group,
            epoch: hdr.epoch,
            value: hdr.value,
        });
    }

    /// If `epoch`'s gather has every child plus the local arrival,
    /// either release (root) or send the combined `Arrive` upstream.
    fn maybe_complete(
        &mut self,
        now: SimTime,
        group: u16,
        epoch: u32,
        out: &mut Vec<CollectiveAction>,
    ) {
        let g = self.groups.get_mut(&group).expect("caller validated group");
        let (op, value) = match g.gathers.get(&epoch) {
            Some(ga) if ga.local && ga.arrived.len() == g.topo.children.len() => (ga.op, ga.value),
            _ => return,
        };
        match g.topo.parent {
            None => {
                // root: release the epoch down the multicast path
                let packet =
                    CollectiveHeader { kind: CollectiveKind::Release, op, group, epoch, value }
                        .build(&[]);
                let buf = FrameBuf::new(packet);
                for &child in &g.topo.children {
                    out.push(CollectiveAction::Replicate { dst_cab: child, packet: buf.clone() });
                }
                self.stats.replicas += g.topo.children.len() as u64;
                g.last_release = Some((epoch, buf));
                g.next_release = epoch + 1;
                g.gathers.remove(&epoch);
                self.stats.releases += 1;
                self.stats.completions += 1;
                out.push(CollectiveAction::Completed { group, epoch, value });
            }
            Some(parent) => {
                // interior/leaf: one combined frame per subtree. The
                // gather stays to absorb duplicate child arrives until
                // the release comes back.
                let packet =
                    CollectiveHeader { kind: CollectiveKind::Arrive, op, group, epoch, value }
                        .build(&[]);
                out.push(CollectiveAction::Transmit { dst_cab: parent, packet });
                g.pending_up =
                    Some(PendingUp { epoch, op, value, deadline: now + self.cfg.rto, retries: 0 });
                self.stats.arrives_tx += 1;
            }
        }
    }

    /// Retransmit overdue upstream `Arrive`s.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<CollectiveAction>) {
        let CollectiveEngine { cfg, groups, stats } = self;
        for (&gid, g) in groups.iter_mut() {
            let Some(p) = &mut g.pending_up else { continue };
            if now < p.deadline {
                continue;
            }
            p.retries += 1;
            if p.retries > cfg.max_retries {
                let epoch = p.epoch;
                g.pending_up = None;
                g.gathers.remove(&epoch);
                stats.failures += 1;
                out.push(CollectiveAction::Failed { group: gid, epoch });
            } else {
                p.deadline = now + cfg.rto;
                let parent = g.topo.parent.expect("pending_up implies a parent");
                let packet = CollectiveHeader {
                    kind: CollectiveKind::Arrive,
                    op: p.op,
                    group: gid,
                    epoch: p.epoch,
                    value: p.value,
                }
                .build(&[]);
                stats.arrive_retransmits += 1;
                out.push(CollectiveAction::Transmit { dst_cab: parent, packet });
            }
        }
    }

    /// Earliest retransmit deadline across all groups.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.groups.values().filter_map(|g| g.pending_up.as_ref().map(|p| p.deadline)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    const GROUP: u16 = 7;

    /// A 7-node binary tree: 0 ← {1, 2}, 1 ← {3, 4}, 2 ← {5, 6}.
    fn tree7() -> BTreeMap<u16, CollectiveEngine> {
        let topo: [(u16, Option<u16>, &[u16]); 7] = [
            (0, None, &[1, 2]),
            (1, Some(0), &[3, 4]),
            (2, Some(0), &[5, 6]),
            (3, Some(1), &[]),
            (4, Some(1), &[]),
            (5, Some(2), &[]),
            (6, Some(2), &[]),
        ];
        let mut nodes = BTreeMap::new();
        for (id, parent, children) in topo {
            let mut e = CollectiveEngine::new(CollectiveConfig {
                rto: SimDuration::from_micros(500),
                max_retries: 3,
            });
            e.install_group(GROUP, parent, children.to_vec());
            nodes.insert(id, e);
        }
        nodes
    }

    /// Deliver queued actions between engines until quiescent, dropping
    /// any (src, dst) pair in `lose` exactly once. Returns the
    /// non-network actions (Deliver/Completed/Failed) per node.
    fn pump(
        nodes: &mut BTreeMap<u16, CollectiveEngine>,
        now: SimTime,
        staged: Vec<(u16, CollectiveAction)>,
        lose: &mut Vec<(u16, u16)>,
    ) -> Vec<(u16, CollectiveAction)> {
        let mut queue = staged;
        let mut local = Vec::new();
        while let Some((src, act)) = queue.pop() {
            let (dst, buf) = match act {
                CollectiveAction::Transmit { dst_cab, packet } => (dst_cab, FrameBuf::new(packet)),
                CollectiveAction::Replicate { dst_cab, packet } => (dst_cab, packet),
                other => {
                    local.push((src, other));
                    continue;
                }
            };
            if let Some(i) = lose.iter().position(|&pair| pair == (src, dst)) {
                lose.remove(i);
                continue;
            }
            let mut out = Vec::new();
            nodes.get_mut(&dst).unwrap().on_packet(now, src, &buf, &mut out).unwrap();
            queue.extend(out.into_iter().map(|a| (dst, a)));
        }
        local
    }

    fn arrive_all(
        nodes: &mut BTreeMap<u16, CollectiveEngine>,
        now: SimTime,
        op: CombineOp,
        value_of: impl Fn(u16) -> u64,
    ) -> Vec<(u16, CollectiveAction)> {
        let mut staged = Vec::new();
        // leaves first, then interior, then root — worst-case ordering
        // for accidental early completion
        for &id in &[3u16, 4, 5, 6, 1, 2, 0] {
            let mut out = Vec::new();
            assert!(nodes.get_mut(&id).unwrap().arrive(now, GROUP, op, value_of(id), &mut out));
            staged.extend(out.into_iter().map(|a| (id, a)));
        }
        staged
    }

    #[test]
    fn barrier_completes_and_combines_per_subtree() {
        let mut nodes = tree7();
        let staged = arrive_all(&mut nodes, t(0), CombineOp::None, |_| 0);
        let local = pump(&mut nodes, t(0), staged, &mut Vec::new());
        for id in 0..7u16 {
            assert!(
                local.contains(&(
                    id,
                    CollectiveAction::Completed { group: GROUP, epoch: 0, value: 0 }
                )),
                "node {id} did not complete"
            );
        }
        // combining: the root saw one frame per child subtree (2), not
        // one per leaf (6)
        assert_eq!(nodes[&0].stats().arrives_rx, 2);
        assert_eq!(nodes[&1].stats().arrives_rx, 2);
        assert_eq!(nodes[&0].stats().releases, 1);
        assert_eq!(nodes[&1].stats().releases_forwarded, 1);
    }

    #[test]
    fn reduction_sum_min_max() {
        for (op, want) in
            [(CombineOp::Sum, 1 + 2 + 3 + 4 + 5 + 6), (CombineOp::Min, 0), (CombineOp::Max, 6)]
        {
            let mut nodes = tree7();
            let staged = arrive_all(&mut nodes, t(0), op, |id| id as u64);
            let local = pump(&mut nodes, t(0), staged, &mut Vec::new());
            for id in 0..7u16 {
                assert!(
                    local.contains(&(
                        id,
                        CollectiveAction::Completed { group: GROUP, epoch: 0, value: want }
                    )),
                    "{op:?}: node {id} missing combined value {want}"
                );
            }
        }
    }

    #[test]
    fn epochs_isolated_and_stragglers_reacked() {
        let mut nodes = tree7();
        // epoch 0 completes normally
        let staged = arrive_all(&mut nodes, t(0), CombineOp::Sum, |id| id as u64);
        pump(&mut nodes, t(0), staged, &mut Vec::new());

        // a replayed epoch-0 Arrive from leaf 3 reaches node 1, which
        // has released epoch 0: it must NOT count toward epoch 1, and
        // node 1 re-acks with the cached epoch-0 release
        let stale = CollectiveHeader {
            kind: CollectiveKind::Arrive,
            op: CombineOp::Sum,
            group: GROUP,
            epoch: 0,
            value: 3,
        }
        .build(&[]);
        let mut out = Vec::new();
        nodes.get_mut(&1).unwrap().on_packet(t(10), 3, &FrameBuf::new(stale), &mut out).unwrap();
        assert_eq!(nodes[&1].stats().stale_arrives, 1);
        assert_eq!(nodes[&1].stats().straggler_resends, 1);
        assert!(
            matches!(out[0], CollectiveAction::Replicate { dst_cab: 3, .. }),
            "straggler gets the cached release, to it alone"
        );

        // epoch 1 still needs every arrival: leaf 3's replay must not
        // have pre-arrived it
        let staged = arrive_all(&mut nodes, t(100), CombineOp::Sum, |id| 10 + id as u64);
        let local = pump(&mut nodes, t(100), staged, &mut Vec::new());
        let want = (0..7u64).map(|v| 10 + v).sum::<u64>();
        for id in 0..7u16 {
            assert!(
                local.contains(&(
                    id,
                    CollectiveAction::Completed { group: GROUP, epoch: 1, value: want }
                )),
                "epoch 1 wrong at node {id}"
            );
        }
        assert_eq!(nodes[&0].stats().arrives_rx, 4); // 2 per epoch
    }

    #[test]
    fn lost_arrive_retransmitted_until_release() {
        let mut nodes = tree7();
        // lose leaf 3's first Arrive to node 1
        let mut lose = vec![(3, 1)];
        let staged = arrive_all(&mut nodes, t(0), CombineOp::None, |_| 0);
        let local = pump(&mut nodes, t(0), staged, &mut lose);
        assert!(local.iter().all(|(_, a)| !matches!(a, CollectiveAction::Completed { .. })));

        // leaf 3's timer fires and the retransmit completes the barrier
        let mut out = Vec::new();
        nodes.get_mut(&3).unwrap().poll(t(600), &mut out);
        assert_eq!(nodes[&3].stats().arrive_retransmits, 1);
        let local =
            pump(&mut nodes, t(600), out.into_iter().map(|a| (3, a)).collect(), &mut Vec::new());
        for id in 0..7u16 {
            assert!(
                local.contains(&(
                    id,
                    CollectiveAction::Completed { group: GROUP, epoch: 0, value: 0 }
                )),
                "node {id} did not complete after retransmit"
            );
        }
        // the gather absorbed nothing twice
        assert_eq!(nodes[&1].stats().duplicate_arrives, 0);
    }

    #[test]
    fn lost_release_resent_to_straggler_only() {
        let mut nodes = tree7();
        // the release from node 2 down to leaf 5 is lost
        let mut lose = vec![(2, 5)];
        let staged = arrive_all(&mut nodes, t(0), CombineOp::Sum, |id| id as u64);
        let local = pump(&mut nodes, t(0), staged, &mut lose);
        let done = |l: &[(u16, CollectiveAction)], id| {
            l.iter().any(|(n, a)| *n == id && matches!(a, CollectiveAction::Completed { .. }))
        };
        assert!(!done(&local, 5), "leaf 5 must still be waiting");
        assert!(done(&local, 0) && done(&local, 6));

        // leaf 5 retransmits its Arrive; node 2 answers from the
        // release cache without disturbing epoch 1 state
        let mut out = Vec::new();
        nodes.get_mut(&5).unwrap().poll(t(600), &mut out);
        let local =
            pump(&mut nodes, t(600), out.into_iter().map(|a| (5, a)).collect(), &mut Vec::new());
        assert!(
            local.contains(&(5, CollectiveAction::Completed { group: GROUP, epoch: 0, value: 21 })),
            "straggler must complete with the same combined value"
        );
        assert_eq!(nodes[&2].stats().straggler_resends, 1);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let mut nodes = tree7();
        let mut out = Vec::new();
        nodes.get_mut(&3).unwrap().arrive(t(0), GROUP, CombineOp::None, 0, &mut out);
        assert_eq!(nodes[&3].next_wakeup(), Some(t(500)));
        let mut now = t(0);
        let mut failed = false;
        for _ in 0..10 {
            now += SimDuration::from_millis(1);
            let mut out = Vec::new();
            nodes.get_mut(&3).unwrap().poll(now, &mut out);
            if out.contains(&CollectiveAction::Failed { group: GROUP, epoch: 0 }) {
                failed = true;
                break;
            }
        }
        assert!(failed);
        assert_eq!(nodes[&3].stats().failures, 1);
        assert_eq!(nodes[&3].next_wakeup(), None);
    }

    #[test]
    fn multicast_replicates_zero_copy_through_the_tree() {
        let mut nodes = tree7();
        let payload = vec![0x5a; 256];
        let mut out = Vec::new();
        assert!(nodes.get_mut(&0).unwrap().multicast(GROUP, &payload, &mut out));
        assert_eq!(out.len(), 2);
        let CollectiveAction::Replicate { packet: root_msg, .. } = &out[0] else { panic!() };
        let root_msg = root_msg.clone();

        // forward through node 1: its replicas and its local delivery
        // must share the root's allocation — Rc bumps all the way down
        let mut fwd = Vec::new();
        nodes.get_mut(&1).unwrap().on_packet(t(0), 0, &root_msg, &mut fwd).unwrap();
        let mut delivered = 0;
        for act in &fwd {
            match act {
                CollectiveAction::Replicate { packet, .. } => {
                    assert!(packet.shares_backing(&root_msg), "fan-out must not deep-copy");
                }
                CollectiveAction::Deliver { group, payload: p } => {
                    assert_eq!(*group, GROUP);
                    assert!(p.shares_backing(&root_msg), "delivery must be a view");
                    assert_eq!(p.as_slice(), &payload[..]);
                    delivered += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(delivered, 1);
        assert!(root_msg.backing_refcount() > 1, "replicas must share the backing");
    }
}
