//! Deployment and drivers for the in-network collectives (DESIGN.md
//! §16): group-tree construction over any topology, per-member driver
//! threads, and the handles tests/benches observe.
//!
//! A [`CollectiveGroup`] is a *logical* tree over member CAB ids — the
//! physical fabric underneath (single HUB, two HUBs, folded Clos) is
//! whatever the [`World`] was built on; each tree edge rides the
//! already-installed source routes. Two shapes are provided: the
//! log-depth k-ary tree the subsystem is built for, and the naive
//! linear chain it is benchmarked against.

use std::cell::Cell;
use std::rc::Rc;

use nectar_cab::proto::{coll_arrive, coll_multicast};
use nectar_cab::reqs::CollNote;
use nectar_cab::shared::MboxId;
use nectar_cab::{CabThread, Cx, HostOpMode, Step};
use nectar_wire::collective::CombineOp;

use crate::scenario::{SharedCount, SharedFlag};
use crate::world::World;

/// How a group's member list is folded into a distribution/combining
/// tree. `members[0]` is always the root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// k-ary heap layout over the member list: member `i`'s parent is
    /// member `(i-1)/fanout`. Depth is `log_fanout(n)`.
    Kary { fanout: usize },
    /// Each member chains to the next — the naive linear baseline
    /// (depth `n-1`, every gather and release fully serialized).
    Chain,
}

/// A collective group deployment: which CABs are members and how the
/// tree is shaped.
#[derive(Clone, Debug)]
pub struct CollectiveGroup {
    pub group: u16,
    /// Member CAB ids; `members[0]` is the root.
    pub members: Vec<u16>,
    pub shape: TreeShape,
}

impl CollectiveGroup {
    /// A log-depth k-ary tree over `members`.
    pub fn tree(group: u16, members: Vec<u16>, fanout: usize) -> CollectiveGroup {
        assert!(fanout >= 1, "fanout must be at least 1");
        CollectiveGroup { group, members, shape: TreeShape::Kary { fanout } }
    }

    /// The naive linear chain over `members`.
    pub fn chain(group: u16, members: Vec<u16>) -> CollectiveGroup {
        CollectiveGroup { group, members, shape: TreeShape::Chain }
    }

    /// `(parent, children)` of the `i`-th member, as CAB ids.
    pub fn topo_of(&self, i: usize) -> (Option<u16>, Vec<u16>) {
        let n = self.members.len();
        match self.shape {
            TreeShape::Kary { fanout } => {
                let parent = if i == 0 { None } else { Some(self.members[(i - 1) / fanout]) };
                let lo = i * fanout + 1;
                let children =
                    (lo..(lo + fanout).min(n)).map(|c| self.members[c]).collect::<Vec<_>>();
                (parent, children)
            }
            TreeShape::Chain => {
                let parent = if i == 0 { None } else { Some(self.members[i - 1]) };
                let children = if i + 1 < n { vec![self.members[i + 1]] } else { Vec::new() };
                (parent, children)
            }
        }
    }

    /// Number of tree levels (1 = root only) — the latency-governing
    /// depth the bench sweeps.
    pub fn depth(&self) -> usize {
        let n = self.members.len();
        if n == 0 {
            return 0;
        }
        match self.shape {
            TreeShape::Chain => n,
            TreeShape::Kary { fanout } => {
                // walk the last member up to the root
                let mut i = n - 1;
                let mut d = 1;
                while i > 0 {
                    i = (i - 1) / fanout;
                    d += 1;
                }
                d
            }
        }
    }

    /// Install this group's tree slice on every member board: fork the
    /// progress thread, register (or reuse) the per-CAB collective note
    /// mailbox, and load the group table. Returns the note mailbox of
    /// each member, in member order.
    pub fn deploy(&self, world: &mut World) -> Vec<MboxId> {
        let mut mboxes = Vec::with_capacity(self.members.len());
        for (i, &m) in self.members.iter().enumerate() {
            let (parent, children) = self.topo_of(i);
            let cab = &mut world.cabs[m as usize];
            let mb = match cab.proto.coll_mbox {
                Some(mb) => mb,
                None => {
                    let mb = cab.shared.create_mailbox(false, HostOpMode::SharedMemory);
                    cab.proto.coll_mbox = Some(mb);
                    mb
                }
            };
            cab.install_collective_group(self.group, parent, children);
            mboxes.push(mb);
        }
        mboxes
    }
}

/// Observable progress of one [`CollectiveMember`].
#[derive(Clone)]
pub struct MemberHandles {
    /// Epochs completed (releases observed) at this member.
    pub completions: SharedCount,
    /// Combined value of the most recent completed epoch.
    pub last_value: Rc<Cell<u64>>,
    /// Multicast payload bytes delivered to this member.
    pub deliver_bytes: SharedCount,
    /// Set when every epoch completed.
    pub done: SharedFlag,
    /// Set if any epoch failed (retries exhausted).
    pub failed: SharedFlag,
    /// Sim time (ns) when the final epoch completed here — the bench's
    /// latency probe, since `run_until` clamps the clock to its
    /// deadline even when the queue drains early.
    pub finished_at: SharedCount,
}

impl MemberHandles {
    fn new() -> MemberHandles {
        MemberHandles {
            completions: Rc::new(Cell::new(0)),
            last_value: Rc::new(Cell::new(0)),
            deliver_bytes: Rc::new(Cell::new(0)),
            done: Rc::new(Cell::new(false)),
            failed: Rc::new(Cell::new(false)),
            finished_at: Rc::new(Cell::new(0)),
        }
    }
}

/// A CAB thread running `epochs` back-to-back barrier/reduction rounds
/// for one group: arrive with `contrib`, wait for the release note,
/// arrive again — the self-clocked workload behind the collective
/// bench and tests.
pub struct CollectiveMember {
    pub group: u16,
    pub note_mbox: MboxId,
    pub op: CombineOp,
    /// This member's operand, identical every epoch.
    pub contrib: u64,
    pub epochs: u32,
    started: bool,
    h: MemberHandles,
}

impl CollectiveMember {
    pub fn new(
        group: u16,
        note_mbox: MboxId,
        op: CombineOp,
        contrib: u64,
        epochs: u32,
    ) -> (CollectiveMember, MemberHandles) {
        let h = MemberHandles::new();
        (
            CollectiveMember {
                group,
                note_mbox,
                op,
                contrib,
                epochs,
                started: false,
                h: h.clone(),
            },
            h,
        )
    }
}

impl CabThread for CollectiveMember {
    fn name(&self) -> &'static str {
        "coll-member"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if !self.started {
            self.started = true;
            coll_arrive(cx, self.group, self.op, self.contrib);
        }
        for _ in 0..cx.proto.burst_limit {
            let Some(bytes) = cx.get_message(self.note_mbox) else {
                return Step::Block(cx.mbox_cond(self.note_mbox));
            };
            match CollNote::decode(&bytes) {
                Some(CollNote::Completed { group, epoch, value }) if group == self.group => {
                    self.h.completions.set(self.h.completions.get() + 1);
                    self.h.last_value.set(value);
                    if epoch + 1 < self.epochs {
                        coll_arrive(cx, self.group, self.op, self.contrib);
                    } else {
                        self.h.done.set(true);
                        self.h.finished_at.set(cx.now().as_nanos());
                        return Step::Done;
                    }
                }
                Some(CollNote::Failed { group, .. }) if group == self.group => {
                    self.h.failed.set(true);
                    return Step::Done;
                }
                Some(CollNote::Deliver { group, payload }) if group == self.group => {
                    self.h.deliver_bytes.set(self.h.deliver_bytes.get() + payload.len() as u64);
                }
                _ => {}
            }
        }
        Step::Yield
    }
}

/// A CAB thread at the group root fanning `count` multicast payloads of
/// `size` bytes down the tree, one per burst.
pub struct MulticastRoot {
    pub group: u16,
    pub size: usize,
    pub count: u32,
    sent: u32,
    pub done: SharedFlag,
}

impl MulticastRoot {
    pub fn new(group: u16, size: usize, count: u32) -> (MulticastRoot, SharedFlag) {
        let done: SharedFlag = Rc::new(Cell::new(false));
        (MulticastRoot { group, size, count, sent: 0, done: done.clone() }, done)
    }
}

impl CabThread for MulticastRoot {
    fn name(&self) -> &'static str {
        "coll-mcast-root"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if self.sent >= self.count {
            self.done.set(true);
            return Step::Done;
        }
        let mut payload = vec![0u8; self.size.max(4)];
        payload[..4].copy_from_slice(&self.sent.to_be_bytes());
        coll_multicast(cx, self.group, &payload);
        self.sent += 1;
        Step::Yield
    }
}

/// A CAB thread counting multicast deliveries for one group — the
/// receive half of a pure multicast scenario (no barrier traffic).
pub struct MulticastSink {
    pub group: u16,
    pub note_mbox: MboxId,
    pub expected: u64,
    pub received: SharedCount,
    pub bytes: SharedCount,
    pub done: SharedFlag,
}

impl MulticastSink {
    pub fn new(
        group: u16,
        note_mbox: MboxId,
        expected: u64,
    ) -> (MulticastSink, SharedCount, SharedCount, SharedFlag) {
        let received: SharedCount = Rc::new(Cell::new(0));
        let bytes: SharedCount = Rc::new(Cell::new(0));
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            MulticastSink {
                group,
                note_mbox,
                expected,
                received: received.clone(),
                bytes: bytes.clone(),
                done: done.clone(),
            },
            received,
            bytes,
            done,
        )
    }
}

impl CabThread for MulticastSink {
    fn name(&self) -> &'static str {
        "coll-mcast-sink"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(bytes) = cx.get_message(self.note_mbox) else {
                return Step::Block(cx.mbox_cond(self.note_mbox));
            };
            if let Some(CollNote::Deliver { group, payload }) = CollNote::decode(&bytes) {
                if group == self.group {
                    self.received.set(self.received.get() + 1);
                    self.bytes.set(self.bytes.get() + payload.len() as u64);
                    if self.received.get() >= self.expected {
                        self.done.set(true);
                        return Step::Done;
                    }
                }
            }
        }
        Step::Yield
    }
}

/// Deploy a group and fork one [`CollectiveMember`] per member CAB.
/// Returns the per-member handles, in member order.
pub fn deploy_barrier_fleet(
    world: &mut World,
    group: &CollectiveGroup,
    op: CombineOp,
    epochs: u32,
    contrib_of: impl Fn(usize) -> u64,
) -> Vec<MemberHandles> {
    let mboxes = group.deploy(world);
    let mut handles = Vec::with_capacity(group.members.len());
    for (i, (&m, &mb)) in group.members.iter().zip(&mboxes).enumerate() {
        let (member, h) = CollectiveMember::new(group.group, mb, op, contrib_of(i), epochs);
        world.cabs[m as usize].fork_app(Box::new(member));
        handles.push(h);
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kary_topology_is_a_heap() {
        let g = CollectiveGroup::tree(1, (0..7).collect(), 2);
        assert_eq!(g.topo_of(0), (None, vec![1, 2]));
        assert_eq!(g.topo_of(1), (Some(0), vec![3, 4]));
        assert_eq!(g.topo_of(2), (Some(0), vec![5, 6]));
        assert_eq!(g.topo_of(6), (Some(2), vec![]));
        assert_eq!(g.depth(), 3);
    }

    #[test]
    fn chain_topology_is_linear() {
        let g = CollectiveGroup::chain(1, vec![4, 2, 9]);
        assert_eq!(g.topo_of(0), (None, vec![2]));
        assert_eq!(g.topo_of(1), (Some(4), vec![9]));
        assert_eq!(g.topo_of(2), (Some(2), vec![]));
        assert_eq!(g.depth(), 3);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let g = CollectiveGroup::tree(1, (0..2048).collect(), 4);
        assert!(g.depth() <= 7, "4-ary over 2048 must stay log-depth, got {}", g.depth());
        let c = CollectiveGroup::chain(1, (0..2048).collect());
        assert_eq!(c.depth(), 2048);
    }

    #[test]
    fn members_map_through_the_heap() {
        // non-contiguous member ids must be mapped, not used raw
        let g = CollectiveGroup::tree(1, vec![10, 20, 30, 40], 2);
        assert_eq!(g.topo_of(0), (None, vec![20, 30]));
        assert_eq!(g.topo_of(1), (Some(10), vec![40]));
        assert_eq!(g.topo_of(3), (Some(20), vec![]));
    }
}
