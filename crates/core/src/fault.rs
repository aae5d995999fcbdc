//! Per-link, time-scheduled fault injection.
//!
//! The paper's transports exist to survive a lossy fiber fabric; this
//! module is the adversary. It generalizes the original global
//! [`FaultPlan`](crate::config::FaultPlan) — a single loss/corrupt
//! probability applied where a frame enters the network — to a
//! [`FaultScript`]: each fiber (CAB↔HUB or HUB↔HUB trunk) carries its
//! own [`LinkPlan`] with independent loss, corruption, Gilbert–Elliott
//! burst loss and scheduled down-windows, and whole nodes can black
//! out for a window (a dead CAB neither transmits nor receives, and
//! its input FIFO is flushed like a power-cycled board's).
//!
//! Randomness is *strand-local*: every fiber direction (cab3→hub0 and
//! hub0→cab3 are separate strands of the same [`LinkId`], just as a
//! duplex fiber is two light paths) owns an independent [`Pcg32`]
//! stream and its own Gilbert–Elliott channel state, and the legacy
//! global-plan entry draws come from a per-CAB stream. A draw on one
//! fiber therefore never perturbs another fiber's schedule: adding a
//! clause or traffic elsewhere does not reshuffle the faults a given
//! strand already had. A single engine-wide stream breaks this — two
//! frames on unrelated fibers would consume from one sequence, making
//! every verdict depend on the global frame order, so a shrunk fault
//! script or an extra client would replay a different loss pattern on
//! the fibers under study. The default (fault-free) configuration
//! still reproduces the pinned metrics fixture byte for byte, because
//! `Pcg32::chance` consumes no state for probabilities of 0 or 1.
//!
//! Every injected fault is counted per link/node and surfaced through
//! [`crate::world::World::metrics`] under `net/link/<a>-<b>/…` and
//! `net/node/<n>/…` keys, one group per link or node a script touches.

use std::collections::BTreeMap;
use std::fmt;

use nectar_sim::{check::Gen, Pcg32, SimDuration, SimTime};

use crate::config::FaultPlan;
use crate::topology::Topology;

/// An endpoint of a fiber: a CAB's link interface or a HUB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    Cab(u16),
    Hub(u16),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Cab(i) => write!(f, "cab{i}"),
            NodeRef::Hub(h) => write!(f, "hub{h}"),
        }
    }
}

/// A fiber, identified by its two endpoints in canonical (sorted)
/// order, so `cab3↔hub0` and `hub0↔cab3` name the same link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub NodeRef, pub NodeRef);

impl LinkId {
    pub fn new(a: NodeRef, b: NodeRef) -> LinkId {
        if a <= b {
            LinkId(a, b)
        } else {
            LinkId(b, a)
        }
    }

    /// Stable label used in metric keys: `cab3-hub0`, `hub0-hub1`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.0, self.1)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.0, self.1)
    }
}

/// Gilbert–Elliott two-state burst-loss model. The channel sits in a
/// Good or Bad state; each frame first draws a state transition, then
/// a loss with the state's probability. Long low-loss stretches
/// punctuated by dense loss bursts — the pattern that defeats
/// fixed-timeout recovery while uniform loss of the same average rate
/// does not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of moving Good → Bad.
    pub p_good_to_bad: f64,
    /// Per-frame probability of moving Bad → Good.
    pub p_bad_to_good: f64,
    /// Loss probability while Good.
    pub loss_good: f64,
    /// Loss probability while Bad.
    pub loss_bad: f64,
}

impl Default for GilbertElliott {
    fn default() -> Self {
        GilbertElliott { p_good_to_bad: 0.01, p_bad_to_good: 0.25, loss_good: 0.0, loss_bad: 0.6 }
    }
}

/// The fault behaviour of one fiber.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkPlan {
    /// Uniform per-frame loss probability.
    pub loss: f64,
    /// Per-frame probability of a single flipped bit (the hardware CRC
    /// must catch it, unless the flip lands in the route prefix and the
    /// frame strays).
    pub corrupt: f64,
    /// Optional burst-loss overlay, evaluated after the uniform draw.
    pub burst: Option<GilbertElliott>,
    /// Scheduled outage windows `[from, until)`: frames entering the
    /// fiber inside a window vanish (dark fiber), deterministic, no RNG.
    pub down: Vec<(SimTime, SimTime)>,
    /// Heal deadline for the probabilistic clauses (`loss`, `corrupt`,
    /// `burst`): from this instant on the fiber is clean and consumes
    /// no fault RNG. `None` means the degradation is permanent.
    /// Scheduled `down` windows carry their own end and are unaffected.
    pub until: Option<SimTime>,
}

impl LinkPlan {
    /// A plan that can never affect a frame. Noop plans are pruned at
    /// install time so a script full of zeros leaves the engine
    /// disabled (⇒ bit-exact legacy schedule).
    fn is_noop(&self) -> bool {
        self.loss <= 0.0
            && self.corrupt <= 0.0
            && self.burst.is_none()
            && self.down.iter().all(|&(from, until)| from >= until)
    }

    fn is_down(&self, at: SimTime) -> bool {
        self.down.iter().any(|&(from, until)| from <= at && at < until)
    }
}

/// A whole-node blackout window: the node neither sends nor receives
/// in `[from, until)`, and a CAB's input FIFO is flushed at `from`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeOutage {
    pub node: NodeRef,
    pub from: SimTime,
    pub until: SimTime,
}

/// A complete, deterministic fault scenario: per-link plans plus node
/// blackouts. Scripts are plain data — printable, shrinkable,
/// replayable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    pub links: Vec<(LinkId, LinkPlan)>,
    pub outages: Vec<NodeOutage>,
}

impl FaultScript {
    pub fn is_empty(&self) -> bool {
        self.links.iter().all(|(_, p)| p.is_noop())
            && self.outages.iter().all(|o| o.from >= o.until)
    }

    /// The same [`LinkPlan`] on every fiber of `topo`.
    pub fn uniform(topo: &Topology, plan: LinkPlan) -> FaultScript {
        FaultScript {
            links: topo.links().into_iter().map(|l| (l, plan.clone())).collect(),
            outages: Vec::new(),
        }
    }

    /// A bounded random scenario over `topo`'s fibers, every fault
    /// healed by `heal_by` so post-heal delivery invariants can be
    /// asserted. Probabilistic clauses (loss/corrupt/burst) are kept
    /// moderate — the point is to exercise recovery, not to partition
    /// the network forever.
    pub fn random(g: &mut Gen, topo: &Topology, heal_by: SimTime) -> FaultScript {
        let links = topo.links();
        let horizon = heal_by.saturating_since(SimTime::ZERO);
        let mut script = FaultScript::default();
        let n_link_clauses = g.usize_in(1, 5);
        for _ in 0..n_link_clauses {
            let link = *g.pick(&links);
            let mut plan = LinkPlan { until: Some(heal_by), ..LinkPlan::default() };
            match g.usize_in(0, 4) {
                0 => plan.loss = g.f64_in(0.02, 0.25),
                1 => plan.corrupt = g.f64_in(0.02, 0.25),
                2 => {
                    plan.burst = Some(GilbertElliott {
                        p_good_to_bad: g.f64_in(0.005, 0.05),
                        p_bad_to_good: g.f64_in(0.1, 0.5),
                        loss_good: 0.0,
                        loss_bad: g.f64_in(0.3, 0.9),
                    })
                }
                _ => {
                    let from = SimTime::ZERO + mul_frac(horizon, g.f64_in(0.0, 0.5));
                    let len = mul_frac(horizon, g.f64_in(0.02, 0.25));
                    plan.down = vec![(from, (from + len).min(heal_by))];
                }
            }
            script.links.push((link, plan));
        }
        if g.chance(0.4) {
            // one node blackout; CABs only — a HUB outage with both
            // trunk-side plans can partition half the fabric, which is
            // legal but makes "everything recovers" workloads slow.
            let cab = g.usize_in(0, topo.cabs()) as u16;
            let from = SimTime::ZERO + mul_frac(horizon, g.f64_in(0.0, 0.5));
            let len = mul_frac(horizon, g.f64_in(0.02, 0.2));
            script.outages.push(NodeOutage {
                node: NodeRef::Cab(cab),
                from,
                until: (from + len).min(heal_by),
            });
        }
        script
    }

    /// Strictly-smaller variants for [`nectar_sim::check::shrink`]:
    /// each candidate removes one link clause or one outage.
    pub fn shrink_candidates(&self) -> Vec<FaultScript> {
        let mut out = Vec::new();
        for i in 0..self.links.len() {
            let mut c = self.clone();
            c.links.remove(i);
            out.push(c);
        }
        for i in 0..self.outages.len() {
            let mut c = self.clone();
            c.outages.remove(i);
            out.push(c);
        }
        out
    }
}

/// `d` scaled by `frac` in `[0, 1]`, in nanosecond resolution.
fn mul_frac(d: SimDuration, frac: f64) -> SimDuration {
    SimDuration::from_nanos((d.as_nanos() as f64 * frac) as u64)
}

/// What the engine decided for one frame at one checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Pass unharmed.
    Deliver,
    /// Drop, accounted as injected probabilistic loss.
    Lose,
    /// Drop because the fiber or a node is down (separate accounting:
    /// these are scheduled faults, not random ones).
    Down,
    /// Deliver with this wire bit flipped.
    Corrupt(usize),
}

/// Per-link fault counters (published as `net/link/<a>-<b>/…`).
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkFaultStats {
    pub frames_lost: u64,
    pub bytes_lost: u64,
    pub frames_corrupted: u64,
    pub frames_down_dropped: u64,
    pub bytes_down_dropped: u64,
    /// Gilbert–Elliott transitions into the Bad state.
    pub burst_entries: u64,
}

/// Per-node blackout counters (published as `net/node/<n>/…`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeFaultStats {
    pub frames_down_dropped: u64,
    pub bytes_down_dropped: u64,
    pub fifo_flushed_frames: u64,
    pub fifo_flushed_bytes: u64,
}

/// Engine-wide totals (published as `net/fault/…`). The down/outage
/// totals are the extra sink terms in the frame-conservation identity
/// when a script is active.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    pub frames_down_dropped: u64,
    pub bytes_down_dropped: u64,
    pub fifo_flushed_frames: u64,
    pub fifo_flushed_bytes: u64,
}

/// One direction of a fiber: its private RNG stream plus the
/// Gilbert–Elliott channel state riding on that stream.
#[derive(Debug)]
struct DirState {
    rng: Pcg32,
    /// Gilbert–Elliott channel state: true while Bad.
    in_bad: bool,
}

#[derive(Debug)]
struct LinkState {
    plan: LinkPlan,
    /// `[0]` = frames transmitted by the link's first (canonical-order
    /// lower) endpoint, `[1]` = by the second.
    dirs: [DirState; 2],
    stats: LinkFaultStats,
}

/// A collision-free `Pcg32` stream id for one node. CABs and HUBs live
/// in disjoint 17-bit ranges.
fn node_code(n: NodeRef) -> u64 {
    match n {
        NodeRef::Cab(i) => i as u64,
        NodeRef::Hub(h) => (1 << 16) | h as u64,
    }
}

/// Stream id for one fiber direction: link endpoints in canonical
/// order plus which endpoint transmits. Distinct from every per-CAB
/// entry stream (different tag bits).
fn strand_stream(id: LinkId, sender_is_second: bool) -> u64 {
    (0x1fa_u64 << 52) | (node_code(id.0) << 35) | (node_code(id.1) << 18) | sender_is_second as u64
}

/// Stream id for one CAB's legacy global-plan entry draws.
fn entry_stream(cab: u16) -> u64 {
    (0xfa_u64 << 32) | cab as u64
}

/// The world's fault authority. Owns the per-strand fault RNG streams,
/// the installed script and all fault accounting.
#[derive(Debug)]
pub struct FaultEngine {
    /// Base seed every strand stream derives from.
    seed: u64,
    /// Per-CAB streams for the legacy global-plan draws at network
    /// entry (lazily created on a CAB's first transmitted frame).
    entry_rngs: BTreeMap<u16, Pcg32>,
    /// The legacy global plan, always evaluated first in the legacy
    /// draw order.
    plan: FaultPlan,
    enabled: bool,
    links: BTreeMap<LinkId, LinkState>,
    outages: Vec<NodeOutage>,
    node_stats: BTreeMap<NodeRef, NodeFaultStats>,
    pub stats: FaultStats,
}

impl FaultEngine {
    pub fn new(seed: u64, plan: FaultPlan) -> FaultEngine {
        FaultEngine {
            seed,
            entry_rngs: BTreeMap::new(),
            plan,
            enabled: false,
            links: BTreeMap::new(),
            outages: Vec::new(),
            node_stats: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// True when a non-trivial script is installed. While false the
    /// engine performs exactly the legacy global-plan draws — and for
    /// the default fault-free plan those consume no RNG state, so the
    /// whole schedule is bit-identical to a world with no engine.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Install a script, replacing any previous one. Noop clauses are
    /// pruned; an effectively-empty script leaves the engine disabled.
    /// Counters and channel states reset.
    pub fn install(&mut self, script: &FaultScript) {
        self.links.clear();
        self.node_stats.clear();
        self.outages.clear();
        for (id, plan) in &script.links {
            if plan.is_noop() {
                continue;
            }
            let seed = self.seed;
            let e = self.links.entry(*id).or_insert_with(|| LinkState {
                plan: LinkPlan::default(),
                dirs: [false, true].map(|second| DirState {
                    rng: Pcg32::new(seed, strand_stream(*id, second)),
                    in_bad: false,
                }),
                stats: LinkFaultStats::default(),
            });
            // merging repeated clauses for one link: last probabilistic
            // settings win, down windows accumulate, and the heal
            // deadline widens to cover every probabilistic clause
            // merged in (`until: None` — permanent — dominates). A
            // down-only clause carries no probabilistic content, so its
            // `until` field never disturbs the merged deadline.
            let had_probabilistic =
                e.plan.loss > 0.0 || e.plan.corrupt > 0.0 || e.plan.burst.is_some();
            if plan.loss > 0.0 {
                e.plan.loss = plan.loss;
            }
            if plan.corrupt > 0.0 {
                e.plan.corrupt = plan.corrupt;
            }
            if plan.burst.is_some() {
                e.plan.burst = plan.burst;
            }
            if plan.loss > 0.0 || plan.corrupt > 0.0 || plan.burst.is_some() {
                e.plan.until = match (had_probabilistic, e.plan.until, plan.until) {
                    (false, _, until) => until,
                    (true, Some(a), Some(b)) => Some(a.max(b)),
                    (true, _, _) => None,
                };
            }
            e.plan.down.extend(plan.down.iter().copied().filter(|&(f, u)| f < u));
        }
        self.outages.extend(script.outages.iter().copied().filter(|o| o.from < o.until));
        self.enabled = !self.links.is_empty() || !self.outages.is_empty();
    }

    /// Is `node` inside a blackout window at `at`?
    pub fn node_is_down(&self, node: NodeRef, at: SimTime) -> bool {
        self.enabled && self.outages.iter().any(|o| o.node == node && o.from <= at && at < o.until)
    }

    /// Account a frame dropped because `node` was dark.
    pub fn note_node_down_drop(&mut self, node: NodeRef, wire_len: usize) {
        self.stats.frames_down_dropped += 1;
        self.stats.bytes_down_dropped += wire_len as u64;
        let st = self.node_stats.entry(node).or_default();
        st.frames_down_dropped += 1;
        st.bytes_down_dropped += wire_len as u64;
    }

    /// Account a CAB's input FIFO flushed at blackout start.
    pub fn note_fifo_flush(&mut self, node: NodeRef, frames: u64, bytes: u64) {
        self.stats.fifo_flushed_frames += frames;
        self.stats.fifo_flushed_bytes += bytes;
        let st = self.node_stats.entry(node).or_default();
        st.fifo_flushed_frames += frames;
        st.fifo_flushed_bytes += bytes;
    }

    /// Checkpoint where a frame enters the network (CAB `cab` begins
    /// transmitting toward HUB `hub` at `at`). A dark transmitting CAB
    /// drops the frame at the source *before* any probabilistic draw: a
    /// powered-off board never puts the frame on the fiber, so the drop
    /// is accounted as a scheduled down-drop (never as random injected
    /// loss) and consumes no fault RNG. Surviving frames face the
    /// legacy global-plan draws in the legacy order, then the per-link
    /// plan for the CAB↔HUB fiber. With no script installed the
    /// blackout check is inert, so the draw stream stays bit-identical
    /// to the pre-engine code; only configuring a node outage together
    /// with a non-trivial legacy plan shifts the legacy stream.
    pub fn entry_verdict(&mut self, cab: u16, hub: u16, at: SimTime, wire_len: usize) -> Verdict {
        if self.node_is_down(NodeRef::Cab(cab), at) {
            self.note_node_down_drop(NodeRef::Cab(cab), wire_len);
            return Verdict::Down;
        }
        // legacy draws, exact order, from this CAB's private stream —
        // a fault-free plan consumes no state, and an active plan's
        // draws for one CAB never depend on other CABs' traffic
        let (seed, plan) = (self.seed, self.plan);
        let rng = self.entry_rngs.entry(cab).or_insert_with(|| Pcg32::new(seed, entry_stream(cab)));
        if rng.chance(plan.loss) {
            return Verdict::Lose;
        }
        if plan.corrupt > 0.0 && rng.chance(plan.corrupt) {
            let bit = rng.range(0, wire_len * 8);
            return Verdict::Corrupt(bit);
        }
        if !self.enabled {
            return Verdict::Deliver;
        }
        let sender = NodeRef::Cab(cab);
        self.link_verdict(LinkId::new(sender, NodeRef::Hub(hub)), sender, at, wire_len)
    }

    /// Checkpoint where a HUB forwards a frame onto the fiber toward
    /// `dst` (another HUB, or a CAB) with its first byte leaving at
    /// `at`. No legacy draws here: the global plan only ever applied at
    /// network entry.
    pub fn forward_verdict(
        &mut self,
        hub: u16,
        dst: NodeRef,
        at: SimTime,
        wire_len: usize,
    ) -> Verdict {
        if !self.enabled {
            return Verdict::Deliver;
        }
        let sender = NodeRef::Hub(hub);
        self.link_verdict(LinkId::new(sender, dst), sender, at, wire_len)
    }

    /// Evaluate one fiber's plan for one frame transmitted by `sender`.
    /// All randomness comes from the `(link, direction)` strand's
    /// private stream; draw order within the strand is fixed
    /// (down-window, uniform loss, burst transition, burst loss,
    /// corruption) so same-seed runs replay identically regardless of
    /// how other strands' frames interleave.
    fn link_verdict(
        &mut self,
        id: LinkId,
        sender: NodeRef,
        at: SimTime,
        wire_len: usize,
    ) -> Verdict {
        let Some(st) = self.links.get_mut(&id) else { return Verdict::Deliver };
        if st.plan.is_down(at) {
            st.stats.frames_down_dropped += 1;
            st.stats.bytes_down_dropped += wire_len as u64;
            self.stats.frames_down_dropped += 1;
            self.stats.bytes_down_dropped += wire_len as u64;
            return Verdict::Down;
        }
        if st.plan.until.is_some_and(|u| at >= u) {
            return Verdict::Deliver; // probabilistic clauses healed
        }
        let dir = &mut st.dirs[(sender == id.1) as usize];
        if dir.rng.chance(st.plan.loss) {
            st.stats.frames_lost += 1;
            st.stats.bytes_lost += wire_len as u64;
            return Verdict::Lose;
        }
        if let Some(ge) = st.plan.burst {
            let flip = if dir.in_bad {
                dir.rng.chance(ge.p_bad_to_good)
            } else {
                let entered = dir.rng.chance(ge.p_good_to_bad);
                if entered {
                    st.stats.burst_entries += 1;
                }
                entered
            };
            if flip {
                dir.in_bad = !dir.in_bad;
            }
            let p = if dir.in_bad { ge.loss_bad } else { ge.loss_good };
            if dir.rng.chance(p) {
                st.stats.frames_lost += 1;
                st.stats.bytes_lost += wire_len as u64;
                return Verdict::Lose;
            }
        }
        if st.plan.corrupt > 0.0 && dir.rng.chance(st.plan.corrupt) {
            st.stats.frames_corrupted += 1;
            let bit = dir.rng.range(0, wire_len * 8);
            return Verdict::Corrupt(bit);
        }
        Verdict::Deliver
    }

    /// Per-link counters, in canonical link order.
    pub fn link_stats(&self) -> impl Iterator<Item = (LinkId, &LinkFaultStats)> {
        self.links.iter().map(|(id, st)| (*id, &st.stats))
    }

    /// Per-node blackout counters, in canonical node order.
    pub fn node_stats(&self) -> impl Iterator<Item = (NodeRef, &NodeFaultStats)> {
        self.node_stats.iter().map(|(n, st)| (*n, st))
    }

    /// Installed blackout windows (for scheduling FIFO disposal).
    pub fn outages(&self) -> &[NodeOutage] {
        &self.outages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn link_id_is_canonical() {
        let a = LinkId::new(NodeRef::Hub(0), NodeRef::Cab(3));
        let b = LinkId::new(NodeRef::Cab(3), NodeRef::Hub(0));
        assert_eq!(a, b);
        assert_eq!(a.label(), "cab3-hub0");
        let trunk = LinkId::new(NodeRef::Hub(1), NodeRef::Hub(0));
        assert_eq!(trunk.label(), "hub0-hub1");
    }

    #[test]
    fn empty_script_leaves_engine_disabled() {
        let mut e = FaultEngine::new(7, FaultPlan::default());
        assert!(!e.enabled());
        // zeros-only script prunes to nothing
        let script = FaultScript {
            links: vec![(
                LinkId::new(NodeRef::Cab(0), NodeRef::Hub(0)),
                LinkPlan { down: vec![(t(10), t(10))], ..LinkPlan::default() },
            )],
            outages: vec![NodeOutage { node: NodeRef::Cab(1), from: t(5), until: t(5) }],
        };
        assert!(script.is_empty());
        e.install(&script);
        assert!(!e.enabled());
        assert_eq!(e.entry_verdict(0, 0, t(1), 100), Verdict::Deliver);
    }

    #[test]
    fn disabled_engine_replays_per_cab_draw_stream() {
        // the engine with no script performs the legacy global-plan
        // draws in the legacy order, from the transmitting CAB's
        // private stream
        let plan = FaultPlan { loss: 0.3, corrupt: 0.2 };
        let mut reference = Pcg32::new(99, entry_stream(3));
        let mut e = FaultEngine::new(99, plan);
        for _ in 0..200 {
            let wire_len = 120;
            let expect = if reference.chance(plan.loss) {
                Verdict::Lose
            } else if plan.corrupt > 0.0 && reference.chance(plan.corrupt) {
                Verdict::Corrupt(reference.range(0, wire_len * 8))
            } else {
                Verdict::Deliver
            };
            assert_eq!(e.entry_verdict(3, 0, t(1), wire_len), expect);
        }
    }

    /// Strand-locality pin: the verdict sequence one CAB observes must
    /// not depend on other CABs' traffic — adding load elsewhere may
    /// interleave foreign frames in any global order without
    /// reshuffling the faults this CAB's fiber sees.
    #[test]
    fn entry_draws_are_independent_per_cab() {
        let plan = FaultPlan { loss: 0.3, corrupt: 0.2 };
        // engine A: cab 3 alone; engine B: cab 3's frames interleaved
        // with heavy traffic from cabs 1 and 7
        let mut a = FaultEngine::new(4242, plan);
        let mut b = FaultEngine::new(4242, plan);
        for i in 0..300 {
            let expect = a.entry_verdict(3, 0, t(i), 90);
            let _ = b.entry_verdict(1, 0, t(i), 90);
            let _ = b.entry_verdict(7, 1, t(i), 90);
            assert_eq!(b.entry_verdict(3, 0, t(i), 90), expect);
            let _ = b.entry_verdict(1, 0, t(i), 90);
        }
    }

    /// The same independence for scripted links, per *direction*: the
    /// cab→hub strand and the hub→cab strand of one fiber are separate
    /// light paths with separate streams and separate burst state, and
    /// neither is perturbed by traffic on other fibers.
    #[test]
    fn link_strands_are_independent_per_direction() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.2,
            loss_good: 0.05,
            loss_bad: 0.9,
        };
        let script = |links: Vec<LinkId>| FaultScript {
            links: links
                .into_iter()
                .map(|l| (l, LinkPlan { corrupt: 0.1, burst: Some(ge), ..LinkPlan::default() }))
                .collect(),
            outages: vec![],
        };
        let fiber = LinkId::new(NodeRef::Cab(2), NodeRef::Hub(0));
        let other = LinkId::new(NodeRef::Cab(5), NodeRef::Hub(0));
        let trunk = LinkId::new(NodeRef::Hub(0), NodeRef::Hub(1));
        // engine A sees only hub0→cab2 traffic; engine B additionally
        // carries the reverse direction, another fiber, and a trunk
        let mut a = FaultEngine::new(77, FaultPlan::default());
        a.install(&script(vec![fiber]));
        let mut b = FaultEngine::new(77, FaultPlan::default());
        b.install(&script(vec![fiber, other, trunk]));
        for i in 0..400 {
            let expect = a.forward_verdict(0, NodeRef::Cab(2), t(i), 80);
            let _ = b.entry_verdict(2, 0, t(i), 80); // reverse strand
            let _ = b.entry_verdict(5, 0, t(i), 80); // other fiber
            let _ = b.forward_verdict(0, NodeRef::Hub(1), t(i), 80); // trunk
            assert_eq!(b.forward_verdict(0, NodeRef::Cab(2), t(i), 80), expect);
        }
    }

    #[test]
    fn down_window_is_deterministic_and_bounded() {
        let mut e = FaultEngine::new(1, FaultPlan::default());
        let link = LinkId::new(NodeRef::Cab(2), NodeRef::Hub(0));
        e.install(&FaultScript {
            links: vec![(link, LinkPlan { down: vec![(t(100), t(200))], ..LinkPlan::default() })],
            outages: vec![],
        });
        assert!(e.enabled());
        assert_eq!(e.entry_verdict(2, 0, t(99), 64), Verdict::Deliver);
        assert_eq!(e.entry_verdict(2, 0, t(100), 64), Verdict::Down);
        assert_eq!(e.entry_verdict(2, 0, t(199), 64), Verdict::Down);
        assert_eq!(e.entry_verdict(2, 0, t(200), 64), Verdict::Deliver);
        // other links unaffected
        assert_eq!(e.entry_verdict(4, 0, t(150), 64), Verdict::Deliver);
        let st: Vec<_> = e.link_stats().collect();
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].1.frames_down_dropped, 2);
        assert_eq!(st[0].1.bytes_down_dropped, 128);
    }

    #[test]
    fn certain_loss_always_loses() {
        let mut e = FaultEngine::new(5, FaultPlan::default());
        let link = LinkId::new(NodeRef::Cab(0), NodeRef::Hub(0));
        e.install(&FaultScript {
            links: vec![(link, LinkPlan { loss: 1.0, ..LinkPlan::default() })],
            outages: vec![],
        });
        for i in 0..50 {
            assert_eq!(e.entry_verdict(0, 0, t(i), 64), Verdict::Lose);
        }
        let st: Vec<_> = e.link_stats().collect();
        assert_eq!(st[0].1.frames_lost, 50);
    }

    #[test]
    fn probabilistic_faults_heal_at_deadline() {
        // exercised through install() + entry_verdict, not raw script
        // fields: the deadline must survive the clause-merge into
        // engine state, and from it on the fiber is clean
        let mut e = FaultEngine::new(5, FaultPlan::default());
        let link = LinkId::new(NodeRef::Cab(0), NodeRef::Hub(0));
        e.install(&FaultScript {
            links: vec![(link, LinkPlan { loss: 1.0, until: Some(t(10)), ..LinkPlan::default() })],
            outages: vec![],
        });
        for i in 0..10 {
            assert_eq!(e.entry_verdict(0, 0, t(i), 64), Verdict::Lose);
        }
        for i in 10..40 {
            assert_eq!(
                e.entry_verdict(0, 0, t(i), 64),
                Verdict::Deliver,
                "fiber must be clean from the heal deadline on"
            );
        }
        let st: Vec<_> = e.link_stats().collect();
        assert_eq!(st[0].1.frames_lost, 10);
    }

    #[test]
    fn merged_clauses_widen_heal_deadline() {
        let mut e = FaultEngine::new(5, FaultPlan::default());
        let link = LinkId::new(NodeRef::Cab(1), NodeRef::Hub(0));
        // two probabilistic clauses on one fiber: the merged plan heals
        // at the later deadline
        e.install(&FaultScript {
            links: vec![
                (link, LinkPlan { loss: 1.0, until: Some(t(10)), ..LinkPlan::default() }),
                (link, LinkPlan { corrupt: 1.0, until: Some(t(20)), ..LinkPlan::default() }),
            ],
            outages: vec![],
        });
        assert_eq!(e.entry_verdict(1, 0, t(5), 64), Verdict::Lose);
        assert_eq!(e.entry_verdict(1, 0, t(15), 64), Verdict::Lose);
        assert_eq!(e.entry_verdict(1, 0, t(25), 64), Verdict::Deliver);

        // a permanent clause (until: None) keeps the fiber degraded
        e.install(&FaultScript {
            links: vec![
                (link, LinkPlan { loss: 1.0, until: Some(t(10)), ..LinkPlan::default() }),
                (link, LinkPlan { corrupt: 1.0, ..LinkPlan::default() }),
            ],
            outages: vec![],
        });
        assert_eq!(e.entry_verdict(1, 0, t(1_000_000), 64), Verdict::Lose);

        // a down-only clause must not disturb the probabilistic deadline
        e.install(&FaultScript {
            links: vec![
                (link, LinkPlan { loss: 1.0, until: Some(t(10)), ..LinkPlan::default() }),
                (link, LinkPlan { down: vec![(t(2), t(4))], ..LinkPlan::default() }),
            ],
            outages: vec![],
        });
        assert_eq!(e.entry_verdict(1, 0, t(3), 64), Verdict::Down);
        assert_eq!(e.entry_verdict(1, 0, t(5), 64), Verdict::Lose);
        assert_eq!(e.entry_verdict(1, 0, t(11), 64), Verdict::Deliver);
    }

    #[test]
    fn blackout_drop_precedes_legacy_draws() {
        // a dark CAB's frames are down-drops, never accounted as random
        // injected loss, and they consume no legacy RNG state — the
        // draw stream resumes exactly where it stood once the node is up
        let plan = FaultPlan { loss: 0.5, corrupt: 0.0 };
        let mut e = FaultEngine::new(123, plan);
        e.install(&FaultScript {
            links: vec![],
            outages: vec![NodeOutage { node: NodeRef::Cab(0), from: t(0), until: t(100) }],
        });
        for i in 0..50 {
            assert_eq!(e.entry_verdict(0, 0, t(i), 64), Verdict::Down);
        }
        let mut reference = Pcg32::new(123, entry_stream(0));
        for i in 100..200 {
            let expect = if reference.chance(plan.loss) { Verdict::Lose } else { Verdict::Deliver };
            assert_eq!(e.entry_verdict(0, 0, t(i), 64), expect);
        }
        let ns: Vec<_> = e.node_stats().collect();
        assert_eq!(ns[0].1.frames_down_dropped, 50);
    }

    #[test]
    fn burst_model_enters_and_leaves_bad_state() {
        let mut e = FaultEngine::new(42, FaultPlan::default());
        let link = LinkId::new(NodeRef::Cab(1), NodeRef::Hub(0));
        e.install(&FaultScript {
            links: vec![(
                link,
                LinkPlan {
                    burst: Some(GilbertElliott {
                        p_good_to_bad: 0.2,
                        p_bad_to_good: 0.3,
                        loss_good: 0.0,
                        loss_bad: 1.0,
                    }),
                    ..LinkPlan::default()
                },
            )],
            outages: vec![],
        });
        let mut lost = 0u32;
        for i in 0..500 {
            if e.entry_verdict(1, 0, t(i), 64) == Verdict::Lose {
                lost += 1;
            }
        }
        let st: Vec<_> = e.link_stats().collect();
        assert!(st[0].1.burst_entries > 5, "bursts should start repeatedly");
        // steady-state Bad occupancy is 0.2/(0.2+0.3) = 40%, loss_bad=1
        assert!(lost > 100 && lost < 350, "burst loss count {lost} implausible");
        assert_eq!(st[0].1.frames_lost as u32, lost);
    }

    #[test]
    fn node_outage_drops_and_counts() {
        let mut e = FaultEngine::new(0, FaultPlan::default());
        e.install(&FaultScript {
            links: vec![],
            outages: vec![NodeOutage { node: NodeRef::Cab(3), from: t(10), until: t(20) }],
        });
        assert!(e.node_is_down(NodeRef::Cab(3), t(10)));
        assert!(!e.node_is_down(NodeRef::Cab(3), t(20)));
        assert!(!e.node_is_down(NodeRef::Cab(2), t(15)));
        assert_eq!(e.entry_verdict(3, 0, t(15), 80), Verdict::Down);
        assert_eq!(e.stats.frames_down_dropped, 1);
        let ns: Vec<_> = e.node_stats().collect();
        assert_eq!(ns[0].0, NodeRef::Cab(3));
        assert_eq!(ns[0].1.frames_down_dropped, 1);
        assert_eq!(ns[0].1.bytes_down_dropped, 80);
    }

    #[test]
    fn random_scripts_heal_by_deadline() {
        let topo = Topology::two_hubs(26);
        let heal = t(50_000);
        for seed in 0..40u64 {
            let mut g = Gen::new(seed);
            let s = FaultScript::random(&mut g, &topo, heal);
            for (_, plan) in &s.links {
                for &(from, until) in &plan.down {
                    assert!(until <= heal, "down window must heal");
                    assert!(from <= until);
                }
                assert!(plan.until.is_some_and(|u| u <= heal), "probabilistic clauses must heal");
            }
            for o in &s.outages {
                assert!(o.until <= heal);
            }
        }
    }

    #[test]
    fn shrink_candidates_remove_one_clause() {
        let topo = Topology::two_hubs(4);
        let mut g = Gen::new(9);
        let mut s = FaultScript::random(&mut g, &topo, t(1000));
        s.outages.push(NodeOutage { node: NodeRef::Cab(0), from: t(1), until: t(2) });
        let cands = s.shrink_candidates();
        assert_eq!(cands.len(), s.links.len() + s.outages.len());
        for c in &cands {
            assert_eq!(c.links.len() + c.outages.len(), s.links.len() + s.outages.len() - 1);
        }
    }
}
