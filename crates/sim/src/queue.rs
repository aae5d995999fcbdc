//! The event queue: a deterministic scheduler of timestamped closures.
//!
//! Every state change in the simulated Nectar system — a frame finishing
//! serialization onto a fiber, a CAB thread's execution burst completing,
//! a host process waking from a device-driver sleep, a TCP retransmission
//! timer firing — is an event. Events are closures over the world type
//! `W` (defined by the `nectar` core crate), ordered by `(time, sequence
//! number)`; the sequence number makes simultaneous events fire in the
//! order they were scheduled, which keeps every run bit-for-bit
//! reproducible.
//!
//! # Kernel structure
//!
//! The scheduler is built for throughput on large deployments:
//!
//! * **Event arena.** Event bodies live in a slab with a free list;
//!   entry slots are recycled instead of reallocated, and the wheel and
//!   heaps below move only compact `(time, seq, slot)` keys. The hot
//!   kick paths use [`Scheduler::at_call`] — a plain `fn` pointer plus
//!   one word of argument — which touches no allocator at all; general
//!   closures are still boxed (type erasure needs it) but their slab
//!   entries are pooled.
//! * **Hierarchical timer wheel.** Near-future events go into
//!   calendar-queue buckets of [`TICK`] nanoseconds; events beyond the
//!   [`HORIZON`] wait in an overflow heap and migrate into the wheel as
//!   the clock approaches them. The current tick's events sit in a tiny
//!   binary heap so same-instant ordering stays exact. Firing order is
//!   identical to a single global heap: strictly ascending `(time,
//!   seq)`.
//! * **Cancellable timers.** Scheduling returns a generation-stamped
//!   [`TimerId`]; [`Scheduler::cancel`] kills the event in O(1) without
//!   touching the wheel (the dead key is reclaimed when its bucket
//!   drains). Stale handles — fired, cancelled, or from a recycled
//!   slot — are detected by the generation stamp and cancel nothing.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A scheduled event: a one-shot closure over the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

/// The allocation-free event form: a plain function plus one argument
/// word (typically a node index).
pub type EventCall<W> = fn(&mut W, &mut Scheduler<W>, u64);

/// Wheel granularity: events within the same `TICK`-nanosecond window
/// share a bucket (and are heap-ordered when the window drains).
pub const TICK: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 12;
/// Number of wheel buckets. Events further than `HORIZON` nanoseconds
/// ahead overflow into a far-future heap.
const BUCKETS: u64 = 256;
/// The wheel's reach: `BUCKETS * TICK` nanoseconds (~1 ms).
pub const HORIZON: u64 = BUCKETS * TICK;

/// Schedule digest start value and multiplier (FxHash's constant).
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Handle to a scheduled event, stamped with the slot's generation so a
/// stale handle (already fired, already cancelled, or slot recycled)
/// can never kill a different event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: u32,
    gen: u32,
}

/// Shared scheduler counters, readable after the scheduler is out of
/// reach (the world publishes them into metrics snapshots).
#[derive(Clone, Default)]
pub struct SchedStats {
    inner: Rc<SchedCounters>,
}

#[derive(Default)]
struct SchedCounters {
    clamped_past: Cell<u64>,
}

impl SchedStats {
    /// Events whose requested timestamp lay in the past and were
    /// clamped to `now`. A nonzero value means some cost model computed
    /// a time before the current instant.
    pub fn clamped_past(&self) -> u64 {
        self.inner.clamped_past.get()
    }
}

/// What a slot holds. `Vacant` doubles as the cancelled state while the
/// slot's key is still travelling through the wheel.
enum Payload<W> {
    Vacant,
    Boxed(EventFn<W>),
    Call(EventCall<W>, u64),
}

struct Slot<W> {
    gen: u32,
    payload: Payload<W>,
}

/// Compact ordering key; the closure stays in the arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// The simulation scheduler: virtual clock plus pending-event wheel.
///
/// `W` is the simulated world; the scheduler never inspects it, it only
/// hands it to event closures. This keeps the kernel reusable by every
/// crate in the workspace (component unit tests use small ad-hoc worlds).
pub struct Scheduler<W> {
    now: SimTime,
    /// Next `(time, seq)` tie-break value.
    seq: u64,
    executed: u64,
    cancelled: u64,
    /// Rolling hash of every executed event's `(time, seq)`.
    digest: u64,
    /// Live (scheduled, not yet fired or cancelled) event count.
    live: usize,
    /// Tick the wheel cursor sits on; `cur` holds keys with tick ≤
    /// `base_tick`, buckets hold ticks in `(base_tick, base_tick +
    /// BUCKETS)`, overflow holds the rest.
    base_tick: u64,
    cur: BinaryHeap<Reverse<Key>>,
    buckets: Vec<Vec<Key>>,
    /// Occupancy bitmap over `buckets`: bit `b` set iff `buckets[b]` is
    /// nonempty, so the refill cursor finds the next pending tick with
    /// a handful of word scans instead of probing 256 vectors.
    occ: [u64; (BUCKETS / 64) as usize],
    /// Total keys across all buckets.
    near: usize,
    overflow: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    stats: SchedStats,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            cancelled: 0,
            digest: DIGEST_SEED,
            live: 0,
            base_tick: 0,
            cur: BinaryHeap::new(),
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; (BUCKETS / 64) as usize],
            near: 0,
            overflow: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (for diagnostics and runaway
    /// detection in tests).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The schedule digest: every executed event's `(time, seq)` folded,
    /// in firing order, into one 64-bit rolling hash. Two runs that
    /// execute the same events at the same instants in the same order
    /// read the same digest, so a change that claims to leave the
    /// schedule alone can prove it with one comparison.
    pub fn event_digest(&self) -> u64 {
        self.digest
    }

    /// Number of events cancelled before firing.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of events currently pending (cancelled events excluded).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// A handle onto the scheduler's counters that outlives mutable
    /// borrows of the scheduler (the world stores one for metrics).
    pub fn stats(&self) -> SchedStats {
        self.stats.clone()
    }

    /// Schedule `f` at absolute time `at`. Scheduling in the past is a
    /// logic error somewhere in a cost model; we clamp to `now` (and
    /// count the clamp in [`SchedStats::clamped_past`]) rather than
    /// panic, so that a mis-calibrated model degrades into "runs
    /// immediately" instead of aborting a long experiment, but debug
    /// builds assert.
    pub fn at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) -> TimerId {
        self.insert(at, Payload::Boxed(Box::new(f)))
    }

    /// Schedule `f` after a relative delay.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) -> TimerId {
        self.at(self.now + delay, f)
    }

    /// Schedule `f` to run at the current instant, after all events already
    /// queued for this instant.
    pub fn immediately(&mut self, f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) -> TimerId {
        self.at(self.now, f)
    }

    /// Allocation-free scheduling for the hot paths: a plain `fn`
    /// pointer and one argument word stored inline in the event arena.
    pub fn at_call(&mut self, at: SimTime, f: EventCall<W>, arg: u64) -> TimerId {
        self.insert(at, Payload::Call(f, arg))
    }

    /// Cancel a pending event. Returns `true` if the event was live and
    /// is now dead; a stale handle (fired, cancelled, recycled) returns
    /// `false` and touches nothing.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else { return false };
        if slot.gen != id.gen || matches!(slot.payload, Payload::Vacant) {
            return false;
        }
        slot.payload = Payload::Vacant;
        slot.gen = slot.gen.wrapping_add(1);
        self.live -= 1;
        self.cancelled += 1;
        // The key stays in the wheel; the slot returns to the free list
        // when the key surfaces.
        true
    }

    fn insert(&mut self, at: SimTime, payload: Payload<W>) -> TimerId {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        if at < self.now {
            let c = &self.stats.inner.clamped_past;
            c.set(c.get() + 1);
        }
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { gen: 0, payload: Payload::Vacant });
                (self.slots.len() - 1) as u32
            }
        };
        let entry = &mut self.slots[slot as usize];
        let gen = entry.gen;
        entry.payload = payload;
        self.live += 1;
        let key = Key { at, seq, slot };
        let tick = at.as_nanos() >> TICK_SHIFT;
        if tick <= self.base_tick {
            self.cur.push(Reverse(key));
        } else if tick < self.base_tick + BUCKETS {
            let b = (tick % BUCKETS) as usize;
            self.buckets[b].push(key);
            self.occ[b / 64] |= 1 << (b % 64);
            self.near += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
        TimerId { slot, gen }
    }

    /// Move the wheel cursor forward until `cur` holds the next pending
    /// keys. Returns `false` when nothing is pending anywhere. Does not
    /// advance `now` — only event execution does that.
    fn refill(&mut self) -> bool {
        if !self.cur.is_empty() {
            return true;
        }
        if self.near == 0 && self.overflow.is_empty() {
            return false;
        }
        // Each nonempty bucket holds exactly one tick in (base_tick,
        // base_tick + BUCKETS), so the first occupied bucket after the
        // cursor (in circular order) is the earliest near tick.
        let next_near = if self.near > 0 {
            let t = self.next_bucket_tick();
            debug_assert!(t.is_some(), "near count out of sync with buckets");
            t
        } else {
            None
        };
        let next_over = self.overflow.peek().map(|Reverse(k)| k.at.as_nanos() >> TICK_SHIFT);
        let target = match (next_near, next_over) {
            (Some(n), Some(o)) => n.min(o),
            (Some(n), None) => n,
            (None, Some(o)) => o,
            (None, None) => unreachable!(),
        };
        self.base_tick = target;
        if next_near == Some(target) {
            let b = (target % BUCKETS) as usize;
            let mut drained = std::mem::take(&mut self.buckets[b]);
            self.occ[b / 64] &= !(1 << (b % 64));
            self.near -= drained.len();
            for key in drained.drain(..) {
                self.cur.push(Reverse(key));
            }
            // hand the allocation back so steady state never reallocates
            self.buckets[b] = drained;
        }
        // Migrate every overflow key now inside the horizon; keys on the
        // target tick go straight to `cur`.
        while let Some(Reverse(k)) = self.overflow.peek() {
            let tick = k.at.as_nanos() >> TICK_SHIFT;
            if tick >= target + BUCKETS {
                break;
            }
            let Some(Reverse(key)) = self.overflow.pop() else { unreachable!() };
            if tick <= target {
                self.cur.push(Reverse(key));
            } else {
                let b = (tick % BUCKETS) as usize;
                self.buckets[b].push(key);
                self.occ[b / 64] |= 1 << (b % 64);
                self.near += 1;
            }
        }
        debug_assert!(!self.cur.is_empty());
        true
    }

    /// The tick of the first occupied wheel bucket strictly after
    /// `base_tick`, scanning the occupancy bitmap in circular order.
    fn next_bucket_tick(&self) -> Option<u64> {
        const WORDS: usize = (BUCKETS / 64) as usize;
        let start = ((self.base_tick + 1) % BUCKETS) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let mut found = None;
        let head = self.occ[sw] & (!0u64 << sb);
        if head != 0 {
            found = Some(sw * 64 + head.trailing_zeros() as usize);
        } else {
            for k in 1..WORDS {
                let w = (sw + k) % WORDS;
                if self.occ[w] != 0 {
                    found = Some(w * 64 + self.occ[w].trailing_zeros() as usize);
                    break;
                }
            }
            if found.is_none() {
                let tail = self.occ[sw] & !(!0u64 << sb);
                if tail != 0 {
                    found = Some(sw * 64 + tail.trailing_zeros() as usize);
                }
            }
        }
        let b = found? as u64;
        // the unique tick in (base_tick, base_tick + BUCKETS) congruent
        // to the bucket index
        let j = (b + BUCKETS - start as u64) % BUCKETS;
        Some(self.base_tick + 1 + j)
    }

    /// The timestamp of the next live event, discarding any cancelled
    /// keys that surface on the way.
    fn next_event_time(&mut self) -> Option<SimTime> {
        loop {
            if !self.refill() {
                return None;
            }
            let Some(Reverse(key)) = self.cur.peek() else { unreachable!() };
            if matches!(self.slots[key.slot as usize].payload, Payload::Vacant) {
                let slot = key.slot;
                self.cur.pop();
                self.free.push(slot);
                continue;
            }
            return Some(key.at);
        }
    }

    /// Execute the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        loop {
            if !self.refill() {
                return false;
            }
            let Some(Reverse(key)) = self.cur.pop() else { unreachable!() };
            let slot = &mut self.slots[key.slot as usize];
            let payload = std::mem::replace(&mut slot.payload, Payload::Vacant);
            if let Payload::Vacant = payload {
                // cancelled in flight: reclaim and keep looking
                self.free.push(key.slot);
                continue;
            }
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(key.slot);
            self.live -= 1;
            debug_assert!(key.at >= self.now);
            self.now = key.at;
            self.executed += 1;
            self.digest =
                (self.digest.rotate_left(5) ^ key.at.as_nanos() ^ key.seq.rotate_left(32))
                    .wrapping_mul(DIGEST_MUL);
            match payload {
                Payload::Boxed(f) => f(world, self),
                Payload::Call(f, arg) => f(world, self, arg),
                Payload::Vacant => unreachable!(),
            }
            return true;
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the event queue drains or the clock passes `deadline`,
    /// whichever comes first. Events scheduled exactly at `deadline` run.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        self.run_until_or(world, deadline, |_| false);
    }

    /// [`run_until`](Self::run_until) that also ends as soon as
    /// `stop(world)` holds, and says whether it did. The predicate is
    /// checked on entry (nothing runs if it already holds) and after
    /// every executed event; on a stop the clock stays at the event that
    /// made it true — it is not advanced to `deadline` — and later events
    /// stay queued. If `stop` never holds this is exactly `run_until`.
    pub fn run_until_or(
        &mut self,
        world: &mut W,
        deadline: SimTime,
        mut stop: impl FnMut(&W) -> bool,
    ) -> bool {
        if stop(world) {
            return true;
        }
        while let Some(at) = self.next_event_time() {
            if at > deadline {
                break;
            }
            self.step(world);
            if stop(world) {
                return true;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<(u64, u32)>);

    #[test]
    fn events_fire_in_time_order() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.after(SimDuration::from_micros(30), |w, s| w.0.push((s.now().as_micros(), 3)));
        s.after(SimDuration::from_micros(10), |w, s| w.0.push((s.now().as_micros(), 1)));
        s.after(SimDuration::from_micros(20), |w, s| w.0.push((s.now().as_micros(), 2)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        for i in 0..100u32 {
            s.at(SimTime::from_nanos(500), move |w, _| w.0.push((0, i)));
        }
        s.run(&mut w);
        let order: Vec<u32> = w.0.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.after(SimDuration::from_micros(1), |w, s| {
            w.0.push((s.now().as_micros(), 1));
            s.after(SimDuration::from_micros(5), |w, s| {
                w.0.push((s.now().as_micros(), 2));
            });
        });
        s.run(&mut w);
        assert_eq!(w.0, vec![(1, 1), (6, 2)]);
    }

    #[test]
    fn event_digest_follows_the_executed_schedule() {
        let digest = |times: &[u64], cancel_first: bool| {
            let mut s: Scheduler<Log> = Scheduler::new();
            let ids: Vec<TimerId> = times
                .iter()
                .map(|&t| s.at(SimTime::from_nanos(t), |w, s| w.0.push((s.now().as_micros(), 0))))
                .collect();
            if cancel_first {
                s.cancel(ids[0]);
            }
            s.run(&mut Log::default());
            s.event_digest()
        };
        let base = digest(&[1_000, 2_000, 3_000], false);
        assert_eq!(base, digest(&[1_000, 2_000, 3_000], false), "same schedule, same digest");
        assert_ne!(base, digest(&[1_000, 2_000, 3_001], false), "a moved instant shows");
        assert_ne!(base, digest(&[2_000, 1_000, 3_000], false), "a reordered seq shows");
        assert_ne!(base, digest(&[1_000, 2_000, 3_000], true), "a cancelled event shows");
        assert_ne!(base, Scheduler::<Log>::new().event_digest(), "an executed event shows");
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.after(SimDuration::from_micros(10), |w, _| w.0.push((10, 0)));
        s.after(SimDuration::from_micros(50), |w, _| w.0.push((50, 0)));
        s.run_until(&mut w, SimTime::from_nanos(20_000));
        assert_eq!(w.0, vec![(10, 0)]);
        assert_eq!(s.now(), SimTime::from_nanos(20_000));
        assert_eq!(s.pending(), 1);
        // the rest still runs afterwards
        s.run(&mut w);
        assert_eq!(w.0.len(), 2);
    }

    #[test]
    fn run_until_includes_deadline_events() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.at(SimTime::from_nanos(20_000), |w, _| w.0.push((20, 0)));
        s.run_until(&mut w, SimTime::from_nanos(20_000));
        assert_eq!(w.0, vec![(20, 0)]);
    }

    /// Three events at 10, 20 and 30 µs, each logging its time.
    fn three_events() -> Scheduler<Log> {
        let mut s: Scheduler<Log> = Scheduler::new();
        for us in [10, 20, 30] {
            s.after(SimDuration::from_micros(us), move |w, _| w.0.push((us, 0)));
        }
        s
    }

    #[test]
    fn run_until_or_stops_at_the_event_that_flips_the_predicate() {
        let mut s = three_events();
        let mut w = Log::default();
        let stopped = s.run_until_or(&mut w, SimTime::from_nanos(1_000_000), |w| w.0.len() == 2);
        assert!(stopped);
        assert_eq!(w.0, vec![(10, 0), (20, 0)]);
        // the clock is the flipping event's time, not the deadline
        assert_eq!(s.now(), SimTime::from_nanos(20_000));
        assert_eq!(s.executed(), 2);
        assert_eq!(s.pending(), 1);
        // the rest still runs afterwards
        s.run(&mut w);
        assert_eq!(w.0.len(), 3);
    }

    #[test]
    fn run_until_or_runs_nothing_when_already_done() {
        let mut s = three_events();
        let mut w = Log::default();
        assert!(s.run_until_or(&mut w, SimTime::from_nanos(1_000_000), |_| true));
        assert_eq!(s.executed(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn run_until_or_never_true_is_run_until() {
        let deadline = SimTime::from_nanos(25_000);
        let mut plain = three_events();
        let mut w_plain = Log::default();
        plain.run_until(&mut w_plain, deadline);

        let mut s = three_events();
        let mut w = Log::default();
        assert!(!s.run_until_or(&mut w, deadline, |_| false));
        assert_eq!(s.now(), deadline);
        assert_eq!(s.executed(), plain.executed());
        assert_eq!(s.pending(), plain.pending());
        assert_eq!(w.0, w_plain.0);
    }

    #[test]
    fn run_until_or_includes_deadline_events() {
        let mut s = three_events();
        let mut w = Log::default();
        // the predicate flips on the event that sits exactly on the deadline
        assert!(s.run_until_or(&mut w, SimTime::from_nanos(30_000), |w| w.0.len() == 3));
        assert_eq!(s.now(), SimTime::from_nanos(30_000));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn immediately_runs_after_already_queued_same_instant_events() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.at(SimTime::ZERO, |w, s| {
            w.0.push((0, 1));
            s.immediately(|w, _| w.0.push((0, 3)));
        });
        s.at(SimTime::ZERO, |w, _| w.0.push((0, 2)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn wheel_and_overflow_interleave_in_time_order() {
        // events straddling the horizon, plus ties on both sides
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let far = HORIZON * 3 + 17; // deep in overflow
        let near = TICK * 3 + 5;
        s.at(SimTime::from_nanos(far), |w, _| w.0.push((2, 0)));
        s.at(SimTime::from_nanos(near), |w, _| w.0.push((0, 0)));
        s.at(SimTime::from_nanos(far), |w, _| w.0.push((2, 1)));
        s.at(SimTime::from_nanos(HORIZON + 1), |w, _| w.0.push((1, 0)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(0, 0), (1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn same_tick_different_nanos_fire_in_time_order() {
        // two events in one wheel bucket but at different nanoseconds,
        // scheduled in reverse time order
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let base = TICK * 7;
        s.at(SimTime::from_nanos(base + 9), |w, _| w.0.push((9, 0)));
        s.at(SimTime::from_nanos(base + 2), |w, _| w.0.push((2, 0)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(2, 0), (9, 0)]);
    }

    #[test]
    fn cancel_before_fire_suppresses_event() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let id = s.after(SimDuration::from_micros(10), |w, _| w.0.push((10, 0)));
        s.after(SimDuration::from_micros(20), |w, _| w.0.push((20, 0)));
        assert_eq!(s.pending(), 2);
        assert!(s.cancel(id));
        assert_eq!(s.pending(), 1);
        assert_eq!(s.cancelled(), 1);
        s.run(&mut w);
        assert_eq!(w.0, vec![(20, 0)]);
        assert_eq!(s.executed(), 1);
        // cancelling twice is a no-op
        assert!(!s.cancel(id));
        assert_eq!(s.cancelled(), 1);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let id = s.after(SimDuration::from_micros(1), |w, _| w.0.push((1, 0)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(1, 0)]);
        assert!(!s.cancel(id), "a fired timer must not be cancellable");
        assert_eq!(s.cancelled(), 0);
    }

    #[test]
    fn stale_id_never_kills_a_recycled_slot() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let id = s.after(SimDuration::from_micros(1), |w, _| w.0.push((1, 0)));
        s.run(&mut w);
        // The slot is free now; the next event reuses it with a bumped
        // generation. The stale handle must not cancel the new event.
        let id2 = s.after(SimDuration::from_micros(5), |w, _| w.0.push((5, 0)));
        assert_eq!(
            format!("{id:?}").split("gen").next(),
            format!("{id2:?}").split("gen").next(),
            "test setup: slot should be recycled"
        );
        assert!(!s.cancel(id));
        s.run(&mut w);
        assert_eq!(w.0, vec![(1, 0), (5, 0)]);
    }

    #[test]
    fn reschedule_reuses_cancelled_slot_after_key_drains() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let id = s.after(SimDuration::from_micros(1), |w, _| w.0.push((1, 0)));
        assert!(s.cancel(id));
        // run past the dead key so the slot returns to the free list
        s.after(SimDuration::from_micros(2), |w, _| w.0.push((2, 0)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(2, 0)]);
        // a new event goes into a recycled slot and fires normally
        s.after(SimDuration::from_micros(1), |w, _| w.0.push((3, 0)));
        s.run(&mut w);
        assert_eq!(w.0, vec![(2, 0), (3, 0)]);
    }

    #[test]
    fn cancelled_tail_drains_queue_cleanly() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let ids: Vec<TimerId> = (0..10)
            .map(|i| s.after(SimDuration::from_micros(i + 1), |_, _| panic!("cancelled event ran")))
            .collect();
        for id in ids {
            assert!(s.cancel(id));
        }
        assert_eq!(s.pending(), 0);
        s.run(&mut w);
        assert_eq!(s.executed(), 0);
    }

    #[test]
    fn at_call_fires_like_a_closure() {
        fn ev(w: &mut Log, s: &mut Scheduler<Log>, arg: u64) {
            w.0.push((s.now().as_micros(), arg as u32));
        }
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        s.at_call(SimTime::from_nanos(2_000), ev, 7);
        let id = s.at_call(SimTime::from_nanos(1_000), ev, 3);
        assert!(s.cancel(id));
        s.run(&mut w);
        assert_eq!(w.0, vec![(2, 7)]);
    }

    #[test]
    fn clamped_past_is_counted() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let stats = s.stats();
        s.at(SimTime::from_nanos(5_000), |_, s| {
            // inside an event at t=5us, ask for t=1us: clamps to now
            s.at(SimTime::from_nanos(1_000), |w, s| {
                w.0.push((s.now().as_nanos(), 0));
            });
        });
        assert_eq!(stats.clamped_past(), 0);
        // debug builds assert on past scheduling; the clamp counter is
        // release-build behaviour
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run(&mut w)));
            assert!(r.is_err());
        } else {
            s.run(&mut w);
            assert_eq!(stats.clamped_past(), 1);
            assert_eq!(w.0, vec![(5_000, 0)]);
        }
    }

    #[test]
    fn run_until_ignores_cancelled_head() {
        let mut s: Scheduler<Log> = Scheduler::new();
        let mut w = Log::default();
        let id = s.after(SimDuration::from_micros(5), |w, _| w.0.push((5, 0)));
        s.after(SimDuration::from_micros(30), |w, _| w.0.push((30, 0)));
        assert!(s.cancel(id));
        // deadline between the cancelled head and the live tail: nothing
        // runs, the clock still advances to the deadline
        s.run_until(&mut w, SimTime::from_nanos(10_000));
        assert!(w.0.is_empty());
        assert_eq!(s.now(), SimTime::from_nanos(10_000));
        s.run(&mut w);
        assert_eq!(w.0, vec![(30, 0)]);
    }
}
