//! Differential property test: the production timer-wheel scheduler
//! against a straightforward `BinaryHeap` reference implementation.
//!
//! Both schedulers execute the same randomized workload — a DAG of
//! events where firing an event schedules children at random offsets
//! (same-tick, in-wheel, and past-horizon deltas) and cancels earlier
//! timers (live, already-fired, or never-scheduled handles). The
//! execution log (event id, firing time) and final clocks must match
//! exactly; any divergence in `(time, seq)` ordering, cancellation
//! semantics, or clock advancement fails the test. Failures replay via
//! `NECTAR_CHECK_SEED` (see `nectar_sim::check`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nectar_sim::check::{cases, Gen, DEFAULT_CASES};
use nectar_sim::{Scheduler, SimDuration, SimTime, TimerId};

/// What one event does when it fires.
#[derive(Clone)]
struct Plan {
    /// `(delta_ns, child)` — schedule plan `child` this far in the future.
    spawn: Vec<(u64, usize)>,
    /// Handle slots to cancel (may be live, fired, or never scheduled).
    cancel: Vec<usize>,
}

/// Randomly build a forward-edged DAG of event plans. Each non-root
/// plan is spawned by exactly one earlier plan, so every plan is
/// scheduled at most once and the workload always terminates.
fn gen_workload(g: &mut Gen) -> (Vec<Plan>, Vec<(u64, usize)>) {
    let n = g.usize_in(4, 48);
    let mut plans: Vec<Plan> =
        (0..n).map(|_| Plan { spawn: Vec::new(), cancel: Vec::new() }).collect();
    let roots = g.usize_in(1, 4);
    let mut root_sched = Vec::new();
    for i in 0..roots {
        root_sched.push((delta(g), i));
    }
    for child in roots..n {
        let parent = g.usize_in(0, child);
        let d = delta(g);
        plans[parent].spawn.push((d, child));
    }
    for plan in plans.iter_mut() {
        let cancels = g.usize_in(0, 3);
        for _ in 0..cancels {
            plan.cancel.push(g.usize_in(0, n));
        }
    }
    (plans, root_sched)
}

/// Offsets chosen to hit every scheduler region: the current-tick heap
/// (sub-tick), the wheel buckets (sub-horizon), and the overflow heap
/// (multi-millisecond). Zero exercises same-time FIFO ordering.
fn delta(g: &mut Gen) -> u64 {
    match g.usize_in(0, 5) {
        0 => 0,
        1 => g.usize_in(1, 4_096) as u64,
        2 => g.usize_in(4_096, 1 << 20) as u64,
        3 => g.usize_in(1 << 20, 4 << 20) as u64,
        _ => g.usize_in(1, 100_000) as u64,
    }
}

// ---------------------------------------------------------------- real

struct RealWorld {
    plans: Vec<Plan>,
    handles: Vec<Option<TimerId>>,
    log: Vec<(usize, u64)>,
}

fn fire_real(w: &mut RealWorld, s: &mut Scheduler<RealWorld>, arg: u64) {
    let idx = arg as usize;
    w.log.push((idx, s.now().as_nanos()));
    let plan = w.plans[idx].clone();
    for (d, child) in plan.spawn {
        let id = s.at_call(s.now() + SimDuration::from_nanos(d), fire_real, child as u64);
        w.handles[child] = Some(id);
    }
    for slot in plan.cancel {
        if let Some(id) = w.handles[slot].take() {
            s.cancel(id);
        }
    }
}

fn run_real(plans: &[Plan], roots: &[(u64, usize)]) -> (Vec<(usize, u64)>, u64, u64) {
    let n = plans.len();
    let mut w = RealWorld { plans: plans.to_vec(), handles: vec![None; n], log: Vec::new() };
    let mut s = Scheduler::new();
    for &(d, idx) in roots {
        let id = s.at_call(SimTime::from_nanos(d), fire_real, idx as u64);
        w.handles[idx] = Some(id);
    }
    s.run(&mut w);
    (w.log, s.now().as_nanos(), s.executed())
}

// ----------------------------------------------------------- reference

/// The obvious scheduler: a min-heap of `(time, seq)` keys with lazy
/// cancellation via an alive-bitmap, mirroring the kernel the timer
/// wheel replaced.
struct RefSched {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// seq -> scheduled plan index; removal = cancellation.
    alive: Vec<Option<usize>>,
    now: u64,
    executed: u64,
}

impl RefSched {
    fn schedule(&mut self, at: u64, idx: usize) -> u64 {
        let seq = self.alive.len() as u64;
        self.alive.push(Some(idx));
        self.heap.push(Reverse((at.max(self.now), seq)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.alive[seq as usize] = None;
    }
}

fn run_ref(plans: &[Plan], roots: &[(u64, usize)]) -> (Vec<(usize, u64)>, u64, u64) {
    let n = plans.len();
    let mut s = RefSched { heap: BinaryHeap::new(), alive: Vec::new(), now: 0, executed: 0 };
    let mut handles: Vec<Option<u64>> = vec![None; n];
    let mut log = Vec::new();
    for &(d, idx) in roots {
        let seq = s.schedule(d, idx);
        handles[idx] = Some(seq);
    }
    while let Some(Reverse((t, seq))) = s.heap.pop() {
        let Some(idx) = s.alive[seq as usize].take() else { continue };
        s.now = t;
        s.executed += 1;
        log.push((idx, t));
        let plan = &plans[idx];
        for &(d, child) in &plan.spawn {
            let cseq = s.schedule(t + d, child);
            handles[child] = Some(cseq);
        }
        for &slot in &plan.cancel {
            if let Some(cseq) = handles[slot].take() {
                s.cancel(cseq);
            }
        }
    }
    (log, s.now, s.executed)
}

// ---------------------------------------------------------------- test

#[test]
fn wheel_matches_reference_scheduler() {
    cases(DEFAULT_CASES, |g| {
        let (plans, roots) = gen_workload(g);
        let (log_real, now_real, exec_real) = run_real(&plans, &roots);
        let (log_ref, now_ref, exec_ref) = run_ref(&plans, &roots);
        assert_eq!(log_real, log_ref, "execution order diverged");
        assert_eq!(now_real, now_ref, "final clocks diverged");
        assert_eq!(exec_real, exec_ref, "executed counts diverged");
    });
}
