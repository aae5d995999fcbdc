//! One serial CPU: the burst accountant shared by the CAB and the host.
//!
//! Both processors in the paper run one thing at a time (§3.1, §3.2):
//! an interrupt handler, an upcall, a C Thread step or a host process
//! step. The simulator runs each such burst atomically. A burst starts
//! when the CPU is free and the work is due, charges simulated time for
//! what it does, and the CPU is busy until the burst's end.
//!
//! [`Cpu`] keeps the busy-until cursor and the busy-time meter, and
//! [`Cpu::finish`] is the only place either advances. [`Burst`] is the
//! clock one burst reads and charges. [`StepStatus`] is what one step of
//! a node reports, and [`StepStatus::wake`] turns it into the instant
//! the node is stepped next.
//!
//! Everything on the per-burst path is `#[inline]`: it is called from
//! the CAB, host and core crates, once or more per charge.

use crate::{SimDuration, SimTime};

/// The least a burst that stays runnable can cost. A zero-cost burst
/// that yields would otherwise be stepped again at the same instant,
/// forever.
const MIN_QUANTUM: SimDuration = SimDuration::from_micros(1);

/// A serial CPU's busy-until cursor and busy-time meter.
#[derive(Debug, Default)]
pub struct Cpu {
    cursor: SimTime,
    busy: SimDuration,
}

impl Cpu {
    /// The instant the CPU is next free.
    #[inline]
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Total time charged across every finished burst: the
    /// `node/<id>/{cab,host}/cpu_busy_ns` meter.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Begin a burst for work due at `now`. It starts once the CPU is
    /// free, never before the previous burst's end.
    #[inline]
    pub fn burst(&self, now: SimTime) -> Burst {
        Burst { start: self.cursor.max(now), charged: SimDuration::ZERO }
    }

    /// End a burst and return the instant the CPU is free again. A burst
    /// that charged nothing and `yielded` (stays runnable) costs the
    /// 1 µs minimum quantum, which counts as busy time like any charge.
    #[inline]
    pub fn finish(&mut self, burst: Burst, yielded: bool) -> SimTime {
        let charged =
            if yielded && burst.charged == SimDuration::ZERO { MIN_QUANTUM } else { burst.charged };
        self.busy += charged;
        self.cursor = burst.start + charged;
        self.cursor
    }
}

/// The clock of one burst: where it started and what it has charged.
#[derive(Clone, Copy, Debug)]
pub struct Burst {
    start: SimTime,
    charged: SimDuration,
}

impl Burst {
    /// The current instant within the burst.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.start + self.charged
    }

    /// Account simulated CPU time.
    #[inline]
    pub fn charge(&mut self, d: SimDuration) {
        self.charged += d;
    }

    /// Total time charged so far.
    #[inline]
    pub fn charged(&self) -> SimDuration {
        self.charged
    }
}

/// Result of one step of a CAB or a host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// A burst ran; the CPU is busy until `next` (step again then).
    Ran { next: SimTime },
    /// Nothing to do; the next internally scheduled work (a timer or a
    /// future interrupt) is at `next`, if any.
    Idle { next: Option<SimTime> },
}

impl StepStatus {
    /// When the effects of a step taken at `now` become visible: at the
    /// end of the burst that ran, or at `now` for an idle step.
    #[inline]
    pub fn burst_end(self, now: SimTime) -> SimTime {
        match self {
            StepStatus::Ran { next } => next,
            StepStatus::Idle { .. } => now,
        }
    }

    /// When to step the node next after a step taken at `now`, if ever.
    /// An idle step that reports work at or before `now` is stepped
    /// again 1 ns later, so the event loop always advances.
    #[inline]
    pub fn wake(self, now: SimTime) -> Option<SimTime> {
        match self {
            StepStatus::Ran { next } => Some(next),
            StepStatus::Idle { next } => next.map(|t| t.max(now + SimDuration::from_nanos(1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn at_us(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    #[test]
    fn zero_cost_yield_costs_one_quantum_of_busy_time() {
        let mut cpu = Cpu::default();
        let end = cpu.finish(cpu.burst(at_us(3)), true);
        assert_eq!(end, at_us(4));
        assert_eq!(cpu.busy(), MIN_QUANTUM);
        assert_eq!(MIN_QUANTUM, us(1));
    }

    #[test]
    fn zero_cost_block_costs_nothing() {
        let mut cpu = Cpu::default();
        let end = cpu.finish(cpu.burst(at_us(3)), false);
        assert_eq!(end, at_us(3));
        assert_eq!(cpu.busy(), SimDuration::ZERO);
    }

    #[test]
    fn busy_is_the_sum_of_the_charges() {
        let mut cpu = Cpu::default();
        let mut total = SimDuration::ZERO;
        for (i, costs) in [[5, 7], [0, 11], [2, 0]].iter().enumerate() {
            let mut b = cpu.burst(at_us(100 * i as u64));
            for &c in costs {
                b.charge(us(c));
                total += us(c);
            }
            assert_eq!(b.charged(), us(costs[0] + costs[1]));
            cpu.finish(b, true);
        }
        assert_eq!(cpu.busy(), total);
    }

    #[test]
    fn a_burst_never_starts_before_the_cursor() {
        let mut cpu = Cpu::default();
        let mut b = cpu.burst(at_us(10));
        b.charge(us(5));
        assert_eq!(b.now(), at_us(15));
        assert_eq!(cpu.finish(b, false), at_us(15));
        assert_eq!(cpu.cursor(), at_us(15));
        // work due while the CPU was busy waits for it
        assert_eq!(cpu.burst(at_us(12)).now(), at_us(15));
        // work due after it is free starts when due
        assert_eq!(cpu.burst(at_us(20)).now(), at_us(20));
    }

    #[test]
    fn wake_rule_floors_an_idle_step_at_now_plus_one_ns() {
        let now = at_us(50);
        let ns = SimDuration::from_nanos(1);
        assert_eq!(StepStatus::Ran { next: at_us(60) }.wake(now), Some(at_us(60)));
        assert_eq!(StepStatus::Idle { next: None }.wake(now), None);
        assert_eq!(StepStatus::Idle { next: Some(at_us(40)) }.wake(now), Some(now + ns));
        assert_eq!(StepStatus::Idle { next: Some(now) }.wake(now), Some(now + ns));
        assert_eq!(StepStatus::Idle { next: Some(at_us(70)) }.wake(now), Some(at_us(70)));
        assert_eq!(StepStatus::Ran { next: at_us(60) }.burst_end(now), at_us(60));
        assert_eq!(StepStatus::Idle { next: Some(at_us(70)) }.burst_end(now), now);
    }
}
