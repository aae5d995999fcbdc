//! The host machine: process scheduler and CAB device driver.
//!
//! The host mirrors the CAB's burst-atomic execution: one
//! [`Host::step`] call runs one burst — the driver's interrupt service
//! routine or one process burst — against the mmap'ed CAB memory, and
//! reports when it next has work. The core crate interleaves host and
//! CAB bursts on the global event queue.

use nectar_cab::shared::{CabShared, HostCondId};
use nectar_sim::{Cpu, SimTime, StepStatus, Trace};

use crate::costs::HostCostModel;
use crate::process::{HostCx, HostEffect, HostProcess, HostStep, ProcId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Blocked(HostCondId),
    Sleeping(SimTime),
    Done,
}

struct ProcSlot {
    body: Option<Box<dyn HostProcess>>,
    state: ProcState,
}

/// Host counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    pub proc_switches: u64,
    pub cab_interrupts: u64,
    pub vme_words: u64,
}

/// One host workstation attached to a CAB over VME.
pub struct Host {
    pub id: u16,
    /// The CAB this host's memory mapping points at.
    pub cab_id: u16,
    pub costs: HostCostModel,
    procs: Vec<ProcSlot>,
    last_proc: Option<ProcId>,
    rr_next: usize,
    /// The host's one CPU: busy-until cursor and busy-time meter
    /// (interrupt service and process bursts alike).
    pub cpu: Cpu,
    pending_intr: Vec<SimTime>,
    pub stats: HostStats,
}

impl Host {
    pub fn new(id: u16, cab_id: u16, costs: HostCostModel) -> Host {
        Host {
            id,
            cab_id,
            costs,
            procs: Vec::new(),
            last_proc: None,
            rr_next: 0,
            cpu: Cpu::default(),
            pending_intr: Vec::new(),
            stats: HostStats::default(),
        }
    }

    /// Start a process.
    pub fn spawn(&mut self, p: Box<dyn HostProcess>) -> ProcId {
        self.procs.push(ProcSlot { body: Some(p), state: ProcState::Runnable });
        (self.procs.len() - 1) as ProcId
    }

    pub fn is_done(&self, p: ProcId) -> bool {
        self.procs[p as usize].state == ProcState::Done
    }

    /// The CAB raised the VME interrupt towards this host.
    pub fn cab_interrupt(&mut self, now: SimTime) {
        self.pending_intr.push(now);
    }

    /// Earliest instant this host has work, absent new input.
    pub fn next_work(&self, after: SimTime) -> Option<SimTime> {
        let after = after.max(self.cpu.cursor());
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                None => t,
                Some(n) => n.min(t),
            });
        };
        for &t in &self.pending_intr {
            consider(t.max(after));
        }
        for p in &self.procs {
            match p.state {
                ProcState::Runnable => consider(after),
                ProcState::Sleeping(d) => consider(d.max(after)),
                _ => {}
            }
        }
        next
    }

    /// Execute one burst at (or after) `now` against the mapped CAB
    /// memory.
    pub fn step(
        &mut self,
        now: SimTime,
        shared: &mut CabShared,
        trace: &mut Trace,
    ) -> (Vec<HostEffect>, StepStatus) {
        let burst = self.cpu.burst(now);
        let t = burst.now();
        // wake sleepers
        for p in &mut self.procs {
            if let ProcState::Sleeping(d) = p.state {
                if d <= t {
                    p.state = ProcState::Runnable;
                }
            }
        }
        let mut fx = Vec::new();
        let mut cx = HostCx {
            host_id: self.id,
            cab_id: self.cab_id,
            burst,
            costs: &self.costs,
            shared,
            fx: &mut fx,
            trace,
            vme_words: 0,
            doorbell: false,
        };

        let yielded = if let Some(idx) = self.pending_intr.iter().position(|&at| at <= t) {
            // 1. driver interrupt service: drain the host signal queue
            self.pending_intr.remove(idx);
            self.stats.cab_interrupts += 1;
            let depth = cx.shared.host_sigq.len() as u64;
            if depth > cx.shared.host_sigq_high {
                cx.shared.host_sigq_high = depth;
            }
            cx.charge(cx.costs.interrupt_service);
            while let Some(hc) = cx.shared.host_sigq.pop_front() {
                cx.vme(2);
                for p in &mut self.procs {
                    if p.state == ProcState::Blocked(hc) {
                        p.state = ProcState::Runnable;
                    }
                }
            }
            false
        } else if let Some(pid) = (0..self.procs.len())
            .map(|off| (self.rr_next + off) % self.procs.len())
            .find(|&pid| self.procs[pid].state == ProcState::Runnable)
        {
            // 2. processes (round robin; single CPU)
            self.rr_next = (pid + 1) % self.procs.len();
            if self.last_proc != Some(pid as ProcId) {
                cx.charge(cx.costs.proc_switch);
                self.stats.proc_switches += 1;
            }
            let mut body = self.procs[pid].body.take().expect("process in flight");
            let step = body.run(&mut cx);
            self.procs[pid].body = Some(body);
            self.procs[pid].state = match step {
                HostStep::Yield => ProcState::Runnable,
                HostStep::Block(hc) => ProcState::Blocked(hc),
                HostStep::Sleep(d) => ProcState::Sleeping(d),
                HostStep::Done => ProcState::Done,
            };
            self.last_proc = Some(pid as ProcId);
            if cx.doorbell {
                cx.fx.push(HostEffect::InterruptCab);
            }
            step == HostStep::Yield
        } else {
            // 3. idle
            return (fx, StepStatus::Idle { next: self.next_work(t) });
        };
        self.stats.vme_words += cx.vme_words;
        let next = self.cpu.finish(cx.burst, yielded);
        (fx, StepStatus::Ran { next })
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host").field("id", &self.id).field("stats", &self.stats).finish()
    }
}
