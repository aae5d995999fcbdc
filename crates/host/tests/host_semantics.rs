//! Host-side semantics: process scheduling, the device-driver blocking
//! path, and VME cost accounting.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nectar_cab::shared::{CabShared, SigEntry};
use nectar_cab::HostOpMode;
use nectar_host::{Host, HostCostModel, HostCx, HostProcess, HostStep};
use nectar_sim::{SimDuration, SimTime, Trace};

fn run_to_idle(h: &mut Host, shared: &mut CabShared, start: SimTime) -> SimTime {
    let mut trace = Trace::new();
    let mut now = start;
    for _ in 0..100_000 {
        let (_, status) = h.step(now, shared, &mut trace);
        match status.wake(now) {
            Some(at) => now = at,
            None => return now,
        }
    }
    panic!("host never idle");
}

type Log = Rc<RefCell<Vec<&'static str>>>;

struct Chatty {
    tag: &'static str,
    bursts: u32,
    log: Log,
}

impl HostProcess for Chatty {
    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        cx.charge(SimDuration::from_micros(10));
        self.log.borrow_mut().push(self.tag);
        self.bursts -= 1;
        if self.bursts == 0 {
            HostStep::Done
        } else {
            HostStep::Yield
        }
    }
}

#[test]
fn processes_round_robin_and_pay_context_switches() {
    let mut h = Host::new(0, 0, HostCostModel::default());
    let mut shared = CabShared::new();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    h.spawn(Box::new(Chatty { tag: "a", bursts: 2, log: log.clone() }));
    h.spawn(Box::new(Chatty { tag: "b", bursts: 2, log: log.clone() }));
    run_to_idle(&mut h, &mut shared, SimTime::ZERO);
    assert_eq!(log.borrow().clone(), vec!["a", "b", "a", "b"]);
    // 4 bursts, each by a different proc than the last: 4 switches
    assert_eq!(h.stats.proc_switches, 4);
}

#[test]
fn blocking_wait_is_woken_by_cab_interrupt() {
    struct Waiter {
        hc: u16,
        registered: bool,
        woke: Rc<Cell<bool>>,
        seen: u32,
    }
    impl HostProcess for Waiter {
        fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
            if !self.registered {
                self.registered = true;
                self.seen = cx.driver_register(self.hc);
                return HostStep::Block(self.hc);
            }
            let v = cx.poll_cond(self.hc);
            assert!(v != self.seen, "woken without a signal");
            self.woke.set(true);
            HostStep::Done
        }
    }
    let mut h = Host::new(0, 0, HostCostModel::default());
    let mut shared = CabShared::new();
    let hc = shared.create_host_cond();
    let woke = Rc::new(Cell::new(false));
    h.spawn(Box::new(Waiter { hc, registered: false, woke: woke.clone(), seen: 0 }));
    let t = run_to_idle(&mut h, &mut shared, SimTime::ZERO);
    assert!(!woke.get(), "must be blocked, not spinning");

    // the CAB signals the condition: poll value bumps, the host signal
    // queue gets an entry (waiter registered), and the VME interrupt
    // fires
    shared.signal_host_cond(hc);
    assert!(shared.notices.take().interrupt_host);
    h.cab_interrupt(t + SimDuration::from_micros(1));
    run_to_idle(&mut h, &mut shared, t + SimDuration::from_micros(1));
    assert!(woke.get());
    assert_eq!(h.stats.cab_interrupts, 1);
}

#[test]
fn vme_word_accounting() {
    struct Putter {
        mbox: u16,
    }
    impl HostProcess for Putter {
        fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
            // 64-byte message: 16 data words + op bookkeeping words
            let _ = cx.put_message(self.mbox, &[0u8; 64]);
            HostStep::Done
        }
    }
    let costs = HostCostModel::default();
    let mut h = Host::new(0, 0, costs);
    let mut shared = CabShared::new();
    let mbox = shared.create_mailbox(false, HostOpMode::SharedMemory);
    h.spawn(Box::new(Putter { mbox }));
    run_to_idle(&mut h, &mut shared, SimTime::ZERO);
    let expected = (costs.mbox_begin_put_words + costs.mbox_end_put_words + 16 + 2) as u64;
    assert_eq!(h.stats.vme_words, expected, "every word over the bus must be accounted");
}

/// The driver's interrupt service reads each signal-queue entry over
/// the bus: the words it charges are the words it counts.
#[test]
fn interrupt_service_counts_its_vme_words() {
    let costs = HostCostModel::default();
    let mut h = Host::new(0, 0, costs);
    let mut shared = CabShared::new();
    let hc = shared.create_host_cond();
    shared.host_sigq.push_back(SigEntry::HostCondSignalled(hc));
    h.cab_interrupt(SimTime::ZERO);
    run_to_idle(&mut h, &mut shared, SimTime::ZERO);
    assert_eq!(h.stats.cab_interrupts, 1);
    assert_eq!(h.stats.vme_words, 2, "one queued entry is two words over the bus");
    assert_eq!(h.cpu.busy(), costs.interrupt_service + costs.vme_word * 2);
}

#[test]
fn sleep_wakes_at_deadline() {
    struct Napper {
        until: SimTime,
        armed: bool,
        woke_at: Rc<RefCell<Option<SimTime>>>,
    }
    impl HostProcess for Napper {
        fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
            if !self.armed {
                self.armed = true;
                return HostStep::Sleep(self.until);
            }
            *self.woke_at.borrow_mut() = Some(cx.now());
            HostStep::Done
        }
    }
    let mut h = Host::new(0, 0, HostCostModel::default());
    let mut shared = CabShared::new();
    let until = SimTime::ZERO + SimDuration::from_millis(7);
    let woke_at = Rc::new(RefCell::new(None));
    h.spawn(Box::new(Napper { until, armed: false, woke_at: woke_at.clone() }));
    run_to_idle(&mut h, &mut shared, SimTime::ZERO);
    let woke = woke_at.borrow().expect("woke");
    assert!(woke >= until && woke < until + SimDuration::from_millis(1));
}
