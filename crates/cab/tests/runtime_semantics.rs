//! Runtime-system semantics: the C-Threads-derived behaviours §3.1
//! promises — priority scheduling, preemption of application threads
//! by system threads, fork/join, condition variables with timeouts,
//! and mutual exclusion.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nectar_cab::{Cab, CabThread, CostModel, Cx, HostOpMode, LinkModel, MboxId, Step};
use nectar_sim::{SimDuration, SimTime, StepStatus, Trace};
use nectar_stack::tcp::TcpConfig;

fn cab() -> Cab {
    Cab::new(0, CostModel::default(), LinkModel::default(), TcpConfig::default(), 1)
}

fn run_to_idle(c: &mut Cab, start: SimTime) -> SimTime {
    let mut trace = Trace::new();
    let mut now = start;
    for _ in 0..100_000 {
        let (_, status) = c.step(now, &mut trace);
        match status.wake(now) {
            Some(at) => now = at,
            None => return now,
        }
    }
    panic!("never idle");
}

type Log = Rc<RefCell<Vec<&'static str>>>;

struct Worker {
    tag: &'static str,
    bursts: u32,
    log: Log,
}

impl CabThread for Worker {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        cx.charge(SimDuration::from_micros(5));
        self.log.borrow_mut().push(self.tag);
        self.bursts -= 1;
        if self.bursts == 0 {
            Step::Done
        } else {
            Step::Yield
        }
    }
}

#[test]
fn higher_priority_threads_run_first() {
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO); // settle protocol threads
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(Worker { tag: "app", bursts: 3, log: log.clone() }));
    c.fork_system(Box::new(Worker { tag: "sys", bursts: 3, log: log.clone() }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    let order = log.borrow().clone();
    // all system bursts strictly precede all app bursts
    assert_eq!(order, vec!["sys", "sys", "sys", "app", "app", "app"]);
}

#[test]
fn same_priority_round_robins() {
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(Worker { tag: "a", bursts: 3, log: log.clone() }));
    c.fork_app(Box::new(Worker { tag: "b", bursts: 3, log: log.clone() }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    let order = log.borrow().clone();
    assert_eq!(order, vec!["a", "b", "a", "b", "a", "b"]);
}

#[test]
fn waking_system_thread_preempts_app_at_burst_boundary() {
    // an interrupt (frame arrival) makes a system thread runnable; it
    // must run before the next app burst
    struct Spinner {
        log: Log,
    }
    impl CabThread for Spinner {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            cx.charge(SimDuration::from_micros(30));
            self.log.borrow_mut().push("spin");
            Step::Yield
        }
    }
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(Spinner { log: log.clone() }));
    // deliver a datagram frame: rx interrupts + delivery run between
    // app bursts even though the app never blocks
    let dst = c.shared.create_mailbox(false, HostOpMode::SharedMemory);
    let pkt = nectar_wire::nectar::DatagramHeader { dst_mbox: dst, src_mbox: 0 }.build(b"x");
    let hdr = nectar_wire::datalink::DatalinkHeader {
        dst_cab: 0,
        src_cab: 1,
        proto: nectar_wire::datalink::DatalinkProto::Datagram,
        flags: 0,
        payload_len: 0,
        msg_id: 0,
    };
    let frame = nectar_wire::datalink::Frame::build(&nectar_wire::route::Route::empty(), hdr, &pkt);
    let mut trace = Trace::new();
    let mut now = SimTime::from_nanos(1);
    // run a few app bursts
    for _ in 0..3 {
        let (_, s) = c.step(now, &mut trace);
        if let StepStatus::Ran { next } = s {
            now = next;
        }
    }
    c.deliver_frame(now, frame);
    // the very next burst must be the interrupt, not the spinner
    let before = c.rt.interrupts_taken;
    let (_, s) = c.step(now, &mut trace);
    assert_eq!(c.rt.interrupts_taken, before + 1, "interrupt must run before the app burst");
    if let StepStatus::Ran { next } = s {
        now = next;
    }
    // and the message is eventually delivered
    for _ in 0..20 {
        let (_, s) = c.step(now, &mut trace);
        if let StepStatus::Ran { next } = s {
            now = next;
        }
    }
    assert!(c.shared.begin_get(dst).is_ok());
}

#[test]
fn fork_join_semantics() {
    // The join protocol: a thread blocks on join_cond(target) until
    // the target exits (cthread_join).
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let worker = c.fork_app(Box::new(Worker { tag: "w", bursts: 2, log: log.clone() }));
    struct RealJoiner {
        log: Log,
    }
    impl CabThread for RealJoiner {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            // woken by the scheduler when the target exits
            let _ = cx;
            self.log.borrow_mut().push("joined");
            Step::Done
        }
    }
    // block the joiner on the worker's join cond by forking it Blocked:
    // simplest is to let it run once after the worker is done
    let jc = c.rt.join_cond(worker);
    struct BlockFirst {
        cond: nectar_cab::shared::CondId,
        inner: Option<RealJoiner>,
        blocked_once: bool,
    }
    impl CabThread for BlockFirst {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            if !self.blocked_once {
                self.blocked_once = true;
                return Step::Block(self.cond);
            }
            self.inner.as_mut().unwrap().run(cx)
        }
    }
    c.fork_app(Box::new(BlockFirst {
        cond: jc,
        inner: Some(RealJoiner { log: log.clone() }),
        blocked_once: false,
    }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    assert!(c.rt.is_done(worker));
    let order = log.borrow().clone();
    assert_eq!(order, vec!["w", "w", "joined"], "join must wake only after the worker exits");
}

#[test]
fn block_timeout_wakes_by_deadline() {
    struct Sleeper {
        deadline: SimTime,
        woke_at: Rc<RefCell<Option<SimTime>>>,
        armed: bool,
    }
    impl CabThread for Sleeper {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            if !self.armed {
                self.armed = true;
                let cond = cx.shared.alloc_cond(); // nobody signals it
                return Step::BlockTimeout(cond, self.deadline);
            }
            *self.woke_at.borrow_mut() = Some(cx.now());
            Step::Done
        }
    }
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let woke_at = Rc::new(RefCell::new(None));
    let deadline = SimTime::ZERO + SimDuration::from_millis(3);
    c.fork_app(Box::new(Sleeper { deadline, woke_at: woke_at.clone(), armed: false }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    let woke = woke_at.borrow().expect("woke");
    assert!(woke >= deadline, "woke early: {woke}");
    assert!(woke < deadline + SimDuration::from_micros(100), "woke far too late: {woke}");
}

/// The read path's charge contract. `try_get` on an empty mailbox is a
/// free queue-count read: no charge and no counted empty poll. On a
/// queued message it pays exactly Begin_Get. `get_message` pays
/// Begin_Get + End_Get, returns the bytes and releases the buffer.
#[test]
fn try_get_and_get_message_charge_only_for_queued_messages() {
    fn put(cx: &mut Cx<'_>, mbox: MboxId, bytes: &[u8]) {
        let m = cx.shared.begin_put(mbox, bytes.len()).unwrap();
        cx.shared.msg_write(&m, 0, bytes);
        cx.shared.end_put(mbox, m);
    }
    struct Reader {
        mbox: MboxId,
        checked: Rc<Cell<bool>>,
    }
    impl CabThread for Reader {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            let (begin, end) = (cx.costs.mbox_begin_get, cx.costs.mbox_end_get);
            let polls = cx.shared.mbox_empty_polls;
            let t = cx.burst.charged();
            assert_eq!(cx.try_get(self.mbox), None);
            assert_eq!(cx.burst.charged(), t, "an empty mailbox must cost nothing");
            assert_eq!(cx.shared.mbox_empty_polls, polls, "a free check is not an empty poll");

            put(cx, self.mbox, b"queued");
            let t = cx.burst.charged();
            let msg = cx.try_get(self.mbox).expect("a queued message");
            assert_eq!(cx.burst.charged() - t, begin, "try_get pays Begin_Get alone");
            assert_eq!(cx.shared.msg_bytes(&msg), b"queued");
            cx.shared.end_get(self.mbox, msg);

            // larger than a small buffer, so End_Get returns it to the heap
            let payload = vec![0x5a; 1024];
            let in_use = cx.shared.heap.bytes_in_use();
            put(cx, self.mbox, &payload);
            let t = cx.burst.charged();
            assert_eq!(cx.get_message(self.mbox), Some(payload));
            assert_eq!(cx.burst.charged() - t, begin + end, "get_message pays Begin_Get + End_Get");
            assert_eq!(cx.shared.heap.bytes_in_use(), in_use, "the buffer was not released");
            assert_eq!(cx.get_message(self.mbox), None);
            assert_eq!(cx.shared.mbox_empty_polls, polls);
            self.checked.set(true);
            Step::Done
        }
    }
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let mbox = c.shared.create_mailbox(false, HostOpMode::SharedMemory);
    let checked = Rc::new(Cell::new(false));
    c.fork_app(Box::new(Reader { mbox, checked: checked.clone() }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    assert!(checked.get(), "the reader never ran");
}

#[test]
fn mutex_mutual_exclusion_across_bursts() {
    // two threads increment a shared counter under a mutex, holding it
    // across a blocking point; the lock must serialize them
    struct Locker {
        mutex: nectar_cab::runtime::MutexId,
        holding: bool,
        rounds: u32,
        log: Log,
        tag: &'static str,
    }
    impl CabThread for Locker {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            if !self.holding {
                match cx.mutex_lock(self.mutex) {
                    Ok(()) => {
                        self.holding = true;
                        self.log.borrow_mut().push("acquire");
                        self.log.borrow_mut().push(self.tag);
                        // hold the lock across a yield (another burst)
                        return Step::Yield;
                    }
                    Err(cond) => return Step::Block(cond),
                }
            }
            self.log.borrow_mut().push("release");
            cx.mutex_unlock(self.mutex);
            self.holding = false;
            self.rounds -= 1;
            if self.rounds == 0 {
                Step::Done
            } else {
                Step::Yield
            }
        }
    }
    let mut c = cab();
    run_to_idle(&mut c, SimTime::ZERO);
    let m = {
        let (rt, shared, mutexes) = (&mut c.rt, &mut c.shared, &mut c.mutexes);
        rt.create_mutex(shared, mutexes)
    };
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(Locker {
        mutex: m,
        holding: false,
        rounds: 3,
        log: log.clone(),
        tag: "A",
    }));
    c.fork_app(Box::new(Locker {
        mutex: m,
        holding: false,
        rounds: 3,
        log: log.clone(),
        tag: "B",
    }));
    run_to_idle(&mut c, SimTime::from_nanos(1));
    // critical sections never interleave: every acquire is followed by
    // its release before the next acquire
    let order = log.borrow().clone();
    let mut depth = 0i32;
    for e in &order {
        match *e {
            "acquire" => {
                depth += 1;
                assert_eq!(depth, 1, "nested acquire: {order:?}");
            }
            "release" => depth -= 1,
            _ => assert_eq!(depth, 1, "work outside critical section: {order:?}"),
        }
    }
    assert_eq!(depth, 0);
    assert_eq!(order.iter().filter(|e| **e == "acquire").count(), 6);
}

#[test]
fn protection_domain_isolation_for_app_buffers() {
    use nectar_cab::memory::{Access, MemFault, PagePerms};
    let mut c = cab();
    // give domain 1 access to one page only, then switch into it
    c.shared.mem.protect(1, 64 * 1024, 1024, PagePerms::RW);
    c.shared.mem.set_domain(1);
    assert!(c.shared.mem.write(64 * 1024, b"app data").is_ok());
    assert!(matches!(
        c.shared.mem.write(128 * 1024, b"not mine"),
        Err(MemFault::Protection { access: Access::Write, .. })
    ));
    c.shared.mem.set_domain(0);
    assert!(c.shared.mem.write(128 * 1024, b"kernel ok").is_ok());
}
