//! Ablation A3 — §3.3: "if a pair of threads uses a mailbox in a
//! client-server style, the body of the server thread can instead be
//! attached to the mailbox as a reader upcall; this effectively
//! converts a cross-thread procedure call into a local one."
//!
//! A client thread on one CAB calls a local echo service through a
//! mailbox, with the service implemented (a) as a server thread and
//! (b) as a reader upcall. The upcall variant saves the context
//! switches.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nectar::config::Config;
use nectar::world::World;
use nectar_cab::{Cx, HostOpMode, MboxId, Step, Upcall};
use nectar_sim::{Histogram, SimDuration, SimTime};

struct EchoThread {
    svc: MboxId,
    reply: MboxId,
}
impl nectar_cab::CabThread for EchoThread {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        let Some(bytes) = cx.get_message(self.svc) else {
            return Step::Block(cx.mbox_cond(self.svc));
        };
        let _ = cx.put_message(self.reply, &bytes);
        Step::Yield
    }
}

struct EchoUpcall {
    reply: MboxId,
}
impl Upcall for EchoUpcall {
    fn on_message(&mut self, cx: &mut Cx<'_>, mbox: MboxId) {
        while let Some(bytes) = cx.get_message(mbox) {
            let _ = cx.put_message(self.reply, &bytes);
        }
    }
}

struct Client {
    svc: MboxId,
    reply: MboxId,
    n: u32,
    waiting: Option<SimTime>,
    times: Rc<RefCell<Histogram>>,
    done: Rc<Cell<bool>>,
}
impl nectar_cab::CabThread for Client {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        match self.waiting {
            None => {
                let t = cx.now();
                let _ = cx.put_message(self.svc, b"ping");
                self.waiting = Some(t);
                Step::Yield
            }
            Some(t0) => {
                let Some(m) = cx.try_get(self.reply) else {
                    return Step::Block(cx.mbox_cond(self.reply));
                };
                cx.end_get(self.reply, m);
                self.times.borrow_mut().record(cx.now().saturating_since(t0));
                self.waiting = None;
                self.n -= 1;
                if self.n == 0 {
                    self.done.set(true);
                    Step::Done
                } else {
                    Step::Yield
                }
            }
        }
    }
}

fn measure(upcall: bool) -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 1);
    let svc = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    let reply = world.cabs[0].shared.create_mailbox(false, HostOpMode::SharedMemory);
    if upcall {
        world.cabs[0].attach_upcall(svc, Box::new(EchoUpcall { reply }));
    } else {
        world.cabs[0].fork_app(Box::new(EchoThread { svc, reply }));
    }
    let times = Rc::new(RefCell::new(Histogram::new()));
    let done = Rc::new(Cell::new(false));
    world.cabs[0].fork_app(Box::new(Client {
        svc,
        reply,
        n: 100,
        waiting: None,
        times: times.clone(),
        done: done.clone(),
    }));
    world.run_until_done(&mut sim, SimTime::ZERO + SimDuration::from_secs(5), |_| done.get());
    assert!(done.get());
    let m = times.borrow_mut().median().as_micros_f64();
    m
}

fn main() {
    println!("Ablation A3: mailbox reader as server thread vs upcall");
    println!();
    let threaded = measure(false);
    let upcalled = measure(true);
    println!("client-server via thread: {threaded:>7.1} us per call");
    println!("client-server via upcall: {upcalled:>7.1} us per call");
    println!(
        "saved:                    {:>7.1} us   (two context switches ~= 40 us)",
        threaded - upcalled
    );
    assert!(upcalled < threaded, "the upcall must avoid context switches");
}
