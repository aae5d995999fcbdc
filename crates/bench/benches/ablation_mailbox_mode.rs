//! Ablation A2 — §3.3: "the shared memory implementation provides
//! about a factor of two improvement over the RPC-based implementation
//! for Sun 4 hosts."
//!
//! We measure the host-side cost of one complete mailbox put
//! (Begin_Put, fill, End_Put) in both implementations: direct
//! manipulation through the shared-memory mapping, and the signal
//! queue RPC mechanism where the CAB executes the operation and
//! returns the handle through a sync.

use std::cell::RefCell;
use std::rc::Rc;

use nectar::config::Config;
use nectar::world::World;
use nectar_cab::shared::{SigEntry, SyncId};
use nectar_cab::{HostOpMode, MboxId};
use nectar_host::{HostCx, HostProcess, HostStep};
use nectar_sim::{Histogram, SimDuration, SimTime};

struct PutBench {
    mbox: MboxId,
    rpc: bool,
    n: u32,
    state: State,
    times: Rc<RefCell<Histogram>>,
    last_done: Option<SimTime>,
}

enum State {
    Idle,
    WaitBeginPut { sync: SyncId, registered: bool },
    WaitEndPut { sync: SyncId },
    Finished,
}

impl PutBench {
    /// Record the steady-state completion-to-completion period: it
    /// includes every cost an op imposes, including CAB-side tails the
    /// next op queues behind.
    fn complete(&mut self, now: SimTime) {
        if let Some(prev) = self.last_done {
            self.times.borrow_mut().record(now.saturating_since(prev));
        }
        self.last_done = Some(now);
        self.n -= 1;
    }
}

impl HostProcess for PutBench {
    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        match self.state {
            State::Idle => {
                if self.n == 0 {
                    self.state = State::Finished;
                    return HostStep::Done;
                }
                let _op_start = cx.now();
                if !self.rpc {
                    // shared-memory mode: the whole put is one burst of
                    // direct VME manipulation
                    if let Ok(m) = cx.mbox_begin_put(self.mbox, 64) {
                        cx.msg_write(&m, 0, &[7u8; 64]);
                        cx.mbox_end_put(self.mbox, m);
                    }
                    self.complete(cx.now());
                    HostStep::Yield
                } else {
                    // RPC mode: ship Begin_Put to the CAB, wait on the
                    // sync for the handle
                    let sync = cx.sync_alloc();
                    cx.shared.cab_sigq.push_back(SigEntry::RpcBeginPut {
                        mbox: self.mbox,
                        size: 64,
                        reply: sync,
                    });
                    cx.vme(3);
                    cx.fx.push(nectar_host::HostEffect::InterruptCab);
                    self.state = State::WaitBeginPut { sync, registered: false };
                    HostStep::Yield
                }
            }
            State::WaitBeginPut { sync, registered } => {
                let _ = registered;
                match cx.sync_poll(sync) {
                    None => HostStep::Yield,    // poll the sync (§3.2 fast path)
                    Some(0) => HostStep::Yield, // no space: retry
                    Some(v) => {
                        let idx = v - 1;
                        let m = cx.shared.handles.get(idx).expect("handle");
                        cx.msg_write(&m, 0, &[7u8; 64]);
                        let done_sync = cx.sync_alloc();
                        cx.shared.cab_sigq.push_back(SigEntry::RpcEndPut {
                            mbox: self.mbox,
                            msg_index: idx,
                            reply: done_sync,
                        });
                        cx.vme(3);
                        cx.fx.push(nectar_host::HostEffect::InterruptCab);
                        self.state = State::WaitEndPut { sync: done_sync };
                        HostStep::Yield
                    }
                }
            }
            State::WaitEndPut { sync } => match cx.sync_poll(sync) {
                None => HostStep::Yield,
                Some(_) => {
                    self.complete(cx.now());
                    self.state = State::Idle;
                    HostStep::Yield
                }
            },
            State::Finished => HostStep::Done,
        }
    }
}

/// A CAB-side consumer keeping the mailbox drained.
struct Drainer {
    mbox: MboxId,
}
impl nectar_cab::CabThread for Drainer {
    fn run(&mut self, cx: &mut nectar_cab::Cx<'_>) -> nectar_cab::Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(m) = cx.try_get(self.mbox) else {
                return nectar_cab::Step::Block(cx.mbox_cond(self.mbox));
            };
            cx.end_get(self.mbox, m);
        }
        nectar_cab::Step::Yield
    }
}

fn measure(rpc: bool) -> f64 {
    let (mut world, mut sim) = World::single_hub(Config::default(), 1);
    let mode = if rpc { HostOpMode::Rpc } else { HostOpMode::SharedMemory };
    let mbox = world.cabs[0].shared.create_mailbox(false, mode);
    world.cabs[0].fork_app(Box::new(Drainer { mbox }));
    let times = Rc::new(RefCell::new(Histogram::new()));
    world.hosts[0].spawn(Box::new(PutBench {
        mbox,
        rpc,
        n: 100,
        state: State::Idle,
        times: times.clone(),
        last_done: None,
    }));
    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_secs(5));
    let m = times.borrow_mut().median().as_micros_f64();
    m
}

fn main() {
    println!("Ablation A2: host mailbox operations, shared memory vs signal-queue RPC");
    println!();
    let shm = measure(false);
    let rpc = measure(true);
    println!("shared-memory put (64 B): {shm:>7.1} us");
    println!("RPC-based put (64 B):     {rpc:>7.1} us");
    println!("ratio:                    {:>7.2}x   (paper: ~2x)", rpc / shm);
    assert!(rpc > 1.5 * shm, "shared memory must be substantially faster");
}
