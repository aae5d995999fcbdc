//! §5.3 "Application-level Communication Engine": a divide-and-conquer
//! task queue where the *workers run on the communication processors*,
//! coordinated by the in-network collectives (ISSUE 10).
//!
//! A master process on host 0 no longer dispatches per-task requests.
//! Instead a coordinator thread on CAB 0 — the root of a combining
//! tree over all worker CABs — *multicasts* each phase descriptor down
//! the tree, every worker computes its slice and *arrives* at the tree
//! barrier carrying its partial sum, and interior CABs combine on the
//! way up so the root receives one frame per child subtree. The
//! combined phase total pops out of the barrier release; the host
//! master just folds the per-phase totals. This is the Noodles /
//! COSMOS usage pattern with the coordination moved into the fabric.
//!
//!     cargo run -p nectar-examples --bin task_queue -- --workers 4 --tasks 64

use std::cell::Cell;
use std::rc::Rc;

use nectar::cab::proto::{coll_arrive, coll_multicast};
use nectar::cab::reqs::CollNote;
use nectar::cab::{CabThread, Cx, HostOpMode, MboxId, Step};
use nectar::collective::CollectiveGroup;
use nectar::config::Config;
use nectar::host::{HostCx, HostProcess, HostStep};
use nectar::sim::{SimDuration, SimTime};
use nectar::wire::collective::CombineOp;
use nectar::world::World;
use nectar_examples::arg;

/// The collective group id shared by coordinator and workers.
const GROUP: u16 = 1;

/// A worker thread on a CAB: waits for a phase descriptor to arrive by
/// multicast, computes its slice (task id = phase × workers + rank),
/// and contributes the partial sum of squares to the tree barrier.
/// The compute burst charges simulated CPU time proportional to the
/// range, exactly as the request-response version did.
struct Worker {
    note_mbox: MboxId,
    rank: u64,
    nworkers: u64,
    tasks: u64,
    chunk: u64,
    epochs: u32,
}

impl CabThread for Worker {
    fn name(&self) -> &'static str {
        "worker"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(bytes) = cx.get_message(self.note_mbox) else {
                return Step::Block(cx.mbox_cond(self.note_mbox));
            };
            match CollNote::decode(&bytes) {
                Some(CollNote::Deliver { group: GROUP, payload }) => {
                    let phase = u32::from_be_bytes(payload[..4].try_into().unwrap()) as u64;
                    // my slice of this phase, if any — the last phase may
                    // be ragged when workers ∤ tasks
                    let t = phase * self.nworkers + self.rank;
                    let mut acc: u64 = 0;
                    if t < self.tasks {
                        let lo = t * self.chunk;
                        let hi = lo + self.chunk;
                        for v in lo..hi {
                            acc = acc.wrapping_add(v.wrapping_mul(v));
                        }
                        cx.charge(SimDuration::from_nanos(200) * self.chunk);
                    }
                    coll_arrive(cx, GROUP, CombineOp::Sum, acc);
                }
                Some(CollNote::Completed { group: GROUP, epoch, .. })
                    if epoch + 1 >= self.epochs =>
                {
                    return Step::Done;
                }
                _ => {}
            }
        }
        Step::Yield
    }
}

/// The tree root on CAB 0: multicasts each phase descriptor, arrives
/// with a zero contribution, and forwards every combined phase total
/// to the host master's result mailbox.
struct Coordinator {
    note_mbox: MboxId,
    result_mbox: MboxId,
    epochs: u32,
    started: bool,
}

impl CabThread for Coordinator {
    fn name(&self) -> &'static str {
        "coordinator"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if !self.started {
            self.started = true;
            coll_multicast(cx, GROUP, &0u32.to_be_bytes());
            coll_arrive(cx, GROUP, CombineOp::Sum, 0);
        }
        for _ in 0..cx.proto.burst_limit {
            let Some(bytes) = cx.get_message(self.note_mbox) else {
                return Step::Block(cx.mbox_cond(self.note_mbox));
            };
            if let Some(CollNote::Completed { group: GROUP, epoch, value }) =
                CollNote::decode(&bytes)
            {
                let mut note = Vec::with_capacity(12);
                note.extend_from_slice(&epoch.to_be_bytes());
                note.extend_from_slice(&value.to_be_bytes());
                let _ = cx.put_message(self.result_mbox, &note);
                if epoch + 1 >= self.epochs {
                    return Step::Done;
                }
                coll_multicast(cx, GROUP, &(epoch + 1).to_be_bytes());
                coll_arrive(cx, GROUP, CombineOp::Sum, 0);
            }
        }
        Step::Yield
    }
}

/// The master on host 0: folds the per-phase totals the coordinator
/// posts — no dispatch loop, the fabric runs the phases.
struct Master {
    result_mbox: MboxId,
    epochs: u32,
    gathered: u32,
    total: Rc<Cell<u64>>,
    done: Rc<Cell<bool>>,
    finished_at: Rc<Cell<u64>>,
}

impl HostProcess for Master {
    fn name(&self) -> &'static str {
        "master"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        while let Some((_, bytes)) = cx.get_message(self.result_mbox) {
            if bytes.len() >= 12 {
                let value = u64::from_be_bytes(bytes[4..12].try_into().unwrap());
                self.total.set(self.total.get().wrapping_add(value));
                self.gathered += 1;
            }
        }
        if self.gathered == self.epochs {
            self.done.set(true);
            self.finished_at.set(cx.now().as_nanos());
            return HostStep::Done;
        }
        HostStep::Yield
    }
}

fn main() {
    let workers: usize = arg("--workers", 4);
    let tasks: u64 = arg("--tasks", 64);
    let chunk: u64 = 1000;
    // one phase runs `workers` tasks in lockstep; the last may be ragged
    let epochs = tasks.div_ceil(workers as u64) as u32;

    let (mut world, mut sim) = World::single_hub(Config::default(), workers + 1);

    // CAB 0 is the tree root, workers hang below it (fan-out 4)
    let members: Vec<u16> = (0..=workers as u16).collect();
    let group = CollectiveGroup::tree(GROUP, members, 4);
    let mboxes = group.deploy(&mut world);

    for (w, &mb) in mboxes.iter().enumerate().skip(1) {
        world.cabs[w].fork_app(Box::new(Worker {
            note_mbox: mb,
            rank: w as u64 - 1,
            nworkers: workers as u64,
            tasks,
            chunk,
            epochs,
        }));
    }

    let result_mbox = world.cabs[0].shared.create_mailbox(true, HostOpMode::SharedMemory);
    world.cabs[0].fork_app(Box::new(Coordinator {
        note_mbox: mboxes[0],
        result_mbox,
        epochs,
        started: false,
    }));

    let total = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(false));
    let finished_at = Rc::new(Cell::new(0u64));
    world.hosts[0].spawn(Box::new(Master {
        result_mbox,
        epochs,
        gathered: 0,
        total: total.clone(),
        done: done.clone(),
        finished_at: finished_at.clone(),
    }));

    let t0 = SimTime::ZERO;
    world.run_until_done(&mut sim, t0 + SimDuration::from_secs(60), |_| done.get());
    assert!(done.get(), "task queue did not drain");

    // verify against the sequential answer
    let n = tasks * chunk;
    let expected: u64 = (0..n).fold(0u64, |a, v| a.wrapping_add(v.wrapping_mul(v)));
    assert_eq!(total.get(), expected, "distributed result must match sequential");

    println!("task queue: {tasks} tasks x {chunk} elements over {workers} CAB-resident workers");
    println!("  phases          : {epochs} (multicast down, sum-combined up)");
    println!("  result          : {:#x} (verified against sequential)", total.get());
    let _ = t0;
    println!("  simulated time  : {}", SimDuration::from_nanos(finished_at.get()));
    println!();
    println!("each phase was one multicast down the combining tree and one");
    println!("tree-barrier reduction back up — §5.3's application-level");
    println!("engine, with the coordination done inside the fabric.");
}
