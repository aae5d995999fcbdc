//! The CAB runtime system: threads, scheduler, interrupts, upcalls.
//!
//! §3.1 of the paper: "The basic CAB runtime system provides support
//! for multiprogramming (the threads package) and for buffering and
//! synchronization (the mailbox and sync modules). … The threads
//! package for the CAB was derived from the Mach C Threads package. It
//! provides forking and joining of threads, mutual exclusion using
//! locks, and synchronization by means of condition variables. …
//! The current scheduler uses a preemptive, priority-based scheme,
//! with system threads running at a higher priority than application
//! threads."
//!
//! ## Execution model
//!
//! Threads are event-driven state machines: the scheduler calls
//! [`CabThread::run`], the thread performs one *burst* of work
//! (charging simulated CPU time through its [`Cx`]) and returns a
//! [`Step`] saying whether it yields, blocks on a condition (with an
//! optional timeout), sleeps, or exits. Bursts are atomic: an
//! interrupt arriving mid-burst is serviced when the burst ends, which
//! models the interrupt-masked critical sections §3.1 discusses. The
//! 20 µs context-switch cost is charged whenever the CPU switches to a
//! different thread than it last ran.
//!
//! Interrupt handlers and mailbox reader upcalls run at effectively
//! higher priority than all threads: the scheduler services pending
//! interrupts first, then upcalls, then the highest-priority runnable
//! thread.

use nectar_sim::{SimDuration, SimTime, Trace};
use nectar_wire::datalink::{DatalinkHeader, DatalinkProto, Frame};
use nectar_wire::route::Route;

use crate::costs::{CostModel, LinkModel};
use crate::proto::ProtoState;
use crate::shared::{CabShared, CondId, MboxId, MsgRef, UpcallId, WouldBlock};

/// Thread identifier within one CAB.
pub type ThreadId = u16;

/// System threads (protocol servers) run above application threads
/// (§3.1).
pub const PRIO_SYSTEM: u8 = 8;
/// Default application thread priority.
pub const PRIO_APP: u8 = 4;

/// What a thread's burst ended with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Still runnable; the scheduler may run others first.
    Yield,
    /// Wait until the condition is signalled.
    Block(CondId),
    /// Wait until the condition is signalled or the deadline passes.
    BlockTimeout(CondId, SimTime),
    /// Wait until the deadline passes.
    Sleep(SimTime),
    /// Thread exits; joiners are woken.
    Done,
}

/// A CAB thread body. Implementations are resumable state machines:
/// `run` is called for each burst and must tolerate spurious wakeups
/// (re-check the condition, block again).
pub trait CabThread {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step;
    fn name(&self) -> &'static str {
        "thread"
    }
}

/// A mailbox reader upcall (§3.3): invoked as a side effect of
/// End_Put, replacing a context switch with a local call.
pub trait Upcall {
    fn on_message(&mut self, cx: &mut Cx<'_>, mbox: MboxId);
    fn name(&self) -> &'static str {
        "upcall"
    }
}

/// Effects a CAB burst produces for the outside world.
#[derive(Debug)]
pub enum CabEffect {
    /// A frame leaves on the outgoing fiber; its first byte is on the
    /// wire at `first_byte` (DMA may start after the CPU burst that
    /// queued it, if the fiber was busy).
    Transmit { frame: Frame, first_byte: SimTime },
    /// Raise the VME interrupt towards the host (host signal queue has
    /// entries).
    InterruptHost,
}

/// Per-CAB datalink transmit state: source routes and fiber occupancy.
#[derive(Debug)]
pub struct NetPort {
    /// Source route to every reachable CAB, indexed by CAB id (computed
    /// by the topology layer at network build time — §2.1 source
    /// routing). Every CAB on one HUB has the same routes, so they share
    /// one table, which includes the route to each CAB's own port.
    pub routes: std::rc::Rc<Vec<Option<Route>>>,
    /// The outgoing fiber is serializing until this instant.
    pub tx_busy_until: SimTime,
    pub link: LinkModel,
    /// Frames dropped because no route was known.
    pub no_route_drops: u64,
    /// Frames handed to the fiber DMA.
    pub tx_frames: u64,
    /// Wire bytes handed to the fiber DMA.
    pub tx_bytes: u64,
}

impl NetPort {
    pub fn new(link: LinkModel) -> Self {
        NetPort {
            routes: Default::default(),
            tx_busy_until: SimTime::ZERO,
            link,
            no_route_drops: 0,
            tx_frames: 0,
            tx_bytes: 0,
        }
    }
}

/// Mutual exclusion locks (C Threads parity). With burst-atomic
/// execution a critical section within one burst never contends, but
/// locks held *across* bursts (e.g. a thread blocking mid-update) are
/// real and these locks provide them.
#[derive(Debug, Default)]
pub struct MutexTable {
    locks: Vec<MutexSlot>,
}

#[derive(Debug)]
struct MutexSlot {
    owner: Option<ThreadId>,
    cond: CondId,
}

/// Mutex identifier.
pub type MutexId = u16;

/// The execution context handed to thread bursts, upcalls and
/// interrupt handlers. All runtime services — time charging, mailbox
/// and sync operations with their CPU costs, datalink transmission,
/// tracing — go through here.
pub struct Cx<'a> {
    pub cab_id: u16,
    /// The thread currently executing (interrupt/upcall context uses
    /// `None`).
    pub cur_thread: Option<ThreadId>,
    pub(crate) t0: SimTime,
    pub(crate) charged: SimDuration,
    pub shared: &'a mut CabShared,
    pub proto: &'a mut ProtoState,
    pub costs: &'a CostModel,
    pub net: &'a mut NetPort,
    pub mutexes: &'a mut MutexTable,
    pub fx: &'a mut Vec<CabEffect>,
    pub trace: &'a mut Trace,
}

impl<'a> Cx<'a> {
    /// Current simulated time within this burst.
    pub fn now(&self) -> SimTime {
        self.t0 + self.charged
    }

    /// Account simulated CPU time.
    pub fn charge(&mut self, d: SimDuration) {
        self.charged += d;
    }

    /// Total time charged by this burst so far.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// Record a trace stamp at the current instant.
    pub fn stamp(&mut self, tag: &'static str, info: u64) {
        let now = self.now();
        let node = self.cab_id as u32;
        self.trace.stamp(now, node, tag, info);
    }

    // ------------------------------------------------------------------
    // mailbox operations with CPU costs
    // ------------------------------------------------------------------

    pub fn begin_put(&mut self, mbox: MboxId, size: usize) -> Result<MsgRef, WouldBlock> {
        self.charge(self.costs.mbox_begin_put);
        self.shared.begin_put(mbox, size)
    }

    pub fn end_put(&mut self, mbox: MboxId, msg: MsgRef) {
        self.charge(self.costs.mbox_end_put);
        self.shared.end_put(mbox, msg);
    }

    /// The condition a Begin_Get reader of this mailbox waits on: where
    /// a reader blocks when [`Cx::try_get`] finds the mailbox empty.
    pub fn mbox_cond(&self, mbox: MboxId) -> CondId {
        self.shared.mailboxes[mbox as usize].reader_cond
    }

    /// Begin_Get behind the select()-before-read idiom — the one charged
    /// mailbox read on the CAB. Emptiness is a plain read of the
    /// queue-count word in CAB memory — no Begin_Get transaction, so an
    /// empty mailbox costs nothing and counts no `mbox_empty_polls` —
    /// and only a queued message pays Begin_Get. A thread serving many
    /// mailboxes skips the empty ones for free instead of paying a
    /// failed ~4 µs Begin_Get on each (the tax that flattened the udp
    /// knee at scale); on `None` it blocks on [`Cx::mbox_cond`].
    pub fn try_get(&mut self, mbox: MboxId) -> Option<MsgRef> {
        if self.shared.mailboxes[mbox as usize].queue.is_empty() {
            return None;
        }
        self.charge(self.costs.mbox_begin_get);
        Some(self.shared.begin_get(mbox).expect("Begin_Get fails only on an empty mailbox"))
    }

    /// Read a whole message in one call ([`Cx::try_get`], copy out,
    /// End_Get) — the twin of [`Cx::put_message`], for readers that act
    /// on a message after releasing its buffer.
    pub fn get_message(&mut self, mbox: MboxId) -> Option<Vec<u8>> {
        let msg = self.try_get(mbox)?;
        let bytes = self.shared.msg_bytes(&msg).to_vec();
        self.end_get(mbox, msg);
        Some(bytes)
    }

    pub fn end_get(&mut self, mbox: MboxId, msg: MsgRef) {
        self.charge(self.costs.mbox_end_get);
        self.shared.end_get(mbox, msg);
    }

    pub fn enqueue(&mut self, msg: MsgRef, to: MboxId) {
        self.charge(self.costs.mbox_enqueue);
        self.shared.enqueue(msg, to);
    }

    /// Write a full message into a mailbox in one call (allocate, fill,
    /// publish). The per-byte fill is a CAB-local memory copy; the
    /// charge models the store loop at one word per ~3 cycles.
    pub fn put_message(&mut self, mbox: MboxId, bytes: &[u8]) -> Result<u32, WouldBlock> {
        let msg = self.begin_put(mbox, bytes.len())?;
        self.charge(SimDuration::from_nanos(45) * (bytes.len() as u64 / 4 + 1));
        self.shared.msg_write(&msg, 0, bytes);
        let id = msg.msg_id;
        self.end_put(mbox, msg);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // syncs
    // ------------------------------------------------------------------

    pub fn sync_write(&mut self, id: crate::shared::SyncId, value: u32) {
        self.charge(self.costs.sync_op);
        let now = self.now();
        self.shared.sync_write_at(id, value, now);
    }

    pub fn sync_read(&mut self, id: crate::shared::SyncId) -> Option<u32> {
        self.charge(self.costs.sync_op);
        let now = self.now();
        self.shared.sync_read_at(id, now)
    }

    // ------------------------------------------------------------------
    // mutexes
    // ------------------------------------------------------------------

    /// Try to acquire; on contention returns the condition to block on.
    pub fn mutex_lock(&mut self, m: MutexId) -> Result<(), CondId> {
        let tid = self.cur_thread.expect("mutexes are thread-context only");
        let slot = &mut self.mutexes.locks[m as usize];
        match slot.owner {
            None => {
                slot.owner = Some(tid);
                Ok(())
            }
            Some(owner) if owner == tid => Ok(()), // re-entrant
            Some(_) => Err(slot.cond),
        }
    }

    pub fn mutex_unlock(&mut self, m: MutexId) {
        let tid = self.cur_thread.expect("mutexes are thread-context only");
        let slot = &mut self.mutexes.locks[m as usize];
        assert_eq!(slot.owner, Some(tid), "unlock by non-owner");
        slot.owner = None;
        let cond = slot.cond;
        self.shared.notices.wake_conds.push(cond);
    }

    // ------------------------------------------------------------------
    // datalink transmit
    // ------------------------------------------------------------------

    /// Send a transport packet to another CAB over the fiber. Charges
    /// the datalink + DMA setup CPU cost; serialization itself happens
    /// on the (DMA-driven) fiber, overlapping further CPU work.
    pub fn datalink_send(
        &mut self,
        dst_cab: u16,
        proto: DatalinkProto,
        msg_id: u32,
        payload: &[u8],
    ) -> bool {
        self.datalink_send_parts(dst_cab, proto, msg_id, &[payload])
    }

    /// [`Cx::datalink_send`] of a packet that exists as `parts` — a
    /// protocol header built beside the data it describes — gathered
    /// into the frame as the DMA engine gathered them onto the fiber
    /// ([`Frame::build_parts`]), with no intermediate packet.
    pub fn datalink_send_parts(
        &mut self,
        dst_cab: u16,
        proto: DatalinkProto,
        msg_id: u32,
        parts: &[&[u8]],
    ) -> bool {
        self.launch(dst_cab, proto, msg_id, |route, header| {
            Frame::build_parts(route, header, parts)
        })
    }

    /// Like [`Cx::datalink_send`], but the payload is an existing
    /// [`FrameBuf`] replicated without copying: only a fresh route +
    /// header head is allocated and the payload backing is shared
    /// across every replica ([`Frame::build_shared`]). This is the
    /// multicast fan-out path — the DMA engine reads the one shared
    /// buffer per outgoing branch, as the CAB's single frame memory
    /// did.
    pub fn datalink_send_shared(
        &mut self,
        dst_cab: u16,
        proto: DatalinkProto,
        msg_id: u32,
        payload: &nectar_wire::FrameBuf,
    ) -> bool {
        self.launch(dst_cab, proto, msg_id, |route, header| {
            Frame::build_shared(route, header, payload)
        })
    }

    /// Charge the datalink + DMA setup, frame what `build` assembles
    /// for the route to `dst_cab`, and queue it on the outgoing fiber.
    fn launch(
        &mut self,
        dst_cab: u16,
        proto: DatalinkProto,
        msg_id: u32,
        build: impl FnOnce(&Route, DatalinkHeader) -> Frame,
    ) -> bool {
        self.charge(self.costs.datalink);
        self.charge(self.costs.dma_setup);
        // the HUB's table routes to this CAB's own port too, but a CAB
        // has no route to itself
        let route = self.net.routes.get(dst_cab as usize).and_then(Option::as_ref);
        let Some(route) = route.filter(|_| dst_cab != self.cab_id) else {
            self.net.no_route_drops += 1;
            return false;
        };
        let header = DatalinkHeader {
            dst_cab,
            src_cab: self.cab_id,
            proto,
            flags: 0,
            payload_len: 0, // filled by the build
            msg_id,
        };
        let frame = build(route, header);
        self.stamp("cab_datalink_tx", msg_id as u64);
        self.net.tx_frames += 1;
        self.net.tx_bytes += frame.wire_len() as u64;
        let ser = SimDuration::serialization(frame.wire_len(), self.net.link.fiber_bits_per_sec);
        let first_byte = self.now().max(self.net.tx_busy_until);
        self.net.tx_busy_until = first_byte + ser;
        self.fx.push(CabEffect::Transmit { frame, first_byte });
        true
    }
}

// ----------------------------------------------------------------------
// scheduler
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked { cond: CondId, timeout: Option<SimTime> },
    Sleeping(SimTime),
    Done,
}

struct ThreadSlot {
    thread: Option<Box<dyn CabThread>>,
    state: ThreadState,
    priority: u8,
    /// Threads waiting to join this one.
    join_cond: CondId,
}

/// Kinds of pending interrupt work, ordered by arrival time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendingIntr {
    /// First byte of a frame reached the input FIFO.
    StartOfPacket(u32),
    /// Last byte arrived; CRC is checked and DMA completes.
    EndOfPacket(u32),
    /// The host posted to the CAB signal queue.
    HostSignal,
}

/// Scheduler + interrupt state for one CAB.
pub struct Runtime {
    threads: Vec<ThreadSlot>,
    last_thread: Option<ThreadId>,
    /// Round-robin rotation point within a priority level.
    rr_next: ThreadId,
    pub(crate) intr_queue: Vec<(SimTime, u64, PendingIntr)>,
    intr_seq: u64,
    pending_upcalls: std::collections::VecDeque<(UpcallId, MboxId)>,
    upcalls: Vec<Option<Box<dyn Upcall>>>,
    /// CPU busy-until.
    pub cursor: SimTime,
    /// Interrupts masked (while an interrupt handler runs, implicitly;
    /// this flag is for threads that explicitly disable them).
    pub ctx_switches: u64,
    pub interrupts_taken: u64,
    /// Frame events handled under another interrupt's entry (interrupt
    /// moderation, `Config::batched_io`): each one saved an interrupt
    /// entry/exit.
    pub interrupts_coalesced: u64,
    pub upcalls_run: u64,
    /// Total CPU time charged across every burst — the serial-resource
    /// busy-time meter (`node/<id>/cab/cpu_busy_ns`).
    pub cpu_busy: SimDuration,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    pub fn new() -> Self {
        Runtime {
            threads: Vec::new(),
            last_thread: None,
            rr_next: 0,
            intr_queue: Vec::new(),
            intr_seq: 0,
            pending_upcalls: std::collections::VecDeque::new(),
            upcalls: Vec::new(),
            cursor: SimTime::ZERO,
            ctx_switches: 0,
            interrupts_taken: 0,
            interrupts_coalesced: 0,
            upcalls_run: 0,
            cpu_busy: SimDuration::ZERO,
        }
    }

    /// Fork a thread (C Threads `cthread_fork`).
    pub fn fork(
        &mut self,
        shared: &mut CabShared,
        thread: Box<dyn CabThread>,
        priority: u8,
    ) -> ThreadId {
        let join_cond = shared.alloc_cond();
        self.threads.push(ThreadSlot {
            thread: Some(thread),
            state: ThreadState::Runnable,
            priority,
            join_cond,
        });
        (self.threads.len() - 1) as ThreadId
    }

    /// The condition signalled when a thread exits (C Threads
    /// `cthread_join` blocks on this).
    pub fn join_cond(&self, tid: ThreadId) -> CondId {
        self.threads[tid as usize].join_cond
    }

    /// True once the thread has exited.
    pub fn is_done(&self, tid: ThreadId) -> bool {
        self.threads[tid as usize].state == ThreadState::Done
    }

    /// Register an upcall handler; returns its id for
    /// [`CabShared::set_upcall`].
    pub fn register_upcall(&mut self, u: Box<dyn Upcall>) -> UpcallId {
        self.upcalls.push(Some(u));
        (self.upcalls.len() - 1) as UpcallId
    }

    /// Create a mutex.
    pub fn create_mutex(&mut self, shared: &mut CabShared, table: &mut MutexTable) -> MutexId {
        let cond = shared.alloc_cond();
        table.locks.push(MutexSlot { owner: None, cond });
        (table.locks.len() - 1) as MutexId
    }

    pub(crate) fn post_interrupt(&mut self, at: SimTime, kind: PendingIntr) {
        self.intr_queue.push((at, self.intr_seq, kind));
        self.intr_seq += 1;
    }

    /// Wake every thread blocked on `cond`.
    pub(crate) fn wake_cond(&mut self, cond: CondId) {
        for slot in &mut self.threads {
            if let ThreadState::Blocked { cond: c, .. } = slot.state {
                if c == cond {
                    slot.state = ThreadState::Runnable;
                }
            }
        }
    }

    pub(crate) fn queue_upcall(&mut self, u: UpcallId, mbox: MboxId) {
        self.pending_upcalls.push_back((u, mbox));
    }

    /// Wake one specific blocked thread (the board's timer interrupt
    /// for shared-stack deadlines armed outside the thread itself).
    /// Spurious for the cond the thread waits on — thread bodies
    /// re-check their state on every burst, so this is safe.
    pub(crate) fn wake_thread_if_blocked(&mut self, tid: ThreadId) {
        if let Some(slot) = self.threads.get_mut(tid as usize) {
            if matches!(slot.state, ThreadState::Blocked { .. }) {
                slot.state = ThreadState::Runnable;
            }
        }
    }

    /// Wake sleeping / timed-out threads whose deadline has passed.
    pub(crate) fn apply_timeouts(&mut self, t: SimTime) {
        for slot in &mut self.threads {
            match slot.state {
                ThreadState::Sleeping(d) if d <= t => slot.state = ThreadState::Runnable,
                ThreadState::Blocked { timeout: Some(d), .. } if d <= t => {
                    slot.state = ThreadState::Runnable
                }
                _ => {}
            }
        }
    }

    /// Earliest due interrupt at or before `t`, if any.
    pub(crate) fn pop_due_interrupt(&mut self, t: SimTime) -> Option<PendingIntr> {
        let idx = self
            .intr_queue
            .iter()
            .enumerate()
            .filter(|(_, &(at, _, _))| at <= t)
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        Some(self.intr_queue.remove(idx).2)
    }

    /// Earliest due *network* interrupt (start/end-of-packet) at or
    /// before `t` — the interrupt-moderation drain: while one network
    /// interrupt is being serviced, every frame event already due can
    /// be handled under the same interrupt entry.
    pub(crate) fn pop_due_net_interrupt(&mut self, t: SimTime) -> Option<PendingIntr> {
        let idx = self
            .intr_queue
            .iter()
            .enumerate()
            .filter(|(_, &(at, _, k))| {
                at <= t && matches!(k, PendingIntr::StartOfPacket(_) | PendingIntr::EndOfPacket(_))
            })
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        Some(self.intr_queue.remove(idx).2)
    }

    pub(crate) fn pop_upcall(&mut self) -> Option<(UpcallId, MboxId)> {
        self.pending_upcalls.pop_front()
    }

    pub(crate) fn take_upcall_handler(&mut self, u: UpcallId) -> Option<Box<dyn Upcall>> {
        self.upcalls.get_mut(u as usize).and_then(|s| s.take())
    }

    pub(crate) fn put_upcall_handler(&mut self, u: UpcallId, h: Box<dyn Upcall>) {
        self.upcalls[u as usize] = Some(h);
    }

    /// Pick the next thread: highest priority first, round-robin within
    /// a level (the rotation point advances on every pick).
    pub(crate) fn pick_thread(&mut self) -> Option<ThreadId> {
        let n = self.threads.len();
        let mut best: Option<(u8, ThreadId)> = None;
        for off in 0..n {
            let tid = ((self.rr_next as usize + off) % n) as ThreadId;
            let slot = &self.threads[tid as usize];
            if slot.state == ThreadState::Runnable {
                match best {
                    Some((p, _)) if p >= slot.priority => {}
                    _ => best = Some((slot.priority, tid)),
                }
            }
        }
        let (_, tid) = best?;
        self.rr_next = (tid + 1) % n.max(1) as ThreadId;
        Some(tid)
    }

    pub(crate) fn take_thread(&mut self, tid: ThreadId) -> Box<dyn CabThread> {
        self.threads[tid as usize].thread.take().expect("thread in flight")
    }

    pub(crate) fn finish_thread_burst(
        &mut self,
        tid: ThreadId,
        body: Box<dyn CabThread>,
        step: Step,
        shared: &mut CabShared,
    ) {
        let slot = &mut self.threads[tid as usize];
        slot.thread = Some(body);
        slot.state = match step {
            Step::Yield => ThreadState::Runnable,
            Step::Block(c) => ThreadState::Blocked { cond: c, timeout: None },
            Step::BlockTimeout(c, t) => ThreadState::Blocked { cond: c, timeout: Some(t) },
            Step::Sleep(t) => ThreadState::Sleeping(t),
            Step::Done => ThreadState::Done,
        };
        if step == Step::Done {
            let jc = slot.join_cond;
            shared.notices.wake_conds.push(jc);
        }
        if self.last_thread != Some(tid) {
            self.ctx_switches += 1;
        }
        self.last_thread = Some(tid);
    }

    /// Was the previous burst by a different thread? (context-switch
    /// charge decision, made *before* running).
    pub(crate) fn needs_ctx_switch(&self, tid: ThreadId) -> bool {
        self.last_thread != Some(tid)
    }

    /// The earliest future instant at which this runtime has work,
    /// given no external input: pending interrupts, timeouts, or
    /// runnable threads (which mean "now").
    pub(crate) fn next_internal_work(&self, after: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                None => t,
                Some(n) => n.min(t),
            });
        };
        if !self.pending_upcalls.is_empty() {
            consider(after);
        }
        for &(at, _, _) in &self.intr_queue {
            consider(at.max(after));
        }
        for slot in &self.threads {
            match slot.state {
                ThreadState::Runnable => consider(after),
                ThreadState::Sleeping(d) => consider(d.max(after)),
                ThreadState::Blocked { timeout: Some(d), .. } => consider(d.max(after)),
                _ => {}
            }
        }
        next
    }
}
