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

use std::collections::VecDeque;

use nectar_sim::{Burst, Deadlines, SimDuration, SimTime, Trace};
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
    /// The clock of the burst this context runs in.
    pub burst: Burst,
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
        self.burst.now()
    }

    /// Account simulated CPU time.
    pub fn charge(&mut self, d: SimDuration) {
        self.burst.charge(d);
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
//
// A burst costs the work it does, not the size of the thread table:
// runnable threads sit in one id bitset per priority level, sleeping
// and timed-blocked threads in one deadline index, and blocked threads
// in one waiter list per condition. `set_state` is the only place a
// thread's state changes after `fork`, and it keeps all three indexes
// in step. Debug builds check every indexed answer against the linear
// scan it replaces.
// ----------------------------------------------------------------------

/// A thread's scheduling state: what its last [`Step`] asked for, until
/// a wake, a timeout or the next burst changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked(CondId),
    /// Blocked until the condition is signalled or the deadline passes.
    BlockedUntil(CondId, SimTime),
    Sleeping(SimTime),
    Done,
}

impl ThreadState {
    fn after(step: Step) -> ThreadState {
        match step {
            Step::Yield => ThreadState::Runnable,
            Step::Block(c) => ThreadState::Blocked(c),
            Step::BlockTimeout(c, t) => ThreadState::BlockedUntil(c, t),
            Step::Sleep(t) => ThreadState::Sleeping(t),
            Step::Done => ThreadState::Done,
        }
    }

    /// The condition a blocked thread waits on.
    fn cond(self) -> Option<CondId> {
        match self {
            ThreadState::Blocked(c) | ThreadState::BlockedUntil(c, _) => Some(c),
            _ => None,
        }
    }

    /// The instant a timed state ends by itself.
    fn deadline(self) -> Option<SimTime> {
        match self {
            ThreadState::Sleeping(d) | ThreadState::BlockedUntil(_, d) => Some(d),
            _ => None,
        }
    }
}

/// The end of a condition's waiter list.
const NO_THREAD: ThreadId = ThreadId::MAX;

/// Thread slots a runtime starts with: room for the six protocol
/// servers every board forks at boot (`Cab::new`) and two application
/// threads, so booting never regrows the table.
const BOOT_THREAD_SLOTS: usize = 8;

/// Most distinct priorities one CAB schedules; the runtime itself uses
/// two, [`PRIO_SYSTEM`] and [`PRIO_APP`].
const MAX_LEVELS: usize = 4;

struct ThreadSlot {
    thread: Option<Box<dyn CabThread>>,
    state: ThreadState,
    /// The thread's priority level in the run queue.
    level: u8,
    /// Threads waiting to join this one.
    join_cond: CondId,
    /// Neighbours in the waiter list of the condition the thread is
    /// blocked on.
    prev_waiter: ThreadId,
    next_waiter: ThreadId,
}

/// The runnable threads: one thread-id bitset per priority level. A
/// level's ids below 64 sit in its inline word; only higher ids spill
/// into heap words, word `w` of level `l` at `spill[(w - 1) * MAX_LEVELS
/// + l]`.
#[derive(Debug, Default)]
struct RunQueue {
    low: [u64; MAX_LEVELS],
    spill: Vec<u64>,
    /// Each level's priority, in order of first use; the first `levels`
    /// are live.
    priority: [u8; MAX_LEVELS],
    levels: u8,
}

impl RunQueue {
    /// The level that schedules `priority`, opened on first use.
    fn level_of(&mut self, priority: u8) -> u8 {
        let live = self.levels as usize;
        if let Some(l) = self.priority[..live].iter().position(|&p| p == priority) {
            return l as u8;
        }
        assert!(live < MAX_LEVELS, "a CAB schedules at most {MAX_LEVELS} thread priorities");
        self.priority[live] = priority;
        self.levels += 1;
        live as u8
    }

    fn word(&self, level: usize, w: usize) -> u64 {
        match w {
            0 => self.low[level],
            _ => self.spill.get((w - 1) * MAX_LEVELS + level).copied().unwrap_or(0),
        }
    }

    fn word_mut(&mut self, level: usize, w: usize) -> &mut u64 {
        if w == 0 {
            return &mut self.low[level];
        }
        let i = (w - 1) * MAX_LEVELS + level;
        if self.spill.len() <= i {
            self.spill.resize(w * MAX_LEVELS, 0);
        }
        &mut self.spill[i]
    }

    fn insert(&mut self, level: u8, tid: ThreadId) {
        *self.word_mut(level as usize, tid as usize / 64) |= 1 << (tid % 64);
    }

    fn remove(&mut self, level: u8, tid: ThreadId) {
        *self.word_mut(level as usize, tid as usize / 64) &= !(1 << (tid % 64));
    }

    fn words(&self) -> usize {
        1 + self.spill.len() / MAX_LEVELS
    }

    fn is_empty(&self) -> bool {
        self.low.iter().chain(&self.spill).all(|&w| w == 0)
    }

    /// The next thread to run: in the highest-priority level with a
    /// runnable thread, the first one at or after `from`, else its
    /// lowest id — the round-robin successor of `from` in circular id
    /// order.
    fn pick(&self, from: usize) -> Option<ThreadId> {
        let words = self.words();
        let level = (0..self.levels as usize)
            .filter(|&l| (0..words).any(|w| self.word(l, w) != 0))
            .max_by_key(|&l| self.priority[l])?;
        let first = |w: usize, bits: u64| {
            (bits != 0).then(|| (w * 64 + bits.trailing_zeros() as usize) as ThreadId)
        };
        let start = from / 64;
        if let Some(tid) = first(start, self.word(level, start) & (!0u64 << (from % 64))) {
            return Some(tid);
        }
        (start + 1..words).chain(0..words).find_map(|w| first(w, self.word(level, w)))
    }
}

/// Kinds of pending interrupt work, ordered by arrival time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PendingIntr {
    /// First byte of a frame reached the input FIFO.
    StartOfPacket(u32),
    /// Last byte arrived; CRC is checked and DMA completes.
    EndOfPacket(u32),
    /// The host posted to the CAB signal queue.
    HostSignal,
}

impl PendingIntr {
    /// A fiber-side (start/end-of-packet) interrupt.
    pub(crate) fn is_net(self) -> bool {
        matches!(self, PendingIntr::StartOfPacket(_) | PendingIntr::EndOfPacket(_))
    }
}

/// Scheduler + interrupt state for one CAB.
pub struct Runtime {
    threads: Vec<ThreadSlot>,
    runnable: RunQueue,
    /// Sleeping and timed-blocked threads by deadline.
    timers: Deadlines<ThreadId>,
    /// Head of each condition's waiter list, indexed by condition id.
    waiters: Vec<ThreadId>,
    last_thread: Option<ThreadId>,
    /// Round-robin rotation point within a priority level.
    rr_next: ThreadId,
    /// Pending interrupts in `(at, seq)` order.
    intr_queue: VecDeque<(SimTime, u64, PendingIntr)>,
    intr_seq: u64,
    pending_upcalls: VecDeque<(UpcallId, MboxId)>,
    upcalls: Vec<Option<Box<dyn Upcall>>>,
    /// Interrupts masked (while an interrupt handler runs, implicitly;
    /// this flag is for threads that explicitly disable them).
    pub ctx_switches: u64,
    pub interrupts_taken: u64,
    /// Frame events handled under another interrupt's entry (interrupt
    /// moderation, `Config::batched_io`): each one saved an interrupt
    /// entry/exit.
    pub interrupts_coalesced: u64,
    pub upcalls_run: u64,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    pub fn new() -> Self {
        Runtime {
            threads: Vec::with_capacity(BOOT_THREAD_SLOTS),
            runnable: RunQueue::default(),
            timers: Deadlines::new(),
            waiters: Vec::new(),
            last_thread: None,
            rr_next: 0,
            intr_queue: VecDeque::new(),
            intr_seq: 0,
            pending_upcalls: VecDeque::new(),
            upcalls: Vec::new(),
            ctx_switches: 0,
            interrupts_taken: 0,
            interrupts_coalesced: 0,
            upcalls_run: 0,
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
        let level = self.runnable.level_of(priority);
        let tid = self.threads.len() as ThreadId;
        assert!(tid != NO_THREAD, "CAB thread table full");
        // born runnable: in its level's runnable set, in no waiter list
        // and with no deadline
        self.threads.push(ThreadSlot {
            thread: Some(thread),
            state: ThreadState::Runnable,
            level,
            join_cond,
            prev_waiter: NO_THREAD,
            next_waiter: NO_THREAD,
        });
        self.runnable.insert(level, tid);
        tid
    }

    /// Move thread `tid` to `state` — the one place a thread's state
    /// changes after `fork` — keeping the runnable sets, the waiter lists and the
    /// deadline index in step with it.
    fn set_state(&mut self, tid: ThreadId, state: ThreadState) {
        let slot = &self.threads[tid as usize];
        let (old, level) = (slot.state, slot.level);
        if old == ThreadState::Runnable {
            self.runnable.remove(level, tid);
        }
        if let Some(cond) = old.cond() {
            self.unlink_waiter(tid, cond);
        }
        self.threads[tid as usize].state = state;
        if state == ThreadState::Runnable {
            self.runnable.insert(level, tid);
        }
        if let Some(cond) = state.cond() {
            self.link_waiter(tid, cond);
        }
        // Runnable <-> Blocked, the common transitions, keep no deadline
        if state.deadline() != old.deadline() {
            self.timers.set(tid, state.deadline());
        }
    }

    fn link_waiter(&mut self, tid: ThreadId, cond: CondId) {
        let c = cond as usize;
        if self.waiters.len() <= c {
            self.waiters.resize(c + 1, NO_THREAD);
        }
        let head = self.waiters[c];
        if head != NO_THREAD {
            self.threads[head as usize].prev_waiter = tid;
        }
        let slot = &mut self.threads[tid as usize];
        slot.prev_waiter = NO_THREAD;
        slot.next_waiter = head;
        self.waiters[c] = tid;
    }

    fn unlink_waiter(&mut self, tid: ThreadId, cond: CondId) {
        let slot = &self.threads[tid as usize];
        let (prev, next) = (slot.prev_waiter, slot.next_waiter);
        if prev == NO_THREAD {
            self.waiters[cond as usize] = next;
        } else {
            self.threads[prev as usize].next_waiter = next;
        }
        if next != NO_THREAD {
            self.threads[next as usize].prev_waiter = prev;
        }
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
        // after every entry due no later: `(at, seq)` order, as seqs rise
        let pos = self.intr_queue.partition_point(|&(a, _, _)| a <= at);
        self.intr_queue.insert(pos, (at, self.intr_seq, kind));
        self.intr_seq += 1;
    }

    /// Wake every thread blocked on `cond`.
    pub(crate) fn wake_cond(&mut self, cond: CondId) {
        while let Some(&tid) = self.waiters.get(cond as usize).filter(|&&t| t != NO_THREAD) {
            self.set_state(tid, ThreadState::Runnable);
        }
        debug_assert!(
            self.threads.iter().all(|s| s.state.cond() != Some(cond)),
            "a thread blocked on cond {cond} is missing from its waiter list"
        );
    }

    pub(crate) fn queue_upcall(&mut self, u: UpcallId, mbox: MboxId) {
        self.pending_upcalls.push_back((u, mbox));
    }

    /// Wake one specific blocked thread (the board's timer interrupt
    /// for shared-stack deadlines armed outside the thread itself).
    /// Spurious for the cond the thread waits on — thread bodies
    /// re-check their state on every burst, so this is safe.
    pub(crate) fn wake_thread_if_blocked(&mut self, tid: ThreadId) {
        let blocked = self.threads.get(tid as usize).map(|s| s.state);
        if blocked.and_then(ThreadState::cond).is_some() {
            self.set_state(tid, ThreadState::Runnable);
        }
    }

    /// Wake sleeping / timed-out threads whose deadline has passed.
    pub(crate) fn apply_timeouts(&mut self, t: SimTime) {
        while let Some(tid) = self.timers.pop_due(t) {
            self.set_state(tid, ThreadState::Runnable);
        }
        debug_assert!(
            self.threads.iter().all(|s| s.state.deadline().is_none_or(|d| d > t)),
            "a thread past its deadline at {t} is missing from the deadline index"
        );
    }

    /// Earliest due interrupt at or before `t`, if any.
    pub(crate) fn pop_due_interrupt(&mut self, t: SimTime) -> Option<PendingIntr> {
        debug_assert_eq!(
            self.due_by_scan(t, false),
            self.intr_queue.front().filter(|e| e.0 <= t).map(|_| 0)
        );
        self.intr_queue.front().filter(|&&(at, _, _)| at <= t)?;
        self.intr_queue.pop_front().map(|(_, _, kind)| kind)
    }

    /// Earliest due *network* interrupt (start/end-of-packet) at or
    /// before `t` — the interrupt-moderation drain: while one network
    /// interrupt is being serviced, every frame event already due can
    /// be handled under the same interrupt entry.
    pub(crate) fn pop_due_net_interrupt(&mut self, t: SimTime) -> Option<PendingIntr> {
        let idx =
            self.intr_queue.iter().take_while(|&&(at, _, _)| at <= t).position(|e| e.2.is_net());
        debug_assert_eq!(idx, self.due_by_scan(t, true));
        self.intr_queue.remove(idx?).map(|(_, _, kind)| kind)
    }

    /// Index of the earliest `(at, seq)` interrupt due at `t` (network
    /// ones only if `net`), by a scan of the whole queue: the reference
    /// the ordered queue is checked against in debug builds.
    fn due_by_scan(&self, t: SimTime, net: bool) -> Option<usize> {
        let due = |&(_, &(at, _, kind)): &(usize, &(SimTime, u64, PendingIntr))| {
            at <= t && (!net || kind.is_net())
        };
        let idx = self.intr_queue.iter().enumerate().filter(due);
        idx.min_by_key(|(_, &(at, seq, _))| (at, seq)).map(|(i, _)| i)
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
        let picked = self.runnable.pick(self.rr_next as usize);
        debug_assert_eq!(
            picked,
            self.pick_by_scan(),
            "runnable sets disagree with the thread table"
        );
        let tid = picked?;
        self.rr_next = (tid + 1) % self.threads.len() as ThreadId;
        Some(tid)
    }

    /// [`Runtime::pick_thread`] by a walk of every thread slot from the
    /// rotation point: the reference for debug builds.
    fn pick_by_scan(&self) -> Option<ThreadId> {
        let n = self.threads.len();
        let mut best: Option<(u8, ThreadId)> = None;
        for off in 0..n {
            let tid = (self.rr_next as usize + off) % n;
            let slot = &self.threads[tid];
            let priority = self.runnable.priority[slot.level as usize];
            if slot.state == ThreadState::Runnable && best.is_none_or(|(p, _)| priority > p) {
                best = Some((priority, tid as ThreadId));
            }
        }
        best.map(|(_, tid)| tid)
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
        self.threads[tid as usize].thread = Some(body);
        self.set_state(tid, ThreadState::after(step));
        if step == Step::Done {
            shared.notices.wake_conds.push(self.threads[tid as usize].join_cond);
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
        let busy = !self.pending_upcalls.is_empty() || !self.runnable.is_empty();
        let next = [
            busy.then_some(after),
            self.intr_queue.front().map(|&(at, _, _)| at),
            self.timers.peek(),
        ]
        .into_iter()
        .flatten()
        .map(|t| t.max(after))
        .min();
        debug_assert_eq!(next, self.next_work_by_scan(after), "runtime indexes disagree");
        next
    }

    /// [`Runtime::next_internal_work`] by a scan of every interrupt and
    /// thread slot: the reference for debug builds.
    fn next_work_by_scan(&self, after: SimTime) -> Option<SimTime> {
        let threads = self.threads.iter().filter_map(|s| match s.state {
            ThreadState::Runnable => Some(after),
            state => state.deadline(),
        });
        let upcalls = (!self.pending_upcalls.is_empty()).then_some(after);
        let intrs = self.intr_queue.iter().map(|&(at, _, _)| at);
        upcalls.into_iter().chain(intrs).chain(threads).map(|t| t.max(after)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_sim::check::{cases, Gen, DEFAULT_CASES};

    /// The scheduler as a linear scan over the thread table, as it was
    /// written before the runnable sets, the deadline index and the
    /// waiter lists: the reference the indexed [`Runtime`] must match
    /// pick for pick.
    #[derive(Default)]
    struct Linear {
        threads: Vec<(ThreadState, u8)>,
        rr_next: ThreadId,
        intr: Vec<(SimTime, u64, PendingIntr)>,
        seq: u64,
    }

    impl Linear {
        fn fork(&mut self, priority: u8) {
            self.threads.push((ThreadState::Runnable, priority));
        }

        fn wake_cond(&mut self, cond: CondId) {
            for (state, _) in &mut self.threads {
                if state.cond() == Some(cond) {
                    *state = ThreadState::Runnable;
                }
            }
        }

        fn wake_thread_if_blocked(&mut self, tid: ThreadId) {
            if let Some((state, _)) = self.threads.get_mut(tid as usize) {
                if state.cond().is_some() {
                    *state = ThreadState::Runnable;
                }
            }
        }

        fn apply_timeouts(&mut self, t: SimTime) {
            for (state, _) in &mut self.threads {
                match *state {
                    ThreadState::Sleeping(d) | ThreadState::BlockedUntil(_, d) if d <= t => {
                        *state = ThreadState::Runnable
                    }
                    _ => {}
                }
            }
        }

        fn pick(&mut self) -> Option<ThreadId> {
            let n = self.threads.len();
            let mut best: Option<(u8, ThreadId)> = None;
            for off in 0..n {
                let tid = ((self.rr_next as usize + off) % n) as ThreadId;
                let (state, priority) = self.threads[tid as usize];
                if state == ThreadState::Runnable {
                    match best {
                        Some((p, _)) if p >= priority => {}
                        _ => best = Some((priority, tid)),
                    }
                }
            }
            let (_, tid) = best?;
            self.rr_next = (tid + 1) % n.max(1) as ThreadId;
            Some(tid)
        }

        fn finish(&mut self, tid: ThreadId, step: Step) {
            self.threads[tid as usize].0 = ThreadState::after(step);
        }

        fn post(&mut self, at: SimTime, kind: PendingIntr) {
            self.intr.push((at, self.seq, kind));
            self.seq += 1;
        }

        fn pop_due(&mut self, t: SimTime, net: bool) -> Option<PendingIntr> {
            let idx = self
                .intr
                .iter()
                .enumerate()
                .filter(|(_, &(at, _, k))| at <= t && (!net || k.is_net()))
                .min_by_key(|(_, &(at, seq, _))| (at, seq))
                .map(|(i, _)| i)?;
            Some(self.intr.remove(idx).2)
        }

        fn next_internal_work(&self, after: SimTime) -> Option<SimTime> {
            let mut next: Option<SimTime> = None;
            let mut consider = |t: SimTime| next = Some(next.map_or(t, |n| n.min(t)));
            for &(at, _, _) in &self.intr {
                consider(at.max(after));
            }
            for &(state, _) in &self.threads {
                match state {
                    ThreadState::Runnable => consider(after),
                    ThreadState::Sleeping(d) | ThreadState::BlockedUntil(_, d) => {
                        consider(d.max(after))
                    }
                    _ => {}
                }
            }
            next
        }
    }

    struct Idle;

    impl CabThread for Idle {
        fn run(&mut self, _cx: &mut Cx<'_>) -> Step {
            Step::Yield
        }
    }

    /// Both schedulers see the same random fork / pick-and-finish /
    /// wake / timeout / interrupt sequence, on up to 130 threads so ids
    /// spill past the inline word, and must agree on every pick, every
    /// popped interrupt, every `next_internal_work` and every thread's
    /// liveness.
    #[test]
    fn indexed_scheduler_matches_the_linear_scan() {
        const PRIORITIES: [u8; 3] = [PRIO_SYSTEM, PRIO_APP, 1];
        cases(DEFAULT_CASES, |g: &mut Gen| {
            let mut shared = CabShared::new();
            let mut rt = Runtime::new();
            let mut lin = Linear::default();
            let mut now = SimTime::ZERO;
            let max_threads = g.usize_in(1, 131);
            let conds = g.usize_in(1, 12) as CondId;
            let fork = |g: &mut Gen, rt: &mut Runtime, lin: &mut Linear, shared: &mut CabShared| {
                let priority = *g.pick(&PRIORITIES);
                rt.fork(shared, Box::new(Idle), priority);
                lin.fork(priority);
            };
            for _ in 0..g.usize_in(1, max_threads + 1) {
                fork(g, &mut rt, &mut lin, &mut shared);
            }
            for _ in 0..g.usize_in(50, 600) {
                let later =
                    |g: &mut Gen| now + SimDuration::from_nanos(g.usize_in(0, 5_000) as u64);
                match g.usize_in(0, 10) {
                    0 if lin.threads.len() < max_threads => fork(g, &mut rt, &mut lin, &mut shared),
                    0..=2 => {
                        let picked = rt.pick_thread();
                        assert_eq!(picked, lin.pick(), "pick");
                        if let Some(tid) = picked {
                            let cond = g.usize_in(0, conds as usize) as CondId;
                            let step = match g.usize_in(0, 12) {
                                0..=2 => Step::Yield,
                                3..=5 => Step::Block(cond),
                                6 | 7 => Step::BlockTimeout(cond, later(g)),
                                8..=10 => Step::Sleep(later(g)),
                                _ => Step::Done,
                            };
                            let body = rt.take_thread(tid);
                            rt.finish_thread_burst(tid, body, step, &mut shared);
                            lin.finish(tid, step);
                        }
                    }
                    3 => {
                        let cond = g.usize_in(0, conds as usize + 2) as CondId;
                        rt.wake_cond(cond);
                        lin.wake_cond(cond);
                    }
                    4 => {
                        let tid = g.usize_in(0, lin.threads.len() + 2) as ThreadId;
                        rt.wake_thread_if_blocked(tid);
                        lin.wake_thread_if_blocked(tid);
                    }
                    5 | 6 => {
                        now = later(g);
                        rt.apply_timeouts(now);
                        lin.apply_timeouts(now);
                    }
                    7 => {
                        let slot = g.usize_in(0, 4) as u32;
                        let kind = *g.pick(&[
                            PendingIntr::StartOfPacket(slot),
                            PendingIntr::EndOfPacket(slot),
                            PendingIntr::HostSignal,
                        ]);
                        let at = later(g);
                        rt.post_interrupt(at, kind);
                        lin.post(at, kind);
                    }
                    8 => assert_eq!(rt.pop_due_interrupt(now), lin.pop_due(now, false), "pop"),
                    _ => {
                        let popped = rt.pop_due_net_interrupt(now);
                        assert_eq!(popped, lin.pop_due(now, true), "net pop");
                    }
                }
                assert_eq!(rt.next_internal_work(now), lin.next_internal_work(now), "next work");
                for (tid, &(state, _)) in lin.threads.iter().enumerate() {
                    assert_eq!(rt.is_done(tid as ThreadId), state == ThreadState::Done);
                }
            }
        });
    }
}
