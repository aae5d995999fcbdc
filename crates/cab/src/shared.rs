//! The VME-visible runtime state of a CAB: mailboxes, syncs, host
//! condition variables, and the two signal queues.
//!
//! §3.2 of the paper: "Host processes and CAB threads interact using
//! shared data structures that are mapped into the address spaces of
//! the host processes." Everything in [`CabShared`] is that shared
//! region: the host model in `nectar-host` operates on it directly
//! (charging VME access costs), and CAB threads operate on it through
//! their context (charging CPU costs). The operations themselves are
//! cost-free state transitions here; callers charge time.
//!
//! Side effects that must cross the scheduler boundary (wake a CAB
//! thread, run an upcall, interrupt the host) are *not* performed
//! eagerly — they accumulate in [`Notices`] and are applied by the CAB
//! runtime at the end of the current burst, or converted into signal
//! queue entries by the host driver. That mirrors the real structure:
//! a host store into CAB memory does not magically reschedule a CAB
//! thread; the interrupt does.

use std::collections::VecDeque;

use nectar_sim::SimTime;

use crate::memory::{CabAddr, DataMemory, Heap, DATA_MEMORY_SIZE};

/// Mailbox identifier (index into the mailbox table).
pub type MboxId = u16;
/// CAB condition variable identifier.
pub type CondId = u16;
/// Host condition variable identifier.
pub type HostCondId = u16;
/// Upcall registry identifier.
pub type UpcallId = u16;
/// Sync identifier.
pub type SyncId = u16;

/// Messages at or below this size reuse the mailbox's cached buffer
/// (§3.3: "each mailbox caches a small buffer; this avoids the cost of
/// heap allocation and deallocation when sending small messages").
pub const SMALL_MSG: usize = 256;

/// Reserved low region of data memory (mailbox table, syncs, signal
/// queues — modelled out-of-band, so the image is backed from here up,
/// but the address space is reserved to keep heap addresses honest).
pub const HEAP_BASE: CabAddr = 64 * 1024;

/// A reference to a message: an allocation plus the live data window
/// within it. "Adjusting" a message (§3.3) moves the window without
/// copying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRef {
    /// Heap allocation base.
    pub buf: CabAddr,
    /// Current start of message data (≥ buf).
    pub data: CabAddr,
    /// Current data length.
    pub len: u32,
    /// Correlation id for tracing (Figure 6 stages).
    pub msg_id: u32,
}

impl MsgRef {
    /// Remove `n` bytes from the front (header strip) — pointer math
    /// only, no copy.
    pub fn trim_front(&mut self, n: usize) {
        assert!(n as u32 <= self.len, "trim beyond message");
        self.data += n as u32;
        self.len -= n as u32;
    }

    /// Remove `n` bytes from the back.
    pub fn trim_back(&mut self, n: usize) {
        assert!(n as u32 <= self.len, "trim beyond message");
        self.len -= n as u32;
    }
}

/// How host processes perform mailbox operations on this mailbox
/// (§3.3: "both implementations coexist, and the appropriate
/// implementation can be selected dynamically on a per-mailbox
/// basis"). This is ablation A2 in DESIGN.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HostOpMode {
    /// The host updates mailbox data structures directly through the
    /// shared-memory mapping (≈2× faster per the paper).
    #[default]
    SharedMemory,
    /// The host ships Begin_Put and End_Put to the CAB through the
    /// signal queue and polls a sync for the result (put-only: A2's
    /// comparison measures the put).
    Rpc,
}

/// One mailbox (§3.3): a queue of messages with a network-wide address.
#[derive(Debug)]
pub struct Mailbox {
    pub queue: VecDeque<MsgRef>,
    /// CAB threads blocked in Begin_Get wait here.
    pub reader_cond: CondId,
    /// CAB threads blocked in Begin_Put (no heap space) wait here.
    pub space_cond: CondId,
    /// Signalled on End_Put so host readers can poll or block.
    pub host_cond: Option<HostCondId>,
    /// Reader upcall invoked as a side effect of End_Put.
    pub upcall: Option<UpcallId>,
    /// Cached small buffer: (addr, allocation size).
    pub cached_buf: Option<(CabAddr, u32)>,
    /// A writer observed heap exhaustion on this mailbox and blocked;
    /// an End_Get must signal `space_cond` across the host boundary.
    pub space_wanted: bool,
    pub host_mode: HostOpMode,
    /// Total messages ever enqueued (stats).
    pub delivered: u64,
    /// Total payload bytes ever enqueued.
    pub enq_bytes: u64,
    /// Total messages ever dequeued via Begin_Get.
    pub deq_msgs: u64,
    /// Total payload bytes ever dequeued.
    pub deq_bytes: u64,
    /// High watermark of queue depth (messages).
    pub depth_high: u64,
}

/// Sync state (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncState {
    /// Allocated, not yet written.
    Empty,
    /// Written with a one-word value.
    Written(u32),
}

/// A sync: a one-word value plus synchronization (§3.4: "Syncs allow a
/// user to return a one-word value to an asynchronous reader
/// efficiently").
#[derive(Clone, Copy, Debug)]
pub struct Sync {
    pub state: SyncState,
    /// When the value was actually stored (burst-accurate): a reader
    /// polling before this instant must not observe the write.
    pub written_at: SimTime,
    /// CAB-side readers block here.
    pub cond: CondId,
    /// Host-side readers poll/block here.
    pub host_cond: HostCondId,
    /// Slot free for reallocation.
    pub free: bool,
}

/// A host condition variable (§3.2): a poll value in CAB memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCond {
    /// Incremented by Signal; host Wait polls for change.
    pub poll_value: u32,
    /// The CAB driver recorded a blocked host process: a Signal must
    /// also post to the host signal queue and interrupt the host.
    pub wants_interrupt: bool,
}

/// An entry in the host → CAB signal queue: "fixed-size elements that
/// consist of an opcode and a parameter" (§3.2). The CAB → host queue
/// carries only the host condition that was signalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigEntry {
    /// A mailbox was written in shared-memory mode; wake its CAB
    /// readers / run its upcall.
    MailboxWritten(MboxId),
    /// Signal a CAB condition variable: a host End_Get freed heap space
    /// a CAB writer blocked on.
    CondSignal(CondId),
    /// RPC: perform Begin_Put; deliver the handle index + 1 (0: no
    /// space) through the given sync.
    RpcBeginPut { mbox: MboxId, size: u32, reply: SyncId },
    /// RPC: perform End_Put of a previously returned handle;
    /// completion is reported through the sync.
    RpcEndPut { mbox: MboxId, msg_index: u32, reply: SyncId },
}

/// Deferred cross-boundary effects of shared-state operations.
#[derive(Debug, Default)]
pub struct Notices {
    /// CAB condition variables to wake.
    pub wake_conds: Vec<CondId>,
    /// Upcalls to run (upcall id, mailbox that was written).
    pub upcalls: Vec<(UpcallId, MboxId)>,
    /// The host signal queue gained entries: raise the VME interrupt.
    pub interrupt_host: bool,
}

impl Notices {
    pub fn take(&mut self) -> Notices {
        std::mem::take(self)
    }

    pub fn is_empty(&self) -> bool {
        self.wake_conds.is_empty() && self.upcalls.is_empty() && !self.interrupt_host
    }
}

/// Why a Begin_Put could not complete (the caller blocks). Begin_Get's
/// one failure, an empty mailbox, is its reader condition alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WouldBlock {
    /// Begin_Put with no heap space: wait on `space_cond`.
    NoSpace(CondId),
}

/// Handle table for messages between Begin_Put/Begin_Get and their
/// End_ counterparts when crossing the host boundary (the host cannot
/// hold a Rust `MsgRef` by value in RPC mode; it gets an index).
#[derive(Debug, Default)]
pub struct HandleTable {
    slots: Vec<Option<MsgRef>>,
}

impl HandleTable {
    pub fn insert(&mut self, m: MsgRef) -> u32 {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.is_none() {
                *s = Some(m);
                return i as u32;
            }
        }
        self.slots.push(Some(m));
        (self.slots.len() - 1) as u32
    }

    pub fn get(&self, i: u32) -> Option<MsgRef> {
        self.slots.get(i as usize).copied().flatten()
    }

    pub fn update(&mut self, i: u32, m: MsgRef) {
        if let Some(slot) = self.slots.get_mut(i as usize) {
            *slot = Some(m);
        }
    }

    pub fn remove(&mut self, i: u32) -> Option<MsgRef> {
        self.slots.get_mut(i as usize).and_then(|s| s.take())
    }
}

/// The complete VME-visible state of one CAB.
#[derive(Debug)]
pub struct CabShared {
    pub mem: DataMemory,
    pub heap: Heap,
    pub mailboxes: Vec<Mailbox>,
    pub syncs: Vec<Sync>,
    pub host_conds: Vec<HostCond>,
    /// CAB → host signal queue: the host conditions signalled while a
    /// host process was blocked on them.
    pub host_sigq: VecDeque<HostCondId>,
    /// Host → CAB signal queue.
    pub cab_sigq: VecDeque<SigEntry>,
    /// Outstanding two-phase handles for host RPC-mode operations.
    pub handles: HandleTable,
    pub notices: Notices,
    /// High watermark of `host_sigq` depth, sampled when the host
    /// driver drains it (the queue only grows between drains).
    pub host_sigq_high: u64,
    /// High watermark of `cab_sigq` depth, sampled at drain.
    pub cab_sigq_high: u64,
    /// Begin_Get attempts that found the mailbox empty. Each one cost
    /// the caller a full mailbox-op charge for no work — the tax the
    /// select()-before-read idiom (`Cx::try_get`) exists to avoid.
    pub mbox_empty_polls: u64,
    next_cond: CondId,
    next_msg_id: u32,
}

impl Default for CabShared {
    fn default() -> Self {
        Self::new()
    }
}

impl CabShared {
    pub fn new() -> Self {
        CabShared {
            mem: DataMemory::new(HEAP_BASE),
            heap: Heap::new(HEAP_BASE, DATA_MEMORY_SIZE - HEAP_BASE as usize),
            mailboxes: Vec::new(),
            syncs: Vec::new(),
            host_conds: Vec::new(),
            host_sigq: VecDeque::new(),
            cab_sigq: VecDeque::new(),
            handles: HandleTable::default(),
            notices: Notices::default(),
            host_sigq_high: 0,
            cab_sigq_high: 0,
            mbox_empty_polls: 0,
            next_cond: 0,
            next_msg_id: 1,
        }
    }

    /// Allocate a fresh CAB condition variable id.
    pub fn alloc_cond(&mut self) -> CondId {
        let c = self.next_cond;
        self.next_cond += 1;
        c
    }

    /// Create a host condition variable.
    pub fn create_host_cond(&mut self) -> HostCondId {
        self.host_conds.push(HostCond::default());
        (self.host_conds.len() - 1) as HostCondId
    }

    /// Create a mailbox. `host_readable` attaches a host condition so
    /// host processes can wait on it.
    pub fn create_mailbox(&mut self, host_readable: bool, mode: HostOpMode) -> MboxId {
        let cond = self.alloc_cond();
        self.create_mailbox_on(host_readable, mode, cond)
    }

    /// Create a mailbox whose readers wait on a caller-supplied
    /// condition — several mailboxes can share one condition so a
    /// single server thread can block on all of them (the TCP thread
    /// waits on control + send-request + input mailboxes at once).
    pub fn create_mailbox_on(
        &mut self,
        host_readable: bool,
        mode: HostOpMode,
        reader_cond: CondId,
    ) -> MboxId {
        let space_cond = self.alloc_cond();
        let host_cond = if host_readable { Some(self.create_host_cond()) } else { None };
        self.mailboxes.push(Mailbox {
            queue: VecDeque::new(),
            reader_cond,
            space_cond,
            host_cond,
            upcall: None,
            cached_buf: None,
            space_wanted: false,
            host_mode: mode,
            delivered: 0,
            enq_bytes: 0,
            deq_msgs: 0,
            deq_bytes: 0,
            depth_high: 0,
        });
        (self.mailboxes.len() - 1) as MboxId
    }

    /// Attach a reader upcall to a mailbox (§3.3).
    pub fn set_upcall(&mut self, mbox: MboxId, upcall: UpcallId) {
        self.mailboxes[mbox as usize].upcall = Some(upcall);
    }

    fn fresh_msg_id(&mut self) -> u32 {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1).max(1);
        id
    }

    // ------------------------------------------------------------------
    // two-phase mailbox operations (§3.3)
    // ------------------------------------------------------------------

    /// Begin_Put: reserve a buffer of `size` bytes. Blocks (returns
    /// `WouldBlock::NoSpace`) when the heap is exhausted. The only heap
    /// allocation site, so the memory image is grown here to cover
    /// every buffer it hands out.
    pub fn begin_put(&mut self, mbox: MboxId, size: usize) -> Result<MsgRef, WouldBlock> {
        let m = &mut self.mailboxes[mbox as usize];
        // cached small buffer fast path
        if size <= SMALL_MSG {
            if let Some((addr, alloc)) = m.cached_buf.take() {
                let msg_id = self.fresh_msg_id();
                let _ = alloc;
                return Ok(MsgRef { buf: addr, data: addr, len: size as u32, msg_id });
            }
        }
        let space_cond = m.space_cond;
        // allocate small messages at the small-buffer size so the cache
        // can recycle them later
        let want = if size <= SMALL_MSG { SMALL_MSG } else { size };
        match self.heap.alloc(want) {
            Some(addr) => {
                self.mem.cover(addr as usize + want);
                let msg_id = self.fresh_msg_id();
                Ok(MsgRef { buf: addr, data: addr, len: size as u32, msg_id })
            }
            None => {
                self.mailboxes[mbox as usize].space_wanted = true;
                Err(WouldBlock::NoSpace(space_cond))
            }
        }
    }

    /// End_Put: make the message available to readers; fires reader
    /// wakeups, the host condition, and any reader upcall.
    pub fn end_put(&mut self, mbox: MboxId, msg: MsgRef) {
        let m = &mut self.mailboxes[mbox as usize];
        m.queue.push_back(msg);
        m.delivered += 1;
        m.enq_bytes += msg.len as u64;
        if m.queue.len() as u64 > m.depth_high {
            m.depth_high = m.queue.len() as u64;
        }
        let reader_cond = m.reader_cond;
        let host_cond = m.host_cond;
        let upcall = m.upcall;
        self.notices.wake_conds.push(reader_cond);
        if let Some(u) = upcall {
            self.notices.upcalls.push((u, mbox));
        }
        if let Some(hc) = host_cond {
            self.signal_host_cond(hc);
        }
    }

    /// Begin_Get: take the next message for in-place reading. Its only
    /// failure is an empty mailbox, reported as the reader condition to
    /// wait on.
    pub fn begin_get(&mut self, mbox: MboxId) -> Result<MsgRef, CondId> {
        let m = &mut self.mailboxes[mbox as usize];
        match m.queue.pop_front() {
            Some(msg) => {
                m.deq_msgs += 1;
                m.deq_bytes += msg.len as u64;
                Ok(msg)
            }
            None => {
                let c = m.reader_cond;
                self.mbox_empty_polls += 1;
                Err(c)
            }
        }
    }

    /// End_Get: release the message's storage (possibly into the
    /// mailbox's small-buffer cache) and wake blocked writers.
    pub fn end_get(&mut self, mbox: MboxId, msg: MsgRef) {
        let alloc = self.heap.size_of(msg.buf).expect("end_get of unallocated buffer") as u32;
        let m = &mut self.mailboxes[mbox as usize];
        if alloc as usize == SMALL_MSG && m.cached_buf.is_none() {
            m.cached_buf = Some((msg.buf, alloc));
        } else {
            self.heap.free(msg.buf);
        }
        let space_cond = self.mailboxes[mbox as usize].space_cond;
        self.notices.wake_conds.push(space_cond);
    }

    /// Read a message's bytes (system access — protocol code).
    pub fn msg_bytes(&self, msg: &MsgRef) -> &[u8] {
        self.mem.dma_read(msg.data, msg.len as usize)
    }

    /// Write into a reserved message buffer (system access).
    pub fn msg_write(&mut self, msg: &MsgRef, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= msg.len as usize, "write beyond message");
        self.mem.dma_write(msg.data + offset as u32, data);
    }

    // ------------------------------------------------------------------
    // syncs (§3.4)
    // ------------------------------------------------------------------

    /// Alloc: create (or reuse) a sync slot.
    pub fn sync_alloc(&mut self) -> SyncId {
        for (i, s) in self.syncs.iter_mut().enumerate() {
            if s.free {
                s.free = false;
                s.state = SyncState::Empty;
                return i as SyncId;
            }
        }
        let cond = self.alloc_cond();
        let host_cond = self.create_host_cond();
        self.syncs.push(Sync {
            state: SyncState::Empty,
            written_at: SimTime::ZERO,
            cond,
            host_cond,
            free: false,
        });
        (self.syncs.len() - 1) as SyncId
    }

    /// Write: deposit the value and wake the reader. `now` is the
    /// burst-accurate store time: a reader polling earlier must not
    /// observe the write.
    pub fn sync_write_at(&mut self, id: SyncId, value: u32, now: SimTime) {
        let s = &mut self.syncs[id as usize];
        s.state = SyncState::Written(value);
        s.written_at = now;
        let cond = s.cond;
        let hc = s.host_cond;
        self.notices.wake_conds.push(cond);
        self.signal_host_cond(hc);
    }

    /// Read at `now`: non-blocking attempt; `None` means not yet
    /// written *or not yet visible* (the caller blocks or re-polls).
    pub fn sync_read_at(&mut self, id: SyncId, now: SimTime) -> Option<u32> {
        let s = &mut self.syncs[id as usize];
        match s.state {
            SyncState::Written(v) if s.written_at <= now => {
                s.free = true;
                Some(v)
            }
            _ => None,
        }
    }

    /// The host condition a blocked host sync reader waits on.
    pub fn sync_host_cond(&self, id: SyncId) -> HostCondId {
        self.syncs[id as usize].host_cond
    }

    // ------------------------------------------------------------------
    // host conditions and signal queues (§3.2)
    // ------------------------------------------------------------------

    /// Signal a host condition: bump the poll value; if a host process
    /// is blocked in the driver, post to the host signal queue and
    /// request the VME interrupt.
    pub fn signal_host_cond(&mut self, hc: HostCondId) {
        let c = &mut self.host_conds[hc as usize];
        c.poll_value = c.poll_value.wrapping_add(1);
        if c.wants_interrupt {
            c.wants_interrupt = false;
            self.host_sigq.push_back(hc);
            self.notices.interrupt_host = true;
        }
    }

    /// Host driver: record that a host process is going to sleep on
    /// `hc`; returns the poll value at registration so the caller can
    /// re-check for a lost race.
    pub fn host_cond_register_waiter(&mut self, hc: HostCondId) -> u32 {
        let c = &mut self.host_conds[hc as usize];
        c.wants_interrupt = true;
        c.poll_value
    }

    /// Current poll value (host polling path — the caller charges one
    /// VME word read).
    pub fn host_cond_poll(&self, hc: HostCondId) -> u32 {
        self.host_conds[hc as usize].poll_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> CabShared {
        CabShared::new()
    }

    #[test]
    fn mailbox_two_phase_roundtrip() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let msg = s.begin_put(mb, 1000).unwrap();
        assert_eq!(msg.len, 1000);
        s.msg_write(&msg, 0, b"hello");
        s.end_put(mb, msg);
        let got = s.begin_get(mb).unwrap();
        assert_eq!(&s.msg_bytes(&got)[..5], b"hello");
        s.end_get(mb, got);
        s.heap.check_invariants();
    }

    #[test]
    fn begin_get_empty_blocks() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let rc = s.mailboxes[mb as usize].reader_cond;
        assert_eq!(s.begin_get(mb), Err(rc));
        assert_eq!(s.mbox_empty_polls, 1);
    }

    #[test]
    fn end_put_raises_notices() {
        let mut s = shared();
        let mb = s.create_mailbox(true, HostOpMode::SharedMemory);
        let hc = s.mailboxes[mb as usize].host_cond.unwrap();
        let before = s.host_cond_poll(hc);
        let msg = s.begin_put(mb, 10).unwrap();
        s.end_put(mb, msg);
        let n = s.notices.take();
        assert!(!n.wake_conds.is_empty());
        assert_eq!(s.host_cond_poll(hc), before + 1);
        // no blocked waiter: no interrupt requested
        assert!(!n.interrupt_host);
    }

    #[test]
    fn host_cond_interrupt_when_blocked() {
        let mut s = shared();
        let hc = s.create_host_cond();
        s.host_cond_register_waiter(hc);
        s.signal_host_cond(hc);
        assert!(s.notices.interrupt_host);
        assert_eq!(s.host_sigq.pop_front(), Some(hc));
        // one-shot: a second signal without re-registration does not
        // re-post
        s.notices = Notices::default();
        s.signal_host_cond(hc);
        assert!(!s.notices.interrupt_host);
    }

    #[test]
    fn small_buffer_cache_recycles() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let m1 = s.begin_put(mb, 64).unwrap();
        let addr1 = m1.buf;
        s.end_put(mb, m1);
        let g = s.begin_get(mb).unwrap();
        s.end_get(mb, g); // goes to cache
        assert!(s.mailboxes[mb as usize].cached_buf.is_some());
        let m2 = s.begin_put(mb, 32).unwrap();
        assert_eq!(m2.buf, addr1, "cached buffer must be reused");
        // a large message bypasses the cache entirely
        let big = s.begin_put(mb, 4096).unwrap();
        assert_ne!(big.buf, addr1);
    }

    #[test]
    fn enqueue_moves_without_copy() {
        let mut s = shared();
        let a = s.create_mailbox(false, HostOpMode::SharedMemory);
        let b = s.create_mailbox(false, HostOpMode::SharedMemory);
        let msg = s.begin_put(a, 500).unwrap();
        s.msg_write(&msg, 0, b"ip packet");
        s.end_put(a, msg);
        let mut got = s.begin_get(a).unwrap();
        let orig_buf = got.buf;
        // strip the 3-byte "ip " header in place, then move to b
        got.trim_front(3);
        s.end_put(b, got);
        let final_msg = s.begin_get(b).unwrap();
        assert_eq!(final_msg.buf, orig_buf, "no copy: same buffer");
        assert_eq!(&s.msg_bytes(&final_msg)[..6], b"packet");
        assert_eq!(final_msg.len, 497);
    }

    #[test]
    fn trim_operations() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let mut msg = s.begin_put(mb, 100).unwrap();
        msg.trim_front(10);
        msg.trim_back(20);
        assert_eq!(msg.len, 70);
        assert_eq!(msg.data, msg.buf + 10);
    }

    #[test]
    #[should_panic(expected = "trim beyond")]
    fn overtrim_panics() {
        let mut m = MsgRef { buf: 0, data: 0, len: 4, msg_id: 0 };
        m.trim_front(5);
    }

    #[test]
    fn heap_exhaustion_reports_no_space() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        // grab nearly everything
        let big = s.begin_put(mb, DATA_MEMORY_SIZE - HEAP_BASE as usize - 1024).unwrap();
        match s.begin_put(mb, 600_000) {
            Err(WouldBlock::NoSpace(c)) => {
                assert_eq!(c, s.mailboxes[mb as usize].space_cond);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // returning the buffer clears the pressure
        s.end_put(mb, big);
        let g = s.begin_get(mb).unwrap();
        s.end_get(mb, g);
        let m = s.begin_put(mb, 600_000).unwrap();
        // the image never outgrows the address space: the whole heap
        // still allocates, and backs exactly the heap
        s.end_put(mb, m);
        let g = s.begin_get(mb).unwrap();
        s.end_get(mb, g);
        let whole = s.begin_put(mb, DATA_MEMORY_SIZE - HEAP_BASE as usize).unwrap();
        assert_eq!(whole.buf, HEAP_BASE);
        assert_eq!(s.mem.backed(), DATA_MEMORY_SIZE - HEAP_BASE as usize);
        s.msg_write(&whole, whole.len as usize - 4, b"last");
        assert_eq!(&s.msg_bytes(&whole)[whole.len as usize - 4..], b"last");
    }

    #[test]
    fn image_backs_only_what_the_heap_handed_out() {
        use crate::memory::PAGE_SIZE;
        use crate::proto::MTU;
        let mut s = shared();
        assert_eq!(s.mem.backed(), 0, "a fresh CAB backs no data memory");
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let m = s.begin_put(mb, MTU).unwrap();
        let end = (m.buf - HEAP_BASE) as usize + MTU;
        assert!(s.mem.backed() >= end);
        assert!(s.mem.backed() <= end.next_multiple_of(PAGE_SIZE));
        // a message written before the image grows reads back after it
        s.msg_write(&m, MTU - 5, b"tail!");
        let later = s.begin_put(mb, 4 * MTU).unwrap();
        assert!(s.mem.backed() > end);
        assert_eq!(&s.msg_bytes(&m)[MTU - 5..], b"tail!");
        assert!(s.msg_bytes(&later).iter().all(|&b| b == 0));
    }

    #[test]
    fn sync_lifecycle() {
        let mut s = shared();
        let id = s.sync_alloc();
        let t = SimTime::ZERO + nectar_sim::SimDuration::from_micros(5);
        assert_eq!(s.sync_read_at(id, t), None);
        s.sync_write_at(id, 42, t);
        assert!(!s.notices.wake_conds.is_empty());
        // not visible before the store, consumed at it
        assert_eq!(s.sync_read_at(id, SimTime::ZERO), None);
        assert_eq!(s.sync_read_at(id, t), Some(42));
        // slot is recycled
        let id2 = s.sync_alloc();
        assert_eq!(id, id2);
    }

    #[test]
    fn handle_table_roundtrip() {
        let mut t = HandleTable::default();
        let m = MsgRef { buf: 8, data: 8, len: 4, msg_id: 1 };
        let i = t.insert(m);
        assert_eq!(t.get(i), Some(m));
        let mut m2 = m;
        m2.trim_front(1);
        t.update(i, m2);
        assert_eq!(t.remove(i), Some(m2));
        assert_eq!(t.get(i), None);
        // slots are reused
        let j = t.insert(m);
        assert_eq!(i, j);
    }

    #[test]
    fn msg_ids_are_unique() {
        let mut s = shared();
        let mb = s.create_mailbox(false, HostOpMode::SharedMemory);
        let a = s.begin_put(mb, 8).unwrap();
        let b = s.begin_put(mb, 8).unwrap();
        assert_ne!(a.msg_id, b.msg_id);
    }
}
