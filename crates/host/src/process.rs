//! Host processes and their execution context.
//!
//! §3.2 of the paper: host processes map CAB memory into their address
//! spaces (mmap through the CAB device driver) and then manipulate the
//! shared data structures directly — every access crossing the VME bus
//! at ~1 µs per word. A host process can wait for a host condition
//! variable either by polling (no system call) or by blocking in the
//! driver (woken by the CAB's VME interrupt through the host signal
//! queue).
//!
//! Host processes follow the same burst-atomic model as CAB threads:
//! [`HostProcess::run`] performs one burst against the [`HostCx`],
//! charging host CPU time and VME word costs, and returns a
//! [`HostStep`].

use nectar_cab::proto::Transport;
use nectar_cab::reqs::{self, RrReplyReq, SendReq, UdpSendReq};
use nectar_cab::shared::{
    CabShared, CondId, HostCondId, MboxId, MsgRef, SigEntry, SyncId, WouldBlock,
};
use nectar_sim::{Burst, SimDuration, SimTime, Trace};

use crate::costs::HostCostModel;

/// Host process identifier within one host.
pub type ProcId = u16;

/// How a host process burst ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostStep {
    /// Still runnable.
    Yield,
    /// Block in the CAB driver until the host condition is signalled.
    /// The process must have called [`HostCx::driver_register`] first.
    Block(HostCondId),
    /// Sleep until the deadline (timer syscall).
    Sleep(SimTime),
    /// Process exits.
    Done,
}

/// A host process body.
pub trait HostProcess {
    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep;
    fn name(&self) -> &'static str {
        "proc"
    }
}

/// Effects a host burst produces.
#[derive(Debug)]
pub enum HostEffect {
    /// Raise the interrupt line towards the attached CAB (the CAB
    /// signal queue has new entries).
    InterruptCab,
    /// Transmit an Ethernet frame (the §5.1/§6.3 comparison interface
    /// that bypasses the VME bus). Carries a raw IP packet.
    EthTransmit { dst_host: u16, packet: Vec<u8>, first_byte: SimTime },
}

/// Execution context for one host process burst. `shared` is the
/// mmap'ed CAB memory; every access through the vme_* and mbox_*
/// helpers charges bus time.
pub struct HostCx<'a> {
    pub host_id: u16,
    pub cab_id: u16,
    /// The clock of the burst this context runs in.
    pub burst: Burst,
    pub costs: &'a HostCostModel,
    pub shared: &'a mut CabShared,
    pub fx: &'a mut Vec<HostEffect>,
    pub trace: &'a mut Trace,
    pub(crate) vme_words: u64,
    pub(crate) doorbell: bool,
}

impl<'a> HostCx<'a> {
    pub fn now(&self) -> SimTime {
        self.burst.now()
    }

    pub fn charge(&mut self, d: SimDuration) {
        self.burst.charge(d);
    }

    /// Trace stamp; host nodes are numbered 0x1000 + host id so they
    /// are distinguishable from CABs in a trace.
    pub fn stamp(&mut self, tag: &'static str, info: u64) {
        let now = self.now();
        let node = 0x1000 + self.host_id as u32;
        self.trace.stamp(now, node, tag, info);
    }

    /// Charge `n` VME word accesses.
    pub fn vme(&mut self, n: u32) {
        self.vme_words += n as u64;
        self.charge(self.costs.vme_word * n as u64);
    }

    /// Charge the VME cost of moving `len` payload bytes.
    pub fn vme_bytes(&mut self, len: usize) {
        self.vme_words += (len as u64).div_ceil(4);
        self.charge(self.costs.vme_bytes(len));
    }

    // ------------------------------------------------------------------
    // mailbox operations, shared-memory mode (§3.3)
    // ------------------------------------------------------------------

    /// Begin_Put from the host: pointer manipulation over VME.
    pub fn mbox_begin_put(&mut self, mbox: MboxId, size: usize) -> Result<MsgRef, WouldBlock> {
        self.vme(self.costs.mbox_begin_put_words);
        self.shared.begin_put(mbox, size)
    }

    /// Fill a reserved message across the bus.
    pub fn msg_write(&mut self, msg: &MsgRef, offset: usize, data: &[u8]) {
        self.vme_bytes(data.len());
        self.shared.msg_write(msg, offset, data);
    }

    /// Read message contents across the bus.
    fn msg_read(&mut self, msg: &MsgRef) -> Vec<u8> {
        self.vme_bytes(msg.len as usize);
        self.shared.msg_bytes(msg).to_vec()
    }

    /// End_Put from the host: publish, then notify the CAB through the
    /// signal queue + interrupt (Figure 4's host-to-CAB signaling).
    pub fn mbox_end_put(&mut self, mbox: MboxId, msg: MsgRef) {
        self.vme(self.costs.mbox_end_put_words);
        self.shared.end_put(mbox, msg);
        self.forward_notices_to_cab(Some(mbox));
    }

    /// Begin_Get from the host.
    pub fn mbox_begin_get(&mut self, mbox: MboxId) -> Result<MsgRef, CondId> {
        self.vme(self.costs.mbox_begin_get_words);
        self.shared.begin_get(mbox)
    }

    /// End_Get from the host: release storage. The CAB is only
    /// signalled when a writer actually blocked on heap space — an
    /// unconditional doorbell here would interrupt the CAB on every
    /// message consumed.
    pub fn mbox_end_get(&mut self, mbox: MboxId, msg: MsgRef) {
        self.vme(self.costs.mbox_end_get_words);
        self.shared.end_get(mbox, msg);
        let notices = self.shared.notices.take();
        if self.shared.mailboxes[mbox as usize].space_wanted {
            self.shared.mailboxes[mbox as usize].space_wanted = false;
            for c in notices.wake_conds {
                self.shared.cab_sigq.push_back(SigEntry::CondSignal(c));
            }
            self.vme(2);
            self.doorbell = true;
        }
    }

    /// Translate shared-state notices raised by a host-side operation
    /// into CAB signal-queue entries plus a doorbell interrupt: the
    /// host cannot touch the CAB scheduler directly.
    fn forward_notices_to_cab(&mut self, mbox_written: Option<MboxId>) {
        let notices = self.shared.notices.take();
        let mut posted = false;
        if let Some(mb) = mbox_written {
            if !notices.wake_conds.is_empty() || !notices.upcalls.is_empty() {
                self.shared.cab_sigq.push_back(SigEntry::MailboxWritten(mb));
                posted = true;
            }
        } else {
            for c in notices.wake_conds {
                self.shared.cab_sigq.push_back(SigEntry::CondSignal(c));
                posted = true;
            }
        }
        if posted {
            self.vme(2); // queue entry + doorbell register
            self.doorbell = true;
        }
        // notices.interrupt_host: a host-readable mailbox/sync was
        // touched from the host side itself; the poll value is already
        // visible (single host per CAB)
    }

    /// One-call convenience: build and publish a message (Nectarine's
    /// send path). Returns the message id for tracing.
    pub fn put_message(&mut self, mbox: MboxId, bytes: &[u8]) -> Result<u32, WouldBlock> {
        self.stamp("host_begin_put", mbox as u64);
        self.charge(self.costs.msg_setup);
        let msg = self.mbox_begin_put(mbox, bytes.len())?;
        self.msg_write(&msg, 0, bytes);
        let id = msg.msg_id;
        self.mbox_end_put(mbox, msg);
        self.stamp("host_end_put", id as u64);
        Ok(id)
    }

    /// One-call convenience: take and consume a message, returning its
    /// bytes. Charges the application-level read cost (Figure 6's
    /// "host … reading the message" share) on success.
    pub fn get_message(&mut self, mbox: MboxId) -> Option<(u32, Vec<u8>)> {
        match self.mbox_begin_get(mbox) {
            Ok(msg) => {
                self.stamp("host_begin_get", mbox as u64);
                self.charge(self.costs.msg_setup);
                let bytes = self.msg_read(&msg);
                let id = msg.msg_id;
                self.mbox_end_get(mbox, msg);
                self.stamp("host_end_get", id as u64);
                Some((id, bytes))
            }
            Err(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Nectarine, host side (§5): the same calls as `nectar_cab::proto`,
    // carried out by writing a request into the transport's service
    // mailbox
    // ------------------------------------------------------------------

    /// Send one message over `transport`. `dst` is (CAB, mailbox) —
    /// (CAB, port) for UDP — and `src` the sender's own mailbox or
    /// port, where the peer replies.
    pub fn send(
        &mut self,
        transport: Transport,
        dst: (u16, u16),
        src: u16,
        payload: &[u8],
    ) -> Result<u32, WouldBlock> {
        let nectar = SendReq { dst_cab: dst.0, dst_mbox: dst.1, src_mbox: src };
        let udp = UdpSendReq { dst_cab: dst.0, src_port: src, dst_port: dst.1 };
        let (mbox, req) = match transport {
            Transport::Datagram => (reqs::MB_DG_SEND, nectar.encode(payload)),
            Transport::Rmp => (reqs::MB_RMP_SEND, nectar.encode(payload)),
            Transport::ReqResp => (reqs::MB_RR_SEND, nectar.encode(payload)),
            Transport::Udp => (reqs::MB_UDP_SEND, udp.encode(payload)),
        };
        self.put_message(mbox, &req)
    }

    /// Answer a request-response call read from a service mailbox.
    pub fn rr_reply(&mut self, req: RrReplyReq, payload: &[u8]) -> Result<u32, WouldBlock> {
        self.put_message(reqs::MB_RR_REPLY, &req.encode(payload))
    }

    // ------------------------------------------------------------------
    // host condition variables (§3.2)
    // ------------------------------------------------------------------

    /// Poll a host condition's value (one VME read, no system call).
    pub fn poll_cond(&mut self, hc: HostCondId) -> u32 {
        self.vme(1);
        self.charge(self.costs.poll_iteration);
        self.shared.host_cond_poll(hc)
    }

    /// Register with the driver before blocking (system call). Returns
    /// the poll value at registration: re-check it against what you
    /// have seen before returning [`HostStep::Block`], or you may sleep
    /// through a signal that already happened.
    pub fn driver_register(&mut self, hc: HostCondId) -> u32 {
        self.charge(self.costs.syscall);
        self.shared.host_cond_register_waiter(hc)
    }

    /// The host condition attached to a mailbox, if any.
    pub fn mbox_host_cond(&self, mbox: MboxId) -> Option<HostCondId> {
        self.shared.mailboxes[mbox as usize].host_cond
    }

    // ------------------------------------------------------------------
    // syncs (§3.4) — host side
    // ------------------------------------------------------------------

    /// Host Write offloads execution to the CAB via the signal queue.
    pub fn sync_write(&mut self, id: SyncId, value: u32) {
        self.vme(3);
        self.shared.cab_sigq.push_back(SigEntry::SyncWrite(id, value));
        self.doorbell = true;
    }

    /// Non-blocking host Read: one VME read of the state word; consume
    /// if written and visible by now.
    pub fn sync_poll(&mut self, id: SyncId) -> Option<u32> {
        self.vme(1);
        let now = self.now();
        self.shared.sync_read_at(id, now)
    }

    /// Cancel from the host.
    pub fn sync_cancel(&mut self, id: SyncId) {
        self.vme(2);
        self.shared.cab_sigq.push_back(SigEntry::SyncCancel(id));
        self.doorbell = true;
    }

    /// Allocate a sync (host pool).
    pub fn sync_alloc(&mut self) -> SyncId {
        self.vme(3);
        self.shared.sync_alloc()
    }

    /// The host condition a sync signals on Write.
    pub fn sync_host_cond(&self, id: SyncId) -> HostCondId {
        self.shared.sync_host_cond(id)
    }
}
