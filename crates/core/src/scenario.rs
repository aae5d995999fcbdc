//! Reusable measurement workloads: the host processes and CAB threads
//! behind Table 1, Figures 6–8, the ablations, and the examples.
//!
//! Everything here is written over Nectarine (§5) — `HostCx::send` on
//! the host, `nectar_cab::proto::send` / `tcp_send` on the CAB — plus
//! the mailboxes and host condition variables an application would
//! use, so no workload touches a protocol header and the measured
//! numbers include every cost a real application paid.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nectar_cab::proto;
use nectar_cab::reqs::{self, RrReplyReq, TcpCtl};
use nectar_cab::shared::{HostCondId, MboxId, WouldBlock};
use nectar_cab::{CabThread, Cx, Step};
use nectar_host::{HostCx, HostProcess, HostStep};
use nectar_sim::{Histogram, RateMeter, SimTime};

/// Which transport a ping-pong or echo exercises (Table 1 rows).
pub use nectar_cab::proto::Transport;

/// Shared latency results.
pub type SharedHistogram = Rc<RefCell<Histogram>>;
/// Shared throughput meter.
pub type SharedMeter = Rc<RefCell<RateMeter>>;
/// Shared completion flag.
pub type SharedFlag = Rc<Cell<bool>>;
/// Shared byte counter.
pub type SharedCount = Rc<Cell<u64>>;

/// Encode the 4-byte reply address every echo payload starts with:
/// the requester's CAB id and its reply mailbox (or UDP port). Public
/// so external workload drivers (nectar-load) speak the same format.
pub fn encode_reply_addr(cab: u16, mbox_or_port: u16) -> [u8; 4] {
    let mut b = [0u8; 4];
    b[..2].copy_from_slice(&cab.to_be_bytes());
    b[2..].copy_from_slice(&mbox_or_port.to_be_bytes());
    b
}

/// Inverse of [`encode_reply_addr`].
fn decode_reply_addr(b: &[u8]) -> Option<(u16, u16)> {
    if b.len() < 4 {
        return None;
    }
    Some((u16::from_be_bytes([b[0], b[1]]), u16::from_be_bytes([b[2], b[3]])))
}

/// The reply request for a call delivered into the request-response
/// service mailbox `service_mbox`, and the call's payload.
fn rr_reply_for(service_mbox: MboxId, delivered: &[u8]) -> Option<(RrReplyReq, &[u8])> {
    let (client_cab, reply_mbox, req_id, payload) = reqs::rr_deliver_decode(delivered)?;
    Some((RrReplyReq { service_mbox, client_cab, reply_mbox, req_id }, payload))
}

/// A ping payload: the reply address, padded with a pattern to `size`
/// bytes.
fn ping_payload(cab: u16, reply_id: u16, size: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(size.max(4));
    p.extend_from_slice(&encode_reply_addr(cab, reply_id));
    while p.len() < size {
        p.push((p.len() * 7) as u8);
    }
    p
}

// ----------------------------------------------------------------------
// host-side ping-pong (Table 1 host↔host column, Figure 6)
// ----------------------------------------------------------------------

enum PingState {
    Init,
    Send,
    Wait { sent_at: SimTime },
    Finished,
}

/// A host process measuring round-trip latency over one transport.
pub struct Pinger {
    pub transport: Transport,
    /// Echo service address: (CAB id, mailbox) — or (CAB id, UDP port).
    pub server: (u16, u16),
    /// Local receive mailbox (host-readable).
    pub my_mbox: MboxId,
    /// Local UDP port (UDP transport only).
    pub my_port: u16,
    pub size: usize,
    pub count: u32,
    /// Poll (the fast path of §6.1) or block in the driver.
    pub block: bool,
    pub rtts: SharedHistogram,
    pub done: SharedFlag,
    state: PingState,
    seen_poll: u32,
    hc: Option<HostCondId>,
    seq: u32,
}

impl Pinger {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        transport: Transport,
        server: (u16, u16),
        my_mbox: MboxId,
        my_port: u16,
        size: usize,
        count: u32,
        block: bool,
    ) -> (Pinger, SharedHistogram, SharedFlag) {
        let rtts: SharedHistogram = Rc::new(RefCell::new(Histogram::new()));
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            Pinger {
                transport,
                server,
                my_mbox,
                my_port,
                size,
                count,
                block,
                rtts: rtts.clone(),
                done: done.clone(),
                state: PingState::Init,
                seen_poll: 0,
                hc: None,
                seq: 0,
            },
            rtts,
            done,
        )
    }

    fn send(&mut self, cx: &mut HostCx<'_>) -> Result<u32, WouldBlock> {
        let my_id = self.transport.addr(self.my_mbox, self.my_port);
        let payload = ping_payload(cx.cab_id, my_id, self.size);
        cx.stamp("host_send", self.seq as u64);
        cx.send(self.transport, self.server, my_id, &payload)
    }
}

impl HostProcess for Pinger {
    fn name(&self) -> &'static str {
        "pinger"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        match self.state {
            PingState::Init => {
                self.hc = cx.mbox_host_cond(self.my_mbox);
                if let Some(hc) = self.hc {
                    self.seen_poll = cx.poll_cond(hc);
                }
                if self.transport == Transport::Udp {
                    let m = reqs::udp_bind_encode(self.my_port, self.my_mbox);
                    let _ = cx.put_message(reqs::MB_UDP_CTL, &m);
                }
                self.state = PingState::Send;
                HostStep::Yield
            }
            PingState::Send => {
                let sent_at = cx.now();
                match self.send(cx) {
                    Ok(_) => {
                        self.state = PingState::Wait { sent_at };
                        HostStep::Yield
                    }
                    Err(_) => HostStep::Yield, // heap pressure: retry
                }
            }
            PingState::Wait { sent_at } => {
                // cheap poll first (one VME read)
                if let Some(hc) = self.hc {
                    let v = cx.poll_cond(hc);
                    if v == self.seen_poll {
                        if self.block {
                            let reg = cx.driver_register(hc);
                            if reg == self.seen_poll {
                                return HostStep::Block(hc);
                            }
                        }
                        return HostStep::Yield;
                    }
                    self.seen_poll = v;
                }
                match cx.get_message(self.my_mbox) {
                    Some((_, _bytes)) => {
                        let rtt = cx.now().saturating_since(sent_at);
                        self.rtts.borrow_mut().record(rtt);
                        self.seq += 1;
                        if self.seq >= self.count {
                            self.done.set(true);
                            self.state = PingState::Finished;
                            HostStep::Done
                        } else {
                            self.state = PingState::Send;
                            HostStep::Yield
                        }
                    }
                    None => HostStep::Yield,
                }
            }
            PingState::Finished => HostStep::Done,
        }
    }
}

/// A host process echoing every message back to its sender over the
/// same transport.
pub struct EchoServer {
    pub transport: Transport,
    /// The service mailbox (and, for UDP, the bound port).
    pub recv_mbox: MboxId,
    pub my_port: u16,
    pub block: bool,
    state_init: bool,
    seen_poll: u32,
    hc: Option<HostCondId>,
    pub echoed: SharedCount,
}

impl EchoServer {
    pub fn new(
        transport: Transport,
        recv_mbox: MboxId,
        my_port: u16,
        block: bool,
    ) -> (Self, SharedCount) {
        let echoed: SharedCount = Rc::new(Cell::new(0));
        (
            EchoServer {
                transport,
                recv_mbox,
                my_port,
                block,
                state_init: false,
                seen_poll: 0,
                hc: None,
                echoed: echoed.clone(),
            },
            echoed,
        )
    }
}

impl HostProcess for EchoServer {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        if !self.state_init {
            self.state_init = true;
            self.hc = cx.mbox_host_cond(self.recv_mbox);
            if let Some(hc) = self.hc {
                self.seen_poll = cx.poll_cond(hc);
            }
            if self.transport == Transport::Udp {
                let m = reqs::udp_bind_encode(self.my_port, self.recv_mbox);
                let _ = cx.put_message(reqs::MB_UDP_CTL, &m);
            }
            return HostStep::Yield;
        }
        // drain everything available, then wait
        let mut drained = 0;
        while let Some((_, bytes)) = cx.get_message(self.recv_mbox) {
            drained += 1;
            let sent = match self.transport {
                Transport::ReqResp => rr_reply_for(self.recv_mbox, &bytes)
                    .map(|(req, payload)| cx.rr_reply(req, payload)),
                t => decode_reply_addr(&bytes)
                    .map(|to| cx.send(t, to, t.addr(self.recv_mbox, self.my_port), &bytes)),
            };
            if sent.is_some() {
                self.echoed.set(self.echoed.get() + 1);
            }
            if drained >= 4 {
                return HostStep::Yield;
            }
        }
        if let Some(hc) = self.hc {
            let v = cx.poll_cond(hc);
            if v != self.seen_poll {
                self.seen_poll = v;
                return HostStep::Yield;
            }
            if self.block {
                let reg = cx.driver_register(hc);
                if reg == self.seen_poll {
                    return HostStep::Block(hc);
                }
            }
        }
        HostStep::Yield
    }
}

// ----------------------------------------------------------------------
// host-side streaming (Figure 8)
// ----------------------------------------------------------------------

/// A host process pushing a byte stream to a remote sink over RMP.
pub struct HostRmpStreamer {
    pub dst: (u16, u16),
    pub my_mbox: MboxId,
    pub msg_size: usize,
    pub total_bytes: u64,
    sent: u64,
    pub done: SharedFlag,
}

impl HostRmpStreamer {
    pub fn new(
        dst: (u16, u16),
        my_mbox: MboxId,
        msg_size: usize,
        total_bytes: u64,
    ) -> (Self, SharedFlag) {
        let done: SharedFlag = Rc::new(Cell::new(false));
        (HostRmpStreamer { dst, my_mbox, msg_size, total_bytes, sent: 0, done: done.clone() }, done)
    }
}

impl HostProcess for HostRmpStreamer {
    fn name(&self) -> &'static str {
        "rmp-streamer"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        if self.sent >= self.total_bytes {
            self.done.set(true);
            return HostStep::Done;
        }
        // simple flow control: keep the send-request mailbox shallow so
        // CAB memory is not exhausted (one VME read)
        cx.vme(1);
        if cx.shared.mailboxes[reqs::MB_RMP_SEND as usize].queue.len() >= 4 {
            return HostStep::Yield;
        }
        let n = self.msg_size.min((self.total_bytes - self.sent) as usize);
        let payload = vec![0x5au8; n];
        match cx.send(Transport::Rmp, self.dst, self.my_mbox, &payload) {
            Ok(_) => {
                self.sent += n as u64;
                HostStep::Yield
            }
            Err(_) => HostStep::Yield,
        }
    }
}

/// A host process pushing a byte stream through a TCP connection
/// opened via the CAB's TCP control mailbox.
pub struct HostTcpStreamer {
    pub dst_cab: u16,
    pub port: u16,
    pub my_mbox: MboxId,
    pub chunk: usize,
    pub total_bytes: u64,
    state: TcpStreamState,
    sent: u64,
    pub done: SharedFlag,
}

enum TcpStreamState {
    Open,
    WaitConn { sync: u16 },
    Stream { conn: u16 },
    Finished,
}

impl HostTcpStreamer {
    pub fn new(
        dst_cab: u16,
        port: u16,
        my_mbox: MboxId,
        chunk: usize,
        total_bytes: u64,
    ) -> (Self, SharedFlag) {
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            HostTcpStreamer {
                dst_cab,
                port,
                my_mbox,
                chunk,
                total_bytes,
                state: TcpStreamState::Open,
                sent: 0,
                done: done.clone(),
            },
            done,
        )
    }
}

impl HostProcess for HostTcpStreamer {
    fn name(&self) -> &'static str {
        "tcp-streamer"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        match self.state {
            TcpStreamState::Open => {
                let sync = cx.sync_alloc();
                let ctl = TcpCtl::Open {
                    dst_cab: self.dst_cab,
                    port: self.port,
                    recv_mbox: self.my_mbox,
                    reply_sync: sync,
                };
                let _ = cx.put_message(reqs::MB_TCP_CTL, &ctl.encode());
                self.state = TcpStreamState::WaitConn { sync };
                HostStep::Yield
            }
            TcpStreamState::WaitConn { sync } => match cx.sync_poll(sync) {
                Some(0) => {
                    // refused
                    self.done.set(true);
                    self.state = TcpStreamState::Finished;
                    HostStep::Done
                }
                Some(v) => {
                    self.state = TcpStreamState::Stream { conn: (v - 1) as u16 };
                    HostStep::Yield
                }
                None => HostStep::Yield,
            },
            TcpStreamState::Stream { conn } => {
                if self.sent >= self.total_bytes {
                    let _ = cx.put_message(reqs::MB_TCP_CTL, &TcpCtl::Close { conn }.encode());
                    self.done.set(true);
                    self.state = TcpStreamState::Finished;
                    return HostStep::Done;
                }
                cx.vme(1);
                if cx.shared.mailboxes[reqs::MB_TCP_SEND as usize].queue.len() >= 4 {
                    return HostStep::Yield;
                }
                let n = self.chunk.min((self.total_bytes - self.sent) as usize);
                let payload = vec![0xc3u8; n];
                match cx.put_message(reqs::MB_TCP_SEND, &reqs::tcp_send_encode(conn, &payload)) {
                    Ok(_) => {
                        self.sent += n as u64;
                        HostStep::Yield
                    }
                    Err(_) => HostStep::Yield,
                }
            }
            TcpStreamState::Finished => HostStep::Done,
        }
    }
}

/// A host process draining a mailbox and metering goodput. For TCP
/// sinks it also attaches accepted connections to the data mailbox.
pub struct HostSink {
    pub recv_mbox: MboxId,
    /// When set, treat `recv_mbox` as a TCP accept mailbox feeding
    /// `data_mbox`.
    pub tcp_accept: Option<MboxId>,
    pub expected: u64,
    pub meter: SharedMeter,
    pub received: SharedCount,
    pub done: SharedFlag,
    seen_poll: u32,
    hc: Option<HostCondId>,
    init: bool,
}

impl HostSink {
    pub fn new(
        recv_mbox: MboxId,
        tcp_accept: Option<MboxId>,
        expected: u64,
    ) -> (Self, SharedMeter, SharedCount, SharedFlag) {
        let meter: SharedMeter = Rc::new(RefCell::new(RateMeter::new()));
        let received: SharedCount = Rc::new(Cell::new(0));
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            HostSink {
                recv_mbox,
                tcp_accept,
                expected,
                meter: meter.clone(),
                received: received.clone(),
                done: done.clone(),
                seen_poll: 0,
                hc: None,
                init: false,
            },
            meter,
            received,
            done,
        )
    }
}

impl HostProcess for HostSink {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn run(&mut self, cx: &mut HostCx<'_>) -> HostStep {
        if !self.init {
            self.init = true;
            self.hc = cx.mbox_host_cond(self.recv_mbox);
            if let Some(hc) = self.hc {
                self.seen_poll = cx.poll_cond(hc);
            }
            return HostStep::Yield;
        }
        // TCP mode: attach accepted connections to the data mailbox
        if let Some(accept_mbox) = self.tcp_accept {
            while let Some((_, note)) = cx.get_message(accept_mbox) {
                if let Some((_port, conn)) = reqs::tcp_accept_decode(&note) {
                    let ctl = TcpCtl::Attach { conn, recv_mbox: self.recv_mbox };
                    let _ = cx.put_message(reqs::MB_TCP_CTL, &ctl.encode());
                }
            }
        }
        let mut got_any = false;
        for _ in 0..4 {
            match cx.get_message(self.recv_mbox) {
                Some((_, bytes)) => {
                    got_any = true;
                    let now = cx.now();
                    self.meter.borrow_mut().record(now, bytes.len());
                    self.received.set(self.received.get() + bytes.len() as u64);
                    if self.received.get() >= self.expected {
                        self.done.set(true);
                        return HostStep::Done;
                    }
                }
                None => break,
            }
        }
        if got_any {
            return HostStep::Yield;
        }
        if let Some(hc) = self.hc {
            let v = cx.poll_cond(hc);
            if v != self.seen_poll {
                self.seen_poll = v;
            }
        }
        HostStep::Yield
    }
}

// ----------------------------------------------------------------------
// CAB-resident workloads (Table 1 CAB↔CAB column, Figure 7, §5.3)
// ----------------------------------------------------------------------

/// A CAB thread answering pings over any message transport — the echo
/// half of the CAB↔CAB latency measurements and the echo service behind
/// the load fleet, running entirely on the communication processor. On
/// UDP it owns `port`: it binds `port → recv_mbox` on its first run and
/// replies from that port.
pub struct CabEcho {
    pub transport: Transport,
    pub recv_mbox: MboxId,
    pub port: u16,
    started: bool,
}

impl CabEcho {
    /// `port` is only meaningful on UDP.
    pub fn new(transport: Transport, recv_mbox: MboxId, port: u16) -> Self {
        CabEcho { transport, recv_mbox, port, started: false }
    }
}

impl CabThread for CabEcho {
    fn name(&self) -> &'static str {
        "cab-echo"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if !self.started {
            self.started = true;
            if self.transport == Transport::Udp {
                cx.proto.udp.bind(self.port, self.recv_mbox as u32);
            }
        }
        for _ in 0..cx.proto.burst_limit {
            let Some(bytes) = cx.get_message(self.recv_mbox) else {
                return Step::Block(cx.mbox_cond(self.recv_mbox));
            };
            match self.transport {
                Transport::ReqResp => {
                    if let Some((req, payload)) = rr_reply_for(self.recv_mbox, &bytes) {
                        proto::rr_reply(cx, req, 0, payload);
                    }
                }
                t => {
                    if let Some(to) = decode_reply_addr(&bytes) {
                        proto::send(cx, t, to, t.addr(self.recv_mbox, self.port), &bytes);
                    }
                }
            }
        }
        Step::Yield
    }
}

/// A CAB thread measuring ping-pong latency over a Nectar transport —
/// the client half of the CAB↔CAB column.
pub struct CabPinger {
    pub transport: Transport,
    pub server: (u16, u16),
    pub my_mbox: MboxId,
    /// Local UDP port (UDP transport only); unique per pinger on a CAB.
    pub my_port: u16,
    pub size: usize,
    pub count: u32,
    pub rtts: SharedHistogram,
    pub done: SharedFlag,
    waiting: Option<SimTime>,
    seq: u32,
}

impl CabPinger {
    pub fn new(
        transport: Transport,
        server: (u16, u16),
        my_mbox: MboxId,
        my_port: u16,
        size: usize,
        count: u32,
    ) -> (Self, SharedHistogram, SharedFlag) {
        let rtts: SharedHistogram = Rc::new(RefCell::new(Histogram::new()));
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            CabPinger {
                transport,
                server,
                my_mbox,
                my_port,
                size,
                count,
                rtts: rtts.clone(),
                done: done.clone(),
                waiting: None,
                seq: 0,
            },
            rtts,
            done,
        )
    }
}

impl CabThread for CabPinger {
    fn name(&self) -> &'static str {
        "cab-pinger"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if self.seq == 0 && self.waiting.is_none() && self.transport == Transport::Udp {
            // bind our reply port to the reply mailbox
            let m = reqs::udp_bind_encode(self.my_port, self.my_mbox);
            let _ = cx.put_message(reqs::MB_UDP_CTL, &m);
        }
        match self.waiting {
            None => {
                let sent_at = cx.now();
                let my_id = self.transport.addr(self.my_mbox, self.my_port);
                let payload = ping_payload(cx.cab_id, my_id, self.size);
                proto::send(cx, self.transport, self.server, my_id, &payload);
                self.waiting = Some(sent_at);
                Step::Yield
            }
            Some(sent_at) => {
                let Some(msg) = cx.try_get(self.my_mbox) else {
                    return Step::Block(cx.mbox_cond(self.my_mbox));
                };
                cx.end_get(self.my_mbox, msg);
                let rtt = cx.now().saturating_since(sent_at);
                self.rtts.borrow_mut().record(rtt);
                self.waiting = None;
                self.seq += 1;
                if self.seq >= self.count {
                    self.done.set(true);
                    Step::Done
                } else {
                    Step::Yield
                }
            }
        }
    }
}

/// A CAB thread streaming messages to a remote mailbox over RMP — the
/// Figure 7 sender ("Application tasks executing on two communication
/// processors can obtain 90 Mbit/sec").
pub struct CabRmpStreamer {
    pub dst: (u16, u16),
    pub my_mbox: MboxId,
    /// One full-size message, built once; every send reads from it.
    payload: Vec<u8>,
    pub total_bytes: u64,
    sent: u64,
    pub done: SharedFlag,
}

impl CabRmpStreamer {
    pub fn new(
        dst: (u16, u16),
        my_mbox: MboxId,
        msg_size: usize,
        total_bytes: u64,
    ) -> (Self, SharedFlag) {
        let done: SharedFlag = Rc::new(Cell::new(false));
        let payload = vec![0x77u8; msg_size];
        (CabRmpStreamer { dst, my_mbox, payload, total_bytes, sent: 0, done: done.clone() }, done)
    }
}

impl CabThread for CabRmpStreamer {
    fn name(&self) -> &'static str {
        "cab-rmp-streamer"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if self.sent >= self.total_bytes {
            self.done.set(true);
            return Step::Done;
        }
        let key = (self.dst.0, self.dst.1, self.my_mbox);
        let backlog = cx.proto.rmp_tx().get(&key).map(|s| s.backlog()).unwrap_or(0);
        if backlog >= 2 {
            // wait for ack progress (the interrupt path signals
            // rmp_cond on delivery)
            return Step::Block(cx.proto.rmp_cond);
        }
        let n = self.payload.len().min((self.total_bytes - self.sent) as usize);
        proto::send(cx, Transport::Rmp, self.dst, self.my_mbox, &self.payload[..n]);
        self.sent += n as u64;
        Step::Yield
    }
}

/// A CAB thread streaming over TCP — the Figure 7 TCP sender. The
/// connection is opened through the stack directly ("CAB-resident
/// senders can do this directly without involving the TCP send
/// thread").
pub struct CabTcpStreamer {
    pub dst_cab: u16,
    pub port: u16,
    /// One full-size chunk, built once; every send reads from it.
    payload: Vec<u8>,
    pub total_bytes: u64,
    conn: Option<nectar_stack::tcp::SocketId>,
    sent: u64,
    pub done: SharedFlag,
}

impl CabTcpStreamer {
    pub fn new(dst_cab: u16, port: u16, chunk: usize, total_bytes: u64) -> (Self, SharedFlag) {
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            CabTcpStreamer {
                dst_cab,
                port,
                payload: vec![0x11u8; chunk],
                total_bytes,
                conn: None,
                sent: 0,
                done: done.clone(),
            },
            done,
        )
    }
}

impl CabThread for CabTcpStreamer {
    fn name(&self) -> &'static str {
        "cab-tcp-streamer"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        let now = cx.now();
        let conn = match self.conn {
            Some(c) => c,
            None => {
                let remote = (proto::ip_for_cab(self.dst_cab), self.port);
                let (id, events) = cx.proto.tcp.connect(now, remote, None);
                self.conn = Some(id);
                proto::tcp_events(cx, events);
                return Step::Block(cx.proto.tcp_cond);
            }
        };
        if self.sent >= self.total_bytes {
            let events = cx.proto.tcp.close(now, conn);
            proto::tcp_events(cx, events);
            self.done.set(true);
            return Step::Done;
        }
        let cap = cx.proto.tcp.socket(conn).map(|s| s.send_capacity()).unwrap_or(0);
        if cap == 0 {
            return Step::Block(cx.proto.tcp_cond);
        }
        let n = self.payload.len().min(cap).min((self.total_bytes - self.sent) as usize);
        self.sent += proto::tcp_send(cx, conn, &self.payload[..n]) as u64;
        Step::Yield
    }
}

/// A CAB thread draining a mailbox and metering goodput — the Figure 7
/// receiver.
pub struct CabSink {
    pub recv_mbox: MboxId,
    pub expected: u64,
    pub meter: SharedMeter,
    pub received: SharedCount,
    pub done: SharedFlag,
}

impl CabSink {
    pub fn new(recv_mbox: MboxId, expected: u64) -> (Self, SharedMeter, SharedCount, SharedFlag) {
        let meter: SharedMeter = Rc::new(RefCell::new(RateMeter::new()));
        let received: SharedCount = Rc::new(Cell::new(0));
        let done: SharedFlag = Rc::new(Cell::new(false));
        (
            CabSink {
                recv_mbox,
                expected,
                meter: meter.clone(),
                received: received.clone(),
                done: done.clone(),
            },
            meter,
            received,
            done,
        )
    }
}

impl CabThread for CabSink {
    fn name(&self) -> &'static str {
        "cab-sink"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            // the length is all a sink needs: no copy out
            let Some(msg) = cx.try_get(self.recv_mbox) else {
                return Step::Block(cx.mbox_cond(self.recv_mbox));
            };
            let len = msg.len as usize;
            cx.end_get(self.recv_mbox, msg);
            let now = cx.now();
            self.meter.borrow_mut().record(now, len);
            self.received.set(self.received.get() + len as u64);
            if self.received.get() >= self.expected {
                self.done.set(true);
                return Step::Done;
            }
        }
        Step::Yield
    }
}

/// A CAB thread accepting one TCP connection on `port` and delivering
/// its data to `recv_mbox` via the TCP thread bindings — the Figure 7
/// TCP receiver side (set up through the control mailbox).
pub struct CabTcpListener {
    pub port: u16,
    pub accept_mbox: MboxId,
    pub recv_mbox: MboxId,
    started: bool,
}

impl CabTcpListener {
    pub fn new(port: u16, accept_mbox: MboxId, recv_mbox: MboxId) -> Self {
        CabTcpListener { port, accept_mbox, recv_mbox, started: false }
    }
}

impl CabThread for CabTcpListener {
    fn name(&self) -> &'static str {
        "cab-tcp-listener"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if !self.started {
            self.started = true;
            let ctl = TcpCtl::Listen { port: self.port, accept_mbox: self.accept_mbox };
            let _ = cx.put_message(reqs::MB_TCP_CTL, &ctl.encode());
            return Step::Yield;
        }
        let Some(bytes) = cx.get_message(self.accept_mbox) else {
            return Step::Block(cx.mbox_cond(self.accept_mbox));
        };
        if let Some((_port, conn)) = reqs::tcp_accept_decode(&bytes) {
            let ctl = TcpCtl::Attach { conn, recv_mbox: self.recv_mbox };
            let _ = cx.put_message(reqs::MB_TCP_CTL, &ctl.encode());
        }
        Step::Yield
    }
}

/// One accepted connection of a [`CabTcpEchoServer`].
struct TcpEchoConn {
    id: nectar_stack::tcp::SocketId,
    mbox: MboxId,
    /// Echo data accepted from the mailbox but not yet admitted into
    /// the socket's send buffer (peer window or buffer full).
    pending: proto::SendQueue,
}

/// A CAB thread accepting any number of TCP connections on `port` and
/// echoing every received byte back on the same connection — the TCP
/// echo service behind the multi-client load engine. Each accepted
/// connection gets its own data mailbox, created on the TCP condition
/// so one blocked wait covers accepts, data arrival and window
/// openings alike.
///
/// `accept_mbox` must have been created on the CAB's TCP condition
/// (`create_mailbox_on(..., proto.tcp_cond)`), or the thread can miss
/// accept notifications while blocked.
pub struct CabTcpEchoServer {
    pub port: u16,
    pub accept_mbox: MboxId,
    started: bool,
    conns: Vec<TcpEchoConn>,
}

impl CabTcpEchoServer {
    pub fn new(port: u16, accept_mbox: MboxId) -> Self {
        CabTcpEchoServer { port, accept_mbox, started: false, conns: Vec::new() }
    }
}

impl CabThread for CabTcpEchoServer {
    fn name(&self) -> &'static str {
        "cab-tcp-echo"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if !self.started {
            self.started = true;
            cx.proto.tcp.listen(self.port);
            cx.proto.tcp_accepts.insert(self.port, self.accept_mbox);
            return Step::Block(cx.proto.tcp_cond);
        }
        // new connections: give each a data mailbox on the TCP
        // condition and attach it through the TCP thread (which also
        // drains anything already buffered in the socket)
        while let Some(bytes) = cx.get_message(self.accept_mbox) {
            if let Some((_port, conn)) = reqs::tcp_accept_decode(&bytes) {
                let tc = cx.proto.tcp_cond;
                let mbox =
                    cx.shared.create_mailbox_on(false, nectar_cab::HostOpMode::SharedMemory, tc);
                let ctl = TcpCtl::Attach { conn, recv_mbox: mbox };
                let _ = cx.put_message(reqs::MB_TCP_CTL, &ctl.encode());
                self.conns.push(TcpEchoConn {
                    id: conn as nectar_stack::tcp::SocketId,
                    mbox,
                    pending: proto::SendQueue::default(),
                });
            }
        }
        // echo: drain each connection's mailbox, then pump as much as
        // the socket will take; the remainder waits for window opening.
        // One wake covers every connection, so an idle connection's
        // mailbox must cost nothing to skip (`Cx::try_get`).
        for c in &mut self.conns {
            while let Some(bytes) = cx.get_message(c.mbox) {
                if !bytes.is_empty() {
                    c.pending.push_back(bytes);
                }
            }
            while let Some(chunk) = c.pending.front() {
                let n = proto::tcp_send(cx, c.id, chunk);
                let admitted_all = n == chunk.len();
                c.pending.advance(n);
                if !admitted_all {
                    break;
                }
            }
        }
        Step::Block(cx.proto.tcp_cond)
    }
}

// ----------------------------------------------------------------------
// many-node sustained load (the `stream_twohub` / `lossy_twohub`
// benchmark workloads and the determinism regressions)
// ----------------------------------------------------------------------

/// Build a sustained pairwise traffic mix over an even number of CABs:
/// every CAB belongs to exactly one (source, sink) pair, pairs
/// alternate between RMP and TCP streams, and — under the interleaved
/// [`crate::topology::Topology::two_hubs`] attachment — the mix covers
/// both same-HUB ports and the inter-HUB trunk.
///
/// Setup order is fixed, so two worlds built with the same seed and
/// the same arguments evolve identically event for event. Returns one
/// `(received-bytes, done)` handle pair per stream, in pair order.
pub fn two_hub_pair_load(
    world: &mut crate::world::World,
    bytes_per_pair: u64,
    msg_size: usize,
) -> Vec<(SharedCount, SharedFlag)> {
    use nectar_cab::HostOpMode;
    let n = world.topo.cabs();
    assert!(n >= 2 && n.is_multiple_of(2), "pairwise load needs an even CAB count");
    // Pair layout: among the first 12 CABs, partner CABs two apart
    // (same HUB under the interleaved attachment); the rest pair with
    // their neighbour (opposite HUBs, crossing the trunk).
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let quads = (n.min(12)) / 4;
    for j in 0..quads {
        pairs.push((4 * j, 4 * j + 2));
        pairs.push((4 * j + 1, 4 * j + 3));
    }
    let mut k = 4 * quads;
    while k + 1 < n {
        pairs.push((k, k + 1));
        k += 2;
    }
    let mut handles = Vec::with_capacity(pairs.len());
    for (idx, (src, dst)) in pairs.into_iter().enumerate() {
        let sink_mbox = world.cabs[dst].shared.create_mailbox(false, HostOpMode::SharedMemory);
        let (sink, _meter, received, done) = CabSink::new(sink_mbox, bytes_per_pair);
        if idx % 2 == 0 {
            // RMP stream (stop-and-wait with retransmission timers)
            let src_mbox = world.cabs[src].shared.create_mailbox(false, HostOpMode::SharedMemory);
            world.cabs[dst].fork_app(Box::new(sink));
            let (streamer, _) =
                CabRmpStreamer::new((dst as u16, sink_mbox), src_mbox, msg_size, bytes_per_pair);
            world.cabs[src].fork_app(Box::new(streamer));
        } else {
            // TCP stream (RTO + delayed-ACK timer traffic)
            let accept = world.cabs[dst].shared.create_mailbox(false, HostOpMode::SharedMemory);
            world.cabs[dst].fork_app(Box::new(CabTcpListener::new(5000, accept, sink_mbox)));
            world.cabs[dst].fork_app(Box::new(sink));
            let (streamer, _) = CabTcpStreamer::new(dst as u16, 5000, msg_size, bytes_per_pair);
            world.cabs[src].fork_app(Box::new(streamer));
        }
        handles.push((received, done));
    }
    handles
}
