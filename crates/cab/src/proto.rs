//! Protocol state and server threads on the CAB.
//!
//! §4 of the paper: "Time-critical functions are performed by
//! interrupt handlers and mailbox upcalls, most others by system
//! threads. Mailboxes are used throughout for the management of data
//! areas." Concretely:
//!
//! * IP input processing runs at interrupt time (§4.1) — or, as the
//!   experiment §3.1 proposes (ablation A1), in a high-priority
//!   thread when [`ProtoState::ip_in_thread`] is set.
//! * ICMP is a mailbox upcall on the ICMP input mailbox.
//! * TCP and UDP each run in system threads, blocked on their input
//!   and send-request mailboxes.
//! * The Nectar-specific protocols: datagram send requests are served
//!   by a thread (Figure 6's "CAB thread must be scheduled" stage);
//!   datagram/RMP/request-response *receive* processing runs at
//!   interrupt time, which is what makes the datagram row of Table 1
//!   the fastest path in the system.
//!
//! This is also where the CAB side of Nectarine (§5) lives: [`send`]
//! over the four message [`Transport`]s, built on one function per
//! transport — [`datagram_send`], [`rmp_submit`], [`rr_call`] /
//! [`rr_reply`], [`udp_send`] — plus [`tcp_send`] for connections. The
//! server threads call the same functions on behalf of host processes
//! (whose side is `nectar_host::HostCx::send`), so each transport's
//! header, cost charges and addressing are written once.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use nectar_sim::{Deadlines, SimTime};
use nectar_stack::collective::{CollectiveAction, CollectiveConfig, CollectiveEngine};
use nectar_stack::icmp::{IcmpEngine, IcmpInput};
use nectar_stack::ip::{IpEndpoint, IpInput};
use nectar_stack::reqresp::{RrClient, RrClientAction, RrConfig, RrServer, RrServerAction};
use nectar_stack::rmp::{RmpConfig, RmpReceiver, RmpRecvAction, RmpSendAction, RmpSender};
use nectar_stack::tcp::{SocketId, TcpConfig, TcpEvent, TcpStack, TcpStackEvent};
use nectar_stack::udp::{UdpEndpoint, UdpInput};
use nectar_wire::collective::CombineOp;
use nectar_wire::datalink::DatalinkProto;
use nectar_wire::framebuf::FrameBuf;
use nectar_wire::icmp::UnreachableCode;
use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
use nectar_wire::nectar::{DatagramHeader, ReqRespHeader, ReqRespKind, RmpHeader, RmpKind};

use crate::reqs::{self, RrReplyReq, SendReq, TcpCtl, UdpSendReq};
use crate::runtime::{CabThread, Cx, Step, Upcall};
use crate::shared::{CondId, HostOpMode, MboxId};

/// Datalink payload limit for IP packets and RMP fragments: an 8 KiB
/// message plus its headers fits in one packet, matching the paper's
/// Figure 7/8 sweeps up to 8192 bytes.
pub const MTU: usize = 8 * 1024 + 64;

/// Map a CAB node id to its IP address (10.0.x.y, starting at
/// 10.0.0.1 for CAB 0).
pub fn ip_for_cab(cab: u16) -> Ipv4Addr {
    let v = cab as u32 + 1;
    Ipv4Addr::new(10, 0, (v >> 8) as u8, v as u8)
}

/// Inverse of [`ip_for_cab`].
fn cab_for_ip(ip: Ipv4Addr) -> Option<u16> {
    let o = ip.octets();
    if o[0] != 10 || o[1] != 0 {
        return None;
    }
    let v = ((o[2] as u32) << 8) | o[3] as u32;
    if v == 0 {
        return None;
    }
    Some((v - 1) as u16)
}

/// The message transports Nectarine offers (the rows of Table 1). TCP
/// is a byte stream over a connection: see [`tcp_send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    Datagram,
    Rmp,
    ReqResp,
    Udp,
}

impl Transport {
    /// What a peer addresses an endpoint of this transport by: its UDP
    /// port, or its mailbox on the Nectar-native transports.
    pub fn addr(self, mbox: MboxId, port: u16) -> u16 {
        if self == Transport::Udp {
            port
        } else {
            mbox
        }
    }
}

/// Send data accepted in chunks and not yet admitted into a socket's
/// send buffer. A partly admitted chunk stays in place and only the
/// read offset moves: the unsent tail is never re-copied.
#[derive(Debug, Default)]
pub struct SendQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already admitted.
    offset: usize,
}

impl SendQueue {
    pub fn push_back(&mut self, chunk: Vec<u8>) {
        self.chunks.push_back(chunk);
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The unadmitted rest of the oldest chunk.
    pub fn front(&self) -> Option<&[u8]> {
        self.chunks.front().map(|c| &c[self.offset..])
    }

    /// The socket admitted `n` bytes of [`Self::front`].
    pub fn advance(&mut self, n: usize) {
        self.offset += n;
        if self.chunks.front().is_some_and(|c| self.offset >= c.len()) {
            self.chunks.pop_front();
            self.offset = 0;
        }
    }
}

/// Per-connection TCP bookkeeping on the CAB side.
#[derive(Debug, Default)]
pub struct TcpConn {
    /// Where in-order received data is delivered.
    pub recv_mbox: Option<MboxId>,
    /// Sync to complete when an active open finishes (socket id + 1,
    /// or 0 on failure).
    pub reply_sync: Option<u16>,
    /// Data accepted from send requests but not yet admitted into the
    /// socket's send buffer (window/buffer full).
    pub pending: SendQueue,
    /// Listening port this connection arrived on (passive opens).
    pub port: Option<u16>,
    pub established: bool,
    /// EOF marker delivered.
    pub eof_sent: bool,
    /// Close requested while send data was still queued (here or in
    /// the send-request mailbox); the FIN goes out once it is all
    /// admitted to the socket.
    pub close_requested: bool,
}

/// Counters for the protocol layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtoStats {
    pub frames_in: u64,
    pub crc_drops: u64,
    pub no_mbox_drops: u64,
    pub no_space_drops: u64,
    pub datagrams_in: u64,
    pub datagrams_out: u64,
    pub rmp_msgs_in: u64,
    pub rr_requests_in: u64,
    pub bad_requests: u64,
    pub ip_packets_in: u64,
}

/// An RMP send channel's key: `(dst_cab, dst_mbox, src_mbox)`.
type RmpKey = (u16, u16, u16);

/// All protocol engines and bindings on one CAB.
pub struct ProtoState {
    pub ip: IpEndpoint,
    pub icmp: IcmpEngine,
    pub udp: UdpEndpoint,
    pub tcp: TcpStack,
    pub rmp_rx: RmpReceiver,
    rmp_tx: BTreeMap<RmpKey, RmpSender>,
    pub rmp_cfg: RmpConfig,
    rr_clients: BTreeMap<u16, RrClient>,
    pub rr_servers: BTreeMap<u16, RrServer>,
    pub rr_cfg: RrConfig,
    pub tcp_conns: BTreeMap<SocketId, TcpConn>,
    /// Listening port → accept-notification mailbox.
    pub tcp_accepts: BTreeMap<u16, MboxId>,
    /// Ping replies (ICMP echo) are delivered here when set.
    pub ping_mbox: Option<MboxId>,
    /// In-network collectives: multicast fan-out, tree barrier,
    /// reduction combining (DESIGN.md §16).
    coll: CollectiveEngine,
    /// Collective notifications ([`reqs::CollNote`]) land here when the
    /// application registers a mailbox.
    pub coll_mbox: Option<MboxId>,
    /// Ablation A1: process IP input in a thread instead of at
    /// interrupt level.
    pub ip_in_thread: bool,
    /// How many mailbox entries a server thread dequeues per burst
    /// before yielding. The legacy value [`BURST_LIMIT`] keeps bursts
    /// short for interrupt latency; the batched host-I/O fast path
    /// raises it to amortize context switches under load.
    pub burst_limit: usize,
    pub stats: ProtoStats,
    /// Shared reader conditions for the server threads.
    pub tcp_cond: CondId,
    pub udp_cond: CondId,
    pub rmp_cond: CondId,
    pub rr_cond: CondId,
    pub dg_cond: CondId,
    pub ip_cond: CondId,
    pub coll_cond: CondId,
    /// Each RMP send channel's and request-response client's
    /// retransmission deadline, and the collective engine's, re-read
    /// after every change to that instance.
    rmp_deadlines: Deadlines<RmpKey>,
    rr_deadlines: Deadlines<u16>,
    coll_deadline: Option<SimTime>,
}

impl ProtoState {
    /// The IP address of the CAB this state belongs to.
    pub fn addr(&self) -> Ipv4Addr {
        self.ip.addr()
    }

    /// RMP send channels by `(dst_cab, dst_mbox, src_mbox)`.
    pub fn rmp_tx(&self) -> &BTreeMap<RmpKey, RmpSender> {
        &self.rmp_tx
    }

    /// Run `op` on RMP send channel `key`, if it is open, and re-index
    /// its deadline.
    fn with_rmp_tx<R>(&mut self, key: RmpKey, op: impl FnOnce(&mut RmpSender) -> R) -> Option<R> {
        let sender = self.rmp_tx.get_mut(&key)?;
        let out = op(sender);
        self.rmp_deadlines.set(key, sender.next_wakeup());
        Some(out)
    }

    /// Request-response clients by reply mailbox.
    pub fn rr_clients(&self) -> &BTreeMap<u16, RrClient> {
        &self.rr_clients
    }

    /// Run `op` on the request-response client bound to reply mailbox
    /// `mbox`, if there is one, and re-index its deadline.
    fn with_rr_client<R>(&mut self, mbox: u16, op: impl FnOnce(&mut RrClient) -> R) -> Option<R> {
        let client = self.rr_clients.get_mut(&mbox)?;
        let out = op(client);
        self.rr_deadlines.set(mbox, client.next_wakeup());
        Some(out)
    }

    /// The collective engine.
    pub fn coll(&self) -> &CollectiveEngine {
        &self.coll
    }

    /// Run `op` on the collective engine and re-read its deadline.
    pub fn with_coll<R>(&mut self, op: impl FnOnce(&mut CollectiveEngine) -> R) -> R {
        let out = op(&mut self.coll);
        self.coll_deadline = self.coll.next_wakeup();
        out
    }

    /// Earliest retransmission deadline of the RMP send channels, the
    /// request-response clients and the collective engine, checked
    /// against a scan of every instance in debug builds.
    pub(crate) fn next_wakeups(&self) -> [Option<SimTime>; 3] {
        let next = [self.rmp_deadlines.peek(), self.rr_deadlines.peek(), self.coll_deadline];
        let rmp = || self.rmp_tx.values().filter_map(RmpSender::next_wakeup).min();
        let rr = || self.rr_clients.values().filter_map(RrClient::next_wakeup).min();
        debug_assert_eq!(
            next,
            [rmp(), rr(), self.coll.next_wakeup()],
            "a protocol instance changed without re-indexing"
        );
        next
    }
}

/// Build the protocol state and well-known mailboxes for CAB `id`.
/// Must run before any user mailboxes are created so the ids in
/// [`crate::reqs`] hold.
pub fn init_protocols(
    shared: &mut crate::shared::CabShared,
    id: u16,
    tcp_cfg: TcpConfig,
    seed: u64,
) -> ProtoState {
    let addr = ip_for_cab(id);
    let tcp_cond = shared.alloc_cond();
    let udp_cond = shared.alloc_cond();
    let rmp_cond = shared.alloc_cond();
    let rr_cond = shared.alloc_cond();
    let dg_cond = shared.alloc_cond();
    let ip_cond = shared.alloc_cond();
    // room for the fourteen well-known mailboxes and two application
    // ones, so booting never regrows the table
    shared.mailboxes.reserve(16);
    // host-writable request mailboxes, in the fixed well-known order
    let ids = [
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, dg_cond), // MB_DG_SEND
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, rmp_cond), // MB_RMP_SEND
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, rr_cond), // MB_RR_SEND
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, rr_cond), // MB_RR_REPLY
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, tcp_cond), // MB_TCP_CTL
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, tcp_cond), // MB_TCP_SEND
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, udp_cond), // MB_UDP_CTL
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, udp_cond), // MB_UDP_SEND
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, ip_cond), // MB_IP_IN
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, tcp_cond), // MB_TCP_IN
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, udp_cond), // MB_UDP_IN
        shared.create_mailbox(false, HostOpMode::SharedMemory),             // MB_ICMP_IN
        shared.create_mailbox(true, HostOpMode::SharedMemory),              // MB_RAW_IN
        shared.create_mailbox_on(false, HostOpMode::SharedMemory, ip_cond), // MB_RAW_SEND
    ];
    assert_eq!(ids[0], reqs::MB_DG_SEND);
    assert_eq!(ids[13], reqs::MB_RAW_SEND);
    // allocated after the well-known mailboxes so their ids stay pinned
    let coll_cond = shared.alloc_cond();
    ProtoState {
        ip: IpEndpoint::new(addr),
        icmp: IcmpEngine::new(),
        udp: UdpEndpoint::new(),
        tcp: TcpStack::new(addr, tcp_cfg, seed ^ 0x7cb0),
        rmp_rx: RmpReceiver::new(),
        rmp_tx: BTreeMap::new(),
        rmp_cfg: RmpConfig { max_fragment: MTU, ..Default::default() },
        rr_clients: BTreeMap::new(),
        rr_servers: BTreeMap::new(),
        rr_cfg: RrConfig::default(),
        tcp_conns: BTreeMap::new(),
        tcp_accepts: BTreeMap::new(),
        ping_mbox: None,
        coll: CollectiveEngine::new(CollectiveConfig::default()),
        coll_mbox: None,
        ip_in_thread: false,
        burst_limit: BURST_LIMIT,
        stats: ProtoStats::default(),
        tcp_cond,
        udp_cond,
        rmp_cond,
        rr_cond,
        dg_cond,
        ip_cond,
        coll_cond,
        rmp_deadlines: Deadlines::new(),
        rr_deadlines: Deadlines::new(),
        coll_deadline: None,
    }
}

// ----------------------------------------------------------------------
// helpers shared by threads and interrupt handlers
// ----------------------------------------------------------------------

/// Deliver `prefix + payload` as one message into `mbox`. Drops (with
/// a counter) when the mailbox does not exist or the heap is full —
/// the unreliable-layer semantics of the datagram path.
fn deliver_to_mbox(cx: &mut Cx<'_>, mbox: MboxId, prefix: &[u8], payload: &[u8]) -> bool {
    deliver_with(cx, mbox, prefix.len() + payload.len(), |cx, m| {
        cx.shared.msg_write(m, 0, prefix);
        cx.shared.msg_write(m, prefix.len(), payload);
    })
}

/// Deliver one `len`-byte message into `mbox`, written in place by
/// `fill` — so a source that cannot be borrowed across the call (a
/// socket's receive ring inside `cx.proto`) still reaches the mailbox
/// without an intermediate buffer. Payload movement is DMA / pointer
/// work, not a CPU copy, and is not charged.
fn deliver_with(
    cx: &mut Cx<'_>,
    mbox: MboxId,
    len: usize,
    fill: impl FnOnce(&mut Cx<'_>, &crate::shared::MsgRef),
) -> bool {
    if mbox as usize >= cx.shared.mailboxes.len() {
        cx.proto.stats.no_mbox_drops += 1;
        return false;
    }
    match cx.begin_put(mbox, len) {
        Ok(m) => {
            fill(cx, &m);
            cx.end_put(mbox, m);
            true
        }
        Err(_) => {
            cx.proto.stats.no_space_drops += 1;
            false
        }
    }
}

/// IP_Output (§4.1): wrap a transport payload and hand the resulting
/// packets to the datalink layer, each as its header beside the data
/// it carries — the frame is where the two first become contiguous.
pub fn ip_output(cx: &mut Cx<'_>, dst: Ipv4Addr, protocol: IpProtocol, payload: &[u8]) {
    cx.charge(cx.costs.ip_proc);
    cx.charge(cx.costs.ip_header_checksum);
    let packets = cx.proto.ip.packetize(dst, protocol, payload.len(), MTU);
    let Some(dst_cab) = cab_for_ip(dst) else {
        cx.proto.stats.no_mbox_drops += 1;
        return;
    };
    for (header, range) in packets {
        let (header, data) = (header.to_bytes(), &payload[range]);
        if dst_cab == cx.cab_id {
            // loopback: straight back into input processing
            process_ip_input(cx, &[&header, data].concat());
        } else {
            cx.datalink_send_parts(dst_cab, DatalinkProto::Ip, 0, &[&header, data]);
        }
    }
}

/// IP input processing (§4.1). Runs at interrupt level by default, or
/// from the IP thread in ablation A1. Demultiplexes complete datagrams
/// to the higher protocols' input mailboxes with Enqueue semantics.
fn process_ip_input(cx: &mut Cx<'_>, packet: &[u8]) {
    cx.charge(cx.costs.ip_proc);
    cx.charge(cx.costs.ip_header_checksum);
    cx.proto.stats.ip_packets_in += 1;
    let now = cx.now();
    match cx.proto.ip.input(now, packet) {
        IpInput::Delivered { header, payload } => {
            // The datagram as the higher protocol's thread parses it: a
            // packet that arrived whole goes up as it arrived (its
            // header was validated a moment ago), a reassembled one
            // under the header reassembly rebuilt for it.
            let full = || match &payload {
                Cow::Borrowed(_) => Cow::Borrowed(&packet[..header.total_len as usize]),
                Cow::Owned(data) => Cow::Owned(header.build_packet(data)),
            };
            match header.protocol {
                IpProtocol::ICMP => {
                    let src = header.src.octets();
                    deliver_to_mbox(cx, reqs::MB_ICMP_IN, &src, &payload);
                }
                IpProtocol::TCP => {
                    deliver_to_mbox(cx, reqs::MB_TCP_IN, &[], &full());
                }
                IpProtocol::UDP => {
                    deliver_to_mbox(cx, reqs::MB_UDP_IN, &[], &full());
                }
                _ => {
                    let msg = cx.proto.icmp.unreachable_for(&full(), UnreachableCode::Protocol);
                    ip_output(cx, header.src, IpProtocol::ICMP, &msg.build());
                }
            }
        }
        IpInput::FragmentHeld => {}
        IpInput::NotForUs | IpInput::Bad(_) => {
            cx.proto.stats.no_mbox_drops += 1;
        }
    }
    // reassembly expiry is progress-driven: check on every input
    let expired = cx.proto.ip.poll_expired(now);
    for e in expired {
        if let Some(quote) = e.original {
            let msg = cx.proto.icmp.time_exceeded_for(quote);
            ip_output(cx, e.src, IpProtocol::ICMP, &msg.build());
        }
    }
}

/// Submit an RMP message on the (dst_cab, dst_mbox, src_mbox) channel
/// and push out whatever the stop-and-wait window allows. The channel
/// keeps the message until it is acknowledged, so it takes `payload`
/// by value: the caller's one copy out of wherever the message lay is
/// the copy the sender retransmits from.
fn rmp_submit(cx: &mut Cx<'_>, req: SendReq, payload: Vec<u8>) {
    if req.dst_cab == cx.cab_id {
        deliver_to_mbox(cx, req.dst_mbox, &[], &payload);
        return;
    }
    let key = (req.dst_cab, req.dst_mbox, req.src_mbox);
    let cfg = cx.proto.rmp_cfg;
    let now = cx.now();
    cx.proto
        .rmp_tx
        .entry(key)
        .or_insert_with(|| RmpSender::new(req.dst_cab, req.dst_mbox, req.src_mbox, cfg));
    let mut acts = Vec::new();
    cx.proto.with_rmp_tx(key, |sender| {
        sender.send(payload);
        sender.poll(now, &mut acts);
    });
    run_rmp_send_actions(cx, acts);
}

fn run_rmp_send_actions(cx: &mut Cx<'_>, acts: Vec<RmpSendAction>) {
    for act in acts {
        match act {
            RmpSendAction::Transmit { dst_cab, packet } => {
                cx.charge(cx.costs.rmp_proc);
                cx.datalink_send(dst_cab, DatalinkProto::Rmp, 0, &packet);
            }
            RmpSendAction::Delivered { .. } | RmpSendAction::Failed { .. } => {
                // wake application threads flow-controlled on RMP
                // progress (and the RMP server thread)
                let c = cx.proto.rmp_cond;
                cx.shared.notices.wake_conds.push(c);
            }
        }
    }
}

/// Issue a request-response call from this CAB. Returns the request id,
/// or 0 when the call was rejected (the reply mailbox is bound to a
/// different server with calls still outstanding).
pub fn rr_call(cx: &mut Cx<'_>, req: SendReq, payload: &[u8]) -> u32 {
    let cfg = cx.proto.rr_cfg;
    let now = cx.now();
    // A reply mailbox binds to exactly one (cab, service mailbox):
    // replies carry only (reply_mbox, req_id), so calls to two servers
    // through one mailbox would collide on req_id. Rebind an idle
    // client; refuse while calls are outstanding — silently reusing the
    // old binding would send the request to the *previous* server.
    if let Some(existing) = cx.proto.rr_clients.get(&req.src_mbox) {
        if existing.server() != (req.dst_cab, req.dst_mbox) {
            if existing.outstanding() > 0 {
                cx.proto.stats.bad_requests += 1;
                return 0;
            }
            // idle: no deadline to retire
            cx.proto.rr_clients.remove(&req.src_mbox);
        }
    }
    cx.proto
        .rr_clients
        .entry(req.src_mbox)
        .or_insert_with(|| RrClient::new(req.dst_cab, req.dst_mbox, req.src_mbox, cfg));
    let mut acts = Vec::new();
    let id = cx
        .proto
        .with_rr_client(req.src_mbox, |client| client.call(now, payload.to_vec(), &mut acts))
        .expect("client just bound");
    for act in acts {
        run_rr_client_action(cx, req.src_mbox, act);
    }
    id
}

/// Apply one action of the client bound to `reply_mbox`.
fn run_rr_client_action(cx: &mut Cx<'_>, reply_mbox: u16, act: RrClientAction) {
    match act {
        RrClientAction::Transmit { dst_cab, packet } => {
            cx.charge(cx.costs.reqresp_proc);
            cx.datalink_send(dst_cab, DatalinkProto::ReqResp, 0, &packet);
        }
        RrClientAction::Response { req_id, payload } => {
            // responses are normally delivered by the interrupt handler
            // straight into the reply mailbox; this arm is reached for
            // loopback calls, which must land in the *calling* client's
            // mailbox — not an arbitrary one
            let prefix = req_id.to_be_bytes();
            deliver_to_mbox(cx, reply_mbox, &prefix, &payload);
        }
        RrClientAction::Failed { .. } => cx.proto.stats.bad_requests += 1,
    }
}

/// Send an unreliable datagram to `req.dst_mbox` on `req.dst_cab`;
/// delivery within this CAB skips the wire.
fn datagram_send(cx: &mut Cx<'_>, req: SendReq, msg_id: u32, payload: &[u8]) {
    cx.charge(cx.costs.datagram_proc);
    cx.stamp("cab_dg_send", msg_id as u64);
    if req.dst_cab == cx.cab_id {
        deliver_to_mbox(cx, req.dst_mbox, &[], payload);
        return;
    }
    let pkt = DatagramHeader { dst_mbox: req.dst_mbox, src_mbox: req.src_mbox }.build(payload);
    cx.datalink_send(req.dst_cab, DatalinkProto::Datagram, msg_id, &pkt);
}

/// Send a UDP datagram from `req.src_port` through IP.
fn udp_send(cx: &mut Cx<'_>, req: UdpSendReq, payload: &[u8]) {
    cx.charge(cx.costs.udp_proc);
    let src = cx.proto.addr();
    let dst = ip_for_cab(req.dst_cab);
    let dgram = cx.proto.udp.output(src, req.src_port, dst, req.dst_port, payload);
    cx.charge(cx.costs.checksum(dgram.len()));
    ip_output(cx, dst, IpProtocol::UDP, &dgram);
}

/// Answer a request delivered into `req.service_mbox`: the server half
/// of [`rr_call`].
pub fn rr_reply(cx: &mut Cx<'_>, req: RrReplyReq, msg_id: u32, payload: &[u8]) {
    let mut acts = Vec::new();
    let server = cx.proto.rr_servers.entry(req.service_mbox).or_default();
    server.reply(req.client_cab, req.reply_mbox, req.req_id, payload.to_vec(), &mut acts);
    for act in acts {
        match act {
            RrServerAction::Transmit { dst_cab, packet } => {
                cx.charge(cx.costs.reqresp_proc);
                if dst_cab == cx.cab_id {
                    // loopback reply
                    rx_dispatch(cx, DatalinkProto::ReqResp, dst_cab, 0, FrameBuf::new(packet));
                } else {
                    cx.datalink_send(dst_cab, DatalinkProto::ReqResp, msg_id, &packet);
                }
            }
            RrServerAction::Execute { .. } => unreachable!("reply path"),
        }
    }
}

/// Apply what the TCP stack asked for: segments leave through IP (with
/// the software checksum charged), socket events update the connection
/// table and notify the mailboxes bound to it. Every caller of the
/// stack — the TCP thread and CAB-resident applications alike — hands
/// its events here.
pub fn tcp_events(cx: &mut Cx<'_>, events: Vec<TcpStackEvent>) {
    for ev in events {
        match ev {
            TcpStackEvent::Transmit { dst, segment } => {
                if cx.proto.tcp.config().compute_checksum {
                    cx.charge(cx.costs.checksum(segment.len()));
                }
                ip_output(cx, dst, IpProtocol::TCP, &segment);
            }
            TcpStackEvent::Incoming { id, local_port } => {
                let conn = cx.proto.tcp_conns.entry(id).or_default();
                conn.port = Some(local_port);
            }
            TcpStackEvent::Socket { id, event } => TcpThread::handle_socket_event(cx, id, event),
            TcpStackEvent::Dropped => {}
        }
    }
}

/// Queue `data` on a connection from a CAB-resident sender (§4.2:
/// "CAB-resident senders can do this directly without involving the
/// TCP send thread") and transmit what the window allows, timed by the
/// clock after the send's processing is charged. Returns the bytes the
/// socket accepted.
pub fn tcp_send(cx: &mut Cx<'_>, id: SocketId, data: &[u8]) -> usize {
    cx.charge(cx.costs.tcp_proc);
    let now = cx.now();
    let (n, events) = cx.proto.tcp.send(now, id, data);
    tcp_events(cx, events);
    n
}

/// Nectarine's send: one message over `transport` from a CAB-resident
/// caller. `dst` is (CAB, mailbox) — (CAB, port) for UDP — and `src`
/// the sender's own mailbox or port, where the peer replies. Returns
/// false when the transport refused the message.
pub fn send(
    cx: &mut Cx<'_>,
    transport: Transport,
    dst: (u16, u16),
    src: u16,
    payload: &[u8],
) -> bool {
    let req = SendReq { dst_cab: dst.0, dst_mbox: dst.1, src_mbox: src };
    match transport {
        Transport::Datagram => datagram_send(cx, req, 0, payload),
        Transport::Rmp => rmp_submit(cx, req, payload.to_vec()),
        Transport::ReqResp => return rr_call(cx, req, payload) != 0,
        Transport::Udp => {
            udp_send(cx, UdpSendReq { dst_cab: dst.0, src_port: src, dst_port: dst.1 }, payload)
        }
    }
    true
}

// ----------------------------------------------------------------------
// interrupt-level receive processing (end-of-packet)
// ----------------------------------------------------------------------

/// End-of-data processing for a received frame, per protocol. The
/// datalink header has been parsed and the CRC verified by the board.
/// `payload` is a zero-copy view into the received frame's storage;
/// protocol headers are parsed in place and only mailbox DMA (the
/// modeled hardware copy) materializes bytes.
pub fn rx_dispatch(
    cx: &mut Cx<'_>,
    proto: DatalinkProto,
    src_cab: u16,
    msg_id: u32,
    payload: FrameBuf,
) {
    // Collective frames keep the zero-copy [`FrameBuf`]: interior CABs
    // replicate the received storage onward, so the dispatch happens
    // before the byte-slice view below is taken.
    if proto == DatalinkProto::Collective {
        cx.charge(cx.costs.datagram_proc);
        let now = cx.now();
        let mut acts = Vec::new();
        if cx.proto.with_coll(|c| c.on_packet(now, src_cab, &payload, &mut acts)).is_err() {
            cx.proto.stats.bad_requests += 1;
            return;
        }
        cx.stamp("cab_rx_collective", msg_id as u64);
        run_collective_actions(cx, msg_id, acts);
        return;
    }
    let payload: &[u8] = &payload;
    match proto {
        DatalinkProto::Raw => {
            // network-device mode: queue the raw frame for the host
            deliver_to_mbox(cx, reqs::MB_RAW_IN, &src_cab.to_be_bytes(), payload);
        }
        DatalinkProto::Datagram => {
            cx.charge(cx.costs.datagram_proc);
            let Ok((hdr, body)) = DatagramHeader::parse(payload) else {
                cx.proto.stats.bad_requests += 1;
                return;
            };
            cx.proto.stats.datagrams_in += 1;
            cx.stamp("cab_rx_datagram", msg_id as u64);
            deliver_to_mbox(cx, hdr.dst_mbox, &[], body);
        }
        DatalinkProto::Rmp => {
            cx.charge(cx.costs.rmp_proc);
            let Ok((hdr, body)) = RmpHeader::parse(payload) else {
                cx.proto.stats.bad_requests += 1;
                return;
            };
            match hdr.kind {
                RmpKind::Data => {
                    let mut acts = Vec::new();
                    cx.proto.rmp_rx.on_data(src_cab, &hdr, body, &mut acts);
                    for act in acts {
                        match act {
                            RmpRecvAction::Ack { dst_cab, packet } => {
                                cx.datalink_send(dst_cab, DatalinkProto::Rmp, msg_id, &packet);
                            }
                            RmpRecvAction::Deliver { dst_mbox, message, .. } => {
                                cx.proto.stats.rmp_msgs_in += 1;
                                deliver_to_mbox(cx, dst_mbox, &[], &message);
                            }
                        }
                    }
                }
                RmpKind::Ack => {
                    let key = (src_cab, hdr.src_mbox, hdr.dst_mbox);
                    let now = cx.now();
                    let mut acts = Vec::new();
                    cx.proto.with_rmp_tx(key, |sender| sender.on_ack(now, &hdr, &mut acts));
                    run_rmp_send_actions(cx, acts);
                }
            }
        }
        DatalinkProto::ReqResp => {
            cx.charge(cx.costs.reqresp_proc);
            let Ok((hdr, body)) = ReqRespHeader::parse(payload) else {
                cx.proto.stats.bad_requests += 1;
                return;
            };
            match hdr.kind {
                ReqRespKind::Request => {
                    let server = cx.proto.rr_servers.entry(hdr.dst_mbox).or_default();
                    let mut acts = Vec::new();
                    server.on_request(src_cab, &hdr, body, &mut acts);
                    cx.proto.stats.rr_requests_in += 1;
                    for act in acts {
                        match act {
                            RrServerAction::Execute { client_cab, reply_mbox, req_id, payload } => {
                                let msg = reqs::rr_deliver_encode(
                                    client_cab, reply_mbox, req_id, &payload,
                                );
                                deliver_to_mbox(cx, hdr.dst_mbox, &[], &msg);
                            }
                            RrServerAction::Transmit { dst_cab, packet } => {
                                cx.datalink_send(dst_cab, DatalinkProto::ReqResp, msg_id, &packet);
                            }
                        }
                    }
                }
                ReqRespKind::Reply => {
                    // hdr.dst_mbox is the client's reply mailbox
                    let now = cx.now();
                    let mut acts = Vec::new();
                    cx.proto.with_rr_client(hdr.dst_mbox, |client| {
                        client.on_reply(now, &hdr, body, &mut acts)
                    });
                    for act in acts {
                        match act {
                            RrClientAction::Transmit { dst_cab, packet } => {
                                cx.datalink_send(dst_cab, DatalinkProto::ReqResp, msg_id, &packet);
                            }
                            RrClientAction::Response { req_id, payload } => {
                                let prefix = req_id.to_be_bytes();
                                deliver_to_mbox(cx, hdr.dst_mbox, &prefix, &payload);
                            }
                            RrClientAction::Failed { .. } => {}
                        }
                    }
                }
                ReqRespKind::ReplyAck => {
                    if let Some(server) = cx.proto.rr_servers.get_mut(&hdr.dst_mbox) {
                        server.on_reply_ack(src_cab, &hdr);
                    }
                }
            }
        }
        DatalinkProto::Ip => {
            if cx.proto.ip_in_thread {
                deliver_to_mbox(cx, reqs::MB_IP_IN, &[], payload);
            } else {
                process_ip_input(cx, payload);
            }
        }
        DatalinkProto::Collective => unreachable!("dispatched on the zero-copy path above"),
    }
}

/// Apply collective engine effects: upstream `Arrive`s go out as fresh
/// frames, downstream replication rides the zero-copy datalink path,
/// and application-facing events become [`reqs::CollNote`]s in the
/// registered collective mailbox.
fn run_collective_actions(cx: &mut Cx<'_>, msg_id: u32, acts: Vec<CollectiveAction>) {
    for act in acts {
        match act {
            CollectiveAction::Transmit { dst_cab, packet } => {
                cx.datalink_send(dst_cab, DatalinkProto::Collective, msg_id, &packet);
            }
            CollectiveAction::Replicate { dst_cab, packet } => {
                cx.datalink_send_shared(dst_cab, DatalinkProto::Collective, msg_id, &packet);
            }
            CollectiveAction::Deliver { group, payload } => {
                if let Some(mb) = cx.proto.coll_mbox {
                    // prefix matches reqs::CollNote::Deliver's encoding;
                    // the payload moves by mailbox DMA, not a CPU copy
                    let mut prefix = vec![1u8, 0];
                    prefix.extend_from_slice(&group.to_be_bytes());
                    deliver_to_mbox(cx, mb, &prefix, &payload);
                }
            }
            CollectiveAction::Completed { group, epoch, value } => {
                if let Some(mb) = cx.proto.coll_mbox {
                    let note = reqs::CollNote::Completed { group, epoch, value }.encode();
                    deliver_to_mbox(cx, mb, &[], &note);
                }
            }
            CollectiveAction::Failed { group, epoch } => {
                if let Some(mb) = cx.proto.coll_mbox {
                    let note = reqs::CollNote::Failed { group, epoch }.encode();
                    deliver_to_mbox(cx, mb, &[], &note);
                }
            }
        }
    }
}

/// The local application reached the barrier / contributed `value` to
/// the current epoch's reduction. Drives the engine inline from the
/// calling thread; the retransmit deadline it may arm is picked up by
/// the board's stack-timer scan.
pub fn coll_arrive(cx: &mut Cx<'_>, group: u16, op: CombineOp, value: u64) -> bool {
    cx.charge(cx.costs.datagram_proc);
    let now = cx.now();
    let mut acts = Vec::new();
    let ok = cx.proto.with_coll(|c| c.arrive(now, group, op, value, &mut acts));
    run_collective_actions(cx, 0, acts);
    ok
}

/// Fan `payload` out to the group's subtree below this CAB (the group
/// root for a source-rooted tree). Returns false for unknown groups.
pub fn coll_multicast(cx: &mut Cx<'_>, group: u16, payload: &[u8]) -> bool {
    cx.charge(cx.costs.datagram_proc);
    let mut acts = Vec::new();
    let ok = cx.proto.with_coll(|c| c.multicast(group, payload, &mut acts));
    run_collective_actions(cx, 0, acts);
    ok
}

// ----------------------------------------------------------------------
// server threads
//
// Every thread drains at most `burst_limit` requests per mailbox per
// burst and ends through [`wait`]. The threads that service protocol
// timers (RMP, request-response, TCP, collective) block on their
// condition alone: the board's timer interrupt (`Cab::stack_timers`)
// wakes them when a deadline expires.
// ----------------------------------------------------------------------

/// How many requests a server thread drains per burst before yielding
/// (keeps bursts short so interrupt latency stays bounded).
const BURST_LIMIT: usize = 4;

/// How a protocol thread ends its burst: runnable again while any of
/// its request `mailboxes` still holds work the burst budget left
/// behind, blocked on `cond` once they are all empty. A request queued
/// past the budget must not wait for an unrelated wake — on the UDP and
/// raw send paths none would ever come.
fn wait(cx: &Cx<'_>, cond: CondId, mailboxes: &[MboxId]) -> Step {
    if mailboxes.iter().any(|&mb| !cx.shared.mailboxes[mb as usize].queue.is_empty()) {
        Step::Yield
    } else {
        Step::Block(cond)
    }
}

/// The datagram send-request server (§6.1: "the CAB must be
/// interrupted and a CAB thread must be scheduled to handle the
/// message").
pub struct DatagramSendThread;

impl CabThread for DatagramSendThread {
    fn name(&self) -> &'static str {
        "datagram-send"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_DG_SEND) else { break };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if let Some((req, payload)) = SendReq::decode(&bytes) {
                cx.proto.stats.datagrams_out += 1;
                datagram_send(cx, req, msg.msg_id, payload);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_DG_SEND, msg);
        }
        wait(cx, cx.proto.dg_cond, &[reqs::MB_DG_SEND])
    }
}

/// The RMP server thread: accepts send requests and drives
/// retransmission timers. Ack-driven progress happens at interrupt
/// level; this thread only supplies new work and recovers losses.
pub struct RmpThread;

impl CabThread for RmpThread {
    fn name(&self) -> &'static str {
        "rmp"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_RMP_SEND) else { break };
            let decoded = SendReq::decode(cx.shared.msg_bytes(&msg))
                .map(|(req, payload)| (req, payload.to_vec()));
            if let Some((req, payload)) = decoded {
                cx.stamp("cab_rmp_send", msg.msg_id as u64);
                rmp_submit(cx, req, payload);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_RMP_SEND, msg);
        }
        // retransmission timers: every channel polls at the same
        // instant, and no action reaches back into the channels
        let now = cx.now();
        let mut acts = Vec::new();
        for (&key, s) in cx.proto.rmp_tx.iter_mut() {
            s.poll(now, &mut acts);
            cx.proto.rmp_deadlines.set(key, s.next_wakeup());
        }
        run_rmp_send_actions(cx, acts);
        wait(cx, cx.proto.rmp_cond, &[reqs::MB_RMP_SEND])
    }
}

/// The request-response server thread: client calls, server replies,
/// and client retransmission timers.
pub struct RrThread;

impl CabThread for RrThread {
    fn name(&self) -> &'static str {
        "req-resp"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_RR_SEND) else { break };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if let Some((req, payload)) = SendReq::decode(&bytes) {
                cx.stamp("cab_rr_call", msg.msg_id as u64);
                rr_call(cx, req, payload);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_RR_SEND, msg);
        }
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_RR_REPLY) else { break };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if let Some((req, payload)) = RrReplyReq::decode(&bytes) {
                rr_reply(cx, req, msg.msg_id, payload);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_RR_REPLY, msg);
        }
        // client retransmission timers: every client polls at the same
        // instant, and no action reaches back into the clients
        let now = cx.now();
        let mut acts = Vec::new();
        let mut polled = Vec::new();
        for (&mb, c) in cx.proto.rr_clients.iter_mut() {
            c.poll(now, &mut acts);
            cx.proto.rr_deadlines.set(mb, c.next_wakeup());
            polled.extend(acts.drain(..).map(|act| (mb, act)));
        }
        for (mb, act) in polled {
            run_rr_client_action(cx, mb, act);
        }
        wait(cx, cx.proto.rr_cond, &[reqs::MB_RR_SEND, reqs::MB_RR_REPLY])
    }
}

/// The collective progress thread: drives `Arrive` retransmission
/// timers. Receive-side combining and fan-out run at interrupt level
/// (like the datagram fast path), and applications drive sends inline
/// through [`coll_arrive`]/[`coll_multicast`] — this thread only
/// recovers losses. Forked lazily by `Cab::enable_collective`.
pub struct CollectiveThread;

impl CabThread for CollectiveThread {
    fn name(&self) -> &'static str {
        "collective"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        let now = cx.now();
        let mut acts = Vec::new();
        cx.proto.with_coll(|c| c.poll(now, &mut acts));
        if !acts.is_empty() {
            cx.charge(cx.costs.datagram_proc);
        }
        run_collective_actions(cx, 0, acts);
        wait(cx, cx.proto.coll_cond, &[])
    }
}

/// The IP input thread (ablation A1): the same processing as the
/// interrupt path, scheduled as a high-priority thread instead.
pub struct IpThread;

impl CabThread for IpThread {
    fn name(&self) -> &'static str {
        "ip-input"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        // network-device mode (§5.1): "to send a packet the driver
        // writes the packet into a free buffer in the output pool and
        // notifies the server that the packet should be sent"
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_RAW_SEND) else { break };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if bytes.len() >= 2 {
                let dst_cab = u16::from_be_bytes([bytes[0], bytes[1]]);
                cx.charge(cx.costs.datalink);
                cx.datalink_send(dst_cab, DatalinkProto::Raw, msg.msg_id, &bytes[2..]);
            }
            cx.end_get(reqs::MB_RAW_SEND, msg);
        }
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_IP_IN) else { break };
            let packet = cx.shared.msg_bytes(&msg).to_vec();
            process_ip_input(cx, &packet);
            cx.end_get(reqs::MB_IP_IN, msg);
        }
        wait(cx, cx.proto.ip_cond, &[reqs::MB_RAW_SEND, reqs::MB_IP_IN])
    }
}

/// The ICMP responder, attached as a mailbox reader upcall (§4.1:
/// "ICMP is implemented as a mailbox upcall").
pub struct IcmpUpcall;

impl Upcall for IcmpUpcall {
    fn name(&self) -> &'static str {
        "icmp"
    }

    fn on_message(&mut self, cx: &mut Cx<'_>, mbox: MboxId) {
        while let Some(bytes) = cx.get_message(mbox) {
            if bytes.len() < 4 {
                continue;
            }
            let src = Ipv4Addr::new(bytes[0], bytes[1], bytes[2], bytes[3]);
            match cx.proto.icmp.input(src, &bytes[4..]) {
                IcmpInput::Reply { dst, message } => {
                    ip_output(cx, dst, IpProtocol::ICMP, &message.build());
                }
                IcmpInput::EchoReply { src, ident, seq, .. } => {
                    if let Some(pm) = cx.proto.ping_mbox {
                        let mut note = Vec::with_capacity(8);
                        note.extend_from_slice(&src.octets());
                        note.extend_from_slice(&ident.to_be_bytes());
                        note.extend_from_slice(&seq.to_be_bytes());
                        deliver_to_mbox(cx, pm, &[], &note);
                    }
                }
                IcmpInput::Error { .. } | IcmpInput::Bad(_) => {}
            }
        }
    }
}

/// The UDP server thread (§4.1: "UDP and TCP each have their own
/// server threads").
pub struct UdpThread;

impl CabThread for UdpThread {
    fn name(&self) -> &'static str {
        "udp"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        // control: bind requests
        while let Some(msg) = cx.try_get(reqs::MB_UDP_CTL) {
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if let Some((port, mbox)) = reqs::udp_bind_decode(&bytes) {
                cx.proto.udp.bind(port, mbox as u32);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_UDP_CTL, msg);
        }
        // input packets
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_UDP_IN) else { break };
            let packet = cx.shared.msg_bytes(&msg).to_vec();
            cx.charge(cx.costs.udp_proc);
            if let Ok(header) = Ipv4Header::parse(&packet) {
                let data = &packet[nectar_wire::ipv4::HEADER_LEN..];
                cx.charge(cx.costs.checksum(data.len()));
                match cx.proto.udp.input(&header, data) {
                    UdpInput::Deliver { token, payload, .. } => {
                        cx.stamp("cab_udp_deliver", msg.msg_id as u64);
                        deliver_to_mbox(cx, token as MboxId, &[], &payload);
                    }
                    UdpInput::PortUnreachable { .. } => {
                        let m = cx.proto.icmp.unreachable_for(&packet, UnreachableCode::Port);
                        ip_output(cx, header.src, IpProtocol::ICMP, &m.build());
                    }
                    UdpInput::Bad(_) => {}
                }
            }
            cx.end_get(reqs::MB_UDP_IN, msg);
        }
        // send requests
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_UDP_SEND) else { break };
            let bytes = cx.shared.msg_bytes(&msg).to_vec();
            if let Some((req, payload)) = UdpSendReq::decode(&bytes) {
                cx.stamp("cab_udp_send", msg.msg_id as u64);
                udp_send(cx, req, payload);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
            cx.end_get(reqs::MB_UDP_SEND, msg);
        }
        wait(cx, cx.proto.udp_cond, &[reqs::MB_UDP_IN, reqs::MB_UDP_SEND])
    }
}

/// The TCP server thread (§4.2): control, input, and send-request
/// processing plus retransmission timers, all over the shared TCP
/// condition.
pub struct TcpThread;

impl TcpThread {
    fn handle_socket_event(cx: &mut Cx<'_>, id: SocketId, event: TcpEvent) {
        match event {
            TcpEvent::Connected => {
                let (reply_sync, port) = {
                    let conn = cx.proto.tcp_conns.entry(id).or_default();
                    conn.established = true;
                    (conn.reply_sync.take(), conn.port)
                };
                if let Some(s) = reply_sync {
                    cx.sync_write(s, id + 1);
                }
                if let Some(port) = port {
                    if let Some(&accept_mbox) = cx.proto.tcp_accepts.get(&port) {
                        let note = reqs::tcp_accept_encode(port, id as u16);
                        deliver_to_mbox(cx, accept_mbox, &[], &note);
                    }
                }
            }
            TcpEvent::DataAvailable => Self::drain_recv(cx, id),
            TcpEvent::PeerClosed => {
                Self::drain_recv(cx, id);
                Self::send_eof(cx, id);
            }
            TcpEvent::Transmit { .. } => {
                unreachable!("Transmit is unwrapped into TcpStackEvent::Transmit by the stack")
            }
            TcpEvent::Closed | TcpEvent::Aborted(_) => {
                let reply_sync = cx.proto.tcp_conns.get_mut(&id).and_then(|c| c.reply_sync.take());
                if let Some(s) = reply_sync {
                    cx.sync_write(s, 0); // open failed
                }
                Self::send_eof(cx, id);
            }
        }
    }

    fn drain_recv(cx: &mut Cx<'_>, id: SocketId) {
        let Some(mbox) = cx.proto.tcp_conns.get(&id).and_then(|c| c.recv_mbox) else {
            return; // not attached yet: data waits in the socket buffer
        };
        let n = cx.proto.tcp.socket(id).map_or(0, |s| s.readable());
        if n > 0 {
            // Enqueue-style transfer: the socket's receive ring goes to
            // the mailbox in place
            cx.charge(cx.costs.tcp_proc / 4);
            deliver_with(cx, mbox, n, |cx, m| {
                let (a, b) = cx.proto.tcp.socket(id).expect("readable").peek(n);
                cx.shared.msg_write(m, 0, a);
                cx.shared.msg_write(m, a.len(), b);
            });
            cx.proto.tcp.consume(id, n);
            // reading opened the receive window; let the stack act
            let now = cx.now();
            let events = cx.proto.tcp.poll(now);
            tcp_events(cx, events);
        }
    }

    fn send_eof(cx: &mut Cx<'_>, id: SocketId) {
        let Some(conn) = cx.proto.tcp_conns.get_mut(&id) else { return };
        if conn.eof_sent {
            return;
        }
        conn.eof_sent = true;
        if let Some(mbox) = conn.recv_mbox {
            deliver_to_mbox(cx, mbox, &[], &[]);
        }
    }

    /// Is send data for `id` still ahead of a close — accepted but not
    /// yet admitted to the socket, or waiting in the send-request
    /// mailbox? Control requests are drained before send requests, so a
    /// close written right after the last send is seen first.
    fn send_backlog(cx: &Cx<'_>, id: SocketId) -> bool {
        cx.proto.tcp_conns.get(&id).is_some_and(|c| !c.pending.is_empty())
            || cx.shared.mailboxes[reqs::MB_TCP_SEND as usize].queue.iter().any(|m| {
                reqs::tcp_send_decode(cx.shared.msg_bytes(m))
                    .is_some_and(|(conn, _)| conn as SocketId == id)
            })
    }

    /// Push queued send data into the socket as the buffer drains; once
    /// everything is admitted, honour any deferred close.
    fn pump_pending(cx: &mut Cx<'_>, id: SocketId) {
        loop {
            let now = cx.now();
            let proto = &mut *cx.proto;
            let Some(conn) = proto.tcp_conns.get_mut(&id) else { break };
            let Some(chunk) = conn.pending.front() else { break };
            let (n, events) = proto.tcp.send(now, id, chunk);
            let admitted_all = n == chunk.len();
            conn.pending.advance(n);
            tcp_events(cx, events);
            if !admitted_all {
                return;
            }
        }
        let deferred = cx.proto.tcp_conns.get(&id).is_some_and(|c| c.close_requested)
            && !Self::send_backlog(cx, id);
        if deferred {
            cx.proto.tcp_conns.entry(id).or_default().close_requested = false;
            let now = cx.now();
            let events = cx.proto.tcp.close(now, id);
            tcp_events(cx, events);
        }
    }
}

impl CabThread for TcpThread {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        // 1. control requests
        while let Some(bytes) = cx.get_message(reqs::MB_TCP_CTL) {
            let now = cx.now();
            match TcpCtl::decode(&bytes) {
                Some(TcpCtl::Open { dst_cab, port, recv_mbox, reply_sync }) => {
                    let remote = (ip_for_cab(dst_cab), port);
                    let (id, events) = cx.proto.tcp.connect(now, remote, None);
                    let conn = cx.proto.tcp_conns.entry(id).or_default();
                    conn.recv_mbox = Some(recv_mbox);
                    conn.reply_sync = Some(reply_sync);
                    tcp_events(cx, events);
                }
                Some(TcpCtl::Listen { port, accept_mbox }) => {
                    cx.proto.tcp.listen(port);
                    cx.proto.tcp_accepts.insert(port, accept_mbox);
                }
                Some(TcpCtl::Attach { conn, recv_mbox }) => {
                    let id = conn as SocketId;
                    cx.proto.tcp_conns.entry(id).or_default().recv_mbox = Some(recv_mbox);
                    Self::drain_recv(cx, id);
                }
                Some(TcpCtl::Close { conn }) => {
                    let id = conn as SocketId;
                    if Self::send_backlog(cx, id) {
                        // data queued ahead of the close: defer the FIN
                        cx.proto.tcp_conns.entry(id).or_default().close_requested = true;
                    } else {
                        let events = cx.proto.tcp.close(now, id);
                        tcp_events(cx, events);
                    }
                }
                Some(TcpCtl::Abort { conn }) => {
                    let events = cx.proto.tcp.abort(now, conn as SocketId);
                    tcp_events(cx, events);
                }
                None => cx.proto.stats.bad_requests += 1,
            }
        }
        // 2. input segments
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_TCP_IN) else { break };
            // The stack reads the segment in place, so the buffer is
            // released after it has — but End_Get's CPU time is charged
            // here, where it has always fallen in the burst: the clock
            // the stack reads below has it in.
            cx.charge(cx.costs.mbox_end_get);
            cx.charge(cx.costs.tcp_proc);
            let mut events = Vec::new();
            if let Ok(header) = Ipv4Header::parse(cx.shared.msg_bytes(&msg)) {
                let data_len = msg.len as usize - nectar_wire::ipv4::HEADER_LEN;
                if cx.proto.tcp.config().compute_checksum {
                    cx.charge(cx.costs.checksum(data_len));
                }
                let now = cx.now();
                let data = &cx.shared.msg_bytes(&msg)[nectar_wire::ipv4::HEADER_LEN..];
                events = cx.proto.tcp.on_packet(now, &header, data);
            }
            cx.shared.end_get(reqs::MB_TCP_IN, msg);
            tcp_events(cx, events);
        }
        // 3. send requests
        for _ in 0..cx.proto.burst_limit {
            let Some(msg) = cx.try_get(reqs::MB_TCP_SEND) else { break };
            let decoded = reqs::tcp_send_decode(cx.shared.msg_bytes(&msg))
                .map(|(conn, payload)| (conn, payload.to_vec()));
            cx.end_get(reqs::MB_TCP_SEND, msg);
            cx.charge(cx.costs.tcp_proc);
            if let Some((conn, payload)) = decoded {
                let id = conn as SocketId;
                cx.proto.tcp_conns.entry(id).or_default().pending.push_back(payload);
                Self::pump_pending(cx, id);
            } else {
                cx.proto.stats.bad_requests += 1;
            }
        }
        // 4. timers + pending pumps
        let now = cx.now();
        let events = cx.proto.tcp.poll(now);
        tcp_events(cx, events);
        let mut from = 0;
        while let Some(id) =
            cx.proto.tcp_conns.range(from..).find(|(_, c)| !c.pending.is_empty()).map(|(&id, _)| id)
        {
            Self::pump_pending(cx, id);
            from = id + 1;
        }
        wait(cx, cx.proto.tcp_cond, &[reqs::MB_TCP_IN, reqs::MB_TCP_SEND])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_queue_advances_in_place_and_pops_finished_chunks() {
        let mut q = SendQueue::default();
        assert!(q.is_empty() && q.front().is_none());
        q.push_back(vec![1, 2, 3, 4, 5]);
        q.push_back(Vec::new());
        q.push_back(vec![6, 7]);
        // a partial admit leaves the tail where it is
        q.advance(2);
        assert_eq!(q.front(), Some(&[3, 4, 5][..]));
        // nothing admitted: nothing moves
        q.advance(0);
        assert_eq!(q.front(), Some(&[3, 4, 5][..]));
        // the rest of a chunk admitted: the next one starts at its head
        q.advance(3);
        assert_eq!(q.front(), Some(&[][..]), "an empty chunk is still a queued write");
        q.advance(0);
        assert_eq!(q.front(), Some(&[6, 7][..]));
        q.advance(2);
        assert!(q.is_empty());
    }
}
