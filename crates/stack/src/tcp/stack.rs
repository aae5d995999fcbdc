//! Connection demultiplexing: the piece of TCP that owns the socket
//! table, listening ports, ISN generation, and RST generation for
//! segments that match no connection.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use nectar_sim::{Deadlines, Pcg32, SimTime};
use nectar_wire::ipv4::Ipv4Header;
use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader};

use super::{TcpConfig, TcpEvent, TcpSocket, TcpSocketStats, TcpState};

/// Stack-wide counters: drops that happen before any socket is
/// identified, plus the accumulated stats of removed sockets so
/// lifetime totals survive `remove`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpStackStats {
    /// Segments discarded because the TCP header failed to parse or
    /// the checksum did not verify.
    pub checksum_drops: u64,
    /// Segments that matched no connection and were answered with RST
    /// (or silently dropped when they carried RST themselves).
    pub no_socket_drops: u64,
    /// Socket counters accumulated from sockets dropped via `remove`.
    pub closed: TcpSocketStats,
}

/// Identifies a socket within one [`TcpStack`].
pub type SocketId = u32;

/// Events produced by the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpStackEvent {
    /// Hand this segment to IP.
    Transmit { dst: Ipv4Addr, segment: Vec<u8> },
    /// A socket-level event (Connected, DataAvailable, …).
    Socket { id: SocketId, event: TcpEvent },
    /// A listener accepted a new connection (completes on `Connected`).
    Incoming { id: SocketId, local_port: u16 },
    /// A segment was dropped before reaching any socket.
    Dropped,
}

/// One endpoint's TCP: socket table + listeners over a shared config.
#[derive(Debug)]
pub struct TcpStack {
    addr: Ipv4Addr,
    cfg: TcpConfig,
    sockets: BTreeMap<SocketId, TcpSocket>,
    by_tuple: BTreeMap<(u16, Ipv4Addr, u16), SocketId>,
    listeners: BTreeSet<u16>,
    next_id: SocketId,
    next_ephemeral: u16,
    isn_rng: Pcg32,
    stats: TcpStackStats,
    /// Every socket's earliest timer, set by whatever touched the socket.
    deadlines: Deadlines<SocketId>,
}

impl TcpStack {
    /// `seed` drives initial sequence number generation (deterministic
    /// replay is a workspace-wide requirement).
    pub fn new(addr: Ipv4Addr, cfg: TcpConfig, seed: u64) -> Self {
        TcpStack {
            addr,
            cfg,
            sockets: BTreeMap::new(),
            by_tuple: BTreeMap::new(),
            listeners: BTreeSet::new(),
            next_id: 1,
            next_ephemeral: 32768,
            isn_rng: Pcg32::new(seed, 0x7cb),
            stats: TcpStackStats::default(),
            deadlines: Deadlines::new(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Accept connections on `port`.
    pub fn listen(&mut self, port: u16) -> bool {
        self.listeners.insert(port)
    }

    pub fn unlisten(&mut self, port: u16) -> bool {
        self.listeners.remove(&port)
    }

    fn alloc_ephemeral(&mut self, remote: (Ipv4Addr, u16)) -> u16 {
        loop {
            let port = self.next_ephemeral;
            self.next_ephemeral =
                if self.next_ephemeral == u16::MAX { 32768 } else { self.next_ephemeral + 1 };
            if !self.by_tuple.contains_key(&(port, remote.0, remote.1))
                && !self.listeners.contains(&port)
            {
                return port;
            }
        }
    }

    /// Active open to `remote`. Returns the new socket id; the SYN goes
    /// out through the returned events.
    pub fn connect(
        &mut self,
        now: SimTime,
        remote: (Ipv4Addr, u16),
        local_port: Option<u16>,
    ) -> (SocketId, Vec<TcpStackEvent>) {
        let port = local_port.unwrap_or_else(|| self.alloc_ephemeral(remote));
        let isn = self.isn_rng.next_u32();
        let mut ev = Vec::new();
        let sock = TcpSocket::client(now, self.cfg, (self.addr, port), remote, isn, &mut ev);
        let id = self.register(sock, (port, remote.0, remote.1));
        (id, self.wrap(id, ev))
    }

    fn register(&mut self, sock: TcpSocket, tuple: (u16, Ipv4Addr, u16)) -> SocketId {
        let id = self.next_id;
        self.next_id += 1;
        self.deadlines.set(id, sock.next_wakeup());
        self.sockets.insert(id, sock);
        self.by_tuple.insert(tuple, id);
        id
    }

    /// Run `op` on socket `id`, if it exists, and index the socket's
    /// earliest timer.
    fn on_socket<R>(&mut self, id: SocketId, op: impl FnOnce(&mut TcpSocket) -> R) -> Option<R> {
        let sock = self.sockets.get_mut(&id)?;
        let out = op(sock);
        self.deadlines.set(id, sock.next_wakeup());
        Some(out)
    }

    fn wrap(&mut self, id: SocketId, ev: Vec<TcpEvent>) -> Vec<TcpStackEvent> {
        let mut out = Vec::with_capacity(ev.len());
        Self::wrap_into(&mut self.by_tuple, id, self.sockets.get(&id), ev, &mut out);
        out
    }

    /// Append socket `id`'s events to `out` as stack events, and
    /// un-route the socket if it reached CLOSED (data may still be
    /// read; the table entry just stops routing segments to it).
    fn wrap_into(
        by_tuple: &mut BTreeMap<(u16, Ipv4Addr, u16), SocketId>,
        id: SocketId,
        sock: Option<&TcpSocket>,
        ev: impl IntoIterator<Item = TcpEvent>,
        out: &mut Vec<TcpStackEvent>,
    ) {
        out.extend(ev.into_iter().map(|e| match e {
            TcpEvent::Transmit { dst, segment } => TcpStackEvent::Transmit { dst, segment },
            event => TcpStackEvent::Socket { id, event },
        }));
        if let Some(s) = sock.filter(|s| s.state() == TcpState::Closed) {
            let tuple = (s.local().1, s.remote().0, s.remote().1);
            if by_tuple.get(&tuple) == Some(&id) {
                by_tuple.remove(&tuple);
            }
        }
    }

    /// Process a TCP segment delivered by IP.
    pub fn on_packet(&mut self, now: SimTime, ip: &Ipv4Header, data: &[u8]) -> Vec<TcpStackEvent> {
        let hdr = match TcpHeader::parse(ip, data, self.cfg.compute_checksum) {
            Ok(h) => h,
            Err(_) => {
                self.stats.checksum_drops += 1;
                return vec![TcpStackEvent::Dropped];
            }
        };
        let payload = &data[hdr.header_len..];
        let tuple = (hdr.dst_port, ip.src, hdr.src_port);
        if let Some(&id) = self.by_tuple.get(&tuple) {
            let mut ev = Vec::new();
            self.on_socket(id, |sock| sock.on_segment(now, &hdr, payload, &mut ev));
            return self.wrap(id, ev);
        }
        // No connection. A SYN to a listening port opens one.
        if hdr.flags.contains(TcpFlags::SYN)
            && !hdr.flags.contains(TcpFlags::ACK)
            && !hdr.flags.contains(TcpFlags::RST)
            && self.listeners.contains(&hdr.dst_port)
        {
            let isn = self.isn_rng.next_u32();
            let mut ev = Vec::new();
            let sock = TcpSocket::server_from_syn(
                now,
                self.cfg,
                (self.addr, hdr.dst_port),
                (ip.src, hdr.src_port),
                &hdr,
                isn,
                &mut ev,
            );
            let id = self.register(sock, tuple);
            let mut out = vec![TcpStackEvent::Incoming { id, local_port: hdr.dst_port }];
            out.extend(self.wrap(id, ev));
            return out;
        }
        // Otherwise: RST, per RFC 793 "If the connection does not exist".
        self.stats.no_socket_drops += 1;
        if hdr.flags.contains(TcpFlags::RST) {
            return vec![TcpStackEvent::Dropped];
        }
        let mut rst = TcpHeader::new(hdr.dst_port, hdr.src_port);
        if hdr.flags.contains(TcpFlags::ACK) {
            rst.seq = hdr.ack;
            rst.flags = TcpFlags::RST;
        } else {
            rst.seq = SeqNum(0);
            let mut seg_len = payload.len();
            if hdr.flags.contains(TcpFlags::SYN) {
                seg_len += 1;
            }
            if hdr.flags.contains(TcpFlags::FIN) {
                seg_len += 1;
            }
            rst.ack = hdr.seq.add(seg_len);
            rst.flags = TcpFlags::RST | TcpFlags::ACK;
        }
        let segment = rst.build(self.addr, ip.src, &[], self.cfg.compute_checksum);
        vec![TcpStackEvent::Transmit { dst: ip.src, segment }]
    }

    /// Queue data on a socket. Returns bytes accepted and any segments.
    pub fn send(&mut self, now: SimTime, id: SocketId, data: &[u8]) -> (usize, Vec<TcpStackEvent>) {
        let mut ev = Vec::new();
        let n = self.on_socket(id, |s| s.send(now, data, &mut ev)).unwrap_or(0);
        (n, self.wrap(id, ev))
    }

    /// Read in-order data from a socket.
    pub fn recv(&mut self, id: SocketId, max: usize) -> Vec<u8> {
        self.on_socket(id, |s| s.recv(max)).unwrap_or_default()
    }

    /// Release `n` bytes a reader took in place through
    /// [`TcpSocket::peek`].
    pub fn consume(&mut self, id: SocketId, n: usize) {
        self.on_socket(id, |s| s.consume(n));
    }

    /// Close the send side of a socket.
    pub fn close(&mut self, now: SimTime, id: SocketId) -> Vec<TcpStackEvent> {
        let mut ev = Vec::new();
        self.on_socket(id, |s| s.close(now, &mut ev));
        self.wrap(id, ev)
    }

    /// Abort a socket with RST.
    pub fn abort(&mut self, now: SimTime, id: SocketId) -> Vec<TcpStackEvent> {
        let mut ev = Vec::new();
        self.on_socket(id, |s| s.abort(now, &mut ev));
        self.wrap(id, ev)
    }

    /// Drop a socket the application is done with. Its counters are
    /// folded into [`TcpStackStats::closed`] so lifetime totals (and
    /// the observability snapshot) survive socket teardown.
    pub fn remove(&mut self, id: SocketId) {
        if let Some(s) = self.sockets.remove(&id) {
            self.stats.closed.absorb(s.stats());
            let tuple = (s.local().1, s.remote().0, s.remote().1);
            if self.by_tuple.get(&tuple) == Some(&id) {
                self.by_tuple.remove(&tuple);
            }
            self.deadlines.set(id, None);
        }
    }

    /// Fire timers on every socket.
    pub fn poll(&mut self, now: SimTime) -> Vec<TcpStackEvent> {
        // nothing is allocated unless a socket has something to say
        let mut out = Vec::new();
        let mut ev = Vec::new();
        for (&id, s) in self.sockets.iter_mut() {
            s.poll(now, &mut ev);
            self.deadlines.set(id, s.next_wakeup());
            Self::wrap_into(&mut self.by_tuple, id, Some(s), ev.drain(..), &mut out);
        }
        out
    }

    /// Earliest timer deadline across all sockets, checked against a
    /// scan of every socket in debug builds.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let next = self.deadlines.peek();
        debug_assert_eq!(
            next,
            self.sockets.values().filter_map(TcpSocket::next_wakeup).min(),
            "a socket's timer moved without reindexing"
        );
        next
    }

    /// Direct access (tests and diagnostics).
    pub fn socket(&self, id: SocketId) -> Option<&TcpSocket> {
        self.sockets.get(&id)
    }

    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Iterate all live sockets in `SocketId` order (tests and
    /// diagnostics).
    pub fn sockets(&self) -> impl Iterator<Item = (&SocketId, &TcpSocket)> {
        self.sockets.iter()
    }

    /// Stack-level counters (pre-demux drops + closed-socket totals).
    pub fn stats(&self) -> &TcpStackStats {
        &self.stats
    }

    /// Lifetime socket counters: every live socket plus everything
    /// accumulated from removed ones.
    pub fn total_socket_stats(&self) -> TcpSocketStats {
        let mut total = self.stats.closed;
        for s in self.sockets.values() {
            total.absorb(s.stats());
        }
        total
    }
}
