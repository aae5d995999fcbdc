//! The per-connection TCP state machine.
//!
//! The transmission control block follows RFC 793 §3.2: a send sequence
//! record ([`SendSeq`]), a receive sequence record ([`RecvSeq`]), the
//! RTT estimator ([`Rtt`]) and the connection's deadlines ([`Timers`]).
//! [`TcpSocket`] holds those four beside its identity and runs "SEGMENT
//! ARRIVES" and the output path over them.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::ops::Range;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader, MAX_WSCALE};

use super::{AbortReason, TcpConfig, TcpEvent, TcpSocketStats, TcpState};
use crate::conform;

/// Default MSS assumed when the peer's SYN carried no MSS option
/// (RFC 1122 §4.2.2.6).
const DEFAULT_PEER_MSS: u16 = 536;

/// `len` bytes of `ring` starting `offset` bytes in, in place: a ring
/// buffer's contents are at most two contiguous runs, so a range of it
/// is at most two slices, and every reader copies by slice.
fn ring_range(ring: &VecDeque<u8>, offset: usize, len: usize) -> (&[u8], &[u8]) {
    let (a, b) = ring.as_slices();
    let end = offset + len;
    (
        &a[offset.min(a.len())..end.min(a.len())],
        &b[offset.saturating_sub(a.len())..end.saturating_sub(a.len())],
    )
}

/// Send sequence space and what the sender keeps with it: the unacked
/// and unsent bytes, our FIN, the SACK scoreboard and the congestion
/// window.
#[derive(Debug, Default)]
struct SendSeq {
    iss: SeqNum,
    una: SeqNum,
    nxt: SeqNum,
    wnd: u32,
    /// Largest window the peer has ever advertised (for sender-side
    /// silly-window avoidance).
    wnd_max: u32,
    wl1: SeqNum,
    wl2: SeqNum,
    /// Shift applied to windows the peer advertises (RFC 7323).
    wscale: u8,
    peer_mss: u16,
    buf: VecDeque<u8>,
    /// Sequence number of `buf[0]`.
    buf_seq: SeqNum,
    /// End sequence of an outstanding sub-MSS segment, if any (Minshall
    /// refinement to Nagle: at most one small segment in flight).
    small_unacked: Option<SeqNum>,
    fin_queued: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<SeqNum>,
    /// Disjoint, sorted ranges the peer has selectively acknowledged
    /// above `una` (RFC 2018). Only ever grows or is trimmed by the
    /// cumulative ACK — a reneging peer is ignored.
    sacked: Vec<(SeqNum, SeqNum)>,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
}

impl SendSeq {
    /// Bytes sent and not yet acknowledged.
    fn in_flight(&self) -> u32 {
        self.nxt.since(self.una).max(0) as u32
    }

    /// Offset in `buf` of the first byte not yet sent.
    fn unsent_offset(&self) -> usize {
        self.nxt.since(self.buf_seq).max(0) as usize
    }

    fn fin_unacked(&self) -> bool {
        matches!(self.fin_seq, Some(s) if self.una.before_eq(s))
    }

    /// The window a received header advertises, after undoing the
    /// peer's scale shift. Windows in SYN segments are never scaled
    /// (RFC 7323 §2.2).
    fn window_in(&self, hdr: &TcpHeader) -> u32 {
        let shift = if hdr.flags.contains(TcpFlags::SYN) { 0 } else { self.wscale as u32 };
        (hdr.window as u32) << shift
    }

    /// Take `hdr`'s window, recording the segment that set it
    /// (SND.WL1 = its seq, SND.WL2 = `wl2`).
    fn take_window(&mut self, hdr: &TcpHeader, wl2: SeqNum) {
        self.wnd = self.window_in(hdr);
        self.wnd_max = self.wnd_max.max(self.wnd);
        self.wl1 = hdr.seq;
        self.wl2 = wl2;
    }

    /// RFC 793's window update: a segment no older than the one that
    /// last set the window sets it. True when that reopened a zero
    /// window.
    fn update_window(&mut self, hdr: &TcpHeader) -> bool {
        if !(self.wl1.before(hdr.seq) || (self.wl1 == hdr.seq && self.wl2.before_eq(hdr.ack))) {
            return false;
        }
        let was_zero = self.wnd == 0;
        self.take_window(hdr, hdr.ack);
        was_zero && self.wnd > 0
    }

    /// Grow the scoreboard with `[l, r)`, merging overlapping or
    /// adjacent ranges.
    fn sack(&mut self, mut l: SeqNum, mut r: SeqNum) {
        let mut i = 0;
        while i < self.sacked.len() {
            let (sl, sr) = self.sacked[i];
            if sr.before(l) {
                i += 1;
                continue;
            }
            if r.before(sl) {
                break;
            }
            if sl.before(l) {
                l = sl;
            }
            if sr.after(r) {
                r = sr;
            }
            self.sacked.remove(i);
        }
        self.sacked.insert(i, (l, r));
    }

    /// The first hole: where a retransmission starts (`una`, moved past
    /// any leading sacked ranges) and how many bytes it may carry before
    /// the next sacked left edge.
    fn first_hole(&self) -> (SeqNum, usize) {
        let mut start = self.una;
        for &(sl, sr) in &self.sacked {
            if sr.before_eq(start) {
                continue;
            }
            if sl.before_eq(start) {
                start = sr;
            } else {
                return (start, sl.since(start).max(0) as usize);
            }
        }
        (start, usize::MAX)
    }

    /// New data acknowledged up to `ack`: advance `una`, trim the
    /// scoreboard, open the congestion window and release the acked
    /// bytes from the ring.
    fn ack(&mut self, ack: SeqNum, mss: u32) {
        self.una = ack;
        self.dup_acks = 0;
        if matches!(self.small_unacked, Some(end) if ack.after_eq(end)) {
            self.small_unacked = None;
        }
        // the cumulative ack implicitly covers any sacked range at or
        // below it
        self.sacked.retain(|&(_, r)| r.after(ack));
        if let Some(first) = self.sacked.first_mut() {
            if first.0.before(ack) {
                first.0 = ack;
            }
        }
        // Tahoe growth: one MSS per ack in slow start, max(mss²/cwnd, 1)
        // in congestion avoidance
        let inc = if self.cwnd < self.ssthresh { mss } else { (mss * mss / self.cwnd).max(1) };
        self.cwnd = self.cwnd.saturating_add(inc);
        let acked = self.una.since(self.buf_seq).clamp(0, self.buf.len() as i32);
        if acked > 0 {
            self.buf.drain(..acked as usize);
            self.buf_seq = self.buf_seq.add(acked as usize);
        }
    }

    /// Tahoe's loss response, the same for three duplicate acks and for
    /// a timeout: half the flight becomes the threshold and the window
    /// restarts from one MSS. There is no fast recovery.
    fn on_loss(&mut self, mss: u32) {
        self.ssthresh = (self.in_flight() / 2).max(2 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
    }
}

/// Receive sequence space and what the receiver keeps with it: the
/// in-order bytes not yet read, the out-of-order queue, the peer's FIN
/// and the state of our acks and window advertisements.
#[derive(Debug, Default)]
struct RecvSeq {
    irs: SeqNum,
    nxt: SeqNum,
    /// Receive buffer capacity (`TcpConfig::recv_buf`); the window is
    /// what is free of it.
    cap: usize,
    /// Shift applied to windows we advertise (RFC 7323).
    wscale: u8,
    buf: VecDeque<u8>,
    /// Out-of-order segments, sorted by sequence number.
    ooo: Vec<(SeqNum, Vec<u8>)>,
    ooo_bytes: usize,
    /// Sequence position of the peer's FIN, if seen but not yet in
    /// order.
    fin: Option<SeqNum>,
    fin_processed: bool,
    /// Window value sent in our most recent segment (receiver-side
    /// silly-window avoidance).
    last_adv_wnd: u32,
    want_window_update: bool,
    /// In-order segments received since we last sent an ACK.
    unacked_segs: u32,
}

impl RecvSeq {
    /// Current receive window (free buffer space), before scaling and
    /// the u16 clamp.
    fn window(&self) -> u32 {
        (self.cap - self.buf.len()) as u32
    }

    /// RFC 793's acceptability test for a segment occupying `seg_len`
    /// sequence numbers from `seq`.
    fn acceptable(&self, seq: SeqNum, seg_len: u32) -> bool {
        let wnd = self.window();
        if seg_len == 0 {
            if wnd == 0 {
                return seq == self.nxt;
            }
            return seq.after_eq(self.nxt) && seq.before(self.nxt.add(wnd as usize));
        }
        if wnd == 0 {
            return false;
        }
        let seg_end = seq.add(seg_len as usize - 1);
        let wnd_end = self.nxt.add(wnd as usize);
        (seq.after_eq(self.nxt) && seq.before(wnd_end))
            || (seg_end.after_eq(self.nxt) && seg_end.before(wnd_end))
    }

    /// Take in-order `data` at `nxt`, then whatever of the out-of-order
    /// queue it made contiguous. Returns the bytes delivered.
    fn accept(&mut self, data: &[u8]) -> usize {
        self.buf.extend(data);
        self.nxt = self.nxt.add(data.len());
        data.len() + self.drain_ooo()
    }

    /// Hold an out-of-order segment, within the buffer's capacity.
    fn insert_ooo(&mut self, seq: SeqNum, data: &[u8]) {
        // exact-duplicate suppression is enough: overlaps are resolved
        // in drain_ooo by trimming against nxt
        if self.ooo_bytes + data.len() > self.cap
            || self.ooo.iter().any(|&(s, ref d)| s == seq && d.len() >= data.len())
        {
            return;
        }
        self.ooo_bytes += data.len();
        let at = self.ooo.partition_point(|&(s, _)| s.before(seq));
        self.ooo.insert(at, (seq, data.to_vec()));
    }

    /// Move every out-of-order segment that now starts at or below
    /// `nxt` into the buffer. Returns the fresh bytes delivered.
    fn drain_ooo(&mut self) -> usize {
        let mut delivered = 0;
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < self.ooo.len() {
                let (seq, ref data) = self.ooo[i];
                let end = seq.add(data.len());
                if end.before_eq(self.nxt) {
                    // fully stale
                    self.ooo_bytes -= data.len();
                    self.ooo.remove(i);
                    continue;
                }
                if seq.before_eq(self.nxt) {
                    let skip = self.nxt.since(seq).max(0) as usize;
                    let (_, data) = self.ooo.remove(i);
                    self.ooo_bytes -= data.len();
                    let fresh = &data[skip..];
                    self.buf.extend(fresh);
                    delivered += fresh.len();
                    self.nxt = self.nxt.add(fresh.len());
                    advanced = true;
                    continue;
                }
                i += 1;
            }
            if !advanced {
                return delivered;
            }
        }
    }

    /// Merged SACK blocks describing the out-of-order queue, capped to
    /// what the wire format carries.
    fn sack_blocks(&self) -> Vec<(SeqNum, SeqNum)> {
        let mut blocks: Vec<(SeqNum, SeqNum)> = Vec::new();
        for &(seq, ref data) in &self.ooo {
            let end = seq.add(data.len());
            match blocks.last_mut() {
                Some(last) if seq.before_eq(last.1) => {
                    if end.after(last.1) {
                        last.1 = end;
                    }
                }
                _ => blocks.push((seq, end)),
            }
        }
        blocks.truncate(nectar_wire::tcp::MAX_SACK_BLOCKS);
        blocks
    }
}

/// RTT estimation (Jacobson/Karels) with Karn's rule and the
/// retransmission timeout it sets.
#[derive(Debug, Default)]
struct Rtt {
    srtt_ns: Option<i64>,
    rttvar_ns: i64,
    rto: SimDuration,
    /// (end-sequence, send time) of the segment being timed.
    sample: Option<(SeqNum, SimTime)>,
    /// A timeout fired and no new data has been acked since: nothing
    /// sent now may be timed (Karn).
    backoff: bool,
    /// Consecutive timeouts.
    retries: u32,
}

impl Rtt {
    /// Time the segment ending at `end`, unless one is being timed or
    /// the connection is backing off.
    fn time(&mut self, end: SeqNum, now: SimTime) {
        if self.sample.is_none() && !self.backoff {
            self.sample = Some((end, now));
        }
    }

    /// New data acknowledged up to `ack`: take the timed segment's
    /// sample unless it was retransmitted (Karn), and leave backoff.
    fn on_ack(&mut self, ack: SeqNum, now: SimTime, cfg: &TcpConfig) {
        self.retries = 0;
        if let Some((end, sent_at)) = self.sample {
            if ack.after_eq(end) {
                if !self.backoff {
                    self.update(now.saturating_since(sent_at), cfg);
                }
                self.sample = None;
            }
        }
        self.backoff = false;
    }

    fn update(&mut self, sample: SimDuration, cfg: &TcpConfig) {
        let r = sample.as_nanos() as i64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                let err = r - srtt;
                self.srtt_ns = Some(srtt + err / 8);
                self.rttvar_ns += (err.abs() - self.rttvar_ns) / 4;
            }
        }
        let rto_ns = self.srtt_ns.unwrap_or(0) + 4 * self.rttvar_ns;
        self.rto = SimDuration::from_nanos(rto_ns.max(0) as u64).max(cfg.rto_min).min(cfg.rto_max);
    }

    /// Exponential backoff: double the RTO up to `rto_max`.
    fn back_off(&mut self, rto_max: SimDuration) {
        self.rto = (self.rto * 2).min(rto_max);
    }

    /// The retransmission timer fired: back off and stop timing. False
    /// once the retry budget is spent.
    fn time_out(&mut self, cfg: &TcpConfig) -> bool {
        self.retries += 1;
        if self.retries > cfg.max_retries {
            return false;
        }
        self.back_off(cfg.rto_max);
        self.backoff = true;
        self.sample = None;
        true
    }
}

/// The connection's deadlines.
#[derive(Debug, Default)]
struct Timers {
    rto: Option<SimTime>,
    delack: Option<SimTime>,
    timewait: Option<SimTime>,
    /// Persist timer: probe the peer's closed window.
    probe: Option<SimTime>,
}

impl Timers {
    fn next(&self) -> Option<SimTime> {
        [self.rto, self.delack, self.timewait, self.probe].into_iter().flatten().min()
    }

    fn clear(&mut self) {
        *self = Timers::default();
    }

    /// Start the retransmission timer unless it is already running.
    fn arm_rto_if_idle(&mut self, now: SimTime, rto: SimDuration) {
        self.rto.get_or_insert(now + rto);
    }
}

/// One TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    snd: SendSeq,
    rcv: RecvSeq,
    rtt: Rtt,
    timers: Timers,
    /// Both SYNs carried the SACK-permitted option (RFC 2018).
    sack_ok: bool,
    /// Both SYNs carried the window-scale option (RFC 7323).
    wscale_ok: bool,
    stats: TcpSocketStats,
    /// Conformance monitor, present while the oracle is enabled
    /// (`conform::enabled()` at socket creation).
    monitor: Option<conform::TcpMonitor>,
}

impl TcpSocket {
    fn base(
        cfg: TcpConfig,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: SeqNum,
    ) -> TcpSocket {
        TcpSocket {
            state: TcpState::Closed,
            local,
            remote,
            snd: SendSeq {
                iss,
                una: iss,
                nxt: iss,
                buf_seq: iss.add(1),
                peer_mss: DEFAULT_PEER_MSS,
                cwnd: cfg.mss as u32 * 2,
                ssthresh: u32::MAX / 2,
                ..SendSeq::default()
            },
            rcv: RecvSeq { cap: cfg.recv_buf, ..RecvSeq::default() },
            rtt: Rtt { rto: cfg.rto_initial, ..Rtt::default() },
            timers: Timers::default(),
            sack_ok: false,
            wscale_ok: false,
            stats: TcpSocketStats::default(),
            monitor: conform::enabled().then(conform::TcpMonitor::new),
            cfg,
        }
    }

    /// Snapshot for the conformance oracle.
    fn view(&self) -> conform::TcpView {
        conform::TcpView {
            state: self.state,
            snd_una: self.snd.una,
            snd_nxt: self.snd.nxt,
            rcv_nxt: self.rcv.nxt,
            fin_seq: self.snd.fin_seq,
            peer_fin: self.rcv.fin,
            peer_fin_processed: self.rcv.fin_processed,
            local: self.local,
            remote: self.remote,
            sack_ok: self.sack_ok,
            rcv_wscale: self.rcv.wscale,
        }
    }

    /// Run the oracle's step check at the end of a public entry point.
    fn observe(&mut self, ctx: &str) {
        if let Some(mut m) = self.monitor.take() {
            m.observe(ctx, self.view());
            self.monitor = Some(m);
        }
    }

    /// Active open: create a socket and emit the SYN.
    pub fn client(
        now: SimTime,
        cfg: TcpConfig,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        isn: u32,
        ev: &mut Vec<TcpEvent>,
    ) -> TcpSocket {
        let mut s = TcpSocket::base(cfg, local, remote, SeqNum(isn));
        s.state = TcpState::SynSent;
        s.send_syn(now, false, ev);
        s.observe("client");
        s
    }

    /// Passive open: a listener accepted this SYN; emit the SYN-ACK.
    pub fn server_from_syn(
        now: SimTime,
        cfg: TcpConfig,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        syn: &TcpHeader,
        isn: u32,
        ev: &mut Vec<TcpEvent>,
    ) -> TcpSocket {
        debug_assert!(syn.flags.contains(TcpFlags::SYN));
        let mut s = TcpSocket::base(cfg, local, remote, SeqNum(isn));
        s.state = TcpState::SynReceived;
        s.on_peer_syn(syn);
        // seed the RFC 793 window-update qualifier (SND.WL1/SND.WL2);
        // left at their zero defaults, updates whose seq compares
        // "before" SeqNum(0) mod 2^32 would be ignored forever
        s.snd.take_window(syn, s.snd.una);
        s.send_syn(now, true, ev);
        s.observe("server_from_syn");
        s
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    pub fn state(&self) -> TcpState {
        self.state
    }

    pub fn stats(&self) -> &TcpSocketStats {
        &self.stats
    }

    /// Sequence-space snapshot `(snd_una, snd_nxt, rcv_nxt)` for
    /// invariant checks: `snd_una` never runs ahead of `snd_nxt`, and
    /// both only move forward between snapshots.
    pub fn seq_state(&self) -> (SeqNum, SeqNum, SeqNum) {
        (self.snd.una, self.snd.nxt, self.rcv.nxt)
    }

    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Bytes of in-order data ready for [`Self::recv`].
    pub fn readable(&self) -> usize {
        self.rcv.buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.cfg.send_buf - self.snd.buf.len()
    }

    /// True once the peer's FIN has been consumed and the receive
    /// buffer fully drained: reads have hit EOF.
    pub fn recv_finished(&self) -> bool {
        self.rcv.fin_processed && self.rcv.buf.is_empty()
    }

    /// The effective segment size for this connection.
    pub fn effective_mss(&self) -> usize {
        self.cfg.mss.min(self.snd.peer_mss) as usize
    }

    // ------------------------------------------------------------------
    // application interface
    // ------------------------------------------------------------------

    /// Queue application data; returns how many bytes were accepted
    /// (bounded by send-buffer space). Emits segments when the window
    /// allows.
    pub fn send(&mut self, now: SimTime, data: &[u8], ev: &mut Vec<TcpEvent>) -> usize {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived
        ) {
            return 0;
        }
        if self.snd.fin_queued {
            return 0; // sender already closed
        }
        let n = data.len().min(self.send_capacity());
        self.snd.buf.extend(&data[..n]);
        if self.state.synchronized() {
            self.try_output(now, ev);
        }
        self.observe("send");
        n
    }

    /// Read up to `max` bytes of in-order received data.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let (a, b) = self.peek(max);
        let mut out = Vec::with_capacity(a.len() + b.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        self.consume(out.len());
        out
    }

    /// The first `max` bytes of in-order received data, in place, as the
    /// receive ring's two runs. A reader that copies them straight to
    /// where they are going and then calls [`Self::consume`] has read
    /// without an intermediate buffer.
    pub fn peek(&self, max: usize) -> (&[u8], &[u8]) {
        ring_range(&self.rcv.buf, 0, max.min(self.rcv.buf.len()))
    }

    /// Release the first `n` readable bytes: the second half of a
    /// [`Self::peek`] read.
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.rcv.buf.len());
        self.rcv.buf.drain(..n);
        // Receiver-side silly-window avoidance: only volunteer a window
        // update once at least an MSS (or half the buffer) has opened.
        let unadvertised = self.rcv.window().saturating_sub(self.rcv.last_adv_wnd);
        if unadvertised >= (self.effective_mss() as u32).min(self.cfg.recv_buf as u32 / 2) && n > 0
        {
            self.rcv.want_window_update = true;
        }
    }

    /// Close the send side (queue a FIN after any buffered data).
    pub fn close(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => {
                if self.snd.buf.is_empty() {
                    self.enter_closed(ev, TcpEvent::Closed);
                } else {
                    // Data was queued before the handshake finished:
                    // keep the connection alive so the SYN retransmit
                    // path can still win, and let the FIN follow the
                    // buffered bytes once established.
                    self.snd.fin_queued = true;
                }
            }
            TcpState::SynReceived | TcpState::Established | TcpState::CloseWait
                if !self.snd.fin_queued =>
            {
                self.snd.fin_queued = true;
                self.try_output(now, ev);
            }
            // already closing
            _ => {}
        }
        self.observe("close");
    }

    /// Abort: RST the peer and drop to CLOSED.
    pub fn abort(&mut self, _now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.state.synchronized() || self.state == TcpState::SynReceived {
            self.segment(self.snd.nxt, TcpFlags::RST | TcpFlags::ACK, 0..0, ev);
        }
        self.enter_closed(ev, TcpEvent::Aborted(AbortReason::LocalAbort));
        self.observe("abort");
    }

    // ------------------------------------------------------------------
    // segment input
    // ------------------------------------------------------------------

    /// Standard TCP input processing (RFC 793 §3.9, "SEGMENT ARRIVES").
    pub fn on_segment(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        self.stats.segs_in += 1;
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(now, hdr, payload, ev),
            _ => self.on_segment_synchronized(now, hdr, payload, ev),
        }
        self.observe("on_segment");
    }

    /// Learn the peer's half of the connection from its SYN.
    fn on_peer_syn(&mut self, syn: &TcpHeader) {
        self.rcv.irs = syn.seq;
        self.rcv.nxt = syn.seq.add(1);
        if let Some(mss) = syn.mss {
            self.snd.peer_mss = mss;
        }
        // SACK and window scaling (RFC 2018 §2, RFC 7323 §2.2) are live
        // only when both our config offers them and the SYN carried them
        self.sack_ok = self.cfg.sack && syn.sack_permitted;
        if let (Some(ours), Some(theirs)) = (self.cfg.wscale, syn.wscale) {
            self.wscale_ok = true;
            self.rcv.wscale = ours.min(MAX_WSCALE);
            self.snd.wscale = theirs.min(MAX_WSCALE);
        }
    }

    fn on_segment_syn_sent(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        if hdr.flags.contains(TcpFlags::ACK) {
            // acceptable ack: iss < ack <= snd_nxt
            if hdr.ack.before_eq(self.snd.iss) || hdr.ack.after(self.snd.nxt) {
                if !hdr.flags.contains(TcpFlags::RST) {
                    self.send_rst_for_ack(hdr.ack, ev);
                }
                return;
            }
        }
        if hdr.flags.contains(TcpFlags::RST) {
            if hdr.flags.contains(TcpFlags::ACK) {
                self.enter_closed(ev, TcpEvent::Aborted(AbortReason::Refused));
            }
            return;
        }
        if !hdr.flags.contains(TcpFlags::SYN) {
            return;
        }
        self.on_peer_syn(hdr);
        if hdr.flags.contains(TcpFlags::ACK) {
            self.snd.una = hdr.ack;
            self.rtt.on_ack(hdr.ack, now, &self.cfg);
            self.timers.rto = None;
        }
        self.snd.take_window(hdr, self.snd.una);
        if self.snd.una.after(self.snd.iss) {
            // our SYN is acknowledged
            self.state = TcpState::Established;
            ev.push(TcpEvent::Connected);
            self.send_ack_now(ev);
            if !payload.is_empty() {
                self.process_payload(now, hdr, payload, ev);
            }
            self.try_output(now, ev);
        } else {
            // simultaneous open: SYN without ACK; re-send SYN, now with
            // ACK
            self.state = TcpState::SynReceived;
            self.send_syn(now, true, ev);
        }
    }

    /// Length a segment occupies in sequence space.
    fn segment_len(hdr: &TcpHeader, payload: &[u8]) -> u32 {
        let mut n = payload.len() as u32;
        if hdr.flags.contains(TcpFlags::SYN) {
            n += 1;
        }
        if hdr.flags.contains(TcpFlags::FIN) {
            n += 1;
        }
        n
    }

    fn on_segment_synchronized(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        // 1. acceptance
        if !self.rcv.acceptable(hdr.seq, Self::segment_len(hdr, payload)) {
            if !hdr.flags.contains(TcpFlags::RST) {
                // old duplicate or out-of-window: re-ACK (this is how a
                // lost ACK gets repaired)
                self.send_ack_now(ev);
            }
            return;
        }
        // 2. RST
        if hdr.flags.contains(TcpFlags::RST) {
            self.enter_closed(ev, TcpEvent::Aborted(AbortReason::Reset));
            return;
        }
        // 3. SYN in window: fatal in synchronized states
        if hdr.flags.contains(TcpFlags::SYN) && hdr.seq.after_eq(self.rcv.nxt) {
            self.send_rst_for_ack(self.snd.nxt, ev);
            self.enter_closed(ev, TcpEvent::Aborted(AbortReason::Reset));
            return;
        }
        // 4. ACK
        if !hdr.flags.contains(TcpFlags::ACK) {
            return;
        }
        if self.state == TcpState::SynReceived {
            if hdr.ack.after_eq(self.snd.una) && hdr.ack.before_eq(self.snd.nxt) {
                self.state = TcpState::Established;
                self.snd.take_window(hdr, hdr.ack);
                ev.push(TcpEvent::Connected);
            } else {
                self.send_rst_for_ack(hdr.ack, ev);
                return;
            }
        }
        self.process_ack(now, hdr, payload, ev);
        if self.state == TcpState::Closed {
            return;
        }
        // 5. payload
        if !payload.is_empty()
            && matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2)
        {
            self.process_payload(now, hdr, payload, ev);
        }
        // 6. FIN
        if hdr.flags.contains(TcpFlags::FIN) {
            let was_processed = self.rcv.fin_processed;
            self.rcv.fin.get_or_insert(hdr.seq.add(payload.len()));
            self.maybe_process_peer_fin(now, ev);
            // A *retransmitted* FIN reaching TIME-WAIT: re-ack and
            // restart 2MSL (RFC 793 p.73). A FIN processed just now was
            // already acked by maybe_process_peer_fin.
            if was_processed && self.state == TcpState::TimeWait {
                self.timers.timewait = Some(now + self.cfg.msl * 2);
                self.send_ack_now(ev);
            }
        }
        // 7. output + ack policy
        self.try_output(now, ev);
        self.flush_ack_policy(now, ev);
    }

    fn process_ack(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        let ack = hdr.ack;
        if ack.after(self.snd.nxt) {
            // ack for data we never sent
            self.send_ack_now(ev);
            return;
        }
        // Fold valid SACK blocks into the scoreboard before the
        // cumulative processing (RFC 2018 §4): blocks must lie strictly
        // above the segment's own ack and within what we actually sent.
        if self.sack_ok {
            for (l, r) in hdr.sack.iter() {
                if r.after(l) && l.after(ack) && r.before_eq(self.snd.nxt) {
                    self.stats.sack_blocks_in += 1;
                    self.snd.sack(l, r);
                }
            }
        }
        if ack.after(self.snd.una) {
            // --- new data acknowledged ---
            self.snd.ack(ack, self.effective_mss() as u32);
            self.rtt.on_ack(ack, now, &self.cfg);
            // our FIN acknowledged?
            if matches!(self.snd.fin_seq, Some(fin) if self.snd.una.after(fin)) {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => {
                        self.enter_closed(ev, TcpEvent::Closed);
                        return;
                    }
                    _ => {}
                }
            }
            // retransmission timer
            self.timers.rto =
                (self.snd.in_flight() > 0 || self.snd.fin_unacked()).then(|| now + self.rtt.rto);
            // Scoreboard-driven hole repair: a partial ack that stops
            // below a sacked range landed exactly on the next hole, so
            // retransmit it now instead of waiting out another dup-ack
            // round or the RTO.
            if !self.snd.sacked.is_empty() && self.snd.in_flight() > 0 {
                self.retransmit_one(now, ev);
            }
        } else if ack == self.snd.una
            && payload.is_empty()
            && !hdr.flags.contains(TcpFlags::FIN)
            && self.snd.in_flight() > 0
            && self.snd.window_in(hdr) == self.snd.wnd
        {
            // --- duplicate ACK ---
            self.snd.dup_acks += 1;
            self.stats.dup_acks_in += 1;
            if self.snd.dup_acks == 3 {
                self.stats.fast_retransmits += 1;
                self.recover(now, ev);
            }
        }
        if self.snd.update_window(hdr) {
            self.timers.probe = None;
        }
    }

    fn process_payload(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        let mut seq = hdr.seq;
        let mut data = payload;
        // trim the part we already have
        let behind = self.rcv.nxt.since(seq);
        if behind > 0 {
            if behind as usize >= data.len() {
                // entirely duplicate; make sure the peer gets an ACK
                self.rcv.unacked_segs += 1;
                return;
            }
            data = &data[behind as usize..];
            seq = self.rcv.nxt;
        }
        // trim to our window
        let wnd = self.rcv.window() as usize;
        let offset = seq.since(self.rcv.nxt).max(0) as usize;
        if offset >= wnd {
            return; // nothing fits
        }
        let data = &data[..(wnd - offset).min(data.len())];
        if data.is_empty() {
            return;
        }
        if seq == self.rcv.nxt {
            self.stats.bytes_in += self.rcv.accept(data) as u64;
            self.rcv.unacked_segs += 1;
            ev.push(TcpEvent::DataAvailable);
            self.maybe_process_peer_fin(now, ev);
        } else {
            // out of order: hold (bounded) and dup-ACK immediately so
            // the sender's fast retransmit can kick in
            self.rcv.insert_ooo(seq, data);
            self.send_ack_now(ev);
        }
    }

    fn maybe_process_peer_fin(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.rcv.fin_processed || self.rcv.fin != Some(self.rcv.nxt) {
            return;
        }
        self.rcv.nxt = self.rcv.nxt.add(1);
        self.rcv.fin_processed = true;
        ev.push(TcpEvent::PeerClosed);
        match self.state {
            TcpState::SynReceived | TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // our FIN not yet acked (otherwise we'd be in FIN-WAIT-2)
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => self.enter_time_wait(now),
            _ => {}
        }
        self.send_ack_now(ev);
    }

    // ------------------------------------------------------------------
    // output
    // ------------------------------------------------------------------

    /// Transmit whatever the send window, congestion window, Nagle and
    /// state allow.
    fn try_output(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        let mss = self.effective_mss();
        let usable = self.snd.wnd.min(self.snd.cwnd);
        // once our FIN is sent nothing may follow it
        while self.snd.fin_seq.is_none() {
            let remaining = self.snd.buf.len().saturating_sub(self.snd.unsent_offset());
            if remaining == 0 {
                break;
            }
            let in_flight = self.snd.in_flight();
            let wnd_left = usable.saturating_sub(in_flight) as usize;
            if wnd_left == 0 {
                if self.snd.wnd == 0 && self.timers.probe.is_none() {
                    // peer closed its window: arm the persist timer
                    self.timers.probe = Some(now + self.rtt.rto.max(self.cfg.rto_min));
                }
                break;
            }
            let len = mss.min(remaining).min(wnd_left);
            // Nagle with the Minshall refinement: while data is unacked,
            // hold a sub-MSS segment — unless it is the *trailing*
            // segment (it empties the send buffer), it fits the window,
            // and no other sub-MSS segment is outstanding. That trailing
            // exception is what keeps odd-sized writes from stalling a
            // full RTO behind their own last sliver (EXPERIMENTS.md
            // Figure 7).
            if self.cfg.nagle
                && len < mss
                && in_flight > 0
                && !(len == remaining && self.snd.small_unacked.is_none())
            {
                break;
            }
            // Sender-side SWS avoidance when Nagle is off: still send
            // only if MSS-sized, at least half the peer's max window,
            // or everything we have.
            if !self.cfg.nagle
                && len < mss
                && (len as u32) < self.snd.wnd_max / 2
                && len < remaining
            {
                break;
            }
            self.emit_data_segment(now, len, ev);
        }
        // FIN, once the buffer is drained
        if self.snd.fin_queued
            && self.snd.fin_seq.is_none()
            && self.snd.unsent_offset() >= self.snd.buf.len()
        {
            let seq = self.snd.nxt;
            self.snd.fin_seq = Some(seq);
            self.snd.nxt = seq.add(1);
            match self.state {
                TcpState::Established => self.state = TcpState::FinWait1,
                TcpState::CloseWait => self.state = TcpState::LastAck,
                _ => {}
            }
            self.segment(seq, TcpFlags::FIN | TcpFlags::ACK, 0..0, ev);
            self.timers.arm_rto_if_idle(now, self.rtt.rto);
        }
    }

    fn emit_data_segment(&mut self, now: SimTime, len: usize, ev: &mut Vec<TcpEvent>) {
        let offset = self.snd.unsent_offset();
        let seq = self.snd.nxt;
        let mut flags = TcpFlags::ACK;
        if offset + len >= self.snd.buf.len() {
            flags |= TcpFlags::PSH;
        }
        self.snd.nxt = seq.add(len);
        if len < self.effective_mss() {
            self.snd.small_unacked = Some(self.snd.nxt);
        }
        self.stats.bytes_out += len as u64;
        self.rtt.time(self.snd.nxt, now);
        self.segment(seq, flags, offset..offset + len, ev);
        self.timers.arm_rto_if_idle(now, self.rtt.rto);
    }

    /// Loss detected, by three duplicate acks or a timeout: collapse the
    /// congestion window, resend the first hole and restart the timer.
    fn recover(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.snd.on_loss(self.effective_mss() as u32);
        self.retransmit_one(now, ev);
        self.timers.rto = Some(now + self.rtt.rto);
    }

    /// Retransmit a single segment starting at the first hole above
    /// `snd.una`.
    fn retransmit_one(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.stats.retransmits += 1;
        if matches!(self.state, TcpState::SynSent | TcpState::SynReceived) {
            self.send_syn(now, self.state == TcpState::SynReceived, ev);
            return;
        }
        // SACK scoreboard: retransmit the first *hole*, never bytes the
        // peer has already selectively acknowledged.
        if !self.snd.sacked.is_empty() {
            self.stats.sack_retransmits += 1;
        }
        let (start, cap) = self.snd.first_hole();
        let offset = start.since(self.snd.buf_seq).max(0) as usize;
        // Never retransmit bytes beyond snd.nxt: they were never sent,
        // and sending them here without advancing snd.nxt would make the
        // peer's ACKs look like acks of unsent data.
        let outstanding = self.snd.nxt.since(start).max(0) as usize;
        let remaining = self.snd.buf.len().saturating_sub(offset).min(outstanding).min(cap);
        if remaining > 0 {
            let len = self.effective_mss().min(remaining);
            self.segment(start, TcpFlags::ACK | TcpFlags::PSH, offset..offset + len, ev);
        } else if self.snd.fin_unacked() {
            let fin = self.snd.fin_seq.expect("fin_unacked checked");
            self.segment(fin, TcpFlags::FIN | TcpFlags::ACK, 0..0, ev);
        }
        // Karn: retransmitted data must not be timed
        self.rtt.sample = None;
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// Fire any due timers and transmit pending output.
    pub fn poll(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.state == TcpState::Closed {
            return;
        }
        let due = |deadline: Option<SimTime>| deadline.is_some_and(|t| now >= t);
        if due(self.timers.timewait) {
            self.enter_closed(ev, TcpEvent::Closed);
            return;
        }
        if due(self.timers.rto) {
            self.on_rto(now, ev);
            if self.state == TcpState::Closed {
                return;
            }
        }
        if due(self.timers.probe) {
            self.send_window_probe(now, ev);
        }
        if due(self.timers.delack) {
            self.send_ack_now(ev);
        }
        if self.rcv.want_window_update {
            self.send_ack_now(ev);
        }
        self.try_output(now, ev);
        self.observe("poll");
    }

    /// The earliest time a timer could fire.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.timers.next()
    }

    fn on_rto(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.stats.timeouts += 1;
        if !self.rtt.time_out(&self.cfg) {
            self.enter_closed(ev, TcpEvent::Aborted(AbortReason::TooManyRetries));
            return;
        }
        self.recover(now, ev);
    }

    fn send_window_probe(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        let offset = self.snd.unsent_offset();
        if self.snd.wnd > 0 || offset >= self.snd.buf.len() {
            self.timers.probe = None;
            return;
        }
        self.stats.zero_window_probes += 1;
        // send one byte beyond the closed window
        let seq = self.snd.nxt;
        self.snd.nxt = seq.add(1);
        self.stats.bytes_out += 1;
        self.segment(seq, TcpFlags::ACK | TcpFlags::PSH, offset..offset + 1, ev);
        // persist backoff
        self.rtt.back_off(self.cfg.rto_max);
        self.timers.probe = Some(now + self.rtt.rto);
        self.timers.arm_rto_if_idle(now, self.rtt.rto);
    }

    // ------------------------------------------------------------------
    // segment construction
    // ------------------------------------------------------------------

    /// A header from us carrying `seq`, `flags`, our cumulative ack, our
    /// scaled receive window and, once SACK is on, our SACK blocks.
    fn header(&self, seq: SeqNum, flags: TcpFlags) -> TcpHeader {
        let mut h = TcpHeader::new(self.local.1, self.remote.1);
        h.seq = seq;
        h.ack = self.rcv.nxt;
        h.flags = flags;
        h.window = (self.rcv.window() >> self.rcv.wscale).min(u16::MAX as u32) as u16;
        if self.sack_ok {
            for b in self.rcv.sack_blocks() {
                h.sack.push(b.0, b.1);
            }
        }
        h
    }

    /// Emit one segment at `seq` carrying `data`, a range of `snd.buf`.
    fn segment(
        &mut self,
        seq: SeqNum,
        flags: TcpFlags,
        data: Range<usize>,
        ev: &mut Vec<TcpEvent>,
    ) {
        let h = self.header(seq, flags);
        self.emit(h, data, ev);
    }

    fn send_syn(&mut self, now: SimTime, with_ack: bool, ev: &mut Vec<TcpEvent>) {
        // before the peer's SYN arrives rcv.nxt is zero, as a bare SYN's
        // ack field is
        let flags = if with_ack { TcpFlags::SYN | TcpFlags::ACK } else { TcpFlags::SYN };
        let mut h = self.header(self.snd.iss, flags);
        // the window field in a SYN is never scaled (RFC 7323 §2.2)
        h.window = self.rcv.window().min(u16::MAX as u32) as u16;
        if with_ack {
            // SYN-ACK: echo only what negotiation resolved
            h.sack_permitted = self.sack_ok;
            h.wscale = self.wscale_ok.then_some(self.rcv.wscale);
        } else {
            // initial SYN: offer what our config enables
            h.sack_permitted = self.cfg.sack;
            h.wscale = self.cfg.wscale.map(|w| w.min(MAX_WSCALE));
        }
        h.mss = Some(self.cfg.mss);
        self.snd.nxt = self.snd.iss.add(1);
        self.emit(h, 0..0, ev);
        self.timers.arm_rto_if_idle(now, self.rtt.rto);
    }

    fn send_ack_now(&mut self, ev: &mut Vec<TcpEvent>) {
        self.segment(self.snd.nxt, TcpFlags::ACK, 0..0, ev);
    }

    /// ACK policy after receiving in-order data: BSD acks every second
    /// segment, or after the delayed-ACK timer.
    fn flush_ack_policy(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.rcv.unacked_segs == 0 {
            return;
        }
        if !self.cfg.delayed_ack || self.rcv.unacked_segs >= 2 {
            self.send_ack_now(ev);
        } else if self.timers.delack.is_none() {
            self.timers.delack = Some(now + self.cfg.delack_timeout);
        }
    }

    fn send_rst_for_ack(&mut self, seq: SeqNum, ev: &mut Vec<TcpEvent>) {
        let mut h = TcpHeader::new(self.local.1, self.remote.1);
        h.seq = seq;
        h.flags = TcpFlags::RST;
        self.emit(h, 0..0, ev);
    }

    /// Emit one segment carrying the bytes of `data`, a range of
    /// `snd.buf` (empty for a bare ACK / SYN / FIN / RST), copied by
    /// slice straight after the header into the segment.
    fn emit(&mut self, header: TcpHeader, data: Range<usize>, ev: &mut Vec<TcpEvent>) {
        if let Some(mut m) = self.monitor.take() {
            m.observe_emit(self.view(), &header, data.len());
            self.monitor = Some(m);
        }
        if header.flags.contains(TcpFlags::ACK) {
            // it acknowledges everything received: no ack is owed
            self.rcv.unacked_segs = 0;
            self.rcv.want_window_update = false;
            self.timers.delack = None;
        }
        self.stats.segs_out += 1;
        self.rcv.last_adv_wnd = (header.window as u32) << self.rcv.wscale;
        let (a, b) = ring_range(&self.snd.buf, data.start, data.len());
        let segment =
            header.build_parts(self.local.0, self.remote.0, &[a, b], self.cfg.compute_checksum);
        ev.push(TcpEvent::Transmit { dst: self.remote.0, segment });
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.timers.clear();
        self.timers.timewait = Some(now + self.cfg.msl * 2);
    }

    fn enter_closed(&mut self, ev: &mut Vec<TcpEvent>, event: TcpEvent) {
        self.state = TcpState::Closed;
        self.timers.clear();
        ev.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tahoe_window_arithmetic() {
        let mss = 4016;
        let mut s = SendSeq { nxt: SeqNum(24_016), cwnd: 2 * mss, ..SendSeq::default() };
        s.ssthresh = u32::MAX / 2;
        // slow start: one MSS per ack
        s.ack(SeqNum(4016), mss);
        assert_eq!(s.cwnd, 3 * mss);
        // a loss: ssthresh = max(flight / 2, 2·mss), cwnd = one MSS
        s.dup_acks = 3;
        s.on_loss(mss);
        assert_eq!((s.ssthresh, s.cwnd, s.dup_acks), (10_000, mss, 0));
        // congestion avoidance: max(mss² / cwnd, 1) per ack
        s.cwnd = 12_000;
        s.ack(SeqNum(8032), mss);
        assert_eq!(s.cwnd, 12_000 + mss * mss / 12_000);
        // a timeout is the same loss, here floored at 2·mss
        s.on_loss(mss);
        assert_eq!((s.ssthresh, s.cwnd), (2 * mss, mss));
    }
}
