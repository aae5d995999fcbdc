//! The per-connection TCP state machine.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::ops::Range;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader, MAX_WSCALE};

use super::cc::{self, CcState, CongestionControl};
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

/// One TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),

    // --- send sequence space (RFC 793 §3.2) ---
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_wnd: u32,
    /// Largest window the peer has ever advertised (for sender-side
    /// silly-window avoidance).
    snd_wnd_max: u32,
    snd_wl1: SeqNum,
    snd_wl2: SeqNum,
    snd_buf: VecDeque<u8>,
    /// Sequence number of `snd_buf[0]`.
    snd_buf_seq: SeqNum,
    /// End sequence of an outstanding sub-MSS segment, if any (Minshall
    /// refinement to Nagle: at most one small segment in flight).
    small_unacked: Option<SeqNum>,
    fin_queued: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<SeqNum>,
    peer_mss: u16,

    // --- receive sequence space ---
    irs: SeqNum,
    rcv_nxt: SeqNum,
    recv_buf: VecDeque<u8>,
    /// Out-of-order segments, sorted by sequence number.
    ooo: Vec<(SeqNum, Vec<u8>)>,
    ooo_bytes: usize,
    /// Sequence position of the peer's FIN, if seen but not yet in
    /// order.
    peer_fin: Option<SeqNum>,
    peer_fin_processed: bool,
    /// Window value sent in our most recent segment (receiver-side
    /// silly-window avoidance).
    last_adv_wnd: u32,
    want_window_update: bool,

    // --- congestion control ---
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    /// The loss-response algorithm (`TcpConfig::cc`).
    cc: Box<dyn CongestionControl>,

    // --- SACK (RFC 2018) ---
    /// Both SYNs carried the SACK-permitted option.
    sack_ok: bool,
    /// Sender scoreboard: disjoint, sorted ranges the peer has
    /// selectively acknowledged above `snd_una`. Only ever grows or is
    /// trimmed by the cumulative ACK — a reneging peer is ignored.
    sacked: Vec<(SeqNum, SeqNum)>,

    // --- window scaling (RFC 7323) ---
    /// Both SYNs carried the window-scale option.
    wscale_negotiated: bool,
    /// Shift applied to windows the peer advertises.
    snd_wscale: u8,
    /// Shift applied to windows we advertise.
    rcv_wscale: u8,

    // --- RTT estimation (Jacobson/Karels + Karn) ---
    srtt_ns: Option<i64>,
    rttvar_ns: i64,
    rto: SimDuration,
    /// (end-sequence, send time) of the segment being timed.
    rtt_sample: Option<(SeqNum, SimTime)>,
    backoff: bool,
    retries: u32,

    // --- timers ---
    rto_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    timewait_deadline: Option<SimTime>,
    probe_deadline: Option<SimTime>,
    /// In-order segments received since we last sent an ACK.
    unacked_segs: u32,

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
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            snd_wnd_max: 0,
            snd_wl1: SeqNum(0),
            snd_wl2: SeqNum(0),
            snd_buf: VecDeque::new(),
            snd_buf_seq: iss.add(1),
            small_unacked: None,
            fin_queued: false,
            fin_seq: None,
            peer_mss: DEFAULT_PEER_MSS,
            irs: SeqNum(0),
            rcv_nxt: SeqNum(0),
            recv_buf: VecDeque::new(),
            ooo: Vec::new(),
            ooo_bytes: 0,
            peer_fin: None,
            peer_fin_processed: false,
            last_adv_wnd: 0,
            want_window_update: false,
            cwnd: cfg.mss as u32 * 2,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            cc: cc::make(cfg.cc),
            sack_ok: false,
            sacked: Vec::new(),
            wscale_negotiated: false,
            snd_wscale: 0,
            rcv_wscale: 0,
            srtt_ns: None,
            rttvar_ns: 0,
            rto: cfg.rto_initial,
            rtt_sample: None,
            backoff: false,
            retries: 0,
            rto_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            probe_deadline: None,
            unacked_segs: 0,
            stats: TcpSocketStats::default(),
            monitor: conform::enabled().then(conform::TcpMonitor::new),
            cfg,
        }
    }

    /// Snapshot for the conformance oracle.
    fn view(&self) -> conform::TcpView {
        conform::TcpView {
            state: self.state,
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            rcv_nxt: self.rcv_nxt,
            fin_seq: self.fin_seq,
            peer_fin: self.peer_fin,
            peer_fin_processed: self.peer_fin_processed,
            local: self.local,
            remote: self.remote,
            sack_ok: self.sack_ok,
            rcv_wscale: self.rcv_wscale,
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
        s.irs = syn.seq;
        s.rcv_nxt = syn.seq.add(1);
        if let Some(mss) = syn.mss {
            s.peer_mss = mss;
        }
        s.negotiate_options(syn);
        s.set_peer_window(syn);
        // seed the RFC 793 window-update qualifier (SND.WL1/SND.WL2);
        // left at their zero defaults, updates whose seq compares
        // "before" SeqNum(0) mod 2^32 would be ignored forever
        s.snd_wl1 = syn.seq;
        s.snd_wl2 = s.snd_una;
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
        (self.snd_una, self.snd_nxt, self.rcv_nxt)
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
        self.recv_buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.cfg.send_buf - self.snd_buf.len()
    }

    /// True once the peer's FIN has been consumed and the receive
    /// buffer fully drained: reads have hit EOF.
    pub fn recv_finished(&self) -> bool {
        self.peer_fin_processed && self.recv_buf.is_empty()
    }

    /// The effective segment size for this connection.
    pub fn effective_mss(&self) -> usize {
        self.cfg.mss.min(self.peer_mss) as usize
    }

    // ------------------------------------------------------------------
    // application interface
    // ------------------------------------------------------------------

    /// Queue application data; returns how many bytes were accepted
    /// (bounded by send-buffer space). Emits segments when the window
    /// allows.
    pub fn send(&mut self, now: SimTime, data: &[u8], ev: &mut Vec<TcpEvent>) -> usize {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && !matches!(self.state, TcpState::SynSent | TcpState::SynReceived)
        {
            return 0;
        }
        if self.fin_queued {
            return 0; // sender already closed
        }
        let n = data.len().min(self.send_capacity());
        self.snd_buf.extend(&data[..n]);
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
        ring_range(&self.recv_buf, 0, max.min(self.recv_buf.len()))
    }

    /// Release the first `n` readable bytes: the second half of a
    /// [`Self::peek`] read.
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.recv_buf.len());
        self.recv_buf.drain(..n);
        // Receiver-side silly-window avoidance: only volunteer a window
        // update once at least an MSS (or half the buffer) has opened.
        let unadvertised = self.recv_window().saturating_sub(self.last_adv_wnd);
        if unadvertised >= (self.effective_mss() as u32).min(self.cfg.recv_buf as u32 / 2) && n > 0
        {
            self.want_window_update = true;
        }
    }

    /// Close the send side (queue a FIN after any buffered data).
    pub fn close(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => {
                if self.snd_buf.is_empty() {
                    self.enter_closed(ev, Some(TcpEvent::Closed));
                } else {
                    // Data was queued before the handshake finished:
                    // keep the connection alive so the SYN retransmit
                    // path can still win, and let the FIN follow the
                    // buffered bytes once established.
                    self.fin_queued = true;
                }
            }
            TcpState::SynReceived | TcpState::Established | TcpState::CloseWait
                if !self.fin_queued =>
            {
                self.fin_queued = true;
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
            let mut h = self.header_template();
            h.seq = self.snd_nxt;
            h.ack = self.rcv_nxt;
            h.flags = TcpFlags::RST | TcpFlags::ACK;
            self.emit(h, 0..0, ev);
        }
        self.enter_closed(ev, Some(TcpEvent::Aborted(AbortReason::LocalAbort)));
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

    fn on_segment_syn_sent(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        if hdr.flags.contains(TcpFlags::ACK) {
            // acceptable ack: iss < ack <= snd_nxt
            if hdr.ack.before_eq(self.iss) || hdr.ack.after(self.snd_nxt) {
                if !hdr.flags.contains(TcpFlags::RST) {
                    self.send_rst_for_ack(hdr.ack, ev);
                }
                return;
            }
        }
        if hdr.flags.contains(TcpFlags::RST) {
            if hdr.flags.contains(TcpFlags::ACK) {
                self.enter_closed(ev, Some(TcpEvent::Aborted(AbortReason::Refused)));
            }
            return;
        }
        if !hdr.flags.contains(TcpFlags::SYN) {
            return;
        }
        self.irs = hdr.seq;
        self.rcv_nxt = hdr.seq.add(1);
        if let Some(mss) = hdr.mss {
            self.peer_mss = mss;
        }
        self.negotiate_options(hdr);
        if hdr.flags.contains(TcpFlags::ACK) {
            self.snd_una = hdr.ack;
            self.retries = 0;
            self.backoff = false;
            self.rto_deadline = None;
        }
        self.set_peer_window(hdr);
        self.snd_wl1 = hdr.seq;
        self.snd_wl2 = if hdr.flags.contains(TcpFlags::ACK) { hdr.ack } else { self.snd_una };
        if self.snd_una.after(self.iss) {
            // our SYN is acknowledged
            self.state = TcpState::Established;
            ev.push(TcpEvent::Connected);
            self.send_ack_now(ev);
            if !payload.is_empty() {
                self.process_payload(now, hdr, payload, ev);
            }
            self.try_output(now, ev);
        } else {
            // simultaneous open: SYN without ACK
            self.state = TcpState::SynReceived;
            self.snd_nxt = self.iss; // re-send SYN, now with ACK
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

    fn acceptable(&self, hdr: &TcpHeader, payload: &[u8]) -> bool {
        let seg_len = Self::segment_len(hdr, payload);
        let wnd = self.recv_window();
        let seq = hdr.seq;
        if seg_len == 0 {
            if wnd == 0 {
                return seq == self.rcv_nxt;
            }
            return seq.after_eq(self.rcv_nxt) && seq.before(self.rcv_nxt.add(wnd as usize));
        }
        if wnd == 0 {
            return false;
        }
        let seg_end = seq.add(seg_len as usize - 1);
        let wnd_end = self.rcv_nxt.add(wnd as usize);
        (seq.after_eq(self.rcv_nxt) && seq.before(wnd_end))
            || (seg_end.after_eq(self.rcv_nxt) && seg_end.before(wnd_end))
    }

    fn on_segment_synchronized(
        &mut self,
        now: SimTime,
        hdr: &TcpHeader,
        payload: &[u8],
        ev: &mut Vec<TcpEvent>,
    ) {
        // 1. acceptance
        if !self.acceptable(hdr, payload) {
            if !hdr.flags.contains(TcpFlags::RST) {
                // old duplicate or out-of-window: re-ACK (this is how a
                // lost ACK gets repaired)
                self.send_ack_now(ev);
            }
            return;
        }
        // 2. RST
        if hdr.flags.contains(TcpFlags::RST) {
            self.enter_closed(ev, Some(TcpEvent::Aborted(AbortReason::Reset)));
            return;
        }
        // 3. SYN in window: fatal in synchronized states
        if hdr.flags.contains(TcpFlags::SYN) && hdr.seq.after_eq(self.rcv_nxt) {
            self.send_rst_for_ack(self.snd_nxt, ev);
            self.enter_closed(ev, Some(TcpEvent::Aborted(AbortReason::Reset)));
            return;
        }
        // 4. ACK
        if !hdr.flags.contains(TcpFlags::ACK) {
            return;
        }
        if self.state == TcpState::SynReceived {
            if hdr.ack.after_eq(self.snd_una) && hdr.ack.before_eq(self.snd_nxt) {
                self.state = TcpState::Established;
                self.set_peer_window(hdr);
                self.snd_wl1 = hdr.seq;
                self.snd_wl2 = hdr.ack;
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
            let was_processed = self.peer_fin_processed;
            let fin_pos = hdr.seq.add(payload.len());
            if self.peer_fin.is_none() {
                self.peer_fin = Some(fin_pos);
            }
            self.maybe_process_peer_fin(now, ev);
            // A *retransmitted* FIN reaching TIME-WAIT: re-ack and
            // restart 2MSL (RFC 793 p.73). A FIN processed just now was
            // already acked by maybe_process_peer_fin.
            if was_processed && self.state == TcpState::TimeWait {
                self.timewait_deadline = Some(now + self.cfg.msl * 2);
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
        if ack.after(self.snd_nxt) {
            // ack for data we never sent
            self.send_ack_now(ev);
            return;
        }
        // Fold valid SACK blocks into the scoreboard before the
        // cumulative processing (RFC 2018 §4): blocks must lie strictly
        // above the segment's own ack and within what we actually sent.
        if self.sack_ok {
            for (l, r) in hdr.sack.iter() {
                if r.after(l) && l.after(ack) && r.before_eq(self.snd_nxt) {
                    self.stats.sack_blocks_in += 1;
                    self.add_sacked(l, r);
                }
            }
        }
        if ack.after(self.snd_una) {
            // --- new data acknowledged ---
            let old_una = self.snd_una;
            self.snd_una = ack;
            self.retries = 0;
            self.dup_acks = 0;
            if matches!(self.small_unacked, Some(end) if ack.after_eq(end)) {
                self.small_unacked = None;
            }
            // Karn's rule: only sample if this segment was not
            // retransmitted.
            if let Some((end_seq, sent_at)) = self.rtt_sample {
                if ack.after_eq(end_seq) {
                    if !self.backoff {
                        self.update_rtt(now.saturating_since(sent_at));
                    }
                    self.rtt_sample = None;
                }
            }
            self.backoff = false;
            // the cumulative ack implicitly covers any sacked range at
            // or below it
            if !self.sacked.is_empty() {
                self.sacked.retain(|&(_, r)| r.after(ack));
                if let Some(first) = self.sacked.first_mut() {
                    if first.0.before(ack) {
                        first.0 = ack;
                    }
                }
            }
            // congestion window growth
            let mss = self.effective_mss() as u32;
            let acked = ack.since(old_una).max(0) as u32;
            let mut st = CcState { cwnd: self.cwnd, ssthresh: self.ssthresh };
            self.cc.on_ack(&mut st, now, acked, mss);
            self.cwnd = st.cwnd;
            self.ssthresh = st.ssthresh;
            // release acknowledged bytes from the send buffer
            let data_acked =
                self.snd_una.since(self.snd_buf_seq).clamp(0, self.snd_buf.len() as i32);
            if data_acked > 0 {
                self.snd_buf.drain(..data_acked as usize);
                self.snd_buf_seq = self.snd_buf_seq.add(data_acked as usize);
            }
            // our FIN acknowledged?
            if let Some(fin_seq) = self.fin_seq {
                if self.snd_una.after(fin_seq) {
                    match self.state {
                        TcpState::FinWait1 => self.state = TcpState::FinWait2,
                        TcpState::Closing => self.enter_time_wait(now, ev),
                        TcpState::LastAck => {
                            self.enter_closed(ev, Some(TcpEvent::Closed));
                            return;
                        }
                        _ => {}
                    }
                }
            }
            // retransmission timer
            if self.snd_nxt.after(self.snd_una) || self.fin_unacked() {
                self.rto_deadline = Some(now + self.rto);
            } else {
                self.rto_deadline = None;
            }
            // Scoreboard-driven hole repair: a partial ack that stops
            // below a sacked range landed exactly on the next hole, so
            // retransmit it now instead of waiting out another dup-ack
            // round or the RTO.
            if self.sack_ok && !self.sacked.is_empty() && self.snd_nxt.after(self.snd_una) {
                self.retransmit_one(now, ev);
            }
        } else if ack == self.snd_una
            && payload.is_empty()
            && !hdr.flags.contains(TcpFlags::FIN)
            && self.snd_nxt.after(self.snd_una)
            && self.peer_window_in(hdr) == self.snd_wnd
        {
            // --- duplicate ACK ---
            self.dup_acks += 1;
            self.stats.dup_acks_in += 1;
            if self.dup_acks == 3 {
                self.fast_retransmit(now, ev);
            }
        }
        // window update (RFC 793 update rule)
        if self.snd_wl1.before(hdr.seq) || (self.snd_wl1 == hdr.seq && self.snd_wl2.before_eq(ack))
        {
            let was_zero = self.snd_wnd == 0;
            self.set_peer_window(hdr);
            self.snd_wl1 = hdr.seq;
            self.snd_wl2 = ack;
            if was_zero && self.snd_wnd > 0 {
                self.probe_deadline = None;
            }
        }
    }

    fn fin_unacked(&self) -> bool {
        matches!(self.fin_seq, Some(s) if self.snd_una.before_eq(s))
    }

    fn fast_retransmit(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.stats.fast_retransmits += 1;
        let mss = self.effective_mss() as u32;
        let flight = self.snd_nxt.since(self.snd_una).max(0) as u32;
        let mut st = CcState { cwnd: self.cwnd, ssthresh: self.ssthresh };
        self.cc.on_loss(&mut st, now, flight, mss);
        self.cwnd = st.cwnd;
        self.ssthresh = st.ssthresh;
        self.dup_acks = 0;
        self.retransmit_one(now, ev);
        self.rto_deadline = Some(now + self.rto);
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
        let behind = self.rcv_nxt.since(seq);
        if behind > 0 {
            if behind as usize >= data.len() {
                // entirely duplicate; make sure the peer gets an ACK
                self.unacked_segs += 1;
                return;
            }
            data = &data[behind as usize..];
            seq = self.rcv_nxt;
        }
        // trim to our window
        let wnd = self.recv_window() as usize;
        let offset = seq.since(self.rcv_nxt).max(0) as usize;
        if offset >= wnd {
            return; // nothing fits
        }
        let fit = (wnd - offset).min(data.len());
        let data = &data[..fit];
        if data.is_empty() {
            return;
        }
        if seq == self.rcv_nxt {
            self.recv_buf.extend(data);
            self.rcv_nxt = self.rcv_nxt.add(data.len());
            self.stats.bytes_in += data.len() as u64;
            self.drain_ooo();
            self.unacked_segs += 1;
            ev.push(TcpEvent::DataAvailable);
            self.maybe_process_peer_fin(now, ev);
        } else {
            // out of order: hold (bounded) and dup-ACK immediately so
            // the sender's fast retransmit can kick in
            if self.ooo_bytes + data.len() <= self.cfg.recv_buf {
                self.insert_ooo(seq, data.to_vec());
            }
            self.send_ack_now(ev);
        }
    }

    fn insert_ooo(&mut self, seq: SeqNum, data: Vec<u8>) {
        // exact-duplicate suppression is enough: overlaps are resolved
        // in drain_ooo by trimming against rcv_nxt
        if self.ooo.iter().any(|&(s, ref d)| s == seq && d.len() >= data.len()) {
            return;
        }
        self.ooo_bytes += data.len();
        let at = self.ooo.partition_point(|&(s, _)| s.before(seq));
        self.ooo.insert(at, (seq, data));
    }

    fn drain_ooo(&mut self) {
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < self.ooo.len() {
                let (seq, ref data) = self.ooo[i];
                let end = seq.add(data.len());
                if end.before_eq(self.rcv_nxt) {
                    // fully stale
                    self.ooo_bytes -= data.len();
                    self.ooo.remove(i);
                    continue;
                }
                if seq.before_eq(self.rcv_nxt) {
                    let skip = self.rcv_nxt.since(seq).max(0) as usize;
                    let (_, data) = self.ooo.remove(i);
                    self.ooo_bytes -= data.len();
                    let fresh = &data[skip..];
                    self.recv_buf.extend(fresh);
                    self.stats.bytes_in += fresh.len() as u64;
                    self.rcv_nxt = self.rcv_nxt.add(fresh.len());
                    advanced = true;
                    continue;
                }
                i += 1;
            }
            if !advanced {
                break;
            }
        }
    }

    fn maybe_process_peer_fin(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        let Some(fin_pos) = self.peer_fin else { return };
        if self.peer_fin_processed || fin_pos != self.rcv_nxt {
            return;
        }
        self.rcv_nxt = self.rcv_nxt.add(1);
        self.peer_fin_processed = true;
        ev.push(TcpEvent::PeerClosed);
        match self.state {
            TcpState::SynReceived | TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // our FIN not yet acked (otherwise we'd be in FIN-WAIT-2)
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => self.enter_time_wait(now, ev),
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
        let usable = self.snd_wnd.min(self.cwnd);
        loop {
            if self.fin_seq.is_some() {
                break; // FIN sent; nothing may follow it
            }
            let offset = self.snd_nxt.since(self.snd_buf_seq).max(0) as usize;
            let remaining = self.snd_buf.len().saturating_sub(offset);
            if remaining == 0 {
                break;
            }
            let in_flight = self.snd_nxt.since(self.snd_una).max(0) as u32;
            let wnd_left = usable.saturating_sub(in_flight) as usize;
            if wnd_left == 0 {
                if self.snd_wnd == 0 && self.probe_deadline.is_none() {
                    // peer closed its window: arm the persist timer
                    self.probe_deadline = Some(now + self.rto.max(self.cfg.rto_min));
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
                && !(len == remaining && self.small_unacked.is_none())
            {
                break;
            }
            // Sender-side SWS avoidance when Nagle is off: still send
            // only if MSS-sized, at least half the peer's max window,
            // or everything we have.
            if !self.cfg.nagle
                && len < mss
                && (len as u32) < self.snd_wnd_max / 2
                && len < remaining
            {
                break;
            }
            self.emit_data_segment(now, len, ev);
        }
        // FIN, once the buffer is drained
        if self.fin_queued && self.fin_seq.is_none() {
            let offset = self.snd_nxt.since(self.snd_buf_seq).max(0) as usize;
            if offset >= self.snd_buf.len() {
                let mut h = self.header_template();
                h.seq = self.snd_nxt;
                h.ack = self.rcv_nxt;
                h.flags = TcpFlags::FIN | TcpFlags::ACK;
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt = self.snd_nxt.add(1);
                match self.state {
                    TcpState::Established => self.state = TcpState::FinWait1,
                    TcpState::CloseWait => self.state = TcpState::LastAck,
                    _ => {}
                }
                self.emit(h, 0..0, ev);
                self.note_ack_sent();
                if self.rto_deadline.is_none() {
                    self.rto_deadline = Some(now + self.rto);
                }
            }
        }
    }

    fn emit_data_segment(&mut self, now: SimTime, len: usize, ev: &mut Vec<TcpEvent>) {
        let offset = self.snd_nxt.since(self.snd_buf_seq).max(0) as usize;
        let mut h = self.header_template();
        h.seq = self.snd_nxt;
        h.ack = self.rcv_nxt;
        h.flags = TcpFlags::ACK;
        if offset + len >= self.snd_buf.len() {
            h.flags |= TcpFlags::PSH;
        }
        self.snd_nxt = self.snd_nxt.add(len);
        if len < self.effective_mss() {
            self.small_unacked = Some(self.snd_nxt);
        }
        self.stats.bytes_out += len as u64;
        // time this segment if nothing else is being timed (Karn)
        if self.rtt_sample.is_none() && !self.backoff {
            self.rtt_sample = Some((self.snd_nxt, now));
        }
        self.emit(h, offset..offset + len, ev);
        self.note_ack_sent();
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Retransmit a single segment starting at `snd_una`.
    fn retransmit_one(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.stats.retransmits += 1;
        match self.state {
            TcpState::SynSent => {
                self.snd_nxt = self.iss;
                self.send_syn(now, false, ev);
                return;
            }
            TcpState::SynReceived => {
                self.snd_nxt = self.iss;
                self.send_syn(now, true, ev);
                return;
            }
            _ => {}
        }
        // SACK scoreboard: retransmit the first *hole*, never bytes the
        // peer has already selectively acknowledged. `start` advances
        // past any leading sacked ranges and `cap` stops the segment at
        // the next sacked left edge.
        let mut start = self.snd_una;
        let mut cap = usize::MAX;
        if self.sack_ok && !self.sacked.is_empty() {
            self.stats.sack_retransmits += 1;
            for &(sl, sr) in &self.sacked {
                if sr.before_eq(start) {
                    continue;
                }
                if sl.before_eq(start) {
                    start = sr;
                } else {
                    cap = sl.since(start).max(0) as usize;
                    break;
                }
            }
        }
        let offset = start.since(self.snd_buf_seq).max(0) as usize;
        let remaining = self.snd_buf.len().saturating_sub(offset);
        // Never retransmit bytes beyond snd_nxt: they were never sent,
        // and sending them here without advancing snd_nxt would make the
        // peer's ACKs look like acks of unsent data.
        let outstanding = self.snd_nxt.since(start).max(0) as usize;
        let remaining = remaining.min(outstanding).min(cap);
        if remaining > 0 {
            let len = self.effective_mss().min(remaining);
            let mut h = self.header_template();
            h.seq = start;
            h.ack = self.rcv_nxt;
            h.flags = TcpFlags::ACK | TcpFlags::PSH;
            self.emit(h, offset..offset + len, ev);
            self.note_ack_sent();
        } else if self.fin_unacked() {
            let mut h = self.header_template();
            h.seq = self.fin_seq.expect("fin_unacked checked");
            h.ack = self.rcv_nxt;
            h.flags = TcpFlags::FIN | TcpFlags::ACK;
            self.emit(h, 0..0, ev);
            self.note_ack_sent();
        }
        // Karn: retransmitted data must not be timed
        self.rtt_sample = None;
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// Fire any due timers and transmit pending output.
    pub fn poll(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.state == TcpState::Closed {
            return;
        }
        if let Some(t) = self.timewait_deadline {
            if now >= t {
                self.enter_closed(ev, Some(TcpEvent::Closed));
                return;
            }
        }
        if let Some(t) = self.rto_deadline {
            if now >= t {
                self.on_rto(now, ev);
                if self.state == TcpState::Closed {
                    return;
                }
            }
        }
        if let Some(t) = self.probe_deadline {
            if now >= t {
                self.send_window_probe(now, ev);
            }
        }
        if let Some(t) = self.delack_deadline {
            if now >= t {
                self.send_ack_now(ev);
            }
        }
        if self.want_window_update {
            self.want_window_update = false;
            self.send_ack_now(ev);
        }
        self.try_output(now, ev);
        self.observe("poll");
    }

    /// The earliest time a timer could fire.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        [self.rto_deadline, self.delack_deadline, self.timewait_deadline, self.probe_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    fn on_rto(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        self.stats.timeouts += 1;
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.enter_closed(ev, Some(TcpEvent::Aborted(AbortReason::TooManyRetries)));
            return;
        }
        // exponential backoff, Karn phase
        self.rto = (self.rto * 2).min(self.cfg.rto_max);
        self.backoff = true;
        self.rtt_sample = None;
        let mss = self.effective_mss() as u32;
        let flight = self.snd_nxt.since(self.snd_una).max(0) as u32;
        let mut st = CcState { cwnd: self.cwnd, ssthresh: self.ssthresh };
        self.cc.on_timeout(&mut st, now, flight, mss);
        self.cwnd = st.cwnd;
        self.ssthresh = st.ssthresh;
        self.dup_acks = 0;
        self.retransmit_one(now, ev);
        self.rto_deadline = Some(now + self.rto);
    }

    fn send_window_probe(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        let offset = self.snd_nxt.since(self.snd_buf_seq).max(0) as usize;
        if self.snd_wnd > 0 || offset >= self.snd_buf.len() {
            self.probe_deadline = None;
            return;
        }
        self.stats.zero_window_probes += 1;
        // send one byte beyond the closed window
        let mut h = self.header_template();
        h.seq = self.snd_nxt;
        h.ack = self.rcv_nxt;
        h.flags = TcpFlags::ACK | TcpFlags::PSH;
        self.snd_nxt = self.snd_nxt.add(1);
        self.stats.bytes_out += 1;
        self.emit(h, offset..offset + 1, ev);
        self.note_ack_sent();
        // persist backoff
        self.rto = (self.rto * 2).min(self.cfg.rto_max);
        self.probe_deadline = Some(now + self.rto);
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
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
        self.rto = SimDuration::from_nanos(rto_ns.max(0) as u64)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max);
    }

    // ------------------------------------------------------------------
    // segment construction
    // ------------------------------------------------------------------

    fn header_template(&self) -> TcpHeader {
        let mut h = TcpHeader::new(self.local.1, self.remote.1);
        h.window = (self.recv_window() >> self.rcv_wscale).min(u16::MAX as u32) as u16;
        if self.sack_ok {
            for b in self.sack_blocks() {
                h.sack.push(b.0, b.1);
            }
        }
        h
    }

    /// Current receive window (free buffer space), before scaling and
    /// the u16 clamp.
    fn recv_window(&self) -> u32 {
        (self.cfg.recv_buf - self.recv_buf.len()) as u32
    }

    /// The window a received header advertises, after undoing the
    /// peer's scale shift. Windows in SYN segments are never scaled
    /// (RFC 7323 §2.2).
    fn peer_window_in(&self, hdr: &TcpHeader) -> u32 {
        let shift = if hdr.flags.contains(TcpFlags::SYN) { 0 } else { self.snd_wscale as u32 };
        (hdr.window as u32) << shift
    }

    fn set_peer_window(&mut self, hdr: &TcpHeader) {
        self.snd_wnd = self.peer_window_in(hdr);
        self.snd_wnd_max = self.snd_wnd_max.max(self.snd_wnd);
    }

    /// Resolve SACK and window-scale negotiation from the peer's SYN
    /// (RFC 2018 §2, RFC 7323 §2.2): each feature is live only when
    /// both our config offers it and the peer's SYN carried it.
    fn negotiate_options(&mut self, syn: &TcpHeader) {
        self.sack_ok = self.cfg.sack && syn.sack_permitted;
        if let (Some(ours), Some(theirs)) = (self.cfg.wscale, syn.wscale) {
            self.wscale_negotiated = true;
            self.rcv_wscale = ours.min(MAX_WSCALE);
            self.snd_wscale = theirs.min(MAX_WSCALE);
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

    /// Grow the scoreboard with `[l, r)`, merging overlapping or
    /// adjacent ranges. Add-only: reneging peers are ignored.
    fn add_sacked(&mut self, mut l: SeqNum, mut r: SeqNum) {
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

    fn send_syn(&mut self, now: SimTime, with_ack: bool, ev: &mut Vec<TcpEvent>) {
        let mut h = self.header_template();
        // the window field in a SYN is never scaled (RFC 7323 §2.2)
        h.window = self.recv_window().min(u16::MAX as u32) as u16;
        h.seq = self.iss;
        h.flags = TcpFlags::SYN;
        if with_ack {
            h.flags |= TcpFlags::ACK;
            h.ack = self.rcv_nxt;
            // SYN-ACK: echo only what negotiation resolved
            h.sack_permitted = self.sack_ok;
            h.wscale = self.wscale_negotiated.then_some(self.rcv_wscale);
        } else {
            // initial SYN: offer what our config enables
            h.sack_permitted = self.cfg.sack;
            h.wscale = self.cfg.wscale.map(|w| w.min(MAX_WSCALE));
        }
        h.mss = Some(self.cfg.mss);
        self.snd_nxt = self.iss.add(1);
        self.emit(h, 0..0, ev);
        if with_ack {
            self.note_ack_sent();
        }
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    fn send_ack_now(&mut self, ev: &mut Vec<TcpEvent>) {
        let mut h = self.header_template();
        h.seq = self.snd_nxt;
        h.ack = self.rcv_nxt;
        h.flags = TcpFlags::ACK;
        self.emit(h, 0..0, ev);
        self.note_ack_sent();
    }

    fn note_ack_sent(&mut self) {
        self.unacked_segs = 0;
        self.delack_deadline = None;
        self.want_window_update = false;
    }

    /// ACK policy after receiving in-order data: BSD acks every second
    /// segment, or after the delayed-ACK timer.
    fn flush_ack_policy(&mut self, now: SimTime, ev: &mut Vec<TcpEvent>) {
        if self.unacked_segs == 0 {
            return;
        }
        if !self.cfg.delayed_ack || self.unacked_segs >= 2 {
            self.send_ack_now(ev);
        } else if self.delack_deadline.is_none() {
            self.delack_deadline = Some(now + self.cfg.delack_timeout);
        }
    }

    fn send_rst_for_ack(&mut self, seq: SeqNum, ev: &mut Vec<TcpEvent>) {
        let mut h = TcpHeader::new(self.local.1, self.remote.1);
        h.seq = seq;
        h.flags = TcpFlags::RST;
        self.emit(h, 0..0, ev);
    }

    /// Emit one segment carrying the bytes of `data`, a range of
    /// `snd_buf` (empty for a bare ACK / SYN / FIN / RST), copied by
    /// slice straight after the header into the segment.
    fn emit(&mut self, header: TcpHeader, data: Range<usize>, ev: &mut Vec<TcpEvent>) {
        if let Some(mut m) = self.monitor.take() {
            m.observe_emit(self.view(), &header, data.len());
            self.monitor = Some(m);
        }
        self.stats.segs_out += 1;
        self.last_adv_wnd = (header.window as u32) << self.rcv_wscale;
        let (a, b) = ring_range(&self.snd_buf, data.start, data.len());
        let segment =
            header.build_parts(self.local.0, self.remote.0, &[a, b], self.cfg.compute_checksum);
        ev.push(TcpEvent::Transmit { dst: self.remote.0, segment });
    }

    fn enter_time_wait(&mut self, now: SimTime, _ev: &mut Vec<TcpEvent>) {
        self.state = TcpState::TimeWait;
        self.timewait_deadline = Some(now + self.cfg.msl * 2);
        self.rto_deadline = None;
        self.delack_deadline = None;
        self.probe_deadline = None;
    }

    fn enter_closed(&mut self, ev: &mut Vec<TcpEvent>, event: Option<TcpEvent>) {
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
        self.probe_deadline = None;
        if let Some(e) = event {
            ev.push(e);
        }
    }
}
