//! The Nectar Reliable Message Protocol (RMP).
//!
//! §4: "The reliable message protocol is a simple stop-and-wait
//! protocol." Messages are addressed to mailboxes; a message larger
//! than the datalink MTU is cut into fragments, and each fragment is
//! individually acknowledged before the next is sent. No software
//! checksum is computed — the CAB's hardware CRC protects the frame,
//! which is exactly why RMP reaches ≈90 Mbit/s in Figure 7 while TCP
//! pays for software checksumming.
//!
//! Stop-and-wait is viable at these speeds because the Nectar fiber
//! RTT (< 10 µs) is tiny against the serialization time of a large
//! fragment (655 µs for 8 KiB at 100 Mbit/s), so the link stays > 95 %
//! utilized — the paper's measured curve shape. The paper flags the
//! per-message turnaround as future work, and this module implements
//! that extension: [`RmpConfig::window`] > 1 keeps several *messages*
//! in flight concurrently (each message still advances
//! fragment-by-fragment on selective acks), with the receiver's
//! cumulative ack — carried in the otherwise-unused `total_len` field
//! of Ack packets — keeping delivery in-order and exactly-once. The
//! default `window = 1` is byte-identical to the paper's stop-and-wait
//! schedule, which is what the committed fixtures pin.

use std::collections::{BTreeMap, VecDeque};

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::nectar::{RmpHeader, RmpKind};

/// Receiver-side bound on how far ahead of the in-order point a
/// message may be buffered. Far above any sane sender window; packets
/// beyond it are dropped as insane rather than buffered.
const RECV_HORIZON: u32 = 256;

/// Sender-side tunables.
#[derive(Clone, Copy, Debug)]
pub struct RmpConfig {
    /// Largest fragment payload (bounded by the datalink MTU minus the
    /// RMP header).
    pub max_fragment: usize,
    /// Retransmission timeout for an unacknowledged fragment.
    pub rto: SimDuration,
    /// Ceiling for the exponential retransmission backoff. The paper's
    /// RMP uses a constant timeout (RTT is microseconds, loss is rare),
    /// so the default equals `rto` — backoff disabled, bit-identical
    /// legacy schedule. Raise it to let a channel ride out link outages
    /// longer than `rto * max_retries`.
    pub rto_max: SimDuration,
    /// Give up after this many retransmissions of one fragment.
    pub max_retries: u32,
    /// How many messages may be in flight concurrently on one channel.
    /// 1 (the default) is the paper's stop-and-wait and leaves the
    /// wire schedule byte-identical; larger values pipeline messages
    /// while preserving in-order exactly-once delivery.
    pub window: usize,
}

impl Default for RmpConfig {
    fn default() -> Self {
        RmpConfig {
            max_fragment: 8 * 1024,
            rto: SimDuration::from_millis(5),
            rto_max: SimDuration::from_millis(5),
            max_retries: 10,
            window: 1,
        }
    }
}

impl RmpConfig {
    /// Timeout for a fragment that has already been retransmitted
    /// `retries` times: `rto * 2^retries`, capped at `rto_max`.
    fn backoff(&self, retries: u32) -> SimDuration {
        let mut t = self.rto;
        for _ in 0..retries {
            if t >= self.rto_max {
                break;
            }
            t = (t + t).min(self.rto_max);
        }
        t.min(self.rto_max).max(self.rto)
    }
}

/// Sender-side actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmpSendAction {
    /// Hand this RMP packet (header + fragment payload) to the datalink
    /// layer for `dst_cab`.
    Transmit { dst_cab: u16, packet: Vec<u8> },
    /// The message with this sequence number is fully acknowledged.
    Delivered { msg_seq: u32 },
    /// Retries exhausted; the message (and the channel) is dead.
    Failed { msg_seq: u32 },
}

/// One message currently being transmitted: it owns its bytes so
/// flights can complete independently of queue order.
#[derive(Debug)]
struct Flight {
    msg_seq: u32,
    data: Vec<u8>,
    frag_idx: u16,
    offset: usize,
    frag_len: usize,
    deadline: SimTime,
    retries: u32,
    /// Every fragment has been selectively acked; the flight only
    /// waits for the cumulative ack to advance past it (the timer
    /// stays armed to re-elicit that ack if it was lost).
    all_acked: bool,
}

impl Flight {
    fn on_last_frag(&self) -> bool {
        self.offset + self.frag_len >= self.data.len()
    }
}

/// Sender statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RmpSenderStats {
    pub fragments_sent: u64,
    /// Wire retransmissions only: every increment pairs with a
    /// `Transmit` action. Timer re-arms without a send (e.g. after a
    /// selective ack) are *not* counted.
    pub retransmits: u64,
    pub messages_delivered: u64,
    pub messages_failed: u64,
}

/// One RMP send channel: (this CAB's `src_mbox`) → (`dst_cab`,
/// `dst_mbox`). At `window = 1` this is the paper's stop-and-wait: at
/// most one fragment in flight.
#[derive(Debug)]
pub struct RmpSender {
    dst_cab: u16,
    dst_mbox: u16,
    src_mbox: u16,
    cfg: RmpConfig,
    /// Messages not yet started (no fragment sent).
    queue: VecDeque<(u32, Vec<u8>)>,
    next_seq: u32,
    /// Started messages, oldest first (ordered by `msg_seq`).
    flights: VecDeque<Flight>,
    failed: bool,
    stats: RmpSenderStats,
}

impl RmpSender {
    pub fn new(dst_cab: u16, dst_mbox: u16, src_mbox: u16, cfg: RmpConfig) -> Self {
        assert!(cfg.max_fragment > 0);
        RmpSender {
            dst_cab,
            dst_mbox,
            src_mbox,
            cfg,
            queue: VecDeque::new(),
            next_seq: 0,
            flights: VecDeque::new(),
            failed: false,
            stats: RmpSenderStats::default(),
        }
    }

    pub fn stats(&self) -> &RmpSenderStats {
        &self.stats
    }

    /// Number of unfinished messages (queued or in flight).
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.flights.len()
    }

    /// Queue a message; returns its sequence number. Call
    /// [`Self::poll`] to get the first transmission.
    pub fn send(&mut self, message: Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.queue.push_back((seq, message));
        seq
    }

    fn frag_packet(&self, fl: &Flight) -> Vec<u8> {
        let header = RmpHeader {
            kind: RmpKind::Data,
            last_frag: fl.on_last_frag(),
            dst_mbox: self.dst_mbox,
            src_mbox: self.src_mbox,
            msg_seq: fl.msg_seq,
            frag_idx: fl.frag_idx,
            total_len: fl.data.len() as u32,
        };
        header.build(&fl.data[fl.offset..fl.offset + fl.frag_len])
    }

    /// Retransmit timed-out fragments, then start new messages while
    /// the send window has room.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<RmpSendAction>) {
        if self.failed {
            return;
        }
        for i in 0..self.flights.len() {
            if now < self.flights[i].deadline {
                continue;
            }
            self.flights[i].retries += 1;
            if self.flights[i].retries > self.cfg.max_retries {
                let msg_seq = self.flights[i].msg_seq;
                self.failed = true;
                self.stats.messages_failed += 1;
                out.push(RmpSendAction::Failed { msg_seq });
                return;
            }
            let wait = self.cfg.backoff(self.flights[i].retries);
            self.flights[i].deadline = now + wait;
            let packet = self.frag_packet(&self.flights[i]);
            self.stats.fragments_sent += 1;
            self.stats.retransmits += 1;
            out.push(RmpSendAction::Transmit { dst_cab: self.dst_cab, packet });
        }
        let window = self.cfg.window.max(1);
        while self.flights.len() < window {
            let Some((msg_seq, data)) = self.queue.pop_front() else { break };
            let frag_len = self.cfg.max_fragment.min(data.len());
            let fl = Flight {
                msg_seq,
                data,
                frag_idx: 0,
                offset: 0,
                frag_len,
                deadline: now + self.cfg.rto,
                retries: 0,
                all_acked: false,
            };
            let packet = self.frag_packet(&fl);
            self.flights.push_back(fl);
            self.stats.fragments_sent += 1;
            out.push(RmpSendAction::Transmit { dst_cab: self.dst_cab, packet });
        }
    }

    /// Process an ACK from the receiver. The ack's `total_len` field
    /// carries the receiver's cumulative next-expected message seq;
    /// `(msg_seq, frag_idx)` selectively acknowledge one fragment.
    pub fn on_ack(&mut self, now: SimTime, ack: &RmpHeader, out: &mut Vec<RmpSendAction>) {
        debug_assert_eq!(ack.kind, RmpKind::Ack);
        if self.failed {
            return;
        }
        let mut progressed = false;
        // cumulative: every flight strictly before `cum` is delivered
        let cum = ack.total_len;
        while let Some(fl) = self.flights.front() {
            let d = cum.wrapping_sub(fl.msg_seq);
            if d == 0 || d > u32::MAX / 2 {
                break;
            }
            let fl = self.flights.pop_front().expect("front exists");
            self.stats.messages_delivered += 1;
            out.push(RmpSendAction::Delivered { msg_seq: fl.msg_seq });
            progressed = true;
        }
        // selective: advance the matching flight's fragment cursor
        if let Some(i) = self
            .flights
            .iter()
            .position(|f| f.msg_seq == ack.msg_seq && f.frag_idx == ack.frag_idx && !f.all_acked)
        {
            if self.flights[i].on_last_frag() {
                // fully acked but not yet cumulatively delivered (an
                // earlier message is still incomplete at the receiver):
                // re-arm the timer without transmitting.
                self.flights[i].all_acked = true;
                self.flights[i].retries = 0;
                self.flights[i].deadline = now + self.cfg.rto;
            } else {
                let fl = &mut self.flights[i];
                fl.offset += fl.frag_len;
                fl.frag_idx += 1;
                fl.frag_len = self.cfg.max_fragment.min(fl.data.len() - fl.offset);
                fl.deadline = now + self.cfg.rto;
                fl.retries = 0;
                let packet = self.frag_packet(&self.flights[i]);
                self.stats.fragments_sent += 1;
                out.push(RmpSendAction::Transmit { dst_cab: self.dst_cab, packet });
            }
            progressed = true;
        }
        // refill the window only when this ack made progress — a stale
        // ack is a pure no-op, exactly as under stop-and-wait
        if progressed {
            self.poll(now, out);
        }
    }

    /// Earliest retransmission deadline across all flights. A failed
    /// channel never wakes again: its flights are dead, and reporting
    /// their stale (past) deadlines would spin the RMP thread on an
    /// already-due timer that `poll` will never act on.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        if self.failed {
            return None;
        }
        self.flights.iter().map(|fl| fl.deadline).min()
    }
}

/// Receiver-side actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmpRecvAction {
    /// Send this ACK packet back to `dst_cab`.
    Ack { dst_cab: u16, packet: Vec<u8> },
    /// A complete message arrived for `dst_mbox`.
    Deliver { dst_mbox: u16, src_cab: u16, src_mbox: u16, message: Vec<u8> },
}

/// Reassembly state for one message at or ahead of the in-order point.
#[derive(Debug, Default)]
struct PendingMsg {
    next_frag: u16,
    buf: Vec<u8>,
    complete: bool,
}

#[derive(Debug, Default)]
struct RecvChannel {
    expected_seq: u32,
    /// Messages being reassembled, keyed by msg_seq. Under stop-and-wait
    /// only `expected_seq` ever appears here; a windowed sender may run
    /// up to `RECV_HORIZON` ahead.
    pending: BTreeMap<u32, PendingMsg>,
    /// msg_seq of the last message handed up, tracked independently of
    /// `expected_seq` so the conformance oracle can cross-check the
    /// exactly-once, in-order delivery bookkeeping.
    last_delivered: Option<u32>,
}

/// Receiver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RmpReceiverStats {
    pub fragments_in: u64,
    pub duplicates: u64,
    pub delivered: u64,
    /// Every ack emitted, including re-acks of duplicates.
    pub acks_sent: u64,
}

/// The receive half: tracks per-channel reassembly. A channel is the
/// (source CAB, source mailbox, destination mailbox) triple.
#[derive(Debug, Default)]
pub struct RmpReceiver {
    channels: BTreeMap<(u16, u16, u16), RecvChannel>,
    stats: RmpReceiverStats,
}

impl RmpReceiver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &RmpReceiverStats {
        &self.stats
    }

    /// Process a Data packet from `src_cab`.
    pub fn on_data(
        &mut self,
        src_cab: u16,
        hdr: &RmpHeader,
        payload: &[u8],
        out: &mut Vec<RmpRecvAction>,
    ) {
        debug_assert_eq!(hdr.kind, RmpKind::Data);
        self.stats.fragments_in += 1;
        let key = (src_cab, hdr.src_mbox, hdr.dst_mbox);
        let ch = self.channels.entry(key).or_default();

        let dist = hdr.msg_seq.wrapping_sub(ch.expected_seq);
        if dist > u32::MAX / 2 {
            // an already-delivered message: the sender missed our ack
            self.stats.duplicates += 1;
            let mut a = hdr.ack_for();
            a.total_len = ch.expected_seq;
            out.push(RmpRecvAction::Ack { dst_cab: src_cab, packet: a.build(&[]) });
            self.stats.acks_sent += 1;
            return;
        }
        if dist >= RECV_HORIZON {
            // absurdly far ahead of any sane send window; drop silently
            return;
        }
        let m = ch.pending.entry(hdr.msg_seq).or_default();
        if m.complete || hdr.frag_idx < m.next_frag {
            // duplicate fragment (of a complete-but-undelivered message,
            // or one we already absorbed): re-ack, don't re-buffer
            self.stats.duplicates += 1;
            let mut a = hdr.ack_for();
            a.total_len = ch.expected_seq;
            out.push(RmpRecvAction::Ack { dst_cab: src_cab, packet: a.build(&[]) });
            self.stats.acks_sent += 1;
            return;
        }
        if hdr.frag_idx > m.next_frag {
            // a gap within one message is impossible (fragments are
            // individually stop-and-waited); drop
            return;
        }
        m.buf.extend_from_slice(payload);
        m.next_frag += 1;
        if hdr.last_frag {
            debug_assert_eq!(m.buf.len(), hdr.total_len as usize);
            m.complete = true;
        }
        // hand up every in-order complete message (a windowed sender
        // may have finished several that were blocked on this one)
        let mut deliveries = Vec::new();
        while ch.pending.get(&ch.expected_seq).is_some_and(|p| p.complete) {
            let p = ch.pending.remove(&ch.expected_seq).expect("checked complete");
            if crate::conform::enabled() {
                crate::conform::check_rmp_delivery(key, ch.last_delivered, ch.expected_seq);
            }
            ch.last_delivered = Some(ch.expected_seq);
            ch.expected_seq = ch.expected_seq.wrapping_add(1);
            deliveries.push(p.buf);
        }
        // the ack carries the post-delivery cumulative edge and goes
        // out before the deliveries — the legacy action order
        let mut a = hdr.ack_for();
        a.total_len = ch.expected_seq;
        out.push(RmpRecvAction::Ack { dst_cab: src_cab, packet: a.build(&[]) });
        self.stats.acks_sent += 1;
        for message in deliveries {
            self.stats.delivered += 1;
            out.push(RmpRecvAction::Deliver {
                dst_mbox: hdr.dst_mbox,
                src_cab,
                src_mbox: hdr.src_mbox,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_wire::nectar::RmpHeader;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn cfg(max_fragment: usize) -> RmpConfig {
        RmpConfig {
            max_fragment,
            rto: SimDuration::from_micros(100),
            rto_max: SimDuration::from_micros(100),
            max_retries: 3,
            window: 1,
        }
    }

    fn wcfg(max_fragment: usize, window: usize) -> RmpConfig {
        RmpConfig { window, ..cfg(max_fragment) }
    }

    /// Deliver a Transmit action's packet to the receiver, returning
    /// receiver actions.
    fn deliver(rx: &mut RmpReceiver, src_cab: u16, packet: &[u8]) -> Vec<RmpRecvAction> {
        let (hdr, payload) = RmpHeader::parse(packet).unwrap();
        let mut out = Vec::new();
        rx.on_data(src_cab, &hdr, payload, &mut out);
        out
    }

    fn ack_sender(tx: &mut RmpSender, now: SimTime, ack_packet: &[u8]) -> Vec<RmpSendAction> {
        let (hdr, _) = RmpHeader::parse(ack_packet).unwrap();
        let mut out = Vec::new();
        tx.on_ack(now, &hdr, &mut out);
        out
    }

    #[test]
    fn single_fragment_message() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(1024));
        let mut rx = RmpReceiver::new();
        let seq = tx.send(b"hello rmp".to_vec());
        assert_eq!(seq, 0);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let RmpSendAction::Transmit { dst_cab, packet } = &out[0] else { panic!() };
        assert_eq!(*dst_cab, 2);
        let racts = deliver(&mut rx, 1, packet);
        assert_eq!(racts.len(), 2); // ack + deliver
        let RmpRecvAction::Deliver { dst_mbox, src_cab, src_mbox, message } = &racts[1] else {
            panic!()
        };
        assert_eq!((*dst_mbox, *src_cab, *src_mbox), (7, 1, 3));
        assert_eq!(message, b"hello rmp");
        let RmpRecvAction::Ack { packet: ackp, .. } = &racts[0] else { panic!() };
        let sacts = ack_sender(&mut tx, t(10), ackp);
        assert_eq!(sacts, vec![RmpSendAction::Delivered { msg_seq: 0 }]);
        assert_eq!(tx.backlog(), 0);
    }

    #[test]
    fn multi_fragment_stop_and_wait() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(100));
        let mut rx = RmpReceiver::new();
        let msg: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
        tx.send(msg.clone());
        let mut now = t(0);
        let mut out = Vec::new();
        tx.poll(now, &mut out);
        let mut delivered = None;
        let mut hops = 0;
        while let Some(RmpSendAction::Transmit { packet, .. }) = out.pop() {
            hops += 1;
            assert!(hops < 10, "too many fragments");
            now += SimDuration::from_micros(10);
            let racts = deliver(&mut rx, 1, &packet);
            for act in racts {
                match act {
                    RmpRecvAction::Ack { packet, .. } => {
                        out.extend(ack_sender(&mut tx, now, &packet));
                    }
                    RmpRecvAction::Deliver { message, .. } => delivered = Some(message),
                }
            }
            // filter non-transmits
            out.retain(|a| matches!(a, RmpSendAction::Transmit { .. }));
        }
        assert_eq!(hops, 3); // 250 bytes at 100-byte fragments
        assert_eq!(delivered.unwrap(), msg);
        assert_eq!(tx.stats().messages_delivered, 1);
        // at most one fragment was in flight at any step: implied by the
        // single-packet loop above
    }

    #[test]
    fn lost_fragment_retransmitted() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(1024));
        let mut rx = RmpReceiver::new();
        tx.send(vec![9u8; 64]);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        assert_eq!(out.len(), 1); // transmitted … and lost
        out.clear();
        // nothing happens before the deadline
        tx.poll(t(50), &mut out);
        assert!(out.is_empty());
        // past the 100 us RTO: retransmit
        tx.poll(t(150), &mut out);
        let RmpSendAction::Transmit { packet, .. } = &out[0] else { panic!() };
        let racts = deliver(&mut rx, 1, packet);
        assert_eq!(racts.len(), 2);
        assert_eq!(tx.stats().retransmits, 1);
    }

    #[test]
    fn lost_ack_causes_duplicate_which_is_reacked() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(1024));
        let mut rx = RmpReceiver::new();
        tx.send(vec![1u8; 16]);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let RmpSendAction::Transmit { packet, .. } = out.remove(0) else { panic!() };
        // receiver gets it, delivers, acks — but the ack is lost
        let racts = deliver(&mut rx, 1, &packet);
        assert!(matches!(racts[1], RmpRecvAction::Deliver { .. }));
        // sender times out and retransmits the same fragment
        tx.poll(t(200), &mut out);
        let RmpSendAction::Transmit { packet, .. } = out.remove(0) else { panic!() };
        let racts2 = deliver(&mut rx, 1, &packet);
        // duplicate: re-acked, NOT redelivered
        assert_eq!(racts2.len(), 1);
        assert!(matches!(racts2[0], RmpRecvAction::Ack { .. }));
        assert_eq!(rx.stats().duplicates, 1);
        assert_eq!(rx.stats().delivered, 1);
        // the re-ack completes the exchange
        let RmpRecvAction::Ack { packet, .. } = &racts2[0] else { panic!() };
        let sacts = ack_sender(&mut tx, t(210), packet);
        assert!(sacts.contains(&RmpSendAction::Delivered { msg_seq: 0 }));
    }

    #[test]
    fn retries_exhausted_fails_channel() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(1024));
        tx.send(vec![0u8; 8]);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let mut now = t(0);
        let mut failed = false;
        for _ in 0..10 {
            now += SimDuration::from_millis(1);
            out.clear();
            tx.poll(now, &mut out);
            if out.iter().any(|a| matches!(a, RmpSendAction::Failed { .. })) {
                failed = true;
                break;
            }
        }
        assert!(failed);
        // further polls do nothing
        out.clear();
        tx.poll(now + SimDuration::from_secs(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn exponential_backoff_doubles_up_to_cap() {
        let cfg = RmpConfig {
            max_fragment: 1024,
            rto: SimDuration::from_micros(100),
            rto_max: SimDuration::from_micros(600),
            max_retries: 10,
            window: 1,
        };
        // the schedule itself: 100, 200, 400, 600, 600, …
        assert_eq!(cfg.backoff(0), SimDuration::from_micros(100));
        assert_eq!(cfg.backoff(1), SimDuration::from_micros(200));
        assert_eq!(cfg.backoff(2), SimDuration::from_micros(400));
        assert_eq!(cfg.backoff(3), SimDuration::from_micros(600));
        assert_eq!(cfg.backoff(9), SimDuration::from_micros(600));
        // and the default config keeps the legacy constant timeout
        let legacy = RmpConfig::default();
        assert_eq!(legacy.backoff(0), legacy.rto);
        assert_eq!(legacy.backoff(7), legacy.rto);

        // observed through the sender: the second retransmission waits
        // 2x the first.
        let mut tx = RmpSender::new(2, 7, 3, cfg);
        tx.send(vec![0u8; 8]);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out); // first transmit, deadline = 100
        out.clear();
        tx.poll(t(100), &mut out); // retry #1, deadline = 100 + 200
        assert_eq!(out.len(), 1);
        assert_eq!(tx.next_wakeup(), Some(t(300)));
        out.clear();
        tx.poll(t(299), &mut out);
        assert!(out.is_empty(), "backoff deadline not yet reached");
        tx.poll(t(300), &mut out); // retry #2, deadline = 300 + 400
        assert_eq!(out.len(), 1);
        assert_eq!(tx.next_wakeup(), Some(t(700)));
    }

    #[test]
    fn pipelined_messages_in_order() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(64));
        let mut rx = RmpReceiver::new();
        let m1: Vec<u8> = vec![1; 100];
        let m2: Vec<u8> = vec![2; 10];
        tx.send(m1.clone());
        tx.send(m2.clone());
        assert_eq!(tx.backlog(), 2);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let mut delivered = Vec::new();
        let mut now = t(0);
        let mut steps = 0;
        while let Some(act) = out.pop() {
            steps += 1;
            assert!(steps < 20);
            match act {
                RmpSendAction::Transmit { packet, .. } => {
                    now += SimDuration::from_micros(5);
                    for ract in deliver(&mut rx, 1, &packet) {
                        match ract {
                            RmpRecvAction::Ack { packet, .. } => {
                                out.extend(ack_sender(&mut tx, now, &packet))
                            }
                            RmpRecvAction::Deliver { message, .. } => delivered.push(message),
                        }
                    }
                }
                RmpSendAction::Delivered { .. } => {}
                RmpSendAction::Failed { .. } => panic!("failed"),
            }
        }
        assert_eq!(delivered, vec![m1, m2]);
    }

    #[test]
    fn channels_are_independent() {
        let mut rx = RmpReceiver::new();
        // same mailbox indices but different source CABs
        let h = RmpHeader {
            kind: RmpKind::Data,
            last_frag: true,
            dst_mbox: 7,
            src_mbox: 3,
            msg_seq: 0,
            frag_idx: 0,
            total_len: 1,
        };
        let p = h.build(b"a");
        let r1 = deliver(&mut rx, 1, &p);
        let r2 = deliver(&mut rx, 2, &p);
        assert!(matches!(r1[1], RmpRecvAction::Deliver { .. }));
        assert!(matches!(r2[1], RmpRecvAction::Deliver { .. }));
        assert_eq!(rx.stats().delivered, 2);
    }

    #[test]
    fn empty_message_is_legal() {
        let mut tx = RmpSender::new(2, 7, 3, cfg(1024));
        let mut rx = RmpReceiver::new();
        tx.send(Vec::new());
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let RmpSendAction::Transmit { packet, .. } = &out[0] else { panic!() };
        let racts = deliver(&mut rx, 1, packet);
        let RmpRecvAction::Deliver { message, .. } = &racts[1] else { panic!() };
        assert!(message.is_empty());
    }

    // ------------------------------------------------------------------
    // windowed mode
    // ------------------------------------------------------------------

    #[test]
    fn windowed_sender_keeps_window_full() {
        let mut tx = RmpSender::new(2, 7, 3, wcfg(1024, 3));
        for k in 0..5u8 {
            tx.send(vec![k; 8]);
        }
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        // window = 3: first fragments of messages 0..3 go out together
        let seqs: Vec<u32> = out
            .iter()
            .map(|a| {
                let RmpSendAction::Transmit { packet, .. } = a else { panic!() };
                RmpHeader::parse(packet).unwrap().0.msg_seq
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(tx.backlog(), 5);
        // acking message 0 delivers it and admits message 3
        let mut rx = RmpReceiver::new();
        let RmpSendAction::Transmit { packet, .. } = &out[0] else { panic!() };
        let racts = deliver(&mut rx, 1, packet);
        let RmpRecvAction::Ack { packet: ackp, .. } = &racts[0] else { panic!() };
        let sacts = ack_sender(&mut tx, t(10), ackp);
        assert_eq!(sacts.len(), 2);
        assert_eq!(sacts[0], RmpSendAction::Delivered { msg_seq: 0 });
        let RmpSendAction::Transmit { packet, .. } = &sacts[1] else { panic!() };
        assert_eq!(RmpHeader::parse(packet).unwrap().0.msg_seq, 3);
        assert_eq!(tx.backlog(), 4);
    }

    #[test]
    fn windowed_out_of_order_arrival_delivers_in_order() {
        let mut tx = RmpSender::new(2, 7, 3, wcfg(1024, 2));
        let mut rx = RmpReceiver::new();
        let m0 = vec![0u8; 16];
        let m1 = vec![1u8; 16];
        tx.send(m0.clone());
        tx.send(m1.clone());
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        assert_eq!(out.len(), 2);
        let RmpSendAction::Transmit { packet: p0, .. } = out[0].clone() else { panic!() };
        let RmpSendAction::Transmit { packet: p1, .. } = out[1].clone() else { panic!() };
        // message 1 arrives first: buffered and selectively acked, but
        // NOT delivered (message 0 is still missing)
        let racts = deliver(&mut rx, 1, &p1);
        assert_eq!(racts.len(), 1);
        assert!(matches!(racts[0], RmpRecvAction::Ack { .. }));
        let RmpRecvAction::Ack { packet: ack1, .. } = &racts[0] else { panic!() };
        // that selective ack quiesces flight 1 without retransmitting
        let sacts = ack_sender(&mut tx, t(5), ack1);
        assert!(sacts.is_empty());
        assert_eq!(tx.stats().retransmits, 0);
        // message 0 arrives: both deliver, in order, in one batch
        let racts = deliver(&mut rx, 1, &p0);
        assert_eq!(racts.len(), 3); // ack + deliver(0) + deliver(1)
        let RmpRecvAction::Deliver { message, .. } = &racts[1] else { panic!() };
        assert_eq!(message, &m0);
        let RmpRecvAction::Deliver { message, .. } = &racts[2] else { panic!() };
        assert_eq!(message, &m1);
        // the cumulative ack completes both flights in order
        let RmpRecvAction::Ack { packet: ack0, .. } = &racts[0] else { panic!() };
        let sacts = ack_sender(&mut tx, t(10), ack0);
        assert_eq!(
            sacts,
            vec![RmpSendAction::Delivered { msg_seq: 0 }, RmpSendAction::Delivered { msg_seq: 1 },]
        );
        assert_eq!(tx.backlog(), 0);
        assert_eq!(rx.stats().delivered, 2);
    }

    #[test]
    fn windowed_multi_fragment_messages_interleave() {
        let mut tx = RmpSender::new(2, 7, 3, wcfg(32, 4));
        let mut rx = RmpReceiver::new();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; 50 + k as usize * 30]).collect();
        for m in &msgs {
            tx.send(m.clone());
        }
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let mut delivered = Vec::new();
        let mut now = t(0);
        let mut steps = 0;
        // drive to completion with a perfect link
        while let Some(act) = out.pop() {
            steps += 1;
            assert!(steps < 100);
            if let RmpSendAction::Transmit { packet, .. } = act {
                now += SimDuration::from_micros(1);
                for ract in deliver(&mut rx, 1, &packet) {
                    match ract {
                        RmpRecvAction::Ack { packet, .. } => {
                            out.extend(ack_sender(&mut tx, now, &packet))
                        }
                        RmpRecvAction::Deliver { message, .. } => delivered.push(message),
                    }
                }
            }
        }
        assert_eq!(delivered, msgs);
        assert_eq!(tx.stats().messages_delivered, 4);
        assert_eq!(tx.stats().retransmits, 0);
        assert_eq!(tx.next_wakeup(), None);
    }

    /// Satellite pin: `retransmits` counts wire retransmissions, not
    /// timer re-arms. A selective ack re-arms a fully-acked flight's
    /// timer with no Transmit and no counter bump; a timeout produces
    /// exactly one of each.
    #[test]
    fn retransmit_counter_counts_wire_sends_only() {
        let mut tx = RmpSender::new(2, 7, 3, wcfg(1024, 2));
        let mut rx = RmpReceiver::new();
        tx.send(vec![0u8; 8]);
        tx.send(vec![1u8; 8]);
        let mut out = Vec::new();
        tx.poll(t(0), &mut out);
        let RmpSendAction::Transmit { packet: p1, .. } = out[1].clone() else { panic!() };
        // only message 1 arrives; its selective ack re-arms the flight
        // timer (all fragments acked) without any wire send
        let racts = deliver(&mut rx, 1, &p1);
        let RmpRecvAction::Ack { packet: ack1, .. } = &racts[0] else { panic!() };
        let sacts = ack_sender(&mut tx, t(50), ack1);
        assert!(sacts.is_empty(), "re-arm must not transmit");
        assert_eq!(tx.stats().retransmits, 0, "re-arm must not count as a retransmit");
        // flight 0 (never delivered) still holds its original deadline
        assert_eq!(tx.next_wakeup(), Some(t(100)), "unacked flight keeps the earliest deadline");
        // flight 0 times out: exactly one wire retransmit, counted once
        let mut out2 = Vec::new();
        tx.poll(t(100), &mut out2);
        let wire2 = out2.iter().filter(|a| matches!(a, RmpSendAction::Transmit { .. })).count();
        assert_eq!(wire2, 1);
        assert_eq!(tx.stats().retransmits, 1);
        // with flight 0 pushed to t(200), the selective-ack re-arm of
        // flight 1 (ack at t(50) + rto) is now the earliest deadline
        assert_eq!(tx.next_wakeup(), Some(t(150)), "timer re-armed to 50 + rto");
        // its timeout re-elicits the cumulative ack: again 1:1 with the
        // counter
        let mut out3 = Vec::new();
        tx.poll(t(150), &mut out3);
        let wire3 = out3.iter().filter(|a| matches!(a, RmpSendAction::Transmit { .. })).count();
        assert_eq!(wire3, 1);
        assert_eq!(tx.stats().retransmits as usize, wire2 + wire3);
        assert_eq!(tx.stats().fragments_sent, 2 + (wire2 + wire3) as u64);
    }

    #[test]
    fn message_beyond_recv_horizon_is_dropped() {
        let mut rx = RmpReceiver::new();
        let h = RmpHeader {
            kind: RmpKind::Data,
            last_frag: true,
            dst_mbox: 7,
            src_mbox: 3,
            msg_seq: RECV_HORIZON, // expected_seq is 0
            frag_idx: 0,
            total_len: 1,
        };
        let mut out = Vec::new();
        rx.on_data(1, &h, b"x", &mut out);
        assert!(out.is_empty(), "beyond-horizon fragment neither acked nor buffered");
        // just inside the horizon it is buffered and selectively acked
        let h2 = RmpHeader { msg_seq: RECV_HORIZON - 1, ..h };
        rx.on_data(1, &h2, b"x", &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], RmpRecvAction::Ack { .. }));
        assert_eq!(rx.stats().delivered, 0);
    }
}
