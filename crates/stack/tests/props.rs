//! Property-based tests on the protocol engines: the invariants that
//! must hold for *any* payload, any MTU, and any pattern of loss,
//! reordering and duplication the network can throw at them.

use std::net::Ipv4Addr;

use nectar_sim::check;
use nectar_sim::{Pcg32, SimDuration, SimTime};
use nectar_stack::ip::{IpEndpoint, IpInput};
use nectar_stack::rmp::{RmpConfig, RmpReceiver, RmpRecvAction, RmpSendAction, RmpSender};
use nectar_wire::ipv4::IpProtocol;
use nectar_wire::nectar::RmpHeader;

fn a(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

/// IP fragmentation followed by reassembly is the identity, for any
/// payload and any legal MTU, in any arrival order.
#[test]
fn ip_fragment_reassemble_identity() {
    check::cases(64, |g| {
        let payload = g.bytes(0, 6000);
        let mtu = g.usize_in(64, 2000);
        let shuffle_seed = g.u64();
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let mut pkts = tx.output(a(2), IpProtocol::UDP, &payload, mtu);
        let mut rng = Pcg32::seeded(shuffle_seed);
        rng.shuffle(&mut pkts);
        let mut delivered = None;
        for p in &pkts {
            match rx.input(SimTime::ZERO, p) {
                IpInput::Delivered { payload, .. } => delivered = Some(payload),
                IpInput::FragmentHeld => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(delivered.expect("datagram must complete"), payload);
    });
}

/// Reassembly of arbitrary overlapping, duplicated, out-of-order
/// fragments matches a byte-level first-arrival-wins reference model
/// (BSD semantics): each position of the datagram holds the byte from
/// the first fragment to arrive that covered it.
#[test]
fn ip_reassembly_matches_first_arrival_model() {
    use nectar_wire::ipv4::Ipv4Header;
    check::cases(96, |g| {
        // sizes in 8-byte fragment units, as the wire format requires;
        // at least one interior cut so the datagram is genuinely
        // fragmented (offset 0 + no more-frags flag would be a whole
        // datagram and bypass reassembly entirely)
        let units = g.usize_in(2, 49);
        let total = units * 8;
        // a base partition of [0, units) guarantees eventual coverage
        let mut cuts = vec![0, g.usize_in(1, units), units];
        for _ in 0..g.usize_in(0, 7) {
            cuts.push(g.usize_in(0, units + 1));
        }
        cuts.sort_unstable();
        cuts.dedup();
        // (start, end, more_frags)
        let mut frags: Vec<(usize, usize, bool)> =
            cuts.windows(2).map(|w| (w[0], w[1], w[1] != units)).collect();
        // plus random extra fragments that overlap and duplicate; they
        // pose as middle fragments so only the base tail carries the
        // authoritative last-fragment flag
        for _ in 0..g.usize_in(0, 7) {
            let s = g.usize_in(0, units);
            let e = g.usize_in(s + 1, units + 1);
            frags.push((s, e, true));
        }
        let mut rng = Pcg32::seeded(g.u64());
        rng.shuffle(&mut frags);
        let mut rx = IpEndpoint::new(a(2));
        let mut model: Vec<Option<u8>> = vec![None; total];
        let mut delivered = None;
        for (j, &(s8, e8, more)) in frags.iter().enumerate() {
            let (off, len) = (s8 * 8, (e8 - s8) * 8);
            let fill = (j as u8).wrapping_mul(29).wrapping_add(3);
            let mut h = Ipv4Header::new(a(1), a(2), IpProtocol::UDP, len);
            h.ident = 42;
            h.frag_offset = off as u16;
            h.more_frags = more;
            let pkt = h.build_packet(&vec![fill; len]);
            let outcome = rx.input(SimTime::ZERO, &pkt);
            for slot in model[off..off + len].iter_mut() {
                slot.get_or_insert(fill);
            }
            match outcome {
                IpInput::Delivered { payload, .. } => {
                    delivered = Some(payload.into_owned());
                    break; // context is gone; later fragments start anew
                }
                IpInput::FragmentHeld => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        let got = delivered.expect("the base partition completes the datagram");
        let want: Vec<u8> = model.into_iter().map(|b| b.expect("covered")).collect();
        assert_eq!(got, want, "reassembly diverged from the first-arrival-wins model: {frags:?}");
    });
}

/// RMP delivers every message exactly once, in order, under random
/// loss of both data and ack packets.
#[test]
fn rmp_reliable_exactly_once_under_loss() {
    check::cases(64, |g| {
        let messages: Vec<Vec<u8>> = (0..g.usize_in(1, 6)).map(|_| g.bytes(0, 700)).collect();
        let loss_seed = g.u64();
        let loss = g.f64_in(0.0, 0.4);
        let cfg = RmpConfig {
            max_fragment: 256,
            rto: SimDuration::from_micros(100),
            rto_max: SimDuration::from_micros(100),
            max_retries: 200,
            window: 1,
        };
        let mut tx = RmpSender::new(2, 7, 3, cfg);
        let mut rx = RmpReceiver::new();
        let mut rng = Pcg32::seeded(loss_seed);
        for m in &messages {
            tx.send(m.clone());
        }
        let mut now = SimTime::ZERO;
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut guard = 0;
        while delivered.len() < messages.len() {
            guard += 1;
            assert!(guard < 100_000, "livelock");
            let mut acts = Vec::new();
            tx.poll(now, &mut acts);
            let mut acks: Vec<Vec<u8>> = Vec::new();
            for act in acts {
                if let RmpSendAction::Transmit { packet, .. } = act {
                    if rng.chance(loss) {
                        continue;
                    }
                    let (hdr, payload) = RmpHeader::parse(&packet).unwrap();
                    let mut racts = Vec::new();
                    rx.on_data(1, &hdr, payload, &mut racts);
                    for ract in racts {
                        match ract {
                            RmpRecvAction::Ack { packet, .. } => acks.push(packet),
                            RmpRecvAction::Deliver { message, .. } => delivered.push(message),
                        }
                    }
                }
            }
            for ackp in acks {
                if rng.chance(loss) {
                    continue;
                }
                let (hdr, _) = RmpHeader::parse(&ackp).unwrap();
                let mut sacts = Vec::new();
                tx.on_ack(now, &hdr, &mut sacts);
                // follow-up transmissions: loop around
                for act in sacts {
                    if let RmpSendAction::Transmit { packet, .. } = act {
                        if rng.chance(loss) {
                            continue;
                        }
                        let (hdr, payload) = RmpHeader::parse(&packet).unwrap();
                        let mut racts = Vec::new();
                        rx.on_data(1, &hdr, payload, &mut racts);
                        for ract in racts {
                            match ract {
                                RmpRecvAction::Ack { .. } => { /* next round */ }
                                RmpRecvAction::Deliver { message, .. } => delivered.push(message),
                            }
                        }
                    }
                }
            }
            now += SimDuration::from_micros(150);
        }
        assert_eq!(delivered, messages);
    });
}

/// Drive an RMP sender/receiver pair over an impaired wire (loss and
/// reordering in both directions), returning the delivered messages.
fn rmp_impairment_run(
    messages: &[Vec<u8>],
    window: usize,
    net_seed: u64,
    loss: f64,
    reorder: f64,
) -> Vec<Vec<u8>> {
    let cfg = RmpConfig {
        max_fragment: 256,
        rto: SimDuration::from_micros(100),
        rto_max: SimDuration::from_micros(800),
        max_retries: 1000,
        window,
    };
    let mut tx = RmpSender::new(2, 7, 3, cfg);
    let mut rx = RmpReceiver::new();
    let mut rng = Pcg32::seeded(net_seed);
    for m in messages {
        tx.send(m.clone());
    }
    let latency = SimDuration::from_micros(10);
    let mut now = SimTime::ZERO;
    // (arrival, tiebreak, is_data, packet)
    let mut wire: Vec<(SimTime, u64, bool, Vec<u8>)> = Vec::new();
    let mut seqno = 0u64;
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    let mut guard = 0;
    // impair-and-enqueue one packet
    let push = |wire: &mut Vec<(SimTime, u64, bool, Vec<u8>)>,
                rng: &mut Pcg32,
                seqno: &mut u64,
                now: SimTime,
                is_data: bool,
                packet: Vec<u8>| {
        if rng.chance(loss) {
            return;
        }
        let mut arrive = now + latency;
        if rng.chance(reorder) {
            arrive += latency * 4;
        }
        *seqno += 1;
        wire.push((arrive, *seqno, is_data, packet));
    };
    while delivered.len() < messages.len() {
        guard += 1;
        assert!(guard < 200_000, "livelock at {}/{}", delivered.len(), messages.len());
        let mut acts = Vec::new();
        tx.poll(now, &mut acts);
        for act in acts {
            match act {
                RmpSendAction::Transmit { packet, .. } => {
                    push(&mut wire, &mut rng, &mut seqno, now, true, packet)
                }
                RmpSendAction::Failed { .. } => panic!("channel failed under impairment"),
                RmpSendAction::Delivered { .. } => {}
            }
        }
        let next_pkt = wire.iter().map(|&(t, s, _, _)| (t, s)).min();
        now = match (next_pkt, tx.next_wakeup()) {
            (Some((tp, _)), Some(tt)) => tp.min(tt).max(now),
            (Some((tp, _)), None) => tp.max(now),
            (None, Some(tt)) => tt.max(now),
            (None, None) => panic!("stalled at {}/{}", delivered.len(), messages.len()),
        };
        let mut due: Vec<(SimTime, u64, bool, Vec<u8>)> = Vec::new();
        wire.retain_mut(|e| {
            if e.0 <= now {
                due.push((e.0, e.1, e.2, std::mem::take(&mut e.3)));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(t, s, _, _)| (t, s));
        for (_, _, is_data, pkt) in due {
            let (hdr, payload) = RmpHeader::parse(&pkt).unwrap();
            if is_data {
                let mut racts = Vec::new();
                rx.on_data(1, &hdr, payload, &mut racts);
                for ract in racts {
                    match ract {
                        RmpRecvAction::Ack { packet, .. } => {
                            push(&mut wire, &mut rng, &mut seqno, now, false, packet)
                        }
                        RmpRecvAction::Deliver { message, .. } => delivered.push(message),
                    }
                }
            } else {
                let mut sacts = Vec::new();
                tx.on_ack(now, &hdr, &mut sacts);
                for act in sacts {
                    match act {
                        RmpSendAction::Transmit { packet, .. } => {
                            push(&mut wire, &mut rng, &mut seqno, now, true, packet)
                        }
                        RmpSendAction::Failed { .. } => panic!("channel failed under impairment"),
                        RmpSendAction::Delivered { .. } => {}
                    }
                }
            }
        }
    }
    delivered
}

/// Windowed RMP delivers every message exactly once, in order, under
/// combined loss and reordering — and, differentially, produces the
/// same delivered sequence as the legacy stop-and-wait configuration
/// (`window = 1`) for the same workload. The receiver-side conformance
/// oracle (`check_rmp_delivery`) audits every delivery step.
#[test]
fn rmp_windowed_inorder_exactly_once_under_impairment() {
    check::cases(48, |g| {
        let messages: Vec<Vec<u8>> = (0..g.usize_in(2, 10)).map(|_| g.bytes(0, 700)).collect();
        let net_seed = g.u64();
        let loss = g.f64_in(0.0, 0.3);
        let reorder = g.f64_in(0.0, 0.3);
        let wide = rmp_impairment_run(&messages, 8, net_seed, loss, reorder);
        assert_eq!(wide, messages, "windowed RMP corrupted the message sequence");
        let narrow = rmp_impairment_run(&messages, 1, net_seed, loss, reorder);
        assert_eq!(narrow, wide, "window=8 and window=1 delivered different sequences");
    });
}

/// TCP delivers an intact, in-order byte stream under combined
/// random loss and reordering.
#[test]
fn tcp_stream_integrity_under_impairment() {
    check::cases(48, |g| {
        let len = g.usize_in(1, 40_000);
        let fill_seed = g.u64();
        let net_seed = g.u64();
        let loss = g.f64_in(0.0, 0.10);
        let reorder = g.f64_in(0.0, 0.15);
        tcp_impairment_run(len, fill_seed, net_seed, loss, reorder, true);
    });
}

/// Drive a TCP transfer over an impaired wire. Returns
/// (sender retransmit count, number of first-transmission data
/// segments the wire dropped).
fn tcp_impairment_run(
    len: usize,
    fill_seed: u64,
    net_seed: u64,
    loss: f64,
    reorder: f64,
    delayed_ack: bool,
) -> (u64, u64) {
    let cfg =
        nectar_stack::tcp::TcpConfig { delayed_ack, ..nectar_stack::tcp::TcpConfig::default() };
    tcp_impairment_run_cfg(len, fill_seed, net_seed, loss, reorder, cfg, &mut |_, _, _| {})
}

/// Record an ack arriving at the sender into the shadow SACK
/// scoreboard: drop blocks at or below the cumulative ack and append
/// the segment's SACK blocks, exactly mirroring the socket's add/trim
/// rules (reneging by the peer never removes a block, but a cumulative
/// ack covering one does).
fn sack_mirror_ingest(seg: &[u8], a_iss: Option<u32>, mirror: &mut Vec<(u32, u32)>) {
    use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
    use nectar_wire::tcp::{TcpFlags, TcpHeader};
    let ip = Ipv4Header::new(a(2), a(1), IpProtocol::TCP, seg.len());
    let Ok(h) = TcpHeader::parse(&ip, seg, false) else { return };
    if !h.flags.contains(TcpFlags::ACK) {
        return;
    }
    let Some(base) = a_iss else { return };
    let cum = h.ack.0.wrapping_sub(base);
    mirror.retain(|&(_, r)| r > cum);
    for m in mirror.iter_mut() {
        if m.0 < cum {
            m.0 = cum;
        }
    }
    for (l, r) in h.sack.iter() {
        let (lr, rr) = (l.0.wrapping_sub(base), r.0.wrapping_sub(base));
        if rr > lr && lr > cum {
            mirror.push((lr, rr));
        }
    }
}

/// At the instant the sender emits a batch of events, no data segment
/// may cover bytes the shadow scoreboard holds as SACKed. First
/// transmissions start at `snd_nxt`, above everything ever SACKed, so
/// this constrains exactly the retransmissions. Also captures the
/// sender's ISS from its SYN so ranges can be expressed stream-relative.
fn sack_assert_no_sacked_retx(
    evs: &[nectar_stack::tcp::TcpStackEvent],
    a_iss: &mut Option<u32>,
    mirror: &[(u32, u32)],
) {
    use nectar_stack::tcp::TcpStackEvent;
    use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
    use nectar_wire::tcp::{TcpFlags, TcpHeader};
    for ev in evs {
        if let TcpStackEvent::Transmit { segment, .. } = ev {
            let ip = Ipv4Header::new(a(1), a(2), IpProtocol::TCP, segment.len());
            let Ok(h) = TcpHeader::parse(&ip, segment, false) else { continue };
            if h.flags.contains(TcpFlags::SYN) && a_iss.is_none() {
                *a_iss = Some(h.seq.0);
            }
            let paylen = segment.len() - h.header_len;
            if paylen == 0 {
                continue;
            }
            let base = a_iss.unwrap_or(0);
            let s = h.seq.0.wrapping_sub(base);
            let e = s + paylen as u32;
            for &(l, r) in mirror {
                assert!(
                    e <= l || r <= s,
                    "sender retransmitted [{s}, {e}) overlapping SACKed [{l}, {r})"
                );
            }
        }
    }
}

/// Drive a TCP transfer over an impaired wire with an explicit sender
/// configuration. When SACK is enabled, a shadow scoreboard built from
/// the acks the sender actually received audits every emission: no
/// SACKed byte is ever retransmitted. `on_transmit` sees every segment
/// either stack emits, as `(time, from_a, bytes)`, before the wire
/// decides its fate. Returns (sender retransmit count, number of
/// first-transmission data segments the wire dropped).
fn tcp_impairment_run_cfg(
    len: usize,
    fill_seed: u64,
    net_seed: u64,
    loss: f64,
    reorder: f64,
    cfg: nectar_stack::tcp::TcpConfig,
    on_transmit: &mut dyn FnMut(SimTime, bool, &[u8]),
) -> (u64, u64) {
    use nectar_stack::tcp::{TcpStack, TcpStackEvent};
    use nectar_wire::ipv4::Ipv4Header;
    use nectar_wire::tcp::TcpHeader;

    let mut fill = Pcg32::seeded(fill_seed);
    let data: Vec<u8> = (0..len).map(|_| fill.next_u32() as u8).collect();

    let mut a_iss: Option<u32> = None;
    let mut sack_mirror: Vec<(u32, u32)> = Vec::new();

    let mut sa = TcpStack::new(a(1), cfg, 1);
    let mut sb = TcpStack::new(a(2), cfg, 2);
    sb.listen(80);
    let mut rng = Pcg32::seeded(net_seed);
    let mut now = SimTime::ZERO;
    let latency = SimDuration::from_micros(40);
    // (arrival, tiebreak, to_a, segment)
    let mut wire: Vec<(SimTime, u64, bool, Vec<u8>)> = Vec::new();
    let mut seqno = 0u64;
    let mut b_conn = None;
    let mut received: Vec<u8> = Vec::new();
    let (a_id, evs) = sa.connect(now, (a(2), 80), None);
    if cfg.sack {
        sack_assert_no_sacked_retx(&evs, &mut a_iss, &sack_mirror);
    }
    let mut pending = vec![(true, evs)];
    let mut offset = 0usize;
    let mut guard = 0;
    // loss accounting: only first transmissions of data segments from A
    // are ever dropped, and each distinct dropped start-sequence counts
    // once.
    let mut highest_seq_seen: Option<u32> = None;
    let mut dropped_first_tx = 0u64;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "livelock at {}/{}", received.len(), len);
        for (from_a, evs) in pending.drain(..) {
            for ev in evs {
                match ev {
                    TcpStackEvent::Transmit { segment, .. } => {
                        on_transmit(now, from_a, &segment);
                        // decide drop eligibility: data-bearing first
                        // transmission from A only
                        let mut droppable = false;
                        if from_a {
                            let ip = Ipv4Header::new(
                                a(1),
                                a(2),
                                nectar_wire::ipv4::IpProtocol::TCP,
                                segment.len(),
                            );
                            if let Ok(h) = TcpHeader::parse(&ip, &segment, false) {
                                if segment.len() > h.header_len {
                                    let seq = h.seq.0;
                                    let is_first = match highest_seq_seen {
                                        None => true,
                                        Some(hi) => (seq.wrapping_sub(hi) as i32) > 0,
                                    };
                                    if is_first {
                                        highest_seq_seen = Some(seq);
                                        droppable = true;
                                    }
                                }
                            }
                        }
                        if droppable && rng.chance(loss) {
                            dropped_first_tx += 1;
                            continue;
                        }
                        let mut arrive = now + latency;
                        if rng.chance(reorder) {
                            arrive += latency * 4;
                        }
                        seqno += 1;
                        wire.push((arrive, seqno, !from_a, segment));
                    }
                    TcpStackEvent::Incoming { id, .. } => b_conn = Some(id),
                    _ => {}
                }
            }
        }
        // pump application: write on A, read on B
        if offset < data.len() {
            let (n, evs) = sa.send(now, a_id, &data[offset..]);
            offset += n;
            if cfg.sack {
                sack_assert_no_sacked_retx(&evs, &mut a_iss, &sack_mirror);
            }
            pending.push((true, evs));
        }
        if let Some(bid) = b_conn {
            let got = sb.recv(bid, usize::MAX);
            if !got.is_empty() {
                received.extend(got);
                pending.push((false, sb.poll(now)));
            }
        }
        if received.len() >= len {
            break;
        }
        // advance to the next event
        let next_pkt = wire.iter().map(|&(t, s, _, _)| (t, s)).min();
        let next_tmr = [sa.next_wakeup(), sb.next_wakeup()].into_iter().flatten().min();
        let next = match (next_pkt, next_tmr) {
            (Some((tp, _)), Some(tt)) => tp.min(tt),
            (Some((tp, _)), None) => tp,
            (None, Some(tt)) => tt,
            (None, None) => {
                // nothing scheduled but app still has data: nudge time
                now += SimDuration::from_micros(100);
                continue;
            }
        };
        now = next.max(now);
        let mut due: Vec<(SimTime, u64, bool, Vec<u8>)> = Vec::new();
        wire.retain_mut(|e| {
            if e.0 <= now {
                due.push((e.0, e.1, e.2, std::mem::take(&mut e.3)));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(t, s, _, _)| (t, s));
        for (_, _, to_a, seg) in due {
            let (src, dst) = if to_a { (a(2), a(1)) } else { (a(1), a(2)) };
            let ip = Ipv4Header::new(src, dst, nectar_wire::ipv4::IpProtocol::TCP, seg.len());
            if to_a && cfg.sack {
                sack_mirror_ingest(&seg, a_iss, &mut sack_mirror);
            }
            let evs =
                if to_a { sa.on_packet(now, &ip, &seg) } else { sb.on_packet(now, &ip, &seg) };
            if to_a && cfg.sack {
                sack_assert_no_sacked_retx(&evs, &mut a_iss, &sack_mirror);
            }
            pending.push((to_a, evs));
        }
        let evs_a = sa.poll(now);
        if cfg.sack {
            sack_assert_no_sacked_retx(&evs_a, &mut a_iss, &sack_mirror);
        }
        pending.push((true, evs_a));
        pending.push((false, sb.poll(now)));
    }
    assert_eq!(received, data, "stream corrupted");
    let retransmits = sa.socket(a_id).map(|s| s.stats().retransmits).unwrap_or(0);
    (retransmits, dropped_first_tx)
}

/// The sender's retransmit counter accounts for injected loss: every
/// dropped first-transmission data segment forces at least one
/// retransmission, and with zero loss the counter stays at zero —
/// exactly what the observability layer's `tcp/retransmits` key must
/// report for fault-injection experiments to be attributable.
///
/// Delayed acks are disabled here: this stack's LAN-scaled `rto_min`
/// (10 ms) is shorter than its delayed-ack timeout (200 ms), so with
/// delayed acks a lone tail segment retransmits spuriously even on a
/// perfect wire, and the counter could not be attributed to loss.
#[test]
fn tcp_retransmit_counter_matches_injected_loss() {
    check::cases(32, |g| {
        let len = g.usize_in(1000, 30_000);
        let fill_seed = g.u64();
        let net_seed = g.u64();
        let loss = g.f64_in(0.0, 0.15);
        let (retransmits, dropped) = tcp_impairment_run(len, fill_seed, net_seed, loss, 0.0, false);
        assert!(
            retransmits >= dropped,
            "each of the {dropped} dropped segments needs a retransmit, saw {retransmits}"
        );
        if dropped == 0 {
            assert_eq!(retransmits, 0, "no loss was injected, so nothing may be retransmitted");
        }
    });
}

/// With SACK and window scaling negotiated, the stream still arrives
/// intact under loss and reordering, and the sender never retransmits
/// a byte the peer has already selectively acknowledged. The shadow
/// scoreboard inside `tcp_impairment_run_cfg` is rebuilt purely from
/// the acks that actually reached the sender, so a socket that
/// mis-trims its scoreboard (or ignores it when picking the
/// retransmission range) fails here even though the stream checksum
/// would still pass.
#[test]
fn tcp_sack_never_retransmits_sacked_bytes() {
    check::cases(32, |g| {
        let len = g.usize_in(5_000, 40_000);
        let fill_seed = g.u64();
        let net_seed = g.u64();
        let loss = g.f64_in(0.0, 0.15);
        let reorder = g.f64_in(0.0, 0.15);
        let cfg = nectar_stack::tcp::TcpConfig {
            delayed_ack: false,
            sack: true,
            wscale: Some(1),
            mss: 1000,
            ..nectar_stack::tcp::TcpConfig::default()
        };
        tcp_impairment_run_cfg(len, fill_seed, net_seed, loss, reorder, cfg, &mut |_, _, _| {});
    });
}

/// Every segment the TCP stack puts on the wire, pinned: fixed
/// transfers over the impaired wire of `tcp_impairment_run_cfg`, under
/// the default config, with delayed acks off, and with SACK and window
/// scaling negotiated, fold each emission's time, direction and bytes
/// into one FNV-1a digest. A refactor of the socket that moves any
/// byte, any timer or any retransmission decision changes the digest;
/// one that moves nothing keeps it.
#[test]
fn tcp_wire_transcript_is_pinned() {
    use nectar_stack::tcp::TcpConfig;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    // (len, seed, loss, reorder)
    let runs: [(usize, u64, f64, f64); 8] = [
        (1, 1, 0.0, 0.0),
        (600, 2, 0.0, 0.0),
        (5_000, 3, 0.05, 0.0),
        (12_345, 4, 0.0, 0.10),
        (20_000, 5, 0.08, 0.08),
        (100_000, 6, 0.15, 0.02),
        (150_000, 7, 0.05, 0.20),
        (200_000, 8, 0.20, 0.10),
    ];
    let configs = [
        TcpConfig::default(),
        TcpConfig { delayed_ack: false, ..TcpConfig::default() },
        TcpConfig { sack: true, wscale: Some(2), ..TcpConfig::default() },
    ];
    for cfg in configs {
        for &(len, seed, loss, reorder) in &runs {
            tcp_impairment_run_cfg(len, seed, !seed, loss, reorder, cfg, &mut |t, from_a, seg| {
                fold(&t.as_nanos().to_le_bytes());
                fold(&[from_a as u8]);
                fold(seg);
            });
        }
    }
    assert_eq!(digest, 0x842a_1d4d_865b_e2ec, "the TCP wire transcript moved: {digest:#018x}");
}

/// The TCP socket's two byte queues against a plain `Vec<u8>` model.
///
/// A scripted peer drives one socket through random interleavings of
/// `send` (zero-length and larger-than-the-buffer writes included),
/// cumulative acks landing mid-segment, SACK blocks that leave holes,
/// duplicate acks, closed windows (persist probes), timer-driven
/// retransmission, in-order / overlapping / out-of-order peer data and
/// `recv(max)` / `peek` + `consume` reads. The rings are a few dozen
/// bytes, so every case laps them many times and the two-slice case —
/// where a slice-wise copy goes wrong — is the common one, not the
/// rare one. Every payload the socket emits, first transmission or
/// retransmission, must be exactly the model's bytes at that sequence
/// offset (and carry a valid checksum when checksums are on); every
/// read must continue the peer's stream exactly.
#[test]
fn tcp_byte_queues_match_vec_model_through_ring_wrap() {
    use nectar_stack::tcp::{TcpConfig, TcpEvent, TcpSocket, TcpState};
    use nectar_wire::ipv4::Ipv4Header;
    use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader};

    // what the cases exercised, so a generator change that stops
    // reaching an edge fails the test instead of hollowing it out
    let (mut wrapped_reads, mut retransmits, mut probes, mut sack_retx, mut full_writes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut laps = 0usize;
    check::cases(64, |g| {
        let cfg = TcpConfig {
            mss: g.usize_in(4, 96) as u16,
            send_buf: g.usize_in(8, 160),
            recv_buf: g.usize_in(8, 160),
            compute_checksum: g.chance(0.5),
            nagle: g.chance(0.5),
            delayed_ack: g.chance(0.5),
            sack: true,
            max_retries: 10_000,
            ..TcpConfig::default()
        };
        let (local, remote) = ((a(1), 1000), (a(2), 80));
        // start both sequence spaces just below the 2^32 wrap
        let isn = u32::MAX - g.usize_in(0, 300) as u32;
        let peer_isn = u32::MAX - g.usize_in(0, 300) as u32;
        let (out_base, in_base) = (SeqNum(isn).add(1), SeqNum(peer_isn).add(1));
        let mut now = SimTime::ZERO;
        let mut ev = Vec::new();
        let mut s = TcpSocket::client(now, cfg, local, remote, isn, &mut ev);
        let mut synack = TcpHeader::new(remote.1, local.1);
        synack.seq = SeqNum(peer_isn);
        synack.ack = out_base;
        synack.flags = TcpFlags::SYN | TcpFlags::ACK;
        synack.window = 64;
        synack.mss = Some(g.usize_in(4, 96) as u16);
        synack.sack_permitted = true;
        s.on_segment(now, &synack, &[], &mut ev);
        assert_eq!(s.state(), TcpState::Established);
        ev.clear();

        // the models: every byte `send` accepted, and the peer's stream
        let mut out_model: Vec<u8> = Vec::new();
        let in_model = g.bytes(2000, 4000);
        let mut read: Vec<u8> = Vec::new();

        for _ in 0..g.usize_in(100, 500) {
            let (una, nxt, rcv_nxt) = s.seq_state();
            let mut peer = TcpHeader::new(remote.1, local.1);
            peer.seq = rcv_nxt;
            peer.ack = una;
            peer.flags = TcpFlags::ACK;
            peer.window = *g.pick(&[0, 0, 1, 7, 64, 400]);
            match g.usize_in(0, 10) {
                0 | 1 => {
                    // application write: empty, partial, or past the brim
                    let data = g.bytes(0, 2 * cfg.send_buf);
                    let room = s.send_capacity();
                    let n = s.send(now, &data, &mut ev);
                    assert_eq!(n, data.len().min(room), "send must fill the buffer exactly");
                    full_writes += (n < data.len()) as u64;
                    out_model.extend_from_slice(&data[..n]);
                }
                2 | 3 => {
                    // cumulative ack anywhere in the flight — mid-segment
                    // included — with SACK blocks above it leaving holes
                    let flight = nxt.since(una) as usize;
                    let acked = g.usize_in(0, flight + 1);
                    peer.ack = una.add(acked);
                    let mut lo = acked + 1;
                    while lo < flight && peer.sack.len() < 3 && g.chance(0.6) {
                        let l = g.usize_in(lo, flight);
                        let r = g.usize_in(l + 1, flight + 1);
                        peer.sack.push(una.add(l), una.add(r));
                        lo = r + 1;
                    }
                    s.on_segment(now, &peer, &[], &mut ev);
                }
                4 => {
                    // three duplicate acks: fast retransmit
                    peer.window = 64;
                    for _ in 0..4 {
                        s.on_segment(now, &peer, &[], &mut ev);
                    }
                }
                5 => {
                    // let the next timer fire: RTO, persist probe, delack
                    now = s.next_wakeup().unwrap_or(now + SimDuration::from_millis(1)).max(now);
                    s.poll(now, &mut ev);
                }
                6 | 7 => {
                    // peer data: in order, overlapping what we have, or
                    // ahead of it; zero-length and window-overrunning too
                    let have = rcv_nxt.since(in_base) as usize;
                    let jitter = if g.chance(0.6) { 1 } else { 40 };
                    let start =
                        (have + g.usize_in(0, jitter)).saturating_sub(g.usize_in(0, jitter));
                    let start = start.min(in_model.len());
                    let end = (start + g.usize_in(0, 2 * cfg.mss as usize)).min(in_model.len());
                    peer.seq = in_base.add(start);
                    peer.window = 64;
                    s.on_segment(now, &peer, &in_model[start..end], &mut ev);
                }
                _ => {
                    // application read, by copy or in place
                    // mostly partial reads: a ring that drains empty rewinds
                    // and never wraps
                    let max = *g.pick(&[0, 1, 3, 7, 15, 31, 63, usize::MAX]);
                    wrapped_reads += !s.peek(max).1.is_empty() as u64;
                    if g.chance(0.5) {
                        read.extend(s.recv(max));
                    } else {
                        let (head, tail) = s.peek(max);
                        let n = head.len() + tail.len();
                        read.extend_from_slice(head);
                        read.extend_from_slice(tail);
                        s.consume(n);
                    }
                    assert!(read.len() <= in_model.len());
                    assert_eq!(
                        read,
                        in_model[..read.len()],
                        "recv diverged from the peer's stream"
                    );
                    s.poll(now, &mut ev);
                }
            }
            for e in ev.drain(..) {
                let TcpEvent::Transmit { segment, .. } = e else { continue };
                let ip = Ipv4Header::new(local.0, remote.0, IpProtocol::TCP, segment.len());
                let h = TcpHeader::parse(&ip, &segment, cfg.compute_checksum)
                    .expect("emitted segment must parse and checksum");
                let payload = &segment[h.header_len..];
                let at = h.seq.since(out_base) as usize;
                assert!(at + payload.len() <= out_model.len(), "segment carries unsent bytes");
                assert_eq!(
                    payload,
                    &out_model[at..at + payload.len()],
                    "segment at stream offset {at} does not carry the bytes that were sent"
                );
            }
            if s.state() != TcpState::Established {
                break;
            }
        }
        // whatever is still readable continues the stream too
        read.extend(s.recv(usize::MAX));
        assert_eq!(read, in_model[..read.len()], "recv diverged from the peer's stream");
        let st = s.stats();
        retransmits += st.retransmits;
        probes += st.zero_window_probes;
        sack_retx += st.sack_retransmits;
        laps += out_model.len() / cfg.send_buf + read.len() / cfg.recv_buf;
    });
    if std::env::var("NECTAR_CHECK_SEED").is_err() {
        assert!(wrapped_reads > 50, "only {wrapped_reads} reads saw the receive ring wrapped");
        assert!(laps > 200, "the rings were lapped only {laps} times");
        assert!(retransmits > 100 && sack_retx > 20, "{retransmits} / {sack_retx} retransmits");
        assert!(probes > 10, "only {probes} zero-window probes");
        assert!(full_writes > 50, "only {full_writes} writes hit a full buffer");
    }
}
