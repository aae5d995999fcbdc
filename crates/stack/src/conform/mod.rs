//! The conformance oracle: always-on protocol invariant monitors for
//! simulation builds, plus a packetdrill-style scripted packet harness
//! ([`pkt`]).
//!
//! The chaos harness (DESIGN.md §10) showed that randomized fault
//! schedules find real stack bugs — but only the ones that break its
//! four end-to-end invariants. This module pushes checking *into* the
//! stack: every TCP socket carries a [`TcpMonitor`] that validates
//! sequence-space sanity, state-machine legality and window rules on
//! every segment it emits and after every state-machine step, and the
//! IP reassembler validates its fragment bookkeeping after every
//! insert. A violation panics immediately at the first broken step —
//! not seconds of simulated time later when a stream fails to complete
//! — and the panic names the `NECTAR_CHECK_SEED` that replays it when
//! running under `nectar_sim::check::cases` (the chaos sweep and all
//! property suites).
//!
//! Activation: monitors are created when [`enabled`] is true at socket
//! creation time. The default is on for debug builds (every `cargo
//! test` run, the chaos sweep) and off for release builds (benches pay
//! nothing). The one setting is `nectar::config::Config::oracle`:
//! `World::new` applies it through [`set_enabled`].

pub mod pkt;

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};

use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader};

use crate::tcp::TcpState;

/// The process-wide switch; see the module docs for the default.
static ENABLED: AtomicBool = AtomicBool::new(cfg!(debug_assertions));

/// Is the oracle active? One atomic load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Force the oracle on or off: `World::new`'s mechanism for
/// `Config::oracle`. Process-global: monitors are attached to sockets
/// at creation time, so flip this before building a `World` or
/// `TcpStack`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Report an invariant violation and abort the run. The message carries
/// the replay hint for the in-flight property case, if any.
#[cold]
#[track_caller]
pub fn violation(component: &str, detail: String) -> ! {
    panic!("conformance oracle [{component}]: {detail}{}", nectar_sim::check::replay_hint());
}

// ----------------------------------------------------------------------
// TCP
// ----------------------------------------------------------------------

/// A read-only view of one socket's invariant-relevant state, assembled
/// by `TcpSocket` at each observation point.
#[derive(Clone, Copy, Debug)]
pub struct TcpView {
    pub state: TcpState,
    pub snd_una: SeqNum,
    pub snd_nxt: SeqNum,
    pub rcv_nxt: SeqNum,
    /// Sequence number our FIN occupies, once sent.
    pub fin_seq: Option<SeqNum>,
    /// Sequence position of the peer's FIN, if seen.
    pub peer_fin: Option<SeqNum>,
    pub peer_fin_processed: bool,
    pub local: (Ipv4Addr, u16),
    pub remote: (Ipv4Addr, u16),
    /// SACK was negotiated on both SYNs: only then may segments carry
    /// SACK blocks.
    pub sack_ok: bool,
    /// Window-scale shift applied to windows this socket advertises
    /// (0 when scaling was not negotiated).
    pub rcv_wscale: u8,
}

impl TcpView {
    fn who(&self) -> String {
        format!(
            "{}:{} → {}:{} [{:?}]",
            self.local.0, self.local.1, self.remote.0, self.remote.1, self.state
        )
    }
}

/// Is `from → to` a legal state-machine step, as observable at
/// entry-point granularity? The table is the transitive closure of the
/// RFC 793 diagram over one segment-processing call: a single segment
/// can legally complete the handshake *and* carry data *and* a FIN, so
/// e.g. `SynReceived → LastAck` (establish, process peer FIN, emit our
/// queued FIN) is one observable step.
fn legal_transition(from: TcpState, to: TcpState) -> bool {
    use TcpState::*;
    if from == to {
        return true;
    }
    // every state may abort to CLOSED (RST, retry exhaustion, abort())
    if to == Closed {
        return true;
    }
    matches!(
        (from, to),
        (Closed, SynSent)
            | (Closed, SynReceived)
            | (SynSent, SynReceived)      // simultaneous open
            | (SynSent, Established)
            | (SynSent, FinWait1)         // + queued FIN flushed
            | (SynReceived, Established)
            | (SynReceived, FinWait1)     // + queued FIN flushed
            | (SynReceived, CloseWait)    // + peer FIN in the same segment
            | (SynReceived, LastAck)      // + both of the above
            | (Established, FinWait1)
            | (Established, CloseWait)
            | (Established, LastAck)      // peer FIN processed, queued FIN flushed
            | (FinWait1, FinWait2)
            | (FinWait1, Closing)
            | (FinWait1, TimeWait)        // FIN+ACK in one segment
            | (FinWait2, TimeWait)
            | (CloseWait, LastAck)
            | (Closing, TimeWait)
    )
}

/// The per-connection TCP invariant monitor. One lives inside each
/// `TcpSocket` while the oracle is enabled; the socket feeds it a
/// [`TcpView`] after every public state-machine step and every emitted
/// segment.
#[derive(Clone, Debug)]
pub struct TcpMonitor {
    /// Snapshot at the previous observation (None until seeded).
    prev: Option<TcpView>,
    /// Right edge (`ack + window`) of our most recent advertised
    /// receive window: the peer may have sent up to here, so it must
    /// never move left (receiver reneging).
    adv_right: Option<SeqNum>,
}

impl TcpMonitor {
    pub fn new() -> TcpMonitor {
        TcpMonitor { prev: None, adv_right: None }
    }

    /// Check the step invariants at the end of a public entry point.
    pub fn observe(&mut self, ctx: &str, v: TcpView) {
        // --- point invariants ---
        if !v.snd_una.before_eq(v.snd_nxt) {
            violation(
                "tcp/seq",
                format!(
                    "{}: snd_una {} ran past snd_nxt {} after {ctx}",
                    v.who(),
                    v.snd_una,
                    v.snd_nxt
                ),
            );
        }
        if let Some(fin) = v.fin_seq {
            // the FIN is the last thing in our sequence space
            if v.snd_nxt != fin.add(1) {
                violation(
                    "tcp/fin",
                    format!(
                        "{}: snd_nxt {} is not FIN {} + 1 after {ctx} — data sent after FIN",
                        v.who(),
                        v.snd_nxt,
                        fin
                    ),
                );
            }
        }
        if let Some(pf) = v.peer_fin {
            let ok =
                if v.peer_fin_processed { v.rcv_nxt == pf.add(1) } else { v.rcv_nxt.before_eq(pf) };
            if !ok {
                violation(
                    "tcp/fin",
                    format!(
                        "{}: rcv_nxt {} inconsistent with peer FIN at {} (processed={}) after {ctx}",
                        v.who(),
                        v.rcv_nxt,
                        pf,
                        v.peer_fin_processed
                    ),
                );
            }
        }
        // --- step invariants vs the previous observation ---
        if let Some(p) = self.prev {
            if !legal_transition(p.state, v.state) {
                violation(
                    "tcp/state",
                    format!(
                        "{}: illegal transition {:?} → {:?} in {ctx}",
                        v.who(),
                        p.state,
                        v.state
                    ),
                );
            }
            if !p.snd_una.before_eq(v.snd_una) {
                violation(
                    "tcp/seq",
                    format!(
                        "{}: snd_una moved back {} → {} in {ctx}",
                        v.who(),
                        p.snd_una,
                        v.snd_una
                    ),
                );
            }
            // snd_nxt/rcv_nxt rewind legally only during the handshake
            // (SYN retransmission, simultaneous open re-seeding irs)
            if p.state.synchronized() {
                if !p.snd_nxt.before_eq(v.snd_nxt) {
                    violation(
                        "tcp/seq",
                        format!(
                            "{}: snd_nxt moved back {} → {} in {ctx}",
                            v.who(),
                            p.snd_nxt,
                            v.snd_nxt
                        ),
                    );
                }
                if !p.rcv_nxt.before_eq(v.rcv_nxt) {
                    violation(
                        "tcp/seq",
                        format!(
                            "{}: rcv_nxt moved back {} → {} in {ctx}",
                            v.who(),
                            p.rcv_nxt,
                            v.rcv_nxt
                        ),
                    );
                }
            }
        }
        self.prev = Some(v);
    }

    /// Check an outgoing segment against the sender-side invariants.
    /// Called from the socket's emit path, after sequence state has
    /// been advanced for the segment.
    pub fn observe_emit(&mut self, v: TcpView, hdr: &TcpHeader, payload_len: usize) {
        if hdr.flags.contains(TcpFlags::RST) {
            // RSTs echo peer-supplied sequence numbers by design
            return;
        }
        let mut seg_len = payload_len;
        if hdr.flags.contains(TcpFlags::SYN) {
            seg_len += 1;
        }
        if hdr.flags.contains(TcpFlags::FIN) {
            seg_len += 1;
        }
        let seg_end = hdr.seq.add(seg_len);
        // Everything we transmit lies inside [snd_una, snd_nxt]: at or
        // after the oldest unacknowledged byte, never past what we have
        // committed to the sequence space.
        if hdr.seq.before(v.snd_una) || seg_end.after(v.snd_nxt) {
            violation(
                "tcp/emit",
                format!(
                    "{}: segment [{}, {}) outside [snd_una {}, snd_nxt {}]",
                    v.who(),
                    hdr.seq,
                    seg_end,
                    v.snd_una,
                    v.snd_nxt
                ),
            );
        }
        if hdr.flags.contains(TcpFlags::ACK) {
            // we only ever acknowledge exactly what arrived in order
            if hdr.ack != v.rcv_nxt {
                violation(
                    "tcp/emit",
                    format!(
                        "{}: emitted ack {} ≠ rcv_nxt {} — acking data never received",
                        v.who(),
                        hdr.ack,
                        v.rcv_nxt
                    ),
                );
            }
            // receiver never reneges: ack + window moves right only.
            // Windows in SYN segments are never scaled (RFC 7323 §2.2);
            // with scaling active the advertised value is quantized to
            // 2^shift, so allow the right edge to wobble by up to one
            // quantum before calling it a renege.
            let shift = if hdr.flags.contains(TcpFlags::SYN) { 0 } else { v.rcv_wscale as usize };
            let right = hdr.ack.add((hdr.window as usize) << shift);
            let slack = (1usize << shift) - 1;
            if let Some(prev_right) = self.adv_right {
                if right.add(slack).before(prev_right) {
                    violation(
                        "tcp/window",
                        format!(
                            "{}: advertised right edge moved left {} → {} (shrinking the window \
                             over data already offered)",
                            v.who(),
                            prev_right,
                            right
                        ),
                    );
                }
            }
            self.adv_right = Some(right);
        }
        // SACK legality: blocks only on connections that negotiated
        // them, each non-empty and strictly above the cumulative ack
        // (a block at or below the ack would be acknowledging data
        // twice; RFC 2018 §3).
        if !hdr.sack.is_empty() {
            if !v.sack_ok {
                violation(
                    "tcp/sack",
                    format!("{}: SACK blocks emitted without negotiation", v.who()),
                );
            }
            for (l, r) in hdr.sack.iter() {
                if !r.after(l) || !l.after(hdr.ack) {
                    violation(
                        "tcp/sack",
                        format!(
                            "{}: illegal SACK block [{}, {}) against ack {}",
                            v.who(),
                            l,
                            r,
                            hdr.ack
                        ),
                    );
                }
            }
        }
        if payload_len > 0 {
            if let Some(fin) = v.fin_seq {
                if hdr.seq.add(payload_len).after(fin) {
                    violation(
                        "tcp/fin",
                        format!(
                            "{}: payload [{}, {}) extends past our FIN at {}",
                            v.who(),
                            hdr.seq,
                            hdr.seq.add(payload_len),
                            fin
                        ),
                    );
                }
            }
        }
        if hdr.flags.contains(TcpFlags::FIN) {
            if let Some(fin) = v.fin_seq {
                if hdr.seq.add(payload_len) != fin {
                    violation(
                        "tcp/fin",
                        format!(
                            "{}: FIN emitted at {} but fin_seq is {}",
                            v.who(),
                            hdr.seq.add(payload_len),
                            fin
                        ),
                    );
                }
            }
        }
    }
}

impl Default for TcpMonitor {
    fn default() -> Self {
        TcpMonitor::new()
    }
}

// ----------------------------------------------------------------------
// IP reassembly
// ----------------------------------------------------------------------

/// Validate the reassembly buffer after an insert: fragments sorted by
/// strictly increasing offset, pairwise non-overlapping, and — the
/// invariant whose violation was the tail-trim data-loss bug — every
/// byte of the just-inserted range `[ins_off, ins_end)` covered by the
/// stored fragments (first-arrival-wins may replace the *content*, but
/// coverage must never silently shrink).
pub fn check_reassembly(
    fragments: &[(usize, Vec<u8>)],
    total: Option<usize>,
    ins_off: usize,
    ins_end: usize,
) {
    let mut prev_end = 0usize;
    let mut first = true;
    for &(off, ref data) in fragments {
        if !first && off < prev_end {
            violation(
                "ip/reassembly",
                format!("fragment at {off} overlaps previous fragment ending at {prev_end}"),
            );
        }
        if !first && off == prev_end {
            // adjacent is fine; strictly decreasing offsets are not
        }
        prev_end = off + data.len();
        first = false;
    }
    // covered ⊆ total: nothing counted toward completion beyond the
    // datagram's declared length
    if let Some(total) = total {
        let covered: usize = fragments
            .iter()
            .map(|&(off, ref d)| (off + d.len()).min(total).saturating_sub(off.min(total)))
            .sum();
        if covered > total {
            violation(
                "ip/reassembly",
                format!("covered {covered} bytes exceed datagram total {total}"),
            );
        }
    }
    // insert post-condition: the inserted range is fully covered
    let mut cursor = ins_off;
    for &(off, ref data) in fragments {
        let end = off + data.len();
        if off <= cursor && cursor < end {
            cursor = end;
        }
        if cursor >= ins_end {
            break;
        }
    }
    if cursor < ins_end {
        violation(
            "ip/reassembly",
            format!(
                "inserted fragment [{ins_off}, {ins_end}) left hole at {cursor} — bytes \
                 silently discarded"
            ),
        );
    }
}

// ----------------------------------------------------------------------
// RMP
// ----------------------------------------------------------------------

/// Validate RMP's exactly-once, in-order delivery bookkeeping: each
/// channel's delivered message sequence must be exactly the previous
/// plus one (stop-and-wait admits no gaps and no replays).
pub fn check_rmp_delivery(channel: (u16, u16, u16), prev_delivered: Option<u32>, seq: u32) {
    if let Some(prev) = prev_delivered {
        if seq != prev.wrapping_add(1) {
            violation(
                "rmp/order",
                format!(
                    "channel {channel:?} delivered msg_seq {seq} after {prev} — \
                     stop-and-wait must deliver exactly once, in order"
                ),
            );
        }
    } else if seq != 0 {
        violation(
            "rmp/order",
            format!("channel {channel:?} delivered first msg_seq {seq}, expected 0"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_accepts_normal_lifecycles() {
        use TcpState::*;
        for w in [
            vec![Closed, SynSent, Established, FinWait1, FinWait2, TimeWait, Closed],
            vec![Closed, SynReceived, Established, CloseWait, LastAck, Closed],
            vec![Closed, SynSent, SynReceived, Established, FinWait1, Closing, TimeWait],
            vec![Closed, SynSent, Established, Closed],
        ] {
            for pair in w.windows(2) {
                assert!(legal_transition(pair[0], pair[1]), "{:?} → {:?}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn transition_table_rejects_nonsense() {
        use TcpState::*;
        for (a, b) in [
            (Established, SynSent),
            (TimeWait, Established),
            (FinWait2, Established),
            (CloseWait, FinWait1),
            (LastAck, TimeWait),
            (Closing, CloseWait),
        ] {
            assert!(!legal_transition(a, b), "{a:?} → {b:?} must be illegal");
        }
    }

    #[test]
    fn reassembly_check_accepts_sorted_disjoint_coverage() {
        let frags = vec![(0usize, vec![0u8; 8]), (8, vec![1u8; 8]), (24, vec![2u8; 8])];
        check_reassembly(&frags, Some(32), 8, 16);
    }

    #[test]
    #[should_panic(expected = "silently discarded")]
    fn reassembly_check_catches_coverage_loss() {
        // claim we inserted [0, 24) but only [0, 16) is stored
        let frags = vec![(0usize, vec![0u8; 16])];
        check_reassembly(&frags, None, 0, 24);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn reassembly_check_catches_overlap() {
        let frags = vec![(0usize, vec![0u8; 16]), (8, vec![1u8; 16])];
        check_reassembly(&frags, None, 8, 24);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn rmp_check_catches_gap() {
        check_rmp_delivery((1, 2, 3), Some(4), 6);
    }
}
