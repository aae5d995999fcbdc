//! The IPv4 endpoint: output with fragmentation, input with reassembly.
//!
//! §4.1 of the paper: "IP input processing is performed at interrupt
//! time. … IP uses this opportunity to perform a sanity check of the IP
//! header (including computation of the IP header checksum). … the IP
//! input handler queues packets for reassembly if they are fragments of
//! a larger datagram. The handler transfers complete datagrams to the
//! input mailbox of the appropriate higher-level protocol."
//!
//! The send interface mirrors `IP_Output`: "higher protocols are
//! expected to call IP_Output with a header template, a reference to
//! the data they wish to send" — here [`IpEndpoint::packetize`] takes
//! the template fields and returns each packet's header and the range
//! of the data it carries (possibly fragmented to the MTU), so the
//! datalink layer gathers header and data without an intermediate
//! packet; [`IpEndpoint::output`] is the same thing materialized.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::ipv4::{IpProtocol, Ipv4Header, HEADER_LEN};
use nectar_wire::WireError;

/// Default time a partially reassembled datagram may wait for its
/// missing fragments (RFC 791 suggests 15 s; BSD used 30 s half-life —
/// we keep it short because simulated experiments run for seconds).
pub const DEFAULT_REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Default cap on concurrent reassembly contexts per endpoint. Chaos
/// corruption can strand partial datagrams until the timeout; without a
/// cap a burst of corrupted tails leaks a context per datagram for the
/// full 5 s window.
pub const DEFAULT_REASSEMBLY_MAX_CONTEXTS: usize = 32;

/// Default cap on total buffered fragment bytes per endpoint.
pub const DEFAULT_REASSEMBLY_MAX_BYTES: usize = 256 * 1024;

/// Outcome of feeding one received IP packet to the endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpInput<'a> {
    /// A complete datagram for a higher protocol: header (of the first
    /// fragment, with fragmentation fields cleared) plus full payload —
    /// borrowed from the packet when it arrived whole, owned when it
    /// was reassembled.
    Delivered { header: Ipv4Header, payload: Cow<'a, [u8]> },
    /// A fragment was absorbed; the datagram is still incomplete.
    FragmentHeld,
    /// The packet was not for this endpoint (wrong destination); the
    /// caller may forward or drop. Nectar CABs do not route IP, so the
    /// CAB drops and counts these.
    NotForUs,
    /// Parse or checksum failure; dropped.
    Bad(WireError),
}

/// A reassembly context that timed out, for ICMP Time Exceeded
/// generation (only if fragment zero arrived, per RFC 792).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReassemblyExpiry {
    pub src: Ipv4Addr,
    /// IP header + first 8 payload bytes of fragment zero, if we have
    /// them (the ICMP error quotes these).
    pub original: Option<Vec<u8>>,
}

#[derive(Clone, Debug)]
struct Reassembly {
    /// Received fragment ranges as (offset, bytes).
    fragments: Vec<(usize, Vec<u8>)>,
    /// Total length once the last fragment (more_frags = false) arrives.
    total_len: Option<usize>,
    /// Header of fragment zero (carried into the delivered datagram).
    first_header: Option<Ipv4Header>,
    /// IP header + 8 payload bytes of fragment zero for ICMP errors.
    quote: Option<Vec<u8>>,
    deadline: SimTime,
    /// Creation order, for oldest-first eviction.
    arrival: u64,
}

impl Reassembly {
    fn new(deadline: SimTime, arrival: u64) -> Self {
        Reassembly {
            fragments: Vec::new(),
            total_len: None,
            first_header: None,
            quote: None,
            deadline,
            arrival,
        }
    }

    /// Bytes currently buffered in this context.
    fn bytes(&self) -> usize {
        self.fragments.iter().map(|(_, d)| d.len()).sum()
    }

    /// True when every byte of [0, total_len) is covered.
    fn complete(&self) -> Option<usize> {
        let total = self.total_len?;
        self.first_header?;
        let mut covered = 0usize;
        // fragments kept sorted by offset with no overlaps (trimmed on
        // insert)
        for &(off, ref data) in &self.fragments {
            if off > covered {
                return None; // hole
            }
            covered = covered.max(off + data.len());
        }
        if covered >= total {
            Some(total)
        } else {
            None
        }
    }

    fn insert(&mut self, offset: usize, data: Vec<u8>) {
        // First arrival wins, as in BSD: existing bytes are kept and
        // the incoming fragment contributes every sub-range not already
        // covered. Re-splitting (rather than truncating at the first
        // later fragment's head) matters when one fragment spans
        // several existing ones with holes between them: the bytes
        // past the first overlap must still land in their holes.
        let end = offset + data.len();
        let mut pieces: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut cursor = offset;
        for &(eoff, ref edata) in &self.fragments {
            let eend = eoff + edata.len();
            if eend <= cursor {
                continue;
            }
            if eoff >= end {
                break;
            }
            if eoff > cursor {
                pieces.push((cursor, data[cursor - offset..eoff - offset].to_vec()));
            }
            cursor = eend;
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            pieces.push((cursor, data[cursor - offset..].to_vec()));
        }
        for (off, piece) in pieces {
            let at = self.fragments.partition_point(|&(eoff, _)| eoff < off);
            self.fragments.insert(at, (off, piece));
        }
        if crate::conform::enabled() {
            crate::conform::check_reassembly(&self.fragments, self.total_len, offset, end);
        }
    }

    fn assemble(&self, total: usize) -> Vec<u8> {
        let mut out = vec![0u8; total];
        for &(off, ref data) in &self.fragments {
            let end = (off + data.len()).min(total);
            if off < total {
                out[off..end].copy_from_slice(&data[..end - off]);
            }
        }
        out
    }
}

/// Per-endpoint counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IpStats {
    pub delivered: u64,
    pub fragments_in: u64,
    pub fragmented_out: u64,
    pub packets_out: u64,
    pub bad: u64,
    pub not_for_us: u64,
    pub reassembly_expired: u64,
    /// Contexts evicted by the max-contexts/max-bytes caps.
    pub reassembly_dropped: u64,
}

/// One host's IPv4 endpoint.
#[derive(Debug)]
pub struct IpEndpoint {
    addr: Ipv4Addr,
    next_ident: u16,
    reassembly: BTreeMap<(Ipv4Addr, u16, u8), Reassembly>,
    reassembly_timeout: SimDuration,
    reassembly_max_contexts: usize,
    reassembly_max_bytes: usize,
    /// Monotone arrival stamp handed to new reassembly contexts.
    next_arrival: u64,
    stats: IpStats,
}

impl IpEndpoint {
    pub fn new(addr: Ipv4Addr) -> Self {
        IpEndpoint {
            addr,
            next_ident: 1,
            reassembly: BTreeMap::new(),
            reassembly_timeout: DEFAULT_REASSEMBLY_TIMEOUT,
            reassembly_max_contexts: DEFAULT_REASSEMBLY_MAX_CONTEXTS,
            reassembly_max_bytes: DEFAULT_REASSEMBLY_MAX_BYTES,
            next_arrival: 0,
            stats: IpStats::default(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    pub fn stats(&self) -> &IpStats {
        &self.stats
    }

    pub fn set_reassembly_timeout(&mut self, t: SimDuration) {
        self.reassembly_timeout = t;
    }

    /// Bound reassembly memory: at most `contexts` concurrent partial
    /// datagrams and `bytes` total buffered fragment bytes; the oldest
    /// context is evicted first when either cap is exceeded.
    pub fn set_reassembly_caps(&mut self, contexts: usize, bytes: usize) {
        self.reassembly_max_contexts = contexts.max(1);
        self.reassembly_max_bytes = bytes;
    }

    /// IP_Output: one datagram of `len` payload bytes for `dst`,
    /// fragmented to `mtu` (the datalink payload limit) if needed.
    /// Yields each packet's header and the range of the payload it
    /// carries; the sender emits the header beside the data.
    pub fn packetize(
        &mut self,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        len: usize,
        mtu: usize,
    ) -> impl Iterator<Item = (Ipv4Header, Range<usize>)> {
        assert!(mtu > HEADER_LEN, "MTU must exceed the IP header");
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1).max(1);

        let max_data = mtu - HEADER_LEN;
        // Every non-final fragment's data length must be a multiple of 8.
        let step = if len <= max_data { max_data } else { max_data & !7 };
        assert!(step > 0, "MTU too small to fragment");
        let count = len.div_ceil(step).max(1);
        self.stats.packets_out += count as u64;
        self.stats.fragmented_out += (count > 1) as u64;
        let src = self.addr;
        (0..count).map(move |i| {
            let range = i * step..((i + 1) * step).min(len);
            let mut h = Ipv4Header::new(src, dst, protocol, range.len());
            h.ident = ident;
            h.frag_offset = range.start as u16;
            h.more_frags = range.end < len;
            (h, range)
        })
    }

    /// [`Self::packetize`], materialized: complete IP packets.
    pub fn output(
        &mut self,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: &[u8],
        mtu: usize,
    ) -> Vec<Vec<u8>> {
        self.packetize(dst, protocol, payload.len(), mtu)
            .map(|(h, range)| h.build_packet(&payload[range]))
            .collect()
    }

    /// IP input processing: validate, absorb fragments, deliver complete
    /// datagrams.
    pub fn input<'a>(&mut self, now: SimTime, packet: &'a [u8]) -> IpInput<'a> {
        let header = match Ipv4Header::parse(packet) {
            Ok(h) => h,
            Err(e) => {
                self.stats.bad += 1;
                return IpInput::Bad(e);
            }
        };
        if header.dst != self.addr {
            self.stats.not_for_us += 1;
            return IpInput::NotForUs;
        }
        let payload = &packet[HEADER_LEN..header.total_len as usize];

        if !header.more_frags && header.frag_offset == 0 {
            // The common, unfragmented case.
            self.stats.delivered += 1;
            return IpInput::Delivered { header, payload: Cow::Borrowed(payload) };
        }

        self.stats.fragments_in += 1;
        let key = (header.src, header.ident, header.protocol.0);
        if !self.reassembly.contains_key(&key) {
            let deadline = now + self.reassembly_timeout;
            self.reassembly.insert(key, Reassembly::new(deadline, self.next_arrival));
            self.next_arrival += 1;
        }
        let entry = self.reassembly.get_mut(&key).expect("just inserted");
        entry.insert(header.frag_offset as usize, payload.to_vec());
        if header.frag_offset == 0 {
            let mut h = header;
            h.more_frags = false;
            h.frag_offset = 0;
            entry.first_header = Some(h);
            let quote_len = (HEADER_LEN + 8).min(packet.len());
            entry.quote = Some(packet[..quote_len].to_vec());
        }
        if !header.more_frags {
            entry.total_len = Some(header.frag_offset as usize + payload.len());
        }
        if let Some(total) = entry.complete() {
            let entry = self.reassembly.remove(&key).expect("entry exists");
            let payload = entry.assemble(total);
            let mut h = entry.first_header.expect("checked by complete()");
            h.total_len = (HEADER_LEN + total) as u16;
            self.stats.delivered += 1;
            IpInput::Delivered { header: h, payload: Cow::Owned(payload) }
        } else {
            self.enforce_reassembly_caps();
            IpInput::FragmentHeld
        }
    }

    /// Evict oldest-first (by arrival stamp) until both reassembly caps
    /// hold.
    fn enforce_reassembly_caps(&mut self) {
        loop {
            let over_contexts = self.reassembly.len() > self.reassembly_max_contexts;
            let over_bytes = self.reassembly.values().map(Reassembly::bytes).sum::<usize>()
                > self.reassembly_max_bytes;
            if !over_contexts && !over_bytes {
                return;
            }
            let Some((&key, _)) = self.reassembly.iter().min_by_key(|(_, r)| r.arrival) else {
                return;
            };
            self.reassembly.remove(&key);
            self.stats.reassembly_dropped += 1;
        }
    }

    /// Expire overdue reassembly contexts. Returns expiry records, in
    /// (source, ident, protocol) order, so the caller can emit ICMP Time
    /// Exceeded where fragment zero arrived.
    pub fn poll_expired(&mut self, now: SimTime) -> Vec<ReassemblyExpiry> {
        let mut expired = Vec::new();
        self.reassembly.retain(|&(src, _, _), entry| {
            if now >= entry.deadline {
                expired.push(ReassemblyExpiry { src, original: entry.quote.clone() });
                false
            } else {
                true
            }
        });
        self.stats.reassembly_expired += expired.len() as u64;
        expired
    }

    /// The next instant at which [`Self::poll_expired`] could have work.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.reassembly.values().map(|r| r.deadline).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn now() -> SimTime {
        SimTime::from_nanos(1_000_000)
    }

    #[test]
    fn unfragmented_roundtrip() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let payload = b"a small datagram".to_vec();
        let pkts = tx.output(a(2), IpProtocol::UDP, &payload, 1500);
        assert_eq!(pkts.len(), 1);
        match rx.input(now(), &pkts[0]) {
            IpInput::Delivered { header, payload: p } => {
                assert_eq!(header.src, a(1));
                assert_eq!(header.protocol, IpProtocol::UDP);
                assert_eq!(p, payload);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn fragmentation_and_reassembly() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let payload: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        let pkts = tx.output(a(2), IpProtocol::UDP, &payload, 576);
        assert!(pkts.len() > 1);
        // every non-final fragment's payload is a multiple of 8
        for p in &pkts[..pkts.len() - 1] {
            let h = Ipv4Header::parse(p).unwrap();
            assert!(h.more_frags);
            assert_eq!(h.payload_len() % 8, 0);
        }
        let mut delivered = None;
        for p in &pkts {
            match rx.input(now(), p) {
                IpInput::Delivered { payload, .. } => delivered = Some(payload),
                IpInput::FragmentHeld => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(delivered.unwrap(), payload);
        assert_eq!(tx.stats().fragmented_out, 1);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let mut pkts = tx.output(a(2), IpProtocol::TCP, &payload, 576);
        pkts.reverse();
        let mut delivered = None;
        for p in &pkts {
            if let IpInput::Delivered { payload, .. } = rx.input(now(), p) {
                delivered = Some(payload);
            }
        }
        assert_eq!(delivered.unwrap(), payload);
    }

    #[test]
    fn duplicate_fragments_harmless() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let payload: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        let pkts = tx.output(a(2), IpProtocol::UDP, &payload, 576);
        // feed everything except the last, twice
        for p in &pkts[..pkts.len() - 1] {
            assert_eq!(rx.input(now(), p), IpInput::FragmentHeld);
            assert_eq!(rx.input(now(), p), IpInput::FragmentHeld);
        }
        match rx.input(now(), pkts.last().unwrap()) {
            IpInput::Delivered { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn interleaved_datagrams_keep_separate_contexts() {
        let mut tx1 = IpEndpoint::new(a(1));
        let mut tx3 = IpEndpoint::new(a(3));
        let mut rx = IpEndpoint::new(a(2));
        let pay1: Vec<u8> = vec![0xAA; 1500];
        let pay3: Vec<u8> = vec![0xBB; 1500];
        let p1 = tx1.output(a(2), IpProtocol::UDP, &pay1, 576);
        let p3 = tx3.output(a(2), IpProtocol::UDP, &pay3, 576);
        let mut got = Vec::new();
        for (x, y) in p1.iter().zip(&p3) {
            for p in [x, y] {
                if let IpInput::Delivered { payload, header } = rx.input(now(), p) {
                    got.push((header.src, payload));
                }
            }
        }
        assert_eq!(got.len(), 2);
        for (src, payload) in got {
            if src == a(1) {
                assert_eq!(payload, pay1);
            } else {
                assert_eq!(payload, pay3);
            }
        }
    }

    #[test]
    fn reassembly_timeout_expires_and_quotes_fragment_zero() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        rx.set_reassembly_timeout(SimDuration::from_millis(10));
        let payload = vec![1u8; 2000];
        let pkts = tx.output(a(2), IpProtocol::UDP, &payload, 576);
        // only fragment zero arrives
        assert_eq!(rx.input(now(), &pkts[0]), IpInput::FragmentHeld);
        assert!(rx.next_wakeup().is_some());
        let not_yet = rx.poll_expired(now() + SimDuration::from_millis(5));
        assert!(not_yet.is_empty());
        let expired = rx.poll_expired(now() + SimDuration::from_millis(10));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].src, a(1));
        let quote = expired[0].original.as_ref().unwrap();
        assert_eq!(quote.len(), HEADER_LEN + 8);
        assert!(rx.next_wakeup().is_none());
        assert_eq!(rx.stats().reassembly_expired, 1);
    }

    #[test]
    fn contexts_from_one_source_expire_in_ident_order() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        rx.set_reassembly_timeout(SimDuration::from_millis(10));
        // fragment zero of eight datagrams from one source, newest first
        let mut firsts: Vec<Vec<u8>> = (0..8)
            .map(|_| tx.output(a(2), IpProtocol::UDP, &vec![1u8; 2000], 576).remove(0))
            .collect();
        firsts.reverse();
        for p in &firsts {
            assert_eq!(rx.input(now(), p), IpInput::FragmentHeld);
        }
        let expired = rx.poll_expired(now() + SimDuration::from_millis(10));
        let idents: Vec<u16> = expired
            .iter()
            .map(|e| {
                let quote = e.original.as_ref().unwrap();
                u16::from_be_bytes([quote[4], quote[5]])
            })
            .collect();
        assert_eq!(idents, (1..=8).collect::<Vec<u16>>());
    }

    #[test]
    fn timeout_without_fragment_zero_has_no_quote() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        rx.set_reassembly_timeout(SimDuration::from_millis(10));
        let pkts = tx.output(a(2), IpProtocol::UDP, &vec![1u8; 2000], 576);
        assert_eq!(rx.input(now(), &pkts[1]), IpInput::FragmentHeld);
        let expired = rx.poll_expired(now() + SimDuration::from_secs(1));
        assert_eq!(expired.len(), 1);
        assert!(expired[0].original.is_none());
    }

    #[test]
    fn wrong_destination_and_corruption() {
        let mut tx = IpEndpoint::new(a(1));
        let mut rx = IpEndpoint::new(a(2));
        let pkts = tx.output(a(9), IpProtocol::UDP, b"x", 1500);
        assert_eq!(rx.input(now(), &pkts[0]), IpInput::NotForUs);
        let mut bad = tx.output(a(2), IpProtocol::UDP, b"y", 1500).remove(0);
        bad[9] ^= 0xff;
        assert!(matches!(rx.input(now(), &bad), IpInput::Bad(WireError::BadChecksum)));
        assert_eq!(rx.stats().bad, 1);
        assert_eq!(rx.stats().not_for_us, 1);
    }

    #[test]
    fn ident_increments_and_skips_zero() {
        let mut tx = IpEndpoint::new(a(1));
        tx.next_ident = u16::MAX;
        let p1 = tx.output(a(2), IpProtocol::UDP, b"x", 1500);
        let h1 = Ipv4Header::parse(&p1[0]).unwrap();
        assert_eq!(h1.ident, u16::MAX);
        let p2 = tx.output(a(2), IpProtocol::UDP, b"x", 1500);
        let h2 = Ipv4Header::parse(&p2[0]).unwrap();
        assert_eq!(h2.ident, 1); // wrapped past 0
    }

    #[test]
    fn spanning_fragment_fills_holes_past_first_overlap() {
        // Regression for the tail-trim data loss: fragments [8,16) and
        // [24,32) arrive first, then one fragment [0,32) spanning both
        // with holes at [0,8) and [16,24). The old insert truncated the
        // spanning fragment at the *first* later fragment's head (off
        // 8), silently discarding the bytes for the second hole — the
        // datagram could then never complete.
        let mut rx = IpEndpoint::new(a(2));
        let mk = |off: u16, more: bool, fill: u8, len: usize| {
            let mut h = Ipv4Header::new(a(1), a(2), IpProtocol::UDP, len);
            h.ident = 7;
            h.frag_offset = off;
            h.more_frags = more;
            h.build_packet(&vec![fill; len])
        };
        assert_eq!(rx.input(now(), &mk(8, true, 0xAA, 8)), IpInput::FragmentHeld);
        assert_eq!(rx.input(now(), &mk(24, false, 0xBB, 8)), IpInput::FragmentHeld);
        match rx.input(now(), &mk(0, true, 0xCC, 32)) {
            IpInput::Delivered { payload, .. } => {
                assert_eq!(payload.len(), 32);
                assert!(payload[0..8].iter().all(|&b| b == 0xCC));
                assert!(payload[8..16].iter().all(|&b| b == 0xAA), "first arrival wins");
                assert!(payload[16..24].iter().all(|&b| b == 0xCC), "hole past first overlap");
                assert!(payload[24..32].iter().all(|&b| b == 0xBB));
            }
            other => panic!("datagram must complete, got {other:?}"),
        }
    }

    #[test]
    fn reassembly_caps_evict_oldest_context() {
        let mut rx = IpEndpoint::new(a(9));
        rx.set_reassembly_caps(2, usize::MAX);
        let mut partial = |src: u8, ident: u16| {
            let mut tx = IpEndpoint::new(a(src));
            tx.next_ident = ident;
            let pkts = tx.output(a(9), IpProtocol::UDP, &vec![src; 2000], 576);
            assert_eq!(rx.input(now(), &pkts[0]), IpInput::FragmentHeld);
            pkts
        };
        let first = partial(1, 100);
        let _second = partial(3, 200);
        let _third = partial(4, 300); // over the cap: evicts src 1's context
        assert_eq!(rx.stats().reassembly_dropped, 1);
        // the evicted datagram can no longer complete from its tail
        // alone: fragment zero is gone
        for p in &first[1..] {
            assert!(
                matches!(rx.input(now(), p), IpInput::FragmentHeld),
                "evicted context must have forgotten fragment zero"
            );
        }
        // ...and the cap still holds
        assert!(rx.reassembly.len() <= 2 + 1, "cap enforced (plus the re-opened context)");
    }

    #[test]
    fn reassembly_byte_cap_bounds_buffered_bytes() {
        let mut rx = IpEndpoint::new(a(9));
        rx.set_reassembly_caps(usize::MAX, 4096);
        // five partial datagrams of ~1.5 KiB buffered each: the byte cap
        // forces the oldest out
        for src in 1..=5u8 {
            let mut tx = IpEndpoint::new(a(src));
            let pkts = tx.output(a(9), IpProtocol::UDP, &vec![src; 2000], 1536);
            assert_eq!(rx.input(now(), &pkts[0]), IpInput::FragmentHeld);
        }
        assert!(rx.stats().reassembly_dropped >= 1);
        let buffered: usize = rx.reassembly.values().map(Reassembly::bytes).sum();
        assert!(buffered <= 4096, "buffered {buffered} bytes exceed the cap");
    }

    #[test]
    fn overlapping_fragments_first_arrival_wins() {
        // Craft overlapping fragments by hand.
        let mut rx = IpEndpoint::new(a(2));
        let mk = |off: u16, more: bool, fill: u8, len: usize| {
            let mut h = Ipv4Header::new(a(1), a(2), IpProtocol::UDP, len);
            h.ident = 42;
            h.frag_offset = off;
            h.more_frags = more;
            h.build_packet(&vec![fill; len])
        };
        // [0,16) arrives first with AA, then [8,24) with BB (overlap 8..16)
        assert_eq!(rx.input(now(), &mk(0, true, 0xAA, 16)), IpInput::FragmentHeld);
        match rx.input(now(), &mk(8, false, 0xBB, 16)) {
            IpInput::Delivered { payload, .. } => {
                assert_eq!(payload.len(), 24);
                assert!(payload[..16].iter().all(|&b| b == 0xAA));
                assert!(payload[16..].iter().all(|&b| b == 0xBB));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
