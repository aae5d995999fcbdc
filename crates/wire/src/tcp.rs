//! TCP segment header (RFC 793) with the MSS, window-scale (RFC 7323)
//! and SACK (RFC 2018) options.
//!
//! The paper implements TCP almost entirely in CAB system threads
//! (§4.2): the input thread "examines the TCP header, checksums the
//! entire packet, and performs standard TCP input processing". This
//! module provides the header format, sequence-number arithmetic, and
//! the software checksum whose cost dominates Figure 7; the state
//! machine lives in `nectar-stack`.

use std::fmt;
use std::net::Ipv4Addr;

use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::{get_u16, get_u32, put_u16, put_u32, WireError};

/// Length of the option-free TCP header.
pub const HEADER_LEN: usize = 20;
/// Length of the header with the 4-byte MSS option we emit on SYNs.
pub const HEADER_LEN_WITH_MSS: usize = 24;
/// Most SACK blocks a header carries (RFC 2018 caps at 4 without
/// timestamps; we never emit timestamps).
pub const MAX_SACK_BLOCKS: usize = 4;
/// Largest window-scale shift a peer may use (RFC 7323 §2.3).
pub const MAX_WSCALE: u8 = 14;

/// A TCP sequence number with wrapping (modulo 2^32) comparison, per
/// RFC 793's sequence space arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SeqNum(pub u32);

impl SeqNum {
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: usize) -> SeqNum {
        SeqNum(self.0.wrapping_add(n as u32))
    }

    /// Signed distance from `other` to `self` in sequence space.
    pub fn since(self, other: SeqNum) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// `self < other` in wrapping order.
    pub fn before(self, other: SeqNum) -> bool {
        self.since(other) < 0
    }

    /// `self <= other` in wrapping order.
    pub fn before_eq(self, other: SeqNum) -> bool {
        self.since(other) <= 0
    }

    pub fn after(self, other: SeqNum) -> bool {
        self.since(other) > 0
    }

    pub fn after_eq(self, other: SeqNum) -> bool {
        self.since(other) >= 0
    }

    pub fn max(self, other: SeqNum) -> SeqNum {
        if self.after(other) {
            self
        } else {
            other
        }
    }

    pub fn min(self, other: SeqNum) -> SeqNum {
        if self.before(other) {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tiny local stand-in for the `bitflags` crate: we only need
/// contains / union / bit tests on a `u8`.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
        pub struct $name(pub $ty);

        impl $name {
            $(pub const $flag: $name = $name($val);)*
            pub const EMPTY: $name = $name(0);

            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name {
                $name(self.0 | rhs.0)
            }
        }

        impl std::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) {
                self.0 |= rhs.0;
            }
        }
    };
}

bitflags_lite! {
    /// TCP header flags.
    pub struct TcpFlags: u8 {
        const FIN = 0x01;
        const SYN = 0x02;
        const RST = 0x04;
        const PSH = 0x08;
        const ACK = 0x10;
        const URG = 0x20;
    }
}

/// A fixed-capacity set of SACK blocks, kept inline so [`TcpHeader`]
/// stays `Copy`. Blocks are `[left, right)` half-open sequence ranges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks {
    len: u8,
    blocks: [(SeqNum, SeqNum); MAX_SACK_BLOCKS],
}

impl SackBlocks {
    pub const EMPTY: SackBlocks =
        SackBlocks { len: 0, blocks: [(SeqNum(0), SeqNum(0)); MAX_SACK_BLOCKS] };

    /// Append a block; silently ignored once full (the header carries at
    /// most [`MAX_SACK_BLOCKS`], further blocks are simply not sent).
    pub fn push(&mut self, left: SeqNum, right: SeqNum) {
        if (self.len as usize) < MAX_SACK_BLOCKS {
            self.blocks[self.len as usize] = (left, right);
            self.len += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }

    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, SeqNum)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }
}

/// Parsed TCP header (unknown options are skipped, not stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNum,
    pub ack: SeqNum,
    pub flags: TcpFlags,
    pub window: u16,
    pub urgent: u16,
    /// Maximum segment size from a SYN's MSS option, if present.
    pub mss: Option<u16>,
    /// Window-scale shift from a SYN's WSopt (RFC 7323), clamped to
    /// [`MAX_WSCALE`] on parse as the RFC directs.
    pub wscale: Option<u8>,
    /// SACK-permitted option seen (SYN segments only, RFC 2018).
    pub sack_permitted: bool,
    /// SACK blocks carried on this segment.
    pub sack: SackBlocks,
    /// Total header length including options (where payload starts).
    pub header_len: usize,
}

impl TcpHeader {
    /// A header with given ports and everything else zeroed — the usual
    /// starting point for the state machine's emit path.
    pub fn new(src_port: u16, dst_port: u16) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq: SeqNum(0),
            ack: SeqNum(0),
            flags: TcpFlags::EMPTY,
            window: 0,
            urgent: 0,
            mss: None,
            wscale: None,
            sack_permitted: false,
            sack: SackBlocks::EMPTY,
            header_len: HEADER_LEN,
        }
    }

    /// Parse a TCP header. If `verify_checksum` is set, the segment
    /// checksum is validated against the enclosing IP header — the
    /// "TCP w/o checksum" mode of Figure 7 passes `false` here, exactly
    /// as the experimental TCP variant in the paper skipped software
    /// checksumming and relied on the hardware CRC.
    pub fn parse(
        ip: &Ipv4Header,
        data: &[u8],
        verify_checksum: bool,
    ) -> Result<TcpHeader, WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let header_len = ((data[12] >> 4) as usize) * 4;
        if header_len < HEADER_LEN || data.len() < header_len {
            return Err(WireError::BadLength);
        }
        if verify_checksum {
            let mut acc = ip.pseudo_header_checksum(data.len());
            acc.write(data);
            if acc.finish_raw() != 0 {
                return Err(WireError::BadChecksum);
            }
        }
        // scan options: MSS (2), window scale (3), SACK-permitted (4),
        // SACK blocks (5); anything else is skipped by its length byte
        let mut mss = None;
        let mut wscale = None;
        let mut sack_permitted = false;
        let mut sack = SackBlocks::EMPTY;
        let mut i = HEADER_LEN;
        while i < header_len {
            match data[i] {
                0 => break,  // end of options
                1 => i += 1, // no-op
                2 => {
                    if i + 4 > header_len || data[i + 1] != 4 {
                        return Err(WireError::BadField);
                    }
                    mss = Some(get_u16(data, i + 2));
                    i += 4;
                }
                3 => {
                    if i + 3 > header_len || data[i + 1] != 3 {
                        return Err(WireError::BadField);
                    }
                    wscale = Some(data[i + 2].min(MAX_WSCALE));
                    i += 3;
                }
                4 => {
                    if i + 2 > header_len || data[i + 1] != 2 {
                        return Err(WireError::BadField);
                    }
                    sack_permitted = true;
                    i += 2;
                }
                5 => {
                    if i + 2 > header_len {
                        return Err(WireError::BadField);
                    }
                    let l = data[i + 1] as usize;
                    if l < 10 || !(l - 2).is_multiple_of(8) || i + l > header_len {
                        return Err(WireError::BadField);
                    }
                    let mut j = i + 2;
                    while j + 8 <= i + l {
                        // blocks beyond capacity are dropped, not an error
                        sack.push(SeqNum(get_u32(data, j)), SeqNum(get_u32(data, j + 4)));
                        j += 8;
                    }
                    i += l;
                }
                _ => {
                    // skip unknown option by its length byte
                    if i + 1 >= header_len {
                        return Err(WireError::BadField);
                    }
                    let l = data[i + 1] as usize;
                    if l < 2 || i + l > header_len {
                        return Err(WireError::BadField);
                    }
                    i += l;
                }
            }
        }
        Ok(TcpHeader {
            src_port: get_u16(data, 0),
            dst_port: get_u16(data, 2),
            seq: SeqNum(get_u32(data, 4)),
            ack: SeqNum(get_u32(data, 8)),
            flags: TcpFlags(data[13] & 0x3f),
            window: get_u16(data, 14),
            urgent: get_u16(data, 18),
            mss,
            wscale,
            sack_permitted,
            sack,
            header_len,
        })
    }

    /// Build a full TCP segment (header + payload). See
    /// [`TcpHeader::build_parts`].
    pub fn build(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        compute_checksum: bool,
    ) -> Vec<u8> {
        self.build_parts(src, dst, &[payload], compute_checksum)
    }

    /// Build a full TCP segment whose payload is the concatenation of
    /// `parts` — the two halves of a send ring, say — written straight
    /// after the header into the segment's storage. If
    /// `compute_checksum` is false the checksum field is left zero (the
    /// experimental checksum-off mode; the CAB's hardware CRC still
    /// protects the frame).
    pub fn build_parts(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        parts: &[&[u8]],
        compute_checksum: bool,
    ) -> Vec<u8> {
        let mut opts = [0u8; 40];
        let mut o = 0;
        if let Some(mss) = self.mss {
            opts[o] = 2;
            opts[o + 1] = 4;
            opts[o + 2] = (mss >> 8) as u8;
            opts[o + 3] = mss as u8;
            o += 4;
        }
        if let Some(ws) = self.wscale {
            opts[o] = 3;
            opts[o + 1] = 3;
            opts[o + 2] = ws;
            o += 3;
        }
        if self.sack_permitted {
            opts[o] = 4;
            opts[o + 1] = 2;
            o += 2;
        }
        if !self.sack.is_empty() {
            opts[o] = 5;
            opts[o + 1] = 2 + 8 * self.sack.len() as u8;
            o += 2;
            for (l, r) in self.sack.iter() {
                opts[o..o + 4].copy_from_slice(&l.0.to_be_bytes());
                opts[o + 4..o + 8].copy_from_slice(&r.0.to_be_bytes());
                o += 8;
            }
        }
        while o % 4 != 0 {
            opts[o] = 1; // NOP padding to the 32-bit boundary
            o += 1;
        }
        let header_len = HEADER_LEN + o;
        let total = header_len + parts.iter().map(|p| p.len()).sum::<usize>();
        let mut seg = Vec::with_capacity(total);
        seg.resize(header_len, 0);
        put_u16(&mut seg, 0, self.src_port);
        put_u16(&mut seg, 2, self.dst_port);
        put_u32(&mut seg, 4, self.seq.0);
        put_u32(&mut seg, 8, self.ack.0);
        seg[12] = ((header_len / 4) as u8) << 4;
        seg[13] = self.flags.0;
        put_u16(&mut seg, 14, self.window);
        put_u16(&mut seg, 18, self.urgent);
        seg[HEADER_LEN..header_len].copy_from_slice(&opts[..o]);
        for part in parts {
            seg.extend_from_slice(part);
        }
        if compute_checksum {
            let ip = Ipv4Header::new(src, dst, IpProtocol::TCP, total);
            let mut acc = ip.pseudo_header_checksum(total);
            acc.write(&seg);
            let c = acc.finish_raw();
            put_u16(&mut seg, 16, c);
        }
        seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    fn ip_for(seg: &[u8]) -> Ipv4Header {
        let (s, d) = addrs();
        Ipv4Header::new(s, d, IpProtocol::TCP, seg.len())
    }

    fn sample_header() -> TcpHeader {
        let mut h = TcpHeader::new(2000, 80);
        h.seq = SeqNum(0x1000_0000);
        h.ack = SeqNum(77);
        h.flags = TcpFlags::ACK | TcpFlags::PSH;
        h.window = 4096;
        h
    }

    #[test]
    fn seqnum_wrapping_arithmetic() {
        let a = SeqNum(u32::MAX - 1);
        let b = a.add(4);
        assert_eq!(b, SeqNum(2));
        assert!(a.before(b));
        assert!(b.after(a));
        assert_eq!(b.since(a), 4);
        assert_eq!(a.since(b), -4);
        assert!(a.before_eq(a));
        assert!(a.after_eq(a));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
    }

    #[test]
    fn build_parse_roundtrip() {
        let (s, d) = addrs();
        let h = sample_header();
        let seg = h.build(s, d, b"GET /", true);
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, true).unwrap();
        assert_eq!(parsed.src_port, 2000);
        assert_eq!(parsed.dst_port, 80);
        assert_eq!(parsed.seq, h.seq);
        assert_eq!(parsed.ack, h.ack);
        assert_eq!(parsed.flags, h.flags);
        assert_eq!(parsed.window, 4096);
        assert_eq!(parsed.mss, None);
        assert_eq!(parsed.header_len, HEADER_LEN);
        assert_eq!(&seg[parsed.header_len..], b"GET /");
    }

    #[test]
    fn mss_option_roundtrip() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.flags = TcpFlags::SYN;
        h.mss = Some(4056);
        let seg = h.build(s, d, &[], true);
        assert_eq!(seg.len(), HEADER_LEN_WITH_MSS);
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, true).unwrap();
        assert_eq!(parsed.mss, Some(4056));
        assert_eq!(parsed.header_len, HEADER_LEN_WITH_MSS);
    }

    #[test]
    fn checksum_detects_corruption() {
        let (s, d) = addrs();
        let seg0 = sample_header().build(s, d, b"data to protect", true);
        for i in 0..seg0.len() {
            let mut seg = seg0.clone();
            seg[i] ^= 0x08;
            let r = TcpHeader::parse(&ip_for(&seg), &seg, true);
            assert!(r.is_err() || seg == seg0, "undetected corruption at byte {i}");
        }
    }

    #[test]
    fn checksum_off_mode_accepts_zero_field() {
        let (s, d) = addrs();
        let seg = sample_header().build(s, d, b"data", false);
        assert_eq!(get_u16(&seg, 16), 0);
        // parses fine without verification…
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, false).unwrap();
        assert_eq!(parsed.dst_port, 80);
        // …but fails verification, as it must
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, true), Err(WireError::BadChecksum));
    }

    #[test]
    fn unknown_options_skipped() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.mss = Some(1460);
        let mut seg = h.build(s, d, &[], false);
        // replace MSS option with unknown kind 77, len 4
        seg[20] = 77;
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, false).unwrap();
        assert_eq!(parsed.mss, None);
    }

    #[test]
    fn malformed_options_rejected() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.mss = Some(1460);
        let good = h.build(s, d, &[], false);
        // MSS with wrong length byte
        let mut seg = good.clone();
        seg[21] = 3;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
        // unknown option with length overrunning the header
        let mut seg = good.clone();
        seg[20] = 77;
        seg[21] = 60;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
        // unknown option with length < 2
        let mut seg = good;
        seg[20] = 77;
        seg[21] = 1;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
    }

    #[test]
    fn syn_options_roundtrip() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.flags = TcpFlags::SYN;
        h.mss = Some(4016);
        h.wscale = Some(7);
        h.sack_permitted = true;
        let seg = h.build(s, d, &[], true);
        assert_eq!(seg.len() % 4, 0, "header padded to a 32-bit boundary");
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, true).unwrap();
        assert_eq!(parsed.mss, Some(4016));
        assert_eq!(parsed.wscale, Some(7));
        assert!(parsed.sack_permitted);
        assert!(parsed.sack.is_empty());
    }

    #[test]
    fn sack_blocks_roundtrip() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.sack.push(SeqNum(1000), SeqNum(2000));
        h.sack.push(SeqNum(3000), SeqNum(4000));
        let seg = h.build(s, d, b"x", true);
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, true).unwrap();
        let blocks: Vec<_> = parsed.sack.iter().collect();
        assert_eq!(blocks, vec![(SeqNum(1000), SeqNum(2000)), (SeqNum(3000), SeqNum(4000))]);
        assert_eq!(&seg[parsed.header_len..], b"x");
    }

    #[test]
    fn sack_blocks_cap_at_four() {
        let mut b = SackBlocks::EMPTY;
        for k in 0..6u32 {
            b.push(SeqNum(k * 10), SeqNum(k * 10 + 5));
        }
        assert_eq!(b.len(), MAX_SACK_BLOCKS);
        assert_eq!(b.iter().last(), Some((SeqNum(30), SeqNum(35))));
    }

    #[test]
    fn wscale_clamped_on_parse() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.flags = TcpFlags::SYN;
        h.wscale = Some(30);
        let seg = h.build(s, d, &[], false);
        let parsed = TcpHeader::parse(&ip_for(&seg), &seg, false).unwrap();
        assert_eq!(parsed.wscale, Some(MAX_WSCALE));
    }

    #[test]
    fn malformed_new_options_rejected() {
        let (s, d) = addrs();
        let mut h = sample_header();
        h.flags = TcpFlags::SYN;
        h.wscale = Some(7);
        h.sack_permitted = true;
        let good = h.build(s, d, &[], false);
        // wscale with wrong length byte
        let mut seg = good.clone();
        seg[21] = 4;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
        // sack-permitted with wrong length byte
        let mut seg = good.clone();
        seg[24] = 3;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
        // sack blocks with a length not 2+8n
        let mut h2 = sample_header();
        h2.sack.push(SeqNum(1), SeqNum(2));
        let mut seg = h2.build(s, d, &[], false);
        seg[21] = 9;
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg, false), Err(WireError::BadField));
    }

    #[test]
    fn truncated_rejected() {
        let (s, d) = addrs();
        let seg = sample_header().build(s, d, &[], false);
        assert_eq!(TcpHeader::parse(&ip_for(&seg), &seg[..10], false), Err(WireError::Truncated));
        // data offset claiming more header than buffer
        let mut seg2 = seg;
        seg2[12] = 0xf0;
        assert_eq!(TcpHeader::parse(&ip_for(&seg2), &seg2, false), Err(WireError::BadLength));
    }
}
