//! IPv4 header (RFC 791, options-free).
//!
//! §4.1 of the paper: IP input processing runs at interrupt time on the
//! CAB; the sanity check "including computation of the IP header
//! checksum" happens in the start-of-data upcall, and fragments are
//! queued for reassembly at end-of-data. This module supplies the
//! header format those code paths operate on; the reassembly and
//! fragmentation logic lives in `nectar-stack`.

use std::net::Ipv4Addr;

use crate::{checksum, get_u16, put_u16, WireError};

/// Length of the options-free IPv4 header.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers we demultiplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IpProtocol(pub u8);

impl IpProtocol {
    pub const ICMP: IpProtocol = IpProtocol(1);
    pub const TCP: IpProtocol = IpProtocol(6);
    pub const UDP: IpProtocol = IpProtocol(17);
}

/// Fragmentation-related and addressing fields of an IPv4 header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: IpProtocol,
    pub ttl: u8,
    pub tos: u8,
    pub ident: u16,
    pub dont_frag: bool,
    pub more_frags: bool,
    /// Fragment offset in bytes (stored on the wire in 8-byte units, so
    /// must be a multiple of 8 when emitted).
    pub frag_offset: u16,
    /// Total length of header + payload, in bytes.
    pub total_len: u16,
}

impl Ipv4Header {
    /// A fresh unfragmented header with common defaults (TTL per the
    /// 4.3BSD default of 30 hops scaled up to the modern 64 — the value
    /// is inert inside a two-HUB LAN).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: 64,
            tos: 0,
            ident: 0,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            total_len: (HEADER_LEN + payload_len) as u16,
        }
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(HEADER_LEN)
    }

    /// Parse and validate a header from the front of `data`, verifying
    /// version, header length, the header checksum, and that the buffer
    /// is at least `total_len` long. Returns the header; the payload is
    /// `data[HEADER_LEN..total_len]`.
    pub fn parse(data: &[u8]) -> Result<Ipv4Header, WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(WireError::BadField);
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl != HEADER_LEN {
            // we never emit options; receiving them is unsupported
            return Err(WireError::BadField);
        }
        if !checksum::internet_checksum_valid(&data[..HEADER_LEN]) {
            return Err(WireError::BadChecksum);
        }
        let total_len = get_u16(data, 2);
        if (total_len as usize) < HEADER_LEN || data.len() < total_len as usize {
            return Err(WireError::BadLength);
        }
        let flags_frag = get_u16(data, 6);
        Ok(Ipv4Header {
            tos: data[1],
            total_len,
            ident: get_u16(data, 4),
            dont_frag: flags_frag & 0x4000 != 0,
            more_frags: flags_frag & 0x2000 != 0,
            frag_offset: (flags_frag & 0x1fff) * 8,
            ttl: data[8],
            protocol: IpProtocol(data[9]),
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
        })
    }

    /// Emit the header (with correct checksum) into the first
    /// [`HEADER_LEN`] bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= HEADER_LEN);
        assert_eq!(self.frag_offset % 8, 0, "fragment offset must be 8-byte aligned");
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = self.tos;
        put_u16(buf, 2, self.total_len);
        put_u16(buf, 4, self.ident);
        let mut flags_frag = self.frag_offset / 8;
        if self.dont_frag {
            flags_frag |= 0x4000;
        }
        if self.more_frags {
            flags_frag |= 0x2000;
        }
        put_u16(buf, 6, flags_frag);
        buf[8] = self.ttl;
        buf[9] = self.protocol.0;
        put_u16(buf, 10, 0); // checksum placeholder
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::internet_checksum(&buf[..HEADER_LEN]);
        put_u16(buf, 10, c);
    }

    /// The emitted header (with correct checksum) as its own array, for
    /// senders that gather header and payload into a frame.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        self.emit(&mut bytes);
        bytes
    }

    /// Build a complete packet: header + payload.
    pub fn build_packet(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.payload_len(), payload.len());
        let mut pkt = Vec::with_capacity(HEADER_LEN + payload.len());
        pkt.extend_from_slice(&self.to_bytes());
        pkt.extend_from_slice(payload);
        pkt
    }

    /// Start the transport pseudo-header checksum for this packet
    /// (shared by TCP and UDP).
    pub fn pseudo_header_checksum(&self, transport_len: usize) -> checksum::ChecksumAccum {
        let mut acc = checksum::ChecksumAccum::new();
        acc.write_u32(u32::from(self.src));
        acc.write_u32(u32::from(self.dst));
        acc.write_u16(self.protocol.0 as u16);
        acc.write_u16(transport_len as u16);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn emit_parse_roundtrip() {
        let payload = b"transport bytes";
        let mut h = Ipv4Header::new(addr(1), addr(2), IpProtocol::UDP, payload.len());
        h.ident = 0x1234;
        h.ttl = 17;
        h.tos = 0x10;
        let pkt = h.build_packet(payload);
        let parsed = Ipv4Header::parse(&pkt).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&pkt[HEADER_LEN..], payload);
        assert_eq!(parsed.payload_len(), payload.len());
    }

    #[test]
    fn fragment_fields_roundtrip() {
        let mut h = Ipv4Header::new(addr(1), addr(2), IpProtocol::UDP, 64);
        h.more_frags = true;
        h.frag_offset = 1480;
        let pkt = h.build_packet(&[0u8; 64]);
        let parsed = Ipv4Header::parse(&pkt).unwrap();
        assert!(parsed.more_frags);
        assert!(!parsed.dont_frag);
        assert_eq!(parsed.frag_offset, 1480);

        let mut h2 = h;
        h2.more_frags = false;
        h2.dont_frag = true;
        h2.frag_offset = 0;
        let pkt2 = h2.build_packet(&[0u8; 64]);
        let parsed2 = Ipv4Header::parse(&pkt2).unwrap();
        assert!(parsed2.dont_frag);
        assert!(!parsed2.more_frags);
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn unaligned_fragment_offset_panics() {
        let mut h = Ipv4Header::new(addr(1), addr(2), IpProtocol::UDP, 4);
        h.frag_offset = 3;
        h.build_packet(&[0u8; 4]);
    }

    #[test]
    fn checksum_is_validated() {
        let h = Ipv4Header::new(addr(1), addr(2), IpProtocol::TCP, 0);
        let mut pkt = h.build_packet(&[]);
        pkt[8] ^= 0xff; // mangle TTL
        assert_eq!(Ipv4Header::parse(&pkt), Err(WireError::BadChecksum));
    }

    #[test]
    fn rejects_bad_version_and_options() {
        let h = Ipv4Header::new(addr(1), addr(2), IpProtocol::TCP, 0);
        let mut pkt = h.build_packet(&[]);
        pkt[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&pkt), Err(WireError::BadField));
        pkt[0] = 0x46; // IHL 6 => options present
        assert_eq!(Ipv4Header::parse(&pkt), Err(WireError::BadField));
    }

    #[test]
    fn rejects_truncation() {
        let h = Ipv4Header::new(addr(1), addr(2), IpProtocol::TCP, 8);
        let pkt = h.build_packet(&[0u8; 8]);
        assert_eq!(Ipv4Header::parse(&pkt[..10]), Err(WireError::Truncated));
        // buffer shorter than total_len
        assert_eq!(Ipv4Header::parse(&pkt[..24]), Err(WireError::BadLength));
    }

    #[test]
    fn pseudo_header_matches_manual() {
        let h = Ipv4Header::new(addr(9), addr(8), IpProtocol::UDP, 4);
        let acc = h.pseudo_header_checksum(4);
        let mut manual = checksum::ChecksumAccum::new();
        manual.write(&[10, 0, 0, 9, 10, 0, 0, 8, 0, 17, 0, 4]);
        assert_eq!(acc.finish_raw(), manual.finish_raw());
    }
}
