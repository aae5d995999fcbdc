//! The Nectar datalink frame.
//!
//! On-wire layout (all multi-byte fields big-endian):
//!
//! ```text
//! 0            route_len (R)            number of source-route hops
//! 1            route_pos                index of next hop byte; each HUB
//!                                       advances this as it forwards
//! 2 .. 2+R     route bytes              HUB output port per hop
//! 2+R .. +12   datalink header:
//!                dst_cab   u16          destination CAB node id
//!                src_cab   u16          source CAB node id
//!                proto     u8           demultiplexing key (IP, NDG, …)
//!                flags     u8           reserved
//!                len       u16          payload length in bytes
//!                msg_id    u32          correlation id for tracing
//! …            payload (len bytes)
//! last 4       CRC-32 over header+payload (computed by CAB hardware in
//!              the original system; `route_len`/`route_pos`/route bytes
//!              are excluded because they mutate in flight)
//! ```
//!
//! The paper's datalink layer (§4.1) reads the header, kicks off DMA
//! into a mailbox, and issues start-of-data / end-of-data upcalls; the
//! `msg_id` field is this reproduction's hook for the Figure 6 stage
//! trace.

use crate::framebuf::FrameBuf;
use crate::route::Route;
use crate::{checksum, get_u16, get_u32, put_u16, put_u32, WireError};

/// Datalink protocol demultiplexing values (§3: transport protocols are
/// implemented on the CAB on top of the datalink layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DatalinkProto {
    /// An IPv4 datagram (the TCP/IP suite of §4).
    Ip = 1,
    /// Nectar datagram protocol.
    Datagram = 2,
    /// Nectar reliable message protocol (stop-and-wait).
    Rmp = 3,
    /// Nectar request-response protocol (RPC transport).
    ReqResp = 4,
    /// Raw frames for the network-device mode of §5.1 (host-resident
    /// protocol stack; the CAB acts as a dumb interface).
    Raw = 5,
    /// CAB-resident collectives: multicast fan-out, tree barrier, and
    /// reduction combining (see [`crate::collective`]).
    Collective = 6,
}

impl DatalinkProto {
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => DatalinkProto::Ip,
            2 => DatalinkProto::Datagram,
            3 => DatalinkProto::Rmp,
            4 => DatalinkProto::ReqResp,
            5 => DatalinkProto::Raw,
            6 => DatalinkProto::Collective,
            _ => return Err(WireError::BadField),
        })
    }
}

/// Size of the fixed datalink header.
pub const HEADER_LEN: usize = 12;
/// Size of the CRC-32 trailer.
pub const CRC_LEN: usize = 4;
/// Route prefix overhead excluding the hop bytes themselves.
pub const ROUTE_FIXED_LEN: usize = 2;

/// Parsed datalink header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatalinkHeader {
    pub dst_cab: u16,
    pub src_cab: u16,
    pub proto: DatalinkProto,
    pub flags: u8,
    pub payload_len: u16,
    pub msg_id: u32,
}

/// An owned datalink frame: route prefix + header + payload + CRC.
///
/// The bytes live in a shared [`FrameBuf`], so cloning a frame is O(1)
/// and never copies the wire data. The on-wire `route_pos` byte is kept
/// as an overlay field instead of being written back into the buffer:
/// HUBs advance hops by bumping the field, which means a frame can
/// traverse the whole network — build, HUB forwarding, CAB delivery —
/// on one backing allocation even while clones of it exist.
/// A frame comes in two storage shapes:
///
/// * *contiguous* — `buf` holds the whole wire image (route + header +
///   payload + CRC trailer); `tail` is `None`. This is what
///   [`Frame::build_parts`] and [`Frame::from_bytes`] produce.
/// * *split* — `buf` holds only route + header, `tail` holds the
///   payload, and the CRC trailer lives in the `crc` field. This is
///   what [`Frame::build_shared`] produces: every multicast replica
///   gets a fresh ~20-byte head but shares one payload allocation, so
///   fan-out at interior CABs never deep-copies the data.
#[derive(Clone, Debug)]
pub struct Frame {
    buf: FrameBuf,
    /// Shared payload of a split frame; `None` for contiguous frames.
    tail: Option<FrameBuf>,
    /// CRC-32 trailer of a split frame; contiguous frames keep theirs
    /// in the last 4 bytes of `buf`.
    crc: u32,
    /// Authoritative `route_pos`; shadows byte 1 of `buf`.
    route_pos: u8,
}

impl Frame {
    /// Start a frame's storage: route prefix + datalink header for a
    /// payload of `payload_len` bytes, with room for `spare` more bytes
    /// after them. Returns the bytes and the header's offset.
    fn head(
        route: &Route,
        header: DatalinkHeader,
        payload_len: usize,
        spare: usize,
    ) -> (Vec<u8>, usize) {
        assert!(payload_len <= u16::MAX as usize, "payload too large for frame");
        let r = route.len();
        let mut bytes = Vec::with_capacity(ROUTE_FIXED_LEN + r + HEADER_LEN + spare);
        bytes.push(r as u8);
        bytes.push(0); // route_pos
        bytes.extend_from_slice(route.hops());
        let h = bytes.len();
        bytes.resize(h + HEADER_LEN, 0);
        put_u16(&mut bytes, h, header.dst_cab);
        put_u16(&mut bytes, h + 2, header.src_cab);
        bytes[h + 4] = header.proto as u8;
        bytes[h + 5] = header.flags;
        put_u16(&mut bytes, h + 6, payload_len as u16);
        put_u32(&mut bytes, h + 8, header.msg_id);
        (bytes, h)
    }

    /// Assemble a frame whose payload is `payload`. See
    /// [`Frame::build_parts`].
    pub fn build(route: &Route, header: DatalinkHeader, payload: &[u8]) -> Frame {
        Frame::build_parts(route, header, &[payload])
    }

    /// Assemble a frame whose payload is the concatenation of `parts`
    /// (a protocol header built beside its data, say), gathering them
    /// as the CAB's DMA engine gathered onto the fiber: route, datalink
    /// header, every part and the CRC are written once, into the
    /// storage the frame keeps. The CRC is computed over header +
    /// payload, as the CAB hardware did for outgoing fiber data.
    pub fn build_parts(route: &Route, header: DatalinkHeader, parts: &[&[u8]]) -> Frame {
        let payload_len = parts.iter().map(|p| p.len()).sum();
        let (mut bytes, h) = Frame::head(route, header, payload_len, payload_len + CRC_LEN);
        for part in parts {
            bytes.extend_from_slice(part);
        }
        let crc = checksum::crc32(&bytes[h..]);
        bytes.extend_from_slice(&crc.to_be_bytes());
        Frame { buf: FrameBuf::new(bytes), tail: None, crc: 0, route_pos: 0 }
    }

    /// Assemble a *split* frame whose payload is a zero-copy view of
    /// `payload`: only the route + header head is allocated; the
    /// payload backing is shared (an `Rc` bump). The CRC is streamed
    /// over header + payload exactly as [`Frame::build_parts`] computes
    /// it, so the two shapes are wire-identical (see
    /// [`Frame::into_bytes`]). This is the multicast replication path:
    /// one payload allocation serves every branch of the fan-out tree.
    pub fn build_shared(route: &Route, header: DatalinkHeader, payload: &FrameBuf) -> Frame {
        let (head, h) = Frame::head(route, header, payload.len(), 0);
        let mut acc = checksum::Crc32Accum::new();
        acc.write(&head[h..]);
        acc.write(payload.as_slice());
        Frame {
            buf: FrameBuf::new(head),
            tail: Some(payload.clone()),
            crc: acc.finish(),
            route_pos: 0,
        }
    }

    /// Wrap raw received bytes without validation (validation happens in
    /// [`Frame::parse_header`] / [`Frame::check_crc`], mirroring the
    /// hardware which buffers first and flags CRC at end-of-packet).
    /// `route_pos` is lifted out of byte 1 into the overlay field.
    pub fn from_bytes(bytes: Vec<u8>) -> Frame {
        let route_pos = bytes.get(1).copied().unwrap_or(0);
        Frame { buf: FrameBuf::new(bytes), tail: None, crc: 0, route_pos }
    }

    /// Materialize the on-wire bytes, writing the overlay `route_pos`
    /// back into byte 1. A split frame serializes to the same byte
    /// sequence a contiguous build would have produced.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut bytes = match &self.tail {
            None => self.buf.to_vec(),
            Some(tail) => {
                let mut v = Vec::with_capacity(self.wire_len());
                v.extend_from_slice(self.buf.as_slice());
                v.extend_from_slice(tail.as_slice());
                v.extend_from_slice(&self.crc.to_be_bytes());
                v
            }
        };
        if bytes.len() > 1 {
            bytes[1] = self.route_pos;
        }
        bytes
    }

    /// Total length on the wire, in bytes (what serialization delay is
    /// charged on).
    pub fn wire_len(&self) -> usize {
        match &self.tail {
            None => self.buf.len(),
            Some(tail) => self.buf.len() + tail.len() + CRC_LEN,
        }
    }

    fn route_len(&self) -> usize {
        self.buf.first().copied().unwrap_or(0) as usize
    }

    fn header_at(&self) -> usize {
        ROUTE_FIXED_LEN + self.route_len()
    }

    /// The next hop's output port, if any hops remain. Returns an error
    /// on malformed prefixes.
    pub fn next_hop(&self) -> Result<Option<u8>, WireError> {
        let b = self.buf.as_slice();
        if b.len() < ROUTE_FIXED_LEN {
            return Err(WireError::Truncated);
        }
        let rlen = b[0] as usize;
        let rpos = self.route_pos as usize;
        if b.len() < ROUTE_FIXED_LEN + rlen {
            return Err(WireError::Truncated);
        }
        if rpos > rlen {
            return Err(WireError::BadField);
        }
        if rpos == rlen {
            Ok(None)
        } else {
            Ok(Some(b[ROUTE_FIXED_LEN + rpos]))
        }
    }

    /// Consume one route hop (performed by each HUB as it forwards).
    /// Returns the output port taken. Only the overlay field changes;
    /// the shared bytes are untouched.
    pub fn advance_hop(&mut self) -> Result<u8, WireError> {
        match self.next_hop()? {
            Some(port) => {
                self.route_pos += 1;
                Ok(port)
            }
            None => Err(WireError::BadField),
        }
    }

    /// Parse and validate the datalink header (length check included).
    pub fn parse_header(&self) -> Result<DatalinkHeader, WireError> {
        let h = self.header_at();
        let b = self.buf.as_slice();
        let payload_len = match &self.tail {
            None => {
                if b.len() < h + HEADER_LEN + CRC_LEN {
                    return Err(WireError::Truncated);
                }
                let payload_len = get_u16(b, h + 6);
                if b.len() != h + HEADER_LEN + payload_len as usize + CRC_LEN {
                    return Err(WireError::BadLength);
                }
                payload_len
            }
            Some(tail) => {
                if b.len() < h + HEADER_LEN {
                    return Err(WireError::Truncated);
                }
                let payload_len = get_u16(b, h + 6);
                if b.len() != h + HEADER_LEN || payload_len as usize != tail.len() {
                    return Err(WireError::BadLength);
                }
                payload_len
            }
        };
        Ok(DatalinkHeader {
            dst_cab: get_u16(b, h),
            src_cab: get_u16(b, h + 2),
            proto: DatalinkProto::from_u8(b[h + 4])?,
            flags: b[h + 5],
            payload_len,
            msg_id: get_u32(b, h + 8),
        })
    }

    /// The transport payload carried by this frame.
    pub fn payload(&self) -> Result<&[u8], WireError> {
        let h = self.header_at();
        let hdr = self.parse_header()?;
        match &self.tail {
            None => {
                Ok(&self.buf.as_slice()[h + HEADER_LEN..h + HEADER_LEN + hdr.payload_len as usize])
            }
            Some(tail) => Ok(tail.as_slice()),
        }
    }

    /// The transport payload as a zero-copy view sharing this frame's
    /// storage. The returned [`FrameBuf`] stays valid after the frame
    /// is dropped.
    pub fn payload_buf(&self) -> Result<FrameBuf, WireError> {
        let h = self.header_at();
        let hdr = self.parse_header()?;
        match &self.tail {
            None => Ok(self.buf.slice(h + HEADER_LEN..h + HEADER_LEN + hdr.payload_len as usize)),
            Some(tail) => Ok(tail.clone()),
        }
    }

    /// Verify the CRC-32 trailer over header + payload. Route bytes are
    /// excluded because `route_pos` mutates hop by hop.
    pub fn check_crc(&self) -> Result<(), WireError> {
        let h = self.header_at();
        let b = self.buf.as_slice();
        match &self.tail {
            None => {
                if b.len() < h + HEADER_LEN + CRC_LEN {
                    return Err(WireError::Truncated);
                }
                let body = &b[h..b.len() - CRC_LEN];
                let stored = get_u32(b, b.len() - CRC_LEN);
                if checksum::crc32(body) == stored {
                    Ok(())
                } else {
                    Err(WireError::BadChecksum)
                }
            }
            Some(tail) => {
                if b.len() < h + HEADER_LEN {
                    return Err(WireError::Truncated);
                }
                let mut acc = checksum::Crc32Accum::new();
                acc.write(&b[h..]);
                acc.write(tail.as_slice());
                if acc.finish() == self.crc {
                    Ok(())
                } else {
                    Err(WireError::BadChecksum)
                }
            }
        }
    }

    /// Flip a bit (fault-injection helper for tests and the lossy-link
    /// model). `bit` indexes into the whole frame. Corrupting the
    /// `route_pos` byte hits the overlay field; anything else copies the
    /// affected segment first, so clones of this frame — including
    /// multicast replicas sharing a split frame's payload backing — are
    /// unaffected.
    pub fn corrupt_bit(&mut self, bit: usize) {
        let byte = (bit / 8) % self.wire_len();
        let mask = 1u8 << (bit % 8);
        if byte == 1 {
            self.route_pos ^= mask;
            return;
        }
        match &self.tail {
            None => {
                let mut bytes = self.buf.to_vec();
                bytes[byte] ^= mask;
                self.buf = FrameBuf::new(bytes);
            }
            Some(tail) => {
                if byte < self.buf.len() {
                    let mut bytes = self.buf.to_vec();
                    bytes[byte] ^= mask;
                    self.buf = FrameBuf::new(bytes);
                } else if byte < self.buf.len() + tail.len() {
                    // copy-on-write: never write through the payload
                    // backing shared with sibling replicas
                    let mut bytes = tail.to_vec();
                    bytes[byte - self.buf.len()] ^= mask;
                    self.tail = Some(FrameBuf::new(bytes));
                } else {
                    // the CRC trailer of a split frame lives in the
                    // `crc` field; flip the matching big-endian bit
                    let crc_byte = byte - self.buf.len() - tail.len();
                    self.crc ^= u32::from(mask) << (8 * (3 - crc_byte));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> DatalinkHeader {
        DatalinkHeader {
            dst_cab: 7,
            src_cab: 3,
            proto: DatalinkProto::Datagram,
            flags: 0,
            payload_len: 0, // filled by build
            msg_id: 0xdead_beef,
        }
    }

    #[test]
    fn build_parse_roundtrip() {
        let route = Route::new(vec![2, 5]);
        let payload = b"hello nectar".to_vec();
        let f = Frame::build(&route, header(), &payload);
        let h = f.parse_header().unwrap();
        assert_eq!(h.dst_cab, 7);
        assert_eq!(h.src_cab, 3);
        assert_eq!(h.proto, DatalinkProto::Datagram);
        assert_eq!(h.payload_len as usize, payload.len());
        assert_eq!(h.msg_id, 0xdead_beef);
        assert_eq!(f.payload().unwrap(), &payload[..]);
        f.check_crc().unwrap();
        assert_eq!(f.wire_len(), 2 + 2 + 12 + payload.len() + 4);
    }

    #[test]
    fn hop_consumption() {
        let route = Route::new(vec![4, 9, 1]);
        let mut f = Frame::build(&route, header(), b"x");
        assert_eq!(f.next_hop().unwrap(), Some(4));
        assert_eq!(f.advance_hop().unwrap(), 4);
        assert_eq!(f.advance_hop().unwrap(), 9);
        assert_eq!(f.next_hop().unwrap(), Some(1));
        assert_eq!(f.advance_hop().unwrap(), 1);
        assert_eq!(f.next_hop().unwrap(), None);
        assert_eq!(f.advance_hop(), Err(WireError::BadField));
        // CRC still valid after hops consumed (route excluded from CRC)
        f.check_crc().unwrap();
    }

    #[test]
    fn empty_route_and_empty_payload() {
        let f = Frame::build(&Route::empty(), header(), &[]);
        assert_eq!(f.next_hop().unwrap(), None);
        assert_eq!(f.payload().unwrap(), &[] as &[u8]);
        f.check_crc().unwrap();
    }

    #[test]
    fn corruption_detected_by_crc() {
        let f0 = Frame::build(&Route::new(vec![1]), header(), b"payload bytes here");
        // flip every bit of the header+payload region in turn
        let start = (2 + 1) * 8;
        let end = (f0.wire_len() - 4) * 8;
        for bit in start..end {
            let mut f = f0.clone();
            f.corrupt_bit(bit);
            assert!(
                f.check_crc().is_err() || f.parse_header().is_err(),
                "undetected corruption at bit {bit}"
            );
        }
    }

    #[test]
    fn clones_unaffected_by_hops_and_corruption() {
        let mut f = Frame::build(&Route::new(vec![4, 9]), header(), b"shared payload");
        let snapshot = f.clone();
        f.advance_hop().unwrap();
        f.advance_hop().unwrap();
        f.corrupt_bit((f.wire_len() - 1) * 8);
        // the clone still sees the original route position and bytes
        assert_eq!(snapshot.next_hop().unwrap(), Some(4));
        snapshot.check_crc().unwrap();
        assert!(f.check_crc().is_err());
        // materialized bytes carry the overlay route_pos in byte 1
        let bytes = snapshot.clone().into_bytes();
        assert_eq!(bytes[1], 0);
        let mut advanced = snapshot.clone();
        advanced.advance_hop().unwrap();
        let bytes = advanced.into_bytes();
        assert_eq!(bytes[1], 1);
        // and round-trip back through from_bytes
        let back = Frame::from_bytes(bytes);
        assert_eq!(back.next_hop().unwrap(), Some(9));
    }

    #[test]
    fn corrupt_bit_copies_before_writing() {
        // The fault injector flips bits on frames whose storage is
        // shared with in-flight clones and zero-copy payload views;
        // corruption must copy first, never write through.
        let f0 = Frame::build(&Route::new(vec![2, 5]), header(), b"cow payload");
        let view = f0.payload_buf().unwrap();
        let sibling = f0.clone();

        // corrupt a payload bit on a clone that shares f0's allocation
        let mut corrupted = f0.clone();
        let payload_bit = (corrupted.wire_len() - CRC_LEN - 1) * 8;
        corrupted.corrupt_bit(payload_bit);
        assert!(corrupted.check_crc().is_err(), "flip must damage the corrupted frame");
        // … while every sibling still reads the original bytes
        sibling.check_crc().unwrap();
        f0.check_crc().unwrap();
        assert_eq!(view.as_slice(), b"cow payload");
        assert_eq!(sibling.payload().unwrap(), b"cow payload");

        // the route_pos byte is an overlay: corrupting it perturbs only
        // this frame's routing state, not the shared buffer
        let mut strayed = f0.clone();
        strayed.corrupt_bit(8); // byte 1, bit 0
        assert_ne!(strayed.next_hop(), sibling.next_hop());
        assert_eq!(sibling.next_hop().unwrap(), Some(2));
        strayed.check_crc().unwrap(); // route bytes are outside the CRC
    }

    #[test]
    fn payload_buf_outlives_frame() {
        let f = Frame::build(&Route::new(vec![1]), header(), b"zero copy view");
        let view = f.payload_buf().unwrap();
        drop(f);
        assert_eq!(view.as_slice(), b"zero copy view");
    }

    #[test]
    fn truncated_and_malformed() {
        let f = Frame::from_bytes(vec![]);
        assert_eq!(f.next_hop(), Err(WireError::Truncated));
        let f = Frame::from_bytes(vec![5, 0, 1]);
        assert_eq!(f.next_hop(), Err(WireError::Truncated));
        assert_eq!(f.parse_header(), Err(WireError::Truncated));
        // route_pos beyond route_len
        let f = Frame::from_bytes(vec![1, 2, 9]);
        assert_eq!(f.next_hop(), Err(WireError::BadField));
        // bad length field
        let good = Frame::build(&Route::empty(), header(), b"abc");
        let mut bytes = good.into_bytes();
        bytes.push(0);
        let f = Frame::from_bytes(bytes);
        assert_eq!(f.parse_header(), Err(WireError::BadLength));
    }

    #[test]
    fn unknown_proto_rejected() {
        let good = Frame::build(&Route::empty(), header(), b"abc");
        let mut bytes = good.into_bytes();
        bytes[2 + 4] = 99;
        let f = Frame::from_bytes(bytes);
        assert_eq!(f.parse_header(), Err(WireError::BadField));
    }

    #[test]
    fn all_protos_roundtrip() {
        for p in [
            DatalinkProto::Ip,
            DatalinkProto::Datagram,
            DatalinkProto::Rmp,
            DatalinkProto::ReqResp,
            DatalinkProto::Raw,
            DatalinkProto::Collective,
        ] {
            assert_eq!(DatalinkProto::from_u8(p as u8).unwrap(), p);
        }
        assert!(DatalinkProto::from_u8(0).is_err());
    }

    #[test]
    fn shared_build_matches_contiguous_wire_image() {
        let route = Route::new(vec![2, 5]);
        let payload = FrameBuf::new(b"multicast body".to_vec());
        let shared = Frame::build_shared(&route, header(), &payload);
        let contiguous = Frame::build(&route, header(), payload.as_slice());
        assert_eq!(shared.wire_len(), contiguous.wire_len());
        assert_eq!(shared.parse_header().unwrap(), contiguous.parse_header().unwrap());
        shared.check_crc().unwrap();
        assert_eq!(shared.payload().unwrap(), payload.as_slice());
        // serializes to the identical byte sequence, and the bytes
        // round-trip back through the contiguous receive path
        let bytes = shared.clone().into_bytes();
        assert_eq!(bytes, contiguous.into_bytes());
        let back = Frame::from_bytes(bytes);
        back.check_crc().unwrap();
        assert_eq!(back.payload().unwrap(), payload.as_slice());
    }

    #[test]
    fn multicast_replicas_share_payload_backing() {
        // Fan-out at an interior CAB: N replicas down N subtrees must
        // share ONE payload allocation — an Rc bump per branch, never a
        // deep copy.
        let payload = FrameBuf::new(vec![0xab; 512]);
        let replicas: Vec<Frame> = (0..4)
            .map(|i| Frame::build_shared(&Route::new(vec![i as u8]), header(), &payload))
            .collect();
        assert!(payload.backing_refcount() > 1, "replication must not deep-copy");
        for f in &replicas {
            let view = f.payload_buf().unwrap();
            assert!(view.shares_backing(&payload), "replica payload must share the source backing");
            f.check_crc().unwrap();
        }
        // 1 source + 4 replica tails + 4 payload_buf views dropped above
        assert_eq!(payload.backing_refcount(), 1 + replicas.len());
    }

    #[test]
    fn corrupt_replica_copy_on_writes_payload() {
        let payload = FrameBuf::new(b"shared across the tree".to_vec());
        let mut victim = Frame::build_shared(&Route::new(vec![1]), header(), &payload);
        let sibling = Frame::build_shared(&Route::new(vec![2]), header(), &payload);

        // flip a payload bit on one replica
        let payload_bit = (victim.wire_len() - CRC_LEN - 1) * 8;
        victim.corrupt_bit(payload_bit);
        assert!(victim.check_crc().is_err(), "flip must damage the corrupted replica");
        assert!(
            !victim.payload_buf().unwrap().shares_backing(&payload),
            "corruption must detach the victim from the shared backing"
        );
        // … without touching the sibling replica or the source buffer
        sibling.check_crc().unwrap();
        assert_eq!(sibling.payload().unwrap(), b"shared across the tree");
        assert_eq!(payload.as_slice(), b"shared across the tree");

        // flipping a CRC-trailer bit of a split frame is detected too
        let mut trailer = Frame::build_shared(&Route::new(vec![3]), header(), &payload);
        trailer.corrupt_bit((trailer.wire_len() - 1) * 8);
        assert!(trailer.check_crc().is_err());
        sibling.check_crc().unwrap();
    }

    #[test]
    fn shared_corruption_detected_by_crc() {
        let payload = FrameBuf::new(b"payload bytes here".to_vec());
        let f0 = Frame::build_shared(&Route::new(vec![1]), header(), &payload);
        let start = (2 + 1) * 8;
        let end = f0.wire_len() * 8;
        for bit in start..end {
            let mut f = f0.clone();
            f.corrupt_bit(bit);
            assert!(
                f.check_crc().is_err() || f.parse_header().is_err(),
                "undetected corruption at bit {bit}"
            );
        }
    }
}
