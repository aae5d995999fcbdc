//! Gather-built wire images are the concatenation-built ones.
//!
//! `Frame::build_parts` and `TcpHeader::build_parts` assemble from
//! several slices what `build` assembles from one; senders rely on the
//! two being byte-for-byte the same thing (a header built beside its
//! data must reach the fiber exactly as a pre-joined packet would).

use std::net::Ipv4Addr;

use nectar_sim::check;

use nectar_wire::checksum::crc32;
use nectar_wire::datalink::{DatalinkHeader, DatalinkProto, Frame};
use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
use nectar_wire::route::{Route, MAX_HOPS};
use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader};
use nectar_wire::FrameBuf;

const CASES: u64 = 128;

#[test]
fn frame_build_parts_is_build_of_the_concatenation() {
    check::cases(CASES, |g| {
        let route = Route::new(g.bytes(0, MAX_HOPS + 1));
        let header = DatalinkHeader {
            dst_cab: g.u64() as u16,
            src_cab: g.u64() as u16,
            proto: *g.pick(&[
                DatalinkProto::Ip,
                DatalinkProto::Datagram,
                DatalinkProto::Rmp,
                DatalinkProto::ReqResp,
                DatalinkProto::Raw,
                DatalinkProto::Collective,
            ]),
            flags: g.u64() as u8,
            payload_len: 0, // filled by the build
            msg_id: g.u64() as u32,
        };
        let parts: Vec<Vec<u8>> = (0..g.usize_in(0, 5)).map(|_| g.bytes(0, 9001)).collect();
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let joined = parts.concat();

        let gathered = Frame::build_parts(&route, header, &slices);
        let contiguous = Frame::build(&route, header, &joined);
        let shared = Frame::build_shared(&route, header, &FrameBuf::new(joined.clone()));

        // the wire image, written out independently of either builder
        let mut want = vec![route.len() as u8, 0];
        want.extend_from_slice(route.hops());
        let h = want.len();
        want.extend_from_slice(&header.dst_cab.to_be_bytes());
        want.extend_from_slice(&header.src_cab.to_be_bytes());
        want.extend_from_slice(&[header.proto as u8, header.flags]);
        want.extend_from_slice(&(joined.len() as u16).to_be_bytes());
        want.extend_from_slice(&header.msg_id.to_be_bytes());
        want.extend_from_slice(&joined);
        let crc = crc32(&want[h..]);
        want.extend_from_slice(&crc.to_be_bytes());

        assert_eq!(gathered.clone().into_bytes(), want);
        assert_eq!(contiguous.into_bytes(), want);
        assert_eq!(shared.clone().into_bytes(), want, "split and gathered frames share a CRC");
        assert_eq!(gathered.wire_len(), want.len());
        assert_eq!(shared.wire_len(), want.len());
        gathered.check_crc().expect("gathered frame's CRC");
        assert_eq!(gathered.payload().expect("payload"), &joined[..]);
        assert_eq!(gathered.parse_header().expect("header").payload_len as usize, joined.len());

        // every hop consumed, the frame still verifies and serializes
        // with only the route position changed
        let mut hopped = gathered;
        for &port in route.hops() {
            assert_eq!(hopped.advance_hop(), Ok(port));
        }
        assert_eq!(hopped.next_hop(), Ok(None));
        hopped.check_crc().expect("CRC excludes the route");
        want[1] = route.len() as u8;
        assert_eq!(hopped.into_bytes(), want);
    });
}

#[test]
fn tcp_build_parts_is_build_of_the_concatenation() {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    check::cases(CASES, |g| {
        let mut h = TcpHeader::new(g.u64() as u16, g.u64() as u16);
        h.seq = SeqNum(g.u64() as u32);
        h.ack = SeqNum(g.u64() as u32);
        h.flags = TcpFlags::ACK | TcpFlags::PSH;
        h.window = g.u64() as u16;
        for _ in 0..g.usize_in(0, 4) {
            h.sack.push(SeqNum(g.u64() as u32), SeqNum(g.u64() as u32));
        }
        // odd lengths and odd split points: the checksum's 16-bit words
        // straddle the part boundaries
        let parts: Vec<Vec<u8>> = (0..g.usize_in(0, 4)).map(|_| g.bytes(0, 3000)).collect();
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let joined = parts.concat();
        for checksum in [true, false] {
            let gathered = h.build_parts(src, dst, &slices, checksum);
            assert_eq!(gathered, h.build(src, dst, &joined, checksum));
            let ip = Ipv4Header::new(src, dst, IpProtocol::TCP, gathered.len());
            let parsed = TcpHeader::parse(&ip, &gathered, checksum).expect("segment parses");
            assert_eq!(&gathered[parsed.header_len..], &joined[..]);
        }
    });
}
