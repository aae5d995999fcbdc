//! The UDP endpoint: port binding and demultiplexing.
//!
//! On the CAB, "UDP and TCP each have their own server threads" (§4.1);
//! the UDP server thread blocks on the UDP input mailbox, runs this
//! engine on each datagram, and enqueues the payload to the bound
//! application mailbox. Table 1's UDP row goes through this path.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use nectar_wire::ipv4::Ipv4Header;
use nectar_wire::udp::{UdpHeader, HEADER_LEN};
use nectar_wire::WireError;

/// Outcome of processing one UDP datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UdpInput {
    /// Deliver `payload` to the application bound to `dst_port`; the
    /// token is whatever the binder registered (a mailbox index on the
    /// CAB, a socket id on the host).
    Deliver { token: u32, src: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8> },
    /// No binding — the caller should send ICMP port unreachable.
    PortUnreachable { dst_port: u16 },
    /// Parse/checksum failure; dropped.
    Bad(WireError),
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpStats {
    pub delivered: u64,
    pub sent: u64,
    pub unreachable: u64,
    pub bad: u64,
}

/// The UDP endpoint: a port table plus build/parse plumbing.
#[derive(Debug, Default)]
pub struct UdpEndpoint {
    bindings: BTreeMap<u16, u32>,
    stats: UdpStats,
}

impl UdpEndpoint {
    pub fn new() -> Self {
        UdpEndpoint::default()
    }

    pub fn stats(&self) -> &UdpStats {
        &self.stats
    }

    /// Bind `port` to an application token. Returns false if taken.
    pub fn bind(&mut self, port: u16, token: u32) -> bool {
        if self.bindings.contains_key(&port) {
            return false;
        }
        self.bindings.insert(port, token);
        true
    }

    pub fn lookup(&self, port: u16) -> Option<u32> {
        self.bindings.get(&port).copied()
    }

    /// Build the UDP datagram for the IP output path.
    pub fn output(
        &mut self,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        self.stats.sent += 1;
        UdpHeader::build(src, src_port, dst, dst_port, payload)
    }

    /// Process a UDP datagram delivered by IP.
    pub fn input(&mut self, ip: &Ipv4Header, data: &[u8]) -> UdpInput {
        let header = match UdpHeader::parse(ip, data) {
            Ok(h) => h,
            Err(e) => {
                self.stats.bad += 1;
                return UdpInput::Bad(e);
            }
        };
        match self.lookup(header.dst_port) {
            Some(token) => {
                self.stats.delivered += 1;
                UdpInput::Deliver {
                    token,
                    src: ip.src,
                    src_port: header.src_port,
                    dst_port: header.dst_port,
                    payload: data[HEADER_LEN..header.length as usize].to_vec(),
                }
            }
            None => {
                self.stats.unreachable += 1;
                UdpInput::PortUnreachable { dst_port: header.dst_port }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_wire::ipv4::IpProtocol;

    fn a(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn deliver(rx: &mut UdpEndpoint, dgram: &[u8]) -> UdpInput {
        let ip = Ipv4Header::new(a(1), a(2), IpProtocol::UDP, dgram.len());
        rx.input(&ip, dgram)
    }

    #[test]
    fn bind_send_receive() {
        let mut tx = UdpEndpoint::new();
        let mut rx = UdpEndpoint::new();
        assert!(rx.bind(7000, 42));
        let dgram = tx.output(a(1), 5555, a(2), 7000, b"hello");
        match deliver(&mut rx, &dgram) {
            UdpInput::Deliver { token, src, src_port, dst_port, payload } => {
                assert_eq!(token, 42);
                assert_eq!(src, a(1));
                assert_eq!(src_port, 5555);
                assert_eq!(dst_port, 7000);
                assert_eq!(payload, b"hello");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.stats().delivered, 1);
        assert_eq!(tx.stats().sent, 1);
    }

    #[test]
    fn double_bind_refused() {
        let mut e = UdpEndpoint::new();
        assert!(e.bind(80, 1));
        assert!(!e.bind(80, 2));
        assert_eq!(e.lookup(80), Some(1));
    }

    #[test]
    fn unbound_port_unreachable() {
        let mut tx = UdpEndpoint::new();
        let mut rx = UdpEndpoint::new();
        let dgram = tx.output(a(1), 5555, a(2), 9999, b"nope");
        assert_eq!(deliver(&mut rx, &dgram), UdpInput::PortUnreachable { dst_port: 9999 });
        assert_eq!(rx.stats().unreachable, 1);
    }

    #[test]
    fn corrupt_datagram_dropped() {
        let mut tx = UdpEndpoint::new();
        let mut rx = UdpEndpoint::new();
        rx.bind(7000, 1);
        let mut dgram = tx.output(a(1), 5555, a(2), 7000, b"hello");
        dgram[10] ^= 1;
        assert!(matches!(deliver(&mut rx, &dgram), UdpInput::Bad(WireError::BadChecksum)));
        assert_eq!(rx.stats().bad, 1);
    }
}
