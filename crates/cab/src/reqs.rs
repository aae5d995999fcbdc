//! Request/notification message layouts used between host processes
//! (or CAB application threads) and the protocol server threads.
//!
//! These are the contents of the well-known service mailboxes: a host
//! process invokes a transport by writing one of these messages into
//! the protocol's send-request mailbox (§4.2: "A user wishing to send
//! data on an established TCP connection places a request in the TCP
//! send-request mailbox"). All fields big-endian.

use crate::shared::MboxId;

/// Well-known mailbox ids, created in this order at CAB start-up.
pub const MB_DG_SEND: MboxId = 0;
pub const MB_RMP_SEND: MboxId = 1;
pub const MB_RR_SEND: MboxId = 2;
pub const MB_RR_REPLY: MboxId = 3;
pub const MB_TCP_CTL: MboxId = 4;
pub const MB_TCP_SEND: MboxId = 5;
pub const MB_UDP_CTL: MboxId = 6;
pub const MB_UDP_SEND: MboxId = 7;
/// IP input mailbox (interrupt → IP thread in ablation A1 mode).
pub const MB_IP_IN: MboxId = 8;
pub const MB_TCP_IN: MboxId = 9;
pub const MB_UDP_IN: MboxId = 10;
pub const MB_ICMP_IN: MboxId = 11;
/// Raw datalink frames for the network-device mode (§5.1).
pub const MB_RAW_IN: MboxId = 12;
/// Raw transmit requests from the network-device driver (§5.1).
pub const MB_RAW_SEND: MboxId = 13;
/// First mailbox id available to applications/Nectarine.
pub const FIRST_USER_MBOX: MboxId = 14;

fn u16be(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn u32be(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Send-request header for datagram and RMP: destination CAB +
/// mailbox, and the reply-hint source mailbox. 8 bytes, then payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendReq {
    pub dst_cab: u16,
    pub dst_mbox: u16,
    pub src_mbox: u16,
}

impl SendReq {
    pub const LEN: usize = 8;

    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN + payload.len());
        v.extend_from_slice(&self.dst_cab.to_be_bytes());
        v.extend_from_slice(&self.dst_mbox.to_be_bytes());
        v.extend_from_slice(&self.src_mbox.to_be_bytes());
        v.extend_from_slice(&[0, 0]);
        v.extend_from_slice(payload);
        v
    }

    pub fn decode(b: &[u8]) -> Option<(SendReq, &[u8])> {
        if b.len() < Self::LEN {
            return None;
        }
        Some((
            SendReq { dst_cab: u16be(b, 0), dst_mbox: u16be(b, 2), src_mbox: u16be(b, 4) },
            &b[Self::LEN..],
        ))
    }
}

/// Request-response call request: server address, the client's reply
/// mailbox, and a sync to receive the request id (0 = failed).
pub type RrCallReq = SendReq; // same shape: dst_cab, dst_mbox(server), src_mbox(reply)

/// Server reply submission: which service mailbox is replying, the
/// correlation triple, then the reply payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RrReplyReq {
    pub service_mbox: u16,
    pub client_cab: u16,
    pub reply_mbox: u16,
    pub req_id: u32,
}

impl RrReplyReq {
    pub const LEN: usize = 12;

    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN + payload.len());
        v.extend_from_slice(&self.service_mbox.to_be_bytes());
        v.extend_from_slice(&self.client_cab.to_be_bytes());
        v.extend_from_slice(&self.reply_mbox.to_be_bytes());
        v.extend_from_slice(&self.req_id.to_be_bytes());
        v.extend_from_slice(&[0, 0]);
        v.extend_from_slice(payload);
        v
    }

    pub fn decode(b: &[u8]) -> Option<(RrReplyReq, &[u8])> {
        if b.len() < Self::LEN {
            return None;
        }
        Some((
            RrReplyReq {
                service_mbox: u16be(b, 0),
                client_cab: u16be(b, 2),
                reply_mbox: u16be(b, 4),
                req_id: u32be(b, 6),
            },
            &b[Self::LEN..],
        ))
    }
}

/// The prefix prepended to a request delivered into an RR service
/// mailbox (what the server application sees).
pub const RR_DELIVER_PREFIX: usize = 8;

pub fn rr_deliver_encode(client_cab: u16, reply_mbox: u16, req_id: u32, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(RR_DELIVER_PREFIX + payload.len());
    v.extend_from_slice(&client_cab.to_be_bytes());
    v.extend_from_slice(&reply_mbox.to_be_bytes());
    v.extend_from_slice(&req_id.to_be_bytes());
    v.extend_from_slice(payload);
    v
}

pub fn rr_deliver_decode(b: &[u8]) -> Option<(u16, u16, u32, &[u8])> {
    if b.len() < RR_DELIVER_PREFIX {
        return None;
    }
    Some((u16be(b, 0), u16be(b, 2), u32be(b, 4), &b[RR_DELIVER_PREFIX..]))
}

/// TCP control operations (MB_TCP_CTL messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpCtl {
    /// Active open to (cab, port); data arrives in `recv_mbox`; the
    /// connection id (+1) is written to `reply_sync` when established,
    /// 0 on failure.
    Open { dst_cab: u16, port: u16, recv_mbox: MboxId, reply_sync: u16 },
    /// Listen on `port`; accept notifications go to `accept_mbox`.
    Listen { port: u16, accept_mbox: MboxId },
    /// Attach a receive mailbox to an accepted connection.
    Attach { conn: u16, recv_mbox: MboxId },
    /// Close the send side of a connection.
    Close { conn: u16 },
    /// Abort a connection.
    Abort { conn: u16 },
}

impl TcpCtl {
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            TcpCtl::Open { dst_cab, port, recv_mbox, reply_sync } => {
                let mut v = vec![1u8, 0];
                v.extend_from_slice(&dst_cab.to_be_bytes());
                v.extend_from_slice(&port.to_be_bytes());
                v.extend_from_slice(&recv_mbox.to_be_bytes());
                v.extend_from_slice(&reply_sync.to_be_bytes());
                v
            }
            TcpCtl::Listen { port, accept_mbox } => {
                let mut v = vec![2u8, 0];
                v.extend_from_slice(&port.to_be_bytes());
                v.extend_from_slice(&accept_mbox.to_be_bytes());
                v
            }
            TcpCtl::Attach { conn, recv_mbox } => {
                let mut v = vec![3u8, 0];
                v.extend_from_slice(&conn.to_be_bytes());
                v.extend_from_slice(&recv_mbox.to_be_bytes());
                v
            }
            TcpCtl::Close { conn } => {
                let mut v = vec![4u8, 0];
                v.extend_from_slice(&conn.to_be_bytes());
                v
            }
            TcpCtl::Abort { conn } => {
                let mut v = vec![5u8, 0];
                v.extend_from_slice(&conn.to_be_bytes());
                v
            }
        }
    }

    pub fn decode(b: &[u8]) -> Option<TcpCtl> {
        match b.first()? {
            1 if b.len() >= 10 => Some(TcpCtl::Open {
                dst_cab: u16be(b, 2),
                port: u16be(b, 4),
                recv_mbox: u16be(b, 6),
                reply_sync: u16be(b, 8),
            }),
            2 if b.len() >= 6 => {
                Some(TcpCtl::Listen { port: u16be(b, 2), accept_mbox: u16be(b, 4) })
            }
            3 if b.len() >= 6 => Some(TcpCtl::Attach { conn: u16be(b, 2), recv_mbox: u16be(b, 4) }),
            4 if b.len() >= 4 => Some(TcpCtl::Close { conn: u16be(b, 2) }),
            5 if b.len() >= 4 => Some(TcpCtl::Abort { conn: u16be(b, 2) }),
            _ => None,
        }
    }
}

/// TCP send request: connection id then payload bytes.
pub fn tcp_send_encode(conn: u16, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + payload.len());
    v.extend_from_slice(&conn.to_be_bytes());
    v.extend_from_slice(&[0, 0]);
    v.extend_from_slice(payload);
    v
}

pub fn tcp_send_decode(b: &[u8]) -> Option<(u16, &[u8])> {
    if b.len() < 4 {
        return None;
    }
    Some((u16be(b, 0), &b[4..]))
}

/// TCP accept notification delivered to the accept mailbox.
pub fn tcp_accept_encode(port: u16, conn: u16) -> Vec<u8> {
    let mut v = Vec::with_capacity(4);
    v.extend_from_slice(&port.to_be_bytes());
    v.extend_from_slice(&conn.to_be_bytes());
    v
}

pub fn tcp_accept_decode(b: &[u8]) -> Option<(u16, u16)> {
    if b.len() < 4 {
        return None;
    }
    Some((u16be(b, 0), u16be(b, 2)))
}

/// UDP control: bind a port to a receive mailbox.
pub fn udp_bind_encode(port: u16, recv_mbox: MboxId) -> Vec<u8> {
    let mut v = vec![1u8, 0];
    v.extend_from_slice(&port.to_be_bytes());
    v.extend_from_slice(&recv_mbox.to_be_bytes());
    v
}

pub fn udp_bind_decode(b: &[u8]) -> Option<(u16, MboxId)> {
    if b.len() >= 6 && b[0] == 1 {
        Some((u16be(b, 2), u16be(b, 4)))
    } else {
        None
    }
}

/// UDP send request: destination CAB + ports, then payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpSendReq {
    pub dst_cab: u16,
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpSendReq {
    pub const LEN: usize = 8;

    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN + payload.len());
        v.extend_from_slice(&self.dst_cab.to_be_bytes());
        v.extend_from_slice(&self.src_port.to_be_bytes());
        v.extend_from_slice(&self.dst_port.to_be_bytes());
        v.extend_from_slice(&[0, 0]);
        v.extend_from_slice(payload);
        v
    }

    pub fn decode(b: &[u8]) -> Option<(UdpSendReq, &[u8])> {
        if b.len() < Self::LEN {
            return None;
        }
        Some((
            UdpSendReq { dst_cab: u16be(b, 0), src_port: u16be(b, 2), dst_port: u16be(b, 4) },
            &b[Self::LEN..],
        ))
    }
}

/// Collective notification delivered into the application's registered
/// collective mailbox ([`crate::proto::ProtoState::coll_mbox`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollNote {
    /// A multicast payload arrived for `group`.
    Deliver { group: u16, payload: Vec<u8> },
    /// Barrier/reduction `epoch` released with the combined `value`.
    Completed { group: u16, epoch: u32, value: u64 },
    /// The epoch's upstream report exhausted its retries.
    Failed { group: u16, epoch: u32 },
}

impl CollNote {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            CollNote::Deliver { group, payload } => {
                let mut v = vec![1u8, 0];
                v.extend_from_slice(&group.to_be_bytes());
                v.extend_from_slice(payload);
                v
            }
            CollNote::Completed { group, epoch, value } => {
                let mut v = vec![2u8, 0];
                v.extend_from_slice(&group.to_be_bytes());
                v.extend_from_slice(&epoch.to_be_bytes());
                v.extend_from_slice(&value.to_be_bytes());
                v
            }
            CollNote::Failed { group, epoch } => {
                let mut v = vec![3u8, 0];
                v.extend_from_slice(&group.to_be_bytes());
                v.extend_from_slice(&epoch.to_be_bytes());
                v
            }
        }
    }

    pub fn decode(b: &[u8]) -> Option<CollNote> {
        match b.first()? {
            1 if b.len() >= 4 => {
                Some(CollNote::Deliver { group: u16be(b, 2), payload: b[4..].to_vec() })
            }
            2 if b.len() >= 16 => Some(CollNote::Completed {
                group: u16be(b, 2),
                epoch: u32be(b, 4),
                value: u64::from_be_bytes(b[8..16].try_into().ok()?),
            }),
            3 if b.len() >= 8 => Some(CollNote::Failed { group: u16be(b, 2), epoch: u32be(b, 4) }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_note_roundtrip() {
        let notes = [
            CollNote::Deliver { group: 9, payload: b"phase".to_vec() },
            CollNote::Completed { group: 9, epoch: 3, value: u64::MAX - 1 },
            CollNote::Failed { group: 9, epoch: 7 },
        ];
        for n in notes {
            assert_eq!(CollNote::decode(&n.encode()), Some(n));
        }
        assert_eq!(CollNote::decode(&[]), None);
        assert_eq!(CollNote::decode(&[2, 0, 0, 9]), None); // truncated Completed
    }

    #[test]
    fn send_req_roundtrip() {
        let r = SendReq { dst_cab: 3, dst_mbox: 20, src_mbox: 21 };
        let bytes = r.encode(b"data");
        let (d, payload) = SendReq::decode(&bytes).unwrap();
        assert_eq!(d, r);
        assert_eq!(payload, b"data");
        assert!(SendReq::decode(&bytes[..4]).is_none());
    }

    #[test]
    fn rr_reply_roundtrip() {
        let r = RrReplyReq { service_mbox: 12, client_cab: 1, reply_mbox: 30, req_id: 99 };
        let bytes = r.encode(b"result");
        let (d, payload) = RrReplyReq::decode(&bytes).unwrap();
        assert_eq!(d, r);
        assert_eq!(payload, b"result");
    }

    #[test]
    fn rr_deliver_roundtrip() {
        let b = rr_deliver_encode(5, 31, 7, b"args");
        assert_eq!(rr_deliver_decode(&b), Some((5, 31, 7, &b"args"[..])));
        assert!(rr_deliver_decode(&[0; 4]).is_none());
    }

    #[test]
    fn tcp_ctl_roundtrip() {
        for op in [
            TcpCtl::Open { dst_cab: 2, port: 80, recv_mbox: 15, reply_sync: 3 },
            TcpCtl::Listen { port: 80, accept_mbox: 16 },
            TcpCtl::Attach { conn: 4, recv_mbox: 17 },
            TcpCtl::Close { conn: 4 },
            TcpCtl::Abort { conn: 9 },
        ] {
            assert_eq!(TcpCtl::decode(&op.encode()), Some(op));
        }
        assert_eq!(TcpCtl::decode(&[9, 0, 0, 0]), None);
        assert_eq!(TcpCtl::decode(&[]), None);
    }

    #[test]
    fn tcp_send_and_accept_roundtrip() {
        let b = tcp_send_encode(7, b"bytes");
        assert_eq!(tcp_send_decode(&b), Some((7, &b"bytes"[..])));
        let b = tcp_accept_encode(80, 3);
        assert_eq!(tcp_accept_decode(&b), Some((80, 3)));
    }

    #[test]
    fn udp_roundtrips() {
        let b = udp_bind_encode(9000, 18);
        assert_eq!(udp_bind_decode(&b), Some((9000, 18)));
        let r = UdpSendReq { dst_cab: 2, src_port: 1000, dst_port: 2000 };
        let b = r.encode(b"dgram");
        let (d, p) = UdpSendReq::decode(&b).unwrap();
        assert_eq!(d, r);
        assert_eq!(p, b"dgram");
    }
}
