//! TCP (RFC 793, 4.3BSD-era) as a pure state machine.
//!
//! §4.2 of the paper: "The Nectar TCP implementation runs almost
//! entirely in system threads … All TCP input processing is performed
//! by the TCP input thread. … it examines the TCP header, checksums the
//! entire packet, and performs standard TCP input processing."
//!
//! This module implements that TCP: three-way handshake, sliding
//! window with receiver-side buffering and out-of-order reassembly,
//! Jacobson/Karels RTT estimation with Karn's rule, Tahoe congestion
//! control (slow start, congestion avoidance, fast retransmit, and a
//! collapse to one MSS on any loss — no fast recovery), delayed ACK,
//! sender/receiver silly-window avoidance, zero-window probing, RST
//! handling and the full close sequence including TIME-WAIT. A socket's
//! state is RFC 793's transmission control block: send and receive
//! sequence records, one RTT estimator and one set of timers.
//!
//! Figure 7's "TCP w/o checksum" series corresponds to
//! [`TcpConfig::compute_checksum`] = false: segments are emitted with a
//! zero checksum field and the receiver skips verification, relying on
//! the CAB's hardware CRC exactly as the paper's experimental variant
//! did.
//!
//! The state machine is pure: inputs are `(now, segment)` calls and
//! outputs are [`TcpEvent`]s. Time-driven behaviour (retransmission,
//! delayed ACK, TIME-WAIT, window probes) is exposed through
//! [`TcpSocket::poll`] / [`TcpSocket::next_wakeup`].

mod socket;
mod stack;

pub use socket::TcpSocket;
pub use stack::{SocketId, TcpStack, TcpStackEvent, TcpStackStats};

use std::net::Ipv4Addr;

use nectar_sim::SimDuration;

/// TCP connection states (RFC 793 §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    Closed,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

impl TcpState {
    /// States in which the connection is synchronized (RFC 793's term).
    pub fn synchronized(self) -> bool {
        !matches!(self, TcpState::Closed | TcpState::SynSent | TcpState::SynReceived)
    }
}

/// Why a connection died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// Peer sent RST.
    Reset,
    /// Active open refused (RST in SYN-SENT).
    Refused,
    /// Retransmission limit exceeded.
    TooManyRetries,
    /// Local abort() call.
    LocalAbort,
}

/// Outputs of the socket state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpEvent {
    /// Hand this complete TCP segment to IP for `dst`.
    Transmit { dst: Ipv4Addr, segment: Vec<u8> },
    /// The three-way handshake completed.
    Connected,
    /// In-order data is available to `recv`.
    DataAvailable,
    /// The peer closed its send side (FIN); reads will drain then EOF.
    PeerClosed,
    /// The connection reached CLOSED cleanly; the socket can be dropped.
    Closed,
    /// The connection died.
    Aborted(AbortReason),
}

/// Tunables. Defaults match a 4.3BSD-class TCP scaled to the simulated
/// LAN (see DESIGN.md §6 for calibration notes).
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Our advertised MSS. The Nectar datalink carries IP datagrams up
    /// to the configured network MTU; default leaves room for IP+TCP
    /// headers within a 4 KiB MTU.
    pub mss: u16,
    /// Receive buffer capacity; the advertised window comes from here.
    pub recv_buf: usize,
    /// Send buffer capacity.
    pub send_buf: usize,
    /// Compute/verify the software checksum (Figure 7's TCP vs "TCP w/o
    /// checksum").
    pub compute_checksum: bool,
    /// Nagle's algorithm (RFC 896).
    pub nagle: bool,
    /// Delayed ACK (BSD: up to 200 ms or every second segment).
    pub delayed_ack: bool,
    pub delack_timeout: SimDuration,
    /// Initial retransmission timeout before any RTT sample.
    pub rto_initial: SimDuration,
    /// RTO clamp. The BSD minimum was 500 ms; on a 100 µs-RTT LAN that
    /// would dominate every loss test, so the default here is 10 ms
    /// (recorded as a deviation in DESIGN.md).
    pub rto_min: SimDuration,
    pub rto_max: SimDuration,
    /// TIME-WAIT holds for 2×MSL.
    pub msl: SimDuration,
    /// Give up after this many consecutive retransmissions.
    pub max_retries: u32,
    /// Offer selective acknowledgements (RFC 2018). SACK is used on a
    /// connection only when *both* SYNs carried the permitted option;
    /// off by default so legacy segments stay byte-identical.
    pub sack: bool,
    /// Window-scale shift to offer in our SYN (RFC 7323), `None` to not
    /// negotiate. Scaling applies only when both sides offered it; the
    /// shift is clamped to 14 on the wire.
    pub wscale: Option<u8>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 4016, // 4 KiB MTU - 20 (IP) - 60 (max TCP header, conservative)
            recv_buf: 16 * 1024,
            send_buf: 16 * 1024,
            compute_checksum: true,
            nagle: true,
            delayed_ack: true,
            delack_timeout: SimDuration::from_millis(200),
            rto_initial: SimDuration::from_millis(100),
            rto_min: SimDuration::from_millis(10),
            rto_max: SimDuration::from_secs(60),
            msl: SimDuration::from_millis(500),
            max_retries: 12,
            sack: false,
            wscale: None,
        }
    }
}

/// Per-socket counters (used by EXPERIMENTS.md reporting and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpSocketStats {
    pub segs_out: u64,
    pub segs_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub dup_acks_in: u64,
    pub zero_window_probes: u64,
    /// Valid SACK blocks received and folded into the scoreboard.
    pub sack_blocks_in: u64,
    /// Retransmissions whose extent was shaped by the SACK scoreboard.
    pub sack_retransmits: u64,
}

impl TcpSocketStats {
    /// Fold another socket's counters into this one (lifetime
    /// aggregation across closed sockets).
    pub fn absorb(&mut self, o: &TcpSocketStats) {
        self.segs_out += o.segs_out;
        self.segs_in += o.segs_in;
        self.bytes_out += o.bytes_out;
        self.bytes_in += o.bytes_in;
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.timeouts += o.timeouts;
        self.dup_acks_in += o.dup_acks_in;
        self.zero_window_probes += o.zero_window_probes;
        self.sack_blocks_in += o.sack_blocks_in;
        self.sack_retransmits += o.sack_retransmits;
    }
}
