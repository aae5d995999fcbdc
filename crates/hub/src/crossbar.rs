//! The crossbar switch and its controller.

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::Frame;

use crate::PORTS;

/// Static configuration of one HUB.
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Connection setup + first-byte transfer latency (paper: 700 ns).
    pub setup_latency: SimDuration,
    /// First-byte latency through a pre-established circuit (no
    /// arbitration or setup; one crossbar transit).
    pub circuit_latency: SimDuration,
    /// How long an output port's backlog may grow before further frames
    /// are dropped. The real HUB exerted low-level flow control on the
    /// upstream CAB instead; the CAB model applies that backpressure at
    /// the source, so this cap only trips when a port is genuinely
    /// oversubscribed from multiple sources.
    pub max_backlog: SimDuration,
    /// Xon/xoff flow control on oversubscribed outputs (the real HUB's
    /// low-level backpressure, modeled per frame): a frame whose output
    /// backlog exceeds the xoff watermark is *held* on the upstream
    /// link instead of queued or dropped, and re-offered once the
    /// backlog would have drained to the xon watermark. `None` (the
    /// default, and what every pinned fixture runs) keeps the legacy
    /// drop-at-`max_backlog` behavior.
    pub backpressure: Option<Backpressure>,
}

/// Xon/xoff watermarks for [`HubConfig::backpressure`], both expressed
/// as output-port backlog in serialization time. Requires `xon ≤ xoff`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Backlog above which arriving frames are held upstream.
    pub xoff: SimDuration,
    /// Backlog at which held frames are re-offered.
    pub xon: SimDuration,
}

impl Default for Backpressure {
    fn default() -> Self {
        Backpressure { xoff: SimDuration::from_micros(200), xon: SimDuration::from_micros(50) }
    }
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            setup_latency: SimDuration::from_nanos(700),
            circuit_latency: SimDuration::from_nanos(100),
            max_backlog: SimDuration::from_millis(50),
            backpressure: None,
        }
    }
}

/// Why a frame was dropped by the HUB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The source route had no hop left or was malformed.
    BadRoute,
    /// The route byte named a port outside the crossbar.
    BadPort,
    /// The output port's backlog exceeded [`HubConfig::max_backlog`].
    Backlog,
}

/// The outcome of a frame arriving at an input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HubDecision {
    /// Forward out of `out_port`; the first byte exits at
    /// `first_byte_out` and the output port stays busy for the frame's
    /// serialization time after that.
    Forward { out_port: u8, first_byte_out: SimTime },
    /// Dropped; the frame never leaves the HUB.
    Drop(DropReason),
    /// Xon/xoff backpressure: the output is past its xoff watermark, so
    /// the frame stays on the upstream link (the route hop is *not*
    /// consumed and no rx/tx is counted) and must be re-offered at
    /// `resume_at`, when the backlog drains to the xon watermark.
    Hold { resume_at: SimTime },
}

/// Controller commands (§2.1: packet- and circuit-switching setup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HubCommand {
    /// Pin a crossbar connection from `in_port` to `out_port`. Frames
    /// arriving on `in_port` then bypass route processing and setup
    /// latency until the circuit is closed.
    OpenCircuit { in_port: u8, out_port: u8 },
    /// Tear down the circuit originating at `in_port`.
    CloseCircuit { in_port: u8 },
    /// Query port/backlog status.
    Status,
}

/// Controller replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HubReply {
    Ok,
    /// The requested circuit conflicts with an existing one, or a port
    /// id is out of range.
    Refused,
    /// Status snapshot: for each output port, when it frees up.
    Status {
        busy_until: Vec<SimTime>,
    },
}

/// Per-HUB counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HubStats {
    pub forwarded: u64,
    pub forwarded_circuit: u64,
    pub dropped_bad_route: u64,
    pub dropped_bad_port: u64,
    pub dropped_backlog: u64,
    /// Every frame whose first byte reached an input port.
    pub rx_frames: u64,
    pub rx_bytes: u64,
    /// Wire bytes of forwarded frames (measured at arrival, before the
    /// route hop byte is consumed).
    pub forwarded_bytes: u64,
    /// Wire bytes of dropped frames.
    pub dropped_bytes: u64,
    /// Frames held upstream by xon/xoff backpressure (each re-offer
    /// that trips the xoff watermark counts once).
    pub held_frames: u64,
}

/// Per-output-port counters and the backlog high-watermark gauge: how
/// deep the port's time-backlog (its FIFO expressed in serialization
/// time) ever got.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortStats {
    pub tx_frames: u64,
    pub tx_bytes: u64,
    /// Highest observed backlog on this output, in nanoseconds,
    /// sampled after each frame is queued.
    pub backlog_high: SimDuration,
    /// Frames held upstream because this output was past xoff.
    pub held_frames: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct OutPort {
    busy_until: SimTime,
    /// Some(in_port) when this output is reserved by a circuit.
    circuit_from: Option<u8>,
    stats: PortStats,
}

/// One 16×16 crossbar HUB.
#[derive(Debug)]
pub struct Hub {
    pub id: u16,
    config: HubConfig,
    out_ports: [OutPort; PORTS],
    /// circuit\[in_port\] = pinned output port.
    circuits: [Option<u8>; PORTS],
    stats: HubStats,
}

impl Hub {
    pub fn new(id: u16, config: HubConfig) -> Self {
        Hub {
            id,
            config,
            out_ports: [OutPort::default(); PORTS],
            circuits: [None; PORTS],
            stats: HubStats::default(),
        }
    }

    pub fn stats(&self) -> &HubStats {
        &self.stats
    }

    pub fn config(&self) -> &HubConfig {
        &self.config
    }

    /// Handle a frame whose first byte reaches `in_port` at `now`.
    /// `ser` is the frame's serialization time at line rate (the output
    /// port is occupied for that long after the first byte exits).
    ///
    /// Packet switching consumes one source-route hop byte from the
    /// frame; a circuit pinned on `in_port` forwards without touching
    /// the route.
    pub fn frame_arrival(
        &mut self,
        now: SimTime,
        in_port: u8,
        frame: &mut Frame,
        ser: SimDuration,
    ) -> HubDecision {
        let wire_len = frame.wire_len() as u64;
        // Xon/xoff backpressure peeks the output *before* the frame is
        // considered received: a held frame never entered the crossbar,
        // so the route hop is untouched and nothing is counted except
        // the hold itself. Everything below this block is the legacy
        // path, bit-identical when backpressure is off.
        if let Some(bp) = self.config.backpressure {
            if (in_port as usize) < PORTS {
                let out = match self.circuits[in_port as usize] {
                    Some(out) => Some(out),
                    None => frame.next_hop().ok().flatten(),
                };
                if let Some(out) = out {
                    if (out as usize) < PORTS {
                        let port = &mut self.out_ports[out as usize];
                        let reserved = port.circuit_from.is_some_and(|owner| owner != in_port);
                        let backlog = port.busy_until.saturating_since(now);
                        if !reserved && backlog > bp.xoff {
                            self.stats.held_frames += 1;
                            port.stats.held_frames += 1;
                            // backlog(t) = busy_until − t, so it drains
                            // to xon at busy_until − xon
                            let resume_at = SimTime::from_nanos(
                                port.busy_until.as_nanos().saturating_sub(bp.xon.as_nanos()),
                            );
                            return HubDecision::Hold { resume_at };
                        }
                    }
                }
            }
        }
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += wire_len;
        if in_port as usize >= PORTS {
            self.stats.dropped_bad_port += 1;
            self.stats.dropped_bytes += wire_len;
            return HubDecision::Drop(DropReason::BadPort);
        }
        let (out_port, latency, via_circuit) = match self.circuits[in_port as usize] {
            Some(out) => (out, self.config.circuit_latency, true),
            None => match frame.advance_hop() {
                Ok(port) => (port, self.config.setup_latency, false),
                Err(_) => {
                    self.stats.dropped_bad_route += 1;
                    self.stats.dropped_bytes += wire_len;
                    return HubDecision::Drop(DropReason::BadRoute);
                }
            },
        };
        if out_port as usize >= PORTS {
            self.stats.dropped_bad_port += 1;
            self.stats.dropped_bytes += wire_len;
            return HubDecision::Drop(DropReason::BadPort);
        }
        let port = &mut self.out_ports[out_port as usize];
        // If the output is reserved by a circuit from a different input,
        // packet traffic must not cut through it.
        if let Some(owner) = port.circuit_from {
            if owner != in_port {
                self.stats.dropped_backlog += 1;
                self.stats.dropped_bytes += wire_len;
                return HubDecision::Drop(DropReason::Backlog);
            }
        }
        if port.busy_until.saturating_since(now) > self.config.max_backlog {
            self.stats.dropped_backlog += 1;
            self.stats.dropped_bytes += wire_len;
            return HubDecision::Drop(DropReason::Backlog);
        }
        // Cut-through: setup can overlap the wait for the port to free.
        let first_byte_out = (now + latency).max(port.busy_until);
        port.busy_until = first_byte_out + ser;
        if via_circuit {
            self.stats.forwarded_circuit += 1;
        } else {
            self.stats.forwarded += 1;
        }
        self.stats.forwarded_bytes += wire_len;
        port.stats.tx_frames += 1;
        port.stats.tx_bytes += wire_len;
        // FIFO depth in time units, sampled with this frame included
        let backlog = port.busy_until.saturating_since(now);
        if backlog > port.stats.backlog_high {
            port.stats.backlog_high = backlog;
        }
        HubDecision::Forward { out_port, first_byte_out }
    }

    /// Per-output-port counters and backlog high-watermarks.
    pub fn port_stats(&self, out_port: usize) -> &PortStats {
        &self.out_ports[out_port].stats
    }

    /// Execute a controller command.
    pub fn execute(&mut self, cmd: HubCommand) -> HubReply {
        match cmd {
            HubCommand::OpenCircuit { in_port, out_port } => {
                if in_port as usize >= PORTS || out_port as usize >= PORTS {
                    return HubReply::Refused;
                }
                if self.circuits[in_port as usize].is_some() {
                    return HubReply::Refused;
                }
                if self.out_ports[out_port as usize].circuit_from.is_some() {
                    return HubReply::Refused;
                }
                self.circuits[in_port as usize] = Some(out_port);
                self.out_ports[out_port as usize].circuit_from = Some(in_port);
                HubReply::Ok
            }
            HubCommand::CloseCircuit { in_port } => {
                if in_port as usize >= PORTS {
                    return HubReply::Refused;
                }
                match self.circuits[in_port as usize].take() {
                    Some(out) => {
                        self.out_ports[out as usize].circuit_from = None;
                        HubReply::Ok
                    }
                    None => HubReply::Refused,
                }
            }
            HubCommand::Status => HubReply::Status {
                busy_until: self.out_ports.iter().map(|p| p.busy_until).collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_wire::datalink::{DatalinkHeader, DatalinkProto};
    use nectar_wire::route::Route;

    fn frame(route: &[u8], payload_len: usize) -> Frame {
        Frame::build(
            &Route::new(route.to_vec()),
            DatalinkHeader {
                dst_cab: 1,
                src_cab: 0,
                proto: DatalinkProto::Raw,
                flags: 0,
                payload_len: 0,
                msg_id: 0,
            },
            &vec![0u8; payload_len],
        )
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn forwards_with_setup_latency() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f = frame(&[5], 100);
        match hub.frame_arrival(t(1000), 0, &mut f, d(8000)) {
            HubDecision::Forward { out_port, first_byte_out } => {
                assert_eq!(out_port, 5);
                assert_eq!(first_byte_out, t(1700)); // 700 ns setup
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(hub.stats().forwarded, 1);
        // route byte was consumed
        assert_eq!(f.next_hop().unwrap(), None);
    }

    #[test]
    fn output_contention_serializes() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f1 = frame(&[3], 100);
        let mut f2 = frame(&[3], 100);
        let ser = d(10_000);
        let HubDecision::Forward { first_byte_out: out1, .. } =
            hub.frame_arrival(t(0), 0, &mut f1, ser)
        else {
            panic!()
        };
        // second frame from a different input, same output port, while busy
        let HubDecision::Forward { first_byte_out: out2, .. } =
            hub.frame_arrival(t(100), 1, &mut f2, ser)
        else {
            panic!()
        };
        assert_eq!(out1, t(700));
        // must wait for f1's tail (700 + 10_000)
        assert_eq!(out2, t(10_700));
    }

    #[test]
    fn distinct_outputs_do_not_contend() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f1 = frame(&[3], 100);
        let mut f2 = frame(&[4], 100);
        let ser = d(10_000);
        let HubDecision::Forward { first_byte_out: o1, .. } =
            hub.frame_arrival(t(0), 0, &mut f1, ser)
        else {
            panic!()
        };
        let HubDecision::Forward { first_byte_out: o2, .. } =
            hub.frame_arrival(t(0), 1, &mut f2, ser)
        else {
            panic!()
        };
        assert_eq!(o1, t(700));
        assert_eq!(o2, t(700));
    }

    #[test]
    fn multi_hop_consumes_one_byte_per_hub() {
        let mut hub_a = Hub::new(0, HubConfig::default());
        let mut hub_b = Hub::new(1, HubConfig::default());
        let mut f = frame(&[7, 2], 64);
        let HubDecision::Forward { out_port, .. } = hub_a.frame_arrival(t(0), 0, &mut f, d(1000))
        else {
            panic!()
        };
        assert_eq!(out_port, 7);
        let HubDecision::Forward { out_port, .. } =
            hub_b.frame_arrival(t(2000), 7, &mut f, d(1000))
        else {
            panic!()
        };
        assert_eq!(out_port, 2);
        assert_eq!(f.next_hop().unwrap(), None);
        // CRC survives hop consumption
        f.check_crc().unwrap();
    }

    #[test]
    fn exhausted_route_dropped() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f = frame(&[], 10);
        assert_eq!(
            hub.frame_arrival(t(0), 0, &mut f, d(100)),
            HubDecision::Drop(DropReason::BadRoute)
        );
        assert_eq!(hub.stats().dropped_bad_route, 1);
    }

    #[test]
    fn bad_ports_dropped() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f = frame(&[16], 10); // port 16 out of range
        assert_eq!(
            hub.frame_arrival(t(0), 0, &mut f, d(100)),
            HubDecision::Drop(DropReason::BadPort)
        );
        let mut f2 = frame(&[1], 10);
        assert_eq!(
            hub.frame_arrival(t(0), 99, &mut f2, d(100)),
            HubDecision::Drop(DropReason::BadPort)
        );
        assert_eq!(hub.stats().dropped_bad_port, 2);
    }

    #[test]
    fn backlog_cap_drops() {
        let config = HubConfig { max_backlog: SimDuration::from_micros(10), ..Default::default() };
        let mut hub = Hub::new(0, config);
        let ser = d(9_000);
        for i in 0..2 {
            let mut f = frame(&[0], 100);
            assert!(matches!(hub.frame_arrival(t(i), 1, &mut f, ser), HubDecision::Forward { .. }));
        }
        // two frames ≈18 us of backlog > 10 us cap
        let mut f = frame(&[0], 100);
        assert_eq!(hub.frame_arrival(t(2), 1, &mut f, ser), HubDecision::Drop(DropReason::Backlog));
        assert_eq!(hub.stats().dropped_backlog, 1);
    }

    #[test]
    fn xoff_holds_instead_of_dropping() {
        let config = HubConfig {
            backpressure: Some(Backpressure { xoff: d(15_000), xon: d(5_000) }),
            ..Default::default()
        };
        let mut hub = Hub::new(0, config);
        let ser = d(9_000);
        for i in 0..2 {
            let mut f = frame(&[0], 100);
            assert!(matches!(hub.frame_arrival(t(i), 1, &mut f, ser), HubDecision::Forward { .. }));
        }
        // backlog ≈ 18 µs > xoff: held, not dropped; the route hop must
        // survive untouched and nothing is counted as received
        let rx_before = hub.stats().rx_frames;
        let mut f = frame(&[0], 100);
        let busy = hub.out_ports[0].busy_until;
        match hub.frame_arrival(t(2), 1, &mut f, ser) {
            HubDecision::Hold { resume_at } => {
                // re-offer when the backlog would have drained to xon
                assert_eq!(resume_at, t(busy.as_nanos() - 5_000));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(f.next_hop().unwrap(), Some(0), "hold must not consume the hop");
        assert_eq!(hub.stats().rx_frames, rx_before, "hold must not count rx");
        assert_eq!(hub.stats().held_frames, 1);
        assert_eq!(hub.port_stats(0).held_frames, 1);
        assert_eq!(hub.stats().dropped_backlog, 0);
        // once the backlog drains past xon the same frame forwards
        let resume = t(busy.as_nanos() - 5_000);
        assert!(matches!(hub.frame_arrival(resume, 1, &mut f, ser), HubDecision::Forward { .. }));
    }

    #[test]
    fn backpressure_off_is_bit_identical_to_legacy() {
        // same oversubscription as backlog_cap_drops: with no
        // backpressure configured the drop path and counters are
        // untouched by the feature
        let config = HubConfig { max_backlog: SimDuration::from_micros(10), ..Default::default() };
        let mut hub = Hub::new(0, config);
        let ser = d(9_000);
        for i in 0..2 {
            let mut f = frame(&[0], 100);
            assert!(matches!(hub.frame_arrival(t(i), 1, &mut f, ser), HubDecision::Forward { .. }));
        }
        let mut f = frame(&[0], 100);
        assert_eq!(hub.frame_arrival(t(2), 1, &mut f, ser), HubDecision::Drop(DropReason::Backlog));
        assert_eq!(hub.stats().held_frames, 0);
    }

    #[test]
    fn circuit_bypasses_setup_and_route() {
        let mut hub = Hub::new(0, HubConfig::default());
        assert_eq!(hub.execute(HubCommand::OpenCircuit { in_port: 2, out_port: 9 }), HubReply::Ok);
        // route says port 5, but the circuit wins and the route byte is
        // not consumed
        let mut f = frame(&[5], 100);
        match hub.frame_arrival(t(1000), 2, &mut f, d(1000)) {
            HubDecision::Forward { out_port, first_byte_out } => {
                assert_eq!(out_port, 9);
                assert_eq!(first_byte_out, t(1100)); // circuit latency 100 ns
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(f.next_hop().unwrap(), Some(5));
        assert_eq!(hub.stats().forwarded_circuit, 1);

        // packet traffic from another input may not use the reserved output
        let mut f2 = frame(&[9], 100);
        assert_eq!(
            hub.frame_arrival(t(1000), 3, &mut f2, d(1000)),
            HubDecision::Drop(DropReason::Backlog)
        );

        // close and the port is packet-switchable again
        assert_eq!(hub.execute(HubCommand::CloseCircuit { in_port: 2 }), HubReply::Ok);
        let mut f3 = frame(&[9], 100);
        assert!(matches!(
            hub.frame_arrival(t(20_000), 3, &mut f3, d(1000)),
            HubDecision::Forward { .. }
        ));
    }

    #[test]
    fn circuit_conflicts_refused() {
        let mut hub = Hub::new(0, HubConfig::default());
        assert_eq!(hub.execute(HubCommand::OpenCircuit { in_port: 1, out_port: 2 }), HubReply::Ok);
        // same input again
        assert_eq!(
            hub.execute(HubCommand::OpenCircuit { in_port: 1, out_port: 3 }),
            HubReply::Refused
        );
        // same output from another input
        assert_eq!(
            hub.execute(HubCommand::OpenCircuit { in_port: 4, out_port: 2 }),
            HubReply::Refused
        );
        // out-of-range
        assert_eq!(
            hub.execute(HubCommand::OpenCircuit { in_port: 16, out_port: 0 }),
            HubReply::Refused
        );
        // closing a nonexistent circuit
        assert_eq!(hub.execute(HubCommand::CloseCircuit { in_port: 9 }), HubReply::Refused);
        assert_eq!(hub.execute(HubCommand::CloseCircuit { in_port: 16 }), HubReply::Refused);
    }

    #[test]
    fn status_reports_port_busy_times() {
        let mut hub = Hub::new(0, HubConfig::default());
        let mut f = frame(&[4], 100);
        hub.frame_arrival(t(0), 0, &mut f, d(5000));
        match hub.execute(HubCommand::Status) {
            HubReply::Status { busy_until } => {
                assert_eq!(busy_until.len(), PORTS);
                assert_eq!(busy_until[4], t(5700));
                assert_eq!(busy_until[0], SimTime::ZERO);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
