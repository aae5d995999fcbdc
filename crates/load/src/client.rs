//! The load client: a CAB-resident thread multiplexing many lightweight
//! endpoints over one mailbox, each endpoint issuing request-response
//! traffic with one outstanding request at a time.
//!
//! Endpoints are the unit of offered load; the client thread is the
//! unit of CAB scheduling. Packing tens of endpoints onto one thread is
//! what lets a fleet reach 10k+ endpoints without 10k CAB threads: the
//! per-wake context-switch and polling costs are paid once per thread,
//! not once per endpoint. Responses are demultiplexed by the sequence
//! number carried in every payload — sequence numbers are drawn from a
//! single client-wide counter, so at most one endpoint is ever waiting
//! on a given value.
//!
//! Request framing: every payload starts with the 4-byte reply address
//! (`nectar::scenario::encode_reply_addr`) followed by a 4-byte
//! big-endian sequence number. Echo services return the payload
//! verbatim; replies that arrive after their request timed out match no
//! waiting endpoint and are counted as stale rather than being mistaken
//! for a live response.
//!
//! Coordinated omission: each endpoint consumes intended start times
//! from its own arrival schedule. With one outstanding request per
//! endpoint, a slow system makes dispatches run *late*; latency is
//! still measured from the intended start, so server-side stalls
//! surface as tail latency instead of silently shrinking the sample
//! set.
//!
//! TCP is the exception to multiplexing: one endpoint per client, one
//! connection per endpoint. The echo stream has no message framing, so
//! response bytes can only be attributed to a single outstanding
//! request per connection.

use nectar::scenario::encode_reply_addr;
use nectar::world::SharedLoadLedger;
use nectar_cab::proto;
use nectar_cab::{CabThread, Cx, HostOpMode, MboxId, Step};
use nectar_sim::{Pcg32, SimDuration, SimTime};
use nectar_stack::tcp::SocketId;

use crate::recorder::SharedRecorder;
use crate::workload::{Arrival, SizeDist};
use crate::LoadTransport;

/// Everything that parameterizes one client thread.
#[derive(Clone, Debug)]
pub struct ClientSpec {
    pub transport: LoadTransport,
    /// `(cab, mailbox)` for the Nectar transports, `(cab, port)` for
    /// UDP and TCP.
    pub server: (u16, u16),
    pub arrival: Arrival,
    pub size: SizeDist,
    /// Client-side deadline per request; a request unanswered by then
    /// is abandoned and counted as a timeout.
    pub timeout: SimDuration,
    /// First intended start is drawn after this time.
    pub start: SimTime,
    /// No new requests are issued at or after this time.
    pub stop: SimTime,
    /// Local UDP port (UDP transport only); must be unique per client
    /// thread — endpoints share it and demultiplex by sequence number.
    pub udp_port: u16,
    /// One private RNG stream per endpoint; the vector length is the
    /// endpoint count. TCP clients must carry exactly one.
    pub rngs: Vec<Pcg32>,
}

#[derive(Clone, Copy)]
enum EpState {
    Idle,
    Waiting {
        intended: SimTime,
        seq: u32,
        deadline: SimTime,
        /// TCP: echoed bytes expected for this request.
        expect: usize,
        /// TCP: echoed bytes received so far.
        got: usize,
    },
    Finished,
}

/// One lightweight endpoint: its schedule, RNG stream, and at most one
/// outstanding request.
struct Endpoint {
    rng: Pcg32,
    next_intended: SimTime,
    state: EpState,
}

enum State {
    Init,
    /// TCP only: active open issued, waiting for establishment.
    Connecting,
    Running,
    Finished,
}

/// One simulated client thread, runnable as a CAB thread.
pub struct LoadClient {
    spec: ClientSpec,
    rec: SharedRecorder,
    ledger: SharedLoadLedger,
    state: State,
    eps: Vec<Endpoint>,
    my_mbox: MboxId,
    conn: Option<SocketId>,
    /// Client-wide sequence counter; endpoints share it so a response
    /// sequence identifies its endpoint uniquely.
    seq: u32,
    /// TCP: echoed bytes still owed from timed-out requests; absorbed
    /// before counting bytes toward the current request so stream
    /// positions stay aligned.
    tcp_deficit: usize,
    /// TCP: request bytes accepted only partially by the socket.
    tcp_unsent: Vec<u8>,
}

impl LoadClient {
    pub fn new(spec: ClientSpec, rec: SharedRecorder, ledger: SharedLoadLedger) -> LoadClient {
        assert!(!spec.rngs.is_empty(), "a load client needs at least one endpoint");
        assert!(
            spec.transport != LoadTransport::Tcp || spec.rngs.len() == 1,
            "TCP endpoints are whole connections; one per client thread"
        );
        let eps = spec
            .rngs
            .iter()
            .cloned()
            .map(|rng| Endpoint { rng, next_intended: SimTime::ZERO, state: EpState::Idle })
            .collect();
        LoadClient {
            spec,
            rec,
            ledger,
            state: State::Init,
            eps,
            my_mbox: 0,
            conn: None,
            seq: 0,
            tcp_deficit: 0,
            tcp_unsent: Vec::new(),
        }
    }

    /// What the echo service replies to: this client's UDP port, or its
    /// mailbox.
    fn reply_id(&self) -> u16 {
        if self.spec.transport == LoadTransport::Udp {
            self.spec.udp_port
        } else {
            self.my_mbox
        }
    }

    fn payload(&mut self, cab_id: u16, ep: usize, seq: u32) -> Vec<u8> {
        let size = self.spec.size.draw(&mut self.eps[ep].rng);
        let mut p = Vec::with_capacity(size);
        p.extend_from_slice(&encode_reply_addr(cab_id, self.reply_id()));
        p.extend_from_slice(&seq.to_be_bytes());
        while p.len() < size {
            p.push((p.len() * 13) as u8);
        }
        p
    }

    /// Sequence number carried by a response message, per transport
    /// framing (ReqResp responses are prefixed with the request id).
    fn response_seq(&self, bytes: &[u8]) -> Option<u32> {
        let off = if self.spec.transport == LoadTransport::ReqResp { 8 } else { 4 };
        let s = bytes.get(off..off + 4)?;
        Some(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Dispatch endpoint `ep`'s request for the current intended slot.
    /// Returns the payload length, or `None` if the transport refused
    /// it (counted as a failure).
    fn dispatch(&mut self, cx: &mut Cx<'_>, ep: usize, seq: u32) -> Option<usize> {
        let payload = self.payload(cx.cab_id, ep, seq);
        let t = self.spec.transport;
        let ok = match t.message() {
            Some(m) => proto::send(cx, m, self.spec.server, self.reply_id(), &payload),
            None if self.conn.is_some() => {
                self.tcp_unsent.extend_from_slice(&payload);
                self.tcp_pump(cx);
                true
            }
            None => false,
        };
        if !ok {
            self.ledger.borrow_mut().failures += 1;
            self.rec.borrow_mut().record_mut(t).failures += 1;
            return None;
        }
        let len = payload.len() as u64;
        let mut led = self.ledger.borrow_mut();
        led.requests_sent += 1;
        led.bytes_sent += len;
        let mut rec = self.rec.borrow_mut();
        let r = rec.record_mut(t);
        r.requests_sent += 1;
        r.bytes_sent += len;
        Some(payload.len())
    }

    /// Push any still-unsent TCP request bytes into the socket.
    fn tcp_pump(&mut self, cx: &mut Cx<'_>) {
        if let (Some(conn), false) = (self.conn, self.tcp_unsent.is_empty()) {
            let n = proto::tcp_send(cx, conn, &self.tcp_unsent);
            self.tcp_unsent.drain(..n);
        }
    }

    /// Complete endpoint `ep`'s request (response fully received).
    fn complete(&mut self, cx: &mut Cx<'_>, ep: usize, intended: SimTime, bytes: u64) {
        let now = cx.now();
        let latency = now.saturating_since(intended);
        self.ledger.borrow_mut().responses += 1;
        self.ledger.borrow_mut().bytes_received += bytes;
        self.rec.borrow_mut().response(self.spec.transport, latency, bytes);
        let e = &mut self.eps[ep];
        if !self.spec.arrival.is_open() {
            // closed loop: the schedule advances from completion;
            // open-loop endpoints already advanced at dispatch
            e.next_intended = self.spec.arrival.next_after(intended, now, &mut e.rng);
        }
        e.state = EpState::Idle;
    }

    fn timeout(
        &mut self,
        cx: &mut Cx<'_>,
        ep: usize,
        intended: SimTime,
        expect: usize,
        got: usize,
    ) {
        let now = cx.now();
        self.ledger.borrow_mut().timeouts += 1;
        self.rec.borrow_mut().record_mut(self.spec.transport).timeouts += 1;
        if self.spec.transport == LoadTransport::Tcp {
            // the echo stream still owes these bytes; absorb them
            // before counting toward the next request
            self.tcp_deficit += expect - got;
        }
        let e = &mut self.eps[ep];
        if !self.spec.arrival.is_open() {
            // a closed-loop endpoint thinks from the abandonment
            e.next_intended = self.spec.arrival.next_after(intended, now, &mut e.rng);
        }
        e.state = EpState::Idle;
    }

    /// The TCP stream failed (EOF from the echo service): resolve the
    /// whole client — TCP has exactly one endpoint.
    fn tcp_fail(&mut self) {
        self.ledger.borrow_mut().failures += 1;
        self.rec.borrow_mut().record_mut(self.spec.transport).failures += 1;
        self.eps[0].state = EpState::Finished;
        self.state = State::Finished;
    }

    /// Count echoed TCP bytes toward endpoint 0's outstanding request.
    fn tcp_bytes(&mut self, cx: &mut Cx<'_>, mut n: usize) {
        if self.tcp_deficit > 0 {
            let absorbed = self.tcp_deficit.min(n);
            self.tcp_deficit -= absorbed;
            n -= absorbed;
        }
        if let EpState::Waiting { intended, seq, deadline, expect, got } = self.eps[0].state {
            let got = got + n;
            if got >= expect {
                self.complete(cx, 0, intended, expect as u64);
            } else {
                self.eps[0].state = EpState::Waiting { intended, seq, deadline, expect, got };
            }
        }
    }

    /// Handle one response message from the shared mailbox.
    fn handle_response(&mut self, cx: &mut Cx<'_>, bytes: Vec<u8>) {
        if self.spec.transport == LoadTransport::Tcp {
            if bytes.is_empty() {
                // EOF: the echo connection died
                self.tcp_fail();
            } else {
                self.tcp_bytes(cx, bytes.len());
            }
            return;
        }
        let seq = self.response_seq(&bytes);
        let waiter = self
            .eps
            .iter()
            .position(|e| matches!(e.state, EpState::Waiting { seq: s, .. } if Some(s) == seq));
        match waiter {
            Some(ep) => {
                let EpState::Waiting { intended, .. } = self.eps[ep].state else { unreachable!() };
                self.complete(cx, ep, intended, bytes.len() as u64);
            }
            None => {
                self.ledger.borrow_mut().stale_replies += 1;
                self.rec.borrow_mut().record_mut(self.spec.transport).stale_replies += 1;
            }
        }
    }

    /// Step endpoint `ep` through timeouts and due dispatches. Returns
    /// `true` if it dispatched a request.
    fn step_endpoint(&mut self, cx: &mut Cx<'_>, ep: usize) -> bool {
        let mut dispatched = false;
        loop {
            let now = cx.now();
            match self.eps[ep].state {
                EpState::Finished => return dispatched,
                EpState::Waiting { intended, deadline, expect, got, .. } => {
                    if now < deadline {
                        return dispatched;
                    }
                    self.timeout(cx, ep, intended, expect, got);
                }
                EpState::Idle => {
                    let intended = self.eps[ep].next_intended;
                    if intended >= self.spec.stop {
                        self.eps[ep].state = EpState::Finished;
                        continue;
                    }
                    if now < intended {
                        return dispatched;
                    }
                    {
                        let mut led = self.ledger.borrow_mut();
                        led.requests_intended += 1;
                        if now > intended {
                            led.late_dispatch += 1;
                        }
                    }
                    if now > intended {
                        self.rec.borrow_mut().record_mut(self.spec.transport).late_dispatch += 1;
                    }
                    let seq = self.seq;
                    self.seq = self.seq.wrapping_add(1);
                    let sent = self.dispatch(cx, ep, seq);
                    // open loop: the schedule advances from the
                    // intended start, regardless of outcome; a refused
                    // dispatch consumes its slot under either regime
                    if self.spec.arrival.is_open() || sent.is_none() {
                        let e = &mut self.eps[ep];
                        e.next_intended = self.spec.arrival.next_after(intended, now, &mut e.rng);
                    }
                    if let Some(expect) = sent {
                        self.eps[ep].state = EpState::Waiting {
                            intended,
                            seq,
                            deadline: now + self.spec.timeout,
                            expect,
                            got: 0,
                        };
                        dispatched = true;
                    }
                }
            }
        }
    }
}

impl CabThread for LoadClient {
    fn name(&self) -> &'static str {
        "load-client"
    }

    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        loop {
            match self.state {
                State::Init => {
                    self.my_mbox = cx.shared.create_mailbox(false, HostOpMode::SharedMemory);
                    for e in &mut self.eps {
                        e.next_intended = self.spec.start + self.spec.arrival.draw_gap(&mut e.rng);
                    }
                    match self.spec.transport {
                        LoadTransport::Udp => {
                            cx.proto.udp.bind(self.spec.udp_port, self.my_mbox as u32);
                            self.state = State::Running;
                        }
                        LoadTransport::Tcp => {
                            let now = cx.now();
                            let remote =
                                (proto::ip_for_cab(self.spec.server.0), self.spec.server.1);
                            let (id, events) = cx.proto.tcp.connect(now, remote, None);
                            cx.proto.tcp_conns.entry(id).or_default().recv_mbox =
                                Some(self.my_mbox);
                            self.conn = Some(id);
                            proto::tcp_events(cx, events);
                            self.state = State::Connecting;
                            return Step::Block(cx.proto.tcp_cond);
                        }
                        _ => self.state = State::Running,
                    }
                }
                State::Connecting => {
                    let established = self
                        .conn
                        .and_then(|c| cx.proto.tcp_conns.get(&c))
                        .map(|c| c.established)
                        .unwrap_or(false);
                    if !established {
                        return Step::Block(cx.proto.tcp_cond);
                    }
                    self.state = State::Running;
                }
                State::Running => {
                    self.tcp_pump(cx);
                    while let Some(bytes) = cx.get_message(self.my_mbox) {
                        self.handle_response(cx, bytes);
                        if matches!(self.state, State::Finished) {
                            break;
                        }
                    }
                    if matches!(self.state, State::Finished) {
                        continue;
                    }
                    let mut dispatched = false;
                    for ep in 0..self.eps.len() {
                        dispatched |= self.step_endpoint(cx, ep);
                    }
                    if self.eps.iter().all(|e| matches!(e.state, EpState::Finished)) {
                        self.state = State::Finished;
                        continue;
                    }
                    if dispatched {
                        // let the fabric move before re-polling
                        return Step::Yield;
                    }
                    // earliest future obligation across endpoints: a
                    // response deadline or an intended start
                    let mut wake = SimTime::MAX;
                    for e in &self.eps {
                        let t = match e.state {
                            EpState::Waiting { deadline, .. } => deadline,
                            EpState::Idle => e.next_intended,
                            EpState::Finished => continue,
                        };
                        wake = wake.min(t);
                    }
                    return Step::BlockTimeout(cx.mbox_cond(self.my_mbox), wake);
                }
                State::Finished => return Step::Done,
            }
        }
    }
}
