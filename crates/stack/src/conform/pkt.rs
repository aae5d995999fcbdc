//! packetdrill-style scripted packet tests.
//!
//! A `.pkt` script drives one stack endpoint from the wire side:
//! injected lines (`<`) are hand-crafted segments fed to the stack,
//! expectation lines (`>`) assert — strictly, in order, with timing —
//! every segment the stack emits. Socket-level commands (`connect`,
//! `send`, `recv`, `close`, `state`, …) assert the application-visible
//! behaviour between packets. The scripts live in
//! `crates/stack/tests/scripts/` and run from `tests/conformance.rs`;
//! DESIGN.md §11 documents the format and how to add a case.
//!
//! # TCP scripts
//!
//! ```text
//! # active open, one write, clean close
//! 0.000 connect
//! 0.000 > S   seq=0 mss=4016
//! 0.010 < S.  seq=0 ack=1 win=65535 mss=4016
//! 0.010 > .   seq=1 ack=1
//! ```
//!
//! Lines are `TIME DIR FLAGS [k=v …]` or `TIME COMMAND [args]`. `TIME`
//! is seconds (absolute, or `+delta` from the previous line). Flags use
//! packetdrill's alphabet: `S`yn, `F`in, `R`st, `P`sh and `.` for ACK.
//! Sequence numbers are *relative*: on injected segments `seq=` is
//! relative to the peer's ISS (a fixed 12345) and `ack=` to the local
//! ISS; on expected segments the roles swap. The local ISS is captured
//! from the first SYN the stack emits, so scripts never hard-code it.
//! Payload bytes are the deterministic pattern `(relative_seq − 1) mod
//! 251`, letting `recv N` verify content, not just length.
//!
//! Commands: `connect`, `listen`, `send N`, `recv N`, `close`, `abort`,
//! `state NAME`, `quiet` (assert nothing was emitted up to this time),
//! `checksum_drops N` (assert the stack's count of segments dropped
//! for a bad checksum), `tolerance SECS`, and `opt k=v …` (config
//! overrides; must precede the open — including `sack=1` and
//! `wscale=N`).
//!
//! Segment lines may also carry `wscale=N` and `sackok=1` (SYN
//! options) and `sack=L-R/L-R…` (SACK blocks, edges relative with the
//! same base as `ack=`): on `<` lines they are injected, on `>` lines
//! asserted. `csum=bad` on a `<` line corrupts the built segment's
//! checksum.
//!
//! # IP scripts
//!
//! A first line `mode ip` switches to the fragment-reassembly
//! interpreter: `frag IDENT OFF LEN more|last FILL -> held` injects one
//! fragment and asserts the outcome; `-> deliver TOTAL SPEC` asserts a
//! completed datagram whose payload matches `SPEC` (`aa*16,bb*8`
//! run-length hex). `caps N BYTES`, `timeout MS`, `time MS`,
//! `expire N` and `dropped N` exercise the eviction and expiry paths.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::ipv4::{IpProtocol, Ipv4Header};
use nectar_wire::tcp::{SeqNum, TcpFlags, TcpHeader};

use crate::ip::{IpEndpoint, IpInput};
use crate::tcp::{SocketId, TcpConfig, TcpStack, TcpStackEvent, TcpState};

/// The scripted endpoint's address.
const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The scripted peer (the script itself plays this host).
const REMOTE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// The peer's initial send sequence number: fixed so scripts can use
/// small relative numbers.
const REMOTE_ISS: SeqNum = SeqNum(12345);

/// Deterministic payload byte at 1-based relative sequence `r`.
fn pattern_byte(r: u32) -> u8 {
    (r.wrapping_sub(1) % 251) as u8
}

/// Run a `.pkt` script to completion, panicking (with the offending
/// line) on any conformance mismatch.
pub fn run(script: &str) {
    let lines: Vec<(usize, &str)> = script
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    if lines.first().is_some_and(|&(_, l)| l == "mode ip") {
        run_ip(&lines[1..]);
    } else {
        run_tcp(&lines);
    }
}

#[cold]
fn fail(line_no: usize, line: &str, msg: String) -> ! {
    panic!("pkt script line {line_no} `{line}`: {msg}");
}

// ----------------------------------------------------------------------
// TCP interpreter
// ----------------------------------------------------------------------

struct TcpRunner {
    cfg: TcpConfig,
    stack: Option<TcpStack>,
    id: Option<SocketId>,
    local_port: u16,
    remote_port: u16,
    now: SimTime,
    last_time: SimTime,
    tolerance: SimDuration,
    local_iss: Option<SeqNum>,
    /// Parsed emissions not yet matched by a `>` line.
    pending: VecDeque<(SimTime, TcpHeader, Vec<u8>)>,
    /// Application bytes written so far (continues the send pattern).
    sent: u32,
    /// Application bytes read so far (continues the recv pattern).
    rcvd: u32,
}

/// One parsed `k=v` list.
#[derive(Default)]
struct Fields {
    seq: Option<u32>,
    ack: Option<u32>,
    win: Option<u16>,
    mss: Option<u16>,
    len: usize,
    /// Window-scale option (`wscale=N`, SYN segments only).
    wscale: Option<u8>,
    /// SACK-permitted option (`sackok=1`, SYN segments only).
    sackok: bool,
    /// SACK blocks (`sack=l-r/l-r…`), edges relative like `ack=`.
    sack: Option<Vec<(u32, u32)>>,
    /// Corrupt the checksum of an injected segment (`csum=bad`).
    bad_csum: bool,
}

fn parse_fields(line_no: usize, line: &str, toks: &[&str]) -> Fields {
    let mut f = Fields::default();
    for t in toks {
        let Some((k, v)) = t.split_once('=') else {
            fail(line_no, line, format!("expected k=v, got `{t}`"));
        };
        if k == "sack" {
            let mut blocks = Vec::new();
            for part in v.split('/') {
                let Some((l, r)) = part.split_once('-') else {
                    fail(line_no, line, format!("sack block `{part}` is not L-R"));
                };
                let l: u32 = l
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, line, format!("bad number in `{t}`")));
                let r: u32 = r
                    .parse()
                    .unwrap_or_else(|_| fail(line_no, line, format!("bad number in `{t}`")));
                blocks.push((l, r));
            }
            f.sack = Some(blocks);
            continue;
        }
        if (k, v) == ("csum", "bad") {
            f.bad_csum = true;
            continue;
        }
        let n: u64 =
            v.parse().unwrap_or_else(|_| fail(line_no, line, format!("bad number in `{t}`")));
        match k {
            "seq" => f.seq = Some(n as u32),
            "ack" => f.ack = Some(n as u32),
            "win" => f.win = Some(n as u16),
            "mss" => f.mss = Some(n as u16),
            "len" => f.len = n as usize,
            "wscale" => f.wscale = Some(n as u8),
            "sackok" => f.sackok = n != 0,
            _ => fail(line_no, line, format!("unknown field `{k}`")),
        }
    }
    f
}

fn parse_flags(line_no: usize, line: &str, s: &str) -> TcpFlags {
    let mut flags = TcpFlags::EMPTY;
    for c in s.chars() {
        flags |= match c {
            'S' => TcpFlags::SYN,
            'F' => TcpFlags::FIN,
            'R' => TcpFlags::RST,
            'P' => TcpFlags::PSH,
            '.' => TcpFlags::ACK,
            _ => fail(line_no, line, format!("unknown flag `{c}`")),
        };
    }
    flags
}

/// The `N` of a `TIME VERB N` command.
fn count<T: std::str::FromStr>(line_no: usize, line: &str, toks: &[&str]) -> T {
    let n = toks.get(2).and_then(|s| s.parse().ok());
    n.unwrap_or_else(|| fail(line_no, line, format!("{} N", toks[1])))
}

fn parse_state(line_no: usize, line: &str, s: &str) -> TcpState {
    match s {
        "Closed" => TcpState::Closed,
        "SynSent" => TcpState::SynSent,
        "SynReceived" => TcpState::SynReceived,
        "Established" => TcpState::Established,
        "FinWait1" => TcpState::FinWait1,
        "FinWait2" => TcpState::FinWait2,
        "CloseWait" => TcpState::CloseWait,
        "Closing" => TcpState::Closing,
        "LastAck" => TcpState::LastAck,
        "TimeWait" => TcpState::TimeWait,
        _ => fail(line_no, line, format!("unknown state `{s}`")),
    }
}

impl TcpRunner {
    fn new() -> TcpRunner {
        TcpRunner {
            cfg: TcpConfig::default(),
            stack: None,
            id: None,
            local_port: 5000,
            remote_port: 4000,
            now: SimTime::ZERO,
            last_time: SimTime::ZERO,
            tolerance: SimDuration::from_millis(1),
            local_iss: None,
            pending: VecDeque::new(),
            sent: 0,
            rcvd: 0,
        }
    }

    fn parse_time(&mut self, line_no: usize, line: &str, tok: &str) -> SimTime {
        let (base, s) = match tok.strip_prefix('+') {
            Some(rest) => (self.last_time, rest),
            None => (SimTime::ZERO, tok),
        };
        let secs: f64 =
            s.parse().unwrap_or_else(|_| fail(line_no, line, format!("bad time `{tok}`")));
        let t = base + SimDuration::from_nanos((secs * 1e9).round() as u64);
        self.last_time = t;
        t
    }

    fn stack(&mut self) -> &mut TcpStack {
        if self.stack.is_none() {
            self.stack = Some(TcpStack::new(LOCAL, self.cfg, 0x5eed));
        }
        self.stack.as_mut().expect("just created")
    }

    /// Record every emission (capturing the local ISS from its SYN).
    fn absorb(&mut self, at: SimTime, events: Vec<TcpStackEvent>) {
        for e in events {
            match e {
                TcpStackEvent::Transmit { segment, .. } => {
                    let ip = Ipv4Header::new(LOCAL, REMOTE, IpProtocol::TCP, segment.len());
                    let hdr = TcpHeader::parse(&ip, &segment, false)
                        .expect("stack emitted an unparseable segment");
                    if hdr.flags.contains(TcpFlags::SYN) && self.local_iss.is_none() {
                        self.local_iss = Some(hdr.seq);
                    }
                    let payload = segment[hdr.header_len..].to_vec();
                    self.pending.push_back((at, hdr, payload));
                }
                TcpStackEvent::Incoming { id, .. } => self.id = Some(id),
                TcpStackEvent::Socket { .. } | TcpStackEvent::Dropped => {}
            }
        }
    }

    /// Advance the clock to `t`, firing every due stack timer on the
    /// way (emissions are stamped with their timer's deadline).
    fn advance_to(&mut self, t: SimTime) {
        if self.stack.is_some() {
            while let Some(w) = self.stack().next_wakeup() {
                if w > t {
                    break;
                }
                let at = w.max(self.now);
                self.now = at;
                let evs = self.stack().poll(at);
                self.absorb(at, evs);
            }
        }
        self.now = self.now.max(t);
    }

    fn id(&self, line_no: usize, line: &str) -> SocketId {
        self.id.unwrap_or_else(|| fail(line_no, line, "no socket open yet".into()))
    }

    fn inject(&mut self, line_no: usize, line: &str, t: SimTime, flags: TcpFlags, f: Fields) {
        self.advance_to(t);
        if let Some((at, hdr, _)) = self.pending.front() {
            fail(
                line_no,
                line,
                format!("unexpected segment pending at inject: {:?} emitted at {at:?}", hdr.flags),
            );
        }
        let mut h = TcpHeader::new(self.remote_port, self.local_port);
        h.seq = SeqNum(REMOTE_ISS.0.wrapping_add(f.seq.unwrap_or(0)));
        if flags.contains(TcpFlags::ACK) {
            let base = self.local_iss.unwrap_or(SeqNum(0));
            h.ack = SeqNum(base.0.wrapping_add(f.ack.unwrap_or(0)));
        }
        h.flags = flags;
        h.window = f.win.unwrap_or(u16::MAX);
        h.mss = f.mss;
        h.wscale = f.wscale;
        h.sack_permitted = f.sackok;
        if let Some(blocks) = &f.sack {
            // injected blocks describe data *we* sent: same base as ack=
            let base = self.local_iss.unwrap_or(SeqNum(0));
            for &(l, r) in blocks {
                h.sack.push(SeqNum(base.0.wrapping_add(l)), SeqNum(base.0.wrapping_add(r)));
            }
        }
        let rel = f.seq.unwrap_or(0);
        let payload: Vec<u8> = (0..f.len as u32).map(|j| pattern_byte(rel + j)).collect();
        let mut segment = h.build(REMOTE, LOCAL, &payload, true);
        if f.bad_csum {
            // x ^ 0xff00 is never x's ones'-complement twin, so it can not verify
            segment[16] ^= 0xff;
        }
        let ip = Ipv4Header::new(REMOTE, LOCAL, IpProtocol::TCP, segment.len());
        let evs = self.stack().on_packet(t, &ip, &segment);
        self.absorb(t, evs);
    }

    fn expect(&mut self, line_no: usize, line: &str, t: SimTime, flags: TcpFlags, f: Fields) {
        if f.bad_csum {
            fail(line_no, line, "csum=bad applies to injected segments only".into());
        }
        // run timers forward until something is emitted or the window
        // for this expectation has passed
        while self.pending.is_empty() {
            let Some(w) = self.stack().next_wakeup() else { break };
            if w > t + self.tolerance {
                break;
            }
            let at = w.max(self.now);
            self.now = at;
            let evs = self.stack().poll(at);
            self.absorb(at, evs);
        }
        let Some((at, hdr, payload)) = self.pending.pop_front() else {
            fail(line_no, line, format!("expected {flags:?}, but nothing was emitted"));
        };
        if at.saturating_since(t) > self.tolerance || t.saturating_since(at) > self.tolerance {
            fail(line_no, line, format!("segment emitted at {at:?}, expected near {t:?}"));
        }
        self.now = self.now.max(at);
        if hdr.flags != flags {
            fail(line_no, line, format!("flags {:?} ≠ expected {flags:?}", hdr.flags));
        }
        if payload.len() != f.len {
            fail(line_no, line, format!("len {} ≠ expected {}", payload.len(), f.len));
        }
        if let Some(rel) = f.seq {
            let base = self.local_iss.unwrap_or(SeqNum(0));
            let got = hdr.seq.0.wrapping_sub(base.0);
            if got != rel {
                fail(line_no, line, format!("seq {got} ≠ expected {rel}"));
            }
        }
        if let Some(rel) = f.ack {
            let got = hdr.ack.0.wrapping_sub(REMOTE_ISS.0);
            if got != rel {
                fail(line_no, line, format!("ack {got} ≠ expected {rel}"));
            }
        }
        if let Some(w) = f.win {
            if hdr.window != w {
                fail(line_no, line, format!("win {} ≠ expected {w}", hdr.window));
            }
        }
        if let Some(m) = f.mss {
            if hdr.mss != Some(m) {
                fail(line_no, line, format!("mss {:?} ≠ expected {m}", hdr.mss));
            }
        }
        if let Some(ws) = f.wscale {
            if hdr.wscale != Some(ws) {
                fail(line_no, line, format!("wscale {:?} ≠ expected {ws}", hdr.wscale));
            }
        }
        if f.sackok && !hdr.sack_permitted {
            fail(line_no, line, "sack-permitted option missing".into());
        }
        if let Some(blocks) = &f.sack {
            // emitted blocks describe data the *peer* sent: REMOTE_ISS base
            let got: Vec<(u32, u32)> = hdr
                .sack
                .iter()
                .map(|(l, r)| (l.0.wrapping_sub(REMOTE_ISS.0), r.0.wrapping_sub(REMOTE_ISS.0)))
                .collect();
            if got != *blocks {
                fail(line_no, line, format!("sack blocks {got:?} ≠ expected {blocks:?}"));
            }
        }
        // data segments carry the deterministic pattern
        if !payload.is_empty() && !hdr.flags.contains(TcpFlags::RST) {
            if let Some(rel) = f.seq {
                for (j, &b) in payload.iter().enumerate() {
                    let want = pattern_byte(rel + j as u32);
                    if b != want {
                        fail(
                            line_no,
                            line,
                            format!("payload byte {j} is {b:#04x}, expected {want:#04x}"),
                        );
                    }
                }
            }
        }
    }

    fn set_opt(&mut self, line_no: usize, line: &str, toks: &[&str]) {
        if self.stack.is_some() {
            fail(line_no, line, "opt must precede connect/listen".into());
        }
        for t in toks {
            let Some((k, v)) = t.split_once('=') else {
                fail(line_no, line, format!("expected k=v, got `{t}`"));
            };
            let n: u64 =
                v.parse().unwrap_or_else(|_| fail(line_no, line, format!("bad number in `{t}`")));
            match k {
                "nagle" => self.cfg.nagle = n != 0,
                "sack" => self.cfg.sack = n != 0,
                "wscale" => self.cfg.wscale = Some(n as u8),
                "delayed_ack" => self.cfg.delayed_ack = n != 0,
                "mss" => self.cfg.mss = n as u16,
                "recv_buf" => self.cfg.recv_buf = n as usize,
                "send_buf" => self.cfg.send_buf = n as usize,
                "rto_initial_ms" => self.cfg.rto_initial = SimDuration::from_millis(n),
                "rto_min_ms" => self.cfg.rto_min = SimDuration::from_millis(n),
                "msl_ms" => self.cfg.msl = SimDuration::from_millis(n),
                "max_retries" => self.cfg.max_retries = n as u32,
                _ => fail(line_no, line, format!("unknown option `{k}`")),
            }
        }
    }
}

fn run_tcp(lines: &[(usize, &str)]) {
    let mut r = TcpRunner::new();
    for &(line_no, line) in lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "tolerance" => {
                let secs: f64 = toks
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail(line_no, line, "tolerance SECS".into()));
                r.tolerance = SimDuration::from_nanos((secs * 1e9).round() as u64);
                continue;
            }
            "opt" => {
                r.set_opt(line_no, line, &toks[1..]);
                continue;
            }
            _ => {}
        }
        let t = r.parse_time(line_no, line, toks[0]);
        let verb =
            *toks.get(1).unwrap_or_else(|| fail(line_no, line, "missing verb after time".into()));
        match verb {
            "<" | ">" => {
                let flags = parse_flags(line_no, line, toks[2]);
                let f = parse_fields(line_no, line, &toks[3..]);
                if verb == "<" {
                    r.inject(line_no, line, t, flags, f);
                } else {
                    r.expect(line_no, line, t, flags, f);
                }
            }
            "connect" => {
                r.advance_to(t);
                r.local_port = 4000;
                r.remote_port = 5000;
                let (id, evs) = r.stack().connect(t, (REMOTE, 5000), Some(4000));
                r.id = Some(id);
                r.absorb(t, evs);
            }
            "listen" => {
                r.advance_to(t);
                r.local_port = 5000;
                r.remote_port = 4000;
                r.stack().listen(5000);
            }
            "send" => {
                r.advance_to(t);
                let n: u32 = count(line_no, line, &toks);
                let data: Vec<u8> = (0..n).map(|k| pattern_byte(r.sent + k + 1)).collect();
                let id = r.id(line_no, line);
                let (accepted, evs) = r.stack().send(t, id, &data);
                if accepted != n as usize {
                    fail(line_no, line, format!("send accepted {accepted} of {n} bytes"));
                }
                r.sent += n;
                r.absorb(t, evs);
            }
            "recv" => {
                r.advance_to(t);
                let n: usize = count(line_no, line, &toks);
                let id = r.id(line_no, line);
                let got = r.stack().recv(id, n);
                if got.len() != n {
                    fail(line_no, line, format!("recv returned {} of {n} bytes", got.len()));
                }
                for (k, &b) in got.iter().enumerate() {
                    let want = pattern_byte(r.rcvd + k as u32 + 1);
                    if b != want {
                        fail(
                            line_no,
                            line,
                            format!("recv byte {k} is {b:#04x}, expected {want:#04x}"),
                        );
                    }
                }
                r.rcvd += n as u32;
                // an application read is followed by a stack poll, so
                // receiver-side window updates go out promptly
                let evs = r.stack().poll(t);
                r.absorb(t, evs);
            }
            "close" => {
                r.advance_to(t);
                let id = r.id(line_no, line);
                let evs = r.stack().close(t, id);
                r.absorb(t, evs);
            }
            "abort" => {
                r.advance_to(t);
                let id = r.id(line_no, line);
                let evs = r.stack().abort(t, id);
                r.absorb(t, evs);
            }
            "state" => {
                r.advance_to(t);
                let want = parse_state(line_no, line, toks.get(2).copied().unwrap_or(""));
                let id = r.id(line_no, line);
                let got = r
                    .stack()
                    .socket(id)
                    .unwrap_or_else(|| fail(line_no, line, "socket removed".into()))
                    .state();
                if got != want {
                    fail(line_no, line, format!("state {got:?} ≠ expected {want:?}"));
                }
            }
            "checksum_drops" => {
                r.advance_to(t);
                let want: u64 = count(line_no, line, &toks);
                let got = r.stack().stats().checksum_drops;
                if got != want {
                    fail(line_no, line, format!("checksum drops {got} ≠ expected {want}"));
                }
            }
            "quiet" => {
                r.advance_to(t);
                if let Some((at, hdr, _)) = r.pending.front() {
                    fail(
                        line_no,
                        line,
                        format!("expected silence, but {:?} was emitted at {at:?}", hdr.flags),
                    );
                }
            }
            other => fail(line_no, line, format!("unknown verb `{other}`")),
        }
    }
    if let Some((at, hdr, _)) = r.pending.front() {
        panic!(
            "pkt script end: unmatched emitted segment {:?} at {at:?} ({} still pending)",
            hdr.flags,
            r.pending.len()
        );
    }
}

// ----------------------------------------------------------------------
// IP fragment interpreter
// ----------------------------------------------------------------------

fn parse_spec(line_no: usize, line: &str, spec: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (hex, count) = match part.split_once('*') {
            Some((h, c)) => (h, c.parse().unwrap_or(0)),
            None => (part, 1usize),
        };
        let b = u8::from_str_radix(hex, 16)
            .unwrap_or_else(|_| fail(line_no, line, format!("bad fill `{hex}`")));
        out.extend(std::iter::repeat_n(b, count));
    }
    out
}

fn run_ip(lines: &[(usize, &str)]) {
    let mut rx = IpEndpoint::new(LOCAL);
    let mut now = SimTime::ZERO;
    for &(line_no, line) in lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "caps" => {
                let (c, b) = (toks[1].parse().unwrap(), toks[2].parse().unwrap());
                rx.set_reassembly_caps(c, b);
            }
            "timeout" => {
                rx.set_reassembly_timeout(SimDuration::from_millis(toks[1].parse().unwrap()));
            }
            "time" => {
                now = SimTime::ZERO + SimDuration::from_millis(toks[1].parse().unwrap());
            }
            "frag" => {
                let ident: u16 = toks[1].parse().unwrap();
                let off: u16 = toks[2].parse().unwrap();
                let len: usize = toks[3].parse().unwrap();
                let more = match toks[4] {
                    "more" => true,
                    "last" => false,
                    other => fail(line_no, line, format!("expected more|last, got `{other}`")),
                };
                let fill = u8::from_str_radix(toks[5], 16)
                    .unwrap_or_else(|_| fail(line_no, line, "bad fill byte".into()));
                if toks.get(6) != Some(&"->") {
                    fail(line_no, line, "frag line needs `-> held|deliver …`".into());
                }
                let mut h = Ipv4Header::new(REMOTE, LOCAL, IpProtocol::UDP, len);
                h.ident = ident;
                h.frag_offset = off;
                h.more_frags = more;
                let packet = h.build_packet(&vec![fill; len]);
                let outcome = rx.input(now, &packet);
                match toks[7] {
                    "held" => {
                        if outcome != IpInput::FragmentHeld {
                            fail(line_no, line, format!("expected FragmentHeld, got {outcome:?}"));
                        }
                    }
                    "deliver" => {
                        let total: usize = toks[8].parse().unwrap();
                        let want = parse_spec(line_no, line, toks.get(9).copied().unwrap_or(""));
                        match outcome {
                            IpInput::Delivered { payload, .. } => {
                                if payload.len() != total {
                                    fail(
                                        line_no,
                                        line,
                                        format!(
                                            "delivered {} bytes, expected {total}",
                                            payload.len()
                                        ),
                                    );
                                }
                                if payload != want {
                                    fail(line_no, line, "delivered payload mismatch".into());
                                }
                            }
                            other => {
                                fail(line_no, line, format!("expected Delivered, got {other:?}"))
                            }
                        }
                    }
                    other => fail(line_no, line, format!("unknown outcome `{other}`")),
                }
            }
            "expire" => {
                let want: usize = toks[1].parse().unwrap();
                let got = rx.poll_expired(now).len();
                if got != want {
                    fail(line_no, line, format!("{got} contexts expired, expected {want}"));
                }
            }
            "dropped" => {
                let want: u64 = toks[1].parse().unwrap();
                let got = rx.stats().reassembly_dropped;
                if got != want {
                    fail(line_no, line, format!("reassembly_dropped={got}, expected {want}"));
                }
            }
            other => fail(line_no, line, format!("unknown ip verb `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_handshake_script_runs() {
        run("\
            0.000 connect\n\
            0.000 > S  seq=0 mss=4016\n\
            0.010 < S. seq=0 ack=1 win=65535 mss=4016\n\
            0.010 > .  seq=1 ack=1\n\
            0.010 state Established\n");
    }

    #[test]
    #[should_panic(expected = "flags")]
    fn wrong_expectation_fails() {
        run("\
            0.000 connect\n\
            0.000 > F seq=0\n");
    }

    #[test]
    fn inline_ip_script_runs() {
        run("\
            mode ip\n\
            frag 1 0 16 more aa -> held\n\
            frag 1 16 8 last bb -> deliver 24 aa*16,bb*8\n");
    }
}
