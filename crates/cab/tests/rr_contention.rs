//! Regression tests for request-response client binding semantics
//! under multi-client contention, flushed out by the load harness
//! (many clients sharing one CAB, each with its own reply mailbox).
//!
//! A reply mailbox binds to exactly one `(cab, service mailbox)`:
//! replies on the wire carry only `(reply_mbox, req_id)`, so two
//! servers sharing one reply mailbox would collide on request ids.
//! `rr_call` must therefore refuse to redirect a busy mailbox, and
//! must *rebind* (not silently reuse the stale server address) once
//! the mailbox is idle.

use std::cell::RefCell;
use std::rc::Rc;

use nectar_cab::proto::rr_call;
use nectar_cab::reqs::SendReq;
use nectar_cab::{Cab, CabEffect, CabThread, CostModel, Cx, HostOpMode, LinkModel, Step};
use nectar_sim::{SimDuration, SimTime, StepStatus, Trace};
use nectar_stack::tcp::TcpConfig;
use nectar_wire::datalink::{DatalinkHeader, DatalinkProto, Frame};
use nectar_wire::nectar::{ReqRespHeader, ReqRespKind};
use nectar_wire::route::Route;

fn cab() -> Cab {
    let mut c = Cab::new(0, CostModel::default(), LinkModel::default(), TcpConfig::default(), 1);
    c.set_route(1, Route::new(vec![1]));
    c.set_route(2, Route::new(vec![2]));
    c
}

/// Run until idle, collecting transmitted frames' destination CABs.
fn run_to_idle(c: &mut Cab, start: SimTime, dsts: &mut Vec<u16>) -> SimTime {
    let mut trace = Trace::new();
    let mut now = start;
    for _ in 0..100_000 {
        let (fx, status) = c.step(now, &mut trace);
        for e in fx {
            if let CabEffect::Transmit { frame, .. } = e {
                dsts.push(frame.parse_header().unwrap().dst_cab);
            }
        }
        match status {
            StepStatus::Idle { next } if next.is_none_or(|t| t > now) => return now,
            _ => now = status.wake(now).expect("a burst ran or work is due"),
        }
    }
    panic!("cab never went idle");
}

type Ids = Rc<RefCell<Vec<u32>>>;

/// Issues three calls in one burst: server A from mailbox `mb`, then
/// server B from the same still-busy mailbox (must be refused), then
/// server B from a fresh mailbox (must succeed).
struct BusyCaller {
    ids: Ids,
    ran: bool,
}

impl CabThread for BusyCaller {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        if self.ran {
            return Step::Done;
        }
        self.ran = true;
        let mb = cx.shared.create_mailbox(false, HostOpMode::SharedMemory);
        let mb2 = cx.shared.create_mailbox(false, HostOpMode::SharedMemory);
        let a = rr_call(cx, SendReq { dst_cab: 1, dst_mbox: 20, src_mbox: mb }, b"to-a");
        // same mailbox, different server, call still outstanding
        let refused = rr_call(cx, SendReq { dst_cab: 2, dst_mbox: 21, src_mbox: mb }, b"to-b");
        let b = rr_call(cx, SendReq { dst_cab: 2, dst_mbox: 21, src_mbox: mb2 }, b"to-b");
        self.ids.borrow_mut().extend([a, refused, b]);
        Step::Done
    }
}

#[test]
fn rr_call_refuses_rebinding_a_busy_reply_mailbox() {
    let mut c = cab();
    let mut dsts = Vec::new();
    let t0 = run_to_idle(&mut c, SimTime::ZERO, &mut dsts);
    let ids: Ids = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(BusyCaller { ids: ids.clone(), ran: false }));
    let bad_before = c.proto.stats.bad_requests;
    run_to_idle(&mut c, t0 + SimDuration::from_nanos(1), &mut dsts);
    let ids = ids.borrow();
    assert_ne!(ids[0], 0, "first call must be accepted");
    assert_eq!(ids[1], 0, "redirect of a busy reply mailbox must be refused");
    assert_ne!(ids[2], 0, "fresh mailbox to the second server must be accepted");
    assert_eq!(c.proto.stats.bad_requests, bad_before + 1);
    // exactly one request frame per accepted call, none for the refusal
    assert_eq!(dsts, vec![1, 2]);
}

/// Calls server A, waits for the reply, then calls server B from the
/// same (now idle) mailbox. The second request must go to B.
struct RebindCaller {
    mb: u16,
    phase: u8,
    ids: Ids,
}

impl CabThread for RebindCaller {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        match self.phase {
            0 => {
                self.mb = cx.shared.create_mailbox(false, HostOpMode::SharedMemory);
                let id =
                    rr_call(cx, SendReq { dst_cab: 1, dst_mbox: 20, src_mbox: self.mb }, b"to-a");
                self.ids.borrow_mut().push(id);
                self.phase = 1;
                Step::Yield
            }
            1 => {
                let Some(msg) = cx.try_get(self.mb) else {
                    return Step::Block(cx.mbox_cond(self.mb));
                };
                cx.end_get(self.mb, msg);
                self.phase = 2;
                let id =
                    rr_call(cx, SendReq { dst_cab: 2, dst_mbox: 21, src_mbox: self.mb }, b"to-b");
                self.ids.borrow_mut().push(id);
                Step::Done
            }
            _ => Step::Done,
        }
    }
}

#[test]
fn rr_call_rebinds_an_idle_reply_mailbox_to_the_new_server() {
    let mut c = cab();
    let mut dsts = Vec::new();
    let t0 = run_to_idle(&mut c, SimTime::ZERO, &mut dsts);
    let ids: Ids = Rc::new(RefCell::new(Vec::new()));
    c.fork_app(Box::new(RebindCaller { mb: 0, phase: 0, ids: ids.clone() }));
    let t1 = run_to_idle(&mut c, t0 + SimDuration::from_nanos(1), &mut dsts);
    assert_eq!(dsts, vec![1], "first request transmitted to server A");
    let req_id = ids.borrow()[0];
    assert_ne!(req_id, 0);
    // hand-carry server A's reply back to the client's mailbox
    let reply_mbox = {
        // the client thread created its mailbox after boot; recover it
        // from the request frame is not possible here, so replicate the
        // wire format the server would use: dst_mbox is the reply mbox.
        // The client is the only RR client on this CAB.
        let mut mbs: Vec<u16> = c.proto.rr_clients().keys().copied().collect();
        assert_eq!(mbs.len(), 1);
        mbs.pop().unwrap()
    };
    let pkt =
        ReqRespHeader { kind: ReqRespKind::Reply, dst_mbox: reply_mbox, reply_mbox: 0, req_id }
            .build(b"reply-from-a");
    let hdr = DatalinkHeader {
        dst_cab: 0,
        src_cab: 1,
        proto: DatalinkProto::ReqResp,
        flags: 0,
        payload_len: 0,
        msg_id: 0,
    };
    let frame = Frame::build(&Route::empty(), hdr, &pkt);
    dsts.clear();
    c.deliver_frame(t1, frame);
    run_to_idle(&mut c, t1 + SimDuration::from_nanos(1), &mut dsts);
    let ids = ids.borrow();
    assert_eq!(ids.len(), 2, "second call issued after the reply");
    assert_ne!(ids[1], 0, "idle mailbox must rebind, not be refused");
    // the ReplyAck goes to server A (cab 1); the new request must go to
    // server B (cab 2) — before the fix the stale client sent it to A.
    assert!(dsts.contains(&2), "rebound request must reach server B, got {dsts:?}");
    assert_eq!(
        dsts.iter().filter(|&&d| d == 1).count(),
        1,
        "only the ReplyAck goes to server A, got {dsts:?}"
    );
}
