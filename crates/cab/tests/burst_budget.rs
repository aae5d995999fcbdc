//! Regression test for the protocol threads' wait rule: a thread drains
//! at most `burst_limit` requests per burst, and what the budget leaves
//! in its mailboxes keeps it runnable. Blocking with work queued
//! strands that work until an unrelated wake — and on the UDP and raw
//! send paths no other wake comes: the requests sit in the mailbox with
//! the CAB idle.

use nectar_cab::reqs::{UdpSendReq, MB_RAW_SEND, MB_UDP_SEND};
use nectar_cab::{Cab, CabThread, CostModel, Cx, LinkModel, MboxId, Step};
use nectar_sim::{SimDuration, SimTime, Trace};
use nectar_stack::tcp::TcpConfig;

/// Run until idle with no timer pending.
fn run_to_idle(c: &mut Cab, start: SimTime) -> SimTime {
    let mut trace = Trace::new();
    let mut now = start;
    for _ in 0..100_000 {
        let (_, status) = c.step(now, &mut trace);
        match status.wake(now) {
            Some(at) => now = at,
            None => return now,
        }
    }
    panic!("cab never went idle");
}

/// Puts every request into one send mailbox in a single burst.
struct Writer {
    mbox: MboxId,
    reqs: Vec<Vec<u8>>,
}

impl CabThread for Writer {
    fn run(&mut self, cx: &mut Cx<'_>) -> Step {
        for req in self.reqs.drain(..) {
            cx.put_message(self.mbox, &req).expect("heap space for a small request");
        }
        Step::Done
    }
}

#[test]
fn requests_past_the_burst_budget_are_not_stranded() {
    // six requests against the default budget of four; CAB 1 has no
    // route, so each request that is served ends as one no-route drop
    let udp = UdpSendReq { dst_cab: 1, src_port: 9000, dst_port: 7 };
    let mut raw = 1u16.to_be_bytes().to_vec();
    raw.extend_from_slice(b"raw frame");
    for (mbox, req) in [(MB_UDP_SEND, udp.encode(b"datagram")), (MB_RAW_SEND, raw)] {
        let mut c =
            Cab::new(0, CostModel::default(), LinkModel::default(), TcpConfig::default(), 1);
        let t0 = run_to_idle(&mut c, SimTime::ZERO);
        assert!(c.proto.burst_limit < 6, "the budget must be smaller than the backlog");
        c.fork_app(Box::new(Writer { mbox, reqs: vec![req; 6] }));
        run_to_idle(&mut c, t0 + SimDuration::from_nanos(1));
        let queued = c.shared.mailboxes[mbox as usize].queue.len();
        assert_eq!(queued, 0, "mailbox {mbox}: requests stranded past the burst budget");
        assert_eq!(c.net.no_route_drops, 6, "mailbox {mbox}: every request was served");
    }
}
