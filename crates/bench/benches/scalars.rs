//! Section 6 scalar claims, measured in the simulation:
//!
//! * thread context switch ≈ 20 µs (§3.1);
//! * HUB connection setup + first byte = 700 ns (§2.1);
//! * fiber + HUB latency < 5 µs (§6.1);
//! * host-to-host RPC round trip < 500 µs (abstract).

use nectar::config::Config;
use nectar::scenario::Transport;
use nectar::world::World;
use nectar_bench::host_rtt;
use nectar_cab::{Cx, Step};
use nectar_hub::{Hub, HubConfig, HubDecision};
use nectar_sim::{SimDuration, SimTime};
use nectar_wire::datalink::{DatalinkHeader, DatalinkProto, Frame};
use nectar_wire::route::Route;

/// Two CAB threads alternating on a pair of mailboxes: every hand-off
/// is one context switch.
fn measure_ctx_switch() -> f64 {
    struct Bouncer {
        mine: u16,
        theirs: u16,
        rounds: u32,
        start: bool,
    }
    impl nectar_cab::CabThread for Bouncer {
        fn run(&mut self, cx: &mut Cx<'_>) -> Step {
            if self.start {
                self.start = false;
                let _ =
                    cx.shared.begin_put(self.theirs, 1).map(|m| cx.shared.end_put(self.theirs, m));
            }
            match cx.shared.begin_get(self.mine) {
                Ok(m) => {
                    cx.shared.end_get(self.mine, m);
                    self.rounds -= 1;
                    if self.rounds == 0 {
                        return Step::Done;
                    }
                    let _ = cx
                        .shared
                        .begin_put(self.theirs, 1)
                        .map(|m| cx.shared.end_put(self.theirs, m));
                    Step::Yield
                }
                Err(c) => Step::Block(c),
            }
        }
    }
    let (mut world, mut sim) = World::single_hub(Config::default(), 1);
    let a = world.cabs[0].shared.create_mailbox(false, nectar_cab::HostOpMode::SharedMemory);
    let b = world.cabs[0].shared.create_mailbox(false, nectar_cab::HostOpMode::SharedMemory);
    let rounds = 200;
    world.cabs[0].fork_app(Box::new(Bouncer { mine: a, theirs: b, rounds, start: true }));
    world.cabs[0].fork_app(Box::new(Bouncer { mine: b, theirs: a, rounds, start: false }));
    // settle boot-time thread starts first so they don't pollute the count
    let t0 = SimTime::ZERO;
    let switches_before = world.cabs[0].rt.ctx_switches;
    world.run_until(&mut sim, t0 + SimDuration::from_secs(5));
    let switches = world.cabs[0].rt.ctx_switches - switches_before;
    // every bounce round is one context switch and nothing else: the
    // Bouncers go through the uncharged `cx.shared` mailbox operations,
    // so the quotient is the context-switch cost itself. The CAB's
    // cursor is its busy-until: the instant the last burst (the final
    // bounce) completed
    let elapsed = world.cabs[0].cpu.cursor().saturating_since(t0).as_micros_f64();
    elapsed / switches.max(1) as f64
}

fn measure_hub_setup() -> f64 {
    let mut hub = Hub::new(0, HubConfig::default());
    let hdr = DatalinkHeader {
        dst_cab: 1,
        src_cab: 0,
        proto: DatalinkProto::Raw,
        flags: 0,
        payload_len: 0,
        msg_id: 0,
    };
    let mut f = Frame::build(&Route::new(vec![3]), hdr, b"x");
    let at = SimTime::from_nanos(10_000);
    match hub.frame_arrival(at, 0, &mut f, SimDuration::from_nanos(100)) {
        HubDecision::Forward { first_byte_out, .. } => {
            first_byte_out.saturating_since(at).as_nanos() as f64
        }
        _ => f64::NAN,
    }
}

fn main() {
    println!("Section 6 scalar claims");
    println!();
    let cs = measure_ctx_switch();
    println!("context switch:        {cs:>8.1} us   (paper: 20 us typical)");
    let hs = measure_hub_setup();
    println!("HUB setup+first byte:  {hs:>8.0} ns   (paper: 700 ns)");
    let link = nectar_cab::LinkModel::default();
    let wire_us = (link.fiber_propagation * 2 + HubConfig::default().setup_latency).as_micros_f64();
    println!("fiber+HUB latency:     {wire_us:>8.2} us   (paper: < 5 us)");
    let rpc = host_rtt(Config::default(), Transport::ReqResp, 32, 50);
    println!("RPC roundtrip:         {rpc:>8.1} us   (paper: < 500 us)");
    assert!(rpc < 500.0, "RPC must stay under the paper's bound");
    assert!((hs - 700.0).abs() < 1.0);
}
