//! Ablation A1 — §3.1's planned experiment: "We will experiment with
//! moving portions of [protocol processing] into high-priority
//! threads. Although this will introduce additional context switching,
//! the CAB will spend less time with interrupts disabled."
//!
//! We run the UDP host-to-host ping-pong (UDP input goes through IP)
//! with IP input processing at interrupt level (the shipped
//! configuration) and in a high-priority thread, and report the
//! latency cost of the extra context switch.

use nectar::config::Config;
use nectar::scenario::Transport;
use nectar_bench::host_rtt;

fn main() {
    println!("Ablation A1: IP input processing at interrupt level vs in a thread");
    println!();
    let at_interrupt = host_rtt(Config::default(), Transport::Udp, 32, 50);
    let in_thread =
        host_rtt(Config { ip_in_thread: true, ..Default::default() }, Transport::Udp, 32, 50);
    println!("UDP RTT, IP at interrupt level: {at_interrupt:>7.1} us");
    println!("UDP RTT, IP in thread:          {in_thread:>7.1} us");
    let delta = in_thread - at_interrupt;
    println!("thread-mode cost:               {delta:>7.1} us per roundtrip");
    println!();
    println!("(two extra context switches per direction at 20 us each would");
    println!(" predict ~80 us; the measured cost reflects actual scheduling)");
    assert!(in_thread > at_interrupt, "thread mode must pay for its context switches");

    // Batched host I/O on the same ping-pong: with a single message in
    // flight there is never a doorbell to suppress nor a second mailbox
    // entry to batch, so the fast path must be latency-neutral here —
    // its win is throughput under load (the load_sweep knees), and this
    // pins that the knobs cost nothing when idle.
    println!();
    println!("Batched host I/O (doorbell coalescing + mailbox burst 16):");
    let batched = host_rtt(Config::modern(), Transport::Udp, 32, 50);
    println!("UDP RTT, batching off:          {at_interrupt:>7.1} us");
    println!("UDP RTT, batching on:           {batched:>7.1} us");
    assert!(
        batched <= at_interrupt,
        "batching must not add latency to an idle ping-pong \
         (off {at_interrupt:.1} us, on {batched:.1} us)"
    );
}
