//! The five workloads. A *rep* builds the scenario, runs its fixed
//! simulated window, reads the results and drops the world; the
//! simulated work per rep is identical on every commit, so wall time
//! per rep is comparable across commits and only the number of reps
//! adapts to the time a run is given.
//!
//! Everything here goes through the public surface README.md lists, so
//! refactors of the simulator's internals keep this file compiling.

use std::collections::BTreeMap;
use std::time::Instant;

use nectar::config::{Config, FaultPlan};
use nectar::scenario::{two_hub_pair_load, Transport};
use nectar::topology::Topology;
use nectar::world::{Sim, World};
use nectar_bench::{cab_rtt, cab_throughput, host_rtt, host_throughput, volume_for, StreamProto};
use nectar_load::{deploy_fleet, Arrival, FleetPlan, LoadTransport, SizeDist};
use nectar_sim::{BucketHist, SimDuration, SimTime};

use crate::json;
use crate::spec;
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperPair,
    StreamTwohub,
    LossyTwohub,
    RpcMixed,
    ClosFleet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperPair,
        Workload::StreamTwohub,
        Workload::LossyTwohub,
        Workload::RpcMixed,
        Workload::ClosFleet,
    ];

    /// The stable name, from the table `BENCHMARK.json` is generated
    /// from (`ALL` is in that table's order).
    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Latency limit for the `load.slo_rps*` metrics: a step meets it when
/// its coordinated-omission-correct p99 is within 10 ms (the
/// `nectar_load::sweep` rationale: a growing backlog shows in that
/// tail long before goodput drops).
const SLO_P99_NS: u64 = 10_000_000;

/// Simulated windows. Part of the metric definitions: with event counts
/// growing over simulated time, `wall_s` is super-linear in the window,
/// so retuning these invalidates every earlier number.
const STREAM_WINDOW_MS: u64 = 3000;
const STREAM_MSG_BYTES: usize = 4096;
const RPC_WINDOW_MS: u64 = 500;
const RPC_STEPS_RPS: [u64; 3] = [5_000, 15_000, 25_000]; // light, heavy, over
const CLOS_WINDOW_MS: u64 = 2000;
const CLOS_RPS: u64 = 32_000;
/// Fleet workloads: first intended start and per-request deadline.
const FLEET_START_MS: u64 = 20;
const FLEET_TIMEOUT_MS: u64 = 50;
/// How long past the stop time a fleet's world runs, so that every
/// request intended inside the window resolves and the ledger balances.
/// `clos_fleet` runs below its knee: a deadline plus slack is enough.
/// `rpc_mixed`'s `over` step ends with TCP about 0.2 s behind its
/// schedule, and a request missing from the ledger is the latest one, so
/// that workload drains until the backlog is served.
const CLOS_DRAIN_MS: u64 = 70;
const RPC_DRAIN_MS: u64 = 400;
/// `paper_pair`: ping size and count, and the throughput sizes.
const PING_BYTES: usize = 32;
const PING_COUNT: u32 = 100;
const STREAM_SIZES: [usize; 3] = [64, 1024, 8192];
/// Bare two-node worlds timed as `paper_pair`'s set-up: its drivers
/// build one world per call and a rep makes twenty calls.
const PAPER_WORLDS: usize = 20;

/// The paper's printed numbers reachable from the drivers. All four are
/// known to whoever tunes the model: there is no held-out reference.
const PAPER_HOST_DGRAM_RTT_US: f64 = 325.0;
const PAPER_CAB_RMP_8K_MBPS: f64 = 90.0;
const PAPER_HOST_TCP_8K_MBPS: f64 = 24.0;
const PAPER_HOST_RMP_8K_MBPS: f64 = 28.0;

/// Sum, maximum and count of every counter in a metrics snapshot after
/// the numeric path segments are dropped: `node/12/cab/ctx_switches`
/// and `node/3/cab/ctx_switches` both land on `node/cab/ctx_switches`.
/// The worlds of one rep are absorbed into one rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rollup {
    map: BTreeMap<String, Agg>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Agg {
    sum: u64,
    max: u64,
    n: u64,
}

impl Rollup {
    pub fn absorb<'a>(&mut self, entries: impl Iterator<Item = (&'a str, u64)>) {
        let mut canon = String::new();
        for (key, v) in entries {
            canon.clear();
            for seg in key.split('/') {
                if seg.bytes().all(|b| b.is_ascii_digit()) {
                    continue;
                }
                if !canon.is_empty() {
                    canon.push('/');
                }
                canon.push_str(seg);
            }
            let a = match self.map.get_mut(canon.as_str()) {
                Some(a) => a,
                None => self.map.entry(canon.clone()).or_default(),
            };
            a.sum += v;
            a.max = a.max.max(v);
            a.n += 1;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Zero for a key no world published (conditional keys, quiet ports).
    pub fn sum(&self, key: &str) -> u64 {
        self.map.get(key).map_or(0, |a| a.sum)
    }

    pub fn max(&self, key: &str) -> u64 {
        self.map.get(key).map_or(0, |a| a.max)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.map.get(key).map_or(0, |a| a.n)
    }
}

/// What one rep measured. Everything but `wall_s`, the host-clock time
/// of the run phase, is simulated-clock and must repeat bit for bit.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Operations attempted / failed (timeouts, failures, dead RMP
    /// messages).
    pub attempted: u64,
    pub failed: u64,
    /// Delivered payload bytes, and the simulated time they took.
    pub payload_bytes: u64,
    pub window_ns: u64,
    /// Simulated time one world of the rep ran for (all its worlds run
    /// equally long); zero when the drivers own the clock.
    pub world_ns: u64,
    /// Worlds the rep harvested counters from.
    pub worlds: u64,
    /// Scheduler counters summed over the rep's worlds; zero when the
    /// drivers own the scheduler (`paper_pair`).
    pub events: u64,
    pub cancelled: u64,
    pub pending_at_end: u64,
    /// Named simulated-clock results (latencies, rates, anchors).
    pub sim: Vec<(String, f64)>,
    /// Counter rollup; empty on `paper_pair` reps that did not collect
    /// the drivers' snapshots.
    pub rollup: Rollup,
}

impl Rep {
    pub fn sim_value(&self, name: &str) -> f64 {
        self.sim.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
    }

    fn set(&mut self, name: &str, v: f64) {
        self.sim.push((name.to_string(), v));
    }
}

/// One correctness gate. A failure is returned, not panicked, so the
/// run exits non-zero with the message and without a result line.
fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn window(ms: u64, quick: bool) -> SimDuration {
    SimDuration::from_millis(if quick { ms / 10 } else { ms })
}

/// Run the world to `end`, returning the wall seconds it took. Traced,
/// the loaded part `load.0..load.1` is cut into ten equal
/// `core.run_until` slices, each tagged with the scheduler's counters
/// after it, with a warm-up slice before and a drain slice after where
/// the window has them; untraced it is one call.
fn run_window(
    world: &mut World,
    sim: &mut Sim,
    load: (SimTime, SimTime),
    end: SimTime,
    tr: &mut Tracer,
) -> f64 {
    let t0 = Instant::now();
    let run = tr.begin("run");
    let mut slice = |name: &'static str, until: SimTime, tr: &mut Tracer| {
        let s = tr.begin(name);
        world.run_until(sim, until);
        tr.end_with(
            s,
            &[("events_executed", sim.executed() as f64), ("pending", sim.pending() as f64)],
        );
    };
    if tr.enabled() {
        let (start, stop) = (load.0.as_nanos(), load.1.as_nanos());
        if start > 0 {
            slice("core.run_until.warmup", load.0, tr);
        }
        for i in 1..=10 {
            slice("core.run_until", SimTime::from_nanos(start + (stop - start) * i / 10), tr);
        }
        if end > load.1 {
            slice("core.run_until.drain", end, tr);
        }
    } else {
        slice("core.run_until", end, tr);
    }
    tr.end(run);
    t0.elapsed().as_secs_f64()
}

/// Read a finished world into the rep: counter rollup and scheduler
/// counters.
fn harvest(rep: &mut Rep, world: &World, sim: &Sim, tr: &mut Tracer) {
    let snap = tr.span("core.metrics", |_| world.metrics());
    rep.rollup.absorb(snap.iter());
    rep.events += sim.executed();
    rep.cancelled += sim.cancelled();
    rep.pending_at_end = rep.pending_at_end.max(sim.pending() as u64);
    rep.world_ns = sim.now().as_nanos();
    rep.worlds += 1;
}

// ---------------------------------------------------------------------
// stream_twohub / lossy_twohub
// ---------------------------------------------------------------------

struct StreamWorld {
    world: World,
    sim: Sim,
    /// Received payload bytes per stream.
    received: Vec<std::rc::Rc<std::cell::Cell<u64>>>,
}

fn stream_build(lossy: bool, seed: u64, tr: &mut Tracer) -> StreamWorld {
    let mut config = Config { seed, oracle: Some(lossy), ..Config::default() };
    if lossy {
        config.faults = FaultPlan { loss: 0.02, corrupt: 0.005 };
    }
    let topo = tr.span("core.topology", |_| Topology::two_hubs(26));
    let (mut world, sim) = tr.span("core.world_new", |_| World::new(config, topo));
    // effectively unbounded: every stream stays active for the window
    let handles =
        tr.span("core.scenario", |_| two_hub_pair_load(&mut world, u64::MAX / 2, STREAM_MSG_BYTES));
    StreamWorld { world, sim, received: handles.into_iter().map(|(bytes, _)| bytes).collect() }
}

fn stream_rep(lossy: bool, seed: u64, quick: bool, tr: &mut Tracer) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let setup = tr.begin("setup");
    let StreamWorld { mut world, mut sim, received } = stream_build(lossy, seed, tr);
    tr.end(setup);

    let win = window(STREAM_WINDOW_MS, quick);
    let end = SimTime::ZERO + win;
    rep.wall_s = run_window(&mut world, &mut sim, (SimTime::ZERO, end), end, tr);
    harvest(&mut rep, &world, &sim, tr);

    gate(!lossy || nectar_stack::conform::enabled(), || {
        "lossy_twohub: the conformance oracle is not armed".into()
    })?;
    let received: Vec<u64> = received.iter().map(|bytes| bytes.get()).collect();
    gate(received.iter().all(|&b| b > 0), || {
        format!("a stream made no progress: received bytes per stream {received:?}")
    })?;
    let rmp_failed = rep.rollup.sum("node/rmp/messages_failed");
    gate(rmp_failed == 0, || format!("{rmp_failed} RMP messages failed"))?;

    let msgs: Vec<u64> = received.iter().map(|b| b / STREAM_MSG_BYTES as u64).collect();
    // the gate above leaves nothing failed
    rep.attempted = msgs.iter().sum();
    rep.payload_bytes = received.iter().sum();
    rep.window_ns = win.as_nanos();
    // A saturating stream's latency is its time per message. Single
    // streams swing widely with where the losses fall, so the typical
    // figure is the faster half of the streams taken together and the
    // tail the slower half: window x streams / messages they delivered.
    let mut sorted = msgs.clone();
    sorted.sort_unstable();
    let (slow, fast) = sorted.split_at(sorted.len() / 2);
    let per_msg_us = |half: &[u64]| {
        us(win.as_nanos()) * half.len() as f64 / half.iter().sum::<u64>().max(1) as f64
    };
    rep.set("sim_typical_us", per_msg_us(fast));
    rep.set("sim_tail_us", per_msg_us(slow));
    rep.set("sim_goodput_mbps", goodput_mbps(rep.payload_bytes, rep.window_ns));
    Ok(rep)
}

// ---------------------------------------------------------------------
// rpc_mixed / clos_fleet
// ---------------------------------------------------------------------

struct FleetShape {
    mix: Vec<(LoadTransport, usize)>,
    clients_per_cab: usize,
    endpoints_per_client: usize,
    payload: usize,
    window_ms: u64,
    drain_ms: u64,
}

struct StepOut {
    rps: u64,
    /// Latency per transport, `LoadTransport::ALL` order.
    per: Vec<BucketHist>,
    all: BucketHist,
}

struct FleetWorld {
    plan: FleetPlan,
    world: World,
    sim: Sim,
    fleet: nectar_load::Fleet,
}

fn fleet_plan(shape: &FleetShape, rps: u64, seed: u64, quick: bool) -> FleetPlan {
    let endpoints: usize = shape.mix.iter().map(|(_, n)| n).sum();
    // per-endpoint mean gap so the aggregate open-loop rate is `rps`
    let gap_ns = (endpoints as u64 * 1_000_000_000 / rps).max(1);
    let start = SimTime::ZERO + SimDuration::from_millis(FLEET_START_MS);
    FleetPlan {
        // every step draws its own arrival schedule
        seed: seed ^ rps,
        mix: shape.mix.clone(),
        clients_per_cab: shape.clients_per_cab,
        endpoints_per_client: shape.endpoints_per_client,
        arrival: Arrival::Open { mean_gap: SimDuration::from_nanos(gap_ns) },
        size: SizeDist::Fixed(shape.payload),
        timeout: SimDuration::from_millis(FLEET_TIMEOUT_MS),
        start,
        stop: start + window(shape.window_ms, quick),
    }
}

/// The `clos_fleet` plan, for the probes that time set-up pieces on the
/// same 52-HUB fabric.
pub fn clos_fleet_plan(seed: u64) -> FleetPlan {
    fleet_plan(&clos_fleet_shape(), CLOS_RPS, seed, false)
}

/// One fresh world with the fleet deployed at one aggregate offered rate.
fn fleet_build(
    shape: &FleetShape,
    rps: u64,
    seed: u64,
    quick: bool,
    tr: &mut Tracer,
) -> FleetWorld {
    let plan = fleet_plan(shape, rps, seed, quick);
    let config = Config { seed: plan.seed, oracle: Some(false), ..Config::default() };
    let topo = tr.span("core.topology", |_| plan.topology());
    let (mut world, sim) = tr.span("core.world_new", |_| World::new(config, topo));
    let fleet = tr.span("load.deploy", |_| deploy_fleet(&mut world, &plan));
    FleetWorld { plan, world, sim, fleet }
}

/// Build, run and read one step.
fn fleet_step(
    rep: &mut Rep,
    shape: &FleetShape,
    rps: u64,
    seed: u64,
    quick: bool,
    tr: &mut Tracer,
) -> Result<StepOut, String> {
    let setup = tr.begin("setup");
    let FleetWorld { plan, mut world, mut sim, fleet } = fleet_build(shape, rps, seed, quick, tr);
    tr.end(setup);

    let end = plan.stop + SimDuration::from_millis(shape.drain_ms);
    rep.wall_s += run_window(&mut world, &mut sim, (plan.start, plan.stop), end, tr);
    harvest(rep, &world, &sim, tr);

    let l = *fleet.ledger.borrow();
    gate(l.responses + l.timeouts + l.failures == l.requests_intended, || {
        format!(
            "load ledger at {rps} rps does not balance: {} responses + {} timeouts + {} failures \
             != {} intended",
            l.responses, l.timeouts, l.failures, l.requests_intended
        )
    })?;
    gate(l.responses > 0, || format!("no responses at {rps} rps"))?;
    rep.attempted += l.requests_intended;
    rep.failed += l.timeouts + l.failures;
    rep.payload_bytes += l.bytes_received;
    rep.window_ns += (plan.stop - plan.start).as_nanos();

    let rec = fleet.recorder.borrow();
    let per: Vec<BucketHist> =
        LoadTransport::ALL.iter().map(|t| rec.record(*t).latency.clone()).collect();
    let mut all = BucketHist::new();
    for h in &per {
        all.merge(h);
    }
    Ok(StepOut { rps, per, all })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Delivered payload bits per simulated microsecond.
fn goodput_mbps(payload_bytes: u64, window_ns: u64) -> f64 {
    payload_bytes as f64 * 8.0 / us(window_ns)
}

/// Highest step (by rate) whose p99 for `pick` meets the limit and has
/// samples; zero when none does.
fn slo_rps(steps: &[StepOut], pick: impl Fn(&StepOut) -> &BucketHist) -> f64 {
    steps
        .iter()
        .filter(|s| !pick(s).is_empty() && pick(s).percentile_nanos(0.99) <= SLO_P99_NS)
        .map(|s| s.rps)
        .max()
        .unwrap_or(0) as f64
}

/// The `load.*` results of a fleet rep. `p50_of` / `p99_of` index the
/// step each percentile is read at (light and heavy on `rpc_mixed`).
fn fleet_results(rep: &mut Rep, steps: &[StepOut], p50_of: usize, p99_of: usize) {
    rep.set("load.p50_us", us(steps[p50_of].all.percentile_nanos(0.50)));
    rep.set("load.p99_us", us(steps[p99_of].all.percentile_nanos(0.99)));
    rep.set("sim_goodput_mbps", goodput_mbps(rep.payload_bytes, rep.window_ns));
    // the aggregate meets the limit where every transport with traffic does
    let every = LoadTransport::ALL
        .iter()
        .filter(|t| steps.iter().any(|s| !s.per[t.index()].is_empty()))
        .map(|t| slo_rps(steps, |s| &s.per[t.index()]))
        .fold(f64::INFINITY, f64::min);
    rep.set("load.slo_rps", every);
    for t in LoadTransport::ALL {
        let i = t.index();
        rep.set(
            &format!("load.p50_us.{}", t.name()),
            us(steps[p50_of].per[i].percentile_nanos(0.5)),
        );
        rep.set(
            &format!("load.p99_us.{}", t.name()),
            us(steps[p99_of].per[i].percentile_nanos(0.99)),
        );
        rep.set(&format!("load.slo_rps.{}", t.name()), slo_rps(steps, |s| &s.per[i]));
    }
}

fn rpc_mixed_shape() -> FleetShape {
    FleetShape {
        mix: LoadTransport::ALL.iter().map(|t| (*t, 12)).collect(),
        clients_per_cab: 12,
        endpoints_per_client: 1,
        payload: 64,
        window_ms: RPC_WINDOW_MS,
        drain_ms: RPC_DRAIN_MS,
    }
}

fn clos_fleet_shape() -> FleetShape {
    FleetShape {
        mix: vec![(LoadTransport::ReqResp, 1260); 8],
        clients_per_cab: 1,
        endpoints_per_client: 30,
        payload: 128,
        window_ms: CLOS_WINDOW_MS,
        drain_ms: CLOS_DRAIN_MS,
    }
}

fn rpc_mixed_rep(seed: u64, quick: bool, tr: &mut Tracer) -> Result<Rep, String> {
    let shape = rpc_mixed_shape();
    let mut rep = Rep::default();
    let mut steps = Vec::new();
    for rps in RPC_STEPS_RPS {
        steps.push(fleet_step(&mut rep, &shape, rps, seed, quick, tr)?);
    }
    let (light, heavy) = (&steps[0], &steps[1]);
    fleet_results(&mut rep, &steps, 0, 1);
    // The five transports' latencies form separate clusters, and the
    // median of the mixture falls in the gap between two of them, where
    // it moves 7-8 % with the arrival schedule; the mean of the five
    // per-transport medians moves 2 %.
    let medians = light.per.iter().map(|h| us(h.percentile_nanos(0.5))).sum::<f64>();
    rep.set("sim_typical_us", medians / light.per.len() as f64);
    // At 85 % of the TCP knee the upper percentiles of a 0.5 s window
    // move 12-24 % with the arrival schedule, the mean 5-7 %. The mean
    // from intended start carries the same queueing delay, so it is the
    // bounded figure; the percentiles stay in `load.p99_us*`.
    rep.set("sim_tail_us", us(heavy.all.mean().as_nanos()));
    Ok(rep)
}

fn clos_fleet_rep(seed: u64, quick: bool, tr: &mut Tracer) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let step = fleet_step(&mut rep, &clos_fleet_shape(), CLOS_RPS, seed, quick, tr)?;
    rep.set("sim_typical_us", us(step.all.percentile_nanos(0.50)));
    rep.set("sim_tail_us", us(step.all.percentile_nanos(0.99)));
    fleet_results(&mut rep, &[step], 0, 0);
    Ok(rep)
}

// ---------------------------------------------------------------------
// paper_pair
// ---------------------------------------------------------------------

/// Where the drivers drop their end-of-run snapshots during a traced
/// rep (`nectar_bench::emit_snapshot` reads this variable).
const METRICS_DIR_VAR: &str = "NECTAR_METRICS_DIR";

/// The drivers build their own worlds inside the timed calls, so the
/// cost of those builds is timed separately: as many bare two-node
/// worlds as a rep makes driver calls.
fn paper_build(config: Config, tr: &mut Tracer) {
    for _ in 0..PAPER_WORLDS {
        let pair = tr.span("core.world_new", |_| World::single_hub(config, 2));
        drop(std::hint::black_box(pair));
    }
}

fn paper_config(seed: u64) -> Config {
    Config { seed, oracle: Some(false), ..Config::default() }
}

fn paper_pair_rep(
    seed: u64,
    quick: bool,
    tr: &mut Tracer,
    out_dir: &std::path::Path,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let config = paper_config(seed);
    let (count, shrink) = if quick { (PING_COUNT / 10, 10) } else { (PING_COUNT, 1) };

    let setup = tr.begin("setup");
    paper_build(config, tr);
    tr.end(setup);

    // Snapshots are collected on the traced rep only: writing twenty
    // files is not part of the work the untraced reps time.
    let snap_dir = out_dir.join("paper_pair-metrics");
    if tr.enabled() {
        let _ = std::fs::remove_dir_all(&snap_dir);
        std::env::set_var(METRICS_DIR_VAR, &snap_dir);
    } else {
        std::env::remove_var(METRICS_DIR_VAR);
    }

    let t0 = Instant::now();
    let run = tr.begin("run");
    let transports = [Transport::Datagram, Transport::Rmp, Transport::ReqResp, Transport::Udp];
    let mut rtts = Vec::new();
    for t in transports {
        let h = tr.span("bench.host_rtt", |_| host_rtt(config, t, PING_BYTES, count));
        let c = tr.span("bench.cab_rtt", |_| cab_rtt(config, t, PING_BYTES, count));
        rep.set(&format!("paper.host_rtt_us.{t:?}"), h);
        rep.set(&format!("paper.cab_rtt_us.{t:?}"), c);
        rtts.extend([h, c]);
        rep.attempted += 2 * count as u64;
        // a ping delivers its payload once each way, on host and CAB runs
        rep.payload_bytes += 2 * 2 * count as u64 * PING_BYTES as u64;
    }
    for proto in [StreamProto::Rmp, StreamProto::Tcp] {
        for size in STREAM_SIZES {
            let total = volume_for(size) / shrink;
            let c = tr.span("bench.cab_throughput", |_| cab_throughput(config, proto, size, total));
            let h =
                tr.span("bench.host_throughput", |_| host_throughput(config, proto, size, total));
            rep.set(&format!("paper.cab_mbps.{proto:?}.{size}"), c);
            rep.set(&format!("paper.host_mbps.{proto:?}.{size}"), h);
            rep.attempted += 2 * total.div_ceil(size as u64);
            rep.payload_bytes += 2 * total;
        }
    }
    tr.end(run);
    rep.wall_s = t0.elapsed().as_secs_f64();
    // each driver asserts that its transfer completed; none failed

    if tr.enabled() {
        std::env::remove_var(METRICS_DIR_VAR);
        let o = tr.begin("core.metrics");
        let mut files = 0;
        let dir = std::fs::read_dir(&snap_dir)
            .map_err(|e| format!("no driver snapshots in {}: {e}", snap_dir.display()))?;
        for entry in dir {
            let path = entry.map_err(|e| e.to_string())?.path();
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            rep.rollup.absorb(
                doc.entries().iter().map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(0.0) as u64)),
            );
            files += 1;
        }
        tr.end(o);
        gate(files == PAPER_WORLDS, || {
            format!("expected {PAPER_WORLDS} driver snapshots, found {files}")
        })?;
    }

    let host_rtt_us = rep.sim_value("paper.host_rtt_us.Datagram");
    let cab_rmp = rep.sim_value("paper.cab_mbps.Rmp.8192");
    let host_tcp = rep.sim_value("paper.host_mbps.Tcp.8192");
    let host_rmp = rep.sim_value("paper.host_mbps.Rmp.8192");
    let err = |ours: f64, paper: f64| (ours - paper).abs() / paper * 100.0;
    rep.set(
        "paper.err_pct",
        (err(host_rtt_us, PAPER_HOST_DGRAM_RTT_US)
            + err(cab_rmp, PAPER_CAB_RMP_8K_MBPS)
            + err(host_tcp, PAPER_HOST_TCP_8K_MBPS)
            + err(host_rmp, PAPER_HOST_RMP_8K_MBPS))
            / 4.0,
    );
    rep.set("paper.host_dgram_rtt_us", host_rtt_us);
    rep.set("paper.cab_rmp_8k_mbps", cab_rmp);
    rep.set("paper.host_tcp_8k_mbps", host_tcp);
    rep.set("paper.host_rmp_8k_mbps", host_rmp);
    // The drivers report medians only. The typical operation is the
    // paper's headline host datagram round trip; the tail is the slowest
    // of the eight transport round trips.
    rep.set("sim_typical_us", host_rtt_us);
    rep.set("sim_tail_us", rtts.iter().copied().fold(0.0, f64::max));
    rep.set("sim_goodput_mbps", host_rmp);
    Ok(rep)
}

/// One rep of a workload. `out_dir` is where `paper_pair` has its
/// drivers drop snapshots on a traced rep.
pub fn run_rep(
    w: Workload,
    seed: u64,
    quick: bool,
    tr: &mut Tracer,
    out_dir: &std::path::Path,
) -> Result<Rep, String> {
    let open = tr.begin("rep");
    let rep = match w {
        Workload::PaperPair => paper_pair_rep(seed, quick, tr, out_dir),
        Workload::StreamTwohub => stream_rep(false, seed, quick, tr),
        Workload::LossyTwohub => stream_rep(true, seed, quick, tr),
        Workload::RpcMixed => rpc_mixed_rep(seed, quick, tr),
        Workload::ClosFleet => clos_fleet_rep(seed, quick, tr),
    };
    // worlds are dropped inside the rep span: teardown is rep self time
    tr.end(open);
    rep
}

/// Set the workload's scenario up once more and drop it, returning the
/// wall seconds the set-up took: a `setup_s` sample that costs no run.
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    let tr = &mut Tracer::new(false);
    let t0 = Instant::now();
    match w {
        Workload::PaperPair => {
            paper_build(paper_config(seed), tr);
            t0.elapsed().as_secs_f64()
        }
        Workload::StreamTwohub | Workload::LossyTwohub => {
            let built = stream_build(w == Workload::LossyTwohub, seed, tr);
            let secs = t0.elapsed().as_secs_f64();
            drop(built);
            secs
        }
        Workload::RpcMixed | Workload::ClosFleet => {
            let (shape, steps) = match w {
                Workload::RpcMixed => (rpc_mixed_shape(), &RPC_STEPS_RPS[..]),
                _ => (clos_fleet_shape(), &[CLOS_RPS][..]),
            };
            let mut secs = 0.0;
            for &rps in steps {
                let t0 = Instant::now();
                let built = fleet_build(&shape, rps, seed, false, tr);
                secs += t0.elapsed().as_secs_f64();
                drop(built);
            }
            secs
        }
    }
}
