//! One workload, one process: the mode `BENCHMARK.json`'s command runs.
//!
//! `--trace 0` repeats untraced reps for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` runs the layer probes, then pairs of
//! untraced and traced reps, and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it,
//! prefixed `detail: `, carries rep counts and quartiles for `suite`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::layers;
use crate::probes::Probes;
use crate::spec::{self, Metric};
use crate::stats::{median, quartiles};
use crate::trace::{self, Tracer};
use crate::workloads::{run_rep, setup_only, Rep, Workload};

pub const DEFAULT_SEED: u64 = 13;
/// Reps per run: at least three so a median means something, at most
/// twenty so a much faster simulator does not turn a run into thousands
/// of world builds.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 20;
/// Set-ups made and dropped back to back for `setup_s`. The reps' own
/// set-ups are not samples: each follows a world's teardown, and reusing
/// that freed memory costs up to half as much again as the set-up.
const SETUPS: usize = 25;
/// Untraced/traced rep pairs of a `--trace 1` run.
const MAX_PAIRS: usize = 5;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tenth-size windows, one rep, short probes: the smoke test's mode.
    pub quick: bool,
}

impl Options {
    /// Wall time after which no new rep starts. Quick runs make the
    /// fewest reps, whatever `--seconds` says.
    fn budget(&self) -> Duration {
        Duration::from_secs(if self.quick { 0 } else { self.seconds })
    }
}

pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut o = Options {
        workload: Workload::PaperPair,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a whole number")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.workload = workload.ok_or("--workload <name> is required")?;
    Ok(o)
}

/// Where traces and the drivers' snapshots go: `benchmark/out`, which
/// `run.sh` passes in; a binary run by hand falls back to the source
/// tree it was built from.
pub fn out_dir() -> PathBuf {
    std::env::var_os("NECTAR_BENCHMARK_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Simulated-clock results must repeat bit for bit from rep to rep.
fn same_simulation(a: &Rep, b: &Rep) -> Result<(), String> {
    let scalars =
        |r: &Rep| [r.attempted, r.failed, r.payload_bytes, r.events, r.cancelled, r.pending_at_end];
    if scalars(a) != scalars(b) {
        return Err(format!(
            "simulated counters differ between reps: {:?} vs {:?}",
            scalars(a),
            scalars(b)
        ));
    }
    if a.sim.len() != b.sim.len() {
        return Err("reps report different sets of simulated results".into());
    }
    for ((ka, va), (kb, vb)) in a.sim.iter().zip(&b.sim) {
        if ka != kb || va.to_bits() != vb.to_bits() {
            return Err(format!("simulated result differs between reps: {ka}={va} vs {kb}={vb}"));
        }
    }
    // paper_pair collects its rollup on traced reps only
    if !a.rollup.is_empty() && !b.rollup.is_empty() && a.rollup != b.rollup {
        return Err("layer counters differ between reps".into());
    }
    Ok(())
}

/// Median, quartiles and sample count of one host-clock metric.
fn summary(samples: &[f64]) -> Value {
    let (q1, q3) = quartiles(samples);
    Value::obj()
        .with("median", median(samples))
        .with("q1", q1)
        .with("q3", q3)
        .with("n", samples.len())
}

/// The result line: every metric of `table` by name, in table order,
/// each with its unit. A name the run did not produce is a bug.
fn result_line(table: &[Metric], values: &[(String, f64)], rep: &Rep) -> Result<Value, String> {
    let mut metrics = Value::obj();
    for m in table {
        let v = values
            .iter()
            .find(|(k, _)| *k == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        if !spec::valid_name(&m.name) || !spec::valid_unit(m.unit) {
            return Err(format!("metric {} [{}] is not printable", m.name, m.unit));
        }
        metrics.push(&m.name, Value::obj().with("value", v).with("unit", m.unit));
    }
    Ok(Value::obj()
        .with("correct", true)
        .with("attempted", rep.attempted)
        .with("failed", rep.failed)
        .with("metrics", metrics))
}

fn print_table(table: &[Metric], line: &Value) {
    let metrics = line.get("metrics").expect("result line has metrics");
    for m in table {
        let v = metrics.get(&m.name).and_then(|e| e.get("value")).and_then(Value::as_f64);
        println!("{:<40} {:>16.6} {}", m.name, v.unwrap_or(f64::NAN), m.unit);
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let (line, detail, table) = if o.trace { traced(&o)? } else { untraced(&o)? };
    print_table(&table, &line);
    println!("detail: {}", detail.to_line());
    println!("{}", line.to_line());
    Ok(())
}

fn untraced(o: &Options) -> Result<(Value, Value, Vec<Metric>), String> {
    let out = out_dir();
    let started = Instant::now();
    let budget = o.budget();
    let (min_reps, setups) = if o.quick { (1, 2) } else { (MIN_REPS, SETUPS) };

    // The first rep runs in a process that has built nothing yet, and the
    // peak is read right after it: one scenario's real footprint. Later
    // builds reuse freed heap, which the allocator zeroes eagerly, so the
    // high-water mark afterwards counts every byte a world ever reserved.
    let mut tr = Tracer::new(false);
    let mut reps = vec![run_rep(o.workload, o.seed, o.quick, &mut tr, &out)?];
    let peak_rss = peak_rss_mib()?;
    let setups: Vec<f64> = (0..setups).map(|_| setup_only(o.workload, o.seed)).collect();
    while reps.len() < min_reps || (started.elapsed() < budget && reps.len() < MAX_REPS) {
        let rep = run_rep(o.workload, o.seed, o.quick, &mut tr, &out)?;
        same_simulation(&reps[0], &rep)?;
        reps.push(rep);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let first = &reps[0];

    let mut values = first.sim.clone();
    values.push(("setup_s".into(), median(&setups)));
    values.push(("wall_s".into(), median(&walls)));
    values.push(("peak_rss_mib".into(), peak_rss));
    let table = spec::end_to_end();
    let line = result_line(&table, &values, first)?;
    let detail = Value::obj()
        .with("workload", o.workload.name())
        .with("seed", o.seed)
        .with("reps", reps.len())
        .with("setup_s", summary(&setups))
        .with("wall_s", summary(&walls));
    Ok((line, detail, table))
}

/// Median over the traced reps of a per-rep span figure.
fn over_reps(ids: &[u64], f: impl Fn(u64) -> f64) -> f64 {
    median(&ids.iter().map(|&id| f(id)).collect::<Vec<_>>())
}

fn traced(o: &Options) -> Result<(Value, Value, Vec<Metric>), String> {
    let out = out_dir();
    let started = Instant::now();
    let budget = o.budget();
    let probes = Probes::new(o.quick).run_all(o.seed);
    let cost = |name: &str| probes.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v);

    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut plain: Vec<Rep> = Vec::new();
    let mut with_spans: Vec<Rep> = Vec::new();
    while plain.is_empty() || (started.elapsed() < budget && plain.len() < MAX_PAIRS) {
        let a = run_rep(o.workload, o.seed, o.quick, &mut off, &out)?;
        tr.set_rep(with_spans.len() as u64 + 1);
        let b = run_rep(o.workload, o.seed, o.quick, &mut tr, &out)?;
        // tracing must not change what is simulated
        same_simulation(&a, &b)?;
        if let Some(first) = plain.first() {
            same_simulation(first, &a)?;
        }
        plain.push(a);
        with_spans.push(b);
    }
    let rep = &with_spans[0];
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&with_spans.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", o.workload.name()));
    std::fs::write(&path, tr.chrome_json(o.workload.name()).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut values = layers::in_run(rep);
    values.extend(rep.sim.iter().cloned());
    values.extend(probes.iter().cloned());
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));
    put("sim.events_per_wall_s", rep.events as f64 / plain_wall);

    // span totals per traced rep, median over those reps
    let spans = tr.spans();
    let ids: Vec<u64> = (1..=with_spans.len() as u64).collect();
    for (metric, span) in [
        ("core.topology_s", "core.topology"),
        ("core.world_new_s", "core.world_new"),
        ("load.deploy_s", "load.deploy"),
        ("core.run_until_s", "core.run_until"),
        ("core.metrics_snapshot_s", "core.metrics"),
    ] {
        put(metric, over_reps(&ids, |id| trace::total_s(spans, id, span)));
    }
    // the rep's own time: harness work between phases and world teardown
    put("bench.rep_self_s", over_reps(&ids, |id| trace::self_total_s(spans, id, "rep")));
    // Growth of host time per simulated time inside one window: the last
    // tenth of the loaded part over the first tenth, in the rep's last
    // world. 1.0 for a system whose cost per simulated second is steady.
    put(
        "sim.slice_wall_ratio",
        over_reps(&ids, |id| {
            let slices: Vec<u64> = spans
                .iter()
                .filter(|s| s.rep == id && s.name == "core.run_until")
                .map(|s| s.dur_ns())
                .collect();
            match slices.rchunks_exact(10).next() {
                Some(world) if world[0] > 0 => world[9] as f64 / world[0] as f64,
                _ => 0.0,
            }
        }),
    );
    put("trace_overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0);

    values.extend(layers::est_wall_shares(rep, cost, plain_wall));

    // metrics a workload has no source for read zero
    let table = spec::per_layer();
    for m in &table {
        if !values.iter().any(|(k, _)| *k == m.name) {
            values.push((m.name.clone(), 0.0));
        }
    }
    let line = result_line(&table, &values, rep)?;
    let detail = Value::obj()
        .with("workload", o.workload.name())
        .with("seed", o.seed)
        .with("pairs", plain.len())
        .with("trace_file", path.display().to_string());
    Ok((line, detail, table))
}
