//! `nectar-benchmark suite`: every workload, each in its own child
//! process (so memory peaks are per workload), first untraced for the
//! end-to-end metrics, then traced for the per-layer ones, merged into
//! one results document on standard output (or `--out FILE`). Progress
//! goes to standard error.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::run::DEFAULT_SEED;
use crate::spec;

struct Options {
    seed: u64,
    seconds: u64,
    quick: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options { seed: DEFAULT_SEED, seconds: spec::RUN_SECONDS, quick: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a whole number")?
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// First line of a command's output, or "unknown" when it cannot run:
/// the header records the toolchain and commit when they can be had.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in a child and return its result line and detail.
fn child(o: &Options, workload: &str, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()]).args([
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if o.quick {
        cmd.arg("--quick");
    }
    // the child's standard error (gate failures, panics) passes through
    let output = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) failed: {}", trace as u8, output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let last = text.lines().last().ok_or_else(|| format!("{workload} printed nothing"))?;
    let line = json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    let detail = json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?;
    if line.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect output"));
    }
    Ok((line, detail))
}

fn field(v: &Value, key: &str) -> Value {
    v.get(key).cloned().unwrap_or(Value::Null)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = Value::obj()
        .with("benchmark", "nectar-benchmark")
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("quick", o.quick)
        .with("nproc", nproc)
        .with("rustc", first_line("rustc", &["-V"]))
        .with("commit", first_line("git", &["rev-parse", "HEAD"]))
        // this benchmark measures; it claims no gain
        .with("claim", Value::Null);

    let mut workloads = Value::obj();
    for w in &spec::WORKLOADS {
        eprintln!("suite: {} untraced ...", w.name);
        let (e2e, e2e_detail) = child(&o, w.name, false)?;
        eprintln!("suite: {} traced ...", w.name);
        let (layers, layers_detail) = child(&o, w.name, true)?;
        let spread = Value::obj()
            .with("setup_s", field(&e2e_detail, "setup_s"))
            .with("wall_s", field(&e2e_detail, "wall_s"));
        workloads.push(
            w.name,
            Value::obj()
                .with("reps", field(&e2e_detail, "reps"))
                .with("traced_pairs", field(&layers_detail, "pairs"))
                .with("attempted", field(&e2e, "attempted"))
                .with("failed", field(&e2e, "failed"))
                .with("end_to_end", field(&e2e, "metrics"))
                .with("spread", spread)
                .with("per_layer", field(&layers, "metrics"))
                .with("trace_file", field(&layers_detail, "trace_file")),
        );
    }
    let doc = Value::obj().with("header", header).with("workloads", workloads).to_pretty();
    match &o.out {
        Some(path) => std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    Ok(())
}
