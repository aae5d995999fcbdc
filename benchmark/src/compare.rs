//! `nectar-benchmark compare A.json B.json`: one verdict per pairing of
//! end-to-end metric and workload, B judged against A with the bounds
//! this benchmark fixes. Exit is non-zero when any pairing is worse.
//!
//! A and B are results files written by `suite`. Simulated-clock metrics
//! repeat exactly at a fixed seed, so any difference there is a change;
//! host-clock metrics carry the quartiles of their reps, and a difference
//! smaller than that spread cannot be told from noise.

use crate::json::{self, Value};
use crate::spec::{self, Better, Clock, Metric};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Identical,
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// quartile ranges overlap: not shown unchanged, not shown changed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and, for a host-clock metric
/// with several samples, its quartiles.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn exact(v: f64) -> Side {
        Side { median: v, q1: v, q3: v }
    }
}

/// Judge `b` against `a`. "Worse" is a move in the bad direction by more
/// than `bound` of `a`'s median.
pub fn judge(m: &Metric, a: Side, b: Side) -> Verdict {
    if a.median.to_bits() == b.median.to_bits() && m.clock == Clock::Sim {
        return Verdict::Identical;
    }
    // positive = b is worse, as a share of a's median
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match m.better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    let spread = ((a.q3 - a.q1).abs().max((b.q3 - b.q1).abs())) / base;
    let disjoint = b.q1 > a.q3 || a.q1 > b.q3;
    if spread > m.bound && !disjoint {
        return Verdict::Unresolved;
    }
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// A metric of one workload in a results file: its value, with
/// quartiles when the file carries them.
fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let w = results.get("workloads")?.get(workload)?;
    let v = w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()?;
    let mut s = Side::exact(v);
    if let Some(q) = w.get("spread").and_then(|sp| sp.get(metric)) {
        s.q1 = q.get("q1").and_then(Value::as_f64).unwrap_or(v);
        s.q3 = q.get("q3").and_then(Value::as_f64).unwrap_or(v);
    }
    Some(s)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One pairing of workload and end-to-end metric.
pub struct Row {
    pub workload: &'static str,
    pub metric: Metric,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

/// Every (workload, metric) row of the comparison.
pub fn rows(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for w in &spec::WORKLOADS {
        for m in spec::end_to_end() {
            let sa = side(a, w.name, &m.name)
                .ok_or_else(|| format!("first file has no {} for {}", m.name, w.name))?;
            let sb = side(b, w.name, &m.name)
                .ok_or_else(|| format!("second file has no {} for {}", m.name, w.name))?;
            let verdict = judge(&m, sa, sb);
            out.push(Row { workload: w.name, metric: m, a: sa, b: sb, verdict });
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: nectar-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "seconds"] {
        let (x, y) =
            (a.get("header").and_then(|h| h.get(key)), b.get("header").and_then(|h| h.get(key)));
        if x != y {
            eprintln!(
                "note: the two runs differ in {key}: simulated metrics may differ for that reason"
            );
        }
    }
    let rows = rows(&a, &b)?;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>6.1}%  {}",
            r.workload,
            r.metric.name,
            r.a.median,
            r.b.median,
            r.b.median / r.a.median,
            r.metric.bound * 100.0,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let worse = count(Verdict::Worse);
    println!(
        "{} rows: {} identical, {} within-bound, {} better, {} worse, {} unresolved (ratios are B over A)",
        rows.len(),
        count(Verdict::Identical),
        count(Verdict::WithinBound),
        count(Verdict::Better),
        worse,
        count(Verdict::Unresolved)
    );
    if worse > 0 {
        return Err(format!("{worse} metric/workload pairings are worse than their bound"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Metric {
        spec::end_to_end().into_iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn simulated_metrics_are_identical_or_judged_by_the_bound() {
        let m = metric("sim_goodput_mbps"); // higher is better
        assert_eq!(judge(&m, Side::exact(100.0), Side::exact(100.0)), Verdict::Identical);
        let drop = 100.0 * (1.0 - m.bound * 2.0);
        assert_eq!(judge(&m, Side::exact(100.0), Side::exact(drop)), Verdict::Worse);
        assert_eq!(judge(&m, Side::exact(drop), Side::exact(100.0)), Verdict::Better);
        let nudge = 100.0 * (1.0 - m.bound / 2.0);
        assert_eq!(judge(&m, Side::exact(100.0), Side::exact(nudge)), Verdict::WithinBound);
    }

    #[test]
    fn host_metrics_wider_than_their_bound_are_unresolved_unless_disjoint() {
        let m = metric("wall_s"); // lower is better
        let wide = m.bound * 2.0;
        let a = Side { median: 1.0, q1: 1.0 - wide, q3: 1.0 + wide };
        let overlapping = Side { median: 1.3, q1: 1.0, q3: 1.6 };
        assert_eq!(judge(&m, a, overlapping), Verdict::Unresolved);
        // every run of B reads better than every run of A: resolved
        let clear = Side { median: 0.3, q1: 0.25, q3: 0.35 };
        assert_eq!(judge(&m, a, clear), Verdict::Better);
        // equal medians on the host clock are within bound, not "identical"
        let tight = Side { median: 1.0, q1: 0.99, q3: 1.01 };
        assert_eq!(judge(&m, tight, tight), Verdict::WithinBound);
        let slower = Side { median: 1.0 + wide, q1: 0.99 + wide, q3: 1.01 + wide };
        assert_eq!(judge(&m, tight, slower), Verdict::Worse);
    }
}
