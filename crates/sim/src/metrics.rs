//! Simulation-wide observability: typed counters, gauges with high
//! watermarks, CPU busy-time meters, and a deterministic snapshot
//! registry with JSON export.
//!
//! The paper's whole evaluation is an attribution exercise — knowing
//! where every microsecond of a 163 µs datagram send went (Figure 6),
//! and what each resource (CAB CPU, host CPU, VME bus, fiber, HUB
//! port) was doing while throughput curves flattened (Figures 7/8).
//! This module provides the measurement substrate: components own
//! cheap typed instruments (a counter bump is a single saturating add,
//! cheaper than any disable branch), and a [`MetricsRegistry`] gathers
//! them into a [`MetricsSnapshot`] — an ordered key→value map with a
//! stable `node/<id>/link/tx_bytes`-style naming scheme — that
//! serializes to byte-deterministic JSON for the bench harness and
//! regression tests.
//!
//! Determinism is load-bearing: two runs of the same scenario with the
//! same seed must produce byte-identical snapshots, so values are
//! integers only (durations in nanoseconds, never floats) and keys are
//! emitted in sorted order.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// A monotonic counter that saturates at `u64::MAX` instead of
/// wrapping: a pegged counter is visibly wrong, a wrapped one silently
/// lies to conservation checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricCounter(u64);

impl MetricCounter {
    pub const fn new() -> Self {
        MetricCounter(0)
    }

    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    pub const fn get(&self) -> u64 {
        self.0
    }
}

/// An instantaneous level (queue depth, FIFO occupancy, backlog) that
/// remembers the highest level it ever reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    cur: u64,
    high: u64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge { cur: 0, high: 0 }
    }

    /// Set the current level (tracks the high watermark).
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.cur = v;
        if v > self.high {
            self.high = v;
        }
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.set(self.cur.saturating_add(n));
    }

    /// Lower the level by `n` (saturating at zero).
    #[inline]
    pub fn sub(&mut self, n: u64) {
        self.cur = self.cur.saturating_sub(n);
    }

    /// Record a transient observation without changing the level: used
    /// where the "queue" is implicit (e.g. a busy-until horizon).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.high {
            self.high = v;
        }
    }

    pub const fn get(&self) -> u64 {
        self.cur
    }

    pub const fn high_watermark(&self) -> u64 {
        self.high
    }
}

/// Accumulated busy time of a serial resource (a CAB CPU, a host CPU).
/// Attribution categories are the caller's: keep one meter per
/// category and sum for the total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuMeter {
    busy: SimDuration,
}

impl CpuMeter {
    pub const fn new() -> Self {
        CpuMeter { busy: SimDuration::ZERO }
    }

    #[inline]
    pub fn add(&mut self, d: SimDuration) {
        self.busy = self.busy.saturating_add(d);
    }

    pub const fn busy(&self) -> SimDuration {
        self.busy
    }

    pub const fn busy_nanos(&self) -> u64 {
        self.busy.as_nanos()
    }
}

/// An ordered, integer-valued metrics snapshot. Keys follow the
/// workspace naming scheme (`node/<id>/link/tx_bytes`,
/// `hub/<id>/port/<p>/backlog_high_ns`, `net/frames_launched`, …);
/// values are plain `u64` so two same-seed runs serialize to identical
/// bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value. Later writes to the same key overwrite.
    pub fn set(&mut self, key: impl Into<String>, v: u64) {
        self.values.insert(key.into(), v);
    }

    /// Record a counter under `key`.
    pub fn counter(&mut self, key: impl Into<String>, c: &MetricCounter) {
        self.set(key, c.get());
    }

    /// Record a gauge as `<key>` (current) and `<key>_high` (watermark).
    pub fn gauge(&mut self, key: &str, g: &Gauge) {
        self.set(key.to_string(), g.get());
        self.set(format!("{key}_high"), g.high_watermark());
    }

    /// Record a duration in nanoseconds.
    pub fn duration_ns(&mut self, key: impl Into<String>, d: SimDuration) {
        self.set(key, d.as_nanos());
    }

    pub fn get(&self, key: &str) -> Option<u64> {
        self.values.get(key).copied()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sum every value whose key starts with `prefix` and ends with
    /// `suffix` — the conservation-test workhorse
    /// (`sum_matching("node/", "/link/tx_bytes")`).
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.values
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .fold(0u64, |a, b| a.saturating_add(b))
    }

    /// Serialize to deterministic JSON: keys in sorted order, one entry
    /// per line, integer values only. Byte-identical across same-seed
    /// runs and across platforms.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 * self.values.len() + 4);
        out.push_str("{\n");
        let mut first = true;
        for (k, v) in &self.values {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  \"");
            json_escape_into(&mut out, k);
            out.push_str("\": ");
            out.push_str(&v.to_string());
        }
        out.push_str("\n}\n");
        out
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The collection point: components (or the world glue that owns them)
/// publish their instruments here, and the bench harness snapshots the
/// result.
///
/// Like [`crate::trace::Trace`], the registry is off by default and a
/// publish costs one branch when disabled, so collection calls can
/// stay on warm paths (end-of-burst hooks, snapshot boundaries)
/// without a feature gate.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    snap: MetricsSnapshot,
}

impl MetricsRegistry {
    /// A disabled registry: publishes are no-ops.
    pub fn new() -> Self {
        Self::default()
    }

    /// An enabled registry.
    pub fn enabled() -> Self {
        MetricsRegistry { enabled: true, snap: MetricsSnapshot::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Publish one value (no-op unless enabled).
    #[inline]
    pub fn publish(&mut self, key: &str, v: u64) {
        if self.enabled {
            self.snap.set(key, v);
        }
    }

    /// Add to one value (no-op unless enabled).
    #[inline]
    pub fn accumulate(&mut self, key: &str, v: u64) {
        if self.enabled {
            let cur = self.snap.get(key).unwrap_or(0);
            self.snap.set(key, cur.saturating_add(v));
        }
    }

    /// Publish a counter (no-op unless enabled).
    #[inline]
    pub fn publish_counter(&mut self, key: &str, c: &MetricCounter) {
        if self.enabled {
            self.snap.counter(key, c);
        }
    }

    /// Publish a gauge and its high watermark (no-op unless enabled).
    #[inline]
    pub fn publish_gauge(&mut self, key: &str, g: &Gauge) {
        if self.enabled {
            self.snap.gauge(key, g);
        }
    }

    /// Publish a duration in nanoseconds (no-op unless enabled).
    #[inline]
    pub fn publish_duration(&mut self, key: &str, d: SimDuration) {
        if self.enabled {
            self.snap.duration_ns(key, d);
        }
    }

    /// The snapshot gathered so far (empty while disabled).
    pub fn snapshot(&self) -> &MetricsSnapshot {
        &self.snap
    }

    /// Take the snapshot out, leaving an empty one.
    pub fn take(&mut self) -> MetricsSnapshot {
        std::mem::take(&mut self.snap)
    }

    pub fn clear(&mut self) {
        self.snap = MetricsSnapshot::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = MetricCounter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        c.add(1000);
        assert_eq!(c.get(), u64::MAX, "overflow must peg, not wrap");
    }

    #[test]
    fn gauge_tracks_high_watermark() {
        let mut g = Gauge::new();
        g.add(3);
        g.add(4);
        g.sub(5);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_watermark(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0);
        g.observe(50);
        assert_eq!(g.get(), 0, "observe must not move the level");
        assert_eq!(g.high_watermark(), 50);
    }

    #[test]
    fn cpu_meter_accumulates() {
        let mut m = CpuMeter::new();
        m.add(SimDuration::from_micros(20));
        m.add(SimDuration::from_nanos(500));
        assert_eq!(m.busy_nanos(), 20_500);
        m.add(SimDuration::MAX);
        assert_eq!(m.busy(), SimDuration::MAX);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = MetricsRegistry::new();
        r.publish("a/b", 1);
        r.accumulate("a/b", 2);
        r.publish_gauge("g", &Gauge::new());
        r.publish_duration("d", SimDuration::from_secs(1));
        assert!(r.snapshot().is_empty());
        assert_eq!(r.snapshot().to_json(), "{\n\n}\n");
    }

    #[test]
    fn enabling_mid_flight_behaves_like_trace() {
        let mut r = MetricsRegistry::new();
        r.publish("before", 1);
        r.set_enabled(true);
        r.publish("after", 2);
        assert_eq!(r.snapshot().get("before"), None);
        assert_eq!(r.snapshot().get("after"), Some(2));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut s = MetricsSnapshot::new();
        s.set("node/1/link/tx_bytes", 9);
        s.set("hub/0/forwarded", 2);
        s.set("net/frames_launched", 3);
        let expect = "{\n  \"hub/0/forwarded\": 2,\n  \"net/frames_launched\": 3,\n  \"node/1/link/tx_bytes\": 9\n}\n";
        assert_eq!(s.to_json(), expect);
        // insertion order must not matter
        let mut s2 = MetricsSnapshot::new();
        s2.set("net/frames_launched", 3);
        s2.set("node/1/link/tx_bytes", 9);
        s2.set("hub/0/forwarded", 2);
        assert_eq!(s.to_json(), s2.to_json());
        assert_eq!(s, s2);
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        let mut s = MetricsSnapshot::new();
        s.set("weird\"key\\with\ncontrol", 1);
        let j = s.to_json();
        assert!(j.contains("weird\\\"key\\\\with\\u000acontrol"));
    }

    #[test]
    fn snapshot_queries() {
        let mut s = MetricsSnapshot::new();
        s.set("node/0/link/tx_bytes", 10);
        s.set("node/1/link/tx_bytes", 32);
        s.set("node/1/link/tx_frames", 2);
        assert_eq!(s.sum_matching("node/", "/link/tx_bytes"), 42);
        assert_eq!(s.len(), 3);
        let mut g = Gauge::new();
        g.add(5);
        g.sub(2);
        s.gauge("node/0/mbox/depth", &g);
        assert_eq!(s.get("node/0/mbox/depth"), Some(3));
        assert_eq!(s.get("node/0/mbox/depth_high"), Some(5));
    }

    #[test]
    fn registry_accumulate_sums() {
        let mut r = MetricsRegistry::enabled();
        r.accumulate("x", 2);
        r.accumulate("x", 3);
        assert_eq!(r.snapshot().get("x"), Some(5));
        let taken = r.take();
        assert_eq!(taken.get("x"), Some(5));
        assert!(r.snapshot().is_empty());
    }
}
