//! Simulation-wide observability: a deterministic snapshot of every
//! counter in an installation, with JSON export.
//!
//! The paper's whole evaluation is an attribution exercise — knowing
//! where every microsecond of a 163 µs datagram send went (Figure 6),
//! and what each resource (CAB CPU, host CPU, VME bus, fiber, HUB
//! port) was doing while throughput curves flattened (Figures 7/8).
//! Components count in plain always-on integer fields (`u64` counters,
//! `SimDuration` busy time, high-watermark words); a pull pass
//! (`World::metrics` in the `nectar` crate) gathers them into a
//! [`MetricsSnapshot`] — an ordered key→value map with a stable
//! `node/<id>/link/tx_bytes`-style naming scheme — that serializes to
//! byte-deterministic JSON for the bench harness and regression tests.
//!
//! Determinism is load-bearing: two runs of the same scenario with the
//! same seed must produce byte-identical snapshots, so values are
//! integers only (durations in nanoseconds, never floats) and keys are
//! emitted in sorted order.

use std::collections::BTreeMap;

use crate::json::Json;

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
        Json::Obj(self.values.iter().map(|(k, &v)| (k.as_str(), Json::U(v))).collect()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(s.get("node/1/link/tx_frames"), Some(2));
        assert_eq!(s.get("node/2/link/tx_frames"), None);
    }
}
