//! Stage tracing: timestamped, tagged marks along a message's path.
//!
//! Figure 6 of the paper breaks a 163 µs one-way host-to-host datagram
//! send into its constituent stages (begin_put, end_put, CAB wakeup,
//! datalink, fiber/HUB, pass-message, begin_get, end_get, ...). The
//! benchmark harness reproduces that figure by stamping a `Trace` at each
//! stage boundary and diffing consecutive stamps.
//!
//! Tracing is off by default and costs one branch per stamp when
//! disabled, so it can stay compiled into the hot paths.

use crate::time::SimTime;

/// One stamped point: when, where (node id), what (static tag), plus a
/// free-form correlation value (message id, byte count, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub at: SimTime,
    pub node: u32,
    pub tag: &'static str,
    pub info: u64,
}

/// An append-only trace buffer.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Record a stamp (no-op unless enabled).
    pub fn stamp(&mut self, at: SimTime, node: u32, tag: &'static str, info: u64) {
        if self.enabled {
            self.events.push(TraceEvent { at, node, tag, info });
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        tr.stamp(t(1), 0, "a", 0);
        assert!(tr.events().is_empty());
    }

    #[test]
    fn set_enabled_toggles_recording() {
        let mut tr = Trace::new();
        tr.set_enabled(true);
        tr.stamp(t(1), 0, "a", 7);
        tr.set_enabled(false);
        tr.stamp(t(2), 0, "b", 0);
        assert_eq!(tr.events(), &[TraceEvent { at: t(1), node: 0, tag: "a", info: 7 }]);
    }
}
