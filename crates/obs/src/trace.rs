//! Span-style trace events with chrome://tracing JSON export.
//!
//! Events carry simulated timestamps (seconds) and render to the Trace
//! Event Format's JSON array flavor — load the output at `chrome://tracing`
//! or in Perfetto. The buffer is bounded: once `cap` events are stored,
//! further events are counted in `dropped` instead of growing the buffer,
//! so tracing can stay enabled on long runs without unbounded memory.

use crate::Json;

/// Phase of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`ph: "X"`) with a duration.
    Complete,
    /// An instant event (`ph: "i"`).
    Instant,
}

/// One trace event, timestamps in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name.
    pub name: &'static str,
    /// Category (chrome://tracing `cat` field).
    pub cat: &'static str,
    /// Phase.
    pub phase: TracePhase,
    /// Start time, simulated seconds.
    pub ts: f64,
    /// Duration, simulated seconds (0 for instants).
    pub dur: f64,
}

/// A bounded buffer of trace events.
#[derive(Debug)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for TraceBuf {
    fn default() -> TraceBuf {
        TraceBuf::with_capacity(100_000)
    }
}

impl TraceBuf {
    /// Creates a buffer that keeps at most `cap` events.
    pub fn with_capacity(cap: usize) -> TraceBuf {
        TraceBuf {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    /// Records a complete span starting at `ts` lasting `dur` seconds.
    pub fn complete(&mut self, name: &'static str, cat: &'static str, ts: f64, dur: f64) {
        self.push(TraceEvent {
            name,
            cat,
            phase: TracePhase::Complete,
            ts,
            dur: dur.max(0.0),
        });
    }

    /// Records an instant event at `ts`.
    pub fn instant(&mut self, name: &'static str, cat: &'static str, ts: f64) {
        self.push(TraceEvent {
            name,
            cat,
            phase: TracePhase::Instant,
            ts,
            dur: 0.0,
        });
    }

    /// Recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffer as chrome://tracing JSON (array flavor).
    ///
    /// Timestamps convert from simulated seconds to the format's
    /// microseconds; all events share `pid` 0 and `tid` 0 (one simulated
    /// timeline). The output is deterministic for a fixed event sequence:
    /// microsecond values are rounded to integers before formatting.
    pub fn chrome_json(&self) -> String {
        let us = |s: f64| (s * 1e6).round() as i64;
        let events = self.events.iter().map(|ev| {
            let event = Json::obj()
                .set("name", ev.name)
                .set("cat", ev.cat)
                .set(
                    "ph",
                    match ev.phase {
                        TracePhase::Complete => "X",
                        TracePhase::Instant => "i",
                    },
                )
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("ts", us(ev.ts));
            match ev.phase {
                TracePhase::Complete => event.set("dur", us(ev.dur)),
                TracePhase::Instant => event.set("s", "g"),
            }
        });
        Json::Arr(events.collect()).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_renders_spans_and_instants() {
        let mut buf = TraceBuf::with_capacity(16);
        buf.complete("ctrl.msg", "engine", 1.5, 0.000_25);
        buf.instant("fg.defense", "floodguard", 2.0);
        let json = buf.chrome_json();
        assert_eq!(
            json,
            "[{\"name\":\"ctrl.msg\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
             \"ts\":1500000,\"dur\":250},\
             {\"name\":\"fg.defense\",\"cat\":\"floodguard\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\
             \"ts\":2000000,\"s\":\"g\"}]"
        );
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let mut buf = TraceBuf::with_capacity(2);
        for i in 0..5 {
            buf.instant("e", "t", i as f64);
        }
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 3);
    }

    #[test]
    fn empty_buffer_renders_empty_array() {
        assert_eq!(TraceBuf::with_capacity(1).chrome_json(), "[]");
    }

    #[test]
    fn negative_duration_clamps_to_zero() {
        let mut buf = TraceBuf::with_capacity(4);
        buf.complete("x", "t", 1.0, -0.5);
        assert_eq!(buf.events()[0].dur, 0.0);
    }
}
