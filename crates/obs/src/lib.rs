//! Unified observability for the FloodGuard workspace.
//!
//! Three pieces behind one shareable hub ([`Obs`], handed around as
//! [`ObsHandle`]):
//!
//! * [`Registry`] — named counters, gauges, and fixed-bucket log2
//!   histograms. Registration interns the name and returns a cloneable
//!   handle; updates are single relaxed atomics — zero allocation on the
//!   hot path, no lock.
//! * [`Recorder`] — a sim-clock time-series store. Snapshots are driven by
//!   an event the simulation schedules through its own queue
//!   (`netsim::Simulation::attach_obs`), so recording is deterministic and
//!   bit-exact across same-seed runs.
//! * [`TraceBuf`] — bounded span/instant trace events exportable as
//!   chrome://tracing JSON.
//!
//! Producers (engine, switch model, FloodGuard, ofchannel) register metrics
//! at attach time and update handles thereafter; consumers (`bench::report`
//! timeline export, tests) read the recorder and trace buffer after the run.
//!
//! ```
//! use obs::Obs;
//!
//! let hub = Obs::new();
//! let events = hub.registry.counter("engine.events");
//! events.add(10);
//! hub.set_recording(true);
//! hub.snapshot(0.05);
//! assert_eq!(hub.recorder_series()[0].samples, vec![(0.05, 10.0)]);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

pub mod prom;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use recorder::{Recorder, Series};
pub use registry::{
    Counter, Gauge, Histogram, LocalHistogram, Metric, MetricKind, Registry, HIST_BUCKETS,
};
pub use trace::{TraceBuf, TraceEvent, TracePhase};

/// A shared observability hub.
pub type ObsHandle = Arc<Obs>;

/// Registry + recorder + trace buffer, shareable across layers.
#[derive(Debug)]
pub struct Obs {
    /// The metric directory. Public: producers register directly.
    pub registry: Registry,
    recorder: Mutex<Recorder>,
    trace: Mutex<TraceBuf>,
    recording: AtomicBool,
    tracing_on: AtomicBool,
}

impl Obs {
    /// Creates a hub with recording and tracing disabled.
    pub fn new() -> ObsHandle {
        Arc::new(Obs {
            registry: Registry::new(),
            recorder: Mutex::new(Recorder::new()),
            trace: Mutex::new(TraceBuf::default()),
            recording: AtomicBool::new(false),
            tracing_on: AtomicBool::new(false),
        })
    }

    /// Enables or disables recorder snapshots.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether snapshots are currently recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Enables or disables trace-event capture.
    pub fn set_tracing(&self, on: bool) {
        self.tracing_on.store(on, Ordering::Relaxed);
    }

    /// Whether trace events are currently captured.
    pub fn tracing(&self) -> bool {
        self.tracing_on.load(Ordering::Relaxed)
    }

    /// Takes a recorder snapshot of every registered metric at sim time
    /// `now`. No-op unless recording is enabled.
    pub fn snapshot(&self, now: f64) {
        if self.recording() {
            self.recorder.lock().snapshot(now, &self.registry);
        }
    }

    /// Records a complete trace span (no-op unless tracing is enabled).
    pub fn trace_complete(&self, name: &'static str, cat: &'static str, ts: f64, dur: f64) {
        if self.tracing() {
            self.trace.lock().complete(name, cat, ts, dur);
        }
    }

    /// Records an instant trace event (no-op unless tracing is enabled).
    pub fn trace_instant(&self, name: &'static str, cat: &'static str, ts: f64) {
        if self.tracing() {
            self.trace.lock().instant(name, cat, ts);
        }
    }

    /// Clones the recorded series out of the recorder.
    pub fn recorder_series(&self) -> Vec<Series> {
        self.recorder.lock().series().to_vec()
    }

    /// Number of snapshots taken so far.
    pub fn snapshots(&self) -> u64 {
        self.recorder.lock().snapshots()
    }

    /// Renders captured trace events as chrome://tracing JSON.
    pub fn chrome_trace(&self) -> String {
        self.trace.lock().chrome_json()
    }

    /// Number of trace events captured (and dropped past the buffer cap).
    pub fn trace_counts(&self) -> (usize, u64) {
        let t = self.trace.lock();
        (t.events().len(), t.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_noop_until_recording_enabled() {
        let hub = Obs::new();
        hub.registry.counter("c").add(1);
        hub.snapshot(1.0);
        assert_eq!(hub.snapshots(), 0);
        hub.set_recording(true);
        hub.snapshot(2.0);
        assert_eq!(hub.snapshots(), 1);
        assert_eq!(hub.recorder_series().len(), 1);
    }

    #[test]
    fn tracing_is_gated() {
        let hub = Obs::new();
        hub.trace_instant("a", "t", 1.0);
        assert_eq!(hub.trace_counts(), (0, 0));
        hub.set_tracing(true);
        hub.trace_instant("a", "t", 1.0);
        hub.trace_complete("b", "t", 1.0, 0.5);
        assert_eq!(hub.trace_counts().0, 2);
        assert!(hub.chrome_trace().contains("\"ph\":\"X\""));
    }

    #[test]
    fn hub_is_shareable_across_threads() {
        let hub = Obs::new();
        let c = hub.registry.counter("shared");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
