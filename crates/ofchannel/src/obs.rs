//! Bridge from [`ChannelCounters`](crate::counters::ChannelCounters) to the
//! workspace observability hub.
//!
//! The transport tasks already keep lock-free counters per endpoint;
//! [`ChannelObs`] registers matching gauges against an [`obs::Registry`] and
//! mirrors a [`CountersSnapshot`] into them on demand (pull model — call
//! [`ChannelObs::publish`] from whatever cadence the harness uses, e.g. each
//! poll loop). Unlike the simulated layers these values advance on the real
//! clock, so they are excluded from determinism-gated timelines and serve
//! live-mode dashboards instead.

use crate::counters::CountersSnapshot;

/// Obs gauges for one endpoint's transport counters.
#[derive(Debug, Clone)]
pub struct ChannelObs {
    frames_in: obs::Gauge,
    frames_out: obs::Gauge,
    bytes_in: obs::Gauge,
    bytes_out: obs::Gauge,
    decode_errors: obs::Gauge,
    reconnects: obs::Gauge,
    connect_failures: obs::Gauge,
    sends_blocked: obs::Gauge,
    send_queue_hwm: obs::Gauge,
    keepalive_timeouts: obs::Gauge,
    budget_exhausted: obs::Gauge,
    sends_oversize: obs::Gauge,
}

impl ChannelObs {
    /// Registers gauges named `<prefix>.frames_in`, `<prefix>.reconnects`
    /// etc. against `registry`. Use a distinct prefix per endpoint (e.g.
    /// `"ofchannel.switch"` / `"ofchannel.ctrl"`).
    pub fn new(registry: &obs::Registry, prefix: &str) -> ChannelObs {
        let g = |field: &str| registry.gauge(&format!("{prefix}.{field}"));
        ChannelObs {
            frames_in: g("frames_in"),
            frames_out: g("frames_out"),
            bytes_in: g("bytes_in"),
            bytes_out: g("bytes_out"),
            decode_errors: g("decode_errors"),
            reconnects: g("reconnects"),
            connect_failures: g("connect_failures"),
            sends_blocked: g("sends_blocked"),
            send_queue_hwm: g("send_queue_hwm"),
            keepalive_timeouts: g("keepalive_timeouts"),
            budget_exhausted: g("budget_exhausted"),
            sends_oversize: g("sends_oversize"),
        }
    }

    /// Mirrors `snap` into the registered gauges.
    pub fn publish(&self, snap: &CountersSnapshot) {
        self.frames_in.set(snap.frames_in as f64);
        self.frames_out.set(snap.frames_out as f64);
        self.bytes_in.set(snap.bytes_in as f64);
        self.bytes_out.set(snap.bytes_out as f64);
        self.decode_errors.set(snap.decode_errors as f64);
        self.reconnects.set(snap.reconnects as f64);
        self.connect_failures.set(snap.connect_failures as f64);
        self.sends_blocked.set(snap.sends_blocked as f64);
        self.send_queue_hwm.set(snap.send_queue_hwm as f64);
        self.keepalive_timeouts.set(snap.keepalive_timeouts as f64);
        self.budget_exhausted.set(snap.budget_exhausted as f64);
        self.sends_oversize.set(snap.sends_oversize as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_snapshot_into_registry() {
        let hub = obs::Obs::new();
        let bridge = ChannelObs::new(&hub.registry, "ofchannel.switch");
        let snap = CountersSnapshot {
            frames_in: 7,
            frames_out: 3,
            bytes_in: 700,
            bytes_out: 120,
            sends_blocked: 2,
            send_queue_hwm: 9,
            reconnects: 1,
            ..CountersSnapshot::default()
        };
        bridge.publish(&snap);
        assert_eq!(hub.registry.gauge("ofchannel.switch.frames_in").get(), 7.0);
        assert_eq!(
            hub.registry.gauge("ofchannel.switch.send_queue_hwm").get(),
            9.0
        );
        assert_eq!(hub.registry.gauge("ofchannel.switch.reconnects").get(), 1.0);
        // One gauge per snapshot field was registered.
        assert_eq!(hub.registry.len(), 12);
    }
}
