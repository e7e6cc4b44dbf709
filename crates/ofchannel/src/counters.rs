//! Per-endpoint transport counters.
//!
//! Shared by every connection an endpoint owns and updated lock-free from
//! the reader/writer tasks, so tests and operators can observe channel
//! health (decode errors from hostile bytes, backpressure under flood,
//! reconnect churn) without stopping the endpoint.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one endpoint's connections.
#[derive(Debug, Default)]
pub struct ChannelCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    decode_errors: AtomicU64,
    reconnects: AtomicU64,
    connect_failures: AtomicU64,
    sends_blocked: AtomicU64,
    send_queue_hwm: AtomicU64,
    keepalive_timeouts: AtomicU64,
    budget_exhausted: AtomicU64,
    sends_oversize: AtomicU64,
}

/// A point-in-time copy of [`ChannelCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Frames decoded off the wire.
    pub frames_in: u64,
    /// Frames handed to the socket.
    pub frames_out: u64,
    /// Payload bytes read off the wire.
    pub bytes_in: u64,
    /// Payload bytes written to the wire.
    pub bytes_out: u64,
    /// Connections torn down because inbound bytes failed to decode.
    pub decode_errors: u64,
    /// Successful connection re-establishments (excludes the first connect).
    pub reconnects: u64,
    /// Failed connect or handshake attempts.
    pub connect_failures: u64,
    /// Sends rejected because the bounded queue was full.
    pub sends_blocked: u64,
    /// Deepest the send queue has ever been.
    pub send_queue_hwm: u64,
    /// Connections declared dead by receive-side silence.
    pub keepalive_timeouts: u64,
    /// Sends rejected because the endpoint-wide send budget was spent.
    pub budget_exhausted: u64,
    /// Sends refused because a frame of the message would be longer than
    /// its 16-bit length field can say.
    pub sends_oversize: u64,
}

impl ChannelCounters {
    /// Fresh zeroed counters.
    pub fn new() -> ChannelCounters {
        ChannelCounters::default()
    }

    pub(crate) fn record_frame_in(&self, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_frame_out(&self, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_connect_failure(&self) {
        self.connect_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_blocked(&self) {
        self.sends_blocked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.send_queue_hwm
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_keepalive_timeout(&self) {
        self.keepalive_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_budget_exhausted(&self) {
        self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_oversize(&self) {
        self.sends_oversize.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current values.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            connect_failures: self.connect_failures.load(Ordering::Relaxed),
            sends_blocked: self.sends_blocked.load(Ordering::Relaxed),
            send_queue_hwm: self.send_queue_hwm.load(Ordering::Relaxed),
            keepalive_timeouts: self.keepalive_timeouts.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            sends_oversize: self.sends_oversize.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let c = ChannelCounters::new();
        c.record_frame_in(100);
        c.record_frame_in(20);
        c.record_frame_out(8);
        c.record_decode_error();
        c.observe_queue_depth(5);
        c.observe_queue_depth(3);
        let snap = c.snapshot();
        assert_eq!(snap.frames_in, 2);
        assert_eq!(snap.bytes_in, 120);
        assert_eq!(snap.frames_out, 1);
        assert_eq!(snap.bytes_out, 8);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.send_queue_hwm, 5);
    }
}
