//! Transport configuration.

use std::time::Duration;

/// Tunables for one OpenFlow connection (and for the endpoints that own
/// fleets of them).
///
/// The send queue is deliberately bounded: under a control-plane flood the
/// paper's whole point is that the channel saturates, and an unbounded
/// queue would hide that as unbounded memory growth. When the queue is full
/// a send fails fast, is counted as [`crate::CountersSnapshot::sends_blocked`]
/// and the frame is shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Maximum encoded frames waiting for the connection's writer task
    /// (frames the writer has already taken for its next `write_all` no
    /// longer count).
    pub send_queue_cap: usize,
    /// How often an idle connection probes its peer with `echo_request`.
    pub echo_interval: Duration,
    /// Silence on the receive side longer than this declares the peer dead.
    pub liveness_timeout: Duration,
    /// Budget for the HELLO/FEATURES handshake on a fresh connection.
    pub handshake_timeout: Duration,
    /// Budget for the TCP connect itself.
    pub connect_timeout: Duration,
    /// First retry delay after a failed connect or a dead connection.
    pub reconnect_base: Duration,
    /// Ceiling for the exponential backoff between retries.
    pub reconnect_max: Duration,
}

impl Default for ChannelConfig {
    fn default() -> ChannelConfig {
        ChannelConfig {
            send_queue_cap: 256,
            echo_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(3),
            handshake_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            reconnect_base: Duration::from_millis(25),
            reconnect_max: Duration::from_secs(1),
        }
    }
}

impl ChannelConfig {
    /// Sets the bounded send-queue capacity.
    pub fn with_send_queue_cap(mut self, cap: usize) -> ChannelConfig {
        assert!(cap > 0, "send queue capacity must be positive");
        self.send_queue_cap = cap;
        self
    }

    /// Sets the keepalive probe interval.
    pub fn with_echo_interval(mut self, interval: Duration) -> ChannelConfig {
        self.echo_interval = interval;
        self
    }

    /// Sets the receive-silence liveness bound.
    pub fn with_liveness_timeout(mut self, timeout: Duration) -> ChannelConfig {
        self.liveness_timeout = timeout;
        self
    }

    /// Sets the reconnect backoff range.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> ChannelConfig {
        assert!(base <= max, "backoff base must not exceed the cap");
        self.reconnect_base = base;
        self.reconnect_max = max;
        self
    }
}

/// Doubles `current` toward [`ChannelConfig::reconnect_max`].
pub(crate) fn next_backoff(config: &ChannelConfig, current: Duration) -> Duration {
    (current * 2).min(config.reconnect_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ChannelConfig::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(70));
        let mut d = cfg.reconnect_base;
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.push(d);
            d = next_backoff(&cfg, d);
        }
        assert_eq!(
            seen,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(70),
                Duration::from_millis(70),
            ]
        );
    }
}
