//! Switch resource profiles calibrated to the paper's two test environments.
//!
//! The paper evaluates on (i) a Mininet software switch and (ii) a LinkSys
//! WRT54GL running Pantou/OpenWRT with a software flow table. Each profile
//! captures the resources the saturation attack contends for: datapath CPU
//! (per-packet and per-byte costs), the packet buffer that `packet_in`
//! buffering consumes, and the data-to-control channel.

/// Resource model of one OpenFlow switch.
///
/// The datapath is a single server: each packet occupies it for
/// `per_packet_cost + wire_len * per_byte_cost` seconds on a flow-table hit,
/// plus `wildcard_hit_cost` when the winning rule is not an exact match (a
/// software flow table fast-paths exact entries but takes a slow path for
/// wildcard rules — the cause of the gentle post-200 PPS decline in the
/// paper's Fig. 11), or `miss_cost` extra on a table miss (buffering the
/// packet and constructing a `packet_in` is far more expensive than
/// forwarding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchProfile {
    /// Fixed CPU seconds consumed per forwarded packet.
    pub per_packet_cost: f64,
    /// CPU seconds consumed per forwarded byte (inverse of line rate).
    pub per_byte_cost: f64,
    /// Extra CPU seconds when the winning rule is a wildcard (software
    /// flow-table slow path). Zero when the switch has TCAM.
    pub wildcard_hit_cost: f64,
    /// Extra CPU seconds to handle a table miss (buffer + `packet_in`).
    pub miss_cost: f64,
    /// Packet-buffer slots for pending `packet_in`s; once full, `packet_in`
    /// messages carry whole packets (amplification).
    pub buffer_slots: usize,
    /// Seconds a buffered packet is held before being dropped if the
    /// controller never responds.
    pub buffer_timeout: f64,
    /// Ingress queue length in packets; arrivals beyond it are tail-dropped.
    pub ingress_queue: usize,
    /// Flow-table capacity (TCAM/software table size).
    pub table_capacity: usize,
    /// Data-to-control channel bandwidth, bytes per second.
    pub channel_bandwidth: f64,
    /// Data-to-control channel one-way latency, seconds.
    pub channel_latency: f64,
}

impl SwitchProfile {
    /// The Mininet-like software switch of the paper's Fig. 10.
    ///
    /// Calibration: benign bulk traffic achieves ~1.7 Gbps with an idle
    /// datapath; table-miss handling is expensive enough that ~130 misses/s
    /// steal half the datapath and ~500 misses/s leave it dysfunctional.
    pub fn software() -> SwitchProfile {
        SwitchProfile {
            per_packet_cost: 250e-9,
            // Calibrated so the measured closed-loop goodput (data plus
            // reverse acks through the same datapath) lands at the paper's
            // ~1.7 Gbps.
            per_byte_cost: 1.0 / 230e6,
            wildcard_hit_cost: 0.0,
            // 130/s * 3.8 ms ≈ 0.5 of the datapath; 500/s ≈ 1.9 (collapse).
            miss_cost: 3.8e-3,
            buffer_slots: 512,
            buffer_timeout: 2.0,
            ingress_queue: 2048,
            table_capacity: 65536,
            channel_bandwidth: 12.5e6, // 100 Mbps loopback channel
            channel_latency: 0.3e-3,
        }
    }

    /// The LinkSys WRT54GL hardware switch of the paper's Fig. 11.
    ///
    /// Calibration: ~8.4 Mbps forwarding; ~150 misses/s halve it and
    /// ~1000 misses/s kill it. The switch has no TCAM — wildcard-rule hits
    /// take a software-table slow path, producing the slow bandwidth decline
    /// beyond 200 PPS even with FloodGuard active.
    pub fn hardware() -> SwitchProfile {
        SwitchProfile {
            per_packet_cost: 20e-6,
            // Calibrated so measured closed-loop goodput lands at the
            // paper's ~8.4 Mbps.
            per_byte_cost: 1.0 / 1.35e6,
            // Wildcard (migration-rule) hits: linear-scan software table.
            wildcard_hit_cost: 260e-6,
            // 150/s * 3.3 ms ≈ 0.5; 1000/s ≈ 3.3 (collapse).
            miss_cost: 3.3e-3,
            buffer_slots: 256,
            buffer_timeout: 2.0,
            ingress_queue: 512,
            table_capacity: 4096,
            channel_bandwidth: 1.25e6, // 10 Mbps management port
            channel_latency: 1e-3,
        }
    }

    /// Nominal line rate in bits per second (what an unloaded bulk flow of
    /// MTU-sized packets achieves).
    pub fn line_rate_bps(&self, mtu: usize) -> f64 {
        let per_packet = self.per_packet_cost + mtu as f64 * self.per_byte_cost;
        (mtu as f64 * 8.0) / per_packet
    }

    /// Datapath seconds to forward one packet of `len` bytes on a hit.
    pub fn hit_cost(&self, len: usize, wildcard: bool) -> f64 {
        self.per_packet_cost
            + len as f64 * self.per_byte_cost
            + if wildcard {
                self.wildcard_hit_cost
            } else {
                0.0
            }
    }

    /// Datapath seconds to process one packet of `len` bytes on a miss.
    pub fn miss_total_cost(&self, len: usize) -> f64 {
        self.per_packet_cost + len as f64 * self.per_byte_cost + self.miss_cost
    }
}

impl Default for SwitchProfile {
    fn default() -> Self {
        SwitchProfile::software()
    }
}

/// Resource model of the controller machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerProfile {
    /// Fixed platform cost per OpenFlow message, seconds (event dispatch,
    /// connection handling), before application handlers run.
    pub dispatch_cost: f64,
    /// Pending-message queue length; beyond it messages are dropped
    /// (models socket buffer exhaustion under saturation).
    pub queue_limit: usize,
}

impl Default for ControllerProfile {
    fn default() -> Self {
        ControllerProfile {
            dispatch_cost: 120e-6,
            queue_limit: 20000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_line_rate_above_goodput_target() {
        // Raw line rate sits a little above the ~1.7 Gbps measured goodput
        // (acks share the datapath).
        let bps = SwitchProfile::software().line_rate_bps(1500);
        assert!((1.6e9..2.2e9).contains(&bps), "line rate {bps}");
    }

    #[test]
    fn hardware_line_rate_above_goodput_target() {
        let bps = SwitchProfile::hardware().line_rate_bps(1500);
        assert!((9e6..12e6).contains(&bps), "line rate {bps}");
    }

    #[test]
    fn software_half_bandwidth_near_130_pps() {
        // Misses per second that consume half the datapath.
        let p = SwitchProfile::software();
        let half_pps = 0.5 / p.miss_total_cost(64);
        assert!((110.0..150.0).contains(&half_pps), "half at {half_pps} pps");
    }

    #[test]
    fn software_collapse_before_500_pps() {
        let p = SwitchProfile::software();
        assert!(500.0 * p.miss_total_cost(64) > 1.5, "500 pps must saturate");
    }

    #[test]
    fn hardware_half_bandwidth_near_150_pps() {
        let p = SwitchProfile::hardware();
        let half_pps = 0.5 / p.miss_total_cost(64);
        assert!((125.0..175.0).contains(&half_pps), "half at {half_pps} pps");
    }

    #[test]
    fn hardware_collapse_by_1000_pps() {
        let p = SwitchProfile::hardware();
        assert!(1000.0 * p.miss_total_cost(64) > 2.0);
    }

    #[test]
    fn miss_far_more_expensive_than_hit() {
        for p in [SwitchProfile::software(), SwitchProfile::hardware()] {
            assert!(p.miss_total_cost(64) > 10.0 * p.hit_cost(64, false));
        }
    }

    #[test]
    fn wildcard_hits_cheaper_than_misses() {
        let p = SwitchProfile::hardware();
        assert!(p.hit_cost(64, true) < p.miss_total_cost(64) / 5.0);
        // And the software profile pays no wildcard penalty (TCAM-like).
        assert_eq!(
            SwitchProfile::software().hit_cost(64, true),
            SwitchProfile::software().hit_cost(64, false)
        );
    }
}
