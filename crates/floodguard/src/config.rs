//! FloodGuard configuration.

use symexec::CompressionConfig;

/// How often the proactive rules are refreshed when application state
/// changes (the paper's §IV-D performance/accuracy tradeoff).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateStrategy {
    /// Regenerate after every observed change (highest accuracy).
    EveryChange,
    /// Regenerate after this many accumulated changes.
    Batched(u64),
    /// Regenerate at most once per interval (seconds).
    Interval(f64),
}

/// Attack-detection parameters (paper §IV-C1: the detector combines the
/// real-time `packet_in` rate with infrastructure utilization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Sliding window for rate estimation, seconds.
    pub window: f64,
    /// `packet_in` rate considered nominal capacity (normalizes the rate
    /// term of the anomaly score).
    pub rate_capacity_pps: f64,
    /// Anomaly-score threshold in (0, 1]; crossing it signals attack start.
    pub score_threshold: f64,
    /// Weight of the `packet_in`-rate term.
    pub rate_weight: f64,
    /// Weight of the switch buffer-utilization term.
    pub buffer_weight: f64,
    /// Weight of the switch datapath-utilization term (catches slow-ramp
    /// attacks that saturate the datapath below the rate trigger).
    pub datapath_weight: f64,
    /// Weight of the controller-utilization term.
    pub controller_weight: f64,
    /// Attack is declared over when the observed flooding rate stays below
    /// `end_fraction * rate_capacity_pps` for `end_hysteresis` seconds.
    pub end_fraction: f64,
    /// Seconds of calm required to declare the attack over.
    pub end_hysteresis: f64,
    /// Utilization readings older than this (seconds) are considered stale
    /// (telemetry stopped arriving — e.g. a control-channel partition) and
    /// start decaying toward zero instead of freezing at the last value.
    pub utilization_timeout: f64,
    /// Half-life (seconds) of the exponential decay applied to stale
    /// utilization readings.
    pub utilization_half_life: f64,
    /// Half-life (seconds) of the peak-hold applied to the anomaly score:
    /// the score never falls below its recent peak discounted by
    /// `0.5^(elapsed/half_life)`, and the attack-end test refuses to fire
    /// while that floor is still above `score_threshold`. An on/off flood
    /// alternating supra-threshold bursts with silences longer than the
    /// rate window therefore cannot walk the defense through a
    /// teardown/re-migrate cycle on every period.
    pub score_hold_half_life: f64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            window: 0.25,
            rate_capacity_pps: 60.0,
            score_threshold: 0.5,
            rate_weight: 0.5,
            buffer_weight: 0.1,
            datapath_weight: 0.25,
            controller_weight: 0.15,
            end_fraction: 0.2,
            end_hysteresis: 0.3,
            // Telemetry normally arrives every 0.05 s; five missed rounds
            // means the feed is gone.
            utilization_timeout: 0.25,
            utilization_half_life: 0.25,
            // Long enough that a pulsed flood's off-phase (necessarily
            // longer than the rate window) cannot fully clear the score,
            // short enough that a real calm period decays in ~1 s.
            score_hold_half_life: 0.5,
        }
    }
}

/// Data plane cache parameters (paper §IV-C2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Capacity of each of the four protocol queues, packets.
    pub queue_capacity: usize,
    /// Initial `packet_in` submission rate, packets per second.
    pub base_rate_pps: f64,
    /// Lower bound for the adaptive rate.
    pub min_rate_pps: f64,
    /// Upper bound for the adaptive rate.
    pub max_rate_pps: f64,
    /// Minimum residency of a packet in the cache, seconds: classification,
    /// queueing and `packet_in` generation on the cache machine. The paper
    /// measures ~30 ms for a TCP packet while its queue is idle under a UDP
    /// flood (Table IV's "Data Plane Cache" column).
    pub processing_delay: f64,
    /// Drop from the queue front when full (the paper's described policy:
    /// "the earliest coming packet inside the packet buffer queue will be
    /// dropped"); `false` drops the arriving packet instead (classic tail
    /// drop) — the ablation benchmark compares both.
    pub drop_front: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            queue_capacity: 1024,
            base_rate_pps: 130.0,
            min_rate_pps: 10.0,
            // Cap near the base: a 4-queue round robin at ~130 pps gives a
            // fresh benign packet a ~30 ms cache residency during a
            // single-protocol flood — the paper's Table IV cache component.
            max_rate_pps: 150.0,
            processing_delay: 0.025,
            drop_front: true,
        }
    }
}

/// Where proactive flow rules are installed (the §IV-E deployment
/// tradeoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RulePlacement {
    /// Into the switch's flow table (the default; needs TCAM headroom).
    Switch,
    /// Into the data plane cache: matching packets get priority when
    /// triggering `packet_in`s. Saves TCAM but "the system needs to
    /// sacrifice some performance for this design option" — known flows
    /// still take the cache detour.
    Cache,
}

/// What FloodGuard does when every registered data plane cache (including
/// standbys) is dead while migration is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFailPolicy {
    /// Remove the migration rules: table misses reach the controller again
    /// and traffic keeps forwarding, at the cost of re-exposing the control
    /// plane to the flood until a cache comes back.
    FailOpen,
    /// Turn the migration rules into drops: the data plane and control plane
    /// stay protected, at the cost of blackholing *new* flows until a cache
    /// comes back (established flows keep their higher-priority rules).
    FailSafe,
}

/// Failure-recovery parameters: cache failover. (A switch's table needs
/// none: FloodGuard reconciles it with what it wants on every answer.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Degradation policy when no healthy cache remains.
    pub cache_fail_policy: CacheFailPolicy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            cache_fail_policy: CacheFailPolicy::FailOpen,
        }
    }
}

/// Top-level FloodGuard configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodGuardConfig {
    /// Detection parameters.
    pub detection: DetectionConfig,
    /// Cache parameters.
    pub cache: CacheConfig,
    /// Proactive-rule refresh policy.
    pub update_strategy: UpdateStrategy,
    /// Where proactive rules live (switch TCAM vs the cache).
    pub rule_placement: RulePlacement,
    /// Cookie marking every rule FloodGuard installs (so cleanup removes
    /// exactly its own rules).
    pub cookie: u64,
    /// Target controller utilization the adaptive rate limiter steers
    /// toward.
    pub target_controller_utilization: f64,
    /// Failure recovery: cache failover.
    pub recovery: RecoveryConfig,
    /// Optional proactive-rule compression (shadow elimination, prefix
    /// merging, priority flattening, TCAM budget) applied to every
    /// converted rule set before dispatch. `None` installs the raw
    /// converted rules — the paper's behavior and the default; hardware
    /// deployments set a budget matching their switch profile's table
    /// capacity.
    pub compression: Option<CompressionConfig>,
}

impl Default for FloodGuardConfig {
    fn default() -> Self {
        FloodGuardConfig {
            detection: DetectionConfig::default(),
            cache: CacheConfig::default(),
            update_strategy: UpdateStrategy::EveryChange,
            rule_placement: RulePlacement::Switch,
            cookie: 0x000F_100D_64AD,
            target_controller_utilization: 0.5,
            recovery: RecoveryConfig::default(),
            compression: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = FloodGuardConfig::default();
        assert!(c.detection.score_threshold > 0.0 && c.detection.score_threshold <= 1.0);
        assert!(c.cache.min_rate_pps <= c.cache.base_rate_pps);
        assert!(c.cache.base_rate_pps <= c.cache.max_rate_pps);
        let weights = c.detection.rate_weight
            + c.detection.buffer_weight
            + c.detection.datapath_weight
            + c.detection.controller_weight;
        assert!((weights - 1.0).abs() < 1e-9, "weights normalized");
    }
}
