//! Saturation-attack detection (paper §IV-C1).
//!
//! Pure rate thresholds are easy to game by slow-ramping attackers, so the
//! detector combines the real-time `packet_in` rate with infrastructure
//! utilization (switch buffer memory and controller CPU) into a weighted
//! anomaly score.

use std::collections::VecDeque;

use crate::config::DetectionConfig;

/// Most runs the rate window holds: 4096 `(stamp, count)` runs, 64 KiB,
/// plus at most 2 KiB of ring capacity for the merged ones.
///
/// Below the cap the window is exact. An arrival whose stamp is bit-equal
/// to the newest run's joins it; any other arrival opens a run of its own.
/// Equal stamps are contiguous, so each run leaves the window all at once
/// under the same `now - stamp > window` test a per-arrival queue applies
/// to each of its elements, and the rate is bit-identical to that queue's.
///
/// At the cap, the oldest run merges into the newest merged run if their
/// stamps fall in the same of the window's [`FOLD_CELLS`] time cells, and
/// becomes a merged run of its own otherwise (repeating until one merge
/// frees a slot). A merge keeps the newer stamp, so a merged arrival can
/// only stay in the window longer than it should, never shorter: the rate
/// over-counts and never under-counts. A merged run holds arrivals of one
/// cell only, so the rate over-counts by at most the arrivals of the one
/// cell the window's edge cuts: 1/64 of a window at a steady rate.
///
/// The score does not change at the cap. The window spans at most
/// `FOLD_CELLS + 2` cells, and merged runs have strictly increasing cells,
/// so a merged run has at least `WINDOW_RUNS - FOLD_CELLS - 2` newer runs,
/// and it keeps them while it is in the window (eviction takes the oldest
/// first; a merge is followed by a push). Each of these runs, and the
/// merged one, holds an arrival at its own stamp, so while the rate
/// over-counts at all the window really holds at least 4031 arrivals:
/// 16 124 packets/s at the default 0.25 s. The score's rate term saturates
/// at 2 × `rate_capacity_pps`, so the score — and [`Detector::is_over`],
/// whose calm threshold is below that — is exact whenever
/// `2 · rate_capacity_pps · window ≤ 4031`: up to 8062 packets/s of
/// capacity at the default window, which covers the default 60 and fgbench
/// `live_attack`'s 2000.
const WINDOW_RUNS: usize = 4096;

/// Time cells per window that bound how far a merge at the cap may move an
/// arrival (see [`WINDOW_RUNS`]).
const FOLD_CELLS: usize = 64;

/// The attack detector.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectionConfig,
    /// `(stamp, count)` runs of `packet_in` arrivals, oldest first.
    arrivals: VecDeque<(f64, u64)>,
    /// Runs merged at the cap, oldest first, all older than `arrivals`: one
    /// per cell, so at most `FOLD_CELLS + 2`. With `arrivals`, at most
    /// [`WINDOW_RUNS`] runs.
    merged: VecDeque<(f64, u64)>,
    /// The sum of both rings' counts.
    in_window: u64,
    buffer_utilization: f64,
    datapath_utilization: f64,
    controller_utilization: f64,
    utilization_at: Option<f64>,
    calm_since: Option<f64>,
    last_score: f64,
    /// Peak-hold state: the highest instantaneous score seen recently and
    /// when it was seen (see [`Detector::held_score`]).
    held_peak: f64,
    held_at: f64,
}

impl Detector {
    /// Creates a detector.
    pub fn new(config: DetectionConfig) -> Detector {
        Detector {
            config,
            arrivals: VecDeque::new(),
            merged: VecDeque::new(),
            in_window: 0,
            buffer_utilization: 0.0,
            datapath_utilization: 0.0,
            controller_utilization: 0.0,
            utilization_at: None,
            calm_since: None,
            last_score: 0.0,
            held_peak: 0.0,
            held_at: 0.0,
        }
    }

    /// Records one `packet_in` arrival (or one migrated-packet arrival at
    /// the cache once migration is active).
    pub fn record_packet_in(&mut self, now: f64) {
        // Expired runs leave first, so the cap counts only live ones.
        self.evict(now);
        self.in_window += 1;
        match self.arrivals.back_mut() {
            Some((stamp, count)) if stamp.to_bits() == now.to_bits() => *count += 1,
            _ => {
                if self.arrivals.len() + self.merged.len() == WINDOW_RUNS {
                    self.merge_oldest();
                }
                self.arrivals.push_back((now, 1));
            }
        }
    }

    /// Frees one slot of a full window (see [`WINDOW_RUNS`]).
    fn merge_oldest(&mut self) {
        let per_second = FOLD_CELLS as f64 / self.config.window;
        // Stamps are not negative, so `as` floors them, without the library
        // call `f64::floor` makes on a baseline x86-64 build.
        let cell = |stamp: f64| (stamp * per_second) as i64;
        while let Some(run) = self.arrivals.pop_front() {
            match self.merged.back_mut() {
                Some(last) if cell(last.0) == cell(run.0) => {
                    last.0 = last.0.max(run.0);
                    last.1 += run.1;
                    return;
                }
                _ => self.merged.push_back(run),
            }
        }
        // Every run sat in a cell of its own, which takes stamps out of
        // order. Fold the oldest into the next.
        let (stamp, count) = self.merged.pop_front().expect("a full window");
        let next = self.merged.front_mut().expect("a full window");
        next.0 = next.0.max(stamp);
        next.1 += count;
    }

    /// Feeds infrastructure utilization from telemetry, stamped with the
    /// arrival time so a dead feed decays instead of freezing (see
    /// [`Detector::staleness_factor`]).
    pub fn record_utilization(&mut self, buffer: f64, datapath: f64, controller: f64, now: f64) {
        self.buffer_utilization = buffer.clamp(0.0, 1.0);
        self.datapath_utilization = datapath.clamp(0.0, 1.0);
        self.controller_utilization = controller.clamp(0.0, 1.0);
        self.utilization_at = Some(now);
    }

    /// Discount applied to the stored utilization readings at `now`.
    ///
    /// Fresh readings (younger than `utilization_timeout`) count in full;
    /// once telemetry stops arriving — a partition, a crashed switch — the
    /// readings decay exponentially with `utilization_half_life`, so a stale
    /// high-water mark cannot pin the anomaly score (and the FSM) in attack
    /// state forever.
    pub fn staleness_factor(&self, now: f64) -> f64 {
        match self.utilization_at {
            Some(at) if now - at > self.config.utilization_timeout => {
                let overdue = now - at - self.config.utilization_timeout;
                let factor = 0.5f64.powf(overdue / self.config.utilization_half_life.max(1e-9));
                // On very long idle stretches (10^6 s ≫ half-life) the powf
                // underflows toward +0.0, which is the correct limit — but a
                // non-finite `now` or a pathological half-life could yield
                // NaN or a factor above 1, inflating the score. Clamp so the
                // discount always lies in [0, 1] and decays monotonically.
                if factor.is_finite() {
                    factor.clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }
            _ => 1.0,
        }
    }

    fn evict(&mut self, now: f64) {
        for runs in [&mut self.merged, &mut self.arrivals] {
            while let Some(&(t, count)) = runs.front() {
                if now - t > self.config.window {
                    runs.pop_front();
                    self.in_window -= count;
                } else {
                    return;
                }
            }
        }
    }

    /// The current `packet_in` rate over the sliding window, packets/s.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.evict(now);
        self.in_window as f64 / self.config.window
    }

    /// The recent score peak discounted by `0.5^(elapsed/half_life)` — a
    /// decaying floor under the instantaneous score.
    ///
    /// Without this floor an on/off flood sees the score cliff back to
    /// zero in every off-phase: the rate window empties in `window`
    /// seconds, so a pulsed attacker alternating supra-threshold bursts
    /// with short silences would walk the FSM through a spurious
    /// end-of-attack (and a full teardown/re-migrate cycle) every period.
    /// The held score keeps the evidence of the last burst alive across
    /// the gap, and [`Detector::is_over`] refuses to declare the attack
    /// finished while the floor is still above the detection threshold.
    pub fn held_score(&self, now: f64) -> f64 {
        if self.held_peak <= 0.0 {
            return 0.0;
        }
        let half_life = self.config.score_hold_half_life.max(1e-9);
        let factor = 0.5f64.powf((now - self.held_at).max(0.0) / half_life);
        // Same guard rails as `staleness_factor`: the discount must stay in
        // [0, 1] and underflow to exactly 0 on long idle stretches.
        if factor.is_finite() {
            self.held_peak * factor.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// The current anomaly score in [0, 1+]: weighted sum of normalized
    /// rate, buffer utilization and controller utilization, floored by the
    /// decaying recent peak ([`Detector::held_score`]).
    pub fn score(&mut self, now: f64) -> f64 {
        let rate = self.rate(now);
        self.score_at_rate(rate, now)
    }

    /// [`Detector::score`] with the window's rate given.
    fn score_at_rate(&mut self, rate: f64, now: f64) -> f64 {
        // Guard the capacity divisor: a zero-capacity misconfiguration would
        // make 0/0 = NaN here, and `NaN.min(2.0)` silently yields 2.0.
        let rate_term = (rate / self.config.rate_capacity_pps.max(1e-9)).min(2.0);
        let fresh = self.staleness_factor(now);
        // The idle baseline is 0: with no arrivals in the window and decayed
        // utilization the score must settle at exactly 0.0, never below it.
        let instant = (self.config.rate_weight * rate_term
            + fresh
                * (self.config.buffer_weight * self.buffer_utilization
                    + self.config.datapath_weight * self.datapath_utilization
                    + self.config.controller_weight * self.controller_utilization))
            .max(0.0);
        let score = instant.max(self.held_score(now));
        if instant >= score {
            // A fresh peak (or a tie): restart the hold clock from here.
            self.held_peak = instant;
            self.held_at = now;
        }
        self.last_score = score;
        score
    }

    /// Whether the anomaly score currently signals an attack.
    pub fn is_attack(&mut self, now: f64) -> bool {
        self.score(now) >= self.config.score_threshold
    }

    /// Attack-end test against an externally observed flooding rate (once
    /// migration is active, the cache sees the flood, not the controller).
    ///
    /// Returns `true` when the rate has stayed below the end threshold for
    /// the configured hysteresis *and* the held anomaly score has decayed
    /// below the detection threshold — a pulsed flood whose bursts keep
    /// refreshing the peak cannot slip an end-of-attack through one of its
    /// off-phases. Declaring the attack over releases the hold.
    pub fn is_over(&mut self, observed_rate_pps: f64, now: f64) -> bool {
        let calm = observed_rate_pps < self.config.end_fraction * self.config.rate_capacity_pps;
        match (calm, self.calm_since) {
            (false, _) => {
                self.calm_since = None;
                false
            }
            (true, None) => {
                self.calm_since = Some(now);
                false
            }
            (true, Some(since)) => {
                let over = now - since >= self.config.end_hysteresis
                    && self.held_score(now) < self.config.score_threshold;
                if over {
                    self.held_peak = 0.0;
                }
                over
            }
        }
    }

    /// Resets end-of-attack hysteresis (on re-entering defense).
    pub fn reset_end_tracking(&mut self) {
        self.calm_since = None;
    }

    /// The most recently computed score.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// The active detection configuration.
    pub fn config(&self) -> DetectionConfig {
        self.config
    }

    /// Replaces the detection configuration in place, keeping the sliding
    /// window and utilization state — the live-tuning path used by the
    /// admin API.
    pub fn set_config(&mut self, config: DetectionConfig) {
        self.config = config;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> Detector {
        Detector::new(DetectionConfig::default())
    }

    #[test]
    fn idle_is_not_attack() {
        let mut d = detector();
        assert!(!d.is_attack(0.0));
        assert_eq!(d.rate(0.0), 0.0);
    }

    #[test]
    fn flooding_rate_triggers() {
        let mut d = detector();
        // 200 pps for a window's worth of packets.
        for i in 0..50 {
            d.record_packet_in(i as f64 * 0.005);
        }
        assert!(d.rate(0.25) > 150.0);
        assert!(d.is_attack(0.25));
    }

    #[test]
    fn benign_rate_does_not_trigger() {
        let mut d = detector();
        for i in 0..5 {
            d.record_packet_in(f64::from(i) * 0.05);
        }
        assert!(!d.is_attack(0.25));
    }

    #[test]
    fn slow_attack_caught_via_utilization() {
        // The paper's point: a slow flood still fills buffers; the score
        // combines both signals.
        let mut d = detector();
        for i in 0..8 {
            d.record_packet_in(f64::from(i) * 0.03);
        }
        assert!(!d.is_attack(0.25), "rate alone below threshold");
        d.record_utilization(0.95, 0.9, 0.9, 0.25);
        assert!(d.is_attack(0.25), "utilization pushes the score over");
    }

    #[test]
    fn stale_utilization_decays_instead_of_freezing() {
        let mut d = detector();
        d.record_utilization(1.0, 1.0, 1.0, 0.0);
        assert!(d.is_attack(0.1), "fresh saturation signals attack");
        // Telemetry stops (partition). Within the timeout the reading holds…
        assert!((d.staleness_factor(0.2) - 1.0).abs() < 1e-12);
        // …then decays: after timeout + several half-lives the stale
        // high-water mark can no longer hold the score over threshold.
        assert!(d.staleness_factor(0.25 + 0.25) < 0.51);
        assert!(d.staleness_factor(0.25 + 2.0) < 0.01);
        assert!(
            !d.is_attack(3.0),
            "a dead feed must not pin the FSM in attack state"
        );
        // A new reading restores full weight.
        d.record_utilization(1.0, 1.0, 1.0, 3.0);
        assert!((d.staleness_factor(3.1) - 1.0).abs() < 1e-12);
        assert!(d.is_attack(3.1));
    }

    #[test]
    fn unfed_detector_scores_zero_utilization() {
        let mut d = detector();
        assert_eq!(d.score(5.0), 0.0);
    }

    #[test]
    fn window_eviction() {
        let mut d = detector();
        for i in 0..100 {
            d.record_packet_in(f64::from(i) * 0.001);
        }
        assert!(d.rate(0.1) > 300.0);
        // Much later the window is empty again.
        assert_eq!(d.rate(10.0), 0.0);
        assert!(!d.is_attack(10.0));
    }

    /// Satellite regression: 10^6 sim-seconds idle after an attack window.
    /// The score must decay monotonically to the idle baseline (0.0) —
    /// never underflow past it, never go non-finite, and the staleness
    /// discount must stay inside [0, 1] the whole way down.
    #[test]
    fn long_idle_decays_monotonically_to_baseline() {
        let mut d = detector();
        // Attack window: a hard flood plus saturated utilization.
        for i in 0..200 {
            d.record_packet_in(i as f64 * 0.001);
        }
        d.record_utilization(1.0, 1.0, 1.0, 0.2);
        let peak = d.score(0.2);
        assert!(peak >= 1.0, "attack window saturates the score ({peak})");

        // Idle run: sample at exponentially spaced times out to 10^6 s.
        let mut t = 0.25;
        let mut prev = d.score(t);
        while t < 1e6 {
            t *= 1.5;
            let f = d.staleness_factor(t);
            assert!(
                f.is_finite() && (0.0..=1.0).contains(&f),
                "factor {f} at t={t}"
            );
            let s = d.score(t);
            assert!(s.is_finite(), "score diverged at t={t}");
            assert!(s >= 0.0, "score underflowed the baseline at t={t}: {s}");
            assert!(
                s <= prev + 1e-12,
                "score rose while idle at t={t}: {prev} -> {s}"
            );
            prev = s;
        }
        assert_eq!(d.score(1e6), 0.0, "idle baseline is exactly zero");
        assert_eq!(d.staleness_factor(1e6), 0.0, "discount fully decayed");
        assert!(!d.is_attack(1e6));

        // Recovery is symmetric: fresh telemetry restores full weight.
        d.record_utilization(1.0, 1.0, 1.0, 1e6);
        assert!(d.is_attack(1e6 + 0.01));
    }

    #[test]
    fn zero_rate_capacity_cannot_poison_score() {
        let config = DetectionConfig {
            rate_capacity_pps: 0.0,
            ..DetectionConfig::default()
        };
        let mut d = Detector::new(config);
        let s = d.score(1.0);
        assert!(s.is_finite());
        assert_eq!(s, 0.0, "no arrivals: zero capacity must not create NaN");
        d.record_packet_in(1.0);
        let s = d.score(1.0);
        assert!(s.is_finite(), "rate term must stay finite: {s}");
    }

    #[test]
    fn end_detection_requires_hysteresis() {
        let mut d = detector();
        // Calm at t=1.0 — not over yet.
        assert!(!d.is_over(1.0, 1.0));
        // Still calm but hysteresis (0.3 s) not yet elapsed.
        assert!(!d.is_over(1.0, 1.2));
        // Calm long enough.
        assert!(d.is_over(1.0, 1.35));
    }

    #[test]
    fn end_detection_resets_on_resurgence() {
        let mut d = detector();
        assert!(!d.is_over(0.0, 1.0));
        // Flood resumes: calm clock resets.
        assert!(!d.is_over(500.0, 1.2));
        assert!(!d.is_over(0.0, 1.3));
        assert!(!d.is_over(0.0, 1.5));
        assert!(d.is_over(0.0, 1.61));
    }

    #[test]
    fn reset_end_tracking_clears_calm() {
        let mut d = detector();
        assert!(!d.is_over(0.0, 1.0));
        d.reset_end_tracking();
        assert!(!d.is_over(0.0, 1.31), "clock restarted");
    }

    /// Regression pin on the default half-lives: the stale-telemetry
    /// discount is exactly 1/2 one half-life past the timeout, and the held
    /// score is exactly half its peak one `score_hold_half_life` later.
    /// A silent change to either constant shifts every end-of-attack time
    /// in the scenario suite.
    #[test]
    fn decay_half_lives_are_pinned() {
        let config = DetectionConfig::default();
        assert_eq!(config.utilization_half_life, 0.25);
        assert_eq!(config.score_hold_half_life, 0.5);

        let mut d = Detector::new(config);
        d.record_utilization(1.0, 1.0, 1.0, 0.0);
        // timeout (0.25) + one half-life (0.25) => factor 1/2.
        assert!((d.staleness_factor(0.5) - 0.5).abs() < 1e-12);

        let mut d = Detector::new(config);
        for i in 0..50 {
            d.record_packet_in(i as f64 * 0.005);
        }
        let peak = d.score(0.25);
        assert!(peak > 0.5);
        // One hold half-life with an empty rate window => exactly peak/2.
        let held = d.held_score(0.25 + 0.5);
        assert!((held - peak / 2.0).abs() < 1e-12, "{held} vs {peak}");
        assert_eq!(d.score(0.75), held, "held floor carries the score");
    }

    #[test]
    fn held_score_floors_score_while_window_is_empty() {
        let mut d = detector();
        for i in 0..50 {
            d.record_packet_in(i as f64 * 0.005); // 200 pps burst
        }
        let peak = d.score(0.25);
        assert!(peak >= 1.0);
        // The rate window empties 0.25 s after the last packet, but the
        // score holds (decaying) instead of cliffing to zero.
        assert_eq!(d.rate(0.6), 0.0);
        let s = d.score(0.6);
        assert!(s > 0.5, "held floor keeps the score up: {s}");
        assert!(s < peak, "…but it decays");
    }

    /// The tentpole pulsed-flood defense: supra-threshold bursts separated
    /// by silences longer than the rate window must not let `is_over` fire
    /// during an off-phase (the observed rate there is 0 — calm — and the
    /// hysteresis may well have elapsed).
    #[test]
    fn pulsed_flood_cannot_end_attack_through_off_phase() {
        let mut d = detector();
        let period = 0.4; // 0.1 s burst at 300 pps, 0.3 s silence
        for burst in 0..5 {
            let t0 = burst as f64 * period;
            for i in 0..30 {
                d.record_packet_in(t0 + i as f64 * 0.1 / 30.0);
            }
            d.score(t0 + 0.1); // telemetry tick refreshes the peak-hold
            assert!(d.is_attack(t0 + 0.1), "burst {burst} over threshold");
            // Deep in the off-phase: rate is calm and by the second period
            // the hysteresis (0.3 s) has elapsed, yet the held score blocks
            // the end-of-attack.
            assert!(
                !d.is_over(0.0, t0 + period - 0.01),
                "burst {burst}: off-phase must not end the attack"
            );
        }
        // Pulses stop for real: the hold decays and the end test fires.
        d.reset_end_tracking();
        assert!(!d.is_over(0.0, 5.0 * period), "calm clock restarts");
        assert!(d.is_over(0.0, 5.0 * period + 2.0), "genuine calm ends it");
    }

    #[test]
    fn declaring_attack_over_releases_the_hold() {
        let mut d = detector();
        for i in 0..50 {
            d.record_packet_in(i as f64 * 0.005);
        }
        assert!(d.score(0.25) >= 1.0);
        assert!(!d.is_over(0.0, 3.0), "calm clock starts");
        assert!(d.is_over(0.0, 3.5), "hold decayed, hysteresis elapsed");
        assert_eq!(d.held_score(3.5), 0.0, "end-of-attack clears the hold");
        assert_eq!(d.score(3.5), 0.0, "score is back to the idle baseline");
    }

    proptest::proptest! {
        /// Satellite: under ANY pulse duty cycle, period and burst rate the
        /// score stays finite, non-negative and bounded by the structural
        /// maximum (rate term saturates at 2× its weight; each utilization
        /// term at 1× its weight) — and the held floor obeys the same bound.
        #[test]
        fn score_is_bounded_under_any_duty_cycle(
            period in 0.01f64..5.0,
            duty in 0.0f64..1.0,
            rate_pps in 0.0f64..5000.0,
            util in 0.0f64..1.0,
            cycles in 1usize..25,
        ) {
            let config = DetectionConfig::default();
            let bound = config.rate_weight * 2.0
                + config.buffer_weight
                + config.datapath_weight
                + config.controller_weight;
            let mut d = Detector::new(config);
            for c in 0..cycles {
                let t0 = c as f64 * period;
                let on = period * duty;
                let n = ((rate_pps * on) as usize).min(1500);
                for i in 0..n {
                    d.record_packet_in(t0 + on * i as f64 / n as f64);
                }
                d.record_utilization(util, util, util, t0 + on);
                for &t in &[t0 + on, t0 + period * 0.5, t0 + period] {
                    let s = d.score(t);
                    proptest::prop_assert!(s.is_finite(), "score NaN/inf at {t}");
                    proptest::prop_assert!((0.0..=bound).contains(&s), "score {s} at {t}");
                    let h = d.held_score(t);
                    proptest::prop_assert!(h.is_finite() && (0.0..=bound).contains(&h));
                }
            }
            // Long after the train stops, everything decays to the baseline.
            let end = cycles as f64 * period + 1e4;
            proptest::prop_assert_eq!(d.score(end), 0.0);
        }
    }

    /// The window as it was kept before runs: one stamp per arrival, pushed
    /// and then evicted under the same test.
    #[derive(Default)]
    struct PerArrival {
        stamps: VecDeque<f64>,
        /// Distinct stamps among `stamps` (equal ones are contiguous).
        distinct: usize,
    }

    impl PerArrival {
        fn record(&mut self, now: f64, window: f64) {
            if self.stamps.back().map(|t| t.to_bits()) != Some(now.to_bits()) {
                self.distinct += 1;
            }
            self.stamps.push_back(now);
            self.evict(now, window);
        }

        fn evict(&mut self, now: f64, window: f64) {
            while let Some(&t) = self.stamps.front() {
                if now - t > window {
                    self.stamps.pop_front();
                    if self.stamps.front().map(|f| f.to_bits()) != Some(t.to_bits()) {
                        self.distinct -= 1;
                    }
                } else {
                    break;
                }
            }
        }

        fn rate(&mut self, now: f64, window: f64) -> f64 {
            self.evict(now, window);
            self.stamps.len() as f64 / window
        }
    }

    /// Arrivals the window may hold while the rate over-counts at all (see
    /// [`WINDOW_RUNS`]).
    const SATURATED: usize = WINDOW_RUNS - FOLD_CELLS - 1;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The run-length window against a per-arrival queue, on
        /// non-decreasing streams of drain-shaped repeats (1–512 arrivals per
        /// stamp), dense distinct-stamp bursts that pass the cap, gaps longer
        /// than the window, probes in a burst's tail and window changes.
        /// Until the reference holds more distinct stamps than the cap, every
        /// reading is bit-identical; past it the rate may only over-count,
        /// and the score stays bit-identical wherever the capacity is within
        /// what the cap keeps exact.
        #[test]
        fn window_matches_a_per_arrival_queue(
            capacity in 0usize..3,
            steps in proptest::collection::vec(
                (0u8..6, 1usize..=512, 1usize..=6000, 0.0f64..1.0),
                1..40,
            ),
        ) {
            let rate_capacity_pps = [60.0, 2000.0, 1e6][capacity];
            let mut config = DetectionConfig {
                rate_capacity_pps,
                ..DetectionConfig::default()
            };
            // Windows stay below 1 s: 2 × 2000 × 1.0 ≤ SATURATED.
            let qualifies = 2.0 * rate_capacity_pps < SATURATED as f64;
            let mut d = Detector::new(config);
            let mut shadow = Detector::new(config);
            let mut reference = PerArrival::default();
            let (mut t, mut past_cap, mut diverged) = (1.0f64, false, false);
            for (kind, reps, stamps, x) in steps {
                let w = config.window;
                match kind {
                    // Drains: up to 32 stamps, 1..=reps arrivals each.
                    0 | 1 => {
                        let dt = 10f64.powf(-6.0 + 4.0 * x);
                        for j in 0..stamps.min(32) {
                            t += dt;
                            for _ in 0..1 + (j * 2_654_435_761 + reps) % reps {
                                d.record_packet_in(t);
                                reference.record(t, w);
                                past_cap |= reference.distinct > WINDOW_RUNS;
                            }
                        }
                    }
                    // A burst of distinct stamps, 1 µs to 316 µs apart.
                    2 => {
                        let dt = 10f64.powf(-6.0 + 2.5 * x);
                        for _ in 0..stamps {
                            t += dt;
                            d.record_packet_in(t);
                            reference.record(t, w);
                            past_cap |= reference.distinct > WINDOW_RUNS;
                        }
                    }
                    3 => t += w * (1.0 + 3.0 * x),
                    4 => {
                        config.window = 0.05 + 0.95 * x;
                        d.set_config(config);
                        shadow.set_config(config);
                    }
                    _ => t += w * x,
                }
                let w = config.window;
                let (rate, want) = (d.rate(t), reference.rate(t, w));
                if past_cap {
                    proptest::prop_assert!(rate >= want, "{rate} < {want} at {t}");
                    diverged |= !qualifies;
                } else {
                    proptest::prop_assert_eq!(rate.to_bits(), want.to_bits(), "rate at {}", t);
                }
                if !diverged {
                    let (score, want_score) = (d.score(t), shadow.score_at_rate(want, t));
                    proptest::prop_assert_eq!(score.to_bits(), want_score.to_bits(), "score at {}", t);
                    let want_attack = shadow.score_at_rate(want, t) >= config.score_threshold;
                    proptest::prop_assert_eq!(d.is_attack(t), want_attack, "is_attack at {}", t);
                    proptest::prop_assert_eq!(
                        d.held_score(t).to_bits(),
                        shadow.held_score(t).to_bits(),
                        "held_score at {}", t
                    );
                }
                // An empty reference means an empty window: exact again.
                if reference.stamps.is_empty() {
                    past_cap = false;
                }
            }
        }
    }

    /// Records `seconds` of arrivals at `per_second`, `per_stamp` of them
    /// sharing each stamp, checking the window's bound after every one.
    /// Returns the window's heap bytes, and the heap bytes a per-arrival
    /// queue held on the same stream.
    fn drive(per_second: f64, per_stamp: usize, seconds: f64) -> (usize, usize) {
        let mut d = detector();
        let mut reference = PerArrival::default();
        let stamps = (per_second * seconds) as usize / per_stamp;
        let run = std::mem::size_of::<(f64, u64)>();
        let bytes = |d: &Detector| (d.arrivals.capacity() + d.merged.capacity()) * run;
        for i in 0..stamps {
            let now = i as f64 * per_stamp as f64 / per_second;
            for _ in 0..per_stamp {
                d.record_packet_in(now);
                reference.record(now, d.config.window);
                assert!(d.arrivals.len() + d.merged.len() <= WINDOW_RUNS);
                assert!(d.merged.len() <= FOLD_CELLS + 2, "{per_second}/s");
                assert!(d.arrivals.capacity() <= WINDOW_RUNS, "{per_second}/s");
                assert!(d.merged.capacity() <= 2 * FOLD_CELLS, "{per_second}/s");
            }
        }
        let per_arrival = reference.stamps.capacity() * std::mem::size_of::<f64>();
        (bytes(&d), per_arrival)
    }

    /// The window's memory is fixed, whatever the attacker's rate: at most
    /// 4096 runs (64 KiB) plus 128 merged ones (2 KiB) at 5 k, 50 k and
    /// 500 k distinct-stamp arrivals/s and on a 565 k/s stream of
    /// 512-arrival drains (`live_small_state`'s shape), 2 s each.
    #[test]
    fn window_memory_is_bounded_at_any_rate() {
        for (per_second, per_stamp) in [
            (5_000.0, 1),
            (50_000.0, 1),
            (500_000.0, 1),
            (565_000.0, 512),
        ] {
            let (runs, per_arrival) = drive(per_second, per_stamp, 2.0);
            println!(
                "{per_second} arrivals/s, {per_stamp} per stamp: window {runs} B, \
                 per-arrival queue {per_arrival} B"
            );
            assert!(runs <= 66 * 1024);
            if per_stamp > 1 {
                assert!(per_arrival >= 2 << 20, "the per-arrival queue's 2 MiB");
            }
        }
    }

    /// After a flood past the cap stops, the over-count drains with the
    /// merged runs: it is never more than one cell's arrivals, and it is
    /// gone before the real count falls below what saturates the score.
    #[test]
    fn over_count_is_small_and_only_while_saturated() {
        let (per_second, window) = (500_000.0, DetectionConfig::default().window);
        let mut d = detector();
        let mut reference = PerArrival::default();
        let mut over_counted = false;
        for i in 0..250_000 {
            let now = i as f64 / per_second;
            d.record_packet_in(now);
            reference.record(now, window);
        }
        let cell = per_second * window / FOLD_CELLS as f64;
        for step in 0..=300 {
            let now = 0.5 + step as f64 * 1e-3;
            let (have, want) = (d.rate(now) * window, reference.rate(now, window) * window);
            assert!(have >= want, "under-count at {now}: {have} < {want}");
            assert!(
                have - want <= cell + 1.0,
                "over-count at {now}: {have} vs {want}"
            );
            if have > want {
                over_counted = true;
                assert!(
                    want >= SATURATED as f64,
                    "over-count at {now} with {want} real"
                );
            }
        }
        assert!(over_counted, "the flood passed the cap");
        assert_eq!(d.rate(0.8), 0.0);
    }
}
