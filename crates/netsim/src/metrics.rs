//! Measurement infrastructure: bandwidth meters and CPU-utilization
//! buckets.

/// One `(time, value)` sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time in seconds.
    pub t: f64,
    /// Observed value.
    pub v: f64,
}

/// Accumulates byte deliveries and reports achieved bandwidth.
///
/// The meter keeps sums, not a log: its total, and the bytes of each window
/// declared with [`BandwidthMeter::watch`] before the deliveries it should
/// count. Its memory is one entry per declared window, however many packets
/// arrive.
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    /// `(from, to, bytes)` of each declared window `[from, to)`.
    windows: Vec<(f64, f64, u64)>,
    total_bytes: u64,
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> BandwidthMeter {
        BandwidthMeter::default()
    }

    /// Declares the window `[from, to)` whose bandwidth [`Self::bps_in`]
    /// will be asked for. Only deliveries recorded after the declaration
    /// count, so declare it before the run. Declaring a window twice keeps
    /// one.
    pub fn watch(&mut self, from: f64, to: f64) {
        if !self.windows.iter().any(|w| w.0 == from && w.1 == to) {
            self.windows.push((from, to, 0));
        }
    }

    /// Records `bytes` delivered at time `t`.
    pub fn record(&mut self, t: f64, bytes: u64) {
        self.total_bytes += bytes;
        for (from, to, sum) in &mut self.windows {
            if t >= *from && t < *to {
                *sum += bytes;
            }
        }
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Achieved bandwidth in bits per second over the window `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `[from, to)` is a non-empty window that was not declared
    /// with [`Self::watch`]: the meter kept no deliveries to answer from.
    pub fn bps_in(&self, from: f64, to: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let Some(&(_, _, bytes)) = self.windows.iter().find(|w| w.0 == from && w.1 == to) else {
            panic!(
                "BandwidthMeter::bps_in({from}, {to}): window not declared; \
                 call watch({from}, {to}) before the run"
            );
        };
        bytes as f64 * 8.0 / (to - from)
    }
}

/// Per-bucket CPU-time accounting; reports utilization per bucket.
///
/// Used to regenerate the paper's Fig. 12: each controller application's CPU
/// utilization over time under the flooding attack.
///
/// Buckets are a dense vector indexed by bucket number, grown on demand: the
/// engine adds to a switch's tracker on every packet it serves, and an index
/// is all that costs. Memory is one `f64` per `bucket_width` of simulated
/// time up to the latest bucket touched (a tracker never added to holds
/// none) — less than a map entry per busy bucket, more only for a tracker
/// touched rarely over a long run.
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    bucket_width: f64,
    buckets: Vec<f64>,
}

impl UtilizationTracker {
    /// Creates a tracker with the given bucket width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive.
    pub fn new(bucket_width: f64) -> UtilizationTracker {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        UtilizationTracker {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// Adds `cpu_seconds` of busy time starting at time `t`.
    ///
    /// Busy intervals spanning bucket boundaries are split proportionally.
    pub fn add(&mut self, t: f64, cpu_seconds: f64) {
        let start = t.max(0.0);
        let mut remaining = cpu_seconds.max(0.0);
        let mut idx = (start / self.bucket_width) as u64;
        let mut cursor = start;
        while remaining > 0.0 {
            let bucket_end = (idx + 1) as f64 * self.bucket_width;
            // `max(0)` and the unconditional index advance guarantee
            // progress even when `cursor` sits within float epsilon of a
            // bucket boundary.
            let available = (bucket_end - cursor).max(0.0);
            let chunk = remaining.min(available);
            if chunk > 0.0 {
                let i = usize::try_from(idx).expect("bucket index fits memory");
                if i >= self.buckets.len() {
                    self.buckets.resize(i + 1, 0.0);
                }
                self.buckets[i] += chunk;
                remaining -= chunk;
            }
            cursor = bucket_end;
            idx += 1;
        }
    }

    /// Utilization (0..=1, busy time over bucket width) per bucket over
    /// `[0, until)`.
    pub fn utilization_series(&self, until: f64) -> Vec<Sample> {
        let n = (until / self.bucket_width).ceil() as u64;
        (0..n)
            .map(|idx| Sample {
                t: idx as f64 * self.bucket_width,
                v: self.busy(idx) / self.bucket_width,
            })
            .collect()
    }

    /// Utilization of the bucket containing time `t`.
    pub fn utilization_at(&self, t: f64) -> f64 {
        let idx = (t.max(0.0) / self.bucket_width) as u64;
        self.busy(idx) / self.bucket_width
    }

    /// Busy seconds recorded in bucket `idx` (zero if never touched).
    fn busy(&self, idx: u64) -> f64 {
        usize::try_from(idx)
            .ok()
            .and_then(|i| self.buckets.get(i))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn bandwidth_meter_bps() {
        let mut m = BandwidthMeter::new();
        m.watch(0.0, 1.0);
        m.watch(5.0, 6.0);
        m.watch(0.0, 1.0);
        // 1 MB over one second = 8 Mbps.
        for i in 0..10 {
            m.record(0.1 * f64::from(i), 100_000);
        }
        m.record(1.0, 7);
        let bps = m.bps_in(0.0, 1.0);
        assert!((bps - 8e6).abs() < 1.0, "bps={bps}");
        assert_eq!(m.total_bytes(), 1_000_007);
        assert_eq!(m.bps_in(5.0, 6.0), 0.0);
        assert_eq!(m.bps_in(1.0, 1.0), 0.0);
        assert_eq!(m.windows.len(), 2, "a window declared twice is kept once");
    }

    #[test]
    #[should_panic(expected = "window not declared")]
    fn bandwidth_meter_refuses_an_undeclared_window() {
        let mut m = BandwidthMeter::new();
        m.watch(0.0, 1.0);
        m.record(0.5, 100);
        let _ = m.bps_in(0.0, 2.0);
    }

    /// `BandwidthMeter::bps_in` as it was over a log of every delivery: the
    /// reference the declared windows are held to, bit for bit.
    fn bps_from_log(log: &[(f64, u64)], from: f64, to: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bytes: u64 = log
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, b)| *b)
            .sum();
        bytes as f64 * 8.0 / (to - from)
    }

    proptest::proptest! {
        /// Deliveries in any order, on and around the window edges: each
        /// declared window reads the bits a full delivery log would give.
        #[test]
        fn declared_windows_match_the_log_bit_for_bit(
            windows in proptest::collection::vec((0.0f64..4.0, 0.0f64..4.0), 1..4),
            deliveries in proptest::collection::vec(
                (
                    proptest::prop_oneof![0.0f64..4.5, proptest::strategy::Just(1.0)],
                    0u64..100_000,
                ),
                0..300,
            ),
        ) {
            let mut meter = BandwidthMeter::new();
            for &(from, to) in &windows {
                meter.watch(from, to);
            }
            for &(t, bytes) in &deliveries {
                meter.record(t, bytes);
            }
            for &(from, to) in &windows {
                proptest::prop_assert_eq!(
                    meter.bps_in(from, to).to_bits(),
                    bps_from_log(&deliveries, from, to).to_bits()
                );
            }
            proptest::prop_assert_eq!(
                meter.total_bytes(),
                deliveries.iter().map(|&(_, b)| b).sum::<u64>()
            );
        }
    }

    #[test]
    fn utilization_tracker_splits_across_buckets() {
        let mut u = UtilizationTracker::new(0.1);
        // 200 ms of busy time starting at t=0.05 spans three buckets:
        // 50 ms in [0,0.1), 100 ms in [0.1,0.2), 50 ms in [0.2,0.3).
        u.add(0.05, 0.2);
        let s = u.utilization_series(0.3);
        assert_eq!(s.len(), 3);
        assert!((s[0].v - 0.5).abs() < 1e-9);
        assert!((s[1].v - 1.0).abs() < 1e-9);
        assert!((s[2].v - 0.5).abs() < 1e-9);
        assert!((u.utilization_at(0.15) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn utilization_tracker_rejects_zero_width() {
        let _ = UtilizationTracker::new(0.0);
    }

    /// `UtilizationTracker::add` as it was over a `BTreeMap` of buckets: the
    /// reference the dense buckets are held to, bit for bit.
    fn add_to_map(buckets: &mut BTreeMap<u64, f64>, width: f64, t: f64, cpu_seconds: f64) {
        let start = t.max(0.0);
        let mut remaining = cpu_seconds.max(0.0);
        let mut idx = (start / width) as u64;
        let mut cursor = start;
        while remaining > 0.0 {
            let bucket_end = (idx + 1) as f64 * width;
            let available = (bucket_end - cursor).max(0.0);
            let chunk = remaining.min(available);
            if chunk > 0.0 {
                *buckets.entry(idx).or_insert(0.0) += chunk;
                remaining -= chunk;
            }
            cursor = bucket_end;
            idx += 1;
        }
    }

    proptest::proptest! {
        /// Out-of-order times, busy intervals spanning several buckets,
        /// zero-length and negative adds: every bucket holds the same bits
        /// as the map would, so every series built on it does.
        #[test]
        fn dense_buckets_match_the_map_bit_for_bit(
            width in proptest::prop_oneof![
                proptest::strategy::Just(0.05),
                proptest::strategy::Just(0.1),
                proptest::strategy::Just(0.013),
                proptest::strategy::Just(1.0),
            ],
            adds in proptest::collection::vec(
                (
                    -0.5f64..6.0,
                    proptest::prop_oneof![
                        proptest::strategy::Just(0.0),
                        -0.01f64..0.0,
                        0.0f64..1e-4,
                        0.0f64..0.5,
                    ],
                ),
                0..200,
            ),
        ) {
            let mut tracker = UtilizationTracker::new(width);
            let mut map = BTreeMap::new();
            for &(t, cpu) in &adds {
                tracker.add(t, cpu);
                add_to_map(&mut map, width, t, cpu);
            }
            let until = 7.0;
            let n = (until / width).ceil() as u64;
            let expected: Vec<(u64, u64)> = (0..n)
                .map(|idx| {
                    let t = idx as f64 * width;
                    let v = map.get(&idx).copied().unwrap_or(0.0) / width;
                    (t.to_bits(), v.to_bits())
                })
                .collect();
            let got: Vec<(u64, u64)> = tracker
                .utilization_series(until)
                .iter()
                .map(|s| (s.t.to_bits(), s.v.to_bits()))
                .collect();
            proptest::prop_assert_eq!(got, expected);
            for &(t, _) in &adds {
                for probe in [t, t + width * 0.5, t + width * 3.0] {
                    let idx = (probe.max(0.0) / width) as u64;
                    let v = map.get(&idx).copied().unwrap_or(0.0) / width;
                    proptest::prop_assert_eq!(tracker.utilization_at(probe).to_bits(), v.to_bits());
                }
            }
        }
    }
}
