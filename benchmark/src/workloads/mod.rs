//! The four workloads and what each run of one returns.

pub mod attack;
pub mod sim;
pub mod state;

use std::path::PathBuf;

use crate::metrics;
use crate::procstat::{self, CpuPlan};
use crate::stats;
use crate::trace::Tracer;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 hosts, 64-byte packets: transport-bound.
    LiveSmallState,
    /// 1024 hosts, six applications, 1400-byte packets: application-bound.
    LiveLargeState,
    /// Flood episodes over real sockets: detector, migration, analyzer, cache.
    LiveAttack,
    /// The paper-reproduction suite and the fat-tree fabric: simulator only.
    SimRepro,
}

impl Workload {
    /// Every workload, in the order of [`metrics::WORKLOADS`], which
    /// holds their names.
    pub const ALL: [Workload; 4] = [
        Workload::LiveSmallState,
        Workload::LiveLargeState,
        Workload::LiveAttack,
        Workload::SimRepro,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        metrics::WORKLOADS[self as usize].0
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    pub fn run(self, run: &RunArgs) -> Outcome {
        match self {
            Workload::LiveSmallState => state::run(&state::SMALL, run),
            Workload::LiveLargeState => state::run(&state::LARGE, run),
            Workload::LiveAttack => attack::run(run),
            Workload::SimRepro => sim::run(run),
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
}

/// What one run returns: operations attempted and failed, the metric
/// values, and the lines it wants printed above the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, probes, artifacts, episode checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// `(metric name, value)`; end-to-end names on a plain run, per-layer
    /// names on a traced run. A per-layer metric a workload does not
    /// exercise is absent here and reported as 0.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: aliases, sample counts, reconciliation.
    pub notes: Vec<String>,
    /// Why operations failed, one line per kind.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            metrics::known(name),
            "metric {name} is not in the BENCHMARK.json table"
        );
        self.metrics.push((name, value));
    }

    /// A metric value recorded earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Adds a printed line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` attempted operations of which `bad` failed for `why`.
    pub fn check(&mut self, n: u64, bad: u64, why: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n}: {why}"));
        }
    }

    /// Counts one pass/fail check.
    pub fn expect(&mut self, ok: bool, why: &str) {
        self.check(1, u64::from(!ok), why);
    }
}

/// The latency tail a sample supports: the highest of p99, p95 and p90
/// with at least ten samples beyond it, else the maximum. Returns the
/// percentile's name too, so the output says which one was reported.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    for (name, p) in [("p99", 99.0), ("p95", 95.0), ("p90", 90.0)] {
        if sorted.len() - stats::rank(sorted.len(), p) >= 10 {
            return (name, stats::percentile(sorted, p));
        }
    }
    ("max", *sorted.last().expect("tail of an empty sample"))
}

/// Where span files go: `out/` inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Ends a traced run: records how many spans there were and writes them
/// to `out/trace_<workload>.json`.
pub fn write_spans(outcome: &mut Outcome, spans: &Tracer, workload: &str, seed: u64) {
    outcome.set("gen.spans_recorded", spans.len() as f64);
    let path = out_dir().join(format!("trace_{workload}.json"));
    match spans.write(&path, workload, seed) {
        Ok(()) => outcome.note(format!("spans written to {}", path.display())),
        Err(e) => outcome.expect(false, &format!("write {}: {e}", path.display())),
    }
}

/// The line every run prints about its set-ups.
pub fn setup_note(setups: &[f64], what: &str) -> String {
    let (q1, q2, q3) = stats::quartiles(setups);
    format!(
        "setup_s: the best fiftieth of {} {what}; quartiles {:.6} / {:.6} / {:.6} s",
        setups.len(),
        q1,
        q2,
        q3
    )
}

/// Where the repository's reference artifacts live.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results")
}

/// Pins the main thread — and through it every thread the endpoint under
/// test will create — to the CPUs under test; generator threads move
/// themselves to the generator's CPU when they start.
pub fn pin_main(outcome: &mut Outcome) {
    match CpuPlan::detect() {
        Some(cpus) if procstat::pin_self(cpus.under_test) => outcome.note(format!(
            "CPU affinity: system under test on mask {:#b}, generator on mask {:#b}",
            cpus.under_test, cpus.generator
        )),
        Some(_) => outcome.note("CPU affinity: the kernel refused the masks; threads float"),
        None => outcome.note("CPU affinity: one CPU, nothing to separate"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::LiveSmallState.name(), "live_small_state");
        assert_eq!(Workload::SimRepro.name(), "sim_repro");
    }

    #[test]
    fn tail_picks_the_percentile_the_sample_supports() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(1000)), ("p99", 990.0));
        assert_eq!(tail(&v(999)).0, "p95");
        assert_eq!(tail(&v(200)), ("p95", 190.0));
        assert_eq!(tail(&v(100)), ("p90", 90.0));
        assert_eq!(tail(&v(8)), ("max", 8.0));
    }
}
