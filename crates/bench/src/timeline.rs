//! `--timeline` support for the figure/table bins.
//!
//! Every bin accepts a `--timeline` flag. When present, the bin runs one
//! representative scenario with the obs recorder attached
//! ([`crate::scenario::ObsMode::Timeline`]) and writes two artifacts next
//! to its `BENCH_*.json` report:
//!
//! * `results/TIMELINE_<name>.json` — the recorded time series, as
//!   `{"scenario": ..., "seed": ..., "series": [{"name": ...,
//!   "samples": [[t, v], ...]}]}`;
//! * `results/TRACE_<name>.json` — span/instant events in chrome://tracing
//!   JSON-array format (open via `chrome://tracing` or Perfetto).
//!
//! Snapshots are driven through the simulation's own event queue, so for a
//! fixed seed the timeline body is **byte-identical** across runs — CI
//! diffs the artifact like any other regression file.

use crate::report::write_artifact;
use crate::scenario::{run, Scenario};
use obs::Json;

/// Default snapshot period in simulated seconds (200 samples over the
/// standard 4 s scenario).
pub const SNAPSHOT_INTERVAL: f64 = 0.02;

/// Whether `--timeline` was passed on the command line.
pub fn requested() -> bool {
    std::env::args().any(|a| a == "--timeline")
}

/// Renders recorded series as the timeline JSON document.
///
/// Pure function of its inputs (insertion-ordered object, `{}` float
/// formatting), so equal series render to equal bytes — the determinism
/// contract the S4 regression test pins down.
pub fn timeline_json(scenario: &str, seed: u64, series: &[obs::Series]) -> Json {
    let rendered: Vec<Json> = series
        .iter()
        .map(|s| {
            let samples: Vec<Json> = s
                .samples
                .iter()
                .map(|&(t, v)| Json::Arr(vec![Json::Num(t), Json::Num(v)]))
                .collect();
            Json::obj()
                .set("name", s.name.as_str())
                .set("samples", Json::Arr(samples))
        })
        .collect();
    Json::obj()
        .set("scenario", scenario)
        .set("seed", seed)
        .set("snapshot_interval_s", SNAPSHOT_INTERVAL)
        .set("series", Json::Arr(rendered))
}

/// Runs `scenario` with a timeline recorder attached and returns the
/// rendered `(timeline_body, trace_body)` pair.
pub fn capture(name: &str, scenario: &Scenario) -> (String, String) {
    let outcome = run(&scenario.clone().with_timeline(SNAPSHOT_INTERVAL));
    let hub = outcome.obs.expect("timeline mode attaches a hub");
    let mut timeline = timeline_json(name, scenario.seed, &hub.recorder_series()).render();
    timeline.push('\n');
    let mut trace = hub.chrome_trace();
    trace.push('\n');
    (timeline, trace)
}

/// Captures and writes `TIMELINE_<name>.json` / `TRACE_<name>.json`.
pub fn emit(name: &str, scenario: &Scenario) {
    let (timeline, trace) = capture(name, scenario);
    match write_artifact(&format!("TIMELINE_{name}.json"), &timeline) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write TIMELINE_{name}.json: {err}"),
    }
    match write_artifact(&format!("TRACE_{name}.json"), &trace) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write TRACE_{name}.json: {err}"),
    }
}

/// The defended-flood scenario bins without a natural simulation (fig13,
/// table3) use for their timeline: software profile, FloodGuard, 400 PPS.
pub fn default_scenario() -> Scenario {
    use crate::scenario::Defense;
    Scenario::software()
        .with_defense(Defense::FloodGuard(floodguard::FloodGuardConfig::default()))
        .with_attack(400.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_json_shape() {
        let series = vec![obs::Series {
            name: "floodguard.detector_score".to_owned(),
            samples: vec![(0.02, 0.0), (0.04, 0.5)],
        }];
        let body = timeline_json("fig10", 42, &series).render();
        assert!(body.contains("\"scenario\": \"fig10\""));
        assert!(body.contains("\"floodguard.detector_score\""));
        assert!(body.contains("0.02"));
        // Samples are [t, v] pairs.
        assert!(body.replace([' ', '\n'], "").contains("[0.04,0.5]"));
    }
}
