//! Regenerates **Fig. 12 — CPU Utilization under the Flooding Attack**:
//! per-application controller CPU utilization over time while the five
//! evaluation applications run concurrently and a 100 PPS UDP flood bursts.
//!
//! Paper shape: the attack starts at ~0.6 s, utilization peaks at ~0.8 s,
//! then falls to a medium plateau once migration rules are installed (the
//! cache drains its backlog at a limited rate) and returns to the initial
//! level by ~1.5 s.

use std::time::Instant;

use bench::report::write_report;
use bench::{run, Defense, Scenario};
use controller::apps;
use floodguard::{CacheConfig, FloodGuardConfig};
use obs::Json;

fn main() {
    let mut scenario = Scenario::hardware().with_defense(Defense::FloodGuard(FloodGuardConfig {
        cache: CacheConfig {
            // Drain slowly enough that the medium plateau is visible and
            // recovery lands near the paper's ~1.5 s.
            base_rate_pps: 30.0,
            max_rate_pps: 30.0,
            min_rate_pps: 30.0,
            ..CacheConfig::default()
        },
        ..FloodGuardConfig::default()
    }));
    scenario.apps = apps::evaluation_apps();
    scenario.attack_pps = 100.0;
    scenario.attack_start = 0.6;
    scenario.attack_stop = 0.9;
    scenario.duration = 2.0;
    if bench::timeline::requested() {
        // The figure's own burst scenario, re-run with the recorder on.
        bench::timeline::emit("fig12", &scenario);
    }
    let t0 = Instant::now();
    let outcome = run(&scenario);
    let wall_s = t0.elapsed().as_secs_f64();

    println!("# Fig. 12 — CPU Utilization under the Flooding Attack (100 PPS burst 0.6-0.9 s)");
    println!(
        "# paper: rise from 0.6 s, peak ~0.8 s, medium plateau (cache drain), baseline by ~1.5 s"
    );
    let apps = outcome.sim.app_names();
    print!("{:>6}", "t(s)");
    for app in &apps {
        print!(" {:>12}", app);
    }
    println!();
    let series: Vec<_> = apps
        .iter()
        .map(|a| outcome.sim.app_utilization(a, scenario.duration))
        .collect();
    let n = series.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..n {
        let t = series
            .iter()
            .find_map(|s| s.get(i).map(|x| x.t))
            .unwrap_or_default();
        print!("{t:>6.2}");
        for s in &series {
            let v = s.get(i).map(|x| x.v).unwrap_or(0.0);
            print!(" {:>11.1}%", v * 100.0);
        }
        println!();
    }

    // Single run (one timeline), so nothing to parallelize here; the JSON
    // records the per-app peak for regression diffing.
    let events = outcome.sim.events_processed();
    let peaks: Vec<Json> = apps
        .iter()
        .zip(&series)
        .map(|(app, s)| {
            let peak = s.iter().map(|x| x.v).fold(0.0f64, f64::max);
            Json::obj().set("app", app.as_str()).set("peak_util", peak)
        })
        .collect();
    let report = Json::obj()
        .set("bench", "fig12")
        .set(
            "scenario",
            "per-app controller CPU utilization, 100 PPS burst 0.6-0.9 s",
        )
        .set("seed", scenario.seed)
        .set("runs", 1u64)
        .set("wall_s", wall_s)
        .set("events", events)
        .set("events_per_sec", events as f64 / wall_s)
        .set("app_peaks", Json::Arr(peaks));
    match write_report("fig12", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_fig12.json: {err}"),
    }
}
