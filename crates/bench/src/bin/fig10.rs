//! Regenerates **Fig. 10 — Bandwidth in Software Environment**: achieved
//! bandwidth between the two benign clients versus UDP-flood attack rate,
//! with and without FloodGuard, on the Mininet-like software switch.
//!
//! Paper shape: without FloodGuard the ~1.7 Gbps baseline halves by
//! ~130 PPS and the network is dysfunctional by 500 PPS; with FloodGuard
//! the bandwidth stays flat.
//!
//! Every `(rate, defense)` cell is an independent seeded simulation, so
//! the whole sweep fans out over worker threads; the numbers are identical
//! to a serial sweep (set `FG_BENCH_THREADS=1` to check).

use std::time::Instant;

use bench::par::{par_map, thread_count};
use bench::report::write_report;
use bench::{human_bps, run, Defense, Scenario};
use floodguard::FloodGuardConfig;
use obs::Json;

struct Cell {
    bps: f64,
    events: u64,
    run_s: f64,
}

fn main() {
    if bench::timeline::requested() {
        // One representative defended run (500 PPS, the sweep's worst
        // case) with the obs recorder attached; deterministic for the
        // fixed seed, so the artifact diffs cleanly across commits.
        let scenario = Scenario::software()
            .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
            .with_attack(500.0);
        bench::timeline::emit("fig10", &scenario);
    }
    let rates = [
        0.0, 50.0, 100.0, 130.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0,
    ];
    let jobs: Vec<(f64, bool)> = rates
        .iter()
        .flat_map(|&pps| [(pps, false), (pps, true)])
        .collect();
    let total = Instant::now();
    let cells = par_map(&jobs, |&(pps, fg)| {
        let mut scenario = Scenario::software().with_attack(pps);
        if fg {
            scenario = scenario.with_defense(Defense::FloodGuard(FloodGuardConfig::default()));
        }
        let t0 = Instant::now();
        let outcome = run(&scenario);
        Cell {
            bps: outcome.bandwidth_bps,
            events: outcome.sim.events_processed(),
            run_s: t0.elapsed().as_secs_f64(),
        }
    });
    let wall_s = total.elapsed().as_secs_f64();

    println!("# Fig. 10 — Bandwidth in Software Environment");
    println!("# paper: no-defense 1.7 Gbps -> half @ ~130 PPS -> dead @ 500 PPS; FloodGuard flat");
    println!(
        "{:>10} {:>16} {:>16}",
        "attack_pps", "no_defense", "floodguard"
    );
    let mut rows = Vec::new();
    for (i, &pps) in rates.iter().enumerate() {
        let (none, fg) = (&cells[2 * i], &cells[2 * i + 1]);
        println!(
            "{:>10.0} {:>16} {:>16}",
            pps,
            human_bps(none.bps),
            human_bps(fg.bps)
        );
        rows.push(
            Json::obj()
                .set("attack_pps", pps)
                .set("no_defense_bps", none.bps)
                .set("floodguard_bps", fg.bps),
        );
    }

    let events: u64 = cells.iter().map(|c| c.events).sum();
    let run_s: f64 = cells.iter().map(|c| c.run_s).sum();
    let report = Json::obj()
        .set("bench", "fig10")
        .set(
            "scenario",
            "software-switch bandwidth sweep, no-defense vs FloodGuard",
        )
        .set("seed", Scenario::software().seed)
        .set("runs", jobs.len())
        .set("threads", thread_count(jobs.len()))
        .set("wall_s", wall_s)
        .set("serial_run_s", run_s)
        .set("events", events)
        .set("events_per_sec", events as f64 / wall_s)
        .set("rows", Json::Arr(rows));
    match write_report("fig10", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_fig10.json: {err}"),
    }
}
