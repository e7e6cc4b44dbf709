//! Regenerates **Fig. 11 — Bandwidth in Hardware Environment**: achieved
//! bandwidth versus UDP-flood rate on the LinkSys/Pantou-like hardware
//! switch profile.
//!
//! Paper shape: without FloodGuard the ~8.4 Mbps baseline halves by
//! ~150 PPS and collapses by 1000 PPS; with FloodGuard it holds ~8.3 Mbps
//! to 200 PPS then declines slowly (software flow table, no TCAM).
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
        // Representative defended run on the hardware profile (400 PPS,
        // past the paper's ~200 PPS knee).
        let scenario = Scenario::hardware()
            .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
            .with_attack(400.0);
        bench::timeline::emit("fig11", &scenario);
    }
    let rates = [
        0.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0,
    ];
    let jobs: Vec<(f64, bool)> = rates
        .iter()
        .flat_map(|&pps| [(pps, false), (pps, true)])
        .collect();
    let total = Instant::now();
    let cells = par_map(&jobs, |&(pps, fg)| {
        let mut scenario = Scenario::hardware().with_attack(pps);
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

    println!("# Fig. 11 — Bandwidth in Hardware Environment");
    println!("# paper: no-defense 8.4 Mbps -> half @ ~150 PPS -> dead @ 1000 PPS;");
    println!("#        FloodGuard ~8.3 Mbps to 200 PPS then slow decline (software flow table)");
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
        .set("bench", "fig11")
        .set(
            "scenario",
            "hardware-switch bandwidth sweep, no-defense vs FloodGuard",
        )
        .set("seed", Scenario::hardware().seed)
        .set("runs", jobs.len())
        .set("threads", thread_count(jobs.len()))
        .set("wall_s", wall_s)
        .set("serial_run_s", run_s)
        .set("events", events)
        .set("events_per_sec", events as f64 / wall_s)
        .set("rows", Json::Arr(rows));
    match write_report("fig11", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_fig11.json: {err}"),
    }
}
