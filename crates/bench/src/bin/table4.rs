//! Regenerates **Table IV — Average Delay of the First Packet in Each New
//! Flow**: the time to process and forward a new benign TCP flow's first
//! packet, in the hardware environment, with and without FloodGuard while a
//! UDP flood runs.
//!
//! Each sample comes from a fresh simulation (one probe per run) so every
//! probe genuinely takes the table-miss path, exactly as the paper forces
//! it ("by not installing relevant proactive flow rules"). The per-seed
//! runs inside each configuration are independent, so they fan out over
//! worker threads; delays come out of the seeded simulations, not the
//! clock, so threading cannot change the table.
//!
//! Paper: OpenFlow 130 ms; OpenFlow+FloodGuard 157 ms total, split into
//! ~30 ms in the data plane cache and ~127 ms after migration — about
//! +27 ms (20.8%) added. Our substrate's controller is much faster than
//! POX-on-Python, so the *absolute base* differs; the added overhead and
//! the cache component are the comparable quantities.

use std::time::Instant;

use bench::par::{par_map, thread_count};
use bench::report::write_report;
use bench::{run, Defense, Scenario};
use floodguard::FloodGuardConfig;
use obs::Json;

const RUNS: u64 = 8;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

struct Sample {
    delays: Vec<f64>,
    lost: usize,
    cache_waits: Vec<f64>,
    events: u64,
}

/// Runs `RUNS` single-probe simulations of `template` in parallel (one
/// per seed, results merged in seed order).
fn sample(template: &Scenario) -> Sample {
    let seeds: Vec<u64> = (0..RUNS).collect();
    let per_seed = par_map(&seeds, |&seed| {
        let mut scenario = template.clone();
        scenario.seed = 100 + seed;
        scenario.probes = vec![2.0];
        let outcome = run(&scenario);
        let waits: Vec<f64> = outcome
            .cache
            .as_ref()
            .map(|handle| {
                let shared = handle.lock();
                shared
                    .probes
                    .iter()
                    .filter_map(|p| p.emitted.map(|e| (e - p.arrived) * 1e3))
                    .collect()
            })
            .unwrap_or_default();
        (
            outcome.probe_delays[0].1,
            waits,
            outcome.sim.events_processed(),
        )
    });
    let mut sample = Sample {
        delays: Vec::new(),
        lost: 0,
        cache_waits: Vec::new(),
        events: 0,
    };
    for (delay, waits, events) in per_seed {
        match delay {
            Some(delay) => sample.delays.push(delay * 1e3),
            None => sample.lost += 1,
        }
        sample.cache_waits.extend(waits);
        sample.events += events;
    }
    sample
}

fn main() {
    let mut base = Scenario::hardware();
    base.bulk = false;
    base.attack_pps = 0.0;
    base.duration = 4.0;

    let mut flooded = base.clone();
    flooded.attack_pps = 400.0;
    flooded.attack_start = 0.5;
    flooded.attack_stop = 4.0;

    let mut guarded = flooded.clone();
    guarded.defense = Defense::FloodGuard(FloodGuardConfig::default());

    if bench::timeline::requested() {
        // The defended configuration with one probe, as each sample runs it.
        let mut scenario = guarded.clone();
        scenario.probes = vec![2.0];
        bench::timeline::emit("table4", &scenario);
    }

    let total = Instant::now();
    let base_sample = sample(&base);
    let flood_sample = sample(&flooded);
    let fg_sample = sample(&guarded);
    let wall_s = total.elapsed().as_secs_f64();

    let base_ms = mean(&base_sample.delays);
    let fg_ms = mean(&fg_sample.delays);
    let cache_ms = mean(&fg_sample.cache_waits);

    println!("# Table IV — Average Delay of the First Packet in Each New Flow (hardware env)");
    println!("# paper: OpenFlow 130 ms | +FloodGuard 157 ms = 30 ms cache + 127 ms after migration (+27 ms, 20.8%)");
    println!("# ({RUNS} fresh single-probe runs per configuration)");
    println!();
    println!("{:<40} {:>14}", "configuration", "delay");
    println!("{:<40} {:>11.1} ms", "OpenFlow (no attack)", base_ms);
    if flood_sample.delays.is_empty() {
        println!(
            "{:<40} {:>14}",
            "OpenFlow (under 400 PPS flood)", "infinite (all probes lost)"
        );
    } else {
        println!(
            "{:<40} {:>11.1} ms  ({}/{RUNS} probes lost)",
            "OpenFlow (under 400 PPS flood)",
            mean(&flood_sample.delays),
            flood_sample.lost
        );
    }
    println!(
        "{:<40} {:>11.1} ms  ({}/{RUNS} probes lost)",
        "OpenFlow + FloodGuard (under flood)", fg_ms, fg_sample.lost
    );
    println!(
        "{:<40} {:>11.1} ms",
        "  of which: data plane cache", cache_ms
    );
    println!(
        "{:<40} {:>11.1} ms",
        "  of which: after migration",
        fg_ms - cache_ms
    );
    println!(
        "{:<40} {:>11.1} ms ({:+.1}%)",
        "added overhead vs no-attack base",
        fg_ms - base_ms,
        (fg_ms - base_ms) / base_ms * 100.0
    );

    let events = base_sample.events + flood_sample.events + fg_sample.events;
    let report = Json::obj()
        .set("bench", "table4")
        .set(
            "scenario",
            "first-packet delay, hardware env: base vs 400 PPS flood vs flood+FloodGuard",
        )
        .set("seed", 100u64)
        .set("runs", 3 * RUNS)
        .set("threads", thread_count(RUNS as usize))
        .set("wall_s", wall_s)
        .set("events", events)
        .set("events_per_sec", events as f64 / wall_s)
        .set("base_ms", base_ms)
        .set(
            "flooded_ms",
            if flood_sample.delays.is_empty() {
                Json::Null
            } else {
                Json::Num(mean(&flood_sample.delays))
            },
        )
        .set("flooded_lost", flood_sample.lost)
        .set("floodguard_ms", fg_ms)
        .set("floodguard_lost", fg_sample.lost)
        .set("cache_ms", cache_ms)
        .set("after_migration_ms", fg_ms - cache_ms)
        .set("added_overhead_ms", fg_ms - base_ms);
    match write_report("table4", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_table4.json: {err}"),
    }
}
