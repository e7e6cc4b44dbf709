//! Runs the **defense arena**: every `bench::Defense` contender (FloodGuard,
//! AvantGuard, LineSwitch, SynCookies, naive drop, plus the undefended
//! reference) across attack mixes (UDP / SYN / mixed), attack rates and
//! switch profiles, on the shared Fig. 9 topology with identical seeds and
//! workloads.
//!
//! After the classic matrix it runs the **adversary arena**
//! (`bench::adversary`): the adaptive attackers — slow connection drain,
//! detector-ducking pulsed flood, closed-loop threshold search, botnet-
//! scale spoofing — against the same defense lineup.
//!
//! Outputs:
//! * stdout — the human-readable comparison tables (checked in as
//!   `results/arena.txt` and `results/adversary.txt`);
//! * `results/BENCH_arena.json` / `results/BENCH_adversary.json` — the
//!   full matrices, byte-deterministic for a fixed seed (no wall-clock
//!   fields);
//! * with `--timeline` — `TIMELINE_arena_<defense>_<mix>.json` /
//!   `TRACE_arena_<defense>_<mix>.json` per defended cell at the
//!   representative rate.
//!
//! Flags:
//! * `--smoke` — reduced CI matrices (one rate / two adversaries, software
//!   profile only); writes `BENCH_arena_smoke.json` and
//!   `BENCH_adversary_smoke.json` instead.
//! * `--write-baseline` — also writes `BENCH_arena_baseline.json` and
//!   `BENCH_adversary_baseline.json`, the gates' references (full
//!   matrices only).
//!
//! **Regression gates** — unless `FG_ARENA_GATE=0` or `--write-baseline`,
//! compares every cell's bandwidth-retained against the checked-in
//! baselines (`FG_ARENA_BASELINE` / `FG_ADVERSARY_BASELINE` override the
//! paths) and exits non-zero on a >25% regression. Smoke cells share keys
//! with the full matrices, so CI's reduced runs gate against the same
//! baselines.

use std::time::Instant;

use bench::adversary::AdversaryMatrixConfig;
use bench::arena::{check_gate, gate_keys, render, render_table, run_matrix, ArenaConfig};
use bench::report::{read_report, write_report};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let config = if smoke {
        ArenaConfig::smoke()
    } else {
        ArenaConfig::full()
    };

    if bench::timeline::requested() {
        emit_timelines(&config);
    }

    let total = Instant::now();
    let results = run_matrix(&config);
    let wall_s = total.elapsed().as_secs_f64();

    println!("# Defense arena — bandwidth retained, benign-flow setup latency,");
    println!("# rules installed, controller CPU, defense-state cost and the");
    println!("# applications' learned+quarantined entries after the run per cell.");
    print!("{}", render_table(&results));
    println!(
        "# {} clean runs + {} cells in {wall_s:.1}s",
        results.cleans.len(),
        results.cells.len()
    );

    let report = render(&config, &results);
    let name = if smoke { "arena_smoke" } else { "arena" };
    match write_report(name, &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_{name}.json: {err}"),
    }
    if write_baseline && !smoke {
        match write_report("arena_baseline", &report) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(err) => eprintln!("warning: could not write baseline: {err}"),
        }
    }

    run_adversary_arena(smoke, write_baseline);

    if std::env::var("FG_ARENA_GATE").as_deref() == Ok("0") || write_baseline {
        println!("# gate skipped");
        return;
    }
    let baseline_path = std::env::var("FG_ARENA_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::report::results_dir().join("BENCH_arena_baseline.json"));
    let baseline = match read_report(&baseline_path) {
        Ok(body) => body,
        Err(err) => {
            println!(
                "# no baseline at {} ({err}); gate skipped",
                baseline_path.display()
            );
            return;
        }
    };
    let failures = check_gate(&gate_keys(&results), &baseline);
    if failures.is_empty() {
        println!("# gate: all cells within 25% of baseline");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE {f}");
        }
        std::process::exit(1);
    }
}

/// Runs the adversary matrix: report, table, optional baseline, gate.
fn run_adversary_arena(smoke: bool, write_baseline: bool) {
    let config = if smoke {
        AdversaryMatrixConfig::smoke()
    } else {
        AdversaryMatrixConfig::full()
    };
    let total = Instant::now();
    let results = bench::adversary::run_matrix(&config);
    let wall_s = total.elapsed().as_secs_f64();

    println!();
    println!("# Adversary arena — adaptive attackers vs every defense:");
    println!("# bandwidth retained, attacker telemetry, victim/switch hardening counters.");
    print!("{}", bench::adversary::render_table(&results));
    println!(
        "# {} clean runs + {} cells in {wall_s:.1}s",
        results.cleans.len(),
        results.cells.len()
    );

    let report = bench::adversary::render(&config, &results);
    let name = if smoke {
        "adversary_smoke"
    } else {
        "adversary"
    };
    match write_report(name, &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_{name}.json: {err}"),
    }
    if write_baseline && !smoke {
        match write_report("adversary_baseline", &report) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(err) => eprintln!("warning: could not write baseline: {err}"),
        }
    }

    if std::env::var("FG_ARENA_GATE").as_deref() == Ok("0") || write_baseline {
        println!("# adversary gate skipped");
        return;
    }
    let baseline_path = std::env::var("FG_ADVERSARY_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::report::results_dir().join("BENCH_adversary_baseline.json"));
    let baseline = match read_report(&baseline_path) {
        Ok(body) => body,
        Err(err) => {
            println!(
                "# no adversary baseline at {} ({err}); gate skipped",
                baseline_path.display()
            );
            return;
        }
    };
    let failures = check_gate(&bench::adversary::gate_keys(&results), &baseline);
    if failures.is_empty() {
        println!("# adversary gate: all cells within 25% of baseline");
    } else {
        for f in &failures {
            eprintln!("GATE FAILURE {f}");
        }
        std::process::exit(1);
    }
}

/// One timeline per (defense, mix) at the representative rate on the
/// software profile — the recorder's gauges show each defense's internal
/// state (pending proxies, cache depth, blacklist size) evolving through
/// the attack window.
fn emit_timelines(config: &ArenaConfig) {
    const TIMELINE_PPS: f64 = 400.0;
    for defense in &config.defenses {
        for &mix in &config.mixes {
            let scenario = bench::arena::cell_scenario(
                defense,
                mix,
                TIMELINE_PPS,
                bench::arena::Profile::Software,
                config.probe_at,
            );
            let name = format!("arena_{}_{}", defense.name(), bench::arena::mix_name(mix));
            bench::timeline::emit(&name, &scenario);
        }
    }
}
