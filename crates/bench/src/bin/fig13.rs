//! Regenerates **Fig. 13 — Overhead of Generating Proactive Flow Rules**:
//! the wall-clock time the analyzer needs to convert path conditions into
//! proactive flow rules (Algorithm 2) for each evaluation application with
//! realistic state-sensitive variable contents.
//!
//! Paper shape: under ~2 ms for most applications, with `of_firewall` the
//! slowest (~9 ms) because of its more complex data structures.

//! Unlike the fig10/fig11 sweeps this bin stays **serial** on purpose:
//! each row is a median of wall-clock `Instant` timings, and running the
//! five apps' timing loops on sibling threads would let them contend for
//! cores and inflate each other's medians.

use std::net::Ipv4Addr;
use std::time::Instant;

use bench::report::write_report;
use controller::apps;
use controller::platform::App;
use floodguard::analyzer::Analyzer;
use obs::Json;
use ofproto::types::MacAddr;

/// Builds one evaluation app with realistically sized state.
fn seeded_app(name: &str) -> App {
    let mut app = match name {
        "l2_learning" => App::new(apps::l2_learning::program()),
        "ip_balancer" => App::new(apps::ip_balancer::program()),
        "l3_learning" => App::new(apps::l3_learning::program()),
        "of_firewall" => App::new(apps::of_firewall::program()),
        "mac_blocker" => App::new(apps::mac_blocker::program()),
        other => panic!("unknown app {other}"),
    };
    match name {
        "l2_learning" => {
            for i in 0..60u64 {
                apps::l2_learning::learn_host(
                    &mut app.env,
                    MacAddr::from_u64(0x1000 + i),
                    (i % 8 + 1) as u16,
                );
            }
        }
        "l3_learning" => {
            for i in 0..60u32 {
                apps::l3_learning::learn_host(
                    &mut app.env,
                    Ipv4Addr::from(0x0a00_0100 + i),
                    (i % 8 + 1) as u16,
                );
            }
        }
        "of_firewall" => apps::of_firewall::seed(&mut app.env, 400),
        "mac_blocker" => apps::mac_blocker::seed(&mut app.env, 60),
        _ => {}
    }
    app
}

fn main() {
    if bench::timeline::requested() {
        // The analyzer bench has no simulation of its own; the timeline
        // comes from the standard defended-flood scenario.
        bench::timeline::emit("fig13", &bench::timeline::default_scenario());
    }
    let total = Instant::now();
    println!("# Fig. 13 — Overhead of Generating Proactive Flow Rules (per application)");
    println!("# paper: < 2 ms typical; of_firewall worst (~9 ms, complex data structures)");
    println!(
        "{:>14} {:>12} {:>10} {:>12}",
        "application", "state_size", "rules", "time"
    );
    let mut rows = Vec::new();
    for name in [
        "l2_learning",
        "ip_balancer",
        "l3_learning",
        "of_firewall",
        "mac_blocker",
    ] {
        let app = seeded_app(name);
        let apps_slice = std::slice::from_ref(&app);
        let mut analyzer = Analyzer::offline(apps_slice);
        // Warm up, then take the median of repeated conversions.
        let mut times = Vec::new();
        let mut rules = 0usize;
        for _ in 0..21 {
            // Measure a cold Algorithm 2 run each iteration — with the
            // conversion cache warm, unchanged state would be served in
            // O(1) and the figure would time a hash lookup.
            analyzer.clear_conversion_cache();
            let t0 = Instant::now();
            let converted = analyzer.convert(apps_slice);
            times.push(t0.elapsed());
            rules = converted.len();
        }
        times.sort();
        let median = times[times.len() / 2];
        println!(
            "{:>14} {:>12} {:>10} {:>12}",
            name,
            app.env.state_size(),
            rules,
            format!("{:.3} ms", median.as_secs_f64() * 1e3)
        );
        rows.push(
            Json::obj()
                .set("app", name)
                .set("state_size", app.env.state_size())
                .set("rules", rules)
                .set("median_ms", median.as_secs_f64() * 1e3),
        );
    }
    let report = Json::obj()
        .set("bench", "fig13")
        .set(
            "scenario",
            "analyzer convert() wall time per app, median of 21 (serial for timing fidelity)",
        )
        .set("runs", rows.len())
        .set("wall_s", total.elapsed().as_secs_f64())
        .set("rows", Json::Arr(rows));
    match write_report("fig13", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_fig13.json: {err}"),
    }
}
