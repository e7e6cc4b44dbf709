//! Analyzer-pipeline benchmark at production scale: incremental
//! re-analysis and TCAM-budgeted rule compression, with a JSON report and
//! a regression gate.
//!
//! Custom harness (`harness = false`): this bench also writes
//! `results/BENCH_analyzer.json` and compares against a checked-in
//! baseline.
//!
//! **App-count scaling** — cold `Analyzer::convert` over synthetic
//! populations ([`bench::synthetic`]) of 8, 100 and 1000 apps.
//!
//! **Incremental re-analysis** — the tentpole workload: among 1000 apps,
//! one changes per round. The conversion cache must serve the other 999
//! (hit rate ≥ 99%) and the round — [`Analyzer::update`], the path the
//! defense runs — must beat a cold convert by ≥ 100x. (The same round
//! through `convert`, which copies all 8000 rules out, is reported beside
//! it and not gated: that copy is most of its time and no defense tick
//! pays it.)
//!
//! **Compression** — the merged 1000-app rule set compressed under the
//! `hardware` switch profile's 4096-entry TCAM budget; reports the
//! before/after counts and the ratio, and requires the set to fit.
//!
//! **Defense tick** — what one rule-update round of a defended flood costs
//! (`detect_changes` + `Analyzer::update` after 7 new spoofed sources, the
//! paper's five apps) on 300 and on 3000 learned sources. The attacker
//! decides how much the applications have learned, so the two must cost
//! the same: the 3000/300 ratio is a hard bar at 1.5. Beside it, the same
//! round on 300 learned sources through `FloodGuard::on_telemetry` as a
//! live endpoint drives it: what a tick costs on top of its update shows as
//! the difference.
//!
//! **Regression gate** — compares against `FG_ANALYZER_BASELINE` (default
//! `results/BENCH_analyzer_baseline.json`) and exits non-zero when a
//! gated ratio drops more than 25%. All gated quantities are ratios of
//! numbers measured in the same process, so the gate is portable across
//! machines of different speeds.
//!
//! `--test` (what `cargo test` passes to bench targets) runs a tiny smoke
//! version: no JSON written, no gate, exit 0.

use std::time::Instant;

use bench::report::{extract_number, read_report, write_report};
use bench::synthetic;
use floodguard::analyzer::Analyzer;
use floodguard::{FloodGuard, FloodGuardConfig};
use netsim::iface::{ControlOutput, ControlPlane, SwitchTelemetry, Telemetry};
use obs::Json;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};
use symexec::CompressionConfig;

/// Tolerated drop before the gate fails (25%).
const GATE_TOLERANCE: f64 = 0.75;

/// The `hardware` switch profile's flow-table capacity (see
/// `netsim::SwitchProfile::hardware`): the TCAM budget the compressed
/// 1000-app rule set must fit.
const TCAM_BUDGET: usize = 4096;

/// Minimum cache hit rate when 1 app of 1000 changes.
const HIT_RATE_FLOOR: f64 = 0.99;

/// Minimum speedup of an incremental update round over a cold convert of
/// the same fleet. Thirty runs on the two-core sandbox read 259–671x, and
/// the same round through `convert` 7.0–18.7x (EXPERIMENTS.md "Fixed costs
/// of the attack path"): a busy machine passes, a round that walks the
/// fleet's rules again does not. The ratio of a 12 µs median to a 5 ms one
/// spreads wider than the baseline gate's 25 %, so this floor is its only
/// gate.
const INCR_SPEEDUP_FLOOR: f64 = 100.0;

/// Maximum 3000-source / 300-source cost of one defense tick.
const DEFENSE_TICK_RATIO_CEILING: f64 = 1.5;

/// Spoofed sources a defense tick finds new (the cache re-raises 150
/// packets a second; CI boxes tick every 20–50 ms).
const SOURCES_PER_TICK: u64 = 7;

/// The `n`-th spoofed source and the port it is learned on: scattered like
/// spoofed addresses, not in table order.
fn spoofed(n: u64) -> (MacAddr, std::net::Ipv4Addr, u16) {
    let at = n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
    (
        MacAddr::from_u64(at),
        (at as u32).into(),
        (at % 3 + 1) as u16,
    )
}

/// The paper's five applications under a flood, and the analyzer
/// defending them.
struct Defended {
    apps: Vec<controller::platform::App>,
    analyzer: Analyzer,
    learned: u64,
    round: u32,
    tick_us: Vec<f64>,
}

impl Defended {
    /// After `sources` spoofed sources and the first rule update.
    fn after(sources: u64) -> Defended {
        use controller::{apps, platform::App};
        let apps: Vec<App> = apps::evaluation_apps().into_iter().map(App::new).collect();
        let analyzer = Analyzer::offline(&apps);
        let mut defended = Defended {
            apps,
            analyzer,
            learned: 0,
            round: 0,
            tick_us: Vec::new(),
        };
        defended.learn(sources);
        defended.analyzer.update(&defended.apps, 1, 0.0);
        defended
    }

    fn learn(&mut self, sources: u64) {
        use controller::apps;
        for _ in 0..sources {
            let (mac, ip, port) = spoofed(self.learned);
            self.learned += 1;
            apps::l2_learning::learn_host(&mut self.apps[0].env, mac, port);
            apps::l3_learning::learn_host(&mut self.apps[2].env, ip, port);
        }
    }

    /// One timed defense tick: the application tracker, then the update.
    fn tick(&mut self) {
        self.learn(SOURCES_PER_TICK);
        self.round += 1;
        let t0 = Instant::now();
        std::hint::black_box(self.analyzer.detect_changes(&self.apps));
        let now = f64::from(self.round) * 0.02;
        std::hint::black_box(self.analyzer.update(&self.apps, 1, now));
        self.tick_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    fn median_us(&mut self) -> f64 {
        self.tick_us.sort_by(f64::total_cmp);
        self.tick_us[self.tick_us.len() / 2]
    }
}

/// Median, in µs, of `rounds` defense ticks on 300 learned sources taken
/// through [`FloodGuard::on_telemetry`] with telemetry as a live controller
/// endpoint assembles it (no utilizations, flow count unobserved).
fn floodguard_tick_us(rounds: usize) -> f64 {
    use controller::{apps, platform::ControllerPlatform};
    const CACHE_PORT: u16 = 99;
    let dpid = DatapathId(1);
    let mut platform = ControllerPlatform::new();
    for program in apps::evaluation_apps() {
        platform.register(program);
    }
    let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), CACHE_PORT);
    let mut out = ControlOutput::new();
    let features = FeaturesReply {
        datapath_id: dpid,
        n_buffers: 256,
        n_tables: 1,
        ports: [1, 2, 3, CACHE_PORT].map(PortNo::Physical).to_vec(),
    };
    fg.on_switch_connect(dpid, features, 0.0, &mut out);
    let mut learned = 0u64;
    let mut learn = |fg: &mut FloodGuard, sources: u64| {
        for _ in 0..sources {
            let (mac, ip, port) = spoofed(learned);
            learned += 1;
            let apps = fg.platform_mut();
            let l2 = &mut apps.app_mut("l2_learning").expect("registered").env;
            apps::l2_learning::learn_host(l2, mac, port);
            let l3 = &mut apps.app_mut("l3_learning").expect("registered").env;
            apps::l3_learning::learn_host(l3, ip, port);
        }
    };
    learn(&mut fg, 300);
    // Sixty table misses in one instant trip the detector.
    for i in 0..60u32 {
        let (src, dst) = (
            MacAddr::from_u64(1 << 40 | u64::from(i)),
            MacAddr::from_u64(2 << 40),
        );
        let data =
            netsim::packet::Packet::udp(src, dst, i.into(), (!i).into(), 1, 2, 64).to_bytes();
        let packet_in = PacketIn {
            buffer_id: None,
            total_len: data.len() as u16,
            in_port: PortNo::Physical(3),
            reason: PacketInReason::NoMatch,
            data,
        };
        let msg = OfMessage::new(Xid(i), OfBody::PacketIn(packet_in));
        fg.on_message(dpid, msg, 1.0, &mut out);
    }
    let telemetry = Telemetry {
        switches: vec![SwitchTelemetry {
            dpid,
            buffer_utilization: 0.0,
            datapath_utilization: 0.0,
            ingress_len: 0,
            misses: 0,
            flow_count: None,
        }],
        ..Telemetry::default()
    };
    fg.on_telemetry(&telemetry, 1.05, &mut out);
    fg.on_telemetry(&telemetry, 1.1, &mut out);
    assert_eq!(fg.state(), floodguard::State::Defense);
    let mut tick_us: Vec<f64> = (1..=rounds)
        .map(|round| {
            learn(&mut fg, SOURCES_PER_TICK);
            // A busy cache: the attack is not over.
            fg.cache_handle().lock().stats.received += 1000;
            out.reset();
            let t0 = Instant::now();
            fg.on_telemetry(&telemetry, 1.1 + round as f64 * 0.02, &mut out);
            let elapsed = t0.elapsed().as_secs_f64() * 1e6;
            // One round: two rules a source (l2 and l3), its barrier and
            // its read.
            assert_eq!(out.messages.len(), 2 * SOURCES_PER_TICK as usize + 2);
            elapsed
        })
        .collect();
    assert_eq!(fg.state(), floodguard::State::Defense);
    tick_us.sort_by(f64::total_cmp);
    tick_us[tick_us.len() / 2]
}

/// `reps` timed runs of `f`, in seconds, fastest first.
fn sorted_secs<F: FnMut()>(reps: usize, mut f: F) -> Vec<f64> {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Median of `reps` timed runs of `f`, in seconds.
fn median_secs<F: FnMut()>(reps: usize, f: F) -> f64 {
    sorted_secs(reps, f)[reps / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (fleet, scaling_sizes, reps): (usize, &[usize], usize) = if smoke {
        (100, &[8, 50], 3)
    } else {
        (1000, &[8, 100, 1000], 9)
    };

    // --- App-count scaling: cold convert wall time. -----------------------
    println!("# analyzer bench — cold convert scaling (apps -> median ms)");
    let mut scaling_rows = Vec::new();
    for &n in scaling_sizes {
        let apps = synthetic::population(n);
        let mut analyzer = Analyzer::offline(&apps);
        let mut rules = 0usize;
        let cold_s = median_secs(reps, || {
            analyzer.clear_conversion_cache();
            rules = analyzer.convert(&apps).len();
        });
        println!("apps={n:>5}: {:>9.3} ms, {rules} rules", cold_s * 1e3);
        scaling_rows.push((n, cold_s * 1e3, rules));
    }

    // --- Incremental re-analysis: 1 changed app among `fleet`, through ----
    // `convert` here and through `update` after the compression section
    // (which wants the rule set these nine rounds leave).
    let mut apps = synthetic::population(fleet);
    let mut analyzer = Analyzer::offline(&apps);
    let cold_s = median_secs(reps, || {
        analyzer.clear_conversion_cache();
        analyzer.convert(&apps);
    });
    let mut round = 0u64;
    let incr_convert_s = median_secs(reps.max(5), || {
        round += 1;
        synthetic::touch(&mut apps[0], round);
        analyzer.convert(&apps);
    });

    // --- Compression under the hardware TCAM budget. ----------------------
    let raw = {
        analyzer.set_compression(None);
        analyzer.clear_conversion_cache();
        analyzer.convert(&apps)
    };
    analyzer.set_compression(Some(CompressionConfig::default().with_budget(TCAM_BUDGET)));
    analyzer.clear_conversion_cache();
    let compressed = analyzer.convert(&apps);
    let cstats = analyzer.last_compression.expect("compression ran");
    analyzer.set_compression(None);
    println!("# compression — default passes, TCAM budget {TCAM_BUDGET}");
    println!(
        "raw: {} rules | compressed: {} rules | ratio {:.2}x | shadows {} | merges {} \
         | evicted {} | fits budget: {}",
        raw.len(),
        compressed.len(),
        cstats.ratio(),
        cstats.shadows_removed,
        cstats.prefixes_merged,
        cstats.rules_evicted,
        cstats.fits_budget
    );
    assert_eq!(cstats.rules_in, raw.len());
    assert_eq!(cstats.rules_out, compressed.len());

    // --- Incremental re-analysis, as the defense runs it: the first -------
    // `update` installs the fleet's rules, each later one sends what the
    // touched app changed.
    analyzer.update(&apps, 1, 0.0);
    let incr_s = median_secs(reps.max(5) * 11, || {
        round += 1;
        synthetic::touch(&mut apps[0], round);
        let update = analyzer.update(&apps, 1, round as f64);
        assert_eq!((update.to_add.len(), update.to_remove.len()), (1, 0));
    });
    let last_hits = analyzer.cache_stats().last_hits;
    let last_misses = analyzer.cache_stats().last_misses;
    let hit_rate = last_hits as f64 / (last_hits + last_misses) as f64;
    let incr_speedup = cold_s / incr_s;
    println!("# incremental — 1 of {fleet} apps changed per round");
    println!(
        "cold: {:>9.3} ms | update round: {:>9.3} ms | speedup {incr_speedup:.1}x \
         | through convert: {:>9.3} ms ({:.1}x) \
         | cache hit rate {hit_rate:.4} ({last_hits} hits / {last_misses} miss)",
        cold_s * 1e3,
        incr_s * 1e3,
        incr_convert_s * 1e3,
        cold_s / incr_convert_s
    );

    // --- Defense tick: cost against learned state. ------------------------
    let tick_rounds = if smoke { 5 } else { 50 };
    let (mut small, mut large) = (Defended::after(300), Defended::after(3000));
    for _ in 0..tick_rounds {
        // Turn about, so that whatever else the machine does in these
        // milliseconds is in both medians.
        small.tick();
        large.tick();
    }
    let (tick_300, tick_3000) = (small.median_us(), large.median_us());
    let tick_ratio = tick_3000 / tick_300;
    println!("# defense tick — {SOURCES_PER_TICK} new sources per round, {tick_rounds} rounds");
    let tick_floodguard = floodguard_tick_us(tick_rounds);
    println!(
        "300 learned: {tick_300:>8.1} us | 3000 learned: {tick_3000:>8.1} us | ratio {tick_ratio:.2} \
         | 300 learned, through FloodGuard::on_telemetry: {tick_floodguard:>8.1} us"
    );

    if smoke {
        // The hard bars still bind in smoke mode — a broken cache or an
        // over-budget rule set must fail `cargo test`, not just the full
        // bench run — but timings are single-digit samples, so the
        // speedup floors stay out of it.
        assert!(
            hit_rate >= HIT_RATE_FLOOR,
            "cache hit rate {hit_rate:.4} < {HIT_RATE_FLOOR}"
        );
        assert!(cstats.fits_budget, "compressed set exceeds the TCAM budget");
        println!("analyzer bench: ok (smoke mode, no report/gate)");
        return;
    }

    // Hard acceptance bars (machine-independent).
    let mut failed = false;
    if hit_rate < HIT_RATE_FLOOR {
        eprintln!("REGRESSION: cache hit rate {hit_rate:.4} < {HIT_RATE_FLOOR}");
        failed = true;
    }
    if incr_speedup < INCR_SPEEDUP_FLOOR {
        eprintln!("REGRESSION: incremental speedup {incr_speedup:.1}x < {INCR_SPEEDUP_FLOOR}x");
        failed = true;
    }
    if !cstats.fits_budget {
        eprintln!(
            "REGRESSION: compressed set ({} rules) exceeds the {TCAM_BUDGET}-entry TCAM budget",
            compressed.len()
        );
        failed = true;
    }
    if tick_ratio > DEFENSE_TICK_RATIO_CEILING {
        eprintln!(
            "REGRESSION: a defense tick on 3000 learned sources costs {tick_ratio:.2}x one on \
             300 (> {DEFENSE_TICK_RATIO_CEILING})"
        );
        failed = true;
    }

    let mut report = Json::obj()
        .set("bench", "analyzer")
        .set(
            "scenario",
            format!(
                "{fleet} synthetic apps (9:1 route:l2): incremental re-analysis, \
                 compression @ TCAM {TCAM_BUDGET}"
            )
            .as_str(),
        )
        .set("apps", fleet)
        .set("cold_ms", cold_s * 1e3)
        .set("incremental_ms", incr_s * 1e3)
        .set("incr_speedup", incr_speedup)
        .set("incremental_convert_ms", incr_convert_s * 1e3)
        .set("cache_hit_rate", hit_rate)
        .set("rules_raw", raw.len())
        .set("rules_compressed", compressed.len())
        .set("compression_ratio", cstats.ratio())
        .set("shadows_removed", cstats.shadows_removed)
        .set("prefixes_merged", cstats.prefixes_merged)
        .set("rules_evicted", cstats.rules_evicted)
        .set("fits_budget", cstats.fits_budget)
        .set("tcam_budget", TCAM_BUDGET)
        .set("defense_tick_us_n300", tick_300)
        .set("defense_tick_us_n3000", tick_3000)
        .set("defense_tick_ratio", tick_ratio)
        .set("defense_tick_us", tick_floodguard);
    for &(n, ms, rules) in &scaling_rows {
        report = report
            .set(format!("cold_ms_n{n}").as_str(), ms)
            .set(format!("rules_n{n}").as_str(), rules);
    }
    match write_report("analyzer", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_analyzer.json: {err}"),
    }

    let baseline_path = std::env::var("FG_ANALYZER_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::report::results_dir().join("BENCH_analyzer_baseline.json"));
    let baseline = match read_report(&baseline_path) {
        Ok(body) => body,
        Err(err) => {
            println!(
                "# no baseline at {} ({err}); gate skipped",
                baseline_path.display()
            );
            if failed {
                std::process::exit(1);
            }
            return;
        }
    };
    let gates = [
        ("cache_hit_rate", hit_rate),
        ("compression_ratio", cstats.ratio()),
    ];
    for (label, measured) in gates {
        let Some(expected) = extract_number(&baseline, label) else {
            eprintln!(
                "warning: baseline {} has no \"{label}\" field",
                baseline_path.display()
            );
            continue;
        };
        let floor = expected * GATE_TOLERANCE;
        if measured < floor {
            eprintln!(
                "REGRESSION: {label} {measured:.3} < {floor:.3} \
                 (baseline {expected:.3} - 25% tolerance)"
            );
            failed = true;
        } else {
            println!("# gate {label}: {measured:.3} vs baseline {expected:.3} — ok");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
