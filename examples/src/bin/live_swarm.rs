//! A thousand switches against one controller, with the ops surface live.
//!
//! Proves the async `ofchannel::ControllerEndpoint` at scale: a simulated
//! swarm of switch endpoints dials one listening FloodGuard-wrapped
//! controller, completes real HELLO/FEATURES handshakes, and sustains
//! table-miss `packet_in` traffic while the `ops` HTTP server exposes
//! `/metrics` and the REST admin API off to the side. The run reports
//! connect-latency percentiles and the sustained `packet_in` throughput
//! over a window that starts only after the whole fleet is connected,
//! and writes a JSON artifact for CI trending.
//!
//! Run with:
//! `cargo run --release -p floodguard-examples --bin live_swarm -- --switches 1000`
//!
//! `--smoke` shrinks the fleet (256 switches) and enforces the CI gates:
//! every handshake succeeds, the throughput floor holds, and `/metrics`
//! plus `/api/status` answer while the swarm is live.

use std::net::SocketAddr;
use std::time::Duration;

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig};
use obs::Json;
use ofchannel::obs::ChannelObs;
use ofchannel::{
    run_swarm, ChannelConfig, ControllerConfig, ControllerEndpoint, SwarmConfig, SwarmReport,
};
use ops::{OpsServer, OpsState};

struct Args {
    switches: usize,
    pps: f64,
    window: Duration,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        switches: 1000,
        pps: 2.0,
        window: Duration::from_secs(5),
        smoke: false,
        out: "results/LIVE_SWARM.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    let mut explicit_switches = false;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--switches" => {
                args.switches = value("--switches").parse().expect("--switches: usize");
                explicit_switches = true;
            }
            "--pps" => args.pps = value("--pps").parse().expect("--pps: f64"),
            "--window" => {
                args.window =
                    Duration::from_secs_f64(value("--window").parse().expect("--window: seconds"));
            }
            "--out" => args.out = value("--out"),
            "--smoke" => args.smoke = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if args.smoke && !explicit_switches {
        args.switches = 256;
    }
    if args.smoke {
        // Short window, higher per-switch rate: CI wants signal, not soak.
        args.pps = args.pps.max(6.0);
        args.window = args.window.min(Duration::from_secs(3));
    }
    args
}

/// The controller the swarm floods: l2-learning under FloodGuard with the
/// detector effectively disarmed, so the run measures transport throughput
/// rather than defense behavior (the defense path has its own example).
fn build_controller() -> (FloodGuard, obs::ObsHandle) {
    let hub = obs::Obs::new();
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let config = FloodGuardConfig {
        detection: DetectionConfig {
            rate_capacity_pps: 1e9,
            score_threshold: 0.99,
            ..DetectionConfig::default()
        },
        ..FloodGuardConfig::default()
    };
    let mut fg = FloodGuard::new(platform, config, 99);
    fg.attach_obs(&hub);
    (fg, hub)
}

fn channel_config() -> ChannelConfig {
    // A thousand connections on one core: relax the keepalive cadence so
    // echo chatter doesn't compete with packet_in throughput, and give the
    // handshake room while the accept queue drains.
    ChannelConfig {
        echo_interval: Duration::from_secs(5),
        liveness_timeout: Duration::from_secs(30),
        handshake_timeout: Duration::from_secs(30),
        connect_timeout: Duration::from_secs(10),
        ..ChannelConfig::default()
    }
}

fn report_json(args: &Args, report: &SwarmReport, probes: &ProbeResults) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Json::obj()
        .set("switches", args.switches)
        .set("pps_per_switch", args.pps)
        .set("connected", report.connected)
        .set("handshake_failures", report.handshake_failures)
        .set("connect_p50_ms", ms(report.latency_quantile(0.50)))
        .set("connect_p95_ms", ms(report.latency_quantile(0.95)))
        .set("connect_p99_ms", ms(report.latency_quantile(0.99)))
        .set("connect_max_ms", ms(report.latency_quantile(1.0)))
        .set("window_s", report.window.as_secs_f64())
        .set("packet_ins_sent", report.packet_ins_sent)
        .set("packet_ins_shed", report.packet_ins_shed)
        .set("throughput_pps", report.throughput_pps())
        .set("frames_from_controller", report.frames_in)
        .set("metrics_probe_ok", probes.metrics_ok)
        .set("status_probe_ok", probes.status_ok)
        .compact()
}

#[derive(Default)]
struct ProbeResults {
    metrics_ok: bool,
    status_ok: bool,
}

/// Hits `/metrics` and `/api/status` while the swarm is connected.
fn probe_ops(ops_addr: SocketAddr) -> ProbeResults {
    let mut results = ProbeResults::default();
    if let Ok(resp) = ops::client::get(ops_addr, "/metrics") {
        results.metrics_ok = resp.status == 200 && resp.body.contains("# TYPE");
    }
    if let Ok(resp) = ops::client::get(ops_addr, "/api/status") {
        results.status_ok = resp.status == 200 && resp.body.contains("connected_switches");
    }
    results
}

fn main() {
    let args = parse_args();
    println!(
        "live_swarm: {} switches x {} pps, {:?} window{}",
        args.switches,
        args.pps,
        args.window,
        if args.smoke { " [smoke]" } else { "" }
    );

    let (fg, hub) = build_controller();
    let monitor = fg.monitor_handle();
    let admin = fg.admin_handle();
    let channel = channel_config();
    let endpoint = ControllerEndpoint::listen(
        Box::new(fg),
        "127.0.0.1:0".parse().expect("loopback addr"),
        ControllerConfig {
            channel,
            telemetry_interval: Duration::from_millis(250),
            global_send_budget: 65536,
            ..ControllerConfig::default()
        },
    )
    .expect("bind controller listener");
    let controller_addr = endpoint.local_addr().expect("listener addr");
    let view = endpoint.view();
    let chan_obs = ChannelObs::new(&hub.registry, "controller");

    let ops_server = OpsServer::spawn(
        OpsState::new()
            .with_hub(hub.clone())
            .with_view(view.clone())
            .with_monitor(monitor)
            .with_admin(admin),
        "127.0.0.1:0",
    )
    .expect("bind ops server");
    let ops_addr = ops_server.local_addr();
    println!("controller: {controller_addr}\nops:        http://{ops_addr}");

    // A sidecar keeps the Prometheus gauges fresh and probes the ops
    // surface mid-run, while the swarm saturates the main thread.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let publisher = {
        let stop = std::sync::Arc::clone(&stop);
        let view = view.clone();
        std::thread::spawn(move || {
            let mut probes = ProbeResults::default();
            let mut probed = false;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                chan_obs.publish(&view.counters());
                if !probed && !view.status().connected_switches.is_empty() {
                    probes = probe_ops(ops_addr);
                    probed = true;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            probes
        })
    };

    let swarm = SwarmConfig {
        switches: args.switches,
        pps_per_switch: args.pps,
        window: args.window,
        connect_stagger: Duration::from_millis(2),
        connect_deadline: Duration::from_secs(120),
        channel,
        ..SwarmConfig::default()
    };
    let report = run_swarm(controller_addr, &swarm).expect("swarm run");

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let probes = publisher.join().expect("publisher thread");

    let controller_status = endpoint.status();
    println!(
        "\nconnected {}/{} (failures {}), controller sees {} switches",
        report.connected,
        args.switches,
        report.handshake_failures,
        controller_status.connected_switches.len()
    );
    println!(
        "connect latency: p50 {:.1?}  p95 {:.1?}  p99 {:.1?}  max {:.1?}",
        report.latency_quantile(0.50),
        report.latency_quantile(0.95),
        report.latency_quantile(0.99),
        report.latency_quantile(1.0)
    );
    println!(
        "sustained packet_in throughput: {:.0} pps over {:.2?} ({} frames, {} shed)",
        report.throughput_pps(),
        report.window,
        report.packet_ins_sent,
        report.packet_ins_shed
    );
    println!(
        "ops probes while live: /metrics {}  /api/status {}",
        if probes.metrics_ok { "ok" } else { "FAILED" },
        if probes.status_ok { "ok" } else { "FAILED" }
    );

    let json_report = report_json(&args, &report, &probes);
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&args.out, &json_report).expect("write report");
    println!("report written to {}", args.out);

    if args.smoke {
        // Conservative floor for a single-core CI box; the 256 x 6 pps
        // offered load is ~1500 pps.
        const THROUGHPUT_FLOOR_PPS: f64 = 500.0;
        let mut failed = Vec::new();
        if report.handshake_failures != 0 {
            failed.push(format!("{} handshake failures", report.handshake_failures));
        }
        if report.connected != args.switches {
            failed.push(format!(
                "only {}/{} connected",
                report.connected, args.switches
            ));
        }
        if report.throughput_pps() < THROUGHPUT_FLOOR_PPS {
            failed.push(format!(
                "throughput {:.0} pps below floor {THROUGHPUT_FLOOR_PPS}",
                report.throughput_pps()
            ));
        }
        if !probes.metrics_ok {
            failed.push("/metrics probe failed".to_owned());
        }
        if !probes.status_ok {
            failed.push("/api/status probe failed".to_owned());
        }
        if !failed.is_empty() {
            eprintln!("SMOKE FAILED: {}", failed.join("; "));
            std::process::exit(1);
        }
        println!("smoke gates passed");
    }
}
