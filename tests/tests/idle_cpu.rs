//! Regression test for idle CPU burn in the live transport.
//!
//! Both endpoints used to wake on a fixed 1 ms poll even with no traffic,
//! which burned most of a core per idle connection pair. The serving loops
//! are now event-driven (connection-reader wake channels on the switch
//! side, an epoll reactor on the controller side), so an idle pair should
//! cost a small fraction of one core: timed duties (echo keepalive,
//! telemetry snapshots, expiry sweeps) still fire, but nothing spins.
//!
//! The test lives in its own file so the measured process contains only
//! this scenario's threads.

use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::types::DatapathId;

/// Nanoseconds this process has spent on-CPU, from `/proc/self/schedstat`
/// (first field). Unlike `/proc/self/stat` utime/stime this needs no
/// clock-tick-rate assumption. `None` when the file is unavailable (non-
/// Linux or restricted procfs), in which case the test skips.
fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

fn wait_for(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A connected-but-idle switch/controller pair must stay under 30% of one
/// core. The pre-fix busy-poll loops burned ~100% here, so the bound has a
/// wide margin in both directions.
#[test]
fn idle_connection_pair_does_not_busy_poll() {
    let Some(_) = process_cpu_ns() else {
        eprintln!("skipping: /proc/self/schedstat unavailable");
        return;
    };

    let channel = ChannelConfig::default();
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let controller = ControllerEndpoint::listen(
        Box::new(platform),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig {
            channel,
            ..ControllerConfig::default()
        },
    )
    .unwrap();

    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        controller.local_addr().unwrap(),
        channel,
    )
    .unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches.len() == 1
        }),
        "controller never connected to the switch"
    );

    // Let connect-time churn (handshake, first telemetry, thread spawns)
    // settle before sampling.
    std::thread::sleep(Duration::from_millis(300));

    let cpu_before = process_cpu_ns().unwrap();
    let wall_before = Instant::now();
    std::thread::sleep(Duration::from_millis(1500));
    let cpu_after = process_cpu_ns().unwrap();
    let wall = wall_before.elapsed();

    let busy = (cpu_after - cpu_before) as f64 / wall.as_nanos() as f64;
    assert!(
        busy < 0.30,
        "idle endpoint pair burned {:.0}% of a core (budget 30%)",
        busy * 100.0
    );

    drop(controller);
    let _ = endpoint.shutdown();
}
