//! Own binary: it counts the whole process's threads and descriptors.
//!
//! Endpoint churn must leave nothing behind, connections must not cost
//! threads, and an endpoint is one thread.
//!
//! The live transport used to run a reader and a writer thread per
//! connection, joined in `Drop`; an endpoint churning through reconnects
//! that failed to join them accumulated threads blocked in `read` until fd
//! or thread exhaustion. Connections are tasks on each endpoint's runtime
//! now, each endpoint runs its runtime on one thread of its own, and
//! dropping an endpoint must return that thread and every descriptor.

use std::time::{Duration, Instant};

use netsim::iface::{DataPlaneDevice, DeviceOutput, NullControlPlane};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::types::DatapathId;

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).map_or(0, Iterator::count)
}

/// This process's live threads and open descriptors.
fn threads_and_fds() -> (usize, usize) {
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

struct Sink;

impl DataPlaneDevice for Sink {
    fn on_packet(&mut self, _pkt: Packet, _now: f64, _out: &mut DeviceOutput) {}
}

/// A controller and a switch with `devices` attached devices, once the
/// switch and every device hold a session with it.
fn connected_pair(devices: u16) -> (SwitchEndpoint, ControllerEndpoint) {
    let controller = ControllerEndpoint::listen(
        Box::new(NullControlPlane),
        "127.0.0.1:0".parse().unwrap(),
        // The control loop looks at its stop flag once per wait, and never
        // waits past a telemetry tick: a short one keeps the rounds short.
        ControllerConfig {
            telemetry_interval: Duration::from_millis(2),
            ..ControllerConfig::default()
        },
    )
    .unwrap();
    let ports: Vec<u16> = (1..=2 + devices).collect();
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), ports);
    let attached = (0..devices)
        .map(|i| (3 + i, Box::new(Sink) as Box<dyn DataPlaneDevice>))
        .collect();
    let endpoint = SwitchEndpoint::spawn(
        switch,
        attached,
        controller.local_addr().unwrap(),
        ChannelConfig::default(),
    )
    .unwrap();
    let sessions = 1 + usize::from(devices);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = controller.status();
        if status.connected_switches.len() + status.connected_devices.len() == sessions {
            break;
        }
        assert!(Instant::now() < deadline, "sessions never came up");
        std::thread::sleep(Duration::from_millis(1));
    }
    (endpoint, controller)
}

#[test]
fn churn_leaves_threads_and_descriptors_flat_and_connections_cost_no_thread() {
    if entries("/proc/self/task") == 0 {
        eprintln!("skipping: /proc/self/task unavailable");
        return;
    }

    // One round first: lazily created process state is not a leak.
    drop(connected_pair(1));
    let before = threads_and_fds();

    // Each endpoint is one thread: its runtime, its connections and its
    // timers all run there.
    let controller = ControllerEndpoint::listen(
        Box::new(NullControlPlane),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    assert_eq!(threads_and_fds().0, before.0 + 1, "a controller endpoint");
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        controller.local_addr().unwrap(),
        ChannelConfig::default(),
    )
    .unwrap();
    assert_eq!(threads_and_fds().0, before.0 + 2, "and a switch endpoint");
    drop(endpoint);
    drop(controller);
    assert_eq!(threads_and_fds(), before);

    for _ in 0..100 {
        let (endpoint, controller) = connected_pair(1);
        drop(controller);
        drop(endpoint);
    }
    assert_eq!(threads_and_fds(), before, "(threads, fds) after 100 rounds");

    // Four sessions run on as many threads as one does.
    let one = connected_pair(0);
    let threads_with_one = threads_and_fds().0;
    drop(one);
    let four = connected_pair(3);
    assert_eq!(threads_and_fds().0, threads_with_one);
    drop(four);
    assert_eq!(threads_and_fds(), before);
}
