//! The system under test, assembled the way a deployment would: seeded
//! applications on a `ControllerPlatform`, wrapped by `FloodGuard`, served
//! by `ControllerEndpoint::listen` on loopback with one runtime worker.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig, State};
use netsim::iface::{ControlOutput, ControlPlane, DeviceId, Telemetry};
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::{DatapathId, PortNo};

use crate::gen::{Host, CACHE_PORT};
use crate::trace::Tracer;

/// Entries seeded into `route`, `of_firewall` and `mac_blocker` for the
/// large-state workload.
pub const LARGE_TABLE_ENTRIES: usize = 1000;

/// `l2_learning` alone, knowing `hosts`: the smallest application work.
pub fn small_platform(hosts: &[Host]) -> ControllerPlatform {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let env = &mut platform.app_mut("l2_learning").expect("registered").env;
    for h in hosts {
        apps::l2_learning::learn_host(env, h.mac, h.port);
    }
    platform
}

/// The paper's five evaluation applications plus `route`, each holding
/// about a thousand entries: the working set is far beyond 16 hosts.
pub fn large_platform(hosts: &[Host]) -> ControllerPlatform {
    let mut platform = ControllerPlatform::new();
    for program in apps::evaluation_apps() {
        platform.register(program);
    }
    platform.register(apps::route::program());
    let env = &mut platform.app_mut("l2_learning").expect("registered").env;
    for h in hosts {
        apps::l2_learning::learn_host(env, h.mac, h.port);
    }
    let env = &mut platform.app_mut("l3_learning").expect("registered").env;
    for h in hosts {
        apps::l3_learning::learn_host(env, h.ip, h.port);
    }
    apps::route::seed(
        &mut platform.app_mut("route").expect("registered").env,
        LARGE_TABLE_ENTRIES,
    );
    apps::of_firewall::seed(
        &mut platform.app_mut("of_firewall").expect("registered").env,
        LARGE_TABLE_ENTRIES,
    );
    apps::mac_blocker::seed(
        &mut platform.app_mut("mac_blocker").expect("registered").env,
        LARGE_TABLE_ENTRIES,
    );
    platform
}

/// The evaluation applications with one benign host learned: what the
/// attack workload starts from.
pub fn attack_platform(benign: &Host) -> ControllerPlatform {
    let mut platform = ControllerPlatform::new();
    for program in apps::evaluation_apps() {
        platform.register(program);
    }
    let env = &mut platform.app_mut("l2_learning").expect("registered").env;
    apps::l2_learning::learn_host(env, benign.mac, benign.port);
    let env = &mut platform.app_mut("l3_learning").expect("registered").env;
    apps::l3_learning::learn_host(env, benign.ip, benign.port);
    platform
}

/// Rate-only detection, as `examples/live_channel` configures it: over
/// TCP the synthesized telemetry carries no utilisations, so only the
/// packet_in rate can trip the detector. `rate_capacity_pps` 2000 with a
/// 0.5 threshold trips at 1000 packet_in/s.
fn rate_only(rate_capacity_pps: f64) -> DetectionConfig {
    DetectionConfig {
        rate_capacity_pps,
        score_threshold: 0.5,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    }
}

/// FloodGuard that stays Idle whatever the load: the detector's capacity
/// is out of reach, every other check stays on.
pub fn idle_config() -> FloodGuardConfig {
    FloodGuardConfig {
        detection: rate_only(1e12),
        ..FloodGuardConfig::default()
    }
}

/// FloodGuard as `examples/live_channel` runs it.
pub fn attack_config() -> FloodGuardConfig {
    FloodGuardConfig {
        detection: rate_only(2000.0),
        ..FloodGuardConfig::default()
    }
}

/// How the endpoint under test is configured: one runtime worker, and
/// send queues deep enough that a proactive-rule burst is not shed at
/// HEAD (the default 256-frame queue drops part of it; a drop would count
/// as a failed operation, and a benchmark workload must have none).
pub fn endpoint_config(telemetry_interval: Duration) -> ControllerConfig {
    ControllerConfig {
        channel: ChannelConfig::default().with_send_queue_cap(SEND_QUEUE_CAP),
        telemetry_interval,
        worker_threads: 1,
        global_send_budget: 4 * SEND_QUEUE_CAP,
    }
}

/// Per-connection send queue depth used by every live workload.
pub const SEND_QUEUE_CAP: usize = 4096;

/// Serves `control` on an ephemeral loopback port.
pub fn listen(control: Box<dyn ControlPlane>, telemetry_interval: Duration) -> Listening {
    let endpoint = ControllerEndpoint::listen(
        control,
        SocketAddr::from(([127, 0, 0, 1], 0)),
        endpoint_config(telemetry_interval),
    )
    .expect("bind a loopback listener");
    let addr = endpoint
        .local_addr()
        .expect("a listening endpoint has an address");
    Listening { endpoint, addr }
}

/// A live endpoint and where to dial it.
pub struct Listening {
    /// The endpoint under test.
    pub endpoint: ControllerEndpoint,
    /// Its loopback address.
    pub addr: SocketAddr,
}

/// The features reply of generator-played switch `dpid` with `ports`.
pub fn switch_features(dpid: u64, ports: &[u16]) -> FeaturesReply {
    FeaturesReply {
        datapath_id: DatapathId(dpid),
        n_buffers: 512,
        n_tables: 1,
        ports: ports.iter().map(|&p| PortNo::Physical(p)).collect(),
    }
}

/// Ports of the switches the state workloads play.
pub const STATE_PORTS: [u16; 5] = [1, 2, 3, 4, CACHE_PORT];

/// Ports of the attack workload's switch (paper Fig. 9).
pub const ATTACK_PORTS: [u16; 4] = [1, 2, 3, CACHE_PORT];

/// A shared span recorder the control-loop thread writes and the
/// benchmark reads after shutdown.
pub type SharedTracer = Arc<Mutex<Tracer>>;

/// `FloodGuard` with a span around each call the endpoint makes into it.
/// Used by traced runs only; it lives in the benchmark, not in the program.
pub struct Spanned {
    inner: FloodGuard,
    tracer: SharedTracer,
    ticks: u64,
}

impl Spanned {
    /// Wraps `inner`; spans go to `tracer`.
    pub fn new(inner: FloodGuard, tracer: SharedTracer) -> Spanned {
        Spanned {
            inner,
            tracer,
            ticks: 0,
        }
    }

    fn tracer(&self) -> std::sync::MutexGuard<'_, Tracer> {
        self.tracer.lock().expect("span recorder poisoned")
    }
}

impl ControlPlane for Spanned {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.inner.on_switch_connect(dpid, features, now, out);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, now: f64, out: &mut ControlOutput) {
        self.inner.on_switch_disconnect(dpid, now, out);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        let name = match msg.body {
            OfBody::PacketIn(_) => "floodguard.on_message",
            _ => "floodguard.on_message.other",
        };
        let id = self.tracer().begin(name, u64::from(msg.xid.0));
        self.inner.on_message(dpid, msg, now, out);
        self.tracer().end(id);
    }

    fn on_device_message(
        &mut self,
        device: DeviceId,
        msg: OfMessage,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let id = self
            .tracer()
            .begin("floodguard.on_device_message", u64::from(msg.xid.0));
        self.inner.on_device_message(device, msg, now, out);
        self.tracer().end(id);
    }

    fn on_telemetry(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        // Named by the state the tick starts in: an Idle tick only scores,
        // a Defense tick also tracks application state and converts rules.
        let name = match self.inner.state() {
            State::Idle => "floodguard.on_telemetry.idle",
            State::Init => "floodguard.on_telemetry.init",
            State::Defense => "floodguard.on_telemetry.defense",
            State::Finish => "floodguard.on_telemetry.finish",
        };
        self.ticks += 1;
        let id = self.tracer().begin(name, self.ticks);
        self.inner.on_telemetry(telemetry, now, out);
        self.tracer().end(id);
    }

    fn on_tick(&mut self, now: f64, out: &mut ControlOutput) {
        self.inner.on_tick(now, out);
    }

    fn tick_interval(&self) -> Option<f64> {
        self.inner.tick_interval()
    }
}
