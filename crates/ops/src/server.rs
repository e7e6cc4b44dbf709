//! The ops HTTP server: Prometheus exposition plus the REST admin API.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use floodguard::admin::{AdminHandle, AdminSnapshot, ThresholdUpdate};
use floodguard::{FloodGuardStats, MonitorHandle, State};
use obs::Json;
use ofchannel::{ControllerView, CountersSnapshot};

use crate::http::{read_request, write_response, Request};

/// What the server exposes; every field is optional so the surface works
/// for a bare controller (no FloodGuard) or a metrics-only deployment.
#[derive(Default, Clone)]
pub struct OpsState {
    /// Metrics hub; serves `GET /metrics`.
    pub hub: Option<obs::ObsHandle>,
    /// Controller endpoint view; serves `/api/status` and `/api/flows`.
    pub view: Option<ControllerView>,
    /// FloodGuard monitor; serves `/api/fsm`.
    pub monitor: Option<MonitorHandle>,
    /// FloodGuard admin handle; serves `/api/admin/*`.
    pub admin: Option<AdminHandle>,
}

impl OpsState {
    /// An empty state (every endpoint 404s until something is attached).
    pub fn new() -> OpsState {
        OpsState::default()
    }

    /// Attaches a metrics hub.
    #[must_use]
    pub fn with_hub(mut self, hub: obs::ObsHandle) -> OpsState {
        self.hub = Some(hub);
        self
    }

    /// Attaches a controller endpoint view.
    #[must_use]
    pub fn with_view(mut self, view: ControllerView) -> OpsState {
        self.view = Some(view);
        self
    }

    /// Attaches a FloodGuard monitor.
    #[must_use]
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> OpsState {
        self.monitor = Some(monitor);
        self
    }

    /// Attaches a FloodGuard admin handle.
    #[must_use]
    pub fn with_admin(mut self, admin: AdminHandle) -> OpsState {
        self.admin = Some(admin);
        self
    }
}

/// A running ops server; dropping it stops the serving thread.
pub struct OpsServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for OpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl OpsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `state` until the
    /// returned handle is dropped.
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be bound.
    pub fn spawn(state: OpsState, addr: &str) -> io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("ops-http".to_owned())
                .spawn(move || serve(&listener, &state, &shutdown))?
        };
        Ok(OpsServer {
            local_addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: &TcpListener, state: &OpsState, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Requests are tiny and handled inline; the timeouts bound
                // how long a stuck client can hold the serving thread.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_nodelay(true);
                handle_connection(&mut stream, state);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(stream: &mut TcpStream, state: &OpsState) {
    let Some(req) = read_request(stream) else {
        return;
    };
    let (status, content_type, body) = route(&req, state);
    write_response(stream, status, content_type, &body);
}

/// Dispatches one request. Returns `(status, content type, body)`.
fn route(req: &Request, state: &OpsState) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4";
    let method = req.method.as_str();
    match (method, req.path.as_str()) {
        ("GET", "/metrics") => match &state.hub {
            Some(hub) => (200, PROM, obs::prom::encode(&hub.registry)),
            None => not_found("no metrics hub attached"),
        },
        ("GET", "/api/status") => match &state.view {
            Some(view) => (200, JSON, status_json(view).compact()),
            None => not_found("no controller view attached"),
        },
        ("GET", "/api/flows") => match &state.view {
            Some(view) => (200, JSON, flows_json(view).compact()),
            None => not_found("no controller view attached"),
        },
        ("GET", "/api/fsm") => match &state.monitor {
            Some(monitor) => (200, JSON, fsm_json(monitor).compact()),
            None => not_found("no floodguard monitor attached"),
        },
        ("GET", "/api/admin") => match &state.admin {
            Some(admin) => (200, JSON, admin_json(&admin.snapshot()).compact()),
            None => not_found("no admin handle attached"),
        },
        ("POST", "/api/admin/block") => with_admin(state, |admin| block(req, admin, true)),
        ("POST", "/api/admin/unblock") => with_admin(state, |admin| block(req, admin, false)),
        ("GET", "/api/admin/thresholds") => with_admin(state, |admin| {
            let snap = admin.snapshot();
            (200, JSON, thresholds_json(&snap).compact())
        }),
        ("PUT", "/api/admin/thresholds") => with_admin(state, |admin| set_thresholds(req, admin)),
        (_, "/metrics" | "/api/status" | "/api/flows" | "/api/fsm" | "/api/admin") => {
            method_not_allowed()
        }
        (_, "/api/admin/block" | "/api/admin/unblock" | "/api/admin/thresholds") => {
            method_not_allowed()
        }
        _ => not_found("unknown path"),
    }
}

fn with_admin(
    state: &OpsState,
    f: impl FnOnce(&AdminHandle) -> (u16, &'static str, String),
) -> (u16, &'static str, String) {
    match &state.admin {
        Some(admin) => f(admin),
        None => not_found("no admin handle attached"),
    }
}

fn not_found(reason: &str) -> (u16, &'static str, String) {
    error(404, reason)
}

fn bad_request(reason: &str) -> (u16, &'static str, String) {
    error(400, reason)
}

fn method_not_allowed() -> (u16, &'static str, String) {
    error(405, "method not allowed")
}

fn error(status: u16, reason: &str) -> (u16, &'static str, String) {
    (
        status,
        "application/json",
        Json::obj().set("error", reason).compact(),
    )
}

/// `POST /api/admin/block?ip=10.0.0.9` or `?port=3` (and the unblock
/// mirror). Exactly one of `ip`/`port` must be present.
fn block(req: &Request, admin: &AdminHandle, add: bool) -> (u16, &'static str, String) {
    let ip = req.query.get("ip");
    let port = req.query.get("port");
    let changed = match (ip, port) {
        (Some(ip), None) => {
            let Ok(ip) = ip.parse::<Ipv4Addr>() else {
                return bad_request("ip must be a dotted-quad IPv4 address");
            };
            if add {
                admin.block_ip(ip)
            } else {
                admin.unblock_ip(ip)
            }
        }
        (None, Some(port)) => {
            let Ok(port) = port.parse::<u16>() else {
                return bad_request("port must be a u16");
            };
            if add {
                admin.block_port(port)
            } else {
                admin.unblock_port(port)
            }
        }
        _ => return bad_request("pass exactly one of ?ip= or ?port="),
    };
    (
        200,
        "application/json",
        Json::obj()
            .set("changed", changed)
            .set("admin", admin_json(&admin.snapshot()))
            .compact(),
    )
}

/// `PUT /api/admin/thresholds?score_threshold=0.9&rate_capacity_pps=5000`.
/// Either parameter may be omitted; the response reports the *staged*
/// values (FloodGuard applies them at its next telemetry tick).
fn set_thresholds(req: &Request, admin: &AdminHandle) -> (u16, &'static str, String) {
    let mut update = ThresholdUpdate::default();
    if let Some(v) = req.query.get("score_threshold") {
        let Ok(v) = v.parse::<f64>() else {
            return bad_request("score_threshold must be a number");
        };
        update.score_threshold = Some(v);
    }
    if let Some(v) = req.query.get("rate_capacity_pps") {
        let Ok(v) = v.parse::<f64>() else {
            return bad_request("rate_capacity_pps must be a number");
        };
        update.rate_capacity_pps = Some(v);
    }
    if update.score_threshold.is_none() && update.rate_capacity_pps.is_none() {
        return bad_request("pass score_threshold= and/or rate_capacity_pps=");
    }
    admin.set_thresholds(update);
    (
        200,
        "application/json",
        Json::obj()
            .set("staged_score_threshold", update.score_threshold)
            .set("staged_rate_capacity_pps", update.rate_capacity_pps)
            .compact(),
    )
}

fn counters_json(c: &CountersSnapshot) -> Json {
    Json::obj()
        .set("frames_in", c.frames_in)
        .set("frames_out", c.frames_out)
        .set("bytes_in", c.bytes_in)
        .set("bytes_out", c.bytes_out)
        .set("decode_errors", c.decode_errors)
        .set("reconnects", c.reconnects)
        .set("connect_failures", c.connect_failures)
        .set("sends_blocked", c.sends_blocked)
        .set("send_queue_hwm", c.send_queue_hwm)
        .set("keepalive_timeouts", c.keepalive_timeouts)
        .set("budget_exhausted", c.budget_exhausted)
        .set("sends_oversize", c.sends_oversize)
}

fn status_json(view: &ControllerView) -> Json {
    let status = view.status();
    let switches: Vec<u64> = status.connected_switches.iter().map(|d| d.0).collect();
    let devices: Vec<usize> = status.connected_devices.iter().map(|d| d.0).collect();
    Json::obj()
        .set("connected_switches", switches)
        .set("connected_devices", devices)
        .set("counters", counters_json(&view.counters()))
}

fn flows_json(view: &ControllerView) -> Json {
    let tables = view.flow_tables();
    let mut dpids: Vec<u64> = tables.keys().copied().collect();
    dpids.sort_unstable();
    let mut flows = Json::obj();
    for dpid in dpids {
        let rules = tables[&dpid].iter().map(|r| {
            Json::obj()
                .set("match", format!("{:?}", r.of_match))
                .set("priority", r.priority)
                .set("cookie", r.cookie)
                .set("n_actions", r.n_actions)
        });
        flows = flows.set(&dpid.to_string(), Json::Arr(rules.collect()));
    }
    flows
}

fn state_name(state: State) -> &'static str {
    match state {
        State::Idle => "Idle",
        State::Init => "Init",
        State::Defense => "Defense",
        State::Finish => "Finish",
    }
}

fn stats_json(stats: &FloodGuardStats) -> Json {
    Json::obj()
        .set("attacks_detected", stats.attacks_detected)
        .set("attacks_ended", stats.attacks_ended)
        .set("proactive_installed", stats.proactive_installed)
        .set("proactive_removed", stats.proactive_removed)
        .set("updates", stats.updates)
        .set("reraised", stats.reraised)
        .set("rules_repaired", stats.rules_repaired)
        .set("cache_failovers", stats.cache_failovers)
        .set("degraded", stats.degraded)
}

fn fsm_json(monitor: &MonitorHandle) -> Json {
    let snap = monitor.lock().clone();
    let transitions = snap.transitions.iter().map(|t| {
        Json::obj()
            .set("from", state_name(t.from))
            .set("to", state_name(t.to))
            .set("at", t.at)
    });
    Json::obj()
        .set("state", snap.state.map(state_name))
        .set("stats", stats_json(&snap.stats))
        .set("transitions", Json::Arr(transitions.collect()))
}

fn admin_json(snap: &AdminSnapshot) -> Json {
    let ips = snap.blocked_ips.iter().map(|ip| Json::from(ip.to_string()));
    Json::obj()
        .set("blocked_ips", Json::Arr(ips.collect()))
        .set("blocked_ports", snap.blocked_ports.clone())
        .set("dropped_by_ip", snap.dropped_by_ip)
        .set("dropped_by_port", snap.dropped_by_port)
        .set("thresholds", thresholds_json(snap))
}

fn thresholds_json(snap: &AdminSnapshot) -> Json {
    Json::obj()
        .set("score_threshold", snap.thresholds.score_threshold)
        .set("rate_capacity_pps", snap.thresholds.rate_capacity_pps)
}
