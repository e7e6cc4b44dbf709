//! A control plane driven over live TCP connections, multiplexed on one
//! thread.
//!
//! Owns a [`netsim::iface::ControlPlane`] (the bare POX-style platform or
//! FloodGuard wrapping it) and serves it over many concurrent switch and
//! device connections. The features reply's datapath id decides the role —
//! ids carrying [`crate::DEVICE_DPID_FLAG`] are cache connections whose
//! messages are delivered through [`ControlPlane::on_device_message`],
//! completing FloodGuard's migration loop over real sockets.
//!
//! # Architecture
//!
//! One std thread, `ofchannel-controller`, owns the control plane and a
//! one-thread tokio runtime, and runs everything on it: the control loop,
//! the accept task, every connection's tasks, the timers and `epoll`.
//! Every connection is the crate's one framed connection (the `conn`
//! module, the same one the switch side runs on): a reader decoding frames
//! off its socket, a writer task draining a **bounded** per-connection
//! frame queue, and an entry in the control loop's connection table. The
//! reader answers echo keepalive on its own and the connection's task
//! forwards everything else to the control loop over one shared event
//! channel. Thousands of sockets share the thread: each is polled when
//! `epoll` reports it ready, and none costs anything while it is idle.
//!
//! Replies leave once per drain: the control loop routes an event's
//! messages to their connections as soon as the event is handled, each
//! encoded straight into its connection's outbound byte queue, and the
//! writer tasks run when the drain yields the thread — each swaps its queue
//! out whole for one `write_all`, so a drain's replies to one peer cost one
//! write. `EVENT_BUDGET` bounds how long a drain holds them. No frame is
//! allocated, copied or locked on its own between handler and socket.
//!
//! Backpressure is two-layered: each connection's send queue is bounded by
//! [`ChannelConfig::send_queue_cap`], and all queues together draw from a
//! global budget of [`ControllerConfig::global_send_budget`] in-flight
//! frames. A slow switch fills its own queue (frames to it drop, counted
//! as `sends_blocked`); a slow *everything* exhausts the global budget
//! (counted as `budget_exhausted`) instead of growing memory without
//! bound.
//!
//! The endpoint only listens ([`ControllerEndpoint::listen`]): switches and
//! caches dial it, as they dial a POX or ONOS controller, and redial it
//! themselves when a session ends. It keeps echo keepalive with a liveness
//! timeout. It replays nothing after a reconnect: the control plane hears
//! of the connect and decides what the switch should hold, as FloodGuard
//! does by reading the switch's table back. Because live mode has no simulation engine to synthesize
//! telemetry, the endpoint periodically assembles a [`Telemetry`] snapshot
//! from what the controller can legitimately observe and feeds it to the
//! control plane — this is what arms FloodGuard's detector in live
//! deployments. What it cannot observe it does not make up: utilizations
//! read zero, and a switch's flow count is `None` ("unobserved"), never 0,
//! which would say "wiped". Nor does the endpoint poll for it: a frame the
//! control plane did not ask for is a frame every switch has to answer, idle
//! ones included. A control plane that wants the table asks the switches it
//! cares about through its own output, as FloodGuard does while it is
//! migrating, and reads the `StatsReply` in `on_message` like any other
//! message.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netsim::iface::{ControlOutput, ControlPlane, DeviceId, SwitchTelemetry, Telemetry};
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::{FlowMod, FlowModCommand};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::DatapathId;
use tokio::sync::mpsc;

use crate::config::ChannelConfig;
use crate::conn::{self, Conn};
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::{handshake, parse_device_dpid};

/// Configuration for [`ControllerEndpoint`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Per-connection transport settings.
    pub channel: ChannelConfig,
    /// How often synthesized telemetry is fed to the control plane.
    pub telemetry_interval: Duration,
    /// Ignored: the endpoint runs on one thread whatever this says. Kept so
    /// that configurations which set it still build.
    pub worker_threads: usize,
    /// Endpoint-wide cap on frames queued across all connections.
    pub global_send_budget: usize,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            channel: ChannelConfig::default(),
            telemetry_interval: Duration::from_millis(100),
            worker_threads: 1,
            global_send_budget: 4096,
        }
    }
}

/// Liveness snapshot of the endpoint's connection table.
#[derive(Debug, Clone, Default)]
pub struct ControllerStatus {
    /// Datapaths with a completed handshake right now.
    pub connected_switches: Vec<DatapathId>,
    /// Devices with a completed handshake right now.
    pub connected_devices: Vec<DeviceId>,
}

/// One rule in the controller's mirror of a switch's flow table.
///
/// The mirror is maintained from the flow-mods the endpoint itself sends
/// (an observability aid for the ops surface, not ground truth from the
/// switch): non-strict deletes are approximated by exact match equality,
/// and rules the switch ages out stay. Rules are listed in the order their
/// `(match, priority)` was first sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRuleView {
    /// The rule's match.
    pub of_match: OfMatch,
    /// Matching precedence; higher wins.
    pub priority: u16,
    /// Controller-assigned cookie.
    pub cookie: u64,
    /// How many actions the rule applies (0 = drop).
    pub n_actions: usize,
}

/// The mirror of one switch's table: rules in send order, and where each
/// `(match, priority)` sits among them. The control loop applies every
/// flow-mod it sends, so what one costs must not be the table's length —
/// under a flood the attacker's spoofed sources decide that.
#[derive(Default)]
struct TableMirror {
    rules: Vec<FlowRuleView>,
    index: HashMap<(OfMatch, u16), usize, Fold>,
}

/// The index's hash: a multiply-xor fold of the key's fields, seeded.
///
/// On the small-state path one flow-mod is one index probe, and SipHash
/// over a match's twenty fields cost that path more than the sixteen-rule
/// scan it replaced (+0.06 µs a packet_in; EXPERIMENTS.md "Fixed costs of
/// the attack path"). The fold is a multiplication a field. It is not
/// collision-resistant against someone who knows the seed, and the keys
/// are built from packet headers an attacker chooses — so the seed is
/// drawn per table from the process's `RandomState`, and nothing derived
/// from a hash ever leaves the process.
#[derive(Clone, Copy)]
struct Fold(u64);

impl Default for Fold {
    fn default() -> Fold {
        Fold(RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for Fold {
    type Hasher = Fold;

    fn build_hasher(&self) -> Fold {
        *self
    }
}

impl Fold {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Fold {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits, which a
        // multiplication fills last.
        self.0 ^ (self.0 >> 32)
    }
}

impl TableMirror {
    /// Applies one flow-mod.
    fn apply(&mut self, fm: &FlowMod) {
        let slot = (fm.of_match, fm.priority);
        match fm.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let rule = FlowRuleView {
                    of_match: fm.of_match,
                    priority: fm.priority,
                    cookie: fm.cookie,
                    n_actions: fm.actions.len(),
                };
                match self.index.get(&slot) {
                    Some(&at) => self.rules[at] = rule,
                    None => {
                        self.index.insert(slot, self.rules.len());
                        self.rules.push(rule);
                    }
                }
            }
            FlowModCommand::Delete if fm.of_match == OfMatch::any() => {
                self.rules.clear();
                self.index.clear();
            }
            FlowModCommand::Delete => {
                let before = self.rules.len();
                self.rules.retain(|r| r.of_match != fm.of_match);
                if self.rules.len() != before {
                    self.reindex(0);
                }
            }
            FlowModCommand::DeleteStrict => {
                if let Some(at) = self.index.remove(&slot) {
                    self.rules.remove(at);
                    self.reindex(at);
                }
            }
        }
    }

    /// Re-points the index at the rules from position `from` on, after the
    /// ones behind a removed rule moved up; from 0, rebuilds it whole.
    fn reindex(&mut self, from: usize) {
        if from == 0 {
            self.index.clear();
        }
        for (at, rule) in self.rules.iter().enumerate().skip(from) {
            self.index.insert((rule.of_match, rule.priority), at);
        }
    }
}

type Tables = Arc<Mutex<HashMap<u64, TableMirror>>>;

/// A cloneable read-only view of a live endpoint: counters, connection
/// table, and the mirrored flow tables. Survives for as long as any clone
/// does, even past the endpoint's shutdown (values then freeze).
#[derive(Clone)]
pub struct ControllerView {
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Tables,
}

impl ControllerView {
    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        crate::lock(&self.status).clone()
    }

    /// The mirrored flow tables, keyed by raw datapath id.
    pub fn flow_tables(&self) -> HashMap<u64, Vec<FlowRuleView>> {
        let tables = crate::lock(&self.tables);
        tables
            .iter()
            .map(|(dpid, table)| (*dpid, table.rules.clone()))
            .collect()
    }
}

/// Handle to a control plane served over TCP.
pub struct ControllerEndpoint {
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Tables,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    handle: Option<JoinHandle<Option<Box<dyn ControlPlane>>>>,
}

impl std::fmt::Debug for ControllerEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerEndpoint")
            .field("status", &self.status())
            .finish()
    }
}

impl ControllerEndpoint {
    /// Binds `addr` and serves `control` over every inbound connection.
    /// Switches and caches dial in, in any order; roles are learned from the
    /// handshake. The bound address is available immediately via
    /// [`ControllerEndpoint::local_addr`].
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind, or the endpoint's thread or its
    /// runtime cannot start.
    pub fn listen(
        control: Box<dyn ControlPlane>,
        addr: SocketAddr,
        config: ControllerConfig,
    ) -> io::Result<ControllerEndpoint> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let counters = Arc::new(ChannelCounters::new());
        let status = Arc::new(Mutex::new(ControllerStatus::default()));
        let tables = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let counters = Arc::clone(&counters);
            let status = Arc::clone(&status);
            let tables = Arc::clone(&tables);
            let shutdown = Arc::clone(&shutdown);
            crate::start("ofchannel-controller", move |rt| {
                rt.block_on(run(
                    control, listener, config, counters, status, tables, shutdown,
                ))
            })?
        };
        Ok(ControllerEndpoint {
            counters,
            status,
            tables,
            shutdown,
            local_addr,
            handle: Some(handle),
        })
    }

    /// The listener's bound address: where switches and caches dial.
    /// Always `Some`.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        Some(self.local_addr)
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        crate::lock(&self.status).clone()
    }

    /// A cloneable read-only view for dashboards and the ops surface.
    pub fn view(&self) -> ControllerView {
        ControllerView {
            counters: Arc::clone(&self.counters),
            status: Arc::clone(&self.status),
            tables: Arc::clone(&self.tables),
        }
    }

    /// Stops the endpoint and returns the control plane for inspection.
    pub fn shutdown(mut self) -> Box<dyn ControlPlane> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("endpoint already shut down")
            .join()
            .ok()
            .flatten()
            .expect("controller endpoint thread panicked")
    }
}

impl Drop for ControllerEndpoint {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Identity {
    Switch(DatapathId),
    Device(DeviceId),
}

/// What connection tasks report to the control loop. Events for one `key`
/// are ordered: `Connected`, then `Inbound`s, then exactly one `Closed`.
enum Event {
    Connected {
        key: u64,
        identity: Identity,
        features: FeaturesReply,
        conn: Conn,
    },
    Inbound {
        key: u64,
        msg: OfMessage,
    },
    Closed {
        key: u64,
    },
}

struct ConnState {
    identity: Identity,
    conn: Conn,
}

/// The control loop's connection table: connections by key, plus the key
/// outbound messages for each identity are routed to, so that [`flush`]
/// does not scan every connection for every frame.
#[derive(Default)]
struct ConnTable {
    by_key: HashMap<u64, ConnState>,
    route: HashMap<Identity, u64>,
}

impl ConnTable {
    /// Adds a handshaken connection; it takes over its identity's traffic.
    fn insert(&mut self, key: u64, st: ConnState) {
        self.route.insert(st.identity, key);
        self.by_key.insert(key, st);
    }

    /// Removes a connection. If it carried its identity's traffic, another
    /// live connection of that identity (a reconnect that overlapped)
    /// takes over.
    fn remove(&mut self, key: u64) -> Option<ConnState> {
        let st = self.by_key.remove(&key)?;
        if self.route.get(&st.identity) == Some(&key) {
            let heir = self
                .by_key
                .iter()
                .find_map(|(k, c)| (c.identity == st.identity).then_some(*k));
            match heir {
                Some(heir) => self.route.insert(st.identity, heir),
                None => self.route.remove(&st.identity),
            };
        }
        Some(st)
    }

    /// The connection that messages for `identity` go to, if one is up.
    fn for_identity(&self, identity: Identity) -> Option<&ConnState> {
        self.by_key.get(self.route.get(&identity)?)
    }
}

/// How many events one drain handles before the control loop yields the
/// thread to the connections' tasks (writers, readers, the accept task).
const EVENT_BUDGET: usize = 512;
const EVENT_CHANNEL_CAP: usize = 4096;

type Shared = conn::Shared<Event>;

async fn run(
    control: Box<dyn ControlPlane>,
    listener: std::net::TcpListener,
    config: ControllerConfig,
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Tables,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let (events_tx, events_rx) = mpsc::channel::<Event>(EVENT_CHANNEL_CAP);
    let shared = Shared::new(
        config.channel,
        Arc::clone(&counters),
        config.global_send_budget,
        events_tx,
    );
    // Every inbound dial is a task of its own; the control loop holds the
    // only receiver, and this thread runs them all.
    tokio::spawn(conn::accept_each(listener, move |stream| {
        accepted(stream, Rc::clone(&shared))
    }));
    control_loop(
        control, events_rx, config, counters, status, tables, shutdown,
    )
    .await
}

/// One inbound dial: handshake under its deadline, then the connection,
/// reported to the control loop. A dial that does not complete the handshake
/// is a counted connect failure.
async fn accepted(mut stream: tokio::net::TcpStream, shared: Rc<Shared>) {
    let Ok((features, residue)) = handshake::initiate_async(&mut stream, &shared.cfg).await else {
        shared.counters.record_connect_failure();
        return;
    };
    let identity = match parse_device_dpid(features.datapath_id) {
        Some(device) => Identity::Device(device),
        None => Identity::Switch(features.datapath_id),
    };
    let connected = |key, conn| Event::Connected {
        key,
        identity,
        features,
        conn,
    };
    let inbound = |key, msg| match msg {
        Some(msg) => Event::Inbound { key, msg },
        None => Event::Closed { key },
    };
    shared.serve(stream, residue, connected, inbound).await;
}

#[allow(clippy::too_many_lines)]
async fn control_loop(
    mut control: Box<dyn ControlPlane>,
    mut events: mpsc::Receiver<Event>,
    config: ControllerConfig,
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Tables,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let cfg = config.channel;
    let epoch = Instant::now();
    let mut conns = ConnTable::default();
    // Identities that completed a handshake at least once; a later
    // handshake by the same identity is a counted reconnect.
    let mut ever: HashSet<Identity> = HashSet::new();
    let mut xid: u32 = 1;
    let mut last_telemetry = Instant::now();
    let mut last_tick = 0.0f64;
    let keepalive_scan = (cfg.echo_interval.min(cfg.liveness_timeout) / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    let mut last_keepalive = Instant::now();
    // Recycled: every use ends in a `flush`, which leaves it empty.
    let mut out = ControlOutput::new();
    // Whether the connection table changed since `status` was published.
    let mut table_changed = false;

    while !shutdown.load(Ordering::SeqCst) {
        // Wait for the first event (bounded so timers and shutdown are
        // honored), then drain a batch without further waiting.
        let wait = next_wait(
            config
                .telemetry_interval
                .saturating_sub(last_telemetry.elapsed()),
            keepalive_scan.saturating_sub(last_keepalive.elapsed()),
        );
        let mut next = tokio::time::timeout(wait, events.recv())
            .await
            .unwrap_or_default();
        // Read after the wait: the drain is stamped with when it starts, not
        // with when the loop went idle (up to `next_wait`'s 50 ms earlier).
        let now = epoch.elapsed().as_secs_f64();
        let mut batch = 0usize;
        while let Some(event) = next.take() {
            table_changed |= handle_event(
                event,
                &mut control,
                &mut conns,
                &mut ever,
                &counters,
                now,
                &mut out,
            );
            // Hand this event's replies to their queues before the next is
            // handled: no more than one event's messages are ever held
            // here. They leave when the drain yields.
            flush(&conns, &tables, &mut out);
            batch += 1;
            if batch >= EVENT_BUDGET {
                break;
            }
            next = events.try_recv().ok();
        }
        if batch >= EVENT_BUDGET {
            // Events are still queued, so the wait below would not yield:
            // let the writers send this drain's replies first.
            tokio::task::yield_now().await;
        }

        // Synthesized telemetry: what a live controller can observe.
        if last_telemetry.elapsed() >= config.telemetry_interval {
            last_telemetry = Instant::now();
            let telemetry = Telemetry {
                switches: conns
                    .by_key
                    .values()
                    .filter_map(|c| match c.identity {
                        Identity::Switch(dpid) => Some(SwitchTelemetry {
                            dpid,
                            buffer_utilization: 0.0,
                            datapath_utilization: 0.0,
                            ingress_len: 0,
                            misses: 0,
                            flow_count: None,
                        }),
                        Identity::Device(_) => None,
                    })
                    .collect(),
                controller_queue: 0,
                controller_utilization: 0.0,
            };
            control.on_telemetry(&telemetry, now, &mut out);
            flush(&conns, &tables, &mut out);
        }

        // Control-plane tick.
        if let Some(interval) = control.tick_interval() {
            if now - last_tick >= interval {
                last_tick = now;
                control.on_tick(now, &mut out);
                flush(&conns, &tables, &mut out);
            }
        }

        // Keepalive probes and liveness.
        if last_keepalive.elapsed() >= keepalive_scan {
            last_keepalive = Instant::now();
            for st in conns.by_key.values_mut() {
                // A timed-out connection is only shut down here: its reader
                // observes that and emits `Closed`, which performs the
                // bookkeeping exactly once.
                st.conn.keepalive(&cfg, &mut xid, &counters);
            }
        }

        // Publish liveness for observers, in the iteration whose drain
        // changed it: only a connect or a close does.
        if std::mem::take(&mut table_changed) {
            let mut switches: Vec<DatapathId> = conns
                .by_key
                .values()
                .filter_map(|c| match c.identity {
                    Identity::Switch(dpid) => Some(dpid),
                    Identity::Device(_) => None,
                })
                .collect();
            switches.sort_unstable();
            switches.dedup();
            let mut devices: Vec<DeviceId> = conns
                .by_key
                .values()
                .filter_map(|c| match c.identity {
                    Identity::Device(device) => Some(device),
                    Identity::Switch(_) => None,
                })
                .collect();
            devices.sort_unstable_by_key(|d| d.0);
            devices.dedup();
            let mut st = crate::lock(&status);
            st.connected_switches = switches;
            st.connected_devices = devices;
        }
    }
    control
}

fn next_wait(until_telemetry: Duration, until_keepalive: Duration) -> Duration {
    until_telemetry
        .min(until_keepalive)
        .clamp(Duration::from_millis(1), Duration::from_millis(50))
}

/// Hands one event to the control plane. Returns whether the connection
/// table changed.
#[allow(clippy::too_many_arguments)]
fn handle_event(
    event: Event,
    control: &mut Box<dyn ControlPlane>,
    conns: &mut ConnTable,
    ever: &mut HashSet<Identity>,
    counters: &ChannelCounters,
    now: f64,
    out: &mut ControlOutput,
) -> bool {
    match event {
        Event::Connected {
            key,
            identity,
            features,
            conn,
        } => {
            if !ever.insert(identity) {
                counters.record_reconnect();
            }
            if let Identity::Switch(dpid) = identity {
                control.on_switch_connect(dpid, features, now, out);
            }
            conns.insert(key, ConnState { identity, conn });
            true
        }
        Event::Inbound { key, msg } => {
            let Some(st) = conns.by_key.get(&key) else {
                return false; // raced with teardown
            };
            match st.identity {
                Identity::Switch(dpid) => control.on_message(dpid, msg, now, out),
                Identity::Device(device) => control.on_device_message(device, msg, now, out),
            }
            false
        }
        Event::Closed { key } => {
            let Some(st) = conns.remove(key) else {
                return false;
            };
            if let Identity::Switch(dpid) = st.identity {
                control.on_switch_disconnect(dpid, now, out);
            }
            true
        }
    }
}

/// Routes queued control-plane messages to the connection owning each
/// datapath — as the connection table stands now, which is why the control
/// loop calls this after every event — and leaves `out` empty for reuse.
/// Messages to datapaths that are not connected, plus frames rejected by
/// backpressure, are dropped — the control plane will observe the gap the
/// same way it would observe loss on a congested channel. Flow-mod frames
/// routed to a connection are also mirrored into the ops-facing flow
/// tables (one index probe each, whatever the table holds).
fn flush(conns: &ConnTable, tables: &Mutex<HashMap<u64, TableMirror>>, out: &mut ControlOutput) {
    for (dpid, msg) in out.messages.drain(..) {
        let Some(st) = conns.for_identity(Identity::Switch(dpid)) else {
            continue;
        };
        let _ = st.conn.send(&msg);
        if let OfBody::FlowMod(fm) = &msg.body {
            crate::lock(tables).entry(dpid.0).or_default().apply(fm);
        }
    }
    out.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::SendBudget;
    use ofproto::types::Xid;

    /// Emits a flow-mod toward switch 1 for every message from switch 2,
    /// and a barrier toward whichever switch connects.
    struct Stub;

    fn rule(cookie: u64) -> OfMessage {
        let fm = FlowMod::add(OfMatch::any(), Vec::new()).with_cookie(cookie);
        OfMessage::new(Xid(cookie as u32), OfBody::FlowMod(fm))
    }

    impl ControlPlane for Stub {
        fn on_switch_connect(
            &mut self,
            dpid: DatapathId,
            _features: FeaturesReply,
            _now: f64,
            out: &mut ControlOutput,
        ) {
            out.send(dpid, OfMessage::new(Xid(99), OfBody::BarrierRequest));
        }

        fn on_message(
            &mut self,
            dpid: DatapathId,
            msg: OfMessage,
            _now: f64,
            out: &mut ControlOutput,
        ) {
            if dpid == DatapathId(2) {
                out.send(DatapathId(1), rule(u64::from(msg.xid.0)));
            }
        }
    }

    /// The mirror as it was before it had an index: one scan of the table
    /// per flow-mod. The reference the indexed one is held to.
    fn mirror_by_scan(table: &mut Vec<FlowRuleView>, fm: &FlowMod) {
        match fm.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let rule = FlowRuleView {
                    of_match: fm.of_match,
                    priority: fm.priority,
                    cookie: fm.cookie,
                    n_actions: fm.actions.len(),
                };
                match table
                    .iter_mut()
                    .find(|r| r.of_match == fm.of_match && r.priority == fm.priority)
                {
                    Some(slot) => *slot = rule,
                    None => table.push(rule),
                }
            }
            FlowModCommand::Delete => {
                if fm.of_match == OfMatch::any() {
                    table.clear();
                } else {
                    table.retain(|r| r.of_match != fm.of_match);
                }
            }
            FlowModCommand::DeleteStrict => {
                table.retain(|r| !(r.of_match == fm.of_match && r.priority == fm.priority));
            }
        }
    }

    proptest::proptest! {
        /// Whatever is sent, in whatever order, the indexed mirror lists
        /// what the scan listed, rule for rule: five matches (one of them
        /// `any`) at three priorities, so scripts keep hitting pairs they
        /// have used, and equal matches at different priorities.
        #[test]
        fn indexed_mirror_lists_what_the_scan_listed(
            script in proptest::collection::vec(
                (0usize..5, 0usize..5, 0u16..3, 0usize..3),
                0..60,
            ),
        ) {
            let commands = [
                FlowModCommand::Add,
                FlowModCommand::Modify,
                FlowModCommand::ModifyStrict,
                FlowModCommand::Delete,
                FlowModCommand::DeleteStrict,
            ];
            let view = ControllerView {
                counters: Arc::new(ChannelCounters::new()),
                status: Arc::default(),
                tables: Arc::default(),
            };
            let mut scanned = Vec::new();
            for (step, (command, which, priority, n_actions)) in script.into_iter().enumerate() {
                let of_match = match which {
                    0 => OfMatch::any(),
                    port => OfMatch::any().with_in_port(port as u16),
                };
                let actions = vec![ofproto::actions::Action::Output(ofproto::types::PortNo::Flood); n_actions];
                let mut fm = FlowMod::add(of_match, actions)
                    .with_priority(priority)
                    .with_cookie(step as u64);
                fm.command = commands[command];
                view.tables.lock().unwrap().entry(1).or_default().apply(&fm);
                mirror_by_scan(&mut scanned, &fm);
                let tables = view.flow_tables();
                proptest::prop_assert_eq!(&tables[&1], &scanned, "after step {}: {:?}", step, fm);
                let mirror = view.tables.lock().unwrap();
                proptest::prop_assert_eq!(mirror[&1].index.len(), scanned.len());
            }
        }
    }

    #[test]
    fn a_message_is_routed_by_the_table_as_it_stands_when_its_event_is_handled() {
        let counters = Arc::new(ChannelCounters::new());
        let budget = SendBudget::new(64);
        let tables = Mutex::new(HashMap::new());
        let mut control: Box<dyn ControlPlane> = Box::new(Stub);
        let mut conns = ConnTable::default();
        let mut ever = HashSet::new();
        let mut out = ControlOutput::new();
        // What `control_loop` does with one event of a drain.
        let mut step = |event: Event| {
            handle_event(
                event,
                &mut control,
                &mut conns,
                &mut ever,
                &counters,
                0.0,
                &mut out,
            );
            flush(&conns, &tables, &mut out);
            assert!(out.messages.is_empty(), "flush leaves the output empty");
        };
        let mut next_key = 0u64;
        let mut connect = |dpid: u64| {
            let (conn, queue) = Conn::unserved(64, &budget, &counters);
            let key = next_key;
            next_key += 1;
            let event = Event::Connected {
                key,
                identity: Identity::Switch(DatapathId(dpid)),
                features: FeaturesReply {
                    datapath_id: DatapathId(dpid),
                    n_buffers: 0,
                    n_tables: 1,
                    ports: Vec::new(),
                },
                conn,
            };
            (key, queue, event)
        };
        let inbound = |key: u64, xid: u32| Event::Inbound {
            key,
            msg: OfMessage::new(Xid(xid), OfBody::BarrierReply),
        };
        let barrier = OfMessage::new(Xid(99), OfBody::BarrierRequest);

        let (a_key, a_queue, a_connected) = connect(1);
        let (b_key, _b_queue, b_connected) = connect(2);
        step(a_connected);
        step(b_connected);
        step(inbound(b_key, 10));
        assert_eq!(a_queue.drain_decoded(), vec![barrier.clone(), rule(10)]);

        // One drain: A goes away, B's handler addresses A, A is back.
        step(Event::Closed { key: a_key });
        step(inbound(b_key, 11));
        let (_, a_again, a_reconnected) = connect(1);
        step(a_reconnected);
        assert!(
            a_queue.drain_decoded().is_empty(),
            "nothing for the dead connection"
        );
        assert_eq!(
            a_again.drain_decoded(),
            vec![barrier],
            "the greeting only: the rule decided while A was away went nowhere"
        );
        assert_eq!(counters.snapshot().reconnects, 1);
        assert_eq!(
            tables
                .lock()
                .unwrap()
                .get(&1)
                .map(|table| table.rules.len()),
            Some(1),
            "only what reached A is mirrored"
        );
    }
}
