//! A control plane driven over live TCP connections, multiplexed on a
//! small async runtime.
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
//! One std thread owns the control plane and a tokio runtime. Every
//! connection gets three lightweight pieces: a reader task decoding frames
//! off its socket, a writer task draining a **bounded** per-connection
//! frame queue, and an entry in the control loop's connection table. The
//! reader answers echo keepalive on its own and forwards everything else
//! to the control loop over one shared event channel, so the control plane
//! (which is `!Sync` by design) stays single-threaded while thousands of
//! sockets make progress in parallel.
//!
//! Backpressure is two-layered: each connection's send queue is bounded by
//! [`ChannelConfig::send_queue_cap`], and all queues together draw from a
//! global budget of [`ControllerConfig::global_send_budget`] in-flight
//! frames. A slow switch fills its own queue (frames to it drop, counted
//! as `sends_blocked`); a slow *everything* exhausts the global budget
//! (counted as `budget_exhausted`) instead of growing memory without
//! bound.
//!
//! Endpoints either dial a fixed target list ([`ControllerEndpoint::spawn`],
//! with capped exponential backoff redial) or accept inbound switches on a
//! listener ([`ControllerEndpoint::listen`], the many-switch shape). Both
//! preserve the blocking path's semantics: echo keepalive with a liveness
//! timeout, and post-reconnect flow-mod replay from a bounded per-identity
//! ring. Because live mode has no simulation engine to synthesize
//! telemetry, the endpoint periodically assembles a [`Telemetry`] snapshot
//! from what the controller can legitimately observe and feeds it to the
//! control plane — this is what arms FloodGuard's detector in live
//! deployments.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use netsim::iface::{ControlOutput, ControlPlane, DeviceId, SwitchTelemetry, Telemetry};
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::{FlowMod, FlowModCommand};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::{DatapathId, Xid};
use ofproto::wire;
use parking_lot::Mutex;
use tokio::sync::mpsc;

use crate::config::{next_backoff, ChannelConfig};
use crate::conn::SendError;
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::{handshake, parse_device_dpid};

/// Configuration for [`ControllerEndpoint`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Per-connection transport settings.
    pub channel: ChannelConfig,
    /// How often synthesized telemetry is fed to the control plane.
    pub telemetry_interval: Duration,
    /// Async runtime worker threads (minimum 1).
    pub worker_threads: usize,
    /// Endpoint-wide cap on frames queued across all connections.
    pub global_send_budget: usize,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            channel: ChannelConfig::default(),
            telemetry_interval: Duration::from_millis(100),
            worker_threads: 2,
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
/// switch): non-strict deletes are approximated by exact match equality.
#[derive(Debug, Clone)]
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

/// A cloneable read-only view of a live endpoint: counters, connection
/// table, and the mirrored flow tables. Survives for as long as any clone
/// does, even past the endpoint's shutdown (values then freeze).
#[derive(Clone)]
pub struct ControllerView {
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Arc<Mutex<HashMap<u64, Vec<FlowRuleView>>>>,
}

impl ControllerView {
    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        self.status.lock().clone()
    }

    /// The mirrored flow tables, keyed by raw datapath id.
    pub fn flow_tables(&self) -> HashMap<u64, Vec<FlowRuleView>> {
        self.tables.lock().clone()
    }
}

/// Handle to a control plane served over TCP.
pub struct ControllerEndpoint {
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Arc<Mutex<HashMap<u64, Vec<FlowRuleView>>>>,
    shutdown: Arc<AtomicBool>,
    local_addr: Option<SocketAddr>,
    handle: Option<JoinHandle<Box<dyn ControlPlane>>>,
}

impl std::fmt::Debug for ControllerEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerEndpoint")
            .field("status", &*self.status.lock())
            .finish()
    }
}

impl ControllerEndpoint {
    /// Starts dialing `targets` and serving `control` over the resulting
    /// connections. Targets may be switch or device listeners in any
    /// order; roles are learned from the handshake. Unreachable or dead
    /// targets are redialed with capped exponential backoff.
    pub fn spawn(
        control: Box<dyn ControlPlane>,
        targets: Vec<SocketAddr>,
        config: ControllerConfig,
    ) -> ControllerEndpoint {
        ControllerEndpoint::start(control, Peers::Dial(targets), config)
            .expect("spawn controller endpoint thread")
    }

    /// Binds `addr` and serves `control` over every inbound connection —
    /// the many-switch deployment shape. The bound address is available
    /// immediately via [`ControllerEndpoint::local_addr`].
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind.
    pub fn listen(
        control: Box<dyn ControlPlane>,
        addr: SocketAddr,
        config: ControllerConfig,
    ) -> io::Result<ControllerEndpoint> {
        let listener = std::net::TcpListener::bind(addr)?;
        ControllerEndpoint::start(control, Peers::Listen(listener), config)
    }

    fn start(
        control: Box<dyn ControlPlane>,
        peers: Peers,
        config: ControllerConfig,
    ) -> io::Result<ControllerEndpoint> {
        let counters = Arc::new(ChannelCounters::new());
        let status = Arc::new(Mutex::new(ControllerStatus::default()));
        let tables = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let local_addr = match &peers {
            Peers::Dial(_) => None,
            Peers::Listen(listener) => Some(listener.local_addr()?),
        };
        let handle = {
            let counters = Arc::clone(&counters);
            let status = Arc::clone(&status);
            let tables = Arc::clone(&tables);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("ofchannel-controller".to_owned())
                .spawn(move || run(control, peers, config, counters, status, tables, shutdown))?
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

    /// The listener's bound address ([`ControllerEndpoint::listen`] mode
    /// only).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// The shared counters themselves, for observers that outlive calls.
    pub fn counters_handle(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.counters)
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        self.status.lock().clone()
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

enum Peers {
    Dial(Vec<SocketAddr>),
    Listen(std::net::TcpListener),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Identity {
    Switch(DatapathId),
    Device(DeviceId),
}

/// The endpoint-wide pool of in-flight frame permits.
struct SendBudget {
    permits: AtomicUsize,
}

impl SendBudget {
    fn new(permits: usize) -> Arc<SendBudget> {
        Arc::new(SendBudget {
            permits: AtomicUsize::new(permits.max(1)),
        })
    }

    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// Queues encoded frames toward one connection's writer task, enforcing
/// both the per-connection bound and the global budget.
#[derive(Clone)]
struct FrameSender {
    tx: mpsc::Sender<Bytes>,
    budget: Arc<SendBudget>,
    counters: Arc<ChannelCounters>,
}

impl FrameSender {
    fn send(&self, msg: &OfMessage) -> Result<(), SendError> {
        if !self.budget.try_acquire() {
            self.counters.record_budget_exhausted();
            return Err(SendError::Backpressure);
        }
        let frame = wire::encode(msg);
        match self.tx.try_send(frame) {
            Ok(()) => {
                let depth = self.tx.max_capacity() - self.tx.capacity();
                self.counters.observe_queue_depth(depth);
                Ok(())
            }
            Err(mpsc::error::TrySendError::Full(_)) => {
                self.budget.release();
                self.counters.record_send_blocked();
                self.counters.observe_queue_depth(self.tx.max_capacity());
                Err(SendError::Backpressure)
            }
            Err(mpsc::error::TrySendError::Closed(_)) => {
                self.budget.release();
                Err(SendError::Closed)
            }
        }
    }
}

/// What connection tasks report to the control loop. Events for one `key`
/// are ordered: `Connected`, then `Inbound`s, then exactly one `Closed`.
enum Event {
    Connected {
        key: u64,
        identity: Identity,
        features: FeaturesReply,
        sender: FrameSender,
        /// A dup of the socket kept for liveness-timeout teardown.
        closer: std::net::TcpStream,
        /// Milliseconds since the endpoint epoch of the last inbound frame.
        last_rx: Arc<AtomicU64>,
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
    sender: FrameSender,
    closer: std::net::TcpStream,
    last_rx: Arc<AtomicU64>,
    last_echo: Instant,
    timed_out: bool,
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

const EVENT_BUDGET: usize = 512;
const EVENT_CHANNEL_CAP: usize = 4096;

/// Everything the connection tasks share.
#[derive(Clone)]
struct Shared {
    cfg: ChannelConfig,
    counters: Arc<ChannelCounters>,
    budget: Arc<SendBudget>,
    events: mpsc::Sender<Event>,
    epoch: Instant,
    keys: Arc<AtomicU64>,
}

fn run(
    control: Box<dyn ControlPlane>,
    peers: Peers,
    config: ControllerConfig,
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Arc<Mutex<HashMap<u64, Vec<FlowRuleView>>>>,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.worker_threads.max(1))
        .enable_all()
        .build()
        .expect("build controller runtime");
    let (events_tx, events_rx) = mpsc::channel::<Event>(EVENT_CHANNEL_CAP);
    let shared = Shared {
        cfg: config.channel,
        counters: Arc::clone(&counters),
        budget: SendBudget::new(config.global_send_budget),
        events: events_tx,
        epoch: Instant::now(),
        keys: Arc::new(AtomicU64::new(0)),
    };
    match peers {
        Peers::Dial(targets) => {
            for addr in targets {
                let shared = shared.clone();
                rt.spawn(dial_loop(addr, shared));
            }
        }
        Peers::Listen(listener) => {
            let shared = shared.clone();
            rt.spawn(async move {
                if let Ok(listener) = tokio::net::TcpListener::from_std(listener) {
                    accept_loop(listener, shared).await;
                }
            });
        }
    }
    // The control loop holds the only receiver; connection tasks run on
    // the workers while it blocks here.
    drop(shared);
    let control = rt.block_on(control_loop(
        control, events_rx, config, counters, status, tables, shutdown,
    ));
    drop(rt);
    control
}

async fn dial_loop(addr: SocketAddr, shared: Shared) {
    let mut backoff = shared.cfg.reconnect_base;
    loop {
        match dial_once(addr, &shared.cfg).await {
            Ok((stream, features, residue)) => {
                backoff = shared.cfg.reconnect_base;
                if !serve_connection(stream, features, residue, &shared).await {
                    return; // endpoint is gone
                }
                // The connection died; pause one base interval before
                // redialing so a crash-looping peer is not hammered.
                tokio::time::sleep(shared.cfg.reconnect_base).await;
            }
            Err(()) => {
                shared.counters.record_connect_failure();
                tokio::time::sleep(backoff).await;
                backoff = next_backoff(&shared.cfg, backoff);
            }
        }
    }
}

async fn dial_once(
    addr: SocketAddr,
    cfg: &ChannelConfig,
) -> Result<(tokio::net::TcpStream, FeaturesReply, BytesMut), ()> {
    let connect = tokio::net::TcpStream::connect(addr);
    let mut stream = match tokio::time::timeout(cfg.connect_timeout, connect).await {
        Ok(Ok(stream)) => stream,
        Ok(Err(_)) | Err(_) => return Err(()),
    };
    let _ = stream.set_nodelay(true);
    let (features, residue) = handshake::initiate_async(&mut stream, cfg)
        .await
        .map_err(|_| ())?;
    Ok((stream, features, residue))
}

async fn accept_loop(listener: tokio::net::TcpListener, shared: Shared) {
    loop {
        let Ok((mut stream, _peer)) = listener.accept().await else {
            // Transient accept errors (e.g. fd pressure): back off briefly.
            tokio::time::sleep(Duration::from_millis(10)).await;
            continue;
        };
        let shared = shared.clone();
        tokio::spawn(async move {
            let _ = stream.set_nodelay(true);
            match handshake::initiate_async(&mut stream, &shared.cfg).await {
                Ok((features, residue)) => {
                    serve_connection(stream, features, residue, &shared).await;
                }
                Err(_) => shared.counters.record_connect_failure(),
            }
        });
    }
}

/// Runs one handshaken connection to completion: spawns its writer task
/// and reads frames inline until the socket dies. Returns `false` when the
/// control loop is gone (callers should stop redialing).
async fn serve_connection(
    stream: tokio::net::TcpStream,
    features: FeaturesReply,
    residue: BytesMut,
    shared: &Shared,
) -> bool {
    let identity = match parse_device_dpid(features.datapath_id) {
        Some(device) => Identity::Device(device),
        None => Identity::Switch(features.datapath_id),
    };
    let Ok(closer) = stream.try_clone_std() else {
        return true;
    };
    let Ok(local_closer) = stream.try_clone_std() else {
        return true;
    };
    let Ok((mut read_half, write_half)) = stream.into_split() else {
        return true;
    };
    let key = shared.keys.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel::<Bytes>(shared.cfg.send_queue_cap);
    let sender = FrameSender {
        tx,
        budget: Arc::clone(&shared.budget),
        counters: Arc::clone(&shared.counters),
    };
    let last_rx = Arc::new(AtomicU64::new(shared.epoch.elapsed().as_millis() as u64));
    let connected = Event::Connected {
        key,
        identity,
        features,
        sender: sender.clone(),
        closer,
        last_rx: Arc::clone(&last_rx),
    };
    if shared.events.send(connected).await.is_err() {
        return false;
    }

    let writer = tokio::spawn(write_loop(
        rx,
        write_half,
        Arc::clone(&shared.budget),
        Arc::clone(&shared.counters),
    ));

    let mut buf = residue;
    let mut chunk = vec![0u8; shared.cfg.read_chunk.max(wire::OFP_HEADER_LEN)];
    'conn: loop {
        match wire::decode_frames(&mut buf) {
            Ok(msgs) => {
                if !msgs.is_empty() {
                    last_rx.store(shared.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                }
                for msg in msgs {
                    shared.counters.record_frame_in(wire::wire_len(&msg));
                    match msg.body {
                        // Keepalive is answered here so a busy control
                        // loop cannot fail its own liveness probes.
                        OfBody::EchoRequest(data) => {
                            let _ = sender.send(&OfMessage::new(msg.xid, OfBody::EchoReply(data)));
                        }
                        OfBody::EchoReply(_) => {}
                        _ => {
                            if shared
                                .events
                                .send(Event::Inbound { key, msg })
                                .await
                                .is_err()
                            {
                                break 'conn;
                            }
                        }
                    }
                }
            }
            Err(_) => {
                shared.counters.record_decode_error();
                break;
            }
        }
        match read_half.read(&mut chunk).await {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    // Unblock a writer stuck mid-write and end the peer's read.
    let _ = local_closer.shutdown(Shutdown::Both);
    drop(sender);
    drop(writer);
    shared.events.send(Event::Closed { key }).await.is_ok()
}

/// Bytes after which [`write_loop`] stops adding frames to a batch. A
/// batch ends with the frame that crosses it, so a connection's buffer
/// never exceeds this plus one frame (64 KiB on the wire at most).
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// One connection's writer: takes the next queued frame, appends whatever
/// else is *already* queued — it never waits for more — and hands the
/// socket one `write_all`, so a burst of replies costs one syscall, not one
/// per frame. Every frame still gives back its own [`SendBudget`] permit
/// and, once written, is counted on its own, in queue order.
async fn write_loop(
    mut rx: mpsc::Receiver<Bytes>,
    mut write_half: tokio::net::OwnedWriteHalf,
    budget: Arc<SendBudget>,
    counters: Arc<ChannelCounters>,
) {
    // Both stay unallocated until the first frame: an idle connection
    // costs nothing.
    let mut batch: Vec<u8> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    while let Some(first) = rx.recv().await {
        batch.clear();
        lens.clear();
        let mut next = Some(first);
        while let Some(frame) = next {
            batch.extend_from_slice(&frame);
            lens.push(frame.len());
            next = if batch.len() < WRITE_BATCH_BYTES {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        let result = write_half.write_all(&batch).await;
        for &len in &lens {
            budget.release();
            if result.is_ok() {
                counters.record_frame_out(len);
            }
        }
        if result.is_err() {
            // Make sure the reader notices too.
            let _ = write_half.shutdown_now(Shutdown::Both);
            break;
        }
    }
    // Frames still queued when the writer stops hold permits; refuse new
    // ones first so none can slip in behind the drain.
    rx.close();
    while rx.try_recv().is_ok() {
        budget.release();
    }
}

#[allow(clippy::too_many_lines)]
async fn control_loop(
    mut control: Box<dyn ControlPlane>,
    mut events: mpsc::Receiver<Event>,
    config: ControllerConfig,
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Arc<Mutex<HashMap<u64, Vec<FlowRuleView>>>>,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let cfg = config.channel;
    let epoch = Instant::now();
    let mut conns = ConnTable::default();
    // Identities that completed a handshake at least once; a later
    // handshake by the same identity is a reconnect needing resync.
    let mut ever: HashSet<Identity> = HashSet::new();
    let mut replay: HashMap<Identity, VecDeque<OfMessage>> = HashMap::new();
    let mut xid: u32 = 1;
    let mut last_telemetry = Instant::now();
    let mut last_tick = 0.0f64;
    let keepalive_scan = (cfg.echo_interval.min(cfg.liveness_timeout) / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    let mut last_keepalive = Instant::now();

    while !shutdown.load(Ordering::SeqCst) {
        // Wait for the first event (bounded so timers and shutdown are
        // honored), then drain a batch without further waiting.
        let wait = next_wait(
            config
                .telemetry_interval
                .saturating_sub(last_telemetry.elapsed()),
            keepalive_scan.saturating_sub(last_keepalive.elapsed()),
        );
        let now = epoch.elapsed().as_secs_f64();
        let mut out = ControlOutput::new();
        let mut batch = 0usize;
        let mut next = tokio::time::timeout(wait, events.recv())
            .await
            .unwrap_or_default();
        while let Some(event) = next.take() {
            handle_event(
                event,
                &mut control,
                &mut conns,
                &mut ever,
                &mut replay,
                &counters,
                now,
                &mut out,
            );
            batch += 1;
            if batch >= EVENT_BUDGET {
                break;
            }
            next = events.try_recv().ok();
        }
        flush(
            &conns,
            &mut replay,
            &ever,
            &tables,
            out,
            cfg.resync_replay_cap,
        );

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
                            flow_count: 0,
                        }),
                        Identity::Device(_) => None,
                    })
                    .collect(),
                controller_queue: 0,
                controller_utilization: 0.0,
            };
            let mut out = ControlOutput::new();
            control.on_telemetry(&telemetry, now, &mut out);
            flush(
                &conns,
                &mut replay,
                &ever,
                &tables,
                out,
                cfg.resync_replay_cap,
            );
        }

        // Control-plane tick.
        if let Some(interval) = control.tick_interval() {
            if now - last_tick >= interval {
                last_tick = now;
                let mut out = ControlOutput::new();
                control.on_tick(now, &mut out);
                flush(
                    &conns,
                    &mut replay,
                    &ever,
                    &tables,
                    out,
                    cfg.resync_replay_cap,
                );
            }
        }

        // Keepalive probes and liveness.
        if last_keepalive.elapsed() >= keepalive_scan {
            last_keepalive = Instant::now();
            let now_ms = epoch.elapsed().as_millis() as u64;
            for st in conns.by_key.values_mut() {
                if st.last_echo.elapsed() >= cfg.echo_interval {
                    st.last_echo = Instant::now();
                    xid = xid.wrapping_add(1);
                    let _ = st
                        .sender
                        .send(&OfMessage::new(Xid(xid), OfBody::EchoRequest(Bytes::new())));
                }
                let idle = Duration::from_millis(
                    now_ms.saturating_sub(st.last_rx.load(Ordering::Relaxed)),
                );
                if !st.timed_out && idle >= cfg.liveness_timeout {
                    st.timed_out = true;
                    counters.record_keepalive_timeout();
                    // The reader observes the shutdown and emits `Closed`,
                    // which performs the bookkeeping exactly once.
                    let _ = st.closer.shutdown(Shutdown::Both);
                }
            }
        }

        // Publish liveness for observers.
        {
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
            let mut st = status.lock();
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

#[allow(clippy::too_many_arguments)]
fn handle_event(
    event: Event,
    control: &mut Box<dyn ControlPlane>,
    conns: &mut ConnTable,
    ever: &mut HashSet<Identity>,
    replay: &mut HashMap<Identity, VecDeque<OfMessage>>,
    counters: &ChannelCounters,
    now: f64,
    out: &mut ControlOutput,
) {
    match event {
        Event::Connected {
            key,
            identity,
            features,
            sender,
            closer,
            last_rx,
        } => {
            let rejoining = ever.contains(&identity);
            if rejoining {
                counters.record_reconnect();
            }
            ever.insert(identity);
            if let Identity::Switch(dpid) = identity {
                control.on_switch_connect(dpid, features, now, out);
            }
            // State resync: the peer may have restarted with an empty flow
            // table, so replay the recorded flow-mods (idempotent —
            // identical match+priority replaces in place) before any fresh
            // traffic.
            if rejoining {
                if let Some(ring) = replay.get(&identity) {
                    if !ring.is_empty() {
                        counters.record_resync(ring.len());
                        for frame in ring {
                            match sender.send(frame) {
                                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
                            }
                        }
                    }
                }
            }
            conns.insert(
                key,
                ConnState {
                    identity,
                    sender,
                    closer,
                    last_rx,
                    last_echo: Instant::now(),
                    timed_out: false,
                },
            );
        }
        Event::Inbound { key, msg } => {
            let Some(st) = conns.by_key.get(&key) else {
                return; // raced with teardown
            };
            match st.identity {
                Identity::Switch(dpid) => control.on_message(dpid, msg, now, out),
                Identity::Device(device) => control.on_device_message(device, msg, now, out),
            }
        }
        Event::Closed { key } => {
            if let Some(st) = conns.remove(key) {
                if let Identity::Switch(dpid) = st.identity {
                    control.on_switch_disconnect(dpid, now, out);
                }
            }
        }
    }
}

/// Routes queued control-plane messages to the connection owning each
/// datapath. Messages to datapaths that are not connected, plus frames
/// rejected by backpressure, are dropped — the control plane will observe
/// the gap the same way it would observe loss on a congested channel.
/// Flow-mod frames are additionally recorded into the owning identity's
/// bounded replay ring (for post-reconnect resync) and mirrored into the
/// ops-facing flow tables.
fn flush(
    conns: &ConnTable,
    replay: &mut HashMap<Identity, VecDeque<OfMessage>>,
    ever: &HashSet<Identity>,
    tables: &Mutex<HashMap<u64, Vec<FlowRuleView>>>,
    out: ControlOutput,
    replay_cap: usize,
) {
    for (dpid, msg) in out.messages {
        let identity = Identity::Switch(dpid);
        let target = conns.for_identity(identity);
        if target.is_none() && !ever.contains(&identity) {
            continue; // never handshaken: nothing to record or send
        }
        if let OfBody::FlowMod(fm) = &msg.body {
            if replay_cap > 0 {
                let ring = replay.entry(identity).or_default();
                if ring.len() >= replay_cap {
                    ring.pop_front();
                }
                ring.push_back(msg.clone());
            }
            mirror_flow_mod(tables, dpid, fm);
        }
        if let Some(st) = target {
            match st.sender.send(&msg) {
                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
            }
        }
    }
}

/// Applies one flow-mod to the ops-facing table mirror.
fn mirror_flow_mod(
    tables: &Mutex<HashMap<u64, Vec<FlowRuleView>>>,
    dpid: DatapathId,
    fm: &FlowMod,
) {
    let mut tables = tables.lock();
    let table = tables.entry(dpid.0).or_default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    const BODY: usize = 16 * 1024;
    const FRAME: usize = wire::OFP_HEADER_LEN + BODY;

    /// One accepted connection with [`write_loop`]'s inputs laid out, the
    /// writer not yet started: frames sent now pile up in the queue.
    struct Rig {
        rt: tokio::runtime::Runtime,
        peer: std::net::TcpStream,
        sender: FrameSender,
        budget: Arc<SendBudget>,
        counters: Arc<ChannelCounters>,
        rx: mpsc::Receiver<Bytes>,
        read_half: tokio::net::OwnedReadHalf,
        write_half: tokio::net::OwnedWriteHalf,
    }

    fn rig(permits: usize) -> Rig {
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(1)
            .enable_all()
            .build()
            .expect("runtime");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let (read_half, write_half) = rt
            .block_on(async { tokio::net::TcpStream::from_std(server)?.into_split() })
            .expect("register");
        let budget = SendBudget::new(permits);
        let counters = Arc::new(ChannelCounters::new());
        let (tx, rx) = mpsc::channel(permits);
        let sender = FrameSender {
            tx,
            budget: Arc::clone(&budget),
            counters: Arc::clone(&counters),
        };
        Rig {
            rt,
            peer,
            sender,
            budget,
            counters,
            rx,
            read_half,
            write_half,
        }
    }

    fn frame(i: usize) -> OfMessage {
        let body = Bytes::from(vec![i as u8; BODY]);
        OfMessage::new(Xid(i as u32), OfBody::EchoRequest(body))
    }

    fn permits(budget: &SendBudget) -> usize {
        budget.permits.load(Ordering::Acquire)
    }

    #[test]
    fn stalled_peer_gets_every_frame_in_order_and_the_budget_refills() {
        // 16 MiB: far more than a socket pair buffers for a peer that is
        // not reading, so the writer stalls inside a batch.
        const FRAMES: usize = 1024;
        let Rig {
            rt,
            mut peer,
            sender,
            budget,
            counters,
            rx,
            read_half: _read_half,
            write_half,
        } = rig(FRAMES);
        for i in 0..FRAMES {
            sender.send(&frame(i)).expect("queue holds every frame");
        }
        assert_eq!(permits(&budget), 0);
        let writer = rt.spawn(write_loop(
            rx,
            write_half,
            Arc::clone(&budget),
            Arc::clone(&counters),
        ));

        // The peer resumes reading.
        let mut buf = BytesMut::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut next = 0usize;
        while next < FRAMES {
            let n = peer.read(&mut chunk).expect("read");
            assert!(n > 0, "stream ended after {next} frames");
            buf.extend_from_slice(&chunk[..n]);
            for msg in wire::decode_frames(&mut buf).expect("well-formed frames") {
                assert_eq!(msg, frame(next), "frame {next} out of order or damaged");
                next += 1;
            }
        }
        assert!(buf.is_empty(), "bytes beyond the last frame");

        // With every sender gone the writer runs out of frames and ends.
        drop(sender);
        rt.block_on(writer).expect("writer panicked");
        let snap = counters.snapshot();
        assert_eq!(snap.frames_out, FRAMES as u64);
        assert_eq!(snap.bytes_out, (FRAMES * FRAME) as u64);
        assert_eq!(permits(&budget), FRAMES);
    }

    #[test]
    fn peer_reset_mid_batch_leaks_no_permit_and_ends_the_reader() {
        const PERMITS: usize = 256;
        let Rig {
            rt,
            mut peer,
            sender,
            budget,
            counters,
            rx,
            mut read_half,
            write_half,
        } = rig(PERMITS);
        // Queued before the writer starts: its first write is a batch.
        let mut accepted = 0u64;
        for i in 0..PERMITS {
            sender
                .send(&frame(i))
                .expect("queue holds the first frames");
            accepted += 1;
        }
        let writer = rt.spawn(write_loop(
            rx,
            write_half,
            Arc::clone(&budget),
            Arc::clone(&counters),
        ));
        // One frame read proves the writer is under way; then the peer
        // vanishes with the rest unread.
        let mut first = vec![0u8; FRAME];
        peer.read_exact(&mut first).expect("first frame");
        drop(peer);

        // Keep frames coming until the writer has hit the dead socket and
        // closed its queue, however much the kernel buffered before that.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match sender.send(&frame(0)) {
                Ok(()) => accepted += 1,
                Err(SendError::Backpressure) => std::thread::yield_now(),
                Err(SendError::Closed) => break,
            }
            assert!(Instant::now() < deadline, "writer never noticed the reset");
        }
        rt.block_on(writer).expect("writer panicked");

        // Written, failed and stranded frames all gave their permits back,
        // while a sender is still alive.
        assert_eq!(permits(&budget), PERMITS);
        assert_eq!(sender.send(&frame(0)), Err(SendError::Closed));
        assert_eq!(permits(&budget), PERMITS);
        let snap = counters.snapshot();
        assert!(
            snap.frames_out < accepted,
            "the failed batch is not counted"
        );
        assert_eq!(snap.bytes_out, snap.frames_out * FRAME as u64);

        // The reader's half of the socket is shut down with it.
        let mut byte = [0u8; 1];
        let read = rt.block_on(tokio::time::timeout(
            Duration::from_secs(5),
            read_half.read(&mut byte),
        ));
        assert!(
            matches!(read, Ok(Ok(0) | Err(_))),
            "reader still blocked or fed: {read:?}"
        );
    }
}
