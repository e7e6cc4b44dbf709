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
//! Replies are pipelined: the control loop routes an event's messages to
//! their connections as soon as the event is handled, each encoded straight
//! into its connection's outbound byte queue, and the writer task swaps
//! that queue out whole for one `write_all` — so the peer works on one
//! reply while the next event is handled, and no frame is allocated, copied
//! or locked on its own between handler and socket.
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
use std::future::poll_fn;
use std::io;
use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
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

/// One connection's outbound queue: encoded frames back to back in `bytes`,
/// the length of each in `lens`. Producers append under the lock; the writer
/// swaps both vectors out for its own emptied pair, so a frame is written
/// once when it is encoded and read once by the socket.
#[derive(Default)]
struct Outbound {
    bytes: Vec<u8>,
    lens: Vec<usize>,
    /// [`FrameSender`]s alive; at zero the writer ends once it has drained.
    senders: usize,
    /// Set by the writer when it stops: nothing more is accepted.
    closed: bool,
    /// The writer's waker while it is parked on an empty queue.
    writer: Option<Waker>,
}

/// What a connection's senders and its writer task share.
struct SendQueue {
    /// Most frames that may be queued at once; frames the writer has taken
    /// no longer count.
    cap: usize,
    out: Mutex<Outbound>,
    budget: Arc<SendBudget>,
    counters: Arc<ChannelCounters>,
}

impl SendQueue {
    /// A queue with one [`FrameSender`] and the handle its writer takes.
    /// Nothing is allocated for frames until the first one is sent.
    fn new(
        cap: usize,
        budget: Arc<SendBudget>,
        counters: Arc<ChannelCounters>,
    ) -> (FrameSender, Arc<SendQueue>) {
        let queue = Arc::new(SendQueue {
            cap: cap.max(1),
            out: Mutex::new(Outbound {
                senders: 1,
                ..Outbound::default()
            }),
            budget,
            counters,
        });
        (
            FrameSender {
                queue: Arc::clone(&queue),
            },
            queue,
        )
    }

    /// Waits until frames are queued, then exchanges the queue's vectors
    /// for the caller's (which must be empty). `false` once every sender is
    /// gone and nothing is queued.
    async fn take(&self, bytes: &mut Vec<u8>, lens: &mut Vec<usize>) -> bool {
        poll_fn(|cx| {
            let mut out = self.out.lock();
            if !out.lens.is_empty() {
                std::mem::swap(&mut out.bytes, bytes);
                std::mem::swap(&mut out.lens, lens);
                return Poll::Ready(true);
            }
            if out.senders == 0 {
                return Poll::Ready(false);
            }
            out.writer = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }

    /// Refuses further sends and gives back the permits of frames still
    /// queued. Both under one lock, so no frame can slip in behind the drain
    /// and strand its permit.
    fn close(&self) {
        let mut out = self.out.lock();
        out.closed = true;
        for _ in out.lens.drain(..) {
            self.budget.release();
        }
        out.bytes = Vec::new();
    }
}

/// Queues frames toward one connection's writer task, enforcing both the
/// per-connection bound and the global budget. Any number may exist for
/// one connection: its reader answers keepalive through one, the control
/// loop routes replies through another.
struct FrameSender {
    queue: Arc<SendQueue>,
}

impl FrameSender {
    fn send(&self, msg: &OfMessage) -> Result<(), SendError> {
        let queue = &*self.queue;
        if !queue.budget.try_acquire() {
            queue.counters.record_budget_exhausted();
            return Err(SendError::Backpressure);
        }
        let queued = {
            let mut guard = queue.out.lock();
            let out = &mut *guard;
            if out.closed {
                Err(SendError::Closed)
            } else if out.lens.len() >= queue.cap {
                Err(SendError::Backpressure)
            } else {
                out.lens.push(wire::encode_into(msg, &mut out.bytes));
                Ok((out.lens.len(), out.writer.take()))
            }
        };
        match queued {
            Ok((depth, writer)) => {
                queue.counters.observe_queue_depth(depth);
                if let Some(writer) = writer {
                    writer.wake();
                }
                Ok(())
            }
            Err(refused) => {
                queue.budget.release();
                if refused == SendError::Backpressure {
                    queue.counters.record_send_blocked();
                    queue.counters.observe_queue_depth(queue.cap);
                }
                Err(refused)
            }
        }
    }
}

impl Clone for FrameSender {
    fn clone(&self) -> FrameSender {
        self.queue.out.lock().senders += 1;
        FrameSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        let writer = {
            let mut out = self.queue.out.lock();
            out.senders -= 1;
            if out.senders > 0 {
                return;
            }
            out.writer.take()
        };
        if let Some(writer) = writer {
            writer.wake();
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
    let (sender, queue) = SendQueue::new(
        shared.cfg.send_queue_cap,
        Arc::clone(&shared.budget),
        Arc::clone(&shared.counters),
    );
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

    let writer = tokio::spawn(write_loop(queue, write_half));

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

/// One connection's writer: takes everything that is queued — it never
/// waits for more — and hands the socket one `write_all`, so a burst of
/// replies costs one syscall, not one per frame. What it takes is at most
/// [`ChannelConfig::send_queue_cap`] frames, and no longer counts against
/// that bound. Every frame still gives back its own [`SendBudget`] permit
/// after the write and, once written, is counted on its own, in queue order.
async fn write_loop(queue: Arc<SendQueue>, mut write_half: tokio::net::OwnedWriteHalf) {
    // This pair and the queue's change places on every write; all four
    // vectors stay unallocated until the first frame, so an idle connection
    // costs nothing.
    let mut bytes: Vec<u8> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    while queue.take(&mut bytes, &mut lens).await {
        let result = write_half.write_all(&bytes).await;
        for len in lens.drain(..) {
            queue.budget.release();
            if result.is_ok() {
                queue.counters.record_frame_out(len);
            }
        }
        bytes.clear();
        if result.is_err() {
            // Make sure the reader notices too.
            let _ = write_half.shutdown_now(Shutdown::Both);
            break;
        }
    }
    queue.close();
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
    // Recycled: every use ends in a `flush`, which leaves it empty.
    let mut out = ControlOutput::new();

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
            // Hand this event's replies to the writers before the next is
            // handled: they leave while the rest of the drain is worked on,
            // and no more than one event's messages are ever held here.
            flush(
                &conns,
                &mut replay,
                &ever,
                &tables,
                &mut out,
                cfg.resync_replay_cap,
            );
            batch += 1;
            if batch >= EVENT_BUDGET {
                break;
            }
            next = events.try_recv().ok();
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
                            flow_count: 0,
                        }),
                        Identity::Device(_) => None,
                    })
                    .collect(),
                controller_queue: 0,
                controller_utilization: 0.0,
            };
            control.on_telemetry(&telemetry, now, &mut out);
            flush(
                &conns,
                &mut replay,
                &ever,
                &tables,
                &mut out,
                cfg.resync_replay_cap,
            );
        }

        // Control-plane tick.
        if let Some(interval) = control.tick_interval() {
            if now - last_tick >= interval {
                last_tick = now;
                control.on_tick(now, &mut out);
                flush(
                    &conns,
                    &mut replay,
                    &ever,
                    &tables,
                    &mut out,
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
/// datapath — as the connection table stands now, which is why the control
/// loop calls this after every event — and leaves `out` empty for reuse.
/// Messages to datapaths that are not connected, plus frames rejected by
/// backpressure, are dropped — the control plane will observe the gap the
/// same way it would observe loss on a congested channel. Flow-mod frames
/// are additionally mirrored into the ops-facing flow tables and then moved
/// into the owning identity's bounded replay ring (for post-reconnect
/// resync).
fn flush(
    conns: &ConnTable,
    replay: &mut HashMap<Identity, VecDeque<OfMessage>>,
    ever: &HashSet<Identity>,
    tables: &Mutex<HashMap<u64, Vec<FlowRuleView>>>,
    out: &mut ControlOutput,
    replay_cap: usize,
) {
    for (dpid, msg) in out.messages.drain(..) {
        let identity = Identity::Switch(dpid);
        let target = conns.for_identity(identity);
        if target.is_none() && !ever.contains(&identity) {
            continue; // never handshaken: nothing to record or send
        }
        if let Some(st) = target {
            match st.sender.send(&msg) {
                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
            }
        }
        if let OfBody::FlowMod(fm) = &msg.body {
            mirror_flow_mod(tables, dpid, fm);
            if replay_cap > 0 {
                let ring = replay.entry(identity).or_default();
                if ring.len() >= replay_cap {
                    ring.pop_front();
                }
                ring.push_back(msg);
            }
        }
    }
    out.reset();
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
    use std::sync::Barrier;

    const BODY: usize = 16 * 1024;
    const FRAME: usize = wire::OFP_HEADER_LEN + BODY;

    /// One accepted connection with [`write_loop`]'s inputs laid out, the
    /// writer not yet started: frames sent now pile up in the queue.
    struct Rig {
        rt: tokio::runtime::Runtime,
        peer: std::net::TcpStream,
        sender: FrameSender,
        queue: Arc<SendQueue>,
        read_half: tokio::net::OwnedReadHalf,
        write_half: tokio::net::OwnedWriteHalf,
    }

    fn socket_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (peer, server)
    }

    /// `cap` frames of queue, `permits` of endpoint-wide budget.
    fn rig(cap: usize, permits: usize) -> Rig {
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(1)
            .enable_all()
            .build()
            .expect("runtime");
        let (peer, server) = socket_pair();
        let (read_half, write_half) = rt
            .block_on(async { tokio::net::TcpStream::from_std(server)?.into_split() })
            .expect("register");
        let (sender, queue) = SendQueue::new(
            cap,
            SendBudget::new(permits),
            Arc::new(ChannelCounters::new()),
        );
        Rig {
            rt,
            peer,
            sender,
            queue,
            read_half,
            write_half,
        }
    }

    fn frame(i: usize) -> OfMessage {
        let body = Bytes::from(vec![i as u8; BODY]);
        OfMessage::new(Xid(i as u32), OfBody::EchoRequest(body))
    }

    fn permits(queue: &SendQueue) -> usize {
        queue.budget.permits.load(Ordering::Acquire)
    }

    /// Reads frames off `peer` until `count` have arrived.
    fn read_frames(peer: &mut std::net::TcpStream, count: usize) -> Vec<OfMessage> {
        let mut buf = BytesMut::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut msgs = Vec::new();
        while msgs.len() < count {
            let n = peer.read(&mut chunk).expect("read");
            assert!(n > 0, "stream ended after {} frames", msgs.len());
            buf.extend_from_slice(&chunk[..n]);
            msgs.extend(wire::decode_frames(&mut buf).expect("well-formed frames"));
        }
        assert!(buf.is_empty(), "bytes beyond the last frame");
        msgs
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
            queue,
            read_half: _read_half,
            write_half,
        } = rig(FRAMES, FRAMES);
        for i in 0..FRAMES {
            sender.send(&frame(i)).expect("queue holds every frame");
        }
        assert_eq!(permits(&queue), 0);
        let writer = rt.spawn(write_loop(Arc::clone(&queue), write_half));

        // The peer resumes reading.
        for (i, msg) in read_frames(&mut peer, FRAMES).iter().enumerate() {
            assert_eq!(*msg, frame(i), "frame {i} out of order or damaged");
        }

        // With every sender gone the writer runs out of frames and ends.
        drop(sender);
        rt.block_on(writer).expect("writer panicked");
        let snap = queue.counters.snapshot();
        assert_eq!(snap.frames_out, FRAMES as u64);
        assert_eq!(snap.bytes_out, (FRAMES * FRAME) as u64);
        assert_eq!(permits(&queue), FRAMES);
    }

    #[test]
    fn peer_reset_mid_batch_leaks_no_permit_and_ends_the_reader() {
        const PERMITS: usize = 256;
        let Rig {
            rt,
            mut peer,
            sender,
            queue,
            mut read_half,
            write_half,
        } = rig(PERMITS, PERMITS);
        // Queued before the writer starts: its first write is a batch.
        let mut accepted = 0u64;
        for i in 0..PERMITS {
            sender
                .send(&frame(i))
                .expect("queue holds the first frames");
            accepted += 1;
        }
        let writer = rt.spawn(write_loop(Arc::clone(&queue), write_half));
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
        assert_eq!(permits(&queue), PERMITS);
        assert_eq!(sender.send(&frame(0)), Err(SendError::Closed));
        assert_eq!(permits(&queue), PERMITS);
        let snap = queue.counters.snapshot();
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

    #[test]
    fn the_bound_is_on_queued_frames_and_an_idle_queue_owns_no_buffer() {
        const CAP: usize = 8;
        let Rig {
            rt,
            mut peer,
            sender,
            queue,
            read_half: _read_half,
            write_half,
        } = rig(CAP, 4 * CAP);
        {
            let out = queue.out.lock();
            assert_eq!((out.bytes.capacity(), out.lens.capacity()), (0, 0));
        }
        for i in 0..CAP {
            sender.send(&frame(i)).expect("up to the cap is accepted");
        }
        assert_eq!(sender.send(&frame(CAP)), Err(SendError::Backpressure));
        let snap = queue.counters.snapshot();
        assert_eq!((snap.sends_blocked, snap.budget_exhausted), (1, 0));
        assert_eq!(snap.send_queue_hwm, CAP as u64);
        assert_eq!(permits(&queue), 3 * CAP, "the refused frame holds none");

        // Frames the writer has taken no longer count: with the peer not
        // reading yet, a second capful is accepted as soon as the first is
        // in the writer's hands.
        let writer = rt.spawn(write_loop(Arc::clone(&queue), write_half));
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut sent = CAP;
        while sent < 2 * CAP {
            match sender.send(&frame(sent)) {
                Ok(()) => sent += 1,
                Err(SendError::Backpressure) => std::thread::yield_now(),
                Err(SendError::Closed) => panic!("writer stopped"),
            }
            assert!(Instant::now() < deadline, "writer never took the queue");
        }
        for (i, msg) in read_frames(&mut peer, 2 * CAP).iter().enumerate() {
            assert_eq!(*msg, frame(i));
        }
        drop(sender);
        rt.block_on(writer).expect("writer panicked");
        assert_eq!(queue.counters.snapshot().frames_out, 2 * CAP as u64);
        assert_eq!(permits(&queue), 4 * CAP);
    }

    #[test]
    fn two_producers_share_one_queue_and_a_lone_frame_leaves_at_once() {
        const EACH: usize = 200;
        let Rig {
            rt,
            mut peer,
            sender,
            queue,
            read_half: _read_half,
            write_half,
        } = rig(2 * EACH + 1, 2 * EACH + 1);
        let writer = rt.spawn(write_loop(Arc::clone(&queue), write_half));

        // Nothing else is queued and nothing follows: the writer must not
        // be waiting for company.
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        sender.send(&frame(7)).expect("lone frame");
        assert_eq!(read_frames(&mut peer, 1), vec![frame(7)]);

        // The reader task's echo replies and the control loop's messages:
        // two threads, one queue, released together.
        let start = Barrier::new(2);
        let echo = sender.clone();
        let tagged = |tag: u32, i: usize| {
            OfMessage::new(Xid(tag << 16 | i as u32), OfBody::EchoReply(Bytes::new()))
        };
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..EACH {
                    echo.send(&tagged(1, i)).expect("echo side");
                }
            });
            s.spawn(|| {
                start.wait();
                for i in 0..EACH {
                    sender.send(&tagged(2, i)).expect("control side");
                }
            });
            read_frames(&mut peer, 2 * EACH)
        });
        // Whole frames only, and each producer's in its own order.
        for tag in [1, 2] {
            let mine: Vec<&OfMessage> = got.iter().filter(|m| m.xid.0 >> 16 == tag).collect();
            assert_eq!(mine.len(), EACH);
            for (i, msg) in mine.into_iter().enumerate() {
                assert_eq!(*msg, tagged(tag, i));
            }
        }
        drop((sender, echo));
        rt.block_on(writer).expect("writer panicked");
        assert_eq!(permits(&queue), 2 * EACH + 1);
    }

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

    #[test]
    fn a_message_is_routed_by_the_table_as_it_stands_when_its_event_is_handled() {
        let counters = Arc::new(ChannelCounters::new());
        let budget = SendBudget::new(64);
        let tables = Mutex::new(HashMap::new());
        let mut control: Box<dyn ControlPlane> = Box::new(Stub);
        let mut conns = ConnTable::default();
        let mut ever = HashSet::new();
        let mut replay = HashMap::new();
        let mut out = ControlOutput::new();
        // What `control_loop` does with one event of a drain.
        let mut step = |event: Event| {
            handle_event(
                event,
                &mut control,
                &mut conns,
                &mut ever,
                &mut replay,
                &counters,
                0.0,
                &mut out,
            );
            flush(&conns, &mut replay, &ever, &tables, &mut out, 16);
            assert!(out.messages.is_empty(), "flush leaves the output empty");
        };
        let mut next_key = 0u64;
        let mut connect = |dpid: u64| {
            let (sender, queue) = SendQueue::new(64, Arc::clone(&budget), Arc::clone(&counters));
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
                sender,
                closer: socket_pair().0,
                last_rx: Arc::new(AtomicU64::new(0)),
            };
            (key, queue, event)
        };
        /// Everything queued toward a connection so far, decoded.
        fn queued(queue: &SendQueue) -> Vec<OfMessage> {
            let mut out = queue.out.lock();
            out.lens.clear();
            let mut buf = BytesMut::new();
            buf.extend_from_slice(&std::mem::take(&mut out.bytes));
            wire::decode_frames(&mut buf).expect("well-formed frames")
        }
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
        assert_eq!(queued(&a_queue), vec![barrier.clone(), rule(10)]);

        // One drain: A goes away, B's handler addresses A, A is back.
        step(Event::Closed { key: a_key });
        step(inbound(b_key, 11));
        let (_, a_again, a_reconnected) = connect(1);
        step(a_reconnected);
        assert!(
            queued(&a_queue).is_empty(),
            "nothing for the dead connection"
        );
        assert_eq!(
            queued(&a_again),
            vec![rule(10), rule(11), barrier],
            "the ring, with the rule decided while A was away, then the greeting"
        );
        let snap = counters.snapshot();
        assert_eq!(
            (snap.reconnects, snap.resyncs, snap.frames_replayed),
            (1, 1, 2)
        );
        assert_eq!(
            tables.lock().get(&1).map(Vec::len),
            Some(1),
            "same match and priority: one mirrored rule"
        );
    }
}
