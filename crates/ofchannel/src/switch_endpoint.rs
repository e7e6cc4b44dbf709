//! A netsim switch served live over TCP.
//!
//! The endpoint owns a [`netsim::switch::Switch`] plus its attached
//! data-plane devices (FloodGuard's cache) and exposes them the way Open
//! vSwitch exposes a bridge in `ptcp` mode: it listens, a controller
//! connects, and the OpenFlow session runs over the socket. Each device
//! gets its own listener — mirroring the paper's deployment where the data
//! plane cache keeps a separate controller connection — and identifies
//! itself during the handshake with a [`crate::DEVICE_DPID_FLAG`]-tagged
//! datapath id.
//!
//! Packets enter the data plane via [`SwitchEndpoint::inject`]; misses
//! become real `packet_in` frames on the wire, and `flow_mod`/`packet_out`
//! frames from the controller drive the same switch logic the simulator
//! uses. Forwards that land on a device port are handed to the device
//! in-process (the cable between a switch port and its cache is not
//! modelled as a socket).
//!
//! One task on the endpoint's own small runtime owns the switch, the
//! devices and the fault state, and waits on one queue: commands from the
//! handle, reports from the connection tasks, the earliest timed duty.
//! Listeners, handshakes, reads and writes are tasks of their own on the
//! crate's one connection type, so nothing a peer does — or fails to do —
//! on a socket can hold the datapath, the device ticks or keepalive up.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::iface::{DataPlaneDevice, DeviceOutput, SwitchTelemetry};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::Fault;
use ofproto::flow_match::OfMatch;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use parking_lot::Mutex;
use tokio::sync::mpsc;

use crate::config::ChannelConfig;
use crate::conn::{self, Conn};
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::{device_features, handshake};

/// What the serving task waits on: commands from the handle and reports
/// from the connection tasks. Reports for one `key` are ordered:
/// `Connected`, then `Inbound`s, then exactly one `Closed`. `slot` 0 is the
/// switch's own session, `1 + i` that of device `i`.
enum Event {
    Inject {
        in_port: u16,
        packet: Packet,
    },
    Fault(Fault),
    Shutdown,
    Connected {
        slot: usize,
        key: u64,
        conn: Conn,
    },
    Inbound {
        slot: usize,
        key: u64,
        msg: OfMessage,
    },
    Closed {
        slot: usize,
        key: u64,
    },
}

/// Handle to a switch being served over TCP.
pub struct SwitchEndpoint {
    switch_addr: SocketAddr,
    device_addrs: Vec<SocketAddr>,
    events: mpsc::Sender<Event>,
    counters: Arc<ChannelCounters>,
    telemetry: Arc<Mutex<SwitchTelemetry>>,
    flow_rules: Arc<Mutex<Vec<(OfMatch, u16, u64)>>>,
    /// The serving task; `None` once it has been stopped.
    task: Option<tokio::task::JoinHandle<Switch>>,
    rt: tokio::runtime::Runtime,
}

impl std::fmt::Debug for SwitchEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchEndpoint")
            .field("switch_addr", &self.switch_addr)
            .field("device_addrs", &self.device_addrs)
            .finish()
    }
}

impl SwitchEndpoint {
    /// Starts serving `switch` on an ephemeral loopback port.
    ///
    /// `devices` attach data-plane devices by `(switch port, logic)`;
    /// each gets its own listener whose address appears in
    /// [`SwitchEndpoint::device_addrs`] at the same index.
    ///
    /// # Errors
    ///
    /// Fails when a listener cannot be bound or the runtime cannot start.
    pub fn spawn(
        switch: Switch,
        devices: Vec<(u16, Box<dyn DataPlaneDevice>)>,
        config: ChannelConfig,
    ) -> std::io::Result<SwitchEndpoint> {
        let rt = tokio::runtime::Runtime::new()?;
        let (events, events_rx) = mpsc::channel(EVENT_CHANNEL_CAP);
        let counters = Arc::new(ChannelCounters::new());
        // One switch has no fleet to budget: only a connection's own queue
        // bound refuses frames here.
        let shared = conn::Shared::new(config, Arc::clone(&counters), usize::MAX, events.clone());
        // Every listener gets an accept task of its own; the session state
        // the serving task keeps for it shares the task's `refusing` flag.
        let listen = |slot: usize, features: FeaturesReply| {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let session = Session::default();
            let refusing = Arc::clone(&session.refusing);
            let (features, shared) = (Arc::new(features), Arc::clone(&shared));
            rt.spawn(conn::accept_each(listener, move |stream| {
                let (features, refusing) = (Arc::clone(&features), Arc::clone(&refusing));
                accepted(stream, slot, features, refusing, Arc::clone(&shared))
            }));
            Ok::<_, std::io::Error>((addr, session))
        };
        let (switch_addr, session) = listen(0, switch.features())?;
        let mut device_slots = Vec::new();
        let mut device_addrs = Vec::new();
        for (index, (port, logic)) in devices.into_iter().enumerate() {
            let (addr, session) = listen(1 + index, device_features(index))?;
            device_addrs.push(addr);
            device_slots.push(DeviceSlot {
                port,
                logic,
                session,
                last_tick: Instant::now(),
                down: false,
                restart_at: None,
            });
        }

        let telemetry = Arc::new(Mutex::new(switch.telemetry(0.0)));
        let flow_rules = Arc::new(Mutex::new(Vec::new()));
        let serving = Serving {
            switch,
            session,
            devices: device_slots,
            faults: FaultState::new(),
            config,
            counters: Arc::clone(&counters),
            telemetry: Arc::clone(&telemetry),
            flow_rules: Arc::clone(&flow_rules),
            start: Instant::now(),
            last_expire: Instant::now(),
            last_util_at: Instant::now(),
            busy_accum: 0.0,
            datapath_util: 0.0,
            xid: 1,
        };
        let task = rt.spawn(serve(serving, events_rx));

        Ok(SwitchEndpoint {
            switch_addr,
            device_addrs,
            events,
            counters,
            telemetry,
            flow_rules,
            task: Some(task),
            rt,
        })
    }

    /// Where the controller should connect for the switch session.
    pub fn switch_addr(&self) -> SocketAddr {
        self.switch_addr
    }

    /// Where the controller should connect for each device session.
    pub fn device_addrs(&self) -> &[SocketAddr] {
        &self.device_addrs
    }

    /// Queues a command for the serving task. When the task is so far
    /// behind that its queue is full, the caller waits for room: a command
    /// is never dropped.
    fn submit(&self, event: Event) {
        if let Err(mpsc::error::TrySendError::Full(event)) = self.events.try_send(event) {
            let _ = self.rt.block_on(self.events.send(event));
        }
    }

    /// Feeds one packet into the data plane at `in_port`.
    pub fn inject(&self, in_port: u16, packet: Packet) {
        self.submit(Event::Inject { in_port, packet });
    }

    /// Injects an infrastructure fault — the same [`Fault`] values a
    /// [`netsim::FaultScript`] schedules against the simulator, applied to
    /// this live endpoint:
    ///
    /// * [`Fault::SwitchCrash`] wipes the switch state and kills the
    ///   controller socket; until `restart_after` seconds have passed every
    ///   dial is closed before a `HELLO` is sent (the switch-id field is
    ///   ignored — this endpoint *is* the switch).
    /// * [`Fault::ControlPartition`] / [`Fault::ControlHeal`] sever and
    ///   restore the controller socket without touching switch state; dials
    ///   in between are turned away the same way.
    /// * [`Fault::DeviceCrash`] wipes the indexed attached device, kills
    ///   its controller socket and stops feeding it until restart.
    /// * [`Fault::LinkDown`] / [`Fault::LinkUp`] / [`Fault::LinkLoss`] drop
    ///   (or probabilistically lose) data-plane packets on the given port,
    ///   in both directions.
    /// * [`Fault::ControllerStall`] is controller-side and ignored here.
    pub fn inject_fault(&self, fault: Fault) {
        self.submit(Event::Fault(fault));
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Latest switch resource snapshot.
    pub fn telemetry(&self) -> SwitchTelemetry {
        *self.telemetry.lock()
    }

    /// Snapshot of the installed flow rules as `(match, priority, cookie)`
    /// triples, refreshed on the telemetry cadence — what a test harness
    /// needs to verify a post-reconnect resync reinstalled the defense.
    pub fn flow_rules(&self) -> Vec<(OfMatch, u16, u64)> {
        self.flow_rules.lock().clone()
    }

    /// Stops serving and returns the switch for inspection.
    pub fn shutdown(mut self) -> Switch {
        let task = self.task.take().expect("endpoint already shut down");
        self.submit(Event::Shutdown);
        self.rt
            .block_on(task)
            .expect("switch endpoint task panicked")
    }
}

impl Drop for SwitchEndpoint {
    fn drop(&mut self) {
        if let Some(task) = self.task.take() {
            self.submit(Event::Shutdown);
            let _ = self.rt.block_on(task);
        }
        // Dropping the runtime joins its threads and drops every accept and
        // connection task, which closes their sockets.
    }
}

/// One dial on listener `slot`: handshake under its deadline, then the
/// connection, reporting to the serving task.
async fn accepted(
    mut stream: tokio::net::TcpStream,
    slot: usize,
    features: Arc<FeaturesReply>,
    refusing: Arc<AtomicBool>,
    shared: Arc<conn::Shared<Event>>,
) {
    // A crashed or partitioned endpoint completes no handshake: the dial is
    // closed before a HELLO is sent.
    if refusing.load(Ordering::SeqCst) {
        return;
    }
    match handshake::accept_async(&mut stream, &features, &shared.cfg).await {
        Ok(residue) => {
            let connected = |key, conn| Event::Connected { slot, key, conn };
            let inbound = |key, msg| match msg {
                Some(msg) => Event::Inbound { slot, key, msg },
                None => Event::Closed { slot, key },
            };
            shared.serve(stream, residue, connected, inbound).await;
        }
        Err(_) => shared.counters.record_connect_failure(),
    }
}

/// The serving task's side of one listener: the connection that currently
/// carries the session, if any.
#[derive(Default)]
struct Session {
    /// The live connection and its key; reports carrying another key are
    /// from a connection this one has superseded.
    conn: Option<(u64, Conn)>,
    connected_before: bool,
    /// Read by the listener's accept task: dials are turned away while set.
    refusing: Arc<AtomicBool>,
}

impl Session {
    /// Sends on the connection if one is up; a refused frame is dropped.
    fn send(&self, msg: &OfMessage) {
        if let Some((_, conn)) = &self.conn {
            let _ = conn.send(msg);
        }
    }

    fn sever(&mut self) {
        if let Some((_, conn)) = self.conn.take() {
            conn.close();
        }
    }
}

struct DeviceSlot {
    port: u16,
    logic: Box<dyn DataPlaneDevice>,
    session: Session,
    last_tick: Instant,
    /// Crashed and not yet restarted: packets to it are dropped, ticks
    /// skipped, dials refused.
    down: bool,
    /// When the crashed device restarts; `None` while down means never.
    restart_at: Option<Instant>,
}

impl DeviceSlot {
    /// Passes what the device logic produced up to the controller.
    fn report(&self, out: DeviceOutput) {
        for up in out.to_controller {
            self.session.send(&up);
        }
    }
}

/// Live-endpoint fault state: which links are impaired and whether the
/// switch itself is down or partitioned from the controller.
#[derive(Default)]
struct FaultState {
    links_down: HashSet<u16>,
    link_loss: HashMap<u16, f64>,
    partitioned: bool,
    switch_down: bool,
    switch_restart_at: Option<Instant>,
    /// xorshift64 state for loss sampling — seeded constant, so a given
    /// packet sequence sees a reproducible loss pattern.
    rng: u64,
}

impl FaultState {
    fn new() -> FaultState {
        FaultState {
            rng: 0x9E37_79B9_7F4A_7C15,
            ..FaultState::default()
        }
    }

    /// Whether a packet crossing `port` is lost to link faults right now.
    fn link_drops(&mut self, port: u16) -> bool {
        if self.links_down.contains(&port) {
            return true;
        }
        let Some(&p) = self.link_loss.get(&port) else {
            return false;
        };
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// How many data-plane packets one loop iteration may process before
/// servicing the event queue again; keeps packet_in latency bounded under
/// load.
const DATAPATH_BUDGET: usize = 512;

/// How many queued events one loop iteration handles before the datapath
/// and the timed duties get their turn.
const EVENT_BUDGET: usize = 512;

/// Depth of the serving task's event queue. Connection tasks wait for room
/// (which is what pushes back on a flooding controller); so do `inject`
/// callers.
const EVENT_CHANNEL_CAP: usize = 4096;

/// Flow and buffer expiry cadence. Every other timed duty but the device
/// ticks (keepalive, telemetry, restarts after a crash) is coarser and
/// rides on it.
const EXPIRE_INTERVAL: Duration = Duration::from_millis(10);

/// The single owner of the switch, its devices and the fault state.
struct Serving {
    switch: Switch,
    session: Session,
    devices: Vec<DeviceSlot>,
    faults: FaultState,
    config: ChannelConfig,
    counters: Arc<ChannelCounters>,
    telemetry: Arc<Mutex<SwitchTelemetry>>,
    flow_rules: Arc<Mutex<Vec<(OfMatch, u16, u64)>>>,
    start: Instant,
    last_expire: Instant,
    last_util_at: Instant,
    busy_accum: f64,
    datapath_util: f64,
    xid: u32,
}

/// The serving task: waits for an event or the earliest timed duty, handles
/// a batch of events, pumps the datapath, runs what is due. It never waits
/// on a socket — accepting, handshaking, reading and writing all happen in
/// other tasks — so no peer can hold it up.
async fn serve(mut s: Serving, mut events: mpsc::Receiver<Event>) -> Switch {
    let mut datapath_pending = false;
    loop {
        // With packets still queued in the datapath the wait is zero: the
        // event queue is only looked at.
        let wait = if datapath_pending {
            Duration::ZERO
        } else {
            s.next_wait()
        };
        let mut next = match tokio::time::timeout(wait, events.recv()).await {
            Ok(Some(event)) => Some(event),
            Ok(None) => return s.switch,
            Err(_) => None,
        };
        let now = s.start.elapsed().as_secs_f64();
        s.restart_what_is_due(now);
        let mut batch = 0usize;
        while let Some(event) = next.take() {
            if !s.handle(event, now) {
                return s.switch;
            }
            batch += 1;
            if batch >= EVENT_BUDGET {
                break;
            }
            next = events.try_recv().ok();
        }
        datapath_pending = s.pump_datapath(now);
        s.run_timed_duties(now);
    }
}

impl Serving {
    /// How long the task may sleep before its next timed duty.
    fn next_wait(&self) -> Duration {
        let mut wait = EXPIRE_INTERVAL.saturating_sub(self.last_expire.elapsed());
        for dev in &self.devices {
            if !dev.down {
                let tick = self.config.device_tick_interval;
                wait = wait.min(tick.saturating_sub(dev.last_tick.elapsed()));
            }
        }
        wait
    }

    fn session_mut(&mut self, slot: usize) -> &mut Session {
        match slot.checked_sub(1) {
            None => &mut self.session,
            Some(index) => &mut self.devices[index].session,
        }
    }

    /// The switch's listener turns dials away while the switch is down or
    /// the control channel is partitioned.
    fn regate(&mut self) {
        let refuse = self.faults.switch_down || self.faults.partitioned;
        self.session.refusing.store(refuse, Ordering::SeqCst);
    }

    /// Due restarts from earlier crash faults.
    fn restart_what_is_due(&mut self, now: f64) {
        let due = |at: Option<Instant>| at.is_some_and(|t| Instant::now() >= t);
        if self.faults.switch_down && due(self.faults.switch_restart_at) {
            self.faults.switch_down = false;
            self.faults.switch_restart_at = None;
            self.regate();
        }
        for dev in &mut self.devices {
            if dev.down && due(dev.restart_at) {
                dev.down = false;
                dev.restart_at = None;
                dev.logic.on_restart(now);
                dev.session.refusing.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Handles one event; `false` is the order to stop.
    fn handle(&mut self, event: Event, now: f64) -> bool {
        match event {
            Event::Shutdown => return false,
            Event::Inject { in_port, packet } => {
                if !self.faults.switch_down && !self.faults.link_drops(in_port) {
                    self.switch.enqueue(in_port, packet);
                }
            }
            Event::Fault(fault) => self.apply_fault(fault),
            Event::Connected { slot, key, conn } => {
                let session = self.session_mut(slot);
                if session.refusing.load(Ordering::SeqCst) {
                    // Its handshake was under way when the fault struck.
                    conn.close();
                    return true;
                }
                session.sever();
                session.conn = Some((key, conn));
                if std::mem::replace(&mut session.connected_before, true) {
                    self.counters.record_reconnect();
                }
            }
            Event::Inbound { slot, key, msg } => {
                if self.session_mut(slot).conn.as_ref().map(|c| c.0) != Some(key) {
                    return true;
                }
                match slot.checked_sub(1) {
                    None => {
                        let (forwards, replies) = self.switch.handle_message(msg, now);
                        self.route_forwards(forwards, now);
                        for reply in replies {
                            self.session.send(&reply);
                        }
                    }
                    Some(index) => {
                        let dev = &mut self.devices[index];
                        let mut out = DeviceOutput::new();
                        dev.logic.on_message(msg, now, &mut out);
                        dev.report(out);
                    }
                }
            }
            Event::Closed { slot, key } => {
                let session = self.session_mut(slot);
                if session.conn.as_ref().map(|c| c.0) == Some(key) {
                    session.conn = None;
                }
            }
        }
        true
    }

    /// Pumps the datapath (a crashed switch forwards nothing). `true` when
    /// the budget ran out with packets still queued.
    fn pump_datapath(&mut self, now: f64) -> bool {
        if self.faults.switch_down {
            return false;
        }
        for _ in 0..DATAPATH_BUDGET {
            let Some((in_port, packet)) = self.switch.start_next() else {
                break;
            };
            let res = self.switch.process(in_port, packet, now);
            self.busy_accum += res.service;
            self.route_forwards(res.forwards, now);
            if let Some(pi) = res.packet_in {
                self.xid = self.xid.wrapping_add(1);
                self.session
                    .send(&OfMessage::new(Xid(self.xid), OfBody::PacketIn(pi)));
            }
        }
        self.switch.ingress_len() > 0
    }

    fn run_timed_duties(&mut self, now: f64) {
        // Devices are ticked on a fixed cadence, like the engine's
        // `DeviceTick` events; a device-requested `next_tick` sooner than
        // that is honoured too.
        for dev in &mut self.devices {
            if dev.down {
                continue;
            }
            let due_fixed = dev.last_tick.elapsed() >= self.config.device_tick_interval;
            let due_requested = dev.logic.next_tick(now).is_some_and(|t| t <= now);
            if due_fixed || due_requested {
                dev.last_tick = Instant::now();
                let mut out = DeviceOutput::new();
                dev.logic.on_tick(now, &mut out);
                dev.report(out);
            }
        }

        // Flow/buffer expiry.
        if self.last_expire.elapsed() >= EXPIRE_INTERVAL {
            self.last_expire = Instant::now();
            for msg in self.switch.expire(now) {
                self.session.send(&msg);
            }
        }

        // Keepalive probes and liveness. A connection that timed out is
        // only shut down here; its reader's `Closed` clears the session.
        let sessions = std::iter::once(&mut self.session)
            .chain(self.devices.iter_mut().map(|d| &mut d.session));
        for session in sessions {
            if let Some((_, conn)) = &mut session.conn {
                conn.keepalive(&self.config, &mut self.xid, &self.counters);
            }
        }

        // Telemetry snapshot (drives dashboards and the example binary).
        let dt = self.last_util_at.elapsed().as_secs_f64();
        if dt >= 0.05 {
            self.datapath_util = (self.busy_accum / dt).min(1.0);
            self.busy_accum = 0.0;
            self.last_util_at = Instant::now();
            *self.flow_rules.lock() = self
                .switch
                .table
                .iter()
                .map(|e| (e.of_match, e.priority, e.cookie))
                .collect();
        }
        *self.telemetry.lock() = self.switch.telemetry(self.datapath_util);
    }

    /// Hands forwarded packets that land on a device port to the device;
    /// other ports lead to hosts, which live mode does not model. Packets
    /// crossing a faulted link, or destined to a crashed device, are
    /// dropped.
    fn route_forwards(&mut self, forwards: Vec<(u16, Packet)>, now: f64) {
        for (out_port, packet) in forwards {
            if self.faults.link_drops(out_port) {
                continue;
            }
            if let Some(dev) = self.devices.iter_mut().find(|d| d.port == out_port) {
                if dev.down {
                    continue;
                }
                let mut out = DeviceOutput::new();
                dev.logic.on_packet(packet, now, &mut out);
                dev.report(out);
            }
        }
    }

    /// Applies one injected [`Fault`] to the live endpoint's state.
    fn apply_fault(&mut self, fault: Fault) {
        let restart_at = |after: f64| {
            after
                .is_finite()
                .then(|| Instant::now() + Duration::from_secs_f64(after.max(0.0)))
        };
        match fault {
            Fault::LinkDown { port, .. } => {
                self.faults.links_down.insert(port);
            }
            Fault::LinkUp { port, .. } => {
                self.faults.links_down.remove(&port);
            }
            Fault::LinkLoss {
                port, probability, ..
            } => {
                if probability <= 0.0 {
                    self.faults.link_loss.remove(&port);
                } else {
                    self.faults.link_loss.insert(port, probability.min(1.0));
                }
            }
            Fault::ControlPartition { .. } => {
                self.faults.partitioned = true;
                self.regate();
                self.session.sever();
            }
            Fault::ControlHeal { .. } => {
                self.faults.partitioned = false;
                self.regate();
            }
            Fault::SwitchCrash { restart_after, .. } => {
                self.switch.crash();
                self.faults.switch_down = true;
                self.faults.switch_restart_at = restart_at(restart_after);
                self.regate();
                self.session.sever();
            }
            Fault::DeviceCrash { dev, restart_after } => {
                if let Some(slot) = self.devices.get_mut(dev.0) {
                    slot.logic.on_crash();
                    slot.down = true;
                    slot.restart_at = restart_at(restart_after);
                    slot.session.refusing.store(true, Ordering::SeqCst);
                    slot.session.sever();
                }
            }
            // The stall is a controller-side fault; the switch endpoint has
            // nothing to stall.
            Fault::ControllerStall { .. } => {}
        }
    }
}
