//! A netsim switch served live over TCP.
//!
//! The endpoint owns a [`netsim::switch::Switch`] plus its attached
//! data-plane devices (FloodGuard's cache) and connects them the way a
//! Mininet switch connects to a remote controller: it dials the controller's
//! listener, answers the handshake, and the OpenFlow session runs over the
//! socket. Each device dials a session of its own — mirroring the paper's
//! deployment where the data plane cache keeps a separate controller
//! connection — and identifies itself during the handshake with a
//! [`crate::DEVICE_DPID_FLAG`]-tagged datapath id. A session that ends is
//! redialed with capped exponential backoff.
//!
//! Packets enter the data plane via [`SwitchEndpoint::inject`]; misses
//! become real `packet_in` frames on the wire, and `flow_mod`/`packet_out`
//! frames from the controller drive the same switch logic the simulator
//! uses. Forwards that land on a device port are handed to the device
//! in-process (the cable between a switch port and its cache is not
//! modelled as a socket).
//!
//! The endpoint runs on one std thread of its own, `ofchannel-switch`,
//! which builds and drives a one-thread runtime. One task there owns the
//! switch, the devices and the fault state, and waits on two queues and a
//! clock: commands from the handle (the one queue another thread writes),
//! reports from the connection tasks, and the earliest timed duty.
//! Dials, handshakes, reads and writes are tasks of their own on the
//! crate's one connection type, none of which ever blocks the thread, so
//! nothing a peer does — or fails to do — on a socket can hold the
//! datapath, the device ticks or keepalive up. The
//! owner starts a session's dial only while the session has none and its
//! switch or device is up and reachable; a crashed or partitioned switch
//! simply does not dial.

use std::collections::{HashMap, HashSet};
use std::future::poll_fn;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use netsim::iface::{DataPlaneDevice, DeviceOutput, SwitchTelemetry};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::Fault;
use ofproto::flow_match::OfMatch;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use tokio::sync::mpsc::{self, error::TryRecvError};

use crate::config::{next_backoff, ChannelConfig};
use crate::conn::{self, Conn};
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::device_features;

/// What the handle asks of the serving task, from whatever thread holds it.
enum Command {
    Inject { in_port: u16, packet: Packet },
    Fault(Fault),
    Shutdown,
}

/// What the connection tasks tell the serving task, on its own thread.
/// `slot` 0 is the switch's own session, `1 + i` that of device `i`. A
/// session has one dial task at a time, and it serves one connection, so a
/// slot's reports are ordered: `Connected`, then `Inbound`s, then exactly
/// one `Closed`, before the next dial starts.
enum Report {
    Connected { slot: usize, conn: Conn },
    Inbound { slot: usize, msg: OfMessage },
    Closed { slot: usize },
}

enum Event {
    Command(Command),
    Report(Report),
}

/// The serving task's two queues.
struct Queues {
    commands: mpsc::Receiver<Command>,
    reports: mpsc::Receiver<Report>,
    /// Which queue [`Queues::try_next`] looks at first; it alternates, so
    /// neither queue holds the other up for a whole batch.
    commands_first: bool,
}

impl Queues {
    /// Waits for a command or a report. A handle that is gone is a
    /// shutdown.
    fn poll_next(&mut self, cx: &mut Context<'_>) -> Poll<Event> {
        if let Poll::Ready(command) = self.commands.poll_recv(cx) {
            return Poll::Ready(Event::Command(command.unwrap_or(Command::Shutdown)));
        }
        self.reports
            .poll_recv(cx)
            .map(|report| Event::Report(report.expect("the serving task holds a sender")))
    }

    /// What is queued, without waiting.
    fn try_next(&mut self) -> Option<Event> {
        self.commands_first = !self.commands_first;
        if self.commands_first {
            self.try_command().or_else(|| self.try_report())
        } else {
            self.try_report().or_else(|| self.try_command())
        }
    }

    fn try_command(&mut self) -> Option<Event> {
        match self.commands.try_recv() {
            Ok(command) => Some(Event::Command(command)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Event::Command(Command::Shutdown)),
        }
    }

    fn try_report(&mut self) -> Option<Event> {
        self.reports.try_recv().ok().map(Event::Report)
    }
}

/// Handle to a switch being served over TCP.
pub struct SwitchEndpoint {
    commands: mpsc::Sender<Command>,
    counters: Arc<ChannelCounters>,
    telemetry: Arc<Mutex<SwitchTelemetry>>,
    flow_rules: Arc<Mutex<Vec<(OfMatch, u16, u64)>>>,
    /// The thread driving the serving task; `None` once it has been
    /// stopped.
    thread: Option<std::thread::JoinHandle<Option<Switch>>>,
}

impl std::fmt::Debug for SwitchEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchEndpoint")
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl SwitchEndpoint {
    /// Starts serving `switch`, dialing the controller listening on
    /// `controller` for its session.
    ///
    /// `devices` attach data-plane devices by `(switch port, logic)`; each
    /// dials a session of its own to the same controller.
    ///
    /// # Errors
    ///
    /// Fails when the endpoint's thread or its runtime cannot start.
    pub fn spawn(
        switch: Switch,
        devices: Vec<(u16, Box<dyn DataPlaneDevice>)>,
        controller: SocketAddr,
        config: ChannelConfig,
    ) -> std::io::Result<SwitchEndpoint> {
        let (commands, commands_rx) = mpsc::channel(EVENT_CHANNEL_CAP);
        let counters = Arc::new(ChannelCounters::new());
        let telemetry = Arc::new(Mutex::new(switch.telemetry(0.0)));
        let flow_rules = Arc::new(Mutex::new(Vec::new()));
        let serving = {
            let counters = Arc::clone(&counters);
            let telemetry = Arc::clone(&telemetry);
            let flow_rules = Arc::clone(&flow_rules);
            move |rt: &tokio::runtime::Runtime| {
                let (reports, reports_rx) = mpsc::channel(EVENT_CHANNEL_CAP);
                // One switch has no fleet to budget: only a connection's own
                // queue bound refuses frames here.
                let shared = conn::Shared::new(config, Arc::clone(&counters), usize::MAX, reports);
                let devices = devices
                    .into_iter()
                    .map(|(port, logic)| DeviceSlot {
                        port,
                        logic,
                        session: Session::default(),
                        last_tick: Instant::now(),
                        down: false,
                        restart_at: None,
                    })
                    .collect();
                let serving = Serving {
                    switch,
                    session: Session::default(),
                    devices,
                    faults: FaultState::new(),
                    config,
                    controller,
                    shared,
                    counters,
                    telemetry,
                    flow_rules,
                    start: Instant::now(),
                    last_expire: Instant::now(),
                    last_util_at: Instant::now(),
                    busy_accum: 0.0,
                    datapath_util: 0.0,
                    xid: 1,
                };
                let queues = Queues {
                    commands: commands_rx,
                    reports: reports_rx,
                    commands_first: false,
                };
                rt.block_on(serve(serving, queues))
            }
        };
        let thread = crate::start("ofchannel-switch", serving)?;
        Ok(SwitchEndpoint {
            commands,
            counters,
            telemetry,
            flow_rules,
            thread: Some(thread),
        })
    }

    /// Queues a command for the serving task. When the task is so far
    /// behind that its queue is full, the caller waits for room: a command
    /// is never dropped.
    fn submit(&self, command: Command) {
        if let Err(mpsc::error::TrySendError::Full(command)) = self.commands.try_send(command) {
            let _ = self.commands.blocking_send(command);
        }
    }

    /// Feeds one packet into the data plane at `in_port`.
    pub fn inject(&self, in_port: u16, packet: Packet) {
        self.submit(Command::Inject { in_port, packet });
    }

    /// Injects an infrastructure fault — the same [`Fault`] values a
    /// [`netsim::FaultScript`] schedules against the simulator, applied to
    /// this live endpoint:
    ///
    /// * [`Fault::SwitchCrash`] wipes the switch state and kills the
    ///   controller socket; the switch does not dial again until
    ///   `restart_after` seconds have passed (the switch-id field is
    ///   ignored — this endpoint *is* the switch).
    /// * [`Fault::ControlPartition`] / [`Fault::ControlHeal`] sever and
    ///   restore the controller socket without touching switch state; the
    ///   switch does not dial in between.
    /// * [`Fault::DeviceCrash`] wipes the indexed attached device, kills
    ///   its controller socket and stops feeding it (and dialing for it)
    ///   until restart.
    /// * [`Fault::LinkDown`] / [`Fault::LinkUp`] / [`Fault::LinkLoss`] drop
    ///   (or probabilistically lose) data-plane packets on the given port,
    ///   in both directions.
    /// * [`Fault::FlowModLoss`] loses that fraction of the flow_mods the
    ///   controller sends before the switch applies them.
    /// * [`Fault::ControllerStall`] is controller-side and ignored here.
    pub fn inject_fault(&self, fault: Fault) {
        self.submit(Command::Fault(fault));
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Latest switch resource snapshot.
    pub fn telemetry(&self) -> SwitchTelemetry {
        *crate::lock(&self.telemetry)
    }

    /// Snapshot of the installed flow rules as `(match, priority, cookie)`
    /// triples, refreshed on the telemetry cadence — what a test harness
    /// needs to verify a post-reconnect resync reinstalled the defense.
    pub fn flow_rules(&self) -> Vec<(OfMatch, u16, u64)> {
        crate::lock(&self.flow_rules).clone()
    }

    /// Stops serving and returns the switch for inspection.
    pub fn shutdown(mut self) -> Switch {
        let thread = self.thread.take().expect("endpoint already shut down");
        self.submit(Command::Shutdown);
        thread
            .join()
            .ok()
            .flatten()
            .expect("switch endpoint thread panicked")
    }
}

impl Drop for SwitchEndpoint {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.submit(Command::Shutdown);
            let _ = thread.join();
        }
    }
}

/// Session `slot`'s dial, after `pause`: dials the controller until a
/// handshake completes, backing off from [`ChannelConfig::reconnect_base`]
/// to [`ChannelConfig::reconnect_max`] after each counted failure, then
/// serves that one connection, reporting to the serving task. The task ends
/// with the connection, whose `Closed` report tells the owner so.
async fn redial(
    slot: usize,
    pause: Duration,
    controller: SocketAddr,
    features: FeaturesReply,
    shared: Rc<conn::Shared<Report>>,
) {
    tokio::time::sleep(pause).await;
    let mut backoff = shared.cfg.reconnect_base;
    let (stream, residue) = loop {
        match conn::dial(controller, &features, &shared.cfg).await {
            Ok(dialed) => break dialed,
            Err(_) => {
                shared.counters.record_connect_failure();
                tokio::time::sleep(backoff).await;
                backoff = next_backoff(&shared.cfg, backoff);
            }
        }
    };
    let connected = |_, conn| Report::Connected { slot, conn };
    let inbound = |_, msg| match msg {
        Some(msg) => Report::Inbound { slot, msg },
        None => Report::Closed { slot },
    };
    shared.serve(stream, residue, connected, inbound).await;
}

/// The serving task's side of one session: the connection that currently
/// carries it, if any.
#[derive(Default)]
struct Session {
    /// The live connection; reports while there is none are from one
    /// already severed or closed on arrival.
    conn: Option<Conn>,
    connected_before: bool,
    /// Whether the session's [`redial`] task is alive: from its start until
    /// its connection's `Closed` report. One at a time.
    dialing: bool,
}

impl Session {
    /// Sends on the connection if one is up; a refused frame is dropped.
    fn send(&self, msg: &OfMessage) {
        if let Some(conn) = &self.conn {
            let _ = conn.send(msg);
        }
    }

    fn sever(&mut self) {
        if let Some(conn) = self.conn.take() {
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
    /// skipped, no dial started.
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
    /// The [`Fault::FlowModLoss`] probability; 0 when not faulted.
    flow_mod_loss: f64,
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
        self.draw(p)
    }

    /// A draw that comes up with probability `p`.
    fn draw(&mut self, p: f64) -> bool {
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

/// Depth of each of the serving task's queues. Connection tasks wait for
/// room (which is what pushes back on a flooding controller); so do
/// `inject` callers.
const EVENT_CHANNEL_CAP: usize = 4096;

/// Flow and buffer expiry cadence. Every other timed duty but the device
/// ticks (keepalive, telemetry, restarts after a crash) is coarser and
/// rides on it.
const EXPIRE_INTERVAL: Duration = Duration::from_millis(10);

/// How often attached data-plane devices are ticked (drives the cache's
/// rate-limited `packet_in` re-raising), matching the engine's
/// fixed-interval device ticks.
const DEVICE_TICK_INTERVAL: Duration = Duration::from_millis(5);

/// The single owner of the switch, its devices and the fault state.
struct Serving {
    switch: Switch,
    session: Session,
    devices: Vec<DeviceSlot>,
    faults: FaultState,
    config: ChannelConfig,
    /// Where every session dials.
    controller: SocketAddr,
    shared: Rc<conn::Shared<Report>>,
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
/// on a socket — dialing, handshaking, reading and writing all happen in
/// other tasks — so no peer can hold it up.
async fn serve(mut s: Serving, mut queues: Queues) -> Switch {
    for slot in 0..=s.devices.len() {
        s.dial(slot, Duration::ZERO);
    }
    let mut busy = false;
    loop {
        // With packets still queued in the datapath, or events left over
        // from a full batch, there is no waiting: the task yields the thread
        // to the connections' tasks, which send what it produced, and then
        // only looks at the queue.
        let mut next = if busy {
            tokio::task::yield_now().await;
            queues.try_next()
        } else {
            let next = poll_fn(|cx| queues.poll_next(cx));
            tokio::time::timeout(s.next_wait(), next).await.ok()
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
            next = queues.try_next();
        }
        busy = s.pump_datapath(now) || batch >= EVENT_BUDGET;
        s.run_timed_duties(now);
    }
}

impl Serving {
    /// How long the task may sleep before its next timed duty.
    fn next_wait(&self) -> Duration {
        let mut wait = EXPIRE_INTERVAL.saturating_sub(self.last_expire.elapsed());
        for dev in &self.devices {
            if !dev.down {
                wait = wait.min(DEVICE_TICK_INTERVAL.saturating_sub(dev.last_tick.elapsed()));
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

    /// Whether session `slot` must stay off the controller: its switch is
    /// down or partitioned from it, or its device is down.
    fn held(&self, slot: usize) -> bool {
        match slot.checked_sub(1) {
            None => self.faults.switch_down || self.faults.partitioned,
            Some(index) => self.devices[index].down,
        }
    }

    /// Starts session `slot`'s dial after `pause`, unless the session is
    /// held or its dial task is still alive.
    fn dial(&mut self, slot: usize, pause: Duration) {
        if self.held(slot) || self.session_mut(slot).dialing {
            return;
        }
        let features = match slot.checked_sub(1) {
            None => self.switch.features(),
            Some(index) => device_features(index),
        };
        self.session_mut(slot).dialing = true;
        let shared = Rc::clone(&self.shared);
        tokio::spawn(redial(slot, pause, self.controller, features, shared));
    }

    /// Due restarts from earlier crash faults.
    fn restart_what_is_due(&mut self, now: f64) {
        let due = |at: Option<Instant>| at.is_some_and(|t| Instant::now() >= t);
        if self.faults.switch_down && due(self.faults.switch_restart_at) {
            self.faults.switch_down = false;
            self.faults.switch_restart_at = None;
            self.dial(0, Duration::ZERO);
        }
        for index in 0..self.devices.len() {
            let dev = &mut self.devices[index];
            if dev.down && due(dev.restart_at) {
                dev.down = false;
                dev.restart_at = None;
                dev.logic.on_restart(now);
                self.dial(1 + index, Duration::ZERO);
            }
        }
    }

    /// Handles one event; `false` is the order to stop.
    fn handle(&mut self, event: Event, now: f64) -> bool {
        match event {
            Event::Command(Command::Shutdown) => return false,
            Event::Command(Command::Inject { in_port, packet }) => {
                if !self.faults.switch_down && !self.faults.link_drops(in_port) {
                    self.switch.enqueue(in_port, packet);
                }
            }
            Event::Command(Command::Fault(fault)) => self.apply_fault(fault),
            Event::Report(Report::Connected { slot, conn }) => {
                if self.held(slot) {
                    // Its handshake was under way when the fault struck.
                    conn.close();
                    return true;
                }
                let session = self.session_mut(slot);
                session.conn = Some(conn);
                if std::mem::replace(&mut session.connected_before, true) {
                    self.counters.record_reconnect();
                }
            }
            Event::Report(Report::Inbound { slot, msg }) => {
                if self.session_mut(slot).conn.is_none() {
                    return true;
                }
                match slot.checked_sub(1) {
                    None => {
                        let loss = self.faults.flow_mod_loss;
                        if matches!(msg.body, OfBody::FlowMod(_))
                            && loss > 0.0
                            && self.faults.draw(loss)
                        {
                            return true;
                        }
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
            Event::Report(Report::Closed { slot }) => {
                // The dial task ends with its connection. Pause one base
                // interval before the next, so that a controller that keeps
                // closing sessions is not hammered.
                let session = self.session_mut(slot);
                session.conn = None;
                session.dialing = false;
                self.dial(slot, self.config.reconnect_base);
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
            let due_fixed = dev.last_tick.elapsed() >= DEVICE_TICK_INTERVAL;
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
            if let Some(conn) = &mut session.conn {
                conn.keepalive(&self.config, &mut self.xid, &self.counters);
            }
        }

        // Telemetry snapshot (drives dashboards and the example binary).
        let dt = self.last_util_at.elapsed().as_secs_f64();
        if dt >= 0.05 {
            self.datapath_util = (self.busy_accum / dt).min(1.0);
            self.busy_accum = 0.0;
            self.last_util_at = Instant::now();
            *crate::lock(&self.flow_rules) = self
                .switch
                .table
                .iter()
                .map(|e| (e.of_match, e.priority, e.cookie))
                .collect();
        }
        *crate::lock(&self.telemetry) = self.switch.telemetry(self.datapath_util);
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
            Fault::FlowModLoss { probability, .. } => {
                self.faults.flow_mod_loss = probability.clamp(0.0, 1.0);
            }
            Fault::ControlPartition { .. } => {
                self.faults.partitioned = true;
                self.session.sever();
            }
            Fault::ControlHeal { .. } => {
                self.faults.partitioned = false;
                self.dial(0, Duration::ZERO);
            }
            Fault::SwitchCrash { restart_after, .. } => {
                self.switch.crash();
                self.faults.switch_down = true;
                self.faults.switch_restart_at = restart_at(restart_after);
                self.session.sever();
            }
            Fault::DeviceCrash { dev, restart_after } => {
                if let Some(slot) = self.devices.get_mut(dev.0) {
                    slot.logic.on_crash();
                    slot.down = true;
                    slot.restart_at = restart_at(restart_after);
                    slot.session.sever();
                }
            }
            // The stall is a controller-side fault; the switch endpoint has
            // nothing to stall.
            Fault::ControllerStall { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake;
    use netsim::SwitchProfile;
    use ofproto::types::DatapathId;

    /// The next dial a nonblocking `listener` receives, at most ten
    /// seconds away.
    fn next_dial(listener: &std::net::TcpListener) -> std::net::TcpStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(false).expect("blocking");
                return stream;
            }
            assert!(Instant::now() < deadline, "the switch stopped dialing");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A controller that drops the session is redialed one base interval
    /// later; dials it then turns away before the handshake are counted
    /// connect failures, each followed by a backoff that doubles up to the
    /// cap; the session that completes at last is counted as one reconnect.
    #[test]
    fn a_dropped_session_is_redialed_with_doubling_backoff_up_to_the_cap() {
        const REFUSED: usize = 5;
        let base = Duration::from_millis(40);
        let cap = 4 * base;
        let cfg = ChannelConfig::default().with_backoff(base, cap);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let switch = Switch::new(DatapathId(3), SwitchProfile::software(), vec![1]);
        let controller = listener.local_addr().expect("addr");
        let endpoint = SwitchEndpoint::spawn(switch, Vec::new(), controller, cfg).expect("spawn");

        let mut first = next_dial(&listener);
        let (features, _) = handshake::initiate(&mut first, &cfg).expect("first session");
        assert_eq!(features.datapath_id, DatapathId(3));
        let mut dialed = vec![Instant::now()];
        drop(first);
        for _ in 0..REFUSED {
            drop(next_dial(&listener));
            dialed.push(Instant::now());
        }
        let mut last = next_dial(&listener);
        dialed.push(Instant::now());
        handshake::initiate(&mut last, &cfg).expect("the session after the backoff");

        // After the drop, the pause; after each refusal, the backoff.
        let expected = [base, base, 2 * base, cap, cap, cap];
        let gaps: Vec<Duration> = dialed.windows(2).map(|w| w[1] - w[0]).collect();
        for (gap, want) in gaps.iter().zip(expected) {
            assert!(
                *gap >= want.mul_f64(0.9) && *gap < want + cap / 2,
                "redial gaps {gaps:?}, expected about {expected:?}"
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while endpoint.counters().reconnects == 0 {
            assert!(Instant::now() < deadline, "the reconnect was not counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = endpoint.counters();
        assert_eq!(
            (snap.reconnects, snap.connect_failures),
            (1, REFUSED as u64)
        );
        drop(endpoint);
    }
}
