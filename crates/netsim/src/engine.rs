//! The discrete-event simulation engine: wires switches, hosts, data-plane
//! devices and the control plane together and runs the event loop.
//!
//! ## Resource model
//!
//! * Each **switch datapath** is a single server; packets occupy it per
//!   [`crate::profile::SwitchProfile`] costs (misses far more expensive than
//!   hits — the root of the saturation attack).
//! * Each switch's **control channel** is a FIFO pipe with finite bandwidth
//!   and latency, in both directions; `packet_in` size on the wire grows to
//!   the whole packet once the switch buffer fills (amplification).
//! * The **controller** is a single server; each message costs platform
//!   dispatch time plus whatever CPU the applications report.
//! * **Links** to hosts/devices add fixed latency; the switch is the
//!   bandwidth bottleneck, matching the paper's single-switch testbed.
//!
//! ## Event loop
//!
//! The engine runs on the calling thread, over two event queues. The
//! **coordinator** queue holds the control side: controller arrivals and
//! service, control-plane ticks, telemetry, faults and obs snapshots. The
//! **data plane** queue holds every switch's, host's and device's events.
//!
//! Whatever the data plane sends across a switch-to-switch link or up a
//! control channel arrives at least the minimum link/channel latency — the
//! **lookahead** `L` — after it is sent. So the data plane runs ahead in
//! windows `[p, min(g, p + L))`, where `p` is its next event and `g` the
//! coordinator's, staging those sends in an outbox; at the window's end
//! they are scheduled in canonical `(time, source entity, sequence)` order.
//! Events at the same instant pop in the order they were scheduled, so the
//! window and the merge define the simulation's same-time ordering. It is
//! the ordering of the per-switch parallel engine this one replaced, at any
//! of its thread counts, and every checked-in artifact encodes it; the
//! golden tests (`chain`, `topo`, `tests/tests/sched_equivalence.rs`) pin
//! it.
//!
//! Every host and switch draws from its own seeded RNG stream (derived from
//! the simulation seed and the entity's id), and `packet_in` transaction ids
//! come from a per-switch counter.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;

use ofproto::messages::{OfBody, OfMessage};
use ofproto::types::{DatapathId, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::{Fault, FaultLogEntry, FaultScript};
use crate::host::{Host, HostId};
use crate::iface::{
    ControlOutput, ControlPlane, DataPlaneDevice, DeviceId, DeviceOutput, Telemetry,
};
use crate::metrics::UtilizationTracker;
use crate::packet::Packet;
use crate::profile::{ControllerProfile, SwitchProfile};
use crate::sched::EventQueue;
use crate::switch::Switch;

/// A switch identifier (index into the simulation's switch table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub usize);

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// An end host.
    Host(HostId),
    /// A data-plane device (FloodGuard cache).
    Device(DeviceId),
    /// Another switch's port.
    SwitchPort(SwitchId, u16),
    /// Nothing; packets out this port vanish.
    Unconnected,
}

#[derive(Debug, Clone, Copy)]
enum MsgSource {
    Switch(usize),
    Device(usize),
}

/// Data-plane events, indexed by switch, host and device id.
enum PEv {
    HostEmit { host: usize, source: usize },
    DeliverToSwitch { sw: usize, port: u16, pkt: Packet },
    SwitchStart { sw: usize },
    DeliverToHost { host: usize, pkt: Packet },
    DeliverToDevice { dev: usize, pkt: Packet },
    SwitchMsgArrive { sw: usize, msg: OfMessage },
    DeviceTick { dev: usize },
}

/// Coordinator events.
enum GEv {
    CtrlArrive { src: MsgSource, msg: OfMessage },
    CtrlStart,
    ControlTick,
    Maintenance,
    ObsSnapshot,
    Fault(Fault),
    SwitchRestart { sw: usize },
    DeviceRestart { dev: usize },
}

/// Sends staged in the data plane's outbox during a window, applied at its
/// end in canonical order.
enum OutMsg {
    /// A packet crossing a switch-to-switch link to `(sw, port)`.
    ToSwitch { sw: usize, port: u16, pkt: Packet },
    /// An upstream control-channel message for the coordinator.
    Ctrl { src: MsgSource, msg: OfMessage },
}

/// Tag added to device source ids so they sort after all switch ids in the
/// canonical merge without colliding.
const DEV_SRC: u64 = 1 << 32;

struct OutboxEntry {
    at: f64,
    /// Canonical tiebreak, level 1: the sending entity (switch id, or
    /// `DEV_SRC + device id`).
    src: u64,
    /// Canonical tiebreak, level 2: the sender's own emission counter.
    seq: u64,
    msg: OutMsg,
}

/// Why the simulator lost a packet or a control message outside a
/// switch's own pipeline; [`Simulation::drops`] reads the cumulative count
/// of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A control message to or from a switch that is partitioned from the
    /// controller or down.
    ControlPartition,
    /// A packet onto a link that is down.
    LinkDown,
    /// A packet lost by a lossy link's draw.
    LinkLoss,
    /// A packet reaching a crashed switch.
    SwitchDown,
    /// Packets a switch's ingress did not accept.
    SwitchIngress,
    /// A packet reaching a device that is down.
    DeviceDown,
    /// A packet out a port with nothing attached.
    Unconnected,
    /// A flow_mod to a switch lost by its [`Fault::FlowModLoss`] draw.
    FlowModLoss,
    /// A message arriving at the controller's full input queue (the same
    /// count as [`ControllerStats::dropped`]).
    ControllerQueue,
}

/// Causes the data plane counts itself, indexed by discriminant: every one
/// but the controller queue, which is declared last for that reason.
const DATA_PLANE_CAUSES: usize = 8;

impl DropCause {
    /// Every cause, in the alphabetical order of [`DropCause::name`].
    pub const ALL: [DropCause; 9] = [
        DropCause::ControlPartition,
        DropCause::ControllerQueue,
        DropCause::DeviceDown,
        DropCause::FlowModLoss,
        DropCause::LinkDown,
        DropCause::LinkLoss,
        DropCause::SwitchDown,
        DropCause::SwitchIngress,
        DropCause::Unconnected,
    ];

    /// The counter's name: the obs gauge `netsim.<name>` mirrors it.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::ControlPartition => "control_partition_drops",
            DropCause::ControllerQueue => "controller_queue_drops",
            DropCause::DeviceDown => "device_down_drops",
            DropCause::FlowModLoss => "flow_mod_loss_drops",
            DropCause::LinkDown => "link_down_drops",
            DropCause::LinkLoss => "link_loss_drops",
            DropCause::SwitchDown => "switch_down_drops",
            DropCause::SwitchIngress => "switch_ingress_drops",
            DropCause::Unconnected => "unconnected_drops",
        }
    }
}

/// Deterministic per-entity RNG seed: splitmix64 over the simulation seed,
/// the entity kind and its id. Each host and switch draws from its own
/// stream, so sampling depends only on the entity's own event sequence.
fn entity_seed(seed: u64, kind: u64, gid: u64) -> u64 {
    rand::splitmix64(seed ^ (kind << 56) ^ gid.wrapping_mul(rand::GOLDEN_GAMMA))
}

const KIND_SWITCH: u64 = 0;
const KIND_HOST: u64 = 1;

/// Applies link impairments for the link keyed `(switch, port)`: returns
/// `false` when the packet is dropped (link down, or lost by a draw from the
/// owning switch's RNG).
fn link_passes(
    link_down: &HashSet<(usize, u16)>,
    link_loss: &HashMap<(usize, u16), f64>,
    drops: &mut [u64; DATA_PLANE_CAUSES],
    rng: &mut StdRng,
    key: (usize, u16),
    batch: u32,
) -> bool {
    if link_down.contains(&key) {
        drops[DropCause::LinkDown as usize] += u64::from(batch);
        return false;
    }
    if let Some(&p) = link_loss.get(&key) {
        if rng.gen_bool(p) {
            drops[DropCause::LinkLoss as usize] += u64::from(batch);
            return false;
        }
    }
    true
}

/// Engine-side observability state: metric handles registered against an
/// [`obs::Registry`] at attach time, plus the bookkeeping that turns
/// cumulative counts into rates at snapshot time.
struct EngineObs {
    hub: obs::ObsHandle,
    /// Events popped from either queue. Like `switch_batch_hist`, it is
    /// brought up to date only before the registry is read — at a snapshot
    /// and when `run_until` returns — since atomic adds per event cost the
    /// attached registry more than its 2% budget.
    events: obs::Counter,
    events_per_sec: obs::Gauge,
    queue_depth: obs::Gauge,
    ctrl_queue_depth: obs::Gauge,
    pool_occupancy: obs::Gauge,
    ctrl_queue_hist: obs::Histogram,
    switch_batch_hist: obs::Histogram,
    snapshot_interval: Option<f64>,
    /// Per-switch gauges, registered lazily. Indexed by switch id.
    switch_buffer: Vec<obs::Gauge>,
    switch_miss_rate: Vec<obs::Gauge>,
    switch_spoofed_tags: Vec<obs::Gauge>,
    last_misses: Vec<u64>,
    last_events: u64,
    last_at: f64,
    /// `events_processed` as of the last flush into `events`.
    flushed_events: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ChannelState {
    up_busy: f64,
    down_busy: f64,
}

/// What each port of one switch is wired to, indexed by port number: switch
/// ports are small integers (`1..=k`, a cache port such as 99), so a hop
/// costs an index, not a hash. `None` marks a number the switch has no port
/// for.
#[derive(Default, Clone)]
struct PortTable(Vec<Option<Endpoint>>);

impl PortTable {
    fn get(&self, port: u16) -> Option<Endpoint> {
        self.0.get(usize::from(port)).copied().flatten()
    }

    fn set(&mut self, port: u16, endpoint: Endpoint) {
        let i = usize::from(port);
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(endpoint);
    }
}

/// Per-switch mutable state that lives beside the `Switch` itself.
struct SwMeta {
    scheduled: bool,
    down: bool,
    partitioned: bool,
    /// The [`Fault::FlowModLoss`] probability; 0 when not faulted.
    flow_mod_loss: f64,
    chan: ChannelState,
    cpu: UtilizationTracker,
    out_seq: u64,
    rng: StdRng,
}

struct DeviceEntry {
    logic: Box<dyn DataPlaneDevice>,
    channel_bandwidth: f64,
    channel_latency: f64,
    chan: ChannelState,
    tick_interval: f64,
    down: bool,
    out_seq: u64,
}

/// The data plane: every switch with its attached hosts and devices, its
/// wiring, and one event queue. It runs a lookahead window at a time;
/// everything it sends across a switch-to-switch link or up a control
/// channel is staged in `outbox` and merged canonically at the window's end.
struct DataPlane {
    queue: EventQueue<PEv>,
    switches: Vec<Switch>,
    sw_meta: Vec<SwMeta>,
    /// What each switch's ports are wired to, by switch id.
    ports: Vec<PortTable>,
    hosts: Vec<Host>,
    host_rng: Vec<StdRng>,
    /// The `(switch, port)` each host hangs off.
    host_attach: Vec<(SwitchId, u16)>,
    devices: Vec<DeviceEntry>,
    link_latency: f64,
    /// Link impairments keyed by `(switch, port)`.
    link_down: HashSet<(usize, u16)>,
    link_loss: HashMap<(usize, u16), f64>,
    outbox: Vec<OutboxEntry>,
    /// Cumulative drops by [`DropCause`], but for the controller queue.
    drops: [u64; DATA_PLANE_CAUSES],
    events_delta: u64,
    /// A host's emissions, or its answers to a delivery, being sent.
    emit_scratch: Vec<Packet>,
    /// The forwards of the switch hop being processed.
    forwards: Vec<(u16, Packet)>,
    switch_batch: Vec<(u16, Packet)>,
    device_batch: Vec<Packet>,
    device_scratch: DeviceOutput,
    /// Switch delivery batch sizes, when obs is attached; absorbed into
    /// `engine.switch_batch` before the registry is read.
    batch_sizes: Option<obs::LocalHistogram>,
}

impl DataPlane {
    fn new() -> DataPlane {
        DataPlane {
            queue: EventQueue::new(),
            switches: Vec::new(),
            sw_meta: Vec::new(),
            ports: Vec::new(),
            hosts: Vec::new(),
            host_rng: Vec::new(),
            host_attach: Vec::new(),
            devices: Vec::new(),
            link_latency: 50e-6,
            link_down: HashSet::new(),
            link_loss: HashMap::new(),
            outbox: Vec::new(),
            drops: [0; DATA_PLANE_CAUSES],
            events_delta: 0,
            emit_scratch: Vec::new(),
            forwards: Vec::new(),
            switch_batch: Vec::new(),
            device_batch: Vec::new(),
            device_scratch: DeviceOutput::new(),
            batch_sizes: None,
        }
    }

    /// What `(sw, port)` is wired to; `None` if there is no such port.
    fn endpoint(&self, sw: usize, port: u16) -> Option<Endpoint> {
        self.ports.get(sw)?.get(port)
    }

    /// Processes every queued event strictly before window end `w` (and not
    /// past `until`).
    fn run(&mut self, w: f64, until: f64) {
        while let Some((now, ev)) = self.queue.pop_if(|t, _| t < w && t <= until) {
            self.events_delta += 1;
            self.dispatch(ev, now, until);
        }
    }

    fn dispatch(&mut self, ev: PEv, now: f64, until: f64) {
        match ev {
            PEv::HostEmit { host, source } => {
                let mut packets = std::mem::take(&mut self.emit_scratch);
                self.hosts[host].emit_source_into(
                    source,
                    now,
                    &mut self.host_rng[host],
                    &mut packets,
                );
                for pkt in packets.drain(..) {
                    self.hosts[host].note_sent(&pkt, now);
                    self.host_send(host, pkt, now);
                }
                self.emit_scratch = packets;
                if let Some(t) = self.hosts[host].peek_source(source, now) {
                    self.queue.schedule(t, PEv::HostEmit { host, source });
                }
            }
            PEv::DeliverToSwitch { sw, port, pkt } => {
                // Coalesce the consecutive same-time deliveries to this
                // switch into one batch: the queue is popped in exactly the
                // order the unbatched loop would have used, per-packet loss
                // draws stay in arrival order, and no other event can sit
                // between consecutive pops — so the schedule (and RNG
                // stream) is bit-identical to one-event-at-a-time delivery.
                let mut batch = std::mem::take(&mut self.switch_batch);
                batch.push((port, pkt));
                // The time first: it is in the queue's key, the variant is in
                // the payload slab.
                while self.queue.peek_time() == Some(now) {
                    let next = self.queue.pop_if(
                        |_, e| matches!(e, PEv::DeliverToSwitch { sw: s2, .. } if *s2 == sw),
                    );
                    match next {
                        Some((_, PEv::DeliverToSwitch { port, pkt, .. })) => {
                            batch.push((port, pkt));
                        }
                        Some(_) => unreachable!("popped a same-time switch delivery"),
                        None => break,
                    }
                    self.events_delta += 1;
                }
                if let Some(h) = &mut self.batch_sizes {
                    h.record(batch.len() as u64);
                }
                if self.sw_meta[sw].down {
                    for (_, pkt) in batch.drain(..) {
                        self.drops[DropCause::SwitchDown as usize] += u64::from(pkt.batch);
                    }
                } else {
                    {
                        let meta = &mut self.sw_meta[sw];
                        let link_down = &self.link_down;
                        let link_loss = &self.link_loss;
                        let drops = &mut self.drops;
                        batch.retain(|&(port, pkt)| {
                            link_passes(
                                link_down,
                                link_loss,
                                drops,
                                &mut meta.rng,
                                (sw, port),
                                pkt.batch,
                            )
                        });
                    }
                    let offered = batch.len();
                    let accepted = self.switches[sw].enqueue_batch(&mut batch);
                    if accepted > 0 {
                        self.maybe_schedule_switch(sw, now);
                    }
                    if offered > accepted {
                        self.drops[DropCause::SwitchIngress as usize] +=
                            (offered - accepted) as u64;
                    }
                }
                self.switch_batch = batch;
            }
            PEv::SwitchStart { sw } if self.sw_meta[sw].down => {
                self.sw_meta[sw].scheduled = false;
            }
            PEv::SwitchStart { sw } => match self.switches[sw].start_next() {
                Some((port, pkt)) => {
                    let mut forwards = std::mem::take(&mut self.forwards);
                    let hop = self.switches[sw].process_into(port, pkt, now, &mut forwards);
                    self.sw_meta[sw].cpu.add(now, hop.service);
                    let done = now + hop.service;
                    self.switches[sw].busy_until = done;
                    for (out_port, out_pkt) in forwards.drain(..) {
                        self.deliver_from_port(sw, out_port, out_pkt, done);
                    }
                    self.forwards = forwards;
                    if let Some(pi) = hop.packet_in {
                        let xid = self.switches[sw].next_xid();
                        self.send_up(sw, OfMessage::new(xid, OfBody::PacketIn(pi)), done);
                    }
                    if self.switches[sw].ingress_len() > 0 {
                        self.queue.schedule(done, PEv::SwitchStart { sw });
                    } else {
                        self.sw_meta[sw].scheduled = false;
                    }
                }
                None => {
                    self.sw_meta[sw].scheduled = false;
                }
            },
            PEv::DeliverToHost { host, pkt } => {
                let mut responses = std::mem::take(&mut self.emit_scratch);
                self.hosts[host].receive_into(&pkt, now, &mut responses);
                for response in responses.drain(..) {
                    self.host_send(host, response, now);
                }
                self.emit_scratch = responses;
            }
            PEv::DeliverToDevice { dev, pkt } => {
                // Same consecutive-coalescing argument as DeliverToSwitch.
                let mut batch = std::mem::take(&mut self.device_batch);
                batch.push(pkt);
                while self.queue.peek_time() == Some(now) {
                    let next = self.queue.pop_if(
                        |_, e| matches!(e, PEv::DeliverToDevice { dev: d2, .. } if *d2 == dev),
                    );
                    match next {
                        Some((_, PEv::DeliverToDevice { pkt, .. })) => batch.push(pkt),
                        Some(_) => unreachable!("popped a same-time device delivery"),
                        None => break,
                    }
                    self.events_delta += 1;
                }
                if self.devices[dev].down {
                    for pkt in batch.drain(..) {
                        self.drops[DropCause::DeviceDown as usize] += u64::from(pkt.batch);
                    }
                } else {
                    let mut out = std::mem::take(&mut self.device_scratch);
                    self.devices[dev]
                        .logic
                        .on_packets(&mut batch, now, &mut out);
                    for msg in out.to_controller.drain(..) {
                        self.send_device_up(dev, msg, now);
                    }
                    self.device_scratch = out;
                }
                self.device_batch = batch;
            }
            PEv::SwitchMsgArrive { sw, msg } => {
                let (forwards, replies) = self.switches[sw].handle_message(msg, now);
                for (out_port, pkt) in forwards {
                    self.deliver_from_port(sw, out_port, pkt, now);
                }
                for reply in replies {
                    self.send_up(sw, reply, now);
                }
            }
            PEv::DeviceTick { dev } => {
                if !self.devices[dev].down {
                    let mut out = std::mem::take(&mut self.device_scratch);
                    self.devices[dev].logic.on_tick(now, &mut out);
                    for msg in out.to_controller.drain(..) {
                        self.send_device_up(dev, msg, now);
                    }
                    self.device_scratch = out;
                }
                let next = now + self.devices[dev].tick_interval;
                if next <= until + self.devices[dev].tick_interval {
                    self.queue.schedule(next, PEv::DeviceTick { dev });
                }
            }
        }
    }

    fn maybe_schedule_switch(&mut self, sw: usize, now: f64) {
        if !self.sw_meta[sw].scheduled {
            self.sw_meta[sw].scheduled = true;
            let at = self.switches[sw].busy_until.max(now);
            self.queue.schedule(at, PEv::SwitchStart { sw });
        }
    }

    /// Sends a host packet into its attached switch.
    fn host_send(&mut self, host: usize, pkt: Packet, now: f64) {
        let (SwitchId(sw), port) = self.host_attach[host];
        self.queue.schedule(
            now + self.link_latency,
            PEv::DeliverToSwitch { sw, port, pkt },
        );
    }

    /// Emits a packet out a switch port. Host and device deliveries are
    /// scheduled directly; switch-to-switch hops are staged in the outbox,
    /// so they enter the queue in canonical order at the window's end.
    fn deliver_from_port(&mut self, sw: usize, port: u16, pkt: Packet, at: f64) {
        if !link_passes(
            &self.link_down,
            &self.link_loss,
            &mut self.drops,
            &mut self.sw_meta[sw].rng,
            (sw, port),
            pkt.batch,
        ) {
            return;
        }
        let at = at + self.link_latency;
        match self.endpoint(sw, port).unwrap_or(Endpoint::Unconnected) {
            Endpoint::Host(HostId(host)) => {
                self.queue.schedule(at, PEv::DeliverToHost { host, pkt });
            }
            Endpoint::Device(DeviceId(dev)) => {
                self.queue.schedule(at, PEv::DeliverToDevice { dev, pkt });
            }
            Endpoint::SwitchPort(SwitchId(to), port) => {
                let meta = &mut self.sw_meta[sw];
                let seq = meta.out_seq;
                meta.out_seq += 1;
                self.outbox.push(OutboxEntry {
                    at,
                    src: sw as u64,
                    seq,
                    msg: OutMsg::ToSwitch { sw: to, port, pkt },
                });
            }
            Endpoint::Unconnected => {
                self.drops[DropCause::Unconnected as usize] += u64::from(pkt.batch);
            }
        }
    }

    /// Stages an upstream control message (arrival time includes channel
    /// serialization + latency, so it is always ≥ the window end).
    fn send_up(&mut self, sw: usize, msg: OfMessage, ready_at: f64) {
        let profile = self.switches[sw].profile;
        let meta = &mut self.sw_meta[sw];
        if meta.partitioned || meta.down {
            self.drops[DropCause::ControlPartition as usize] += 1;
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.up_busy = meta.chan.up_busy.max(ready_at) + tx;
        let at = meta.chan.up_busy + profile.channel_latency;
        let seq = meta.out_seq;
        meta.out_seq += 1;
        self.outbox.push(OutboxEntry {
            at,
            src: sw as u64,
            seq,
            msg: OutMsg::Ctrl {
                src: MsgSource::Switch(sw),
                msg,
            },
        });
    }

    fn send_device_up(&mut self, dev: usize, msg: OfMessage, ready_at: f64) {
        let entry = &mut self.devices[dev];
        let tx = ofproto::wire::wire_len(&msg) as f64 / entry.channel_bandwidth;
        entry.chan.up_busy = entry.chan.up_busy.max(ready_at) + tx;
        let at = entry.chan.up_busy + entry.channel_latency;
        let seq = entry.out_seq;
        entry.out_seq += 1;
        self.outbox.push(OutboxEntry {
            at,
            src: DEV_SRC + dev as u64,
            seq,
            msg: OutMsg::Ctrl {
                src: MsgSource::Device(dev),
                msg,
            },
        });
    }
}

/// Aggregate controller-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Messages processed.
    pub processed: u64,
    /// Messages dropped at the full input queue.
    pub dropped: u64,
    /// Total CPU seconds consumed.
    pub cpu_seconds: f64,
}

/// The simulation: topology, plugged-in logic and the event loop.
///
/// Internally the simulation is a **coordinator** — which owns the control
/// plane, the controller queue, telemetry, faults and the obs snapshots —
/// beside the data plane. The coordinator alternates between dispatching its
/// own events and running the data plane up to the next lookahead window's
/// end (see the module docs).
pub struct Simulation {
    /// Coordinator event queue.
    gqueue: EventQueue<GEv>,
    dp: DataPlane,
    /// Minimum delay of a data-plane send; computed at start.
    lookahead: f64,
    seed: u64,
    /// Latest dispatched event time across both queues.
    clock: f64,
    /// Datapath id → switch id.
    dpid_index: HashMap<DatapathId, usize>,
    control: Box<dyn ControlPlane>,
    ctrl_profile: ControllerProfile,
    ctrl_queue: VecDeque<(MsgSource, OfMessage)>,
    ctrl_busy_until: f64,
    ctrl_scheduled: bool,
    /// Controller statistics.
    pub ctrl_stats: ControllerStats,
    app_cpu: HashMap<String, UtilizationTracker>,
    ctrl_total_cpu: UtilizationTracker,
    maintenance_interval: f64,
    cpu_bucket: f64,
    started: bool,
    fault_log: Vec<FaultLogEntry>,
    ctrl_scratch: ControlOutput,
    events_processed: u64,
    obs: Option<EngineObs>,
}

impl Simulation {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            gqueue: EventQueue::new(),
            dp: DataPlane::new(),
            lookahead: 0.0,
            seed,
            clock: 0.0,
            dpid_index: HashMap::new(),
            control: Box::new(crate::iface::NullControlPlane),
            ctrl_profile: ControllerProfile::default(),
            ctrl_queue: VecDeque::new(),
            ctrl_busy_until: 0.0,
            ctrl_scheduled: false,
            ctrl_stats: ControllerStats::default(),
            app_cpu: HashMap::new(),
            ctrl_total_cpu: UtilizationTracker::new(0.05),
            maintenance_interval: 0.05,
            cpu_bucket: 0.05,
            started: false,
            fault_log: Vec::new(),
            ctrl_scratch: ControlOutput::new(),
            events_processed: 0,
            obs: None,
        }
    }

    /// Does nothing: the engine runs on the calling thread.
    ///
    /// Kept only because `benchmark/README.md` pins this signature (fgbench's
    /// `sim_repro` calls it); it goes when the benchmark stops calling it.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Attaches an observability hub.
    ///
    /// The engine registers its metrics (`engine.events`, queue depths, pool
    /// occupancy, per-switch buffer/miss gauges) immediately and updates the
    /// hot-path counters from then on. When `snapshot_interval` is `Some`,
    /// a periodic snapshot event is scheduled through the coordinator
    /// queue, so recorder samples land at deterministic sim times and
    /// the recorded timeline is bit-exact across same-seed runs. With `None`
    /// the registry stays live (counters/histograms still update) but no
    /// snapshots are taken — the configuration the `<2%` overhead gate in
    /// `bench/benches/engine.rs` measures.
    ///
    /// Call before the first `run_until`; the snapshot event is scheduled at
    /// engine start.
    pub fn attach_obs(&mut self, hub: obs::ObsHandle, snapshot_interval: Option<f64>) {
        let reg = &hub.registry;
        self.obs = Some(EngineObs {
            events: reg.counter("engine.events"),
            events_per_sec: reg.gauge("engine.events_per_sec"),
            queue_depth: reg.gauge("engine.queue_depth"),
            ctrl_queue_depth: reg.gauge("engine.ctrl_queue_depth"),
            pool_occupancy: reg.gauge("engine.pool_occupancy"),
            ctrl_queue_hist: reg.histogram("engine.ctrl_queue"),
            switch_batch_hist: reg.histogram("engine.switch_batch"),
            snapshot_interval,
            switch_buffer: Vec::new(),
            switch_miss_rate: Vec::new(),
            switch_spoofed_tags: Vec::new(),
            last_misses: Vec::new(),
            last_events: 0,
            last_at: 0.0,
            flushed_events: self.events_processed,
            hub,
        });
        if self.started {
            self.propagate_obs();
        }
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&obs::ObsHandle> {
        self.obs.as_ref().map(|o| &o.hub)
    }

    /// Has the data plane record the batch sizes obs reads.
    fn propagate_obs(&mut self) {
        if self.obs.is_some() {
            self.dp.batch_sizes = Some(obs::LocalHistogram::default());
        }
    }

    /// Brings the registry's hot-path metrics up to date.
    fn flush_obs(&mut self) {
        let Some(o) = self.obs.as_mut() else { return };
        o.events.add(self.events_processed - o.flushed_events);
        o.flushed_events = self.events_processed;
        if let Some(sizes) = &mut self.dp.batch_sizes {
            o.switch_batch_hist.absorb(sizes);
        }
    }

    /// Samples every engine/switch gauge and takes a recorder snapshot.
    fn obs_snapshot(&mut self, now: f64) {
        self.flush_obs();
        let drops = DropCause::ALL.map(|cause| self.drops(cause));
        let Some(o) = self.obs.as_mut() else { return };
        o.queue_depth
            .set((self.gqueue.len() + self.dp.queue.len()) as f64);
        o.ctrl_queue_depth.set(self.ctrl_queue.len() as f64);
        let dt = now - o.last_at;
        if dt > 0.0 {
            o.events_per_sec
                .set((self.events_processed - o.last_events) as f64 / dt);
        }
        o.last_events = self.events_processed;
        o.last_at = now;
        let mut pool = 0usize;
        for (gid, s) in self.dp.switches.iter().enumerate() {
            while o.switch_buffer.len() <= gid {
                let j = o.switch_buffer.len();
                o.switch_buffer.push(
                    o.hub
                        .registry
                        .gauge(&format!("switch{j}.buffer_utilization")),
                );
                o.switch_miss_rate
                    .push(o.hub.registry.gauge(&format!("switch{j}.miss_rate")));
                o.switch_spoofed_tags.push(
                    o.hub
                        .registry
                        .gauge(&format!("switch{j}.spoofed_tag_stripped")),
                );
                o.last_misses.push(0);
            }
            pool += s.buffered();
            o.switch_buffer[gid].set(s.buffer_utilization());
            if dt > 0.0 {
                o.switch_miss_rate[gid].set((s.stats.misses - o.last_misses[gid]) as f64 / dt);
            }
            o.switch_spoofed_tags[gid].set(s.stats.spoofed_tag_stripped as f64);
            o.last_misses[gid] = s.stats.misses;
        }
        o.pool_occupancy.set(pool as f64);
        // Mirror the drop counters, each from its first drop on, in name
        // order.
        for (cause, v) in DropCause::ALL.into_iter().zip(drops) {
            if v > 0 {
                o.hub
                    .registry
                    .gauge(&format!("netsim.{}", cause.name()))
                    .set(v as f64);
            }
        }
        o.hub.snapshot(now);
    }

    /// Installs the control plane (controller platform, defense wrapper...).
    pub fn set_control_plane(&mut self, control: Box<dyn ControlPlane>) {
        self.control = control;
    }

    /// Overrides the controller resource profile.
    pub fn set_controller_profile(&mut self, profile: ControllerProfile) {
        self.ctrl_profile = profile;
    }

    /// Sets the per-hop link latency (default 50 µs).
    ///
    /// # Panics
    ///
    /// Panics once the simulation has started: the latency participates in
    /// the lookahead computed at start.
    pub fn set_link_latency(&mut self, seconds: f64) {
        assert!(
            !self.started,
            "set_link_latency must be called before the simulation starts"
        );
        self.dp.link_latency = seconds;
    }

    /// Sets the width of CPU-utilization buckets (Fig. 12 resolution).
    pub fn set_cpu_bucket(&mut self, seconds: f64) {
        self.cpu_bucket = seconds;
        self.ctrl_total_cpu = UtilizationTracker::new(seconds);
    }

    /// Adds a switch with the given ports; returns its id.
    ///
    /// # Panics
    ///
    /// Panics once the simulation has started.
    pub fn add_switch(&mut self, profile: SwitchProfile, ports: Vec<u16>) -> SwitchId {
        assert!(
            !self.started,
            "add_switch must be called before the simulation starts"
        );
        let gid = self.dp.switches.len();
        let dpid = DatapathId(gid as u64 + 1);
        let mut table = PortTable::default();
        for &p in &ports {
            table.set(p, Endpoint::Unconnected);
        }
        self.dp.ports.push(table);
        self.dp.switches.push(Switch::new(dpid, profile, ports));
        self.dp.sw_meta.push(SwMeta {
            scheduled: false,
            down: false,
            partitioned: false,
            flow_mod_loss: 0.0,
            chan: ChannelState::default(),
            cpu: UtilizationTracker::new(self.maintenance_interval),
            out_seq: 0,
            rng: StdRng::seed_from_u64(entity_seed(self.seed, KIND_SWITCH, gid as u64)),
        });
        self.dpid_index.insert(dpid, gid);
        SwitchId(gid)
    }

    /// Adds a host attached to `(sw, port)`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the switch or port does not exist, or once the simulation
    /// has started.
    pub fn add_host(&mut self, sw: SwitchId, port: u16, mac: MacAddr, ip: Ipv4Addr) -> HostId {
        assert!(
            !self.started,
            "add_host must be called before the simulation starts"
        );
        assert!(
            self.dp.endpoint(sw.0, port).is_some(),
            "switch {sw:?} has no port {port}"
        );
        let id = HostId(self.dp.hosts.len());
        self.dp.hosts.push(Host::new(mac, ip));
        self.dp.host_rng.push(StdRng::seed_from_u64(entity_seed(
            self.seed,
            KIND_HOST,
            id.0 as u64,
        )));
        self.dp.host_attach.push((sw, port));
        self.dp.ports[sw.0].set(port, Endpoint::Host(id));
        id
    }

    /// Attaches a data-plane device to `(sw, port)`; returns its id.
    ///
    /// The device gets its own controller connection with the given channel
    /// bandwidth (bytes/s) and latency, and is ticked every `tick_interval`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if the switch or port does not exist, or once the simulation
    /// has started.
    pub fn attach_device(
        &mut self,
        sw: SwitchId,
        port: u16,
        logic: Box<dyn DataPlaneDevice>,
        channel_bandwidth: f64,
        channel_latency: f64,
        tick_interval: f64,
    ) -> DeviceId {
        assert!(
            !self.started,
            "attach_device must be called before the simulation starts"
        );
        assert!(
            self.dp.endpoint(sw.0, port).is_some(),
            "switch {sw:?} has no port {port}"
        );
        let id = DeviceId(self.dp.devices.len());
        self.dp.devices.push(DeviceEntry {
            logic,
            channel_bandwidth,
            channel_latency,
            chan: ChannelState::default(),
            tick_interval,
            down: false,
            out_seq: 0,
        });
        self.dp.ports[sw.0].set(port, Endpoint::Device(id));
        id
    }

    /// Wires two switch ports together.
    ///
    /// # Panics
    ///
    /// Panics if either port does not exist, or once the simulation has
    /// started.
    pub fn connect_switches(&mut self, a: SwitchId, pa: u16, b: SwitchId, pb: u16) {
        assert!(
            !self.started,
            "connect_switches must be called before the simulation starts"
        );
        assert!(self.dp.endpoint(a.0, pa).is_some());
        assert!(self.dp.endpoint(b.0, pb).is_some());
        self.dp.ports[a.0].set(pa, Endpoint::SwitchPort(b, pb));
        self.dp.ports[b.0].set(pb, Endpoint::SwitchPort(a, pa));
    }

    /// Immutable host access.
    pub fn host(&self, id: HostId) -> &Host {
        &self.dp.hosts[id.0]
    }

    /// Mutable host access (attach workloads here).
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.dp.hosts[id.0]
    }

    /// Immutable switch access.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.dp.switches[id.0]
    }

    /// Mutable switch access (pre-install rules here).
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        &mut self.dp.switches[id.0]
    }

    /// Current simulation time: the latest dispatched event time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Per-application CPU utilization series over `[0, until)` with the
    /// configured bucket width — the data behind Fig. 12.
    pub fn app_utilization(&self, app: &str, until: f64) -> Vec<crate::metrics::Sample> {
        self.app_cpu
            .get(app)
            .map(|t| t.utilization_series(until))
            .unwrap_or_default()
    }

    /// Names of all applications that consumed CPU.
    pub fn app_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.app_cpu.keys().cloned().collect();
        names.sort();
        names
    }

    /// Schedules `fault` at absolute simulation time `at` as a first-class
    /// event (deterministic, seed-stable). May be called before a run or
    /// between `run_until` calls.
    pub fn schedule_fault(&mut self, at: f64, fault: Fault) {
        self.gqueue.schedule(at, GEv::Fault(fault));
    }

    /// Schedules every fault in `script` (see [`FaultScript`]).
    pub fn load_fault_script(&mut self, script: &FaultScript) {
        for &(at, fault) in script.events() {
            self.schedule_fault(at, fault);
        }
    }

    /// All faults applied so far, in application order (for post-mortems and
    /// CI artifacts).
    pub fn fault_log(&self) -> &[FaultLogEntry] {
        &self.fault_log
    }

    /// Packets and messages lost to `cause` so far.
    pub fn drops(&self, cause: DropCause) -> u64 {
        match cause {
            DropCause::ControllerQueue => self.ctrl_stats.dropped,
            dp => self.dp.drops[dp as usize],
        }
    }

    /// Delivers a downstream control message into the data plane's queue.
    /// `arrive ≥ ready_at + tx + channel latency` is always ahead of the
    /// data plane's clock, so this never time-travels.
    fn send_down(&mut self, sw: usize, msg: OfMessage, ready_at: f64) {
        let profile = self.dp.switches[sw].profile;
        let meta = &mut self.dp.sw_meta[sw];
        if meta.partitioned || meta.down {
            self.dp.drops[DropCause::ControlPartition as usize] += 1;
            return;
        }
        if meta.flow_mod_loss > 0.0
            && matches!(msg.body, OfBody::FlowMod(_))
            && meta.rng.gen_bool(meta.flow_mod_loss)
        {
            self.dp.drops[DropCause::FlowModLoss as usize] += 1;
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.down_busy = meta.chan.down_busy.max(ready_at) + tx;
        let arrive = meta.chan.down_busy + profile.channel_latency;
        self.dp
            .queue
            .schedule(arrive, PEv::SwitchMsgArrive { sw, msg });
    }

    /// Coordinator-side upstream send (telemetry-expiry flow-removed
    /// messages): same channel accounting as `DataPlane::send_up`, but made
    /// outside a window, so the arrival goes straight into the coordinator
    /// queue.
    fn coord_send_up(&mut self, sw: usize, msg: OfMessage, ready_at: f64) {
        let profile = self.dp.switches[sw].profile;
        let meta = &mut self.dp.sw_meta[sw];
        if meta.partitioned || meta.down {
            self.dp.drops[DropCause::ControlPartition as usize] += 1;
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.up_busy = meta.chan.up_busy.max(ready_at) + tx;
        let arrive = meta.chan.up_busy + profile.channel_latency;
        self.gqueue.schedule(
            arrive,
            GEv::CtrlArrive {
                src: MsgSource::Switch(sw),
                msg,
            },
        );
    }

    fn maybe_schedule_ctrl(&mut self, now: f64) {
        if !self.ctrl_scheduled && !self.ctrl_queue.is_empty() {
            self.ctrl_scheduled = true;
            let at = self.ctrl_busy_until.max(now);
            self.gqueue.schedule(at, GEv::CtrlStart);
        }
    }

    fn apply_control_output(&mut self, out: &mut ControlOutput, ready_at: f64, now: f64) -> f64 {
        let cpu = out.total_cpu();
        for (app, seconds) in &out.cpu {
            // Recycled outputs keep zeroed name entries across resets; only
            // apps that actually ran this event get attributed.
            if *seconds == 0.0 {
                continue;
            }
            self.app_cpu
                .entry(app.clone())
                .or_insert_with(|| UtilizationTracker::new(self.cpu_bucket))
                .add(now, *seconds);
        }
        for (dpid, msg) in out.messages.drain(..) {
            if let Some(&sw) = self.dpid_index.get(&dpid) {
                self.send_down(sw, msg, ready_at);
            }
        }
        cpu
    }

    /// Runs a control-plane handler with the recycled scratch output, applies
    /// the result and returns the CPU seconds it charged.
    fn with_control_output(
        &mut self,
        ready_at: f64,
        now: f64,
        f: impl FnOnce(&mut dyn ControlPlane, &mut ControlOutput),
    ) -> f64 {
        let mut out = std::mem::take(&mut self.ctrl_scratch);
        f(self.control.as_mut(), &mut out);
        let cpu = self.apply_control_output(&mut out, ready_at, now);
        out.reset();
        self.ctrl_scratch = out;
        cpu
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // The lookahead: the minimum delay of anything the data plane sends
        // across a switch-to-switch link or up a control channel.
        let dp = &self.dp;
        let lookahead = dp
            .switches
            .iter()
            .map(|s| s.profile.channel_latency)
            .chain(dp.devices.iter().map(|d| d.channel_latency))
            .fold(dp.link_latency, f64::min);
        assert!(
            lookahead > 0.0 && lookahead.is_finite(),
            "the lookahead window requires a positive minimum link/channel \
             latency (got {lookahead})"
        );
        self.lookahead = lookahead;
        self.propagate_obs();
        // Handshakes, in switch order.
        let handshakes: Vec<_> = self
            .dp
            .switches
            .iter()
            .map(|s| (s.dpid, s.features()))
            .collect();
        self.with_control_output(0.0, 0.0, |control, out| {
            for (dpid, features) in handshakes {
                control.on_switch_connect(dpid, features, 0.0, out);
            }
        });
        // Workload kickoff and device ticks.
        let dp = &mut self.dp;
        for host in 0..dp.hosts.len() {
            for source in 0..dp.hosts[host].source_count() {
                if let Some(t) = dp.hosts[host].peek_source(source, 0.0) {
                    dp.queue.schedule(t, PEv::HostEmit { host, source });
                }
            }
        }
        for dev in 0..dp.devices.len() {
            let interval = dp.devices[dev].tick_interval;
            dp.queue.schedule(interval, PEv::DeviceTick { dev });
        }
        // Periodic coordinator machinery.
        if let Some(interval) = self.control.tick_interval() {
            self.gqueue.schedule(interval, GEv::ControlTick);
        }
        self.gqueue
            .schedule(self.maintenance_interval, GEv::Maintenance);
        if let Some(interval) = self.obs.as_ref().and_then(|o| o.snapshot_interval) {
            self.gqueue.schedule(interval, GEv::ObsSnapshot);
        }
    }

    /// Events dispatched so far, including batch-coalesced deliveries.
    /// Divide by wall time for an events/second throughput figure.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs the event loop until simulated time `until`: dispatches the
    /// coordinator's next event when it precedes the data plane's, and
    /// otherwise runs the data plane to the end of the window
    /// `w = min(g, p + L)`.
    pub fn run_until(&mut self, until: f64) {
        self.start();
        loop {
            let g = self.gqueue.peek_time().unwrap_or(f64::INFINITY);
            let p = self.dp.queue.peek_time().unwrap_or(f64::INFINITY);
            if g <= p {
                // Covers the both-empty case: g = ∞ > until.
                if g > until {
                    break;
                }
                let (now, ev) = self.gqueue.pop().expect("peeked event");
                if now > self.clock {
                    self.clock = now;
                }
                self.events_processed += 1;
                self.dispatch_global(ev, now);
            } else {
                if p > until {
                    break;
                }
                self.dp.run(g.min(p + self.lookahead), until);
                self.end_window();
            }
        }
        self.flush_obs();
    }

    /// The window's end: fold the data plane's event count in and apply its
    /// staged sends in canonical `(time, source entity, sequence)` order.
    fn end_window(&mut self) {
        let dp = &mut self.dp;
        self.events_processed += dp.events_delta;
        dp.events_delta = 0;
        self.clock = self.clock.max(dp.queue.now());
        dp.outbox.sort_unstable_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.src.cmp(&b.src))
                .then(a.seq.cmp(&b.seq))
        });
        for entry in dp.outbox.drain(..) {
            match entry.msg {
                OutMsg::ToSwitch { sw, port, pkt } => {
                    dp.queue
                        .schedule(entry.at, PEv::DeliverToSwitch { sw, port, pkt });
                }
                OutMsg::Ctrl { src, msg } => {
                    self.gqueue.schedule(entry.at, GEv::CtrlArrive { src, msg });
                }
            }
        }
    }

    fn dispatch_global(&mut self, ev: GEv, now: f64) {
        match ev {
            GEv::CtrlArrive { src, msg } => {
                if self.ctrl_queue.len() >= self.ctrl_profile.queue_limit {
                    self.ctrl_stats.dropped += 1;
                } else {
                    self.ctrl_queue.push_back((src, msg));
                    if let Some(o) = &self.obs {
                        o.ctrl_queue_hist.record(self.ctrl_queue.len() as u64);
                    }
                    self.maybe_schedule_ctrl(now);
                }
            }
            // A controller stall can push `ctrl_busy_until` past an already
            // scheduled start; park the work until the stall ends.
            GEv::CtrlStart if now < self.ctrl_busy_until => {
                self.gqueue.schedule(self.ctrl_busy_until, GEv::CtrlStart);
            }
            GEv::CtrlStart => match self.ctrl_queue.pop_front() {
                Some((src, msg)) => {
                    let app_cpu = match src {
                        MsgSource::Switch(sw) => {
                            let dpid = self.dp.switches[sw].dpid;
                            self.with_control_output(now, now, |control, out| {
                                control.on_message(dpid, msg, now, out)
                            })
                        }
                        MsgSource::Device(d) => {
                            self.with_control_output(now, now, |control, out| {
                                control.on_device_message(DeviceId(d), msg, now, out)
                            })
                        }
                    };
                    let service = self.ctrl_profile.dispatch_cost + app_cpu;
                    if let Some(o) = &self.obs {
                        o.hub.trace_complete("ctrl.msg", "engine", now, service);
                    }
                    self.ctrl_busy_until = now + service;
                    self.ctrl_total_cpu.add(now, service);
                    self.ctrl_stats.processed += 1;
                    self.ctrl_stats.cpu_seconds += service;
                    if self.ctrl_queue.is_empty() {
                        self.ctrl_scheduled = false;
                    } else {
                        self.gqueue.schedule(self.ctrl_busy_until, GEv::CtrlStart);
                    }
                }
                None => {
                    self.ctrl_scheduled = false;
                }
            },
            GEv::ControlTick => {
                let cpu =
                    self.with_control_output(now, now, |control, out| control.on_tick(now, out));
                self.ctrl_total_cpu.add(now, cpu);
                if let Some(interval) = self.control.tick_interval() {
                    self.gqueue.schedule(now + interval, GEv::ControlTick);
                }
            }
            GEv::Maintenance => {
                let mut telemetry = Telemetry {
                    switches: Vec::new(),
                    controller_queue: self.ctrl_queue.len(),
                    controller_utilization: self
                        .ctrl_total_cpu
                        .utilization_at((now - self.maintenance_interval * 0.5).max(0.0)),
                };
                let mut upstream: Vec<(usize, OfMessage)> = Vec::new();
                for (sw, (s, meta)) in self
                    .dp
                    .switches
                    .iter_mut()
                    .zip(&self.dp.sw_meta)
                    .enumerate()
                {
                    if meta.down {
                        continue;
                    }
                    for msg in s.expire(now) {
                        upstream.push((sw, msg));
                    }
                    // A partitioned switch keeps running but the controller
                    // cannot hear from it: no telemetry entry.
                    if meta.partitioned {
                        continue;
                    }
                    let datapath_utilization = meta
                        .cpu
                        .utilization_at((now - self.maintenance_interval * 0.5).max(0.0))
                        .min(1.0);
                    telemetry.switches.push(s.telemetry(datapath_utilization));
                }
                for (sw, msg) in upstream {
                    self.coord_send_up(sw, msg, now);
                }
                self.with_control_output(now, now, |control, out| {
                    control.on_telemetry(&telemetry, now, out)
                });
                self.gqueue
                    .schedule(now + self.maintenance_interval, GEv::Maintenance);
            }
            GEv::ObsSnapshot => {
                self.obs_snapshot(now);
                if let Some(interval) = self.obs.as_ref().and_then(|o| o.snapshot_interval) {
                    self.gqueue.schedule(now + interval, GEv::ObsSnapshot);
                }
            }
            GEv::Fault(fault) => self.apply_fault(fault, now),
            GEv::SwitchRestart { sw } => {
                let meta = &mut self.dp.sw_meta[sw];
                if meta.down {
                    meta.down = false;
                    self.dp.switches[sw].busy_until = now;
                    if !meta.partitioned {
                        self.notify_switch_connect(sw, now);
                    }
                }
            }
            GEv::DeviceRestart { dev } => {
                let entry = &mut self.dp.devices[dev];
                if entry.down {
                    entry.down = false;
                    entry.logic.on_restart(now);
                }
            }
        }
    }

    fn notify_switch_disconnect(&mut self, sw: usize, now: f64) {
        let dpid = self.dp.switches[sw].dpid;
        let cpu = self.with_control_output(now, now, |control, out| {
            control.on_switch_disconnect(dpid, now, out)
        });
        self.ctrl_total_cpu.add(now, cpu);
    }

    fn notify_switch_connect(&mut self, sw: usize, now: f64) {
        let s = &self.dp.switches[sw];
        let (dpid, features) = (s.dpid, s.features());
        let cpu = self.with_control_output(now, now, |control, out| {
            control.on_switch_connect(dpid, features, now, out)
        });
        self.ctrl_total_cpu.add(now, cpu);
    }

    fn apply_fault(&mut self, fault: Fault, now: f64) {
        self.fault_log.push(FaultLogEntry { at: now, fault });
        let switches = self.dp.switches.len();
        match fault {
            Fault::LinkDown { sw, port } if sw.0 < switches => {
                self.dp.link_down.insert((sw.0, port));
            }
            Fault::LinkUp { sw, port } if sw.0 < switches => {
                self.dp.link_down.remove(&(sw.0, port));
            }
            Fault::LinkLoss {
                sw,
                port,
                probability,
            } if sw.0 < switches => {
                let p = probability.clamp(0.0, 1.0);
                if p <= 0.0 {
                    self.dp.link_loss.remove(&(sw.0, port));
                } else {
                    self.dp.link_loss.insert((sw.0, port), p);
                }
            }
            Fault::FlowModLoss { sw, probability } if sw.0 < switches => {
                self.dp.sw_meta[sw.0].flow_mod_loss = probability.clamp(0.0, 1.0);
            }
            Fault::ControlPartition { sw } if sw.0 < switches => {
                let meta = &mut self.dp.sw_meta[sw.0];
                if !meta.partitioned {
                    meta.partitioned = true;
                    if !meta.down {
                        self.notify_switch_disconnect(sw.0, now);
                    }
                }
            }
            Fault::ControlHeal { sw } if sw.0 < switches => {
                let meta = &mut self.dp.sw_meta[sw.0];
                if meta.partitioned {
                    meta.partitioned = false;
                    if !meta.down {
                        // Re-handshake, mirroring a live TCP redial.
                        self.notify_switch_connect(sw.0, now);
                    }
                }
            }
            Fault::SwitchCrash { sw, restart_after } if sw.0 < switches => {
                let meta = &mut self.dp.sw_meta[sw.0];
                if !meta.down {
                    let disconnect = !meta.partitioned;
                    meta.scheduled = false;
                    meta.down = true;
                    self.dp.switches[sw.0].crash();
                    if disconnect {
                        self.notify_switch_disconnect(sw.0, now);
                    }
                    if restart_after.is_finite() {
                        self.gqueue
                            .schedule(now + restart_after, GEv::SwitchRestart { sw: sw.0 });
                    }
                }
            }
            Fault::DeviceCrash { dev, restart_after } if dev.0 < self.dp.devices.len() => {
                let entry = &mut self.dp.devices[dev.0];
                if !entry.down {
                    entry.down = true;
                    entry.logic.on_crash();
                    if restart_after.is_finite() {
                        self.gqueue
                            .schedule(now + restart_after, GEv::DeviceRestart { dev: dev.0 });
                    }
                }
            }
            Fault::ControllerStall { duration } => {
                self.ctrl_busy_until = self.ctrl_busy_until.max(now) + duration.max(0.0);
            }
            // A fault naming a switch or device that does not exist is
            // logged and otherwise ignored.
            _ => {}
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("switches", &self.dp.switches.len())
            .field("hosts", &self.dp.hosts.len())
            .field("devices", &self.dp.devices.len())
            .field("now", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Arrivals, BulkSender, NewFlowProbe, UdpFlood};
    use crate::packet::FlowTag;
    use ofproto::actions::Action;
    use ofproto::flow_match::OfMatch;
    use ofproto::messages::{FeaturesReply, PacketIn};
    use ofproto::types::PortNo;

    fn mac(n: u64) -> MacAddr {
        MacAddr::from_u64(n)
    }

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// A minimal learning-hub control plane used by engine tests: floods
    /// every packet_in via packet_out, releasing the buffer.
    struct HubControl;

    impl ControlPlane for HubControl {
        fn on_switch_connect(
            &mut self,
            _dpid: DatapathId,
            _features: FeaturesReply,
            _now: f64,
            _out: &mut ControlOutput,
        ) {
        }

        fn on_message(
            &mut self,
            dpid: DatapathId,
            msg: OfMessage,
            _now: f64,
            out: &mut ControlOutput,
        ) {
            if let OfBody::PacketIn(PacketIn {
                buffer_id, in_port, ..
            }) = msg.body
            {
                out.charge("hub", 100e-6);
                out.send(
                    dpid,
                    OfMessage::new(
                        msg.xid,
                        OfBody::PacketOut(ofproto::messages::PacketOut {
                            buffer_id,
                            in_port,
                            actions: vec![Action::Output(PortNo::Flood)],
                            data: None,
                        }),
                    ),
                );
            }
        }
    }

    fn two_host_sim(control: Box<dyn ControlPlane>) -> (Simulation, SwitchId, HostId, HostId) {
        let mut sim = Simulation::new(7);
        let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3]);
        let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
        let h2 = sim.add_host(sw, 2, mac(0xb), ip(2));
        sim.set_control_plane(control);
        (sim, sw, h1, h2)
    }

    #[test]
    fn preinstalled_rule_forwards_between_hosts() {
        let (mut sim, sw, h1, h2) = two_host_sim(Box::new(crate::iface::NullControlPlane));
        sim.switch_mut(sw)
            .add_rule(
                OfMatch::any().with_dl_dst(mac(0xb)),
                vec![Action::Output(PortNo::Physical(2))],
                10,
                0.0,
            )
            .unwrap();
        sim.host_mut(h1).add_source(Box::new(BulkSender::new(
            mac(0xa),
            ip(1),
            mac(0xb),
            ip(2),
            1,
            2,
            1,
            1500,
            0.0,
        )));
        sim.run_until(1.0);
        // Only the forward rule exists: the priming ack dies at the null
        // controller, so the window never opens and only single priming
        // packets arrive — the initial one plus one RTO retransmission per
        // BULK_RTO of ack silence, far below line rate.
        let received = sim.host(h2).received_packets;
        let retries = 1 + (1.0 / crate::host::BULK_RTO) as u64;
        assert!(
            received >= 1 && received <= retries,
            "priming trickle only: {received}"
        );
        assert!(sim.host(h2).meter.total_bytes() > 0);
        // With the reverse rule installed the closed loop cycles at line rate.
        let (mut sim, sw, h1, h2) = two_host_sim(Box::new(crate::iface::NullControlPlane));
        sim.switch_mut(sw)
            .add_rule(
                OfMatch::any().with_dl_dst(mac(0xb)),
                vec![Action::Output(PortNo::Physical(2))],
                10,
                0.0,
            )
            .unwrap();
        sim.switch_mut(sw)
            .add_rule(
                OfMatch::any().with_dl_dst(mac(0xa)),
                vec![Action::Output(PortNo::Physical(1))],
                10,
                0.0,
            )
            .unwrap();
        sim.host_mut(h1).add_source(Box::new(BulkSender::new(
            mac(0xa),
            ip(1),
            mac(0xb),
            ip(2),
            1,
            4,
            10,
            1500,
            0.0,
        )));
        sim.host_mut(h2).meter.watch(0.5, 2.0);
        sim.run_until(2.0);
        let bps = sim.host(h2).meter.bps_in(0.5, 2.0);
        assert!(bps > 1e8, "achieved {bps} bps");
    }

    #[test]
    fn hub_controller_installs_path_via_packet_out() {
        let (mut sim, _sw, h1, h2) = two_host_sim(Box::new(HubControl));
        let probe = NewFlowProbe::new(mac(0xa), ip(1), mac(0xb), ip(2), 1, 0.1);
        sim.host_mut(h1).add_source(Box::new(probe));
        let recorder = Arrivals::all();
        let arrivals = recorder.log();
        sim.host_mut(h2).add_source(Box::new(recorder));
        sim.run_until(2.0);
        // The SYN was flooded by the hub and reached h2.
        assert!(arrivals
            .get()
            .iter()
            .any(|(p, _)| matches!(p.tag, FlowTag::NewFlow { id: 1 })));
        assert!(sim.ctrl_stats.processed >= 1);
    }

    #[test]
    fn miss_latency_includes_controller_roundtrip() {
        let (mut sim, _sw, h1, h2) = two_host_sim(Box::new(HubControl));
        sim.host_mut(h1).add_source(Box::new(NewFlowProbe::new(
            mac(0xa),
            ip(1),
            mac(0xb),
            ip(2),
            1,
            0.5,
        )));
        let recorder = Arrivals::new(|p| matches!(p.tag, FlowTag::NewFlow { id: 1 }));
        let arrivals = recorder.log();
        sim.host_mut(h2).add_source(Box::new(recorder));
        sim.run_until(2.0);
        let delivery = arrivals
            .get()
            .first()
            .map(|(_, t)| *t)
            .expect("probe delivered");
        let delay = delivery - 0.5;
        assert!(
            delay > 1e-3,
            "delay {delay} must include channel+controller"
        );
        assert!(delay < 0.5, "delay {delay} unreasonably large");
    }

    #[test]
    fn flood_without_defense_starves_bulk_flow() {
        // The §II experiment: attack at 500 pps kills a software switch.
        let run = |attack_pps: f64| -> f64 {
            let (mut sim, sw, h1, h2) = two_host_sim(Box::new(crate::iface::NullControlPlane));
            sim.switch_mut(sw)
                .add_rule(
                    OfMatch::any().with_dl_dst(mac(0xb)),
                    vec![Action::Output(PortNo::Physical(2))],
                    10,
                    0.0,
                )
                .unwrap();
            sim.switch_mut(sw)
                .add_rule(
                    OfMatch::any().with_dl_dst(mac(0xa)),
                    vec![Action::Output(PortNo::Physical(1))],
                    10,
                    0.0,
                )
                .unwrap();
            let h3 = sim.add_host(sw, 3, mac(0xc), ip(3));
            sim.host_mut(h1).add_source(Box::new(BulkSender::new(
                mac(0xa),
                ip(1),
                mac(0xb),
                ip(2),
                1,
                4,
                10,
                1500,
                0.0,
            )));
            sim.host_mut(h3).add_source(Box::new(UdpFlood::new(
                mac(0xc),
                attack_pps,
                0.0,
                3.0,
                64,
            )));
            sim.host_mut(h2).meter.watch(1.0, 3.0);
            sim.run_until(3.0);
            sim.host(h2).meter.bps_in(1.0, 3.0)
        };
        let clean = run(0.0);
        let attacked = run(500.0);
        assert!(
            attacked < clean * 0.2,
            "500 pps must collapse bandwidth: clean={clean:e} attacked={attacked:e}"
        );
    }

    #[test]
    fn telemetry_reaches_control_plane() {
        use parking_lot_counter::Counter;

        mod parking_lot_counter {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Arc;

            #[derive(Clone, Default)]
            pub struct Counter(Arc<AtomicUsize>);

            impl Counter {
                pub fn bump(&self) {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }

                pub fn get(&self) -> usize {
                    self.0.load(Ordering::SeqCst)
                }
            }
        }

        struct TelemetrySpy(Counter);

        impl ControlPlane for TelemetrySpy {
            fn on_switch_connect(
                &mut self,
                _dpid: DatapathId,
                _features: FeaturesReply,
                _now: f64,
                _out: &mut ControlOutput,
            ) {
            }

            fn on_message(
                &mut self,
                _dpid: DatapathId,
                _msg: OfMessage,
                _now: f64,
                _out: &mut ControlOutput,
            ) {
            }

            fn on_telemetry(&mut self, telemetry: &Telemetry, _now: f64, _out: &mut ControlOutput) {
                assert_eq!(telemetry.switches.len(), 1);
                self.0.bump();
            }
        }

        let counter = Counter::default();
        let (mut sim, _, _, _) = two_host_sim(Box::new(TelemetrySpy(counter.clone())));
        sim.run_until(1.0);
        assert!(counter.get() >= 15, "telemetry ticks: {}", counter.get());
    }

    #[test]
    fn app_cpu_attribution_recorded() {
        let (mut sim, _sw, h1, _h2) = two_host_sim(Box::new(HubControl));
        sim.host_mut(h1)
            .add_source(Box::new(UdpFlood::new(mac(0xa), 50.0, 0.0, 1.0, 64)));
        sim.run_until(1.5);
        assert_eq!(sim.app_names(), vec!["hub".to_owned()]);
        let series = sim.app_utilization("hub", 1.5);
        assert!(!series.is_empty());
        let total: f64 = series.iter().map(|s| s.v).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn device_receives_redirected_packets() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct CountingDevice(Arc<AtomicU64>);

        impl DataPlaneDevice for CountingDevice {
            fn on_packet(&mut self, _pkt: Packet, _now: f64, _out: &mut DeviceOutput) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let mut sim = Simulation::new(3);
        let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 99]);
        let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
        let count = Arc::new(AtomicU64::new(0));
        sim.attach_device(
            sw,
            99,
            Box::new(CountingDevice(count.clone())),
            12.5e6,
            1e-3,
            1e-3,
        );
        // Migration-style rule: everything from port 1 goes to the device.
        sim.switch_mut(sw)
            .add_rule(
                OfMatch::any().with_in_port(1),
                vec![Action::SetNwTos(1), Action::Output(PortNo::Physical(99))],
                0,
                0.0,
            )
            .unwrap();
        sim.host_mut(h1)
            .add_source(Box::new(UdpFlood::new(mac(0xa), 100.0, 0.0, 1.0, 64)));
        sim.run_until(1.5);
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    mod fault_tests {
        use super::*;
        use crate::faults::{Fault, FaultScript};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Control plane that tallies (re-)handshakes and disconnect
        /// notifications.
        struct ConnectSpy {
            connects: Arc<AtomicU64>,
            disconnects: Arc<AtomicU64>,
        }

        impl ControlPlane for ConnectSpy {
            fn on_switch_connect(
                &mut self,
                _dpid: DatapathId,
                _features: ofproto::messages::FeaturesReply,
                _now: f64,
                _out: &mut ControlOutput,
            ) {
                self.connects.fetch_add(1, Ordering::SeqCst);
            }

            fn on_switch_disconnect(
                &mut self,
                _dpid: DatapathId,
                _now: f64,
                _out: &mut ControlOutput,
            ) {
                self.disconnects.fetch_add(1, Ordering::SeqCst);
            }

            fn on_message(
                &mut self,
                _dpid: DatapathId,
                _msg: OfMessage,
                _now: f64,
                _out: &mut ControlOutput,
            ) {
            }
        }

        fn forwarding_sim(seed: u64) -> (Simulation, SwitchId, HostId, HostId) {
            let (mut sim, sw, h1, h2) = {
                let mut sim = Simulation::new(seed);
                let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3]);
                let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
                let h2 = sim.add_host(sw, 2, mac(0xb), ip(2));
                sim.set_control_plane(Box::new(crate::iface::NullControlPlane));
                (sim, sw, h1, h2)
            };
            sim.switch_mut(sw)
                .add_rule(
                    OfMatch::any().with_in_port(1),
                    vec![Action::Output(PortNo::Physical(2))],
                    10,
                    0.0,
                )
                .unwrap();
            sim.host_mut(h1)
                .add_source(Box::new(UdpFlood::new(mac(0xa), 100.0, 0.0, 1.0, 64)));
            (sim, sw, h1, h2)
        }

        #[test]
        fn link_down_blocks_until_link_up() {
            let (mut sim, sw, _h1, h2) = forwarding_sim(7);
            let script = FaultScript::new()
                .at(0.3, Fault::LinkDown { sw, port: 2 })
                .at(0.7, Fault::LinkUp { sw, port: 2 });
            sim.load_fault_script(&script);
            sim.run_until(1.5);
            let received = sim.host(h2).received_packets;
            assert!(received > 0, "traffic before/after the outage");
            assert!(received < 100, "outage dropped packets: {received}");
            assert!(sim.drops(DropCause::LinkDown) > 0);
            assert_eq!(sim.fault_log().len(), 2);
            assert_eq!(sim.fault_log()[0].at, 0.3);
        }

        #[test]
        fn link_loss_drops_deterministically() {
            let run = || {
                let (mut sim, sw, _h1, h2) = forwarding_sim(11);
                sim.schedule_fault(
                    0.0,
                    Fault::LinkLoss {
                        sw,
                        port: 2,
                        probability: 0.5,
                    },
                );
                sim.run_until(1.5);
                (
                    sim.host(h2).received_packets,
                    sim.drops(DropCause::LinkLoss),
                )
            };
            let (recv_a, lost_a) = run();
            let (recv_b, lost_b) = run();
            assert_eq!((recv_a, lost_a), (recv_b, lost_b), "same seed, same losses");
            assert!(
                lost_a > 0 && recv_a > 0,
                "loss is partial: {recv_a}/{lost_a}"
            );
        }

        #[test]
        fn controller_stall_defers_packet_in_handling() {
            let run_with_stall = |stall: bool| {
                let (mut sim, _sw, h1, h2) = two_host_sim(Box::new(HubControl));
                sim.host_mut(h1)
                    .add_source(Box::new(UdpFlood::new(mac(0xa), 50.0, 0.0, 0.2, 64)));
                if stall {
                    sim.schedule_fault(0.05, Fault::ControllerStall { duration: 0.5 });
                }
                sim.run_until(0.4);
                let early = sim.host(h2).received_packets;
                sim.run_until(1.5);
                (early, sim.host(h2).received_packets)
            };
            let (early_clean, total_clean) = run_with_stall(false);
            let (early_stalled, total_stalled) = run_with_stall(true);
            assert!(
                early_stalled < early_clean,
                "stall defers delivery: {early_stalled} vs {early_clean}"
            );
            assert_eq!(total_stalled, total_clean, "stall delays, never drops");
        }

        #[test]
        fn switch_crash_wipes_table_and_rehandshakes() {
            let connects = Arc::new(AtomicU64::new(0));
            let disconnects = Arc::new(AtomicU64::new(0));
            let (mut sim, sw, h1, _h2) = {
                let mut sim = Simulation::new(5);
                let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3]);
                let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
                let h2 = sim.add_host(sw, 2, mac(0xb), ip(2));
                sim.set_control_plane(Box::new(ConnectSpy {
                    connects: connects.clone(),
                    disconnects: disconnects.clone(),
                }));
                (sim, sw, h1, h2)
            };
            sim.switch_mut(sw)
                .add_rule(
                    OfMatch::any().with_in_port(1),
                    vec![Action::Output(PortNo::Physical(2))],
                    10,
                    0.0,
                )
                .unwrap();
            sim.host_mut(h1)
                .add_source(Box::new(UdpFlood::new(mac(0xa), 100.0, 0.0, 1.0, 64)));
            sim.schedule_fault(
                0.5,
                Fault::SwitchCrash {
                    sw,
                    restart_after: 0.1,
                },
            );
            sim.run_until(1.5);
            assert_eq!(
                sim.switch(sw).table.len(),
                0,
                "crash wiped the preinstalled rule"
            );
            assert_eq!(connects.load(Ordering::SeqCst), 2, "initial + post-restart");
            assert_eq!(disconnects.load(Ordering::SeqCst), 1);
            assert!(sim.drops(DropCause::SwitchDown) > 0);
        }

        #[test]
        fn control_partition_severs_and_heal_rehandshakes() {
            let connects = Arc::new(AtomicU64::new(0));
            let disconnects = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new(5);
            let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3]);
            let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
            sim.add_host(sw, 2, mac(0xb), ip(2));
            sim.set_control_plane(Box::new(ConnectSpy {
                connects: connects.clone(),
                disconnects: disconnects.clone(),
            }));
            sim.host_mut(h1)
                .add_source(Box::new(UdpFlood::new(mac(0xa), 100.0, 0.0, 1.0, 64)));
            sim.schedule_fault(0.3, Fault::ControlPartition { sw });
            sim.schedule_fault(0.6, Fault::ControlHeal { sw });
            sim.run_until(1.5);
            assert_eq!(connects.load(Ordering::SeqCst), 2);
            assert_eq!(disconnects.load(Ordering::SeqCst), 1);
            assert!(
                sim.drops(DropCause::ControlPartition) > 0,
                "packet_ins were dropped while partitioned"
            );
        }

        #[test]
        fn device_crash_wipes_and_restart_resumes() {
            struct CrashableDevice {
                packets: Arc<AtomicU64>,
                restarts: Arc<AtomicU64>,
            }

            impl DataPlaneDevice for CrashableDevice {
                fn on_packet(&mut self, _pkt: Packet, _now: f64, _out: &mut DeviceOutput) {
                    self.packets.fetch_add(1, Ordering::SeqCst);
                }

                fn on_restart(&mut self, _now: f64) {
                    self.restarts.fetch_add(1, Ordering::SeqCst);
                }
            }

            let packets = Arc::new(AtomicU64::new(0));
            let restarts = Arc::new(AtomicU64::new(0));
            let mut sim = Simulation::new(3);
            let sw = sim.add_switch(SwitchProfile::software(), vec![1, 99]);
            let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
            sim.attach_device(
                sw,
                99,
                Box::new(CrashableDevice {
                    packets: packets.clone(),
                    restarts: restarts.clone(),
                }),
                12.5e6,
                1e-3,
                1e-3,
            );
            sim.switch_mut(sw)
                .add_rule(
                    OfMatch::any().with_in_port(1),
                    vec![Action::Output(PortNo::Physical(99))],
                    0,
                    0.0,
                )
                .unwrap();
            sim.host_mut(h1)
                .add_source(Box::new(UdpFlood::new(mac(0xa), 100.0, 0.0, 1.0, 64)));
            sim.schedule_fault(
                0.4,
                Fault::DeviceCrash {
                    dev: DeviceId(0),
                    restart_after: 0.3,
                },
            );
            sim.run_until(1.5);
            let delivered = packets.load(Ordering::SeqCst);
            assert!(
                delivered > 0 && delivered < 100,
                "outage window: {delivered}"
            );
            assert_eq!(restarts.load(Ordering::SeqCst), 1);
            assert!(sim.drops(DropCause::DeviceDown) > 0);
        }
    }

    /// A three-switch chain: the one workload that exercises every
    /// engine path at once.
    mod chain {
        use super::*;
        use crate::host::{ArrivalLog, CbrSource};

        /// A three-switch chain: hosts on both edge switches, cross-switch
        /// CBR streams in both directions, a spoofed flood, and a lossy
        /// inter-switch link — so a run exercises forwarding, misses,
        /// controller traffic, switch-to-switch hops and RNG draws. Every
        /// host logs every delivery.
        fn chain_sim(seed: u64) -> (Simulation, Vec<(HostId, ArrivalLog)>) {
            let mut sim = Simulation::new(seed);
            let profile = SwitchProfile::software();
            let s0 = sim.add_switch(profile, vec![1, 2, 3]);
            let s1 = sim.add_switch(profile, vec![1, 2]);
            let s2 = sim.add_switch(profile, vec![1, 2, 3]);
            sim.connect_switches(s0, 3, s1, 1);
            sim.connect_switches(s1, 2, s2, 3);
            let h0 = sim.add_host(s0, 1, mac(1), ip(1));
            let h1 = sim.add_host(s0, 2, mac(2), ip(2));
            let h2 = sim.add_host(s2, 1, mac(3), ip(3));
            let h3 = sim.add_host(s2, 2, mac(4), ip(4));
            sim.set_control_plane(Box::new(HubControl));
            sim.host_mut(h0).add_source(Box::new(CbrSource::new(
                mac(1),
                ip(1),
                mac(3),
                ip(3),
                400.0,
                0.0,
                0.8,
                400,
            )));
            sim.host_mut(h2).add_source(Box::new(CbrSource::new(
                mac(3),
                ip(3),
                mac(1),
                ip(1),
                300.0,
                0.05,
                0.9,
                200,
            )));
            sim.host_mut(h3)
                .add_source(Box::new(UdpFlood::new(mac(4), 500.0, 0.2, 0.7, 120)));
            sim.schedule_fault(
                0.3,
                Fault::LinkLoss {
                    sw: s1,
                    port: 2,
                    probability: 0.2,
                },
            );
            let hosts = [h0, h1, h2, h3].map(|h| {
                let recorder = Arrivals::all();
                let log = recorder.log();
                sim.host_mut(h).add_source(Box::new(recorder));
                (h, log)
            });
            (sim, hosts.to_vec())
        }

        /// `(events, controller messages processed, dropped, digest)`; the
        /// digest folds every host's receive count and delivery times (bit
        /// patterns), the nonzero drop counters and the fault log's length.
        type Fingerprint = (u64, u64, u64, u64);

        fn fingerprint(sim: &Simulation, hosts: &[(HostId, ArrivalLog)]) -> Fingerprint {
            let fold = |h: u64, x: u64| rand::splitmix64(h ^ x);
            let mut digest = 0;
            for (h, log) in hosts {
                digest = fold(digest, sim.host(*h).received_packets);
                for (_, t) in log.get() {
                    digest = fold(digest, t.to_bits());
                }
            }
            for cause in DropCause::ALL {
                let v = sim.drops(cause);
                if v > 0 {
                    let name = cause.name();
                    digest = name.bytes().fold(digest, |h, b| fold(h, u64::from(b)));
                    digest = fold(digest, v);
                }
            }
            digest = fold(digest, sim.fault_log().len() as u64);
            (
                sim.events_processed(),
                sim.ctrl_stats.processed,
                sim.ctrl_stats.dropped,
                digest,
            )
        }

        /// Fingerprints recorded on the per-switch parallel engine this one
        /// replaced (at one worker thread and at eight alike): the same-time
        /// ordering its lookahead window and canonical outbox merge define
        /// is the one every checked-in artifact encodes.
        const PARENT_ENGINE: [(u64, Fingerprint); 3] = [
            (7, (6090, 783, 0, 14933956832554936980)),
            (11, (6091, 783, 0, 187322770154552852)),
            (3, (6079, 783, 0, 4111484958086386128)),
        ];

        #[test]
        fn runs_match_the_parent_engine() {
            let measured: Vec<(u64, Fingerprint)> = PARENT_ENGINE
                .iter()
                .map(|&(seed, _)| {
                    let (mut sim, hosts) = chain_sim(seed);
                    sim.run_until(1.0);
                    assert!(sim.events_processed() > 500, "traffic must actually flow");
                    (seed, fingerprint(&sim, &hosts))
                })
                .collect();
            assert_eq!(measured, PARENT_ENGINE);
        }

        #[test]
        fn traffic_crosses_switch_links() {
            let (mut sim, hosts) = chain_sim(3);
            sim.run_until(1.0);
            assert!(
                sim.host(hosts[2].0).received_packets > 0,
                "h0 -> h2 crosses two switch-to-switch links"
            );
            assert!(
                sim.host(hosts[0].0).received_packets > 0,
                "and the reverse direction"
            );
            assert!(
                sim.drops(DropCause::LinkLoss) > 0,
                "the lossy inter-switch link sampled drops"
            );
        }

        #[test]
        fn mid_chain_crash_matches_the_parent_engine() {
            let (mut sim, hosts) = chain_sim(5);
            sim.schedule_fault(
                0.35,
                Fault::SwitchCrash {
                    sw: SwitchId(1),
                    restart_after: 0.2,
                },
            );
            sim.run_until(1.0);
            assert!(
                sim.drops(DropCause::SwitchDown) > 0,
                "a mid-chain crash drops in-flight packets"
            );
            assert_eq!(sim.fault_log().len(), 2, "loss fault + crash fault");
            assert_eq!(
                fingerprint(&sim, &hosts),
                (5831, 730, 0, 8470018379260178343)
            );
        }

        #[test]
        fn segmented_runs_match_the_parent_engine() {
            // `run_until` may stop inside a lookahead window; the rest of
            // that window runs in the next call, merged at its own end.
            let (mut sim, hosts) = chain_sim(13);
            for until in [0.3, 0.65, 1.0] {
                sim.run_until(until);
            }
            assert_eq!(
                fingerprint(&sim, &hosts),
                (6094, 783, 0, 6611003333496393560)
            );
        }
    }
}
