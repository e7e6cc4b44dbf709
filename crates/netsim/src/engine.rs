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
//! ## Parallel execution
//!
//! The engine is a conservative parallel discrete-event simulator (PDES).
//! Switches — each with its attached hosts and devices — are grouped into
//! **partitions** by a [`Partitioner`]; every partition owns a private event
//! queue. Events that cross a partition boundary (switch-to-switch
//! forwarding, control-channel traffic) always incur at least the minimum
//! link/channel latency, which gives a nonzero **lookahead** `L`: a
//! partition whose next event is at time `p` cannot affect any other
//! partition before `p + L`, so all partitions with events inside the window
//! `[p, min(g, p + L))` (where `g` is the next global/controller event) can
//! run concurrently without null messages.
//!
//! Determinism is bit-exact and independent of the thread count *and* of the
//! partition layout:
//!
//! * cross-partition sends are staged in per-partition outboxes and merged
//!   at the window barrier in a canonical `(time, source entity, sequence)`
//!   order before being applied;
//! * every host and switch owns its own seeded RNG stream (derived from the
//!   simulation seed and the entity's global id), so loss sampling and
//!   flood emission never depend on event interleaving across entities;
//! * `packet_in` transaction ids come from a per-switch counter.
//!
//! Set the worker count with [`Simulation::set_threads`] or the
//! `FG_SIM_THREADS` environment variable (read at construction; default 1).
//! Any value yields the same simulation, only wall-clock differs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::mpsc;
use std::sync::Arc;

use ofproto::messages::{OfBody, OfMessage};
use ofproto::types::{DatapathId, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::{Fault, FaultLogEntry, FaultScript};
use crate::host::{Host, HostId};
use crate::iface::{
    ControlOutput, ControlPlane, DataPlaneDevice, DeviceId, DeviceOutput, Telemetry,
};
use crate::metrics::{Recorder, UtilizationTracker};
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

/// How switches (with their attached hosts and devices) are grouped into
/// parallel partitions. The grouping affects only which events may be
/// processed concurrently — never the simulation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// One partition per switch (the default): maximum parallelism.
    PerSwitch,
    /// Switches dealt round-robin over `n` partitions: bounds per-round
    /// bookkeeping on huge topologies when only a few worker threads exist.
    Blocks(usize),
    /// Everything in one partition: the serial reference layout.
    Single,
}

impl Partitioner {
    fn partition_of(self, sw: usize) -> usize {
        match self {
            Partitioner::PerSwitch => sw,
            Partitioner::Blocks(n) => sw % n.max(1),
            Partitioner::Single => 0,
        }
    }
}

/// Where an entity lives: partition index + local index within it.
#[derive(Debug, Clone, Copy)]
struct Loc {
    part: u32,
    idx: u32,
}

impl Loc {
    fn part(self) -> usize {
        self.part as usize
    }
    fn idx(self) -> usize {
        self.idx as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum MsgSource {
    /// Global switch id.
    Switch(usize),
    /// Global device id.
    Device(usize),
}

/// Partition-local events. All entity indices are *local* to the partition.
enum PEv {
    HostEmit { host: usize, source: usize },
    DeliverToSwitch { sw: usize, port: u16, pkt: Packet },
    SwitchStart { sw: usize },
    DeliverToHost { host: usize, pkt: Packet },
    DeliverToDevice { dev: usize, pkt: Packet },
    SwitchMsgArrive { sw: usize, msg: OfMessage },
    DeviceTick { dev: usize },
}

/// Coordinator (global) events. Entity indices are *global* ids.
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

/// Messages staged in a partition outbox during a parallel window, applied
/// at the barrier in canonical order.
enum OutMsg {
    /// A packet crossing a switch-to-switch link; `sw` is the *global*
    /// destination switch id.
    ToSwitch { sw: usize, port: u16, pkt: Packet },
    /// An upstream control-channel message for the coordinator.
    Ctrl { src: MsgSource, msg: OfMessage },
}

/// Tag added to device source ids so they sort after all switch ids in the
/// canonical merge without colliding.
const DEV_SRC: u64 = 1 << 32;

struct OutboxEntry {
    at: f64,
    /// Canonical tiebreak, level 1: the sending entity (switch global id, or
    /// `DEV_SRC + device global id`).
    src: u64,
    /// Canonical tiebreak, level 2: the sender's own emission counter.
    seq: u64,
    msg: OutMsg,
}

// Partition-side drop counters, merged into the recorder at each barrier.
// Index order is the canonical merge order.
const DROP_NAMES: [&str; 7] = [
    "link_down_drops",
    "link_loss_drops",
    "switch_down_drops",
    "unconnected_drops",
    "switch_ingress_drops",
    "device_down_drops",
    "control_partition_drops",
];
const D_LINK_DOWN: usize = 0;
const D_LINK_LOSS: usize = 1;
const D_SWITCH_DOWN: usize = 2;
const D_UNCONNECTED: usize = 3;
const D_SWITCH_INGRESS: usize = 4;
const D_DEVICE_DOWN: usize = 5;
const D_CONTROL_PARTITION: usize = 6;

/// Deterministic per-entity RNG seed: splitmix64 over the simulation seed,
/// the entity kind and its global id. Each host and switch draws from its
/// own stream, so sampling depends only on the entity's own event sequence —
/// never on how entities are interleaved across partitions or threads.
fn entity_seed(seed: u64, kind: u64, gid: u64) -> u64 {
    rand::splitmix64(seed ^ (kind << 56) ^ gid.wrapping_mul(rand::GOLDEN_GAMMA))
}

const KIND_SWITCH: u64 = 0;
const KIND_HOST: u64 = 1;

/// Applies link impairments for the link keyed `(global switch id, port)`:
/// returns `false` when the packet is dropped (link down, or lost by a draw
/// from the owning switch's RNG).
fn link_passes(
    link_down: &HashSet<(usize, u16)>,
    link_loss: &HashMap<(usize, u16), f64>,
    drops: &mut [u64; DROP_NAMES.len()],
    rng: &mut StdRng,
    key: (usize, u16),
    batch: u32,
) -> bool {
    if link_down.contains(&key) {
        drops[D_LINK_DOWN] += u64::from(batch);
        return false;
    }
    if let Some(&p) = link_loss.get(&key) {
        if rng.gen_bool(p) {
            drops[D_LINK_LOSS] += u64::from(batch);
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
    /// Events popped from any queue, counted on the hot path. Partitions
    /// increment clones of this handle (it is an atomic shared counter).
    events: obs::Counter,
    events_per_sec: obs::Gauge,
    queue_depth: obs::Gauge,
    ctrl_queue_depth: obs::Gauge,
    pool_occupancy: obs::Gauge,
    ctrl_queue_hist: obs::Histogram,
    switch_batch_hist: obs::Histogram,
    snapshot_interval: Option<f64>,
    /// Per-switch gauges, registered lazily (switches may be added after
    /// attach). Indexed by global switch id.
    switch_buffer: Vec<obs::Gauge>,
    switch_miss_rate: Vec<obs::Gauge>,
    switch_spoofed_tags: Vec<obs::Gauge>,
    last_misses: Vec<u64>,
    last_events: u64,
    last_at: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ChannelState {
    up_busy: f64,
    down_busy: f64,
}

/// Static topology shared (read-only) with worker threads during a run.
/// Port tables are indexed by *global* switch id and hold *global* entity
/// ids; the `*_loc` tables map global ids to partition-local slots.
#[derive(Default, Clone)]
struct Topo {
    ports: Vec<PortTable>,
    host_attach: Vec<(SwitchId, u16)>,
    sw_loc: Vec<Loc>,
    host_loc: Vec<Loc>,
    dev_loc: Vec<Loc>,
    link_latency: f64,
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

impl Topo {
    /// What `(sw, port)` is wired to; `None` if there is no such port.
    fn endpoint(&self, sw: usize, port: u16) -> Option<Endpoint> {
        self.ports.get(sw)?.get(port)
    }
}

/// Per-switch mutable state that lives beside the `Switch` itself.
struct SwMeta {
    gid: usize,
    scheduled: bool,
    down: bool,
    partitioned: bool,
    chan: ChannelState,
    cpu: UtilizationTracker,
    out_seq: u64,
    rng: StdRng,
}

struct HostMeta {
    gid: usize,
    rng: StdRng,
}

struct DeviceEntry {
    gid: usize,
    logic: Box<dyn DataPlaneDevice>,
    channel_bandwidth: f64,
    channel_latency: f64,
    chan: ChannelState,
    tick_interval: f64,
    down: bool,
    out_seq: u64,
}

/// One shard of the simulation: a group of switches plus their attached
/// hosts and devices, with a private event queue. A partition runs
/// independently inside a lookahead window; everything that leaves it is
/// staged in `outbox` and merged canonically at the barrier.
struct Partition {
    queue: EventQueue<PEv>,
    switches: Vec<Switch>,
    sw_meta: Vec<SwMeta>,
    hosts: Vec<Host>,
    host_meta: Vec<HostMeta>,
    devices: Vec<DeviceEntry>,
    /// Link impairments for links owned by this partition's switches,
    /// keyed by *global* `(switch, port)`.
    link_down: HashSet<(usize, u16)>,
    link_loss: HashMap<(usize, u16), f64>,
    outbox: Vec<OutboxEntry>,
    drops: [u64; DROP_NAMES.len()],
    events_delta: u64,
    emit_scratch: Vec<Packet>,
    switch_batch: Vec<(u16, Packet)>,
    device_batch: Vec<Packet>,
    device_scratch: DeviceOutput,
    obs_events: Option<obs::Counter>,
    obs_batch_hist: Option<obs::Histogram>,
}

impl Partition {
    fn new() -> Partition {
        Partition {
            queue: EventQueue::new(),
            switches: Vec::new(),
            sw_meta: Vec::new(),
            hosts: Vec::new(),
            host_meta: Vec::new(),
            devices: Vec::new(),
            link_down: HashSet::new(),
            link_loss: HashMap::new(),
            outbox: Vec::new(),
            drops: [0; DROP_NAMES.len()],
            events_delta: 0,
            emit_scratch: Vec::new(),
            switch_batch: Vec::new(),
            device_batch: Vec::new(),
            device_scratch: DeviceOutput::new(),
            obs_events: None,
            obs_batch_hist: None,
        }
    }

    fn note_event(&mut self) {
        self.events_delta += 1;
        if let Some(c) = &self.obs_events {
            c.inc();
        }
    }

    /// Processes every queued event strictly before window end `w` (and not
    /// past `until`). Called from worker threads; everything that crosses
    /// the partition boundary lands in `self.outbox`.
    fn run(&mut self, topo: &Topo, w: f64, until: f64) {
        while let Some((now, ev)) = self.queue.pop_if(|t, _| t < w && t <= until) {
            self.note_event();
            self.dispatch(topo, ev, now, until);
        }
    }

    fn dispatch(&mut self, topo: &Topo, ev: PEv, now: f64, until: f64) {
        match ev {
            PEv::HostEmit { host, source } => {
                let mut packets = std::mem::take(&mut self.emit_scratch);
                {
                    let meta = &mut self.host_meta[host];
                    self.hosts[host].emit_source_into(source, now, &mut meta.rng, &mut packets);
                }
                for pkt in packets.drain(..) {
                    self.hosts[host].note_sent(&pkt, now);
                    self.host_send(topo, host, pkt, now);
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
                    self.note_event();
                }
                if let Some(h) = &self.obs_batch_hist {
                    h.record(batch.len() as u64);
                }
                if self.sw_meta[sw].down {
                    for (_, pkt) in batch.drain(..) {
                        self.drops[D_SWITCH_DOWN] += u64::from(pkt.batch);
                    }
                } else {
                    let gid = self.sw_meta[sw].gid;
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
                                (gid, port),
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
                        self.drops[D_SWITCH_INGRESS] += (offered - accepted) as u64;
                    }
                }
                self.switch_batch = batch;
            }
            PEv::SwitchStart { sw } if self.sw_meta[sw].down => {
                self.sw_meta[sw].scheduled = false;
            }
            PEv::SwitchStart { sw } => match self.switches[sw].start_next() {
                Some((port, pkt)) => {
                    let res = self.switches[sw].process(port, pkt, now);
                    self.sw_meta[sw].cpu.add(now, res.service);
                    let done = now + res.service;
                    self.switches[sw].busy_until = done;
                    for (out_port, out_pkt) in res.forwards {
                        self.deliver_from_port(topo, sw, out_port, out_pkt, done);
                    }
                    if let Some(pi) = res.packet_in {
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
                let responses = self.hosts[host].receive(&pkt, now);
                for response in responses {
                    self.host_send(topo, host, response, now);
                }
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
                    self.note_event();
                }
                if self.devices[dev].down {
                    for pkt in batch.drain(..) {
                        self.drops[D_DEVICE_DOWN] += u64::from(pkt.batch);
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
                    self.deliver_from_port(topo, sw, out_port, pkt, now);
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

    /// Sends a host packet into its attached switch. Hosts always live in
    /// the same partition as their switch, so this stays queue-local.
    fn host_send(&mut self, topo: &Topo, host: usize, pkt: Packet, now: f64) {
        let gid = self.host_meta[host].gid;
        let (sw, port) = topo.host_attach[gid];
        let sw_local = topo.sw_loc[sw.0].idx();
        self.queue.schedule(
            now + topo.link_latency,
            PEv::DeliverToSwitch {
                sw: sw_local,
                port,
                pkt,
            },
        );
    }

    /// Emits a packet out a switch port. Host/device endpoints are always
    /// local (attached to this switch); switch-to-switch hops are staged in
    /// the outbox — even when the destination happens to share this
    /// partition — so delivery order is invariant under the partitioner.
    fn deliver_from_port(&mut self, topo: &Topo, sw: usize, port: u16, pkt: Packet, at: f64) {
        let gid = self.sw_meta[sw].gid;
        {
            let meta = &mut self.sw_meta[sw];
            if !link_passes(
                &self.link_down,
                &self.link_loss,
                &mut self.drops,
                &mut meta.rng,
                (gid, port),
                pkt.batch,
            ) {
                return;
            }
        }
        let at = at + topo.link_latency;
        match topo.endpoint(gid, port).unwrap_or(Endpoint::Unconnected) {
            Endpoint::Host(h) => {
                let host = topo.host_loc[h.0].idx();
                self.queue.schedule(at, PEv::DeliverToHost { host, pkt });
            }
            Endpoint::Device(d) => {
                let dev = topo.dev_loc[d.0].idx();
                self.queue.schedule(at, PEv::DeliverToDevice { dev, pkt });
            }
            Endpoint::SwitchPort(s2, p2) => {
                let meta = &mut self.sw_meta[sw];
                let seq = meta.out_seq;
                meta.out_seq += 1;
                self.outbox.push(OutboxEntry {
                    at,
                    src: gid as u64,
                    seq,
                    msg: OutMsg::ToSwitch {
                        sw: s2.0,
                        port: p2,
                        pkt,
                    },
                });
            }
            Endpoint::Unconnected => {
                self.drops[D_UNCONNECTED] += u64::from(pkt.batch);
            }
        }
    }

    /// Stages an upstream control message (arrival time includes channel
    /// serialization + latency, so it is always ≥ the window end).
    fn send_up(&mut self, sw: usize, msg: OfMessage, ready_at: f64) {
        let profile = self.switches[sw].profile;
        let meta = &mut self.sw_meta[sw];
        if meta.partitioned || meta.down {
            self.drops[D_CONTROL_PARTITION] += 1;
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.up_busy = meta.chan.up_busy.max(ready_at) + tx;
        let at = meta.chan.up_busy + profile.channel_latency;
        let seq = meta.out_seq;
        meta.out_seq += 1;
        let src = MsgSource::Switch(meta.gid);
        self.outbox.push(OutboxEntry {
            at,
            src: meta.gid as u64,
            seq,
            msg: OutMsg::Ctrl { src, msg },
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
            src: DEV_SRC + entry.gid as u64,
            seq,
            msg: OutMsg::Ctrl {
                src: MsgSource::Device(entry.gid),
                msg,
            },
        });
    }
}

/// A unit of work for a pool worker: run these partitions to window `w`.
struct Job {
    parts: Vec<(usize, Box<Partition>)>,
    w: f64,
    until: f64,
}

/// Persistent worker threads for one `run_until` call. Partitions are moved
/// (by value, through channels) to a worker for the window and moved back at
/// the barrier, so no locking or unsafe aliasing is involved anywhere.
struct WorkerPool {
    txs: Vec<mpsc::Sender<Job>>,
    rx: mpsc::Receiver<Vec<(usize, Box<Partition>)>>,
    n: usize,
}

impl WorkerPool {
    fn spawn<'scope>(
        s: &'scope std::thread::Scope<'scope, '_>,
        n: usize,
        topo: &Arc<Topo>,
    ) -> WorkerPool {
        let (res_tx, rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, job_rx) = mpsc::channel::<Job>();
            let res_tx = res_tx.clone();
            let topo = Arc::clone(topo);
            s.spawn(move || {
                while let Ok(mut job) = job_rx.recv() {
                    for (_, part) in job.parts.iter_mut() {
                        part.run(&topo, job.w, job.until);
                    }
                    if res_tx.send(job.parts).is_err() {
                        break;
                    }
                }
            });
            txs.push(tx);
        }
        WorkerPool { txs, rx, n }
    }

    fn submit(&self, k: usize, job: Job) {
        self.txs[k % self.n].send(job).expect("worker alive");
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
/// Internally the simulation is split into a **coordinator** — which owns
/// the control plane, the controller queue, telemetry, faults and the obs
/// snapshots — and a set of `Partition`s holding the data-plane entities.
/// The coordinator alternates between dispatching global events and running
/// all eligible partitions up to the next conservative window boundary.
pub struct Simulation {
    /// Global (coordinator) event queue.
    gqueue: EventQueue<GEv>,
    /// Partitions; `None` only transiently while a worker owns the box.
    parts: Vec<Option<Box<Partition>>>,
    /// Cached earliest event time per partition.
    part_next: Vec<f64>,
    /// Cached minimum of `part_next`.
    p_min: f64,
    topo: Arc<Topo>,
    partitioner: Partitioner,
    threads: usize,
    /// Minimum cross-partition delay; computed at start.
    lookahead: f64,
    seed: u64,
    /// Latest dispatched event time across all queues.
    clock: f64,
    /// Global switch id → datapath id (and the reverse index).
    dpids: Vec<DatapathId>,
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
    /// Metrics store.
    pub recorder: Recorder,
    ctrl_scratch: ControlOutput,
    /// Recycled buffers for the barrier merge and the ready-partition scan.
    merge_scratch: Vec<OutboxEntry>,
    ready_scratch: Vec<usize>,
    events_processed: u64,
    obs: Option<EngineObs>,
}

impl Simulation {
    /// Creates an empty simulation with a deterministic RNG seed.
    ///
    /// The worker-thread count defaults to the `FG_SIM_THREADS` environment
    /// variable (1 when unset); see [`Simulation::set_threads`].
    pub fn new(seed: u64) -> Simulation {
        let threads = std::env::var("FG_SIM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        Simulation {
            gqueue: EventQueue::new(),
            parts: Vec::new(),
            part_next: Vec::new(),
            p_min: f64::INFINITY,
            topo: Arc::new(Topo {
                link_latency: 50e-6,
                ..Topo::default()
            }),
            partitioner: Partitioner::PerSwitch,
            threads,
            lookahead: 0.0,
            seed,
            clock: 0.0,
            dpids: Vec::new(),
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
            recorder: Recorder::new(),
            ctrl_scratch: ControlOutput::new(),
            merge_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            events_processed: 0,
            obs: None,
        }
    }

    /// Sets the number of worker threads used for partition rounds.
    ///
    /// Any value (including 1) produces the bit-identical simulation; more
    /// threads only change wall-clock time. Values are clamped to ≥ 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the partition layout. The layout never changes results — only
    /// how much work can run concurrently.
    ///
    /// # Panics
    ///
    /// Panics if any switch has already been added.
    pub fn set_partitioner(&mut self, partitioner: Partitioner) {
        assert!(
            self.dpids.is_empty(),
            "set_partitioner must be called before any switch is added"
        );
        self.partitioner = partitioner;
    }

    /// Number of partitions created so far.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

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

    /// Clones the hot-path obs handles into every partition. The handles
    /// are atomic and shared, so partition-side increments land in the same
    /// registry entries as coordinator-side ones.
    fn propagate_obs(&mut self) {
        let Some(o) = &self.obs else { return };
        for part in self.parts.iter_mut().flatten() {
            part.obs_events = Some(o.events.clone());
            part.obs_batch_hist = Some(o.switch_batch_hist.clone());
        }
    }

    /// Samples every engine/switch gauge and takes a recorder snapshot.
    fn obs_snapshot(&mut self, now: f64) {
        let Some(o) = self.obs.as_mut() else { return };
        let mut depth = self.gqueue.len();
        for part in self.parts.iter().flatten() {
            depth += part.queue.len();
        }
        o.queue_depth.set(depth as f64);
        o.ctrl_queue_depth.set(self.ctrl_queue.len() as f64);
        let dt = now - o.last_at;
        if dt > 0.0 {
            o.events_per_sec
                .set((self.events_processed - o.last_events) as f64 / dt);
        }
        o.last_events = self.events_processed;
        o.last_at = now;
        let mut pool = 0usize;
        for gid in 0..self.dpids.len() {
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
            let loc = self.topo.sw_loc[gid];
            let s = &self.parts[loc.part()]
                .as_ref()
                .expect("partition present")
                .switches[loc.idx()];
            pool += s.buffered();
            o.switch_buffer[gid].set(s.buffer_utilization());
            if dt > 0.0 {
                o.switch_miss_rate[gid].set((s.stats.misses - o.last_misses[gid]) as f64 / dt);
            }
            o.switch_spoofed_tags[gid].set(s.stats.spoofed_tag_stripped as f64);
            o.last_misses[gid] = s.stats.misses;
        }
        o.pool_occupancy.set(pool as f64);
        // Mirror the legacy recorder counters (fault drops etc.) so the
        // timeline unifies all three pre-existing telemetry surfaces.
        // BTreeMap iteration keeps the mirror order deterministic.
        for (name, &v) in &self.recorder.counters {
            o.hub
                .registry
                .gauge(&format!("netsim.{name}"))
                .set(v as f64);
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
    /// the conservative lookahead computed at start.
    pub fn set_link_latency(&mut self, seconds: f64) {
        assert!(
            !self.started,
            "set_link_latency must be called before the simulation starts"
        );
        Arc::make_mut(&mut self.topo).link_latency = seconds;
    }

    /// Sets the width of CPU-utilization buckets (Fig. 12 resolution).
    pub fn set_cpu_bucket(&mut self, seconds: f64) {
        self.cpu_bucket = seconds;
        self.ctrl_total_cpu = UtilizationTracker::new(seconds);
    }

    fn ensure_partition(&mut self, part: usize) {
        while self.parts.len() <= part {
            self.parts.push(Some(Box::new(Partition::new())));
            self.part_next.push(f64::INFINITY);
        }
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
        let gid = self.dpids.len();
        let part = self.partitioner.partition_of(gid);
        self.ensure_partition(part);
        let dpid = DatapathId(gid as u64 + 1);
        let rng = StdRng::seed_from_u64(entity_seed(self.seed, KIND_SWITCH, gid as u64));
        let maintenance_interval = self.maintenance_interval;
        let topo = Arc::make_mut(&mut self.topo);
        let mut table = PortTable::default();
        for &p in &ports {
            table.set(p, Endpoint::Unconnected);
        }
        topo.ports.push(table);
        let pr = self.parts[part].as_mut().expect("partition present");
        topo.sw_loc.push(Loc {
            part: part as u32,
            idx: pr.switches.len() as u32,
        });
        pr.switches.push(Switch::new(dpid, profile, ports));
        pr.sw_meta.push(SwMeta {
            gid,
            scheduled: false,
            down: false,
            partitioned: false,
            chan: ChannelState::default(),
            cpu: UtilizationTracker::new(maintenance_interval),
            out_seq: 0,
            rng,
        });
        self.dpids.push(dpid);
        self.dpid_index.insert(dpid, gid);
        SwitchId(gid)
    }

    /// Adds a host attached to `(sw, port)`; returns its id. The host lives
    /// in the same partition as its switch.
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
            self.topo.endpoint(sw.0, port).is_some(),
            "switch {sw:?} has no port {port}"
        );
        let id = HostId(self.topo.host_attach.len());
        let loc = self.topo.sw_loc[sw.0];
        let rng = StdRng::seed_from_u64(entity_seed(self.seed, KIND_HOST, id.0 as u64));
        let pr = self.parts[loc.part()].as_mut().expect("partition present");
        let idx = pr.hosts.len();
        pr.hosts.push(Host::new(mac, ip));
        pr.host_meta.push(HostMeta { gid: id.0, rng });
        let topo = Arc::make_mut(&mut self.topo);
        topo.host_attach.push((sw, port));
        topo.host_loc.push(Loc {
            part: loc.part,
            idx: idx as u32,
        });
        topo.ports[sw.0].set(port, Endpoint::Host(id));
        id
    }

    /// Attaches a data-plane device to `(sw, port)`; returns its id.
    ///
    /// The device gets its own controller connection with the given channel
    /// bandwidth (bytes/s) and latency, and is ticked every `tick_interval`
    /// seconds. It lives in the same partition as its switch.
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
            self.topo.endpoint(sw.0, port).is_some(),
            "switch {sw:?} has no port {port}"
        );
        let id = DeviceId(self.topo.dev_loc.len());
        let loc = self.topo.sw_loc[sw.0];
        let pr = self.parts[loc.part()].as_mut().expect("partition present");
        let idx = pr.devices.len();
        pr.devices.push(DeviceEntry {
            gid: id.0,
            logic,
            channel_bandwidth,
            channel_latency,
            chan: ChannelState::default(),
            tick_interval,
            down: false,
            out_seq: 0,
        });
        let topo = Arc::make_mut(&mut self.topo);
        topo.dev_loc.push(Loc {
            part: loc.part,
            idx: idx as u32,
        });
        topo.ports[sw.0].set(port, Endpoint::Device(id));
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
        assert!(self.topo.endpoint(a.0, pa).is_some());
        assert!(self.topo.endpoint(b.0, pb).is_some());
        let topo = Arc::make_mut(&mut self.topo);
        topo.ports[a.0].set(pa, Endpoint::SwitchPort(b, pb));
        topo.ports[b.0].set(pb, Endpoint::SwitchPort(a, pa));
    }

    /// Immutable host access.
    pub fn host(&self, id: HostId) -> &Host {
        let loc = self.topo.host_loc[id.0];
        &self.parts[loc.part()]
            .as_ref()
            .expect("partition present")
            .hosts[loc.idx()]
    }

    /// Mutable host access (attach workloads here).
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        let loc = self.topo.host_loc[id.0];
        &mut self.parts[loc.part()]
            .as_mut()
            .expect("partition present")
            .hosts[loc.idx()]
    }

    /// Immutable switch access.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        let loc = self.topo.sw_loc[id.0];
        &self.parts[loc.part()]
            .as_ref()
            .expect("partition present")
            .switches[loc.idx()]
    }

    /// Mutable switch access (pre-install rules here).
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut Switch {
        let loc = self.topo.sw_loc[id.0];
        &mut self.parts[loc.part()]
            .as_mut()
            .expect("partition present")
            .switches[loc.idx()]
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

    /// Delivers a downstream control message into the owning partition.
    /// `arrive ≥ ready_at + tx + channel latency` is always ahead of the
    /// partition's local clock, so scheduling straight into its queue never
    /// time-travels; the cached horizon is lowered to match.
    fn send_down(&mut self, gid: usize, msg: OfMessage, ready_at: f64) {
        let loc = self.topo.sw_loc[gid];
        let pi = loc.part();
        let pr = self.parts[pi].as_mut().expect("partition present");
        let profile = pr.switches[loc.idx()].profile;
        let meta = &mut pr.sw_meta[loc.idx()];
        if meta.partitioned || meta.down {
            self.recorder.count("control_partition_drops", 1);
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.down_busy = meta.chan.down_busy.max(ready_at) + tx;
        let arrive = meta.chan.down_busy + profile.channel_latency;
        pr.queue
            .schedule(arrive, PEv::SwitchMsgArrive { sw: loc.idx(), msg });
        self.lower_part_next(pi, arrive);
    }

    /// Coordinator-side upstream send (telemetry-expiry flow-removed
    /// messages): same channel accounting as the partition-side
    /// `Partition::send_up`, but the coordinator runs sequentially so the
    /// arrival goes straight into the global queue.
    fn coord_send_up(&mut self, gid: usize, msg: OfMessage, ready_at: f64) {
        let loc = self.topo.sw_loc[gid];
        let pr = self.parts[loc.part()].as_mut().expect("partition present");
        let profile = pr.switches[loc.idx()].profile;
        let meta = &mut pr.sw_meta[loc.idx()];
        if meta.partitioned || meta.down {
            self.recorder.count("control_partition_drops", 1);
            return;
        }
        let tx = ofproto::wire::wire_len(&msg) as f64 / profile.channel_bandwidth;
        meta.chan.up_busy = meta.chan.up_busy.max(ready_at) + tx;
        let arrive = meta.chan.up_busy + profile.channel_latency;
        self.gqueue.schedule(
            arrive,
            GEv::CtrlArrive {
                src: MsgSource::Switch(gid),
                msg,
            },
        );
    }

    fn lower_part_next(&mut self, part: usize, t: f64) {
        if t < self.part_next[part] {
            self.part_next[part] = t;
        }
        if t < self.p_min {
            self.p_min = t;
        }
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
            if let Some(&gid) = self.dpid_index.get(&dpid) {
                self.send_down(gid, msg, ready_at);
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
        // Conservative lookahead: the minimum delay any event needs to cross
        // from a partition to anywhere else (switch-to-switch link, or the
        // control channel up to the coordinator).
        let mut lookahead = self.topo.link_latency;
        for part in self.parts.iter().flatten() {
            for s in &part.switches {
                lookahead = lookahead.min(s.profile.channel_latency);
            }
            for d in &part.devices {
                lookahead = lookahead.min(d.channel_latency);
            }
        }
        assert!(
            lookahead > 0.0 && lookahead.is_finite(),
            "conservative parallel scheduling requires a positive minimum \
             link/channel latency (got {lookahead})"
        );
        self.lookahead = lookahead;
        self.propagate_obs();
        // Handshakes, in global switch order.
        let mut handshakes = Vec::with_capacity(self.dpids.len());
        for gid in 0..self.dpids.len() {
            let loc = self.topo.sw_loc[gid];
            let features = self.parts[loc.part()]
                .as_ref()
                .expect("partition present")
                .switches[loc.idx()]
            .features();
            handshakes.push((self.dpids[gid], features));
        }
        self.with_control_output(0.0, 0.0, |control, out| {
            for (dpid, features) in handshakes {
                control.on_switch_connect(dpid, features, 0.0, out);
            }
        });
        // Workload kickoff and device ticks (partition-local events).
        for part in self.parts.iter_mut().flatten() {
            for host in 0..part.hosts.len() {
                for source in 0..part.hosts[host].source_count() {
                    if let Some(t) = part.hosts[host].peek_source(source, 0.0) {
                        part.queue.schedule(t, PEv::HostEmit { host, source });
                    }
                }
            }
            for dev in 0..part.devices.len() {
                let interval = part.devices[dev].tick_interval;
                part.queue.schedule(interval, PEv::DeviceTick { dev });
            }
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
        self.refresh_horizons_full();
    }

    fn refresh_horizons_full(&mut self) {
        self.p_min = f64::INFINITY;
        for (i, part) in self.parts.iter_mut().enumerate() {
            let t = part
                .as_mut()
                .expect("partition present")
                .queue
                .peek_time()
                .unwrap_or(f64::INFINITY);
            self.part_next[i] = t;
            self.p_min = self.p_min.min(t);
        }
    }

    /// Runs the event loop until simulated time `until`.
    pub fn run_until(&mut self, until: f64) {
        self.start();
        let nparts = self.parts.len();
        if self.threads <= 1 || nparts <= 1 {
            self.event_loop(until, None);
        } else {
            let topo = Arc::clone(&self.topo);
            let n = self.threads.min(nparts);
            std::thread::scope(|s| {
                let pool = WorkerPool::spawn(s, n, &topo);
                self.event_loop(until, Some(&pool));
            });
        }
    }

    /// Events dispatched so far, including batch-coalesced deliveries.
    /// Divide by wall time for an events/second throughput figure.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The coordinator loop: alternate between dispatching global events
    /// (when the next one precedes every partition's horizon) and running a
    /// conservative partition round up to window `w = min(g, p + L)`.
    fn event_loop(&mut self, until: f64, pool: Option<&WorkerPool>) {
        loop {
            let g = self.gqueue.peek_time().unwrap_or(f64::INFINITY);
            let p = self.p_min;
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
                if let Some(o) = &self.obs {
                    o.events.inc();
                }
                self.dispatch_global(ev, now);
            } else {
                if p > until {
                    break;
                }
                let w = g.min(p + self.lookahead);
                self.run_round(w, until, pool);
            }
        }
    }

    /// One conservative window: run every partition whose next event falls
    /// before `w`, then merge their outboxes canonically.
    fn run_round(&mut self, w: f64, until: f64, pool: Option<&WorkerPool>) {
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        for (i, &t) in self.part_next.iter().enumerate() {
            if t < w && t <= until {
                ready.push(i);
            }
        }
        match pool {
            Some(pool) if ready.len() > 1 => {
                let chunk = ready.len().div_ceil(pool.n * 2).max(1);
                let mut jobs = 0usize;
                for ids in ready.chunks(chunk) {
                    let parts: Vec<(usize, Box<Partition>)> = ids
                        .iter()
                        .map(|&i| (i, self.parts[i].take().expect("partition present")))
                        .collect();
                    pool.submit(jobs, Job { parts, w, until });
                    jobs += 1;
                }
                for _ in 0..jobs {
                    for (i, part) in pool.rx.recv().expect("worker alive") {
                        self.parts[i] = Some(part);
                    }
                }
            }
            _ => {
                for &i in &ready {
                    let mut part = self.parts[i].take().expect("partition present");
                    part.run(&self.topo, w, until);
                    self.parts[i] = Some(part);
                }
            }
        }
        self.finish_round(&ready);
        self.ready_scratch = ready;
    }

    /// The barrier: merge per-partition counters and outboxes. Staged
    /// entries are applied in canonical `(time, source entity, sequence)`
    /// order, so the destination queues see identical insertion order no
    /// matter how partitions were grouped or scheduled onto threads.
    fn finish_round(&mut self, ready: &[usize]) {
        let mut staged = std::mem::take(&mut self.merge_scratch);
        for &i in ready {
            let part = self.parts[i].as_mut().expect("partition present");
            self.events_processed += part.events_delta;
            part.events_delta = 0;
            let pnow = part.queue.now();
            if pnow > self.clock {
                self.clock = pnow;
            }
            for (k, name) in DROP_NAMES.iter().enumerate() {
                if part.drops[k] > 0 {
                    self.recorder.count(name, part.drops[k]);
                    part.drops[k] = 0;
                }
            }
            staged.append(&mut part.outbox);
        }
        staged.sort_unstable_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.src.cmp(&b.src))
                .then(a.seq.cmp(&b.seq))
        });
        for entry in staged.drain(..) {
            match entry.msg {
                OutMsg::ToSwitch { sw, port, pkt } => {
                    let loc = self.topo.sw_loc[sw];
                    let pi = loc.part();
                    self.parts[pi]
                        .as_mut()
                        .expect("partition present")
                        .queue
                        .schedule(
                            entry.at,
                            PEv::DeliverToSwitch {
                                sw: loc.idx(),
                                port,
                                pkt,
                            },
                        );
                    if entry.at < self.part_next[pi] {
                        self.part_next[pi] = entry.at;
                    }
                }
                OutMsg::Ctrl { src, msg } => {
                    self.gqueue.schedule(entry.at, GEv::CtrlArrive { src, msg });
                }
            }
        }
        self.merge_scratch = staged;
        for &i in ready {
            let t = self.parts[i]
                .as_mut()
                .expect("partition present")
                .queue
                .peek_time()
                .unwrap_or(f64::INFINITY);
            self.part_next[i] = t;
        }
        self.p_min = f64::INFINITY;
        for &t in &self.part_next {
            if t < self.p_min {
                self.p_min = t;
            }
        }
    }

    fn dispatch_global(&mut self, ev: GEv, now: f64) {
        match ev {
            GEv::CtrlArrive { src, msg } => {
                if self.ctrl_queue.len() >= self.ctrl_profile.queue_limit {
                    self.ctrl_stats.dropped += 1;
                    self.recorder.count("controller_queue_drops", 1);
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
                        MsgSource::Switch(gid) => {
                            let dpid = self.dpids[gid];
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
                for gid in 0..self.dpids.len() {
                    let loc = self.topo.sw_loc[gid];
                    let part = self.parts[loc.part()].as_mut().expect("partition present");
                    let idx = loc.idx();
                    if part.sw_meta[idx].down {
                        continue;
                    }
                    for msg in part.switches[idx].expire(now) {
                        upstream.push((gid, msg));
                    }
                    // A partitioned switch keeps running but the controller
                    // cannot hear from it: no telemetry entry.
                    if part.sw_meta[idx].partitioned {
                        continue;
                    }
                    let datapath_utilization = part.sw_meta[idx]
                        .cpu
                        .utilization_at((now - self.maintenance_interval * 0.5).max(0.0))
                        .min(1.0);
                    let s = &part.switches[idx];
                    telemetry.switches.push(s.telemetry(datapath_utilization));
                    self.recorder.sample(
                        &format!("switch{gid}_buffer"),
                        now,
                        s.buffer_utilization(),
                    );
                }
                for (gid, msg) in upstream {
                    self.coord_send_up(gid, msg, now);
                }
                self.recorder
                    .sample("controller_queue", now, self.ctrl_queue.len() as f64);
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
                let loc = self.topo.sw_loc[sw];
                let idx = loc.idx();
                let mut reconnect = false;
                {
                    let part = self.parts[loc.part()].as_mut().expect("partition present");
                    if part.sw_meta[idx].down {
                        part.sw_meta[idx].down = false;
                        part.switches[idx].busy_until = now;
                        reconnect = !part.sw_meta[idx].partitioned;
                    }
                }
                if reconnect {
                    self.notify_switch_connect(sw, now);
                }
            }
            GEv::DeviceRestart { dev } => {
                let loc = self.topo.dev_loc[dev];
                let entry = &mut self.parts[loc.part()]
                    .as_mut()
                    .expect("partition present")
                    .devices[loc.idx()];
                if entry.down {
                    entry.down = false;
                    entry.logic.on_restart(now);
                }
            }
        }
    }

    fn notify_switch_disconnect(&mut self, gid: usize, now: f64) {
        let dpid = self.dpids[gid];
        let cpu = self.with_control_output(now, now, |control, out| {
            control.on_switch_disconnect(dpid, now, out)
        });
        self.ctrl_total_cpu.add(now, cpu);
    }

    fn notify_switch_connect(&mut self, gid: usize, now: f64) {
        let loc = self.topo.sw_loc[gid];
        let features = self.parts[loc.part()]
            .as_ref()
            .expect("partition present")
            .switches[loc.idx()]
        .features();
        let dpid = self.dpids[gid];
        let cpu = self.with_control_output(now, now, |control, out| {
            control.on_switch_connect(dpid, features, now, out)
        });
        self.ctrl_total_cpu.add(now, cpu);
    }

    fn apply_fault(&mut self, fault: Fault, now: f64) {
        self.fault_log.push(FaultLogEntry { at: now, fault });
        match fault {
            Fault::LinkDown { sw, port } => {
                if sw.0 < self.dpids.len() {
                    let loc = self.topo.sw_loc[sw.0];
                    self.parts[loc.part()]
                        .as_mut()
                        .expect("partition present")
                        .link_down
                        .insert((sw.0, port));
                }
            }
            Fault::LinkUp { sw, port } => {
                if sw.0 < self.dpids.len() {
                    let loc = self.topo.sw_loc[sw.0];
                    self.parts[loc.part()]
                        .as_mut()
                        .expect("partition present")
                        .link_down
                        .remove(&(sw.0, port));
                }
            }
            Fault::LinkLoss {
                sw,
                port,
                probability,
            } => {
                if sw.0 < self.dpids.len() {
                    let loc = self.topo.sw_loc[sw.0];
                    let part = self.parts[loc.part()].as_mut().expect("partition present");
                    let p = probability.clamp(0.0, 1.0);
                    if p <= 0.0 {
                        part.link_loss.remove(&(sw.0, port));
                    } else {
                        part.link_loss.insert((sw.0, port), p);
                    }
                }
            }
            Fault::ControlPartition { sw } => {
                let gid = sw.0;
                if gid < self.dpids.len() {
                    let loc = self.topo.sw_loc[gid];
                    let mut disconnect = false;
                    {
                        let meta = &mut self.parts[loc.part()]
                            .as_mut()
                            .expect("partition present")
                            .sw_meta[loc.idx()];
                        if !meta.partitioned {
                            disconnect = !meta.down;
                            meta.partitioned = true;
                        }
                    }
                    if disconnect {
                        self.notify_switch_disconnect(gid, now);
                    }
                }
            }
            Fault::ControlHeal { sw } => {
                let gid = sw.0;
                if gid < self.dpids.len() {
                    let loc = self.topo.sw_loc[gid];
                    let mut reconnect = false;
                    {
                        let meta = &mut self.parts[loc.part()]
                            .as_mut()
                            .expect("partition present")
                            .sw_meta[loc.idx()];
                        if meta.partitioned {
                            meta.partitioned = false;
                            reconnect = !meta.down;
                        }
                    }
                    if reconnect {
                        // Re-handshake, mirroring a live TCP redial.
                        self.notify_switch_connect(gid, now);
                    }
                }
            }
            Fault::SwitchCrash { sw, restart_after } => {
                let gid = sw.0;
                if gid < self.dpids.len() {
                    let loc = self.topo.sw_loc[gid];
                    let idx = loc.idx();
                    let mut crashed = false;
                    let mut disconnect = false;
                    {
                        let part = self.parts[loc.part()].as_mut().expect("partition present");
                        if !part.sw_meta[idx].down {
                            crashed = true;
                            disconnect = !part.sw_meta[idx].partitioned;
                            part.switches[idx].crash();
                            part.sw_meta[idx].scheduled = false;
                            part.sw_meta[idx].down = true;
                        }
                    }
                    if crashed {
                        if disconnect {
                            self.notify_switch_disconnect(gid, now);
                        }
                        if restart_after.is_finite() {
                            self.gqueue
                                .schedule(now + restart_after, GEv::SwitchRestart { sw: gid });
                        }
                    }
                }
            }
            Fault::DeviceCrash { dev, restart_after } => {
                if dev.0 < self.topo.dev_loc.len() {
                    let loc = self.topo.dev_loc[dev.0];
                    let mut crashed = false;
                    {
                        let entry = &mut self.parts[loc.part()]
                            .as_mut()
                            .expect("partition present")
                            .devices[loc.idx()];
                        if !entry.down {
                            crashed = true;
                            entry.down = true;
                            entry.logic.on_crash();
                        }
                    }
                    if crashed && restart_after.is_finite() {
                        self.gqueue
                            .schedule(now + restart_after, GEv::DeviceRestart { dev: dev.0 });
                    }
                }
            }
            Fault::ControllerStall { duration } => {
                self.ctrl_busy_until = self.ctrl_busy_until.max(now) + duration.max(0.0);
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("switches", &self.dpids.len())
            .field("hosts", &self.topo.host_attach.len())
            .field("devices", &self.topo.dev_loc.len())
            .field("partitions", &self.parts.len())
            .field("threads", &self.threads)
            .field("now", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{BulkSender, NewFlowProbe, UdpFlood};
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
        sim.run_until(2.0);
        let bps = sim.host(h2).meter.bps_in(0.5, 2.0);
        assert!(bps > 1e8, "achieved {bps} bps");
    }

    #[test]
    fn hub_controller_installs_path_via_packet_out() {
        let (mut sim, _sw, h1, h2) = two_host_sim(Box::new(HubControl));
        let probe = NewFlowProbe::new(mac(0xa), ip(1), mac(0xb), ip(2), 1, 0.1);
        sim.host_mut(h1).add_source(Box::new(probe));
        sim.run_until(2.0);
        // The SYN was flooded by the hub and reached h2.
        assert!(sim
            .host(h2)
            .deliveries
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
        sim.run_until(2.0);
        let delivery = sim
            .host(h2)
            .deliveries
            .iter()
            .find(|(p, _)| matches!(p.tag, FlowTag::NewFlow { id: 1 }))
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
            assert!(sim.recorder.counter("link_down_drops") > 0);
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
                    sim.recorder.counter("link_loss_drops"),
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
            assert!(sim.recorder.counter("switch_down_drops") > 0);
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
                sim.recorder.counter("control_partition_drops") > 0,
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
            assert!(sim.recorder.counter("device_down_drops") > 0);
        }
    }

    mod parallel {
        use super::*;
        use crate::host::CbrSource;

        /// A three-switch chain: hosts on both edge switches, cross-switch
        /// CBR streams in both directions, a spoofed flood, and a lossy
        /// inter-switch link — so a run exercises forwarding, misses,
        /// controller traffic and RNG draws across every partition.
        fn chain_sim(
            seed: u64,
            partitioner: Partitioner,
            threads: usize,
        ) -> (Simulation, Vec<HostId>) {
            let mut sim = Simulation::new(seed);
            sim.set_partitioner(partitioner);
            sim.set_threads(threads);
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
            (sim, vec![h0, h1, h2, h3])
        }

        type Fingerprint = (
            u64,
            u64,
            u64,
            Vec<(u64, Vec<u64>)>,
            Vec<(String, u64)>,
            usize,
        );

        /// Everything observable about a finished run: event count,
        /// controller stats, per-host delivery times (bit patterns),
        /// recorder counters and the applied fault log.
        fn fingerprint(sim: &Simulation, hosts: &[HostId]) -> Fingerprint {
            let per_host = hosts
                .iter()
                .map(|&h| {
                    let host = sim.host(h);
                    (
                        host.received_packets,
                        host.deliveries.iter().map(|(_, t)| t.to_bits()).collect(),
                    )
                })
                .collect();
            (
                sim.events_processed(),
                sim.ctrl_stats.processed,
                sim.ctrl_stats.dropped,
                per_host,
                sim.recorder
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), v))
                    .collect(),
                sim.fault_log().len(),
            )
        }

        #[test]
        fn thread_count_is_invisible() {
            let mut runs = Vec::new();
            for threads in [1, 2, 8] {
                let (mut sim, hosts) = chain_sim(7, Partitioner::PerSwitch, threads);
                sim.run_until(1.0);
                assert!(sim.events_processed() > 500, "traffic must actually flow");
                runs.push(fingerprint(&sim, &hosts));
            }
            assert_eq!(runs[0], runs[1]);
            assert_eq!(runs[0], runs[2]);
        }

        #[test]
        fn partition_layout_is_invisible() {
            let layouts = [
                (Partitioner::PerSwitch, 2),
                (Partitioner::Single, 1),
                (Partitioner::Blocks(2), 2),
            ];
            let mut runs = Vec::new();
            for (partitioner, threads) in layouts {
                let (mut sim, hosts) = chain_sim(11, partitioner, threads);
                sim.run_until(1.0);
                runs.push(fingerprint(&sim, &hosts));
            }
            assert_eq!(runs[0], runs[1]);
            assert_eq!(runs[0], runs[2]);
        }

        #[test]
        fn cross_partition_traffic_flows() {
            let (mut sim, hosts) = chain_sim(3, Partitioner::PerSwitch, 2);
            sim.run_until(1.0);
            assert!(
                sim.host(hosts[2]).received_packets > 0,
                "h0 -> h2 crosses two partition boundaries"
            );
            assert!(
                sim.host(hosts[0]).received_packets > 0,
                "and the reverse direction"
            );
            assert!(
                sim.recorder
                    .counters
                    .get("link_loss_drops")
                    .copied()
                    .unwrap_or(0)
                    > 0,
                "the lossy inter-switch link sampled drops"
            );
            assert!(sim.partition_count() >= 3);
        }

        #[test]
        fn faults_land_in_the_owning_partition() {
            let mut runs = Vec::new();
            for (partitioner, threads) in [(Partitioner::PerSwitch, 2), (Partitioner::Single, 1)] {
                let (mut sim, hosts) = chain_sim(5, partitioner, threads);
                sim.schedule_fault(
                    0.35,
                    Fault::SwitchCrash {
                        sw: SwitchId(1),
                        restart_after: 0.2,
                    },
                );
                sim.run_until(1.0);
                assert!(
                    sim.recorder
                        .counters
                        .get("switch_down_drops")
                        .copied()
                        .unwrap_or(0)
                        > 0,
                    "a mid-chain crash drops in-flight packets"
                );
                assert_eq!(sim.fault_log().len(), 2, "loss fault + crash fault");
                runs.push(fingerprint(&sim, &hosts));
            }
            assert_eq!(runs[0], runs[1]);
        }

        #[test]
        fn segmented_runs_match_across_thread_counts() {
            let (mut a, ha) = chain_sim(13, Partitioner::PerSwitch, 4);
            let (mut b, hb) = chain_sim(13, Partitioner::PerSwitch, 1);
            for until in [0.3, 0.65, 1.0] {
                a.run_until(until);
                b.run_until(until);
            }
            assert_eq!(fingerprint(&a, &ha), fingerprint(&b, &hb));
        }
    }
}
