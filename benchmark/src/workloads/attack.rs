//! `live_attack`: the paper's Fig. 9 over real sockets.
//!
//! The generator plays both data-plane parties of the figure. One thread
//! owns a `netsim::switch::Switch` (ports 1, 2, 3 and the cache port) and
//! the switch's control connection: it injects packets on an open-loop
//! schedule, turns table misses into packet_in frames, and applies every
//! flow_mod and packet_out the controller sends. A second thread owns the
//! real `DataPlaneCache` from `FloodGuard::build_cache()` and the device
//! connection: packets the switch forwards to the cache port reach it over
//! a channel, and its rate-limited packet_ins go up the device connection.
//!
//! The schedule is open loop by nature: a flood does not wait for the
//! controller. An episode is [`LEAD_IN_S`] seconds of calm, [`FLOOD_S`]
//! seconds of spoofed UDP at [`FLOOD_PPS`] on port 3 and [`CALM_S`]
//! seconds of calm, with benign TCP SYN probes toward unknown destinations
//! entering port 1 at [`PROBE_PPS`] throughout. How late the generator ran
//! is reported.
//!
//! Every episode runs against a freshly set-up system. Every spoofed
//! source teaches `l2_learning` and `l3_learning` a new entry, so on one
//! long-lived system each episode starts from a larger state than the
//! last: over six episodes the onset grew from 59 to 185 ms and the first
//! rule burst from 86 to 1299 ms, and which episode a number came from
//! mattered more than the code under test. Fresh systems make episodes
//! samples of one distribution (and each one is a set-up sample too); the
//! cost is that re-entering Init from Finish is not exercised here.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use controller::platform::ControllerPlatform;
use floodguard::analyzer::Analyzer;
use floodguard::cache::DataPlaneCache;
use floodguard::migration::MigrationAgent;
use floodguard::state::Transition;
use floodguard::{FloodGuard, MonitorHandle, State};
use netsim::iface::{ControlOutput, ControlPlane, DataPlaneDevice, DeviceOutput};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofproto::actions::Action;
use ofproto::flow_mod::FlowModCommand;
use ofproto::messages::{OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, PortNo, Xid};
use ofproto::wire;

use super::{tail, Outcome, RunArgs};
use crate::gen::{self, Host, Rng, CACHE_PORT};
use crate::procstat::{self, CpuPlan, ThreadCpu, GEN_PREFIX};
use crate::stats;
use crate::sut::{self, Listening, SharedTracer, Spanned};
use crate::trace::Tracer;
use crate::wireio::Conn;
use floodguard::FloodGuardStats;
use ofchannel::CountersSnapshot;

/// Flood rate during an episode, packets per second.
pub const FLOOD_PPS: f64 = 5000.0;
/// Benign probe rate, the whole run.
pub const PROBE_PPS: f64 = 50.0;
/// Seconds of flood per episode.
pub const FLOOD_S: f64 = 1.5;
/// Seconds of calm after each flood.
pub const CALM_S: f64 = 2.0;
/// Calm before the first flood.
pub const LEAD_IN_S: f64 = 0.5;
/// A probe not delivered within this long is lost.
const PROBE_TIMEOUT_S: f64 = 2.0;
/// The first update burst ends after this long without a proactive rule.
/// Rule updates follow the 20 ms telemetry tick, and while the cache keeps
/// teaching the applications new sources every tick brings an update, so
/// the gap that separates the first round from the second must be shorter
/// than a tick.
const BURST_GAP_S: f64 = 0.01;
/// Times the system is set up per run: once per episode, the rest without
/// one. `setup_s` is the best fiftieth.
const SETUP_REPS: usize = 201;
/// How long before the switch drops the redirect rule a lost probe is put
/// down to the teardown race (one telemetry tick plus transport).
const TEARDOWN_RACE_S: f64 = 0.03;
/// How often the cache device is ticked, as `SwitchEndpoint` does.
const DEVICE_TICK: Duration = Duration::from_millis(5);
/// How often the device thread wakes to take packets off the channel.
const DEVICE_POLL: Duration = Duration::from_millis(1);
/// How long the switch thread sleeps when nothing is due.
const POLL: Duration = Duration::from_micros(200);

/// When things happen within one episode, in seconds since its start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Calm before the flood.
    pub lead_in: f64,
    /// Seconds of flood.
    pub flood: f64,
    /// Seconds of calm after the flood.
    pub calm: f64,
}

impl Timing {
    /// The standard episode: [`LEAD_IN_S`], [`FLOOD_S`], [`CALM_S`].
    pub const STANDARD: Timing = Timing {
        lead_in: LEAD_IN_S,
        flood: FLOOD_S,
        calm: CALM_S,
    };

    /// Seconds one episode lasts.
    pub fn total(&self) -> f64 {
        self.lead_in + self.flood + self.calm
    }

    /// How many standard episodes fit in `seconds`; a run shorter than
    /// one episode (a smoke run) gets a single, proportionally shorter one.
    pub fn fitting(seconds: f64) -> (usize, Timing) {
        let whole = (seconds / Timing::STANDARD.total()).floor() as usize;
        if whole >= 1 {
            return (whole, Timing::STANDARD);
        }
        let scale = seconds / Timing::STANDARD.total();
        (
            1,
            Timing {
                lead_in: LEAD_IN_S * scale,
                flood: FLOOD_S * scale,
                calm: CALM_S * scale,
            },
        )
    }

    /// When injection stops.
    fn end(&self) -> f64 {
        self.total()
    }

    /// Whether the flood is on at `t`.
    fn flooding(&self, t: f64) -> bool {
        t >= self.lead_in && t < self.lead_in + self.flood
    }
}

/// One benign probe's fate.
#[derive(Debug, Clone, Copy)]
struct Probe {
    injected: f64,
    delivered: Option<f64>,
    /// Injected while the flood was on.
    under_flood: bool,
    /// Injected while port 1's migration rule was in the switch table.
    defended: bool,
}

/// Everything the switch thread reports about its episode.
struct SwitchReport {
    probes: Vec<Probe>,
    /// When the flood's first packet was injected.
    first_packet: Option<f64>,
    /// When the first migration rule was applied at the switch.
    migration_at: Option<f64>,
    /// When the migration rules were removed from the switch.
    migration_removed_at: Option<f64>,
    /// When each proactive rule was applied at the switch.
    proactive_at: Vec<f64>,
    flood_late_us: Vec<f64>,
    injected: u64,
    cpu_s: f64,
    switch: Switch,
    error: Option<String>,
}

impl SwitchReport {
    /// Probes the defence's teardown lost: FloodGuard closes the cache's
    /// intake the moment it decides to leave Defense, but the switch keeps
    /// redirecting to the cache until the strict deletes arrive, so a
    /// packet redirected in between is refused by the cache. A lost probe
    /// counts as this race's when it was injected under the redirect rule
    /// within [`TEARDOWN_RACE_S`] before the switch dropped it.
    fn lost_to_teardown(&self, cache_rejected: u64) -> u64 {
        let Some(removed) = self.migration_removed_at else {
            return 0;
        };
        let in_window = self
            .probes
            .iter()
            .filter(|p| {
                p.delivered.is_none()
                    && p.defended
                    && p.injected <= removed
                    && removed - p.injected < TEARDOWN_RACE_S
            })
            .count() as u64;
        in_window.min(cache_rejected)
    }

    /// Flood's first packet → migration rule applied, ms.
    fn onset_ms(&self) -> Option<f64> {
        Some((self.migration_at? - self.first_packet?) * 1e3)
    }

    /// Flood's first packet → last proactive rule of the first burst, ms.
    fn rules_ready_ms(&self) -> Option<f64> {
        Some((first_burst_end(&self.proactive_at)? - self.first_packet?) * 1e3)
    }
}

/// When the first burst of `times` (ascending) ends: the last entry
/// before a gap longer than [`BURST_GAP_S`].
fn first_burst_end(times: &[f64]) -> Option<f64> {
    let mut last = *times.first()?;
    for &t in &times[1..] {
        if t - last > BURST_GAP_S {
            break;
        }
        last = t;
    }
    Some(last)
}

/// The switch side of Fig. 9, generator-driven.
struct SwitchSide<'a> {
    conn: Conn,
    switch: Switch,
    to_cache: Sender<Packet>,
    timing: Timing,
    t0: Instant,
    benign: Host,
    victim: std::net::Ipv4Addr,
    flood_rng: Rng,
    probe_rng: Rng,
    /// Ingress ports whose migration rule is in the table right now.
    migrated_ports: HashSet<u16>,
    probes: Vec<Probe>,
    first_packet: Option<f64>,
    migration_at: Option<f64>,
    migration_removed_at: Option<f64>,
    proactive_at: Vec<f64>,
    flood_late_us: Vec<f64>,
    injected: u64,
    xid: u32,
    scratch: Vec<u8>,
    fg_cookie: u64,
    stop: &'a AtomicBool,
}

impl SwitchSide<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Hands forwarded packets on: the cache port goes to the device
    /// thread, port 2 is where probes are delivered, the rest leaves.
    fn route(&mut self, forwards: Vec<(u16, Packet)>, now: f64) {
        for (port, packet) in forwards {
            if port == CACHE_PORT {
                let _ = self.to_cache.send(packet);
            } else if port == 2 {
                if let Some(id) = gen::probe_id(&packet) {
                    if let Some(probe) = self.probes.get_mut(id as usize) {
                        probe.delivered.get_or_insert(now);
                    }
                }
            }
        }
    }

    /// Runs queued packets through the flow table; misses become
    /// packet_in frames, written in one go.
    fn pump(&mut self, now: f64) -> std::io::Result<()> {
        self.scratch.clear();
        while let Some((in_port, packet)) = self.switch.start_next() {
            let res = self.switch.process(in_port, packet, now);
            self.route(res.forwards, now);
            if let Some(pi) = res.packet_in {
                self.xid = self.xid.wrapping_add(1);
                let frame = wire::encode(&OfMessage::new(Xid(self.xid), OfBody::PacketIn(pi)));
                self.scratch.extend_from_slice(&frame);
            }
        }
        if self.scratch.is_empty() {
            return Ok(());
        }
        let frames = std::mem::take(&mut self.scratch);
        let result = self.conn.send(&frames);
        self.scratch = frames;
        result
    }

    /// Applies one controller message to the switch and notes what the
    /// defence did.
    fn apply(&mut self, msg: OfMessage, now: f64) -> std::io::Result<()> {
        if let OfBody::FlowMod(fm) = &msg.body {
            let to_cache = fm
                .actions
                .contains(&Action::Output(PortNo::Physical(CACHE_PORT)));
            match fm.command {
                FlowModCommand::Add if to_cache => {
                    self.migrated_ports.insert(fm.of_match.keys.in_port);
                    self.migration_at.get_or_insert(now);
                }
                FlowModCommand::Add if fm.cookie == self.fg_cookie => {
                    self.proactive_at.push(now);
                }
                FlowModCommand::DeleteStrict if fm.priority == 0 => {
                    self.migrated_ports.remove(&fm.of_match.keys.in_port);
                    self.migration_removed_at.get_or_insert(now);
                }
                _ => {}
            }
        }
        let (forwards, replies) = self.switch.handle_message(msg, now);
        self.route(forwards, now);
        for reply in &replies {
            self.conn.send_msg(reply)?;
        }
        Ok(())
    }

    fn run(mut self) -> SwitchReport {
        let end = self.timing.end();
        let flood_packets = (self.timing.flood * FLOOD_PPS) as u64;
        let mut next_probe = 0.0f64;
        let mut next_flood = 0u64;
        let mut next_expire = 0.1f64;
        let mut error = None;
        loop {
            let now = self.now();
            // Inject what is due.
            while next_probe <= now && next_probe < end {
                let id = self.probes.len() as u32;
                let packet = gen::probe_packet(&self.benign, id, &mut self.probe_rng);
                self.probes.push(Probe {
                    injected: now,
                    delivered: None,
                    under_flood: self.timing.flooding(now),
                    defended: self.migrated_ports.contains(&self.benign.port),
                });
                self.switch.enqueue(self.benign.port, packet);
                self.injected += 1;
                next_probe += 1.0 / PROBE_PPS;
            }
            while next_flood < flood_packets {
                let due = self.timing.lead_in + next_flood as f64 / FLOOD_PPS;
                if due > now {
                    break;
                }
                let packet = gen::flood_packet(&mut self.flood_rng, self.victim);
                self.first_packet.get_or_insert(now);
                self.flood_late_us.push((now - due) * 1e6);
                self.switch.enqueue(3, packet);
                self.injected += 1;
                next_flood += 1;
            }
            let io = (|| -> std::io::Result<()> {
                self.pump(now)?;
                for msg in self.conn.recv()? {
                    let now = self.now();
                    self.apply(msg, now)?;
                }
                if now >= next_expire {
                    next_expire = now + 0.1;
                    for msg in self.switch.expire(now) {
                        self.conn.send_msg(&msg)?;
                    }
                }
                Ok(())
            })();
            if let Err(e) = io {
                error = Some(format!("switch connection: {e}"));
                break;
            }
            // Done once injection is over and every probe is delivered or
            // has timed out.
            if now >= end
                && (now >= end + PROBE_TIMEOUT_S
                    || self.probes.iter().all(|p| p.delivered.is_some()))
            {
                break;
            }
            if self.switch.ingress_len() == 0 {
                std::thread::sleep(POLL);
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        SwitchReport {
            probes: self.probes,
            first_packet: self.first_packet,
            migration_at: self.migration_at,
            migration_removed_at: self.migration_removed_at,
            proactive_at: self.proactive_at,
            flood_late_us: self.flood_late_us,
            injected: self.injected,
            cpu_s: procstat::thread_self_cpu_s(),
            switch: self.switch,
            error,
        }
    }
}

/// What the device thread reports.
struct DeviceReport {
    cpu_s: f64,
    tracer: Tracer,
    error: Option<String>,
}

/// The cache side of Fig. 9: feeds the real `DataPlaneCache` the packets
/// the switch forwards to it, ticks it, and relays its packet_ins.
fn device_thread(
    mut conn: Conn,
    mut cache: DataPlaneCache,
    from_switch: Receiver<Packet>,
    t0: Instant,
    stop: &AtomicBool,
    traced: bool,
) -> DeviceReport {
    let mut tracer = Tracer::new(traced);
    let mut error = None;
    let mut next_tick = Instant::now() + DEVICE_TICK;
    let mut batch: Vec<Packet> = Vec::new();
    let mut ticks = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // Packets are taken in 1 ms batches: one wake-up per flood packet
        // would cost the generator more CPU than the cache itself.
        std::thread::sleep(DEVICE_POLL);
        batch.extend(from_switch.try_iter());
        let now = t0.elapsed().as_secs_f64();
        let mut out = DeviceOutput::new();
        if !batch.is_empty() {
            // req carries the batch size so per-packet cost can be derived.
            let n = batch.len() as u64;
            tracer.span("cache.on_packets", n, || {
                cache.on_packets(&mut batch, now, &mut out);
            });
        }
        let tick = Instant::now() >= next_tick;
        if tick {
            next_tick += DEVICE_TICK;
            ticks += 1;
            tracer.span("cache.on_tick", ticks, || cache.on_tick(now, &mut out));
        }
        let io = (|| -> std::io::Result<()> {
            for up in &out.to_controller {
                conn.send_msg(up)?;
            }
            if tick {
                // Only keepalive arrives here; `recv` answers it.
                conn.recv()?;
            }
            Ok(())
        })();
        if let Err(e) = io {
            error = Some(format!("device connection: {e}"));
            break;
        }
    }
    DeviceReport {
        cpu_s: procstat::thread_self_cpu_s(),
        tracer,
        error,
    }
}

/// The live attack system: endpoint, both generator-side connections, the
/// cache device and FloodGuard's monitor.
struct Live {
    listening: Listening,
    switch_conn: Conn,
    device_conn: Conn,
    cache: DataPlaneCache,
    cache_handle: floodguard::cache::CacheHandle,
    monitor: MonitorHandle,
    cookie: u64,
}

/// Builds the system and connects both parties: application seeding,
/// `FloodGuard::new`, `build_cache`, `listen`, two handshakes.
fn set_up(benign: &Host, tracer: Option<&SharedTracer>) -> (Live, f64) {
    let t0 = Instant::now();
    let config = sut::attack_config();
    let mut floodguard = FloodGuard::new(sut::attack_platform(benign), config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache_handle = floodguard.cache_handle();
    let cache = floodguard.build_cache();
    let control: Box<dyn ControlPlane> = match tracer {
        Some(tracer) => Box::new(Spanned::new(floodguard, Arc::clone(tracer))),
        None => Box::new(floodguard),
    };
    let listening = sut::listen(control, Duration::from_millis(20));
    let (switch_conn, _) =
        Conn::connect(listening.addr, &sut::switch_features(1, &sut::ATTACK_PORTS))
            .expect("switch handshake with the controller");
    let (device_conn, _) = Conn::connect(listening.addr, &ofchannel::device_features(0))
        .expect("device handshake with the controller");
    let took = t0.elapsed().as_secs_f64();
    (
        Live {
            listening,
            switch_conn,
            device_conn,
            cache,
            cache_handle,
            monitor,
            cookie: config.cookie,
        },
        took,
    )
}

/// What the main thread saw of the FSM while the generator ran.
struct Watch {
    /// Transitions in the order FloodGuard logged them.
    transitions: Vec<Transition>,
    /// Seconds since the episode's start and thread CPU when Init was seen.
    at_init: Option<(f64, Vec<ThreadCpu>)>,
    /// The same when Finish was seen.
    at_finish: Option<(f64, Vec<ThreadCpu>)>,
}

/// Polls FloodGuard's monitor until the generator is done.
fn watch(monitor: &MonitorHandle, t0: Instant, stop: &AtomicBool) -> Watch {
    let mut w = Watch {
        transitions: Vec::new(),
        at_init: None,
        at_finish: None,
    };
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
        let fresh: Vec<Transition> = {
            let m = monitor.lock();
            m.transitions[w.transitions.len().min(m.transitions.len())..].to_vec()
        };
        if fresh.is_empty() {
            continue;
        }
        let now = t0.elapsed().as_secs_f64();
        let cpu = procstat::thread_cpu();
        for t in fresh {
            match t.to {
                State::Init if w.at_init.is_none() => w.at_init = Some((now, cpu.clone())),
                State::Finish => w.at_finish = Some((now, cpu.clone())),
                _ => {}
            }
            w.transitions.push(t);
        }
    }
    w
}

/// One episode against one freshly set-up system.
struct EpisodeReport {
    setup_s: f64,
    wall_s: f64,
    switch: SwitchReport,
    device: DeviceReport,
    seen: Watch,
    /// CPU of the threads under test over the whole episode.
    under_test_cpu: procstat::CpuSplit,
    stats: FloodGuardStats,
    cache_stats: floodguard::cache::CacheStats,
    counters: CountersSnapshot,
    spans: Tracer,
}

/// Sets a system up, plays one episode against it and tears it down.
fn run_episode(
    seed: u64,
    episode: usize,
    timing: Timing,
    hosts: &[Host],
    traced: bool,
) -> EpisodeReport {
    let benign = hosts[0];
    let tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(traced)));
    let (live, setup_s) = set_up(&benign, traced.then_some(&tracer));
    let Live {
        listening,
        switch_conn,
        device_conn,
        cache,
        cache_handle,
        monitor,
        cookie,
    } = live;
    switch_conn
        .set_nonblocking(true)
        .expect("non-blocking switch socket");
    device_conn
        .set_nonblocking(true)
        .expect("non-blocking device socket");

    let stop = AtomicBool::new(false);
    let (to_cache, from_switch) = mpsc::channel();
    let t0 = Instant::now();
    let side = SwitchSide {
        conn: switch_conn,
        switch: Switch::new(
            DatapathId(1),
            SwitchProfile::software(),
            sut::ATTACK_PORTS.to_vec(),
        ),
        to_cache,
        timing,
        t0,
        benign,
        victim: hosts[1].ip,
        flood_rng: Rng::new(seed, 1000 + episode as u64),
        probe_rng: Rng::new(seed, 2000 + episode as u64),
        migrated_ports: HashSet::new(),
        probes: Vec::new(),
        first_packet: None,
        migration_at: None,
        migration_removed_at: None,
        proactive_at: Vec::new(),
        flood_late_us: Vec::new(),
        injected: 0,
        xid: 0,
        scratch: Vec::new(),
        fg_cookie: cookie,
        stop: &stop,
    };
    let cpu_start = procstat::thread_cpu();
    let cpus = CpuPlan::detect();
    let (switch, device, seen) = std::thread::scope(|scope| {
        let stop = &stop;
        let switch = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}-0"))
            .spawn_scoped(scope, move || {
                if let Some(cpus) = cpus {
                    procstat::pin_self(cpus.generator);
                }
                side.run()
            })
            .expect("spawn the switch thread");
        let device = std::thread::Builder::new()
            .name(format!("{GEN_PREFIX}-1"))
            .spawn_scoped(scope, move || {
                if let Some(cpus) = cpus {
                    procstat::pin_self(cpus.generator);
                }
                device_thread(device_conn, cache, from_switch, t0, stop, traced)
            })
            .expect("spawn the device thread");
        let seen = watch(&monitor, t0, stop);
        (
            switch.join().expect("switch thread panicked"),
            device.join().expect("device thread panicked"),
            seen,
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let under_test_cpu = procstat::split(&cpu_start, &procstat::thread_cpu());
    // Let the last telemetry tick publish, then read the final counters.
    std::thread::sleep(Duration::from_millis(45));
    let stats = monitor.lock().stats;
    let cache_stats = cache_handle.lock().stats;
    let counters = listening.endpoint.counters();
    drop(listening);
    let spans = std::mem::replace(
        &mut *tracer.lock().expect("span recorder poisoned"),
        Tracer::new(false),
    );
    EpisodeReport {
        setup_s,
        wall_s,
        switch,
        device,
        seen,
        under_test_cpu,
        stats,
        cache_stats,
        counters,
        spans,
    }
}

/// Counts one episode's output checks into `outcome`.
fn check_episode(outcome: &mut Outcome, e: usize, r: &EpisodeReport) {
    outcome.expect(
        r.switch.error.is_none(),
        &format!("episode {e}: {}", r.switch.error.as_deref().unwrap_or("")),
    );
    outcome.expect(
        r.device.error.is_none(),
        &format!("episode {e}: {}", r.device.error.as_deref().unwrap_or("")),
    );
    let lost = r
        .switch
        .probes
        .iter()
        .filter(|p| p.delivered.is_none())
        .count() as u64;
    let raced = r.switch.lost_to_teardown(r.cache_stats.rejected);
    outcome.check(
        r.switch.probes.len() as u64 - raced,
        lost - raced,
        &format!("episode {e}: probes never delivered on port 2 within 2 s"),
    );
    if raced > 0 {
        outcome.note(format!(
            "episode {e}: {raced} probe(s) lost to the teardown race (cache intake closed before the switch dropped the redirect; the cache refused {} packets) — reported, not counted as failed operations",
            r.cache_stats.rejected
        ));
    }
    let received = r.switch.proactive_at.len() as u64;
    outcome.check(
        r.stats.proactive_installed,
        r.stats.proactive_installed.saturating_sub(received),
        &format!(
            "episode {e}: proactive flow-mods emitted but never received by the switch ({received} received)"
        ),
    );
    outcome.expect(
        r.stats.attacks_detected == 1,
        &format!(
            "episode {e}: attacks_detected {} != 1",
            r.stats.attacks_detected
        ),
    );
    let order: Vec<State> = r.seen.transitions.iter().map(|t| t.to).collect();
    outcome.expect(
        order.starts_with(&[State::Init, State::Defense, State::Finish]),
        &format!("episode {e}: transitions {order:?} do not start Init -> Defense -> Finish"),
    );
    outcome.expect(
        r.switch.migration_at.is_some(),
        &format!("episode {e}: no migration rule reached the switch"),
    );
    outcome.expect(
        !r.switch.proactive_at.is_empty(),
        &format!("episode {e}: no proactive rule reached the switch"),
    );
    outcome.expect(
        r.counters.decode_errors == 0,
        &format!("episode {e}: endpoint counted decode errors"),
    );
    outcome.expect(
        r.counters.keepalive_timeouts == 0,
        &format!("episode {e}: endpoint counted keepalive timeouts"),
    );
    outcome.check(
        r.counters.frames_out + r.counters.sends_blocked + r.counters.budget_exhausted,
        r.counters.sends_blocked + r.counters.budget_exhausted,
        &format!("episode {e}: frames the endpoint shed under backpressure"),
    );
}

fn round1(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 10.0).round() / 10.0).collect()
}

/// Runs the attack workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    super::pin_main(&mut outcome);
    let (episodes, timing) = Timing::fitting(args.seconds);
    let hosts = gen::hosts(args.seed, 2, &[1]);
    // Every episode sets a system up; more set-ups without an episode, a
    // share of them before each episode, bring the sample to its size.
    let mut extra_setups = Vec::new();
    let reports: Vec<EpisodeReport> = (0..episodes)
        .map(|e| {
            for _ in 0..SETUP_REPS.saturating_sub(episodes) / episodes {
                let (live, took) = set_up(&hosts[0], None);
                drop(live);
                extra_setups.push(took);
            }
            run_episode(args.seed, e, timing, &hosts, args.trace)
        })
        .collect();
    for (e, r) in reports.iter().enumerate() {
        check_episode(&mut outcome, e, r);
    }

    // ---- measurements --------------------------------------------------
    let delays = |keep: fn(&Probe) -> bool| {
        let mut v: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.switch.probes.iter())
            .filter(|p| keep(p))
            .filter_map(|p| p.delivered.map(|d| (d - p.injected) * 1e3))
            .collect();
        stats::sort(&mut v);
        v
    };
    let defended = delays(|p| p.defended);
    let under_flood = delays(|p| p.under_flood);
    let calm = delays(|p| !p.under_flood && !p.defended);
    let onsets: Vec<f64> = reports.iter().filter_map(|r| r.switch.onset_ms()).collect();
    let readies: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.switch.rules_ready_ms())
        .collect();
    let mut setups: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
    setups.extend(extra_setups);
    let probes: usize = reports.iter().map(|r| r.switch.probes.len()).sum();
    let delivered = reports
        .iter()
        .flat_map(|r| r.switch.probes.iter())
        .filter(|p| p.delivered.is_some())
        .count();
    let mut late: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.switch.flood_late_us.iter().copied())
        .collect();
    stats::sort(&mut late);

    // Controller-side CPU between Init and Finish, episode by episode; and
    // the packets the data plane offered in those windows.
    let mut cpu_s = 0.0;
    let mut window_s = 0.0;
    let mut per_episode_ms_per_s = Vec::new();
    let mut per_episode_us_per_op = Vec::new();
    for r in &reports {
        if let (Some((t_init, a)), Some((t_fin, b))) = (&r.seen.at_init, &r.seen.at_finish) {
            if t_fin > t_init {
                let used = procstat::split(a, b).under_test;
                cpu_s += used;
                window_s += t_fin - t_init;
                per_episode_ms_per_s.push(used * 1e3 / (t_fin - t_init));
                let flood_end = timing.lead_in + timing.flood;
                let offered = (flood_end.min(*t_fin) - t_init.min(flood_end)).max(0.0) * FLOOD_PPS
                    + (t_fin - t_init) * PROBE_PPS;
                per_episode_us_per_op.push(used * 1e6 / offered.max(1.0));
            }
        }
    }
    let cpu_ms_per_s = cpu_s * 1e3 / window_s.max(1e-9);
    let gen_cpu: f64 = reports
        .iter()
        .map(|r| r.switch.cpu_s + r.device.cpu_s)
        .sum();
    let under_test: f64 = reports.iter().map(|r| r.under_test_cpu.under_test).sum();
    let by_thread = |f: fn(&procstat::CpuSplit) -> f64| -> f64 {
        reports.iter().map(|r| f(&r.under_test_cpu)).sum()
    };
    let gen_share = gen_cpu / (gen_cpu + under_test).max(1e-9);
    let wall: f64 = reports.iter().map(|r| r.wall_s).sum();
    let injected: u64 = reports.iter().map(|r| r.switch.injected).sum();

    outcome.note(format!(
        "open loop over loopback (127.0.0.1): {episodes} episodes, each on a fresh system: {} s calm, {} s flood at {FLOOD_PPS} pps on port 3, {} s calm, probes at {PROBE_PPS}/s on port 1; {injected} packets injected in {wall:.1} s",
        timing.lead_in, timing.flood, timing.calm
    ));
    outcome.note(format!("onset_ms per episode: {:?}", round1(&onsets)));
    outcome.note(format!(
        "rules_ready_ms per episode: {:?}",
        round1(&readies)
    ));
    outcome.note(format!(
        "ctrl_cpu_ms_per_s per episode: {:?}; CPU us per offered packet per episode: {:?}",
        round1(&per_episode_ms_per_s),
        round1(&per_episode_us_per_op)
    ));
    if !defended.is_empty() && !under_flood.is_empty() && !calm.is_empty() {
        outcome.note(format!(
            "probes: {probes} injected, {delivered} delivered; defended {} (p50 {:.2} ms, p95 {:.2} ms), under flood {} (p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms), calm {} (p50 {:.3} ms, p95 {:.3} ms)",
            defended.len(),
            stats::percentile(&defended, 50.0),
            stats::percentile(&defended, 95.0),
            under_flood.len(),
            stats::percentile(&under_flood, 50.0),
            stats::percentile(&under_flood, 95.0),
            under_flood[under_flood.len() - 1],
            calm.len(),
            stats::percentile(&calm, 50.0),
            stats::percentile(&calm, 95.0),
        ));
    }
    let last = reports.last().expect("at least one episode");
    outcome.note(format!(
        "last episode: {} proactive rules emitted, {} received by the switch, {} re-raised from the cache; cache received {} dropped {}; switch: {} misses, {} packet_ins, {} rules at the end",
        last.stats.proactive_installed,
        last.switch.proactive_at.len(),
        last.stats.reraised,
        last.cache_stats.received,
        last.cache_stats.dropped,
        last.switch.switch.stats.misses,
        last.switch.switch.stats.packet_ins,
        last.switch.switch.table.len()
    ));
    outcome.note(format!(
        "ctrl_cpu_ms_per_s = {cpu_ms_per_s:.2} ms/s over {window_s:.1} s (Init to Finish, all episodes); whole run: under test {under_test:.2} s (control loop {:.2}, worker {:.2}, reactor {:.2}), generator {gen_cpu:.2} s (gen.cpu_share {gen_share:.3}); flood lateness p50 {:.0} us p99 {:.0} us",
        by_thread(|c| c.control_loop),
        by_thread(|c| c.worker),
        by_thread(|c| c.reactor),
        stats::percentile(&late, 50.0),
        stats::percentile(&late, 99.0)
    ));
    outcome.note(format!(
        "endpoint counters, last episode: frames in {} out {}, sends_blocked {}, budget_exhausted {}, send_queue_hwm {}",
        last.counters.frames_in,
        last.counters.frames_out,
        last.counters.sends_blocked,
        last.counters.budget_exhausted,
        last.counters.send_queue_hwm
    ));
    outcome.note(super::setup_note(
        &setups,
        "set-ups (one per episode, the rest without one)",
    ));

    if args.trace {
        let measured = Measured {
            onsets,
            readies,
            defended,
            under_flood,
            late,
            cpu_ms_per_s,
            gen_share,
        };
        traced_metrics(&mut outcome, args, reports, &measured, &hosts);
        return outcome;
    }

    outcome.set("setup_s", stats::best_fiftieth(&setups, false));
    if !defended.is_empty() {
        outcome.set("latency_p50_ms", stats::percentile(&defended, 50.0));
        outcome.note(
            "latency_p50_ms = probe_defense_p50_ms (probes injected under the migration rule), throughput_per_s = benign probes delivered per second, cpu_us_per_op = controller CPU between Init and Finish per packet the data plane offered in that window, of the episode where it was least",
        );
    }
    outcome.set(
        "throughput_per_s",
        delivered as f64 / (episodes as f64 * timing.total()),
    );
    // The cost of the episode the machine disturbed least: a neighbour only
    // ever adds to an episode's CPU time (see `stats::best_fiftieth`).
    if !per_episode_us_per_op.is_empty() {
        outcome.set(
            "cpu_us_per_op",
            stats::best_fiftieth(&per_episode_us_per_op, false),
        );
    }
    outcome.set("peak_rss_mb", procstat::peak_rss_mb());
    outcome
}

/// Teaches a platform spoofed sources the way the flood does: one
/// unbuffered packet_in per source on port 3.
struct Teacher {
    rng: Rng,
    victim: std::net::Ipv4Addr,
    out: ControlOutput,
    xid: u32,
}

impl Teacher {
    fn teach(&mut self, platform: &mut ControllerPlatform, sources: usize) {
        for _ in 0..sources {
            let data = gen::flood_packet(&mut self.rng, self.victim).to_bytes();
            let pi = PacketIn {
                buffer_id: None,
                total_len: data.len() as u16,
                in_port: PortNo::Physical(3),
                reason: PacketInReason::NoMatch,
                data,
            };
            self.xid += 1;
            self.out.reset();
            platform.handle_packet_in(DatapathId(1), Xid(self.xid), &pi, &mut self.out);
        }
    }
}

/// Sources an onset teaches the applications before migration takes the
/// flood away (5000 pps for about 60 ms), and sources each 20 ms telemetry
/// tick adds afterwards through the cache's 150 pps re-raising.
const ONSET_SOURCES: usize = 300;
const SOURCES_PER_TICK: usize = 3;

/// Times the analyzer's and the migration agent's public calls in
/// process, on the state one episode builds: a cold conversion and
/// dispatch after the onset, then fifty incremental rounds.
fn layer_micro(outcome: &mut Outcome, spans: &mut Tracer, seed: u64, hosts: &[Host]) {
    let config = sut::attack_config();
    let mut platform = sut::attack_platform(&hosts[0]);
    let mut teacher = Teacher {
        rng: Rng::new(seed, 3000),
        victim: hosts[1].ip,
        out: ControlOutput::new(),
        xid: 0,
    };
    teacher.teach(&mut platform, ONSET_SOURCES);
    let mut analyzer = Analyzer::offline(platform.apps());
    let rules = spans.span("analyzer.convert.cold", 0, || {
        analyzer.convert(platform.apps())
    });
    let update = spans.span("analyzer.dispatch", 0, || {
        analyzer.dispatch(rules, config.cookie, 0.0)
    });
    let first_update = update.len();
    for round in 1..=50u64 {
        teacher.teach(&mut platform, SOURCES_PER_TICK);
        spans.span("analyzer.detect_changes", round, || {
            std::hint::black_box(analyzer.detect_changes(platform.apps()));
        });
        let rules = spans.span("analyzer.convert.incremental", round, || {
            analyzer.convert(platform.apps())
        });
        spans.span("analyzer.dispatch.incremental", round, || {
            std::hint::black_box(analyzer.dispatch(rules, config.cookie, round as f64 * 0.02));
        });
    }
    for round in 0..200u64 {
        let mut agent = MigrationAgent::new(
            config,
            floodguard::cache::new_handle(&config.cache),
            CACHE_PORT,
        );
        spans.span("migration.install", round, || {
            std::hint::black_box(agent.install_migration(DatapathId(1), &sut::ATTACK_PORTS));
        });
    }
    let layers = spans.layers();
    let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ns());
    outcome.set(
        "analyzer.convert_cold_ms",
        mean("analyzer.convert.cold") / 1e6,
    );
    outcome.set(
        "analyzer.convert_incr_ms",
        mean("analyzer.convert.incremental") / 1e6,
    );
    outcome.set("analyzer.dispatch_us", mean("analyzer.dispatch") / 1e3);
    outcome.set(
        "analyzer.detect_changes_us",
        mean("analyzer.detect_changes") / 1e3,
    );
    outcome.set("analyzer.rules_per_update", first_update as f64);
    outcome.set(
        "analyzer.cache_hit_ratio",
        analyzer.cache_stats().hit_rate(),
    );
    outcome.set("migration.install_us", mean("migration.install") / 1e3);
    outcome.note(format!(
        "analyzer in process: {ONSET_SOURCES} learned sources -> {first_update} rules in the first update; then 50 rounds of {SOURCES_PER_TICK} new sources each"
    ));
}

/// What a run measured over all its episodes.
struct Measured {
    /// Flood's first packet → migration rule at the switch, per episode.
    onsets: Vec<f64>,
    /// Flood's first packet → end of the first rule burst, per episode.
    readies: Vec<f64>,
    /// Sorted delays of probes injected under the migration rule, ms.
    defended: Vec<f64>,
    /// Sorted delays of probes injected while the flood was on, ms.
    under_flood: Vec<f64>,
    /// Sorted lateness of flood injections, µs.
    late: Vec<f64>,
    cpu_ms_per_s: f64,
    gen_share: f64,
}

/// The per-layer metrics of a traced attack run.
fn traced_metrics(
    outcome: &mut Outcome,
    args: &RunArgs,
    reports: Vec<EpisodeReport>,
    measured: &Measured,
    hosts: &[Host],
) {
    let Measured {
        onsets,
        readies,
        defended,
        under_flood,
        late,
        cpu_ms_per_s,
        gen_share,
    } = measured;
    let mut spans = Tracer::new(true);
    let mut received = 0u64;
    let mut dropped = 0u64;
    let mut rejected = 0u64;
    let mut sends_blocked = 0u64;
    let mut budget_exhausted = 0u64;
    let mut hwm = 0u64;
    for r in reports {
        spans.absorb(r.spans);
        spans.absorb(r.device.tracer);
        received += r.cache_stats.received;
        dropped += r.cache_stats.dropped;
        rejected += r.cache_stats.rejected;
        sends_blocked += r.counters.sends_blocked;
        budget_exhausted += r.counters.budget_exhausted;
        hwm = hwm.max(r.counters.send_queue_hwm);
    }
    let layers = spans.layers();
    let mean_us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ns() / 1e3);
    outcome.set(
        "floodguard.on_message_us_per_pktin",
        mean_us("floodguard.on_message"),
    );
    outcome.set(
        "floodguard.on_device_message_us",
        mean_us("floodguard.on_device_message"),
    );
    outcome.set(
        "floodguard.telemetry_tick_us.idle",
        mean_us("floodguard.on_telemetry.idle"),
    );
    outcome.set(
        "floodguard.telemetry_tick_us.defense",
        mean_us("floodguard.on_telemetry.defense"),
    );
    if !onsets.is_empty() {
        outcome.set("floodguard.onset_ms", stats::median(onsets));
    }
    if !readies.is_empty() {
        outcome.set("floodguard.rules_ready_ms", stats::median(readies));
    }
    if !defended.is_empty() {
        outcome.set(
            "cache.probe_residency_p50_ms",
            stats::percentile(defended, 50.0),
        );
    }
    outcome.set("floodguard.ctrl_cpu_ms_per_s", *cpu_ms_per_s);
    outcome.set("cache.on_tick_us", mean_us("cache.on_tick"));
    if let Some(on_packets) = layers.get("cache.on_packets") {
        // The span's request id is the batch size.
        outcome.set(
            "cache.on_packet_ns",
            on_packets.total_ns as f64 / on_packets.req_sum.max(1) as f64,
        );
    }
    outcome.set("cache.rejected_at_teardown", rejected as f64);
    if !under_flood.is_empty() {
        outcome.set("floodguard.probe_flood_tail_ms", tail(under_flood).1);
    }
    outcome.set("cache.drop_ratio", dropped as f64 / received.max(1) as f64);
    outcome.set("ofchannel.sends_blocked", sends_blocked as f64);
    outcome.set("ofchannel.budget_exhausted", budget_exhausted as f64);
    outcome.set("ofchannel.send_queue_hwm", hwm as f64);
    outcome.set("gen.cpu_share", *gen_share);
    outcome.set("gen.threads", 2.0);
    if !late.is_empty() {
        outcome.set("gen.flood_late_p99_us", stats::percentile(late, 99.0));
    }
    layer_micro(outcome, &mut spans, args.seed, hosts);
    super::write_spans(outcome, &spans, "live_attack", args.seed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_fits_whole_episodes() {
        assert_eq!(Timing::fitting(24.0), (6, Timing::STANDARD));
        assert_eq!(Timing::fitting(4.0), (1, Timing::STANDARD));
        let (n, short) = Timing::fitting(2.0);
        assert_eq!(n, 1);
        assert!((short.total() - 2.0).abs() < 1e-9);
        assert!((short.flood - 0.75).abs() < 1e-9);
        let t = Timing::STANDARD;
        assert!(!t.flooding(0.2) && t.flooding(0.5) && t.flooding(1.99) && !t.flooding(2.0));
    }

    #[test]
    fn first_burst_ends_at_a_gap() {
        assert_eq!(first_burst_end(&[1.08, 1.081, 1.09, 1.2, 1.21]), Some(1.09));
        assert_eq!(first_burst_end(&[2.0]), Some(2.0));
        assert_eq!(first_burst_end(&[]), None);
    }

    /// A two-second miniature of the whole relay loop: generator-driven
    /// switch, real cache, real endpoint, real FloodGuard over loopback.
    #[test]
    fn miniature_episode_reaches_defense() {
        let timing = Timing {
            lead_in: 0.2,
            flood: 1.0,
            calm: 0.8,
        };
        let hosts = gen::hosts(5, 2, &[1]);
        let r = run_episode(5, 0, timing, &hosts, false);
        assert!(r.switch.error.is_none(), "{:?}", r.switch.error);
        assert!(r.device.error.is_none(), "{:?}", r.device.error);
        let states: Vec<State> = r.seen.transitions.iter().map(|t| t.to).collect();
        assert!(states.contains(&State::Defense), "transitions: {states:?}");
        assert!(
            r.switch.onset_ms().is_some(),
            "migration rule reached the switch"
        );
        assert!(
            r.cache_stats.received > 0,
            "the cache absorbed flood packets"
        );
        assert!(r.stats.reraised > 0, "the cache re-raised packet_ins");
        let defended = r.switch.probes.iter().filter(|p| p.defended).count();
        assert!(defended > 0, "some probes were injected under migration");
    }
}
