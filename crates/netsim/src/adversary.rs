//! Adaptive adversaries: closed-loop, slow, pulsed and botnet-scale
//! attackers.
//!
//! The open-loop floods in [`crate::host`] model the paper's evaluation
//! traffic — fixed-PPS spoofed packets. The attackers here model the threat
//! families the related work shows actually break deployed defenses:
//!
//! - [`SlowDrain`] — slowloris-style connection exhaustion (Lukaseder et
//!   al.): open handshakes and trickle keepalives so the victim's
//!   [`crate::synstate::SynTracker`] (and any proxy tracking state per
//!   connection) saturates at near-zero packets per second.
//! - [`PulsedFlood`] — on/off bursts whose duty cycle is tuned against the
//!   detector's rate window, so the anomaly score sits just under the
//!   migration threshold while the time-averaged damage stays real.
//! - [`ProbeAndEvade`] — a closed-loop attacker that reads data-plane
//!   feedback (handshake RTT on its own probes) to binary-search the
//!   defense's engagement threshold, then exploits just under it while
//!   forging packets inside the reserved TOS tag band.
//! - [`BotnetFlood`] — millions of distinct spoofed 5-tuples from a pure
//!   counter-indexed generator (no per-source allocation), sized to blow
//!   out the exact-match flow-table tier and the cache's per-lane FIFOs.
//!
//! # Determinism contract
//!
//! Every adversary is an ordinary [`TrafficSource`], scheduled on its host's
//! partition queue, so the PDES engine's determinism guarantees apply
//! unchanged: emission *times* are pure arithmetic over the config and a
//! monotone emission counter (never wall clock, never feedback-dependent
//! jitter), and all randomness is drawn either from the owning host's
//! per-entity splitmix64 stream (`emit_into`'s `rng`) or from the
//! counter-indexed [`splitmix64`] generator. Closed-loop state
//! ([`ProbeAndEvade`]'s feedback, [`SlowDrain`]'s keepalive cursor) only
//! changes inside `emit_into`/`on_receive`, both of which run in the host's
//! own partition — so byte-identical artifacts at any `FG_SIM_THREADS`
//! come for free.
//!
//! # Feedback channel
//!
//! Closed-loop attackers observe the data plane exactly the way a real bot
//! does: they send probes from their *own* address and watch what comes
//! back ([`TrafficSource::on_receive`]). There is no side channel into the
//! defense — an adversary learns only from packet timing and loss on its
//! own flows.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use ofproto::types::MacAddr;
use rand::rngs::StdRng;
use rand::{splitmix64, Rng, GOLDEN_GAMMA};

use crate::host::TrafficSource;
use crate::packet::{FlowTag, Packet, Payload, Transport};

/// First TCP source port used by [`SlowDrain`] connections.
pub const SLOW_DRAIN_PORT_BASE: u16 = 10000;

/// First TCP source port used by [`ProbeAndEvade`] feedback probes.
pub const EVADE_PROBE_PORT_BASE: u16 = 52000;

/// Counters every adversary maintains; read through [`StatsHandle`] after a
/// run (the source itself is boxed inside the host).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdversaryStats {
    /// Packets emitted in total.
    pub emitted: u64,
    /// Keepalive refreshes sent ([`SlowDrain`]).
    pub keepalives: u64,
    /// On-bursts started ([`PulsedFlood`]).
    pub bursts: u64,
    /// Feedback probes sent ([`ProbeAndEvade`]).
    pub probes_sent: u64,
    /// Feedback probes answered in time.
    pub probes_answered: u64,
    /// Packets emitted with a forged reserved-band TOS tag.
    pub forged_tags: u64,
    /// Converged engagement-threshold estimate in packets per second
    /// ([`ProbeAndEvade`]; 0 until the search finishes).
    pub threshold_estimate_pps: f64,
    /// Rate the exploit phase settled on, in packets per second.
    pub exploit_rate_pps: f64,
}

/// Shared view of an adversary's [`AdversaryStats`].
///
/// The source itself is boxed inside its host once attached; scenarios
/// clone a handle before attaching so the counters stay readable after the
/// run. Writes happen only from the owning host's partition, so there is
/// never lock contention on the hot path.
#[derive(Debug, Clone, Default)]
pub struct StatsHandle(Arc<Mutex<AdversaryStats>>);

impl StatsHandle {
    fn new() -> StatsHandle {
        StatsHandle::default()
    }

    /// Reads the current counters.
    pub fn get(&self) -> AdversaryStats {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn update(&self, f: impl FnOnce(&mut AdversaryStats)) {
        let mut guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard);
    }
}

/// An attacker workload: a [`TrafficSource`] with a name and observable
/// counters. See the module docs for the determinism contract every
/// implementation must uphold.
pub trait Adversary: TrafficSource {
    /// Stable identifier used in matrix rows and artifacts.
    fn name(&self) -> &'static str;

    /// Handle to this adversary's counters (clone it before boxing the
    /// adversary into a host).
    fn stats_handle(&self) -> StatsHandle;
}

// ---------------------------------------------------------------------------
// SlowDrain
// ---------------------------------------------------------------------------

/// Parameters for [`SlowDrain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowDrainConfig {
    /// Concurrent connections to hold open against the victim.
    pub connections: u32,
    /// Rate at which the initial connection ramp opens handshakes.
    pub open_rate_pps: f64,
    /// Each connection is refreshed once per this interval (seconds) —
    /// the whole point: total PPS ≈ `connections / keepalive_interval`,
    /// orders of magnitude below any rate threshold.
    pub keepalive_interval: f64,
    /// Attack start time.
    pub start: f64,
    /// Attack stop time.
    pub stop: f64,
    /// Victim TCP port the connections target.
    pub dst_port: u16,
}

impl Default for SlowDrainConfig {
    fn default() -> SlowDrainConfig {
        SlowDrainConfig {
            connections: 400,
            open_rate_pps: 400.0,
            keepalive_interval: 2.0,
            start: 1.0,
            stop: 4.0,
            dst_port: 80,
        }
    }
}

/// Slowloris-style connection-state exhaustion.
///
/// Opens `connections` real (unspoofed) handshakes against the victim,
/// never completes them, and re-SYNs each one every `keepalive_interval`
/// so the victim's half-open entries stay fresh and cannot expire. Every
/// packet is individually indistinguishable from a legitimate client's
/// first SYN — there is nothing for a rate detector to see. The defense
/// that works is a bounded tracker with oldest-incomplete eviction
/// ([`crate::synstate::SynTracker`]), which converts unbounded state growth
/// into bounded occupancy plus an `evicted_incomplete` signal.
pub struct SlowDrain {
    cfg: SlowDrainConfig,
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    emitted: u64,
    stats: StatsHandle,
}

impl SlowDrain {
    /// Creates the attacker from `(src_mac, src_ip)` toward the victim.
    pub fn new(
        cfg: SlowDrainConfig,
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
    ) -> SlowDrain {
        SlowDrain {
            cfg,
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            emitted: 0,
            stats: StatsHandle::new(),
        }
    }

    /// Source port used by connection `conn`.
    pub fn source_port(conn: u32) -> u16 {
        SLOW_DRAIN_PORT_BASE + (conn % 20000) as u16
    }

    /// Time of emission `i`: the ramp opens connections back to back, then
    /// keepalives cycle through them forever.
    fn emission_time(&self, i: u64) -> f64 {
        let conns = u64::from(self.cfg.connections.max(1));
        let open_rate = self.cfg.open_rate_pps.max(1e-9);
        if i < conns {
            self.cfg.start + i as f64 / open_rate
        } else {
            let ramp_end = self.cfg.start + conns as f64 / open_rate;
            let spacing = self.cfg.keepalive_interval.max(1e-9) / conns as f64;
            ramp_end + (i - conns) as f64 * spacing
        }
    }

    fn connection_of(&self, i: u64) -> u32 {
        let conns = u64::from(self.cfg.connections.max(1));
        if i < conns {
            i as u32
        } else {
            ((i - conns) % conns) as u32
        }
    }
}

impl TrafficSource for SlowDrain {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.cfg.connections == 0 {
            return None;
        }
        let t = self.emission_time(self.emitted);
        if t >= self.cfg.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, _rng: &mut StdRng, out: &mut Vec<Packet>) {
        let i = self.emitted;
        self.emitted += 1;
        let conn = self.connection_of(i);
        let keepalive = i >= u64::from(self.cfg.connections.max(1));
        // A plain SYN from the attacker's real address: the victim answers
        // SYN-ACK and holds responder half-open state; the attacker never
        // sends the final ACK. A keepalive is simply the same SYN again,
        // which refreshes the victim's half-open timestamp.
        out.push(Packet::tcp(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.dst_ip,
            Self::source_port(conn),
            self.cfg.dst_port,
            Transport::TCP_SYN,
            64,
        ));
        self.stats.update(|s| {
            s.emitted += 1;
            if keepalive {
                s.keepalives += 1;
            }
        });
    }
}

impl Adversary for SlowDrain {
    fn name(&self) -> &'static str {
        "slow_drain"
    }

    fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------------
// PulsedFlood
// ---------------------------------------------------------------------------

/// Parameters for [`PulsedFlood`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsedFloodConfig {
    /// Instantaneous rate during an on-burst.
    pub burst_pps: f64,
    /// Packets per on-burst.
    pub burst_packets: u32,
    /// Full on+off cycle length (seconds).
    pub period: f64,
    /// Attack start time.
    pub start: f64,
    /// Attack stop time.
    pub stop: f64,
    /// Bytes per packet.
    pub packet_len: usize,
}

impl PulsedFloodConfig {
    /// Tunes a burst train to sit just under a sliding-window rate
    /// detector: each burst carries one packet fewer than
    /// `window × threshold_pps` rounds up to, and the off-time exceeds the
    /// window so no window ever spans two bursts. The detector's windowed
    /// rate therefore never reaches its threshold, while the burst itself
    /// still lands at full `burst_pps` intensity.
    pub fn under_threshold(
        window: f64,
        threshold_pps: f64,
        burst_pps: f64,
        start: f64,
        stop: f64,
    ) -> PulsedFloodConfig {
        let budget = (window * threshold_pps).ceil() as u32;
        let burst_packets = budget.saturating_sub(1).max(1);
        let on = f64::from(burst_packets) / burst_pps.max(1e-9);
        PulsedFloodConfig {
            burst_pps,
            burst_packets,
            // Off-time = window + 40% slack, so staleness decay and window
            // eviction both fully clear between bursts.
            period: on + window * 1.4,
            start,
            stop,
            packet_len: 64,
        }
    }
}

impl Default for PulsedFloodConfig {
    fn default() -> PulsedFloodConfig {
        // Tuned against the default detector: 0.25 s window, 60 pps
        // capacity → 14-packet bursts at 400 pps, 0.385 s period.
        PulsedFloodConfig::under_threshold(0.25, 60.0, 400.0, 1.0, 4.0)
    }
}

/// On/off spoofed UDP flood tuned against the detector's rate window.
///
/// During a burst the instantaneous rate is far over threshold, but each
/// burst stays under the detector's per-window packet budget and the gaps
/// let the window clear — the score peaks just below the migration
/// threshold every cycle. The counter-measure is peak-hold score decay
/// (the detector remembers recent peaks instead of forgetting them the
/// moment the window slides past).
pub struct PulsedFlood {
    cfg: PulsedFloodConfig,
    src_mac: MacAddr,
    emitted: u64,
    stats: StatsHandle,
}

impl PulsedFlood {
    /// Creates the burst train; spoofed headers are drawn from the owning
    /// host's RNG stream.
    pub fn new(cfg: PulsedFloodConfig, src_mac: MacAddr) -> PulsedFlood {
        PulsedFlood {
            cfg,
            src_mac,
            emitted: 0,
            stats: StatsHandle::new(),
        }
    }

    fn emission_time(&self, i: u64) -> f64 {
        let per_burst = u64::from(self.cfg.burst_packets.max(1));
        let burst = i / per_burst;
        let k = i % per_burst;
        self.cfg.start + burst as f64 * self.cfg.period + k as f64 / self.cfg.burst_pps.max(1e-9)
    }
}

impl TrafficSource for PulsedFlood {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.cfg.burst_pps <= 0.0 {
            return None;
        }
        let t = self.emission_time(self.emitted);
        if t >= self.cfg.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, rng: &mut StdRng, out: &mut Vec<Packet>) {
        let i = self.emitted;
        self.emitted += 1;
        let starts_burst = i % u64::from(self.cfg.burst_packets.max(1)) == 0;
        let src_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_mac = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        out.push(
            Packet::udp(
                self.src_mac,
                dst_mac,
                src_ip,
                dst_ip,
                rng.gen(),
                rng.gen(),
                self.cfg.packet_len,
            )
            .with_tag(FlowTag::Attack),
        );
        self.stats.update(|s| {
            s.emitted += 1;
            if starts_burst {
                s.bursts += 1;
            }
        });
    }
}

impl Adversary for PulsedFlood {
    fn name(&self) -> &'static str {
        "pulsed_flood"
    }

    fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------------
// ProbeAndEvade
// ---------------------------------------------------------------------------

/// Parameters for [`ProbeAndEvade`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeAndEvadeConfig {
    /// Lower bound of the rate search (pps).
    pub lo_pps: f64,
    /// Upper bound of the rate search (pps).
    pub hi_pps: f64,
    /// Binary-search epochs after the calibration epoch.
    pub epochs: u32,
    /// Seconds per epoch.
    pub epoch_len: f64,
    /// Attack start time.
    pub start: f64,
    /// Attack stop time.
    pub stop: f64,
    /// A probe RTT above `baseline × rtt_degrade` (or a lost probe) reads
    /// as "the defense engaged at this rate".
    pub rtt_degrade: f64,
    /// Exploit rate = `lo × exploit_margin` — stay safely under the
    /// estimated threshold.
    pub exploit_margin: f64,
    /// Bytes per flood packet.
    pub packet_len: usize,
}

impl Default for ProbeAndEvadeConfig {
    fn default() -> ProbeAndEvadeConfig {
        ProbeAndEvadeConfig {
            lo_pps: 20.0,
            hi_pps: 800.0,
            epochs: 6,
            epoch_len: 0.4,
            start: 1.0,
            stop: 4.0,
            rtt_degrade: 4.0,
            exploit_margin: 0.9,
            packet_len: 64,
        }
    }
}

/// Which part of its program a [`ProbeAndEvade`] attacker is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvadePhase {
    /// Epoch 0: probe with no flood to learn the clean-path RTT.
    Calibrate,
    /// Binary-search epochs: flood at the midpoint rate, probe, bisect.
    Search,
    /// Flood just under the converged estimate until `stop`.
    Exploit,
}

/// Closed-loop threshold-evading attacker.
///
/// Runs a calibration epoch (no flood) to learn its own clean handshake
/// RTT, then binary-searches `[lo_pps, hi_pps]`: each epoch floods at the
/// current midpoint while sending one handshake probe from the attacker's
/// real address. A probe that comes back slower than `rtt_degrade ×`
/// baseline — or not at all — means the defense (or the saturated control
/// path) engaged, so the search moves down; otherwise it moves up. After
/// `epochs` rounds it floods at `lo × exploit_margin` until `stop`. Flood
/// packets also forge TOS values inside the reserved migration-tag band
/// (0xfb–0xff), which strict ingress validation must strip.
pub struct ProbeAndEvade {
    cfg: ProbeAndEvadeConfig,
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    lo: f64,
    hi: f64,
    epoch: u32,
    /// Events emitted in the current epoch (0 = the probe).
    k: u64,
    /// Flood rate for the current epoch (0 while calibrating).
    cur_rate: f64,
    probe_sent_at: Option<f64>,
    probe_rtt: Option<f64>,
    baseline_rtt: Option<f64>,
    exploit_rate: f64,
    exploit_emitted: u64,
    counter: u64,
    stats: StatsHandle,
}

impl ProbeAndEvade {
    /// Creates the attacker from `(src_mac, src_ip)` toward the victim.
    pub fn new(
        cfg: ProbeAndEvadeConfig,
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
    ) -> ProbeAndEvade {
        let lo = cfg.lo_pps.max(0.0);
        let hi = cfg.hi_pps.max(lo);
        ProbeAndEvade {
            cfg,
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            lo,
            hi,
            epoch: 0,
            k: 0,
            cur_rate: 0.0,
            probe_sent_at: None,
            probe_rtt: None,
            baseline_rtt: None,
            exploit_rate: 0.0,
            exploit_emitted: 0,
            counter: 0,
            stats: StatsHandle::new(),
        }
    }

    /// Source port of the probe sent in `epoch`.
    pub fn probe_port(epoch: u32) -> u16 {
        EVADE_PROBE_PORT_BASE + (epoch % 1000) as u16
    }

    /// Flood rate the attacker is currently running (pps).
    pub fn current_rate(&self) -> f64 {
        match self.phase() {
            EvadePhase::Calibrate => 0.0,
            EvadePhase::Search => self.cur_rate,
            EvadePhase::Exploit => self.exploit_rate,
        }
    }

    fn phase(&self) -> EvadePhase {
        if self.epoch == 0 {
            EvadePhase::Calibrate
        } else if self.epoch <= self.cfg.epochs {
            EvadePhase::Search
        } else {
            EvadePhase::Exploit
        }
    }

    fn epoch_start(&self, epoch: u32) -> f64 {
        self.cfg.start + f64::from(epoch) * self.cfg.epoch_len
    }

    /// Next emission in the current epoch, or `None` when the epoch has
    /// nothing more to send (the next event is the following epoch's
    /// probe, handled by the rollover in `emit_into`).
    fn pending_in_epoch(&self) -> Option<f64> {
        let te = self.epoch_start(self.epoch);
        if self.k == 0 {
            return Some(te);
        }
        if self.cur_rate <= 0.0 {
            return None;
        }
        let t = te + self.k as f64 / self.cur_rate;
        if t >= self.epoch_start(self.epoch + 1) {
            None
        } else {
            Some(t)
        }
    }

    /// Scores the epoch that just ended and bisects.
    fn settle_epoch(&mut self) {
        match self.phase() {
            EvadePhase::Calibrate => {
                // A lost calibration probe (no flood was running) leaves a
                // conservative baseline so later comparisons stay finite.
                self.baseline_rtt = Some(self.probe_rtt.unwrap_or(0.01));
            }
            EvadePhase::Search => {
                let baseline = self.baseline_rtt.unwrap_or(0.01).max(1e-6);
                let engaged = match self.probe_rtt {
                    None => true,
                    Some(rtt) => rtt > baseline * self.cfg.rtt_degrade,
                };
                if engaged {
                    self.hi = self.cur_rate;
                } else {
                    self.lo = self.cur_rate;
                }
            }
            EvadePhase::Exploit => {}
        }
        self.epoch += 1;
        self.k = 0;
        self.probe_sent_at = None;
        self.probe_rtt = None;
        if self.phase() == EvadePhase::Search {
            self.cur_rate = 0.5 * (self.lo + self.hi);
        } else if self.phase() == EvadePhase::Exploit && self.exploit_rate == 0.0 {
            self.exploit_rate = self.lo * self.cfg.exploit_margin;
            self.stats.update(|s| {
                s.threshold_estimate_pps = self.lo;
                s.exploit_rate_pps = self.exploit_rate;
            });
        }
    }

    fn exploit_start(&self) -> f64 {
        self.epoch_start(self.cfg.epochs + 1)
    }

    fn forged_flood_packet(&mut self, rng: &mut StdRng) -> Packet {
        let src_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_mac = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        let mut pkt = Packet::udp(
            self.src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            rng.gen(),
            rng.gen(),
            self.cfg.packet_len,
        )
        .with_tag(FlowTag::Attack);
        // Forge a migration tag: if the data plane trusted it, the flood
        // would ride the reserved band straight through tag classification.
        pkt.set_tos(crate::switch::RESERVED_TOS_MIN + (self.counter % 5) as u8);
        self.counter += 1;
        self.stats.update(|s| s.forged_tags += 1);
        pkt
    }
}

impl TrafficSource for ProbeAndEvade {
    fn peek_next(&self, now: f64) -> Option<f64> {
        let t = match self.phase() {
            EvadePhase::Exploit => {
                if self.exploit_rate <= 0.0 {
                    return None;
                }
                self.exploit_start() + self.exploit_emitted as f64 / self.exploit_rate
            }
            _ => self
                .pending_in_epoch()
                // Epoch exhausted: wake at the next epoch boundary to
                // settle the bisection and send the next probe.
                .unwrap_or_else(|| self.epoch_start(self.epoch + 1)),
        };
        if t >= self.cfg.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, time: f64, rng: &mut StdRng, out: &mut Vec<Packet>) {
        // Roll over any epochs the clock has passed (the off-phase of a
        // calm epoch emits nothing, so several boundaries can pass between
        // emissions only when rates are tiny).
        while self.phase() != EvadePhase::Exploit && time >= self.epoch_start(self.epoch + 1) {
            self.settle_epoch();
        }
        match self.phase() {
            EvadePhase::Exploit => {
                if self.exploit_rate <= 0.0 {
                    return;
                }
                self.exploit_emitted += 1;
                let pkt = self.forged_flood_packet(rng);
                out.push(pkt);
                self.stats.update(|s| s.emitted += 1);
            }
            _ => {
                if self.k == 0 {
                    // Per-epoch feedback probe: a real handshake attempt
                    // from the attacker's own address.
                    self.probe_sent_at = Some(time);
                    out.push(Packet::tcp(
                        self.src_mac,
                        self.dst_mac,
                        self.src_ip,
                        self.dst_ip,
                        Self::probe_port(self.epoch),
                        80,
                        Transport::TCP_SYN,
                        64,
                    ));
                    self.stats.update(|s| {
                        s.emitted += 1;
                        s.probes_sent += 1;
                    });
                } else {
                    let pkt = self.forged_flood_packet(rng);
                    out.push(pkt);
                    self.stats.update(|s| s.emitted += 1);
                }
                self.k += 1;
            }
        }
    }

    fn on_receive(&mut self, pkt: &Packet, now: f64) -> Vec<Packet> {
        // Feedback: a SYN-ACK answering this epoch's probe.
        if pkt.dst_mac == self.src_mac {
            if let Payload::Ipv4 {
                transport:
                    Transport::Tcp {
                        dst_port, flags, ..
                    },
                ..
            } = pkt.payload
            {
                if flags & Transport::TCP_SYN != 0
                    && flags & Transport::TCP_ACK != 0
                    && dst_port == Self::probe_port(self.epoch)
                {
                    if let Some(sent) = self.probe_sent_at.take() {
                        self.probe_rtt = Some((now - sent).max(0.0));
                        self.stats.update(|s| s.probes_answered += 1);
                    }
                }
            }
        }
        Vec::new()
    }
}

impl Adversary for ProbeAndEvade {
    fn name(&self) -> &'static str {
        "probe_evade"
    }

    fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------------
// BotnetFlood
// ---------------------------------------------------------------------------

/// Parameters for [`BotnetFlood`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BotnetFloodConfig {
    /// Aggregate flood rate across the whole botnet.
    pub rate_pps: f64,
    /// Distinct spoofed 5-tuples the generator cycles through.
    pub sources: u64,
    /// Attack start time.
    pub start: f64,
    /// Attack stop time.
    pub stop: f64,
    /// Bytes per packet.
    pub packet_len: usize,
    /// Stream selector mixed into every derived tuple, so two botnets in
    /// one simulation draw disjoint-looking source sets.
    pub stream: u64,
}

impl Default for BotnetFloodConfig {
    fn default() -> BotnetFloodConfig {
        BotnetFloodConfig {
            rate_pps: 1600.0,
            sources: 1 << 22,
            start: 1.0,
            stop: 4.0,
            packet_len: 64,
            stream: 0x426f_744e_6574, // "BotNet"
        }
    }
}

/// One spoofed flow identity derived by [`BotnetFlood::tuple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpoofedTuple {
    /// Spoofed source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Destination MAC (random: every packet is a table miss).
    pub dst_mac: MacAddr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Protocol selector: 0 = UDP, 1 = TCP SYN, 2 = ICMP, 3 = other IP.
    pub proto: u8,
}

/// Botnet-scale source diversity: millions of distinct spoofed 5-tuples.
///
/// Identities are derived on the fly from `splitmix64(stream, index)` — the
/// generator holds one counter regardless of `sources`, so "4 million bots"
/// costs the same memory as one. Protocols cycle deterministically across
/// UDP/TCP/ICMP/other so every per-protocol cache lane takes load. Each
/// tuple is new to the exact-match flow-table tier, so every packet is a
/// miss; the defense's miss path (cache FIFOs, packet-in rate limits) takes
/// the full brunt.
pub struct BotnetFlood {
    cfg: BotnetFloodConfig,
    src_mac: MacAddr,
    emitted: u64,
    stats: StatsHandle,
}

impl BotnetFlood {
    /// Creates the botnet flood; `src_mac` is the compromised edge host's
    /// real L2 address (L3 identities are all spoofed).
    pub fn new(cfg: BotnetFloodConfig, src_mac: MacAddr) -> BotnetFlood {
        BotnetFlood {
            cfg,
            src_mac,
            emitted: 0,
            stats: StatsHandle::new(),
        }
    }

    /// Derives bot `i`'s flow identity (pure function of config + index).
    pub fn tuple(&self, i: u64) -> SpoofedTuple {
        let idx = if self.cfg.sources == 0 {
            i
        } else {
            i % self.cfg.sources
        };
        let h1 = splitmix64(self.cfg.stream.wrapping_add(idx.wrapping_mul(GOLDEN_GAMMA)));
        let h2 = splitmix64(h1 ^ 0x5851_f42d_4c95_7f2d);
        SpoofedTuple {
            src_ip: Ipv4Addr::from((h1 >> 32) as u32),
            dst_ip: Ipv4Addr::from(h1 as u32),
            dst_mac: MacAddr::from_u64(h2 & 0xfeff_ffff_ffff),
            src_port: (h2 >> 48) as u16,
            dst_port: (h2 >> 32) as u16,
            proto: (idx % 4) as u8,
        }
    }

    fn packet_for(&self, t: SpoofedTuple) -> Packet {
        let pkt = match t.proto {
            0 => Packet::udp(
                self.src_mac,
                t.dst_mac,
                t.src_ip,
                t.dst_ip,
                t.src_port,
                t.dst_port,
                self.cfg.packet_len,
            ),
            1 => Packet::tcp(
                self.src_mac,
                t.dst_mac,
                t.src_ip,
                t.dst_ip,
                t.src_port,
                t.dst_port,
                Transport::TCP_SYN,
                self.cfg.packet_len,
            ),
            2 => Packet::icmp(
                self.src_mac,
                t.dst_mac,
                t.src_ip,
                t.dst_ip,
                8,
                self.cfg.packet_len,
            ),
            _ => {
                let mut p = Packet::udp(
                    self.src_mac,
                    t.dst_mac,
                    t.src_ip,
                    t.dst_ip,
                    t.src_port,
                    t.dst_port,
                    self.cfg.packet_len,
                );
                if let Payload::Ipv4 {
                    ref mut transport, ..
                } = p.payload
                {
                    // GRE: lands in the cache's "other" lane.
                    *transport = Transport::Other { proto: 47 };
                }
                p
            }
        };
        pkt.with_tag(FlowTag::Attack)
    }
}

impl TrafficSource for BotnetFlood {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.cfg.rate_pps <= 0.0 {
            return None;
        }
        let t = self.cfg.start + self.emitted as f64 / self.cfg.rate_pps;
        if t >= self.cfg.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, _rng: &mut StdRng, out: &mut Vec<Packet>) {
        let i = self.emitted;
        self.emitted += 1;
        let tuple = self.tuple(i);
        out.push(self.packet_for(tuple));
        self.stats.update(|s| s.emitted += 1);
    }
}

impl Adversary for BotnetFlood {
    fn name(&self) -> &'static str {
        "botnet_flood"
    }

    fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn mac(n: u64) -> MacAddr {
        MacAddr::from_u64(n)
    }

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    /// Drains a source's full schedule, returning (time, packets) pairs.
    fn drain(s: &mut impl TrafficSource, r: &mut StdRng) -> Vec<(f64, Vec<Packet>)> {
        let mut events = Vec::new();
        let mut now = 0.0;
        while let Some(t) = s.peek_next(now) {
            let mut out = Vec::new();
            s.emit_into(t, r, &mut out);
            events.push((t, out));
            now = t;
            assert!(events.len() < 100_000, "schedule must terminate");
        }
        events
    }

    #[test]
    fn slow_drain_ramps_then_trickles() {
        let cfg = SlowDrainConfig {
            connections: 4,
            open_rate_pps: 4.0,
            keepalive_interval: 1.0,
            start: 0.0,
            stop: 3.0,
            dst_port: 80,
        };
        let mut s = SlowDrain::new(cfg, mac(3), ip(3), mac(2), ip(2));
        let handle = s.stats_handle();
        let events = drain(&mut s, &mut rng());
        // Ramp: 4 opens over 1 s; then keepalives every 0.25 s until stop.
        assert!((events[0].0 - 0.0).abs() < 1e-9);
        assert!((events[3].0 - 0.75).abs() < 1e-9);
        assert!(
            (events[4].0 - 1.0).abs() < 1e-9,
            "first keepalive at ramp end"
        );
        assert!((events[5].0 - 1.25).abs() < 1e-9);
        let stats = handle.get();
        assert_eq!(stats.emitted, events.len() as u64);
        assert_eq!(stats.keepalives, stats.emitted - 4);
        // Keepalives revisit each connection once per interval, in order.
        let ports: Vec<u16> = events
            .iter()
            .map(|(_, pkts)| match pkts[0].payload {
                Payload::Ipv4 {
                    transport: Transport::Tcp { src_port, .. },
                    ..
                } => src_port,
                _ => panic!("expected tcp"),
            })
            .collect();
        assert_eq!(&ports[0..4], &ports[4..8], "keepalive cycle == open order");
    }

    #[test]
    fn slow_drain_saturates_victim_half_open_state() {
        let cfg = SlowDrainConfig {
            connections: 8,
            open_rate_pps: 8.0,
            keepalive_interval: 1.0,
            start: 0.0,
            stop: 4.0,
            dst_port: 80,
        };
        let mut s = SlowDrain::new(cfg, mac(3), ip(3), mac(2), ip(2));
        let mut victim = Host::new(mac(2), ip(2));
        let mut r = rng();
        for (t, pkts) in drain(&mut s, &mut r) {
            for p in pkts {
                victim.receive(&p, t);
            }
        }
        // Every connection is half-open at the victim and none completed;
        // keepalives refresh rather than add entries.
        assert_eq!(victim.syn.half_open(), 8);
        assert_eq!(victim.syn.established(), 0);
        assert!(victim.syn.stats().responded > 8, "keepalives re-respond");
    }

    #[test]
    fn pulsed_flood_stays_under_window_budget() {
        let cfg = PulsedFloodConfig::under_threshold(0.25, 60.0, 400.0, 0.0, 4.0);
        assert_eq!(cfg.burst_packets, 14, "one under the 15-packet budget");
        let mut f = PulsedFlood::new(cfg, mac(3));
        let handle = f.stats_handle();
        let events = drain(&mut f, &mut rng());
        let times: Vec<f64> = events.iter().map(|(t, _)| *t).collect();
        // No sliding 0.25 s window ever holds a full budget of packets.
        for (i, &t) in times.iter().enumerate() {
            let in_window = times[i..].iter().take_while(|&&u| u < t + 0.25).count();
            assert!(in_window <= 14, "window starting at {t} holds {in_window}");
        }
        assert!(handle.get().bursts >= 5, "several on/off cycles ran");
        assert_eq!(handle.get().emitted % 14, 0, "whole bursts only");
    }

    #[test]
    fn probe_and_evade_converges_on_synthetic_feedback() {
        // Synthetic data plane: probes come back fast below 300 pps and
        // 10x degraded at or above it. The bisection must converge to a
        // bracket around 300 and exploit just under it.
        let cfg = ProbeAndEvadeConfig {
            epochs: 8,
            start: 0.0,
            stop: 5.0,
            ..ProbeAndEvadeConfig::default()
        };
        let mut a = ProbeAndEvade::new(cfg, mac(3), ip(3), mac(2), ip(2));
        let handle = a.stats_handle();
        let mut r = rng();
        let mut now = 0.0;
        while let Some(t) = a.peek_next(now) {
            let mut out = Vec::new();
            a.emit_into(t, &mut r, &mut out);
            now = t;
            for p in &out {
                let is_probe = matches!(
                    p.payload,
                    Payload::Ipv4 {
                        transport: Transport::Tcp { flags, .. },
                        ..
                    } if flags == Transport::TCP_SYN
                );
                if is_probe {
                    let rtt = if a.current_rate() >= 300.0 {
                        0.05
                    } else {
                        0.005
                    };
                    let reply = Packet::tcp(
                        mac(2),
                        mac(3),
                        ip(2),
                        ip(3),
                        80,
                        ProbeAndEvade::probe_port(a.epoch),
                        Transport::TCP_SYN | Transport::TCP_ACK,
                        64,
                    );
                    a.on_receive(&reply, t + rtt);
                }
            }
        }
        let stats = handle.get();
        assert!(stats.probes_sent >= 9, "calibration + every search epoch");
        assert_eq!(stats.probes_answered, stats.probes_sent);
        assert!(
            stats.threshold_estimate_pps > 250.0 && stats.threshold_estimate_pps < 300.0,
            "estimate {} should bracket the synthetic threshold",
            stats.threshold_estimate_pps
        );
        assert!(stats.exploit_rate_pps < 300.0 * 0.95);
        assert!(stats.forged_tags > 0, "flood packets forge reserved TOS");
    }

    #[test]
    fn probe_and_evade_forges_only_reserved_band() {
        let mut a =
            ProbeAndEvade::new(ProbeAndEvadeConfig::default(), mac(3), ip(3), mac(2), ip(2));
        let mut r = rng();
        for _ in 0..32 {
            let p = a.forged_flood_packet(&mut r);
            let tos = p.tos().expect("flood packets carry a TOS");
            assert!(tos >= crate::switch::RESERVED_TOS_MIN);
        }
    }

    #[test]
    fn botnet_tuples_are_distinct_and_cycle_protocols() {
        let f = BotnetFlood::new(BotnetFloodConfig::default(), mac(3));
        let n = 1u64 << 16;
        let mut seen = HashSet::with_capacity(n as usize);
        for i in 0..n {
            let t = f.tuple(i);
            assert_eq!(t.proto, (i % 4) as u8);
            assert!(seen.insert((t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.proto)));
        }
        // Identities wrap at the configured universe size.
        assert_eq!(f.tuple(0), f.tuple(f.cfg.sources));
    }

    #[test]
    fn botnet_schedule_is_fixed_rate_and_deterministic() {
        let cfg = BotnetFloodConfig {
            rate_pps: 100.0,
            start: 1.0,
            stop: 2.0,
            ..BotnetFloodConfig::default()
        };
        let mut a = BotnetFlood::new(cfg, mac(3));
        let mut b = BotnetFlood::new(cfg, mac(3));
        let ea = drain(&mut a, &mut rng());
        let eb = drain(&mut b, &mut rng());
        assert_eq!(ea.len(), 100);
        for ((ta, pa), (tb, pb)) in ea.iter().zip(&eb) {
            assert_eq!(ta, tb);
            assert_eq!(format!("{:?}", pa), format!("{:?}", pb));
        }
    }
}
