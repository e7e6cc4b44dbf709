//! A many-switch load harness for the async controller endpoint.
//!
//! Simulates a fleet of OpenFlow switches as lightweight async tasks on
//! one runtime, driven by the caller's thread: each task dials the controller once, through the
//! same routine a [`crate::SwitchEndpoint`] redials with, completes the
//! HELLO/FEATURES handshake as datapath `base + i`, then generates
//! table-miss `packet_in` traffic at a configured per-switch rate through
//! the crate's one connection type (the `conn` module), whose reader drains
//! (and echo-answers) the controller's frames.
//!
//! The driver reports what the paper's scale question needs measured:
//! connect-to-handshake latency per switch, handshake failures, and the
//! `packet_in` throughput sustained over a window that starts only after
//! the whole fleet is connected — connect-phase warmup never inflates it.

use std::cell::{Cell, RefCell};
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::packet::Packet;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};

use crate::config::ChannelConfig;
use crate::conn::{self, SendBudget, SendError};
use crate::counters::ChannelCounters;

/// Swarm shape and pacing.
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Number of simulated switches.
    pub switches: usize,
    /// `packet_in` generation rate per switch, packets/second (min 1).
    pub pps_per_switch: f64,
    /// Length of the measured throughput window, started once the whole
    /// fleet is connected.
    pub window: Duration,
    /// Delay between consecutive connection starts (spreads the dial
    /// thundering herd).
    pub connect_stagger: Duration,
    /// How long to wait for the whole fleet to finish connecting.
    pub connect_deadline: Duration,
    /// First simulated datapath id; switch `i` is `base + i`.
    pub dpid_base: u64,
    /// Per-connection transport settings (handshake timeout etc.).
    pub channel: ChannelConfig,
}

impl Default for SwarmConfig {
    fn default() -> SwarmConfig {
        SwarmConfig {
            switches: 64,
            pps_per_switch: 10.0,
            window: Duration::from_secs(2),
            connect_stagger: Duration::from_millis(2),
            connect_deadline: Duration::from_secs(60),
            dpid_base: 1000,
            channel: ChannelConfig::default(),
        }
    }
}

/// What one swarm run measured.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Switches that completed the handshake.
    pub connected: usize,
    /// Switches whose dial or handshake failed.
    pub handshake_failures: usize,
    /// Connect-to-handshake-complete latency per connected switch, sorted
    /// ascending.
    pub connect_latencies: Vec<Duration>,
    /// `packet_in` frames the connections' send queues accepted during the
    /// measured window.
    pub packet_ins_sent: u64,
    /// `packet_in` frames refused by a full send queue during the window —
    /// dropped and counted, not retried.
    pub packet_ins_shed: u64,
    /// Frames received from the controller during the whole run.
    pub frames_in: u64,
    /// Actual measured window length.
    pub window: Duration,
}

impl SwarmReport {
    /// Connect-latency quantile (`q` in [0, 1]) by nearest-rank over the
    /// sorted latencies; zero when nothing connected.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.connect_latencies.is_empty() {
            return Duration::ZERO;
        }
        let n = self.connect_latencies.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.connect_latencies[rank - 1]
    }

    /// Sustained `packet_in` throughput over the measured window.
    pub fn throughput_pps(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packet_ins_sent as f64 / secs
    }
}

/// Shared run state between the driver and the switch tasks.
struct SwarmShared {
    cfg: SwarmConfig,
    connected: Cell<usize>,
    failed: Cell<usize>,
    sent: Cell<u64>,
    shed: Cell<u64>,
    /// The fleet's transport counters; `frames_in` is what the controller
    /// sent it.
    counters: Arc<ChannelCounters>,
    /// Unlimited: a load generator sheds only what a connection's own queue
    /// bound refuses.
    budget: Rc<SendBudget>,
    latencies: RefCell<Vec<Duration>>,
}

/// Runs one swarm against a listening controller at `addr` on the calling
/// thread, blocking until the measured window completes.
///
/// # Errors
///
/// Fails when the runtime cannot start or when not a single switch managed
/// to connect before the deadline.
pub fn run_swarm(addr: SocketAddr, config: &SwarmConfig) -> std::io::Result<SwarmReport> {
    let rt = tokio::runtime::Runtime::new()?;
    let shared = Rc::new(SwarmShared {
        cfg: *config,
        connected: Cell::new(0),
        failed: Cell::new(0),
        sent: Cell::new(0),
        shed: Cell::new(0),
        counters: Arc::new(ChannelCounters::new()),
        budget: SendBudget::new(usize::MAX),
        latencies: RefCell::new(Vec::with_capacity(config.switches)),
    });

    for i in 0..config.switches {
        rt.spawn(switch_task(addr, i, Rc::clone(&shared)));
    }

    // Dropping the runtime drops every switch task, and with it the task's
    // reader, which shuts the socket down: stopping is closing the sockets.
    rt.block_on(drive(shared))
}

/// Waits for the fleet to settle, then measures one throughput window.
async fn drive(shared: Rc<SwarmShared>) -> std::io::Result<SwarmReport> {
    let cfg = shared.cfg;
    let connect_started = Instant::now();
    loop {
        let done = shared.connected.get() + shared.failed.get();
        if done >= cfg.switches {
            break;
        }
        if connect_started.elapsed() > cfg.connect_deadline {
            break;
        }
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    let connected = shared.connected.get();
    if connected == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "no switch completed the handshake before the deadline",
        ));
    }

    let sent0 = shared.sent.get();
    let shed0 = shared.shed.get();
    let window_started = Instant::now();
    tokio::time::sleep(cfg.window).await;
    let window = window_started.elapsed();
    let sent1 = shared.sent.get();
    let shed1 = shared.shed.get();

    let mut latencies = shared.latencies.take();
    latencies.sort_unstable();
    Ok(SwarmReport {
        connected,
        handshake_failures: shared.failed.get(),
        connect_latencies: latencies,
        packet_ins_sent: sent1 - sent0,
        packet_ins_shed: shed1 - shed0,
        frames_in: shared.counters.snapshot().frames_in,
        window,
    })
}

/// One simulated switch: one dial (connect and handshake, each under its
/// [`ChannelConfig`] deadline), then a frame-draining reader task
/// beside a paced `packet_in` generator.
async fn switch_task(addr: SocketAddr, index: usize, shared: Rc<SwarmShared>) {
    let cfg = shared.cfg;
    tokio::time::sleep(cfg.connect_stagger * index as u32).await;

    let started = Instant::now();
    let features = swarm_features(cfg.dpid_base + index as u64);
    let handshaken = async {
        let (stream, residue) = conn::dial(addr, &features, &cfg.channel).await.ok()?;
        let latency = started.elapsed();
        let ends = conn::open(
            stream,
            residue,
            &cfg.channel,
            &shared.budget,
            &shared.counters,
        );
        Some((ends.ok()?, latency))
    };
    let Some(((conn, mut reader), latency)) = handshaken.await else {
        shared.failed.set(shared.failed.get() + 1);
        return;
    };
    shared.latencies.borrow_mut().push(latency);
    shared.connected.set(shared.connected.get() + 1);

    // The reader counts the controller's frames and answers its keepalive;
    // flow-mods installed on a simulated switch have no table to land in.
    tokio::spawn(async move { while reader.next().await.is_some() {} });

    // Paced `packet_in` generation at the configured rate; each packet is a
    // fresh table-miss (unique source per sequence number).
    let interval = Duration::from_secs_f64(1.0 / cfg.pps_per_switch.max(1.0));
    let mut next = Instant::now();
    let mut seq: u64 = 0;
    loop {
        seq += 1;
        match conn.send(&packet_in(index, seq)) {
            Ok(()) => shared.sent.set(shared.sent.get() + 1),
            Err(SendError::Backpressure | SendError::Oversize) => {
                shared.shed.set(shared.shed.get() + 1);
            }
            Err(SendError::Closed) => return,
        };
        next += interval;
        let now = Instant::now();
        if next > now {
            tokio::time::sleep(next - now).await;
        } else {
            // Fell behind (oversubscribed core): don't try to catch up with
            // a burst, just resume pacing from now.
            next = now;
        }
    }
}

/// The features a simulated swarm switch announces: two physical ports,
/// no buffering.
fn swarm_features(dpid: u64) -> FeaturesReply {
    FeaturesReply {
        datapath_id: DatapathId(dpid),
        n_buffers: 0,
        n_tables: 1,
        ports: vec![PortNo::Physical(1), PortNo::Physical(2)],
    }
}

/// A unique-source UDP table-miss as a `packet_in`.
fn packet_in(index: usize, seq: u64) -> OfMessage {
    let src = 0x0a00_0000u32 | ((index as u32) << 12) | (seq as u32 & 0xfff);
    let pkt = Packet::udp(
        MacAddr::from_u64(0x5_0000_0000 + ((index as u64) << 16) + (seq & 0xffff)),
        MacAddr::from_u64(0x6_0000_0001),
        std::net::Ipv4Addr::from(src),
        std::net::Ipv4Addr::new(10, 200, 0, 1),
        4000 + (seq % 1000) as u16,
        53,
        128,
    );
    let data = pkt.to_bytes();
    let pi = PacketIn {
        buffer_id: None,
        total_len: data.len() as u16,
        in_port: PortNo::Physical(1),
        reason: PacketInReason::NoMatch,
        data,
    };
    OfMessage::new(Xid(seq as u32), OfBody::PacketIn(pi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let report = SwarmReport {
            connected: 4,
            handshake_failures: 0,
            connect_latencies: vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(3),
                Duration::from_millis(100),
            ],
            packet_ins_sent: 500,
            packet_ins_shed: 0,
            frames_in: 0,
            window: Duration::from_secs(2),
        };
        assert_eq!(report.latency_quantile(0.0), Duration::from_millis(1));
        assert_eq!(report.latency_quantile(0.5), Duration::from_millis(2));
        assert_eq!(report.latency_quantile(0.99), Duration::from_millis(100));
        assert_eq!(report.latency_quantile(1.0), Duration::from_millis(100));
        assert!((report.throughput_pps() - 250.0).abs() < 1e-9);

        let empty = SwarmReport {
            connected: 0,
            handshake_failures: 1,
            connect_latencies: Vec::new(),
            packet_ins_sent: 0,
            packet_ins_shed: 0,
            frames_in: 0,
            window: Duration::ZERO,
        };
        assert_eq!(empty.latency_quantile(0.5), Duration::ZERO);
        assert_eq!(empty.throughput_pps(), 0.0);
    }
}
