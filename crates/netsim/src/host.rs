//! End hosts and traffic workloads: bulk transfer (iperf-like), spoofed UDP
//! flood, new-flow latency probes and pings.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use ofproto::types::MacAddr;
use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::BandwidthMeter;
use crate::packet::{FlowTag, Packet, Transport};
use crate::synstate::SynTracker;

/// A host identifier (index into the simulation's host table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// A workload attached to a host.
///
/// Sources are polled by the engine: [`TrafficSource::peek_next`] names the
/// time of the next spontaneous emission and [`TrafficSource::emit_into`]
/// produces it. Closed-loop sources react to received packets via
/// [`TrafficSource::on_receive`].
pub trait TrafficSource: Send {
    /// Time of the next spontaneous emission at or after `now`, if any.
    fn peek_next(&self, now: f64) -> Option<f64>;

    /// Appends the packets due at `time` to `out`.
    ///
    /// The engine passes a recycled scratch buffer, so steady-state sources
    /// (the attack floods) allocate nothing per emission.
    fn emit_into(&mut self, time: f64, rng: &mut StdRng, out: &mut Vec<Packet>);

    /// Reacts to a packet received by the owning host.
    fn on_receive(&mut self, _pkt: &Packet, _now: f64) -> Vec<Packet> {
        Vec::new()
    }
}

/// A simulated end host.
///
/// A host keeps answers, not packets: counters, the meter's declared
/// windows and bounded handshake state. Its memory does not grow with the
/// packets delivered to it; a caller that wants arrivals attaches an
/// [`Arrivals`] recorder, which keeps only what its filter lets through.
pub struct Host {
    /// The host's MAC address.
    pub mac: MacAddr,
    /// The host's IPv4 address.
    pub ip: Ipv4Addr,
    /// Received-bytes meter: declare a window on it with
    /// [`BandwidthMeter::watch`] before the run to read its bandwidth after.
    pub meter: BandwidthMeter,
    /// Packets received in total (batch-expanded).
    pub received_packets: u64,
    /// TCP handshake state: half-open vs established accounting. Gives
    /// SYN-proxy/cookie defenses a real handshake signal — the host
    /// completes three-way handshakes it initiated instead of ignoring
    /// SYN-ACKs.
    pub syn: SynTracker,
    /// Whether this host sends the final ACK for handshakes it initiated.
    /// Disable to model a one-shot sender whose flows stay half-open — the
    /// completing ACK is a fresh PacketIn that installs learned rules, which
    /// some measurements (rule-placement latency) must avoid.
    pub complete_handshakes: bool,
    sources: Vec<Box<dyn TrafficSource>>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("mac", &self.mac)
            .field("ip", &self.ip)
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl Host {
    /// Creates a host with no workloads.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Host {
        Host {
            mac,
            ip,
            meter: BandwidthMeter::new(),
            received_packets: 0,
            syn: SynTracker::default(),
            complete_handshakes: true,
            sources: Vec::new(),
        }
    }

    /// Does nothing: a host keeps no per-packet log to cap.
    ///
    /// Kept only because fgbench's `sim_repro`
    /// (`benchmark/src/workloads/sim.rs`) calls it; it goes when the
    /// benchmark stops calling it.
    pub fn set_deliveries_cap(&mut self, _cap: usize) {}

    /// Records a packet this host is emitting onto the wire (handshake
    /// accounting; the engine calls this on every source emission).
    pub fn note_sent(&mut self, pkt: &Packet, now: f64) {
        self.syn.note_sent(self.ip, pkt, now);
    }

    /// Attaches a workload; returns its index.
    pub fn add_source(&mut self, source: Box<dyn TrafficSource>) -> usize {
        self.sources.push(source);
        self.sources.len() - 1
    }

    /// Number of attached workloads.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Polls workload `idx` for its next emission time.
    pub fn peek_source(&self, idx: usize, now: f64) -> Option<f64> {
        self.sources.get(idx).and_then(|s| s.peek_next(now))
    }

    /// Emits from workload `idx`, appending to `out`.
    pub fn emit_source_into(
        &mut self,
        idx: usize,
        time: f64,
        rng: &mut StdRng,
        out: &mut Vec<Packet>,
    ) {
        if let Some(s) = self.sources.get_mut(idx) {
            s.emit_into(time, rng, out);
        }
    }

    /// Handles a packet delivered to this host.
    ///
    /// Records metrics and appends any immediate responses (bulk acks,
    /// new-flow handshake replies, ping replies and closed-loop source
    /// reactions) to `responses`. The engine passes a recycled scratch
    /// buffer, so a warm host's answer allocates nothing.
    pub fn receive_into(&mut self, pkt: &Packet, now: f64, responses: &mut Vec<Packet>) {
        self.received_packets += u64::from(pkt.batch);
        self.meter.record(now, pkt.total_bytes());
        // Auto-responders that make closed-loop workloads work.
        if let FlowTag::Bulk { flow, seq } = pkt.tag {
            let mut ack = Packet::udp(
                self.mac,
                pkt.src_mac,
                self.ip,
                source_ip(pkt).unwrap_or(Ipv4Addr::UNSPECIFIED),
                5001,
                5001,
                64,
            );
            ack.tag = FlowTag::BulkAck { flow, seq };
            responses.push(ack);
        }
        // A real TCP stack answers any SYN addressed to this host — even
        // when the packet detoured through controller bytes and lost its
        // simulation tag (flood packet-outs re-parse packets).
        let is_plain_syn = matches!(
            pkt.payload,
            crate::packet::Payload::Ipv4 {
                transport: Transport::Tcp { flags, .. },
                ..
            } if flags == Transport::TCP_SYN
        );
        if is_plain_syn && pkt.dst_mac == self.mac {
            self.syn.note_responded(pkt, now);
            let mut rsp = Packet::tcp(
                self.mac,
                pkt.src_mac,
                self.ip,
                source_ip(pkt).unwrap_or(Ipv4Addr::UNSPECIFIED),
                dest_port(pkt).unwrap_or(0),
                src_port(pkt).unwrap_or(0),
                Transport::TCP_SYN | Transport::TCP_ACK,
                64,
            );
            if let FlowTag::NewFlow { id } = pkt.tag {
                rsp.tag = FlowTag::NewFlowReply { id };
            }
            responses.push(rsp);
        }
        // Complete handshakes this host initiated: a SYN-ACK for a tracked
        // half-open flow gets the final ACK (echoing the peer's sequence
        // number, which is how SYN-cookie proxies validate the client).
        let tcp_flags = match pkt.payload {
            crate::packet::Payload::Ipv4 {
                transport: Transport::Tcp { flags, .. },
                ..
            } => Some(flags),
            _ => None,
        };
        if tcp_flags == Some(Transport::TCP_SYN | Transport::TCP_ACK)
            && pkt.dst_mac == self.mac
            && self.complete_handshakes
        {
            if let Some((seq, ack)) = self.syn.note_syn_ack(pkt, now) {
                responses.push(
                    Packet::tcp(
                        self.mac,
                        pkt.src_mac,
                        self.ip,
                        source_ip(pkt).unwrap_or(Ipv4Addr::UNSPECIFIED),
                        dest_port(pkt).unwrap_or(0),
                        src_port(pkt).unwrap_or(0),
                        Transport::TCP_ACK,
                        64,
                    )
                    .with_tcp_seq_ack(seq, ack),
                );
            }
        } else if tcp_flags == Some(Transport::TCP_ACK) && pkt.dst_mac == self.mac {
            self.syn.note_final_ack(pkt, now);
        }
        for source in &mut self.sources {
            responses.extend(source.on_receive(pkt, now));
        }
    }
}

/// Shared view of what an [`Arrivals`] recorder logged: `(packet, arrival
/// time)` pairs in arrival order.
///
/// The recorder is boxed inside its host once attached; take a log before
/// attaching it so the arrivals stay readable after the run.
#[derive(Debug, Clone, Default)]
pub struct ArrivalLog(Arc<Mutex<Vec<(Packet, f64)>>>);

impl ArrivalLog {
    /// The arrivals logged so far, in arrival order.
    pub fn get(&self) -> Vec<(Packet, f64)> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// A receive-only recorder: logs each packet delivered to its host that
/// passes its filter, with the arrival time.
///
/// Attach it with [`Host::add_source`]. It never emits: its `peek_next` is
/// `None`, so it schedules no event and draws no random number, and a run
/// with it attached is the run without it. Its memory is what its filter
/// lets through, not what reaches the host.
pub struct Arrivals {
    filter: Box<dyn Fn(&Packet) -> bool + Send>,
    log: ArrivalLog,
}

impl Arrivals {
    /// A recorder of the deliveries `filter` accepts.
    pub fn new(filter: impl Fn(&Packet) -> bool + Send + 'static) -> Arrivals {
        Arrivals {
            filter: Box::new(filter),
            log: ArrivalLog::default(),
        }
    }

    /// A recorder of every delivery (tests that fingerprint a whole run).
    pub fn all() -> Arrivals {
        Arrivals::new(|_| true)
    }

    /// A handle to this recorder's log (take it before attaching).
    pub fn log(&self) -> ArrivalLog {
        self.log.clone()
    }
}

impl TrafficSource for Arrivals {
    fn peek_next(&self, _now: f64) -> Option<f64> {
        None
    }

    fn emit_into(&mut self, _time: f64, _rng: &mut StdRng, _out: &mut Vec<Packet>) {}

    fn on_receive(&mut self, pkt: &Packet, now: f64) -> Vec<Packet> {
        if (self.filter)(pkt) {
            let mut log = self.log.0.lock().unwrap_or_else(|e| e.into_inner());
            log.push((*pkt, now));
        }
        Vec::new()
    }
}

fn source_ip(pkt: &Packet) -> Option<Ipv4Addr> {
    match pkt.payload {
        crate::packet::Payload::Ipv4 { src, .. } => Some(src),
        _ => None,
    }
}

fn src_port(pkt: &Packet) -> Option<u16> {
    match pkt.payload {
        crate::packet::Payload::Ipv4 {
            transport: Transport::Tcp { src_port, .. } | Transport::Udp { src_port, .. },
            ..
        } => Some(src_port),
        _ => None,
    }
}

fn dest_port(pkt: &Packet) -> Option<u16> {
    match pkt.payload {
        crate::packet::Payload::Ipv4 {
            transport: Transport::Tcp { dst_port, .. } | Transport::Udp { dst_port, .. },
            ..
        } => Some(dst_port),
        _ => None,
    }
}

/// Retransmission timeout for [`BulkSender`]: silence on the ack path this
/// long declares every in-flight batch lost and re-primes the flow from a
/// single packet, the way a real transport's RTO recovers from a path that
/// ate its window (e.g. a switch crash wiping queued packets).
pub const BULK_RTO: f64 = 0.15;

/// Closed-loop bulk sender: keeps `window` batches in flight toward a peer,
/// sending the next batch as each acknowledgement returns. Measured
/// throughput at the receiver is the achieved bandwidth (the iperf of the
/// paper's Figs. 10–11).
pub struct BulkSender {
    peer_mac: MacAddr,
    peer_ip: Ipv4Addr,
    src_ip: Ipv4Addr,
    src_mac: MacAddr,
    flow: u32,
    window: usize,
    batch: u32,
    packet_len: usize,
    start: f64,
    started: bool,
    primed: bool,
    next_seq: u64,
    in_flight: usize,
    deadline: f64,
}

impl BulkSender {
    /// Creates a sender from `(src_mac, src_ip)` toward `(peer_mac, peer_ip)`.
    ///
    /// `batch` real packets of `packet_len` bytes ride in each simulated
    /// packet; `window` batches are kept in flight.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        peer_mac: MacAddr,
        peer_ip: Ipv4Addr,
        flow: u32,
        window: usize,
        batch: u32,
        packet_len: usize,
        start: f64,
    ) -> BulkSender {
        BulkSender {
            peer_mac,
            peer_ip,
            src_ip,
            src_mac,
            flow,
            window: window.max(1),
            batch: batch.max(1),
            packet_len,
            start,
            started: false,
            primed: false,
            next_seq: 0,
            in_flight: 0,
            deadline: f64::INFINITY,
        }
    }

    fn data_packet(&mut self) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight += 1;
        Packet::udp(
            self.src_mac,
            self.peer_mac,
            self.src_ip,
            self.peer_ip,
            5001,
            5001,
            self.packet_len,
        )
        .with_batch(self.batch)
        .with_tag(FlowTag::Bulk {
            flow: self.flow,
            seq,
        })
    }
}

impl TrafficSource for BulkSender {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if !self.started {
            Some(self.start.max(now))
        } else if self.in_flight > 0 {
            // Keep a poll scheduled at the retransmission deadline; acks
            // push it forward, so it only fires when the path went silent.
            Some(self.deadline.max(now))
        } else {
            None
        }
    }

    fn emit_into(&mut self, time: f64, _rng: &mut StdRng, out: &mut Vec<Packet>) {
        if !self.started {
            self.started = true;
            self.deadline = time + BULK_RTO;
            // Prime the path with a single unbatched packet so forwarding
            // rules get installed before the full batched window flows — a
            // stand-in for a real flow's ramp-up, avoiding a whole window of
            // batched table misses that no real iperf run would experience.
            let mut probe = self.data_packet();
            probe.batch = 1;
            out.push(probe);
        } else if self.in_flight > 0 && time >= self.deadline {
            // RTO: the whole window is presumed lost (a crashed switch wipes
            // its queues, and the ack clock would otherwise starve forever).
            // Fall back to the single-packet priming probe.
            self.in_flight = 0;
            self.primed = false;
            self.deadline = time + BULK_RTO;
            let mut probe = self.data_packet();
            probe.batch = 1;
            out.push(probe);
        }
    }

    fn on_receive(&mut self, pkt: &Packet, now: f64) -> Vec<Packet> {
        if let FlowTag::BulkAck { flow, .. } = pkt.tag {
            if flow == self.flow && self.started {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.deadline = now + BULK_RTO;
                if !self.primed {
                    // The priming ack arrived: open the full window.
                    self.primed = true;
                    return (0..self.window).map(|_| self.data_packet()).collect();
                }
                return vec![self.data_packet()];
            }
        }
        Vec::new()
    }
}

/// Open-loop spoofed UDP flood — the saturation attack generator.
///
/// Every packet draws random source/destination MAC and IP addresses so it
/// misses every installed flow rule (paper §II-B).
pub struct UdpFlood {
    src_mac: MacAddr,
    rate_pps: f64,
    start: f64,
    stop: f64,
    packet_len: usize,
    emitted: u64,
}

impl UdpFlood {
    /// Creates a flood of `rate_pps` packets per second over `[start, stop)`.
    pub fn new(
        src_mac: MacAddr,
        rate_pps: f64,
        start: f64,
        stop: f64,
        packet_len: usize,
    ) -> UdpFlood {
        UdpFlood {
            src_mac,
            rate_pps,
            start,
            stop,
            packet_len,
            emitted: 0,
        }
    }

    /// Builds one spoofed packet (public so tests and the cache can craft
    /// attack traffic directly).
    pub fn spoofed_packet(&self, rng: &mut StdRng) -> Packet {
        let src_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_mac = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        let spoofed_src = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        // Keep the true L2 source half the time: real bots often spoof only
        // L3; either way every packet is a table miss.
        let src_mac = if rng.gen_bool(0.5) {
            self.src_mac
        } else {
            spoofed_src
        };
        Packet::udp(
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            rng.gen(),
            rng.gen(),
            self.packet_len,
        )
        .with_tag(FlowTag::Attack)
    }
}

impl TrafficSource for UdpFlood {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.rate_pps <= 0.0 {
            return None;
        }
        let t = self.start + self.emitted as f64 / self.rate_pps;
        if t >= self.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, rng: &mut StdRng, out: &mut Vec<Packet>) {
        self.emitted += 1;
        out.push(self.spoofed_packet(rng));
    }
}

/// Open-loop spoofed TCP SYN flood — the attack AvantGuard *can* stop,
/// used to contrast protocol-dependent defenses with FloodGuard.
pub struct SynFlood {
    src_mac: MacAddr,
    rate_pps: f64,
    start: f64,
    stop: f64,
    emitted: u64,
}

impl SynFlood {
    /// Creates a SYN flood of `rate_pps` packets per second over
    /// `[start, stop)`.
    pub fn new(src_mac: MacAddr, rate_pps: f64, start: f64, stop: f64) -> SynFlood {
        SynFlood {
            src_mac,
            rate_pps,
            start,
            stop,
            emitted: 0,
        }
    }
}

impl TrafficSource for SynFlood {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.rate_pps <= 0.0 {
            return None;
        }
        let t = self.start + self.emitted as f64 / self.rate_pps;
        if t >= self.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, rng: &mut StdRng, out: &mut Vec<Packet>) {
        self.emitted += 1;
        let src_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_mac = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        out.push(
            Packet::tcp(
                self.src_mac,
                dst_mac,
                src_ip,
                dst_ip,
                rng.gen(),
                rng.gen(),
                Transport::TCP_SYN,
                64,
            )
            .with_tag(FlowTag::Attack),
        );
    }
}

/// Open-loop flood cycling UDP, TCP SYN and ICMP with spoofed headers —
/// the adversary who "knows how our scheduling manner works and attacks the
/// various protocols" (paper §IV-C2); the round-robin cache must handle it
/// no worse than a single queue would.
pub struct MixedFlood {
    src_mac: MacAddr,
    rate_pps: f64,
    start: f64,
    stop: f64,
    emitted: u64,
}

impl MixedFlood {
    /// Creates a mixed-protocol flood of `rate_pps` packets per second.
    pub fn new(src_mac: MacAddr, rate_pps: f64, start: f64, stop: f64) -> MixedFlood {
        MixedFlood {
            src_mac,
            rate_pps,
            start,
            stop,
            emitted: 0,
        }
    }
}

impl TrafficSource for MixedFlood {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.rate_pps <= 0.0 {
            return None;
        }
        let t = self.start + self.emitted as f64 / self.rate_pps;
        if t >= self.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, rng: &mut StdRng, out: &mut Vec<Packet>) {
        let kind = self.emitted % 3;
        self.emitted += 1;
        let src_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_ip = Ipv4Addr::from(rng.gen::<u32>());
        let dst_mac = MacAddr::from_u64(rng.gen::<u64>() & 0xfeff_ffff_ffff);
        let pkt = match kind {
            0 => Packet::udp(
                self.src_mac,
                dst_mac,
                src_ip,
                dst_ip,
                rng.gen(),
                rng.gen(),
                64,
            ),
            1 => Packet::tcp(
                self.src_mac,
                dst_mac,
                src_ip,
                dst_ip,
                rng.gen(),
                rng.gen(),
                Transport::TCP_SYN,
                64,
            ),
            _ => Packet::icmp(self.src_mac, dst_mac, src_ip, dst_ip, 8, 64),
        };
        out.push(pkt.with_tag(FlowTag::Attack));
    }
}

/// One-shot new-flow probe: emits a TCP SYN at a fixed time, tagged so the
/// harness can measure first-packet delivery latency (the paper's Table IV).
pub struct NewFlowProbe {
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    id: u32,
    at: f64,
    fired: bool,
}

impl NewFlowProbe {
    /// The deterministic TCP source port probe `id` uses — deliveries can
    /// be matched on it even after the packet's simulation tag is lost in
    /// a controller byte round-trip.
    pub fn source_port(id: u32) -> u16 {
        40000 + (id % 20000) as u16
    }

    /// Creates a probe that fires at time `at`.
    pub fn new(
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        id: u32,
        at: f64,
    ) -> NewFlowProbe {
        NewFlowProbe {
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            id,
            at,
            fired: false,
        }
    }
}

impl TrafficSource for NewFlowProbe {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.fired {
            None
        } else {
            Some(self.at.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, _rng: &mut StdRng, out: &mut Vec<Packet>) {
        if self.fired {
            return;
        }
        self.fired = true;
        // Use a distinctive ephemeral port per probe so each probe is a new
        // microflow that cannot match earlier probes' rules.
        let port = Self::source_port(self.id);
        out.push(
            Packet::tcp(
                self.src_mac,
                self.dst_mac,
                self.src_ip,
                self.dst_ip,
                port,
                80,
                Transport::TCP_SYN,
                64,
            )
            .with_tag(FlowTag::NewFlow { id: self.id }),
        );
    }
}

/// Fixed-rate constant-bit-rate sender toward a known peer (open loop).
pub struct CbrSource {
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    rate_pps: f64,
    start: f64,
    stop: f64,
    packet_len: usize,
    emitted: u64,
}

impl CbrSource {
    /// Creates a CBR stream of `rate_pps` packets per second.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        rate_pps: f64,
        start: f64,
        stop: f64,
        packet_len: usize,
    ) -> CbrSource {
        CbrSource {
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            rate_pps,
            start,
            stop,
            packet_len,
            emitted: 0,
        }
    }
}

impl TrafficSource for CbrSource {
    fn peek_next(&self, now: f64) -> Option<f64> {
        if self.rate_pps <= 0.0 {
            return None;
        }
        let t = self.start + self.emitted as f64 / self.rate_pps;
        if t >= self.stop {
            None
        } else {
            Some(t.max(now))
        }
    }

    fn emit_into(&mut self, _time: f64, _rng: &mut StdRng, out: &mut Vec<Packet>) {
        self.emitted += 1;
        out.push(Packet::udp(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.dst_ip,
            6000,
            6000,
            self.packet_len,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn mac(n: u64) -> MacAddr {
        MacAddr::from_u64(n)
    }

    /// Collects one emission into a fresh vec (test convenience).
    fn emit(s: &mut impl TrafficSource, time: f64, rng: &mut StdRng) -> Vec<Packet> {
        let mut out = Vec::new();
        s.emit_into(time, rng, &mut out);
        out
    }

    #[test]
    fn bulk_sender_window_and_acks() {
        let mut s = BulkSender::new(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            4,
            10,
            1500,
            0.5,
        );
        assert_eq!(s.peek_next(0.0), Some(0.5));
        // The start emits a single unbatched priming packet.
        let burst = emit(&mut s, 0.5, &mut rng());
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].batch, 1);
        assert!(matches!(burst[0].tag, FlowTag::Bulk { flow: 7, seq: 0 }));
        // With a packet in flight the sender keeps an RTO poll scheduled.
        assert_eq!(s.peek_next(0.6), Some(0.5 + BULK_RTO), "RTO armed");
        // Before the deadline the poll is a no-op.
        assert!(emit(&mut s, 0.6, &mut rng()).is_empty());
        // The priming ack opens the full window of batched packets.
        let ack = Packet::udp(
            mac(2),
            mac(1),
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            1,
            1,
            64,
        )
        .with_tag(FlowTag::BulkAck { flow: 7, seq: 0 });
        let window = s.on_receive(&ack, 1.0);
        assert_eq!(window.len(), 4);
        assert!(window.iter().all(|p| p.batch == 10));
        // Subsequent acks release exactly one more batch each.
        let ack2 = ack.with_tag(FlowTag::BulkAck { flow: 7, seq: 1 });
        let next = s.on_receive(&ack2, 1.0);
        assert_eq!(next.len(), 1);
        assert!(matches!(next[0].tag, FlowTag::Bulk { flow: 7, seq: 5 }));
        // Acks for other flows are ignored.
        let other = ack.with_tag(FlowTag::BulkAck { flow: 9, seq: 0 });
        assert!(s.on_receive(&other, 1.0).is_empty());
    }

    #[test]
    fn bulk_sender_rto_reprimes_after_silence() {
        let mut s = BulkSender::new(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            4,
            10,
            1500,
            0.0,
        );
        let mut r = rng();
        assert_eq!(emit(&mut s, 0.0, &mut r).len(), 1);
        let ack = Packet::udp(
            mac(2),
            mac(1),
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            1,
            1,
            64,
        )
        .with_tag(FlowTag::BulkAck { flow: 7, seq: 0 });
        // Window open: four batched packets in flight.
        assert_eq!(s.on_receive(&ack, 0.01).len(), 4);
        // The path goes silent (say, a switch crash ate the window): at
        // the deadline the sender declares the window lost and re-primes
        // with a single unbatched packet instead of starving forever.
        let deadline = 0.01 + BULK_RTO;
        assert_eq!(s.peek_next(0.02), Some(deadline));
        let retry = emit(&mut s, deadline, &mut r);
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].batch, 1, "slow-start re-prime");
        // The retry's ack reopens the full window.
        let ack2 = ack.with_tag(FlowTag::BulkAck { flow: 7, seq: 5 });
        assert_eq!(s.on_receive(&ack2, deadline + 0.01).len(), 4);
    }

    #[test]
    fn udp_flood_rate_schedule() {
        let f = UdpFlood::new(mac(3), 100.0, 1.0, 2.0, 64);
        assert_eq!(f.peek_next(0.0), Some(1.0));
        let mut f = f;
        let mut r = rng();
        let mut times = Vec::new();
        while let Some(t) = f.peek_next(0.0) {
            times.push(t);
            emit(&mut f, t, &mut r);
        }
        assert_eq!(times.len(), 100, "100 pps over one second");
        assert!((times[1] - times[0] - 0.01).abs() < 1e-9);
        assert!(times.last().unwrap() < &2.0);
    }

    #[test]
    fn udp_flood_packets_are_spoofed_and_tagged() {
        let f = UdpFlood::new(mac(3), 10.0, 0.0, 1.0, 64);
        let mut r = rng();
        let a = f.spoofed_packet(&mut r);
        let b = f.spoofed_packet(&mut r);
        assert_eq!(a.tag, FlowTag::Attack);
        assert_ne!(a.flow_keys(1), b.flow_keys(1), "spoofed headers vary");
    }

    #[test]
    fn host_acks_bulk_data() {
        let mut h = Host::new(mac(2), Ipv4Addr::new(10, 0, 0, 2));
        let data = Packet::udp(
            mac(1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5001,
            5001,
            1500,
        )
        .with_batch(10)
        .with_tag(FlowTag::Bulk { flow: 1, seq: 3 });
        // Responses are appended after whatever the buffer already holds.
        let mut responses = vec![data];
        h.receive_into(&data, 2.0, &mut responses);
        assert_eq!(responses.len(), 2);
        assert!(matches!(
            responses[1].tag,
            FlowTag::BulkAck { flow: 1, seq: 3 }
        ));
        assert_eq!(h.meter.total_bytes(), 15000);
        assert_eq!(h.received_packets, 10);
    }

    #[test]
    fn arrivals_log_what_the_filter_accepts_and_emit_nothing() {
        let mut h = Host::new(mac(2), Ipv4Addr::new(10, 0, 0, 2));
        let recorder = Arrivals::new(|p| p.tag == FlowTag::NewFlow { id: 5 });
        let log = recorder.log();
        assert_eq!(recorder.peek_next(0.0), None, "schedules no event");
        h.add_source(Box::new(recorder));
        let data = Packet::udp(
            mac(1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5001,
            5001,
            1500,
        )
        .with_tag(FlowTag::Bulk { flow: 1, seq: 0 });
        let probe = data.with_tag(FlowTag::NewFlow { id: 5 });
        let mut responses = Vec::new();
        h.receive_into(&data, 1.0, &mut responses);
        h.receive_into(&probe, 1.5, &mut responses);
        h.receive_into(&data, 2.0, &mut responses);
        let logged = log.get();
        assert_eq!(logged.len(), 1);
        assert_eq!((logged[0].0.tag, logged[0].1), (probe.tag, 1.5));
        assert_eq!(responses.len(), 2, "the host still acks both bulk packets");
    }

    #[test]
    fn host_replies_to_new_flow_probe() {
        let mut h = Host::new(mac(2), Ipv4Addr::new(10, 0, 0, 2));
        let syn = Packet::tcp(
            mac(1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40001,
            80,
            Transport::TCP_SYN,
            64,
        )
        .with_tag(FlowTag::NewFlow { id: 5 });
        let mut responses = Vec::new();
        h.receive_into(&syn, 1.0, &mut responses);
        assert_eq!(responses.len(), 1);
        assert!(matches!(responses[0].tag, FlowTag::NewFlowReply { id: 5 }));
        // Reply swaps the port pair.
        match responses[0].payload {
            crate::packet::Payload::Ipv4 {
                transport:
                    Transport::Tcp {
                        src_port,
                        dst_port,
                        flags,
                        ..
                    },
                ..
            } => {
                assert_eq!(src_port, 80);
                assert_eq!(dst_port, 40001);
                assert_eq!(flags, Transport::TCP_SYN | Transport::TCP_ACK);
            }
            _ => panic!("expected tcp reply"),
        }
    }

    #[test]
    fn new_flow_probe_fires_once() {
        let mut p = NewFlowProbe::new(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 2),
            3,
            2.5,
        );
        assert_eq!(p.peek_next(0.0), Some(2.5));
        let pkts = emit(&mut p, 2.5, &mut rng());
        assert_eq!(pkts.len(), 1);
        assert!(matches!(pkts[0].tag, FlowTag::NewFlow { id: 3 }));
        assert_eq!(p.peek_next(3.0), None);
        assert!(emit(&mut p, 3.0, &mut rng()).is_empty());
    }

    #[test]
    fn cbr_emits_at_rate() {
        let mut c = CbrSource::new(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            mac(2),
            Ipv4Addr::new(10, 0, 0, 2),
            50.0,
            0.0,
            0.5,
            200,
        );
        let mut n = 0;
        let mut r = rng();
        while let Some(t) = c.peek_next(0.0) {
            emit(&mut c, t, &mut r);
            n += 1;
        }
        assert_eq!(n, 25);
    }
}
