//! Cross-implementation equivalence: the calendar queue (`WheelQueue`) and
//! the engine's `EventQueue` (the same wheel over slot keys, payloads in a
//! slab) must produce pop sequences bit-identical to the reference binary
//! heap (`HeapQueue`) under workloads shaped like
//! what the engine actually generates — short service delays, same-time
//! delivery bursts from saturation attacks, sparse second-scale maintenance
//! timers, and past-time clamps — not just uniform random times.
//!
//! The in-crate proptest (`netsim::sched::tests::wheel_matches_heap`)
//! covers random op interleavings; this suite locks the engine-like shapes
//! and the full-drain determinism the resilience tests depend on.

use netsim::sched::{EventQueue, HeapQueue, WheelQueue};
use proptest::prelude::*;

/// Drives the three schedulers through the same op sequence, asserting
/// lockstep.
fn assert_lockstep(ops: &[(u8, f64)]) -> Result<(), TestCaseError> {
    let mut heap: HeapQueue<usize> = HeapQueue::new();
    let mut wheel: WheelQueue<usize> = WheelQueue::new();
    let mut engine: EventQueue<usize> = EventQueue::new();
    for (i, &(kind, t)) in ops.iter().enumerate() {
        match kind {
            // Absolute schedule (may be in the past → clamp path).
            0 => {
                heap.schedule(t, i);
                wheel.schedule(t, i);
                engine.schedule(t, i);
            }
            // Relative schedule from the (identical) current clock.
            1 => {
                heap.schedule_in(t, i);
                wheel.schedule_in(t, i);
                engine.schedule_in(t, i);
            }
            // Pop.
            _ => {
                let expected = heap.pop();
                prop_assert_eq!(expected, wheel.pop());
                prop_assert_eq!(expected, engine.pop());
                prop_assert_eq!(heap.now(), wheel.now());
                prop_assert_eq!(heap.now(), engine.now());
            }
        }
    }
    loop {
        let (a, b, c) = (heap.pop(), wheel.pop(), engine.pop());
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
        if a.is_none() {
            break;
        }
    }
    Ok(())
}

/// An engine-shaped op: mostly short delays ahead of now, with bursts at
/// quantized timestamps (attack deliveries), occasional long timers
/// (telemetry/maintenance — the overflow tier) and past-time schedules.
fn engine_shaped_op() -> impl Strategy<Value = (u8, f64)> {
    prop_oneof![
        // Service-time-scale relative delays (5..500 us).
        (1u32..100).prop_map(|k| (1u8, k as f64 * 5e-6)),
        // Quantized absolute times: forces same-time bursts and ties.
        (0u32..400).prop_map(|k| (0u8, k as f64 * 1e-3)),
        // Maintenance-scale timers, far beyond any ring horizon.
        (1u32..10).prop_map(|k| (0u8, k as f64 * 1.5)),
        // Past or negative times: clamp to now.
        Just((0u8, -1.0)),
        // Pops, weighted so queues drain as often as they fill.
        Just((2u8, 0.0)),
        Just((2u8, 0.0)),
        Just((2u8, 0.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_shaped_workloads_match(ops in proptest::collection::vec(engine_shaped_op(), 0..1200)) {
        assert_lockstep(&ops)?;
    }
}

/// A deterministic replay of a 1k-host attack second: every host emits at
/// the same quantized tick (the paper's saturation pattern), each emission
/// schedules a short-delay delivery, and the controller adds sparse timers.
#[test]
fn attack_burst_replay_matches() {
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut wheel: WheelQueue<u32> = WheelQueue::new();
    let mut engine: EventQueue<u32> = EventQueue::new();
    let mut id = 0u32;
    for tick in 0..50 {
        let t = tick as f64 * 0.02;
        for host in 0..1_000u32 {
            heap.schedule(t, id);
            wheel.schedule(t, id);
            engine.schedule(t, id);
            id += 1;
            // Per-packet delivery a service time later.
            let d = t + 1e-5 + (host as f64 % 7.0) * 1e-6;
            heap.schedule(d, id);
            wheel.schedule(d, id);
            engine.schedule(d, id);
            id += 1;
        }
        // Telemetry timer into the overflow tier.
        heap.schedule(t + 5.0, id);
        wheel.schedule(t + 5.0, id);
        engine.schedule(t + 5.0, id);
        id += 1;
        // Drain roughly half the backlog before the next tick.
        for _ in 0..1_100 {
            let expected = heap.pop();
            assert_eq!(expected, wheel.pop());
            assert_eq!(expected, engine.pop());
        }
    }
    loop {
        let (a, b, c) = (heap.pop(), wheel.pop(), engine.pop());
        assert_eq!(a, b);
        assert_eq!(a, c);
        if a.is_none() {
            break;
        }
    }
}

/// Partition-equivalence properties for the parallel engine: for arbitrary
/// random tree topologies, link latencies, seeds and traffic rates, the
/// sharded engine must deliver the identical event sequence — same event
/// count, same controller totals, same per-host packets at bit-identical
/// times — no matter how switches are grouped into partitions or how many
/// worker threads drain them. `Partitioner::Single` is the reference
/// single-queue configuration.
mod partition_equivalence {
    use netsim::host::{CbrSource, HostId, UdpFlood};
    use netsim::{ControlOutput, ControlPlane, Partitioner, Simulation, SwitchProfile};
    use ofproto::actions::Action;
    use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketOut};
    use ofproto::types::{DatapathId, MacAddr, PortNo};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// A stateless hub: every `packet_in` is flooded back out, so all
    /// traffic takes a controller round-trip and a tree-wide broadcast.
    struct FloodHub;

    impl ControlPlane for FloodHub {
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
                out.charge("hub", 80e-6);
                out.send(
                    dpid,
                    OfMessage::new(
                        msg.xid,
                        OfBody::PacketOut(PacketOut {
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

    /// A random tree topology plus workload parameters.
    #[derive(Debug, Clone)]
    struct TopoSpec {
        /// `parents[i]` wires switch `i + 1` up to an earlier switch.
        parents: Vec<usize>,
        /// Hosts attached to each switch (1..=2).
        hosts_per_switch: Vec<usize>,
        /// Link latency in microseconds.
        latency_us: u32,
        /// Engine seed.
        seed: u64,
        /// CBR rate in packets/sec.
        rate: f64,
    }

    fn topo_spec() -> impl Strategy<Value = TopoSpec> {
        (
            2usize..=5,
            proptest::collection::vec(any::<u64>(), 4),
            proptest::collection::vec(1usize..=2, 5),
            20u32..=2000,
            any::<u64>(),
            prop_oneof![Just(100.0), Just(250.0), Just(400.0)],
        )
            .prop_map(
                |(n, parent_picks, hosts_per_switch, latency_us, seed, rate)| TopoSpec {
                    // Switch i+1 attaches to a uniformly chosen earlier
                    // switch, so the shape ranges from a path to a star.
                    parents: (1..n)
                        .map(|i| (parent_picks[i - 1] % i as u64) as usize)
                        .collect(),
                    hosts_per_switch: hosts_per_switch[..n].to_vec(),
                    latency_us,
                    seed,
                    rate,
                },
            )
    }

    fn build(
        spec: &TopoSpec,
        partitioner: Partitioner,
        threads: usize,
    ) -> (Simulation, Vec<HostId>) {
        let n = spec.parents.len() + 1;
        let mut sim = Simulation::new(spec.seed);
        sim.set_partitioner(partitioner);
        sim.set_threads(threads);
        sim.set_link_latency(f64::from(spec.latency_us) * 1e-6);
        let switches: Vec<_> = (0..n)
            .map(|i| {
                sim.add_switch(
                    SwitchProfile::software(),
                    (1..=(spec.hosts_per_switch[i] + n) as u16).collect(),
                )
            })
            .collect();
        let mut hosts = Vec::new();
        let mut used_ports: Vec<u16> = (0..n).map(|i| spec.hosts_per_switch[i] as u16).collect();
        for (i, (&sw, &hn)) in switches.iter().zip(&spec.hosts_per_switch).enumerate() {
            for h in 0..hn {
                let id = hosts.len() as u64;
                hosts.push(sim.add_host(
                    sw,
                    (h + 1) as u16,
                    MacAddr::from_u64(0x1000 + id),
                    Ipv4Addr::new(10, 9, i as u8, (h + 1) as u8),
                ));
            }
        }
        for (child0, &p) in spec.parents.iter().enumerate() {
            let c = child0 + 1;
            used_ports[c] += 1;
            used_ports[p] += 1;
            sim.connect_switches(switches[c], used_ports[c], switches[p], used_ports[p]);
        }
        sim.set_control_plane(Box::new(FloodHub));

        // Workload: a spoofed flood from the first host (random destination
        // draws exercise the per-entity RNGs) and a CBR stream from the
        // last host back to the first (crosses the whole tree).
        let first = hosts[0];
        let last = *hosts.last().expect("at least two hosts");
        let (first_mac, first_ip) = {
            let h = sim.host(first);
            (h.mac, h.ip)
        };
        let (last_mac, last_ip) = {
            let h = sim.host(last);
            (h.mac, h.ip)
        };
        sim.host_mut(first).add_source(Box::new(UdpFlood::new(
            first_mac, spec.rate, 0.05, 0.25, 120,
        )));
        sim.host_mut(last).add_source(Box::new(CbrSource::new(
            last_mac, last_ip, first_mac, first_ip, spec.rate, 0.0, 0.3, 300,
        )));
        (sim, hosts)
    }

    type Fingerprint = (u64, u64, u64, Vec<(u64, Vec<u64>)>);

    fn run_case(spec: &TopoSpec, partitioner: Partitioner, threads: usize) -> Fingerprint {
        let (mut sim, hosts) = build(spec, partitioner, threads);
        sim.run_until(0.3);
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
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_partitions_match_single_queue(
            spec in topo_spec(),
            threads in 1usize..=4,
            blocks in 1usize..=3,
        ) {
            let reference = run_case(&spec, Partitioner::Single, 1);
            // The reference run must have real traffic in it, or the
            // property is vacuous.
            prop_assert!(reference.0 > 100, "workload produced only {} events", reference.0);
            let sharded = run_case(&spec, Partitioner::PerSwitch, threads);
            prop_assert_eq!(&reference, &sharded, "per-switch sharding diverged");
            let blocked = run_case(&spec, Partitioner::Blocks(blocks), 2);
            prop_assert_eq!(&reference, &blocked, "block partitioning diverged");
        }
    }
}
