//! What a spoofing attacker writes — the tables the applications learn —
//! must not set what the controller's own work costs (ROADMAP item 1).
//!
//! * The concrete interpreter must not copy application state: what one
//!   `packet_in` costs may depend on the handler's path, never on how many
//!   hosts the application has learned.
//! * A rule-update round of the analyzer must cost what changed since the
//!   last one, and a cold conversion no more than linearly in the state.
//!
//! A counting allocator makes the first two exact: for each of the six
//! benchmark applications, `execute` on 16-entry and on 1024-entry state
//! performs the same number of allocations of the same total size, and so
//! does `Analyzer::update` after seven new sources on 300 and on 3000
//! learned ones; and a round in which nothing changed allocates nothing.
//!
//! The attacker's rate must not set what the detector holds either: once
//! its window is warm, recording and scoring `packet_in`s at a steady rate
//! allocates nothing, below the window's run cap and at it.
//!
//! What the applications learn has a lifetime, and keeping it costs
//! nothing per packet: re-learning a known source allocates nothing and
//! writes no journal entry, an expiry sweep with nothing due allocates
//! nothing, and a map's quarantine overlay, once at its bound, holds the
//! same heap whether ten or a hundred times its bound in spoofed sources
//! went through it.
//!
//! Nor does a packet's hop through a warm simulated switch allocate: the
//! action list's output ports and the hop's forwards land in buffers the
//! switch and the engine keep. A simulated host's answer lands in the
//! engine's buffer too, and what the host holds does not grow with the
//! packets delivered to it, flood packets included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use controller::apps;
use controller::platform::{App, ControllerPlatform};
use floodguard::analyzer::Analyzer;
use floodguard::config::DetectionConfig;
use floodguard::detector::Detector;
use floodguard::{FloodGuard, FloodGuardConfig};
use netsim::host::{CbrSource, Host, UdpFlood};
use netsim::iface::{ControlOutput, ControlPlane};
use netsim::packet::{FlowTag, Packet};
use netsim::{Simulation, SwitchId, SwitchProfile};
use ofproto::actions::Action;
use ofproto::flow_match::{FlowKeys, OfMatch};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};
use policy::interp::{execute, execute_at, ConcreteDecision, Provenance};
use policy::{Env, Lifetime, Program, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// (allocations, bytes) made by this thread; tests run on threads of
    /// their own, so other tests do not disturb the count.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes allocated minus bytes freed by this thread: the live heap of
    /// whatever the thread allocated and freed itself.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// `Cell`s in thread-local storage, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

fn count(bytes: usize) {
    // Thread-local storage is gone while a thread is torn down.
    let _ = ALLOCATED.try_with(|a| {
        let (n, b) = a.get();
        a.set((n + 1, b + bytes as u64));
    });
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn host_mac(i: usize) -> MacAddr {
    MacAddr::from_u64(0x1000 + i as u64)
}

fn host_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 | i as u32)
}

/// The six applications of fgbench's `live_large_state`, each holding
/// `entries` entries of state.
fn seeded_apps(entries: usize) -> Vec<(Program, Env)> {
    let mut programs = apps::evaluation_apps();
    programs.push(apps::route::program());
    programs
        .into_iter()
        .map(|program| {
            let mut env = program.initial_env();
            match program.name.as_str() {
                "l2_learning" => (0..entries).for_each(|i| {
                    apps::l2_learning::learn_host(&mut env, host_mac(i), (i % 8 + 1) as u16)
                }),
                "l3_learning" => (0..entries).for_each(|i| {
                    apps::l3_learning::learn_host(&mut env, host_ip(i), (i % 8 + 1) as u16)
                }),
                "of_firewall" => apps::of_firewall::seed(&mut env, entries),
                "mac_blocker" => apps::mac_blocker::seed(&mut env, entries),
                "route" => apps::route::seed(&mut env, entries),
                "ip_balancer" => {} // two scalars, no table
                other => panic!("unseeded application {other}"),
            }
            (program, env)
        })
        .collect()
}

/// An application's seeding helper: `n` entries into its table.
type Seed = fn(&mut Env, usize);

/// (allocations, bytes) of seeding `n` entries into `program`'s table.
fn seed_cost(program: &Program, seed: Seed, n: usize) -> (u64, u64) {
    let mut env = program.initial_env();
    let before = ALLOCATED.with(Cell::get);
    seed(&mut env, n);
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(env.state_size(), n, "{}: seeded", program.name);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn seeding_an_administrators_table_costs_what_it_adds() {
    // Each block is one key written in place: twice the entries, twice
    // the allocations and bytes, give or take a hash table's doubling. The
    // parent copied the whole table for every block, which is quadratic:
    // about four times here.
    let seeds: [(Program, Seed); 2] = [
        (apps::of_firewall::program(), apps::of_firewall::seed),
        (apps::mac_blocker::program(), apps::mac_blocker::seed),
    ];
    for (program, seed) in &seeds {
        let (small, small_bytes) = seed_cost(program, *seed, 1000);
        let (large, large_bytes) = seed_cost(program, *seed, 2000);
        eprintln!(
            "{} {small} {small_bytes} {large} {large_bytes}",
            program.name
        );
        assert!(
            large * 10 <= small * 22 && large_bytes * 10 <= small_bytes * 22,
            "{}: ({small}, {small_bytes}) (allocations, bytes) for 1000 entries, ({large}, {large_bytes}) for 2000",
            program.name
        );
    }
}

/// (allocations, bytes) of one `execute`, and what it decided.
fn measure(program: &Program, keys: &FlowKeys, env: &mut Env) -> ((u64, u64), ConcreteDecision) {
    let before = ALLOCATED.with(Cell::get);
    let result = execute(program, keys, env);
    let after = ALLOCATED.with(Cell::get);
    let decision = result
        .expect("a seeded application does not error")
        .decision;
    ((after.0 - before.0, after.1 - before.1), decision)
}

#[test]
fn execute_allocations_do_not_depend_on_state_size() {
    // Host 0 to host 1: both learned at either size, so the handlers take
    // their table-reading paths (install towards a learned port).
    let keys = FlowKeys {
        in_port: 1,
        dl_src: host_mac(0),
        dl_dst: host_mac(1),
        dl_type: 0x0800,
        nw_src: host_ip(0),
        nw_dst: host_ip(1),
        nw_proto: 17,
        tp_src: 4000,
        tp_dst: 53,
        ..FlowKeys::default()
    };
    let mut small = seeded_apps(16);
    let mut large = seeded_apps(1024);
    assert_eq!(small.len(), 6);
    for ((program, small_env), (_, large_env)) in small.iter_mut().zip(large.iter_mut()) {
        // The first packet teaches the learning switches host 0's port;
        // measure the steady state after it.
        execute(program, &keys, small_env).expect("warm-up");
        execute(program, &keys, large_env).expect("warm-up");
        assert!(
            large_env.state_size() >= small_env.state_size(),
            "{}: seeding",
            program.name
        );
        let (small_cost, small_decision) = measure(program, &keys, small_env);
        let (large_cost, large_decision) = measure(program, &keys, large_env);
        assert_eq!(
            small_decision, large_decision,
            "{}: same path",
            program.name
        );
        assert_eq!(
            small_cost, large_cost,
            "{}: (allocations, bytes) on 16 entries vs on 1024",
            program.name
        );
    }
}

/// A platform running the six applications of fgbench's
/// `live_large_state`, each holding `entries` entries of state.
fn seeded_platform(entries: usize) -> ControllerPlatform {
    let mut platform = ControllerPlatform::new();
    for (program, env) in seeded_apps(entries) {
        let name = program.name.clone();
        platform.register(program);
        platform.app_mut(&name).expect("registered").env = env;
    }
    platform
}

/// An unbuffered packet_in of a 1400-byte UDP packet from host 0 to host
/// 1, on host 0's port: what fgbench's `live_large_state` sends.
fn large_state_packet_in() -> PacketIn {
    let data = Packet::udp(
        host_mac(0),
        host_mac(1),
        host_ip(0),
        host_ip(1),
        4000,
        53,
        1400,
    )
    .to_bytes();
    PacketIn {
        buffer_id: None,
        total_len: data.len() as u16,
        in_port: PortNo::Physical(1),
        reason: PacketInReason::NoMatch,
        data,
    }
}

/// (allocations, bytes) of the action lists `out`'s messages own.
fn reply_action_lists(out: &ControlOutput) -> (u64, u64) {
    out.messages
        .iter()
        .map(|(_, msg)| match &msg.body {
            OfBody::FlowMod(fm) => &fm.actions,
            OfBody::PacketOut(po) => &po.actions,
            other => panic!("unexpected reply {other:?}"),
        })
        .filter(|actions| actions.capacity() > 0)
        .map(|actions| {
            (
                1,
                (actions.capacity() * std::mem::size_of::<Action>()) as u64,
            )
        })
        .fold((0, 0), |(n, b), (dn, db)| (n + dn, b + db))
}

/// How many of `out`'s packet-outs flood, and the bytes of their one-action
/// lists.
fn flood_lists(out: &ControlOutput) -> (u64, u64) {
    let floods = out
        .messages
        .iter()
        .filter(|(_, msg)| {
            matches!(&msg.body, OfBody::PacketOut(po)
                if po.actions == [Action::Output(PortNo::Flood)])
        })
        .count() as u64;
    (floods, floods * std::mem::size_of::<Action>() as u64)
}

#[test]
fn a_large_state_packet_in_allocates_only_its_replies_action_lists() {
    // Host 0 to host 1 through the six applications: three installs, each
    // with a forwarding packet-out, and two floods. The parent made 12
    // allocations (216 bytes) where these replies own 8 (64): the
    // firewall's tuple key, and a second and a third copy of each install's
    // actions. Under FloodGuard it made 19 (320) where 10 (112) are owned
    // or replaced: it rebuilt every packet-out, flooding or not, growing
    // each flood's list port by port.
    let pi = large_state_packet_in();
    let dpid = DatapathId(1);
    let mut platform = seeded_platform(1024);
    let mut out = ControlOutput::new();
    // The first packet teaches the learning switches host 0's port and
    // sizes the recycled output; measure the steady state after it.
    platform.handle_packet_in(dpid, Xid(1), &pi, &mut out);
    out.reset();
    let before = ALLOCATED.with(Cell::get);
    platform.handle_packet_in(dpid, Xid(2), &pi, &mut out);
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(
        out.messages.len(),
        8,
        "three installs, each forwarded, two floods"
    );
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        reply_action_lists(&out),
        "platform: (allocations, bytes) against its replies' action lists"
    );
    // FloodGuard turns each flood into the ports it may reach: a list of
    // its own in place of the platform's one-action list.
    let (floods, flood_bytes) = flood_lists(&out);
    assert_eq!(floods, 2);
    let mut floodguard = FloodGuard::new(seeded_platform(1024), FloodGuardConfig::default(), 99);
    let features = FeaturesReply {
        datapath_id: dpid,
        n_buffers: 512,
        n_tables: 1,
        ports: [1, 2, 3, 4, 99].map(PortNo::Physical).to_vec(),
    };
    floodguard.on_switch_connect(dpid, features, 0.0, &mut out);
    let mut cost = (0, 0);
    for (xid, now) in [(1, 1e-3), (2, 2e-3)] {
        out.reset();
        let msg = OfMessage::new(Xid(xid), OfBody::PacketIn(pi.clone()));
        let before = ALLOCATED.with(Cell::get);
        floodguard.on_message(dpid, msg, now, &mut out);
        let after = ALLOCATED.with(Cell::get);
        cost = (after.0 - before.0, after.1 - before.1);
    }
    assert_eq!(flood_lists(&out), (0, 0), "every flood rewritten");
    let (lists, bytes) = reply_action_lists(&out);
    assert_eq!(
        cost,
        (lists + floods, bytes + flood_bytes),
        "FloodGuard: (allocations, bytes) against its replies' action lists and the floods it rewrote"
    );
}

/// The paper's five applications, `sources` spoofed sources learned by
/// `l2_learning` and `l3_learning` (every fourth address, leaving room for
/// [`learn_between`]).
fn flooded_apps(sources: usize) -> Vec<App> {
    let mut apps: Vec<App> = apps::evaluation_apps().into_iter().map(App::new).collect();
    for i in 0..sources {
        learn_between(&mut apps, i, 0);
    }
    apps
}

/// Teaches both learning switches the source `offset` addresses after the
/// `i`-th original one.
fn learn_between(apps: &mut [App], i: usize, offset: usize) {
    let (l2, l3) = (0, 2);
    assert_eq!(apps[l2].program.name, "l2_learning");
    assert_eq!(apps[l3].program.name, "l3_learning");
    let (at, port) = (4 * i + offset, (i % 3 + 1) as u16);
    apps::l2_learning::learn_host(&mut apps[l2].env, host_mac(at), port);
    apps::l3_learning::learn_host(&mut apps[l3].env, host_ip(at), port);
}

/// (allocations, bytes) of one update round after seven new sources, on
/// `sources` learned ones.
fn update_round_cost(sources: usize) -> (u64, u64) {
    const COOKIE: u64 = 1;
    let mut apps = flooded_apps(sources);
    let mut analyzer = Analyzer::offline(&apps);
    let first = analyzer.update(&apps, COOKIE, 0.0);
    assert_eq!(first.to_add.len(), 2 * sources + 2, "two balancer halves");
    // The measured round's sources are the neighbours of a round before
    // it. A B-tree built in one go has full leaves, and whether an insert
    // splits one (an allocation) depends on that leaf's history, not on
    // the size of the tree: the first round splits them, the second finds
    // room — on any size — and what is left to count is the analyzer's
    // own work.
    let spread = |j: usize| j * 41 + 3;
    for (round, offset) in [(1, 1), (2, 2)] {
        for j in 0..7 {
            learn_between(&mut apps, spread(j), offset);
        }
        let keywise = analyzer.key_refreshes;
        let before = ALLOCATED.with(Cell::get);
        let update = analyzer.update(&apps, COOKIE, round as f64 * 0.02);
        let after = ALLOCATED.with(Cell::get);
        assert_eq!((update.to_add.len(), update.to_remove.len()), (14, 0));
        assert_eq!(analyzer.key_refreshes, keywise + 2, "both learners");
        if round == 2 {
            return (after.0 - before.0, after.1 - before.1);
        }
    }
    unreachable!("the second round returns")
}

#[test]
fn update_round_allocations_do_not_depend_on_state_size() {
    assert_eq!(
        update_round_cost(300),
        update_round_cost(3000),
        "(allocations, bytes) of a round on 300 learned sources vs on 3000"
    );
}

#[test]
fn a_steady_round_asks_the_machine_nothing() {
    // A round in which nothing changed allocates nothing at all: it reads
    // no environment variable, no `/proc` or cgroup file, and starts no
    // thread. The round before it, with one key to convert, runs first.
    const COOKIE: u64 = 1;
    let mut apps = flooded_apps(300);
    let mut analyzer = Analyzer::offline(&apps);
    analyzer.update(&apps, COOKIE, 0.0);
    apps::l2_learning::learn_host(&mut apps[0].env, host_mac(4 * 44 + 1), 1);
    let one_key = analyzer.update(&apps, COOKIE, 0.02);
    assert_eq!((one_key.to_add.len(), one_key.to_remove.len()), (1, 0));
    let before = ALLOCATED.with(Cell::get);
    let none = analyzer.update(&apps, COOKIE, 0.04);
    let after = ALLOCATED.with(Cell::get);
    assert!(none.is_empty());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) of a round with no change"
    );
}

#[test]
fn cold_conversion_is_linear_in_state_size() {
    // Thirty times the state: thirty times the allocations, give or take
    // what does not grow. The time is the best of five, so that a busy
    // machine does not decide, and bounded at five times linear: a
    // quadratic step (the `Vec::contains` dedupe this replaced) reads
    // several hundred times here.
    let cold = |sources: usize| {
        let apps = flooded_apps(sources);
        let mut analyzer = Analyzer::offline(&apps);
        let mut best = (std::time::Duration::MAX, 0);
        for _ in 0..5 {
            analyzer.clear_conversion_cache();
            let before = ALLOCATED.with(Cell::get).0;
            let started = std::time::Instant::now();
            let rules = analyzer.convert(&apps);
            let elapsed = started.elapsed();
            let allocations = ALLOCATED.with(Cell::get).0 - before;
            assert_eq!(rules.len(), 2 * sources + 2);
            best = best.min((elapsed, allocations));
        }
        best
    };
    let (small_time, small_allocations) = cold(300);
    let (large_time, large_allocations) = cold(9000);
    assert!(
        large_allocations <= 33 * small_allocations,
        "{small_allocations} allocations on 300 sources, {large_allocations} on 9000"
    );
    assert!(
        large_time <= 150 * small_time,
        "{small_time:?} on 300 sources, {large_time:?} on 9000"
    );
}

/// (allocations, bytes) of `record_packet_in` and `score` over the second
/// of two seconds: the first at `warm` arrivals/s, the second at
/// `measured`, `per_stamp` of them sharing each stamp (a live drain's
/// shape).
fn window_cost(warm: f64, measured: f64, per_stamp: usize) -> (u64, u64) {
    let mut detector = Detector::new(DetectionConfig::default());
    let mut run = |from: f64, per_second: f64| {
        let stamps = per_second as usize / per_stamp;
        for i in 0..stamps {
            let now = from + i as f64 / stamps as f64;
            for _ in 0..per_stamp {
                detector.record_packet_in(now);
            }
            detector.score(now);
        }
    };
    run(0.0, warm);
    let before = ALLOCATED.with(Cell::get);
    run(1.0, measured);
    let after = ALLOCATED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_warm_detector_window_allocates_nothing() {
    for (warm, measured, per_stamp) in [
        (2_000.0, 2_000.0, 1),       // below the run cap
        (565_000.0, 565_000.0, 512), // live_small_state's drains
        (500_000.0, 500_000.0, 1),   // at the run cap: each arrival merges two runs
        (500_000.0, 1_000_000.0, 1), // a flood that doubles past the cap
    ] {
        assert_eq!(
            window_cost(warm, measured, per_stamp),
            (0, 0),
            "(allocations, bytes) at {measured}/s after {warm}/s, {per_stamp} per stamp"
        );
    }
}

#[test]
fn a_warm_fabric_switch_hop_allocates_nothing() {
    // Three switches in a line, each forwarding everything out of port 2:
    // a host's CBR stream crosses all three and leaves the last one through
    // a port wired to nothing. No controller, no receiving host: what runs
    // is the data plane's own work.
    let mut sim = Simulation::new(1);
    let line: Vec<SwitchId> = (0..3)
        .map(|_| sim.add_switch(SwitchProfile::software(), vec![1, 2]))
        .collect();
    sim.connect_switches(line[0], 2, line[1], 1);
    sim.connect_switches(line[1], 2, line[2], 1);
    for &sw in &line {
        sim.switch_mut(sw)
            .add_rule(
                OfMatch::any(),
                vec![Action::Output(PortNo::Physical(2))],
                1,
                0.0,
            )
            .expect("an empty table takes one rule");
    }
    let host = sim.add_host(line[0], 1, host_mac(1), host_ip(1));
    sim.host_mut(host).add_source(Box::new(CbrSource::new(
        host_mac(1),
        host_ip(1),
        host_mac(2),
        host_ip(2),
        10_000.0,
        0.0,
        1.0,
        200,
    )));
    let hops = |sim: &Simulation| -> u64 {
        line.iter()
            .map(|&sw| sim.switch(sw).stats.forwarded_packets)
            .sum()
    };
    // The telemetry round every 50 ms builds its report afresh: warm up,
    // then measure between two rounds.
    sim.run_until(0.11);
    let (hops_before, before) = (hops(&sim), ALLOCATED.with(Cell::get));
    sim.run_until(0.14);
    let (hops_after, after) = (hops(&sim), ALLOCATED.with(Cell::get));
    let measured = hops_after - hops_before;
    assert!(measured >= 600, "{measured} hops in 30 ms at 10 kpps");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) of {measured} switch hops"
    );
}

/// The receiving end of a bulk transfer, and one batch of its data.
fn bulk_receiver() -> (Host, Packet) {
    let host = Host::new(host_mac(2), host_ip(2));
    let data = Packet::udp(
        host_mac(1),
        host_mac(2),
        host_ip(1),
        host_ip(2),
        5001,
        5001,
        1500,
    )
    .with_batch(50)
    .with_tag(FlowTag::Bulk { flow: 1, seq: 0 });
    (host, data)
}

#[test]
fn a_warm_host_receive_allocates_nothing() {
    // The host acks each bulk packet into the buffer the engine passes it.
    // It used to return a fresh `Vec` for every answer and log every
    // delivery: 1016 allocations (483 840 bytes) for these 1000 acks at
    // the parent.
    let (mut host, data) = bulk_receiver();
    let mut responses = Vec::new();
    host.receive_into(&data, 0.0, &mut responses);
    responses.clear();
    let before = ALLOCATED.with(Cell::get);
    for i in 1..=1000 {
        host.receive_into(&data, f64::from(i) * 1e-3, &mut responses);
        assert_eq!(responses.len(), 1, "one ack per bulk packet");
        responses.clear();
    }
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) of 1000 acks"
    );
}

#[test]
fn a_hosts_heap_does_not_grow_with_its_deliveries() {
    // Bulk data and spoofed flood packets in turn, 25 k a second for four
    // seconds, with both windows `bench::Scenario` declares on its
    // receiver's meter. The parent logged every delivery twice, once on
    // the host and once on the meter, 96 bytes a packet: it held 1 572 864
    // bytes after 10 k deliveries and 12 582 912 after 100 k (both logs at
    // a power-of-two capacity).
    let (mut host, data) = bulk_receiver();
    let flood = UdpFlood::new(host_mac(3), 0.0, 0.0, 0.0, 64);
    let mut rng = StdRng::seed_from_u64(9);
    let mut responses = Vec::with_capacity(4);
    let mut held = Vec::with_capacity(2);
    let start = LIVE.with(Cell::get);
    host.meter.watch(0.3, 1.0);
    host.meter.watch(1.6, 4.0);
    let mut delivered = 0u32;
    for upto in [10_000, 100_000] {
        while delivered < upto {
            let packet = if delivered % 2 == 0 {
                data
            } else {
                flood.spoofed_packet(&mut rng)
            };
            host.receive_into(&packet, f64::from(delivered) * 4e-5, &mut responses);
            responses.clear();
            delivered += 1;
        }
        held.push(LIVE.with(Cell::get) - start);
    }
    assert!(host.meter.bps_in(1.6, 4.0) > 0.0, "the windows counted");
    assert_eq!(
        held[0], held[1],
        "live heap bytes after 10 k and after 100 k deliveries"
    );
}

/// `l2_learning`'s environment with `hosts` hosts learned at time 0.
fn learned_l2(hosts: usize) -> (Program, Env) {
    let program = apps::l2_learning::program();
    let mut env = program.initial_env();
    for i in 0..hosts {
        apps::l2_learning::learn_host(&mut env, host_mac(i), (i % 8 + 1) as u16);
    }
    (program, env)
}

#[test]
fn refreshing_a_known_entry_allocates_nothing_and_journals_nothing() {
    let (program, mut env) = learned_l2(1000);
    // A broadcast from a known host: the handler's learn is a refresh and
    // its flood decision allocates nothing of its own.
    let keys = FlowKeys {
        in_port: 1,
        dl_src: host_mac(0),
        dl_dst: MacAddr::BROADCAST,
        ..FlowKeys::default()
    };
    execute_at(&program, &keys, &mut env, 1.0, Provenance::Switch).expect("warm-up");
    let version = env.version();
    let before = ALLOCATED.with(Cell::get);
    for i in 0..1000 {
        env.advance(2.0 + f64::from(i) * 0.1);
        apps::l2_learning::learn_host(&mut env, host_mac(i as usize), (i % 8 + 1) as u16);
    }
    execute_at(&program, &keys, &mut env, 102.0, Provenance::Switch).expect("a refresh");
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) of 1001 refreshes"
    );
    assert_eq!(env.version(), version, "a refresh is not a change");
    assert_eq!(env.changes_since(version).map(Iterator::count), Some(0));
    // The refreshes counted: nothing learned at 0 s idles out at 301 s.
    assert_eq!(env.expire(301.0), 0);
    assert_eq!(env.learned_len(), 1000);
}

#[test]
fn an_expiry_sweep_with_nothing_due_allocates_nothing() {
    let (_, mut env) = learned_l2(1000);
    let quarantine = env.lifetime("macToPort").expect("declared").quarantine as u64;
    for i in 0..quarantine {
        env.quarantine(
            "macToPort",
            Value::Mac(host_mac(5000 + i as usize)),
            Value::Int(3),
        );
    }
    let before = ALLOCATED.with(Cell::get);
    let mut gone = 0;
    for tick in 0..1000 {
        gone += env.expire(f64::from(tick) * 0.02);
    }
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(gone, 0);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) of 1000 sweeps with nothing due"
    );
}

#[test]
fn a_full_overlay_holds_the_same_heap_at_ten_and_a_hundred_times_its_bound() {
    let (_, mut env) = learned_l2(16);
    let Lifetime { quarantine, .. } = env.lifetime("macToPort").expect("declared");
    let bound = quarantine as usize;
    let start = LIVE.with(Cell::get);
    let mut held = Vec::with_capacity(2);
    let mut taught = 0usize;
    for upto in [10 * bound, 100 * bound] {
        while taught < upto {
            // Distinct spoofed sources, each claiming port 3, the way the
            // cache re-raises a flood.
            let source = Value::Mac(MacAddr::from_u64(0x0200_0000_0000 + taught as u64));
            env.quarantine("macToPort", source, Value::Int(3));
            taught += 1;
        }
        assert_eq!(env.quarantined_len(), bound, "at its bound");
        held.push(LIVE.with(Cell::get) - start);
    }
    assert_eq!(env.learned_len(), 16, "the map kept its own entries");
    assert_eq!(
        held[0],
        held[1],
        "live heap bytes after {} and after {} spoofed sources",
        10 * bound,
        100 * bound
    );
}
