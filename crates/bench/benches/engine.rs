//! Simulation-core hot-path benchmark: scheduler microbench + full-sim
//! events/sec, with a JSON report and a regression gate.
//!
//! Custom harness (`harness = false`): this bench also writes
//! `results/BENCH_engine.json` and compares against a checked-in
//! baseline.
//!
//! **Microbench** — the 10k-host attack shape, run against both
//! [`HeapQueue`] and [`WheelQueue`] through the [`Scheduler`] trait: a
//! backlog of one pending emission per host, quantized to millisecond
//! ticks (so bursts share timestamps exactly as flood traffic does), then
//! a pop → reschedule churn loop. This isolates the queue: the heap pays
//! `O(log n)` per operation against the wheel's amortized `O(1)`, which
//! is the tentpole's ≥5x events/sec claim.
//!
//! **Full sim** — a software-profile 400 PPS flood scenario, reporting
//! engine events/sec via `Simulation::events_processed`; and the fat-tree
//! k=8 fabric with 64 cross-fabric flows (fgbench's `sim_repro` fabric),
//! reported but not gated.
//!
//! **Obs overhead** — the flood scenario with the metrics registry attached
//! (snapshots off) against the plain one, in interleaved pairs: the median
//! of the pairs' ratios must stay at or above [`OBS_GATE_FLOOR`].
//!
//! **Regression gate** — compares against `FG_BENCH_BASELINE` (default
//! `results/BENCH_engine_baseline.json`) and exits non-zero when either
//! ratio drops more than 25%:
//!
//! * `speedup` = wheel ops/s ÷ heap ops/s (catches wheel regressions);
//! * `sim_per_heap` = sim events/s ÷ heap ops/s (catches engine
//!   regressions).
//!
//! Both are ratios of numbers measured in the same process on the same
//! machine, so the gate is portable across hosts of different speeds —
//! unlike absolute ns thresholds, which only hold on the machine that
//! recorded the baseline.
//!
//! `--test` (what `cargo test` passes to bench targets) runs a tiny smoke
//! version: no JSON written, no gate, exit 0.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use bench::report::{extract_number, read_report, write_report};
use bench::{run, Defense, Scenario};
use floodguard::FloodGuardConfig;
use netsim::host::CbrSource;
use netsim::packet::Packet;
use netsim::sched::{HeapQueue, Scheduler, WheelQueue};
use netsim::topo;
use netsim::{Simulation, SwitchProfile};
use obs::Json;
use ofproto::types::MacAddr;

/// Tolerated drop before the gate fails (25%).
const GATE_TOLERANCE: f64 = 0.75;

/// Floor on the median pair's `events/s with obs registry ÷ events/s
/// plain`: the attached (but not snapshotting) registry may cost at most 2%.
const OBS_GATE_FLOOR: f64 = 0.98;

/// The engine's dominant event shape (`Ev::DeliverToSwitch`): queue
/// elements must be this size for the microbench to charge the heap its
/// real per-swap cost — sifting a `u32` flatters `O(log n)`.
#[derive(Clone, Copy)]
struct Delivery {
    sw: usize,
    port: u16,
    pkt: Packet,
}

fn delivery(i: usize) -> Delivery {
    Delivery {
        sw: 0,
        port: (i % 48) as u16,
        pkt: Packet::udp(
            MacAddr::from_u64(0x10_0000 + i as u64),
            MacAddr::from_u64(0x20_0000),
            Ipv4Addr::from(0x0a00_0000u32 | (i as u32 & 0xffff)),
            Ipv4Addr::from(0x0a01_0001u32),
            1024 + (i % 50_000) as u16,
            53,
            90,
        ),
    }
}

/// In-flight events per host: an emitted flood packet is simultaneously
/// an emission timer, a host→switch delivery, and downstream control
/// events, so the backlog is a small multiple of the host count.
const INFLIGHT: usize = 10;

/// Pre-fills `q` with `INFLIGHT` pending deliveries per host on
/// millisecond ticks and churns pop → reschedule; returns operations
/// (pop+schedule pairs) per second.
fn scheduler_ops_per_sec<S: Scheduler<Delivery>>(q: &mut S, hosts: usize, ops: u64) -> f64 {
    for i in 0..hosts * INFLIGHT {
        // 16 distinct ticks: each bucket time carries a same-time burst,
        // the flood's shape.
        q.schedule((i % 16) as f64 * 1e-3, delivery(i));
    }
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..ops {
        let (t, e) = q.pop().expect("queue never drains");
        // Touch the payload like a dispatch would, so the element is
        // genuinely materialized, then reschedule on the quantized tick.
        sink = sink.wrapping_add(e.sw + e.port as usize + e.pkt.wire_len);
        q.schedule(t + 1e-3, e);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    black_box(sink);
    while q.pop().is_some() {}
    ops as f64 / elapsed
}

/// Best of `reps` measurement runs (first run also warms the allocator).
fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps).map(|_| f()).fold(0.0, f64::max)
}

/// A wide-fabric profile: control-channel latency raised to the link
/// latency so the lookahead window is a full millisecond.
fn fabric_profile() -> SwitchProfile {
    SwitchProfile {
        channel_latency: 1e-3,
        ..SwitchProfile::software()
    }
}

/// Builds a fat-tree with `flows` cross-fabric CBR streams and runs it for
/// `duration` simulated seconds. Returns `(events_processed, events/sec)`.
fn fat_tree_run(k: usize, flows: usize, duration: f64) -> (u64, f64) {
    let mut sim = Simulation::new(7);
    sim.set_link_latency(1e-3);
    let ft = topo::fat_tree(&mut sim, k, fabric_profile());
    let n = ft.hosts.len();
    for i in 0..flows.min(n) {
        let from = ft.hosts[i];
        let to = ft.hosts[(i + n / 2) % n];
        let (src_mac, src_ip) = {
            let h = sim.host(from);
            (h.mac, h.ip)
        };
        let (dst_mac, dst_ip) = {
            let h = sim.host(to);
            (h.mac, h.ip)
        };
        sim.host_mut(from).add_source(Box::new(CbrSource::new(
            src_mac, src_ip, dst_mac, dst_ip, 400.0, 0.0, duration, 200,
        )));
    }
    let t0 = Instant::now();
    sim.run_until(duration);
    let events = sim.events_processed();
    (events, events as f64 / t0.elapsed().as_secs_f64())
}

/// Runs a 10^5-host leaf-spine fabric (1000 leaves x 100 hosts, 16 spines)
/// to completion with sparse cross-fabric traffic; returns
/// `(hosts, events, wall seconds)`. Exercises construction, routing and the
/// run loop at production scale.
fn leaf_spine_run() -> (usize, u64, f64) {
    let t0 = Instant::now();
    let mut sim = Simulation::new(11);
    sim.set_link_latency(1e-3);
    let ls = topo::leaf_spine(&mut sim, 1000, 16, 100, fabric_profile());
    let n = ls.hosts.len();
    for i in 0..64 {
        let from = ls.hosts[i * (n / 64)];
        let to = ls.hosts[(i * (n / 64) + n / 2) % n];
        let (src_mac, src_ip) = {
            let h = sim.host(from);
            (h.mac, h.ip)
        };
        let (dst_mac, dst_ip) = {
            let h = sim.host(to);
            (h.mac, h.ip)
        };
        sim.host_mut(from).add_source(Box::new(CbrSource::new(
            src_mac, src_ip, dst_mac, dst_ip, 400.0, 0.0, 0.5, 200,
        )));
    }
    sim.run_until(0.5);
    (n, sim.events_processed(), t0.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // 8M ops ≈ 50 churn generations over the 160k-event backlog: long
    // enough that sustained steady-state throughput dominates the warm-up
    // transient (backlog coalescing, deque growth) for both schedulers.
    let (hosts, ops, reps, sim_duration) = if smoke {
        (1_000, 20_000u64, 1, 0.5)
    } else {
        (10_000, 8_000_000u64, 3, 2.0)
    };

    let heap_ops = best_of(reps, || {
        scheduler_ops_per_sec(&mut HeapQueue::new(), hosts, ops)
    });
    let wheel_ops = best_of(reps, || {
        scheduler_ops_per_sec(&mut WheelQueue::new(), hosts, ops)
    });
    let speedup = wheel_ops / heap_ops;
    println!("# engine bench — scheduler microbench ({hosts} hosts, {ops} ops)");
    println!("heap:  {:>12.0} ops/s", heap_ops);
    println!("wheel: {:>12.0} ops/s", wheel_ops);
    println!("speedup (wheel/heap): {speedup:.2}x");

    let mut scenario = Scenario::software()
        .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
        .with_attack(400.0);
    scenario.duration = sim_duration;
    let t0 = Instant::now();
    let outcome = run(&scenario);
    let sim_wall = t0.elapsed().as_secs_f64();
    let sim_events = outcome.sim.events_processed();
    let sim_eps = sim_events as f64 / sim_wall;
    let sim_per_heap = sim_eps / heap_ops;
    println!("# full sim — software profile, 400 PPS flood + FloodGuard, {sim_duration} s");
    println!(
        "sim:   {:>12.0} events/s ({sim_events} events in {sim_wall:.3} s)",
        sim_eps
    );

    // Obs overhead: same scenario with the metrics registry attached but
    // snapshots disabled, in interleaved pairs of one run each (~10 ms of
    // wall clock a side). The sides alternate which goes first, and the
    // gate reads the median pair: a host whose speed drifts by 2x within
    // minutes moves both sides of a pair alike, and a burst of load on one
    // side moves one pair, not the median.
    let pairs = if smoke { 2 } else { 301 };
    let sim_events_per_sec = |scenario: &Scenario| {
        let t0 = Instant::now();
        let events = run(scenario).sim.events_processed();
        events as f64 / t0.elapsed().as_secs_f64()
    };
    let obs_scenario = scenario.clone().with_obs_registry();
    sim_events_per_sec(&scenario); // untimed warm-up
    let mut ratios: Vec<f64> = Vec::with_capacity(pairs);
    let mut obs_eps = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (plain, obs) = if pair % 2 == 0 {
            let plain = sim_events_per_sec(&scenario);
            (plain, sim_events_per_sec(&obs_scenario))
        } else {
            let obs = sim_events_per_sec(&obs_scenario);
            (sim_events_per_sec(&scenario), obs)
        };
        ratios.push(obs / plain);
        obs_eps.push(obs);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let obs_ratio = median(&mut ratios);
    let obs_eps = median(&mut obs_eps);
    println!("# obs overhead — registry attached, snapshots disabled, {pairs} interleaved pairs");
    println!(
        "with obs: {obs_eps:>12.0} events/s (median) | ratio to plain, pair by pair: \
         min {:.4} median {obs_ratio:.4} max {:.4}",
        ratios[0],
        ratios[pairs - 1]
    );

    // The wide fabric of fgbench's `sim_repro`.
    let (fabric_k, fabric_flows, fabric_duration) = if smoke { (4, 8, 0.2) } else { (8, 64, 2.0) };
    let (fabric_events, fabric_eps) = fat_tree_run(fabric_k, fabric_flows, fabric_duration);
    println!(
        "# fabric — fat-tree k={fabric_k} ({} hosts), {fabric_flows} cross-fabric flows, \
         {fabric_duration} s: {fabric_eps:>12.0} events/s ({fabric_events} events)",
        fabric_k * fabric_k * fabric_k / 4
    );

    if smoke {
        println!("engine bench: ok (smoke mode, no report/gate)");
        return;
    }

    // Production-scale completion check: 10^5 hosts behind 1016 switches.
    let (ls_hosts, ls_events, ls_wall) = leaf_spine_run();
    println!("# leaf-spine 1000x100 — {ls_hosts} hosts, {ls_events} events in {ls_wall:.2} s");

    // The hard bar, checked here and failed on at the very end, so that a
    // run that misses it still writes what it measured (the analyzer
    // bench's form): an attached-but-idle registry must cost under 2%.
    let mut failed = false;
    if obs_ratio < OBS_GATE_FLOOR {
        eprintln!(
            "REGRESSION: obs overhead ratio {obs_ratio:.4} < {OBS_GATE_FLOOR} \
             (registry on the hot path costs more than 2%)"
        );
        failed = true;
    }

    let report = Json::obj()
        .set("bench", "engine")
        .set(
            "scenario",
            "scheduler churn microbench (10k-host flood shape) + 400 PPS software-profile sim",
        )
        .set("seed", scenario.seed)
        .set("hosts", hosts)
        .set("ops", ops)
        .set("heap_ops_per_sec", heap_ops)
        .set("wheel_ops_per_sec", wheel_ops)
        .set("speedup", speedup)
        .set("sim_events", sim_events)
        .set("sim_wall_s", sim_wall)
        .set("events_per_sec", sim_eps)
        .set("sim_per_heap", sim_per_heap)
        .set("obs_events_per_sec", obs_eps)
        .set("obs_overhead_ratio", obs_ratio)
        .set("obs_pairs", pairs)
        .set("fabric_topology", format!("fat-tree k={fabric_k}"))
        .set("fabric_flows", fabric_flows)
        .set("fabric_events", fabric_events)
        .set("fabric_events_per_sec", fabric_eps)
        .set(
            "cores_available",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .set("leafspine_hosts", ls_hosts)
        .set("leafspine_events", ls_events)
        .set("leafspine_wall_s", ls_wall);
    match write_report("engine", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_engine.json: {err}"),
    }

    let baseline_path = std::env::var("FG_BENCH_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| bench::report::results_dir().join("BENCH_engine_baseline.json"));
    let baseline = match read_report(&baseline_path) {
        Ok(body) => body,
        Err(err) => {
            println!(
                "# no baseline at {} ({err}); gate skipped",
                baseline_path.display()
            );
            if failed {
                std::process::exit(1);
            }
            return;
        }
    };
    for (label, measured) in [("speedup", speedup), ("sim_per_heap", sim_per_heap)] {
        let Some(expected) = extract_number(&baseline, label) else {
            eprintln!(
                "warning: baseline {} has no \"{label}\" field",
                baseline_path.display()
            );
            continue;
        };
        let floor = expected * GATE_TOLERANCE;
        if measured < floor {
            eprintln!(
                "REGRESSION: {label} {measured:.3} < {floor:.3} \
                 (baseline {expected:.3} - 25% tolerance)"
            );
            failed = true;
        } else {
            println!("# gate {label}: {measured:.3} vs baseline {expected:.3} — ok");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
