//! `sim_repro`: what a reproduction user and the CI jobs wait for.
//!
//! Each pass runs the paper-reproduction suite through `bench`'s library
//! API — the Fig. 10 and Fig. 11 bandwidth sweeps, the full defense arena
//! and adversary arena matrices, Table IV's probe runs — and then the
//! fat-tree k=8 / 64-flow fabric of `benches/engine.rs`. Nothing is
//! written to `results/`; the rendered tables are compared with the files
//! checked in there.
//!
//! The fabric runs on the engine's default single thread for the
//! end-to-end numbers: that is what `Scenario` and every figure bin use
//! unless `FG_SIM_THREADS` says otherwise, and at this commit it is also
//! the faster configuration (about 5 M events/s against 2.1–2.9 M on two
//! threads, whose per-window barrier pays a thread wake-up a millisecond
//! of simulated time and moved 1.7–2.5 M between identical runs). A traced
//! run adds the same fabric on `min(nproc, 4)` engine threads as per-layer
//! metrics, which is where a change to the parallel engine shows.
//!
//! The suite is a fixed, seeded set of simulations (its artifacts must be
//! byte-identical), so `--seed` only picks which host pairs talk across
//! the fabric.
//!
//! A pass is timed in **units** of a few to a few hundred milliseconds:
//! each simulation of a figure (`bandwidth_sweep` asked for one rate at a
//! time) and of Table IV on its own, the arena one switch profile at a
//! time, the adversary arena, each quarter of a simulated second of the
//! fabric. Whole passes of two busy seconds on two threads never once ran
//! undisturbed on a busy host: their median moved 28 % between identical
//! ten-run series and their fastest 20 %. Every unit, though, has among a
//! run's dozen passes one the machine left alone (`stats::best_fiftieth`
//! says why that is the number that repeats), and `repro_pass_s` is the
//! sum of those. The price: the figures' simulations run one after the
//! other, not two at a time as in the `fig10` bin, so a pass is the
//! single-threaded cost of the figures plus the arenas as their bins run
//! them.

use std::net::Ipv4Addr;
use std::time::Instant;

use bench::adversary::AdversaryMatrixConfig;
use bench::arena::ArenaConfig;
use bench::{bandwidth_sweep, Defense, Scenario};
use floodguard::FloodGuardConfig;
use netsim::host::CbrSource;
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::{topo, Simulation, SwitchProfile};
use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::flow_table::FlowTable;
use ofproto::types::{DatapathId, MacAddr, PortNo};

use super::{Outcome, RunArgs};
use crate::gen::Rng;
use crate::procstat;
use crate::stats;
use crate::trace::Tracer;

/// Attack rates of Fig. 10 (software switch).
const FIG10_RATES: [f64; 10] = [
    0.0, 50.0, 100.0, 130.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0,
];
/// Attack rates of Fig. 11 (hardware switch).
const FIG11_RATES: [f64; 10] = [
    0.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0,
];
/// Fat-tree arity, cross-fabric flows and simulated seconds of the fabric.
/// `benches/engine.rs` simulates 2 s; a 0.23 s wall-clock run moved 1.8 to
/// 2.9 M events/s from pass to pass, so this one runs three times as long.
const FABRIC_K: usize = 8;
const FABRIC_FLOWS: usize = 64;
const FABRIC_SIM_S: f64 = 6.0;
/// Simulated seconds per timed step of the fabric run: 24 steps of about
/// 15 ms of wall-clock each, so that some of a run's few hundred steps
/// fall in moments the machine leaves alone.
const FABRIC_STEP_S: f64 = 0.25;
/// Times the fabric and the references are set up before every pass. A
/// set-up is a third of a millisecond of allocation and page faults, and
/// `setup_s` the best fiftieth of a run's few hundred.
const SETUPS_PER_PASS: usize = 32;
/// Single-probe runs per Table IV configuration, as the `table4` bin does.
const TABLE4_RUNS: u64 = 8;

/// Engine threads of the traced run's parallel fabric.
fn parallel_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

/// The fabric profile of `benches/engine.rs`: control-channel latency
/// raised to the link latency, so the lookahead window is a millisecond.
fn fabric_profile() -> SwitchProfile {
    SwitchProfile {
        channel_latency: 1e-3,
        ..SwitchProfile::software()
    }
}

/// Builds the fat-tree with its routing pre-installed and `FABRIC_FLOWS`
/// cross-fabric CBR streams on `threads` engine threads; the seed picks
/// each stream's endpoints.
fn build_fabric(seed: u64, threads: usize) -> Simulation {
    let mut sim = Simulation::new(7);
    sim.set_threads(threads);
    sim.set_link_latency(1e-3);
    let ft = topo::fat_tree(&mut sim, FABRIC_K, fabric_profile());
    let n = ft.hosts.len();
    for &h in &ft.hosts {
        // Counters only, no per-packet delivery log: memory stays flat.
        sim.host_mut(h).set_deliveries_cap(0);
    }
    let mut rng = Rng::new(seed, 50);
    let offset = rng.below(n as u64) as usize;
    for i in 0..FABRIC_FLOWS.min(n) {
        let from = ft.hosts[(offset + i) % n];
        let to = ft.hosts[(offset + i + n / 2) % n];
        let (src_mac, src_ip) = {
            let h = sim.host(from);
            (h.mac, h.ip)
        };
        let (dst_mac, dst_ip) = {
            let h = sim.host(to);
            (h.mac, h.ip)
        };
        sim.host_mut(from).add_source(Box::new(CbrSource::new(
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            400.0,
            0.0,
            FABRIC_SIM_S,
            200,
        )));
    }
    sim
}

/// The rendered reference tables checked in under `results/`.
struct References {
    arena: String,
    adversary: String,
}

/// The checked-in files are the `defense_arena` bin's output: the rendered
/// table between `#` comment lines that carry wall-clock times. The table
/// itself — every line that is not a comment — must match byte for byte.
fn load_references() -> Result<References, String> {
    let dir = super::results_dir();
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map(|body| {
                body.lines()
                    .filter(|l| !l.starts_with('#'))
                    .flat_map(|l| [l, "\n"])
                    .collect::<String>()
            })
            .map_err(|e| format!("read results/{name}: {e}"))
    };
    Ok(References {
        arena: read("arena.txt")?,
        adversary: read("adversary.txt")?,
    })
}

/// The parts of one pass, in the order they run, and each one's place
/// among them.
const FIG10: usize = 0;
const FIG11: usize = 1;
const ARENA: usize = 2;
const ADVERSARY: usize = 3;
const TABLE4: usize = 4;
const FABRIC_BUILD: usize = 5;
const FABRIC_RUN: usize = 6;
const PARTS: [&str; 7] = [
    "bench.fig10_sweep",
    "bench.fig11_sweep",
    "bench.arena_matrix",
    "bench.adversary_matrix",
    "bench.table4",
    "netsim.fabric_build",
    "netsim.fabric_run",
];

/// What one pass measured. A pass is cut into **units** — one simulation of
/// a figure or of Table IV, one profile's half of the arena, the adversary
/// arena, the fabric's build, one step of the fabric's run — few of them
/// longer than a tenth of a second, so that each has, among the passes of
/// a run, one the machine left alone.
#[derive(Debug, Default, Clone)]
struct PassTimes {
    /// `(index into PARTS, wall seconds)` of every unit, in running order:
    /// the same sequence on every pass.
    units: Vec<(usize, f64)>,
    /// `(events, wall seconds, engine-thread CPU seconds)` of every step of
    /// the fabric run.
    fabric_steps: Vec<(u64, f64, f64)>,
    fabric_events: u64,
}

impl PassTimes {
    fn total(&self) -> f64 {
        self.units.iter().map(|&(_, s)| s).sum()
    }
}

/// A pass in progress: runs units under spans and keeps their times.
struct Pass<'a> {
    times: PassTimes,
    tracer: &'a mut Tracer,
    n: u64,
}

impl Pass<'_> {
    /// Runs one unit of part `part` under a span of the part's name.
    fn unit<R>(&mut self, part: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = self.tracer.span(PARTS[part], self.n, f);
        self.times.units.push((part, t0.elapsed().as_secs_f64()));
        r
    }

    /// A figure's series, one rate — one simulation — at a time.
    fn sweep(&mut self, part: usize, scenario: &Scenario, rates: &[f64]) -> Vec<(f64, f64)> {
        rates
            .iter()
            .map(|&pps| self.unit(part, || bandwidth_sweep(scenario, &[pps])[0]))
            .collect()
    }
}

/// Asserts a bandwidth figure's shape (PAPER.md §2): without defense the
/// bandwidth is about halved at `half_pps`; with FloodGuard it holds.
fn check_figure(
    outcome: &mut Outcome,
    name: &str,
    plain: &[(f64, f64)],
    guarded: &[(f64, f64)],
    half_pps: f64,
    flat_up_to_pps: f64,
) {
    let clean = plain[0].1;
    let at_half = plain
        .iter()
        .find(|(pps, _)| *pps == half_pps)
        .map_or(f64::NAN, |(_, bps)| bps / clean);
    // The repository's own tier-1 test uses the same band for "about half".
    outcome.expect(
        (0.3..0.7).contains(&at_half),
        &format!("{name}: no-defense bandwidth at {half_pps} pps is {at_half:.3} of clean, not about half"),
    );
    let collapsed = plain.last().map_or(f64::NAN, |(_, bps)| bps / clean);
    outcome.expect(
        collapsed < 0.1,
        &format!("{name}: no-defense bandwidth at the highest rate is {collapsed:.3} of clean, not collapsed"),
    );
    // FloodGuard: at least 0.8 of clean through `flat_up_to_pps`. Fig. 11's
    // hardware switch declines slowly beyond that (wildcard hits take its
    // software table), as the paper shows; there it must stay above half.
    let held = guarded.iter().all(|(pps, bps)| {
        let floor = if *pps <= flat_up_to_pps { 0.8 } else { 0.5 };
        bps / clean >= floor
    });
    outcome.expect(
        held,
        &format!("{name}: FloodGuard bandwidth fell below 0.8x clean up to {flat_up_to_pps} pps (0.5x beyond): {guarded:?}"),
    );
}

/// One pass of the suite and the fabric; every artifact is checked.
fn pass(
    seed: u64,
    refs: &References,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    n: u64,
) -> PassTimes {
    let whole = tracer.begin("bench.repro_pass", n);
    let mut p = Pass {
        times: PassTimes::default(),
        tracer,
        n,
    };
    let fg = || Defense::FloodGuard(FloodGuardConfig::default());

    let plain = p.sweep(FIG10, &Scenario::software(), &FIG10_RATES);
    let guarded = p.sweep(
        FIG10,
        &Scenario::software().with_defense(fg()),
        &FIG10_RATES,
    );
    check_figure(outcome, "fig10", &plain, &guarded, 130.0, 500.0);

    let plain = p.sweep(FIG11, &Scenario::hardware(), &FIG11_RATES);
    let guarded = p.sweep(
        FIG11,
        &Scenario::hardware().with_defense(fg()),
        &FIG11_RATES,
    );
    check_figure(outcome, "fig11", &plain, &guarded, 150.0, 600.0);

    // The full arena, one profile at a time. Clean runs are per profile and
    // the table's rows are profile-major, so the halves do the whole
    // matrix's work and their rows, joined, are its table.
    let full = ArenaConfig::full();
    let mut table = String::new();
    for &profile in &full.profiles {
        let half = ArenaConfig {
            profiles: vec![profile],
            ..full.clone()
        };
        let rendered =
            bench::arena::render_table(&p.unit(ARENA, || bench::arena::run_matrix(&half)));
        let rows_from = if table.is_empty() {
            0
        } else {
            rendered.find('\n').map_or(0, |header_end| header_end + 1)
        };
        table.push_str(&rendered[rows_from..]);
    }
    outcome.expect(
        table == refs.arena,
        "arena table differs from results/arena.txt",
    );

    let adversary = p.unit(ADVERSARY, || {
        bench::adversary::run_matrix(&AdversaryMatrixConfig::full())
    });
    outcome.expect(
        bench::adversary::render_table(&adversary) == refs.adversary,
        "adversary table differs from results/adversary.txt",
    );

    let lost = (0..TABLE4_RUNS)
        .filter(|&run| p.unit(TABLE4, || table4_probe_lost(run)))
        .count() as u64;
    outcome.check(
        TABLE4_RUNS,
        lost,
        "table4: probes lost under the flood with FloodGuard",
    );

    let mut sim = p.unit(FABRIC_BUILD, || build_fabric(seed, 1));
    // One engine thread: this thread's CPU clock is the engine's.
    let mut cpu0 = procstat::thread_self_cpu_s();
    let mut events0 = 0;
    for step in 1..=(FABRIC_SIM_S / FABRIC_STEP_S).round() as usize {
        p.unit(FABRIC_RUN, || sim.run_until(step as f64 * FABRIC_STEP_S));
        let (_, wall_s) = *p.times.units.last().expect("the step just run");
        let (cpu1, events1) = (procstat::thread_self_cpu_s(), sim.events_processed());
        p.times
            .fabric_steps
            .push((events1 - events0, wall_s, cpu1 - cpu0));
        (cpu0, events0) = (cpu1, events1);
    }
    p.times.fabric_events = sim.events_processed();
    let times = p.times;
    tracer.end(whole);
    times
}

/// One run of Table IV's defended configuration: a single probe under a
/// 400 pps flood with FloodGuard, as the `table4` bin runs [`TABLE4_RUNS`]
/// of. Returns whether the probe was lost.
fn table4_probe_lost(run: u64) -> bool {
    let mut scenario = Scenario::hardware();
    scenario.bulk = false;
    scenario.attack_pps = 400.0;
    scenario.attack_start = 0.5;
    scenario.attack_stop = 4.0;
    scenario.duration = 4.0;
    scenario.defense = Defense::FloodGuard(FloodGuardConfig::default());
    scenario.seed = 100 + run;
    scenario.probes = vec![2.0];
    bench::run(&scenario).probe_delays[0].1.is_none()
}

/// Runs the simulator workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.trace);

    // Set-up: the reference artifacts and the fabric's topology + routing.
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let mut refs = None;
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            refs = Some(load_references());
            std::hint::black_box(build_fabric(args.seed, 1));
            setups.push(t0.elapsed().as_secs_f64());
        }
        refs.expect("SETUPS_PER_PASS >= 1")
    };
    let refs = match set_up(&mut setups) {
        Ok(refs) => refs,
        Err(e) => {
            outcome.expect(false, &e);
            return outcome;
        }
    };

    // Passes until the time is used up; a pass that would not fit is not
    // started (but at least one always runs). A traced run leaves a quarter
    // of its time to the parallel fabric and the single-layer timings.
    let budget_s = args.seconds * if args.trace { 0.75 } else { 1.0 };
    let started = Instant::now();
    let mut passes: Vec<PassTimes> = Vec::new();
    loop {
        let spent = started.elapsed().as_secs_f64();
        let longest = passes.iter().map(PassTimes::total).fold(0.0, f64::max);
        if !passes.is_empty() && spent + longest > budget_s {
            break;
        }
        let n = passes.len() as u64;
        if n > 0 {
            // More set-up samples, spread over the run like the passes.
            let _ = set_up(&mut setups);
        }
        passes.push(pass(args.seed, &refs, &mut outcome, &mut tracer, n));
    }
    let events = passes[0].fabric_events;
    outcome.expect(
        passes.iter().all(|p| p.fabric_events == events),
        "the fabric processed a different event count on some pass: determinism is broken",
    );

    // Every unit's undisturbed time is read off its best pass, and the
    // fabric's rate off its best steps; a part is the sum of its units and
    // a pass the sum of its parts.
    let mut pass_s: Vec<f64> = passes.iter().map(PassTimes::total).collect();
    stats::sort(&mut pass_s);
    let mut parts = [0.0; PARTS.len()];
    for (u, &(part, _)) in passes[0].units.iter().enumerate() {
        let times: Vec<f64> = passes.iter().map(|p| p.units[u].1).collect();
        parts[part] += stats::best_fiftieth(&times, false);
    }
    let repro_pass_s: f64 = parts.iter().sum();
    let steps = || passes.iter().flat_map(|p| p.fabric_steps.iter());
    let eps: Vec<f64> = steps()
        .map(|&(events, wall_s, _)| events as f64 / wall_s)
        .collect();
    let cpu_us: Vec<f64> = steps()
        .map(|&(events, _, cpu_s)| cpu_s * 1e6 / events as f64)
        .collect();
    let fabric_eps = stats::best_fiftieth(&eps, true);
    let fabric_cpu_us = stats::best_fiftieth(&cpu_us, false);
    outcome.note(format!(
        "{} passes in {:.1} s; {} timed units a pass (figure and Table IV simulations one at a time, the arenas on up to {} sweep threads, fabric fat-tree k={FABRIC_K} / {FABRIC_FLOWS} flows / {FABRIC_SIM_S} s simulated on 1 engine thread in {} steps); nothing written to results/",
        passes.len(),
        started.elapsed().as_secs_f64(),
        passes[0].units.len(),
        bench::par::thread_count(usize::MAX),
        passes[0].fabric_steps.len(),
    ));
    outcome.note(format!(
        "pass by pass, seconds: {:?}",
        passes
            .iter()
            .map(|p| (p.total() * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));
    outcome.note(format!(
        "repro_pass_s = {repro_pass_s:.3} s (each unit from its best pass; whole passes: fastest {:.3} s, median {:.3} s, slowest {:.3} s)",
        pass_s[0],
        stats::median(&pass_s),
        pass_s[pass_s.len() - 1],
    ));
    outcome.note(format!(
        "reconciliation (s): {} = repro_pass_s {repro_pass_s:.3}",
        PARTS
            .iter()
            .zip(&parts)
            .map(|(name, s)| format!("{name} {s:.3}"))
            .collect::<Vec<_>>()
            .join(" + "),
    ));
    outcome.note(format!(
        "fabric_events_per_s = {fabric_eps:.0} /s, {fabric_cpu_us:.4} us of CPU per event (each the best fiftieth of {} steps; {events} events per run)",
        eps.len(),
    ));
    outcome.note(format!(
        "steps, min / p02 / p10 / p25 / p50 / p75 / p90 / p98 / max: fabric_events_per_s {}; cpu_us_per_event {}",
        stats::profile(&eps),
        stats::profile(&cpu_us)
    ));
    outcome.note(super::setup_note(&setups, "set-ups"));

    if args.trace {
        outcome.set("bench.fig10_sweep_s", parts[FIG10]);
        outcome.set("bench.fig11_sweep_s", parts[FIG11]);
        outcome.set("bench.arena_matrix_s", parts[ARENA]);
        outcome.set("bench.adversary_matrix_s", parts[ADVERSARY]);
        outcome.set("bench.table4_s", parts[TABLE4]);
        outcome.set("netsim.fabric_build_s", parts[FABRIC_BUILD]);
        outcome.set("bench.fabric_run_s", parts[FABRIC_RUN]);
        outcome.set("bench.repro_pass_s", repro_pass_s);
        outcome.set("bench.repro_pass_max_s", pass_s[pass_s.len() - 1]);
        outcome.set("netsim.cpu_us_per_event.fabric", fabric_cpu_us);
        outcome.set("netsim.events_per_s.fabric", fabric_eps);
        parallel_fabric(&mut outcome, &mut tracer, args.seed, events, fabric_eps);
        micro(&mut outcome, &mut tracer);
        outcome.set("gen.threads", parallel_threads() as f64);
        super::write_spans(&mut outcome, &tracer, "sim_repro", args.seed);
        return outcome;
    }

    outcome.set("setup_s", stats::best_fiftieth(&setups, false));
    outcome.set("latency_p50_ms", repro_pass_s * 1e3);
    outcome.set("throughput_per_s", fabric_eps);
    outcome.set("cpu_us_per_op", fabric_cpu_us);
    outcome.note(
        "latency_p50_ms = repro_pass_s, throughput_per_s = fabric_events_per_s, cpu_us_per_op = engine-thread CPU per fabric event",
    );
    outcome.set("peak_rss_mb", procstat::peak_rss_mb());
    outcome
}

/// The same fabric on `min(nproc, 4)` engine threads, five times: the
/// parallel engine's event rate, its ratio to the single-threaded rate,
/// and the check that thread count does not change the simulation.
fn parallel_fabric(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    seed: u64,
    serial_events: u64,
    serial_eps: f64,
) {
    let threads = parallel_threads();
    let mut rates = Vec::new();
    for i in 0..5 {
        let mut sim = build_fabric(seed, threads);
        let t0 = Instant::now();
        tracer.span("netsim.fabric_run.parallel", i, || {
            sim.run_until(FABRIC_SIM_S);
        });
        rates.push(sim.events_processed() as f64 / t0.elapsed().as_secs_f64());
        outcome.expect(
            sim.events_processed() == serial_events,
            &format!(
                "the fabric processed {} events on {threads} threads and {serial_events} on one: determinism is broken",
                sim.events_processed()
            ),
        );
    }
    let parallel_eps = stats::best_fiftieth(&rates, true);
    outcome.set("netsim.events_per_s.fabric_par", parallel_eps);
    outcome.set("netsim.par_speedup", parallel_eps / serial_eps);
    outcome.note(format!(
        "parallel engine: {parallel_eps:.0} events/s on {threads} threads against {serial_eps:.0} on one: netsim.par_speedup = {:.2}",
        parallel_eps / serial_eps
    ));
}

/// Single-layer timings for the traced run: one Fig. 10 cell's event rate,
/// the switch's hit and miss paths, and the flow table's two operations.
fn micro(outcome: &mut Outcome, tracer: &mut Tracer) {
    // One defended Fig. 10 cell, as the figure's sweep runs twenty of.
    let scenario = Scenario::software()
        .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
        .with_attack(400.0);
    let mut rates = Vec::new();
    for i in 0..5 {
        let t0 = Instant::now();
        let events = tracer.span("netsim.fig10_cell", i, || {
            bench::run(&scenario).sim.events_processed()
        });
        rates.push(events as f64 / t0.elapsed().as_secs_f64());
    }
    outcome.set("netsim.events_per_s.fig10_cell", stats::median(&rates));

    // Switch datapath: 1024 known destinations hit, unknown ones miss.
    const N: usize = 1024;
    const ROUNDS: usize = 100;
    let mut switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2, 3, 4]);
    let mac = |i: usize| MacAddr::from_u64(0x0200_0000_0000 + i as u64);
    for i in 0..N {
        switch
            .add_rule(
                OfMatch::any().with_dl_dst(mac(i)),
                vec![Action::Output(PortNo::Physical(2))],
                0x8000,
                0.0,
            )
            .expect("an empty 65536-entry table takes 1024 rules");
    }
    let packet = |dst: MacAddr| {
        Packet::udp(
            mac(N + 1),
            dst,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            128,
        )
    };
    let t0 = Instant::now();
    tracer.span("netsim.switch_process.hit", (N * ROUNDS) as u64, || {
        for round in 0..ROUNDS {
            for i in 0..N {
                let res = switch.process(1, packet(mac(i)), round as f64);
                std::hint::black_box(res.forwards.len());
            }
        }
    });
    outcome.set(
        "netsim.switch_process_ns.hit",
        t0.elapsed().as_nanos() as f64 / (N * ROUNDS) as f64,
    );
    let t0 = Instant::now();
    tracer.span("netsim.switch_process.miss", (N * ROUNDS) as u64, || {
        for round in 0..ROUNDS {
            for i in 0..N {
                let res = switch.process(1, packet(mac(2 * N + i)), round as f64);
                std::hint::black_box(res.packet_in.is_some());
            }
            // Misses park packets in the buffer; age them out so every
            // round sees the same buffered (not amplified) path.
            switch.expire(round as f64 + 10.0 * (round + 1) as f64);
        }
    });
    outcome.set(
        "netsim.switch_process_ns.miss",
        t0.elapsed().as_nanos() as f64 / (N * ROUNDS) as f64,
    );

    // Flow table: apply N adds, then look each up, ROUNDS times over.
    let mods: Vec<FlowMod> = (0..N)
        .map(|i| {
            FlowMod::add(
                OfMatch::any().with_dl_dst(mac(i)),
                vec![Action::Output(PortNo::Physical(2))],
            )
        })
        .collect();
    let keys: Vec<_> = (0..N).map(|i| packet(mac(i)).flow_keys(1)).collect();
    let mut apply_ns = 0u128;
    let mut lookup_ns = 0u128;
    for round in 0..ROUNDS {
        let mut table = FlowTable::new(None);
        let t0 = Instant::now();
        tracer.span("flow_table.apply", N as u64, || {
            for fm in &mods {
                std::hint::black_box(table.apply(fm, round as f64).is_ok());
            }
        });
        apply_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        tracer.span("flow_table.lookup", N as u64, || {
            for k in &keys {
                std::hint::black_box(table.lookup(k, round as f64, 128).is_some());
            }
        });
        lookup_ns += t0.elapsed().as_nanos();
    }
    outcome.set("flow_table.apply_ns", apply_ns as f64 / (N * ROUNDS) as f64);
    outcome.set(
        "flow_table.lookup_ns",
        lookup_ns as f64 / (N * ROUNDS) as f64,
    );
}
