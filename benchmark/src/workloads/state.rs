//! `live_small_state` and `live_large_state`: benign packet_ins through
//! the whole live stack, closed loop.
//!
//! Two switch connections, one generator thread each with blocking reads.
//! A **latency phase** keeps one packet_in outstanding per connection; a
//! **capacity phase** keeps [`Params::window`] outstanding per connection. A
//! request completes when the first frame echoing its xid is decoded.
//! Both phases are cut into slices of [`Params::slice_s`] seconds, and
//! each end-to-end metric is the best fiftieth of its slices
//! (`stats::best_fiftieth` says why).
//!
//! Closed loop is deliberate. At low open-loop rates on a small sandbox
//! the measured median is the host's idle-wakeup latency (it moved from 42
//! to 119 µs between identical runs), and pacing through `SO_RCVTIMEO` is
//! jiffy-granular; the open-loop knee search belongs to a later
//! `live_defense` harness.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::analyzer::Analyzer;
use floodguard::detector::Detector;
use floodguard::FloodGuard;
use netsim::iface::{ControlOutput, ControlPlane, Telemetry};
use netsim::packet::Packet;
use ofproto::actions::Action;
use ofproto::messages::{OfBody, OfMessage};
use ofproto::types::{DatapathId, PortNo, Xid};
use ofproto::wire;
use policy::interp::execute;

use super::{tail, Outcome, RunArgs};
use crate::gen::{self, Host, Request, CACHE_PORT};
use crate::procstat::{self, CpuPlan, CpuSplit, GEN_PREFIX};
use crate::stats::{self, Slices};
use crate::sut::{self, Listening, SharedTracer, Spanned};
use crate::trace::Tracer;
use crate::wireio::{Conn, XidBook};

/// Switch connections, one generator thread each.
pub const CONNS: usize = 2;

/// Fewest latency samples a slice needs for its median to count.
const MIN_SLICE_SAMPLES: usize = 16;

/// Most latency samples a connection keeps per slice: the first so many.
/// Kept without limit, the samples of a faster run take more memory — ten
/// small-state runs read 12.3 to 15.2 MB of `peak_rss_mb`, in step with
/// their request counts. Small state fills this on every slice, so its
/// samples take the same memory whatever the speed.
const SLICE_KEEP: usize = 256;

/// A request with no reply for this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// Share of the run spent in latency phases; the rest is capacity.
const LATENCY_SHARE: f64 = 0.4;

/// Times a plain run alternates a latency and a capacity phase. What slows
/// the machine down lasts from milliseconds to minutes; three rounds spread
/// each metric's slices over the whole run instead of one block of it.
const ROUNDS: u32 = 3;

/// Xids set aside for one phase of one round.
const ROUND_XIDS: u32 = 0x0400_0000;

/// What distinguishes the two state workloads.
#[derive(Debug)]
pub struct Params {
    /// Workload name.
    pub name: &'static str,
    /// Learned hosts.
    pub hosts: usize,
    /// Bytes of the packet each packet_in carries.
    pub packet_len: usize,
    /// Six applications with thousand-entry state, or `l2_learning` alone.
    pub large: bool,
    /// Distinct pre-encoded requests per connection.
    pub pool: usize,
    /// Requests outstanding per connection in the capacity phase: a few
    /// milliseconds of work for the system under test, so that it keeps
    /// working while the generator's CPU is taken away for a moment (with
    /// 32 small-state requests, a half-busy neighbour on the generator's
    /// CPU cost 13 % of the throughput; with 128, 3 %). No deeper: replies
    /// arrive a window at a time, and a window of 128 large-state requests
    /// is a tenth of a second — throughput counted in steps of 11 %.
    pub window: usize,
    /// Width of the slices both phases are cut into, seconds: a few
    /// hundred requests each. Every end-to-end metric is the best fiftieth
    /// of its phase's slices, and the shorter a slice, the likelier that
    /// some fall in moments the machine leaves alone.
    pub slice_s: f64,
    /// Frames the applications owe each request.
    pub replies: u64,
    /// Requests the traced run's in-process replay pushes through the
    /// layers (sized so the replay takes a few seconds).
    pub replay_requests: usize,
    /// Times the system is set up per run, a third of them before each
    /// round; `setup_s` is the best fiftieth.
    /// A sub-millisecond set-up of thread spawns and handshakes needs more
    /// repetitions to settle than a 60 ms one dominated by seeding.
    pub setups: usize,
}

/// Smallest packet, trivial application work.
pub const SMALL: Params = Params {
    name: "live_small_state",
    hosts: 16,
    packet_len: 64,
    large: false,
    pool: 2048,
    window: 128,
    slice_s: 0.02,
    // l2_learning: flow_mod + the explicit packet_out of an unbuffered miss.
    replies: 2,
    replay_requests: 50_000,
    setups: 210,
};

/// Largest packet, working set far beyond 16 hosts.
pub const LARGE: Params = Params {
    name: "live_large_state",
    hosts: 1024,
    packet_len: 1400,
    large: true,
    pool: 512,
    window: 8,
    slice_s: 0.1,
    // l2_learning, l3_learning and route install (flow_mod + packet_out
    // each); of_firewall and mac_blocker flood; ip_balancer ignores.
    replies: 8,
    replay_requests: 2_000,
    setups: 21,
};

impl Params {
    fn platform(&self, hosts: &[Host]) -> ControllerPlatform {
        if self.large {
            sut::large_platform(hosts)
        } else {
            sut::small_platform(hosts)
        }
    }
}

/// The live system and the generator's connections to it.
struct Live {
    listening: Listening,
    conns: Vec<Conn>,
    handshake_ms: Vec<f64>,
}

/// Builds the system and connects: application seeding, `FloodGuard::new`
/// (which runs the offline analysis), `listen`, every handshake. Returns
/// the live system and how long that took.
fn set_up(params: &Params, hosts: &[Host], tracer: Option<&SharedTracer>) -> (Live, f64) {
    let t0 = Instant::now();
    let floodguard = FloodGuard::new(params.platform(hosts), sut::idle_config(), CACHE_PORT);
    let control: Box<dyn ControlPlane> = match tracer {
        Some(tracer) => Box::new(Spanned::new(floodguard, Arc::clone(tracer))),
        None => Box::new(floodguard),
    };
    let listening = sut::listen(control, Duration::from_millis(100));
    let (conns, handshake_ms) = connect_switches(&listening);
    let took = t0.elapsed().as_secs_f64();
    (
        Live {
            listening,
            conns,
            handshake_ms,
        },
        took,
    )
}

/// Dials [`CONNS`] switch connections; returns them with each one's
/// connect + handshake time in milliseconds.
fn connect_switches(listening: &Listening) -> (Vec<Conn>, Vec<f64>) {
    (0..CONNS)
        .map(|i| {
            let features = sut::switch_features(1 + i as u64, &sut::STATE_PORTS);
            let (conn, took) =
                Conn::connect(listening.addr, &features).expect("handshake with the controller");
            conn.set_read_timeout(Some(REPLY_TIMEOUT))
                .expect("set the reply timeout");
            (conn, took.as_secs_f64() * 1e3)
        })
        .unzip()
}

/// Sets the system up `times` times, keeps the last one running and
/// returns it with every set-up time.
fn set_up_repeatedly(
    params: &Params,
    hosts: &[Host],
    tracer: Option<&SharedTracer>,
    times: usize,
) -> (Live, Vec<f64>, Vec<f64>) {
    let repeats = times.max(1);
    let mut times = Vec::new();
    let mut handshakes = Vec::new();
    let mut live = None;
    for _ in 0..repeats {
        // Tear the previous system down first (untimed), so two never run
        // side by side.
        drop(live.take());
        let (l, took) = set_up(params, hosts, tracer);
        times.push(took);
        handshakes.extend_from_slice(&l.handshake_ms);
        live = Some(l);
    }
    (live.expect("at least one set-up"), times, handshakes)
}

/// What one connection's generator thread saw in one phase.
#[derive(Debug)]
struct ConnPhase {
    /// Slice of the phase and send → first reply in microseconds, of the
    /// first [`SLICE_KEEP`] requests completed inside each whole slice.
    latencies_us: Vec<(u32, f32)>,
    slices: Slices,
    completed: u64,
    /// Requests with no reply within [`REPLY_TIMEOUT`].
    timeouts: u64,
    /// First replies that did not match the application's decision.
    wrong: u64,
    /// Frames whose xid was never sent.
    unknown_xid: u64,
    /// Reply frames received for sent xids.
    replies: u64,
    /// CPU seconds this generator thread used.
    cpu_s: f64,
    /// Socket or decode error that ended the phase early.
    error: Option<String>,
}

/// Whether `msg`, the first reply to `req`, is `l2_learning`'s decision
/// for a known destination: a flow_mod on `dl_dst` whose one action is the
/// destination's learned port. (An unknown destination would instead owe
/// a flood packet_out; every request here names a learned host.)
fn first_reply_ok(msg: &OfMessage, req: &Request) -> bool {
    match &msg.body {
        OfBody::FlowMod(fm) => {
            fm.of_match.keys.dl_dst == req.dst_mac
                && fm.actions == [Action::Output(PortNo::Physical(req.out_port))]
        }
        _ => false,
    }
}

/// How one phase loads each connection.
#[derive(Debug, Clone, Copy)]
struct PhaseSpec {
    /// First xid of the phase; phases use disjoint ranges, so a frame
    /// from an earlier phase would show as an xid never sent.
    first_xid: u32,
    /// Requests kept outstanding.
    window: usize,
    duration: Duration,
    /// Width of the slices the phase is cut into, seconds.
    slice_s: f64,
    /// Whether each completion's latency is kept.
    keep_latencies: bool,
}

impl PhaseSpec {
    /// One request outstanding, every latency kept.
    fn latency(round: u32, duration: Duration, slice_s: f64) -> PhaseSpec {
        PhaseSpec {
            first_xid: 1 + round * ROUND_XIDS,
            window: 1,
            duration,
            slice_s,
            keep_latencies: true,
        }
    }

    /// `window` requests outstanding, completions counted per slice.
    fn capacity(round: u32, duration: Duration, params: &Params) -> PhaseSpec {
        PhaseSpec {
            first_xid: 0x4000_0000 + round * ROUND_XIDS,
            window: params.window,
            duration,
            slice_s: params.slice_s,
            keep_latencies: false,
        }
    }
}

/// Runs one connection's closed loop as `spec` says; the applications owe
/// `replies_per_request` frames per request.
fn drive(
    conn: &mut Conn,
    pool: &[Request],
    spec: PhaseSpec,
    replies_per_request: u64,
) -> ConnPhase {
    let PhaseSpec {
        first_xid,
        window,
        duration,
        slice_s,
        keep_latencies,
    } = spec;
    let mut out = ConnPhase {
        // Room reserved up front: a vector that grows by doubling holds, at
        // its peak, up to three times its contents, and `peak_rss_mb` then
        // moves with where the last doubling fell.
        latencies_us: Vec::with_capacity(if keep_latencies {
            Slices::fitting(duration.as_secs_f64(), slice_s) * SLICE_KEEP
        } else {
            0
        }),
        slices: Slices::new(duration.as_secs_f64(), slice_s),
        completed: 0,
        timeouts: 0,
        wrong: 0,
        unknown_xid: 0,
        replies: 0,
        cpu_s: 0.0,
        error: None,
    };
    let mut book = XidBook::new(first_xid, window);
    let mut scratch: Vec<u8> = Vec::new();
    let start = Instant::now();
    let deadline = start + duration;
    let mut owed = window;
    loop {
        let now = Instant::now();
        if now < deadline {
            if owed > 0 {
                scratch.clear();
                for _ in 0..owed {
                    let xid = book.send(now);
                    let req = &pool[xid.wrapping_sub(first_xid) as usize % pool.len()];
                    let at = scratch.len();
                    scratch.extend_from_slice(&req.frame);
                    gen::set_xid(&mut scratch[at..], xid);
                }
                owed = 0;
                if let Err(e) = conn.send(&scratch) {
                    out.error = Some(format!("send: {e}"));
                    break;
                }
            }
        } else if book.in_flight() == 0 && out.replies >= out.completed * replies_per_request {
            // Every request is answered and every owed frame has arrived:
            // nothing of this phase can leak into the next one.
            break;
        }
        let msgs = match conn.recv() {
            Ok(msgs) => msgs,
            Err(e) => {
                out.error = Some(format!("recv: {e}"));
                break;
            }
        };
        let now = Instant::now();
        if msgs.is_empty() {
            let lost = book.expire(now, REPLY_TIMEOUT);
            out.timeouts += lost as u64;
            owed += lost;
            if now >= deadline && book.in_flight() == 0 {
                break; // owed frames that never came are counted by the caller
            }
            continue;
        }
        for msg in &msgs {
            let xid = msg.xid.0;
            if let Some(sent_at) = book.complete(xid) {
                out.completed += 1;
                out.replies += 1;
                if let Some(slice) = out.slices.index(now.duration_since(start).as_secs_f64()) {
                    out.slices.record_in(slice);
                    if keep_latencies && out.slices.counts()[slice] <= SLICE_KEEP as u64 {
                        out.latencies_us.push((
                            slice as u32,
                            now.duration_since(sent_at).as_secs_f32() * 1e6,
                        ));
                    }
                }
                let req = &pool[xid.wrapping_sub(first_xid) as usize % pool.len()];
                if !first_reply_ok(msg, req) {
                    out.wrong += 1;
                }
                owed += 1;
            } else if book.was_sent(xid)
                && matches!(msg.body, OfBody::FlowMod(_) | OfBody::PacketOut(_))
            {
                out.replies += 1;
            } else {
                out.unknown_xid += 1;
            }
        }
    }
    out.cpu_s = procstat::thread_self_cpu_s();
    out
}

/// One phase over every connection.
struct Phase {
    conns: Vec<ConnPhase>,
    /// CPU of the threads under test over the whole phase.
    cpu: CpuSplit,
    /// The same, slice by slice.
    cpu_per_slice: Vec<CpuSplit>,
    wall_s: f64,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.conns.iter().map(|c| c.completed).sum()
    }

    fn gen_cpu_s(&self) -> f64 {
        self.conns.iter().map(|c| c.cpu_s).sum()
    }

    fn slices(&self) -> Slices {
        let mut merged = self.conns[0].slices.clone();
        for c in &self.conns[1..] {
            merged.merge(&c.slices);
        }
        merged
    }

    /// Completions per second: the best fiftieth of the slices.
    fn rate(&self) -> f64 {
        stats::best_fiftieth(&self.slices().rates(), true)
    }

    /// CPU microseconds of the threads under test per completion, slice
    /// by slice.
    fn cpu_us_per_completion(&self) -> Vec<f64> {
        self.slices()
            .counts()
            .iter()
            .zip(&self.cpu_per_slice)
            .filter(|(&n, _)| n > 0)
            .map(|(&n, cpu)| cpu.under_test / n as f64 * 1e6)
            .collect()
    }

    /// Sorted latencies of every connection, microseconds.
    fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .conns
            .iter()
            .flat_map(|c| c.latencies_us.iter().map(|&(_, l)| f64::from(l)))
            .collect();
        stats::sort(&mut all);
        all
    }

    /// Median latency of each slice with enough samples, microseconds.
    fn slice_medians_us(&self) -> Vec<f64> {
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); self.conns[0].slices.counts().len()];
        for c in &self.conns {
            for &(slice, l) in &c.latencies_us {
                by_slice[slice as usize].push(f64::from(l));
            }
        }
        by_slice
            .iter()
            .filter(|s| s.len() >= MIN_SLICE_SAMPLES)
            .map(|s| stats::median(s))
            .collect()
    }

    /// Adds this phase's operations and failures to `outcome`.
    fn account(&self, outcome: &mut Outcome, what: &str, replies_per_request: u64) {
        for (i, c) in self.conns.iter().enumerate() {
            let sent = c.completed + c.timeouts;
            outcome.check(
                sent,
                c.timeouts,
                &format!("{what}, connection {i}: packet_ins with no reply within 1 s"),
            );
            outcome.check(
                c.completed,
                c.wrong,
                &format!("{what}, connection {i}: first reply is not l2_learning's decision"),
            );
            outcome.check(
                c.replies,
                c.unknown_xid,
                &format!("{what}, connection {i}: frames echoing an xid that was never sent"),
            );
            outcome.expect(
                c.replies == c.completed * replies_per_request,
                &format!(
                    "{what}, connection {i}: {} reply frames for {} requests, expected {} each",
                    c.replies, c.completed, replies_per_request
                ),
            );
            outcome.expect(
                c.error.is_none(),
                &format!(
                    "{what}, connection {i}: {}",
                    c.error.as_deref().unwrap_or("")
                ),
            );
        }
    }
}

/// Runs one phase: a named generator thread per connection, released
/// together; the CPU of the threads under test is read just before the
/// release and just after the last generator ends.
fn run_phase(
    conns: &mut [Conn],
    pools: &[Vec<Request>],
    spec: PhaseSpec,
    replies_per_request: u64,
) -> Phase {
    let duration = spec.duration;
    let barrier = Barrier::new(conns.len() + 1);
    let cpus = CpuPlan::detect();
    let mut before = Vec::new();
    let mut cpu_per_slice = Vec::new();
    let mut t0 = Instant::now();
    let results: Vec<ConnPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pools)
            .enumerate()
            .map(|(i, (conn, pool))| {
                let barrier = &barrier;
                std::thread::Builder::new()
                    .name(format!("{GEN_PREFIX}-{i}"))
                    .spawn_scoped(scope, move || {
                        if let Some(cpus) = cpus {
                            procstat::pin_self(cpus.generator);
                        }
                        barrier.wait();
                        drive(conn, pool, spec, replies_per_request)
                    })
                    .expect("spawn a generator thread")
            })
            .collect();
        before = procstat::thread_cpu();
        t0 = Instant::now();
        barrier.wait();
        // The main thread has nothing else to do: it reads the CPU clocks
        // of the threads under test at every slice boundary, so the cost
        // metric is an order statistic over slices like the throughput it
        // divides by.
        let mut last = before.clone();
        for slice in 1..=Slices::fitting(duration.as_secs_f64(), spec.slice_s) {
            let due = t0 + Duration::from_secs_f64(slice as f64 * spec.slice_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = procstat::reread(&before);
            cpu_per_slice.push(procstat::split(&last, &now));
            last = now;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = procstat::split(&before, &procstat::thread_cpu());
    Phase {
        conns: results,
        cpu,
        cpu_per_slice,
        wall_s,
    }
}

fn request_pools(params: &Params, seed: u64, hosts: &[Host]) -> Vec<Vec<Request>> {
    (0..CONNS)
        .map(|c| gen::request_pool(seed, c as u64, hosts, params.packet_len, params.pool))
        .collect()
}

/// Checks the endpoint's own counters after the phases.
fn check_counters(live: &Live, outcome: &mut Outcome) {
    let c = live.listening.endpoint.counters();
    outcome.expect(c.decode_errors == 0, "endpoint counted decode errors");
    outcome.expect(
        c.keepalive_timeouts == 0,
        "endpoint counted keepalive timeouts",
    );
    outcome.check(
        c.frames_out + c.sends_blocked + c.budget_exhausted,
        c.sends_blocked + c.budget_exhausted,
        "reply frames the endpoint shed under backpressure",
    );
}

/// Runs a state workload.
pub fn run(params: &Params, args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(params, args);
    }
    let mut outcome = Outcome::default();
    super::pin_main(&mut outcome);
    let hosts = gen::hosts(args.seed, params.hosts, &sut::STATE_PORTS[..4]);
    let pools = request_pools(params, args.seed, &hosts);
    let round_s = args.seconds / f64::from(ROUNDS);
    let latency_for = Duration::from_secs_f64(round_s * LATENCY_SHARE);
    let capacity_for = Duration::from_secs_f64(round_s * (1.0 - LATENCY_SHARE));
    let mut latency = Vec::new();
    let mut capacity = Vec::new();
    let mut setups = Vec::new();
    for round in 0..ROUNDS {
        // A fresh system every round: the set-ups, like the slices, are
        // spread over the run.
        let (mut live, took, _) =
            set_up_repeatedly(params, &hosts, None, params.setups / ROUNDS as usize);
        setups.extend(took);
        latency.push(run_phase(
            &mut live.conns,
            &pools,
            PhaseSpec::latency(round, latency_for, params.slice_s),
            params.replies,
        ));
        capacity.push(run_phase(
            &mut live.conns,
            &pools,
            PhaseSpec::capacity(round, capacity_for, params),
            params.replies,
        ));
        check_counters(&live, &mut outcome);
    }
    for (round, (l, c)) in latency.iter().zip(&capacity).enumerate() {
        l.account(
            &mut outcome,
            &format!("latency phase {round}"),
            params.replies,
        );
        c.account(
            &mut outcome,
            &format!("capacity phase {round}"),
            params.replies,
        );
    }

    // Every phase's slices, pooled.
    let over = |phases: &[Phase], f: fn(&Phase) -> Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(f).collect()
    };
    let sum = |phases: &[Phase], f: fn(&Phase) -> f64| -> f64 { phases.iter().map(f).sum() };
    let mut lat = over(&latency, Phase::latencies);
    stats::sort(&mut lat);
    let (tail_name, tail_us) = tail(&lat);
    let p50_all_us = stats::percentile(&lat, 50.0);
    let slice_medians = over(&latency, Phase::slice_medians_us);
    let p50_us = stats::best_fiftieth(&slice_medians, false);
    let rates = over(&capacity, |p| p.slices().rates());
    let rate = stats::best_fiftieth(&rates, true);
    let cpu_slices = over(&capacity, Phase::cpu_us_per_completion);
    let cpu_us = stats::best_fiftieth(&cpu_slices, false);
    let gen_cpu_s = sum(&capacity, Phase::gen_cpu_s);
    let under_test = |f: fn(&CpuSplit) -> f64| -> f64 { capacity.iter().map(|p| f(&p.cpu)).sum() };
    let gen_share = gen_cpu_s / (gen_cpu_s + under_test(|c| c.under_test)).max(1e-9);

    outcome.set("setup_s", stats::best_fiftieth(&setups, false));
    outcome.set("latency_p50_ms", p50_us / 1e3);
    outcome.set("throughput_per_s", rate);
    outcome.set("cpu_us_per_op", cpu_us);
    outcome.note(format!(
        "closed loop over loopback (127.0.0.1), {CONNS} switch connections, one generator thread each; {ROUNDS} rounds of a latency and a capacity phase, cut into {} s slices, every metric the best fiftieth of its slices",
        params.slice_s
    ));
    outcome.note(format!(
        "latency phases: 1 outstanding per connection, {:.1} s, {} samples kept (a connection's first {SLICE_KEEP} of each slice), {} slices: svc_p50_us = {p50_us:.2} us (over all samples kept {p50_all_us:.2} us), svc_{tail_name}_us = {tail_us:.2} us",
        sum(&latency, |p| p.wall_s),
        lat.len(),
        slice_medians.len()
    ));
    outcome.note(format!(
        "capacity phases: {} outstanding per connection, {:.1} s, {} completions, {} slices: pktin_per_s = {rate:.0} /s, ctrl_cpu_us_per_pktin = {cpu_us:.3} us",
        params.window,
        sum(&capacity, |p| p.wall_s),
        capacity.iter().map(Phase::completed).sum::<u64>(),
        rates.len()
    ));
    outcome.note(format!(
        "slices, min / p02 / p10 / p25 / p50 / p75 / p90 / p98 / max: svc_p50_us {}; pktin_per_s {}; ctrl_cpu_us_per_pktin {}",
        stats::profile(&slice_medians),
        stats::profile(&rates),
        stats::profile(&cpu_slices)
    ));
    outcome.note(format!(
        "capacity phases' CPU: under test {:.2} s (control loop {:.2}, worker {:.2}, reactor {:.2}), generator {gen_cpu_s:.2} s, gen.cpu_share = {gen_share:.3}",
        under_test(|c| c.under_test),
        under_test(|c| c.control_loop),
        under_test(|c| c.worker),
        under_test(|c| c.reactor),
    ));
    outcome.note(super::setup_note(&setups, "set-ups"));
    outcome.set("peak_rss_mb", procstat::peak_rss_mb());
    outcome
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// The traced run: a live capacity phase with a span around every call
/// the endpoint makes into FloodGuard and per-thread CPU, a latency phase
/// against a bare hub for the transport's floor, and an in-process replay
/// of the same generated frames through each layer's public functions.
fn run_traced(params: &Params, args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    super::pin_main(&mut outcome);
    let hosts = gen::hosts(args.seed, params.hosts, &sut::STATE_PORTS[..4]);
    let pools = request_pools(params, args.seed, &hosts);
    let live_tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(true)));

    // Algorithm 1 is memoized process-wide, so only the first analysis of
    // these handlers in this process is cold: time it before anything else
    // builds a FloodGuard.
    let offline_ms = {
        let platform = params.platform(&hosts);
        let t0 = Instant::now();
        std::hint::black_box(Analyzer::offline(platform.apps()));
        t0.elapsed().as_secs_f64() * 1e3
    };

    // Transport floor: the same latency phase against the cheapest control
    // plane there is (bare platform, hub).
    let floor_for = Duration::from_secs_f64(args.seconds * 0.15);
    let floor_us = {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        let listening = sut::listen(Box::new(platform), Duration::from_millis(100));
        let (mut conns, _) = connect_switches(&listening);
        let phase = run_phase(
            &mut conns,
            &pools,
            PhaseSpec::latency(0, floor_for, params.slice_s),
            1,
        );
        // The hub floods: its one reply is a packet_out, so the flow_mod
        // check does not apply; only losses count.
        let lost: u64 = phase.conns.iter().map(|c| c.timeouts).sum();
        outcome.check(
            phase.completed() + lost,
            lost,
            "floor phase: no reply within 1 s",
        );
        stats::percentile(&phase.latencies(), 50.0)
    };

    let (mut live, setups, handshakes) =
        set_up_repeatedly(params, &hosts, Some(&live_tracer), params.setups);
    // Spans of the set-ups' own handshakes are not per-request work.
    *live_tracer.lock().expect("span recorder poisoned") = Tracer::new(true);

    let latency_for = Duration::from_secs_f64(args.seconds * 0.15);
    let capacity_for = Duration::from_secs_f64(args.seconds * 0.35);
    let latency = run_phase(
        &mut live.conns,
        &pools,
        PhaseSpec::latency(0, latency_for, params.slice_s),
        params.replies,
    );
    let before = live.listening.endpoint.counters();
    let capacity = run_phase(
        &mut live.conns,
        &pools,
        PhaseSpec::capacity(0, capacity_for, params),
        params.replies,
    );
    let after = live.listening.endpoint.counters();
    latency.account(&mut outcome, "latency phase", params.replies);
    capacity.account(&mut outcome, "capacity phase", params.replies);
    check_counters(&live, &mut outcome);

    let pktins = capacity.completed().max(1) as f64;
    let cpu_us = |s: f64| s / pktins * 1e6;
    let total_us = cpu_us(capacity.cpu.under_test);
    let gen_share =
        capacity.gen_cpu_s() / (capacity.gen_cpu_s() + capacity.cpu.under_test).max(1e-9);
    let lat = latency.latencies();
    outcome.set("ofchannel.svc_p50_us", stats::percentile(&lat, 50.0));
    outcome.set("ofchannel.svc_p99_us", stats::percentile(&lat, 99.0));
    outcome.set("ofchannel.pktin_per_s", capacity.rate());
    outcome.set("ofchannel.floor_rtt_us", floor_us);
    outcome.set("ofchannel.handshake_ms_p50", stats::median(&handshakes));
    outcome.set("ofchannel.cpu_us_per_pktin.total", total_us);
    outcome.set(
        "ofchannel.cpu_us_per_pktin.control_loop",
        cpu_us(capacity.cpu.control_loop),
    );
    outcome.set(
        "ofchannel.cpu_us_per_pktin.worker",
        cpu_us(capacity.cpu.worker),
    );
    outcome.set(
        "ofchannel.cpu_us_per_pktin.reactor",
        cpu_us(capacity.cpu.reactor),
    );
    outcome.set(
        "ofchannel.frames_out_per_pktin",
        (after.frames_out - before.frames_out) as f64 / pktins,
    );
    outcome.set("ofchannel.sends_blocked", after.sends_blocked as f64);
    outcome.set("ofchannel.budget_exhausted", after.budget_exhausted as f64);
    outcome.set("ofchannel.send_queue_hwm", after.send_queue_hwm as f64);
    outcome.set(
        "wire.bytes_in_per_pktin",
        (after.bytes_in - before.bytes_in) as f64 / pktins,
    );
    outcome.set(
        "wire.bytes_out_per_pktin",
        (after.bytes_out - before.bytes_out) as f64 / pktins,
    );
    outcome.set("gen.cpu_share", gen_share);
    outcome.set("gen.threads", CONNS as f64);
    drop(live);

    // The live spans: what the control loop spent inside FloodGuard.
    let live_spans = std::mem::replace(
        &mut *live_tracer.lock().expect("span recorder poisoned"),
        Tracer::new(false),
    );
    let live_layers = live_spans.layers();
    let on_message_live = live_layers
        .get("floodguard.on_message")
        .copied()
        .unwrap_or_default();
    let tick_idle = live_layers
        .get("floodguard.on_telemetry.idle")
        .copied()
        .unwrap_or_default();
    outcome.set(
        "floodguard.on_message_us_per_pktin",
        on_message_live.mean_ns() / 1e3,
    );
    outcome.set(
        "floodguard.telemetry_tick_us.idle",
        tick_idle.mean_ns() / 1e3,
    );

    // The replay: the same frames through each layer's public functions.
    let replay = replay(params, &hosts, &pools[0], true);
    let untraced = replay_wall(params, &hosts, &pools[0]);
    let overhead = replay.wall_s / untraced.max(1e-9);
    let layers = replay.tracer.layers();
    let mean = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ns());
    let decode_ns = mean("wire.decode");
    let encode_ns = mean("wire.encode");
    let replies = replay.replies as f64 / params.replay_requests as f64;
    let handle_ns = mean("platform.handle_packet_in");
    let on_message_replay_ns = mean("floodguard.on_message");
    outcome.set("wire.decode_ns_per_frame", decode_ns);
    outcome.set("wire.encode_ns_per_msg", encode_ns);
    outcome.set("platform.handle_us_per_pktin", handle_ns / 1e3);
    outcome.set("platform.replies_per_pktin", replies);
    outcome.set(
        "floodguard.idle_overhead_ns",
        on_message_replay_ns - handle_ns,
    );
    outcome.set("detector.record_ns", mean("detector.record_packet_in"));
    outcome.set("detector.score_ns", mean("detector.score"));
    for (metric, span) in [
        (
            "policy.execute_ns.l2_learning",
            "policy.execute.l2_learning",
        ),
        (
            "policy.execute_ns.ip_balancer",
            "policy.execute.ip_balancer",
        ),
        (
            "policy.execute_ns.l3_learning",
            "policy.execute.l3_learning",
        ),
        (
            "policy.execute_ns.of_firewall",
            "policy.execute.of_firewall",
        ),
        (
            "policy.execute_ns.mac_blocker",
            "policy.execute.mac_blocker",
        ),
        ("policy.execute_ns.route", "policy.execute.route"),
    ] {
        outcome.set(metric, mean(span));
    }
    outcome.set("analyzer.offline_ms", offline_ms);
    outcome.set("gen.trace_overhead_ratio", overhead);

    // Reconciliation: what outside calls can account for, and the rest.
    let on_message_us = on_message_live.mean_ns() / 1e3;
    let reached_us = decode_ns / 1e3 + on_message_us + encode_ns / 1e3 * replies;
    let residual_us = total_us - reached_us;
    outcome.set("ofchannel.residual_us_per_pktin", residual_us);
    outcome.note(format!(
        "reconciliation (us per packet_in): wire.decode {:.3} + floodguard.on_message {:.3} (live spans, {} calls) + wire.encode {:.3} x {:.1} replies = {:.3}; + ofchannel.residual {:.3} = ctrl_cpu_us_per_pktin {:.3} (traced capacity phase, {} packet_ins)",
        decode_ns / 1e3,
        on_message_us,
        on_message_live.count,
        encode_ns / 1e3,
        replies,
        reached_us,
        residual_us,
        total_us,
        capacity.completed()
    ));
    outcome.note(format!(
        "replay: {} requests, on_message {:.0} ns in process vs {:.0} ns live; platform.handle_packet_in {:.0} ns; traced {:.3} s / untraced {:.3} s = gen.trace_overhead_ratio {:.3}",
        params.replay_requests,
        on_message_replay_ns,
        on_message_live.mean_ns(),
        handle_ns,
        replay.wall_s,
        untraced,
        overhead
    ));
    outcome.note(format!(
        "set-up (traced run): median {:.4} s; handshake p50 {:.3} ms",
        stats::median(&setups),
        stats::median(&handshakes)
    ));

    let mut all = replay.tracer;
    all.absorb(live_spans);
    super::write_spans(&mut outcome, &all, params.name, args.seed);
    outcome
}

/// What the in-process replay measured.
struct Replay {
    tracer: Tracer,
    wall_s: f64,
    replies: u64,
}

/// Pushes `params.replay_requests` of `pool`'s frames through the layers one
/// call at a time: `wire::decode_frames`, `FloodGuard::on_message`,
/// `wire::encode` per reply — and, on twins holding the same state,
/// `ControllerPlatform::handle_packet_in`, `policy::interp::execute` per
/// application and the detector's two calls. One `request` span per
/// frame parents them all.
fn replay(params: &Params, hosts: &[Host], pool: &[Request], traced: bool) -> Replay {
    let mut tracer = Tracer::new(traced);
    let mut floodguard = FloodGuard::new(params.platform(hosts), sut::idle_config(), CACHE_PORT);
    let dpid = DatapathId(1);
    let mut out = ControlOutput::new();
    floodguard.on_switch_connect(
        dpid,
        sut::switch_features(1, &sut::STATE_PORTS),
        0.0,
        &mut out,
    );
    let mut twin = params.platform(hosts);
    let mut twin_out = ControlOutput::new();
    let mut apps_twin: Vec<_> = params.platform(hosts).apps().to_vec();
    let mut detector = Detector::new(sut::idle_config().detection);
    let mut replies = 0u64;
    let mut buf = BytesMut::new();
    let t0 = Instant::now();
    for i in 0..params.replay_requests {
        let req = i as u64;
        let now = i as f64 * 1e-5;
        let frame = &pool[i % pool.len()].frame;
        let span = tracer.begin("request", req);
        buf.extend_from_slice(frame);
        let msgs = tracer
            .span("wire.decode", req, || wire::decode_frames(&mut buf))
            .expect("own frame decodes");
        for msg in msgs {
            let OfBody::PacketIn(pi) = &msg.body else {
                unreachable!("the pool holds packet_ins only")
            };
            // Twins first, on a copy of the message: same input, same state.
            twin_out.reset();
            tracer.span("platform.handle_packet_in", req, || {
                twin.handle_packet_in(dpid, Xid(i as u32), pi, &mut twin_out);
            });
            let packet = Packet::parse(&pi.data).expect("own packet parses");
            let keys = packet.flow_keys(pi.in_port.physical().unwrap_or(0));
            for app in &mut apps_twin {
                let name = match app.program.name.as_str() {
                    "l2_learning" => "policy.execute.l2_learning",
                    "ip_balancer" => "policy.execute.ip_balancer",
                    "l3_learning" => "policy.execute.l3_learning",
                    "of_firewall" => "policy.execute.of_firewall",
                    "mac_blocker" => "policy.execute.mac_blocker",
                    "route" => "policy.execute.route",
                    _ => "policy.execute.other",
                };
                tracer.span(name, req, || {
                    std::hint::black_box(execute(&app.program, &keys, &mut app.env).ok());
                });
            }
            tracer.span("detector.record_packet_in", req, || {
                detector.record_packet_in(now);
            });
            if i % 1000 == 0 {
                tracer.span("detector.score", req, || {
                    std::hint::black_box(detector.score(now));
                });
            }
            out.reset();
            tracer.span("floodguard.on_message", req, || {
                floodguard.on_message(dpid, msg, now, &mut out);
            });
            for (_, reply) in &out.messages {
                replies += 1;
                tracer.span("wire.encode", req, || {
                    std::hint::black_box(wire::encode(reply));
                });
            }
        }
        tracer.end(span);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Idle telemetry ticks, as the endpoint would deliver them.
    let telemetry = Telemetry::default();
    for tick in 0..200u64 {
        out.reset();
        tracer.span("floodguard.on_telemetry.idle", tick, || {
            floodguard.on_telemetry(&telemetry, 1.0 + tick as f64 * 0.1, &mut out);
        });
    }
    Replay {
        tracer,
        wall_s,
        replies,
    }
}

/// Wall seconds of the same replay with span recording off.
fn replay_wall(params: &Params, hosts: &[Host], pool: &[Request]) -> f64 {
    replay(params, hosts, pool, false).wall_s
}
