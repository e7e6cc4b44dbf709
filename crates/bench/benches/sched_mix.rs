//! Scheduler throughput under the *measured* in-simulation delay mix — the
//! honest companion to the `engine` bench's attack-burst microbench.
//!
//! The `engine` bench measures the flood shape (same-timestamp bursts on
//! millisecond ticks), where the calendar queue is at its best. This bench
//! replays the delay distribution a real FloodGuard flood run actually
//! schedules, histogrammed from a fig10 simulation (~1M schedule calls):
//!
//! * ~1% exact-zero delays (service start at `busy_until == now`),
//! * ~15% sub-microsecond service/tx chains (distinct, ulp-scale spacings),
//! * ~47% ~50 µs link hops,
//! * ~33% ~0.3 ms controller channel latency,
//! * ~4% millisecond-scale emission/maintenance timers.
//!
//! Interleaving five delay scales defeats the wheel's single-bucket fast
//! path — every bucket holds mixed times and the staging lanes carry real
//! traffic — so the wheel's margin here is structurally smaller than on the
//! burst shape. Both numbers go in `EXPERIMENTS.md`; regression gating
//! stays in the `engine` bench.
//!
//! `--test` (what `cargo test` passes to bench targets) runs a tiny smoke
//! version: no JSON written, exit 0.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use bench::report::write_report;
use netsim::packet::Packet;
use netsim::sched::{HeapQueue, Scheduler, WheelQueue};
use obs::Json;
use ofproto::types::MacAddr;

/// Engine-shaped queue element (see the `engine` bench: sifting a `u32`
/// would flatter the heap's `O(log n)`).
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

/// 100-slot delay table matching the measured histogram above. The sub-µs
/// entries are all distinct, like the real service chains' arithmetic.
const MIX: [f64; 100] = {
    let mut m = [50e-6; 100];
    m[0] = 0.0;
    let mut i = 1;
    while i < 16 {
        m[i] = 0.2e-6 + 0.03e-6 * i as f64;
        i += 1;
    }
    while i < 63 {
        m[i] = 50e-6;
        i += 1;
    }
    while i < 96 {
        m[i] = 0.3e-3;
        i += 1;
    }
    while i < 100 {
        m[i] = 2.5e-3;
        i += 1;
    }
    m
};

/// Pop → reschedule churn drawing delays from [`MIX`] in a fixed stride-37
/// order (coprime with 100, so the sequence visits every slot and adjacent
/// draws land on different delay scales, as real event interleaving does).
fn churn<S: Scheduler<Delivery>>(q: &mut S, hosts: usize, inflight: usize, ops: u64) -> f64 {
    for i in 0..hosts * inflight {
        q.schedule((i % 16) as f64 * 1e-3, delivery(i));
    }
    let t0 = Instant::now();
    let mut sink = 0usize;
    for k in 0..ops as usize {
        let (t, e) = q.pop().expect("queue never drains");
        sink = sink.wrapping_add(e.sw + e.port as usize + e.pkt.wire_len);
        q.schedule(t + MIX[(k * 37) % 100], e);
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (hosts, ops, reps) = if smoke {
        (1_000, 20_000u64, 1)
    } else {
        (10_000, 4_000_000u64, 3)
    };

    println!("# sched_mix — measured-delay-mix scheduler churn ({hosts} hosts, {ops} ops)");
    let mut rows = Vec::new();
    for inflight in [3usize, 10] {
        let heap = best_of(reps, || churn(&mut HeapQueue::new(), hosts, inflight, ops));
        let wheel = best_of(reps, || churn(&mut WheelQueue::new(), hosts, inflight, ops));
        println!(
            "inflight={inflight:2} heap={heap:>9.0} ops/s ({:>5.1} ns)  \
             wheel={wheel:>9.0} ops/s ({:>5.1} ns)  speedup={:.2}x",
            1e9 / heap,
            1e9 / wheel,
            wheel / heap
        );
        rows.push(
            Json::obj()
                .set("inflight", inflight)
                .set("heap_ops_per_sec", heap)
                .set("wheel_ops_per_sec", wheel)
                .set("speedup", wheel / heap),
        );
    }

    if smoke {
        println!("sched_mix bench: ok (smoke mode, no report)");
        return;
    }
    let report = Json::obj()
        .set("bench", "sched_mix")
        .set(
            "scenario",
            "scheduler churn over the measured in-sim delay mix (fig10 histogram)",
        )
        .set("hosts", hosts)
        .set("ops", ops)
        .set("rows", Json::Arr(rows));
    match write_report("sched_mix", &report) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_sched_mix.json: {err}"),
    }
}
