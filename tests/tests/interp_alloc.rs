//! The concrete interpreter must not copy application state: what one
//! `packet_in` costs may depend on the handler's path, never on how many
//! hosts the application has learned. A spoofing attacker writes that
//! state, so a per-packet cost that grows with it is a lever against the
//! controller (ROADMAP item 1).
//!
//! A counting allocator makes the property exact: for each of the six
//! benchmark applications, `execute` on 16-entry and on 1024-entry state
//! performs the same number of allocations of the same total size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use controller::apps;
use ofproto::flow_match::FlowKeys;
use ofproto::types::MacAddr;
use policy::interp::{execute, ConcreteDecision};
use policy::{Env, Program};

thread_local! {
    /// (allocations, bytes) made by this thread; tests run on threads of
    /// their own, so other tests do not disturb the count.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// `Cell` in thread-local storage, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
