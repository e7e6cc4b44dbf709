//! Production-scale analyzer pipeline equivalence suite.
//!
//! Locks the three invariants the incremental/compressed pipeline must
//! preserve over the plain seed pipeline:
//!
//! 1. **Incrementality is invisible** — any interleaving of per-app env
//!    mutations and `Analyzer::convert` calls ends in exactly the rule set
//!    a cold analyzer produces from the same final state. The conversion
//!    cache may skip work, never change output.
//! 2. **Compression is packet-equivalent** — for random rule populations
//!    and probe packets, the winning rule's actions are identical before
//!    and after `symexec::compress` (with no TCAM budget; eviction is the
//!    one pass that is *allowed* to change semantics, tested separately).
//! 3. **Key-wise refreshes are invisible** — `Analyzer::update`, which
//!    converts only the table keys written since the last round where it
//!    can prove that enough, emits flow-mod for flow-mod what
//!    `dispatch(convert(..))` of an analyzer with no memory emits.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bench::synthetic;
use controller::apps;
use controller::platform::App;
use floodguard::analyzer::Analyzer;
use ofproto::actions::Action;
use ofproto::flow_match::{FlowKeys, OfMatch};
use ofproto::types::{ethertype, MacAddr, PortNo};
use policy::builder::*;
use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use policy::{ProactiveRule, Program, Value};
use proptest::prelude::*;
use symexec::{compress, convert_to_rules, generate_path_conditions, winner, CompressionConfig};

/// Population size for the interleaving proptest — small enough to keep
/// 32 cases fast, large enough that the cache serves a real majority.
const FLEET: usize = 12;

// --- 1. Incremental re-analysis == cold reconvert -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn interleaved_mutation_and_convert_equals_cold_reconvert(
        script in proptest::collection::vec((0usize..FLEET, 0u8..3), 1..24)
    ) {
        let mut apps = synthetic::population(FLEET);
        let mut warm = Analyzer::offline(&apps);
        warm.convert(&apps); // prime every cache slot
        let mut round = 0u64;
        for (idx, op) in script {
            round += 1;
            synthetic::touch(&mut apps[idx], round);
            // op: 0 = batch further mutations, 1/2 = convert now (biased
            // toward converting so most cases exercise warm re-analysis).
            if op != 0 {
                warm.convert(&apps);
            }
        }
        let warm_rules = warm.convert(&apps);
        let cold_rules = Analyzer::offline(&apps).convert(&apps);
        prop_assert_eq!(&warm_rules, &cold_rules);

        // Same invariant with the compression passes enabled end to end.
        warm.set_compression(Some(CompressionConfig::default()));
        let warm_compressed = warm.convert(&apps);
        let mut cold = Analyzer::offline(&apps);
        cold.set_compression(Some(CompressionConfig::default()));
        prop_assert_eq!(&warm_compressed, &cold.convert(&apps));
        prop_assert!(warm_compressed.len() <= warm_rules.len());
    }
}

// --- 2. Compression preserves per-packet winner actions -------------------

/// Rules drawn from a deliberately small universe (a handful of /16–/32
/// prefixes under 10.0.0.0/8, four MACs, four ports, three priorities) so
/// duplicates, shadows and mergeable siblings all occur often.
fn arb_rule() -> impl Strategy<Value = ProactiveRule> {
    (0u8..5, 0u8..4, 0u8..3, 0u8..4, 0u8..3).prop_map(|(shape, hi, len_sel, port, prio)| {
        let net = Ipv4Addr::new(10, 0, hi, 0);
        let len = [16, 23, 24][len_sel as usize];
        let of_match = match shape {
            0 => OfMatch::any().with_nw_dst_prefix(net, len),
            1 => OfMatch::any().with_nw_src_prefix(net, len),
            2 => OfMatch::any()
                .with_nw_dst_prefix(Ipv4Addr::new(10, 0, hi, 7), 32)
                .with_tp_dst(80 + u16::from(hi)),
            3 => OfMatch::any().with_dl_dst(MacAddr::from_u64(0x0200 + u64::from(hi))),
            _ => OfMatch::any(),
        };
        ProactiveRule {
            of_match,
            actions: vec![Action::Output(PortNo::Physical(u16::from(port) + 1))],
            priority: [100, 200, 32768][prio as usize],
            idle_timeout: 0,
            hard_timeout: 0,
        }
    })
}

/// Probe packets over the same universe, plus off-universe noise so "no
/// winner" cases are exercised too.
fn arb_probe() -> impl Strategy<Value = FlowKeys> {
    (0u8..5, 0u8..5, 0u8..10, 0u8..6, 0u16..90).prop_map(|(shi, dhi, lo, mac, tp)| FlowKeys {
        dl_dst: MacAddr::from_u64(0x0200 + u64::from(mac)),
        dl_type: ethertype::IPV4,
        nw_src: Ipv4Addr::new(10, 0, shi, lo),
        nw_dst: Ipv4Addr::new(if dhi == 4 { 11 } else { 10 }, 0, dhi, lo),
        tp_dst: tp,
        ..FlowKeys::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn compression_preserves_winner_actions(
        rules in proptest::collection::vec(arb_rule(), 0..40),
        probes in proptest::collection::vec(arb_probe(), 1..24),
    ) {
        // No budget: every pass must be semantics-preserving.
        let (compressed, stats) = compress(&rules, &CompressionConfig::default());
        prop_assert_eq!(stats.rules_in, rules.len());
        prop_assert_eq!(stats.rules_out, compressed.len());
        prop_assert_eq!(stats.rules_evicted, 0);
        prop_assert!(stats.fits_budget);
        for keys in &probes {
            let before = winner(&rules, keys).map(|r| &r.actions);
            let after = winner(&compressed, keys).map(|r| &r.actions);
            prop_assert_eq!(before, after, "winner diverged for {:?}", keys);
        }
    }
}

// --- 3. TCAM budget eviction is bounded and counted -----------------------

#[test]
fn tcam_budget_bounds_output_and_counts_evictions() {
    let apps = synthetic::population(40);
    let mut analyzer = Analyzer::offline(&apps);
    let raw = analyzer.convert(&apps).len();

    let budget = 16;
    analyzer.set_compression(Some(CompressionConfig::default().with_budget(budget)));
    analyzer.clear_conversion_cache();
    let out = analyzer.convert(&apps);
    let stats = analyzer.last_compression.expect("compression ran");
    assert!(raw > budget, "population too small to exercise eviction");
    assert_eq!(out.len(), budget, "budget must bound the installed set");
    assert!(!stats.fits_budget);
    assert_eq!(stats.rules_out, out.len());
    assert_eq!(
        stats.rules_in - stats.rules_out,
        stats.duplicates_removed
            + stats.shadows_removed
            + stats.prefixes_merged
            + stats.rules_evicted,
        "every dropped rule must be attributed to exactly one pass"
    );

    // A budget the compressed set fits under evicts nothing.
    analyzer.set_compression(Some(CompressionConfig::default().with_budget(4096)));
    analyzer.clear_conversion_cache();
    let roomy = analyzer.convert(&apps);
    let stats = analyzer.last_compression.expect("compression ran");
    assert!(stats.fits_budget);
    assert_eq!(stats.rules_evicted, 0);
    assert!(roomy.len() > budget);
}

// --- 4. Key-wise update == cold dispatch(convert(..)) ---------------------

/// A handler around one path: `cond` installs `template`, anything else
/// floods.
fn one_path(name: &str, cond: policy::Expr, template: RuleTemplate) -> Program {
    Program::new(
        name,
        vec![],
        vec![if_else(
            cond,
            vec![emit(Decision::InstallRule(template))],
            vec![emit(Decision::PacketOutFlood)],
        )],
    )
}

fn mac(i: u8) -> Value {
    Value::Mac(MacAddr::from_u64(0x0200 + u64::from(i)))
}

/// Where `hub` is registered.
const HUB_SLOT: usize = 7;

/// The applications the script runs over, all tables empty: the paper's
/// five, `route`, `arp_hub`, `hub`, a second `l2_learning` under the same
/// name (both learn from one key pool, so the two yield equal rules), two
/// `bench::synthetic` templates, and four handlers that each break one
/// condition of delta-safety.
fn differential_apps() -> Vec<App> {
    let mut programs = apps::evaluation_apps();
    programs.extend([
        apps::route::program(),
        apps::arp_hub::program(),
        apps::hub::program(),
        apps::l2_learning::program(),
        synthetic::route_app(0).program,
        synthetic::l2_app(1).program,
        // Every key of `seen` yields the same rule: the second key makes
        // the application's list one with a repeat.
        one_path(
            "same_rule_per_key",
            map_contains(global("seen"), field(Field::DlSrc)),
            RuleTemplate::new(
                vec![MatchTemplate::Exact(Field::DlType, constant(0x0806u64))],
                vec![ActionTemplate::Flood],
            ),
        ),
        // `m` is read twice: enumerated over dl_dst, and asked whether it
        // holds one fixed key, which switches every other key's rule.
        one_path(
            "read_twice",
            and(
                map_contains(global("m"), field(Field::DlDst)),
                map_contains(global("m"), constant(mac(0))),
            ),
            RuleTemplate::new(
                vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                vec![ActionTemplate::Output(map_get(
                    global("m"),
                    field(Field::DlDst),
                ))],
            ),
        ),
        // Keyed by `a`; `b` is the container of a negative test on the
        // same field, so a write to `b` is not a write to a key of this
        // path and one to `a` may be rejected by `b`.
        one_path(
            "in_a_not_in_b",
            and(
                map_contains(global("a"), field(Field::DlDst)),
                not(map_contains(global("b"), field(Field::DlDst))),
            ),
            RuleTemplate::new(
                vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                vec![ActionTemplate::Output(map_get(
                    global("a"),
                    field(Field::DlDst),
                ))],
            ),
        ),
        // The template looks `m` up under another field than the
        // enumerated one: one key's rule depends on another key's value.
        one_path(
            "looks_up_another_key",
            and(
                map_contains(global("m"), field(Field::DlDst)),
                eq(field(Field::DlSrc), constant(mac(0))),
            ),
            RuleTemplate::new(
                vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                vec![ActionTemplate::Output(map_get(
                    global("m"),
                    field(Field::DlSrc),
                ))],
            ),
        ),
    ]);
    let mut apps: Vec<App> = programs.into_iter().map(App::new).collect();
    assert_eq!(apps[HUB_SLOT].program.name, "hub");
    for app in &mut apps {
        for table in ["seen", "m", "a", "b"] {
            if body_reads(&app.program, table) {
                app.env.set(table, Value::Map(BTreeMap::new()));
            }
        }
    }
    apps
}

fn body_reads(program: &Program, table: &str) -> bool {
    generate_path_conditions(program)
        .paths
        .iter()
        .any(|p| p.read_globals().iter().any(|g| g == table))
}

/// The map-valued globals of `app`, by name.
fn tables(app: &App) -> Vec<String> {
    app.env
        .names()
        .filter(|name| matches!(app.env.get(name), Some(Value::Map(_))))
        .map(str::to_owned)
        .collect()
}

/// A key of the right type for `table`, from a pool of twelve per table so
/// that overwrites and equal rules across applications are common.
fn pool_key(table: &str, k: u8) -> Value {
    match table {
        "ipToPort" => Value::Ip(Ipv4Addr::new(10, 0, 0, k)),
        "routingTable" => Value::Ip(Ipv4Addr::new(10, k, 1, 0)),
        _ => mac(k),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `learn` key `k` of the pool with port `port` into table `t` of the
    /// `a`-th application that has a table (both modulo what exists).
    Learn {
        a: usize,
        t: usize,
        k: u8,
        port: u8,
    },
    /// Replace table `t` of app `a` by itself less its first key.
    DropFirstKey {
        a: usize,
        t: usize,
    },
    /// An administrator's `set`-based writes.
    BlockMac(u8),
    BlockTuple(u8),
    SwapReplicas,
    /// More writes to one key than the journal holds.
    Overflow {
        a: usize,
        t: usize,
        k: u8,
    },
    ResetInstalled,
    Compression(bool),
    /// The `hub` slot's handler becomes `arp_hub`'s or `hub`'s again.
    EditHandler,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let learn = |weight| {
        (
            weight,
            (0usize..64, 0usize..4, 0u8..12, 1u8..5).prop_map(|(a, t, k, port)| Op::Learn {
                a,
                t,
                k,
                port,
            }),
        )
    };
    prop_oneof![
        learn(12).1,
        learn(12).1,
        learn(12).1,
        (0usize..64, 0usize..4).prop_map(|(a, t)| Op::DropFirstKey { a, t }),
        (0u8..6).prop_map(Op::BlockMac),
        (0u8..6).prop_map(Op::BlockTuple),
        Just(Op::SwapReplicas),
        (0usize..64, 0usize..4, 0u8..12).prop_map(|(a, t, k)| Op::Overflow { a, t, k }),
        Just(Op::ResetInstalled),
        any::<bool>().prop_map(Op::Compression),
        Just(Op::EditHandler),
    ]
}

/// Applies `op` to the applications and, where it is one on the analyzers
/// themselves, to both of them alike.
fn apply(op: &Op, apps: &mut [App], analyzers: [&mut Analyzer; 2]) {
    let learners: Vec<usize> = (0..apps.len())
        .filter(|&i| !tables(&apps[i]).is_empty())
        .collect();
    let pick = |apps: &[App], a: usize, t: usize| {
        let a = learners[a % learners.len()];
        let names = tables(&apps[a]);
        (a, names[t % names.len()].clone())
    };
    let app_named = |apps: &mut [App], name: &str| {
        apps.iter()
            .position(|app| app.program.name == name)
            .expect("registered")
    };
    match *op {
        Op::Learn { a, t, k, port } => {
            let (a, table) = pick(apps, a, t);
            apps[a]
                .env
                .learn(&table, pool_key(&table, k), Value::Int(u64::from(port)));
        }
        Op::DropFirstKey { a, t } => {
            let (a, table) = pick(apps, a, t);
            let mut map = apps[a].env.get(&table).unwrap().as_map().unwrap().clone();
            map.pop_first();
            apps[a].env.set(&table, Value::Map(map));
        }
        Op::BlockMac(k) => {
            let a = app_named(apps, "mac_blocker");
            apps::mac_blocker::block(&mut apps[a].env, MacAddr::from_u64(0x0200 + u64::from(k)));
        }
        Op::BlockTuple(k) => {
            let a = app_named(apps, "of_firewall");
            let ip = Ipv4Addr::new(10, 0, 0, k);
            apps::of_firewall::block(&mut apps[a].env, ip, ip, 6, 80);
        }
        Op::SwapReplicas => {
            let a = app_named(apps, "ip_balancer");
            let upper = apps[a].env.get("replica_upper").unwrap().as_ip().unwrap();
            let (first, second) = if upper == apps::ip_balancer::DEFAULT_REPLICA_A {
                (
                    apps::ip_balancer::DEFAULT_REPLICA_B,
                    apps::ip_balancer::DEFAULT_REPLICA_A,
                )
            } else {
                (
                    apps::ip_balancer::DEFAULT_REPLICA_A,
                    apps::ip_balancer::DEFAULT_REPLICA_B,
                )
            };
            apps::ip_balancer::configure(
                &mut apps[a].env,
                apps::ip_balancer::DEFAULT_VIP,
                (first, 1),
                (second, 2),
            );
        }
        Op::Overflow { a, t, k } => {
            let (a, table) = pick(apps, a, t);
            for i in 0..600u64 {
                apps[a]
                    .env
                    .learn(&table, pool_key(&table, k), Value::Int(1 + i % 2));
            }
        }
        Op::ResetInstalled => analyzers.into_iter().for_each(Analyzer::reset_installed),
        Op::Compression(on) => {
            let config = on.then(CompressionConfig::default);
            analyzers
                .into_iter()
                .for_each(|analyzer| analyzer.set_compression(config));
        }
        Op::EditHandler => {
            apps[HUB_SLOT].program = if apps[HUB_SLOT].program.name == "hub" {
                apps::arp_hub::program()
            } else {
                apps::hub::program()
            };
            for analyzer in analyzers {
                analyzer.refresh_handlers(apps);
            }
        }
    }
}

/// Runs `script` — rounds of a few operations — through an analyzer that
/// lives on `update` and one that forgets every conversion before each
/// `dispatch(convert(..))`, and compares the two after every round.
/// Returns how many application refreshes converted written keys only.
fn run_differential(script: &[Vec<Op>]) -> Result<u64, TestCaseError> {
    const COOKIE: u64 = 0xf100d;
    let mut apps = differential_apps();
    let mut keyed = Analyzer::offline(&apps);
    let mut cold = Analyzer::offline(&apps);
    let mut converted_at: Vec<Option<u64>> = vec![None; apps.len()];
    for (round, ops) in script.iter().enumerate() {
        for op in ops {
            apply(op, &mut apps, [&mut keyed, &mut cold]);
            if matches!(op, Op::EditHandler) {
                converted_at[HUB_SLOT] = None;
            }
        }
        let now = round as f64 * 0.02;
        let update = keyed.update(&apps, COOKIE, now);
        cold.clear_conversion_cache();
        let rules = cold.convert(&apps);
        if cold.compression().is_none() {
            // What a cold convert returns is Algorithm 2 per application.
            let per_app: Vec<ProactiveRule> = apps
                .iter()
                .flat_map(|app| {
                    convert_to_rules(&generate_path_conditions(&app.program), &app.env).rules
                })
                .collect();
            prop_assert_eq!(&rules, &per_app, "round {}", round);
        }
        let expected = cold.dispatch(rules, COOKIE, now);
        prop_assert_eq!(
            &update.to_remove,
            &expected.to_remove,
            "round {} {:?}",
            round,
            ops
        );
        prop_assert_eq!(
            &update.to_add,
            &expected.to_add,
            "round {} {:?}",
            round,
            ops
        );
        prop_assert_eq!(
            keyed.installed(),
            cold.installed(),
            "round {} {:?}",
            round,
            ops
        );
        prop_assert_eq!(
            keyed.last_stats,
            cold.last_stats,
            "round {} {:?}",
            round,
            ops
        );
        prop_assert_eq!(keyed.last_rules_raw, cold.last_rules_raw);
        prop_assert_eq!(keyed.last_compression, cold.last_compression);
        // However an application is brought up to date, it is one miss.
        let mut stale = 0;
        for (app, at) in apps.iter().zip(&mut converted_at) {
            stale += u64::from(*at != Some(app.env.version()));
            *at = Some(app.env.version());
        }
        prop_assert_eq!(keyed.cache_stats().last_misses, stale, "round {}", round);
    }
    Ok(keyed.key_refreshes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn keywise_update_equals_cold_dispatch_of_convert(
        script in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..5), 1..24)
    ) {
        run_differential(&script)?;
    }
}

/// The `a` of an [`Op`] that selects the `nth` application called `name`.
fn nth_learner(name: &str, nth: usize) -> usize {
    differential_apps()
        .iter()
        .filter(|app| !tables(app).is_empty())
        .enumerate()
        .filter(|(_, app)| app.program.name == name)
        .nth(nth)
        .expect("an application with a table")
        .0
}

fn learner(name: &str) -> usize {
    nth_learner(name, 0)
}

/// The property above is worth what its scripts reach: rounds that are
/// served key by key, and each of the ways out of that.
#[test]
fn differential_scripts_reach_keywise_and_full_refreshes() {
    let learn = |a, k, port| Op::Learn { a, t: 0, k, port };
    // One learn per round into every learning application in turn: after
    // the first (cold) round, a round is key-wise unless its application
    // is one that is not delta-safe.
    let plain: Vec<Vec<Op>> = (0..40).map(|i| vec![learn(i, (i % 12) as u8, 1)]).collect();
    let keywise = run_differential(&plain).expect("agrees");
    assert!(keywise >= 20, "{keywise} key-wise refreshes in 40 rounds");
    // The same with a way out before every learn.
    for way_out in [
        Op::ResetInstalled,
        Op::Compression(true),
        Op::EditHandler,
        Op::SwapReplicas,
    ] {
        let script: Vec<Vec<Op>> = (0..12)
            .map(|i| vec![way_out.clone(), learn(0, i as u8, 2)])
            .collect();
        run_differential(&script).expect("agrees");
    }
    // Overflow and whole-table replacement hit the application they write.
    let script: Vec<Vec<Op>> = (0..12)
        .map(|i| {
            vec![
                learn(0, i as u8, 1),
                if i % 2 == 0 {
                    Op::Overflow { a: 0, t: 0, k: 3 }
                } else {
                    Op::DropFirstKey { a: 0, t: 0 }
                },
            ]
        })
        .collect();
    assert_eq!(run_differential(&script).expect("agrees"), 0);
}

/// Scripts aimed at each condition of delta-safety: what a key-wise
/// refresh would get wrong there, and that none is attempted.
#[test]
fn what_is_not_delta_safe_is_converted_in_full() {
    let learn = |name: &str, t, k, port| Op::Learn {
        a: learner(name),
        t,
        k,
        port,
    };
    let rounds = |ops: Vec<Op>| ops.into_iter().map(|op| vec![op]).collect::<Vec<_>>();
    // A second read: key 0 arriving turns keys 1 and 2 into rules.
    let script = rounds(vec![
        learn("read_twice", 0, 1, 1),
        learn("read_twice", 0, 2, 2),
        learn("read_twice", 0, 0, 3),
        learn("read_twice", 0, 4, 4),
    ]);
    assert_eq!(run_differential(&script).expect("agrees"), 0);
    // A lookup under another key: key 0's value is every rule's port.
    let script = rounds(vec![
        learn("looks_up_another_key", 0, 0, 1),
        learn("looks_up_another_key", 0, 5, 1),
        learn("looks_up_another_key", 0, 0, 2),
    ]);
    assert_eq!(run_differential(&script).expect("agrees"), 0);
    // A repeated rule: the second key's rule is the first's.
    let script = rounds(vec![
        learn("same_rule_per_key", 0, 1, 1),
        learn("same_rule_per_key", 0, 2, 1),
        learn("same_rule_per_key", 0, 3, 1),
    ]);
    assert_eq!(run_differential(&script).expect("agrees"), 0);
    // ... and so is the second of two keys that arrive together, on a
    // table that held none.
    let script = vec![
        vec![learn("l2_learning", 0, 1, 1)],
        vec![
            learn("same_rule_per_key", 0, 1, 1),
            learn("same_rule_per_key", 0, 2, 1),
        ],
    ];
    assert_eq!(run_differential(&script).expect("agrees"), 0);
    // A negative test on another table: writes to `a` go key by key (and
    // key 2 is rejected, being in `b`); one to `b`, alone or along with
    // one to `a`, is not a write to a key of the path.
    let (a, b) = (0, 1);
    let script = vec![
        vec![learn("in_a_not_in_b", a, 1, 1)],
        vec![learn("in_a_not_in_b", b, 2, 1)],
        vec![learn("in_a_not_in_b", a, 2, 2)],
        vec![learn("in_a_not_in_b", a, 3, 3)],
        vec![
            learn("in_a_not_in_b", a, 4, 4),
            learn("in_a_not_in_b", b, 1, 1),
        ],
        vec![learn("in_a_not_in_b", b, 3, 1)],
    ];
    assert_eq!(run_differential(&script).expect("agrees"), 2);
    // The same key under the same name in two applications: equal rules,
    // which is no repeat within either, so every round after the first
    // goes key by key — and a port change removes nothing until both
    // have moved.
    let second = nth_learner("l2_learning", 1);
    let script = vec![
        vec![learn("l2_learning", 0, 1, 1)],
        vec![learn("l2_learning", 0, 2, 1)],
        vec![Op::Learn {
            a: second,
            t: 0,
            k: 2,
            port: 1,
        }],
        vec![learn("l2_learning", 0, 2, 3)],
        vec![Op::Learn {
            a: second,
            t: 0,
            k: 2,
            port: 3,
        }],
        vec![Op::Learn {
            a: second,
            t: 0,
            k: 7,
            port: 3,
        }],
    ];
    assert_eq!(run_differential(&script).expect("agrees"), 5);
}
