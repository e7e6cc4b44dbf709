//! The metric and workload tables: the single source `BENCHMARK.json` is
//! generated from (`fgbench manifest`) and checked against (`cargo test`).

use crate::json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and in every result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// A metric of a single layer; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name: `<crate or module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 30;

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "live_small_state",
        "16 hosts, 64-byte packet_ins, l2_learning only: transport does most of the controller CPU, so an app or analyzer optimisation must show no change here",
    ),
    (
        "live_large_state",
        "1024 hosts, six apps with 1000-entry state, 1400-byte packet_ins: policy interpretation does most of the CPU, so a transport optimisation must show little change here",
    ),
    (
        "live_attack",
        "spoofed 5000 pps flood episodes over real sockets: the only workload that runs detector, migration, analyzer and cache, and that writes app state on every packet",
    ),
    (
        "sim_repro",
        "paper-reproduction suite plus the fat-tree fabric through bench's library API: no socket code, so simulator and engine changes are judged here and transport changes are not",
    ),
];

/// The end-to-end metrics. Every workload reports every one of them (the
/// result format requires it), so each names a role and the README says
/// what fills it per workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the layer they time.
pub const PER_LAYER: [PerLayer; 73] = [
    // ofproto::wire
    layer("wire.decode_ns_per_frame", "ns", Lower),
    layer("wire.encode_ns_per_msg", "ns", Lower),
    layer("wire.bytes_in_per_pktin", "B", Lower),
    layer("wire.bytes_out_per_pktin", "B", Lower),
    // controller::platform, policy::interp
    layer("platform.handle_us_per_pktin", "us", Lower),
    layer("platform.replies_per_pktin", "count", Lower),
    layer("policy.execute_ns.l2_learning", "ns", Lower),
    layer("policy.execute_ns.ip_balancer", "ns", Lower),
    layer("policy.execute_ns.l3_learning", "ns", Lower),
    layer("policy.execute_ns.of_firewall", "ns", Lower),
    layer("policy.execute_ns.mac_blocker", "ns", Lower),
    layer("policy.execute_ns.route", "ns", Lower),
    // floodguard (FSM driver), floodguard::detector
    layer("floodguard.on_message_us_per_pktin", "us", Lower),
    layer("floodguard.idle_overhead_ns", "ns", Lower),
    layer("detector.record_ns", "ns", Lower),
    layer("detector.score_ns", "ns", Lower),
    layer("floodguard.telemetry_tick_us.idle", "us", Lower),
    layer("floodguard.telemetry_tick_us.defense", "us", Lower),
    layer("floodguard.on_device_message_us", "us", Lower),
    layer("floodguard.onset_ms", "ms", Lower),
    layer("floodguard.rules_ready_ms", "ms", Lower),
    layer("floodguard.ctrl_cpu_ms_per_s", "ms/s", Lower),
    layer("floodguard.probe_flood_tail_ms", "ms", Lower),
    // floodguard::analyzer, floodguard::migration
    layer("analyzer.offline_ms", "ms", Lower),
    layer("analyzer.convert_cold_ms", "ms", Lower),
    layer("analyzer.convert_incr_ms", "ms", Lower),
    layer("analyzer.cache_hit_ratio", "ratio", Higher),
    layer("analyzer.dispatch_us", "us", Lower),
    layer("analyzer.rules_per_update", "count", Lower),
    layer("analyzer.detect_changes_us", "us", Lower),
    layer("migration.install_us", "us", Lower),
    // floodguard::cache
    layer("cache.on_packet_ns", "ns", Lower),
    layer("cache.on_tick_us", "us", Lower),
    layer("cache.drop_ratio", "ratio", Lower),
    layer("cache.probe_residency_p50_ms", "ms", Lower),
    layer("cache.rejected_at_teardown", "count", Lower),
    // ofchannel
    layer("ofchannel.handshake_ms_p50", "ms", Lower),
    layer("ofchannel.floor_rtt_us", "us", Lower),
    layer("ofchannel.cpu_us_per_pktin.total", "us", Lower),
    layer("ofchannel.cpu_us_per_pktin.control_loop", "us", Lower),
    layer("ofchannel.cpu_us_per_pktin.worker", "us", Lower),
    layer("ofchannel.cpu_us_per_pktin.reactor", "us", Lower),
    layer("ofchannel.residual_us_per_pktin", "us", Lower),
    layer("ofchannel.frames_out_per_pktin", "count", Lower),
    layer("ofchannel.sends_blocked", "count", Lower),
    layer("ofchannel.budget_exhausted", "count", Lower),
    layer("ofchannel.send_queue_hwm", "count", Lower),
    layer("ofchannel.svc_p50_us", "us", Lower),
    layer("ofchannel.svc_p99_us", "us", Lower),
    layer("ofchannel.pktin_per_s", "1/s", Higher),
    // netsim, ofproto::flow_table, bench
    layer("netsim.events_per_s.fig10_cell", "1/s", Higher),
    layer("netsim.events_per_s.fabric", "1/s", Higher),
    layer("netsim.cpu_us_per_event.fabric", "us", Lower),
    layer("netsim.events_per_s.fabric_par", "1/s", Higher),
    layer("netsim.par_speedup", "ratio", Higher),
    layer("netsim.switch_process_ns.miss", "ns", Lower),
    layer("netsim.switch_process_ns.hit", "ns", Lower),
    layer("netsim.fabric_build_s", "s", Lower),
    layer("flow_table.lookup_ns", "ns", Lower),
    layer("flow_table.apply_ns", "ns", Lower),
    layer("bench.fig10_sweep_s", "s", Lower),
    layer("bench.fig11_sweep_s", "s", Lower),
    layer("bench.arena_matrix_s", "s", Lower),
    layer("bench.adversary_matrix_s", "s", Lower),
    layer("bench.table4_s", "s", Lower),
    layer("bench.fabric_run_s", "s", Lower),
    layer("bench.repro_pass_s", "s", Lower),
    layer("bench.repro_pass_max_s", "s", Lower),
    // the benchmark's own footprint
    layer("gen.cpu_share", "ratio", Lower),
    layer("gen.flood_late_p99_us", "us", Lower),
    layer("gen.trace_overhead_ratio", "ratio", Lower),
    layer("gen.spans_recorded", "count", Lower),
    layer("gen.threads", "count", Lower),
];

/// `(name, unit)` of the metrics a run reports: per-layer on a traced run,
/// end-to-end otherwise.
pub fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Whether `name` is in either table.
pub fn known(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    for (i, arg) in command.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::string(&mut s, arg);
    }
    s.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        s.push_str("    {\"name\": ");
        json::string(&mut s, name);
        s.push_str(", \"why\": ");
        json::string(&mut s, why);
        s.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
        s.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        ));
        s.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `fgbench manifest > BENCHMARK.json`"
        );
    }
}
