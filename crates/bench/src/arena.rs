//! The defense arena: one scenario matrix racing every [`Defense`] across
//! attack mixes, rates and switch profiles.
//!
//! The `defense_arena` bin drives this module; it lives in the library so
//! the determinism regression test can run a reduced matrix twice and
//! compare rendered bytes. Everything here is a pure function of the
//! configuration — **no wall-clock times enter the report**, so for a
//! fixed seed `render` produces byte-identical JSON on every run.
//!
//! Per cell the arena records the comparison columns of the README table:
//! bandwidth retained vs the same defense's clean run, benign-flow setup
//! latency (a new-flow probe launched mid-attack), rules installed,
//! a controller-CPU proxy (simulated CPU seconds), and peak defense-state
//! bytes.

use crate::par::par_map;
use crate::report::extract_number;
use crate::scenario::{run, AttackProtocol, Defense, Scenario};
use obs::Json;

/// Tolerated relative drop in a cell's bandwidth-retained before the
/// regression gate fails (25%, matching the engine bench gate).
pub const GATE_TOLERANCE: f64 = 0.25;

/// Cells whose baseline retained-fraction is below this are not gated: a
/// collapsed cell (e.g. the undefended row at 800 PPS) is all noise in
/// relative terms.
pub const GATE_MIN_RETAINED: f64 = 0.1;

/// Estimated bytes per packet queued in FloodGuard's data plane cache
/// (packet headers + metadata + queue overhead) — the cache holds whole
/// packets, which is why its state cost dwarfs the proxies' 4-tuples.
pub const CACHE_ENTRY_BYTES: usize = 128;

/// Normalized per-defense counters — every cell means the same thing in
/// every arena row, so columns compare directly across defenses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DefenseStats {
    /// Attack episodes the defense detected (0 for always-on datapath
    /// defenses, which have no detector).
    pub attacks_detected: u64,
    /// Flow rules the defense itself installed (FloodGuard's proactive
    /// rules, naive drop's drop-all rule; proxies install none).
    pub rules_installed: u64,
    /// Rules the defense removed again.
    pub rules_removed: u64,
    /// Flows/packets migrated from the defense to the controller
    /// (FloodGuard: packets absorbed by the cache; proxies: validated
    /// flows handed up).
    pub migrations: u64,
    /// TCP handshakes the defense validated (0 where no proxying happens).
    pub handshakes_validated: u64,
    /// Misses the defense forwarded toward the controller (FloodGuard:
    /// rate-limited `packet_in`s the cache emitted; proxies: non-TCP
    /// passthrough — their unprotected surface).
    pub passed_through: u64,
    /// Packets the defense dropped, per protocol class
    /// (TCP/UDP/ICMP/other — FloodGuard's cache lane layout).
    pub drops_by_class: [u64; 4],
    /// Bytes of defense state held at the end of the run.
    pub state_bytes: u64,
    /// High-water mark of defense state over the run.
    pub state_bytes_peak: u64,
    /// What the applications had learned at the end of the run, as
    /// (entries in their maps, entries in quarantine), where the defense
    /// reports it (FloodGuard); `None` elsewhere.
    pub learned_state: Option<(u64, u64)>,
}

impl DefenseStats {
    /// Total drops across all protocol classes.
    pub fn drops_total(&self) -> u64 {
        self.drops_by_class.iter().sum()
    }
}

/// Switch resource model under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Mininet-like software switch (Fig. 10 conditions).
    Software,
    /// Hardware switch model (Fig. 11 conditions).
    Hardware,
}

impl Profile {
    /// Stable lowercase identifier.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Software => "software",
            Profile::Hardware => "hardware",
        }
    }

    /// The base scenario for this profile.
    pub fn base(self) -> Scenario {
        match self {
            Profile::Software => Scenario::software(),
            Profile::Hardware => Scenario::hardware(),
        }
    }
}

/// Stable lowercase identifier of an attack mix.
pub fn mix_name(mix: AttackProtocol) -> &'static str {
    match mix {
        AttackProtocol::Udp => "udp",
        AttackProtocol::TcpSyn => "syn",
        AttackProtocol::Mixed => "mixed",
    }
}

/// The matrix to sweep.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Contenders (the undefended `Defense::None` row is the collapse
    /// reference).
    pub defenses: Vec<Defense>,
    /// Attack mixes.
    pub mixes: Vec<AttackProtocol>,
    /// Attack rates in packets per second.
    pub pps_levels: Vec<f64>,
    /// Switch profiles.
    pub profiles: Vec<Profile>,
    /// When the mid-attack new-flow probe launches.
    pub probe_at: f64,
}

impl ArenaConfig {
    /// Every contender.
    pub fn all_defenses() -> Vec<Defense> {
        vec![
            Defense::None,
            Defense::FloodGuard(floodguard::FloodGuardConfig::default()),
            Defense::AvantGuard,
            Defense::LineSwitch(baselines::lineswitch::LineSwitchConfig::default()),
            Defense::SynCookies(baselines::syncookies::SynCookiesConfig::default()),
            Defense::NaiveDrop,
        ]
    }

    /// The full checked-in matrix: 6 defenses × 3 mixes × 3 rates × 2
    /// profiles.
    pub fn full() -> ArenaConfig {
        ArenaConfig {
            defenses: Self::all_defenses(),
            mixes: vec![
                AttackProtocol::Udp,
                AttackProtocol::TcpSyn,
                AttackProtocol::Mixed,
            ],
            pps_levels: vec![150.0, 400.0, 800.0],
            profiles: vec![Profile::Software, Profile::Hardware],
            probe_at: 2.0,
        }
    }

    /// The CI smoke matrix: one rate, software profile only. Cell keys are
    /// a subset of the full matrix's, so the smoke run gates against the
    /// same checked-in baseline.
    pub fn smoke() -> ArenaConfig {
        ArenaConfig {
            pps_levels: vec![400.0],
            profiles: vec![Profile::Software],
            ..ArenaConfig::full()
        }
    }
}

/// One clean (no-attack) reference run.
#[derive(Debug, Clone)]
pub struct CleanRun {
    /// Defense name.
    pub defense: &'static str,
    /// Profile name.
    pub profile: &'static str,
    /// Clean goodput h1→h2, bits/s.
    pub bandwidth_bps: f64,
    /// Clean new-flow setup latency, seconds (`None`: probe lost).
    pub probe_delay_s: Option<f64>,
}

/// One attacked cell of the matrix.
#[derive(Debug, Clone)]
pub struct ArenaCell {
    /// Defense name.
    pub defense: &'static str,
    /// Attack-mix name.
    pub mix: &'static str,
    /// Attack rate, packets/s.
    pub pps: f64,
    /// Profile name.
    pub profile: &'static str,
    /// Goodput h1→h2 over the attack window, bits/s.
    pub bandwidth_bps: f64,
    /// Same defense's clean goodput, bits/s.
    pub clean_bps: f64,
    /// `bandwidth_bps / clean_bps` — the gated headline number.
    pub retained: f64,
    /// Mid-attack new-flow setup latency, seconds (`None`: probe lost).
    pub probe_delay_s: Option<f64>,
    /// Simulated controller CPU seconds (the controller-load proxy).
    pub ctrl_cpu_s: f64,
    /// Controller messages processed.
    pub ctrl_processed: u64,
    /// Controller messages dropped at the full input queue.
    pub ctrl_dropped: u64,
    /// Normalized defense counters (zeros for the undefended row).
    pub defense_stats: DefenseStats,
}

impl ArenaCell {
    /// The cell's flat key in reports and gate baselines.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.defense, self.mix, self.pps, self.profile
        )
    }
}

/// All matrix results, in deterministic configuration order.
#[derive(Debug, Clone)]
pub struct ArenaResults {
    /// Clean reference runs, one per (defense, profile).
    pub cleans: Vec<CleanRun>,
    /// Attacked cells, one per (defense, mix, pps, profile).
    pub cells: Vec<ArenaCell>,
}

/// The scenario of one attacked cell (also used by `--timeline`).
pub fn cell_scenario(
    defense: &Defense,
    mix: AttackProtocol,
    pps: f64,
    profile: Profile,
    probe_at: f64,
) -> Scenario {
    let mut s = profile
        .base()
        .with_defense(defense.clone())
        .with_attack(pps);
    s.attack_protocol = mix;
    s.probes = vec![probe_at];
    s
}

fn clean_scenario(defense: &Defense, profile: Profile, probe_at: f64) -> Scenario {
    let mut s = profile.base().with_defense(defense.clone());
    s.probes = vec![probe_at];
    s
}

/// Runs the whole matrix (clean references first, then every attacked
/// cell), fanning independent simulations out over worker threads.
/// Results keep configuration order and are identical to a serial sweep.
pub fn run_matrix(config: &ArenaConfig) -> ArenaResults {
    let mut jobs: Vec<Scenario> = Vec::new();
    let mut clean_meta = Vec::new();
    for profile in &config.profiles {
        for defense in &config.defenses {
            clean_meta.push((defense.name(), profile.name()));
            jobs.push(clean_scenario(defense, *profile, config.probe_at));
        }
    }
    let mut cell_meta = Vec::new();
    for profile in &config.profiles {
        for &mix in &config.mixes {
            for &pps in &config.pps_levels {
                for defense in &config.defenses {
                    cell_meta.push((defense.name(), mix_name(mix), pps, profile.name()));
                    jobs.push(cell_scenario(defense, mix, pps, *profile, config.probe_at));
                }
            }
        }
    }
    let outcomes = par_map(&jobs, |scenario| {
        let outcome = run(scenario);
        (
            outcome.bandwidth_bps,
            outcome.probe_delays.first().and_then(|&(_, d)| d),
            outcome.controller,
            outcome.defense_stats.unwrap_or_default(),
        )
    });
    let cleans: Vec<CleanRun> = clean_meta
        .iter()
        .zip(&outcomes)
        .map(|(&(defense, profile), &(bps, delay, _, _))| CleanRun {
            defense,
            profile,
            bandwidth_bps: bps,
            probe_delay_s: delay,
        })
        .collect();
    let clean_bps_of = |defense: &str, profile: &str| {
        cleans
            .iter()
            .find(|c| c.defense == defense && c.profile == profile)
            .map_or(f64::NAN, |c| c.bandwidth_bps)
    };
    let cells = cell_meta
        .iter()
        .zip(outcomes.iter().skip(clean_meta.len()))
        .map(
            |(&(defense, mix, pps, profile), &(bps, delay, ctrl, stats))| {
                let clean_bps = clean_bps_of(defense, profile);
                ArenaCell {
                    defense,
                    mix,
                    pps,
                    profile,
                    bandwidth_bps: bps,
                    clean_bps,
                    retained: bps / clean_bps,
                    probe_delay_s: delay,
                    ctrl_cpu_s: ctrl.cpu_seconds,
                    ctrl_processed: ctrl.processed,
                    ctrl_dropped: ctrl.dropped,
                    defense_stats: stats,
                }
            },
        )
        .collect();
    ArenaResults { cleans, cells }
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// Renders the matrix report. Pure function of the results — the bin and
/// the determinism test share it, and CI diffs its output byte-for-byte.
pub fn render(config: &ArenaConfig, results: &ArenaResults) -> Json {
    let cleans: Vec<Json> = results
        .cleans
        .iter()
        .map(|c| {
            Json::obj()
                .set("defense", c.defense)
                .set("profile", c.profile)
                .set("bandwidth_bps", c.bandwidth_bps)
                .set("probe_delay_s", opt_num(c.probe_delay_s))
        })
        .collect();
    let rows: Vec<Json> = results
        .cells
        .iter()
        .map(|c| {
            let s = &c.defense_stats;
            Json::obj()
                .set("defense", c.defense)
                .set("mix", c.mix)
                .set("pps", c.pps)
                .set("profile", c.profile)
                .set("bandwidth_bps", c.bandwidth_bps)
                .set("clean_bps", c.clean_bps)
                .set("retained", c.retained)
                .set("probe_delay_s", opt_num(c.probe_delay_s))
                .set("ctrl_cpu_s", c.ctrl_cpu_s)
                .set("ctrl_processed", c.ctrl_processed)
                .set("ctrl_dropped", c.ctrl_dropped)
                .set("rules_installed", s.rules_installed)
                .set("rules_removed", s.rules_removed)
                .set("migrations", s.migrations)
                .set("handshakes_validated", s.handshakes_validated)
                .set("passed_through", s.passed_through)
                .set("drops_tcp", s.drops_by_class[0])
                .set("drops_udp", s.drops_by_class[1])
                .set("drops_icmp", s.drops_by_class[2])
                .set("drops_other", s.drops_by_class[3])
                .set("state_bytes_peak", s.state_bytes_peak)
        })
        .collect();
    // Flat `"retained:<key>"` fields so the gate (and any future tooling)
    // can pull single cells out with `extract_number`.
    let mut gates = Json::obj();
    for (key, retained) in gate_keys(results) {
        gates = gates.set(&key, retained);
    }
    Json::obj()
        .set("bench", "arena")
        .set(
            "scenario",
            "defense x attack-mix x rate x switch-profile comparison matrix",
        )
        .set("seed", Scenario::software().seed)
        .set("probe_at_s", config.probe_at)
        .set("pps_levels", config.pps_levels.clone())
        .set(
            "mixes",
            config
                .mixes
                .iter()
                .map(|&m| Json::from(mix_name(m)))
                .collect::<Vec<_>>(),
        )
        .set(
            "profiles",
            config
                .profiles
                .iter()
                .map(|p| Json::from(p.name()))
                .collect::<Vec<_>>(),
        )
        .set("clean_runs", Json::Arr(cleans))
        .set("rows", Json::Arr(rows))
        .set("gates", gates)
}

/// `("retained:<defense>/<mix>/<pps>/<profile>", retained)` pairs for the
/// regression gate.
pub fn gate_keys(results: &ArenaResults) -> Vec<(String, f64)> {
    results
        .cells
        .iter()
        .map(|c| (format!("retained:{}", c.key()), c.retained))
        .collect()
}

/// Compares the current cells against a rendered baseline report.
///
/// Returns human-readable failure lines for every cell whose
/// bandwidth-retained fell more than [`GATE_TOLERANCE`] below the
/// baseline. Cells missing from the baseline (new matrix points) and cells
/// whose baseline already sat below [`GATE_MIN_RETAINED`] are skipped.
pub fn check_gate(current: &[(String, f64)], baseline_body: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, measured) in current {
        let Some(expected) = extract_number(baseline_body, key) else {
            continue;
        };
        if expected < GATE_MIN_RETAINED {
            continue;
        }
        let floor = expected * (1.0 - GATE_TOLERANCE);
        if *measured < floor {
            failures.push(format!(
                "{key}: retained {measured:.3} fell below {floor:.3} \
                 (baseline {expected:.3} - 25% tolerance)"
            ));
        }
    }
    failures
}

/// Formats the matrix as the human-readable comparison table the README
/// checks in (`results/arena.txt`).
pub fn render_table(results: &ArenaResults) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<6} {:>5} {:<9} {:>14} {:>9} {:>10} {:>6} {:>9} {:>11} {:>11}",
        "defense",
        "mix",
        "pps",
        "profile",
        "bandwidth",
        "retained",
        "probe_ms",
        "rules",
        "cpu_ms",
        "state_peak",
        "state_after"
    );
    for c in &results.cells {
        let probe = c
            .probe_delay_s
            .map_or("lost".to_owned(), |d| format!("{:.2}", d * 1e3));
        // Learned + quarantined application entries at the end of the run.
        let after = c
            .defense_stats
            .learned_state
            .map_or("-".to_owned(), |(learned, held)| {
                format!("{learned}+{held}")
            });
        let _ = writeln!(
            out,
            "{:<11} {:<6} {:>5.0} {:<9} {:>14} {:>9.3} {:>10} {:>6} {:>9.2} {:>11} {:>11}",
            c.defense,
            c.mix,
            c.pps,
            c.profile,
            crate::human_bps(c.bandwidth_bps),
            c.retained,
            probe,
            c.defense_stats.rules_installed,
            c.ctrl_cpu_s * 1e3,
            c.defense_stats.state_bytes_peak,
            after,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ArenaConfig {
        ArenaConfig {
            defenses: vec![Defense::None, Defense::AvantGuard],
            mixes: vec![AttackProtocol::TcpSyn],
            pps_levels: vec![300.0],
            profiles: vec![Profile::Software],
            probe_at: 2.0,
        }
    }

    #[test]
    fn matrix_covers_every_cell_in_order() {
        let cfg = tiny_config();
        let results = run_matrix(&cfg);
        assert_eq!(results.cleans.len(), 2);
        assert_eq!(results.cells.len(), 2);
        assert_eq!(results.cells[0].key(), "none/syn/300/software");
        assert_eq!(results.cells[1].key(), "avantguard/syn/300/software");
        for cell in &results.cells {
            assert!(cell.clean_bps > 0.0, "{}", cell.key());
            assert!(cell.retained.is_finite(), "{}", cell.key());
        }
    }

    #[test]
    fn gate_passes_against_own_render_and_catches_regressions() {
        let cfg = tiny_config();
        let results = run_matrix(&cfg);
        let body = render(&cfg, &results).render();
        let keys = gate_keys(&results);
        assert!(check_gate(&keys, &body).is_empty(), "self-compare passes");
        // A 50% collapse of a healthy cell must fail.
        let healthy: Vec<_> = keys.iter().map(|(k, v)| (k.clone(), v * 0.5)).collect();
        let confirmed = keys.iter().any(|(_, v)| *v >= GATE_MIN_RETAINED);
        assert!(confirmed, "tiny matrix has at least one gated cell");
        assert!(!check_gate(&healthy, &body).is_empty());
    }

    #[test]
    fn render_carries_no_wall_clock() {
        let cfg = tiny_config();
        let results = run_matrix(&cfg);
        let body = render(&cfg, &results).render();
        for field in ["wall_s", "run_s", "events_per_sec", "threads"] {
            assert!(!body.contains(field), "{field} would break determinism");
        }
    }
}
