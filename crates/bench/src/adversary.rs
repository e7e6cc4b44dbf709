//! The adversary arena: every adaptive attacker ([`AdversaryProfile`])
//! racing every [`Defense`] on the shared Fig. 9 topology.
//!
//! Companion to [`crate::arena`], which sweeps open-loop floods by rate;
//! this matrix instead fixes each attacker at its default tuning and asks
//! the robustness question: *does the defense hold against an adversary
//! that adapts* — drains connection state slowly, pulses under the
//! detection window, binary-searches the migration threshold from probe
//! feedback, or cycles millions of spoofed 5-tuples?
//!
//! Everything here is a pure function of the configuration — no wall-clock
//! fields — so `render` is byte-identical across runs and sweep-thread
//! counts. The `defense_arena` bin drives it next to the classic matrix;
//! `tests/tests/adversaries.rs` asserts a defended-or-documented-gap
//! verdict for every cell.

use netsim::adversary::AdversaryStats;
use netsim::{HostId, SwitchId};

use crate::par::par_map;
use crate::scenario::{run, AdversaryProfile, Defense, Scenario};
use obs::Json;

/// Victim half-open capacity used in every cell: small enough that a
/// 400-connection SlowDrain must hit the eviction path, large enough that
/// benign handshakes never do.
pub const VICTIM_SYN_CAPACITY: usize = 256;

/// The matrix to sweep: adversaries × defenses, software profile.
#[derive(Debug, Clone)]
pub struct AdversaryMatrixConfig {
    /// Attacker rows.
    pub adversaries: Vec<AdversaryProfile>,
    /// Defense columns (the undefended `Defense::None` row is the collapse
    /// reference).
    pub defenses: Vec<Defense>,
    /// Victim h2 half-open capacity applied to every run.
    pub victim_syn_capacity: usize,
    /// RNG seed for every run (the acceptance tests sweep it via
    /// `FG_FAULT_SEED`; the checked-in baseline uses the default).
    pub seed: u64,
}

impl AdversaryMatrixConfig {
    /// The full checked-in matrix: 4 adversaries × 6 defenses.
    pub fn full() -> AdversaryMatrixConfig {
        AdversaryMatrixConfig {
            adversaries: AdversaryProfile::all(),
            defenses: crate::arena::ArenaConfig::all_defenses(),
            victim_syn_capacity: VICTIM_SYN_CAPACITY,
            seed: Scenario::software().seed,
        }
    }

    /// The CI smoke matrix: the two cheapest adversaries against every
    /// defense. Cell keys are a subset of the full matrix's, so the smoke
    /// run gates against the same checked-in baseline.
    pub fn smoke() -> AdversaryMatrixConfig {
        let adversaries = AdversaryProfile::all()
            .into_iter()
            .filter(|a| {
                matches!(
                    a,
                    AdversaryProfile::SlowDrain(_) | AdversaryProfile::BotnetFlood(_)
                )
            })
            .collect();
        AdversaryMatrixConfig {
            adversaries,
            ..AdversaryMatrixConfig::full()
        }
    }
}

/// One attacked cell of the matrix.
#[derive(Debug, Clone)]
pub struct AdversaryCell {
    /// Adversary name.
    pub adversary: &'static str,
    /// Defense name.
    pub defense: &'static str,
    /// Profile name (always "software" today; kept in the key so a future
    /// hardware sweep extends rather than rewrites the baseline).
    pub profile: &'static str,
    /// Goodput h1→h2 over the attack window, bits/s.
    pub bandwidth_bps: f64,
    /// Same defense's clean goodput, bits/s.
    pub clean_bps: f64,
    /// `bandwidth_bps / clean_bps` — the gated headline number.
    pub retained: f64,
    /// The attacker's own counters at end of run.
    pub adversary_stats: AdversaryStats,
    /// Victim h2 half-open handshakes still tracked at end of run.
    pub victim_half_open: usize,
    /// Victim h2 incomplete handshakes evicted by the capacity bound.
    pub victim_evicted_incomplete: u64,
    /// Forged reserved-band TOS tags stripped at switch ingress.
    pub spoofed_tags_stripped: u64,
    /// Normalized defense counters (zeros for the undefended row).
    pub defense_stats: crate::arena::DefenseStats,
    /// FloodGuard FSM transitions over the run (0 for other defenses); a
    /// pulsed flood that flaps the defense shows up as extra cycles here.
    pub fg_transitions: usize,
    /// Simulated controller CPU seconds.
    pub ctrl_cpu_s: f64,
}

impl AdversaryCell {
    /// The cell's flat key in reports and gate baselines.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.adversary, self.defense, self.profile)
    }
}

/// All matrix results, in deterministic configuration order.
#[derive(Debug, Clone)]
pub struct AdversaryResults {
    /// Clean reference runs, one per defense (software profile).
    pub cleans: Vec<crate::arena::CleanRun>,
    /// Attacked cells, one per (adversary, defense).
    pub cells: Vec<AdversaryCell>,
}

/// The scenario of one attacked cell.
pub fn cell_scenario(
    adversary: &AdversaryProfile,
    defense: &Defense,
    config: &AdversaryMatrixConfig,
) -> Scenario {
    let mut s = Scenario::software()
        .with_defense(defense.clone())
        .with_adversary(*adversary)
        .with_victim_syn_capacity(config.victim_syn_capacity);
    s.seed = config.seed;
    s
}

fn clean_scenario(defense: &Defense, config: &AdversaryMatrixConfig) -> Scenario {
    let mut s = Scenario::software()
        .with_defense(defense.clone())
        .with_victim_syn_capacity(config.victim_syn_capacity);
    s.seed = config.seed;
    s
}

/// Runs the whole matrix (clean references first, then every attacked
/// cell), fanning independent simulations out over worker threads.
/// Results keep configuration order and are identical to a serial sweep.
pub fn run_matrix(config: &AdversaryMatrixConfig) -> AdversaryResults {
    let mut jobs: Vec<Scenario> = Vec::new();
    let mut clean_meta = Vec::new();
    for defense in &config.defenses {
        clean_meta.push(defense.name());
        jobs.push(clean_scenario(defense, config));
    }
    let mut cell_meta = Vec::new();
    for adversary in &config.adversaries {
        for defense in &config.defenses {
            cell_meta.push((adversary.name(), defense.name()));
            jobs.push(cell_scenario(adversary, defense, config));
        }
    }
    let outcomes = par_map(&jobs, |scenario| {
        let outcome = run(scenario);
        let victim = outcome.sim.host(HostId(1));
        (
            outcome.bandwidth_bps,
            outcome.adversary_stats.unwrap_or_default(),
            victim.syn.half_open(),
            victim.syn.stats().evicted_incomplete,
            outcome.sim.switch(SwitchId(0)).stats.spoofed_tag_stripped,
            outcome.defense_stats.unwrap_or_default(),
            outcome.fg_transitions.len(),
            outcome.controller.cpu_seconds,
        )
    });
    let cleans: Vec<crate::arena::CleanRun> = clean_meta
        .iter()
        .zip(&outcomes)
        .map(|(&defense, o)| crate::arena::CleanRun {
            defense,
            profile: "software",
            bandwidth_bps: o.0,
            probe_delay_s: None,
        })
        .collect();
    let clean_bps_of = |defense: &str| {
        cleans
            .iter()
            .find(|c| c.defense == defense)
            .map_or(f64::NAN, |c| c.bandwidth_bps)
    };
    let cells = cell_meta
        .iter()
        .zip(outcomes.iter().skip(clean_meta.len()))
        .map(|(&(adversary, defense), o)| {
            let clean_bps = clean_bps_of(defense);
            AdversaryCell {
                adversary,
                defense,
                profile: "software",
                bandwidth_bps: o.0,
                clean_bps,
                retained: o.0 / clean_bps,
                adversary_stats: o.1,
                victim_half_open: o.2,
                victim_evicted_incomplete: o.3,
                spoofed_tags_stripped: o.4,
                defense_stats: o.5,
                fg_transitions: o.6,
                ctrl_cpu_s: o.7,
            }
        })
        .collect();
    AdversaryResults { cleans, cells }
}

/// Renders the matrix report. Pure function of the results — the bin, the
/// acceptance tests and the determinism test share it.
pub fn render(config: &AdversaryMatrixConfig, results: &AdversaryResults) -> Json {
    let cleans: Vec<Json> = results
        .cleans
        .iter()
        .map(|c| {
            Json::obj()
                .set("defense", c.defense)
                .set("profile", c.profile)
                .set("bandwidth_bps", c.bandwidth_bps)
        })
        .collect();
    let rows: Vec<Json> = results
        .cells
        .iter()
        .map(|c| {
            let a = &c.adversary_stats;
            let d = &c.defense_stats;
            Json::obj()
                .set("adversary", c.adversary)
                .set("defense", c.defense)
                .set("profile", c.profile)
                .set("bandwidth_bps", c.bandwidth_bps)
                .set("clean_bps", c.clean_bps)
                .set("retained", c.retained)
                .set("attack_emitted", a.emitted)
                .set("attack_keepalives", a.keepalives)
                .set("attack_bursts", a.bursts)
                .set("probes_sent", a.probes_sent)
                .set("probes_answered", a.probes_answered)
                .set("forged_tags", a.forged_tags)
                .set("threshold_estimate_pps", a.threshold_estimate_pps)
                .set("exploit_rate_pps", a.exploit_rate_pps)
                .set("victim_half_open", c.victim_half_open as u64)
                .set("victim_evicted_incomplete", c.victim_evicted_incomplete)
                .set("spoofed_tags_stripped", c.spoofed_tags_stripped)
                .set("migrations", d.migrations)
                .set("rules_installed", d.rules_installed)
                .set("fg_transitions", c.fg_transitions as u64)
                .set("ctrl_cpu_s", c.ctrl_cpu_s)
        })
        .collect();
    let mut gates = Json::obj();
    for (key, retained) in gate_keys(results) {
        gates = gates.set(&key, retained);
    }
    Json::obj()
        .set("bench", "adversary")
        .set(
            "scenario",
            "adaptive adversary x defense resilience matrix (software profile)",
        )
        .set("seed", config.seed)
        .set("victim_syn_capacity", config.victim_syn_capacity as u64)
        .set(
            "adversaries",
            config
                .adversaries
                .iter()
                .map(|a| Json::from(a.name()))
                .collect::<Vec<_>>(),
        )
        .set("clean_runs", Json::Arr(cleans))
        .set("rows", Json::Arr(rows))
        .set("gates", gates)
}

/// `("retained:<adversary>/<defense>/<profile>", retained)` pairs for the
/// regression gate ([`crate::arena::check_gate`] consumes them).
pub fn gate_keys(results: &AdversaryResults) -> Vec<(String, f64)> {
    results
        .cells
        .iter()
        .map(|c| (format!("retained:{}", c.key()), c.retained))
        .collect()
}

/// Formats the matrix as the human-readable table the README checks in
/// (`results/adversary.txt`).
pub fn render_table(results: &AdversaryResults) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<11} {:>14} {:>9} {:>8} {:>7} {:>10} {:>8} {:>9} {:>6}",
        "adversary",
        "defense",
        "bandwidth",
        "retained",
        "emitted",
        "forged",
        "thresh_est",
        "evicted",
        "stripped",
        "migr"
    );
    for c in &results.cells {
        let a = &c.adversary_stats;
        let thresh = if a.threshold_estimate_pps > 0.0 {
            format!("{:.0}", a.threshold_estimate_pps)
        } else {
            "-".to_owned()
        };
        let _ = writeln!(
            out,
            "{:<13} {:<11} {:>14} {:>9.3} {:>8} {:>7} {:>10} {:>8} {:>9} {:>6}",
            c.adversary,
            c.defense,
            crate::human_bps(c.bandwidth_bps),
            c.retained,
            a.emitted,
            a.forged_tags,
            thresh,
            c.victim_evicted_incomplete,
            c.spoofed_tags_stripped,
            c.defense_stats.migrations,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AdversaryMatrixConfig {
        AdversaryMatrixConfig {
            adversaries: vec![AdversaryProfile::all().remove(0)],
            defenses: vec![Defense::None, Defense::NaiveDrop],
            victim_syn_capacity: 64,
            seed: 42,
        }
    }

    #[test]
    fn matrix_covers_every_cell_in_order() {
        let cfg = tiny_config();
        let results = run_matrix(&cfg);
        assert_eq!(results.cleans.len(), 2);
        assert_eq!(results.cells.len(), 2);
        assert_eq!(results.cells[0].key(), "slow_drain/none/software");
        assert_eq!(results.cells[1].key(), "slow_drain/naive_drop/software");
        for cell in &results.cells {
            assert!(cell.clean_bps > 0.0, "{}", cell.key());
            assert!(cell.retained.is_finite(), "{}", cell.key());
            assert!(cell.adversary_stats.emitted > 0, "{}", cell.key());
        }
    }

    #[test]
    fn smoke_keys_are_a_subset_of_full_keys() {
        // The smoke run gates against the full baseline, so every smoke
        // cell key must exist in the full matrix. Compare the configured
        // (adversary, defense) products without running anything.
        let full = AdversaryMatrixConfig::full();
        let smoke = AdversaryMatrixConfig::smoke();
        let full_keys: Vec<String> = full
            .adversaries
            .iter()
            .flat_map(|a| {
                full.defenses
                    .iter()
                    .map(move |d| format!("{}/{}/software", a.name(), d.name()))
            })
            .collect();
        for a in &smoke.adversaries {
            for d in &smoke.defenses {
                let key = format!("{}/{}/software", a.name(), d.name());
                assert!(full_keys.contains(&key), "{key} missing from full");
            }
        }
        assert!(smoke.adversaries.len() < full.adversaries.len());
    }

    #[test]
    fn render_carries_no_wall_clock() {
        let cfg = tiny_config();
        let results = run_matrix(&cfg);
        let body = render(&cfg, &results).render();
        for field in ["wall_s", "run_s", "events_per_sec", "threads\""] {
            assert!(!body.contains(field), "{field} would break determinism");
        }
        // Gate self-check: a 50% collapse of a healthy cell must fail.
        let keys = gate_keys(&results);
        assert!(crate::arena::check_gate(&keys, &body).is_empty());
        let halved: Vec<_> = keys.iter().map(|(k, v)| (k.clone(), v * 0.5)).collect();
        assert!(!crate::arena::check_gate(&halved, &body).is_empty());
    }
}
