//! # bench — experiment harnesses for every table and figure
//!
//! The [`scenario`] module builds the paper's Fig. 9 topology and runs
//! attack scenarios; the `src/bin/*` binaries regenerate each figure/table
//! of the evaluation (run e.g. `cargo run -p bench --release --bin fig10`),
//! and `benches/` holds Criterion micro-benchmarks of the components.

#![warn(missing_docs)]

pub mod adversary;
pub mod arena;
pub mod par;
pub mod report;
pub mod scenario;
pub mod synthetic;
pub mod timeline;

pub use netsim::faults::Fault;
pub use scenario::{
    bandwidth_sweep, human_bps, run, AttackProtocol, Defense, ObsMode, Outcome, Scenario,
    CACHE_PORT, H1_IP, H1_MAC, H2_IP, H2_MAC, H3_IP, H3_MAC, STANDBY_PORT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::DefenseStats;
    use baselines::lineswitch::LineSwitchConfig;
    use baselines::syncookies::SynCookiesConfig;
    use floodguard::FloodGuardConfig;

    fn every_defense() -> [Defense; 6] {
        [
            Defense::None,
            Defense::FloodGuard(FloodGuardConfig::default()),
            Defense::AvantGuard,
            Defense::LineSwitch(LineSwitchConfig::default()),
            Defense::SynCookies(SynCookiesConfig::default()),
            Defense::NaiveDrop,
        ]
    }

    #[test]
    fn names_are_stable_and_unique() {
        let names = every_defense().map(|d| d.name());
        assert_eq!(
            names,
            [
                "none",
                "floodguard",
                "avantguard",
                "lineswitch",
                "syncookies",
                "naive_drop"
            ]
        );
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    /// One short flooded run per contender: only FloodGuard hands back its
    /// cache (Table IV reads the probe residency log from it), and every
    /// defended run reports normalized counters.
    #[test]
    fn only_floodguard_exposes_legacy_handles() {
        for defense in every_defense() {
            let fg = matches!(defense, Defense::FloodGuard(_));
            let name = defense.name();
            let outcome = run(&Scenario {
                duration: 1.0,
                attack_start: 0.3,
                ..Scenario::software()
                    .with_defense(defense)
                    .with_attack(500.0)
            });
            assert_eq!(outcome.cache.is_some(), fg, "{name}");
            assert_eq!(outcome.defense_stats.is_some(), name != "none", "{name}");
        }
    }

    #[test]
    fn drops_total_sums_lanes() {
        let stats = DefenseStats {
            drops_by_class: [1, 2, 3, 4],
            ..DefenseStats::default()
        };
        assert_eq!(stats.drops_total(), 10);
    }
}
