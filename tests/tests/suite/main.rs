//! One test binary for the integration tests. A module here is what was
//! one file under `tests/`. The files still under `tests/` are binaries of
//! their own: three measure their whole process, and four keep the test
//! ids (`tests/<file>.rs::<test>`) their results are recorded under.

mod ablations;
mod adversaries;
mod analyzer_scale;
mod arena;
mod cache_properties;
mod flow_table_equivalence;
mod learned_state;
mod live_ops;
mod migration_mechanics;
mod multi_switch;
mod obs_timeline;
mod rule_placement;
mod sched_equivalence;
mod solver_soundness;
mod substrate;
mod wire_roundtrip;
