//! Observability acceptance tests (satellite S4): the timeline artifact is
//! deterministic — two runs of the end-to-end defense scenario with the
//! same seed render **byte-identical** timeline JSON — and the recorded
//! series carry the figures' required signals with monotonic sim-time
//! stamps.

use bench::timeline::{capture, timeline_json};
use bench::{run, Defense, Scenario};
use floodguard::FloodGuardConfig;

fn defended() -> Scenario {
    Scenario::software()
        .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
        .with_attack(500.0)
}

#[test]
fn timeline_is_byte_identical_across_runs() {
    let scenario = defended();
    let (timeline_a, trace_a) = capture("end_to_end_defense", &scenario);
    let (timeline_b, trace_b) = capture("end_to_end_defense", &scenario);
    assert_eq!(timeline_a, timeline_b, "timeline must be bit-exact");
    assert_eq!(trace_a, trace_b, "chrome trace must be bit-exact");
}

/// A digest of rendered bytes, and their length: enough to pin an artifact
/// without checking it in twice.
fn digest(rendered: &str) -> (usize, u64) {
    let hash = rendered
        .bytes()
        .fold(0, |h, b| rand::splitmix64(h ^ u64::from(b)));
    (rendered.len(), hash)
}

#[test]
fn timeline_matches_the_parent_engine() {
    // Recorded on the per-switch parallel engine this one replaced, which
    // rendered the same bytes at every worker-thread count. The timeline
    // was recorded again when FloodGuard began quarantining what the
    // cache re-raises: it gained the learned/quarantined/aged-out series,
    // and its rule and conversion-cost series carry no spoofed sources.
    // It was recorded once more when Init began demoting what the flood's
    // onset taught before detection: it gained the demoted-at-Init series,
    // the onset's sources moved from the learned series to the
    // quarantined one and out of the rule series, and the engine's event
    // series count the flow-mods no longer sent. The trace did not move.
    // Both were recorded again when every round of flow-mods began to end
    // with a barrier and a flow-stats read: the engine's event and channel
    // series count those frames and the answers, and the answers' arrival
    // moves the timing of what follows them by microseconds.
    let (timeline, trace) = capture("end_to_end_defense", &defended());
    assert_eq!(
        (digest(&timeline), digest(&trace)),
        (
            (484170, 11961130906054384726),
            (36448, 10561595297095637153)
        ),
        "(length, digest) of the timeline and of the chrome trace"
    );
}

#[test]
fn fat_tree_timeline_matches_the_parent_engine() {
    // Twenty switches exchanging packets over their links, recorder
    // attached: the engine's same-time ordering across switches shows in
    // every sampled series.
    let mut sim = netsim::Simulation::new(23);
    let hub = obs::Obs::new();
    hub.set_recording(true);
    sim.attach_obs(hub.clone(), Some(0.05));
    let ft = netsim::topo::fat_tree(&mut sim, 4, netsim::SwitchProfile::software());
    let far = *ft.hosts.last().unwrap();
    let (src_mac, src_ip) = {
        let h = sim.host(ft.hosts[0]);
        (h.mac, h.ip)
    };
    let (dst_mac, dst_ip) = {
        let h = sim.host(far);
        (h.mac, h.ip)
    };
    sim.host_mut(ft.hosts[0])
        .add_source(Box::new(netsim::host::CbrSource::new(
            src_mac, src_ip, dst_mac, dst_ip, 300.0, 0.0, 0.8, 400,
        )));
    sim.run_until(1.0);
    let rendered = bench::timeline::timeline_json("fat_tree", 23, &hub.recorder_series()).render();
    assert!(
        rendered.contains("engine.events"),
        "recorder captured the run"
    );
    assert_eq!(
        digest(&rendered),
        (80904, 802409857916348013),
        "(length, digest) of the timeline"
    );
}

#[test]
fn timeline_carries_required_series_with_monotonic_time() {
    let outcome = run(&defended().with_timeline(0.02));
    let hub = outcome.obs.expect("timeline mode attaches a hub");
    let series = hub.recorder_series();

    // The figure bins promise at least these three distinct signals.
    for required in [
        "floodguard.packet_in_rate",
        "floodguard.cache_queue_depth",
        "floodguard.detector_score",
    ] {
        let s = series
            .iter()
            .find(|s| s.name == required)
            .unwrap_or_else(|| panic!("missing series {required}"));
        assert!(
            s.samples.len() >= 3,
            "{required}: {} samples",
            s.samples.len()
        );
        let times: Vec<f64> = s.samples.iter().map(|&(t, _)| t).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "{required}: non-monotonic sim time"
        );
        assert!(
            s.samples
                .iter()
                .all(|&(t, v)| t.is_finite() && v.is_finite()),
            "{required}: non-finite sample"
        );
    }

    // The attack actually moved the signals: the defense engaged, so the
    // detector score and the cache depth both left zero at some point.
    let max_of = |name: &str| {
        series
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max))
            .unwrap_or(0.0)
    };
    assert!(max_of("floodguard.detector_score") > 0.0);
    assert!(max_of("floodguard.cache_queue_depth") > 0.0);
    assert!(max_of("floodguard.packet_in_rate") > 0.0);
}

#[test]
fn rendered_timeline_orders_series_deterministically() {
    let outcome = run(&defended().with_timeline(0.05));
    let hub = outcome.obs.expect("hub");
    let body = timeline_json("order", 42, &hub.recorder_series()).render();
    // Engine metrics register before FloodGuard's: first-seen order is
    // registration order, which the rendering preserves.
    let engine_at = body.find("engine.events").expect("engine series");
    let fg_at = body.find("floodguard.detector_score").expect("fg series");
    assert!(engine_at < fg_at, "registration order lost in rendering");
}

#[test]
fn registry_only_mode_counts_but_does_not_record() {
    let outcome = run(&defended().with_obs_registry());
    let hub = outcome.obs.expect("registry mode attaches a hub");
    // The hot-path counter advanced with the simulation…
    assert_eq!(
        hub.registry.counter("engine.events").get(),
        outcome.sim.events_processed()
    );
    // …but no snapshots or trace events were taken (the <2% overhead
    // configuration the engine bench gates).
    assert_eq!(hub.snapshots(), 0);
    assert!(hub.recorder_series().is_empty());
    let (events, dropped) = hub.trace_counts();
    assert_eq!((events, dropped), (0, 0));
}
