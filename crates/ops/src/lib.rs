//! Live operations surface for the FloodGuard reproduction.
//!
//! One small HTTP server exposes a running deployment to operators:
//!
//! * `GET /metrics` — Prometheus text exposition of the attached
//!   [`obs`] registry (transport counters, detector score, cache depths).
//! * `GET /api/status` — connected switches/devices plus channel counters
//!   from the [`ofchannel::ControllerEndpoint`]'s live view.
//! * `GET /api/flows` — the controller's mirror of every switch's flow
//!   table.
//! * `GET /api/fsm` — FloodGuard's state machine, transition log and
//!   lifetime stats.
//! * `GET /api/admin` — blocklists, drop counters and detector thresholds;
//!   `POST /api/admin/block` / `unblock` (`?ip=` or `?port=`) edit the
//!   blocklists, and `GET`/`PUT /api/admin/thresholds` read and retune the
//!   detector live.
//!
//! Everything is hand-rolled HTTP/1.1 over `std::net` — no registry
//! dependencies — and every attachment is optional, so the same server
//! fronts a bare controller or a full FloodGuard deployment. The server is
//! for loopback or a trusted management network: there is no TLS and no
//! authentication, matching a lab deployment of the paper's testbed.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;

pub use client::Response;
pub use server::{OpsServer, OpsState};

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use floodguard::{DetectionConfig, FloodGuardConfig};
    use netsim::iface::{ControlOutput, ControlPlane, Telemetry};

    fn floodguard() -> floodguard::FloodGuard {
        let mut platform = controller::platform::ControllerPlatform::new();
        platform.register(controller::apps::l2_learning::program());
        floodguard::FloodGuard::new(platform, FloodGuardConfig::default(), 99)
    }

    /// Satellite: the Prometheus endpoint and the admin API round-trip over
    /// real HTTP.
    #[test]
    fn metrics_and_admin_round_trip() {
        let hub = obs::Obs::new();
        hub.registry.counter("test.requests").add(3);
        let fg = floodguard();
        let admin = fg.admin_handle();
        let state = OpsState::new()
            .with_hub(hub)
            .with_monitor(fg.monitor_handle())
            .with_admin(admin.clone());
        let server = OpsServer::spawn(state, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let metrics = client::get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("# TYPE test_requests counter"));
        assert!(metrics.body.contains("test_requests 3"));

        let fsm = client::get(addr, "/api/fsm").unwrap();
        assert_eq!(fsm.status, 200);
        assert!(fsm.body.contains("\"stats\""));

        let blocked = client::request(addr, "POST", "/api/admin/block?ip=10.0.0.9").unwrap();
        assert_eq!(blocked.status, 200);
        assert!(blocked.body.contains("\"changed\":true"));
        assert!(admin
            .snapshot()
            .blocked_ips
            .contains(&Ipv4Addr::new(10, 0, 0, 9)));

        let again = client::request(addr, "POST", "/api/admin/block?ip=10.0.0.9").unwrap();
        assert!(again.body.contains("\"changed\":false"), "idempotent");

        let ports = client::request(addr, "POST", "/api/admin/block?port=7").unwrap();
        assert_eq!(ports.status, 200);
        let listing = client::get(addr, "/api/admin").unwrap();
        assert!(listing.body.contains("\"10.0.0.9\""));
        assert!(listing.body.contains("\"blocked_ports\":[7]"));

        let unblocked = client::request(addr, "POST", "/api/admin/unblock?ip=10.0.0.9").unwrap();
        assert!(unblocked.body.contains("\"changed\":true"));
        assert!(admin.snapshot().blocked_ips.is_empty());
    }

    /// Satellite: a threshold PUT stages values that FloodGuard's next
    /// telemetry tick applies to the live detector.
    #[test]
    fn threshold_put_applies_at_telemetry_tick() {
        let mut fg = floodguard();
        let admin = fg.admin_handle();
        let server =
            OpsServer::spawn(OpsState::new().with_admin(admin.clone()), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let defaults = DetectionConfig::default();
        let before = client::get(addr, "/api/admin/thresholds").unwrap();
        assert!(before
            .body
            .contains(&format!("{}", defaults.score_threshold)));

        let put = client::request(
            addr,
            "PUT",
            "/api/admin/thresholds?score_threshold=0.93&rate_capacity_pps=4200",
        )
        .unwrap();
        assert_eq!(put.status, 200);
        assert!(put.body.contains("0.93"));

        // FloodGuard has not ticked yet: still running the defaults.
        assert_eq!(
            admin.snapshot().thresholds.score_threshold,
            defaults.score_threshold
        );

        // One telemetry tick applies the staged update.
        let mut out = ControlOutput::new();
        fg.on_telemetry(&Telemetry::default(), 0.1, &mut out);
        let applied = admin.snapshot().thresholds;
        assert_eq!(applied.score_threshold, 0.93);
        assert_eq!(applied.rate_capacity_pps, 4200.0);
        let over_http = client::get(addr, "/api/admin/thresholds").unwrap();
        assert!(over_http.body.contains("4200"));

        let bad =
            client::request(addr, "PUT", "/api/admin/thresholds?score_threshold=abc").unwrap();
        assert_eq!(bad.status, 400);
        let empty = client::request(addr, "PUT", "/api/admin/thresholds").unwrap();
        assert_eq!(empty.status, 400);
    }

    /// Satellite: unknown paths 404, wrong methods 405, bad params 400.
    #[test]
    fn error_paths() {
        let server = OpsServer::spawn(OpsState::new(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
        assert_eq!(
            client::get(addr, "/metrics").unwrap().status,
            404,
            "no hub attached"
        );
        assert_eq!(
            client::request(addr, "POST", "/metrics").unwrap().status,
            405
        );

        let fg = floodguard();
        let server =
            OpsServer::spawn(OpsState::new().with_admin(fg.admin_handle()), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        assert_eq!(
            client::request(addr, "POST", "/api/admin/block?ip=999.1.2.3")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::request(addr, "POST", "/api/admin/block?port=70000")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::request(addr, "POST", "/api/admin/block")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::request(addr, "POST", "/api/admin/block?ip=1.2.3.4&port=1")
                .unwrap()
                .status,
            400
        );
    }
}
