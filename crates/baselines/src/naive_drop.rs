//! The **naive drop** baseline the paper argues against (§I, §IV-C): when a
//! flood is detected, install a lowest-priority drop-all rule so table-miss
//! packets die in the datapath.
//!
//! It protects the controller as well as FloodGuard does, but sacrifices
//! every benign new flow for the duration — the integration tests measure
//! exactly that collateral damage against FloodGuard's cache.

use std::sync::Arc;

use controller::platform::ControllerPlatform;
use floodguard::detector::Detector;
use floodguard::{DetectionConfig, State, StateMachine};
use netsim::iface::{ControlOutput, ControlPlane, Telemetry};
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::messages::{OfBody, OfMessage};
use ofproto::types::{DatapathId, Xid};
use parking_lot::Mutex;

/// Counters for the naive defense.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveDropStats {
    /// Attacks detected.
    pub attacks_detected: u64,
    /// Drop rules installed.
    pub drop_rules_installed: u64,
    /// Drop rules removed after the window cleared.
    pub drop_rules_removed: u64,
}

/// Shared view of the live counters (the plane itself is moved into the
/// simulation once installed).
pub type NaiveDropHandle = Arc<Mutex<NaiveDropStats>>;

/// The naive drop-all defense wrapping a controller platform.
pub struct NaiveDrop {
    platform: ControllerPlatform,
    detector: Detector,
    sm: StateMachine,
    switches: Vec<DatapathId>,
    cookie: u64,
    stats: NaiveDropHandle,
}

impl std::fmt::Debug for NaiveDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveDrop")
            .field("state", &self.sm.state())
            .finish()
    }
}

impl NaiveDrop {
    /// Wraps `platform` with naive drop-all protection.
    pub fn new(platform: ControllerPlatform, detection: DetectionConfig) -> NaiveDrop {
        NaiveDrop {
            platform,
            detector: Detector::new(detection),
            sm: StateMachine::new(),
            switches: Vec::new(),
            cookie: 0x4a1e_d409,
            stats: Arc::new(Mutex::new(NaiveDropStats::default())),
        }
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> NaiveDropStats {
        *self.stats.lock()
    }

    /// Shared handle to the live counters — read it after the plane has
    /// been moved into the simulation.
    pub fn stats_handle(&self) -> NaiveDropHandle {
        Arc::clone(&self.stats)
    }

    /// The defense state (reuses FloodGuard's FSM; Defense means the drop
    /// rule is installed).
    pub fn state(&self) -> State {
        self.sm.state()
    }

    fn drop_all_rule(&self) -> FlowMod {
        FlowMod::add(OfMatch::any(), vec![])
            .with_priority(0)
            .with_cookie(self.cookie)
    }
}

impl ControlPlane for NaiveDrop {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: ofproto::messages::FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.switches.push(dpid);
        self.platform.on_switch_connect(dpid, features, now, out);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        if matches!(msg.body, OfBody::PacketIn(_)) {
            self.detector.record_packet_in(now);
        }
        self.platform.on_message(dpid, msg, now, out);
    }

    fn on_telemetry(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        let buffer = telemetry
            .switches
            .iter()
            .map(|s| s.buffer_utilization)
            .fold(0.0_f64, f64::max);
        let datapath = telemetry
            .switches
            .iter()
            .map(|s| s.datapath_utilization)
            .fold(0.0_f64, f64::max);
        self.detector
            .record_utilization(buffer, datapath, telemetry.controller_utilization, now);
        match self.sm.state() {
            State::Idle if self.detector.is_attack(now) && self.sm.transition(State::Init, now) => {
                let mut stats = self.stats.lock();
                stats.attacks_detected += 1;
                for &dpid in &self.switches {
                    out.send(
                        dpid,
                        OfMessage::new(Xid(0), OfBody::FlowMod(self.drop_all_rule())),
                    );
                    stats.drop_rules_installed += 1;
                }
                drop(stats);
                self.sm.transition(State::Defense, now);
            }
            State::Defense => {
                // With the drop rule installed, packet_ins stop; the rate
                // decaying below the end threshold means... nothing — the
                // naive defense is blind. Remove after the window clears.
                let rate = self.detector.rate(now);
                if self.detector.is_over(rate, now) && self.sm.transition(State::Finish, now) {
                    for &dpid in &self.switches {
                        out.send(
                            dpid,
                            OfMessage::new(
                                Xid(0),
                                OfBody::FlowMod(FlowMod::delete_strict(OfMatch::any(), 0)),
                            ),
                        );
                        self.stats.lock().drop_rules_removed += 1;
                    }
                    self.sm.transition(State::Idle, now);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::apps;
    use netsim::iface::SwitchTelemetry;
    use ofproto::messages::{FeaturesReply, PacketIn, PacketInReason};
    use ofproto::types::{MacAddr, PortNo};

    fn defense() -> NaiveDrop {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let mut nd = NaiveDrop::new(platform, DetectionConfig::default());
        let mut out = ControlOutput::new();
        nd.on_switch_connect(
            DatapathId(1),
            FeaturesReply {
                datapath_id: DatapathId(1),
                n_buffers: 64,
                n_tables: 1,
                ports: vec![PortNo::Physical(1)],
            },
            0.0,
            &mut out,
        );
        nd
    }

    fn telemetry() -> Telemetry {
        Telemetry {
            switches: vec![SwitchTelemetry {
                dpid: DatapathId(1),
                buffer_utilization: 0.0,
                datapath_utilization: 0.0,
                ingress_len: 0,
                misses: 0,
                flow_count: Some(0),
            }],
            controller_queue: 0,
            controller_utilization: 0.0,
        }
    }

    fn flood(nd: &mut NaiveDrop, now: f64, n: usize) {
        for i in 0..n {
            let pkt = netsim::packet::Packet::udp(
                MacAddr::from_u64(i as u64 + 10),
                MacAddr::from_u64(i as u64 + 20),
                std::net::Ipv4Addr::from(i as u32),
                std::net::Ipv4Addr::from(i as u32 + 5),
                1,
                2,
                64,
            );
            let data = pkt.to_bytes();
            let mut out = ControlOutput::new();
            nd.on_message(
                DatapathId(1),
                OfMessage::new(
                    Xid(i as u32),
                    OfBody::PacketIn(PacketIn {
                        buffer_id: None,
                        total_len: data.len() as u16,
                        in_port: PortNo::Physical(1),
                        reason: PacketInReason::NoMatch,
                        data,
                    }),
                ),
                now,
                &mut out,
            );
        }
    }

    #[test]
    fn installs_drop_all_on_attack() {
        let mut nd = defense();
        flood(&mut nd, 1.0, 60);
        let mut out = ControlOutput::new();
        nd.on_telemetry(&telemetry(), 1.05, &mut out);
        assert_eq!(nd.state(), State::Defense);
        assert_eq!(nd.stats().drop_rules_installed, 1);
        match &out.messages[0].1.body {
            OfBody::FlowMod(fm) => {
                assert!(fm.actions.is_empty(), "drop");
                assert!(fm.of_match.is_any(), "matches everything");
                assert_eq!(fm.priority, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn removes_rule_when_calm() {
        let mut nd = defense();
        flood(&mut nd, 1.0, 60);
        let mut out = ControlOutput::new();
        nd.on_telemetry(&telemetry(), 1.05, &mut out);
        assert_eq!(nd.state(), State::Defense);
        // Rate window drains; hysteresis elapses.
        let mut out = ControlOutput::new();
        nd.on_telemetry(&telemetry(), 3.0, &mut out);
        let mut out = ControlOutput::new();
        nd.on_telemetry(&telemetry(), 3.5, &mut out);
        assert_eq!(nd.state(), State::Idle);
        assert!(out
            .messages
            .iter()
            .any(|(_, m)| matches!(&m.body, OfBody::FlowMod(fm) if fm.command == ofproto::flow_mod::FlowModCommand::DeleteStrict)));
    }

    #[test]
    fn quiet_network_stays_idle() {
        let mut nd = defense();
        flood(&mut nd, 1.0, 3);
        let mut out = ControlOutput::new();
        nd.on_telemetry(&telemetry(), 1.05, &mut out);
        assert_eq!(nd.state(), State::Idle);
        assert!(out.messages.is_empty());
    }
}
