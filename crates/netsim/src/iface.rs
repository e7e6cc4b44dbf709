//! Interfaces between the simulated network and pluggable logic: the control
//! plane (controller platform, with or without FloodGuard) and data-plane
//! devices (FloodGuard's data plane cache).

use ofproto::messages::{FeaturesReply, OfMessage};
use ofproto::types::DatapathId;

use crate::packet::Packet;

/// Identifier of a data-plane device attached to a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub usize);

/// Messages and accounting produced while the control plane handles an event.
#[derive(Debug, Default)]
pub struct ControlOutput {
    /// OpenFlow messages to send down to switches.
    pub messages: Vec<(DatapathId, OfMessage)>,
    /// CPU seconds consumed, attributed per application/module name.
    ///
    /// The engine sums these for the controller's service time and feeds the
    /// breakdown into per-application utilization tracking (Fig. 12).
    pub cpu: Vec<(String, f64)>,
}

impl ControlOutput {
    /// Creates an empty output.
    pub fn new() -> ControlOutput {
        ControlOutput::default()
    }

    /// Queues a message toward switch `dpid`.
    #[inline]
    pub fn send(&mut self, dpid: DatapathId, msg: OfMessage) {
        self.messages.push((dpid, msg));
    }

    /// Records `seconds` of CPU consumed by `app`.
    ///
    /// Charges accumulate per name, so repeated charges from a hot handler
    /// reuse the existing entry (and its `String`) instead of growing the
    /// list — with [`ControlOutput::reset`] this makes a recycled output
    /// allocation-free once every app name has been seen.
    #[inline]
    pub fn charge(&mut self, app: &str, seconds: f64) {
        if let Some((_, total)) = self.cpu.iter_mut().find(|(name, _)| name == app) {
            *total += seconds;
        } else {
            self.cpu.push((app.to_owned(), seconds));
        }
    }

    /// Total CPU seconds recorded.
    pub fn total_cpu(&self) -> f64 {
        self.cpu.iter().map(|(_, s)| s).sum()
    }

    /// Empties the output for reuse, keeping message capacity and the app
    /// name strings (their charges are zeroed).
    #[inline]
    pub fn reset(&mut self) {
        self.messages.clear();
        for (_, seconds) in &mut self.cpu {
            *seconds = 0.0;
        }
    }
}

/// Snapshot of one switch's resource state, delivered with telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchTelemetry {
    /// Which switch.
    pub dpid: DatapathId,
    /// Packet-buffer occupancy, 0..=1.
    pub buffer_utilization: f64,
    /// Datapath busy fraction over the last telemetry interval, 0..=1.
    pub datapath_utilization: f64,
    /// Packets waiting in the ingress queue.
    pub ingress_len: usize,
    /// Table misses so far (cumulative, batch-expanded).
    pub misses: u64,
    /// Installed flow rules, when whoever assembled the snapshot can see
    /// the table (the simulation engine, a live switch endpoint). `None`
    /// is "unobserved", not "empty": a controller-side endpoint knows only
    /// what a switch tells it, and says so rather than guess.
    pub flow_count: Option<usize>,
}

/// Periodic infrastructure telemetry, the raw input to FloodGuard's
/// detection (packet_in rate plus buffer/CPU utilization — paper §IV-C1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// Per-switch snapshots.
    pub switches: Vec<SwitchTelemetry>,
    /// Messages waiting in the controller's input queue.
    pub controller_queue: usize,
    /// Controller CPU utilization over the last telemetry interval, 0..=1.
    pub controller_utilization: f64,
}

/// The control plane: a reactive controller platform, optionally wrapped by
/// a defense (FloodGuard or a baseline).
pub trait ControlPlane: Send {
    /// A switch completed its handshake.
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    );

    /// An OpenFlow message arrived from switch `dpid`.
    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput);

    /// An OpenFlow message arrived from data-plane device `device`
    /// (FloodGuard's data plane cache re-injecting `packet_in`s).
    fn on_device_message(
        &mut self,
        _device: DeviceId,
        _msg: OfMessage,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }

    /// The control channel to `dpid` was lost (partition, switch crash or a
    /// dead TCP connection). A later [`ControlPlane::on_switch_connect`] for
    /// the same `dpid` signals the re-handshake. Default: ignore.
    fn on_switch_disconnect(&mut self, _dpid: DatapathId, _now: f64, _out: &mut ControlOutput) {}

    /// Periodic infrastructure telemetry.
    fn on_telemetry(&mut self, _telemetry: &Telemetry, _now: f64, _out: &mut ControlOutput) {}

    /// Periodic tick at [`ControlPlane::tick_interval`].
    fn on_tick(&mut self, _now: f64, _out: &mut ControlOutput) {}

    /// Interval between [`ControlPlane::on_tick`] calls, if any.
    fn tick_interval(&self) -> Option<f64> {
        None
    }
}

/// Output of a data-plane device handling an event.
#[derive(Debug, Default)]
pub struct DeviceOutput {
    /// Messages to send to the controller over the device's own connection.
    pub to_controller: Vec<OfMessage>,
}

impl DeviceOutput {
    /// Creates an empty output.
    pub fn new() -> DeviceOutput {
        DeviceOutput::default()
    }
}

/// A device sitting in the data plane on a switch port (the FloodGuard data
/// plane cache; potentially middleboxes in other experiments).
pub trait DataPlaneDevice: Send {
    /// A packet was forwarded to the device's port.
    fn on_packet(&mut self, pkt: Packet, now: f64, out: &mut DeviceOutput);

    /// A burst of packets arrived at the same instant (the engine coalesces
    /// consecutive same-time deliveries). Drains `pkts` in arrival order.
    ///
    /// The default forwards one packet at a time; devices with per-call
    /// overhead (locks, shared-state sync) should override it.
    fn on_packets(&mut self, pkts: &mut Vec<Packet>, now: f64, out: &mut DeviceOutput) {
        for pkt in pkts.drain(..) {
            self.on_packet(pkt, now, out);
        }
    }

    /// A message arrived from the controller.
    fn on_message(&mut self, _msg: OfMessage, _now: f64, _out: &mut DeviceOutput) {}

    /// Periodic tick.
    fn on_tick(&mut self, _now: f64, _out: &mut DeviceOutput) {}

    /// Absolute time of the next desired tick, if any.
    fn next_tick(&self, _now: f64) -> Option<f64> {
        None
    }

    /// The device crashed: volatile state (queues, timers) is gone. The
    /// engine drops packets addressed to it until
    /// [`DataPlaneDevice::on_restart`]. Default: ignore.
    fn on_crash(&mut self) {}

    /// The device came back (empty) after a crash. Default: ignore.
    fn on_restart(&mut self, _now: f64) {}
}

/// A control plane that answers nothing — useful as a null object and to
/// measure raw attack impact with a dead controller.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullControlPlane;

impl ControlPlane for NullControlPlane {
    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: FeaturesReply,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }

    fn on_message(
        &mut self,
        _dpid: DatapathId,
        _msg: OfMessage,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::messages::OfBody;
    use ofproto::types::Xid;

    #[test]
    fn control_output_accumulates() {
        let mut out = ControlOutput::new();
        out.send(DatapathId(1), OfMessage::new(Xid(1), OfBody::Hello));
        out.charge("l2_learning", 0.001);
        out.charge("ip_balancer", 0.002);
        assert_eq!(out.messages.len(), 1);
        assert!((out.total_cpu() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn control_output_charge_merges_by_name_and_reset_recycles() {
        let mut out = ControlOutput::new();
        out.charge("l2_learning", 0.001);
        out.charge("l2_learning", 0.002);
        assert_eq!(out.cpu.len(), 1, "same app accumulates in place");
        assert!((out.total_cpu() - 0.003).abs() < 1e-12);
        out.send(DatapathId(1), OfMessage::new(Xid(1), OfBody::Hello));
        out.reset();
        assert!(out.messages.is_empty());
        assert_eq!(out.total_cpu(), 0.0);
        // Name entry survives the reset; the next charge reuses it.
        out.charge("l2_learning", 0.004);
        assert_eq!(out.cpu.len(), 1);
        assert!((out.total_cpu() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn null_control_plane_is_silent() {
        let mut cp = NullControlPlane;
        let mut out = ControlOutput::new();
        cp.on_message(
            DatapathId(1),
            OfMessage::new(Xid(1), OfBody::Hello),
            0.0,
            &mut out,
        );
        assert!(out.messages.is_empty());
        assert_eq!(out.total_cpu(), 0.0);
    }
}
