//! Seeded, deterministic fault injection.
//!
//! Faults are first-class simulation events: a [`FaultScript`] is a list of
//! `(time, Fault)` pairs that [`crate::Simulation::load_fault_script`] turns
//! into ordinary entries in the deterministic event queue, so a faulted run
//! is exactly as reproducible as a clean one (loss sampling draws from the
//! simulation's seeded RNG). The same [`Fault`] values are accepted by the
//! live `ofchannel` switch endpoint, so one script can drive both the
//! in-process simulator and the real TCP transport.
//!
//! Every applied fault is appended to the simulation's fault log
//! ([`crate::Simulation::fault_log`]) for post-mortem inspection and CI
//! artifacts.

use crate::engine::SwitchId;
use crate::iface::DeviceId;

/// A single injectable infrastructure fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Take the data link on `(sw, port)` down: packets in either direction
    /// are dropped until a matching [`Fault::LinkUp`].
    LinkDown {
        /// Switch owning the port.
        sw: SwitchId,
        /// Port whose link goes down.
        port: u16,
    },
    /// Restore a link previously taken down by [`Fault::LinkDown`].
    LinkUp {
        /// Switch owning the port.
        sw: SwitchId,
        /// Port whose link comes back.
        port: u16,
    },
    /// Corrupt/lose each packet crossing `(sw, port)` independently with the
    /// given probability (sampled from the simulation's seeded RNG).
    /// A probability of `0.0` clears the impairment.
    LinkLoss {
        /// Switch owning the port.
        sw: SwitchId,
        /// Port whose link becomes lossy.
        port: u16,
        /// Per-packet drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Lose each flow_mod the controller sends to `sw` independently with
    /// the given probability (sampled from the switch's seeded RNG): a
    /// send queue that sheds, or a lossy control channel, as the switch
    /// sees it. Other messages pass. A probability of `0.0` clears it.
    FlowModLoss {
        /// Switch whose flow_mods are lost.
        sw: SwitchId,
        /// Per-flow_mod drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Partition the control channel of `sw`: all OpenFlow traffic between
    /// the switch and the controller is dropped, and the controller is told
    /// the switch disconnected. Healed by [`Fault::ControlHeal`].
    ControlPartition {
        /// Switch whose control channel is cut.
        sw: SwitchId,
    },
    /// Heal a [`Fault::ControlPartition`]: the control channel comes back and
    /// the switch re-handshakes with the controller (mirroring a TCP redial).
    ControlHeal {
        /// Switch whose control channel is restored.
        sw: SwitchId,
    },
    /// Crash `sw`, wiping its flow table, packet buffer and ingress queue,
    /// and sever its control channel. The switch restarts (empty) after
    /// `restart_after` seconds and re-handshakes; `f64::INFINITY` means it
    /// never comes back.
    SwitchCrash {
        /// Switch to crash.
        sw: SwitchId,
        /// Seconds until the (empty) switch restarts.
        restart_after: f64,
    },
    /// Crash the attached device `dev` (e.g. the data plane cache): its
    /// volatile state is wiped via `DataPlaneDevice::on_crash` and packets
    /// sent to it are dropped until it restarts `restart_after` seconds
    /// later (`f64::INFINITY` means never).
    DeviceCrash {
        /// Device to crash, in `attach_device` order.
        dev: DeviceId,
        /// Seconds until the device restarts.
        restart_after: f64,
    },
    /// Stall the controller for `duration` seconds: queued and newly arriving
    /// control messages wait until the stall ends.
    ControllerStall {
        /// Seconds the controller stops processing.
        duration: f64,
    },
}

/// One applied fault, as recorded in [`crate::Simulation::fault_log`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultLogEntry {
    /// Simulation time the fault took effect.
    pub at: f64,
    /// The fault that was applied.
    pub fault: Fault,
}

/// A deterministic schedule of faults, built with [`FaultScript::at`].
///
/// ```
/// use netsim::engine::SwitchId;
/// use netsim::faults::{Fault, FaultScript};
///
/// let script = FaultScript::new()
///     .at(1.0, Fault::SwitchCrash { sw: SwitchId(0), restart_after: 0.05 })
///     .at(2.0, Fault::ControllerStall { duration: 0.1 });
/// assert_eq!(script.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    events: Vec<(f64, Fault)>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `fault` at absolute simulation time `t` (builder style).
    pub fn at(mut self, t: f64, fault: Fault) -> Self {
        self.events.push((t, fault));
        self
    }

    /// The scheduled `(time, fault)` pairs, in insertion order.
    pub fn events(&self) -> &[(f64, Fault)] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}
