//! # netsim — discrete-event SDN network simulator
//!
//! This crate simulates the data plane the FloodGuard paper evaluates on:
//! OpenFlow switches with finite packet buffers and datapath CPU, hosts with
//! traffic workloads (bulk transfer, spoofed UDP floods, latency probes),
//! data-to-control channels with finite bandwidth, a controller machine, and
//! pluggable data-plane devices (FloodGuard's data plane cache).
//!
//! It substitutes for the paper's Mininet and LinkSys/Pantou testbeds; the
//! two calibrated [`profile::SwitchProfile`]s reproduce the resource
//! contention that makes the data-to-control plane saturation attack work.
//!
//! ## Example
//!
//! ```
//! use netsim::engine::Simulation;
//! use netsim::host::BulkSender;
//! use netsim::profile::SwitchProfile;
//! use ofproto::actions::Action;
//! use ofproto::flow_match::OfMatch;
//! use ofproto::types::{MacAddr, PortNo};
//! use std::net::Ipv4Addr;
//!
//! let mut sim = Simulation::new(1);
//! let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2]);
//! let a = sim.add_host(sw, 1, MacAddr::from_u64(0xa), Ipv4Addr::new(10, 0, 0, 1));
//! let b = sim.add_host(sw, 2, MacAddr::from_u64(0xb), Ipv4Addr::new(10, 0, 0, 2));
//! // Pre-install forwarding so traffic flows without a controller.
//! for (dst, port) in [(0xau64, 1u16), (0xb, 2)] {
//!     sim.switch_mut(sw)
//!         .add_rule(
//!             OfMatch::any().with_dl_dst(MacAddr::from_u64(dst)),
//!             vec![Action::Output(PortNo::Physical(port))],
//!             10,
//!             0.0,
//!         )
//!         .unwrap();
//! }
//! sim.host_mut(a).add_source(Box::new(BulkSender::new(
//!     MacAddr::from_u64(0xa),
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     MacAddr::from_u64(0xb),
//!     Ipv4Addr::new(10, 0, 0, 2),
//!     1, 4, 10, 1500, 0.0,
//! )));
//! sim.run_until(1.0);
//! assert!(sim.host(b).meter.total_bytes() > 0);
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod faults;
pub mod host;
pub mod iface;
pub mod metrics;
pub mod packet;
pub mod pool;
pub mod profile;
pub mod sched;
pub mod switch;
pub mod synstate;
pub mod topo;

pub use adversary::{
    Adversary, AdversaryStats, BotnetFlood, BotnetFloodConfig, ProbeAndEvade, ProbeAndEvadeConfig,
    PulsedFlood, PulsedFloodConfig, SlowDrain, SlowDrainConfig,
};
pub use engine::{DropCause, Endpoint, Simulation, SwitchId};
pub use faults::{Fault, FaultLogEntry, FaultScript};
pub use host::{Host, HostId, TrafficSource};
pub use iface::{ControlOutput, ControlPlane, DataPlaneDevice, DeviceId, DeviceOutput, Telemetry};
pub use metrics::BandwidthMeter;
pub use packet::{FlowTag, Packet, Payload, Transport};
pub use profile::{ControllerProfile, SwitchProfile};
pub use switch::{MissHook, MissOverride, Switch, SwitchStats};
