//! Live OpenFlow 1.0 transport for the FloodGuard reproduction.
//!
//! Everything else in this workspace exercises the defense inside a
//! discrete-event simulation; this crate runs the same components over real
//! TCP sockets. It provides:
//!
//! * One framed connection (the crate-private `conn` module) that every
//!   endpoint here serves its sockets through: tasks on the vendored async
//!   runtime, never a thread per socket. A reader takes one frame at a
//!   time off the byte stream ([`ofproto::wire::decode_frame`]), counts it
//!   at its declared length, stamps the receive clock and answers
//!   `echo_request` itself; a writer task drains a **bounded** send queue
//!   with one `write_all` per burst, so a peer that stops reading surfaces
//!   as counted backpressure ([`CountersSnapshot::sends_blocked`]) instead
//!   of unbounded buffering. A message too long for one frame is refused
//!   and counted ([`CountersSnapshot::sends_oversize`]), never written
//!   with a length field that wrapped.
//! * [`handshake`] — the `HELLO` → `FEATURES` exchange that opens every
//!   session and identifies the peer: one I/O-free state machine, driven
//!   over `std::net` for plain-socket peers and over the runtime for the
//!   endpoints.
//! * [`controller_endpoint::ControllerEndpoint`] — a
//!   [`netsim::iface::ControlPlane`] (the controller platform, optionally
//!   wrapped by FloodGuard) served on a listening socket, with echo
//!   keepalive, liveness timeouts and flow-mod replay after a reconnect.
//!   Every session starts there: the controller only listens, and each
//!   inbound dial is handshaken in a task of its own, so a peer that dials
//!   and says nothing holds nothing up.
//! * [`switch_endpoint::SwitchEndpoint`] — a [`netsim::switch::Switch`]
//!   (plus attached data-plane devices) that dials the controller, the way
//!   a Mininet switch dials a remote controller, and redials it with capped
//!   exponential backoff. One task owns the switch; dialing and
//!   handshaking happen in tasks of their own.
//! * [`swarm`] — a fleet of simulated switches as tasks, for load; each
//!   dials once, through the same routine.
//! * [`counters::ChannelCounters`] — frames/bytes in/out, decode errors,
//!   reconnects, backpressure rejections and queue high-water marks, so
//!   channel saturation is measurable from outside.
//!
//! Data-plane cache connections are distinguished from switch connections
//! by [`DEVICE_DPID_FLAG`] in the handshake's datapath id, mirroring how
//! the paper gives the cache its own controller connection.

#![warn(missing_docs)]

pub mod config;
mod conn;
pub mod controller_endpoint;
pub mod counters;
pub mod handshake;
pub mod obs;
pub mod swarm;
pub mod switch_endpoint;

pub use config::ChannelConfig;

pub use controller_endpoint::{
    ControllerConfig, ControllerEndpoint, ControllerStatus, ControllerView, FlowRuleView,
};
pub use counters::{ChannelCounters, CountersSnapshot};
pub use swarm::{run_swarm, SwarmConfig, SwarmReport};
pub use switch_endpoint::SwitchEndpoint;

use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;

use netsim::iface::DeviceId;
use ofproto::messages::FeaturesReply;
use ofproto::types::DatapathId;

/// High bit marking a datapath id as a data-plane device connection.
///
/// OpenFlow 1.0 datapath ids embed a 48-bit MAC plus an implementer-defined
/// upper 16 bits, so real switches never carry this bit. A features reply
/// whose id has it set announces "I am data-plane cache *n*", and the
/// controller routes its messages through
/// [`netsim::iface::ControlPlane::on_device_message`].
pub const DEVICE_DPID_FLAG: u64 = 1 << 63;

/// The datapath id a device connection announces for device index `index`.
pub fn device_dpid(index: usize) -> DatapathId {
    DatapathId(DEVICE_DPID_FLAG | index as u64)
}

/// Extracts the device id from a flagged datapath id, if the flag is set.
pub fn parse_device_dpid(dpid: DatapathId) -> Option<DeviceId> {
    if dpid.0 & DEVICE_DPID_FLAG != 0 {
        Some(DeviceId((dpid.0 & !DEVICE_DPID_FLAG) as usize))
    } else {
        None
    }
}

/// The features reply a device connection presents during its handshake.
///
/// Devices are not switches: no ports, no buffers — the reply exists only
/// to carry the flagged identity.
pub fn device_features(index: usize) -> FeaturesReply {
    FeaturesReply {
        datapath_id: device_dpid(index),
        n_buffers: 0,
        n_tables: 0,
        ports: Vec::new(),
    }
}

/// Locks a snapshot an endpoint's thread shares with the threads that read
/// it: its status, its mirrored tables, its telemetry.
fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared
        .lock()
        .expect("a thread panicked holding an endpoint's snapshot")
}

/// Starts an endpoint's thread, `name`, and builds its runtime there: the
/// runtime, and every task, socket and timer on it, never leaves that
/// thread. Hands back the runtime's build error, if any, before `serve`
/// runs on it; the thread's result is `None` only then. The runtime drops,
/// closing every socket its tasks held, before the thread ends.
pub(crate) fn start<T: Send + 'static>(
    name: &str,
    serve: impl FnOnce(&tokio::runtime::Runtime) -> T + Send + 'static,
) -> std::io::Result<JoinHandle<Option<T>>> {
    let (built_tx, built) = std::sync::mpsc::sync_channel(1);
    let thread = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            let rt = match tokio::runtime::Runtime::new() {
                Ok(rt) => rt,
                Err(e) => {
                    let _ = built_tx.send(Err(e));
                    return None;
                }
            };
            let _ = built_tx.send(Ok(()));
            Some(serve(&rt))
        })?;
    match built.recv() {
        Ok(Ok(())) => Ok(thread),
        Ok(Err(e)) => {
            let _ = thread.join();
            Err(e)
        }
        Err(_) => Err(std::io::Error::other(
            "the endpoint's thread ended at start",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_dpid_roundtrip() {
        for index in [0usize, 1, 7, 4095] {
            let dpid = device_dpid(index);
            assert_eq!(parse_device_dpid(dpid), Some(DeviceId(index)));
        }
        assert_eq!(parse_device_dpid(DatapathId(1)), None);
        assert_eq!(parse_device_dpid(DatapathId(0xff_ffff)), None);
    }

    #[test]
    fn device_features_carry_identity() {
        let f = device_features(3);
        assert_eq!(parse_device_dpid(f.datapath_id), Some(DeviceId(3)));
        assert!(f.ports.is_empty());
    }
}
