//! An endpoint whose runtime cannot be built says so: with no file
//! descriptor left for the runtime's epoll instance and eventfd,
//! `ControllerEndpoint::listen` and `SwitchEndpoint::spawn` return the
//! error instead of starting a thread that dies.
//!
//! Using up the process's descriptors would starve every other test in it,
//! so the test runs this binary again under a low open-file limit
//! (`ulimit -n`), and only the ignored test, which does the work, runs
//! there.

use std::fs::File;
use std::process::Command;

use netsim::iface::{ControlOutput, ControlPlane};
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::messages::{FeaturesReply, OfMessage};
use ofproto::types::DatapathId;

/// `EMFILE`: the process has no descriptor left.
const EMFILE: i32 = 24;

#[test]
fn an_endpoint_whose_runtime_cannot_be_built_returns_the_error() {
    let exe = std::env::current_exe().expect("test binary");
    let child = Command::new("sh")
        .args(["-c", "ulimit -n 64 && exec \"$0\" \"$@\""])
        .arg(exe)
        .args([
            "--ignored",
            "--exact",
            "with_no_descriptor_left",
            "--test-threads",
            "1",
        ])
        .output()
        .expect("sh");
    assert!(
        child.status.success(),
        "the endpoints started without a runtime:\n{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}

struct Quiet;

impl ControlPlane for Quiet {
    fn on_switch_connect(
        &mut self,
        _: DatapathId,
        _: FeaturesReply,
        _: f64,
        _: &mut ControlOutput,
    ) {
    }

    fn on_message(&mut self, _: DatapathId, _: OfMessage, _: f64, _: &mut ControlOutput) {}
}

#[test]
#[ignore = "uses up the process's descriptors: run by the test above, in a process of its own"]
fn with_no_descriptor_left() {
    let mut held = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        held.push(file);
        assert!(held.len() < 4096, "no open-file limit in force");
    }
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1]);
    let controller = "127.0.0.1:6633".parse().expect("address");
    let spawned = SwitchEndpoint::spawn(switch, Vec::new(), controller, ChannelConfig::default());
    assert_eq!(spawned.expect_err("spawned").raw_os_error(), Some(EMFILE));

    // One descriptor free: the listener binds, the runtime cannot be built.
    held.pop();
    let any_port = "127.0.0.1:0".parse().expect("address");
    let listened =
        ControllerEndpoint::listen(Box::new(Quiet), any_port, ControllerConfig::default());
    assert_eq!(
        listened.expect_err("listening").raw_os_error(),
        Some(EMFILE)
    );
}
