//! Helpers shared by the integration tests under `tests/`: each is written
//! once here and used by every test file that needs it.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bench::Defense;
use floodguard::FloodGuardConfig;
use ofproto::types::MacAddr;

/// Polls `probe` every 5 ms until it returns true or `deadline` elapses;
/// returns whether it did.
pub fn wait_for(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Seed for the fault and adversary scenarios. CI sweeps several via
/// `FG_FAULT_SEED`; locally the default (42) matches the bench suite.
pub fn fault_seed() -> u64 {
    std::env::var("FG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// FloodGuard with its default configuration, as a bench contender.
pub fn fg() -> Defense {
    Defense::FloodGuard(FloodGuardConfig::default())
}

/// The MAC address whose 48 bits are `n`.
pub fn mac(n: u64) -> MacAddr {
    MacAddr::from_u64(n)
}

/// Host `n` of 10.0.0.0/24.
pub fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}
