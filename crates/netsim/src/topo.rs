//! Data-center topology generators: fat-tree and leaf-spine fabrics.
//!
//! Both generators build the switch fabric, attach hosts, and pre-install a
//! complete deterministic destination-prefix routing so every packet is
//! forwarded in the datapath — no table misses, no controller dependence.
//! That makes them suitable for scaling benchmarks (the engine's events/sec
//! on a wide fabric) as well as for arena scenarios that want a realistic
//! multi-tier fabric under a defense.
//!
//! Addressing follows the classic fat-tree convention: host `h` on edge
//! switch `e` of pod `p` gets `10.p.e.(h+2)`, so pods are `/16`s and edge
//! subnets are `/24`s, and the routing tables are pure prefix matches:
//!
//! - **edge**: `/32` per local host (priority 100), `/16` per pod toward a
//!   pod-indexed uplink (priority 50);
//! - **aggregation**: `/24` per local edge subnet downward (priority 100),
//!   `/16` per remote pod toward a pod-indexed core uplink (priority 50);
//! - **core**: `/16` per pod to that pod's port.
//!
//! The uplink choice (`pod % (k/2)`) is a deterministic hash, so a given
//! source/destination pair always takes the same path.

use crate::engine::{Simulation, SwitchId};
use crate::host::HostId;
use crate::profile::SwitchProfile;
use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::types::{MacAddr, PortNo};
use std::net::Ipv4Addr;

/// The switches and hosts of a generated fat-tree fabric.
#[derive(Debug)]
pub struct FatTree {
    /// The arity `k` the fabric was built with.
    pub k: usize,
    /// `(k/2)^2` core switches.
    pub cores: Vec<SwitchId>,
    /// `k` pods of `k/2` aggregation switches.
    pub aggs: Vec<Vec<SwitchId>>,
    /// `k` pods of `k/2` edge switches.
    pub edges: Vec<Vec<SwitchId>>,
    /// All `k^3/4` hosts, ordered by (pod, edge, port).
    pub hosts: Vec<HostId>,
}

impl FatTree {
    /// The IPv4 address assigned to host `h` on edge `e` of pod `p`.
    pub fn host_ip(p: usize, e: usize, h: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, p as u8, e as u8, (h + 2) as u8)
    }
}

/// Builds a `k`-ary fat tree: `(k/2)^2` cores, `k` pods of `k/2` aggregation
/// and `k/2` edge switches, and `k^3/4` hosts, fully wired and routed.
///
/// `k` must be even, at least 2 and at most 254 (so pods, edges and hosts
/// all fit their address octets). Every switch uses `profile`; link latency
/// is whatever the simulation is configured with.
///
/// # Panics
///
/// Panics if `k` is odd or out of range, or if called on a simulation that
/// already started running.
pub fn fat_tree(sim: &mut Simulation, k: usize, profile: SwitchProfile) -> FatTree {
    assert!(
        k >= 2 && k % 2 == 0 && k <= 254,
        "fat-tree arity must be even and in 2..=254, got {k}"
    );
    let half = k / 2;
    let now = sim.now();

    // Core layer: core c serves aggregation index c / (k/2) in every pod,
    // on that aggregation switch's uplink port (k/2)+1+(c % (k/2)).
    let cores: Vec<SwitchId> = (0..half * half)
        .map(|_| sim.add_switch(profile, (1..=k as u16).collect()))
        .collect();

    let mut aggs = Vec::with_capacity(k);
    let mut edges = Vec::with_capacity(k);
    let mut hosts = Vec::new();
    for p in 0..k {
        let pod_aggs: Vec<SwitchId> = (0..half)
            .map(|_| sim.add_switch(profile, (1..=k as u16).collect()))
            .collect();
        let pod_edges: Vec<SwitchId> = (0..half)
            .map(|_| sim.add_switch(profile, (1..=k as u16).collect()))
            .collect();

        for (e, &edge) in pod_edges.iter().enumerate() {
            // Edge uplink j (port k/2+1+j) goes to aggregation j, whose
            // downlink port e+1 identifies this edge.
            for (j, &agg) in pod_aggs.iter().enumerate() {
                sim.connect_switches(edge, (half + 1 + j) as u16, agg, (e + 1) as u16);
            }
            for h in 0..half {
                let id = hosts.len() as u64;
                let host = sim.add_host(
                    edge,
                    (h + 1) as u16,
                    MacAddr::from_u64(0x0200_0000_0000 + id),
                    FatTree::host_ip(p, e, h),
                );
                hosts.push(host);
            }
        }
        for (j, &agg) in pod_aggs.iter().enumerate() {
            for i in 0..half {
                let core = cores[j * half + i];
                sim.connect_switches(agg, (half + 1 + i) as u16, core, (p + 1) as u16);
            }
        }
        aggs.push(pod_aggs);
        edges.push(pod_edges);
    }

    // Routing. The pod-indexed uplink hash `q % (k/2)` picks the same
    // aggregation/core column for a destination pod everywhere.
    for p in 0..k {
        for (e, &edge) in edges[p].iter().enumerate() {
            let sw = sim.switch_mut(edge);
            for h in 0..half {
                sw.add_rule(
                    OfMatch::any().with_nw_dst(FatTree::host_ip(p, e, h)),
                    vec![Action::Output(PortNo::Physical((h + 1) as u16))],
                    100,
                    now,
                )
                .expect("edge host route fits the table");
            }
            for q in 0..k {
                let up = (half + 1 + (q % half)) as u16;
                sw.add_rule(
                    OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, q as u8, 0, 0), 16),
                    vec![Action::Output(PortNo::Physical(up))],
                    50,
                    now,
                )
                .expect("edge pod route fits the table");
            }
        }
        for &agg in &aggs[p] {
            let sw = sim.switch_mut(agg);
            for e in 0..half {
                sw.add_rule(
                    OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, p as u8, e as u8, 0), 24),
                    vec![Action::Output(PortNo::Physical((e + 1) as u16))],
                    100,
                    now,
                )
                .expect("aggregation edge route fits the table");
            }
            for q in 0..k {
                if q == p {
                    continue;
                }
                let up = (half + 1 + (q % half)) as u16;
                sw.add_rule(
                    OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, q as u8, 0, 0), 16),
                    vec![Action::Output(PortNo::Physical(up))],
                    50,
                    now,
                )
                .expect("aggregation pod route fits the table");
            }
        }
    }
    for &core in &cores {
        let sw = sim.switch_mut(core);
        for p in 0..k {
            sw.add_rule(
                OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, p as u8, 0, 0), 16),
                vec![Action::Output(PortNo::Physical((p + 1) as u16))],
                50,
                now,
            )
            .expect("core pod route fits the table");
        }
    }

    FatTree {
        k,
        cores,
        aggs,
        edges,
        hosts,
    }
}

/// The switches and hosts of a generated leaf-spine fabric.
#[derive(Debug)]
pub struct LeafSpine {
    /// Leaf (top-of-rack) switches.
    pub leaves: Vec<SwitchId>,
    /// Spine switches; every leaf connects to every spine.
    pub spines: Vec<SwitchId>,
    /// All hosts, ordered by (leaf, port).
    pub hosts: Vec<HostId>,
    /// Hosts attached per leaf.
    pub hosts_per_leaf: usize,
}

impl LeafSpine {
    /// The IPv4 address assigned to host `h` on leaf `l`.
    pub fn host_ip(l: usize, h: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, (l >> 8) as u8, (l & 0xff) as u8, (h + 2) as u8)
    }
}

/// Builds a two-tier leaf-spine fabric: `leaves` top-of-rack switches each
/// carrying `hosts_per_leaf` hosts, fully meshed to `spines` spine switches.
///
/// A leaf routes local hosts by `/32`, and everything else out a fixed
/// leaf-indexed spine uplink (`l % spines`, priority-0 wildcard); spines
/// route per-leaf `/24` subnets down. `leaves * hosts_per_leaf` scales to
/// 10^5–10^6 hosts while each table stays small (spine tables hold one rule
/// per leaf).
///
/// # Panics
///
/// Panics if any dimension is zero, `leaves > 65535`, or
/// `hosts_per_leaf > 253`, or if the simulation already started running.
pub fn leaf_spine(
    sim: &mut Simulation,
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    profile: SwitchProfile,
) -> LeafSpine {
    assert!(
        leaves > 0 && spines > 0 && hosts_per_leaf > 0,
        "empty fabric"
    );
    assert!(leaves <= 0xffff, "leaf index must fit two address octets");
    assert!(
        hosts_per_leaf <= 253,
        "host index must fit one address octet"
    );
    let now = sim.now();
    let h = hosts_per_leaf;

    let leaf_ids: Vec<SwitchId> = (0..leaves)
        .map(|_| sim.add_switch(profile, (1..=(h + spines) as u16).collect()))
        .collect();
    let spine_ids: Vec<SwitchId> = (0..spines)
        .map(|_| sim.add_switch(profile, (1..=leaves as u16).collect()))
        .collect();

    let mut hosts = Vec::with_capacity(leaves * h);
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        for (s, &spine) in spine_ids.iter().enumerate() {
            sim.connect_switches(leaf, (h + 1 + s) as u16, spine, (l + 1) as u16);
        }
        for p in 0..h {
            let id = hosts.len() as u64;
            let host = sim.add_host(
                leaf,
                (p + 1) as u16,
                MacAddr::from_u64(0x0200_0000_0000 + id),
                LeafSpine::host_ip(l, p),
            );
            hosts.push(host);
        }
    }

    for (l, &leaf) in leaf_ids.iter().enumerate() {
        let sw = sim.switch_mut(leaf);
        for p in 0..h {
            sw.add_rule(
                OfMatch::any().with_nw_dst(LeafSpine::host_ip(l, p)),
                vec![Action::Output(PortNo::Physical((p + 1) as u16))],
                100,
                now,
            )
            .expect("leaf host route fits the table");
        }
        sw.add_rule(
            OfMatch::any(),
            vec![Action::Output(PortNo::Physical(
                (h + 1 + (l % spines)) as u16,
            ))],
            0,
            now,
        )
        .expect("leaf default route fits the table");
    }
    for &spine in &spine_ids {
        let sw = sim.switch_mut(spine);
        for l in 0..leaves {
            sw.add_rule(
                OfMatch::any()
                    .with_nw_dst_prefix(Ipv4Addr::new(10, (l >> 8) as u8, (l & 0xff) as u8, 0), 24),
                vec![Action::Output(PortNo::Physical((l + 1) as u16))],
                50,
                now,
            )
            .expect("spine leaf route fits the table");
        }
    }

    LeafSpine {
        leaves: leaf_ids,
        spines: spine_ids,
        hosts,
        hosts_per_leaf: h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CbrSource;

    fn cross_fabric_cbr(sim: &mut Simulation, from: HostId, to: HostId) {
        let (src_mac, src_ip) = {
            let h = sim.host(from);
            (h.mac, h.ip)
        };
        let (dst_mac, dst_ip) = {
            let h = sim.host(to);
            (h.mac, h.ip)
        };
        sim.host_mut(from).add_source(Box::new(CbrSource::new(
            src_mac, src_ip, dst_mac, dst_ip, 200.0, 0.0, 0.5, 400,
        )));
    }

    #[test]
    fn fat_tree_k4_shape() {
        let mut sim = Simulation::new(1);
        let ft = fat_tree(&mut sim, 4, SwitchProfile::software());
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.aggs.len(), 4);
        assert_eq!(ft.edges.len(), 4);
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.aggs.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn fat_tree_routes_end_to_end() {
        let mut sim = Simulation::new(2);
        let ft = fat_tree(&mut sim, 4, SwitchProfile::software());
        // Corner to corner (pod 0 -> pod 3, crosses core), plus same-pod
        // cross-edge (via aggregation only).
        let far = *ft.hosts.last().unwrap();
        cross_fabric_cbr(&mut sim, ft.hosts[0], far);
        cross_fabric_cbr(&mut sim, ft.hosts[0], ft.hosts[2]);
        sim.run_until(1.0);
        assert!(sim.host(far).received_packets >= 99);
        assert!(sim.host(ft.hosts[2]).received_packets >= 99);
        // Pre-installed routing means the controller never saw a packet.
        assert_eq!(sim.ctrl_stats.processed, 0);
    }

    /// The fabric of `benches/engine.rs` and fgbench's `sim_repro`: k = 8,
    /// one-millisecond links and control channels, 64 cross-fabric CBR
    /// streams from host `i` to host `i + 64`.
    #[test]
    fn fat_tree_k8_matches_the_parent_engine() {
        let profile = SwitchProfile {
            channel_latency: 1e-3,
            ..SwitchProfile::software()
        };
        let mut sim = Simulation::new(7);
        sim.set_link_latency(1e-3);
        let ft = fat_tree(&mut sim, 8, profile);
        let n = ft.hosts.len();
        for i in 0..64 {
            let (from, to) = (ft.hosts[i], ft.hosts[(i + n / 2) % n]);
            let (src_mac, src_ip) = (sim.host(from).mac, sim.host(from).ip);
            let (dst_mac, dst_ip) = (sim.host(to).mac, sim.host(to).ip);
            sim.host_mut(from).add_source(Box::new(CbrSource::new(
                src_mac, src_ip, dst_mac, dst_ip, 400.0, 0.0, 1.0, 200,
            )));
        }
        sim.run_until(1.0);
        let received: Vec<u64> = ft
            .hosts
            .iter()
            .map(|&h| sim.host(h).received_packets)
            .collect();
        // Recorded on the per-switch parallel engine this one replaced: the
        // first half of the hosts send, the second half each receive all
        // but the two packets still in flight at the end.
        let mut expected = vec![0; 64];
        expected.resize(128, 398);
        assert_eq!((sim.events_processed(), received), (306_579, expected));
    }

    #[test]
    fn leaf_spine_routes_end_to_end() {
        let mut sim = Simulation::new(3);
        let ls = leaf_spine(&mut sim, 4, 2, 3, SwitchProfile::software());
        assert_eq!(ls.hosts.len(), 12);
        let far = *ls.hosts.last().unwrap();
        cross_fabric_cbr(&mut sim, ls.hosts[0], far);
        sim.run_until(1.0);
        assert!(sim.host(far).received_packets >= 99);
        assert_eq!(sim.ctrl_stats.processed, 0);
    }

    #[test]
    fn leaf_spine_addressing_spans_octets() {
        assert_eq!(LeafSpine::host_ip(0, 0), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(LeafSpine::host_ip(259, 7), Ipv4Addr::new(10, 1, 3, 9));
    }
}
