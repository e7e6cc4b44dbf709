//! One repair path (DESIGN §9.1): two tables per switch, and one round that
//! sends their difference.
//!
//! * `want` is what FloodGuard decided the switch should hold under its
//!   cookie: the switch's redirects while migrating, plus the proactive
//!   rules under [`crate::RulePlacement::Switch`].
//! * `have` is what the switch last reported under that cookie, or
//!   unknown.
//!
//! A round is strict deletes, then adds, then one barrier, then one
//! flow-stats read. The barrier is there only because OpenFlow 1.0 lets a
//! switch reorder messages around nothing else. The read's answer becomes
//! `have`: confirmation comes from the switch's own table, not from the
//! barrier, whose reply says only that the switch processed what arrived
//! before it. A flow_mod shed from a send queue, or lost in a partition, is
//! "confirmed" by a barrier, and shows up as a difference in a read.

use std::collections::{HashMap, HashSet};

use netsim::iface::ControlOutput;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::messages::{FlowStats, OfBody, OfMessage, StatsRequest};
use ofproto::types::{DatapathId, Xid};

use crate::migration::MigrationAgent;
use crate::ANSWER_WAIT_S;

/// The xid of FloodGuard's first read; later ones count up from it.
const FIRST_READ_XID: u32 = 0x4647_0000;

/// One switch as the reconciler knows it.
#[derive(Debug)]
pub(crate) struct SwitchTables {
    pub(crate) dpid: DatapathId,
    /// Physical ports, from the switch's latest features reply.
    pub(crate) ports: Vec<u16>,
    pub(crate) connected: bool,
    /// The redirect part of `want`.
    pub(crate) redirects: Vec<FlowMod>,
    /// `have`: the rules under FloodGuard's cookie the switch last
    /// reported; `None` while unknown.
    pub(crate) have: Option<Vec<FlowStats>>,
    /// How many of `have`'s rules are redirects.
    pub(crate) redirects_held: usize,
    /// The latest read sent, and when, until its answer is whole.
    read: Option<(Xid, f64)>,
    /// The parts of the latest read's answer so far.
    parts: Vec<FlowStats>,
    /// The latest answer differed from `want` as it stood then.
    pub(crate) differs: bool,
    /// Finish's teardown stopped waiting for this switch.
    pub(crate) given_up: bool,
}

impl SwitchTables {
    /// Whether a read is outstanding.
    pub(crate) fn asking(&self) -> bool {
        self.read.is_some()
    }

    /// Whether the outstanding read has gone unanswered for
    /// [`ANSWER_WAIT_S`].
    pub(crate) fn answer_overdue(&self, now: f64) -> bool {
        self.read.is_some_and(|(_, at)| now - at >= ANSWER_WAIT_S)
    }

    /// The latest answer is in, and shows no redirect.
    pub(crate) fn clear_of_redirects(&self) -> bool {
        self.read.is_none() && self.have.is_some() && self.redirects_held == 0
    }

    /// Nothing is known of the switch's table any more.
    pub(crate) fn forget(&mut self) {
        self.have = None;
        self.redirects_held = 0;
        self.read = None;
        self.parts.clear();
        self.differs = false;
    }
}

/// Every switch FloodGuard has seen, in first-connect order.
#[derive(Debug, Default)]
pub(crate) struct Reconciler {
    pub(crate) switches: Vec<SwitchTables>,
    /// Where each switch sits in `switches`.
    index: HashMap<DatapathId, usize>,
    /// Reads sent so far.
    reads: u32,
}

impl Reconciler {
    /// Where switch `dpid` sits in `switches`, if it was ever seen.
    pub(crate) fn index(&self, dpid: DatapathId) -> Option<usize> {
        self.index.get(&dpid).copied()
    }

    /// Notes that `dpid` connected with `ports`, and returns its index. A
    /// first connect starts from an empty table, known as such: nothing of
    /// FloodGuard's can be on a switch it never reached. A reconnect starts
    /// from an unknown one.
    pub(crate) fn connect(&mut self, dpid: DatapathId, ports: Vec<u16>) -> usize {
        let i = *self.index.entry(dpid).or_insert(self.switches.len());
        if i == self.switches.len() {
            self.switches.push(SwitchTables {
                dpid,
                ports: Vec::new(),
                connected: false,
                redirects: Vec::new(),
                have: Some(Vec::new()),
                redirects_held: 0,
                read: None,
                parts: Vec::new(),
                differs: false,
                given_up: false,
            });
        } else {
            self.switches[i].forget();
        }
        let sw = &mut self.switches[i];
        sw.ports = ports;
        sw.connected = true;
        i
    }

    /// Notes that `dpid` went away: nothing sent to it arrives, and what it
    /// holds is unknown until it is back.
    pub(crate) fn disconnect(&mut self, dpid: DatapathId) {
        if let Some(i) = self.index(dpid) {
            self.switches[i].connected = false;
            self.switches[i].forget();
        }
    }

    /// Sends switch `i` one round: `mods`, a barrier and a read.
    pub(crate) fn round(
        &mut self,
        i: usize,
        mods: impl IntoIterator<Item = FlowMod>,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let dpid = self.switches[i].dpid;
        for fm in mods {
            out.send(dpid, OfMessage::new(Xid(0), OfBody::FlowMod(fm)));
        }
        out.send(dpid, OfMessage::new(Xid(0), OfBody::BarrierRequest));
        self.ask(i, now, out);
    }

    /// Asks switch `i` for its table. Only the answer to the latest read
    /// counts, so an earlier one still on its way is forgotten.
    pub(crate) fn ask(&mut self, i: usize, now: f64, out: &mut ControlOutput) {
        let xid = Xid(FIRST_READ_XID.wrapping_add(self.reads));
        self.reads = self.reads.wrapping_add(1);
        let sw = &mut self.switches[i];
        sw.read = Some((xid, now));
        sw.parts.clear();
        let read = OfBody::StatsRequest(StatsRequest::Flow(OfMatch::any()));
        out.send(sw.dpid, OfMessage::new(xid, read));
    }

    /// Takes one part of a flow-stats answer from `dpid`, keeping the
    /// entries under `cookie`. Returns the switch's index once the answer
    /// to its latest read is whole and has become `have`; parts of any
    /// other answer are dropped.
    pub(crate) fn take_answer(
        &mut self,
        dpid: DatapathId,
        xid: Xid,
        entries: &[FlowStats],
        last: bool,
        cookie: u64,
    ) -> Option<usize> {
        let i = self.index(dpid)?;
        let sw = &mut self.switches[i];
        if sw.read.map(|(latest, _)| latest) != Some(xid) {
            return None;
        }
        sw.parts
            .extend(entries.iter().filter(|r| r.cookie == cookie).cloned());
        if !last {
            return None;
        }
        sw.read = None;
        let have = std::mem::take(&mut sw.parts);
        let redirect = |r: &&FlowStats| MigrationAgent::is_redirect(&r.of_match, r.priority);
        sw.redirects_held = have.iter().filter(redirect).count();
        sw.have = Some(have);
        Some(i)
    }
}

/// The round that takes a switch from `have` to `want`: strict deletes for
/// what it holds and should not, in the order it reported them, then adds
/// for what it lacks or holds with other actions, in `want`'s order. Rules
/// in `have` that `scope` leaves out are neither deleted nor counted.
pub(crate) fn delta(
    want: &[FlowMod],
    have: &[FlowStats],
    scope: impl Fn(&FlowStats) -> bool,
) -> Vec<FlowMod> {
    let have: Vec<&FlowStats> = have.iter().filter(|r| scope(r)).collect();
    let held: HashMap<_, _> = have
        .iter()
        .map(|r| ((r.of_match, r.priority), r.actions.as_slice()))
        .collect();
    let wanted: HashSet<_> = want.iter().map(|fm| (fm.of_match, fm.priority)).collect();
    let stale = have
        .iter()
        .filter(|r| !wanted.contains(&(r.of_match, r.priority)));
    let mut mods: Vec<FlowMod> = stale
        .map(|r| FlowMod::delete_strict(r.of_match, r.priority))
        .collect();
    let missing = want
        .iter()
        .filter(|fm| held.get(&(fm.of_match, fm.priority)) != Some(&fm.actions.as_slice()));
    mods.extend(missing.cloned());
    mods
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(port: u16, cookie: u64) -> FlowStats {
        FlowStats {
            of_match: OfMatch::any().with_in_port(port),
            priority: 0,
            cookie,
            packet_count: 0,
            byte_count: 0,
            duration_sec: 0,
            actions: Vec::new(),
        }
    }

    #[test]
    fn only_the_latest_read_is_answered_whole_and_ours() {
        let mut tables = Reconciler::default();
        let i = tables.connect(DatapathId(1), vec![1, 2]);
        assert_eq!(tables.switches[i].have, Some(Vec::new()), "first connect");
        let mut out = ControlOutput::new();
        tables.ask(i, 0.0, &mut out);
        tables.round(i, [], 0.1, &mut out);
        let (first, latest) = (out.messages[0].1.xid, out.messages[2].1.xid);
        let answer = |tables: &mut Reconciler, xid, entries: &[FlowStats], last| {
            tables.take_answer(DatapathId(1), xid, entries, last, 7)
        };
        assert_eq!(answer(&mut tables, first, &[stats(1, 7)], true), None);
        // The latest, in two parts; an entry under another cookie is not
        // FloodGuard's.
        assert_eq!(answer(&mut tables, latest, &[stats(1, 7)], false), None);
        assert!(tables.switches[i].asking());
        assert_eq!(answer(&mut tables, latest, &[stats(2, 9)], true), Some(i));
        assert_eq!(tables.switches[i].have, Some(vec![stats(1, 7)]));
        assert_eq!(tables.switches[i].redirects_held, 1);
        // A reconnect knows nothing.
        tables.disconnect(DatapathId(1));
        assert_eq!(tables.connect(DatapathId(1), vec![1]), i);
        assert_eq!(tables.switches[i].have, None);
    }
}
