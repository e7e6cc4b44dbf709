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
//!
//! Between rounds `have` moves only on what the switch volunteers. Every
//! add carries `OFPFF_SEND_FLOW_REM`, so a rule of FloodGuard's that the
//! switch drops (a timeout, another controller's delete) comes back as a
//! `FLOW_REMOVED` that takes it out of `have`. A proactive rule that timed
//! out was not used: it stays out of `want` until the analyzer's rules
//! change for its key. An add the switch refuses
//! (`OFPET_FLOW_MOD_FAILED`, a full table) is matched to the round's
//! flow_mod by xid and by the match, cookie and priority the error echoes,
//! and is left out of later rounds until there is evidence of room. A
//! table-stats count (`OFPST_TABLE`, fixed-size) is the backstop for what
//! the switch does not report: a count below the rules `have` holds makes
//! the table unknown, and an unknown table is read.

use std::collections::{HashMap, HashSet};

use netsim::iface::ControlOutput;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::{FlowMod, FlowModCommand};
use ofproto::messages::{FlowStats, OfBody, OfMessage, StatsRequest};
use ofproto::types::{DatapathId, Xid};

use crate::migration::MigrationAgent;
use crate::ANSWER_WAIT_S;

/// The xid of FloodGuard's first request to a switch; later ones count up
/// from it.
const FIRST_XID: u32 = 0x4647_0000;

/// A rule's identity in a table: one rule per `(match, priority)`.
pub(crate) type Key = (OfMatch, u16);

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
    /// The latest table-stats count asked for, until it is answered.
    count: Option<Xid>,
    /// When the switch was last read or counted.
    asked_at: f64,
    /// The adds of the rounds sent since the latest read was answered,
    /// by xid: what an `OFPET_FLOW_MOD_FAILED` error can name.
    in_flight: Vec<(Xid, Key)>,
    /// Adds the switch refused, kept out of rounds until there is evidence
    /// of room. None of them is in `have`.
    pub(crate) refused: HashSet<Key>,
    /// Proactive rules the switch timed out, kept out of `want` until the
    /// analyzer's rules change for their key. None of them is in `have`.
    pub(crate) expired: HashSet<Key>,
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

    /// Whether the switch was last read or counted [`ANSWER_WAIT_S`] ago
    /// or longer.
    pub(crate) fn count_due(&self, now: f64) -> bool {
        now - self.asked_at >= ANSWER_WAIT_S
    }

    /// The latest answer is in, and shows no redirect.
    pub(crate) fn clear_of_redirects(&self) -> bool {
        self.read.is_none() && self.have.is_some() && self.redirects_held == 0
    }

    /// Nothing is known of the switch's table any more, nor of the room in
    /// it.
    pub(crate) fn forget(&mut self) {
        self.have = None;
        self.redirects_held = 0;
        self.read = None;
        self.parts.clear();
        self.count = None;
        self.in_flight.clear();
        self.refused.clear();
        self.differs = false;
    }
}

/// Every switch FloodGuard has seen, in first-connect order.
#[derive(Debug, Default)]
pub(crate) struct Reconciler {
    pub(crate) switches: Vec<SwitchTables>,
    /// Where each switch sits in `switches`.
    index: HashMap<DatapathId, usize>,
    /// Requests sent so far: reads, counts and flow_mods.
    sent: u32,
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
                count: None,
                asked_at: f64::NEG_INFINITY,
                in_flight: Vec::new(),
                refused: HashSet::new(),
                expired: HashSet::new(),
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

    /// The next request's xid.
    fn xid(&mut self) -> Xid {
        let xid = Xid(FIRST_XID.wrapping_add(self.sent));
        self.sent = self.sent.wrapping_add(1);
        xid
    }

    /// Sends switch `i` one round: `mods`, a barrier and a read. Each
    /// flow_mod has an xid of its own, and each add asks for a
    /// `FLOW_REMOVED`. A delete frees room, so what the switch refused
    /// before is tried again.
    pub(crate) fn round(
        &mut self,
        i: usize,
        mods: impl IntoIterator<Item = FlowMod>,
        now: f64,
        out: &mut ControlOutput,
    ) {
        for mut fm in mods {
            let xid = self.xid();
            let sw = &mut self.switches[i];
            if fm.command == FlowModCommand::Add {
                fm.flags.send_flow_removed = true;
                sw.in_flight.push((xid, (fm.of_match, fm.priority)));
            } else {
                sw.refused.clear();
            }
            out.send(sw.dpid, OfMessage::new(xid, OfBody::FlowMod(fm)));
        }
        let barrier = OfMessage::new(self.xid(), OfBody::BarrierRequest);
        out.send(self.switches[i].dpid, barrier);
        self.ask(i, now, out);
    }

    /// Asks switch `i` for its table. Only the answer to the latest read
    /// counts, so an earlier one still on its way is forgotten.
    pub(crate) fn ask(&mut self, i: usize, now: f64, out: &mut ControlOutput) {
        let xid = self.xid();
        let sw = &mut self.switches[i];
        sw.read = Some((xid, now));
        sw.asked_at = now;
        sw.parts.clear();
        let read = OfBody::StatsRequest(StatsRequest::Flow(OfMatch::any()));
        out.send(sw.dpid, OfMessage::new(xid, read));
    }

    /// Asks switch `i` how many rules it holds: one fixed-size table-stats
    /// exchange, whatever the table holds.
    pub(crate) fn count(&mut self, i: usize, now: f64, out: &mut ControlOutput) {
        let xid = self.xid();
        let sw = &mut self.switches[i];
        sw.count = Some(xid);
        sw.asked_at = now;
        let count = OfBody::StatsRequest(StatsRequest::Table);
        out.send(sw.dpid, OfMessage::new(xid, count));
    }

    /// Takes `dpid`'s answer to a count: `active` rules in its tables. A
    /// switch that holds fewer rules than `have` lists for FloodGuard
    /// alone has lost some without saying so, and its table is unknown
    /// from then on. An answer to anything but the latest count, or that
    /// came while a read is outstanding, says nothing: the read's answer
    /// decides.
    pub(crate) fn take_count(&mut self, dpid: DatapathId, xid: Xid, active: u64) {
        let Some(i) = self.index(dpid) else {
            return;
        };
        let sw = &mut self.switches[i];
        if sw.count != Some(xid) {
            return;
        }
        sw.count = None;
        let held = sw.have.as_ref().map_or(0, Vec::len);
        if !sw.asking() && active < held as u64 {
            sw.forget();
        }
    }

    /// Takes `dpid`'s report that a rule under FloodGuard's cookie is gone
    /// from its table: out of `have`, and, as room was freed, nothing stays
    /// refused. A proactive rule that `timed_out` stays out of `want`.
    /// Returns the switch's index.
    pub(crate) fn take_removed(
        &mut self,
        dpid: DatapathId,
        key: Key,
        timed_out: bool,
    ) -> Option<usize> {
        let i = self.index(dpid)?;
        let sw = &mut self.switches[i];
        sw.refused.clear();
        if timed_out && !MigrationAgent::is_redirect(&key.0, key.1) {
            sw.expired.insert(key);
        }
        if let Some(have) = &mut sw.have {
            if let Some(at) = have.iter().position(|r| (r.of_match, r.priority) == key) {
                let gone = have.remove(at);
                if MigrationAgent::is_redirect(&gone.of_match, gone.priority) {
                    sw.redirects_held -= 1;
                }
            }
        }
        Some(i)
    }

    /// Takes `dpid`'s refusal of the flow_mod with `xid`, whose leading
    /// bytes `echo` holds: when that was an add of a round still in flight
    /// and the echo names its rule under `cookie`, the rule stays out of
    /// later rounds. Returns whether it was such a refusal.
    pub(crate) fn take_refusal(
        &mut self,
        dpid: DatapathId,
        xid: Xid,
        echo: &[u8],
        cookie: u64,
    ) -> bool {
        let Some(i) = self.index(dpid) else {
            return false;
        };
        let Ok((of_match, echoed_cookie, priority)) = ofproto::wire::echoed_flow_mod(echo) else {
            return false;
        };
        let sw = &mut self.switches[i];
        let key = (of_match, priority);
        let ours = echoed_cookie == cookie && sw.in_flight.contains(&(xid, key));
        ours && sw.refused.insert(key)
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
        // Every error a round's flow_mods could bring came before its
        // barrier's reply, and so before this answer.
        sw.in_flight.clear();
        let have = std::mem::take(&mut sw.parts);
        if !sw.refused.is_empty() || !sw.expired.is_empty() {
            let held: HashSet<Key> = have.iter().map(|r| (r.of_match, r.priority)).collect();
            sw.refused.retain(|key| !held.contains(key));
            sw.expired.retain(|key| !held.contains(key));
        }
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

    /// An error refuses an add only when its xid is a round's add still in
    /// flight and its echo names that add's rule under FloodGuard's cookie;
    /// the read's answer ends the round, and a delete frees room.
    #[test]
    fn a_refusal_is_the_in_flight_add_it_names() {
        let mut tables = Reconciler::default();
        let i = tables.connect(DatapathId(1), vec![1, 2]);
        let add =
            |port: u16| FlowMod::add(OfMatch::any().with_in_port(port), vec![]).with_cookie(7);
        let mut out = ControlOutput::new();
        tables.round(i, [add(1), add(2)], 0.0, &mut out);
        let sent: Vec<&OfMessage> = out.messages.iter().map(|(_, m)| m).collect();
        assert!(matches!(&sent[0].body, OfBody::FlowMod(fm) if fm.flags.send_flow_removed));
        let echo = |msg: &OfMessage| ofproto::wire::encode(msg).slice(..64);
        let refuse = |tables: &mut Reconciler, xid, msg: &OfMessage, cookie| {
            tables.take_refusal(DatapathId(1), xid, &echo(msg), cookie)
        };
        let (first, second) = (sent[0].xid, sent[1].xid);
        assert!(
            !refuse(&mut tables, second, sent[0], 7),
            "another add's xid"
        );
        assert!(!refuse(&mut tables, first, sent[0], 8), "another cookie");
        assert!(refuse(&mut tables, first, sent[0], 7));
        assert!(!refuse(&mut tables, first, sent[0], 7), "refused once");
        let key = (OfMatch::any().with_in_port(1), add(1).priority);
        assert_eq!(tables.switches[i].refused, HashSet::from([key]));
        // The answer ends the round: a late error names nothing in flight.
        let read = sent[3].xid;
        assert_eq!(
            tables.take_answer(DatapathId(1), read, &[], true, 7),
            Some(i)
        );
        assert!(!refuse(&mut tables, second, sent[1], 7));
        // A delete is room: the refused add is tried again.
        let delete = FlowMod::delete_strict(OfMatch::any().with_in_port(2), 0);
        tables.round(i, [delete], 0.1, &mut out);
        assert!(tables.switches[i].refused.is_empty());
    }
}
