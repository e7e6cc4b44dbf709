//! Rule aggregation and compression under a TCAM budget.
//!
//! Hardware switch profiles bound the flow table at a few thousand TCAM
//! entries, so a production-scale proactive rule set must be *compressed*
//! before dispatch. Three semantics-preserving passes run in order:
//!
//! 1. **Duplicate removal** — byte-identical rules keep their first copy.
//! 2. **Shadow elimination** — a rule whose match is a subset of an
//!    earlier-winning rule (higher priority, or same priority and earlier
//!    position) can never be the winner for any packet and is dropped.
//! 3. **Prefix merge** — two sibling IPv4 prefixes (/n networks differing
//!    only in their last bit) carried by otherwise-identical rules merge
//!    into the /n-1 parent, iterated to fixpoint. OpenFlow 1.0 wildcards
//!    only support prefix widths on `nw_src`/`nw_dst` (every other field is
//!    all-or-nothing, so MAC "ranges" are structurally inexpressible), which
//!    is why the merge is IP-only.
//!
//! An optional **priority flattening** pass then compacts the distinct
//! priority values into a consecutive band anchored at the original
//! maximum (TCAM update cost grows with priority span), and an optional
//! **TCAM budget** drops lowest-priority rules — counted, never silent —
//! when even the compressed set does not fit.
//!
//! Equivalence contract: for every packet, the winning rule's actions in
//! the compressed set equal the winning rule's actions in the input set
//! (ties broken by position, as a switch's overlapping-priority insertion
//! order does). Budget eviction is the only pass allowed to change
//! semantics, and [`CompressionStats::rules_evicted`] exposes it.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ofproto::flow_match::{FlowKeys, OfMatch, Wildcards};
use policy::ProactiveRule;

/// Which passes run and under what budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Remove rules that can never win (subset of an earlier winner).
    pub eliminate_shadows: bool,
    /// Merge sibling IPv4 prefixes into their parent.
    pub merge_prefixes: bool,
    /// Compact distinct priorities into a consecutive band anchored at the
    /// original maximum.
    pub flatten_priorities: bool,
    /// Maximum rules allowed (the hardware profile's TCAM size); `0`
    /// disables the budget. Rules beyond the budget are evicted lowest
    /// priority first and counted in [`CompressionStats::rules_evicted`].
    pub tcam_budget: usize,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            eliminate_shadows: true,
            merge_prefixes: true,
            flatten_priorities: true,
            tcam_budget: 0,
        }
    }
}

impl CompressionConfig {
    /// Default passes with a TCAM budget.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.tcam_budget = budget;
        self
    }
}

/// What compression did to one rule set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Rules before compression.
    pub rules_in: usize,
    /// Rules after compression (and eviction, if any).
    pub rules_out: usize,
    /// Byte-identical duplicates dropped.
    pub duplicates_removed: usize,
    /// Never-winning rules dropped.
    pub shadows_removed: usize,
    /// Sibling-prefix merge operations (each removes one rule).
    pub prefixes_merged: usize,
    /// Rules dropped by the TCAM budget — the only semantics-changing pass.
    pub rules_evicted: usize,
    /// Numeric priority span before flattening (`max - min + 1`; 0 when
    /// empty).
    pub priority_span_in: u32,
    /// Numeric priority span after flattening.
    pub priority_span_out: u32,
    /// Whether the compressed set fit the budget *without* eviction (always
    /// true when the budget is disabled).
    pub fits_budget: bool,
}

impl CompressionStats {
    /// Input/output size ratio (≥ 1.0 when compression helped; 1.0 for an
    /// empty input).
    pub fn ratio(&self) -> f64 {
        if self.rules_out == 0 {
            1.0
        } else {
            self.rules_in as f64 / self.rules_out as f64
        }
    }
}

/// Picks the rule that wins for `keys`: highest priority, earliest position
/// on ties — the insertion-order semantics a switch applies to overlapping
/// same-priority entries.
pub fn winner<'a>(rules: &'a [ProactiveRule], keys: &FlowKeys) -> Option<&'a ProactiveRule> {
    let mut best: Option<&ProactiveRule> = None;
    for rule in rules {
        let better = match best {
            Some(b) => rule.priority > b.priority,
            None => true,
        };
        if better && rule.of_match.matches(keys) {
            best = Some(rule);
        }
    }
    best
}

fn prefix_overlap(a: Ipv4Addr, b: Ipv4Addr, wildcard_bits: u32) -> bool {
    wildcard_bits >= 32 || (u32::from(a) >> wildcard_bits) == (u32::from(b) >> wildcard_bits)
}

/// Whether some packet satisfies both matches. Exact for OpenFlow 1.0
/// matches: fields constrain independently, so the intersection is
/// non-empty iff every field's constraints are compatible.
pub fn matches_overlap(a: &OfMatch, b: &OfMatch) -> bool {
    fn flag_ok(aw: bool, bw: bool, eq: bool) -> bool {
        aw || bw || eq
    }
    let (wa, wb) = (a.wildcards, b.wildcards);
    prefix_overlap(
        a.keys.nw_dst,
        b.keys.nw_dst,
        wa.nw_dst_bits().max(wb.nw_dst_bits()),
    ) && prefix_overlap(
        a.keys.nw_src,
        b.keys.nw_src,
        wa.nw_src_bits().max(wb.nw_src_bits()),
    ) && flag_ok(
        wa.contains(Wildcards::IN_PORT),
        wb.contains(Wildcards::IN_PORT),
        a.keys.in_port == b.keys.in_port,
    ) && flag_ok(
        wa.contains(Wildcards::DL_SRC),
        wb.contains(Wildcards::DL_SRC),
        a.keys.dl_src == b.keys.dl_src,
    ) && flag_ok(
        wa.contains(Wildcards::DL_DST),
        wb.contains(Wildcards::DL_DST),
        a.keys.dl_dst == b.keys.dl_dst,
    ) && flag_ok(
        wa.contains(Wildcards::DL_VLAN),
        wb.contains(Wildcards::DL_VLAN),
        a.keys.dl_vlan == b.keys.dl_vlan,
    ) && flag_ok(
        wa.contains(Wildcards::DL_VLAN_PCP),
        wb.contains(Wildcards::DL_VLAN_PCP),
        a.keys.dl_vlan_pcp == b.keys.dl_vlan_pcp,
    ) && flag_ok(
        wa.contains(Wildcards::DL_TYPE),
        wb.contains(Wildcards::DL_TYPE),
        a.keys.dl_type == b.keys.dl_type,
    ) && flag_ok(
        wa.contains(Wildcards::NW_TOS),
        wb.contains(Wildcards::NW_TOS),
        a.keys.nw_tos == b.keys.nw_tos,
    ) && flag_ok(
        wa.contains(Wildcards::NW_PROTO),
        wb.contains(Wildcards::NW_PROTO),
        a.keys.nw_proto == b.keys.nw_proto,
    ) && flag_ok(
        wa.contains(Wildcards::TP_SRC),
        wb.contains(Wildcards::TP_SRC),
        a.keys.tp_src == b.keys.tp_src,
    ) && flag_ok(
        wa.contains(Wildcards::TP_DST),
        wb.contains(Wildcards::TP_DST),
        a.keys.tp_dst == b.keys.tp_dst,
    )
}

/// `s` (at position `s_idx`) beats `r` (at position `r_idx`) whenever both
/// match: higher priority, or same priority and earlier position.
fn beats(s: &ProactiveRule, s_idx: usize, r: &ProactiveRule, r_idx: usize) -> bool {
    s.priority > r.priority || (s.priority == r.priority && s_idx < r_idx)
}

/// Compresses `rules` under `cfg`. Returns the compressed set and what each
/// pass did. Apart from budget eviction (counted in the stats), the output
/// is packet-for-packet equivalent to the input under [`winner`] semantics.
pub fn compress(
    rules: &[ProactiveRule],
    cfg: &CompressionConfig,
) -> (Vec<ProactiveRule>, CompressionStats) {
    let mut stats = CompressionStats {
        rules_in: rules.len(),
        fits_budget: true,
        ..CompressionStats::default()
    };
    let mut out: Vec<ProactiveRule> = rules.to_vec();

    // Pass 1: duplicates.
    let mut seen: HashMap<&ProactiveRule, ()> = HashMap::with_capacity(out.len());
    let mut keep = vec![true; out.len()];
    for (i, rule) in out.iter().enumerate() {
        if seen.insert(rule, ()).is_some() {
            keep[i] = false;
            stats.duplicates_removed += 1;
        }
    }
    drop(seen);
    retain_marked(&mut out, &keep);

    // Pass 2: shadows.
    if cfg.eliminate_shadows {
        stats.shadows_removed = eliminate_shadows(&mut out);
    }

    // Pass 3: sibling prefix merge, to fixpoint across both IP fields.
    if cfg.merge_prefixes {
        loop {
            let merged = merge_prefix_siblings(&mut out, IpField::NwDst)
                + merge_prefix_siblings(&mut out, IpField::NwSrc);
            stats.prefixes_merged += merged;
            if merged == 0 {
                break;
            }
        }
    }

    // Priority flattening: order-preserving compaction anchored at the
    // original maximum, so the band keeps beating lower-priority table
    // residents (e.g. migration wildcards at priority 0).
    let (span_in, span_out) = flatten_priorities(&mut out, cfg.flatten_priorities);
    stats.priority_span_in = span_in;
    stats.priority_span_out = span_out;

    // Budget eviction: lowest priority first, latest position on ties.
    if cfg.tcam_budget > 0 && out.len() > cfg.tcam_budget {
        stats.fits_budget = false;
        let excess = out.len() - cfg.tcam_budget;
        let mut order: Vec<usize> = (0..out.len()).collect();
        order.sort_by_key(|&i| (out[i].priority, std::cmp::Reverse(i)));
        let mut keep = vec![true; out.len()];
        for &i in order.iter().take(excess) {
            keep[i] = false;
        }
        stats.rules_evicted = excess;
        retain_marked(&mut out, &keep);
    }

    stats.rules_out = out.len();
    (out, stats)
}

fn retain_marked(rules: &mut Vec<ProactiveRule>, keep: &[bool]) {
    let mut i = 0;
    rules.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

/// Drops every rule whose match is a subset of an earlier-winning rule's
/// match; returns how many were dropped. Sound unconditionally: such a rule
/// never wins, and removing a never-winning rule changes no winner.
fn eliminate_shadows(rules: &mut Vec<ProactiveRule>) -> usize {
    // Identical-match shadows resolve through a hash lookup; proper-superset
    // shadows only need a scan over the (typically few) wildcard rules.
    let mut best_by_match: HashMap<OfMatch, (u16, usize)> = HashMap::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let entry = best_by_match
            .entry(rule.of_match)
            .or_insert((rule.priority, i));
        if rule.priority > entry.0 {
            *entry = (rule.priority, i);
        }
    }
    let wildcard_idx: Vec<usize> = rules
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.of_match.is_exact())
        .map(|(i, _)| i)
        .collect();
    let mut keep = vec![true; rules.len()];
    let mut removed = 0;
    for (i, rule) in rules.iter().enumerate() {
        let identical = best_by_match
            .get(&rule.of_match)
            .is_some_and(|&(p, j)| j != i && (p > rule.priority || (p == rule.priority && j < i)));
        let widened = identical
            || wildcard_idx.iter().any(|&j| {
                j != i
                    && keep[j]
                    && beats(&rules[j], j, rule, i)
                    && rule.of_match.is_subset_of(&rules[j].of_match)
            });
        if widened {
            keep[i] = false;
            removed += 1;
        }
    }
    retain_marked(rules, &keep);
    removed
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IpField {
    NwSrc,
    NwDst,
}

fn field_prefix_len(rule: &ProactiveRule, field: IpField) -> u32 {
    match field {
        IpField::NwSrc => 32 - rule.of_match.wildcards.nw_src_bits(),
        IpField::NwDst => 32 - rule.of_match.wildcards.nw_dst_bits(),
    }
}

fn field_net(rule: &ProactiveRule, field: IpField) -> u32 {
    let (addr, len) = match field {
        IpField::NwSrc => (rule.of_match.keys.nw_src, field_prefix_len(rule, field)),
        IpField::NwDst => (rule.of_match.keys.nw_dst, field_prefix_len(rule, field)),
    };
    if len == 0 {
        0
    } else {
        u32::from(addr) & (u32::MAX << (32 - len))
    }
}

fn with_field_prefix(rule: &ProactiveRule, field: IpField, net: u32, len: u32) -> ProactiveRule {
    let mut out = rule.clone();
    out.of_match = match field {
        IpField::NwSrc => out.of_match.with_nw_src_prefix(Ipv4Addr::from(net), len),
        IpField::NwDst => out.of_match.with_nw_dst_prefix(Ipv4Addr::from(net), len),
    };
    out
}

/// The rule with `field` fully relaxed: the bucket signature for sibling
/// grouping, and the umbrella match for the same-priority guard.
fn relax_field(rule: &ProactiveRule, field: IpField) -> ProactiveRule {
    with_field_prefix(rule, field, 0, 0)
}

/// One round of sibling-prefix merging on `field`; returns the number of
/// merge operations performed.
///
/// Soundness of a single merge of siblings `a`/`b` into parent `p = a ∪ b`:
/// coverage at the pair's priority is unchanged (`p` matches exactly the
/// packets `a` or `b` matched, with the same actions), and relative order
/// against other rules only matters for same-priority ties. The parent
/// takes the earlier sibling's position, so the only region whose
/// effective position moves is the later sibling's — and only rules
/// positioned strictly *between* the two siblings see it move past them.
/// The merge is therefore blocked exactly when a same-priority rule with
/// *different* actions sits between the pair and overlaps the later
/// sibling's region.
fn merge_prefix_siblings(rules: &mut Vec<ProactiveRule>, field: IpField) -> usize {
    #[derive(Clone)]
    struct Entry {
        len: u32,
        net: u32,
        /// Earliest original position among the rules folded in (placement
        /// and tie-break anchor).
        pos: usize,
        /// Representative original rule index (carries actions/timeouts and
        /// the untouched non-IP match fields).
        rep: usize,
        merged: bool,
    }

    let mut buckets: HashMap<ProactiveRule, Vec<Entry>> = HashMap::new();
    let mut passthrough: Vec<usize> = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let len = field_prefix_len(rule, field);
        if len == 0 {
            passthrough.push(i);
            continue;
        }
        buckets
            .entry(relax_field(rule, field))
            .or_default()
            .push(Entry {
                len,
                net: field_net(rule, field),
                pos: i,
                rep: i,
                merged: false,
            });
    }

    // Same-priority different-action guard candidates, indexed per bucket
    // via the umbrella match (usually empty, making merges guard-free).
    let mut merges = 0;
    let mut survivors: Vec<(usize, Option<ProactiveRule>)> =
        passthrough.into_iter().map(|i| (i, None)).collect();

    for (umbrella, mut entries) in buckets {
        let guard: Vec<usize> = rules
            .iter()
            .enumerate()
            .filter(|(_, x)| {
                x.priority == umbrella.priority
                    && x.actions != umbrella.actions
                    && matches_overlap(&x.of_match, &umbrella.of_match)
            })
            .map(|(i, _)| i)
            .collect();
        // Deterministic processing order regardless of hash iteration.
        entries.sort_by_key(|e| e.pos);
        loop {
            let mut index: HashMap<(u32, u32), usize> = HashMap::with_capacity(entries.len());
            for (k, e) in entries.iter().enumerate() {
                index.entry((e.len, e.net)).or_insert(k);
            }
            let mut merged_one = false;
            for k in 0..entries.len() {
                let (len, net) = (entries[k].len, entries[k].net);
                if len == 0 {
                    // Already the whole address space; nothing to pair with.
                    continue;
                }
                let sibling_net = net ^ (1u32 << (32 - len));
                let Some(&m) = index.get(&(len, sibling_net)) else {
                    continue;
                };
                if m == k || entries[m].len != len {
                    continue;
                }
                // Guard: no same-priority different-action rule positioned
                // between the pair may overlap the later sibling's region
                // (the one whose effective position the merge moves up).
                let late = if entries[k].pos <= entries[m].pos {
                    m
                } else {
                    k
                };
                let (lo, hi) = (
                    entries[k].pos.min(entries[m].pos),
                    entries[k].pos.max(entries[m].pos),
                );
                let late_region =
                    with_field_prefix(&umbrella, field, entries[late].net, entries[late].len);
                let blocked = guard.iter().any(|&g| {
                    lo < g && g < hi && matches_overlap(&rules[g].of_match, &late_region.of_match)
                });
                if blocked {
                    continue;
                }
                let parent_net = net & !(1u32 << (32 - len));
                let (first, second) = if k < m { (k, m) } else { (m, k) };
                let pos = entries[first].pos.min(entries[second].pos);
                let rep = entries[first].rep;
                entries[first] = Entry {
                    len: len - 1,
                    net: parent_net,
                    pos,
                    rep,
                    merged: true,
                };
                entries.remove(second);
                merges += 1;
                merged_one = true;
                break;
            }
            if !merged_one {
                break;
            }
        }
        for e in entries {
            if e.merged {
                let rule = with_field_prefix(&rules[e.rep], field, e.net, e.len);
                survivors.push((e.pos, Some(rule)));
            } else {
                survivors.push((e.pos, None));
            }
        }
    }

    if merges > 0 {
        survivors.sort_by_key(|&(pos, _)| pos);
        *rules = survivors
            .into_iter()
            .map(|(pos, replacement)| replacement.unwrap_or_else(|| rules[pos].clone()))
            .collect();
    }
    merges
}

/// Compacts distinct priorities into a consecutive band ending at the
/// original maximum; returns `(span_in, span_out)`. Order-preserving, so
/// winners are unchanged within the set, and anchoring at the maximum keeps
/// the set's relation to lower-priority table residents.
fn flatten_priorities(rules: &mut [ProactiveRule], enabled: bool) -> (u32, u32) {
    let mut distinct: Vec<u16> = rules.iter().map(|r| r.priority).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.is_empty() {
        return (0, 0);
    }
    let max = *distinct.last().expect("nonempty");
    let min = *distinct.first().expect("nonempty");
    let span_in = u32::from(max) - u32::from(min) + 1;
    if !enabled {
        return (span_in, span_in);
    }
    let levels = distinct.len() as u32;
    let remap: HashMap<u16, u16> = distinct
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, max - (levels - 1 - i as u32) as u16))
        .collect();
    for rule in rules.iter_mut() {
        rule.priority = remap[&rule.priority];
    }
    (span_in, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::actions::Action;
    use ofproto::types::{MacAddr, PortNo};

    fn rule(of_match: OfMatch, port: u16, priority: u16) -> ProactiveRule {
        ProactiveRule {
            of_match,
            actions: vec![Action::Output(PortNo::Physical(port))],
            priority,
            idle_timeout: 0,
            hard_timeout: 0,
        }
    }

    fn dst_prefix(net: [u8; 4], len: u32) -> OfMatch {
        OfMatch::any().with_nw_dst_prefix(Ipv4Addr::from(net), len)
    }

    fn dst_keys(addr: [u8; 4]) -> FlowKeys {
        FlowKeys {
            nw_dst: Ipv4Addr::from(addr),
            ..FlowKeys::default()
        }
    }

    fn assert_equivalent(before: &[ProactiveRule], after: &[ProactiveRule], keys: &FlowKeys) {
        let b = winner(before, keys).map(|r| &r.actions);
        let a = winner(after, keys).map(|r| &r.actions);
        assert_eq!(b, a, "winner actions diverged for {keys:?}");
    }

    #[test]
    fn duplicates_keep_first() {
        let r = rule(dst_prefix([10, 0, 0, 0], 24), 1, 100);
        let (out, stats) = compress(&[r.clone(), r.clone(), r.clone()], &Default::default());
        assert_eq!(out.len(), 1);
        assert_eq!(stats.duplicates_removed, 2);
        assert_eq!(stats.ratio(), 3.0);
    }

    #[test]
    fn shadowed_rule_dropped() {
        let wide = rule(dst_prefix([10, 0, 0, 0], 8), 1, 200);
        let narrow = rule(dst_prefix([10, 1, 0, 0], 16), 2, 100);
        let (out, stats) = compress(&[wide.clone(), narrow.clone()], &Default::default());
        assert_eq!(stats.shadows_removed, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].actions, wide.actions);
        assert_equivalent(&[wide, narrow], &out, &dst_keys([10, 1, 2, 3]));
    }

    #[test]
    fn same_priority_later_identical_match_is_shadow() {
        let a = rule(dst_prefix([10, 0, 0, 0], 24), 1, 100);
        let b = rule(dst_prefix([10, 0, 0, 0], 24), 9, 100);
        let (out, stats) = compress(&[a.clone(), b], &Default::default());
        assert_eq!(stats.shadows_removed, 1);
        assert_eq!(out, vec![a]);
    }

    #[test]
    fn sibling_prefixes_merge_to_parent() {
        // Eight /27 slices of 10.1.2.0/24 with the same output collapse to
        // one /24 rule.
        let rules: Vec<ProactiveRule> = (0..8)
            .map(|i| rule(dst_prefix([10, 1, 2, 32 * i], 27), 4, 100))
            .collect();
        let (out, stats) = compress(&rules, &Default::default());
        assert_eq!(stats.prefixes_merged, 7);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].of_match.wildcards.nw_dst_bits(), 8, "/24");
        assert_eq!(out[0].of_match.keys.nw_dst, Ipv4Addr::new(10, 1, 2, 0));
        for last in [0u8, 31, 32, 255] {
            assert_equivalent(&rules, &out, &dst_keys([10, 1, 2, last]));
            assert_equivalent(&rules, &out, &dst_keys([10, 1, 3, last]));
        }
    }

    #[test]
    fn non_sibling_prefixes_do_not_merge() {
        // 10.0.0.0/24 and 10.0.2.0/24 are not siblings (differ in bit 23).
        let rules = vec![
            rule(dst_prefix([10, 0, 0, 0], 24), 1, 100),
            rule(dst_prefix([10, 0, 2, 0], 24), 1, 100),
        ];
        let (out, stats) = compress(&rules, &Default::default());
        assert_eq!(stats.prefixes_merged, 0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn merge_blocked_by_same_priority_different_action_overlap() {
        // An interleaved same-priority rule with a different action covers
        // the second sibling; merging would move the merged rule ahead of
        // it and steal the tie.
        let a = rule(dst_prefix([10, 0, 0, 0], 25), 1, 100);
        let x = rule(dst_prefix([10, 0, 0, 128], 26), 9, 100);
        let b = rule(dst_prefix([10, 0, 0, 128], 25), 1, 100);
        let rules = vec![a, x, b];
        let (out, stats) = compress(&rules, &Default::default());
        assert_eq!(stats.prefixes_merged, 0, "guard must block the merge");
        // 10.0.0.150 lies in both the /26 (x) and the second sibling (b);
        // at equal priority the earlier rule x must keep winning.
        let keys = dst_keys([10, 0, 0, 150]);
        assert_equivalent(&rules, &out, &keys);
        assert_eq!(winner(&out, &keys).unwrap().actions, rules[1].actions);
    }

    #[test]
    fn src_prefixes_merge_too() {
        let rules = vec![
            rule(
                OfMatch::any().with_nw_src_prefix(Ipv4Addr::new(0, 0, 0, 0), 1),
                2,
                100,
            ),
            rule(
                OfMatch::any().with_nw_src_prefix(Ipv4Addr::new(128, 0, 0, 0), 1),
                2,
                100,
            ),
        ];
        let (out, stats) = compress(&rules, &Default::default());
        assert_eq!(stats.prefixes_merged, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].of_match.is_any());
    }

    #[test]
    fn flatten_compacts_and_anchors_at_max() {
        let mut rules = vec![
            rule(dst_prefix([1, 0, 0, 0], 8), 1, 40),
            rule(dst_prefix([2, 0, 0, 0], 8), 2, 9000),
            rule(dst_prefix([3, 0, 0, 0], 8), 3, 700),
        ];
        let (span_in, span_out) = flatten_priorities(&mut rules, true);
        assert_eq!(span_in, 9000 - 40 + 1);
        assert_eq!(span_out, 3);
        let prios: Vec<u16> = rules.iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![8998, 9000, 8999], "order preserved, max kept");
    }

    #[test]
    fn budget_evicts_lowest_priority_and_counts() {
        let cfg = CompressionConfig {
            merge_prefixes: false,
            tcam_budget: 2,
            ..Default::default()
        };
        let rules = vec![
            rule(dst_prefix([1, 0, 0, 0], 24), 1, 50),
            rule(dst_prefix([2, 0, 0, 0], 24), 2, 300),
            rule(dst_prefix([3, 0, 0, 0], 24), 3, 100),
        ];
        let (out, stats) = compress(&rules, &cfg);
        assert!(!stats.fits_budget);
        assert_eq!(stats.rules_evicted, 1);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.actions != rules[0].actions));
    }

    #[test]
    fn disabled_passes_are_identity() {
        let cfg = CompressionConfig {
            eliminate_shadows: false,
            merge_prefixes: false,
            flatten_priorities: false,
            tcam_budget: 0,
        };
        let rules = vec![
            rule(dst_prefix([10, 0, 0, 0], 25), 1, 100),
            rule(dst_prefix([10, 0, 0, 128], 25), 1, 100),
            rule(dst_prefix([10, 0, 0, 0], 8), 2, 50),
        ];
        let (out, stats) = compress(&rules, &cfg);
        assert_eq!(out, rules);
        assert_eq!(stats.rules_out, stats.rules_in);
        assert!(stats.fits_budget);
    }

    #[test]
    fn overlap_is_symmetric_and_matches_semantics() {
        let a = dst_prefix([10, 0, 0, 0], 24);
        let b = dst_prefix([10, 0, 0, 128], 25);
        let c = dst_prefix([10, 0, 1, 0], 24);
        assert!(matches_overlap(&a, &b) && matches_overlap(&b, &a));
        assert!(!matches_overlap(&a, &c));
        let exact = OfMatch::any()
            .with_dl_dst(MacAddr::from_u64(5))
            .with_tp_dst(80);
        assert!(matches_overlap(&exact, &OfMatch::any()));
        assert!(!matches_overlap(&exact, &OfMatch::any().with_tp_dst(81)));
    }

    #[test]
    fn winner_prefers_priority_then_position() {
        let keys = dst_keys([10, 0, 0, 1]);
        let low = rule(dst_prefix([10, 0, 0, 0], 8), 1, 10);
        let early = rule(dst_prefix([10, 0, 0, 0], 24), 2, 90);
        let late = rule(dst_prefix([10, 0, 0, 0], 16), 3, 90);
        let rules = vec![low.clone(), early.clone(), late];
        assert_eq!(winner(&rules, &keys).unwrap().actions, early.actions);
        assert!(winner(&rules, &dst_keys([11, 0, 0, 1])).is_none());
    }
}
