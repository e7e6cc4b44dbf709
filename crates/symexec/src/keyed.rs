//! One application's Algorithm 2 result, kept so that it can follow the
//! application's globals key by key.
//!
//! A path is **delta-safe** for a table when it reads it nowhere but as the
//! container of its one enumerated membership test and, in the rule
//! template, as a lookup of that same key: each key of the table is then
//! one candidate whose outcome depends on no other key. Such a path's rules
//! are kept under the key that produced them, in enumeration (ascending
//! key) order, and after writes to some keys only those are converted
//! again — by the routine that converts them all, ranging over fewer
//! values. Whatever is not provably that falls back to converting the
//! application in full; [`KeyedConversion::apply`] lists the cases and is
//! the one place that decides.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use policy::{Change, Env, ProactiveRule, Value};

use crate::path::PathConditions;
use crate::solve::{convert_path, dedupe, path_reads, ConversionStats, Only, PathRules, MAX_RULES};

/// What the rules of one application are kept as.
#[derive(Debug)]
enum Layout {
    /// Per modify-state path; no rule occurs twice.
    Paths(Vec<PathRules>),
    /// Some rule occurred twice: the flat list with the repeats dropped,
    /// which no per-key bookkeeping describes.
    Deduped(Vec<ProactiveRule>),
}

/// One application's proactive rules as of one version of its globals.
#[derive(Debug)]
pub struct KeyedConversion {
    env_version: u64,
    rules: Layout,
    stats: ConversionStats,
    /// How many rules held hash to what ([`hash_of`]), to tell whether a
    /// key's new rule would repeat one: it does not when nothing held
    /// hashes like it. Eight bytes a rule where the rules themselves would
    /// be a second copy of them all. Built by the first
    /// [`KeyedConversion::apply`] that gets that far, so a conversion that
    /// is only ever replaced does not pay for it.
    held: Option<HashMap<u64, u32>>,
}

fn hash_of(rule: &ProactiveRule) -> u64 {
    let mut hasher = DefaultHasher::new();
    rule.hash(&mut hasher);
    hasher.finish()
}

/// What [`KeyedConversion::apply`] changed.
#[derive(Debug, Default, PartialEq)]
pub struct KeyDelta {
    /// Rules that went, in conversion order.
    pub removed: Vec<ProactiveRule>,
    /// Rules that came, in conversion order.
    pub added: Vec<ProactiveRule>,
}

/// `(modify-state path, key, outcome)`: the key's candidate now yields
/// `Some(rule)`, is rejected (`Some(None)`), or no longer binds (`None`).
type KeyWrite = (usize, Value, Option<Option<ProactiveRule>>);

impl KeyedConversion {
    /// Algorithm 2 over one application, under its current globals.
    pub fn convert(pcs: &PathConditions, env: &Env) -> KeyedConversion {
        let mut stats = ConversionStats::of(pcs);
        let mut room = MAX_RULES;
        let paths: Vec<PathRules> = pcs
            .modify_state_paths()
            .map(|path| {
                let converted = convert_path(path, env, None, &mut room);
                stats.add_path(
                    converted.rules.len(),
                    converted.rules.rejected(),
                    converted.truncated,
                );
                converted.rules
            })
            .collect();
        let mut converted = KeyedConversion {
            env_version: env.version(),
            rules: Layout::Paths(paths),
            stats,
            held: None,
        };
        let mut seen = HashSet::with_capacity(converted.len());
        let mut distinct = true;
        converted.for_each_rule(|rule| distinct &= seen.insert(rule));
        if !distinct {
            let mut flat = converted.into_rules();
            dedupe(&mut flat);
            converted = KeyedConversion {
                env_version: env.version(),
                rules: Layout::Deduped(flat),
                stats,
                held: None,
            };
        }
        converted
    }

    /// The [`Env::version`] the rules are those of.
    pub fn env_version(&self) -> u64 {
        self.env_version
    }

    /// The statistics a conversion of that version reports.
    pub fn stats(&self) -> &ConversionStats {
        &self.stats
    }

    /// How many rules.
    pub fn len(&self) -> usize {
        match &self.rules {
            Layout::Paths(paths) => paths.iter().map(PathRules::len).sum(),
            Layout::Deduped(rules) => rules.len(),
        }
    }

    /// Whether there is no rule.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits the rules in conversion order.
    pub fn for_each_rule<'a>(&'a self, mut f: impl FnMut(&'a ProactiveRule)) {
        match &self.rules {
            Layout::Paths(paths) => paths.iter().for_each(|path| path.for_each(&mut f)),
            Layout::Deduped(rules) => rules.iter().for_each(f),
        }
    }

    /// The rules in conversion order.
    pub fn into_rules(self) -> Vec<ProactiveRule> {
        match self.rules {
            Layout::Paths(paths) => paths.into_iter().flat_map(PathRules::into_rules).collect(),
            Layout::Deduped(rules) => rules,
        }
    }

    /// Brings the rules from the version they are of to `env`'s current
    /// one by converting only the keys `env`'s journal says were written
    /// since, and says what that changed — or changes nothing and returns
    /// `None`, when it cannot prove that this is all
    /// [`KeyedConversion::convert`] would change:
    ///
    /// * the journal no longer reaches back, or names a global replaced as
    ///   a whole;
    /// * a path reads a written table and is not delta-safe for it, or
    ///   reads two;
    /// * [`MAX_RULES`] truncated the conversion, or is within the written
    ///   keys' reach;
    /// * a rule occurred twice, or a key's new rule equals one held (or
    ///   hashes like one).
    ///
    /// `pcs` and `env` are those of the application this was converted
    /// from.
    pub fn apply(&mut self, pcs: &PathConditions, env: &Env) -> Option<KeyDelta> {
        let Layout::Paths(paths) = &mut self.rules else {
            return None;
        };
        if self.stats.rules_truncated > 0 {
            return None;
        }
        let mut written: BTreeMap<&str, BTreeSet<&Value>> = BTreeMap::new();
        for change in env.changes_since(self.env_version)? {
            match change {
                Change::Key { global, key } => written.entry(global).or_default().insert(key),
                Change::Replaced { .. } => return None,
            };
        }
        // A conversion that stays under the cap never consults it.
        let len: usize = paths.iter().map(PathRules::len).sum();
        let mut room = MAX_RULES - len;
        if written.values().map(BTreeSet::len).sum::<usize>() >= room {
            return None;
        }
        let mut writes: Vec<KeyWrite> = Vec::new();
        let mut delta = KeyDelta::default();
        for ((p, path), kept) in pcs.modify_state_paths().enumerate().zip(paths.iter()) {
            let mut touched = written
                .iter()
                .filter(|(global, _)| path_reads(path, global));
            let Some((&global, keys)) = touched.next() else {
                continue;
            };
            let PathRules::Keyed {
                global: keyed_by,
                by_key,
                ..
            } = kept
            else {
                return None;
            };
            if touched.next().is_some()
                || keyed_by != global
                || by_key.len() + keys.len() > MAX_RULES
            {
                return None;
            }
            let keys: Vec<Value> = keys.iter().map(|&key| key.clone()).collect();
            let only = Only {
                global,
                keys: &keys,
            };
            let converted = convert_path(path, env, Some(only), &mut room);
            let PathRules::Keyed {
                by_key: mut outcomes,
                ..
            } = converted.rules
            else {
                return None;
            };
            debug_assert_eq!(converted.truncated, 0, "room was left for every key");
            for key in keys {
                // A key without an outcome no longer binds.
                let outcome = outcomes.remove(&key);
                let old = by_key.get(&key);
                if old == outcome.as_ref() {
                    continue;
                }
                delta.removed.extend(old.cloned().flatten());
                delta.added.extend(outcome.clone().flatten());
                writes.push((p, key, outcome));
            }
        }
        let held = self.held.get_or_insert_with(|| {
            let mut held = HashMap::with_capacity(len);
            for path in paths.iter() {
                path.for_each(|rule| *held.entry(hash_of(rule)).or_insert(0) += 1);
            }
            held
        });
        let mut added = HashSet::with_capacity(delta.added.len());
        if !delta
            .added
            .iter()
            .all(|rule| !held.contains_key(&hash_of(rule)) && added.insert(rule))
        {
            return None;
        }
        for rule in &delta.removed {
            let hash = hash_of(rule);
            let count = held.get_mut(&hash).expect("a rule held is counted");
            *count -= 1;
            if *count == 0 {
                held.remove(&hash);
            }
        }
        for rule in &delta.added {
            *held.entry(hash_of(rule)).or_insert(0) += 1;
        }
        for (p, key, outcome) in writes {
            paths[p].write(key, outcome);
        }
        self.env_version = env.version();
        self.stats = ConversionStats::of(pcs);
        for path in paths.iter() {
            self.stats.add_path(path.len(), path.rejected(), 0);
        }
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::generate_path_conditions;
    use crate::solve::convert_to_rules;
    use ofproto::types::MacAddr;
    use policy::builder::*;
    use policy::stmt::{ActionTemplate, Decision, MatchTemplate, RuleTemplate};
    use policy::Program;

    /// `if dl_dst is not broadcast and in m: install(dl_dst -> output)`.
    fn program(output: policy::Expr) -> Program {
        Program::new(
            "p",
            vec![],
            vec![if_then(
                and(
                    not(is_broadcast(field(Field::DlDst))),
                    map_contains(global("m"), field(Field::DlDst)),
                ),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                    vec![ActionTemplate::Output(output)],
                )))],
            )],
        )
    }

    fn mac(i: u64) -> Value {
        Value::Mac(MacAddr::from_u64(i))
    }

    fn learned(hosts: u64) -> Env {
        let mut env = Env::new();
        env.set("m", Value::Map(BTreeMap::new()));
        env.set("port", Value::Int(7));
        for i in 1..=hosts {
            env.learn("m", mac(i), Value::Int(i % 4 + 1));
        }
        env
    }

    #[test]
    fn written_keys_convert_to_what_a_full_conversion_gives() {
        let pcs = generate_path_conditions(&program(map_get(global("m"), field(Field::DlDst))));
        let mut env = learned(20);
        let mut kept = KeyedConversion::convert(&pcs, &env);
        assert_eq!(kept.len(), 20);
        // A new key, an overwritten one, and one that gets rejected.
        env.learn("m", mac(21), Value::Int(1));
        env.learn("m", mac(3), Value::Int(9));
        env.learn("m", Value::Mac(MacAddr::BROADCAST), Value::Int(2));
        env.learn("m", mac(3), Value::Int(8));
        let delta = kept
            .apply(&pcs, &env)
            .expect("only keys of `m` were written");
        assert_eq!((delta.removed.len(), delta.added.len()), (1, 2));
        assert_eq!(kept.env_version(), env.version());
        let full = convert_to_rules(&pcs, &env);
        assert_eq!(*kept.stats(), full.stats);
        assert_eq!(full.stats.candidates_rejected, 1, "the broadcast key");
        assert_eq!(kept.into_rules(), full.rules);
    }

    #[test]
    fn anything_else_is_left_to_a_full_conversion() {
        let pcs = generate_path_conditions(&program(global("port")));
        let mut env = learned(4);
        let mut kept = KeyedConversion::convert(&pcs, &env);
        // A scalar the template reads.
        env.set("port", Value::Int(8));
        assert_eq!(kept.apply(&pcs, &env), None);
        assert_eq!(kept.env_version(), env.version() - 1, "untouched");
        // The table replaced as a whole.
        let mut kept = KeyedConversion::convert(&pcs, &env);
        env.set("m", Value::Map(BTreeMap::from([(mac(1), Value::Int(1))])));
        assert_eq!(kept.apply(&pcs, &env), None);
        // More writes than the journal remembers.
        let mut kept = KeyedConversion::convert(&pcs, &env);
        for i in 0..1000 {
            env.learn("m", mac(100 + i), Value::Int(1));
        }
        assert_eq!(kept.apply(&pcs, &env), None);
        // A rule that would occur twice: every key yields the same one
        // when the match does not mention it.
        let same = Program::new(
            "same",
            vec![],
            vec![if_then(
                map_contains(global("m"), field(Field::DlDst)),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![],
                    vec![ActionTemplate::Flood],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&same);
        let mut env = learned(1);
        let mut kept = KeyedConversion::convert(&pcs, &env);
        env.learn("m", mac(2), Value::Int(1));
        assert_eq!(kept.apply(&pcs, &env), None);
        let mut kept = KeyedConversion::convert(&pcs, &env);
        assert_eq!(kept.len(), 1, "deduplicated");
        env.learn("m", mac(3), Value::Int(1));
        assert_eq!(kept.apply(&pcs, &env), None);
        // Two written keys that yield the same one, held or not.
        let mut env = learned(0);
        let mut kept = KeyedConversion::convert(&pcs, &env);
        env.learn("m", mac(1), Value::Int(1));
        env.learn("m", mac(2), Value::Int(1));
        assert_eq!(kept.apply(&pcs, &env), None);
    }
}
