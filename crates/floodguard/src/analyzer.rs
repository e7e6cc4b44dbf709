//! The proactive flow rule analyzer (paper §IV-B, Fig. 4): symbolic
//! execution engine (offline), application tracker and proactive flow rule
//! dispatcher (runtime).
//!
//! Production-scale pipeline: Algorithm 1 results are shared through the
//! process-wide [`symexec::memo`] (a thousand copies of a template app run
//! symbolic execution once), and each application's Algorithm 2 result is
//! kept as a [`KeyedConversion`]. When an application's globals move, that
//! converts the table keys written since and nothing else, where it can
//! prove that this is all a full conversion would change; everything else
//! (a replaced global, a forgotten journal, a path that reads the table
//! some other way) converts the application in full. Either way the rules,
//! their order and the statistics are those of a cold conversion of the
//! same state. Conversions run on the caller's thread, in app order: the
//! analyzer starts no thread and reads no environment variable.
//!
//! [`Analyzer::update`] turns the same bookkeeping into the flow-mods for
//! the switch without building the whole rule set: what one round costs is
//! set by what changed since the last, not by how much the applications
//! have learned — which, under a spoofing flood, the attacker decides. Nor
//! has it a fixed part worth the name: a round in which nothing changed
//! does not allocate (`tests/tests/interp_alloc.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use controller::platform::App;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use policy::ProactiveRule;
use symexec::compress::{compress, CompressionConfig, CompressionStats};
use symexec::{
    generate_path_conditions_cached, handler_hash, ConversionStats, KeyDelta, KeyedConversion,
    PathConditions,
};

use crate::config::UpdateStrategy;

/// How one application's conversion moved in a refresh.
#[derive(Debug)]
enum Moved {
    /// Key by key.
    Keys(KeyDelta),
    /// Converted in full; the conversion it replaced, if there was one.
    Whole(Option<KeyedConversion>),
}

/// The rule set the switches hold, as far as the analyzer knows.
#[derive(Debug)]
enum Installed {
    /// Exactly what the per-application conversions hold.
    Tracked {
        /// How many times each rule occurs across them.
        count: HashMap<ProactiveRule, u32>,
        /// All of them in registration order, once asked for.
        flat: OnceLock<Vec<ProactiveRule>>,
    },
    /// A set of its own: handed to [`Analyzer::dispatch`], or emptied.
    Detached(Vec<ProactiveRule>),
}

/// Conversion-cache counters (per-app Algorithm 2 results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// App conversions served from cache across the analyzer's lifetime.
    pub hits: u64,
    /// App conversions that re-ran Algorithm 2 across the lifetime, for
    /// every key or for the written ones.
    pub misses: u64,
    /// Cache hits in the most recent [`Analyzer::convert`] call.
    pub last_hits: u64,
    /// Cache misses in the most recent [`Analyzer::convert`] call.
    pub last_misses: u64,
}

impl CacheStats {
    /// Fraction of lifetime app conversions served from cache (0 when no
    /// conversion has run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The analyzer: holds each application's offline path conditions, tracks
/// the live values of their state-sensitive variables, and dispatches
/// proactive flow rules.
///
/// Applications are known by their position in the slice handed to
/// [`Analyzer::offline`]; every later call takes the same applications in
/// the same order.
#[derive(Debug)]
pub struct Analyzer {
    path_conditions: Vec<Arc<PathConditions>>,
    app_hashes: Vec<u64>,
    /// Each application's conversion. Written by [`Analyzer::refresh`] and
    /// [`Analyzer::invalidate`] only, which see to `installed`.
    states: Vec<Option<KeyedConversion>>,
    last_versions: Vec<Option<u64>>,
    installed: Installed,
    /// Where each `(match, priority)` of [`Analyzer::installed`] first
    /// occurs, once asked for; emptied with every change of `installed`.
    by_key: OnceLock<HashMap<(OfMatch, u16), Option<usize>>>,
    pending_changes: u64,
    last_update_at: f64,
    cache_stats: CacheStats,
    compression: Option<CompressionConfig>,
    truncation_warned: Vec<bool>,
    /// Cumulative conversion statistics from the last convert (summed over
    /// every app, cached or not).
    pub last_stats: ConversionStats,
    /// Statistics of the last compression pass, when compression is on.
    pub last_compression: Option<CompressionStats>,
    /// Rule count of the last convert before compression.
    pub last_rules_raw: usize,
    /// Number of conversions run.
    pub conversions: u64,
    /// Stale applications brought up to date by converting only the keys
    /// written since (each also one [`CacheStats`] miss). For tests.
    #[doc(hidden)]
    pub key_refreshes: u64,
}

/// The flow-mod batch a dispatch produces.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RuleUpdate {
    /// Rules to install.
    pub to_add: Vec<FlowMod>,
    /// Rules to remove (strict deletes).
    pub to_remove: Vec<FlowMod>,
}

impl RuleUpdate {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.to_add.is_empty() && self.to_remove.is_empty()
    }

    /// Total flow-mods in the update.
    pub fn len(&self) -> usize {
        self.to_add.len() + self.to_remove.len()
    }
}

impl Analyzer {
    /// Runs the offline phase (Algorithm 1) over every registered
    /// application.
    ///
    /// The paper runs this "in advance" — it is the expensive part (symbolic
    /// execution) and adds no runtime overhead. Results are shared through
    /// the process-wide Algorithm 1 memo, so duplicate handlers (a fleet
    /// instantiated from a few templates) are analyzed once.
    pub fn offline(apps: &[App]) -> Analyzer {
        Analyzer {
            path_conditions: apps
                .iter()
                .map(|app| generate_path_conditions_cached(&app.program))
                .collect(),
            app_hashes: apps.iter().map(|app| handler_hash(&app.program)).collect(),
            states: apps.iter().map(|_| None).collect(),
            last_versions: vec![None; apps.len()],
            installed: Installed::Detached(Vec::new()),
            by_key: OnceLock::new(),
            pending_changes: 0,
            last_update_at: f64::NEG_INFINITY,
            cache_stats: CacheStats::default(),
            compression: None,
            truncation_warned: vec![false; apps.len()],
            last_stats: ConversionStats::default(),
            last_compression: None,
            last_rules_raw: 0,
            conversions: 0,
            key_refreshes: 0,
        }
    }

    /// The per-application path conditions.
    pub fn path_conditions(&self) -> &[Arc<PathConditions>] {
        &self.path_conditions
    }

    /// Enables (`Some`) or disables (`None`) rule compression on the
    /// converted rule set.
    pub fn set_compression(&mut self, config: Option<CompressionConfig>) {
        self.compression = config;
    }

    /// The active compression configuration, if any.
    pub fn compression(&self) -> Option<&CompressionConfig> {
        self.compression.as_ref()
    }

    /// Conversion-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Drops every cached per-app conversion (cold-start benchmarking; the
    /// next convert re-runs Algorithm 2 for all apps). Lifetime hit/miss
    /// counters are kept.
    pub fn clear_conversion_cache(&mut self) {
        self.invalidate(0..self.states.len());
    }

    /// Application tracker: returns `true` when any app's globals changed
    /// since the last call (its env version moved).
    pub fn detect_changes(&mut self, apps: &[App]) -> bool {
        let mut changed = false;
        for (app, seen) in apps.iter().zip(&mut self.last_versions) {
            let version = Some(app.env.version());
            if *seen != version {
                // The first observation is the baseline, not a change.
                changed |= seen.is_some();
                *seen = version;
            }
        }
        if changed {
            self.pending_changes += 1;
        }
        changed
    }

    /// Whether the update strategy says to regenerate now.
    ///
    /// Call after [`Analyzer::detect_changes`]; `changed` is its result.
    pub fn should_update(&self, changed: bool, strategy: UpdateStrategy, now: f64) -> bool {
        match strategy {
            UpdateStrategy::EveryChange => changed,
            UpdateStrategy::Batched(n) => self.pending_changes >= n,
            UpdateStrategy::Interval(secs) => {
                self.pending_changes > 0 && now - self.last_update_at >= secs
            }
        }
    }

    /// Re-hashes every app's handler and refreshes the path conditions and
    /// conversion cache of those whose body changed.
    ///
    /// Handlers are registered once and treated as immutable by
    /// [`Analyzer::convert`] (re-hashing a thousand ASTs on every convert
    /// would dwarf the incremental win); call this after editing a
    /// registered program in place.
    pub fn refresh_handlers(&mut self, apps: &[App]) {
        debug_assert_eq!(self.app_hashes.len(), apps.len());
        let mut edited = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            let hash = handler_hash(&app.program);
            if hash != self.app_hashes[i] {
                self.path_conditions[i] = generate_path_conditions_cached(&app.program);
                self.app_hashes[i] = hash;
                edited.push(i);
            }
        }
        if !edited.is_empty() {
            self.invalidate(edited);
        }
    }

    /// Forgets the conversions of `which` applications. The installed set
    /// is what it was, so from here on it is one of its own.
    fn invalidate(&mut self, which: impl IntoIterator<Item = usize>) {
        self.detach_installed();
        for i in which {
            self.states[i] = None;
        }
    }

    /// Brings every application's conversion up to its current globals.
    ///
    /// With a cookie to `follow` with — while the installed set is what
    /// the conversions hold ([`Installed::Tracked`]) — it stays that, and
    /// what is returned is what [`Analyzer::dispatch`] would make of the
    /// move: deletes for the rules no application yields any more, in the
    /// order they were converted, and adds for the rules none yielded
    /// before. Without, the installed set stays what it was and becomes
    /// one of its own.
    fn refresh(&mut self, apps: &[App], follow: Option<u64>) -> RuleUpdate {
        debug_assert_eq!(self.path_conditions.len(), apps.len());
        if follow.is_none() {
            self.detach_installed();
        }
        let stale: Vec<usize> = (0..apps.len())
            .filter(|&i| {
                self.states[i]
                    .as_ref()
                    .map_or(true, |state| state.env_version() != apps[i].env.version())
            })
            .collect();
        self.cache_stats.last_hits = (apps.len() - stale.len()) as u64;
        self.cache_stats.last_misses = stale.len() as u64;
        self.cache_stats.hits += self.cache_stats.last_hits;
        self.cache_stats.misses += self.cache_stats.last_misses;

        // In app order, which is the order `settle` merges in.
        let mut moved: Vec<(usize, Moved)> = Vec::with_capacity(stale.len());
        for i in stale {
            let delta = self.states[i]
                .as_mut()
                .and_then(|state| state.apply(&self.path_conditions[i], &apps[i].env));
            moved.push(match delta {
                Some(delta) => {
                    self.key_refreshes += 1;
                    (i, Moved::Keys(delta))
                }
                None => {
                    let state = KeyedConversion::convert(&self.path_conditions[i], &apps[i].env);
                    (i, Moved::Whole(self.states[i].replace(state)))
                }
            });
        }

        let update = match (&mut self.installed, follow) {
            (Installed::Tracked { count, flat }, Some(cookie)) if !moved.is_empty() => {
                // A flattened copy of the conversions is no longer one.
                flat.take();
                self.by_key.take();
                settle(count, &self.states, moved, cookie)
            }
            _ => RuleUpdate::default(),
        };

        // Aggregate stats over every app (cached or re-solved) so
        // `last_stats` always describes the whole rule set.
        let mut stats = ConversionStats::default();
        let mut total = 0;
        for (i, app) in apps.iter().enumerate() {
            // The conversions reflect this exact env: baseline the tracker
            // here so later mutations are seen as changes.
            self.last_versions[i] = Some(app.env.version());
            let state = self.states[i].as_ref().expect("every app converted above");
            stats.merge(state.stats());
            total += state.len();
            if state.stats().truncated() && !std::mem::replace(&mut self.truncation_warned[i], true)
            {
                eprintln!(
                    "floodguard analyzer: app `{}`: conversion truncated \
                     (paths_truncated={}, rules_truncated={}); proactive rules incomplete",
                    app.program.name,
                    state.stats().paths_truncated,
                    state.stats().rules_truncated,
                );
            }
        }
        self.last_stats = stats;
        self.last_rules_raw = total;
        self.conversions += 1;
        update
    }

    /// Every application's rules in registration order.
    fn flatten(&self) -> Vec<ProactiveRule> {
        let mut rules = Vec::with_capacity(self.last_rules_raw);
        for state in self.states.iter().flatten() {
            state.for_each_rule(|rule| rules.push(rule.clone()));
        }
        rules
    }

    /// Takes the installed set, leaving none.
    fn take_installed(&mut self) -> Vec<ProactiveRule> {
        self.by_key.take();
        match std::mem::replace(&mut self.installed, Installed::Detached(Vec::new())) {
            Installed::Tracked { flat, .. } => flat.into_inner().unwrap_or_else(|| self.flatten()),
            Installed::Detached(rules) => rules,
        }
    }

    /// Gives the installed set a copy of its own before the conversions it
    /// mirrors move without it.
    fn detach_installed(&mut self) {
        self.installed = Installed::Detached(self.take_installed());
    }

    /// Runs Algorithm 2 over every application with its current globals,
    /// producing the full proactive rule set.
    ///
    /// Incremental: an app whose env version matches its cached conversion
    /// is served from cache; a stale one has its written keys or all of
    /// itself re-solved. The returned vector is in registration order.
    /// With compression enabled the merged set is compressed before being
    /// returned. Handler bodies are assumed fixed since
    /// [`Analyzer::offline`] (or the last [`Analyzer::refresh_handlers`]);
    /// only env versions are re-checked.
    pub fn convert(&mut self, apps: &[App]) -> Vec<ProactiveRule> {
        self.refresh(apps, None);
        let rules = self.flatten();
        match &self.compression {
            Some(config) => {
                let (compressed, cstats) = compress(&rules, config);
                self.last_compression = Some(cstats);
                compressed
            }
            None => {
                self.last_compression = None;
                rules
            }
        }
    }

    /// Dispatcher: diffs `new_rules` against the installed set and returns
    /// the flow-mods realizing the difference, stamping them with `cookie`.
    ///
    /// §IV-D: "The variation should be quite simple as adding or removing a
    /// few matching rules." The diff is hash-set membership on whole rules,
    /// emitting removals in installed order and additions in `new_rules`
    /// order.
    pub fn dispatch(&mut self, new_rules: Vec<ProactiveRule>, cookie: u64, now: f64) -> RuleUpdate {
        let installed = self.take_installed();
        let mut update = RuleUpdate::default();
        let new_set: HashSet<&ProactiveRule> = new_rules.iter().collect();
        let old_set: HashSet<&ProactiveRule> = installed.iter().collect();
        for rule in &installed {
            if !new_set.contains(rule) {
                update
                    .to_remove
                    .push(FlowMod::delete_strict(rule.of_match, rule.priority));
            }
        }
        for rule in &new_rules {
            if !old_set.contains(rule) {
                update.to_add.push(rule.to_flow_mod().with_cookie(cookie));
            }
        }
        self.installed = Installed::Detached(new_rules);
        self.pending_changes = 0;
        self.last_update_at = now;
        update
    }

    /// One rule-update round: converts what changed and returns the
    /// flow-mods that bring the switches from the installed set to the
    /// current one — `dispatch(convert(apps), cookie, now)`, flow-mod for
    /// flow-mod.
    ///
    /// While the installed set is the one the last round left (nothing but
    /// `update` touched the analyzer since) and compression is off, the
    /// round neither builds nor hashes the rule set: its cost is that of
    /// the keys written since, or of the applications that need converting
    /// in full.
    pub fn update(&mut self, apps: &[App], cookie: u64, now: f64) -> RuleUpdate {
        if self.compression.is_none() && matches!(self.installed, Installed::Tracked { .. }) {
            let update = self.refresh(apps, Some(cookie));
            self.pending_changes = 0;
            self.last_update_at = now;
            return update;
        }
        let rules = self.convert(apps);
        let update = self.dispatch(rules, cookie, now);
        if self.compression.is_none() {
            // What was just installed is what the conversions hold; the
            // rounds to come follow them.
            let mut count = HashMap::with_capacity(self.last_rules_raw);
            for state in self.states.iter().flatten() {
                state.for_each_rule(|rule| *count.entry(rule.clone()).or_insert(0) += 1);
            }
            self.installed = Installed::Tracked {
                count,
                flat: OnceLock::from(self.take_installed()),
            };
        }
        update
    }

    /// The currently installed proactive rules.
    pub fn installed(&self) -> &[ProactiveRule] {
        match &self.installed {
            Installed::Tracked { flat, .. } => flat.get_or_init(|| self.flatten()),
            Installed::Detached(rules) => rules,
        }
    }

    /// The index of [`Analyzer::installed`] by `(match, priority)`: where
    /// each key's first rule sits, or `None` when the rules of that key
    /// disagree on their actions. Built once per installed set, when first
    /// asked for.
    pub(crate) fn installed_by_key(&self) -> &HashMap<(OfMatch, u16), Option<usize>> {
        self.by_key.get_or_init(|| {
            let rules = self.installed();
            let mut index = HashMap::with_capacity(rules.len());
            for (at, rule) in rules.iter().enumerate() {
                index
                    .entry((rule.of_match, rule.priority))
                    .and_modify(|first: &mut Option<usize>| {
                        if first.is_some_and(|f| rules[f].actions != rule.actions) {
                            *first = None;
                        }
                    })
                    .or_insert(Some(at));
            }
            index
        })
    }

    /// Forgets the installed set (rules may have aged out of the switch
    /// since the last defense round); the next dispatch re-adds everything.
    pub fn reset_installed(&mut self) {
        self.by_key.take();
        self.installed = Installed::Detached(Vec::new());
    }
}

/// Brings `count` in line with the conversions that `moved` and returns
/// the flow-mods of the move. What came is judged against the count as it
/// was — a rule is new to the switch when nothing it holds equals it — and
/// what went against the count as it will be.
fn settle(
    count: &mut HashMap<ProactiveRule, u32>,
    states: &[Option<KeyedConversion>],
    moved: Vec<(usize, Moved)>,
    cookie: u64,
) -> RuleUpdate {
    let state = |i: usize| states[i].as_ref().expect("converted in this refresh");
    let mut update = RuleUpdate::default();
    let mut announce = |rule: &ProactiveRule| {
        if !count.contains_key(rule) {
            update.to_add.push(rule.to_flow_mod().with_cookie(cookie));
        }
    };
    for (i, moved) in &moved {
        match moved {
            Moved::Keys(delta) => delta.added.iter().for_each(&mut announce),
            Moved::Whole(_) => state(*i).for_each_rule(&mut announce),
        }
    }
    let mut went: Vec<ProactiveRule> = Vec::new();
    for (i, moved) in moved {
        let gone = match moved {
            Moved::Keys(delta) => {
                for rule in delta.added {
                    *count.entry(rule).or_insert(0) += 1;
                }
                delta.removed
            }
            Moved::Whole(old) => {
                state(i).for_each_rule(|rule| match count.get_mut(rule) {
                    Some(n) => *n += 1,
                    None => {
                        count.insert(rule.clone(), 1);
                    }
                });
                old.map_or_else(Vec::new, KeyedConversion::into_rules)
            }
        };
        for rule in &gone {
            let n = count
                .get_mut(rule)
                .expect("a rule a conversion held is counted");
            *n -= 1;
            if *n == 0 {
                count.remove(rule);
            }
        }
        went.extend(gone);
    }
    update.to_remove.extend(
        went.iter()
            .filter(|rule| !count.contains_key(rule))
            .map(|rule| FlowMod::delete_strict(rule.of_match, rule.priority)),
    );
    update
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::apps;
    use ofproto::types::MacAddr;

    fn l2_app() -> App {
        App::new(apps::l2_learning::program())
    }

    #[test]
    fn offline_builds_path_conditions_per_app() {
        let apps = vec![l2_app(), App::new(apps::hub::program())];
        let analyzer = Analyzer::offline(&apps);
        assert_eq!(analyzer.path_conditions().len(), 2);
        assert_eq!(analyzer.path_conditions()[0].app, "l2_learning");
        assert_eq!(analyzer.path_conditions()[0].paths.len(), 3);
    }

    #[test]
    fn tracker_sees_learning() {
        let mut app = l2_app();
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        // First observation establishes the baseline.
        assert!(!analyzer.detect_changes(std::slice::from_ref(&app)));
        assert!(!analyzer.detect_changes(std::slice::from_ref(&app)));
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 1);
        assert!(analyzer.detect_changes(std::slice::from_ref(&app)));
        assert!(
            !analyzer.detect_changes(std::slice::from_ref(&app)),
            "no further change"
        );
    }

    #[test]
    fn convert_and_dispatch_adds_then_diffs() {
        let mut app = l2_app();
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 1);
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        let rules = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(rules.len(), 1);
        let update = analyzer.dispatch(rules, 0xc0de, 0.0);
        assert_eq!(update.to_add.len(), 1);
        assert!(update.to_remove.is_empty());
        assert_eq!(update.to_add[0].cookie, 0xc0de);
        // Learn another host: the diff adds exactly one rule.
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xb), 2);
        let rules = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(rules.len(), 2);
        let update = analyzer.dispatch(rules, 0xc0de, 1.0);
        assert_eq!(update.to_add.len(), 1);
        assert!(update.to_remove.is_empty());
        assert_eq!(analyzer.installed().len(), 2);
    }

    #[test]
    fn dispatch_removes_stale_rules() {
        // The §IV-D ip_balancer scenario: swapping replicas changes rules.
        let mut app = App::new(apps::ip_balancer::program());
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        let rules = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(rules.len(), 2, "one rule per source half");
        analyzer.dispatch(rules, 1, 0.0);
        apps::ip_balancer::configure(
            &mut app.env,
            apps::ip_balancer::DEFAULT_VIP,
            (apps::ip_balancer::DEFAULT_REPLICA_B, 2),
            (apps::ip_balancer::DEFAULT_REPLICA_A, 1),
        );
        let rules = analyzer.convert(std::slice::from_ref(&app));
        let update = analyzer.dispatch(rules, 1, 1.0);
        assert_eq!(update.to_add.len(), 2, "both halves re-targeted");
        assert_eq!(update.to_remove.len(), 2);
    }

    #[test]
    fn unchanged_state_is_empty_diff() {
        let mut app = l2_app();
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 1);
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        let rules = analyzer.convert(std::slice::from_ref(&app));
        analyzer.dispatch(rules, 1, 0.0);
        let rules = analyzer.convert(std::slice::from_ref(&app));
        let update = analyzer.dispatch(rules, 1, 1.0);
        assert!(update.is_empty());
        assert_eq!(update.len(), 0);
    }

    #[test]
    fn update_sends_what_changed_since_the_last() {
        let mut app = l2_app();
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 1);
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        let first = analyzer.update(std::slice::from_ref(&app), 0xc0de, 0.0);
        assert_eq!((first.to_add.len(), first.to_remove.len()), (1, 0));
        assert_eq!(first.to_add[0].cookie, 0xc0de);
        // A new host and a moved one: one rule each way for the latter.
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xb), 2);
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 3);
        let second = analyzer.update(std::slice::from_ref(&app), 0xc0de, 1.0);
        assert_eq!((second.to_add.len(), second.to_remove.len()), (2, 1));
        assert_eq!(analyzer.key_refreshes, 1);
        assert_eq!(analyzer.installed().len(), 2);
        assert!(analyzer
            .update(std::slice::from_ref(&app), 0xc0de, 2.0)
            .is_empty());
    }

    #[test]
    fn installed_set_stays_put_while_conversions_move_without_it() {
        let learn = apps::l2_learning::learn_host;
        let mut app = l2_app();
        learn(&mut app.env, MacAddr::from_u64(0xa), 1);
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        analyzer.update(std::slice::from_ref(&app), 1, 0.0);
        // A `convert` in between sees the new host; the switch has not.
        learn(&mut app.env, MacAddr::from_u64(0xb), 2);
        assert_eq!(analyzer.convert(std::slice::from_ref(&app)).len(), 2);
        let update = analyzer.update(std::slice::from_ref(&app), 1, 1.0);
        assert_eq!((update.to_add.len(), update.to_remove.len()), (1, 0));
        // Dropping the conversions drops nothing from the switch either:
        // the next round has nothing to send, the one after a move to.
        analyzer.clear_conversion_cache();
        assert!(analyzer
            .update(std::slice::from_ref(&app), 1, 2.0)
            .is_empty());
        learn(&mut app.env, MacAddr::from_u64(0xa), 3);
        let update = analyzer.update(std::slice::from_ref(&app), 1, 3.0);
        assert_eq!((update.to_add.len(), update.to_remove.len()), (1, 1));
        assert_eq!(analyzer.installed().len(), 2);
    }

    #[test]
    fn more_demotions_than_the_journal_holds_update_like_a_cold_round() {
        let learn = apps::l2_learning::learn_host;
        let mut app = l2_app();
        learn(&mut app.env, MacAddr::from_u64(0xa), 1);
        app.env.advance(1.0);
        for i in 0..300 {
            learn(&mut app.env, MacAddr::from_u64(0x1000 + i), 2);
        }
        let apps = std::slice::from_ref(&app);
        let mut analyzer = Analyzer::offline(apps);
        assert_eq!(analyzer.update(apps, 1, 1.0).to_add.len(), 301);
        let before = analyzer.installed().to_vec();
        let v = app.env.version();
        assert_eq!(app.env.demote_since(1.0), 300);
        assert!(app.env.changes_since(v).is_none(), "the journal forgot");
        let apps = std::slice::from_ref(&app);
        let update = analyzer.update(apps, 1, 2.0);
        assert_eq!(analyzer.key_refreshes, 0, "converted in full");
        // What a cold analyzer that had installed the same rules sends.
        let mut cold = Analyzer::offline(apps);
        cold.dispatch(before, 1, 1.0);
        let rules = cold.convert(apps);
        assert_eq!(update, cold.dispatch(rules, 1, 2.0));
        assert_eq!((update.to_add.len(), update.to_remove.len()), (0, 300));
        assert_eq!(analyzer.installed(), cold.installed());
        assert_eq!(analyzer.installed().len(), 1);
    }

    #[test]
    fn update_strategies() {
        let app = l2_app();
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        analyzer.pending_changes = 1;
        assert!(analyzer.should_update(true, UpdateStrategy::EveryChange, 0.0));
        assert!(!analyzer.should_update(false, UpdateStrategy::EveryChange, 0.0));
        assert!(!analyzer.should_update(true, UpdateStrategy::Batched(3), 0.0));
        analyzer.pending_changes = 3;
        assert!(analyzer.should_update(true, UpdateStrategy::Batched(3), 0.0));
        analyzer.last_update_at = 0.0;
        assert!(!analyzer.should_update(true, UpdateStrategy::Interval(1.0), 0.5));
        assert!(analyzer.should_update(true, UpdateStrategy::Interval(1.0), 1.5));
    }

    #[test]
    fn conversion_cache_serves_unchanged_apps() {
        let mut app = l2_app();
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xa), 1);
        let mut analyzer = Analyzer::offline(std::slice::from_ref(&app));
        let first = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(analyzer.cache_stats().last_misses, 1);
        // Unchanged state: served entirely from cache, identical output.
        let second = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(analyzer.cache_stats().last_hits, 1);
        assert_eq!(analyzer.cache_stats().last_misses, 0);
        assert_eq!(first, second);
        // A state change invalidates exactly this app.
        apps::l2_learning::learn_host(&mut app.env, MacAddr::from_u64(0xb), 2);
        let third = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(analyzer.cache_stats().last_misses, 1);
        assert_eq!(third.len(), 2);
        // Clearing the cache forces a cold re-convert with the same output.
        analyzer.clear_conversion_cache();
        let cold = analyzer.convert(std::slice::from_ref(&app));
        assert_eq!(analyzer.cache_stats().last_misses, 1);
        assert_eq!(cold, third);
        assert!(analyzer.cache_stats().hit_rate() > 0.0);
    }

    #[test]
    fn compression_shrinks_duplicate_rules() {
        // Two identical apps produce duplicate rules; compression dedups
        // them while plain convert keeps both.
        let mut a = l2_app();
        apps::l2_learning::learn_host(&mut a.env, MacAddr::from_u64(0xa), 1);
        let b = a.clone();
        let apps_vec = vec![a, b];
        let mut analyzer = Analyzer::offline(&apps_vec);
        let raw = analyzer.convert(&apps_vec);
        assert_eq!(raw.len(), 2);
        assert!(analyzer.last_compression.is_none());
        analyzer.set_compression(Some(CompressionConfig::default()));
        analyzer.clear_conversion_cache();
        let compressed = analyzer.convert(&apps_vec);
        assert_eq!(compressed.len(), 1);
        assert_eq!(analyzer.last_rules_raw, 2);
        let stats = analyzer.last_compression.expect("compression ran");
        assert_eq!(stats.rules_in, 2);
        assert_eq!(stats.rules_out, 1);
        assert_eq!(stats.duplicates_removed, 1);
    }
}
