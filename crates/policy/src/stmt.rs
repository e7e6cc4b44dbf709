//! Statements and handler decisions of the policy IR.

use std::fmt;

use crate::expr::{Expr, Field};

/// A match constraint in a rule template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MatchTemplate {
    /// `field` must equal the (possibly symbolic) expression's value.
    Exact(Field, Expr),
    /// `field` must fall within the /`prefix_len` network of the
    /// expression's value (only meaningful for IPv4 fields).
    Prefix(Field, Expr, u32),
}

/// An action in a rule template; expressions are evaluated when the rule is
/// instantiated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ActionTemplate {
    /// Output to the port number the expression evaluates to.
    Output(Expr),
    /// Flood out of all ports but the ingress.
    Flood,
    /// Rewrite the IPv4 destination.
    SetNwDst(Expr),
    /// Rewrite the IPv4 source.
    SetNwSrc(Expr),
    /// Rewrite the Ethernet destination.
    SetDlDst(Expr),
}

/// Template of a flow rule a handler installs — the "Modify State Message"
/// paths Algorithm 2 converts into proactive flow rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuleTemplate {
    /// Match constraints.
    pub match_on: Vec<MatchTemplate>,
    /// Actions; empty means drop.
    pub actions: Vec<ActionTemplate>,
    /// Rule priority.
    pub priority: u16,
    /// Idle timeout in seconds (0 disables).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 disables).
    pub hard_timeout: u16,
}

impl RuleTemplate {
    /// Creates a template with default priority and no timeouts.
    pub fn new(match_on: Vec<MatchTemplate>, actions: Vec<ActionTemplate>) -> RuleTemplate {
        RuleTemplate {
            match_on,
            actions,
            priority: ofproto::flow_mod::DEFAULT_PRIORITY,
            idle_timeout: 0,
            hard_timeout: 0,
        }
    }

    /// Sets the idle timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, seconds: u16) -> Self {
        self.idle_timeout = seconds;
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u16) -> Self {
        self.priority = priority;
        self
    }

    /// The expressions instantiating the template evaluates: matches, then
    /// actions.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let matches = self.match_on.iter().map(|m| match m {
            MatchTemplate::Exact(_, e) | MatchTemplate::Prefix(_, e, _) => e,
        });
        let actions = self.actions.iter().filter_map(|a| match a {
            ActionTemplate::Output(e)
            | ActionTemplate::SetNwDst(e)
            | ActionTemplate::SetNwSrc(e)
            | ActionTemplate::SetDlDst(e) => Some(e),
            ActionTemplate::Flood => None,
        });
        matches.chain(actions)
    }
}

/// The terminal decision of one handler path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Install a flow rule (and forward the triggering packet through it).
    ///
    /// This is the paper's "Modify State Message" — the only decision kind
    /// eligible to become a proactive flow rule.
    InstallRule(RuleTemplate),
    /// Send the packet out a specific port, without installing state.
    PacketOutPort(Expr),
    /// Flood the packet, without installing state.
    PacketOutFlood,
    /// Drop the packet.
    Drop,
}

impl Decision {
    /// Whether this decision installs flow-table state.
    pub fn is_modify_state(&self) -> bool {
        matches!(self, Decision::InstallRule(_))
    }
}

/// A statement in a handler body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Two-way branch.
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements when true.
        then: Vec<Stmt>,
        /// Statements when false.
        els: Vec<Stmt>,
    },
    /// `globals[map][key] = value` — the learning mutation
    /// (`macToPort[packet.src] = inport` in l2_learning).
    Learn {
        /// Name of the map-valued global.
        map: String,
        /// Key expression.
        key: Expr,
        /// Value expression.
        value: Expr,
    },
    /// `globals[name] = value`.
    SetGlobal {
        /// Global name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// Terminal decision: handling ends here.
    Emit(Decision),
}

impl Stmt {
    /// Number of AST nodes in this statement (static complexity measure).
    pub fn node_count(&self) -> u64 {
        match self {
            Stmt::If { cond, then, els } => {
                1 + cond.node_count()
                    + then.iter().map(Stmt::node_count).sum::<u64>()
                    + els.iter().map(Stmt::node_count).sum::<u64>()
            }
            Stmt::Learn { key, value, .. } => 1 + key.node_count() + value.node_count(),
            Stmt::SetGlobal { value, .. } => 1 + value.node_count(),
            Stmt::Emit(decision) => {
                1 + match decision {
                    Decision::InstallRule(rule) => {
                        rule.match_on
                            .iter()
                            .map(|m| match m {
                                MatchTemplate::Exact(_, e) | MatchTemplate::Prefix(_, e, _) => {
                                    e.node_count()
                                }
                            })
                            .sum::<u64>()
                            + rule
                                .actions
                                .iter()
                                .map(|a| match a {
                                    ActionTemplate::Output(e)
                                    | ActionTemplate::SetNwDst(e)
                                    | ActionTemplate::SetNwSrc(e)
                                    | ActionTemplate::SetDlDst(e) => e.node_count(),
                                    ActionTemplate::Flood => 1,
                                })
                                .sum::<u64>()
                    }
                    Decision::PacketOutPort(e) => e.node_count(),
                    Decision::PacketOutFlood | Decision::Drop => 0,
                }
            }
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::InstallRule(rule) => {
                write!(
                    f,
                    "install_rule(pri={}, {} matches, {} actions)",
                    rule.priority,
                    rule.match_on.len(),
                    rule.actions.len()
                )
            }
            Decision::PacketOutPort(e) => write!(f, "packet_out({e})"),
            Decision::PacketOutFlood => f.write_str("packet_out(flood)"),
            Decision::Drop => f.write_str("drop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn decision_modify_state_classification() {
        assert!(Decision::InstallRule(RuleTemplate::new(vec![], vec![])).is_modify_state());
        assert!(!Decision::PacketOutFlood.is_modify_state());
        assert!(!Decision::Drop.is_modify_state());
        assert!(!Decision::PacketOutPort(constant(1u64)).is_modify_state());
    }

    #[test]
    fn rule_template_builders() {
        let rt = RuleTemplate::new(vec![], vec![ActionTemplate::Flood])
            .with_idle_timeout(10)
            .with_priority(7);
        assert_eq!(rt.idle_timeout, 10);
        assert_eq!(rt.priority, 7);
    }

    #[test]
    fn node_count_counts_nested() {
        let s = Stmt::If {
            cond: is_broadcast(field(Field::DlDst)),
            then: vec![Stmt::Emit(Decision::PacketOutFlood)],
            els: vec![Stmt::Emit(Decision::Drop)],
        };
        assert!(s.node_count() >= 5);
    }
}
