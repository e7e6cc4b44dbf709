//! A complete `packet_in` handler program plus its metadata: declared
//! globals, which of them are state-sensitive, and descriptions (the paper's
//! Table III).

use crate::env::{Env, Lifetime};
use crate::stmt::Stmt;
use crate::value::Value;

/// Declaration of one global variable.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct GlobalSpec {
    /// Variable name.
    pub name: String,
    /// Initial value.
    pub initial: Value,
    /// Whether the variable changes with network state (paper §II-C); all
    /// state-sensitive variables are globals, and these are the ones the
    /// application tracker watches.
    pub state_sensitive: bool,
    /// Human description (Table III content).
    pub description: String,
    /// How long learned entries live and how many the map holds: declared
    /// by every map the handler writes with [`Stmt::Learn`], none for a
    /// table only the administrator seeds.
    pub lifetime: Option<Lifetime>,
}

/// A `packet_in` handler program.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Program {
    /// Application name (e.g. `l2_learning`).
    pub name: String,
    /// Declared globals.
    pub globals: Vec<GlobalSpec>,
    /// Handler body; execution stops at the first `Emit`.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Creates a program.
    pub fn new(name: &str, globals: Vec<GlobalSpec>, body: Vec<Stmt>) -> Program {
        Program {
            name: name.to_owned(),
            globals,
            body,
        }
    }

    /// Builds the initial environment from the declared globals.
    pub fn initial_env(&self) -> Env {
        let mut env = Env::new();
        for g in &self.globals {
            env.set(&g.name, g.initial.clone());
            if let Some(lifetime) = g.lifetime {
                env.declare_lifetime(&g.name, lifetime);
            }
        }
        env
    }

    /// Names of the state-sensitive globals.
    pub fn state_sensitive_vars(&self) -> Vec<&str> {
        self.globals
            .iter()
            .filter(|g| g.state_sensitive)
            .map(|g| g.name.as_str())
            .collect()
    }

    /// Names of the maps the handler writes with [`Stmt::Learn`], in order
    /// of first appearance.
    pub fn learned_maps(&self) -> Vec<&str> {
        fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a str>) {
            for stmt in stmts {
                match stmt {
                    Stmt::Learn { map, .. } if !out.contains(&map.as_str()) => out.push(map),
                    Stmt::If { then, els, .. } => {
                        walk(then, out);
                        walk(els, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Static complexity: total AST nodes in the handler body.
    pub fn node_count(&self) -> u64 {
        self.body.iter().map(Stmt::node_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Decision;

    fn sample() -> Program {
        Program::new(
            "sample",
            vec![
                GlobalSpec {
                    name: "macToPort".into(),
                    initial: Value::Map(Default::default()),
                    state_sensitive: true,
                    description: "MAC to port mapping table".into(),
                    lifetime: None,
                },
                GlobalSpec {
                    name: "mode".into(),
                    initial: Value::Int(0),
                    state_sensitive: false,
                    description: "static config".into(),
                    lifetime: None,
                },
            ],
            vec![Stmt::Emit(Decision::PacketOutFlood)],
        )
    }

    #[test]
    fn initial_env_has_declared_globals() {
        let p = sample();
        let env = p.initial_env();
        assert_eq!(env.len(), 2);
        assert_eq!(env.get("mode"), Some(&Value::Int(0)));
    }

    #[test]
    fn state_sensitive_filtering() {
        let p = sample();
        assert_eq!(p.state_sensitive_vars(), vec!["macToPort"]);
    }

    #[test]
    fn node_count_nonzero() {
        assert!(sample().node_count() >= 1);
    }
}
