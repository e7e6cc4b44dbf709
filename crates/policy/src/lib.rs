//! # policy — an interpretable IR for OpenFlow controller applications
//!
//! FloodGuard's proactive flow rule analyzer must *symbolically execute*
//! each application's `packet_in` handler (paper §IV-B). The paper does this
//! on POX's Python handlers with a modified NICE engine; here, applications
//! are written once in this small IR and used twice:
//!
//! * the reactive controller platform executes them **concretely** per
//!   `packet_in` ([`interp::execute`]), and
//! * the `symexec` crate executes them **symbolically** to collect path
//!   conditions (Algorithm 1) and convert them into proactive flow rules at
//!   runtime (Algorithm 2).
//!
//! Programs read packet [`expr::Field`]s and global variables (the paper's
//! *state-sensitive variables*) held in a versioned [`env::Env`].
//!
//! ## Example
//!
//! ```
//! use policy::builder::*;
//! use policy::interp::{execute, ConcreteDecision};
//! use policy::program::Program;
//! use ofproto::flow_match::FlowKeys;
//!
//! // A hub: flood everything.
//! let hub = Program::new("hub", vec![], vec![emit(Decision::PacketOutFlood)]);
//! let mut env = hub.initial_env();
//! let result = execute(&hub, &FlowKeys::default(), &mut env)?;
//! assert_eq!(result.decision, ConcreteDecision::PacketOutFlood);
//! # Ok::<(), policy::expr::EvalError>(())
//! ```

#![warn(missing_docs)]

mod aging;
pub mod builder;
pub mod convert;
pub mod env;
pub mod expr;
mod index;
pub mod interp;
pub mod program;
pub mod stmt;
pub mod value;

pub use convert::ProactiveRule;
pub use env::{Change, Env, Lifetime};
pub use expr::{EvalError, Expr, Field};
pub use interp::{execute, execute_at, ConcreteDecision, ExecResult, Provenance};
pub use program::{GlobalSpec, Program};
pub use stmt::{ActionTemplate, Decision, MatchTemplate, RuleTemplate, Stmt};
pub use value::Value;
