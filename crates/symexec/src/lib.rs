//! # symexec — symbolic execution and proactive-flow-rule conversion
//!
//! Implements FloodGuard's proactive flow rule analyzer core (paper §IV-B):
//!
//! * **Algorithm 1** ([`engine::generate_path_conditions`]): offline
//!   symbolic execution over a `packet_in` handler written in the `policy`
//!   IR, symbolizing both the packet fields *and* the handler's global
//!   (state-sensitive) variables, and collecting all path conditions.
//! * **Algorithm 2** ([`solve::convert_to_rules`]): at runtime, substitute
//!   the tracked current values of the globals into the path conditions,
//!   keep only the paths whose final decision is a Modify State Message,
//!   solve the residual constraints (a domain-specific decision procedure
//!   standing in for STP: equalities, prefix tests and container-membership
//!   enumeration over packet-header bitvector domains), and instantiate each
//!   path's rule template into concrete **proactive flow rules**.
//!
//! ## Example
//!
//! ```
//! use policy::builder::*;
//! use policy::program::{GlobalSpec, Program};
//! use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
//! use policy::{Env, Value};
//! use ofproto::types::MacAddr;
//! use symexec::{convert_to_rules, generate_path_conditions};
//!
//! // l2_learning's install branch, reduced.
//! let program = Program::new(
//!     "l2",
//!     vec![],
//!     vec![if_else(
//!         map_contains(global("macToPort"), field(Field::DlDst)),
//!         vec![emit(Decision::InstallRule(RuleTemplate::new(
//!             vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
//!             vec![ActionTemplate::Output(map_get(global("macToPort"), field(Field::DlDst)))],
//!         )))],
//!         vec![emit(Decision::PacketOutFlood)],
//!     )],
//! );
//! // Offline: path conditions.
//! let pcs = generate_path_conditions(&program);
//! // Runtime: substitute tracked globals and convert.
//! let mut env = Env::new();
//! env.set("macToPort", map_value([(Value::Mac(MacAddr::from_u64(0xa)), Value::Int(1))]));
//! let conversion = convert_to_rules(&pcs, &env);
//! assert_eq!(conversion.rules.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod compress;
pub mod engine;
pub mod keyed;
pub mod memo;
pub mod path;
pub mod solve;

pub use compress::{compress, winner, CompressionConfig, CompressionStats};
pub use engine::{generate_path_conditions, MAX_PATHS};
pub use keyed::{KeyDelta, KeyedConversion};
pub use memo::{
    clear_path_memo, generate_path_conditions_cached, handler_hash, path_memo_stats, PathMemoStats,
};
pub use path::{Constraint, Path, PathConditions};
pub use solve::{convert_to_rules, Conversion, ConversionStats, MAX_RULES};
