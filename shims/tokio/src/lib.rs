//! Offline vendored subset of the `tokio` async runtime API.
//!
//! The workspace builds with no registry access, so external dependencies
//! resolve to minimal shims (see the workspace `Cargo.toml`). This shim is a
//! real — if deliberately small — async runtime rather than a stub, because
//! `ofchannel`'s many-switch controller endpoint genuinely multiplexes
//! thousands of TCP connections on one thread:
//!
//! - [`runtime`]: a one-thread executor: [`runtime::Runtime::block_on`]
//!   runs the tasks that were woken and waits in `epoll_wait` only when
//!   none was. A runtime is built, driven and dropped on one thread, which
//!   owns its tasks, sockets and timers outright, so [`spawn`] asks no
//!   `Send` of a future and nothing but the wake path is locked. Building a
//!   runtime starts no thread.
//! - an epoll reactor turned by that same thread (via direct `extern "C"`
//!   declarations — std already links libc, mirroring how
//!   `netsim::engine` binds its thread-affinity syscalls) with
//!   `EPOLLONESHOT` interests re-armed on each await, a timer map for
//!   [`time::sleep`], and an `eventfd` that a wake from another thread
//!   writes while the runtime's thread waits.
//! - [`net`]: non-blocking [`net::TcpListener`] / [`net::TcpStream`] with
//!   `into_split` read/write halves (each half owns a dup'ed fd and its own
//!   epoll registration).
//! - [`time`]: [`time::sleep`] and [`time::timeout`].
//! - [`sync`]: bounded [`sync::mpsc`] channels, with a blocking send for
//!   threads outside the runtime: what crosses threads besides a wake.
//! - [`task`]: [`spawn`], [`JoinHandle`] and [`task::yield_now`].
//!
//! Only the API surface the workspace uses is provided. Single-waiter
//! readiness (one task awaiting a given half at a time) is assumed, which
//! matches both tokio's `&mut self` I/O methods and every call site here.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("the vendored tokio shim only supports Linux (epoll)");

pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

mod reactor;
mod sys;

pub use task::{spawn, JoinHandle};
