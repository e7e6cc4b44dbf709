//! Offline vendored subset of the `tokio` async runtime API.
//!
//! The workspace builds with no registry access, so external dependencies
//! resolve to minimal shims (see the workspace `Cargo.toml`). This shim is a
//! real — if deliberately small — async runtime rather than a stub, because
//! `ofchannel`'s many-switch controller endpoint genuinely multiplexes
//! thousands of TCP connections on one thread:
//!
//! - [`runtime`]: a one-thread executor built on [`std::task::Wake`]:
//!   [`runtime::Runtime::block_on`] polls its future, runs the queued
//!   tasks, and waits in `epoll_wait` only when nothing can run. Building a
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
//! - [`sync`]: bounded [`sync::mpsc`] channels (with a blocking send for
//!   threads outside the runtime) and a broadcast [`sync::Notify`].
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
