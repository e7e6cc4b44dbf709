//! The epoll reactor: I/O readiness and timers, owned and turned by the
//! runtime's own thread.
//!
//! Every runtime owns one reactor. I/O sources register their fd once and
//! re-arm an `EPOLLONESHOT` interest each time a task awaits readiness, so
//! idle connections cost nothing. Sources and timers are only ever touched
//! by the runtime's thread, so none of them is locked. The runtime's thread
//! waits in `epoll_wait` only when nothing can run; a wake from another
//! thread ends the wait through the eventfd registered here (see
//! [`crate::runtime`]'s `Wakes`).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::runtime::{Core, Wakes};
use crate::sys;

/// Token reserved for the eventfd wakeup channel.
const WAKE_TOKEN: u64 = u64::MAX;

/// Interest in readability (includes peer-hangup so half-closed sockets
/// wake readers).
pub(crate) const READABLE: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;
/// Interest in writability.
pub(crate) const WRITABLE: u32 = sys::EPOLLOUT;

pub(crate) struct Reactor {
    epfd: OwnedFd,
    state: RefCell<ReactorState>,
}

#[derive(Default)]
struct ReactorState {
    sources: HashMap<u64, Rc<SourceShared>>,
    next_token: u64,
    timers: BTreeMap<(Instant, u64), Waker>,
    next_timer: u64,
}

struct SourceShared {
    fd: RawFd,
    token: u64,
    ready: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// Reusable buffers for [`Reactor::turn`].
pub(crate) struct Scratch {
    events: Vec<sys::EpollEvent>,
    due: Vec<Waker>,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
            due: Vec::new(),
        }
    }
}

impl Reactor {
    pub(crate) fn new(wakes: &Wakes) -> io::Result<Reactor> {
        let epfd = sys::epoll_create()?;
        sys::epoll_add(
            epfd.as_raw_fd(),
            wakes.eventfd.as_raw_fd(),
            sys::EPOLLIN,
            WAKE_TOKEN,
        )?;
        Ok(Reactor {
            epfd,
            state: RefCell::default(),
        })
    }

    /// Inserts a timer; returns its id for later update/removal.
    pub(crate) fn insert_timer(&self, deadline: Instant, waker: Waker) -> u64 {
        let mut st = self.state.borrow_mut();
        let id = st.next_timer;
        st.next_timer += 1;
        st.timers.insert((deadline, id), waker);
        id
    }

    /// Refreshes the waker of a live timer.
    pub(crate) fn update_timer(&self, deadline: Instant, id: u64, waker: Waker) {
        if let Some(slot) = self.state.borrow_mut().timers.get_mut(&(deadline, id)) {
            *slot = waker;
        }
    }

    pub(crate) fn remove_timer(&self, deadline: Instant, id: u64) {
        let removed = self.state.borrow_mut().timers.remove(&(deadline, id));
        drop(removed);
    }

    /// Polls for I/O and fires due timers. With `block`, waits until an fd
    /// is ready, the first timer is due or a wake writes the eventfd; the
    /// runtime has announced the wait in `wakes`. Without, only looks.
    pub(crate) fn turn(&self, block: bool, wakes: &Wakes, scratch: &mut Scratch) {
        let timeout_ms = match self.state.borrow().timers.keys().next() {
            // Rounded up so timers never fire early.
            Some(&(deadline, _)) if block => deadline
                .saturating_duration_since(Instant::now())
                .as_nanos()
                .div_ceil(1_000_000)
                .min(i32::MAX as u128) as i32,
            None if block => -1,
            _ => 0,
        };
        let n = sys::epoll_pwait(self.epfd.as_raw_fd(), &mut scratch.events, timeout_ms);
        wakes.unparked();
        let n = match n {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => panic!("epoll_wait failed: {e}"),
        };
        // Fire due timers.
        let now = Instant::now();
        {
            let mut st = self.state.borrow_mut();
            if st.timers.keys().next().is_some_and(|&(at, _)| at <= now) {
                let live = st.timers.split_off(&(now, u64::MAX));
                let expired = std::mem::replace(&mut st.timers, live);
                scratch.due.extend(expired.into_values());
            }
        }
        for waker in scratch.due.drain(..) {
            waker.wake();
        }
        // Dispatch I/O readiness.
        for ev in &scratch.events[..n] {
            let token = ev.data;
            if token == WAKE_TOKEN {
                sys::eventfd_drain(wakes.eventfd.as_raw_fd());
                continue;
            }
            let source = self.state.borrow().sources.get(&token).cloned();
            if let Some(source) = source {
                source.ready.set(true);
                if let Some(waker) = source.waker.take() {
                    waker.wake();
                }
            }
        }
    }

    /// Drops every timer and source waker, so that parked tasks release
    /// their references when the runtime goes.
    pub(crate) fn clear_wakers(&self) {
        let mut st = self.state.borrow_mut();
        let timers = std::mem::take(&mut st.timers);
        let wakers: Vec<_> = st.sources.values().map(|s| s.waker.take()).collect();
        drop(st);
        drop((timers, wakers));
    }
}

/// One registered fd with a single pending waiter.
pub(crate) struct Source {
    shared: Rc<SourceShared>,
    core: Rc<Core>,
}

impl Source {
    /// Registers `fd` with the reactor, initially disarmed.
    pub(crate) fn new(core: Rc<Core>, fd: RawFd) -> io::Result<Source> {
        // The source must be in the map BEFORE epoll sees the fd: a level
        // already present on the socket (e.g. HUP on an unconnected one)
        // can be delivered the instant it is added, and an event that finds
        // no source is dropped — consuming the oneshot edge forever.
        let reactor = &core.reactor;
        let shared = {
            let mut st = reactor.state.borrow_mut();
            let token = st.next_token;
            st.next_token += 1;
            let shared = Rc::new(SourceShared {
                fd,
                token,
                ready: Cell::new(false),
                waker: RefCell::new(None),
            });
            st.sources.insert(token, Rc::clone(&shared));
            shared
        };
        let token = shared.token;
        if let Err(e) = sys::epoll_add(reactor.epfd.as_raw_fd(), fd, sys::EPOLLONESHOT, token) {
            reactor.state.borrow_mut().sources.remove(&token);
            return Err(e);
        }
        Ok(Source { shared, core })
    }

    /// Polls for readiness under `interest`, re-arming the oneshot
    /// registration when pending.
    pub(crate) fn poll_ready(&self, interest: u32, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        if self.shared.ready.replace(false) {
            return Poll::Ready(Ok(()));
        }
        *self.shared.waker.borrow_mut() = Some(cx.waker().clone());
        let events = interest | sys::EPOLLONESHOT | sys::EPOLLERR | sys::EPOLLHUP;
        match sys::epoll_mod(
            self.core.reactor.epfd.as_raw_fd(),
            self.shared.fd,
            events,
            self.shared.token,
        ) {
            Ok(()) => Poll::Pending,
            Err(e) => Poll::Ready(Err(e)),
        }
    }

    /// Awaits readiness under `interest`.
    pub(crate) async fn readiness(&self, interest: u32) -> io::Result<()> {
        std::future::poll_fn(|cx| self.poll_ready(interest, cx)).await
    }
}

impl Drop for Source {
    /// Deregisters the fd, which must still be open: an owner drops its
    /// `Source` before the socket. Once the fd is closed its number may
    /// already belong to another socket, whose registration the delete
    /// would remove instead (its next wait then fails with `ENOENT`, or
    /// never wakes).
    fn drop(&mut self) {
        let reactor = &self.core.reactor;
        let deleted = sys::epoll_del(reactor.epfd.as_raw_fd(), self.shared.fd);
        debug_assert!(
            deleted.is_ok(),
            "deregistering fd {}: {deleted:?}",
            self.shared.fd
        );
        let removed = reactor
            .state
            .borrow_mut()
            .sources
            .remove(&self.shared.token);
        drop(removed);
    }
}
