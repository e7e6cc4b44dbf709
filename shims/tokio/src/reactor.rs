//! The epoll reactor: I/O readiness and timers, turned by the runtime's
//! own thread.
//!
//! Every runtime owns one reactor. I/O sources register their fd once and
//! re-arm an `EPOLLONESHOT` interest each time a task awaits readiness, so
//! idle connections cost nothing. The runtime's thread waits in
//! `epoll_wait` only when nothing can run; while it waits, `parked` is set,
//! and a wake or an earlier timer from another thread writes the `eventfd`
//! to end the wait. From the runtime's own thread neither writes anything.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

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
    wake: OwnedFd,
    /// Set while the runtime's thread is about to wait, or waits, in
    /// `epoll_wait`: only then does a wake have to write `wake`.
    parked: AtomicBool,
    state: Mutex<ReactorState>,
}

struct ReactorState {
    sources: HashMap<u64, Arc<SourceShared>>,
    next_token: u64,
    timers: BTreeMap<(Instant, u64), Waker>,
    next_timer: u64,
}

struct SourceShared {
    fd: RawFd,
    token: u64,
    st: Mutex<SourceState>,
}

#[derive(Default)]
struct SourceState {
    ready: bool,
    waker: Option<Waker>,
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
    pub(crate) fn new() -> io::Result<Reactor> {
        let epfd = sys::epoll_create()?;
        let wake = sys::eventfd_create()?;
        sys::epoll_add(epfd.as_raw_fd(), wake.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(Reactor {
            epfd,
            wake,
            parked: AtomicBool::new(false),
            state: Mutex::new(ReactorState {
                sources: HashMap::new(),
                next_token: 0,
                timers: BTreeMap::new(),
                next_timer: 0,
            }),
        })
    }

    /// Ends the runtime thread's `epoll_wait`, if it waits. Callers make
    /// their work visible (a queued task, a timer) before they call this.
    pub(crate) fn unpark(&self) {
        if self.parked.load(Ordering::SeqCst) {
            sys::eventfd_signal(self.wake.as_raw_fd());
        }
    }

    /// Announces that the runtime's thread is about to wait. The caller
    /// looks for runnable work after this and before [`Reactor::turn`]:
    /// whatever is queued after the look sees the flag and unparks it.
    pub(crate) fn park_begin(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Withdraws [`Reactor::park_begin`] without waiting.
    pub(crate) fn park_cancel(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Inserts a timer; returns its id for later update/removal.
    pub(crate) fn insert_timer(&self, deadline: Instant, waker: Waker) -> u64 {
        let mut st = self.state.lock().unwrap();
        let id = st.next_timer;
        st.next_timer += 1;
        st.timers.insert((deadline, id), waker);
        let is_front = st.timers.keys().next().map(|k| k.1) == Some(id);
        drop(st);
        if is_front {
            self.unpark();
        }
        id
    }

    /// Refreshes the waker of a live timer.
    pub(crate) fn update_timer(&self, deadline: Instant, id: u64, waker: Waker) {
        let mut st = self.state.lock().unwrap();
        if let Some(slot) = st.timers.get_mut(&(deadline, id)) {
            *slot = waker;
        }
    }

    pub(crate) fn remove_timer(&self, deadline: Instant, id: u64) {
        self.state.lock().unwrap().timers.remove(&(deadline, id));
    }

    /// Polls for I/O and fires due timers. With `block`, waits until an fd
    /// is ready, the first timer is due or [`Reactor::unpark`] is called;
    /// `park_begin` must have been called. Without, only looks.
    pub(crate) fn turn(&self, block: bool, scratch: &mut Scratch) {
        let timeout_ms = if block {
            let st = self.state.lock().unwrap();
            match st.timers.keys().next() {
                // Rounded up so timers never fire early.
                Some(&(deadline, _)) => deadline
                    .saturating_duration_since(Instant::now())
                    .as_nanos()
                    .div_ceil(1_000_000)
                    .min(i32::MAX as u128) as i32,
                None => -1,
            }
        } else {
            0
        };
        let n = sys::epoll_pwait(self.epfd.as_raw_fd(), &mut scratch.events, timeout_ms);
        self.parked.store(false, Ordering::SeqCst);
        let n = match n {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => panic!("epoll_wait failed: {e}"),
        };
        // Fire due timers.
        let now = Instant::now();
        {
            let mut st = self.state.lock().unwrap();
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
                sys::eventfd_drain(self.wake.as_raw_fd());
                continue;
            }
            let source = self.state.lock().unwrap().sources.get(&token).cloned();
            if let Some(source) = source {
                let mut st = source.st.lock().unwrap();
                st.ready = true;
                let waker = st.waker.take();
                drop(st);
                if let Some(waker) = waker {
                    waker.wake();
                }
            }
        }
    }

    /// Drops every timer and source waker, so that parked tasks release
    /// their references when the runtime goes.
    pub(crate) fn clear_wakers(&self) {
        let mut st = self.state.lock().unwrap();
        let timers = std::mem::take(&mut st.timers);
        let sources: Vec<_> = st.sources.values().cloned().collect();
        drop(st);
        drop(timers);
        for source in sources {
            let waker = source.st.lock().unwrap().waker.take();
            drop(waker);
        }
    }
}

/// One registered fd with a single pending waiter.
pub(crate) struct Source {
    shared: Arc<SourceShared>,
    reactor: Arc<Reactor>,
}

impl Source {
    /// Registers `fd` with the reactor, initially disarmed.
    pub(crate) fn new(reactor: Arc<Reactor>, fd: RawFd) -> io::Result<Source> {
        // The source must be in the map BEFORE epoll sees the fd: a level
        // already present on the socket (e.g. HUP on an unconnected one)
        // can be delivered the instant it is added, and an event that finds
        // no source is dropped — consuming the oneshot edge forever.
        let (token, shared) = {
            let mut st = reactor.state.lock().unwrap();
            let token = st.next_token;
            st.next_token += 1;
            let shared = Arc::new(SourceShared {
                fd,
                token,
                st: Mutex::new(SourceState::default()),
            });
            st.sources.insert(token, shared.clone());
            (token, shared)
        };
        if let Err(e) = sys::epoll_add(reactor.epfd.as_raw_fd(), fd, sys::EPOLLONESHOT, token) {
            reactor.state.lock().unwrap().sources.remove(&token);
            return Err(e);
        }
        Ok(Source { shared, reactor })
    }

    /// Polls for readiness under `interest`, re-arming the oneshot
    /// registration when pending.
    pub(crate) fn poll_ready(&self, interest: u32, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        let mut st = self.shared.st.lock().unwrap();
        if st.ready {
            st.ready = false;
            return Poll::Ready(Ok(()));
        }
        st.waker = Some(cx.waker().clone());
        drop(st);
        let events = interest | sys::EPOLLONESHOT | sys::EPOLLERR | sys::EPOLLHUP;
        match sys::epoll_mod(
            self.reactor.epfd.as_raw_fd(),
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
        let deleted = sys::epoll_del(self.reactor.epfd.as_raw_fd(), self.shared.fd);
        debug_assert!(
            deleted.is_ok(),
            "deregistering fd {}: {deleted:?}",
            self.shared.fd
        );
        self.reactor
            .state
            .lock()
            .unwrap()
            .sources
            .remove(&self.shared.token);
    }
}
