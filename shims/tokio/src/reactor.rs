//! The epoll reactor: one thread multiplexing I/O readiness and timers.
//!
//! Every runtime owns one reactor. I/O sources register their fd once and
//! re-arm an `EPOLLONESHOT` interest each time a task awaits readiness, so
//! idle connections cost nothing; an `eventfd` lets other threads interrupt
//! `epoll_wait` when an earlier timer is inserted or shutdown is requested.

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

pub(crate) struct ReactorShared {
    epfd: OwnedFd,
    wake: OwnedFd,
    state: Mutex<ReactorState>,
    shutdown: AtomicBool,
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

impl ReactorShared {
    pub(crate) fn new() -> io::Result<Arc<ReactorShared>> {
        let epfd = sys::epoll_create()?;
        let wake = sys::eventfd_create()?;
        sys::epoll_add(epfd.as_raw_fd(), wake.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(Arc::new(ReactorShared {
            epfd,
            wake,
            state: Mutex::new(ReactorState {
                sources: HashMap::new(),
                next_token: 0,
                timers: BTreeMap::new(),
                next_timer: 0,
            }),
            shutdown: AtomicBool::new(false),
        }))
    }

    /// Interrupts a blocked `epoll_wait`.
    pub(crate) fn interrupt(&self) {
        sys::eventfd_signal(self.wake.as_raw_fd());
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.interrupt();
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
            self.interrupt();
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

    /// The reactor thread body.
    pub(crate) fn run(self: &Arc<ReactorShared>) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut due: Vec<Waker> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout_ms = {
                let st = self.state.lock().unwrap();
                match st.timers.keys().next() {
                    Some(&(deadline, _)) => {
                        let now = Instant::now();
                        if deadline <= now {
                            0
                        } else {
                            // Round up so timers never fire early; cap so a
                            // missed interrupt cannot stall shutdown long.
                            let ms = deadline
                                .saturating_duration_since(now)
                                .as_millis()
                                .saturating_add(1);
                            ms.min(1000) as i32
                        }
                    }
                    None => 1000,
                }
            };
            let n = match sys::epoll_pwait(self.epfd.as_raw_fd(), &mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            // Fire due timers.
            let now = Instant::now();
            {
                let mut st = self.state.lock().unwrap();
                let live = st.timers.split_off(&(now, u64::MAX));
                let expired = std::mem::replace(&mut st.timers, live);
                due.extend(expired.into_values());
            }
            for waker in due.drain(..) {
                waker.wake();
            }
            // Dispatch I/O readiness.
            for ev in &events[..n] {
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
        // Teardown: drop remaining timers and source wakers so parked tasks
        // release their references.
        let mut st = self.state.lock().unwrap();
        st.timers.clear();
        let sources: Vec<_> = st.sources.drain().map(|(_, s)| s).collect();
        drop(st);
        for source in sources {
            source.st.lock().unwrap().waker = None;
        }
    }
}

/// One registered fd with a single pending waiter.
pub(crate) struct Source {
    shared: Arc<SourceShared>,
    reactor: Arc<ReactorShared>,
}

impl Source {
    /// Registers `fd` with the reactor, initially disarmed.
    pub(crate) fn new(reactor: Arc<ReactorShared>, fd: RawFd) -> io::Result<Source> {
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
