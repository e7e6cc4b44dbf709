//! The executor: one run queue, drained by the thread inside
//! [`Runtime::block_on`].
//!
//! Tasks are `Arc`s implementing [`std::task::Wake`]; waking re-enqueues
//! the task unless it is already queued (or running, in which case it is
//! re-queued as soon as the in-flight poll returns `Pending`). A wake may
//! come from any thread: it pushes to the run queue, and writes the
//! reactor's eventfd only while the runtime's thread waits in `epoll_wait`.
//! Nothing runs unless a thread is inside `block_on`, and one thread at a
//! time may be.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};

use crate::reactor::{Reactor, Scratch};

pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// How many polls may pass without a look at I/O and timers while there is
/// always something to run.
const IO_INTERVAL: u32 = 61;

/// What a runtime's handles, tasks and I/O sources share.
pub(crate) struct Core {
    queue: Mutex<VecDeque<Arc<Task>>>,
    tasks: Mutex<Vec<Weak<Task>>>,
    pub(crate) reactor: Arc<Reactor>,
    /// Set while a thread is inside `block_on`.
    driving: AtomicBool,
}

impl Core {
    fn push(&self, task: Arc<Task>) {
        self.queue.lock().unwrap().push_back(task);
        self.reactor.unpark();
    }

    fn pop(&self) -> Option<Arc<Task>> {
        self.queue.lock().unwrap().pop_front()
    }
}

pub(crate) struct Task {
    /// Weak, so a waker that outlives the runtime holds none of its
    /// descriptors open.
    core: Weak<Core>,
    st: Mutex<TaskState>,
}

struct TaskState {
    future: Option<BoxFuture>,
    queued: bool,
    running: bool,
    woken: bool,
}

impl Task {
    fn schedule(self: &Arc<Task>) {
        {
            let mut st = self.st.lock().unwrap();
            if st.queued {
                return;
            }
            // While a poll is in flight the future is checked out of the
            // state (`future` is `None`), so the running check MUST come
            // before the liveness check or mid-poll wakes would be lost.
            if st.running {
                st.woken = true;
                return;
            }
            if st.future.is_none() {
                return;
            }
            st.queued = true;
        }
        if let Some(core) = self.core.upgrade() {
            core.push(self.clone());
        }
    }

    fn run(self: &Arc<Task>) {
        let mut future = {
            let mut st = self.st.lock().unwrap();
            st.queued = false;
            match st.future.take() {
                Some(f) => {
                    st.running = true;
                    st.woken = false;
                    f
                }
                None => return,
            }
        };
        let waker = Waker::from(self.clone());
        let mut cx = Context::from_waker(&waker);
        let poll = future.as_mut().poll(&mut cx);
        let requeue = {
            let mut st = self.st.lock().unwrap();
            st.running = false;
            match poll {
                Poll::Ready(()) => false,
                Poll::Pending => {
                    st.future = Some(future);
                    if st.woken {
                        st.woken = false;
                        st.queued = true;
                        true
                    } else {
                        false
                    }
                }
            }
        };
        // `future` (when Ready) drops here, outside the state lock, so any
        // wakers it releases can re-enter `schedule` safely.
        if requeue {
            if let Some(core) = self.core.upgrade() {
                core.push(self.clone());
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// The waker of the future `block_on` drives.
struct MainWaker {
    woken: AtomicBool,
    core: Weak<Core>,
}

impl Wake for MainWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::SeqCst);
        if let Some(core) = self.core.upgrade() {
            core.reactor.unpark();
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
}

struct EnterGuard {
    prev: Option<Handle>,
}

fn enter(handle: Handle) -> EnterGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(handle));
    EnterGuard { prev }
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Marks the runtime driven for as long as it lives.
struct Driving<'a>(&'a Core);

impl Drop for Driving<'_> {
    fn drop(&mut self) {
        self.0.driving.store(false, Ordering::SeqCst);
    }
}

/// A cloneable reference to a runtime's executor and reactor.
#[derive(Clone)]
pub struct Handle {
    pub(crate) core: Arc<Core>,
}

impl Handle {
    /// The handle of the runtime the current thread is running under.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a runtime context.
    pub fn current() -> Handle {
        CURRENT
            .with(|c| c.borrow().clone())
            .expect("must be called from within a tokio runtime context")
    }

    /// The current thread's runtime handle, if inside a runtime context.
    pub fn try_current() -> Option<Handle> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Spawns a future onto the runtime. It runs while a thread is inside
    /// [`Handle::block_on`].
    pub fn spawn<F>(&self, future: F) -> crate::task::JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (wrapped, join) = crate::task::wrap(future);
        let task = Arc::new(Task {
            core: Arc::downgrade(&self.core),
            st: Mutex::new(TaskState {
                future: Some(wrapped),
                queued: false,
                running: false,
                woken: false,
            }),
        });
        {
            let mut tasks = self.core.tasks.lock().unwrap();
            tasks.push(Arc::downgrade(&task));
            if tasks.len() > 64 && tasks.len() % 64 == 0 {
                tasks.retain(|w| w.strong_count() > 0);
            }
        }
        task.schedule();
        join
    }

    /// Runs `future` to completion on the current thread, and with it every
    /// spawned task and the reactor: polls the future when it is woken,
    /// runs the queued tasks, and waits in `epoll_wait` only when nothing
    /// can run.
    ///
    /// # Panics
    ///
    /// Panics when another thread is inside `block_on` of the same runtime,
    /// or this one is (a nested call).
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let core = &*self.core;
        assert!(
            !core.driving.swap(true, Ordering::SeqCst),
            "block_on: the runtime is already driven by a thread"
        );
        let _driving = Driving(core);
        let _enter = enter(self.clone());
        let main = Arc::new(MainWaker {
            woken: AtomicBool::new(true),
            core: Arc::downgrade(&self.core),
        });
        let waker = Waker::from(main.clone());
        let mut cx = Context::from_waker(&waker);
        let mut future = std::pin::pin!(future);
        let mut scratch = Scratch::default();
        let mut since_io = 0u32;
        loop {
            if main.woken.swap(false, Ordering::SeqCst) {
                if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
                    return value;
                }
                since_io += 1;
            }
            // What is queued now; tasks it wakes run on the next turn, after
            // the future has had its look.
            let queued = core.queue.lock().unwrap().len();
            for _ in 0..queued {
                let Some(task) = core.pop() else { break };
                task.run();
                since_io += 1;
            }
            core.reactor.park_begin();
            let idle = !main.woken.load(Ordering::SeqCst) && core.queue.lock().unwrap().is_empty();
            if idle {
                core.reactor.turn(true, &mut scratch);
                since_io = 0;
            } else {
                core.reactor.park_cancel();
                if since_io >= IO_INTERVAL {
                    core.reactor.turn(false, &mut scratch);
                    since_io = 0;
                }
            }
        }
    }
}

/// Configures a [`Runtime`].
pub struct Builder(());

impl Builder {
    /// A runtime builder. The runtime runs on the thread that calls
    /// [`Runtime::block_on`] (the only flavour provided).
    pub fn new_current_thread() -> Builder {
        Builder(())
    }

    /// Accepted for tokio compatibility; all drivers are always enabled.
    pub fn enable_all(&mut self) -> &mut Builder {
        self
    }

    /// Builds the runtime: an epoll instance and an eventfd, no thread.
    pub fn build(&mut self) -> io::Result<Runtime> {
        let core = Arc::new(Core {
            queue: Mutex::new(VecDeque::new()),
            tasks: Mutex::new(Vec::new()),
            reactor: Arc::new(Reactor::new()?),
            driving: AtomicBool::new(false),
        });
        Ok(Runtime {
            handle: Handle { core },
        })
    }
}

/// A self-contained executor + reactor pair, driven by the thread inside
/// [`Runtime::block_on`].
pub struct Runtime {
    handle: Handle,
}

impl Runtime {
    /// A runtime with default settings.
    pub fn new() -> io::Result<Runtime> {
        Builder::new_current_thread().build()
    }

    /// This runtime's handle.
    pub fn handle(&self) -> &Handle {
        &self.handle
    }

    /// See [`Handle::spawn`].
    pub fn spawn<F>(&self, future: F) -> crate::task::JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.handle.spawn(future)
    }

    /// See [`Handle::block_on`].
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        self.handle.block_on(future)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let core = &self.handle.core;
        // Drop every live task future (outside its state lock) so sockets
        // close and channel peers disconnect deterministically.
        let registered: Vec<_> = std::mem::take(&mut *core.tasks.lock().unwrap());
        for weak in registered {
            if let Some(task) = weak.upgrade() {
                let future = task.st.lock().unwrap().future.take();
                drop(future);
            }
        }
        core.queue.lock().unwrap().clear();
        core.reactor.clear_wakers();
    }
}
