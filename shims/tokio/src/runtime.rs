//! The executor: a slab of task futures, owned by the thread inside
//! [`Runtime::block_on`], and one cross-thread queue of woken task ids.
//!
//! A runtime is built, driven and dropped on one thread: [`Runtime`] is
//! neither `Send` nor `Sync`, so spawned futures need not be
//! `Send` either, and nothing the tasks share with each other or with the
//! reactor is locked. The only state other threads reach is `Wakes`: a
//! waker is `Send + Sync` and carries its task's id, a queued bit and the
//! wake queue. Waking pushes the id (unless it is already queued) and writes
//! the reactor's eventfd only while the runtime's thread waits in
//! `epoll_wait`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::io;
use std::os::fd::{AsRawFd, OwnedFd};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::task::{Context, Poll, Wake, Waker};

use crate::reactor::{Reactor, Scratch};
use crate::sys;

pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// How many polls may pass without a look at I/O and timers while there is
/// always something to run.
const IO_INTERVAL: u32 = 61;

/// The id [`Runtime::block_on`]'s own future is woken under.
const MAIN: u64 = u64::MAX;

/// What wakers share with the runtime's thread, from whatever thread they
/// wake on.
pub(crate) struct Wakes {
    /// Ids of woken tasks, in wake order.
    queue: Mutex<VecDeque<u64>>,
    /// Set while the runtime's thread is about to wait, or waits, in
    /// `epoll_wait`: only then does a wake have to write `eventfd`.
    parked: AtomicBool,
    /// Registered with the reactor's epoll instance.
    pub(crate) eventfd: OwnedFd,
}

impl Wakes {
    fn queue(&self) -> MutexGuard<'_, VecDeque<u64>> {
        self.queue
            .lock()
            .expect("no code that holds the wake queue panics")
    }

    fn push(&self, id: u64) {
        self.queue().push_back(id);
        if self.parked.load(Ordering::SeqCst) {
            sys::eventfd_signal(self.eventfd.as_raw_fd());
        }
    }

    /// Announces that the runtime's thread is about to wait, and says
    /// whether it may: nothing is queued. Whatever is queued after the look
    /// sees the flag and writes the eventfd.
    fn park(&self) -> bool {
        self.parked.store(true, Ordering::SeqCst);
        let idle = self.queue().is_empty();
        if !idle {
            self.parked.store(false, Ordering::SeqCst);
        }
        idle
    }

    pub(crate) fn unparked(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// One task's waker.
struct TaskWaker {
    id: u64,
    /// Set from the wake that queued `id` until the runtime takes it off
    /// the queue, so a task is queued once however often it is woken.
    queued: AtomicBool,
    /// Weak, so a waker that outlives the runtime holds none of its
    /// descriptors open.
    wakes: Weak<Wakes>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::SeqCst) {
            if let Some(wakes) = self.wakes.upgrade() {
                wakes.push(self.id);
            }
        }
    }
}

/// A spawned future and its waker, kept both as the `Arc` whose queued bit
/// the runtime clears and as the [`Waker`] it polls with.
struct Task {
    future: BoxFuture,
    waker: Arc<TaskWaker>,
    cx_waker: Waker,
}

impl Task {
    fn new(future: BoxFuture, id: u64, wakes: &Arc<Wakes>) -> Task {
        let waker = Arc::new(TaskWaker {
            id,
            queued: AtomicBool::new(false),
            wakes: Arc::downgrade(wakes),
        });
        Task {
            future,
            cx_waker: Waker::from(Arc::clone(&waker)),
            waker,
        }
    }
}

/// The live tasks. A task's id is its slot's index in the low 32 bits and
/// the slot's generation in the high 32. Freeing a slot moves its
/// generation on, so the wake of a task that has ended finds no task, even
/// once another has taken its slot.
#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

#[derive(Default)]
struct Slot {
    generation: u32,
    /// `None` while the slot is free, and while its task is being polled.
    task: Option<Task>,
}

impl Slab {
    /// A free slot, and the id its task gets.
    fn reserve(&mut self) -> u64 {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            (self.slots.len() - 1) as u32
        });
        u64::from(self.slots[index as usize].generation) << 32 | u64::from(index)
    }

    fn slot(&mut self, id: u64) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(id as u32 as usize)?;
        (u64::from(slot.generation) == id >> 32).then_some(slot)
    }

    fn release(&mut self, id: u64) {
        let index = id as u32;
        let slot = &mut self.slots[index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
    }
}

/// What a runtime's tasks and I/O sources share, all on its thread.
pub(crate) struct Core {
    tasks: RefCell<Slab>,
    pub(crate) wakes: Arc<Wakes>,
    pub(crate) reactor: Reactor,
    /// Set while a thread is inside `block_on`.
    driving: Cell<bool>,
}

impl Core {
    /// Polls the task `id` once, if it is still alive; drops it when it
    /// completes. No borrow of the slab is held while it runs, so it may
    /// spawn.
    fn run(&self, id: u64) {
        let Some(mut task) = self.tasks.borrow_mut().slot(id).and_then(|s| s.task.take()) else {
            return;
        };
        task.waker.queued.store(false, Ordering::SeqCst);
        let poll = task
            .future
            .as_mut()
            .poll(&mut Context::from_waker(&task.cx_waker));
        match poll {
            Poll::Pending => {
                if let Some(slot) = self.tasks.borrow_mut().slot(id) {
                    slot.task = Some(task);
                }
            }
            Poll::Ready(()) => {
                self.tasks.borrow_mut().release(id);
                // The future, and whatever it releases, drops here, outside
                // the slab's borrow.
                drop(task);
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Core>>> = const { RefCell::new(None) };
}

/// The runtime the current thread is running under.
///
/// # Panics
///
/// Panics when called from outside a runtime context.
pub(crate) fn current() -> Rc<Core> {
    CURRENT
        .with(|c| c.borrow().clone())
        .expect("must be called from within a tokio runtime context")
}

/// Makes `core` the current thread's runtime until it drops.
struct Enter {
    prev: Option<Rc<Core>>,
}

impl Drop for Enter {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Marks the runtime driven for as long as it lives.
struct Driving<'a>(&'a Core);

impl Drop for Driving<'_> {
    fn drop(&mut self) {
        self.0.driving.set(false);
    }
}

pub(crate) fn spawn<F>(core: &Core, future: F) -> crate::task::JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let (wrapped, join) = crate::task::wrap(future);
    let mut tasks = core.tasks.borrow_mut();
    let id = tasks.reserve();
    let task = Task::new(wrapped, id, &core.wakes);
    task.cx_waker.wake_by_ref();
    tasks.slot(id).expect("reserved").task = Some(task);
    join
}

/// A self-contained executor + reactor pair, built, driven and dropped on
/// one thread.
pub struct Runtime {
    core: Rc<Core>,
}

impl Runtime {
    /// Builds a runtime: an epoll instance and an eventfd, no thread. It
    /// runs on the thread that calls [`Runtime::block_on`], the only
    /// flavour there is.
    pub fn new() -> io::Result<Runtime> {
        let wakes = Arc::new(Wakes {
            queue: Mutex::new(VecDeque::new()),
            parked: AtomicBool::new(false),
            eventfd: sys::eventfd_create()?,
        });
        let core = Rc::new(Core {
            tasks: RefCell::new(Slab::default()),
            reactor: Reactor::new(&wakes)?,
            wakes,
            driving: Cell::new(false),
        });
        Ok(Runtime { core })
    }

    /// Spawns a future onto the runtime. It runs while this thread is
    /// inside [`Runtime::block_on`].
    pub fn spawn<F>(&self, future: F) -> crate::task::JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        spawn(&self.core, future)
    }

    /// Runs `future` to completion on the current thread, and with it every
    /// spawned task and the reactor: each turn polls `future` first, if it
    /// was woken, then the tasks that were, in wake order, and waits in
    /// `epoll_wait` only when nothing was.
    ///
    /// # Panics
    ///
    /// Panics when this thread is already inside `block_on` of the same
    /// runtime (a nested call).
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let core = &*self.core;
        assert!(
            !core.driving.replace(true),
            "block_on: the runtime is already driven"
        );
        let _driving = Driving(core);
        let _enter = Enter {
            prev: CURRENT.with(|c| c.borrow_mut().replace(Rc::clone(&self.core))),
        };
        let main = Arc::new(TaskWaker {
            id: MAIN,
            queued: AtomicBool::new(false),
            wakes: Arc::downgrade(&core.wakes),
        });
        let waker = Waker::from(Arc::clone(&main));
        waker.wake_by_ref();
        let mut cx = Context::from_waker(&waker);
        let mut future = std::pin::pin!(future);
        let mut scratch = Scratch::default();
        let mut woken = VecDeque::new();
        let mut since_io = 0u32;
        loop {
            // The future first, when woken, then what is queued once it has
            // looked: what it woke runs in this turn, what those tasks wake
            // in the next.
            if main.queued.swap(false, Ordering::SeqCst) {
                if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
                    return value;
                }
                since_io += 1;
            }
            std::mem::swap(&mut woken, &mut *core.wakes.queue());
            for id in woken.drain(..) {
                // The future's id only ends a wait; its bit says it is due.
                if id != MAIN {
                    core.run(id);
                    since_io += 1;
                }
            }
            if !main.queued.load(Ordering::SeqCst) && core.wakes.park() {
                core.reactor.turn(true, &core.wakes, &mut scratch);
                since_io = 0;
            } else if since_io >= IO_INTERVAL {
                core.reactor.turn(false, &core.wakes, &mut scratch);
                since_io = 0;
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let core = &self.core;
        // Drop every live task future, outside the slab's borrow, so that
        // sockets close and channel peers disconnect deterministically.
        let tasks = std::mem::take(&mut *core.tasks.borrow_mut());
        drop(tasks);
        core.wakes.queue().clear();
        core.reactor.clear_wakers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// However many threads wake the tasks of a runtime that is not
    /// running, each task is on the queue once: none is lost and none is
    /// queued twice.
    #[test]
    fn wakes_from_many_threads_queue_each_task_once() {
        const TASKS: usize = 32;
        const THREADS: usize = 4;
        let rt = Runtime::new().unwrap();
        let wakers = Rc::new(RefCell::new(Vec::new()));
        let polls = Rc::new(RefCell::new(vec![0usize; TASKS]));
        let released = Rc::new(Cell::new(false));
        let tasks: Vec<_> = (0..TASKS)
            .map(|i| {
                let (wakers, polls, released) = (wakers.clone(), polls.clone(), released.clone());
                rt.spawn(std::future::poll_fn(move |cx| {
                    polls.borrow_mut()[i] += 1;
                    if released.get() {
                        return Poll::Ready(());
                    }
                    wakers.borrow_mut().push(cx.waker().clone());
                    Poll::Pending
                }))
            })
            .collect();
        rt.block_on(crate::task::yield_now());
        assert_eq!(*polls.borrow(), vec![1; TASKS], "each task looked once");
        let wakers: Arc<Vec<Waker>> = Arc::new(wakers.take());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (wakers, start) = (Arc::clone(&wakers), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..100 {
                        for waker in wakers.iter() {
                            waker.wake_by_ref();
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let mut queued: Vec<u64> = rt
            .core
            .wakes
            .queue
            .lock()
            .unwrap()
            .iter()
            .copied()
            .collect();
        queued.sort_unstable();
        queued.dedup();
        assert_eq!(queued.len(), TASKS);
        assert_eq!(rt.core.wakes.queue().len(), TASKS);
        released.set(true);
        rt.block_on(async {
            for task in tasks {
                task.await.unwrap();
            }
        });
        assert_eq!(
            *polls.borrow(),
            vec![2; TASKS],
            "each task looked once more"
        );
    }
}
