//! Timers: `sleep` and `timeout` driven by the reactor's timer map.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::runtime::{self, Core};

/// Completes once `deadline` has passed.
pub struct Sleep {
    deadline: Instant,
    /// Captured lazily at first poll so `sleep(..)` can be constructed
    /// outside a runtime context (e.g. as a `block_on` argument).
    core: Option<Rc<Core>>,
    timer: Option<u64>,
}

/// Sleeps for `duration`.
pub fn sleep(duration: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now() + duration,
        core: None,
        timer: None,
    }
}

impl Sleep {
    fn cancel(&mut self) {
        if let (Some(core), Some(id)) = (&self.core, self.timer.take()) {
            core.reactor.remove_timer(self.deadline, id);
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            self.cancel();
            return Poll::Ready(());
        }
        let this = &mut *self;
        let core = this.core.get_or_insert_with(runtime::current);
        match this.timer {
            None => this.timer = Some(core.reactor.insert_timer(this.deadline, cx.waker().clone())),
            Some(id) => core
                .reactor
                .update_timer(this.deadline, id, cx.waker().clone()),
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// The future passed to [`timeout`] did not complete in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed(());

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline has elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Runs `future` with a deadline.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep(duration),
    }
}

/// The future returned by [`timeout`].
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pin projection; neither field is moved.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: `future` stays pinned inside `this`.
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(value) = future.poll(cx) {
            return Poll::Ready(Ok(value));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}
