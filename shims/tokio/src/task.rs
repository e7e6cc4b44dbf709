//! Task spawning and join handles.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::runtime::{self, BoxFuture};

/// Spawns a future onto the current runtime.
///
/// # Panics
///
/// Panics when called from outside a runtime context.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    runtime::spawn(&runtime::current(), future)
}

/// The spawned task panicked before completing.
#[derive(Debug)]
pub struct JoinError(());

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task panicked")
    }
}

impl std::error::Error for JoinError {}

struct JoinCell<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Awaits a spawned task's output.
pub struct JoinHandle<T> {
    cell: Rc<RefCell<JoinCell<T>>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.cell.borrow_mut();
        match st.result.take() {
            Some(result) => Poll::Ready(result),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Gives every other queued task a turn before the caller goes on.
pub async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if std::mem::replace(&mut yielded, true) {
            return Poll::Ready(());
        }
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await;
}

/// Converts poll-time panics into values so a crashing task cannot take the
/// runtime's thread down with it.
struct CatchPanic<F>(F);

impl<F: Future> Future for CatchPanic<F> {
    type Output = Result<F::Output, Box<dyn Any + Send + 'static>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pin projection of the only field.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.0) };
        match catch_unwind(AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Ready(value)) => Poll::Ready(Ok(value)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

/// Wraps a user future into the executor's `()` task shape plus the join
/// handle observing its result.
pub(crate) fn wrap<F>(future: F) -> (BoxFuture, JoinHandle<F::Output>)
where
    F: Future + 'static,
    F::Output: 'static,
{
    let cell = Rc::new(RefCell::new(JoinCell {
        result: None,
        waker: None,
    }));
    let out = Rc::clone(&cell);
    let wrapped = async move {
        let result = CatchPanic(future).await.map_err(|_| JoinError(()));
        let waker = {
            let mut st = out.borrow_mut();
            st.result = Some(result);
            st.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    };
    (Box::pin(wrapped), JoinHandle { cell })
}
