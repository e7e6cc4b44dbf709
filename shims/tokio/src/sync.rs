//! Bounded mpsc channels: the one piece of the shim meant to carry values
//! between threads (a thread outside the runtime, or another runtime, may
//! hold a [`mpsc::Sender`]).

use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Multi-producer, single-consumer bounded channels.
pub mod mpsc {
    use super::*;

    /// Channel error types.
    pub mod error {
        /// The receiver was dropped.
        #[derive(Debug, PartialEq, Eq)]
        pub struct SendError<T>(pub T);

        impl<T> std::fmt::Display for SendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("channel closed")
            }
        }

        /// A non-blocking send failed.
        #[derive(Debug, PartialEq, Eq)]
        pub enum TrySendError<T> {
            /// The bounded queue is at capacity.
            Full(T),
            /// The receiver was dropped.
            Closed(T),
        }

        impl<T> std::fmt::Display for TrySendError<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match self {
                    TrySendError::Full(_) => f.write_str("channel full"),
                    TrySendError::Closed(_) => f.write_str("channel closed"),
                }
            }
        }

        /// A non-blocking receive found nothing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TryRecvError {
            /// No message is queued right now.
            Empty,
            /// All senders dropped and the queue is drained.
            Disconnected,
        }
    }

    use error::{SendError, TryRecvError, TrySendError};

    struct Chan<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        rx_alive: bool,
        recv_waker: Option<Waker>,
        send_wakers: Vec<Waker>,
    }

    impl<T> Chan<T> {
        fn wake_receiver(&mut self) {
            if let Some(waker) = self.recv_waker.take() {
                waker.wake();
            }
        }

        fn wake_senders(&mut self) {
            for waker in self.send_wakers.drain(..) {
                waker.wake();
            }
        }
    }

    /// The sending side; cloneable.
    pub struct Sender<T> {
        chan: Arc<Mutex<Chan<T>>>,
    }

    /// The receiving side.
    pub struct Receiver<T> {
        chan: Arc<Mutex<Chan<T>>>,
    }

    /// Creates a bounded channel (capacity is clamped to at least 1).
    pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Mutex::new(Chan {
            queue: VecDeque::new(),
            cap: cap.max(1),
            senders: 1,
            rx_alive: true,
            recv_waker: None,
            send_wakers: Vec::new(),
        }));
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Enqueues without waiting.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut chan = self.chan.lock().unwrap();
            if !chan.rx_alive {
                return Err(TrySendError::Closed(value));
            }
            if chan.queue.len() >= chan.cap {
                return Err(TrySendError::Full(value));
            }
            chan.queue.push_back(value);
            chan.wake_receiver();
            Ok(())
        }

        /// Enqueues, waiting for space.
        pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut slot = Some(value);
            poll_fn(|cx| {
                let mut chan = self.chan.lock().unwrap();
                if !chan.rx_alive {
                    return Poll::Ready(Err(SendError(slot.take().expect("polled after ready"))));
                }
                if chan.queue.len() < chan.cap {
                    chan.queue
                        .push_back(slot.take().expect("polled after ready"));
                    chan.wake_receiver();
                    return Poll::Ready(Ok(()));
                }
                chan.send_wakers.push(cx.waker().clone());
                Poll::Pending
            })
            .await
        }
    }

    impl<T> Sender<T> {
        /// Enqueues from a thread outside the runtime, blocking it until
        /// there is room. The receiver's runtime wakes it.
        pub fn blocking_send(&self, value: T) -> Result<(), SendError<T>> {
            let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
            let mut cx = std::task::Context::from_waker(&waker);
            let mut send = std::pin::pin!(self.send(value));
            loop {
                match send.as_mut().poll(&mut cx) {
                    Poll::Ready(result) => return result,
                    Poll::Pending => std::thread::park(),
                }
            }
        }
    }

    /// Unparks the thread blocked in [`Sender::blocking_send`].
    struct ThreadWaker(std::thread::Thread);

    impl std::task::Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.lock().unwrap().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut chan = self.chan.lock().unwrap();
            chan.senders -= 1;
            if chan.senders == 0 {
                chan.wake_receiver();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues, waiting for a message; `None` once every sender is
        /// gone and the queue is drained.
        pub async fn recv(&mut self) -> Option<T> {
            poll_fn(|cx| self.poll_recv(cx)).await
        }

        /// Dequeues a message, or registers `cx` to be woken when one
        /// arrives; `Ready(None)` once every sender is gone and the queue
        /// is drained. Lets one task wait on several receivers at once.
        pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
            let mut chan = self.chan.lock().unwrap();
            if let Some(value) = chan.queue.pop_front() {
                chan.wake_senders();
                return Poll::Ready(Some(value));
            }
            if chan.senders == 0 {
                return Poll::Ready(None);
            }
            chan.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }

        /// Dequeues without waiting.
        pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
            let mut chan = self.chan.lock().unwrap();
            if let Some(value) = chan.queue.pop_front() {
                chan.wake_senders();
                return Ok(value);
            }
            if chan.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut chan = self.chan.lock().unwrap();
            chan.rx_alive = false;
            chan.queue.clear();
            chan.wake_senders();
        }
    }
}
