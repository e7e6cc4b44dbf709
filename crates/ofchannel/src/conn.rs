//! One framed OpenFlow connection on the async runtime — the only one this
//! crate has. The controller endpoint, [`crate::SwitchEndpoint`] and every
//! [`crate::swarm`] switch serve their sockets through it.
//!
//! After the handshake, [`open`] splits the stream into three pieces: a
//! writer task draining a **bounded** queue of encoded frames
//! ([`write_loop`]), a [`FrameReader`] the calling task pulls decoded
//! messages from, and a [`Conn`] handle for whoever owns the session. The
//! reader counts every frame, stamps the receive clock and answers
//! `echo_request` through the connection's own [`FrameSender`], so a busy
//! owner cannot fail its own liveness probes; everything else is handed to
//! the owner's queue ([`Shared::serve`]).
//!
//! The bounded queue is the backpressure mechanism: when the peer stops
//! reading (the saturation scenario this repo studies), the writer blocks
//! on the socket, the queue fills, and [`FrameSender::send`] starts failing
//! with [`SendError::Backpressure`] instead of buffering without limit.
//! All queues of one endpoint additionally draw from one [`SendBudget`].

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::io;
use std::net::{Shutdown, SocketAddr};
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use ofproto::wire;
use tokio::sync::mpsc;

use crate::config::ChannelConfig;
use crate::counters::ChannelCounters;
use crate::handshake::{self, HandshakeError};

/// Bytes asked of the socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Error from [`FrameSender::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendError {
    /// The bounded send queue (or the endpoint's budget) is full; the frame
    /// was **not** queued. Callers shed load (drop the frame).
    Backpressure,
    /// The writer task is gone; the connection is dead.
    Closed,
    /// A frame of the message would be longer than its 16-bit length field
    /// can say ([`wire::FrameTooLong`]); nothing was queued, and the
    /// connection carries on.
    Oversize,
}

/// The endpoint-wide pool of in-flight frame permits.
pub(crate) struct SendBudget {
    permits: Cell<usize>,
}

impl SendBudget {
    pub(crate) fn new(permits: usize) -> Rc<SendBudget> {
        Rc::new(SendBudget {
            permits: Cell::new(permits.max(1)),
        })
    }

    fn try_acquire(&self) -> bool {
        let left = self.permits.get().checked_sub(1);
        self.permits.set(left.unwrap_or(0));
        left.is_some()
    }

    fn release(&self) {
        self.permits.set(self.permits.get() + 1);
    }
}

/// One connection's outbound queue: encoded frames back to back in `bytes`,
/// the length of each in `lens`. Producers append to them; the writer
/// swaps both vectors out for its own emptied pair, so a frame is written
/// once when it is encoded and read once by the socket.
#[derive(Default)]
struct Outbound {
    bytes: Vec<u8>,
    lens: Vec<usize>,
    /// [`FrameSender`]s alive; at zero the writer ends once it has drained.
    senders: usize,
    /// Set by the writer when it stops: nothing more is accepted.
    closed: bool,
    /// The writer's waker while it is parked on an empty queue.
    writer: Option<Waker>,
}

/// What a connection's senders and its writer task share.
pub(crate) struct SendQueue {
    /// Most frames that may be queued at once; frames the writer has taken
    /// no longer count.
    cap: usize,
    out: RefCell<Outbound>,
    budget: Rc<SendBudget>,
    counters: Arc<ChannelCounters>,
}

impl SendQueue {
    /// A queue with one [`FrameSender`] and the handle its writer takes.
    /// Nothing is allocated for frames until the first one is sent.
    pub(crate) fn new(
        cap: usize,
        budget: Rc<SendBudget>,
        counters: Arc<ChannelCounters>,
    ) -> (FrameSender, Rc<SendQueue>) {
        let queue = Rc::new(SendQueue {
            cap: cap.max(1),
            out: RefCell::new(Outbound {
                senders: 1,
                ..Outbound::default()
            }),
            budget,
            counters,
        });
        (
            FrameSender {
                queue: Rc::clone(&queue),
            },
            queue,
        )
    }

    /// Waits until frames are queued, then exchanges the queue's vectors
    /// for the caller's (which must be empty). `false` once every sender is
    /// gone and nothing is queued.
    async fn take(&self, bytes: &mut Vec<u8>, lens: &mut Vec<usize>) -> bool {
        poll_fn(|cx| {
            let mut out = self.out.borrow_mut();
            if !out.lens.is_empty() {
                std::mem::swap(&mut out.bytes, bytes);
                std::mem::swap(&mut out.lens, lens);
                return Poll::Ready(true);
            }
            if out.senders == 0 {
                return Poll::Ready(false);
            }
            out.writer = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }

    /// Refuses further sends and gives back the permits of frames still
    /// queued.
    fn close(&self) {
        let mut out = self.out.borrow_mut();
        out.closed = true;
        for _ in out.lens.drain(..) {
            self.budget.release();
        }
        out.bytes = Vec::new();
    }
}

/// Queues frames toward one connection's writer task, enforcing both the
/// per-connection bound and the endpoint's budget. Any number may exist for
/// one connection: its reader answers keepalive through one, its owner
/// routes messages through another.
pub(crate) struct FrameSender {
    queue: Rc<SendQueue>,
}

impl FrameSender {
    pub(crate) fn send(&self, msg: &OfMessage) -> Result<(), SendError> {
        let queue = &*self.queue;
        if !queue.budget.try_acquire() {
            queue.counters.record_budget_exhausted();
            return Err(SendError::Backpressure);
        }
        let queued = {
            let mut guard = queue.out.borrow_mut();
            let out = &mut *guard;
            if out.closed {
                Err(SendError::Closed)
            } else if out.lens.len() >= queue.cap {
                Err(SendError::Backpressure)
            } else {
                match wire::try_encode_into(msg, &mut out.bytes) {
                    Ok(len) => {
                        out.lens.push(len);
                        Ok((out.lens.len(), out.writer.take()))
                    }
                    Err(_) => Err(SendError::Oversize),
                }
            }
        };
        match queued {
            Ok((depth, writer)) => {
                queue.counters.observe_queue_depth(depth);
                if let Some(writer) = writer {
                    writer.wake();
                }
                Ok(())
            }
            Err(refused) => {
                queue.budget.release();
                match refused {
                    SendError::Backpressure => {
                        queue.counters.record_send_blocked();
                        queue.counters.observe_queue_depth(queue.cap);
                    }
                    SendError::Oversize => queue.counters.record_send_oversize(),
                    SendError::Closed => {}
                }
                Err(refused)
            }
        }
    }
}

impl Clone for FrameSender {
    fn clone(&self) -> FrameSender {
        self.queue.out.borrow_mut().senders += 1;
        FrameSender {
            queue: Rc::clone(&self.queue),
        }
    }
}

impl Drop for FrameSender {
    fn drop(&mut self) {
        let writer = {
            let mut out = self.queue.out.borrow_mut();
            out.senders -= 1;
            if out.senders > 0 {
                return;
            }
            out.writer.take()
        };
        if let Some(writer) = writer {
            writer.wake();
        }
    }
}

/// One connection's writer: takes everything that is queued — it never
/// waits for more — and hands the socket one `write_all`, so a burst of
/// replies costs one syscall, not one per frame. What it takes is at most
/// [`ChannelConfig::send_queue_cap`] frames, and no longer counts against
/// that bound. Every frame still gives back its own [`SendBudget`] permit
/// after the write and, once written, is counted on its own, in queue order.
async fn write_loop(queue: Rc<SendQueue>, mut write_half: tokio::net::OwnedWriteHalf) {
    // This pair and the queue's change places on every write; all four
    // vectors stay unallocated until the first frame, so an idle connection
    // costs nothing.
    let mut bytes: Vec<u8> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    while queue.take(&mut bytes, &mut lens).await {
        let result = write_half.write_all(&bytes).await;
        for len in lens.drain(..) {
            queue.budget.release();
            if result.is_ok() {
                queue.counters.record_frame_out(len);
            }
        }
        bytes.clear();
        if result.is_err() {
            // Make sure the reader notices too.
            let _ = write_half.shutdown_now(Shutdown::Both);
            break;
        }
    }
    queue.close();
}

/// The socket and the receive clock a connection's reader shares with the
/// session's owner.
struct Link {
    socket: std::net::TcpStream,
    /// When the last frame arrived; at first, when the connection opened.
    last_rx: Cell<Instant>,
}

impl Link {
    fn close(&self) {
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

/// An owner's handle on one open connection: sends, keepalive, teardown.
pub(crate) struct Conn {
    sender: FrameSender,
    link: Rc<Link>,
    last_echo: Instant,
    timed_out: bool,
}

impl Conn {
    /// Queues `msg` toward the peer. A refused frame is dropped, never
    /// retried here: the counters record each backpressure rejection and
    /// each oversize refusal, and the peer observes the gap the way it
    /// would observe loss on a congested channel.
    pub(crate) fn send(&self, msg: &OfMessage) -> Result<(), SendError> {
        self.sender.send(msg)
    }

    /// Shuts the socket down. The reader observes it and ends, which is
    /// what tells the owner the connection is gone — exactly once.
    pub(crate) fn close(&self) {
        self.link.close();
    }

    /// The periodic keepalive duty: probes the peer when
    /// [`ChannelConfig::echo_interval`] has passed since the last probe, and
    /// closes the connection — once — when nothing has arrived for
    /// [`ChannelConfig::liveness_timeout`].
    pub(crate) fn keepalive(
        &mut self,
        cfg: &ChannelConfig,
        xid: &mut u32,
        counters: &ChannelCounters,
    ) {
        if self.last_echo.elapsed() >= cfg.echo_interval {
            self.last_echo = Instant::now();
            *xid = xid.wrapping_add(1);
            let _ = self.send(&OfMessage::new(
                Xid(*xid),
                OfBody::EchoRequest(Bytes::new()),
            ));
        }
        let idle = self.link.last_rx.get().elapsed();
        if !self.timed_out && idle >= cfg.liveness_timeout {
            self.timed_out = true;
            counters.record_keepalive_timeout();
            self.close();
        }
    }
}

/// The read side of one connection. Dropping it shuts the socket down,
/// which also unblocks a writer stuck mid-write and ends the peer's read.
pub(crate) struct FrameReader {
    read_half: tokio::net::OwnedReadHalf,
    buf: BytesMut,
    /// How much of `buf` the frames decoded so far span; consumed before
    /// the next read.
    at: usize,
    chunk: Vec<u8>,
    link: Rc<Link>,
    echo: FrameSender,
    counters: Arc<ChannelCounters>,
}

impl FrameReader {
    /// The next inbound message that is not keepalive. `None` once the
    /// stream has ended, failed, or carried bytes that do not decode — the
    /// stream cannot be trusted past that point, so the error is counted
    /// and the connection is over.
    pub(crate) async fn next(&mut self) -> Option<OfMessage> {
        loop {
            match wire::decode_frame(&self.buf[self.at..]) {
                Ok(Some((msg, len))) => {
                    // The first frame of each read stamps the receive clock.
                    if self.at == 0 {
                        self.link.last_rx.set(Instant::now());
                    }
                    self.at += len;
                    // Counted at the length the peer wrote, not the length
                    // of what the message needed of it.
                    self.counters.record_frame_in(len);
                    match msg.body {
                        OfBody::EchoRequest(data) => {
                            let _ = self
                                .echo
                                .send(&OfMessage::new(msg.xid, OfBody::EchoReply(data)));
                        }
                        OfBody::EchoReply(_) => {}
                        _ => return Some(msg),
                    }
                    continue;
                }
                Ok(None) => self.buf.advance(std::mem::take(&mut self.at)),
                Err(_) => {
                    self.counters.record_decode_error();
                    return None;
                }
            }
            match self.read_half.read(&mut self.chunk).await {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
            }
        }
    }
}

impl Drop for FrameReader {
    fn drop(&mut self) {
        self.link.close();
    }
}

/// Takes over a handshaken stream: starts its writer task on the current
/// runtime and returns the owner's handle and the reader, which the calling
/// task drives ([`Shared::serve`] does, for the endpoints). `residue` is
/// whatever the handshake over-read past its last frame — the reader starts
/// from it, so coalesced post-handshake messages are not lost.
///
/// # Errors
///
/// Fails when the socket cannot be duplicated for its second half.
pub(crate) fn open(
    stream: tokio::net::TcpStream,
    residue: BytesMut,
    cfg: &ChannelConfig,
    budget: &Rc<SendBudget>,
    counters: &Arc<ChannelCounters>,
) -> io::Result<(Conn, FrameReader)> {
    let link = Rc::new(Link {
        socket: stream.try_clone_std()?,
        last_rx: Cell::new(Instant::now()),
    });
    let (read_half, write_half) = stream.into_split()?;
    let (sender, queue) =
        SendQueue::new(cfg.send_queue_cap, Rc::clone(budget), Arc::clone(counters));
    tokio::spawn(write_loop(queue, write_half));
    let reader = FrameReader {
        read_half,
        buf: residue,
        at: 0,
        chunk: vec![0u8; READ_CHUNK],
        link: Rc::clone(&link),
        echo: sender.clone(),
        counters: Arc::clone(counters),
    };
    let conn = Conn {
        sender,
        link,
        last_echo: Instant::now(),
        timed_out: false,
    };
    Ok((conn, reader))
}

/// What the connection tasks of one endpoint share; `E` is what the queue
/// of the endpoint's owner carries.
pub(crate) struct Shared<E> {
    pub(crate) cfg: ChannelConfig,
    pub(crate) counters: Arc<ChannelCounters>,
    budget: Rc<SendBudget>,
    events: mpsc::Sender<E>,
    keys: Cell<u64>,
}

impl<E> Shared<E> {
    /// `budget` bounds the frames queued across all of the endpoint's
    /// connections.
    pub(crate) fn new(
        cfg: ChannelConfig,
        counters: Arc<ChannelCounters>,
        budget: usize,
        events: mpsc::Sender<E>,
    ) -> Rc<Shared<E>> {
        Rc::new(Shared {
            cfg,
            counters,
            budget: SendBudget::new(budget),
            events,
            keys: Cell::new(0),
        })
    }

    /// Runs one handshaken stream to completion under a fresh key, telling
    /// the owner — in this order — that it is connected, each message its
    /// reader yields (`Some`), and exactly once that it is closed (`None`).
    /// A stream that cannot be opened is a counted connect failure, reported
    /// as closed only. Returns `false` when the owner is gone.
    pub(crate) async fn serve(
        &self,
        stream: tokio::net::TcpStream,
        residue: BytesMut,
        connected: impl FnOnce(u64, Conn) -> E,
        inbound: impl Fn(u64, Option<OfMessage>) -> E,
    ) -> bool {
        let key = self.keys.replace(self.keys.get() + 1);
        let Ok((conn, mut reader)) = open(stream, residue, &self.cfg, &self.budget, &self.counters)
        else {
            self.counters.record_connect_failure();
            return self.events.send(inbound(key, None)).await.is_ok();
        };
        if self.events.send(connected(key, conn)).await.is_err() {
            return false;
        }
        while let Some(msg) = reader.next().await {
            if self.events.send(inbound(key, Some(msg))).await.is_err() {
                return false;
            }
        }
        drop(reader);
        self.events.send(inbound(key, None)).await.is_ok()
    }
}

/// Accepts on the controller's `listener` for as long as its runtime lives.
/// Every dial is handed to a task of its own (`serve`), so a peer that
/// connects and then says nothing holds up nobody else.
pub(crate) async fn accept_each<F>(
    listener: std::net::TcpListener,
    serve: impl Fn(tokio::net::TcpStream) -> F,
) where
    F: Future<Output = ()> + 'static,
{
    let Ok(listener) = tokio::net::TcpListener::from_std(listener) else {
        return;
    };
    loop {
        let Ok((stream, _peer)) = listener.accept().await else {
            // Transient accept errors (e.g. fd pressure): back off briefly.
            tokio::time::sleep(Duration::from_millis(10)).await;
            continue;
        };
        let _ = stream.set_nodelay(true);
        tokio::spawn(serve(stream));
    }
}

/// The switch side of every session: dials the controller at `addr` within
/// [`ChannelConfig::connect_timeout`] and answers its handshake as
/// `features`. Returns the stream and the handshake's over-read residue.
pub(crate) async fn dial(
    addr: SocketAddr,
    features: &FeaturesReply,
    cfg: &ChannelConfig,
) -> Result<(tokio::net::TcpStream, BytesMut), HandshakeError> {
    let connect = tokio::net::TcpStream::connect(addr);
    let mut stream = tokio::time::timeout(cfg.connect_timeout, connect)
        .await
        .map_err(|_| HandshakeError::Timeout)??;
    stream.set_nodelay(true)?;
    let residue = handshake::accept_async(&mut stream, features, cfg).await?;
    Ok((stream, residue))
}

#[cfg(test)]
impl Conn {
    /// A handle nobody serves: no writer, no reader. What is sent through
    /// it piles up in the returned queue.
    pub(crate) fn unserved(
        cap: usize,
        budget: &Rc<SendBudget>,
        counters: &Arc<ChannelCounters>,
    ) -> (Conn, Rc<SendQueue>) {
        let (sender, queue) = SendQueue::new(cap, Rc::clone(budget), Arc::clone(counters));
        let conn = Conn {
            sender,
            link: Rc::new(Link {
                socket: tests::socket_pair().0,
                last_rx: Cell::new(Instant::now()),
            }),
            last_echo: Instant::now(),
            timed_out: false,
        };
        (conn, queue)
    }
}

#[cfg(test)]
impl SendQueue {
    /// Empties the queue and decodes what was in it.
    pub(crate) fn drain_decoded(&self) -> Vec<OfMessage> {
        let mut out = self.out.borrow_mut();
        out.lens.clear();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&std::mem::take(&mut out.bytes));
        wire::decode_frames(&mut buf).expect("well-formed frames")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    use ofproto::actions::Action;
    use ofproto::flow_match::OfMatch;
    use ofproto::flow_mod::FlowMod;
    use ofproto::messages::{PacketIn, PacketInReason, PacketOut};
    use ofproto::types::{DatapathId, PortNo};
    use proptest::prelude::*;

    const BODY: usize = 16 * 1024;
    const FRAME: usize = wire::OFP_HEADER_LEN + BODY;

    /// One accepted connection with [`write_loop`]'s inputs laid out, the
    /// writer not yet started: frames sent now pile up in the queue. The
    /// writer runs on the test's thread, inside `block_on`; the peer reads
    /// with blocking calls on a helper thread ([`peer_reads`]).
    struct Rig {
        rt: tokio::runtime::Runtime,
        peer: std::net::TcpStream,
        sender: FrameSender,
        queue: Rc<SendQueue>,
        read_half: tokio::net::OwnedReadHalf,
        write_half: tokio::net::OwnedWriteHalf,
    }

    pub(super) fn socket_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (peer, server)
    }

    /// `cap` frames of queue, `permits` of endpoint-wide budget.
    fn rig(cap: usize, permits: usize) -> Rig {
        let rt = runtime();
        let (peer, server) = socket_pair();
        let (read_half, write_half) = rt
            .block_on(async { tokio::net::TcpStream::from_std(server)?.into_split() })
            .expect("register");
        let (sender, queue) = SendQueue::new(
            cap,
            SendBudget::new(permits),
            Arc::new(ChannelCounters::new()),
        );
        Rig {
            rt,
            peer,
            sender,
            queue,
            read_half,
            write_half,
        }
    }

    /// Reads `count` frames off `peer` on a thread of its own.
    fn peer_reads(
        mut peer: std::net::TcpStream,
        count: usize,
    ) -> std::thread::JoinHandle<Vec<OfMessage>> {
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        std::thread::spawn(move || read_frames(&mut peer, count))
    }

    /// Runs the runtime's tasks until `thread` has finished.
    async fn until_finished<T>(thread: &std::thread::JoinHandle<T>) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !thread.is_finished() {
            assert!(Instant::now() < deadline, "the peer never finished");
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    fn frame(i: usize) -> OfMessage {
        let body = Bytes::from(vec![i as u8; BODY]);
        OfMessage::new(Xid(i as u32), OfBody::EchoRequest(body))
    }

    fn permits(queue: &SendQueue) -> usize {
        queue.budget.permits.get()
    }

    /// Reads frames off `peer` until `count` have arrived.
    fn read_frames(peer: &mut std::net::TcpStream, count: usize) -> Vec<OfMessage> {
        let mut buf = BytesMut::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut msgs = Vec::new();
        while msgs.len() < count {
            let n = peer.read(&mut chunk).expect("read");
            assert!(n > 0, "stream ended after {} frames", msgs.len());
            buf.extend_from_slice(&chunk[..n]);
            msgs.extend(wire::decode_frames(&mut buf).expect("well-formed frames"));
        }
        assert!(buf.is_empty(), "bytes beyond the last frame");
        msgs
    }

    #[test]
    fn stalled_peer_gets_every_frame_in_order_and_the_budget_refills() {
        // 16 MiB: far more than a socket pair buffers for a peer that is
        // not reading, so the writer stalls inside a batch.
        const FRAMES: usize = 1024;
        let Rig {
            rt,
            peer,
            sender,
            queue,
            read_half: _read_half,
            write_half,
        } = rig(FRAMES, FRAMES);
        for i in 0..FRAMES {
            sender.send(&frame(i)).expect("queue holds every frame");
        }
        assert_eq!(permits(&queue), 0);
        // With every sender gone the writer ends once it has written all.
        drop(sender);
        let reads = peer_reads(peer, FRAMES);
        rt.block_on(write_loop(Rc::clone(&queue), write_half));

        for (i, msg) in reads.join().expect("peer").iter().enumerate() {
            assert_eq!(*msg, frame(i), "frame {i} out of order or damaged");
        }
        let snap = queue.counters.snapshot();
        assert_eq!(snap.frames_out, FRAMES as u64);
        assert_eq!(snap.bytes_out, (FRAMES * FRAME) as u64);
        assert_eq!(permits(&queue), FRAMES);
    }

    #[test]
    fn peer_reset_mid_batch_leaks_no_permit_and_ends_the_reader() {
        const PERMITS: usize = 256;
        let Rig {
            rt,
            mut peer,
            sender,
            queue,
            mut read_half,
            write_half,
        } = rig(PERMITS, PERMITS);
        // Queued before the writer starts: its first write is a batch.
        let mut accepted = 0u64;
        for i in 0..PERMITS {
            sender
                .send(&frame(i))
                .expect("queue holds the first frames");
            accepted += 1;
        }
        let writer = rt.spawn(write_loop(Rc::clone(&queue), write_half));
        // One frame read proves the writer is under way; then the peer
        // vanishes with the rest unread.
        let vanish = std::thread::spawn(move || {
            let mut first = vec![0u8; FRAME];
            peer.read_exact(&mut first).expect("first frame");
        });

        // Keep frames coming until the writer has hit the dead socket and
        // closed its queue, however much the kernel buffered before that.
        rt.block_on(async {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match sender.send(&frame(0)) {
                    Ok(()) => accepted += 1,
                    Err(SendError::Backpressure) => tokio::task::yield_now().await,
                    Err(SendError::Closed) => break,
                    Err(SendError::Oversize) => unreachable!("every frame here fits"),
                }
                assert!(Instant::now() < deadline, "writer never noticed the reset");
            }
            writer.await.expect("writer panicked");
        });
        vanish.join().expect("peer");

        // Written, failed and stranded frames all gave their permits back,
        // while a sender is still alive.
        assert_eq!(permits(&queue), PERMITS);
        assert_eq!(sender.send(&frame(0)), Err(SendError::Closed));
        assert_eq!(permits(&queue), PERMITS);
        let snap = queue.counters.snapshot();
        assert!(
            snap.frames_out < accepted,
            "the failed batch is not counted"
        );
        assert_eq!(snap.bytes_out, snap.frames_out * FRAME as u64);

        // The reader's half of the socket is shut down with it.
        let mut byte = [0u8; 1];
        let read = rt.block_on(tokio::time::timeout(
            Duration::from_secs(5),
            read_half.read(&mut byte),
        ));
        assert!(
            matches!(read, Ok(Ok(0) | Err(_))),
            "reader still blocked or fed: {read:?}"
        );
    }

    #[test]
    fn the_bound_is_on_queued_frames_and_an_idle_queue_owns_no_buffer() {
        const CAP: usize = 8;
        let Rig {
            rt,
            peer,
            sender,
            queue,
            read_half: _read_half,
            write_half,
        } = rig(CAP, 4 * CAP);
        {
            let out = queue.out.borrow();
            assert_eq!((out.bytes.capacity(), out.lens.capacity()), (0, 0));
        }
        for i in 0..CAP {
            sender.send(&frame(i)).expect("up to the cap is accepted");
        }
        assert_eq!(sender.send(&frame(CAP)), Err(SendError::Backpressure));
        let snap = queue.counters.snapshot();
        assert_eq!((snap.sends_blocked, snap.budget_exhausted), (1, 0));
        assert_eq!(snap.send_queue_hwm, CAP as u64);
        assert_eq!(permits(&queue), 3 * CAP, "the refused frame holds none");

        // Frames the writer has taken no longer count: with the peer not
        // reading yet, a second capful is accepted as soon as the first is
        // in the writer's hands.
        let writer = rt.spawn(write_loop(Rc::clone(&queue), write_half));
        rt.block_on(async {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut sent = CAP;
            while sent < 2 * CAP {
                match sender.send(&frame(sent)) {
                    Ok(()) => sent += 1,
                    Err(SendError::Backpressure) => tokio::task::yield_now().await,
                    Err(SendError::Closed) => panic!("writer stopped"),
                    Err(SendError::Oversize) => unreachable!("every frame here fits"),
                }
                assert!(Instant::now() < deadline, "writer never took the queue");
            }
        });
        let reads = peer_reads(peer, 2 * CAP);
        drop(sender);
        rt.block_on(writer).expect("writer panicked");
        for (i, msg) in reads.join().expect("peer").iter().enumerate() {
            assert_eq!(*msg, frame(i));
        }
        assert_eq!(queue.counters.snapshot().frames_out, 2 * CAP as u64);
        assert_eq!(permits(&queue), 4 * CAP);
    }

    #[test]
    fn two_producers_share_one_queue_and_a_lone_frame_leaves_at_once() {
        const EACH: usize = 200;
        let Rig {
            rt,
            peer,
            sender,
            queue,
            read_half: _read_half,
            write_half,
        } = rig(2 * EACH + 1, 2 * EACH + 1);
        let writer = rt.spawn(write_loop(Rc::clone(&queue), write_half));

        // Nothing else is queued and nothing follows: the writer must not
        // be waiting for company.
        let reads = peer_reads(peer.try_clone().expect("clone"), 1);
        sender.send(&frame(7)).expect("lone frame");
        rt.block_on(until_finished(&reads));
        assert_eq!(reads.join().expect("peer"), vec![frame(7)]);

        // The reader task's echo replies and the control loop's messages,
        // two tasks on the writer's thread taking turns: one queue,
        // released together.
        let tagged = |tag: u32, i: usize| {
            OfMessage::new(Xid(tag << 16 | i as u32), OfBody::EchoReply(Bytes::new()))
        };
        let reads = peer_reads(peer, 2 * EACH);
        let producers = [(1, sender.clone()), (2, sender)].map(|(tag, sender)| {
            rt.spawn(async move {
                for i in 0..EACH {
                    sender.send(&tagged(tag, i)).expect("room");
                    tokio::task::yield_now().await;
                }
            })
        });
        rt.block_on(async {
            for producer in producers {
                producer.await.expect("producer");
            }
            // With both senders gone the writer ends once it has drained.
            writer.await.expect("writer panicked");
        });
        let got = reads.join().expect("peer");
        // Whole frames only, and each producer's in its own order.
        for tag in [1, 2] {
            let mine: Vec<&OfMessage> = got.iter().filter(|m| m.xid.0 >> 16 == tag).collect();
            assert_eq!(mine.len(), EACH);
            for (i, msg) in mine.into_iter().enumerate() {
                assert_eq!(*msg, tagged(tag, i));
            }
        }
        assert_eq!(permits(&queue), 2 * EACH + 1);
    }

    // Whole connections: both ends opened the way the endpoints open them.

    fn runtime() -> tokio::runtime::Runtime {
        tokio::runtime::Runtime::new().expect("runtime")
    }

    struct End {
        conn: Conn,
        reader: FrameReader,
        counters: Arc<ChannelCounters>,
        budget: Rc<SendBudget>,
    }

    const PERMITS: usize = 64;

    /// A controller-side and a switch-side end of one handshaken socket,
    /// each with counters and a budget of its own.
    async fn ends(cfg: ChannelConfig) -> (End, End) {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0")
            .await
            .expect("bind");
        let addr = listener.local_addr().expect("addr");
        let features = FeaturesReply {
            datapath_id: DatapathId(5),
            n_buffers: 0,
            n_tables: 1,
            ports: Vec::new(),
        };
        let switch_side = tokio::spawn(async move {
            let (stream, residue) = dial(addr, &features, &cfg).await.expect("dial");
            end(stream, residue, &cfg)
        });
        let (mut stream, _) = listener.accept().await.expect("accept");
        let (_, residue) = handshake::initiate_async(&mut stream, &cfg)
            .await
            .expect("initiator");
        let controller_side = end(stream, residue, &cfg);
        (controller_side, switch_side.await.expect("switch side"))
    }

    fn end(stream: tokio::net::TcpStream, residue: BytesMut, cfg: &ChannelConfig) -> End {
        let counters = Arc::new(ChannelCounters::new());
        let budget = SendBudget::new(PERMITS);
        let (conn, reader) = open(stream, residue, cfg, &budget, &counters).expect("open");
        End {
            conn,
            reader,
            counters,
            budget,
        }
    }

    fn barrier(xid: u32) -> OfMessage {
        OfMessage::new(Xid(xid), OfBody::BarrierRequest)
    }

    #[test]
    fn messages_cross_the_wire() {
        let rt = runtime();
        rt.block_on(async {
            let (a, mut b) = ends(ChannelConfig::default()).await;
            a.conn.send(&barrier(7)).expect("room");
            let got = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
            assert_eq!(got, Ok(Some(barrier(7))));
            assert_eq!(b.counters.snapshot().frames_in, 1);
            // The writer counts a frame once the socket has taken it.
            let deadline = Instant::now() + Duration::from_secs(5);
            while a.counters.snapshot().frames_out < 1 {
                assert!(Instant::now() < deadline, "frame never counted out");
                tokio::time::sleep(Duration::from_millis(1)).await;
            }

            // Closing one end ends the other's reader.
            a.conn.close();
            let got = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
            assert_eq!(got, Ok(None));
        });
    }

    /// The reader answers keepalive itself, with the probe's xid and
    /// payload, and hands none of it to the owner.
    #[test]
    fn the_reader_answers_echo_and_keeps_keepalive_to_itself() {
        let rt = runtime();
        rt.block_on(async {
            let (mut a, mut b) = ends(ChannelConfig::default()).await;
            let probe = OfMessage::new(Xid(31), OfBody::EchoRequest(Bytes::from_static(b"hi")));
            a.conn.send(&probe).expect("room");
            a.conn.send(&barrier(32)).expect("room");
            // B's owner sees only the barrier; by then the echo is answered.
            let got = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
            assert_eq!(got, Ok(Some(barrier(32))));
            assert_eq!(b.counters.snapshot().frames_in, 2);
            // The reply reaches A's reader, which keeps it too: the next
            // thing A's owner sees is B's barrier, sent after it.
            b.conn.send(&barrier(33)).expect("room");
            let got = tokio::time::timeout(Duration::from_secs(5), a.reader.next()).await;
            assert_eq!(got, Ok(Some(barrier(33))));
            let snap = a.counters.snapshot();
            assert_eq!((snap.frames_in, snap.bytes_in), (2, 8 + 2 + 8));
        });
    }

    /// Garbage after the handshake, at either end: one decode error, the
    /// connection is over for reader and writer both, and the dead end's
    /// budget is whole again.
    #[test]
    fn garbage_bytes_count_and_close() {
        let rt = runtime();
        rt.block_on(async {
            for victim_is_controller in [true, false] {
                let (a, b) = ends(ChannelConfig::default()).await;
                let (mut victim, peer) = if victim_is_controller { (a, b) } else { (b, a) };
                // A frame in the victim's queue's hands when the garbage
                // lands must not strand its permit either.
                victim.conn.send(&barrier(1)).expect("room");
                (&peer.conn.link.socket)
                    .write_all(&[0xde; 64])
                    .expect("raw write");
                let got = tokio::time::timeout(Duration::from_secs(5), victim.reader.next()).await;
                assert_eq!(got, Ok(None), "the reader gives up on the stream");
                assert_eq!(victim.counters.snapshot().decode_errors, 1);
                drop(victim.reader);

                let deadline = Instant::now() + Duration::from_secs(5);
                while victim.conn.send(&barrier(2)) != Err(SendError::Closed) {
                    assert!(Instant::now() < deadline, "writer never closed its queue");
                    tokio::time::sleep(Duration::from_millis(1)).await;
                }
                assert_eq!(victim.budget.permits.get(), PERMITS);
                assert_eq!(peer.counters.snapshot().decode_errors, 0);
            }
        });
    }

    /// The packet_out that forwards an unbuffered packet_in as large as a
    /// frame can carry is 6 bytes too long for one frame: the sender
    /// refuses and counts it, and the session carries on with nothing
    /// broken on the wire.
    #[test]
    fn an_oversize_message_is_refused_and_the_session_stays_up() {
        let rt = runtime();
        rt.block_on(async {
            let (a, mut b) = ends(ChannelConfig::default()).await;
            let data = Bytes::from(vec![0xab; wire::MAX_FRAME_LEN - wire::OFP_HEADER_LEN - 10]);
            let forward = OfMessage::new(
                Xid(1),
                OfBody::PacketOut(PacketOut {
                    buffer_id: None,
                    in_port: PortNo::Physical(1),
                    actions: vec![Action::Output(PortNo::Flood)],
                    data: Some(data),
                }),
            );
            assert_eq!(a.conn.send(&forward), Err(SendError::Oversize));
            assert_eq!(a.budget.permits.get(), PERMITS, "a refusal holds no permit");
            a.conn.send(&barrier(2)).expect("room");
            let got = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
            assert_eq!(got, Ok(Some(barrier(2))));
            let sent = a.counters.snapshot();
            assert_eq!((sent.sends_oversize, sent.sends_blocked), (1, 0));
            let seen = b.counters.snapshot();
            assert_eq!(
                (seen.frames_in, seen.bytes_in, seen.decode_errors),
                (1, 8, 0)
            );
        });
    }

    /// A frame whose header declares body bytes its message does not need
    /// is counted at the length the peer wrote.
    #[test]
    fn a_frame_is_counted_at_its_declared_length() {
        let rt = runtime();
        rt.block_on(async {
            let (a, mut b) = ends(ChannelConfig::default()).await;
            let mut frame = wire::encode(&barrier(9)).to_vec();
            frame[3] += 4;
            frame.extend_from_slice(&[0xee; 4]);
            frame.extend_from_slice(&wire::encode(&barrier(10)));
            (&a.conn.link.socket).write_all(&frame).expect("raw write");
            for xid in [9, 10] {
                let got = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
                assert_eq!(got, Ok(Some(barrier(xid))));
            }
            let snap = b.counters.snapshot();
            assert_eq!((snap.frames_in, snap.bytes_in), (2, 12 + 8));
        });
    }

    /// Messages the reader hands its owner and keepalive it keeps.
    fn arb_message() -> impl Strategy<Value = OfMessage> {
        let data =
            |max: usize| proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from);
        prop_oneof![
            any::<u32>().prop_map(barrier),
            (any::<u32>(), data(64))
                .prop_map(|(xid, data)| OfMessage::new(Xid(xid), OfBody::EchoRequest(data))),
            (any::<u32>(), data(64))
                .prop_map(|(xid, data)| OfMessage::new(Xid(xid), OfBody::EchoReply(data))),
            (any::<u32>(), 1u16..64, data(3000)).prop_map(|(xid, port, data)| {
                OfMessage::new(
                    Xid(xid),
                    OfBody::PacketIn(PacketIn {
                        buffer_id: None,
                        total_len: data.len() as u16,
                        in_port: PortNo::Physical(port),
                        reason: PacketInReason::NoMatch,
                        data,
                    }),
                )
            }),
            (any::<u32>(), 1u16..64, any::<u64>()).prop_map(|(xid, port, cookie)| {
                let mut fm =
                    FlowMod::add(OfMatch::any(), vec![Action::Output(PortNo::Physical(port))]);
                fm.cookie = cookie;
                OfMessage::new(Xid(xid), OfBody::FlowMod(fm))
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Encoded messages written in pieces cut anywhere come out of the
        /// reader whole and in order, keepalive kept back, and every byte
        /// written is counted in.
        #[test]
        fn the_reader_yields_what_was_written_however_the_stream_is_cut(
            msgs in proptest::collection::vec(arb_message(), 1..12),
            cuts in proptest::collection::vec(any::<u16>(), 0..12),
        ) {
            let mut stream = Vec::new();
            for msg in &msgs {
                wire::encode_into(msg, &mut stream);
            }
            // A last barrier: once it is out, every frame before it is in.
            let last = barrier(u32::MAX);
            wire::encode_into(&last, &mut stream);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % stream.len()).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut owned: Vec<OfMessage> = msgs
                .iter()
                .filter(|m| !matches!(m.body, OfBody::EchoRequest(_) | OfBody::EchoReply(_)))
                .cloned()
                .collect();
            owned.push(last);
            let written = stream.len() as u64;

            let rt = runtime();
            let (got, snap) = rt.block_on(async {
                let (a, mut b) = ends(ChannelConfig::default()).await;
                let writer = tokio::spawn(async move {
                    let mut fed = 0;
                    for cut in cuts {
                        (&a.conn.link.socket)
                            .write_all(&stream[fed..cut])
                            .expect("raw write");
                        fed = cut;
                        // The reader takes this piece before the next lands.
                        tokio::time::sleep(Duration::from_micros(50)).await;
                    }
                    a
                });
                let mut got = Vec::new();
                while got.len() < owned.len() {
                    let next = tokio::time::timeout(Duration::from_secs(5), b.reader.next()).await;
                    got.push(next.expect("in time").expect("the stream stays open"));
                }
                drop(writer.await.expect("writer"));
                (got, b.counters.snapshot())
            });
            prop_assert_eq!(&got, &owned);
            prop_assert_eq!(snap.frames_in, msgs.len() as u64 + 1);
            prop_assert_eq!(snap.bytes_in, written);
            prop_assert_eq!(snap.decode_errors, 0);
        }
    }

    #[test]
    fn full_queue_reports_backpressure() {
        let rt = runtime();
        rt.block_on(async {
            // The peer's reader is never driven, so once the kernel buffers
            // are full the writer stalls and the tiny queue overflows.
            let cfg = ChannelConfig::default().with_send_queue_cap(4);
            let (a, _b) = ends(cfg).await;
            let big = OfMessage::new(
                Xid(1),
                OfBody::EchoRequest(Bytes::from(vec![0u8; 32 * 1024])),
            );
            let mut saw_backpressure = false;
            for _ in 0..4096 {
                match a.conn.send(&big) {
                    Ok(()) => tokio::time::sleep(Duration::from_micros(50)).await,
                    Err(SendError::Backpressure) => {
                        saw_backpressure = true;
                        break;
                    }
                    Err(SendError::Closed) => panic!("connection closed"),
                    Err(SendError::Oversize) => unreachable!("every frame here fits"),
                }
            }
            assert!(saw_backpressure, "queue never filled");
            let snap = a.counters.snapshot();
            assert!(snap.sends_blocked >= 1);
            assert_eq!(snap.send_queue_hwm, 4);
        });
    }

    /// A silent peer is probed, then declared dead exactly once; the close
    /// is what ends the reader.
    #[test]
    fn keepalive_probes_then_times_a_silent_peer_out_once() {
        let rt = runtime();
        rt.block_on(async {
            let cfg = ChannelConfig::default()
                .with_echo_interval(Duration::from_millis(10))
                .with_liveness_timeout(Duration::from_millis(60));
            // B's reader is never driven: A hears nothing back.
            let started = Instant::now();
            let (mut a, _b) = ends(cfg).await;
            let mut xid = 0u32;
            while a.counters.snapshot().keepalive_timeouts == 0 {
                a.conn.keepalive(&cfg, &mut xid, &a.counters);
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "never timed out"
                );
                tokio::time::sleep(Duration::from_millis(2)).await;
            }
            assert!(started.elapsed() >= cfg.liveness_timeout);
            assert!(xid >= 1, "gave up without ever probing");
            a.conn.keepalive(&cfg, &mut xid, &a.counters);
            assert_eq!(a.counters.snapshot().keepalive_timeouts, 1);
            let got = tokio::time::timeout(Duration::from_secs(5), a.reader.next()).await;
            assert_eq!(got, Ok(None));
        });
    }
}
