//! The generator's side of a control connection: it plays the switch (or
//! the cache device) over a raw `TcpStream`, speaking through
//! `ofchannel::handshake::accept` and `ofproto::wire` only.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use ofchannel::handshake;
use ofchannel::ChannelConfig;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::wire;

/// One switch-side (or device-side) connection to the endpoint under test.
pub struct Conn {
    stream: TcpStream,
    buf: BytesMut,
    chunk: Vec<u8>,
    /// Bytes read off the socket so far.
    pub bytes_in: u64,
    /// Frames decoded so far (keepalive included).
    pub frames_in: u64,
}

impl Conn {
    /// Dials `addr` over loopback and completes the HELLO/FEATURES
    /// handshake as the peer `features` describes. Returns the connection
    /// and how long connect + handshake took.
    pub fn connect(addr: SocketAddr, features: &FeaturesReply) -> io::Result<(Conn, Duration)> {
        let t0 = Instant::now();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let buf = handshake::accept(&mut stream, features, &ChannelConfig::default())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let took = t0.elapsed();
        // The handshake leaves its last read timeout on the socket.
        stream.set_read_timeout(None)?;
        Ok((
            Conn {
                stream,
                buf,
                chunk: vec![0u8; 64 * 1024],
                bytes_in: 0,
                frames_in: 0,
            },
            took,
        ))
    }

    /// Blocking reads give up after `timeout` (`None`: never).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Switches the socket between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Writes one encoded frame (or several, back to back). On a
    /// non-blocking socket a full send buffer is waited out: the generator
    /// never drops its own offered load.
    pub fn send(&mut self, mut frame: &[u8]) -> io::Result<()> {
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => frame = &frame[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Encodes and writes `msg`.
    pub fn send_msg(&mut self, msg: &OfMessage) -> io::Result<()> {
        let frame = wire::encode(msg);
        self.send(&frame)
    }

    /// Reads once and returns every complete frame now buffered, keepalive
    /// probes answered and filtered out. An empty vector means the read
    /// timed out (or would block); a closed or undecodable stream is an
    /// error.
    pub fn recv(&mut self) -> io::Result<Vec<OfMessage>> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.bytes_in += n as u64;
                self.buf.extend_from_slice(&self.chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let mut msgs = wire::decode_frames(&mut self.buf)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        self.frames_in += msgs.len() as u64;
        let mut i = 0;
        while i < msgs.len() {
            match &msgs[i].body {
                OfBody::EchoRequest(data) => {
                    let reply = OfMessage::new(msgs[i].xid, OfBody::EchoReply(data.clone()));
                    self.send_msg(&reply)?;
                    msgs.remove(i);
                }
                OfBody::EchoReply(_) => {
                    msgs.remove(i);
                }
                _ => i += 1,
            }
        }
        Ok(msgs)
    }
}

/// Which requests are in flight and when each was sent: xids are handed
/// out in order, so a ring indexed by `xid % capacity` finds a request's
/// send time without hashing.
#[derive(Debug)]
pub struct XidBook {
    first: u32,
    next: u32,
    slots: Vec<Option<(u32, Instant)>>,
    in_flight: usize,
}

impl XidBook {
    /// A book for at most `window` requests in flight, xids from `first`.
    pub fn new(first: u32, window: usize) -> XidBook {
        XidBook {
            first,
            next: first,
            slots: vec![None; (window * 4).max(16)],
            in_flight: 0,
        }
    }

    /// Registers the next request as sent at `at`; returns its xid.
    pub fn send(&mut self, at: Instant) -> u32 {
        let xid = self.next;
        self.next = self.next.wrapping_add(1);
        let slot = xid as usize % self.slots.len();
        debug_assert!(self.slots[slot].is_none(), "window exceeds the ring");
        if self.slots[slot].replace((xid, at)).is_none() {
            self.in_flight += 1;
        }
        xid
    }

    /// The first reply to `xid` completes it and returns its send time;
    /// later replies to the same xid return `None`.
    pub fn complete(&mut self, xid: u32) -> Option<Instant> {
        let slot = xid as usize % self.slots.len();
        match self.slots[slot] {
            Some((x, at)) if x == xid => {
                self.slots[slot] = None;
                self.in_flight -= 1;
                Some(at)
            }
            _ => None,
        }
    }

    /// Whether `xid` is one this book handed out (in flight or completed).
    pub fn was_sent(&self, xid: u32) -> bool {
        xid.wrapping_sub(self.first) < self.next.wrapping_sub(self.first)
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Gives up on every request sent more than `limit` ago at `now`;
    /// returns how many were dropped.
    pub fn expire(&mut self, now: Instant, limit: Duration) -> usize {
        let mut expired = 0;
        for slot in &mut self.slots {
            if slot.is_some_and(|(_, at)| now.duration_since(at) >= limit) {
                *slot = None;
                expired += 1;
            }
        }
        self.in_flight -= expired;
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xid_book_tracks_first_reply_only() {
        let t0 = Instant::now();
        let mut book = XidBook::new(1000, 4);
        let a = book.send(t0);
        let b = book.send(t0 + Duration::from_millis(1));
        assert_eq!((a, b), (1000, 1001));
        assert_eq!(book.in_flight(), 2);
        assert_eq!(book.complete(b), Some(t0 + Duration::from_millis(1)));
        assert_eq!(book.complete(b), None, "second reply to the same xid");
        assert!(book.was_sent(a) && book.was_sent(b));
        assert!(!book.was_sent(999) && !book.was_sent(1002));
        assert_eq!(book.in_flight(), 1);
    }

    #[test]
    fn xid_book_expires_overdue_requests() {
        let t0 = Instant::now();
        let mut book = XidBook::new(u32::MAX - 1, 2);
        let old = book.send(t0);
        let wrapped = book.send(t0 + Duration::from_millis(900));
        let fresh = book.send(t0 + Duration::from_millis(1500));
        assert_eq!(
            (old, wrapped, fresh),
            (u32::MAX - 1, u32::MAX, 0),
            "xids wrap"
        );
        assert!(book.was_sent(0) && !book.was_sent(1));
        let now = t0 + Duration::from_millis(2000);
        assert_eq!(book.expire(now, Duration::from_secs(1)), 2);
        assert_eq!(book.in_flight(), 1);
        assert_eq!(book.complete(old), None, "expired requests stay failed");
        assert_eq!(book.complete(fresh), Some(t0 + Duration::from_millis(1500)));
    }
}
