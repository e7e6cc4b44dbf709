//! The OpenFlow 1.0 session handshake.
//!
//! Runs on the fresh stream before the connection's reader and writer take
//! over: `HELLO` exchange, then `FEATURES_REQUEST`/`FEATURES_REPLY`. The
//! features reply is the identity step — its `datapath_id` tells the
//! controller which switch (or, with [`crate::DEVICE_DPID_FLAG`], which
//! data-plane cache) it is talking to.
//!
//! The protocol is one state machine that does no I/O (`Handshake`): fed
//! the peer's bytes, it yields the bytes to send and, at the end, the
//! peer's features and whatever was over-read, so the connection's reader
//! can pick up exactly where the handshake stopped. It alone knows the
//! ordering rules; both sides tolerate reordering and keepalive probes
//! mid-handshake. Two drivers move its bytes: a blocking one over
//! `std::net` ([`initiate`], [`accept`] — what a plain-socket peer uses)
//! and an async one for the endpoints, which never park a runtime worker
//! on a silent peer.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::{Buf, BytesMut};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use ofproto::wire::{self, DecodeError};

use crate::config::ChannelConfig;

/// Why a handshake failed.
#[derive(Debug)]
pub enum HandshakeError {
    /// Socket error.
    Io(std::io::Error),
    /// The peer sent bytes that are not OpenFlow 1.0.
    Decode(DecodeError),
    /// The peer sent a valid but out-of-place message.
    Unexpected(&'static str),
    /// The peer went silent past the handshake budget.
    Timeout,
    /// The peer closed the stream mid-handshake.
    Eof,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::Decode(e) => write!(f, "handshake decode error: {e}"),
            HandshakeError::Unexpected(what) => {
                write!(f, "unexpected {what} during handshake")
            }
            HandshakeError::Timeout => f.write_str("handshake timed out"),
            HandshakeError::Eof => f.write_str("peer closed during handshake"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<std::io::Error> for HandshakeError {
    fn from(e: std::io::Error) -> HandshakeError {
        HandshakeError::Io(e)
    }
}

impl From<DecodeError> for HandshakeError {
    fn from(e: DecodeError) -> HandshakeError {
        HandshakeError::Decode(e)
    }
}

/// The HELLO/FEATURES exchange as seen from one side, free of I/O.
///
/// A driver writes `outbound` to the peer whenever it is not empty, clears
/// it, and passes what it reads to [`Handshake::feed`] until that returns
/// the outcome — after which `outbound` may hold one last frame to write.
pub(crate) struct Handshake<'a> {
    /// What a `FEATURES_REQUEST` is answered with. The initiating side has
    /// none: it asks, and completes on the peer's reply instead.
    features: Option<&'a FeaturesReply>,
    saw_hello: bool,
    inbound: BytesMut,
    outbound: Vec<u8>,
}

/// How a completed handshake ended: the peer's features (initiating side
/// only) and the bytes read past the last handshake frame.
type Outcome = (Option<FeaturesReply>, BytesMut);

impl<'a> Handshake<'a> {
    /// Controller side: opens with `HELLO` + `FEATURES_REQUEST`.
    pub(crate) fn initiator() -> Handshake<'a> {
        let mut machine = Handshake::opening(None);
        machine.queue(&OfMessage::new(Xid(1), OfBody::FeaturesRequest));
        machine
    }

    /// Switch/device side: opens with `HELLO`, answers the peer's
    /// `FEATURES_REQUEST` with `features`.
    pub(crate) fn acceptor(features: &'a FeaturesReply) -> Handshake<'a> {
        Handshake::opening(Some(features))
    }

    fn opening(features: Option<&'a FeaturesReply>) -> Handshake<'a> {
        let mut machine = Handshake {
            features,
            saw_hello: false,
            inbound: BytesMut::new(),
            outbound: Vec::new(),
        };
        machine.queue(&OfMessage::new(Xid(0), OfBody::Hello));
        machine
    }

    fn queue(&mut self, msg: &OfMessage) {
        wire::encode_into(msg, &mut self.outbound);
    }

    /// Takes bytes the peer sent. `Ok(None)` asks for more.
    ///
    /// # Errors
    ///
    /// [`HandshakeError::Decode`] for bytes that are not OpenFlow 1.0 and
    /// [`HandshakeError::Unexpected`] for a valid message out of place.
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> Result<Option<Outcome>, HandshakeError> {
        self.inbound.extend_from_slice(bytes);
        while let Some(len) = wire::frame_len(&self.inbound)? {
            if self.inbound.len() < len {
                break;
            }
            let msg = wire::decode(&self.inbound[..len])?;
            self.inbound.advance(len);
            match (msg.body, self.features) {
                (OfBody::Hello, _) => self.saw_hello = true,
                (OfBody::EchoRequest(data), _) => {
                    self.queue(&OfMessage::new(msg.xid, OfBody::EchoReply(data)));
                }
                (OfBody::FeaturesReply(theirs), None) => {
                    if !self.saw_hello {
                        return Err(HandshakeError::Unexpected("features_reply before hello"));
                    }
                    return Ok(Some((Some(theirs), std::mem::take(&mut self.inbound))));
                }
                (OfBody::FeaturesRequest, Some(mine)) => {
                    if !self.saw_hello {
                        return Err(HandshakeError::Unexpected("features_request before hello"));
                    }
                    self.queue(&OfMessage::new(
                        msg.xid,
                        OfBody::FeaturesReply(mine.clone()),
                    ));
                    return Ok(Some((None, std::mem::take(&mut self.inbound))));
                }
                _ => return Err(HandshakeError::Unexpected("message")),
            }
        }
        Ok(None)
    }
}

/// Controller side: sends `HELLO` + `FEATURES_REQUEST`, waits for the
/// peer's `FEATURES_REPLY`.
///
/// Returns the reply and any over-read bytes.
///
/// # Errors
///
/// Any [`HandshakeError`]; the stream should be discarded on failure.
pub fn initiate(
    stream: &mut TcpStream,
    config: &ChannelConfig,
) -> Result<(FeaturesReply, BytesMut), HandshakeError> {
    let (features, residue) = drive(stream, Handshake::initiator(), config)?;
    Ok((features.expect("the initiator ends on a reply"), residue))
}

/// Switch/device side: sends `HELLO`, answers the peer's
/// `FEATURES_REQUEST` with `features`.
///
/// Returns any over-read bytes.
///
/// # Errors
///
/// Any [`HandshakeError`]; the stream should be discarded on failure.
pub fn accept(
    stream: &mut TcpStream,
    features: &FeaturesReply,
    config: &ChannelConfig,
) -> Result<BytesMut, HandshakeError> {
    Ok(drive(stream, Handshake::acceptor(features), config)?.1)
}

/// [`initiate`] over an async stream.
pub(crate) async fn initiate_async(
    stream: &mut tokio::net::TcpStream,
    config: &ChannelConfig,
) -> Result<(FeaturesReply, BytesMut), HandshakeError> {
    let (features, residue) = drive_async(stream, Handshake::initiator(), config).await?;
    Ok((features.expect("the initiator ends on a reply"), residue))
}

/// [`accept`] over an async stream.
pub(crate) async fn accept_async(
    stream: &mut tokio::net::TcpStream,
    features: &FeaturesReply,
    config: &ChannelConfig,
) -> Result<BytesMut, HandshakeError> {
    Ok(drive_async(stream, Handshake::acceptor(features), config)
        .await?
        .1)
}

/// The blocking driver: the whole exchange within
/// [`ChannelConfig::handshake_timeout`], enforced through read timeouts.
fn drive(
    stream: &mut TcpStream,
    mut machine: Handshake<'_>,
    config: &ChannelConfig,
) -> Result<Outcome, HandshakeError> {
    let deadline = Instant::now() + config.handshake_timeout;
    let mut chunk = [0u8; 4096];
    let mut outcome = None;
    loop {
        if !machine.outbound.is_empty() {
            stream.write_all(&machine.outbound)?;
            machine.outbound.clear();
        }
        if let Some(outcome) = outcome {
            return Ok(outcome);
        }
        let n = read_before(stream, &mut chunk, deadline)?;
        outcome = machine.feed(&chunk[..n])?;
    }
}

/// One blocking read that gives up at `deadline`.
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, HandshakeError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(HandshakeError::Timeout);
    }
    // An almost-expired deadline can round to a zero Duration, which
    // `set_read_timeout` rejects with InvalidInput; clamp to 1 ms so the
    // edge reads as a (near-immediate) timeout, not an I/O error.
    let remaining = (deadline - now).max(Duration::from_millis(1));
    stream.set_read_timeout(Some(remaining))?;
    match stream.read(chunk) {
        Ok(0) => Err(HandshakeError::Eof),
        Ok(n) => Ok(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(HandshakeError::Timeout)
        }
        Err(e) => Err(HandshakeError::Io(e)),
    }
}

/// The async driver: the whole exchange under one runtime timer.
async fn drive_async(
    stream: &mut tokio::net::TcpStream,
    mut machine: Handshake<'_>,
    config: &ChannelConfig,
) -> Result<Outcome, HandshakeError> {
    let exchange = async {
        let mut chunk = [0u8; 4096];
        let mut outcome = None;
        loop {
            if !machine.outbound.is_empty() {
                stream.write_all(&machine.outbound).await?;
                machine.outbound.clear();
            }
            if let Some(outcome) = outcome {
                return Ok(outcome);
            }
            match stream.read(&mut chunk).await? {
                0 => return Err(HandshakeError::Eof),
                n => outcome = machine.feed(&chunk[..n])?,
            }
        }
    };
    match tokio::time::timeout(config.handshake_timeout, exchange).await {
        Ok(result) => result,
        Err(_) => Err(HandshakeError::Timeout),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::types::{DatapathId, PortNo};
    use std::net::TcpListener;
    use std::time::Duration;

    fn features() -> FeaturesReply {
        FeaturesReply {
            datapath_id: DatapathId(42),
            n_buffers: 64,
            n_tables: 1,
            ports: vec![PortNo::Physical(1), PortNo::Physical(2)],
        }
    }

    #[test]
    fn full_handshake_completes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ChannelConfig::default();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            accept(&mut stream, &features(), &ChannelConfig::default()).unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let (reply, residue) = initiate(&mut client, &cfg).unwrap();
        assert_eq!(reply, features());
        assert!(residue.is_empty());
        let server_residue = server.join().unwrap();
        assert!(server_residue.is_empty());
    }

    #[test]
    fn garbage_peer_fails_decode() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Consume the client's HELLO + FEATURES_REQUEST and hold the
            // stream open until the client is done, so no RST races the
            // garbage delivery.
            let mut hello_and_features = [0u8; 16];
            stream.read_exact(&mut hello_and_features).unwrap();
            stream.write_all(&[0xff; 32]).unwrap();
            let mut sink = [0u8; 64];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let cfg = ChannelConfig::default();
        match initiate(&mut client, &cfg) {
            Err(HandshakeError::Decode(_)) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn silent_peer_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let cfg = ChannelConfig {
            handshake_timeout: Duration::from_millis(100),
            ..ChannelConfig::default()
        };
        match initiate(&mut client, &cfg) {
            Err(HandshakeError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        // Keep the listener alive so the connect cannot be refused.
        drop(listener);
    }

    /// Regression: a deadline that is almost expired when `read_before`
    /// computes the remaining budget used to produce a zero (or sub-tick)
    /// `Duration`, which `set_read_timeout` either rejects with
    /// `InvalidInput` or treats as "block forever". Both must surface as
    /// [`HandshakeError::Timeout`], promptly.
    #[test]
    fn almost_expired_deadline_is_timeout_not_io() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let started = std::time::Instant::now();
        for pad_ns in [0u64, 100, 10_000, 500_000] {
            let deadline = Instant::now() + Duration::from_nanos(pad_ns);
            match read_before(&mut client, &mut [0u8; 64], deadline) {
                Err(HandshakeError::Timeout) => {}
                other => panic!("pad {pad_ns}ns: expected timeout, got {other:?}"),
            }
        }
        // "Block forever" would hang well past this bound.
        assert!(started.elapsed() < Duration::from_secs(2));
        drop(listener);
    }

    #[test]
    fn async_handshake_completes() {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let server = tokio::spawn(async move {
                let (mut stream, _) = listener.accept().await.unwrap();
                accept_async(&mut stream, &features(), &ChannelConfig::default())
                    .await
                    .unwrap()
            });
            let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
            let cfg = ChannelConfig::default();
            let (reply, residue) = initiate_async(&mut client, &cfg).await.unwrap();
            assert_eq!(reply, features());
            assert!(residue.is_empty());
            let server_residue = server.await.unwrap();
            assert!(server_residue.is_empty());
        });
    }

    #[test]
    fn async_silent_peer_times_out() {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
            let cfg = ChannelConfig {
                handshake_timeout: Duration::from_millis(100),
                ..ChannelConfig::default()
            };
            match initiate_async(&mut client, &cfg).await {
                Err(HandshakeError::Timeout) => {}
                other => panic!("expected timeout, got {other:?}"),
            }
            drop(listener);
        });
    }

    /// The async driver must interoperate with the blocking one — the
    /// endpoints and a plain `std::net` peer run the same machine.
    #[test]
    fn blocking_initiate_async_accept_interop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let rt = tokio::runtime::Runtime::new().unwrap();
            let (stream, _) = listener.accept().unwrap();
            let mut stream = rt.block_on(async { tokio::net::TcpStream::from_std(stream) })?;
            rt.block_on(accept_async(
                &mut stream,
                &features(),
                &ChannelConfig::default(),
            ))
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let cfg = ChannelConfig::default();
        let (reply, _) = initiate(&mut client, &cfg).unwrap();
        assert_eq!(reply, features());
        server.join().unwrap().unwrap();
    }

    // The machine on its own: no socket, no clock.

    fn frames(msgs: &[OfMessage]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for msg in msgs {
            wire::encode_into(msg, &mut bytes);
        }
        bytes
    }

    fn hello() -> OfMessage {
        OfMessage::new(Xid(0), OfBody::Hello)
    }

    fn request() -> OfMessage {
        OfMessage::new(Xid(1), OfBody::FeaturesRequest)
    }

    fn reply() -> OfMessage {
        OfMessage::new(Xid(1), OfBody::FeaturesReply(features()))
    }

    fn echo(xid: u32) -> OfMessage {
        OfMessage::new(
            Xid(xid),
            OfBody::EchoRequest(bytes::Bytes::from_static(b"ping")),
        )
    }

    fn barrier() -> OfMessage {
        OfMessage::new(Xid(9), OfBody::BarrierRequest)
    }

    /// Feeds `transcript` cut at `cuts` (each taken modulo what is left;
    /// none: whole) and returns everything the machine asked to send, the
    /// outcome, and how many bytes it had been fed when it finished.
    fn run(
        mut machine: Handshake<'_>,
        transcript: &[u8],
        cuts: &[usize],
    ) -> (Vec<u8>, Result<Option<Outcome>, String>, usize) {
        let mut sent = std::mem::take(&mut machine.outbound);
        let mut fed = 0;
        let mut cuts = cuts.iter();
        while fed < transcript.len() {
            let left = transcript.len() - fed;
            let take = cuts.next().map_or(left, |cut| 1 + cut % left);
            let step = machine.feed(&transcript[fed..fed + take]);
            fed += take;
            sent.append(&mut machine.outbound);
            match step {
                Ok(None) => {}
                Ok(done) => return (sent, Ok(done), fed),
                Err(e) => return (sent, Err(e.to_string()), fed),
            }
        }
        (sent, Ok(None), fed)
    }

    #[test]
    fn each_side_opens_with_its_frames() {
        assert_eq!(
            Handshake::initiator().outbound,
            frames(&[hello(), request()])
        );
        assert_eq!(
            Handshake::acceptor(&features()).outbound,
            frames(&[hello()])
        );
    }

    #[test]
    fn a_byte_at_a_time_completes_both_roles() {
        let mine = features();
        let to_acceptor = frames(&[hello(), request()]);
        let every_byte: Vec<usize> = vec![0; to_acceptor.len()];
        let (sent, outcome, fed) = run(Handshake::acceptor(&mine), &to_acceptor, &every_byte);
        assert_eq!(sent, frames(&[hello(), reply()]));
        let (theirs, residue) = outcome.unwrap().expect("complete");
        assert!(theirs.is_none() && residue.is_empty());
        assert_eq!(fed, to_acceptor.len());

        let to_initiator = frames(&[hello(), reply()]);
        let every_byte: Vec<usize> = vec![0; to_initiator.len()];
        let (sent, outcome, _) = run(Handshake::initiator(), &to_initiator, &every_byte);
        assert_eq!(sent, frames(&[hello(), request()]));
        let (theirs, residue) = outcome.unwrap().expect("complete");
        assert_eq!(theirs, Some(features()));
        assert!(residue.is_empty());
    }

    #[test]
    fn what_follows_the_last_handshake_frame_is_the_residue() {
        let mine = features();
        let chunk = frames(&[hello(), request(), barrier()]);
        let (_, outcome, _) = run(Handshake::acceptor(&mine), &chunk, &[]);
        let (_, residue) = outcome.unwrap().expect("complete");
        assert_eq!(&residue[..], &frames(&[barrier()])[..]);

        // A trailing partial frame stays too.
        let mut chunk = frames(&[hello(), reply(), barrier()]);
        chunk.truncate(chunk.len() - 3);
        let (_, outcome, _) = run(Handshake::initiator(), &chunk, &[]);
        let (_, residue) = outcome.unwrap().expect("complete");
        assert_eq!(&residue[..], &frames(&[barrier()])[..5]);
    }

    #[test]
    fn echo_mid_handshake_is_answered_with_its_xid_and_payload() {
        let mine = features();
        let answered = OfMessage::new(
            Xid(77),
            OfBody::EchoReply(bytes::Bytes::from_static(b"ping")),
        );
        let (sent, outcome, _) = run(
            Handshake::acceptor(&mine),
            &frames(&[hello(), echo(77), request()]),
            &[],
        );
        assert_eq!(sent, frames(&[hello(), answered.clone(), reply()]));
        assert!(outcome.unwrap().is_some());
        let (sent, outcome, _) = run(Handshake::initiator(), &frames(&[echo(77)]), &[]);
        assert_eq!(sent, frames(&[hello(), request(), answered]));
        assert!(outcome.unwrap().is_none(), "still waiting for the reply");
    }

    #[test]
    fn out_of_place_and_malformed_input_is_refused() {
        let mine = features();
        let feed = |machine: &mut Handshake<'_>, bytes: &[u8]| machine.feed(bytes);
        let before_hello = [
            (Handshake::acceptor(&mine), request(), "features_request"),
            (Handshake::initiator(), reply(), "features_reply"),
        ];
        for (mut machine, msg, what) in before_hello {
            match feed(&mut machine, &frames(&[msg])) {
                Err(HandshakeError::Unexpected(e)) if e == format!("{what} before hello") => {}
                other => panic!("expected {what} before hello, got {other:?}"),
            }
        }
        for (mut machine, bytes) in [
            (Handshake::acceptor(&mine), frames(&[hello(), reply()])),
            (Handshake::initiator(), frames(&[hello(), request()])),
            (Handshake::initiator(), frames(&[barrier()])),
        ] {
            match feed(&mut machine, &bytes) {
                Err(HandshakeError::Unexpected("message")) => {}
                other => panic!("expected an out-of-place message, got {other:?}"),
            }
        }
        match feed(&mut Handshake::initiator(), &[0xff; 32]) {
            Err(HandshakeError::Decode(_)) => {}
            other => panic!("expected a decode error, got {other:?}"),
        }
        // A short header is not yet an answer either way.
        let mut machine = Handshake::acceptor(&mine);
        assert!(matches!(
            feed(&mut machine, &frames(&[hello()])[..5]),
            Ok(None)
        ));
        assert!(!machine.saw_hello);
    }

    proptest::proptest! {
        /// However the peer's bytes are cut up, the machine sends the same
        /// bytes, ends the same way and leaves the same residue as when it
        /// is fed them whole.
        #[test]
        fn any_chunking_of_a_transcript_gives_the_same_handshake(
            initiating in proptest::prelude::any::<bool>(),
            echoes in proptest::collection::vec(0u32..1000, 0..3),
            echo_before_hello in proptest::prelude::any::<bool>(),
            trailing in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            cuts in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..24),
        ) {
            let mine = features();
            let machine = || match initiating {
                true => Handshake::initiator(),
                false => Handshake::acceptor(&mine),
            };
            let mut msgs = vec![hello()];
            msgs.extend(echoes.iter().map(|&xid| echo(xid)));
            if echo_before_hello && msgs.len() > 1 {
                msgs.swap(0, 1);
            }
            msgs.push(if initiating { reply() } else { request() });
            let mut transcript = frames(&msgs);
            transcript.extend_from_slice(&trailing);
            let cuts: Vec<usize> = cuts.into_iter().map(usize::from).collect();

            let (whole_sent, whole, _) = run(machine(), &transcript, &[]);
            let (cut_sent, cut, fed) = run(machine(), &transcript, &cuts);
            proptest::prop_assert_eq!(cut_sent, whole_sent);
            let (features, whole_residue) = whole.unwrap().expect("a valid transcript completes");
            let (cut_features, mut residue) = cut.unwrap().expect("a valid transcript completes");
            proptest::prop_assert_eq!(cut_features, features);
            // What had not been fed yet when the machine finished is still
            // on the wire behind the residue.
            residue.extend_from_slice(&transcript[fed..]);
            proptest::prop_assert_eq!(&residue[..], &whole_residue[..]);
            proptest::prop_assert_eq!(&whole_residue[..], &trailing[..]);
        }
    }
}
