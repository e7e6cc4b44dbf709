//! Non-blocking TCP types registered with the runtime's reactor.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr};
use std::os::fd::AsRawFd;

use crate::reactor::{Source, READABLE, WRITABLE};
use crate::sys;

fn register(fd: i32) -> io::Result<Source> {
    Source::new(crate::runtime::current(), fd)
}

async fn rw_op<T>(
    source: &Source,
    interest: u32,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => source.readiness(interest).await?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// An async TCP listener.
pub struct TcpListener {
    // Declared first, so dropped first: the reactor deregisters the fd
    // while it is still open (see `Source`'s drop).
    source: Source,
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Binds to the first resolvable address.
    pub async fn bind<A: std::net::ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        TcpListener::from_std(std::net::TcpListener::bind(addr)?)
    }

    /// Adopts a std listener (made non-blocking here).
    pub fn from_std(inner: std::net::TcpListener) -> io::Result<TcpListener> {
        inner.set_nonblocking(true)?;
        let source = register(inner.as_raw_fd())?;
        Ok(TcpListener { inner, source })
    }

    /// Accepts one connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = rw_op(&self.source, READABLE, || self.inner.accept()).await?;
        Ok((TcpStream::from_std(stream)?, peer))
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// An async TCP stream.
pub struct TcpStream {
    // Declared first, so dropped first: the reactor deregisters the fd
    // while it is still open (see `Source`'s drop).
    source: Source,
    inner: std::net::TcpStream,
}

impl TcpStream {
    /// Connects to the first resolvable address without blocking the
    /// runtime's thread (IPv4 fast path; IPv6 falls back to a blocking
    /// connect before registration).
    pub async fn connect<A: std::net::ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        match addr {
            SocketAddr::V4(v4) => {
                let inner = sys::tcp_socket_v4()?;
                let source = register(inner.as_raw_fd())?;
                if !sys::start_connect_v4(inner.as_raw_fd(), v4)? {
                    source.readiness(WRITABLE).await?;
                    if let Some(err) = inner.take_error()? {
                        return Err(err);
                    }
                    // A socket that reports writable without a peer never
                    // connected (e.g. spurious wake); surface it as an error.
                    inner.peer_addr()?;
                }
                Ok(TcpStream { inner, source })
            }
            SocketAddr::V6(_) => TcpStream::from_std(std::net::TcpStream::connect(addr)?),
        }
    }

    /// Adopts a std stream (made non-blocking here).
    pub fn from_std(inner: std::net::TcpStream) -> io::Result<TcpStream> {
        inner.set_nonblocking(true)?;
        let source = register(inner.as_raw_fd())?;
        Ok(TcpStream { inner, source })
    }

    /// Reads into `buf`, waiting for readability as needed.
    pub async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &self.inner;
        rw_op(&self.source, READABLE, || (&*inner).read(buf)).await
    }

    /// Writes from `buf`, waiting for writability as needed.
    pub async fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &self.inner;
        rw_op(&self.source, WRITABLE, || (&*inner).write(buf)).await
    }

    /// Writes all of `buf`.
    pub async fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.write(buf).await?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Sets `TCP_NODELAY`.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.inner.set_nodelay(nodelay)
    }

    /// Shuts the socket down immediately (shim extension; tokio exposes
    /// this through `AsyncWriteExt::shutdown`).
    pub fn shutdown_now(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// Duplicates the underlying std socket, e.g. to keep a shutdown
    /// handle while the halves move into reader/writer tasks (shim
    /// extension).
    pub fn try_clone_std(&self) -> io::Result<std::net::TcpStream> {
        self.inner.try_clone()
    }

    /// Splits into independently-owned read and write halves, each with
    /// its own fd and reactor registration.
    pub fn into_split(self) -> io::Result<(OwnedReadHalf, OwnedWriteHalf)> {
        let read_std = self.inner.try_clone()?;
        let read_source = register(read_std.as_raw_fd())?;
        Ok((
            OwnedReadHalf {
                inner: read_std,
                source: read_source,
            },
            OwnedWriteHalf {
                inner: self.inner,
                source: self.source,
            },
        ))
    }
}

/// The owned read half of a split [`TcpStream`].
pub struct OwnedReadHalf {
    // Dropped before `inner`, as in [`TcpStream`].
    source: Source,
    inner: std::net::TcpStream,
}

impl OwnedReadHalf {
    /// Reads into `buf`, waiting for readability as needed.
    pub async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &self.inner;
        rw_op(&self.source, READABLE, || (&*inner).read(buf)).await
    }
}

/// The owned write half of a split [`TcpStream`].
pub struct OwnedWriteHalf {
    // Dropped before `inner`, as in [`TcpStream`].
    source: Source,
    inner: std::net::TcpStream,
}

impl OwnedWriteHalf {
    /// Writes from `buf`, waiting for writability as needed.
    pub async fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &self.inner;
        rw_op(&self.source, WRITABLE, || (&*inner).write(buf)).await
    }

    /// Writes all of `buf`.
    pub async fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.write(buf).await?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Shuts down the write direction, signalling EOF to the peer.
    pub fn shutdown_now(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }
}
