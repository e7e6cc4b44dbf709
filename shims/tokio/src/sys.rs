//! Raw Linux syscall bindings for the reactor.
//!
//! std already links libc, so `extern "C"` declarations resolve without a
//! `libc` crate dependency (the same technique `netsim::engine` uses for
//! `sched_setaffinity`). Only epoll + eventfd are needed.

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One epoll event slot. x86-64 packs the struct; other Linux targets use
/// natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: plain syscall; a valid fd is transferred into OwnedFd below.
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: `fd` is a freshly created, owned epoll descriptor.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

pub(crate) fn eventfd_create() -> io::Result<OwnedFd> {
    // SAFETY: plain syscall; a valid fd is transferred into OwnedFd below.
    let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    // SAFETY: `fd` is a freshly created, owned eventfd descriptor.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `ev` outlives the call; epoll copies it out immediately.
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
    Ok(())
}

pub(crate) fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

pub(crate) fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

pub(crate) fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Waits for events; returns the number of slots filled.
pub(crate) fn epoll_pwait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    // SAFETY: the buffer is valid for `events.len()` slots for the call.
    let n = cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) })?;
    Ok(n as usize)
}

/// Posts one wakeup on the eventfd (non-blocking; saturation is fine).
pub(crate) fn eventfd_signal(fd: RawFd) {
    let one: u64 = 1;
    // SAFETY: writes 8 bytes from a live stack value; EAGAIN (counter
    // saturated) still leaves the fd readable, which is all we need.
    unsafe { write(fd, (&one as *const u64).cast(), 8) };
}

/// Drains the eventfd counter.
pub(crate) fn eventfd_drain(fd: RawFd) {
    let mut buf = [0u8; 8];
    // SAFETY: reads at most 8 bytes into a live stack buffer.
    unsafe { read(fd, buf.as_mut_ptr(), 8) };
}

const AF_INET: u16 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;

/// `connect(2)` on a non-blocking socket is completing asynchronously.
pub(crate) const EINPROGRESS: i32 = 115;

/// `struct sockaddr_in` (Linux layout).
#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Big-endian port.
    port: u16,
    /// Big-endian address.
    addr: u32,
    zero: [u8; 8],
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
}

/// Creates a non-blocking IPv4 TCP socket wrapped in a std `TcpStream`
/// (which owns and will close the fd).
pub(crate) fn tcp_socket_v4() -> io::Result<std::net::TcpStream> {
    // SAFETY: plain syscall; the valid fd is transferred into TcpStream.
    let fd = cvt(unsafe {
        socket(
            AF_INET as i32,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    })?;
    // SAFETY: `fd` is a freshly created, owned stream socket.
    Ok(unsafe { std::net::TcpStream::from_raw_fd(fd) })
}

/// Starts a non-blocking connect. Returns `true` when the connection
/// completed synchronously, `false` when it is in progress (await
/// writability, then check `take_error`).
pub(crate) fn start_connect_v4(fd: RawFd, addr: std::net::SocketAddrV4) -> io::Result<bool> {
    let sa = SockAddrIn {
        family: AF_INET,
        port: addr.port().to_be(),
        addr: u32::from(*addr.ip()).to_be(),
        zero: [0; 8],
    };
    // SAFETY: `sa` is a valid sockaddr_in for the duration of the call.
    let ret = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    if ret == 0 {
        return Ok(true);
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        Ok(false)
    } else {
        Err(err)
    }
}
