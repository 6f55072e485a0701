//! Minimal std-only Linux epoll shim.
//!
//! The cluster's socket transport (`mpsync-cluster`'s `tcp`) waits on its
//! sockets with readiness multiplexing, which std does not expose. Rather
//! than pulling in an event library, this module declares the three epoll
//! symbols — std already links libc on Linux, so the `extern "C"`
//! declarations resolve against what is in the process anyway — and wraps
//! them in an fd-owning, `io::Result`-returning type, exported from the
//! crate root so the workspace keeps one `extern "C"` block. Linux-only.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;

/// Readable (or peer-FIN'd) — `EPOLLIN`.
pub const EPOLLIN: u32 = 0x001;
/// Writable — `EPOLLOUT`.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition — `EPOLLERR` (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup — `EPOLLHUP` (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// elsewhere it has natural `repr(C)` layout — mirroring glibc's
/// `__EPOLL_PACKED`.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLL*`).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A new, empty epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is owned exclusively here.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly-created, valid epoll fd we own.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` for `events`, tagging it with `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Changes the interest set of an already-watched `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Stops watching `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event even for DEL; passing
        // one is harmless everywhere.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (0 = poll) for events. EINTR reads as an
    /// empty wait, not an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable buffer of the stated length.
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        let size = std::mem::size_of::<EpollEvent>();
        if cfg!(target_arch = "x86_64") {
            assert_eq!(size, 12, "x86-64 packs epoll_event");
        } else {
            assert_eq!(size, 16);
        }
    }

    #[test]
    fn epoll_watches_a_socket() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = [EpollEvent::default(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        ep.del(server.as_raw_fd()).unwrap();
    }
}
