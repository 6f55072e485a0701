//! Minimal std-only Linux syscall shim: epoll, eventfd, CPU affinity.
//!
//! The reactor needs readiness multiplexing and a cross-thread wakeup
//! primitive, neither of which std exposes. Rather than pulling in an event
//! library, this module declares the handful of libc symbols involved —
//! std already links libc on Linux, so the `extern "C"` declarations
//! resolve against what is in the process anyway — and wraps them in
//! fd-owning, `io::Result`-returning types. Everything here is Linux-only;
//! the reactor server model is gated accordingly. The epoll half is exported
//! from the crate root: the cluster's socket transport waits on it too, and
//! the workspace keeps one `extern "C"` block.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint};

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
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

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
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
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

/// A non-blocking eventfd used as a cross-thread doorbell: writers
/// [`EventFd::signal`], the owning reactor registers it in its epoll set
/// and [`EventFd::drain`]s on wakeup.
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the fd is owned exclusively by the File.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: fresh, valid fd.
        Ok(Self {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Rings the doorbell. Failure (e.g. a saturated counter) is ignored —
    /// a saturated eventfd is already readable, so the wakeup still lands.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Clears the doorbell so the next signal edge is observable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // One read suffices: it atomically resets the counter to zero.
        let _ = (&self.file).read(&mut buf);
    }
}

/// Best-effort pinning of the calling thread to `core` (modulo the number
/// of bits a `cpu_set_t` holds). Returns whether the kernel accepted it —
/// callers treat failure as advisory, not fatal.
pub(crate) fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // cpu_set_t: 1024 bits
    let bit = core % 1024;
    mask[bit / 64] |= 1u64 << (bit % 64);
    // SAFETY: pid 0 = calling thread; the mask buffer matches the stated
    // size and outlives the call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
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
    fn eventfd_signal_and_drain_drive_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "quiet fd: no events");
        ev.signal();
        ev.signal();
        assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);
        // Copy fields out — asserting on packed fields would take
        // unaligned references.
        let (data, bits) = { (events[0].data, events[0].events) };
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained: level clears");
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

    #[test]
    fn pinning_is_best_effort() {
        // Must not panic whatever the mask outcome; on any normal kernel
        // pinning to core 0 succeeds.
        let _ = pin_to_core(0);
    }
}
