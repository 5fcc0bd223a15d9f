//! Thin wrappers over the raw Linux syscalls the reactor needs.
//!
//! The repository builds offline with no external crates, so instead of the
//! `libc` crate this module declares the handful of symbols it needs as
//! `extern "C"` — std already links the platform C library, the loader
//! resolves them for free. Everything here is a minimal, safe-ish facade:
//! [`Epoll`] (readiness queue), [`EventFd`] (cross-thread wakeup), and
//! [`raise_nofile_limit`] (so fleet-scale experiments can actually open
//! tens of thousands of sockets).

use std::io;

#[cfg(target_os = "linux")]
pub use linux::{Epoll, EpollEvent, EventFd};

#[cfg(target_os = "linux")]
pub mod linux {
    //! The real implementation. Only compiled on Linux; the reactor is
    //! gated on the same cfg, and `Server::serve` returns `Unsupported`
    //! elsewhere.

    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    /// `O_CLOEXEC` (octal 02000000), shared by `EPOLL_CLOEXEC`/`EFD_CLOEXEC`.
    const CLOEXEC: c_int = 0o2000000;
    /// `O_NONBLOCK` (octal 04000), shared by `EFD_NONBLOCK`.
    const NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. On x86 the kernel declares it
    /// packed (no padding between `events` and `data`); on other
    /// architectures it is naturally aligned. Getting this wrong corrupts
    /// every token the kernel hands back, so mirror the kernel exactly.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Readiness bitmask (`EPOLLIN | ...`).
        pub events: u32,
        /// Caller-chosen token identifying the registered fd.
        pub data: u64,
    }

    impl EpollEvent {
        /// A zeroed event (for the wait buffer).
        pub fn empty() -> Self {
            EpollEvent { events: 0, data: 0 }
        }

        /// The token, copied out (the struct may be packed; never take a
        /// reference to its fields).
        pub fn token(&self) -> u64 {
            self.data
        }

        /// The readiness bits, copied out.
        pub fn readiness(&self) -> u32 {
            self.events
        }
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// An epoll instance: the readiness queue behind the reactor.
    pub struct Epoll {
        fd: c_int,
    }

    impl Epoll {
        /// Creates a close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut event = EpollEvent { events, data: token };
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` with interest `events`, tagged `token`.
        pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, events)
        }

        /// Changes the interest set of an already-registered fd.
        pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        /// Deregisters `fd`.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits up to `timeout_ms` for readiness, filling `events`.
        /// Retries on `EINTR` so callers never see spurious failures.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let rc = unsafe {
                    epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A non-blocking eventfd: worker threads write to it to wake the
    /// reactor out of `epoll_wait` when a response is ready.
    pub struct EventFd {
        fd: c_int,
    }

    impl EventFd {
        /// Creates a non-blocking, close-on-exec eventfd with counter 0.
        pub fn new() -> io::Result<EventFd> {
            let fd = unsafe { eventfd(0, CLOEXEC | NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        /// The raw fd, for epoll registration.
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Adds 1 to the counter, making the fd readable. Failures are
        /// ignored deliberately: the reactor also drains completions on its
        /// timer tick, so a lost wakeup costs latency, never correctness.
        pub fn wake(&self) {
            let one: u64 = 1;
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Resets the counter so the fd stops being readable (one read
        /// suffices: a non-semaphore eventfd returns and clears the whole
        /// counter).
        pub fn drain(&self) {
            let mut counter: u64 = 0;
            let _ = unsafe { read(self.fd, (&mut counter as *mut u64).cast(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    // Resource limits, for `raise_nofile_limit`.
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }

    /// Raises the soft open-file limit to the hard limit and returns the
    /// resulting soft limit.
    pub fn raise_nofile_limit() -> io::Result<u64> {
        let mut limit = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if limit.cur < limit.max {
            let raised = RLimit { cur: limit.max, max: limit.max };
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } < 0 {
                return Err(io::Error::last_os_error());
            }
            return Ok(raised.cur);
        }
        Ok(limit.cur)
    }
}

/// Raises the process's soft open-file limit to its hard limit (no-op when
/// already there) and returns the soft limit now in force. Fleet-scale
/// experiments (E12's 8k keep-alive agents) call this before opening
/// sockets; on non-Linux hosts it reports success without acting.
pub fn raise_nofile_limit() -> io::Result<u64> {
    #[cfg(target_os = "linux")]
    {
        linux::raise_nofile_limit()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(u64::MAX)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::linux::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let event_fd = EventFd::new().unwrap();
        epoll.add(event_fd.fd(), 7, EPOLLIN).unwrap();

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::empty(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        event_fd.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].readiness() & EPOLLIN != 0);

        // Draining clears readiness again.
        event_fd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), 1, EPOLLIN).unwrap();

        let mut events = [EpollEvent::empty(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no pending connection yet");

        let mut client = TcpStream::connect(addr).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 1);

        // Accepted stream becomes readable once bytes arrive.
        let (stream, _) = listener.accept().unwrap();
        epoll.add(stream.as_raw_fd(), 2, EPOLLIN).unwrap();
        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].token() == 2));
        epoll.delete(stream.as_raw_fd()).unwrap();
    }

    #[test]
    fn raise_nofile_limit_reports_a_limit() {
        let limit = super::raise_nofile_limit().unwrap();
        assert!(limit >= 256, "suspiciously low fd limit {limit}");
    }
}
