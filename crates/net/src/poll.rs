//! Readiness polling behind a safe API.
//!
//! On Linux this is `epoll`; on other Unix platforms it falls back to
//! `poll(2)` (module `portable`, which the tests also run on Linux).
//! Either way the raw syscalls live in one small
//! `#[allow(unsafe_code)]` module (the same isolation pattern as the
//! signal shim in `mwsj-server`) and nothing unsafe leaks into the
//! event loop: callers register descriptors with a `u64` token and get
//! back plain [`Event`] values.
//!
//! The poller is **level-triggered**: a descriptor with unread input
//! (or writable space while write interest is registered) is reported
//! on every [`Poller::wait`] until the condition clears. The event loop
//! therefore deregisters interest it cannot act on (e.g. read interest
//! while an injected stall defers the read) instead of spinning.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readiness interest for a registered descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report when the descriptor has bytes to read (or a pending
    /// accept, or EOF).
    pub readable: bool,
    /// Report when the descriptor can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the initial registration for every
    /// connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event returned by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The descriptor can accept writes.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; a read will observe
    /// EOF or the error.
    pub hangup: bool,
}

/// A wait's timeout in whole milliseconds, rounded up: a wait never
/// returns before a deadline it was asked to sleep until.
fn millis(timeout: Duration) -> i32 {
    i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! The only `unsafe` in the crate: four raw `epoll`/`close`
    //! declarations plus thin wrappers that keep every pointer's
    //! lifetime inside the call.

    use std::io;

    // Kernel ABI quirk: on x86-64 `struct epoll_event` is packed to 12
    // bytes; everywhere else it has natural (16-byte) layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<i32> {
        // SAFETY: no pointers cross the boundary; the return value is a
        // fresh descriptor or -1 with errno set.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live local for the duration of the call and
        // the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `buf` is valid for `buf.len()` entries for the whole
        // call; the kernel writes at most that many events.
        let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: the poller owns `fd` exclusively and calls this once,
        // from `Drop`.
        unsafe {
            close(fd);
        }
    }
}

/// Level-triggered readiness poller over `epoll`.
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Creates a poller (one `epoll` instance).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::create()?,
        })
    }

    fn events_of(interest: Interest) -> u32 {
        let mut ev = sys::EPOLLRDHUP;
        if interest.readable {
            ev |= sys::EPOLLIN;
        }
        if interest.writable {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    /// Registers a descriptor under `token`.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            Self::events_of(interest),
            token,
        )
    }

    /// Changes the interest set of a registered descriptor.
    pub fn reregister(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            Self::events_of(interest),
            token,
        )
    }

    /// Removes a descriptor from the poller.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Waits up to `timeout` for readiness, appending to `events`
    /// (cleared first). Returns the number of events delivered.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        events.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 128];
        let n = match sys::wait(self.epfd, &mut buf, millis(timeout)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// The `poll(2)` backend: the poller off Linux, and compiled on Linux
/// for its tests, so both backends run the same suite everywhere.
#[cfg(any(test, not(target_os = "linux")))]
mod portable {
    use super::*;

    #[allow(unsafe_code)]
    mod sys {
        //! `poll(2)` fallback for non-Linux Unix platforms.

        use std::io;
        use std::os::raw::c_ulong;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: i32,
            pub events: i16,
            pub revents: i16,
        }

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: i32) -> i32;
        }

        pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: `fds` is valid for `fds.len()` entries for the whole
            // call; the kernel only writes `revents` within that range.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(rc as usize)
            }
        }
    }

    /// Level-triggered readiness poller over `poll(2)` (non-Linux Unix).
    pub struct Poller {
        registered: std::sync::Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        /// Creates a poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: std::sync::Mutex::new(Vec::new()),
            })
        }

        /// Registers a descriptor under `token`.
        pub fn register(
            &self,
            fd: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poller registry poisoned")
                .push((fd.as_raw_fd(), token, interest));
            Ok(())
        }

        /// Changes the interest set of a registered descriptor.
        pub fn reregister(
            &self,
            fd: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let raw = fd.as_raw_fd();
            let mut reg = self.registered.lock().expect("poller registry poisoned");
            for slot in reg.iter_mut() {
                if slot.0 == raw {
                    slot.1 = token;
                    slot.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        /// Removes a descriptor from the poller.
        pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
            let raw = fd.as_raw_fd();
            self.registered
                .lock()
                .expect("poller registry poisoned")
                .retain(|slot| slot.0 != raw);
            Ok(())
        }

        /// Waits up to `timeout` for readiness, appending to `events`
        /// (cleared first). Returns the number of events delivered.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
            events.clear();
            let reg = self
                .registered
                .lock()
                .expect("poller registry poisoned")
                .clone();
            let mut fds: Vec<sys::PollFd> = reg
                .iter()
                .map(|&(fd, _, interest)| sys::PollFd {
                    fd,
                    events: if interest.readable { sys::POLLIN } else { 0 }
                        | if interest.writable { sys::POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = match sys::wait(&mut fds, millis(timeout)) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for (slot, pfd) in reg.iter().zip(&fds) {
                if pfd.revents != 0 {
                    events.push(Event {
                        token: slot.1,
                        readable: pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                        writable: pfd.revents & sys::POLLOUT != 0,
                        hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                    });
                }
            }
            Ok(n)
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable::Poller;

/// Wakes a [`Poller::wait`] call from another thread.
///
/// Built on a loopback TCP pair so it needs no extra syscalls anywhere:
/// `wake` writes one byte to the write end, the poller reports the read
/// end readable, and the loop drains it. Cloneable and cheap to share
/// across worker threads.
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<std::net::TcpStream>,
}

impl Waker {
    /// Signals the event loop; best-effort (a full pipe already means
    /// the loop has a pending wake).
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The readable end of a [`Waker`] pair; register it with the poller
/// and [`drain`](WakeRx::drain) it when it fires.
pub struct WakeRx {
    rx: std::net::TcpStream,
}

impl WakeRx {
    /// Consumes all pending wake bytes.
    pub fn drain(&mut self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = self.rx.read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

impl AsRawFd for WakeRx {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// Creates a connected waker pair (loopback TCP, both ends nonblocking).
pub fn waker() -> io::Result<(Waker, WakeRx)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let tx = std::net::TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx: std::sync::Arc::new(tx),
        },
        WakeRx { rx },
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    /// The readiness suite over one backend: the native poller here, the
    /// `poll(2)` one in `tests::portable`.
    macro_rules! poller_tests {
        ($poller:ty) => {
            #[test]
            fn reports_readable_when_bytes_arrive() {
                let (mut a, b) = pair();
                b.set_nonblocking(true).expect("nonblocking");
                let poller = <$poller>::new().expect("poller");
                poller.register(&b, 7, Interest::READ).expect("register");

                let mut events = Vec::new();
                poller
                    .wait(&mut events, Duration::from_millis(10))
                    .expect("wait");
                assert!(events.is_empty(), "no bytes yet");

                a.write_all(b"x").expect("write");
                poller
                    .wait(&mut events, Duration::from_millis(1000))
                    .expect("wait");
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].token, 7);
                assert!(events[0].readable);
            }

            #[test]
            fn write_interest_toggles_with_reregister() {
                let (_a, b) = pair();
                b.set_nonblocking(true).expect("nonblocking");
                let poller = <$poller>::new().expect("poller");
                poller.register(&b, 1, Interest::READ).expect("register");
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Duration::from_millis(10))
                    .expect("wait");
                assert!(events.iter().all(|e| !e.writable));

                poller
                    .reregister(
                        &b,
                        1,
                        Interest {
                            readable: true,
                            writable: true,
                        },
                    )
                    .expect("reregister");
                poller
                    .wait(&mut events, Duration::from_millis(1000))
                    .expect("wait");
                assert!(events.iter().any(|e| e.token == 1 && e.writable));
            }

            #[test]
            fn hangup_is_reported_as_readable_eof() {
                let (a, b) = pair();
                b.set_nonblocking(true).expect("nonblocking");
                let poller = <$poller>::new().expect("poller");
                poller.register(&b, 3, Interest::READ).expect("register");
                drop(a);
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Duration::from_millis(1000))
                    .expect("wait");
                assert_eq!(events.len(), 1);
                assert!(events[0].readable || events[0].hangup);
                let mut buf = [0u8; 8];
                let mut b = &b;
                assert_eq!(b.read(&mut buf).expect("read"), 0, "EOF after hangup");
            }

            #[test]
            fn waker_fires_from_another_thread() {
                let poller = <$poller>::new().expect("poller");
                let (wk, mut rx) = waker().expect("waker");
                poller.register(&rx, 9, Interest::READ).expect("register");
                let handle = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    wk.wake();
                });
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Duration::from_millis(2000))
                    .expect("wait");
                assert!(events.iter().any(|e| e.token == 9 && e.readable));
                rx.drain();
                handle.join().expect("join");
            }

            #[test]
            fn deregister_stops_events() {
                let (mut a, b) = pair();
                b.set_nonblocking(true).expect("nonblocking");
                let poller = <$poller>::new().expect("poller");
                poller.register(&b, 5, Interest::READ).expect("register");
                poller.deregister(&b).expect("deregister");
                a.write_all(b"x").expect("write");
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Duration::from_millis(50))
                    .expect("wait");
                assert!(events.is_empty());
            }
        };
    }

    poller_tests!(Poller);

    mod portable {
        use super::*;

        poller_tests!(crate::poll::portable::Poller);
    }

    #[test]
    fn a_wait_rounds_its_timeout_up_to_whole_milliseconds() {
        assert_eq!(millis(Duration::ZERO), 0);
        assert_eq!(millis(Duration::from_nanos(1)), 1);
        assert_eq!(millis(Duration::from_millis(25)), 25);
        assert_eq!(millis(Duration::from_micros(25_001)), 26);
        assert_eq!(millis(Duration::MAX), i32::MAX);
    }
}
