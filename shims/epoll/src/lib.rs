//! Safe one-shot read readiness over Linux `epoll`, and the scheduling
//! policy of the threads that wait on it.
//!
//! The workspace has no crate registry (so no `libc`, `mio` or `tokio`)
//! and every other crate is `#![forbid(unsafe_code)]`; the three epoll
//! syscalls and `sched_setscheduler` are declared by hand here. The epoll
//! calls are wrapped in [`Poller`], which owns the epoll descriptor and
//! takes only borrowed, open descriptors. Every registration is
//! `EPOLLIN | EPOLLONESHOT`: a descriptor that becomes readable (data,
//! end of stream, error or hang-up) is reported by exactly one
//! [`Poller::wait`], to exactly one waiting thread, and stays silent until
//! [`Poller::rearm`].
//!
//! [`set_batch_policy`] moves the calling thread to `SCHED_BATCH`: a
//! thread woken by an event then never preempts one that is mid-turn on
//! the same core, so a pool of waiters runs each turn to completion and
//! the finishing thread picks up the next event without sleeping. Linux
//! only.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("the epoll shim (and so oasis-wire's server) supports Linux only");

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// The kernel's `struct epoll_event`, which is packed on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// The kernel's `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 1;
const EPOLLONESHOT: u32 = 1 << 30;
const SCHED_BATCH: c_int = 3;

/// Moves the calling thread (only it: pid 0 names the caller) to
/// `SCHED_BATCH` at its current nice value. Such a thread gets the same
/// fair share of the CPU as a `SCHED_OTHER` one, but waking it never
/// preempts the running thread: it waits for the next tick or for the
/// running thread to block. Threads it spawns later inherit the policy.
/// Returns the syscall's error (none is expected: lowering a thread's
/// claim on the CPU needs no privilege).
pub fn set_batch_policy() -> io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `sched_param` the kernel only reads for
    // the duration of the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// An epoll instance; shareable between threads (`&self` everywhere).
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// A new, empty epoll instance (close-on-exec). Like every method
    /// here, it returns the failing syscall's error.
    pub fn new() -> io::Result<Self> {
        // SAFETY: `epoll_create1` takes no pointers and has no preconditions.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel as a new open
        // descriptor, and nothing else owns or closes it.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Self { epfd })
    }

    fn ctl(&self, op: c_int, fd: &impl AsFd, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN | EPOLLONESHOT,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` the kernel only reads for
        // the duration of the call, and both descriptors are open because
        // they are borrowed from their owners.
        let rc = unsafe {
            epoll_ctl(
                self.epfd.as_raw_fd(),
                op,
                fd.as_fd().as_raw_fd(),
                &mut event,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd`, armed: its next readability is reported once, as
    /// `token`. `AlreadyExists` if it is registered.
    pub fn add(&self, fd: &impl AsFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token)
    }

    /// Arms a registered `fd` again (it is reported at once if it is
    /// already readable) and replaces its token. `NotFound` if it is not
    /// registered.
    pub fn rearm(&self, fd: &impl AsFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token)
    }

    /// Unregisters `fd` (closing a socket's last descriptor does so too).
    pub fn remove(&self, fd: &impl AsFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0)
    }

    /// Blocks until one armed descriptor is readable and returns its token;
    /// `None` when `timeout` (rounded up to whole milliseconds; `None`
    /// waits for ever) passes first or a signal interrupts the wait. Of
    /// several threads waiting on one poller, one wakes per event.
    pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<u64>> {
        let timeout_ms = timeout.map_or(-1, |t| {
            let ms = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        });
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: `event` is writable storage for the one `epoll_event`
        // that `maxevents = 1` lets the kernel fill in.
        let n = unsafe { epoll_wait(self.epfd.as_raw_fd(), &mut event, 1, timeout_ms) };
        match n {
            1 => Ok(Some(event.data)),
            0 => Ok(None),
            _ => match io::Error::last_os_error() {
                e if e.kind() == io::ErrorKind::Interrupted => Ok(None),
                e => Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    const SOON: Option<Duration> = Some(Duration::from_millis(30));

    #[test]
    fn oneshot_delivers_exactly_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        poller.add(&a, 7).unwrap();
        assert!(poller.add(&a, 7).is_err(), "double add is refused");
        assert_eq!(poller.wait(SOON).unwrap(), None, "nothing to read yet");
        b.write_all(b"x").unwrap();
        assert_eq!(poller.wait(None).unwrap(), Some(7));
        assert_eq!(poller.wait(SOON).unwrap(), None, "disarmed by delivery");
        // The byte is still unread: re-arming reports it again, new token.
        poller.rearm(&a, 8).unwrap();
        assert_eq!(poller.wait(None).unwrap(), Some(8));
    }

    #[test]
    fn removed_descriptor_is_silent_and_cannot_be_rearmed() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        poller.add(&a, 1).unwrap();
        poller.remove(&a).unwrap();
        b.write_all(b"x").unwrap();
        assert_eq!(poller.wait(SOON).unwrap(), None);
        assert!(poller.rearm(&a, 1).is_err());
        assert!(poller.remove(&a).is_err());
    }

    #[test]
    fn hang_up_is_reported_as_readable() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(&a, 3).unwrap();
        drop(b);
        assert_eq!(poller.wait(None).unwrap(), Some(3));
    }

    /// The calling thread's `policy` (field 41 of its `stat` line, counted
    /// after the command name's closing parenthesis: the name may hold
    /// spaces).
    fn own_policy() -> c_int {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let fields = &stat[stat.rfind(')').unwrap() + 1..];
        fields
            .split_whitespace()
            .nth(41 - 3)
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn batch_policy_applies_to_the_calling_thread_only() {
        let spawned = std::thread::spawn(|| {
            set_batch_policy().unwrap();
            own_policy()
        });
        assert_eq!(spawned.join().unwrap(), SCHED_BATCH);
        assert_eq!(own_policy(), 0, "the spawning thread keeps SCHED_OTHER");
    }

    #[test]
    fn wait_with_timeout_returns_none_after_it() {
        let poller = Poller::new().unwrap();
        let started = Instant::now();
        // Sub-millisecond timeouts round up, never down to a busy poll.
        assert_eq!(poller.wait(Some(Duration::from_micros(1))).unwrap(), None);
        assert_eq!(poller.wait(Some(Duration::from_millis(20))).unwrap(), None);
        assert!(started.elapsed() >= Duration::from_millis(20));
    }
}
