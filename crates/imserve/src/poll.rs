//! `poll(2)`: the crate's one foreign call and its one `unsafe` block. std
//! has no readiness wait but already links libc, and the build has no
//! registry to take a binding crate from, so the reactor declares it here.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::os::fd::RawFd;
use std::time::Duration;

/// Data to read, a connection to accept, or a peer that hung up.
pub(crate) const POLLIN: c_short = 0x001;
/// Room to write.
pub(crate) const POLLOUT: c_short = 0x004;

/// C's `struct pollfd`. `POLLERR` and `POLLHUP` come back in `revents`
/// whatever `events` asked for.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: c_short,
    pub(crate) revents: c_short,
}

/// C's `nfds_t`.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds; `None` waits without limit) has passed. Returns how many
/// entries came back with a non-zero `revents`; 0 is a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let millis = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: pointer and length describe one live, exclusively borrowed
    // slice of `repr(C)` structs laid out as `struct pollfd`; `poll` writes
    // only their `revents` fields and keeps nothing after it returns.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, millis) };
    usize::try_from(ready).map_err(|_| std::io::Error::last_os_error())
}
