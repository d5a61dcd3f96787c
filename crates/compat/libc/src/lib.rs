//! Offline stand-in for the `libc` crate.
//!
//! The build container cannot fetch crates, so this shim provides exactly the
//! FFI subset CrossLight's poll-based reactor needs: the `pollfd` structure,
//! the `POLL*` event flags, and the `poll(2)` entry point. On Unix targets the
//! symbol resolves against the system C library that `std` already links; on
//! other targets a portable fallback reports every descriptor as ready after a
//! short sleep, which degrades the reactor to a polling loop over nonblocking
//! sockets without changing its observable behaviour.
//!
//! On Linux it also declares `getrlimit(2)`/`setrlimit(2)` for the open-file
//! limit, which the server's descriptor-exhaustion tests lower.
//!
//! The declarations mirror the real `libc` crate for the `x86_64`/`aarch64`
//! Linux ABI so a future `cargo add libc` is a drop-in swap.

#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_short = i16;
pub type c_ulong = u64;

/// Count of entries in a `pollfd` array (`nfds_t` is `c_ulong` on Linux).
pub type nfds_t = c_ulong;

/// One descriptor registration for `poll(2)`.
///
/// Layout must match `struct pollfd` from `<poll.h>`: the kernel reads
/// `fd`/`events` and writes `revents` in place.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// Data may be read without blocking.
pub const POLLIN: c_short = 0x001;
/// Urgent data may be read.
pub const POLLPRI: c_short = 0x002;
/// Data may be written without blocking.
pub const POLLOUT: c_short = 0x004;
/// An error condition is pending (output only).
pub const POLLERR: c_short = 0x008;
/// The peer hung up (output only).
pub const POLLHUP: c_short = 0x010;
/// The descriptor is not open (output only).
pub const POLLNVAL: c_short = 0x020;

#[cfg(unix)]
extern "C" {
    /// Wait for readiness on a set of descriptors. Returns the number of
    /// entries with non-zero `revents`, `0` on timeout, or `-1` on error
    /// (consult `io::Error::last_os_error()`).
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
}

/// A resource-limit value (`rlim_t` is 64 bits on Linux).
#[cfg(target_os = "linux")]
pub type rlim_t = u64;

/// Soft and hard limits of one resource, as `struct rlimit` lays them out.
#[cfg(target_os = "linux")]
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct rlimit {
    pub rlim_cur: rlim_t,
    pub rlim_max: rlim_t,
}

/// The resource number of the per-process open-file limit.
#[cfg(target_os = "linux")]
pub const RLIMIT_NOFILE: c_int = 7;

#[cfg(target_os = "linux")]
extern "C" {
    /// Reads a resource limit into `rlim`. Returns `0`, or `-1` on error.
    ///
    /// # Safety
    ///
    /// `rlim` must point to a writable `rlimit`.
    pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    /// Sets a resource limit from `rlim`. Returns `0`, or `-1` on error.
    ///
    /// # Safety
    ///
    /// `rlim` must point to a readable `rlimit`.
    pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
}

/// Portable fallback for targets without a C-library `poll`: sleep briefly,
/// then report every registered descriptor as ready for whatever it asked
/// for. Callers already treat readiness as advisory (sockets are nonblocking
/// and `WouldBlock` is handled), so spurious readiness only costs syscalls.
#[cfg(not(unix))]
pub unsafe fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int {
    let wait_ms = if timeout < 0 { 1 } else { timeout.min(1) };
    std::thread::sleep(std::time::Duration::from_millis(wait_ms as u64));
    let mut ready = 0;
    for i in 0..nfds as usize {
        let entry = &mut *fds.add(i);
        entry.revents = entry.events & (POLLIN | POLLPRI | POLLOUT);
        if entry.revents != 0 {
            ready += 1;
        }
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollfd_layout_matches_the_kernel_abi() {
        assert_eq!(std::mem::size_of::<pollfd>(), 8);
        assert_eq!(std::mem::align_of::<pollfd>(), 4);
        let probe = pollfd {
            fd: 7,
            events: POLLIN | POLLOUT,
            revents: 0,
        };
        // Field order matters to the kernel: fd at offset 0, then events,
        // then revents.
        let base = &probe as *const pollfd as usize;
        assert_eq!(&probe.fd as *const c_int as usize - base, 0);
        assert_eq!(&probe.events as *const c_short as usize - base, 4);
        assert_eq!(&probe.revents as *const c_short as usize - base, 6);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn getrlimit_reads_the_open_file_limit() {
        let mut limit = rlimit::default();
        // SAFETY: `limit` is a live, writable `struct rlimit` for the call.
        assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
        assert!(limit.rlim_cur > 0);
        assert!(limit.rlim_cur <= limit.rlim_max);
    }

    #[cfg(unix)]
    #[test]
    fn poll_times_out_on_an_empty_set() {
        let rc = unsafe { poll(std::ptr::null_mut(), 0, 10) };
        assert_eq!(rc, 0);
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_a_writable_socket() {
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut fds = [pollfd {
            fd: stream.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }];
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, 1000) };
        assert_eq!(rc, 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
    }
}
