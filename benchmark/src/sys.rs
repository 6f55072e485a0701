//! What the benchmark asks of the operating system: the process's CPU time,
//! peak memory and context switches, and precise sleeps.
//!
//! The repo carries no `libc` crate; std already links libc, so — like
//! `mpsync-net`'s `sys.rs` — this declares the two symbols it needs.

#[cfg(target_os = "linux")]
use std::os::raw::c_ulong;
use std::os::raw::{c_int, c_long};

const RUSAGE_SELF: c_int = 0;
#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn getrusage(who: c_int, usage: *mut [c_long; 18]) -> c_int;
    #[cfg(target_os = "linux")]
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    #[cfg(target_os = "linux")]
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    #[cfg(target_os = "linux")]
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// A reading of the process-wide resource counters (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time consumed so far, in microseconds.
    pub cpu_us: u64,
    /// Peak resident set size so far, in KiB.
    pub max_rss_kb: u64,
    /// Voluntary plus involuntary context switches so far.
    pub ctx_switches: u64,
}

/// Reads the process's counters.
pub fn usage() -> Usage {
    // `struct rusage` on LP64 unix: two `timeval`s (sec, usec) followed by
    // fourteen longs, of which [4] is ru_maxrss and [16], [17] are
    // ru_nvcsw and ru_nivcsw.
    let mut ru: [c_long; 18] = [0; 18];
    // SAFETY: `ru` is a valid, writable buffer of exactly the size and
    // alignment of `struct rusage` (18 longs), and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let us = |sec: c_long, usec: c_long| sec as u64 * 1_000_000 + usec as u64;
    Usage {
        cpu_us: us(ru[0], ru[1]) + us(ru[2], ru[3]),
        max_rss_kb: ru[4] as u64,
        ctx_switches: ru[16] as u64 + ru[17] as u64,
    }
}

/// Asks the kernel to wake this thread's sleeps on time instead of up to
/// 50 µs late (the default timer slack). It matters to a load generator
/// whose inter-arrival gaps are about 100 µs: `wire-open`'s median lateness
/// (`loadgen.lag_p50_us`) is 19 µs with this and 63 µs without. Best effort.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// The CPUs (of the first 64) the calling thread may run on, as a bit set;
/// 0 where the platform cannot say.
pub fn allowed_cpus() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut mask = 0u64;
        // SAFETY: `mask` is a valid, writable 8-byte CPU set that outlives
        // the call; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0 {
            return mask;
        }
    }
    0
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to the CPUs whose bit is set in `mask`. Best effort: returns whether the
/// kernel accepted it.
pub fn pin_current_thread(mask: u64) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a valid 8-byte CPU set that outlives the call;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = mask;
        false
    }
}

/// Hardware threads available to this process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = usage();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = usage();
        assert!(
            after.cpu_us >= before.cpu_us + 10_000,
            "{before:?} {after:?}"
        );
        assert!(after.max_rss_kb > 0);
        assert!(nproc() >= 1);
    }
}
