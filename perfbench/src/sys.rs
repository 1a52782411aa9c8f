//! Process measurements and controls the standard library does not
//! offer: CPU time, peak resident memory, a graceful termination signal
//! and a socket's receive buffer size.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;
const SIGTERM: i32 = 15;
const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;

/// User+system CPU seconds of this process, all threads (live and
/// exited) included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User+system CPU seconds of another process, from `/proc/<pid>/stat`
/// (clock-tick resolution).
pub fn child_cpu_s(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    Some((utime + stime) / ticks.max(1) as f64)
}

/// Peak resident set size (`VmHWM`) of `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS watermark to its current RSS, so the
/// next [`peak_rss_mb`] covers only what runs after set-up.
pub fn reset_peak_rss() {
    // Best effort: without the reset the peak also covers set-up.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Sends SIGTERM to `pid` (the daemon drains and exits on it).
pub fn terminate(pid: u32) {
    // SAFETY: kill only signals the process; `pid` is our own child.
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// Asks for a receive buffer of `bytes` on socket `fd` (`SO_RCVBUF`; the
/// kernel doubles the value for its bookkeeping and caps it at
/// `net.core.rmem_max`). Returns whether the kernel accepted the request.
pub fn set_rcvbuf(fd: i32, bytes: i32) -> bool {
    // SAFETY: `bytes` outlives the call and `len` is its size; the kernel
    // only reads it.
    unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes,
            std::mem::size_of::<i32>() as u32,
        ) == 0
    }
}
