//! Peak resident memory from `getrusage(2)`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn max_rss_mib(who: i32) -> f64 {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // 64-bit layout, and `who` is one of the two values the call accepts.
    let status = unsafe { getrusage(who, &mut usage) };
    assert_eq!(status, 0, "getrusage failed");
    usage.maxrss_kib as f64 / 1024.0
}

/// Peak resident memory of this process so far, in MiB.
pub fn self_peak_mib() -> f64 {
    max_rss_mib(RUSAGE_SELF)
}

/// Peak resident memory of the largest child process waited for so far,
/// in MiB (0 before any).
pub fn children_peak_mib() -> f64 {
    max_rss_mib(RUSAGE_CHILDREN)
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_peak_is_positive_and_children_start_at_zero() {
        assert!(super::self_peak_mib() > 0.0);
        assert!(super::children_peak_mib() >= 0.0);
    }
}
