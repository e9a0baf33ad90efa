//! Clocks, order statistics and the host/build description every
//! report carries.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux ABI defines; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([':', '\t', ' ']).trim().to_string())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and process-CPU seconds of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (cpu0, t0) = (cpu_s(), Instant::now());
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_s() - cpu0)
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50.0)
}

/// A tail percentile that one burst of interference cannot own: the
/// sample, in run order, is cut into five consecutive parts and the
/// result is the median of the parts' `p`-th percentiles.
pub fn steady_percentile(in_order: &[f64], p: f64) -> f64 {
    let part = in_order.len().div_ceil(5).max(1);
    let tails: Vec<f64> = in_order.chunks(part).map(|c| percentile(c, p)).collect();
    median(&tails)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and build description as JSON object members (no braces).
pub fn host_json() -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let (isa_run, isa_build) = (
        format!(
            "avx2={} avx512bw={}",
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512bw")
        ),
        format!(
            "avx2={} avx512bw={}",
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "avx512bw")
        ),
    );
    #[cfg(target_arch = "aarch64")]
    let (isa_run, isa_build) = (
        format!("neon={}", std::arch::is_aarch64_feature_detected!("neon")),
        format!("neon={}", cfg!(target_feature = "neon")),
    );
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let (isa_run, isa_build) = (String::from("none"), String::from("none"));
    // The runner knows how it built this binary (rustc, flags, profile,
    // commit) and hands that over; run by hand, the field is empty.
    let build = std::env::var("BENCH_BUILD").unwrap_or_else(|_| "{}".into());
    format!(
        "\"cpu\": {cpu:?}, \"nproc\": {}, \"isa_detected\": {isa_run:?}, \
         \"isa_compiled\": {isa_build:?}, \"build\": {build}",
        nproc()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sample: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&sample), 10.0);
        assert_eq!(percentile(&sample, 95.0), 19.0);
        assert_eq!(percentile(&sample, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn steady_percentile_ignores_one_bad_fifth() {
        let mut sample = vec![1.0; 100];
        assert_eq!(steady_percentile(&sample, 95.0), 1.0);
        sample[40..60].fill(9.0);
        assert_eq!(percentile(&sample, 95.0), 9.0);
        assert_eq!(steady_percentile(&sample, 95.0), 1.0);
        assert_eq!(steady_percentile(&[3.0, 4.0], 95.0), 3.0);
    }

    #[test]
    fn clocks_advance() {
        let (_, wall, cpu) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(wall > 0.0 && cpu > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
