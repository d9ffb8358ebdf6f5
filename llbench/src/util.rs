//! Small measurement helpers: quantiles, a line hash, seed mixing and
//! the process's peak resident memory.

use std::time::{Duration, Instant};

/// One mebibyte: every `MB` this benchmark prints is 2^20 bytes, the
/// unit the gauntlet's corpus tiers are sized in.
pub const MB: f64 = (1u64 << 20) as f64;

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Milliseconds in `d`, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds from `from` to `to`; negative when `to` is earlier.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    match to.checked_duration_since(from) {
        Some(d) => ms(d),
        None => -ms(from.duration_since(to)),
    }
}

/// Derives the `i`-th independent sub-seed of `seed` (splitmix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fast 64-bit hash of a byte string, word at a time: cheap enough to
/// run on every response line inside the timed section.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(23) ^ b as u64).wrapping_mul(K);
    }
    h ^ (h >> 29)
}

/// Hands the allocator's free heap back to the kernel (glibc
/// `malloc_trim`), so memory freed during set-up does not sit in the
/// resident size a later [`reset_peak_rss`] starts from. A no-op on
/// other C libraries.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns free pages to the kernel; it
        // is thread-safe and takes no pointers.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current resident
/// size, so a later [`peak_rss_mb`] covers only what follows. Returns
/// false where the kernel does not support it; the peak then counts
/// from process start.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / MB)
        .unwrap_or(f64::NAN)
}

/// Wall-clock of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Host CPU time stolen from this machine by the hypervisor (the `steal`
/// column of `/proc/stat`), and all CPU time, in clock ticks.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Percent of CPU time stolen between two [`cpu_steal_ticks`] readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}
