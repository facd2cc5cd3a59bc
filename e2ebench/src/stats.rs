//! Small order statistics and process-memory helpers.

/// Median of `v` (0 for an empty slice). Sorts a copy.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: 99 when at least ten
/// observations lie beyond it, otherwise the highest whole percentile that
/// still leaves ten beyond it (never below the median).
pub fn supported_tail_pct(n: usize) -> f64 {
    let mut pct = 99.0;
    while pct > 50.0 && (n as f64) * (1.0 - pct / 100.0) < 10.0 {
        pct -= 1.0;
    }
    pct
}

/// Interquartile mean: the mean of the values between the first and
/// third quartiles (inclusive), robust to a few outliers at either end.
pub fn iq_mean(v: &[f64]) -> f64 {
    let (lo, hi) = (quantile(v, 0.25), quantile(v, 0.75));
    mean(
        &v.iter()
            .copied()
            .filter(|x| (lo..=hi).contains(x))
            .collect::<Vec<_>>(),
    )
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: return free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident size, so later peaks exclude earlier, untimed prep.
/// Free heap the prep left behind is handed back to the kernel first;
/// otherwise it would stay resident and set the peak.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free memory inside the
    // allocator's arenas; it touches no live allocation and is safe to
    // call at any time from any thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("memory: peak not reset ({e}); peak_rss_mb includes prep");
    }
    eprintln!(
        "memory: {:.0} MiB resident when the peak is reset",
        rss_mb()
    );
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
