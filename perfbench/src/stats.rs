//! Sample summaries: medians, nearest-rank percentiles, and the rule
//! for which percentile a sample count can support.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank with at least `p`% of the samples at or
/// below it.
#[must_use]
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// A percentile is reported as "resolved" only when at least this many
/// samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` of `samples`. `None` when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[nearest_rank(s.len(), p) - 1])
}

/// Whether `n` samples put at least [`MIN_BEYOND`] samples beyond
/// percentile `p`.
#[must_use]
pub fn resolved(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Peak resident set (VmHWM) of process `pid` (`None` = this process),
/// in MiB, from `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        // 100 samples: rank 90, ten beyond -> resolved.
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(beyond(100, 90.0), 10);
        assert!(resolved(100, 90.0));
        // 99 samples: rank ceil(89.1) = 90, only nine beyond.
        assert_eq!(nearest_rank(99, 90.0), 90);
        assert_eq!(beyond(99, 90.0), 9);
        assert!(!resolved(99, 90.0));
        // 101 samples: rank ceil(90.9) = 91, ten beyond.
        assert_eq!(beyond(101, 90.0), 10);
        assert!(resolved(101, 90.0));
        // p50 resolves from 20 samples on.
        assert!(resolved(20, 50.0));
        assert!(!resolved(19, 50.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s[..99], 90.0), Some(90.0));
    }
}
