//! The benchmark's own arithmetic: percentiles and the rule for which one a
//! sample supports, window medians, and open-loop due-time accounting.
//!
//! Everything here is pure so it can be unit-tested apart from the timed
//! workloads.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in a sorted sample of
/// `n` values: the smallest rank `k` with `k ≥ p/100 · n`, as a 0-based
/// index. `n` must be positive.
pub fn rank_index(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && p > 0.0 && p <= 100.0);
    // Round the product before `ceil` so that e.g. 0.99 · 1000 lands on
    // 990, not on 991 through a representation error.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when not even the
/// median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank_index(sorted.len(), p)]
}

/// Sorts a sample in place and returns its nearest-rank percentile.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// The median (middle value; mean of the two middle values for an even
/// count) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One open-loop request's timestamps, in nanoseconds from the start of
/// the run: when it was due, when the generator sent it, and when its
/// answer was in hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTimes {
    /// Scheduled send time.
    pub due_ns: u64,
    /// Time the generator actually began the request.
    pub sent_ns: u64,
    /// Time the answer (quote included) was complete.
    pub done_ns: u64,
}

impl DueTimes {
    /// The request's latency as a user sees it: from when it was due, so a
    /// generator stall that delays later sends counts against them.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator ran for this request.
    pub fn generator_lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Latency measured from the actual send, which hides generator lag;
    /// kept to show the difference in tests.
    #[cfg(test)]
    pub fn service_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }
}

/// Splits `[0, span_ns)` into `windows` equal windows and returns each
/// event's window index, or `None` for events outside the span.
pub fn window_of(t_ns: u64, span_ns: u64, windows: usize) -> Option<usize> {
    if span_ns == 0 || windows == 0 || t_ns >= span_ns {
        return None;
    }
    Some(((t_ns as u128 * windows as u128) / span_ns as u128) as usize)
}

/// Per-window values of a timed sample: groups `(t_ns, value)` pairs into
/// `windows` equal windows over `[0, span_ns)` and applies `summary` to
/// each window that holds at least `min_count` values.
pub fn per_window(
    samples: &[(u64, f64)],
    span_ns: u64,
    windows: usize,
    min_count: usize,
    summary: impl Fn(&mut [f64]) -> f64,
) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if let Some(w) = window_of(t, span_ns, windows) {
            buckets[w].push(v);
        }
    }
    buckets
        .into_iter()
        .filter(|b| b.len() >= min_count.max(1))
        .map(|mut b| summary(&mut b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        // 1..=100: p50 is the 50th value, p99 the 99th, p100 the last.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        // Odd count: p50 of 1..=5 is 3.
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        // 0.99 · 1000 must rank 990, not 991.
        assert_eq!(rank_index(1000, 99.0), 989);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut values = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut values, 50.0), 3.0);
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater_ranks() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has 10 beyond it.
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 needs n - ceil(0.9 n) ≥ 10, first true at n = 100.
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // p99 needs 1000 samples, p99.9 needs 10 000.
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn due_time_latency_charges_generator_stalls_to_later_requests() {
        // Three requests due every 100 µs; the generator stalls 1 ms before
        // sending the second, then sends the third at once. Each takes
        // 50 µs to serve once sent.
        let reqs = [
            DueTimes {
                due_ns: 0,
                sent_ns: 0,
                done_ns: 50_000,
            },
            DueTimes {
                due_ns: 100_000,
                sent_ns: 1_100_000,
                done_ns: 1_150_000,
            },
            DueTimes {
                due_ns: 200_000,
                sent_ns: 1_100_000,
                done_ns: 1_150_000,
            },
        ];
        let service: Vec<u64> = reqs.iter().map(DueTimes::service_ns).collect();
        assert_eq!(service, vec![50_000, 50_000, 50_000]);
        let latency: Vec<u64> = reqs.iter().map(DueTimes::latency_ns).collect();
        assert_eq!(latency, vec![50_000, 1_050_000, 950_000]);
        let lag: Vec<u64> = reqs.iter().map(DueTimes::generator_lag_ns).collect();
        assert_eq!(lag, vec![0, 1_000_000, 900_000]);
        // Latency from due = lag + service, exactly.
        for r in &reqs {
            assert_eq!(r.latency_ns(), r.generator_lag_ns() + r.service_ns());
        }
    }

    #[test]
    fn windows_partition_the_span() {
        assert_eq!(window_of(0, 1000, 4), Some(0));
        assert_eq!(window_of(249, 1000, 4), Some(0));
        assert_eq!(window_of(250, 1000, 4), Some(1));
        assert_eq!(window_of(999, 1000, 4), Some(3));
        assert_eq!(window_of(1000, 1000, 4), None);
        let samples: Vec<(u64, f64)> = (0..1000u64).map(|t| (t, (t / 250) as f64)).collect();
        let medians = per_window(&samples, 1000, 4, 1, |w| median(w));
        assert_eq!(medians, vec![0.0, 1.0, 2.0, 3.0]);
        // Windows below the minimum count are skipped.
        assert!(per_window(&samples, 1000, 4, 251, |w| median(w)).is_empty());
    }
}
