//! Order statistics for latency samples.

/// The `q`-quantile (0 < q ≤ 1) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at
/// or below it. Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// How many samples lie strictly above the nearest-rank position of
/// the `q`-quantile — the sample support the percentile rests on.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |rank| n - rank)
}

fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The small epsilon keeps `0.99 * 100` (= 99.00000000000001) at
    // rank 99 instead of rounding up to 100.
    let rank = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(rank.min(n))
}

/// The median of an unsorted sample (mean of the two middle values for
/// an even count); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A loop's figures over its timed seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Figures {
    /// 200s completed per second of the timed run, each request counted
    /// by the share of its lifetime inside it (so the count is not
    /// rounded to whole requests at either end).
    pub throughput_rps: f64,
    /// Nearest-rank median latency of every sample completing in the
    /// timed seconds, ms.
    pub p50_ms: f64,
    /// Nearest-rank p99 latency of the same samples, ms.
    pub p99_ms: f64,
    /// The samples both percentiles rest on.
    pub samples: usize,
}

/// Computes [`Figures`] from `(completed_s, latency_ms, ok)` samples
/// over the timed seconds `[0, seconds)`: samples completing before 0
/// (the untimed lead-in) or at or after `seconds` are left out of the
/// latencies.
pub fn figures(samples: &[(f64, f64, bool)], seconds: u64) -> Figures {
    let timed = seconds as f64;
    let mut completed_200s = 0.0;
    let mut latencies = Vec::with_capacity(samples.len());
    for &(completed, latency, ok) in samples {
        if (0.0..timed).contains(&completed) {
            latencies.push(latency);
        }
        let (start, end) = (completed - latency / 1e3, completed);
        let inside = end.min(timed) - start.max(0.0);
        if ok && end > start && inside > 0.0 {
            completed_200s += inside / (end - start);
        }
    }
    latencies.sort_by(f64::total_cmp);
    Figures {
        throughput_rps: completed_200s / timed,
        p50_ms: percentile(&latencies, 0.5).unwrap_or(0.0),
        p99_ms: percentile(&latencies, 0.99).unwrap_or(0.0),
        samples: latencies.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_by_hand() {
        // Three timed seconds. The sample at 3.2 s lies past them and the
        // one at -0.5 s in the lead-in, so both are left out of the
        // latencies; the 200 completing at 2.4 s after 1000 ms lies wholly
        // inside. Five 200s inside over 3 s; the failed request at 1.5 s
        // counts toward latency but not throughput.
        let samples = [
            (-0.5, 1.0, true),
            (0.1, 10.0, true),
            (0.9, 30.0, true),
            (1.2, 5.0, true),
            (1.5, 7.0, false),
            (1.8, 9.0, true),
            (2.4, 1000.0, true),
            (3.2, 99.0, true),
        ];
        let f = figures(&samples, 3);
        assert!((f.throughput_rps - 5.0 / 3.0).abs() < 1e-12, "{f:?}");
        // Six timed latencies 5, 7, 9, 10, 30, 1000: the nearest-rank
        // median is the 3rd, and the p99 of six samples the largest.
        assert_eq!((f.p50_ms, f.p99_ms, f.samples), (9.0, 1000.0, 6));
        // Cut at 2 s, the 1000-ms request completing at 2.4 s lies 60%
        // inside: 4.6 requests over 2 s. The 3.2-s one lies wholly past.
        let f2 = figures(&samples, 2);
        assert!((f2.throughput_rps - 2.3).abs() < 1e-12, "{f2:?}");
        assert_eq!(f2.samples, 5);
        // A request straddling the lead-in's end counts by the share of
        // its lifetime after 0 toward throughput, and wholly toward latency.
        let straddle = figures(&[(0.5, 1000.0, true)], 1);
        assert_eq!((straddle.throughput_rps, straddle.samples), (0.5, 1));
        let lead_in_only = figures(&[(-0.1, 10.0, true)], 1);
        assert_eq!(
            (
                lead_in_only.throughput_rps,
                lead_in_only.p50_ms,
                lead_in_only.samples
            ),
            (0.0, 0.0, 0)
        );
    }

    #[test]
    fn pooled_percentiles_rest_on_every_timed_sample() {
        // 2500 samples per window for 3 windows, latencies 1..=2500 ms in
        // every window: the pooled figures are those of one window.
        let samples: Vec<(f64, f64, bool)> = (0..3)
            .flat_map(|w| (1..=2500).map(move |i| (w as f64 + 0.5, f64::from(i), true)))
            .collect();
        let w = figures(&samples, 3);
        // ceil(0.5 · 7500) = 3750 → the 1250th value of each window;
        // ceil(0.99 · 7500) = 7425 → the 2475th.
        assert_eq!((w.p50_ms, w.p99_ms, w.samples), (1250.0, 2475.0, 7500));
        assert_eq!(samples_beyond(w.samples, 0.99), 75);
    }

    #[test]
    fn percentile_matches_hand_computed_nearest_ranks() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank = ceil(q·n): 0.5·10 = 5 → 5th value; 0.9·10 = 9; 0.95·10
        // = 9.5 → 10; 0.1·10 = 1.
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        assert_eq!(percentile(&ten, 0.9), Some(9.0));
        assert_eq!(percentile(&ten, 0.95), Some(10.0));
        assert_eq!(percentile(&ten, 0.1), Some(1.0));
        assert_eq!(percentile(&ten, 1.0), Some(10.0));

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));

        let five = [3.0, 7.0, 8.0, 15.0, 20.0];
        // ceil(0.4·5) = 2 → 7; ceil(0.75·5) = 4 → 15.
        assert_eq!(percentile(&five, 0.4), Some(7.0));
        assert_eq!(percentile(&five, 0.75), Some(15.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[4.2], 0.99), Some(4.2));
    }

    #[test]
    fn sample_support_beyond_the_p99() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1500, 0.99), 15);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_and_mean_by_hand() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
