//! Sample summaries.

use std::time::Duration;

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), linearly interpolated
/// between the two nearest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Arrival-time profile of one operation's proven-final results: when the
/// first arrived, when half of them had, and when each batch did.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Start to first non-empty batch.
    pub first_ms: f64,
    /// Start to the batch that brought the count to half the final count.
    pub half_ms: f64,
    /// Start to the end of the operation.
    pub total_ms: f64,
}

impl Progress {
    /// Builds the profile from `(arrival_ms, tuples)` of each non-empty
    /// batch, in arrival order, and the operation's total time. `None` when
    /// no batch carried a result.
    pub fn from_arrivals(arrivals: &[(f64, usize)], total_ms: f64) -> Option<Self> {
        let results: usize = arrivals.iter().map(|a| a.1).sum();
        let &(first_ms, _) = arrivals.first()?;
        let mut seen = 0;
        let half_ms = arrivals
            .iter()
            .find(|&&(_, n)| {
                seen += n;
                2 * seen >= results
            })
            .map_or(total_ms, |a| a.0);
        Some(Self {
            first_ms,
            half_ms,
            total_ms,
        })
    }
}

/// Fewest samples a window of a timed loop holds (see [`Samples`]).
pub const WINDOW_MIN: usize = 150;
/// Most windows a timed loop is split into.
pub const MAX_WINDOWS: usize = 40;

/// Per-operation samples of a timed loop, summarized into the end-to-end
/// metrics every workload reports.
///
/// Other tenants of a shared host slow it in bursts, and a burst only
/// ever adds time. So the samples are split, in time order, into
/// consecutive windows of equal count (at least [`WINDOW_MIN`] samples, at
/// most [`MAX_WINDOWS`] windows), each statistic is computed per window,
/// and the quietest window's figure is reported: the lowest latency
/// statistic, the highest rate. A change that slows the program slows
/// every window, so it still shows.
#[derive(Debug, Default)]
pub struct Samples {
    /// `(start, profile)` of every completed operation, the start in
    /// seconds from the start of the loop; `qps` counts completions.
    pub ops: Vec<(f64, Progress)>,
    /// `(due, latency)` of every non-empty result batch: latency in ms from
    /// the input that caused it (the query for one-shot work, the push for
    /// subscriptions), which was due `due` seconds into the loop.
    pub updates: Vec<(f64, f64)>,
}

impl Samples {
    /// Writes the latency metrics and `qps` of a loop that ran for `wall`
    /// into `metrics`.
    pub fn report(&self, wall: Duration, metrics: &mut crate::metrics::Metrics) {
        let mut ops: Vec<(f64, &Progress)> = self.ops.iter().map(|o| (o.0, &o.1)).collect();
        ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let col = |f: fn(&Progress) -> f64| ops.iter().map(|o| f(o.1)).collect::<Vec<_>>();
        let (first, half, total) = (col(|p| p.first_ms), col(|p| p.half_ms), col(|p| p.total_ms));
        let mut updates = self.updates.clone();
        updates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let updates: Vec<f64> = updates.iter().map(|u| u.1).collect();
        let p90 = |w: &[f64]| quantile(w, 0.9);
        metrics.set("first_result_ms", quietest(&first, median));
        metrics.set("first_result_p90_ms", quietest(&first, p90));
        metrics.set("half_results_ms", quietest(&half, median));
        metrics.set("total_ms", quietest(&total, median));
        metrics.set("total_p90_ms", quietest(&total, p90));
        let mut ends: Vec<f64> = ops.iter().map(|o| o.0 + o.1.total_ms / 1e3).collect();
        ends.sort_by(f64::total_cmp);
        metrics.set("qps", peak_rate(&ends, wall.as_secs_f64()));
        metrics.set("update_ms", quietest(&updates, median));
        metrics.set("update_p90_ms", quietest(&updates, p90));
    }
}

/// Consecutive windows of equal count over time-ordered `samples`.
fn windows<T>(samples: &[T]) -> std::slice::Chunks<'_, T> {
    let n = (samples.len() / WINDOW_MIN).clamp(1, MAX_WINDOWS);
    samples.chunks(samples.len().div_ceil(n).max(1))
}

/// The lowest value of `stat` over the windows of `values`; 0 when empty.
fn quietest(values: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    windows(values).map(stat).reduce(f64::min).unwrap_or(0.0)
}

/// The highest rate, per second, of the events at `times` (sorted,
/// seconds) over their windows, the last window ending at `end`.
fn peak_rate(times: &[f64], end: f64) -> f64 {
    let mut rate: f64 = 0.0;
    let mut from = 0;
    for w in windows(times) {
        let until = times.get(from + w.len()).copied().unwrap_or(end);
        rate = rate.max(w.len() as f64 / (until - w[0]).max(1e-9));
        from += w.len();
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_quietest_window_is_reported() {
        let n = 10 * WINDOW_MIN;
        let noisy = |i: usize| i < WINDOW_MIN;
        // One noisy window's worth of samples first, then steady ones.
        let latency = |i: usize| {
            if noisy(i) {
                100.0
            } else {
                1.0 + (i % 10) as f64
            }
        };
        let s = Samples {
            ops: (0..n)
                .map(|i| {
                    let t = if noisy(i) { 100.0 } else { 5.0 };
                    let p = Progress {
                        first_ms: t,
                        half_ms: t,
                        total_ms: t,
                    };
                    // The noisy window's operations end half as often.
                    let end = if noisy(i) { 2 * i } else { i + WINDOW_MIN };
                    (end as f64 / 100.0 - t / 1e3, p)
                })
                .rev()
                .collect(),
            updates: (0..n).map(|i| (i as f64, latency(i))).collect(),
        };
        let mut m = crate::metrics::Metrics::default();
        s.report(
            std::time::Duration::from_secs_f64((n + WINDOW_MIN) as f64 / 100.0),
            &mut m,
        );
        assert_eq!(m.get("total_ms"), Some(5.0));
        assert!(
            (m.get("update_p90_ms").unwrap() - 9.1).abs() < 1e-9,
            "{m:?}"
        );
        assert!((m.get("qps").unwrap() - 100.0).abs() < 1e-6, "{m:?}");
        let all = quantile(&(0..n).map(latency).collect::<Vec<_>>(), 0.9);
        assert!(all > 10.0 && quietest(&[], median) == 0.0);
    }

    #[test]
    fn half_point_is_the_batch_reaching_half_the_results() {
        let p = Progress::from_arrivals(&[(1.0, 1), (2.0, 3), (5.0, 4)], 6.0).unwrap();
        assert_eq!((p.first_ms, p.half_ms, p.total_ms), (1.0, 2.0, 6.0));
        assert!(Progress::from_arrivals(&[], 1.0).is_none());
    }
}
