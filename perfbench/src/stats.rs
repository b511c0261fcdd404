//! The benchmark's own arithmetic: order statistics, the tail rule,
//! geometric means, the seeded generator and open-loop accounting.
//! Everything here is pure and unit-tested, so a metric can be trusted
//! independently of the program it measures.

/// Percentiles the tail rule chooses from, highest last.
pub const TAIL_GRID: [f64; 7] = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999];

/// The tail rule: the highest percentile of [`TAIL_GRID`] that leaves
/// at least ten of `n` samples beyond it, or `None` below twenty
/// samples (when not even the median qualifies).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_GRID
        .iter()
        .copied()
        .rev()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`), `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the mean of the two middle values, `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values, `NaN` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: a tiny, fully specified generator, so a seed produces the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets (seconds from the phase start) of a Poisson process
/// of `rate` per second over `[0, duration)`: exponential gaps, never a
/// fixed period, so arrivals cannot beat against a periodic poll.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 − u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Timing of one open-loop request, all in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the client actually started sending it.
    pub sent: f64,
    /// When the full reply had arrived.
    pub done: f64,
}

impl Timing {
    /// How late the generator sent the request (never negative: an
    /// early wake-up waits for the due time).
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }

    /// Latency from the due time, so a stall also charges every request
    /// queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// Median and tail of open-loop latencies at percentile `tail_q`, where
/// a failed or refused request counts as over every limit.
pub fn latency_summary(latencies_ms: &[f64], failed: usize, tail_q: f64) -> (f64, f64) {
    let mut all = latencies_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    (quantile(&all, 0.5), quantile(&all, tail_q))
}

/// The tail of a phase as the median, over `windows` consecutive
/// windows of its requests in arrival order, of each window's
/// percentile `tail_q`. `latencies_ms` holds every request, failed ones
/// as infinity. A host stall that delays one burst of requests moves
/// one window's tail, not the phase's.
pub fn windowed_tail(latencies_ms: &[f64], windows: usize, tail_q: f64) -> f64 {
    let size = latencies_ms.len().div_ceil(windows.max(1)).max(1);
    let tails: Vec<f64> = latencies_ms
        .chunks(size)
        .map(|w| quantile(w, tail_q))
        .collect();
    median(&tails)
}

/// Share of attempted operations that succeeded; the run's result
/// reports the complement as its failure count.
pub fn ok_ratio(attempted: usize, failed: usize) -> f64 {
    if attempted == 0 {
        return f64::NAN;
    }
    (attempted - failed.min(attempted)) as f64 / attempted as f64
}

/// Whether the generator's lateness grew over a phase: the median
/// lateness of its last third exceeds that of its first third by more
/// than `slack_ms`. Late sends inflate latency from the due time, so a
/// growing backlog means the offered rate is not being carried.
pub fn lateness_grows(lateness_ms: &[f64], slack_ms: f64) -> bool {
    let third = lateness_ms.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&lateness_ms[..third]);
    let last = median(&lateness_ms[lateness_ms.len() - third..]);
    last > first + slack_ms
}

/// The rate at which a monotone fit of tail latency against offered
/// rate reaches `limit`. `points` are `(rate, tail_ms)`; the fit pools
/// adjacent violators in log-tail, so one noisy step cannot reverse the
/// curve, and the crossing interpolates log-linearly between the two
/// fitted points around it. `None` when the fit never reaches the limit
/// or starts above it.
pub fn crossing_rate(points: &[(f64, f64)], limit: f64) -> Option<f64> {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .map(|&(r, t)| (r, t.clamp(1e-9, 1e12).ln()))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Pool adjacent violators: blocks of (rate sum, value sum, count).
    let mut blocks: Vec<(f64, f64, f64)> = Vec::new();
    for (r, v) in pts {
        blocks.push((r, v, 1.0));
        while blocks.len() > 1 {
            let (r1, v1, n1) = blocks[blocks.len() - 1];
            let (r0, v0, n0) = blocks[blocks.len() - 2];
            if v0 / n0 <= v1 / n1 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (r0 + r1, v0 + v1, n0 + n1);
        }
    }
    let fitted: Vec<(f64, f64)> = blocks.iter().map(|&(r, v, n)| (r / n, v / n)).collect();
    let target = limit.ln();
    if fitted.first()?.1 > target {
        return None;
    }
    fitted.windows(2).find(|w| w[1].1 > target).map(|w| {
        let ((r0, v0), (r1, v1)) = (w[0], w[1]);
        let frac = (target - v0) / (v1 - v0);
        r0 * (r1 / r0).powf(frac)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.98));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(2000), Some(0.995));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 57, 400, 1000, 1999, 2000, 5000, 12_345] {
            let q = tail_quantile(n).expect("enough samples");
            assert!((n as f64) * (1.0 - q) >= 10.0 - 1e-9, "n {n} q {q}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        // Ten samples lie beyond the p99 of a thousand.
        assert_eq!(v.iter().filter(|x| **x > quantile(&v, 0.99)).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn geomean_weights_every_cell_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        // Doubling one cell of four moves the geomean by 2^(1/4),
        // whichever cell it is.
        let base = [0.2, 3.0, 40.0, 600.0];
        for i in 0..base.len() {
            let mut v = base;
            v[i] *= 2.0;
            let ratio = geomean(&v) / geomean(&base);
            assert!((ratio - 2f64.powf(0.25)).abs() < 1e-12);
        }
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_has_its_rate() {
        let a = poisson_arrivals(&mut Rng::new(7), 300.0, 20.0);
        let b = poisson_arrivals(&mut Rng::new(7), 300.0, 20.0);
        let c = poisson_arrivals(&mut Rng::new(8), 300.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|t| (0.0..20.0).contains(t)));
        // 6000 expected arrivals; five standard deviations is ±387.
        assert!((a.len() as f64 - 6000.0).abs() < 387.0, "{}", a.len());
        // Exponential gaps: their coefficient of variation is one, far
        // from the zero of a fixed period.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let on_time = Timing {
            due: 1.0,
            sent: 1.0,
            done: 1.003,
        };
        assert!((on_time.latency_ms() - 3.0).abs() < 1e-9);
        assert_eq!(on_time.lateness_ms(), 0.0);
        // A request sent 7 ms late by a busy generator carries the
        // 7 ms in its latency as well as in the lateness.
        let late = Timing {
            due: 2.0,
            sent: 2.007,
            done: 2.010,
        };
        assert!((late.latency_ms() - 10.0).abs() < 1e-9);
        assert!((late.lateness_ms() - 7.0).abs() < 1e-9);
        // Waking early never reports negative lateness.
        let early = Timing {
            due: 3.0,
            sent: 2.9999,
            done: 3.001,
        };
        assert_eq!(early.lateness_ms(), 0.0);
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        let steady: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        assert_eq!(
            windowed_tail(&steady, 4, 0.95),
            quantile(&steady[..100], 0.95)
        );
        let mut burst = steady.clone();
        for v in &mut burst[10..40] {
            *v = 500.0;
        }
        burst[250] = f64::INFINITY;
        // Window tails 500, 94, 95 (the refused request), 94.
        assert_eq!(windowed_tail(&burst, 4, 0.95), 94.5);
        // A whole-phase tail would have reached the burst.
        assert_eq!(quantile(&burst, 0.95), 500.0);
    }

    #[test]
    fn lateness_growth_detects_a_backlog() {
        let steady: Vec<f64> = (0..300).map(|i| f64::from(i % 3)).collect();
        assert!(!lateness_grows(&steady, 5.0));
        let backlog: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.2).collect();
        assert!(lateness_grows(&backlog, 5.0));
        assert!(!lateness_grows(&[50.0, 60.0], 5.0));
    }

    #[test]
    fn refused_requests_count_as_failures_and_miss_every_limit() {
        assert_eq!(ok_ratio(200, 0), 1.0);
        assert_eq!(ok_ratio(200, 3), 0.985);
        assert_eq!(ok_ratio(54, 1), 53.0 / 54.0);
        assert!(ok_ratio(0, 0).is_nan());
        // Nine fast replies and one refusal: the refusal is the slowest
        // sample, so a tail that reaches it is infinite.
        let fast = [1.0; 9];
        let (p50, tail) = latency_summary(&fast, 1, 0.95);
        assert_eq!(p50, 1.0);
        assert!(tail.is_infinite());
        let (_, tail) = latency_summary(&fast, 0, 0.95);
        assert_eq!(tail, 1.0);
    }

    #[test]
    fn crossing_rate_fits_a_monotone_curve() {
        let limit = 20.0;
        // A clean knee between 300 (10 ms) and 345 (40 ms).
        let clean = [(200.0, 8.0), (300.0, 10.0), (345.0, 40.0)];
        let r = crossing_rate(&clean, limit).expect("crosses");
        assert!((r - 300.0 * 1.15f64.powf(0.5)).abs() < 1e-9);
        // A noisy step that failed below a passing one is pooled with
        // it instead of ending the curve early.
        let noisy = [(200.0, 8.0), (264.0, 25.0), (288.0, 15.0), (304.0, 30.0)];
        let r = crossing_rate(&noisy, limit).expect("crosses");
        assert!(r > 264.0 && r < 304.0, "{r}");
        // Order of the points does not matter.
        let mut shuffled = noisy;
        shuffled.reverse();
        assert_eq!(crossing_rate(&shuffled, limit), Some(r));
        assert_eq!(crossing_rate(&[(100.0, 5.0), (200.0, 9.0)], limit), None);
        assert_eq!(crossing_rate(&[(100.0, 25.0), (200.0, 30.0)], limit), None);
        assert!(crossing_rate(&[(100.0, 5.0), (200.0, f64::INFINITY)], limit).is_some());
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let mut a: Vec<usize> = (0..54).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..54).collect::<Vec<_>>());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (8..=20).contains(&r.range(8, 20))));
    }
}
