//! The fixed parameters of every workload. Later runs are compared
//! against earlier ones, so none of these may change without measuring
//! the baseline again; `README.md` gives the reason for each.

use std::time::Duration;

/// Per-compile limit on `table1` and `mega`: a `CancelToken` deadline
/// about three times the slowest cell that completes (the shuttling /
/// gate-only / qft cell, 680–850 ms on a 2-vCPU host).
pub const COMPILE_LIMIT: Duration = Duration::from_millis(2500);

/// Cells outside the fixed cell list, as `(preset, mode, circuit)`:
/// they did not complete within [`COMPILE_LIMIT`] when the benchmark
/// was defined. They are still compiled and counted every pass, but
/// their times and quality stay out of the aggregates, so fixing one
/// lowers the failure count without moving the timing metrics.
pub const OUTSIDE_FIXED_LIST: &[(&str, &str, &str)] = &[("shuttling", "gate", "qpe")];

/// Nominal length of one `table1` pass in seconds (53 cells of about
/// 9 s plus the limit hit); `--seconds` over it gives the pass count.
pub const TABLE1_PASS_S: f64 = 12.0;
/// A `table1` run stops early once it has taken this many times
/// `--seconds`, so a much slower program still finishes in time.
pub const MAX_RUN_FACTOR: f64 = 3.0;

/// Hybrid decision ratio α of the hybrid mode (the paper's Table 1a).
pub const HYBRID_ALPHA: f64 = 1.0;

/// The `mega` lattice: side and atom count (mixed physics).
pub const MEGA_SIDE: u32 = 100;
/// Atoms on the `mega` lattice.
pub const MEGA_ATOMS: u32 = 4000;

/// `serve` targets: the three presets on a 6×6 lattice with 20 atoms.
pub const SERVE_SIDE: u32 = 6;
/// Atoms of every `serve` target.
pub const SERVE_ATOMS: u32 = 20;
/// Qubit range of the `serve` circuits.
pub const SERVE_QUBITS: (u32, u32) = (8, 20);
/// Chance that an arrival repeats an earlier document.
pub const SERVE_REPEAT: f64 = 0.5;
/// Catalog documents whose δF, native ops and compile times make the
/// `serve` quality and compile-time aggregates: a run's fixed-rate
/// phases draw 1100 ± 33 distinct documents, so every run reaches 900.
pub const QUALITY_DOCS: usize = 900;

/// The `low` offered rate, requests per second.
pub const LOW_RPS: f64 = 60.0;
/// The `high` offered rate, requests per second: below the knee where
/// a client holding at most two connections stops carrying the load,
/// which lay between 180/s and 270/s on a 2-vCPU host losing 1–8% of
/// its CPU time to steal.
pub const HIGH_RPS: f64 = 120.0;
/// Share of `--seconds` spent at the `low` rate.
pub const LOW_SHARE: f64 = 0.42;
/// Share of `--seconds` spent at the `high` rate.
pub const HIGH_SHARE: f64 = 0.30;
/// Windows a fixed-rate phase is cut into, in arrival order; the
/// phase's tail is the median of the windows' tails, so one host stall
/// moves one window, not the metric.
pub const TAIL_WINDOWS: usize = 8;
/// Tail percentile at the `low` rate: the tail rule for a window's
/// ~110 arrivals in a 36 s run.
pub const LOW_TAIL: f64 = 0.9;
/// Tail percentile at the `high` rate: the tail rule for a window's
/// ~160 arrivals in a 36 s run.
pub const HIGH_TAIL: f64 = 0.9;
/// Latency limit on the tail for `max_rps`, in ms.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// Ratio between successive offered rates of the `max_rps` search
/// while it has no bracket yet.
pub const SEARCH_GROWTH: f64 = 1.25;
/// Length of one `max_rps` search step, in seconds.
pub const SEARCH_STEP_S: f64 = 1.6;
/// Tail percentile of the `max_rps` search: the tail rule for a step's
/// 200–499 requests (rates of 125–310/s), used for every step and for
/// the fixed-rate phases alike so the fitted points are comparable.
pub const SEARCH_TAIL: f64 = 0.95;
/// Lateness growth, in ms, that marks a search step as not carried.
pub const LATENESS_SLACK_MS: f64 = 5.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The run length the tail percentiles were chosen for (`run_seconds`
/// in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 36.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_quantile;

    #[test]
    fn fixed_tails_follow_the_tail_rule_at_the_fixed_run_length() {
        let expected = |rate: f64, share: f64| (rate * share * RUN_SECONDS) as usize / TAIL_WINDOWS;
        assert_eq!(tail_quantile(expected(LOW_RPS, LOW_SHARE)), Some(LOW_TAIL));
        assert_eq!(
            tail_quantile(expected(HIGH_RPS, HIGH_SHARE)),
            Some(HIGH_TAIL)
        );
    }
}
