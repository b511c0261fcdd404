//! End-to-end and per-layer benchmark of the hybrid-na compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|mega|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints per-cell or per-phase detail, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `README.md` defines every workload and metric.

mod compile;
mod params;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use params::SETUP_REPEATS;
use report::{Metrics, Outcome};
use trace::Trace;

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("gates_per_s", "1/s"),
    ("compile_ms.geomean", "ms"),
    ("delta_f.hybrid", "log10"),
    ("delta_f.gate", "log10"),
    ("delta_f.shuttle", "log10"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("p50_ms.low", "ms"),
    ("tail_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("tail_ms.high", "ms"),
    ("max_rps", "1/s"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload never calls reports zero.
const PER_LAYER: [(&str, &str); 40] = [
    ("arch.resolve_ms", "ms"),
    ("circuit.qasm_parse_ms", "ms"),
    ("circuit.qasm_bytes", "bytes"),
    ("mapper.busy_ms", "ms"),
    ("mapper.rounds", "count"),
    ("mapper.commits_per_round", "ratio"),
    ("mapper.swaps", "count"),
    ("mapper.moves", "count"),
    ("mapper.gate_routed_share", "ratio"),
    ("mapper.failed", "count"),
    ("mapper.route_cache.hit_ratio", "ratio"),
    ("mapper.route_cache.sites_settled", "count"),
    ("mapper.route_cache.evictions", "count"),
    ("schedule.busy_ms", "ms"),
    ("schedule.items", "count"),
    ("schedule.aod_batches", "count"),
    ("schedule.moves_per_batch", "ratio"),
    ("schedule.lower.busy_ms", "ms"),
    ("schedule.baseline.busy_ms", "ms"),
    ("pipeline.compile_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("pipeline.cancel_overshoot_ms", "ms"),
    ("pipeline.job.parse_ms", "ms"),
    ("pipeline.job.key_us", "us"),
    ("pipeline.export.busy_ms", "ms"),
    ("pipeline.export.bytes", "bytes"),
    ("pipeline.fused.map_ms", "ms"),
    ("pipeline.fused.schedule_ms", "ms"),
    ("pipeline.fused.lower_ms", "ms"),
    ("serve.http.overhead_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.worker_util", "ratio"),
    ("serve.generator_late_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("run.nproc", "count"),
    ("run.steal_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = params::RUN_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "table1" | "mega" | "serve") {
        return Err(format!("unknown workload {workload} (table1, mega, serve)"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Sets up [`SETUP_REPEATS`] times, discarding all but the last set-up
/// outside the timed region; returns the median set-up time in seconds.
fn repeated_setup<S>(make: impl Fn() -> S, discard: impl Fn(S)) -> (f64, S) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        let made = make();
        times.push(start.elapsed().as_secs_f64());
        println!("setup {} s={:.6}", times.len(), times[times.len() - 1]);
        last = Some(made);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Where runs leave their counters and spans (inside the checkout).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Compares this run's exact counters with an earlier run of the same
/// binary on the same inputs, and records them for later runs.
fn check_counters_across_runs(args: &Args, outcome: &mut Outcome) {
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let stamp = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
            format!("{:x}-{:x}", m.len(), stamp.map_or(0, |d| d.as_nanos()))
        })
        .unwrap_or_default();
    // The compile workloads' counters depend on neither seed nor run
    // length; the serve stream depends on both.
    let inputs = if args.workload == "serve" {
        format!("{}-{}", args.seed, args.seconds)
    } else {
        "all".to_owned()
    };
    let path = out_dir().join(format!(
        "counters-{}-trace{}-{inputs}-{exe}.txt",
        args.workload,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != outcome.counters => {
            let diff: Vec<String> = earlier
                .lines()
                .zip(outcome.counters.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("  was {a}\n  now {b}"))
                .collect();
            outcome.problem(format!(
                "nondeterminism: exact counters differ from an earlier run ({}):\n{}",
                path.display(),
                diff.join("\n")
            ));
        }
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(out_dir());
            let _ = std::fs::write(&path, &outcome.counters);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpu_start = sys::CpuTimes::now();
    let wall_start = Instant::now();
    let mut outcome = Outcome::default();
    let mut metrics = Metrics::new();
    let mut spans = Trace::new();
    let workload = args.workload.as_str();
    match (workload, args.trace) {
        ("serve", false) => {
            let (setup_s, setup) = repeated_setup(
                || serve::setup(args.seed, args.seconds, 1.0, true),
                serve::teardown,
            );
            metrics = serve::run(args.seconds, setup_s, setup, &mut outcome);
        }
        ("serve", true) => {
            let setup = serve::setup(args.seed, args.seconds, 0.5, true);
            metrics.put("arch.resolve_ms", setup.resolve_ms, "ms");
            serve::run_traced(setup, &mut spans, &mut outcome, &mut metrics);
        }
        (_, false) => {
            let (setup_s, mut setup) = repeated_setup(|| compile::setup(workload), drop);
            metrics = compile::run(
                workload,
                args.seed,
                args.seconds,
                setup_s,
                &mut setup,
                &mut outcome,
            );
        }
        (_, true) => {
            let mut setup = compile::setup(workload);
            let acc = compile::run_traced(
                args.seed,
                args.seconds,
                &mut setup,
                &mut spans,
                &mut outcome,
            );
            acc.metrics(&spans, outcome.passes, &mut metrics);
            metrics.put("arch.resolve_ms", setup.resolve_ms, "ms");
        }
    }
    let steal = sys::CpuTimes::now().steal_share_since(&cpu_start);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        metrics.put("run.nproc", sys::nproc() as f64, "count");
        metrics.put("run.steal_share", steal, "ratio");
    }
    // Report exactly the expected names, in their order.
    let mut ordered = Metrics::new();
    for (name, unit) in expected {
        match metrics.get(name) {
            Some(v) => ordered.put(name, v, unit),
            None if args.trace => ordered.put(name, 0.0, unit),
            None => ordered.put(name, f64::NAN, unit),
        }
    }
    if !args.trace {
        for name in ordered.non_finite() {
            outcome.problem(format!("metric {name} was not measured as a finite number"));
        }
    }
    check_counters_across_runs(&args, &mut outcome);
    if args.trace {
        let _ = std::fs::create_dir_all(out_dir());
        let path = out_dir().join(format!("spans-{workload}-{}.jsonl", args.seed));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for problem in &outcome.problems {
        println!("problem {problem}");
    }
    print!("{}", ordered.table());
    println!(
        "run workload={workload} seed={} seconds={} trace={} nproc={} steal_share={steal:.4} passes={} wall_s={:.3}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        outcome.passes,
        wall_start.elapsed().as_secs_f64()
    );
    println!("{}", outcome.result_line(&ordered));
}
