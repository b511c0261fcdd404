//! The compile workloads, `table1` and `mega`: a fixed list of cells
//! (target × circuit × mode) compiled one after another on one thread
//! through `Compiler::compile_with_cancel` with one warm scratch, pass
//! after pass, each pass in a seeded order.

use std::fmt::Write as _;
use std::time::Instant;

use na_arch::{HardwareParams, Target, TargetSpec};
use na_circuit::decompose::decompose_to_native;
use na_circuit::generators::{table1b_suite, Qft, RandomCircuit};
use na_circuit::Circuit;
use na_mapper::{
    verify_mapping_on, CacheStats, CancelToken, HybridMapper, MapScratch, MapStats, MappedCircuit,
};
use na_pipeline::{
    CompileError, CompileScratch, CompileStats, CompiledProgram, Compiler, MappingOptions,
};
use na_schedule::aod_program::{lower_batch, validate_program_with};
use na_schedule::{
    ComparisonReport, IncrementalScheduler, ScheduleMetrics, ScheduledItem, Scheduler,
};

use crate::params::{
    COMPILE_LIMIT, HYBRID_ALPHA, MAX_RUN_FACTOR, MEGA_ATOMS, MEGA_SIDE, OUTSIDE_FIXED_LIST,
    TABLE1_PASS_S,
};
use crate::report::{Metrics, Outcome};
use crate::stats::{geomean, median, ok_ratio, quantile, Rng};
use crate::trace::Trace;

/// A mapping mode of the paper's Table 1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Gate-based routing only (mode B).
    Gate,
    /// Shuttling only (mode A).
    Shuttle,
    /// Hybrid routing at α = [`HYBRID_ALPHA`] (mode C).
    Hybrid,
}

impl Mode {
    /// Every mode, in report order.
    pub const ALL: [Mode; 3] = [Mode::Gate, Mode::Shuttle, Mode::Hybrid];

    /// Short name used in cell names and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Gate => "gate",
            Mode::Shuttle => "shuttle",
            Mode::Hybrid => "hybrid",
        }
    }

    /// The session's mapping options.
    pub fn options(self) -> MappingOptions {
        match self {
            Mode::Gate => MappingOptions::gate_only(),
            Mode::Shuttle => MappingOptions::shuttle_only(),
            Mode::Hybrid => MappingOptions::hybrid(HYBRID_ALPHA),
        }
    }
}

/// A compile session plus the pieces the layer-by-layer replay calls
/// directly.
#[derive(Debug)]
pub struct Session {
    /// The fused compiler.
    pub compiler: Compiler,
    /// The mapper the replay runs (same target and configuration).
    pub mapper: HybridMapper,
    /// The scheduler whose AOD constraints and baseline the replay uses.
    pub scheduler: Scheduler,
}

impl Session {
    /// Builds the session for `spec` in `mode`.
    pub fn new(spec: &TargetSpec, mode: Mode) -> Self {
        Session::from_compiler(
            Compiler::for_target(spec)
                .mapping(mode.options())
                .baseline(true)
                .build()
                .expect("benchmark targets and options are valid"),
        )
    }

    /// Wraps an existing compiler session.
    pub fn from_compiler(compiler: Compiler) -> Self {
        let mapper = HybridMapper::for_target(compiler.target(), compiler.config().clone())
            .expect("the compiler accepted the same target and configuration");
        let scheduler = Scheduler::for_target(compiler.target());
        Session {
            compiler,
            mapper,
            scheduler,
        }
    }
}

/// One cell: a circuit compiled in one mode on one target.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `preset/circuit/mode`.
    pub name: String,
    /// Index into [`Setup::sessions`].
    pub session: usize,
    /// Index into [`Setup::circuits`].
    pub circuit: usize,
    /// The mode.
    pub mode: Mode,
    /// Native operations of the circuit.
    pub native_ops: usize,
    /// Whether the cell is on the fixed cell list.
    pub fixed: bool,
}

/// Everything a compile workload builds before its first timed compile.
#[derive(Debug)]
pub struct Setup {
    /// Resolved targets, one per preset.
    pub specs: Vec<TargetSpec>,
    /// Sessions, target-major then mode.
    pub sessions: Vec<Session>,
    /// Named circuits.
    pub circuits: Vec<(&'static str, Circuit)>,
    /// The cells, target-major, then circuit, then mode.
    pub cells: Vec<Cell>,
    /// The warm scratch every compile of the run shares.
    pub scratch: CompileScratch,
    /// Time spent building targets and resolving their specs, in ms.
    pub resolve_ms: f64,
}

/// Builds the `table1` or `mega` inputs and warms the scratch.
pub fn setup(workload: &str) -> Setup {
    let (presets, circuits): (Vec<HardwareParams>, Vec<(&'static str, Circuit)>) = match workload {
        "table1" => (HardwareParams::table1_presets(), table1b_suite(1.0)),
        "mega" => {
            let mut mega = HardwareParams::mixed();
            mega.name = format!("mixed{MEGA_SIDE}");
            let megarand = RandomCircuit::new(192)
                .layers(6)
                .two_qubit_fraction(0.5)
                .multi_qubit_fraction(0.5)
                .seed(11)
                .build();
            (
                vec![mega],
                vec![("qft128", Qft::new(128).build()), ("megarand", megarand)],
            )
        }
        other => unreachable!("not a compile workload: {other}"),
    };
    let resolve_start = Instant::now();
    let specs: Vec<TargetSpec> = presets
        .iter()
        .map(|p| {
            let builder = if workload == "mega" {
                p.to_builder()
                    .lattice(MEGA_SIDE, p.lattice_constant_um)
                    .num_atoms(MEGA_ATOMS)
            } else {
                p.to_builder()
            };
            builder.build().expect("valid preset").spec()
        })
        .collect();
    let resolve_ms = resolve_start.elapsed().as_secs_f64() * 1e3;
    let sessions: Vec<Session> = specs
        .iter()
        .flat_map(|spec| Mode::ALL.map(|mode| Session::new(spec, mode)))
        .collect();
    let native: Vec<usize> = circuits
        .iter()
        .map(|(_, c)| {
            if c.is_native() {
                c.len()
            } else {
                decompose_to_native(c).len()
            }
        })
        .collect();
    let mut cells = Vec::new();
    for (t, spec) in specs.iter().enumerate() {
        for (ci, (cname, _)) in circuits.iter().enumerate() {
            for (mi, mode) in Mode::ALL.into_iter().enumerate() {
                let preset = spec.params.name.as_str();
                cells.push(Cell {
                    name: format!("{preset}/{cname}/{}", mode.name()),
                    session: t * Mode::ALL.len() + mi,
                    circuit: ci,
                    mode,
                    native_ops: native[ci],
                    fixed: !OUTSIDE_FIXED_LIST
                        .iter()
                        .any(|&(p, m, c)| p == preset && m == mode.name() && c == *cname),
                });
            }
        }
    }
    let mut setup = Setup {
        specs,
        sessions,
        circuits,
        cells,
        scratch: CompileScratch::new(),
        resolve_ms,
    };
    // Warm-up: the lightest fixed cell of every session, once.
    for s in 0..setup.sessions.len() {
        let lightest = setup
            .cells
            .iter()
            .filter(|c| c.session == s && c.fixed)
            .min_by_key(|c| c.native_ops)
            .map(|c| c.circuit);
        if let Some(ci) = lightest {
            let token = CancelToken::with_deadline(COMPILE_LIMIT);
            let _ = setup.sessions[s].compiler.compile_with_cancel(
                &setup.circuits[ci].1,
                &mut setup.scratch,
                &token,
            );
        }
    }
    setup
}

/// The deterministic counters of one compile.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Mapper statistics.
    pub map: MapStats,
    /// Schedule items.
    pub items: usize,
    /// AOD batches lowered.
    pub aod_batches: usize,
    /// Moves inside AOD batches.
    pub aod_moves: usize,
    /// Route-cache counter deltas of the compile.
    pub cache_hits: u64,
    /// Route-cache misses.
    pub cache_misses: u64,
    /// Sites settled by distance-field BFS.
    pub sites_settled: u64,
    /// LRU evictions of distance fields.
    pub evictions: u64,
    /// ΔCZ against the ideal baseline.
    pub delta_cz: isize,
    /// ΔT in µs.
    pub delta_t_us: f64,
    /// δF in log10 units.
    pub delta_f: f64,
    /// FNV-1a digest of the mapped stream.
    pub stream: u64,
}

impl Counters {
    fn of(program: &CompiledProgram, before: &CacheStats, after: &CacheStats) -> Self {
        let comparison = program.comparison.expect("baseline comparison is on");
        Counters {
            map: program.stats.map,
            items: program.schedule.len(),
            aod_batches: program.aod_programs.len(),
            aod_moves: program.stats.aod_moves,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            sites_settled: after.sites_settled - before.sites_settled,
            evictions: after.evictions - before.evictions,
            delta_cz: comparison.delta_cz,
            delta_t_us: comparison.delta_t_us,
            delta_f: comparison.delta_f,
            stream: stream_digest(&program.mapped),
        }
    }

    /// One line of the counters file.
    pub fn line(&self) -> String {
        let m = &self.map;
        format!(
            "rounds={} commits={} swaps={} moves={} gate_routed={} shuttle_routed={} items={} \
             aod_batches={} aod_moves={} cache_hits={} cache_misses={} sites_settled={} \
             evictions={} delta_cz={} delta_t_us={} delta_f={} stream={:016x}",
            m.rounds_total,
            m.commits_total,
            m.swaps_inserted,
            m.shuttle_moves,
            m.gates_gate_routed,
            m.gates_shuttle_routed,
            self.items,
            self.aod_batches,
            self.aod_moves,
            self.cache_hits,
            self.cache_misses,
            self.sites_settled,
            self.evictions,
            self.delta_cz,
            self.delta_t_us,
            self.delta_f,
            self.stream,
        )
    }
}

/// FNV-1a over the `Debug` text of every op: equal streams give equal
/// digests, and `Debug` prints each float with all its digits.
pub fn stream_digest(mapped: &MappedCircuit) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(
        h,
        "{}/{}/{:?}",
        mapped.num_qubits, mapped.num_atoms, mapped.layout
    );
    for op in &mapped.ops {
        let _ = write!(h, "{op:?};");
    }
    h.0
}

/// What the run learned about one cell.
#[derive(Debug, Default)]
struct CellRecord {
    times_ms: Vec<f64>,
    counters: Option<Counters>,
    failures: usize,
}

/// One fused compile, its wall time, and the route-cache counters
/// around it.
struct Timed {
    result: Result<CompiledProgram, CompileError>,
    ms: f64,
    before: CacheStats,
    after: CacheStats,
}

/// The fused compile of one cell under the per-compile limit, timed.
fn timed_compile(setup: &mut Setup, cell: usize) -> Timed {
    let c = &setup.cells[cell];
    let compiler = &setup.sessions[c.session].compiler;
    let circuit = &setup.circuits[c.circuit].1;
    let token = CancelToken::with_deadline(COMPILE_LIMIT);
    let before = setup.scratch.map().route().distance_cache().snapshot();
    let start = Instant::now();
    let result = compiler.compile_with_cancel(circuit, &mut setup.scratch, &token);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let after = setup.scratch.map().route().distance_cache().snapshot();
    Timed {
        result,
        ms,
        before,
        after,
    }
}

/// Checks one compile's outcome outside the timed region and records
/// it in the cell's record and the run's outcome.
fn check_compile(
    setup: &Setup,
    cell: usize,
    record: &mut CellRecord,
    timed: &Timed,
    outcome: &mut Outcome,
) {
    let c = &setup.cells[cell];
    let ms = timed.ms;
    outcome.attempted += 1;
    match &timed.result {
        Err(e) => {
            outcome.failed += 1;
            record.failures += 1;
            let expected = !c.fixed && matches!(e, CompileError::DeadlineExceeded);
            if expected {
                outcome
                    .limit_overshoot_ms
                    .push(ms - COMPILE_LIMIT.as_secs_f64() * 1e3);
                outcome.note(format!(
                    "limit hit (expected): {} after {ms:.1} ms: {e}",
                    c.name
                ));
            } else {
                outcome.problem(format!("compile failed: {} after {ms:.1} ms: {e}", c.name));
            }
        }
        Ok(program) => {
            record.times_ms.push(ms);
            let counters = Counters::of(program, &timed.before, &timed.after);
            match &record.counters {
                None => {
                    let spec = &setup.specs[c.session / Mode::ALL.len()];
                    let circuit = &setup.circuits[c.circuit].1;
                    if let Err(e) =
                        verify_mapping_on(circuit, &program.mapped, &spec.params, spec.lattice)
                    {
                        outcome.failed += 1;
                        outcome.problem(format!("verify_mapping_on failed: {}: {e}", c.name));
                    }
                    record.counters = Some(counters);
                }
                Some(first) if *first != counters => {
                    outcome.failed += 1;
                    outcome.problem(format!(
                        "nondeterminism: {} changed between passes\n  was {}\n  now {}",
                        c.name,
                        first.line(),
                        counters.line()
                    ));
                }
                Some(_) => {}
            }
        }
    }
}

/// Runs a compile workload untraced and returns its end-to-end metrics.
///
/// `mega` runs passes until `--seconds` would be exceeded. `table1`
/// runs a fixed pass count (`--seconds` over its nominal pass time):
/// with only about three of its 12 s passes per run, a count that
/// varied would bias each cell's slow end.
///
/// Throughput, the compile-time geomean and the tails use each cell's
/// 90th-percentile compile of the run: on a shared host the speed of
/// passes swings by ±20% within seconds, and a cell's median or fastest
/// compile follows how much of the run caught a quiet stretch, while
/// its 90th percentile stays put from run to run.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    setup_s: f64,
    setup: &mut Setup,
    outcome: &mut Outcome,
) -> Metrics {
    let mut records: Vec<CellRecord> = setup.cells.iter().map(|_| CellRecord::default()).collect();
    let fixed_passes =
        (workload == "table1").then(|| (seconds / TABLE1_PASS_S).round().max(1.0) as usize);
    let mut rng = Rng::new(seed);
    let run_start = Instant::now();
    for pass in 0.. {
        let mut order: Vec<usize> = (0..setup.cells.len()).collect();
        rng.shuffle(&mut order);
        let mut fixed_ms = 0.0;
        for &cell in &order {
            let timed = timed_compile(setup, cell);
            if setup.cells[cell].fixed {
                fixed_ms += timed.ms;
            }
            check_compile(setup, cell, &mut records[cell], &timed, outcome);
        }
        println!("pass {pass} fixed_ms={fixed_ms:.3}");
        outcome.passes = pass + 1;
        let elapsed = run_start.elapsed().as_secs_f64();
        let more = match fixed_passes {
            Some(n) if elapsed > MAX_RUN_FACTOR * seconds && pass + 1 < n => {
                outcome.note(format!(
                    "stopped after {} of {n} passes: over {MAX_RUN_FACTOR}x --seconds",
                    pass + 1
                ));
                false
            }
            Some(n) => pass + 1 < n,
            None => elapsed + elapsed / (pass + 1) as f64 <= seconds,
        };
        if !more {
            break;
        }
    }
    print_cells(setup, &records);
    outcome.counters = counters_text(setup, &records);

    let fixed: Vec<usize> = (0..setup.cells.len())
        .filter(|&i| setup.cells[i].fixed)
        .collect();
    let typical = |i: usize| median(&records[i].times_ms);
    let slow = |i: usize| quantile(&records[i].times_ms, 0.9);
    let mut by_size = fixed.clone();
    by_size.sort_by_key(|&i| (setup.cells[i].native_ops, setup.cells[i].name.clone()));
    let (light, heavy) = by_size.split_at(by_size.len() / 2);
    let gm = |cells: &[usize], f: &dyn Fn(usize) -> f64| {
        geomean(&cells.iter().map(|&i| f(i)).collect::<Vec<_>>())
    };
    let delta_f = |mode: Mode| -> f64 {
        fixed
            .iter()
            .filter(|&&i| setup.cells[i].mode == mode)
            .filter_map(|&i| records[i].counters.as_ref().map(|c| c.delta_f))
            .sum()
    };
    let ops: usize = fixed.iter().map(|&i| setup.cells[i].native_ops).sum();
    let slow_pass_s = fixed.iter().map(|&i| slow(i)).sum::<f64>() / 1e3;
    let mut m = Metrics::new();
    m.put("setup_s", setup_s, "s");
    m.put("gates_per_s", ops as f64 / slow_pass_s, "1/s");
    m.put("compile_ms.geomean", gm(&fixed, &slow), "ms");
    for mode in Mode::ALL {
        m.put(&format!("delta_f.{}", mode.name()), delta_f(mode), "log10");
    }
    m.put(
        "ok_ratio",
        ok_ratio(outcome.attempted, outcome.failed),
        "ratio",
    );
    m.put("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
    m.put("p50_ms.low", gm(light, &typical), "ms");
    m.put("tail_ms.low", gm(light, &slow), "ms");
    m.put("p50_ms.high", gm(heavy, &typical), "ms");
    m.put("tail_ms.high", gm(heavy, &slow), "ms");
    m.put("max_rps", fixed.len() as f64 / slow_pass_s, "1/s");
    m
}

fn print_cells(setup: &Setup, records: &[CellRecord]) {
    for (cell, rec) in setup.cells.iter().zip(records) {
        let counters = rec
            .counters
            .as_ref()
            .map_or_else(|| "no artifact".to_owned(), Counters::line);
        println!(
            "cell {} fixed={} native_ops={} compiles={} failures={} best_ms={:.3} median_ms={:.3} p90_ms={:.3} worst_ms={:.3} {counters}",
            cell.name,
            cell.fixed,
            cell.native_ops,
            rec.times_ms.len(),
            rec.failures,
            quantile(&rec.times_ms, 0.0),
            median(&rec.times_ms),
            quantile(&rec.times_ms, 0.9),
            quantile(&rec.times_ms, 1.0),
        );
    }
}

/// The exact counters of every cell, one line each, for the cross-run
/// comparison.
fn counters_text(setup: &Setup, records: &[CellRecord]) -> String {
    let mut out = String::new();
    for (cell, rec) in setup.cells.iter().zip(records) {
        let counters = rec
            .counters
            .as_ref()
            .map_or_else(|| "no artifact".to_owned(), Counters::line);
        let _ = writeln!(out, "{} {counters}", cell.name);
    }
    out
}

/// Counts taken at the mapper boundary of a replayed compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Mapper statistics.
    pub map: MapStats,
    /// Route-cache deltas of the replayed mapping.
    pub hits: u64,
    /// Route-cache misses.
    pub misses: u64,
    /// Sites settled.
    pub sites_settled: u64,
    /// Evictions.
    pub evictions: u64,
    /// Schedule items.
    pub items: usize,
    /// AOD batches.
    pub aod_batches: usize,
    /// Moves inside AOD batches.
    pub aod_moves: usize,
    /// Bytes of the exported artifact.
    pub export_bytes: usize,
}

/// Replays one compile layer by layer under a `pipeline.compile` span:
/// the mapper into a `MappedCircuit`, the incremental scheduler over
/// the stream, lowering and validation per AOD batch, then the
/// baseline. The caller exports the result under its own span.
///
/// # Errors
///
/// A description of the first layer that failed.
pub fn replay(
    trace: &mut Trace,
    op: usize,
    session: &Session,
    circuit: &Circuit,
    scratch: &mut MapScratch,
) -> Result<(CompiledProgram, ReplayCounts), String> {
    let mapper = &session.mapper;
    let params = mapper.params();
    let layout = mapper.config().initial_layout;
    let lattice = mapper.lattice();
    let root = trace.open("pipeline.compile", None, op);

    let before = scratch.route().distance_cache().snapshot();
    let mut mapped = MappedCircuit::with_layout(circuit.num_qubits(), params.num_atoms, layout);
    let (run, map_span) = trace.span("mapper", Some(root), op, || {
        mapper.map_into_scratch(circuit, &mut mapped, scratch)
    });
    let after = scratch.route().distance_cache().snapshot();
    let run = run.map_err(|e| format!("mapper: {e}"))?;

    let ((schedule, metrics), sched_span) = trace.span("schedule", Some(root), op, || {
        let mut scheduler = IncrementalScheduler::with_topology(
            params,
            lattice,
            session.scheduler.aod_constraints(),
            circuit.num_qubits(),
            params.num_atoms,
            layout,
        );
        for mop in &mapped.ops {
            scheduler.push(mop);
        }
        scheduler.finish_with_metrics()
    });

    let mut occupied = vec![false; lattice.num_sites()];
    for site in layout.place(&lattice, params.num_atoms) {
        occupied[lattice.index(site)] = true;
    }
    let mut aod_programs = Vec::new();
    let mut lower_ms = 0.0;
    for item in &schedule.items {
        if let ScheduledItem::AodBatch { moves, .. } = item {
            let (program, span) = trace.span("schedule.lower", Some(root), op, || {
                let program = lower_batch(moves);
                validate_program_with(&program, &lattice, |site| occupied[lattice.index(site)])
                    .map(|()| program)
            });
            lower_ms += trace.ms(span);
            aod_programs.push(
                program
                    .map_err(|e| format!("schedule.lower: batch {}: {e}", aod_programs.len()))?,
            );
            for m in moves {
                occupied[lattice.index(m.from)] = false;
                occupied[lattice.index(m.to)] = true;
            }
        }
    }

    let (comparison, _) = trace.span("schedule.baseline", Some(root), op, || {
        let original = ScheduleMetrics::of(&session.scheduler.schedule_original(circuit), params);
        ComparisonReport::between(&original, &metrics)
    });
    trace.close(root);

    let ms = |span: usize| std::time::Duration::from_secs_f64(trace.ms(span) / 1e3);
    let aod_moves = aod_programs.iter().map(|p| p.moves.len()).sum();
    let program = CompiledProgram {
        stats: CompileStats {
            map: run.stats,
            map_runtime: run.runtime,
            total_runtime: ms(root),
            map_phase: ms(map_span),
            schedule_phase: ms(sched_span),
            lower_phase: std::time::Duration::from_secs_f64(lower_ms / 1e3),
            aod_batches: aod_programs.len(),
            aod_moves,
            route_cache: after,
        },
        mapped,
        schedule,
        aod_programs,
        metrics,
        comparison: Some(comparison),
    };
    let counts = ReplayCounts {
        map: run.stats,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        sites_settled: after.sites_settled - before.sites_settled,
        evictions: after.evictions - before.evictions,
        items: program.schedule.len(),
        aod_batches: program.aod_programs.len(),
        aod_moves,
        export_bytes: 0,
    };
    Ok((program, counts))
}

/// Whether a replayed artifact equals the fused one (everything but the
/// wall-clock and scratch-lifetime stats).
pub fn same_artifact(replayed: &CompiledProgram, fused: &CompiledProgram) -> bool {
    replayed.mapped == fused.mapped
        && replayed.schedule == fused.schedule
        && replayed.aod_programs == fused.aod_programs
        && replayed.metrics == fused.metrics
        && replayed.comparison == fused.comparison
        && replayed.stats.map == fused.stats.map
}

/// Work and time gathered at the layer boundaries of replayed compiles.
#[derive(Debug, Default)]
pub struct LayerAccum {
    /// Replayed compiles.
    pub compiles: usize,
    /// Sum of the counts taken at each replay's boundaries.
    pub counts: ReplayCounts,
    /// Summed wall time of the fused compiles that were replayed, ms.
    pub fused_ms: f64,
    /// Their summed `CompileStats` phases, ms: map, schedule, lower.
    pub fused_phases_ms: [f64; 3],
    /// Fused compiles that returned an error.
    pub fused_failed: usize,
    /// How far past the limit each limit hit returned, ms.
    pub overshoot_ms: Vec<f64>,
}

impl LayerAccum {
    /// Folds in one replay next to its fused compile.
    pub fn add(&mut self, counts: &ReplayCounts, fused: &CompiledProgram, fused_ms: f64) {
        let c = &mut self.counts;
        c.map.swaps_inserted += counts.map.swaps_inserted;
        c.map.shuttle_moves += counts.map.shuttle_moves;
        c.map.gates_gate_routed += counts.map.gates_gate_routed;
        c.map.gates_shuttle_routed += counts.map.gates_shuttle_routed;
        c.map.rounds_total += counts.map.rounds_total;
        c.map.commits_total += counts.map.commits_total;
        c.hits += counts.hits;
        c.misses += counts.misses;
        c.sites_settled += counts.sites_settled;
        c.evictions += counts.evictions;
        c.items += counts.items;
        c.aod_batches += counts.aod_batches;
        c.aod_moves += counts.aod_moves;
        c.export_bytes += counts.export_bytes;
        self.compiles += 1;
        self.fused_ms += fused_ms;
        let s = &fused.stats;
        for (acc, d) in
            self.fused_phases_ms
                .iter_mut()
                .zip([s.map_phase, s.schedule_phase, s.lower_phase])
        {
            *acc += d.as_secs_f64() * 1e3;
        }
    }

    /// The mapper, schedule and pipeline per-layer metrics. Times are
    /// means per replayed compile; counts are totals per pass.
    pub fn metrics(&self, trace: &Trace, passes: usize, m: &mut Metrics) {
        let by = trace.by_name();
        let n = self.compiles.max(1) as f64;
        let per_pass = |v: f64| v / passes.max(1) as f64;
        let self_ms = |name: &str| by.get(name).map_or(0.0, |t| t.self_ms) / n;
        let total_ms = |name: &str| by.get(name).map_or(0.0, |t| t.total_ms);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let c = &self.counts;
        m.put("mapper.busy_ms", self_ms("mapper"), "ms");
        m.put(
            "mapper.rounds",
            per_pass(c.map.rounds_total as f64),
            "count",
        );
        m.put(
            "mapper.commits_per_round",
            ratio(c.map.commits_total as f64, c.map.rounds_total as f64),
            "ratio",
        );
        m.put(
            "mapper.swaps",
            per_pass(c.map.swaps_inserted as f64),
            "count",
        );
        m.put(
            "mapper.moves",
            per_pass(c.map.shuttle_moves as f64),
            "count",
        );
        m.put(
            "mapper.gate_routed_share",
            ratio(
                c.map.gates_gate_routed as f64,
                (c.map.gates_gate_routed + c.map.gates_shuttle_routed) as f64,
            ),
            "ratio",
        );
        m.put("mapper.failed", per_pass(self.fused_failed as f64), "count");
        m.put(
            "mapper.route_cache.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
            "ratio",
        );
        m.put(
            "mapper.route_cache.sites_settled",
            per_pass(c.sites_settled as f64),
            "count",
        );
        m.put(
            "mapper.route_cache.evictions",
            per_pass(c.evictions as f64),
            "count",
        );
        m.put("schedule.busy_ms", self_ms("schedule"), "ms");
        m.put("schedule.items", per_pass(c.items as f64), "count");
        m.put(
            "schedule.aod_batches",
            per_pass(c.aod_batches as f64),
            "count",
        );
        m.put(
            "schedule.moves_per_batch",
            ratio(c.aod_moves as f64, c.aod_batches as f64),
            "ratio",
        );
        m.put("schedule.lower.busy_ms", self_ms("schedule.lower"), "ms");
        m.put(
            "schedule.baseline.busy_ms",
            self_ms("schedule.baseline"),
            "ms",
        );
        m.put(
            "pipeline.compile_ms",
            total_ms("pipeline.compile") / n,
            "ms",
        );
        m.put("pipeline.self_ms", self_ms("pipeline.compile"), "ms");
        m.put(
            "pipeline.cancel_overshoot_ms",
            if self.overshoot_ms.is_empty() {
                0.0
            } else {
                median(&self.overshoot_ms)
            },
            "ms",
        );
        m.put("pipeline.export.busy_ms", self_ms("pipeline.export"), "ms");
        m.put("pipeline.export.bytes", c.export_bytes as f64 / n, "bytes");
        m.put("pipeline.fused.map_ms", self.fused_phases_ms[0] / n, "ms");
        m.put(
            "pipeline.fused.schedule_ms",
            self.fused_phases_ms[1] / n,
            "ms",
        );
        m.put("pipeline.fused.lower_ms", self.fused_phases_ms[2] / n, "ms");
        m.put(
            "trace.overhead_ratio",
            ratio(total_ms("pipeline.compile"), self.fused_ms) - 1.0,
            "ratio",
        );
    }
}

/// Runs a compile workload traced: every cell compiles fused (timed,
/// untraced) and is then replayed layer by layer under spans; the
/// replayed artifact must equal the fused one.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    setup: &mut Setup,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> LayerAccum {
    let mut acc = LayerAccum::default();
    let mut records: Vec<CellRecord> = setup.cells.iter().map(|_| CellRecord::default()).collect();
    let mut map_scratch = MapScratch::new();
    let mut rng = Rng::new(seed);
    let run_start = Instant::now();
    let mut passes = 0;
    loop {
        let mut order: Vec<usize> = (0..setup.cells.len()).collect();
        rng.shuffle(&mut order);
        for &cell in &order {
            let timed = timed_compile(setup, cell);
            check_compile(setup, cell, &mut records[cell], &timed, outcome);
            let fused = match &timed.result {
                Ok(program) => program,
                Err(_) => {
                    acc.fused_failed += 1;
                    continue;
                }
            };
            if !setup.cells[cell].fixed {
                continue;
            }
            let c = &setup.cells[cell];
            match replay(
                trace,
                cell,
                &setup.sessions[c.session],
                &setup.circuits[c.circuit].1,
                &mut map_scratch,
            ) {
                Ok((program, mut counts)) => {
                    let (json, _) = trace.span("pipeline.export", None, cell, || program.to_json());
                    counts.export_bytes = json.len();
                    if !same_artifact(&program, fused) {
                        outcome.failed += 1;
                        outcome.problem(format!(
                            "replayed artifact differs from the fused one: {}",
                            c.name
                        ));
                    }
                    acc.add(&counts, fused, timed.ms);
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.problem(format!("replay failed: {}: {e}", c.name));
                }
            }
        }
        passes += 1;
        let elapsed = run_start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes as f64 > seconds {
            break;
        }
    }
    acc.overshoot_ms = std::mem::take(&mut outcome.limit_overshoot_ms);
    outcome.passes = passes;
    outcome.counters = counters_text(setup, &records);
    acc
}
