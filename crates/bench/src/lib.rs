//! Shared harness for the Table 1 reproduction and ablation studies.
//!
//! The binaries (`table1`, `ablation`) and the workspace's
//! `tests/hybrid_quality.rs` build on the helpers here: scaled versions
//! of the paper's hardware presets and benchmark suite, single-experiment
//! execution, the α sweep of the hybrid mode, and plain-text table
//! rendering. Speed is measured by `perfbench/` at the repository root.

use std::time::Duration;

use na_arch::HardwareParams;
use na_circuit::{generators, Circuit};
use na_mapper::{HybridMapper, MapError, MapperConfig};
use na_schedule::{ComparisonReport, Scheduler};

/// One cell block of Table 1a: the mapping result of one circuit on one
/// hardware under one compiler mode.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Additional CZ gates (`ΔCZ`).
    pub delta_cz: isize,
    /// Execution-time overhead in µs (`ΔT`).
    pub delta_t_us: f64,
    /// Fidelity decrease (`δF`, log₁₀; smaller is better).
    pub delta_f: f64,
    /// Mapper wall-clock runtime (the paper's RT column).
    pub runtime: Duration,
    /// SWAPs inserted.
    pub swaps: usize,
    /// Shuttle moves inserted.
    pub moves: usize,
    /// The α ratio used (hybrid mode only).
    pub alpha: Option<f64>,
}

/// Runs one experiment: map + verify + schedule + compare.
///
/// # Errors
///
/// Propagates mapping failures; verification failures panic (they are
/// library bugs, not user errors).
pub fn run_experiment(
    params: &HardwareParams,
    circuit: &Circuit,
    config: MapperConfig,
) -> Result<ExperimentResult, MapError> {
    let alpha = config.alpha_ratio();
    let mapper = HybridMapper::new(params.clone(), config)?;
    let outcome = mapper.map(circuit)?;
    na_mapper::verify_mapping(circuit, &outcome.mapped, params)
        .expect("mapper produced an unverifiable stream (bug)");
    let report: ComparisonReport = Scheduler::new(params.clone()).compare(circuit, &outcome.mapped);
    Ok(ExperimentResult {
        delta_cz: report.delta_cz,
        delta_t_us: report.delta_t_us,
        delta_f: report.delta_f,
        runtime: outcome.runtime,
        swaps: outcome.mapped.swap_count(),
        moves: outcome.mapped.shuttle_count(),
        alpha,
    })
}

/// Runs the hybrid mode over a grid of α ratios, keeping the best δF —
/// exactly the paper's procedure ("different decision ratios α are
/// tested, keeping only the best", §4.1).
pub fn run_hybrid_alpha_sweep(
    params: &HardwareParams,
    circuit: &Circuit,
    alphas: &[f64],
) -> Result<ExperimentResult, MapError> {
    let mut best: Option<ExperimentResult> = None;
    for &alpha in alphas {
        let result = run_experiment(
            params,
            circuit,
            MapperConfig::try_hybrid(alpha).expect("valid alpha"),
        )?;
        if best.as_ref().is_none_or(|b| result.delta_f < b.delta_f) {
            best = Some(result);
        }
    }
    Ok(best.expect("at least one alpha"))
}

/// The default α grid of the harness (log-spaced around 1).
pub fn default_alpha_grid() -> Vec<f64> {
    vec![0.25, 0.5, 0.8, 0.95, 1.0, 1.05, 1.25, 2.0, 4.0]
}

/// Scales a Table 1c preset: `scale = 1.0` is the paper's 15×15 lattice
/// with 200 atoms; smaller scales shrink the lattice side and atom count
/// proportionally (for fast CI runs).
pub fn scaled_preset(preset: HardwareParams, scale: f64) -> HardwareParams {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    if (scale - 1.0).abs() < 1e-12 {
        return preset;
    }
    let side = ((f64::from(preset.lattice_side) * scale.sqrt()).round() as u32).max(4);
    let max_atoms = side * side - 1;
    let atoms = ((f64::from(preset.num_atoms) * scale).round() as u32).clamp(4, max_atoms);
    preset
        .to_builder()
        .lattice(side, 3.0)
        .num_atoms(atoms)
        .build()
        .expect("scaled preset stays valid")
}

/// The Table 1b benchmark suite at the given scale, sized to fit the
/// scaled hardware (circuit width ≤ atom count).
pub fn scaled_suite(scale: f64, max_qubits: u32) -> Vec<(&'static str, Circuit)> {
    generators::table1b_suite(scale)
        .into_iter()
        .filter(|(_, c)| c.num_qubits() <= max_qubits)
        .collect()
}

/// Formats a Duration as seconds with one decimal.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preset_keeps_free_sites() {
        for preset in HardwareParams::table1_presets() {
            for scale in [0.1, 0.25, 0.5, 1.0] {
                let p = scaled_preset(preset.clone(), scale);
                p.validate().expect("scaled preset valid");
                assert!(p.num_atoms < p.lattice_side * p.lattice_side);
            }
        }
    }

    #[test]
    fn experiment_runs_at_tiny_scale() {
        let p = scaled_preset(HardwareParams::mixed(), 0.15);
        let suite = scaled_suite(0.1, p.num_atoms);
        assert!(!suite.is_empty());
        let (_, circuit) = &suite[0];
        let result = run_experiment(&p, circuit, MapperConfig::shuttle_only()).unwrap();
        assert_eq!(result.delta_cz, 0);
    }

    #[test]
    fn alpha_sweep_returns_best() {
        let p = scaled_preset(HardwareParams::mixed(), 0.15);
        let circuit = na_circuit::generators::Qft::new(10).build();
        let sweep = run_hybrid_alpha_sweep(&p, &circuit, &[0.5, 1.0, 2.0]).unwrap();
        for alpha in [0.5, 1.0, 2.0] {
            let single = run_experiment(
                &p,
                &circuit,
                MapperConfig::try_hybrid(alpha).expect("valid alpha"),
            )
            .unwrap();
            assert!(sweep.delta_f <= single.delta_f + 1e-9);
        }
    }
}
