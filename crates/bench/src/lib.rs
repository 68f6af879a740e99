//! # utilbp-bench
//!
//! Benchmark support for the adaptive back-pressure workspace. The actual
//! targets live under `benches/`:
//!
//! - `controller_decide`, `sim_throughput` — Criterion micro-benchmarks
//!   (controller decision latency, simulator step throughput, grid-size
//!   scaling);
//! - `fig2_period_sweep`, `table3_patterns`, `fig3_fig4_phase_traces`,
//!   `fig5_queue_lengths` — regenerate the paper's evaluation artifacts
//!   (`cargo bench -p utilbp-bench --bench fig2_period_sweep` prints the
//!   same rows/series the paper reports);
//! - `ablation_mechanisms`, `ablation_sensors` — extension studies
//!   beyond the paper (which UTIL-BP mechanism buys what;
//!   detector-range sensitivity).
//!
//! By default the regeneration targets run at a reduced scale (15-minute
//! pattern hours) so `cargo bench` finishes in minutes; set `UTILBP_FULL=1`
//! for the paper's full 1-hour/4-hour horizons, and see
//! [`bench_options`] for the exact policy.
//!
//! The plain `sim_throughput` *binary* (no Criterion) writes the
//! machine-readable perf trajectory; its JSON rendering and the
//! structural invariants CI checks on it live in [`trajectory`] (shared
//! with the `verify_bench` binary, and unit-tested so the invariants run
//! locally via `cargo test -p utilbp-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trajectory;

use utilbp_core::Ticks;
use utilbp_experiments::ExperimentOptions;

/// Options used by the table/figure regeneration bench targets: the
/// paper's setup, scaled down unless `UTILBP_FULL=1` is set.
///
/// The scaled version keeps the microscopic backend and the full trace
/// horizon (Figs. 3–5 are cheap) but shortens the pattern hour to 900 s
/// and coarsens the period sweep.
pub fn bench_options() -> ExperimentOptions {
    let mut opts = ExperimentOptions::paper();
    if std::env::var("UTILBP_FULL").is_ok_and(|v| v == "1") {
        return opts;
    }
    opts.hour = Ticks::new(900);
    opts.periods = vec![10, 14, 18, 22, 28, 40, 60, 80];
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_options_are_scaled_by_default() {
        // The test environment does not set UTILBP_FULL.
        if std::env::var("UTILBP_FULL").is_err() {
            let opts = bench_options();
            assert_eq!(opts.hour, Ticks::new(900));
            assert!(opts.periods.len() >= 6);
        }
    }
}
