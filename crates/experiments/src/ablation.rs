//! Ablation study: which of UTIL-BP's mechanisms buys what.
//!
//! Algorithm 1 combines four separable design choices:
//! per-movement pressure (Eq. 6 change (i)), the `α`/`β` special cases
//! (Eq. 8), the `g*` keep-phase hysteresis (Eq. 12), and varying-length
//! phases themselves. This module compares the full controller against one
//! variant per mechanism, on identical demand.

use utilbp_core::{GStarPolicy, GainMode, UtilBpConfig};
use utilbp_metrics::TextTable;
use utilbp_netgen::{DemandSchedule, Pattern};

use crate::options::ExperimentOptions;
use crate::runner::{run_many, Probe};
use crate::scenario::{ControllerKind, Scenario};

/// One ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Average queuing time, seconds.
    pub avg_queuing_time_s: f64,
    /// Completed journeys.
    pub completed: u64,
}

/// The ablation comparison on one pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// The demand pattern used.
    pub pattern: Pattern,
    /// One row per variant, full UTIL-BP first.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Renders the comparison as a table with deltas against the full
    /// controller.
    pub fn render(&self) -> String {
        let baseline = self
            .rows
            .first()
            .map(|r| r.avg_queuing_time_s)
            .unwrap_or(0.0);
        let mut table = TextTable::new(["Variant", "Avg queuing [s]", "vs UTIL-BP", "Completed"]);
        for row in &self.rows {
            let delta = if baseline > 0.0 {
                format!(
                    "{:+.1}%",
                    (row.avg_queuing_time_s - baseline) / baseline * 100.0
                )
            } else {
                "-".to_string()
            };
            table.push_row([
                row.variant.clone(),
                format!("{:.2}", row.avg_queuing_time_s),
                delta,
                row.completed.to_string(),
            ]);
        }
        format!(
            "Ablation — Pattern {} (positive deltas are degradations)\n\n{}",
            self.pattern,
            table.render()
        )
    }
}

/// The standard set of ablation variants.
pub fn variants() -> Vec<ControllerKind> {
    vec![
        ControllerKind::UtilBp,
        ControllerKind::UtilBpWith(UtilBpConfig {
            g_star: GStarPolicy::AlwaysReevaluate,
            ..UtilBpConfig::default()
        }),
        ControllerKind::UtilBpWith(UtilBpConfig {
            gain_mode: GainMode::PlainModified,
            ..UtilBpConfig::default()
        }),
        ControllerKind::UtilBpWith(UtilBpConfig {
            gain_mode: GainMode::PerRoadPressure,
            ..UtilBpConfig::default()
        }),
        ControllerKind::FixedLengthUtilBp { period: 16 },
    ]
}

/// Runs the ablation on the given pattern.
pub fn ablation(opts: &ExperimentOptions, pattern: Pattern) -> AblationResult {
    let scenario = Scenario::paper(
        DemandSchedule::constant(pattern, opts.hour),
        opts.backend,
        opts.seed,
    );
    let kinds = variants();
    let results = run_many(&scenario, &kinds, &Probe::none());
    AblationResult {
        pattern,
        rows: kinds
            .iter()
            .zip(results)
            .map(|(kind, r)| AblationRow {
                variant: kind.label(),
                avg_queuing_time_s: r.avg_queuing_time_s,
                completed: r.completed,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_set_is_distinctly_labeled() {
        let kinds = variants();
        let mut labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels must be unique");
    }

    #[test]
    fn ablation_runs_quick() {
        let mut opts = ExperimentOptions::quick();
        opts.hour = utilbp_core::Ticks::new(300);
        let result = ablation(&opts, Pattern::I);
        assert_eq!(result.rows.len(), variants().len());
        assert_eq!(result.rows[0].variant, "UTIL-BP");
        let rendered = result.render();
        assert!(rendered.contains("Ablation"));
        assert!(rendered.contains("no hysteresis"));
    }
}
