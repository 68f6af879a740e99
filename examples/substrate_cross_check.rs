//! Cross-validate the two simulation substrates: run the same scenario on
//! the paper-exact queueing model and on the microscopic simulator, for
//! UTIL-BP and CAP-BP, and compare the orderings.
//!
//! The absolute numbers differ (the microscopic substrate has startup
//! lost time, finite discharge headways, and travel times), but the
//! *comparative* conclusions should agree — that agreement is what lets
//! the fast substrate be used for sweeps.
//!
//! ```sh
//! cargo run --release --example substrate_cross_check
//! ```

use adaptive_backpressure::core::Ticks;
use adaptive_backpressure::experiments::{run_many, Backend, ControllerKind, Probe, Scenario};
use adaptive_backpressure::metrics::TextTable;
use adaptive_backpressure::netgen::{DemandSchedule, Pattern};

fn main() {
    let horizon = Ticks::new(1800);
    let contenders = vec![
        ControllerKind::UtilBp,
        ControllerKind::CapBp { period: 16 },
        ControllerKind::FixedTime { period: 16 },
    ];

    let mut table = TextTable::new([
        "Controller",
        "Queueing (paper model) [s]",
        "Microscopic (SUMO-like) [s]",
    ]);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    for pattern in [Pattern::I, Pattern::II] {
        let queueing = run_many(
            &Scenario::paper(
                DemandSchedule::constant(pattern, horizon),
                Backend::Queueing,
                2020,
            ),
            &contenders,
            &Probe::none(),
        );
        let micro = run_many(
            &Scenario::paper(
                DemandSchedule::constant(pattern, horizon),
                Backend::Microscopic,
                2020,
            ),
            &contenders,
            &Probe::none(),
        );
        for (q, m) in queueing.iter().zip(&micro) {
            let label = format!("P{pattern} {}", q.controller);
            table.push_row([
                label.clone(),
                format!("{:.1}", q.avg_queuing_time_s),
                format!("{:.1}", m.avg_queuing_time_s),
            ]);
            rows.push((label, q.avg_queuing_time_s, m.avg_queuing_time_s));
        }
    }

    println!(
        "— substrate cross-check ({} s per run) —\n",
        horizon.count()
    );
    println!("{}", table.render());
    println!(
        "\nBoth substrates should agree that the adaptive controller beats the \
         open-loop one; absolute seconds differ by design (the microscopic \
         substrate adds startup lost time, discharge headways and travel times)."
    );
}
