//! Extension study: sensitivity of both controllers to the queue-detector
//! range (the calibration dimension documented on
//! `MicroSimConfig::detection_range_m`).

use utilbp_experiments::{run, Backend, ControllerKind, Probe, Scenario};
use utilbp_netgen::{DemandSchedule, Pattern};

fn main() {
    let opts = utilbp_bench::bench_options();
    eprintln!("[sensors] hour={} ticks", opts.hour.count());
    let mut table = utilbp_metrics::TextTable::new([
        "Detector range [m]",
        "UTIL-BP avg queuing [s]",
        "CAP-BP (T=16) avg queuing [s]",
    ]);
    for range in [30.0, 50.0, 100.0, 200.0] {
        let mut scenario = Scenario::paper(
            DemandSchedule::constant(Pattern::I, opts.hour),
            Backend::Microscopic,
            opts.seed,
        );
        scenario.micro.detection_range_m = range;
        let util = run(&scenario, &ControllerKind::UtilBp, &Probe::none());
        let cap = run(
            &scenario,
            &ControllerKind::CapBp { period: 16 },
            &Probe::none(),
        );
        table.push_row([
            format!("{range}"),
            format!("{:.2}", util.avg_queuing_time_s),
            format!("{:.2}", cap.avg_queuing_time_s),
        ]);
    }
    println!(
        "Detector-range sensitivity (Pattern I)\n\n{}",
        table.render()
    );
}
