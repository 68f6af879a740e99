//! Replays one scenario with the flight recorder on and renders the
//! observability report: per-intersection timeline (phases × faults ×
//! fallbacks), gauge chart, optional tick-section profile, and the
//! JSONL event stream.
//!
//! ```text
//! trace --builtin grid-degraded-recovery           # a built-in scenario
//! trace file.scn                                   # a scenario file
//! trace --builtin NAME --profile                   # add the profile table
//! trace --builtin NAME --backend microscopic       # pick the substrate
//! trace --builtin NAME --capacity 8192 --every 10  # recorder/gauge tuning
//! trace --builtin NAME --horizon 400 --width 100   # trim / widen
//! trace --builtin NAME --checkpoint 64             # durable captures → o marks
//! ```
//!
//! The replay runs the invariant guard in observe mode: guard
//! violations become `guard_violation` events in the stream instead of
//! aborting. Recording is strictly passive — the printed outcome is
//! bit-identical to an uninstrumented run of the same scenario.
//!
//! Every operator-facing failure — an unknown flag, a missing built-in,
//! an unreadable or malformed scenario file — prints a one-line
//! diagnostic to stderr and exits non-zero; the binary never panics on
//! bad input.

use utilbp_experiments::{run_trace, Backend, ControllerKind, TraceOptions};
use utilbp_scenario::{builtin, parse_scenario, ScenarioSpec};

fn main() {
    if let Err(message) = run() {
        eprintln!("trace: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = TraceOptions::default();
    let mut builtin_spec: Option<ScenarioSpec> = None;
    let mut file: Option<&String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--builtin" => {
                let name = value("--builtin")?;
                builtin_spec =
                    Some(builtin(&name).ok_or_else(|| format!("no built-in scenario `{name}`"))?);
            }
            "--backend" => {
                options.backend = match value("--backend")?.as_str() {
                    "queueing" => Backend::Queueing,
                    "microscopic" => Backend::Microscopic,
                    other => {
                        return Err(format!("unknown backend `{other}` (queueing|microscopic)"))
                    }
                };
            }
            "--profile" => options.profile = true,
            "--capacity" => {
                options.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
                if options.capacity == 0 {
                    return Err("--capacity must be at least 1".to_string());
                }
            }
            "--every" => {
                options.gauge_every = value("--every")?
                    .parse()
                    .map_err(|e| format!("--every: {e}"))?;
                if options.gauge_every == 0 {
                    return Err("--every must be at least 1".to_string());
                }
            }
            "--horizon" => {
                options.horizon_cap = Some(
                    value("--horizon")?
                        .parse()
                        .map_err(|e| format!("--horizon: {e}"))?,
                );
            }
            "--width" => {
                options.width = value("--width")?
                    .parse()
                    .map_err(|e| format!("--width: {e}"))?;
            }
            "--checkpoint" => {
                let period: u64 = value("--checkpoint")?
                    .parse()
                    .map_err(|e| format!("--checkpoint: {e}"))?;
                if period == 0 {
                    return Err("--checkpoint must be at least 1".to_string());
                }
                options.checkpoint_every = Some(period);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => {
                if file.replace(arg).is_some() {
                    return Err("pass exactly one scenario file".to_string());
                }
            }
        }
    }

    let spec = match (builtin_spec, file) {
        (Some(_), Some(_)) => {
            return Err("pass either --builtin NAME or a scenario file, not both".to_string())
        }
        (None, None) => {
            return Err("pass a scenario: --builtin NAME or a scenario file".to_string())
        }
        (Some(spec), None) => spec,
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = parse_scenario(&text).map_err(|e| format!("{path}: {e}"))?;
            spec.validate().map_err(|e| format!("{path}: {e}"))?;
            spec
        }
    };

    if std::env::var("UTILBP_QUICK").is_ok_and(|v| v == "1") {
        options.horizon_cap = Some(options.horizon_cap.unwrap_or(u64::MAX).min(300));
    }

    eprintln!(
        "replaying {} on {} with recording on…",
        spec.name, options.backend
    );
    let report = run_trace(spec, &options, &|_| ControllerKind::UtilBp.build())?;
    println!("{}", report.render());
    Ok(())
}
