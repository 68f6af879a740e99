//! The benchmark of the UTIL-BP scenario engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload city-micro --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Without tracing it prints the end-to-end metrics of the workload;
//! with `--trace 1` it prints the per-layer metrics and writes the
//! recorded spans to `perfbench/out/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for the workloads and the metrics.

mod engine;
mod replay;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use engine::{EngineSamples, Instruments, Ops};
use replay::ReplaySamples;
use spans::{Off, SpanLog};
use stats::{median, per, quantile, Fastest};
use utilbp_substrate::Backend;
use workload::{Outcome, Workload, DEFAULT_SEED, HELD_OUT_SEED, HOUR};

/// Hours every run simulates, however short `--seconds` is.
const MIN_HOURS: u64 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds takes a positive number, not `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is one of {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: value, unit, and how many samples it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: samples.into(),
    }
}

fn med(name: &'static str, samples: &mut [f64], unit: &'static str, what: &str) -> Metric {
    let n = samples.len();
    metric(name, median(samples), unit, format!("median of {n} {what}"))
}

/// Whether the deadline has passed and the run has its minimum.
fn done(deadline: Instant, hours: u64, min: u64) -> bool {
    hours >= min && Instant::now() >= deadline
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// Fixes glibc's allocation thresholds for the whole run. By default
/// glibc raises its mmap threshold to the largest block freed so far, so
/// whether a process serves the multi-MB capture buffers from reused heap
/// or from fresh pages depended on its seed's allocation history:
/// metro-queue's `checkpoint_ms` read 18–20 ms in some processes and
/// 21–24 ms in others. Fixed, every process serves them alike. Returns
/// whether the thresholds were set.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_thresholds() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets allocator parameters, and no other
    // thread exists yet.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_thresholds() -> bool {
    false
}

fn host_json(malloc_fixed: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"rayon_num_threads\":\"{rayon}\",\"profile\":\"{profile}\",\"git_rev\":\"{}\",\"malloc_thresholds_fixed\":{malloc_fixed}}}",
        git_rev()
    )
}

/// The run's outcome must match the one recorded for its seed, when it
/// is a recorded one, and the default seed's hour, simulated once more
/// outside the measurement, must match its record: every run pins
/// behaviour, whatever its seed.
fn check_recorded(w: Workload, seed: u64, outcome: Outcome, ops: &mut Ops) {
    let mut check = |seed: u64, outcome: Outcome| {
        if let Some(golden) = w.golden(seed) {
            ops.check(golden.same(&outcome), || {
                format!("seed {seed}: outcome {outcome:?}, recorded {golden:?}")
            });
        }
    };
    check(seed, outcome);
    if seed != DEFAULT_SEED {
        let (mut engine, _) = engine::set_up(w, &w.scenario_text(DEFAULT_SEED), &mut Off);
        engine.run_to_end();
        check(DEFAULT_SEED, engine::outcome(&engine));
    }
}

/// The mean over fork points of each point's fastest repeat. Not their
/// median: on ops-incident that read 8.1–8.5 ms on some seeds and
/// 9.6–10.6 ms on others, with nothing between, at state sizes within
/// 2 % of each other.
fn fork_metric(name: &'static str, points: &Fastest, hours: u64) -> Metric {
    let n = points.values().len();
    let samples = match n {
        1 => format!("fastest of {hours} forks at the horizon"),
        n => format!("mean of {n} fork points, each the fastest of {hours} hours"),
    };
    metric(name, points.sum() / n as f64, "ms", samples)
}

/// Untraced: simulated hours through the engine until the deadline.
fn end_to_end(w: Workload, text: &str, deadline: Instant, ops: &mut Ops) -> (Vec<Metric>, Outcome) {
    let mut s = EngineSamples::default();
    let mut reference = None;
    let mut rss_mb = 0.0;
    while !done(deadline, s.hours, MIN_HOURS) {
        let full_fork = s.hours == 0;
        let outcome = engine::hour(
            w,
            text,
            Instruments::AsConfigured,
            full_fork,
            &mut Off,
            &mut s,
            ops,
        );
        ops.check_repeat(&mut reference, outcome, "engine hour");
        // Later hours repeat the first one's work; only allocator
        // fragmentation, and so the run's length, would still move the peak.
        if s.hours == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    let o = reference.expect("at least one hour");
    let hours = s.hours;
    let mut ticks = s.tick_us.values();
    let per_tick = format!("{HOUR} ticks, each the fastest of {hours} hours");
    let metrics = vec![
        metric("sim_ticks_per_s", s.ticks_per_s(), "1/s", per_tick.clone()),
        metric(
            "tick_p50_us",
            quantile(&mut ticks, 0.5),
            "us",
            format!("p50 over {per_tick}"),
        ),
        metric(
            "tick_p99_us",
            quantile(&mut ticks, 0.99),
            "us",
            format!("p99 over {per_tick}, 36 beyond"),
        ),
        metric(
            "setup_s",
            quantile(&mut s.setup_s, 0.0),
            "s",
            format!("fastest of {} constructions", s.setup_s.len()),
        ),
        metric(
            "peak_rss_mb",
            rss_mb,
            "MB",
            "process peak over the first hour",
        ),
        fork_metric("checkpoint_ms", &s.checkpoint_ms, hours),
        fork_metric("restore_ms", &s.restore_ms, hours),
        metric("avg_wait_s", o.avg_wait_s, "s/veh", "deterministic"),
        metric("completed_veh", o.completed as f64, "veh", "deterministic"),
    ];
    (metrics, o)
}

/// Traced: engine hours in turn untraced with the workload's telemetry
/// (the reference outcome), untraced with the alternative (the
/// telemetry on/off comparison) and traced (the traced/untraced
/// comparison), then the replay through each layer's public functions.
fn per_layer(
    w: Workload,
    seed: u64,
    text: &str,
    budget: Duration,
    ops: &mut Ops,
) -> (Vec<Metric>, Outcome) {
    let start = Instant::now();
    let phase_end = |share: f64| start + budget.mul_f64(share);
    let replays = !w.operator();

    // The alternative telemetry: recording off on ops-incident, a
    // disabled counting recorder elsewhere.
    let alternative = if w.operator() {
        Instruments::Bare
    } else {
        Instruments::Probe
    };
    let (mut plain, mut alt, mut traced) = (
        EngineSamples::default(),
        EngineSamples::default(),
        EngineSamples::default(),
    );
    let mut log = SpanLog::new();
    let mut reference = None;
    let mut hours = 0;
    let engine_end = phase_end(if replays { 0.7 } else { 0.95 });
    while !done(engine_end, hours, 6) {
        let outcome = if hours % 3 == 2 {
            let instruments = Instruments::AsConfigured;
            engine::hour(w, text, instruments, false, &mut log, &mut traced, ops)
        } else {
            let (instruments, s) = if hours % 3 == 0 {
                (Instruments::AsConfigured, &mut plain)
            } else {
                (alternative, &mut alt)
            };
            engine::hour(w, text, instruments, false, &mut Off, s, ops)
        };
        ops.check_repeat(&mut reference, outcome, "engine hour");
        hours += 1;
    }
    let (untraced_tps, traced_tps) = (plain.ticks_per_s(), traced.ticks_per_s());
    let (on_tps, off_tps) = if w.operator() {
        (untraced_tps, alt.ticks_per_s())
    } else {
        (alt.ticks_per_s(), untraced_tps)
    };
    let recorder = if w.operator() { &plain } else { &alt };
    let events_per_hour = per(recorder.events as f64, recorder.hours as f64);
    let (mut monitor_us, mut other_us) = (Vec::new(), Vec::new());
    for (tick, us) in traced.tick_us.values().into_iter().enumerate() {
        if w.monitor_tick(tick as u64) {
            monitor_us.push(us);
        } else {
            other_us.push(us);
        }
    }

    // The replay guard: the public-call replay must reproduce the
    // engine's outcome, or its per-layer numbers describe another
    // workload.
    let mut r = ReplaySamples::default();
    let deadline = phase_end(1.0);
    while !done(deadline, r.hours, 2) {
        if replays {
            let outcome = replay::hour(w, text, &mut log, &mut r, ops);
            ops.check_repeat(&mut reference, outcome, "replay hour");
        } else {
            let generated = replay::demand_hour(w, text, &mut log, &mut r);
            let expected = reference.map(|o| o.generated);
            ops.check(Some(generated) == expected, || {
                format!("demand replay generated {generated}, the engine {expected:?}")
            });
        }
    }
    let plant = if replays {
        &mut r.plant
    } else {
        &mut traced.plant
    };
    let micro = w.backend() == Backend::Microscopic;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };

    write_spans(w, seed, &log);
    let span_ms = |name: &str| {
        let mut d = log.durations_us(name);
        (median(&mut d) / 1e3, d.len())
    };
    let (parse_ms, parses) = span_ms("scenario.parse");
    let (new_ms, news) = span_ms("scenario.engine_new");
    let (build_ms, builds) = span_ms("netgen.build_network");
    let (snapshot_parse_ms, snapshot_parses) = span_ms("snapshot.parse");
    let (save_ms, saves) = span_ms("microsim.save_state");
    let (load_ms, loads) = span_ms("microsim.load_state");
    let totals = log.totals();
    let poll_ns = totals.get("netgen.poll").map_or(0.0, |t| t.total_ns);
    let (ticks, vehicle_ticks) = (plant.ticks as f64, plant.vehicle_ticks);
    let source = if replays {
        "replayed ticks"
    } else {
        "profiled ticks"
    };
    let metrics = vec![
        metric(
            "scenario.parse_us",
            parse_ms * 1e3,
            "us",
            format!("median of {parses} parses"),
        ),
        metric(
            "scenario.engine_new_ms",
            new_ms,
            "ms",
            format!("median of {news} constructions"),
        ),
        med(
            "scenario.monitor_step_us",
            &mut monitor_us,
            "us",
            "monitor ticks' fastest",
        ),
        med(
            "scenario.plain_step_us",
            &mut other_us,
            "us",
            "other ticks' fastest",
        ),
        metric(
            "scenario.monitor_passes",
            per(traced.monitor_passes as f64, traced.hours as f64),
            "count",
            format!("per hour, {} hours", traced.hours),
        ),
        metric(
            "scenario.rerouting_pass_frac",
            per(traced.rerouting_passes as f64, traced.monitor_passes as f64),
            "ratio",
            format!("{} passes", traced.monitor_passes),
        ),
        metric(
            "netgen.build_network_ms",
            build_ms,
            "ms",
            format!("median of {builds} builds"),
        ),
        metric("netgen.roads", traced.roads as f64, "count", "network"),
        metric(
            "netgen.demand_ns_per_arrival",
            per(poll_ns, r.arrivals as f64),
            "ns",
            format!("{} arrivals", r.arrivals),
        ),
        med("substrate.step_us", &mut plant.step_us, "us", source),
        metric(
            "core.decide_ns_per_intersection",
            per(plant.decide_s * 1e9, plant.intersection_ticks),
            "ns",
            format!("{} intersection-ticks", plant.intersection_ticks),
        ),
        metric(
            "microsim.car_following_ns_per_vehicle",
            only(micro, per(plant.moving_s * 1e9, vehicle_ticks)),
            "ns",
            format!("{vehicle_ticks} vehicle-ticks"),
        ),
        metric(
            "microsim.landings_us",
            only(micro, per(plant.landings_s * 1e6, ticks)),
            "us",
            format!("mean of {ticks} ticks"),
        ),
        metric(
            "microsim.waiting_us",
            only(micro, per(plant.waiting_s * 1e6, ticks)),
            "us",
            format!("mean of {ticks} ticks"),
        ),
        metric(
            "microsim.vehicles_mean",
            only(micro, per(vehicle_ticks, ticks)),
            "veh",
            format!("mean of {ticks} ticks"),
        ),
        metric(
            "queueing.serve_ns_per_vehicle",
            only(!micro, per(plant.moving_s * 1e9, vehicle_ticks)),
            "ns",
            format!("{vehicle_ticks} vehicle-ticks"),
        ),
        med("snapshot.bytes", &mut traced.snapshot_bytes, "B", "forks"),
        med(
            "snapshot.encode_mb_per_s",
            &mut traced.encode_mb_per_s,
            "MB/s",
            "forks",
        ),
        metric(
            "snapshot.parse_ms",
            snapshot_parse_ms,
            "ms",
            format!("median of {snapshot_parses} parses"),
        ),
        metric(
            "microsim.checkpoint_ms",
            only(micro, save_ms),
            "ms",
            format!("median of {saves} saves"),
        ),
        metric(
            "microsim.restore_ms",
            only(micro, load_ms),
            "ms",
            format!("median of {loads} loads"),
        ),
        metric(
            "telemetry.events",
            events_per_hour,
            "count",
            format!("per hour, {} hours", recorder.hours),
        ),
        metric(
            "telemetry.recorder_overhead_frac",
            off_tps / on_tps - 1.0,
            "ratio",
            format!("{} vs {} hours", plain.hours, alt.hours),
        ),
        metric(
            "trace.overhead_frac",
            untraced_tps / traced_tps - 1.0,
            "ratio",
            format!("{} untraced vs {} traced hours", plain.hours, traced.hours),
        ),
    ];
    println!("self time by span (ms per hour):");
    let hours = (traced.hours + r.hours) as f64;
    for (name, t) in &totals {
        println!(
            "  {name:<24} {:>10.3} self {:>10.3} total ({} spans)",
            t.self_ns / 1e6 / hours,
            t.total_ns / 1e6 / hours,
            t.count
        );
    }
    (metrics, reference.expect("at least one hour"))
}

fn write_spans(w: Workload, seed: u64, log: &SpanLog) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{seed}-spans.tsv", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_tsv()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let malloc_fixed = fix_malloc_thresholds();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let text = w.scenario_text(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut ops = Ops::default();
    println!(
        "perfbench workload={} seed={} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds={} trace={} hour={HOUR} ticks",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host_json(malloc_fixed));
    let (metrics, outcome) = if args.trace {
        per_layer(w, args.seed, &text, budget, &mut ops)
    } else {
        end_to_end(w, &text, Instant::now() + budget, &mut ops)
    };
    check_recorded(w, args.seed, outcome, &mut ops);
    println!(
        "outcome generated={} completed={} avg_wait_s={:?}",
        outcome.generated, outcome.completed, outcome.avg_wait_s
    );
    for m in &metrics {
        println!(
            "  {:<38} {:>16.6} {:<6} [{}]",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    for failure in &ops.failures {
        eprintln!("check failed: {failure}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
