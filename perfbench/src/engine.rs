//! Simulated hours through the public `ScenarioEngine` API: set-up,
//! every `step`, the what-if forks, and the correctness checks around
//! them.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use utilbp_scenario::{parse_scenario, ScenarioEngine};
use utilbp_snapshot::SnapshotReader;
use utilbp_telemetry::{Event, Recorder, Section};

use crate::spans::Tracer;
use crate::stats::Fastest;
use crate::workload::{util_bp, Outcome, Workload, FORK_EVERY, HOUR};

/// Operations attempted (ticks, checkpoints, restores) and failed. A
/// failed check counts as a failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Checks `outcome` against the first outcome seen in this run:
    /// every hour of a workload simulates the same inputs.
    pub fn check_repeat(&mut self, reference: &mut Option<Outcome>, outcome: Outcome, what: &str) {
        match reference {
            None => *reference = Some(outcome),
            Some(first) => {
                let first = *first;
                self.check(first.same(&outcome), || {
                    format!("{what}: outcome {outcome:?} differs from {first:?}")
                });
            }
        }
    }
}

/// Plant time by phase and the work it covered.
#[derive(Default)]
pub struct Plant {
    /// Plant time of each tick, microseconds.
    pub step_us: Vec<f64>,
    pub ticks: u64,
    pub intersection_ticks: f64,
    /// Vehicles on the network summed over ticks.
    pub vehicle_ticks: f64,
    pub decide_s: f64,
    /// Car-following (microscopic) or phase service (queueing).
    pub moving_s: f64,
    pub landings_s: f64,
    pub waiting_s: f64,
}

#[derive(Default)]
pub struct EngineSamples {
    pub hours: u64,
    /// Every fresh set-up's time, seconds.
    pub setup_s: Vec<f64>,
    /// Each tick's fastest `step`, microseconds.
    pub tick_us: Fastest,
    /// Each fork point's fastest checkpoint and restore, milliseconds.
    pub checkpoint_ms: Fastest,
    pub restore_ms: Fastest,
    pub snapshot_bytes: Vec<f64>,
    pub encode_mb_per_s: Vec<f64>,
    pub monitor_passes: u64,
    /// Congestion checks that rerouted at least one vehicle.
    pub rerouting_passes: u64,
    /// Events handed to the installed recorder.
    pub events: u64,
    pub roads: usize,
    /// Filled from the engine's tick profiler on traced hours.
    pub plant: Plant,
}

impl EngineSamples {
    /// Simulated ticks per second of `step` time over an hour made of
    /// each tick's fastest repeat.
    pub fn ticks_per_s(&self) -> f64 {
        HOUR as f64 / (self.tick_us.sum() / 1e6)
    }
}

/// The telemetry an hour runs with.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Instruments {
    /// The workload's own: recorder and gauges on ops-incident only.
    AsConfigured,
    /// None at all.
    Bare,
    /// A disabled recorder that counts the events it is handed anyway:
    /// with recording off the engine must hand it none.
    Probe,
}

struct DisabledCounter(Rc<Cell<u64>>);

impl Recorder for DisabledCounter {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _: Event) {
        self.0.set(self.0.get() + 1);
    }
}

/// `parse_scenario` + `ScenarioEngine::new`: scenario text to an engine
/// ready for its first tick. Returns the engine and the seconds taken.
pub fn set_up<T: Tracer>(w: Workload, text: &str, t: &mut T) -> (ScenarioEngine, f64) {
    let start = Instant::now();
    t.begin("scenario.parse");
    let spec = parse_scenario(text).expect("generated scenario text parses");
    t.end();
    t.begin("scenario.engine_new");
    let engine =
        ScenarioEngine::new(spec, w.config(), &util_bp).expect("generated scenario is valid");
    t.end();
    (engine, start.elapsed().as_secs_f64())
}

/// [`set_up`], timed into `s.setup_s`. Traced, it also times the
/// network build that `ScenarioEngine::new` makes internally, as the
/// public call it is.
fn timed_set_up<T: Tracer>(
    w: Workload,
    text: &str,
    t: &mut T,
    s: &mut EngineSamples,
) -> ScenarioEngine {
    let (engine, took) = set_up(w, text, t);
    s.setup_s.push(took);
    if t.on() {
        t.begin("netgen.build_network");
        let network = engine.spec().build_network();
        t.end();
        s.roads = network.topology().num_roads();
    }
    engine
}

pub fn outcome(engine: &ScenarioEngine) -> Outcome {
    Outcome {
        generated: engine.demand_generated(),
        completed: engine.ledger().completed(),
        avg_wait_s: engine.outcome().avg_queuing_time_s,
    }
}

/// Vehicle conservation as the substrate contract states it: every
/// generated vehicle has completed, is on a road, or waits outside an
/// entry.
fn conserved(engine: &ScenarioEngine) -> bool {
    let on_roads: u64 = engine
        .network()
        .topology()
        .road_ids()
        .map(|r| u64::from(engine.road_occupancy(r)))
        .sum();
    let active = engine.ledger().active() as u64;
    active == on_roads + engine.backlog_len() as u64
        && engine.demand_generated() == engine.ledger().completed() + active
}

/// Plant time so far by profiler section, microseconds.
fn profiled_us(engine: &ScenarioEngine, section: Section) -> f64 {
    let stats = engine.profiler().expect("profiling on").stats(section);
    stats.mean() * stats.count() as f64
}

const PLANT_SECTIONS: [Section; 4] = [
    Section::Decide,
    Section::CarFollowing,
    Section::Landings,
    Section::Waiting,
];

/// The in-line fork that `full_fork` runs to the horizon.
const FULL_FORK_AT: u64 = 7 * FORK_EVERY;

/// Fresh set-ups timed per hour: the one the hour runs on, and the rest
/// after its last tick.
const SET_UPS_PER_HOUR: usize = 4;

/// Simulates one hour through the engine. The operator's workload forks
/// a what-if every [`FORK_EVERY`] ticks; the others fork once, at the
/// horizon, so that no tick they time follows a fork. Set-ups are timed
/// outside the ticks too. With spans on, the engine's tick profiler is
/// on as well and fills `s.plant`. With `full_fork`, the fork at
/// [`FULL_FORK_AT`] is run to the horizon and must end where the main
/// run ends.
pub fn hour<T: Tracer>(
    w: Workload,
    text: &str,
    instruments: Instruments,
    full_fork: bool,
    t: &mut T,
    s: &mut EngineSamples,
    ops: &mut Ops,
) -> Outcome {
    t.begin("hour");
    let mut engine = timed_set_up(w, text, t, s);
    if t.on() {
        engine.enable_profiling();
    }
    let probe = Rc::new(Cell::new(0));
    match instruments {
        Instruments::AsConfigured => w.instrument(&mut engine),
        Instruments::Bare => {}
        Instruments::Probe => engine.set_recorder(Box::new(DisabledCounter(probe.clone()))),
    }
    let roads: Vec<_> = engine.network().topology().road_ids().collect();
    let intersections = engine.network().topology().num_intersections() as f64;
    let mut plant_before = 0.0;
    let mut fork_outcome = None;
    for tick in 0..HOUR {
        if w.operator() && tick > 0 && tick % FORK_EVERY == 0 {
            let point = (tick / FORK_EVERY - 1) as usize;
            if let Some(mut forked) = fork(&engine, point, t, s, ops) {
                if full_fork && tick == FULL_FORK_AT {
                    forked.run_to_end();
                    fork_outcome = Some(outcome(&forked));
                }
            }
            ops.check(conserved(&engine), || {
                format!("tick {tick}: vehicles not conserved")
            });
        }
        let reroutes = engine.congestion_reroutes();
        t.begin("scenario.step");
        let start = Instant::now();
        engine.step();
        let us = start.elapsed().as_secs_f64() * 1e6;
        t.end();
        ops.attempted += 1;
        s.tick_us.record(tick as usize, us);
        if t.on() {
            if w.monitor_tick(tick) {
                s.monitor_passes += 1;
                s.rerouting_passes += u64::from(engine.congestion_reroutes() > reroutes);
            }
            let plant_now: f64 = PLANT_SECTIONS
                .iter()
                .map(|&section| profiled_us(&engine, section))
                .sum();
            s.plant.step_us.push(plant_now - plant_before);
            plant_before = plant_now;
            s.plant.vehicle_ticks += roads
                .iter()
                .map(|&r| f64::from(engine.road_occupancy(r)))
                .sum::<f64>();
            s.plant.intersection_ticks += intersections;
            s.plant.ticks += 1;
        }
    }
    if t.on() {
        s.plant.decide_s += profiled_us(&engine, Section::Decide) / 1e6;
        s.plant.moving_s += profiled_us(&engine, Section::CarFollowing) / 1e6;
        s.plant.landings_s += profiled_us(&engine, Section::Landings) / 1e6;
        s.plant.waiting_s += profiled_us(&engine, Section::Waiting) / 1e6;
    }
    ops.check(conserved(&engine), || {
        "horizon: vehicles not conserved".to_string()
    });
    let result = outcome(&engine);
    if !w.operator() {
        fork_outcome = fork(&engine, 0, t, s, ops).map(|forked| outcome(&forked));
    }
    if full_fork || !w.operator() {
        ops.check(fork_outcome.is_some_and(|o| o.same(&result)), || {
            format!("fork at the horizon ended at {fork_outcome:?}, main run at {result:?}")
        });
    }
    for _ in 1..SET_UPS_PER_HOUR {
        timed_set_up(w, text, t, s);
    }
    s.events += match instruments {
        Instruments::Probe => probe.get(),
        _ => engine.recorder().map_or(0, |r| r.recorded()),
    };
    s.hours += 1;
    t.end();
    result
}

/// One what-if fork at fork point `point`: `checkpoint`, then `restore`
/// of those bytes. The fork must re-capture byte-identical bytes; that
/// check stays outside the timings. Returns the fork.
fn fork<T: Tracer>(
    engine: &ScenarioEngine,
    point: usize,
    t: &mut T,
    s: &mut EngineSamples,
    ops: &mut Ops,
) -> Option<ScenarioEngine> {
    let tick = engine.now().index();
    t.begin("snapshot.checkpoint");
    let start = Instant::now();
    let bytes = engine.checkpoint();
    let checkpoint_s = start.elapsed().as_secs_f64();
    t.end();
    if t.on() {
        t.begin("snapshot.parse");
        let parsed = SnapshotReader::parse(&bytes).is_ok();
        t.end();
        ops.check(parsed, || format!("tick {tick}: snapshot does not parse"));
    }
    t.begin("scenario.restore");
    let start = Instant::now();
    let restored = ScenarioEngine::restore(&bytes, engine.config(), &util_bp);
    let restore_s = start.elapsed().as_secs_f64();
    t.end();
    ops.attempted += 2;
    s.checkpoint_ms.record(point, checkpoint_s * 1e3);
    s.restore_ms.record(point, restore_s * 1e3);
    s.snapshot_bytes.push(bytes.len() as f64);
    s.encode_mb_per_s
        .push(bytes.len() as f64 / checkpoint_s / 1e6);
    let forked = match restored {
        Ok(forked) => forked,
        Err(e) => {
            ops.check(false, || format!("tick {tick}: restore failed: {e:?}"));
            return None;
        }
    };
    ops.check(forked.checkpoint() == bytes, || {
        format!("tick {tick}: the fork re-captured different bytes")
    });
    Some(forked)
}
