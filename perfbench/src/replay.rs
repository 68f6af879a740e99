//! The traced replay: one simulated hour driven through each layer's
//! public functions instead of the engine, so that every layer's calls
//! can be spanned from here. It reproduces the engine exactly for
//! workloads without events or replanning (city-micro, metro-queue);
//! on ops-incident only the demand layer is replayed, since the
//! engine's replanning is not a public call.

use std::time::Instant;

use utilbp_core::state::{StateReader, StateWriter};
use utilbp_core::Tick;
use utilbp_microsim::{MicroSimConfig, PhaseTimings};
use utilbp_scenario::{parse_scenario, Network, NetworkDemand, ScenarioEvent, ScenarioSpec};
use utilbp_substrate::{build_substrate, Backend, SubstrateScratch, TrafficSubstrate};

use crate::engine::{Ops, Plant};
use crate::spans::{SpanLog, Tracer};
use crate::workload::{util_bp, Outcome, Workload};

#[derive(Default)]
pub struct ReplaySamples {
    pub hours: u64,
    /// Arrivals the demand layer produced.
    pub arrivals: u64,
    pub plant: Plant,
}

/// The plant configuration `ScenarioEngine::new` derives from a spec.
fn micro_config(w: Workload, spec: &ScenarioSpec) -> MicroSimConfig {
    let config = w.config();
    let mut micro = config.micro;
    micro.parallelism = config.parallelism;
    micro.seed = spec.seed;
    micro.fidelity = spec.fidelity;
    micro
}

fn new_plant(w: Workload, spec: &ScenarioSpec, network: &Network) -> Box<dyn TrafficSubstrate> {
    let n = network.topology().num_intersections();
    build_substrate(
        w.backend(),
        network.topology().clone(),
        (0..n).map(util_bp).collect(),
        micro_config(w, spec),
    )
}

/// Parses the text and builds the network and the demand process.
fn set_up(w: Workload, text: &str, t: &mut SpanLog) -> (ScenarioSpec, Network, NetworkDemand) {
    t.begin("scenario.parse");
    let spec = parse_scenario(text).expect("generated scenario text parses");
    t.end();
    t.begin("netgen.build_network");
    let network = spec.build_network();
    t.end();
    t.begin("netgen.demand_new");
    let demand = NetworkDemand::new(
        &network,
        spec.demand.schedule(spec.horizon),
        micro_config(w, &spec).dt_seconds,
        spec.seed,
    );
    t.end();
    (spec, network, demand)
}

/// One hour of demand and plant. On the microscopic plant the state is
/// saved and loaded once, after the hour.
pub fn hour(
    w: Workload,
    text: &str,
    t: &mut SpanLog,
    r: &mut ReplaySamples,
    ops: &mut Ops,
) -> Outcome {
    t.begin("hour");
    let (spec, network, mut demand) = set_up(w, text, t);
    assert!(
        spec.events.is_empty(),
        "the plant replay has no event timeline"
    );
    t.begin("substrate.build");
    let mut plant = new_plant(w, &spec, &network);
    t.end();
    let intersections = network.topology().num_intersections() as f64;
    let mut arrivals = Vec::new();
    let mut scratch = SubstrateScratch::new();
    let mut occupancy = Vec::new();
    for tick in 0..spec.horizon.count() {
        t.begin("tick");
        arrivals.clear();
        t.begin("netgen.poll");
        demand.poll_into(&network, Tick::new(tick), &mut arrivals);
        t.end();
        r.arrivals += arrivals.len() as u64;
        let mut timings = PhaseTimings::default();
        t.begin("substrate.step");
        let start = Instant::now();
        plant.step_into_timed(&mut arrivals, &mut scratch, &mut timings);
        let took = start.elapsed().as_secs_f64();
        t.end();
        t.end();
        ops.attempted += 1;
        plant.occupancy_snapshot(&mut occupancy);
        let p = &mut r.plant;
        p.step_us.push(took * 1e6);
        p.ticks += 1;
        p.intersection_ticks += intersections;
        p.vehicle_ticks += occupancy.iter().map(|&v| f64::from(v)).sum::<f64>();
        p.decide_s += timings.decide;
        p.moving_s += timings.car_following;
        p.landings_s += timings.landings;
        p.waiting_s += timings.waiting;
    }
    if w.backend() == Backend::Microscopic {
        save_and_load(w, &spec, &network, plant.as_ref(), t, ops);
    }
    let active = plant.ledger().active() as u64;
    let on_roads: u64 = occupancy.iter().map(|&v| u64::from(v)).sum();
    ops.check(
        active == on_roads + plant.backlog_len() as u64
            && demand.generated() == plant.ledger().completed() + active,
        || "replay: vehicles not conserved".to_string(),
    );
    let result = Outcome {
        generated: demand.generated(),
        completed: plant.ledger().completed(),
        avg_wait_s: plant.mean_waiting_including_active() * micro_config(w, &spec).dt_seconds,
    };
    r.hours += 1;
    t.end();
    result
}

/// Saves the plant state and loads it into a fresh twin: the plant's
/// wire format. The twin must save the same words.
fn save_and_load(
    w: Workload,
    spec: &ScenarioSpec,
    network: &Network,
    plant: &dyn TrafficSubstrate,
    t: &mut SpanLog,
    ops: &mut Ops,
) {
    t.begin("microsim.save_state");
    let mut saved = StateWriter::new();
    plant.save_state(&mut saved);
    t.end();
    let mut twin = new_plant(w, spec, network);
    t.begin("microsim.load_state");
    let loaded = twin.load_state(&mut StateReader::new(saved.words()));
    t.end();
    ops.attempted += 2;
    let mut again = StateWriter::new();
    twin.save_state(&mut again);
    ops.check(loaded.is_ok() && again.words() == saved.words(), || {
        "replay: plant state does not survive save and load".to_string()
    });
}

/// One hour of the demand layer alone, with the spec's surges and
/// closures applied at the ticks the engine applies them. Returns the
/// vehicles generated, which must match the engine's count.
pub fn demand_hour(w: Workload, text: &str, t: &mut SpanLog, r: &mut ReplaySamples) -> u64 {
    t.begin("hour");
    let (spec, network, mut demand) = set_up(w, text, t);
    let mut changes: Vec<(u64, Change)> = Vec::new();
    for event in &spec.events {
        match *event {
            ScenarioEvent::CloseRoad { road, at } => {
                changes.push((at.index(), Change::Closed(road, true)))
            }
            ScenarioEvent::ReopenRoad { road, at } => {
                changes.push((at.index(), Change::Closed(road, false)))
            }
            ScenarioEvent::Surge {
                factor,
                from,
                until,
            } => {
                changes.push((from.index(), Change::Surge(factor)));
                changes.push((until.index(), Change::Surge(1.0)));
            }
            _ => unreachable!("ops-incident has closures and surges only"),
        }
    }
    changes.sort_by_key(|&(tick, _)| tick);
    let mut due = changes.into_iter().peekable();
    let mut arrivals = Vec::new();
    for tick in 0..spec.horizon.count() {
        while let Some((_, change)) = due.next_if(|&(at, _)| at <= tick) {
            match change {
                Change::Closed(road, closed) => demand.set_road_closed(&network, road, closed),
                Change::Surge(factor) => demand.set_surge(factor),
            }
        }
        arrivals.clear();
        t.begin("netgen.poll");
        demand.poll_into(&network, Tick::new(tick), &mut arrivals);
        t.end();
        r.arrivals += arrivals.len() as u64;
    }
    r.hours += 1;
    t.end();
    demand.generated()
}

#[derive(Clone, Copy)]
enum Change {
    Closed(utilbp_netgen::RoadId, bool),
    Surge(f64),
}
