//! The three workloads: the scenario text each one generates from its
//! seed, the engine configuration it runs under, and the outcomes
//! recorded for the default and held-out seeds.

use utilbp_core::standard::Approach;
use utilbp_core::{SignalController, UtilBp};
use utilbp_netgen::{GridNetwork, GridPos, GridSpec, RoadId};
use utilbp_scenario::{Backend, EngineConfig, ScenarioEngine};

/// Ticks in one simulated hour (the mini-slot is one second).
pub const HOUR: u64 = 3600;
/// The seed every gain claim is first measured on.
pub const DEFAULT_SEED: u64 = 7;
/// The held-out seed a gain claim must also hold on.
pub const HELD_OUT_SEED: u64 = 2020;
/// A what-if fork (checkpoint, then restore) every this many ticks.
pub const FORK_EVERY: u64 = 256;
/// ops-incident: the congestion monitor's period in ticks.
const MONITOR_PERIOD: u64 = 32;

/// The deterministic result of one simulated hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Vehicles the demand process generated.
    pub generated: u64,
    /// Vehicles that finished their journey within the horizon.
    pub completed: u64,
    /// Mean waiting time per vehicle in seconds, vehicles still in the
    /// network included (the paper's queuing-time measure).
    pub avg_wait_s: f64,
}

impl Outcome {
    /// Bit-exact equality: the outcome is deterministic, so a drift in
    /// the last bit is a behaviour change.
    pub fn same(&self, other: &Outcome) -> bool {
        self.generated == other.generated
            && self.completed == other.completed
            && self.avg_wait_s.to_bits() == other.avg_wait_s.to_bits()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CityMicro,
    MetroQueue,
    OpsIncident,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CityMicro,
        Workload::MetroQueue,
        Workload::OpsIncident,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CityMicro => "city-micro",
            Workload::MetroQueue => "metro-queue",
            Workload::OpsIncident => "ops-incident",
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Workload::CityMicro => Backend::Microscopic,
            Workload::MetroQueue | Workload::OpsIncident => Backend::Queueing,
        }
    }

    /// Intersections per grid side.
    fn side(self) -> u32 {
        match self {
            Workload::CityMicro | Workload::OpsIncident => 10,
            Workload::MetroQueue => 20,
        }
    }

    /// Serial, exact fidelity, no guard: the configuration an operator
    /// runs.
    pub fn config(self) -> EngineConfig {
        EngineConfig::new(self.backend())
    }

    /// Whether the congestion monitor runs on `tick`: every
    /// [`MONITOR_PERIOD`] ticks, when the workload replans.
    pub fn monitor_tick(self, tick: u64) -> bool {
        self == Workload::OpsIncident && tick > 0 && tick % MONITOR_PERIOD == 0
    }

    /// The operator's workload: the flight recorder and gauges are on,
    /// what-if forks run inside the hour, and the engine's event
    /// timeline and replanning keep the plant from being replayed
    /// outside it.
    pub fn operator(self) -> bool {
        self == Workload::OpsIncident
    }

    /// The scenario text the program receives: everything it simulates
    /// is in here, and only the `seed` line depends on `seed`.
    pub fn scenario_text(self, seed: u64) -> String {
        let n = self.side();
        let mut text = format!(
            "scenario {name}\nseed {seed}\nhorizon {HOUR}\n\
             topology grid rows={n} cols={n} pattern=I\ndemand constant\n",
            name = self.name()
        );
        if self == Workload::OpsIncident {
            let road = incident_road(n).index();
            text.push_str(&format!(
                "replan congestion period={MONITOR_PERIOD} threshold=0.5 hysteresis=0.1\n\
                 event surge factor=2.5 from=600 until=2400\n\
                 event close road={road} at=900\n\
                 event reopen road={road} at=2100\n"
            ));
        }
        text
    }

    /// Switches on the workload's instruments: the flight recorder and
    /// gauges for ops-incident, nothing otherwise.
    pub fn instrument(self, engine: &mut ScenarioEngine) {
        if self.operator() {
            engine.enable_recording(1 << 16);
            engine.enable_gauges(60);
        }
    }

    /// The outcome recorded for `seed`, when it is the default or the
    /// held-out seed. A change that moves it changes behaviour.
    pub fn golden(self, seed: u64) -> Option<Outcome> {
        use Workload::*;
        let (generated, completed, avg_wait_s) = match (self, seed) {
            (CityMicro, DEFAULT_SEED) => (28469, 16058, 676.3396325828097),
            (CityMicro, HELD_OUT_SEED) => (28347, 16102, 654.1340177091053),
            (MetroQueue, DEFAULT_SEED) => (56607, 29502, 528.3815252530597),
            (MetroQueue, HELD_OUT_SEED) => (56583, 30312, 534.1347577894429),
            (OpsIncident, DEFAULT_SEED) => (49592, 45492, 368.9466849491849),
            (OpsIncident, HELD_OUT_SEED) => (49542, 45832, 371.8200718582238),
            _ => return None,
        };
        Some(Outcome {
            generated,
            completed,
            avg_wait_s,
        })
    }
}

/// The controller every intersection runs: UTIL-BP with the paper's
/// parameters.
pub fn util_bp(_: usize) -> Box<dyn SignalController> {
    Box::new(UtilBp::paper())
}

/// The southbound road out of the grid's centre intersection: deep
/// enough that traffic upstream of it has not yet committed to it, so
/// closing it gives the replanner journeys to divert.
fn incident_road(side: u32) -> RoadId {
    let grid = GridNetwork::new(GridSpec {
        rows: side,
        cols: side,
        ..GridSpec::default()
    });
    let centre = grid.intersection_at(GridPos::new(side / 2, side / 2));
    grid.topology()
        .intersection(centre)
        .outgoing_road(Approach::South.outgoing())
}
