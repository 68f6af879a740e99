//! The fault-plane acceptance gates: the deterministic chaos harness
//! over ≥ 20 seeded fault timelines per backend, and the
//! degraded-recovery builtin's activation/recovery arc on both
//! substrates.

use adaptive_backpressure::core::UtilBp;
use adaptive_backpressure::experiments::{run_chaos, ChaosConfig};
use adaptive_backpressure::scenario::{
    builtin, Backend, EngineConfig, ScenarioEngine, ScenarioEvent,
};

#[test]
fn chaos_harness_passes_twenty_timelines_per_backend() {
    // Each timeline runs four times per backend, always with the
    // invariant guard installed: a conservation, sensor-consistency, or
    // closed-road violation panics with a tick-stamped diagnostic, and
    // a repeat-run or crash-recovery divergence fails the run. `Ok` here
    // IS the property bundle: zero panics, exact conservation every
    // tick, bit-identical outcomes under active faults, and bounded
    // degradation.
    let config = ChaosConfig::default();
    assert!(config.timelines >= 20, "the acceptance floor");
    assert_eq!(config.backends.len(), 2, "both substrates");
    let report = run_chaos(&config).expect("every timeline upholds the fault-plane properties");
    assert_eq!(
        report.timelines.len(),
        config.timelines * config.backends.len()
    );
    // The chaos is real: the sampled fault configs are severe enough
    // that watchdogs actually trip somewhere in the family.
    assert!(
        report.total_activations() > 0,
        "at least one timeline must trip a watchdog"
    );
    // And the resilience table renders every row.
    let rendered = report.render();
    for timeline in &report.timelines {
        assert!(rendered.contains(&timeline.seed.to_string()));
    }
}

#[test]
fn degraded_recovery_builtin_activates_then_fully_recovers_on_both_backends() {
    let spec = builtin("grid-degraded-recovery").expect("builtin exists");
    let (from, until) = match spec.events.iter().find_map(|e| match e {
        ScenarioEvent::SensorFault { from, until, .. } => Some((*from, *until)),
        _ => None,
    }) {
        Some(window) => window,
        None => panic!("the builtin has a sensor-fault window"),
    };
    for backend in Backend::ALL {
        let mut engine =
            ScenarioEngine::new(spec.clone(), EngineConfig::new(backend).guarded(), &|_| {
                Box::new(UtilBp::paper())
            })
            .expect("spec validates");
        // Before the window: every stream is live, no watchdog trips.
        while engine.now() < from {
            engine.step();
        }
        assert_eq!(
            engine.fallback_activations(),
            0,
            "{backend}: plausible streams never trip the watchdog"
        );
        // Inside the window every counter is frozen; the monitors must
        // flag the dead streams and switch to the fixed-time fallback.
        while engine.now() < until {
            engine.step();
        }
        assert!(
            engine.fallback_activations() > 0,
            "{backend}: frozen counters must activate the fallback"
        );
        assert!(engine.ticks_degraded() > 0, "{backend}");
        // After the window the counters go live again; give the
        // hysteresis time to confirm recovery, then verify degradation
        // has fully stopped: `ticks_degraded` no longer grows.
        let horizon = engine.spec().horizon.count();
        let recovery_deadline = until.index() + (horizon - until.index()) / 2;
        while engine.now().index() < recovery_deadline {
            engine.step();
        }
        assert!(
            !engine.currently_degraded(),
            "{backend}: every intersection must recover after the window"
        );
        let degraded_at_deadline = engine.ticks_degraded();
        engine.run_to_end();
        assert_eq!(
            engine.ticks_degraded(),
            degraded_at_deadline,
            "{backend}: ticks_degraded stops growing after recovery"
        );
        assert!(
            engine.recovery_time() > 0.0,
            "{backend}: completed episodes report a recovery time"
        );
        let outcome = engine.outcome();
        assert_eq!(outcome.fallback_activations, engine.fallback_activations());
        assert_eq!(outcome.ticks_degraded, degraded_at_deadline);
        assert_eq!(outcome.recovery_time, engine.recovery_time());
    }
}
