//! The decide phase of a network step, shared by both simulation
//! substrates.
//!
//! Back-pressure control is decentralized by construction: each
//! controller reads only its own intersection's observation. A plant
//! tick nevertheless runs on the calling thread: at this repo's grid
//! sizes a whole tick costs microseconds, less than handing work to a
//! thread pool would. Parallelism pays at the grain of independent runs
//! (experiment sweeps, chaos timelines), which use `std::thread::scope`.

use serde::{Deserialize, Serialize};

use crate::controller::{PhaseDecision, SignalController};
use crate::layout::IntersectionLayout;
use crate::observation::{IntersectionView, ObservationBuffer};
use crate::time::Tick;

/// The execution mode of a plant tick. It has one value: every phase of
/// a tick runs serially on the calling thread.
///
/// This is not a knob. It remains only so that configurations which
/// assign `parallelism` fields keep compiling (the benchmark harness in
/// `perfbench/` does), and the next change to the benchmark deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// Everything on the calling thread.
    #[default]
    Serial,
}

/// One controller plus its latest decision — the unit of work of the
/// decide phase.
pub struct ControllerSlot {
    /// The intersection's controller.
    pub controller: Box<dyn SignalController>,
    /// The controller's decision for the current step.
    pub decision: PhaseDecision,
}

impl ControllerSlot {
    /// Wraps one controller per intersection into decide slots
    /// (initialized to [`PhaseDecision::Transition`]).
    pub fn wrap_all(controllers: Vec<Box<dyn SignalController>>) -> Vec<ControllerSlot> {
        controllers
            .into_iter()
            .map(|controller| ControllerSlot {
                controller,
                decision: PhaseDecision::Transition,
            })
            .collect()
    }
}

/// The decide phase of a network step: every slot's controller reads its
/// own observation (via `layout_of(index)` and `observations`) and writes
/// its decision, in intersection order.
///
/// Shared by both simulation substrates so their decide semantics cannot
/// drift.
///
/// # Panics
///
/// Panics if an observation in the buffer is not shaped for the layout
/// `layout_of` returns at the same index.
pub fn decide_all<'a, F>(
    slots: &mut [ControllerSlot],
    observations: &ObservationBuffer,
    now: Tick,
    layout_of: F,
) where
    F: Fn(usize) -> &'a IntersectionLayout,
{
    for (idx, slot) in slots.iter_mut().enumerate() {
        let view = IntersectionView::new(layout_of(idx), observations.get(idx))
            .expect("observation buffer shaped from the same layout");
        slot.decision = slot.controller.decide(&view, now);
    }
}
