//! Opt-in engine timing: per-component evaluation timing for the event
//! kernel, and per-phase step timing for the compiled engines.
//!
//! [`EvalTimer`] is a [`KernelHook`] that opts into the kernel's
//! per-evaluation timing (`KernelHook::wants_evals`) and accumulates
//! `(evals, nanos)` per component locally, merging into a shared
//! [`EvalProfile`] handle at run end — the flow installs the hook,
//! runs, and harvests the handle afterwards without owning the
//! simulator. Timing only observes: kernel counters, scheduling, and
//! results are bit-identical with or without the hook installed.
//!
//! [`PhaseTimes`] is the compiled engines' counterpart: the cycle, level
//! and batch engines take consecutive timestamps that tile each clock
//! step into the [`StepPhase`]s, only while profiling is enabled.

use crate::component::ComponentId;
use crate::kernel::{KernelHook, RunSummary};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One phase of a compiled engine's clock step, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Transient fault flips and the reset drive.
    FlipsReset,
    /// The combinational settle.
    Settle,
    /// Sampling the registers' next values.
    RegSample,
    /// Committing SRAM writes.
    Sram,
    /// FSM transitions and the Moore-output drive.
    Fsm,
    /// The register commit and the watchpoint scan (on the batch
    /// engine, also per-lane termination).
    RegCommitWatch,
    /// Re-seeding the dirty set from what the edge changed (level
    /// engine only).
    Remark,
}

impl StepPhase {
    /// Every phase, in step order.
    pub const ALL: [StepPhase; 7] = [
        StepPhase::FlipsReset,
        StepPhase::Settle,
        StepPhase::RegSample,
        StepPhase::Sram,
        StepPhase::Fsm,
        StepPhase::RegCommitWatch,
        StepPhase::Remark,
    ];

    /// The phase's report name.
    pub fn name(self) -> &'static str {
        match self {
            StepPhase::FlipsReset => "flips_reset",
            StepPhase::Settle => "settle",
            StepPhase::RegSample => "reg_sample",
            StepPhase::Sram => "sram",
            StepPhase::Fsm => "fsm",
            StepPhase::RegCommitWatch => "reg_commit_watch",
            StepPhase::Remark => "remark",
        }
    }
}

/// Accumulated per-[`StepPhase`] time of a compiled engine. Every phase
/// boundary charges the time since the previous boundary, and the clock
/// runs on from one step into the next until the engine's `run` returns,
/// so the phases tile the whole run: the loop between two steps counts
/// toward the next step's first phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Steps timed.
    pub steps: u64,
    /// Monotonic nanoseconds per phase, indexed like [`StepPhase::ALL`].
    pub nanos: [u64; 7],
    /// Phases the engine has charged at least once.
    seen: u8,
    last: Option<Instant>,
}

impl PhaseTimes {
    /// Counts one step, starting the clock unless it is already running.
    pub(crate) fn begin(&mut self) {
        self.steps += 1;
        if self.last.is_none() {
            self.last = Some(Instant::now());
        }
    }

    /// Stops the clock at the end of a run, so time spent outside the
    /// engine is not charged to the next step.
    pub(crate) fn stop(&mut self) {
        self.last = None;
    }

    /// Charges the time since the previous boundary to `phase`.
    pub(crate) fn lap(&mut self, phase: StepPhase) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.nanos[phase as usize] += now.duration_since(last).as_nanos() as u64;
        }
        self.seen |= 1 << phase as u8;
        self.last = Some(now);
    }

    /// `(phase name, nanoseconds)` for every phase this engine runs, in
    /// step order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        StepPhase::ALL
            .into_iter()
            .filter(|&phase| self.seen & (1 << phase as u8) != 0)
            .map(|phase| (phase.name(), self.nanos[phase as usize]))
    }
}

/// Charges a phase boundary when profiling is on; a no-op otherwise.
#[inline]
pub(crate) fn lap(times: Option<&mut PhaseTimes>, phase: StepPhase) {
    if let Some(times) = times {
        times.lap(phase);
    }
}

/// Accumulated per-component evaluation timing.
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    /// `(evals, nanos)` indexed by component id; components never
    /// evaluated keep `(0, 0)`.
    pub components: Vec<(u64, u64)>,
}

impl EvalProfile {
    /// Total timed evaluations across all components.
    pub fn total_evals(&self) -> u64 {
        self.components.iter().map(|(evals, _)| evals).sum()
    }

    /// Total evaluation nanoseconds across all components.
    pub fn total_nanos(&self) -> u64 {
        self.components.iter().map(|(_, nanos)| nanos).sum()
    }
}

/// The shared handle [`EvalTimer::new`] returns alongside the hook.
pub type EvalProfileHandle = Arc<Mutex<EvalProfile>>;

/// A [`KernelHook`] timing every ungated component evaluation.
#[derive(Debug)]
pub struct EvalTimer {
    shared: EvalProfileHandle,
    local: Vec<(u64, u64)>,
}

impl EvalTimer {
    /// Creates the hook plus the handle its totals are merged into at
    /// each run end.
    pub fn new() -> (EvalTimer, EvalProfileHandle) {
        let shared: EvalProfileHandle = Arc::default();
        (
            EvalTimer {
                shared: Arc::clone(&shared),
                local: Vec::new(),
            },
            shared,
        )
    }
}

impl KernelHook for EvalTimer {
    fn wants_evals(&self) -> bool {
        true
    }

    fn on_eval(&mut self, component: ComponentId, nanos: u64) {
        if component.0 >= self.local.len() {
            self.local.resize(component.0 + 1, (0, 0));
        }
        let slot = &mut self.local[component.0];
        slot.0 += 1;
        slot.1 += nanos;
    }

    fn on_run_end(&mut self, _summary: &RunSummary) {
        let mut shared = self
            .shared
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if shared.components.len() < self.local.len() {
            shared.components.resize(self.local.len(), (0, 0));
        }
        for (index, (evals, nanos)) in self.local.iter().enumerate() {
            shared.components[index].0 += evals;
            shared.components[index].1 += nanos;
        }
        self.local.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Clock, Counter};
    use crate::{SimTime, Simulator};

    fn counter_sim() -> Simulator {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let count = sim.add_signal("count", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(Counter::new("cnt0", clk, count));
        sim
    }

    #[test]
    fn timer_accumulates_and_counters_stay_identical() {
        let mut plain = counter_sim();
        plain.run(SimTime(100)).unwrap();

        let mut timed = counter_sim();
        let (timer, handle) = EvalTimer::new();
        timed.set_hook(Box::new(timer));
        timed.run(SimTime(100)).unwrap();

        assert_eq!(plain.stats(), timed.stats(), "profiling changed counters");
        let profile = handle.lock().unwrap();
        assert!(profile.total_evals() > 0, "no evaluations were timed");
        // Gated no-op activations count in the histogram but are never
        // dispatched, hence never timed.
        assert!(
            profile.total_evals() <= timed.activation_counts().iter().sum::<u64>(),
            "timed more evaluations than activations"
        );
    }
}
