//! The behavioral control unit: an FSM table executed directly by the
//! kernel.
//!
//! In the paper's flow the FSM XML is translated by XSLT into behavioral
//! Java code compiled against Hades. Here the same table is interpreted by
//! [`ControlUnit`], which is observationally identical (the generated code
//! was a mechanical rendering of the table); the textual rendering of the
//! behavioral program still exists for metrics and inspection (see the
//! `xform` crate's `fsm→behavior` stylesheet).

use crate::component::{Component, Sensitivity, SignalId};
use crate::kernel::Context;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// One outgoing transition of a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmTransition {
    /// `Some((input_index, expected))` guards the transition on a condition
    /// input being true/false; `None` is an unconditional default.
    pub condition: Option<(usize, bool)>,
    /// Index of the target state.
    pub target: usize,
}

/// One state of the control FSM (Moore machine).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsmState {
    /// State name, used in diagnostics and dot output.
    pub name: String,
    /// `(output_index, value)` pairs asserted while in this state; outputs
    /// not listed are driven to zero.
    pub outputs: Vec<(usize, i64)>,
    /// Transitions evaluated in order on each rising clock edge; the first
    /// whose condition holds is taken.
    pub transitions: Vec<FsmTransition>,
    /// Whether reaching this state completes the computation.
    pub terminal: bool,
}

/// A validated control-FSM table: states, condition inputs, and control
/// outputs, all referenced by index.
///
/// ```
/// use eventsim::ops::{FsmTable, FsmState, FsmTransition};
/// let table = FsmTable::new(
///     vec![
///         FsmState {
///             name: "run".into(),
///             outputs: vec![(0, 1)],
///             transitions: vec![FsmTransition { condition: None, target: 1 }],
///             terminal: false,
///         },
///         FsmState { name: "done".into(), terminal: true, ..Default::default() },
///     ],
///     1, // condition inputs
///     1, // control outputs
/// ).expect("well-formed table");
/// assert_eq!(table.states().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmTable {
    states: Vec<FsmState>,
    condition_count: usize,
    output_count: usize,
}

/// Error returned by [`FsmTable::new`] for ill-formed tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateFsmError(String);

impl fmt::Display for ValidateFsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fsm table: {}", self.0)
    }
}

impl Error for ValidateFsmError {}

impl FsmTable {
    /// Validates and wraps a state table. State 0 is the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateFsmError`] when the table is empty, a transition
    /// or output index is out of range, a non-terminal state has no
    /// transitions, or an unconditional transition is followed by further
    /// (unreachable) transitions.
    pub fn new(
        states: Vec<FsmState>,
        condition_count: usize,
        output_count: usize,
    ) -> Result<Self, ValidateFsmError> {
        if states.is_empty() {
            return Err(ValidateFsmError("no states".into()));
        }
        for (i, state) in states.iter().enumerate() {
            for (out, _) in &state.outputs {
                if *out >= output_count {
                    return Err(ValidateFsmError(format!(
                        "state '{}' drives output {} but only {} outputs exist",
                        state.name, out, output_count
                    )));
                }
            }
            if !state.terminal && state.transitions.is_empty() {
                return Err(ValidateFsmError(format!(
                    "non-terminal state '{}' has no transitions",
                    state.name
                )));
            }
            for (t, transition) in state.transitions.iter().enumerate() {
                if transition.target >= states.len() {
                    return Err(ValidateFsmError(format!(
                        "state '{}' transition to missing state {}",
                        state.name, transition.target
                    )));
                }
                match transition.condition {
                    Some((cond, _)) if cond >= condition_count => {
                        return Err(ValidateFsmError(format!(
                            "state '{}' tests condition {} but only {} conditions exist",
                            state.name, cond, condition_count
                        )));
                    }
                    None if t + 1 != state.transitions.len() => {
                        return Err(ValidateFsmError(format!(
                            "state '{}' has transitions after its unconditional default",
                            state.name
                        )));
                    }
                    _ => {}
                }
            }
            let _ = i;
        }
        Ok(FsmTable {
            states,
            condition_count,
            output_count,
        })
    }

    /// The state list (state 0 is initial).
    pub fn states(&self) -> &[FsmState] {
        &self.states
    }

    /// Number of condition inputs the table references.
    pub fn condition_count(&self) -> usize {
        self.condition_count
    }

    /// Number of control outputs the table drives.
    pub fn output_count(&self) -> usize {
        self.output_count
    }

    /// Dense Moore-output rows: `rows[state][output]` is the value the
    /// state drives on that output, 0 when the state does not list it.
    /// When a state lists an output twice, the first value wins.
    pub fn output_rows(&self) -> Vec<Vec<i64>> {
        self.states
            .iter()
            .map(|state| {
                let mut row = vec![0; self.output_count];
                // Reverse order, so the first listing is written last.
                for &(out, value) in state.outputs.iter().rev() {
                    row[out] = value;
                }
                row
            })
            .collect()
    }
}

/// Execution coverage accumulated by a [`ControlUnit`] over one run.
///
/// `state_visits[i]` counts entries into state `i` (the initial state is
/// counted once at init); `transitions` counts each `(from, to)` edge
/// actually taken on a clock edge, including explicit self-loops. Both use
/// table indices, so state 0 is always the initial state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsmCoverage {
    /// Per-state entry counts, indexed like [`FsmTable::states`].
    pub state_visits: Vec<u64>,
    /// Taken-transition counts keyed by `(from_state, to_state)`.
    pub transitions: BTreeMap<(usize, usize), u64>,
}

impl FsmCoverage {
    /// Number of distinct states entered at least once.
    pub fn states_visited(&self) -> usize {
        self.state_visits.iter().filter(|&&n| n > 0).count()
    }

    /// Number of distinct `(from, to)` edges taken at least once.
    pub fn transitions_taken(&self) -> usize {
        self.transitions.len()
    }
}

/// Shared handle giving the caller access to a [`ControlUnit`]'s coverage
/// after the simulator has consumed the component (same pattern as probe
/// handles).
#[derive(Clone, Default)]
pub struct FsmCoverageHandle(Rc<RefCell<FsmCoverage>>);

impl FsmCoverageHandle {
    /// Creates a fresh, empty handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out the coverage accumulated so far.
    pub fn snapshot(&self) -> FsmCoverage {
        self.0.borrow().clone()
    }
}

/// The behavioral component executing an [`FsmTable`].
///
/// Moore semantics: the outputs of the current state are driven
/// continuously; on each rising clock edge the first transition whose
/// condition holds (conditions are sampled pre-edge) selects the next
/// state. Entering a terminal state asserts `done` handling and, by
/// default, stops the run with reason `"<name>: done"`.
pub struct ControlUnit {
    name: String,
    clk: SignalId,
    conditions: Vec<SignalId>,
    outputs: Vec<SignalId>,
    output_widths: Vec<u32>,
    table: FsmTable,
    state: usize,
    stop_when_done: bool,
    cycles: u64,
    /// Last value driven per output, so state changes only schedule
    /// updates for outputs that actually change (control vectors are wide
    /// but sparse).
    driven: Vec<Option<i64>>,
    /// Dense Moore-output rows, `state_values[state][output]` (see
    /// [`FsmTable::output_rows`]), so a drive reads one row instead of
    /// searching the state's output list per output.
    state_values: Vec<Vec<i64>>,
    coverage: Option<FsmCoverageHandle>,
}

impl ControlUnit {
    /// Creates a control unit.
    ///
    /// `conditions[i]` carries condition index `i` of the table;
    /// `outputs[i]` (with width `output_widths[i]`) carries output index
    /// `i`.
    ///
    /// # Panics
    ///
    /// Panics when the signal lists disagree with the table's declared
    /// condition/output counts.
    pub fn new(
        name: impl Into<String>,
        clk: SignalId,
        conditions: Vec<SignalId>,
        outputs: Vec<SignalId>,
        output_widths: Vec<u32>,
        table: FsmTable,
    ) -> Self {
        assert_eq!(
            conditions.len(),
            table.condition_count(),
            "condition signal count mismatch"
        );
        assert_eq!(
            outputs.len(),
            table.output_count(),
            "output signal count mismatch"
        );
        assert_eq!(
            outputs.len(),
            output_widths.len(),
            "output width count mismatch"
        );
        let driven = vec![None; outputs.len()];
        let state_values = table.output_rows();
        ControlUnit {
            name: name.into(),
            clk,
            conditions,
            outputs,
            output_widths,
            table,
            state: 0,
            stop_when_done: true,
            cycles: 0,
            driven,
            state_values,
            coverage: None,
        }
    }

    /// Builder-style control over whether entering a terminal state stops
    /// the run (on by default).
    pub fn with_stop_when_done(mut self, stop: bool) -> Self {
        self.stop_when_done = stop;
        self
    }

    /// Attaches a coverage handle; state entries and taken transitions are
    /// recorded into it as the FSM executes.
    pub fn with_coverage(mut self, handle: FsmCoverageHandle) -> Self {
        self.coverage = Some(handle);
        self
    }

    fn record_visit(&self, state: usize) {
        if let Some(handle) = &self.coverage {
            let mut cov = handle.0.borrow_mut();
            if cov.state_visits.len() < self.table.states().len() {
                cov.state_visits.resize(self.table.states().len(), 0);
            }
            cov.state_visits[state] += 1;
        }
    }

    fn record_transition(&self, from: usize, to: usize) {
        if let Some(handle) = &self.coverage {
            let mut cov = handle.0.borrow_mut();
            *cov.transitions.entry((from, to)).or_insert(0) += 1;
        }
    }

    /// Index of the current state.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Number of rising clock edges observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    fn drive_outputs(&mut self, ctx: &mut Context<'_>) {
        let row = &self.state_values[self.state];
        for (i, (&signal, &value)) in self.outputs.iter().zip(row).enumerate() {
            if self.driven[i] != Some(value) {
                self.driven[i] = Some(value);
                ctx.set(signal, Value::known(self.output_widths[i], value));
            }
        }
    }
}

impl Component for ControlUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> Vec<Sensitivity> {
        // Edge-triggered on the clock only; conditions are sampled.
        vec![Sensitivity::rising(self.clk)]
    }

    fn init(&mut self, ctx: &mut Context<'_>) {
        self.state = 0;
        self.record_visit(0);
        self.drive_outputs(ctx);
        if self.table.states()[0].terminal && self.stop_when_done {
            ctx.stop(format!("{}: done", self.name));
        }
    }

    fn react(&mut self, ctx: &mut Context<'_>) {
        // Every invocation is a rising clock edge.
        self.cycles += 1;
        let current = &self.table.states()[self.state];
        if current.terminal {
            return;
        }
        let mut next = None;
        for transition in &current.transitions {
            match transition.condition {
                None => {
                    next = Some(transition.target);
                    break;
                }
                Some((index, expected)) => {
                    let value = ctx.get(self.conditions[index]);
                    if value.is_x() {
                        ctx.fail(format!(
                            "{}: state '{}' tests condition {} which is X",
                            self.name, current.name, index
                        ));
                        return;
                    }
                    if value.is_true() == expected {
                        next = Some(transition.target);
                        break;
                    }
                }
            }
        }
        let Some(next) = next else {
            // No transition fired: hold state (explicit self-loops are the
            // normal encoding, but a fully guarded state may legally hold).
            return;
        };
        self.record_transition(self.state, next);
        self.record_visit(next);
        if next != self.state {
            self.state = next;
            self.drive_outputs(ctx);
        }
        if self.table.states()[self.state].terminal && self.stop_when_done {
            ctx.stop(format!("{}: done", self.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{RunOutcome, SimTime, Simulator};
    use crate::ops::{Clock, ConstDriver};

    fn linear_table(n: usize) -> FsmTable {
        let mut states: Vec<FsmState> = (0..n)
            .map(|i| FsmState {
                name: format!("s{i}"),
                outputs: vec![(0, i as i64)],
                transitions: vec![FsmTransition {
                    condition: None,
                    target: i + 1,
                }],
                terminal: false,
            })
            .collect();
        states.push(FsmState {
            name: "done".into(),
            outputs: vec![],
            transitions: vec![],
            terminal: true,
        });
        FsmTable::new(states, 0, 1).unwrap()
    }

    #[test]
    fn validation_rejects_bad_tables() {
        assert!(FsmTable::new(vec![], 0, 0).is_err());
        // Dangling target.
        let err = FsmTable::new(
            vec![FsmState {
                name: "s0".into(),
                outputs: vec![],
                transitions: vec![FsmTransition {
                    condition: None,
                    target: 5,
                }],
                terminal: false,
            }],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.to_string().contains("missing state"), "{err}");
        // Output out of range.
        assert!(FsmTable::new(
            vec![FsmState {
                name: "s0".into(),
                outputs: vec![(3, 1)],
                transitions: vec![],
                terminal: true,
            }],
            0,
            1,
        )
        .is_err());
        // Condition out of range.
        assert!(FsmTable::new(
            vec![FsmState {
                name: "s0".into(),
                outputs: vec![],
                transitions: vec![FsmTransition {
                    condition: Some((0, true)),
                    target: 0,
                }],
                terminal: false,
            }],
            0,
            0,
        )
        .is_err());
        // Dead transition after default.
        assert!(FsmTable::new(
            vec![FsmState {
                name: "s0".into(),
                outputs: vec![],
                transitions: vec![
                    FsmTransition { condition: None, target: 0 },
                    FsmTransition { condition: None, target: 0 },
                ],
                terminal: false,
            }],
            0,
            0,
        )
        .is_err());
        // Non-terminal dead end.
        assert!(FsmTable::new(
            vec![FsmState {
                name: "s0".into(),
                outputs: vec![],
                transitions: vec![],
                terminal: false,
            }],
            0,
            0,
        )
        .is_err());
    }

    #[test]
    fn walks_linear_sequence_and_stops_when_done() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let out = sim.add_signal("ctl", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(ControlUnit::new(
            "fsm0",
            clk,
            vec![],
            vec![out],
            vec![8],
            linear_table(3),
        ));
        let summary = sim.run(SimTime(1000)).unwrap();
        match summary.outcome {
            RunOutcome::Stopped(reason) => assert!(reason.contains("fsm0"), "{reason}"),
            other => panic!("expected stop, got {other:?}"),
        }
        // Three transitions, edges at t=5,15,25.
        assert_eq!(summary.end_time, SimTime(25));
    }

    #[test]
    fn moore_outputs_track_state() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let out = sim.add_signal("ctl", 8);
        sim.trace_signal(out);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(
            ControlUnit::new("fsm0", clk, vec![], vec![out], vec![8], linear_table(3))
                .with_stop_when_done(false),
        );
        sim.run(SimTime(100)).unwrap();
        let seq: Vec<u64> = sim.changes().iter().map(|c| c.value.as_u64()).collect();
        assert_eq!(seq, [0, 1, 2, 0]); // s0,s1,s2 then done state drives 0
    }

    #[test]
    fn conditional_branch_follows_condition() {
        // s0 --cond--> s1(out=7) ; s0 --!cond--> s2(out=9)
        let table = FsmTable::new(
            vec![
                FsmState {
                    name: "s0".into(),
                    outputs: vec![],
                    transitions: vec![
                        FsmTransition {
                            condition: Some((0, true)),
                            target: 1,
                        },
                        FsmTransition {
                            condition: None,
                            target: 2,
                        },
                    ],
                    terminal: false,
                },
                FsmState {
                    name: "s1".into(),
                    outputs: vec![(0, 7)],
                    transitions: vec![],
                    terminal: true,
                },
                FsmState {
                    name: "s2".into(),
                    outputs: vec![(0, 9)],
                    transitions: vec![],
                    terminal: true,
                },
            ],
            1,
            1,
        )
        .unwrap();

        for (cond, expected) in [(true, 7), (false, 9)] {
            let mut sim = Simulator::new();
            let clk = sim.add_signal("clk", 1);
            let c = sim.add_signal("cond", 1);
            let out = sim.add_signal("out", 8);
            sim.add_component(Clock::new("clk0", clk, 10));
            sim.add_component(ConstDriver::new("cc", c, Value::bit(cond)));
            sim.add_component(ControlUnit::new(
                "fsm0",
                clk,
                vec![c],
                vec![out],
                vec![8],
                table.clone(),
            ));
            sim.run(SimTime(100)).unwrap();
            assert_eq!(sim.value(out).as_u64(), expected, "cond={cond}");
        }
    }

    #[test]
    fn x_condition_fails_run() {
        let table = FsmTable::new(
            vec![
                FsmState {
                    name: "s0".into(),
                    outputs: vec![],
                    transitions: vec![FsmTransition {
                        condition: Some((0, true)),
                        target: 1,
                    }],
                    terminal: false,
                },
                FsmState {
                    name: "s1".into(),
                    outputs: vec![],
                    transitions: vec![],
                    terminal: true,
                },
            ],
            1,
            0,
        )
        .unwrap();
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let c = sim.add_signal("cond", 1); // never driven
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(ControlUnit::new("fsm0", clk, vec![c], vec![], vec![], table));
        let summary = sim.run(SimTime(100)).unwrap();
        assert!(matches!(summary.outcome, RunOutcome::Failed(ref m) if m.contains("X")));
    }

    #[test]
    fn coverage_records_visits_and_transitions() {
        let handle = FsmCoverageHandle::new();
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let out = sim.add_signal("ctl", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(
            ControlUnit::new("fsm0", clk, vec![], vec![out], vec![8], linear_table(3))
                .with_coverage(handle.clone()),
        );
        sim.run(SimTime(1000)).unwrap();
        let cov = handle.snapshot();
        // s0,s1,s2,done all entered exactly once.
        assert_eq!(cov.state_visits, vec![1, 1, 1, 1]);
        assert_eq!(cov.states_visited(), 4);
        assert_eq!(cov.transitions_taken(), 3);
        assert_eq!(cov.transitions.get(&(0, 1)), Some(&1));
        assert_eq!(cov.transitions.get(&(2, 3)), Some(&1));
    }

    #[test]
    fn cycle_counter_counts_edges() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let out = sim.add_signal("ctl", 8);
        sim.add_component(Clock::new("clk0", clk, 10));
        sim.add_component(
            ControlUnit::new("fsm0", clk, vec![], vec![out], vec![8], linear_table(2))
                .with_stop_when_done(false),
        );
        sim.run(SimTime(200)).unwrap();
        // ControlUnit is consumed by the simulator; cycles are asserted via
        // the summary in flow-level tests. Here we only check it ran.
        assert_eq!(sim.value(out).as_u64(), 0);
    }
}
