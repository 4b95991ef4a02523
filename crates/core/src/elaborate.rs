//! Elaboration: turning the XML artifacts into a live simulation.
//!
//! This follows the paper's arrows literally: the datapath XML is first
//! translated by the `datapath→hds` stylesheet into `.hds` text, which is
//! then parsed by the simulator's netlist loader — the structural path.
//! The FSM XML is converted into a behavioral control table executed by
//! an [`eventsim::ops::ControlUnit`] — the behavioral path (the paper's
//! generated Java).
//!
//! Both paths end in one body, `elaborate_parsed`, which builds the
//! simulator from the parse products (netlist, control table, clock
//! name). [`elaborate_config`] runs the stylesheet and the parsers and
//! then calls it; the test flow calls it directly with the products it
//! parsed once when it prepared the design.

use eventsim::netlist::{ElabMap, Netlist};
use eventsim::ops::{ControlUnit, FsmCoverageHandle, FsmState, FsmTable, FsmTransition};
use eventsim::{MemHandle, SignalId, Simulator};
use nenya::fsm::Fsm;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use xmlite::Document;

/// Errors raised while elaborating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateConfigError {
    /// The datapath/fsm XML did not match its dialect.
    Dialect(String),
    /// The stylesheet failed (internal error — stock sheets always apply).
    Stylesheet(String),
    /// The generated `.hds` text failed to parse.
    Hds(String),
    /// The netlist failed to elaborate.
    Netlist(String),
    /// The FSM references signals the datapath does not provide, or is
    /// structurally invalid.
    Fsm(String),
}

impl fmt::Display for ElaborateConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateConfigError::Dialect(m) => write!(f, "dialect error: {m}"),
            ElaborateConfigError::Stylesheet(m) => write!(f, "stylesheet error: {m}"),
            ElaborateConfigError::Hds(m) => write!(f, "hds error: {m}"),
            ElaborateConfigError::Netlist(m) => write!(f, "netlist error: {m}"),
            ElaborateConfigError::Fsm(m) => write!(f, "fsm binding error: {m}"),
        }
    }
}

impl Error for ElaborateConfigError {}

/// A fully elaborated configuration, ready to run.
pub struct ConfigSim {
    /// The simulator holding the structural datapath plus the behavioral
    /// control unit.
    pub sim: Simulator,
    /// SRAM content handles by memory (instance) name.
    pub mems: HashMap<String, MemHandle>,
    /// The `done` flag signal.
    pub done: SignalId,
    /// The clock signal.
    pub clk: SignalId,
    /// The clock period in ticks (fixed by the datapath generator).
    pub clock_period: u64,
    /// FSM state names in control-table order (state 0 is initial).
    pub state_names: Vec<String>,
    /// Total number of transitions declared in the control table.
    pub transition_total: usize,
    /// Live coverage handle for the control unit, present when the
    /// configuration was elaborated with [`elaborate_config_instrumented`]
    /// (or the test flow ran with coverage on).
    pub fsm_coverage: Option<FsmCoverageHandle>,
}

/// Elaborates one configuration from its two XML documents.
///
/// # Errors
///
/// Returns [`ElaborateConfigError`] when any stage of the
/// XML→hds→netlist→simulator or XML→table→control-unit path fails.
pub fn elaborate_config(
    dp_doc: &Document,
    fsm_doc: &Document,
) -> Result<ConfigSim, ElaborateConfigError> {
    elaborate_config_with(dp_doc, fsm_doc, true)
}

/// [`elaborate_config`] with control over whether reaching the FSM's
/// terminal state stops the run. Pass `false` for co-simulation benches
/// where another component (e.g. a CPU) owns the end of simulation.
///
/// # Errors
///
/// As for [`elaborate_config`].
pub fn elaborate_config_with(
    dp_doc: &Document,
    fsm_doc: &Document,
    stop_when_done: bool,
) -> Result<ConfigSim, ElaborateConfigError> {
    elaborate_config_impl(dp_doc, fsm_doc, stop_when_done, None)
}

/// [`elaborate_config`] with the control unit instrumented for FSM
/// state/transition coverage; the returned [`ConfigSim::fsm_coverage`]
/// handle stays valid across the run.
///
/// # Errors
///
/// As for [`elaborate_config`].
pub fn elaborate_config_instrumented(
    dp_doc: &Document,
    fsm_doc: &Document,
    stop_when_done: bool,
) -> Result<ConfigSim, ElaborateConfigError> {
    elaborate_config_impl(dp_doc, fsm_doc, stop_when_done, Some(FsmCoverageHandle::new()))
}

fn elaborate_config_impl(
    dp_doc: &Document,
    fsm_doc: &Document,
    stop_when_done: bool,
    coverage: Option<FsmCoverageHandle>,
) -> Result<ConfigSim, ElaborateConfigError> {
    // Structural path: datapath.xml → .hds → netlist.
    let hds_text = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root())
        .map_err(|e| ElaborateConfigError::Stylesheet(e.to_string()))?;
    let netlist =
        eventsim::hds::parse(&hds_text).map_err(|e| ElaborateConfigError::Hds(e.to_string()))?;
    // Behavioral path: fsm.xml → control table.
    let fsm =
        nenya::xml::parse_fsm(fsm_doc).map_err(|e| ElaborateConfigError::Dialect(e.to_string()))?;
    let control = ControlTable::from_fsm(&fsm)?;
    let clock = datapath_clock(dp_doc)?;
    elaborate_parsed(&netlist, &control, clock, stop_when_done, coverage)
}

/// The clock signal a datapath document names in its `clock` attribute.
///
/// # Errors
///
/// Returns [`ElaborateConfigError::Dialect`] when the attribute is
/// missing.
pub(crate) fn datapath_clock(dp_doc: &Document) -> Result<&str, ElaborateConfigError> {
    dp_doc
        .root()
        .attr("clock")
        .ok_or_else(|| ElaborateConfigError::Dialect("datapath lacks clock attribute".into()))
}

/// Elaborates one configuration from its parse products: the `.hds`
/// netlist, the control table and the clock signal's name. This is the
/// one elaboration body: [`elaborate_config`] and its variants parse
/// their XML and call it, and the test flow calls it with the products
/// it parsed once per design. The netlist's components are registered
/// first, then the control unit; kernel counters depend on that order.
/// Pass a coverage handle to instrument the control unit (see
/// [`elaborate_config_instrumented`]).
///
/// # Errors
///
/// Returns [`ElaborateConfigError::Netlist`] when the netlist does not
/// elaborate and [`ElaborateConfigError::Fsm`] when the clock, `done` or
/// a control signal is missing from it.
pub(crate) fn elaborate_parsed(
    netlist: &Netlist,
    control: &ControlTable,
    clock: &str,
    stop_when_done: bool,
    coverage: Option<FsmCoverageHandle>,
) -> Result<ConfigSim, ElaborateConfigError> {
    let mut sim = Simulator::new();
    let map = netlist
        .elaborate(&mut sim)
        .map_err(|e| ElaborateConfigError::Netlist(e.to_string()))?;
    let clk = lookup(&map, clock)?;
    let done = lookup(&map, "done")?;
    let (state_names, transition_total) = attach_control_table(
        &mut sim,
        &map,
        control,
        clk,
        stop_when_done,
        coverage.clone(),
    )?;

    Ok(ConfigSim {
        sim,
        mems: map.mems,
        done,
        clk,
        clock_period: 10,
        state_names,
        transition_total,
        fsm_coverage: coverage,
    })
}

fn lookup(map: &ElabMap, name: &str) -> Result<SignalId, ElaborateConfigError> {
    map.signal(name)
        .map_err(|e| ElaborateConfigError::Fsm(e.to_string()))
}

/// Converts a name-based FSM description into an index-based
/// [`FsmTable`], returning the table plus the condition and output signal
/// names in table order. Both the event-driven path and the cycle-based
/// baseline build their control units from this.
///
/// # Errors
///
/// Returns [`ElaborateConfigError::Fsm`] for dangling state references or
/// inconsistent tables.
#[allow(clippy::type_complexity)] // (table, condition names, output names)
pub fn fsm_to_table(
    fsm: &Fsm,
) -> Result<(FsmTable, Vec<String>, Vec<(String, u32)>), ElaborateConfigError> {
    // Order states with the initial state first (the kernel's FsmTable
    // starts in state 0), preserving relative order otherwise.
    let initial_index = fsm
        .states
        .iter()
        .position(|s| s.name == fsm.initial)
        .ok_or_else(|| {
            ElaborateConfigError::Fsm(format!("initial state '{}' missing", fsm.initial))
        })?;
    let mut order: Vec<usize> = (0..fsm.states.len()).collect();
    order.swap(0, initial_index);
    let index_of: HashMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(new, &old)| (fsm.states[old].name.as_str(), new))
        .collect();

    let output_index: HashMap<&str, usize> = fsm
        .outputs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    let cond_index: HashMap<&str, usize> = fsm
        .inputs
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();

    let mut states = Vec::with_capacity(fsm.states.len());
    for &old in &order {
        let desc = &fsm.states[old];
        let mut outputs = Vec::with_capacity(desc.asserts.len());
        for (signal, value) in &desc.asserts {
            let index = *output_index.get(signal.as_str()).ok_or_else(|| {
                ElaborateConfigError::Fsm(format!(
                    "state '{}' asserts undeclared output '{}'",
                    desc.name, signal
                ))
            })?;
            outputs.push((index, *value));
        }
        let mut transitions = Vec::with_capacity(desc.transitions.len());
        for t in &desc.transitions {
            let target = *index_of.get(t.target.as_str()).ok_or_else(|| {
                ElaborateConfigError::Fsm(format!(
                    "state '{}' transitions to missing state '{}'",
                    desc.name, t.target
                ))
            })?;
            let condition = match &t.cond {
                None => None,
                Some((signal, when)) => {
                    let index = *cond_index.get(signal.as_str()).ok_or_else(|| {
                        ElaborateConfigError::Fsm(format!(
                            "state '{}' tests undeclared condition '{}'",
                            desc.name, signal
                        ))
                    })?;
                    Some((index, *when))
                }
            };
            transitions.push(FsmTransition { condition, target });
        }
        states.push(FsmState {
            name: desc.name.clone(),
            outputs,
            transitions,
            terminal: desc.terminal,
        });
    }

    let table = FsmTable::new(states, fsm.inputs.len(), fsm.outputs.len())
        .map_err(|e| ElaborateConfigError::Fsm(e.to_string()))?;
    Ok((table, fsm.inputs.clone(), fsm.outputs.clone()))
}

/// Builds the control table for `fsm`, binds its signals in `map`, and
/// registers the [`ControlUnit`] with the simulator.
///
/// # Errors
///
/// Returns [`ElaborateConfigError::Fsm`] for dangling signal or state
/// references.
pub fn attach_control_unit(
    sim: &mut Simulator,
    map: &ElabMap,
    fsm: &Fsm,
    clk: SignalId,
) -> Result<(), ElaborateConfigError> {
    attach_control_unit_with(sim, map, fsm, clk, true)
}

/// [`attach_control_unit`] with control over the stop-on-done behaviour.
///
/// # Errors
///
/// As for [`attach_control_unit`].
pub fn attach_control_unit_with(
    sim: &mut Simulator,
    map: &ElabMap,
    fsm: &Fsm,
    clk: SignalId,
    stop_when_done: bool,
) -> Result<(), ElaborateConfigError> {
    attach_control_unit_cov(sim, map, fsm, clk, stop_when_done, None).map(|_| ())
}

/// [`attach_control_unit_with`] plus an optional coverage handle; returns
/// the state names in table order and the total transition count, which
/// coverage reports need to compute "visited / total" ratios.
///
/// # Errors
///
/// As for [`attach_control_unit`].
pub fn attach_control_unit_cov(
    sim: &mut Simulator,
    map: &ElabMap,
    fsm: &Fsm,
    clk: SignalId,
    stop_when_done: bool,
    coverage: Option<FsmCoverageHandle>,
) -> Result<(Vec<String>, usize), ElaborateConfigError> {
    let control = ControlTable::from_fsm(fsm)?;
    attach_control_table(sim, map, &control, clk, stop_when_done, coverage)
}

/// A control unit converted to its index-based table once, with the
/// signal names it binds: what every engine's control unit is built from.
pub(crate) struct ControlTable {
    /// The FSM's name (the control unit's component name).
    pub(crate) name: String,
    /// The transition table, initial state first.
    pub(crate) table: FsmTable,
    /// Condition signal names in table order.
    pub(crate) conditions: Vec<String>,
    /// `(output signal name, width)` pairs in table order.
    pub(crate) outputs: Vec<(String, u32)>,
}

impl ControlTable {
    /// Converts `fsm` with [`fsm_to_table`].
    ///
    /// # Errors
    ///
    /// As for [`fsm_to_table`].
    pub(crate) fn from_fsm(fsm: &Fsm) -> Result<Self, ElaborateConfigError> {
        let (table, conditions, outputs) = fsm_to_table(fsm)?;
        Ok(ControlTable {
            name: fsm.name.clone(),
            table,
            conditions,
            outputs,
        })
    }
}

/// Binds `control`'s signals in `map` and registers its [`ControlUnit`];
/// returns the state names in table order and the transition count.
fn attach_control_table(
    sim: &mut Simulator,
    map: &ElabMap,
    control: &ControlTable,
    clk: SignalId,
    stop_when_done: bool,
    coverage: Option<FsmCoverageHandle>,
) -> Result<(Vec<String>, usize), ElaborateConfigError> {
    let table = &control.table;
    let state_names: Vec<String> = table.states().iter().map(|s| s.name.clone()).collect();
    let transition_total: usize = table.states().iter().map(|s| s.transitions.len()).sum();
    let mut conditions = Vec::with_capacity(control.conditions.len());
    for name in &control.conditions {
        conditions.push(lookup(map, name)?);
    }
    let mut outputs = Vec::with_capacity(control.outputs.len());
    let mut widths = Vec::with_capacity(control.outputs.len());
    for (name, width) in &control.outputs {
        outputs.push(lookup(map, name)?);
        widths.push(*width);
    }

    let mut unit = ControlUnit::new(
        control.name.clone(),
        clk,
        conditions,
        outputs,
        widths,
        table.clone(),
    )
    .with_stop_when_done(stop_when_done);
    if let Some(handle) = coverage {
        unit = unit.with_coverage(handle);
    }
    sim.add_component(unit);
    Ok((state_names, transition_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::{RunOutcome, SimTime};
    use nenya::{compile, CompileOptions};

    fn elaborate_source(src: &str) -> ConfigSim {
        let design = compile("t", src, &CompileOptions::default()).unwrap();
        let config = &design.configs[0];
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        elaborate_config(&dp_doc, &fsm_doc).unwrap()
    }

    #[test]
    fn trivial_design_runs_to_done() {
        let mut cs = elaborate_source("mem out[4]; void main() { out[1] = 42; }");
        let summary = cs.sim.run(SimTime(100_000)).unwrap();
        assert!(
            matches!(summary.outcome, RunOutcome::Stopped(ref m) if m.contains("done")),
            "{:?}",
            summary.outcome
        );
        assert_eq!(cs.mems["out"].load(1), Some(42));
        assert!(cs.sim.value(cs.done).is_true());
    }

    #[test]
    fn loop_design_computes_squares() {
        let mut cs = elaborate_source(
            "mem out[8]; void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = i * i; } }",
        );
        let summary = cs.sim.run(SimTime(1_000_000)).unwrap();
        assert!(summary.outcome.is_ok());
        let got: Vec<Option<i64>> = cs.mems["out"].snapshot();
        assert_eq!(
            got,
            (0..8).map(|i| Some(i * i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hds_stylesheet_output_parses() {
        let design = compile(
            "t",
            "mem out[4]; void main() { out[0] = 1; }",
            &CompileOptions::default(),
        )
        .unwrap();
        let dp_doc = nenya::xml::emit_datapath(&design.configs[0].datapath);
        let hds = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root()).unwrap();
        assert!(hds.contains("hds t"));
        assert!(eventsim::hds::parse(&hds).is_ok());
    }

    #[test]
    fn broken_fsm_reference_is_reported() {
        let design = compile("t", "mem out[4]; void main() { out[0] = 1; }", &CompileOptions::default())
            .unwrap();
        let config = &design.configs[0];
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let mut fsm = config.fsm.clone();
        fsm.outputs.push(("phantom_signal".to_string(), 1));
        let fsm_doc = nenya::xml::emit_fsm(&fsm);
        let err = match elaborate_config(&dp_doc, &fsm_doc) {
            Ok(_) => panic!("expected elaboration to fail"),
            Err(e) => e,
        };
        assert!(matches!(err, ElaborateConfigError::Fsm(_)), "{err}");
    }

    #[test]
    fn fsm_table_reorders_initial_state_first() {
        use nenya::fsm::{Fsm, FsmStateDesc, FsmTransitionDesc};
        // Initial state declared *last*: conversion must still start there.
        let fsm = Fsm {
            name: "ctrl".into(),
            inputs: vec![],
            outputs: vec![("o".into(), 8)],
            initial: "start".into(),
            states: vec![
                FsmStateDesc {
                    name: "end".into(),
                    asserts: vec![("o".into(), 9)],
                    transitions: vec![],
                    terminal: true,
                },
                FsmStateDesc {
                    name: "start".into(),
                    asserts: vec![("o".into(), 5)],
                    transitions: vec![FsmTransitionDesc {
                        cond: None,
                        target: "end".into(),
                    }],
                    terminal: false,
                },
            ],
        };
        let (table, conds, outs) = fsm_to_table(&fsm).unwrap();
        assert!(conds.is_empty());
        assert_eq!(outs, vec![("o".to_string(), 8)]);
        assert_eq!(table.states()[0].name, "start");
        assert_eq!(table.states()[0].outputs, vec![(0, 5)]);
        assert_eq!(table.states()[0].transitions[0].target, 1);
        assert!(table.states()[1].terminal);
    }

    #[test]
    fn conditional_design_follows_data() {
        let mut cs = elaborate_source(
            "mem out[2]; void main() { int a = 3; if (a > 2) { out[0] = 1; } else { out[0] = 2; } }",
        );
        cs.sim.run(SimTime(100_000)).unwrap();
        assert_eq!(cs.mems["out"].load(0), Some(1));
    }
}
