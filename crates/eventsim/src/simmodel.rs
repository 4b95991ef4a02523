//! Flat signal/instance model shared by the compiled (non-event) engines.
//!
//! Both [`crate::cyclesim::CycleSim`] and [`crate::levelsim::LevelSim`]
//! interpret the same [`Netlist`](crate::netlist::Netlist) vocabulary as
//! [`Netlist::elaborate`](crate::netlist::Netlist::elaborate), but against a
//! dense in-memory model: every signal and memory name is interned into a
//! slot index at construction time, so the per-cycle paths touch only flat
//! `Vec`s. The `HashMap` name tables survive solely for the public
//! `value()`/`mem()` accessors and for build-time wiring.
//!
//! The engines differ only in how they *settle* combinational logic each
//! cycle (repeated sweeps vs. a levelized single pass); the model itself —
//! construction, combinational evaluation, and the rising-edge sample/commit
//! phase — lives here so the two engines cannot drift apart semantically.
//!
//! The edge commit is sparse where it matters most: a control unit's
//! Moore outputs (often well over a hundred control lines) are rewritten
//! only on a state change, and then only the outputs the old or the new
//! state lists — every other output drives 0 in both states. This relies
//! on the invariant that each FSM output slot holds the clamped value of
//! its current state; the edge checks it in debug builds. Only a transient
//! flip breaks it, so a cycle that applied a flip sets
//! [`FlatModel::fsm_full_drive`] and the next edge re-drives every output,
//! as registration and [`FlatModel::reset_state`] do.

use crate::cyclesim::CycleSimError;
use crate::memory::MemHandle;
use crate::netlist::{Instance, Netlist};
use crate::ops::{eval_binop, eval_unop, FsmTable, OpKind};
use crate::profile::StepPhase;
use crate::value::Value;
use std::collections::HashMap;

/// A combinational instance, with all ports resolved to value slots.
pub(crate) enum Comb {
    Bin {
        kind: OpKind,
        a: usize,
        b: usize,
        y: usize,
        width: u32,
        name: String,
    },
    Un {
        kind: OpKind,
        a: usize,
        y: usize,
        width: u32,
        name: String,
    },
    Mux {
        sel: usize,
        inputs: Vec<usize>,
        y: usize,
        width: u32,
        name: String,
    },
    /// SRAM asynchronous read path.
    SramRead {
        mem: usize,
        en: usize,
        we: usize,
        addr: usize,
        dout: usize,
        name: String,
    },
}

impl Comb {
    pub(crate) fn name(&self) -> &str {
        match self {
            Comb::Bin { name, .. }
            | Comb::Un { name, .. }
            | Comb::Mux { name, .. }
            | Comb::SramRead { name, .. } => name,
        }
    }

    /// The output slot this instance drives.
    pub(crate) fn y(&self) -> usize {
        match self {
            Comb::Bin { y, .. } | Comb::Un { y, .. } | Comb::Mux { y, .. } => *y,
            Comb::SramRead { dout, .. } => *dout,
        }
    }

    /// Appends every input slot (duplicates possible) to `out`.
    pub(crate) fn inputs(&self, out: &mut Vec<usize>) {
        match self {
            Comb::Bin { a, b, .. } => out.extend([*a, *b]),
            Comb::Un { a, .. } => out.push(*a),
            Comb::Mux { sel, inputs, .. } => {
                out.push(*sel);
                out.extend(inputs.iter().copied());
            }
            Comb::SramRead { en, we, addr, .. } => out.extend([*en, *we, *addr]),
        }
    }
}

pub(crate) struct RegModel {
    pub d: usize,
    pub q: usize,
    pub en: Option<usize>,
    pub rst: Option<usize>,
    pub width: u32,
}

pub(crate) struct SramModel {
    pub mem: usize,
    pub en: usize,
    pub we: usize,
    pub addr: usize,
    pub din: usize,
    pub name: String,
}

pub(crate) struct FsmModel {
    pub name: String,
    pub table: FsmTable,
    pub conditions: Vec<usize>,
    pub outputs: Vec<usize>,
    /// Dense Moore-output values per state: `state_values[state][i]` is
    /// what output `i` drives there (0 when the state leaves it
    /// unlisted), from [`FsmTable::output_rows`].
    pub state_values: Vec<Vec<Value>>,
    pub state: usize,
}

pub(crate) struct WatchModel {
    pub name: String,
    pub sig: usize,
    pub value: i64,
}

/// What a rising edge did, beyond mutating the model.
pub(crate) struct EdgeEffects {
    /// A control unit reached a terminal state.
    pub done: bool,
    /// First watchpoint whose value matched after the commit.
    pub watch: Option<String>,
}

/// The dense model both compiled engines execute against.
pub(crate) struct FlatModel {
    pub names: Vec<String>,
    pub values: Vec<Value>,
    pub combs: Vec<Comb>,
    pub regs: Vec<RegModel>,
    pub srams: Vec<SramModel>,
    pub fsms: Vec<FsmModel>,
    pub watches: Vec<WatchModel>,
    pub mems: Vec<MemHandle>,
    pub mem_names: HashMap<String, usize>,
    pub signal_index: HashMap<String, usize>,
    pub reset_signals: Vec<usize>,
    /// Per-slot stuck-at clamp masks `(and, or)`, applied at every value
    /// write site. Empty (the common case) means no faults are injected
    /// and the hot paths skip clamping entirely.
    pub fault_clamps: Vec<(u64, u64)>,
    /// Pending transient bit flips as `(cycle, slot, xor mask)` — applied
    /// by the sweep engine at the start of the matching cycle. Empty when
    /// no transient faults are injected.
    pub fault_flips: Vec<(u64, usize, u64)>,
    /// Set by an engine that applied a transient flip this cycle: the
    /// flip may have hit an FSM output, so the next edge re-drives every
    /// Moore output instead of only those a transition can change.
    pub fsm_full_drive: bool,
    /// Reused by [`FlatModel::commit_edge`] for the sampled
    /// `(register index, next value)` pairs, so the per-cycle hot path
    /// never allocates.
    reg_next: Vec<(usize, Value)>,
    /// Snapshot of `values` taken at the end of [`FlatModel::from_netlist`]
    /// (constants written, everything else X, no FSM outputs yet) so
    /// [`FlatModel::reset_state`] can rewind a cached model without a
    /// rebuild.
    initial_values: Vec<Value>,
}

impl FlatModel {
    /// Builds the flat model from a structural netlist.
    ///
    /// `clock` instances are absorbed into the cycle abstraction; `reset`
    /// instances assert during cycle 0 only (applied by the engines).
    pub(crate) fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        let mut model = FlatModel {
            names: Vec::new(),
            values: Vec::new(),
            combs: Vec::new(),
            regs: Vec::new(),
            srams: Vec::new(),
            fsms: Vec::new(),
            watches: Vec::new(),
            mems: Vec::new(),
            mem_names: HashMap::new(),
            signal_index: HashMap::new(),
            reset_signals: Vec::new(),
            fault_clamps: Vec::new(),
            fault_flips: Vec::new(),
            fsm_full_drive: false,
            reg_next: Vec::new(),
            initial_values: Vec::new(),
        };
        for decl in netlist.signals() {
            if model.signal_index.contains_key(&decl.name) {
                return Err(CycleSimError::Build(format!(
                    "duplicate signal '{}'",
                    decl.name
                )));
            }
            model
                .signal_index
                .insert(decl.name.clone(), model.values.len());
            model.names.push(decl.name.clone());
            model.values.push(Value::x(decl.width));
        }
        for inst in netlist.instances() {
            model.add_instance(inst)?;
        }
        model.initial_values = model.values.clone();
        Ok(model)
    }

    /// Rewinds the model to its just-built state so a cached instance can
    /// be re-run without rebuilding from the netlist: signal values return
    /// to their post-construction snapshot, control units rewind to their
    /// initial state (re-driving initial Moore outputs, as
    /// [`FlatModel::add_control_unit`] did at registration), memories are
    /// cleared back to X, and all injected faults are removed.
    pub(crate) fn reset_state(&mut self) {
        self.values.copy_from_slice(&self.initial_values);
        for mem in &self.mems {
            for addr in 0..mem.size() {
                mem.clear(addr);
            }
        }
        self.fault_clamps.clear();
        self.fault_flips.clear();
        self.fsm_full_drive = false;
        self.reg_next.clear();
        let mut scratch = Vec::new();
        for fsm in &mut self.fsms {
            fsm.state = 0;
            scratch.clear();
            let all = 0..fsm.outputs.len();
            drive_fsm_outputs(fsm, all, &mut self.values, &self.fault_clamps, &mut scratch);
        }
    }

    fn sig(&self, inst: &Instance, port: &str) -> Result<usize, CycleSimError> {
        let name = inst.conn(port).ok_or_else(|| {
            CycleSimError::Build(format!("instance '{}' misses port '{}'", inst.name, port))
        })?;
        self.signal_index
            .get(name)
            .copied()
            .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{name}'")))
    }

    fn param<T: std::str::FromStr>(
        inst: &Instance,
        key: &str,
        default: Option<T>,
    ) -> Result<T, CycleSimError> {
        match inst.param(key) {
            Some(raw) => raw.parse().map_err(|_| {
                CycleSimError::Build(format!(
                    "instance '{}': bad parameter '{}'='{}'",
                    inst.name, key, raw
                ))
            }),
            None => default.ok_or_else(|| {
                CycleSimError::Build(format!(
                    "instance '{}': missing parameter '{}'",
                    inst.name, key
                ))
            }),
        }
    }

    fn add_instance(&mut self, inst: &Instance) -> Result<(), CycleSimError> {
        if let Ok(kind) = inst.kind.parse::<OpKind>() {
            let width: u32 = Self::param(inst, "width", None)?;
            let y = self.sig(inst, "y")?;
            let a = self.sig(inst, "a")?;
            if kind.is_unary() {
                self.combs.push(Comb::Un {
                    kind,
                    a,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            } else {
                let b = self.sig(inst, "b")?;
                self.combs.push(Comb::Bin {
                    kind,
                    a,
                    b,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            }
            return Ok(());
        }
        match inst.kind.as_str() {
            "clock" => { /* absorbed by the cycle abstraction */ }
            "reset" => {
                let y = self.sig(inst, "y")?;
                self.reset_signals.push(y);
            }
            "const" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let value: i64 = Self::param(inst, "value", None)?;
                let y = self.sig(inst, "y")?;
                self.values[y] = Value::known(width, value);
            }
            "mux" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let n: usize = Self::param(inst, "inputs", None)?;
                let sel = self.sig(inst, "sel")?;
                let y = self.sig(inst, "y")?;
                let mut inputs = Vec::with_capacity(n);
                for i in 0..n {
                    inputs.push(self.sig(inst, &format!("i{i}"))?);
                }
                self.combs.push(Comb::Mux {
                    sel,
                    inputs,
                    y,
                    width,
                    name: inst.name.clone(),
                });
            }
            "reg" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let d = self.sig(inst, "d")?;
                let q = self.sig(inst, "q")?;
                let en = inst.conn("en").map(|_| self.sig(inst, "en")).transpose()?;
                let rst = inst.conn("rst").map(|_| self.sig(inst, "rst")).transpose()?;
                self.regs.push(RegModel {
                    d,
                    q,
                    en,
                    rst,
                    width,
                });
            }
            "counter" => {
                return Err(CycleSimError::Build(
                    "counter is not supported by the cycle engine".to_string(),
                ));
            }
            "sram" => {
                let width: u32 = Self::param(inst, "width", None)?;
                let size: usize = Self::param(inst, "size", None)?;
                let mem = MemHandle::new(&inst.name, size, width);
                let mem_index = self.mems.len();
                self.mems.push(mem);
                self.mem_names.insert(inst.name.clone(), mem_index);
                let en = self.sig(inst, "en")?;
                let we = self.sig(inst, "we")?;
                let addr = self.sig(inst, "addr")?;
                let din = self.sig(inst, "din")?;
                let dout = self.sig(inst, "dout")?;
                self.combs.push(Comb::SramRead {
                    mem: mem_index,
                    en,
                    we,
                    addr,
                    dout,
                    name: inst.name.clone(),
                });
                self.srams.push(SramModel {
                    mem: mem_index,
                    en,
                    we,
                    addr,
                    din,
                    name: inst.name.clone(),
                });
            }
            "watchpoint" => {
                let value: i64 = Self::param(inst, "value", None)?;
                let sig = self.sig(inst, "sig")?;
                self.watches.push(WatchModel {
                    name: inst.name.clone(),
                    sig,
                    value,
                });
            }
            other => {
                return Err(CycleSimError::Build(format!(
                    "instance '{}' has kind '{}' unsupported by the cycle engine",
                    inst.name, other
                )));
            }
        }
        Ok(())
    }

    /// Attaches a behavioral control unit (same table as
    /// [`crate::ops::ControlUnit`]). Initial-state outputs are driven
    /// immediately.
    pub(crate) fn add_control_unit(
        &mut self,
        name: String,
        conditions: &[&str],
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Result<(), CycleSimError> {
        if conditions.len() != table.condition_count() || outputs.len() != table.output_count() {
            return Err(CycleSimError::Build(format!(
                "control unit '{name}': signal count mismatch with table"
            )));
        }
        let mut cond_ids = Vec::new();
        for c in conditions {
            cond_ids.push(
                self.signal_index
                    .get(*c)
                    .copied()
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{c}'")))?,
            );
        }
        let mut out_ids = Vec::new();
        let mut out_widths = Vec::new();
        for (o, w) in outputs {
            out_ids.push(
                self.signal_index
                    .get(*o)
                    .copied()
                    .ok_or_else(|| CycleSimError::Build(format!("unknown signal '{o}'")))?,
            );
            out_widths.push(*w);
        }
        let state_values = table
            .output_rows()
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .zip(&out_widths)
                    .map(|(value, &width)| Value::known(width, value))
                    .collect()
            })
            .collect();
        let fsm = FsmModel {
            name,
            table,
            conditions: cond_ids,
            outputs: out_ids,
            state_values,
            state: 0,
        };
        let mut scratch = Vec::new();
        let all = 0..fsm.outputs.len();
        drive_fsm_outputs(&fsm, all, &mut self.values, &self.fault_clamps, &mut scratch);
        self.fsms.push(fsm);
        Ok(())
    }

    /// Content handle of an SRAM instance.
    pub(crate) fn mem(&self, name: &str) -> Option<&MemHandle> {
        self.mem_names.get(name).map(|&i| &self.mems[i])
    }

    /// Current value of a named signal.
    pub(crate) fn value(&self, name: &str) -> Option<Value> {
        self.signal_index.get(name).map(|&i| self.values[i])
    }

    /// The rising-edge sample/commit phase, shared verbatim by both engines:
    /// next-state values for registers are sampled from the settled netlist,
    /// SRAM writes commit, FSMs transition and drive their Moore outputs,
    /// and finally register outputs commit (non-blocking semantics).
    ///
    /// An FSM that holds its state writes nothing; one that moves rewrites
    /// only the outputs its old or new state lists (see the module docs),
    /// unless [`FlatModel::fsm_full_drive`] asks for a full re-drive.
    ///
    /// Every slot whose value actually changed is appended to `changed`, and
    /// the index (into `self.srams`) of every memory that committed a write
    /// is appended to `written_srams` — the level engine uses both to mark
    /// downstream combinational logic dirty; the sweep engine ignores them.
    ///
    /// With `reg_filter: Some(bits)` only the registers whose bit is set are
    /// sampled (the set is drained). A register none of whose inputs
    /// (`d`/`en`/`rst`) changed since its last sample would resample the
    /// same value and commit nothing, so skipping it is unobservable — the
    /// level engine maintains that dirty set; the sweep engine passes
    /// `None` and samples everything.
    ///
    /// `lap` is called at the end of each edge phase (register sample,
    /// SRAM, FSM, register commit and watch), so a profiling engine can
    /// charge the time to it; the unprofiled engines pass a no-op.
    pub(crate) fn commit_edge(
        &mut self,
        changed: &mut Vec<usize>,
        written_srams: &mut Vec<usize>,
        reg_filter: Option<&mut Vec<u64>>,
        mut lap: impl FnMut(StepPhase),
    ) -> Result<EdgeEffects, CycleSimError> {
        let mut reg_next = std::mem::take(&mut self.reg_next);
        reg_next.clear();
        match reg_filter {
            None => {
                for (index, reg) in self.regs.iter().enumerate() {
                    if let Some(v) = sample_reg(reg, &self.values) {
                        reg_next.push((index, v));
                    }
                }
            }
            Some(bits) => {
                for (word, bits) in bits.iter_mut().enumerate() {
                    while *bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        *bits &= !(1u64 << bit);
                        let index = word * 64 + bit;
                        if let Some(v) = sample_reg(&self.regs[index], &self.values) {
                            reg_next.push((index, v));
                        }
                    }
                }
            }
        }
        lap(StepPhase::RegSample);

        for (index, sram) in self.srams.iter().enumerate() {
            if self.values[sram.en].is_true() && self.values[sram.we].is_true() {
                let addr = self.values[sram.addr]
                    .try_u64()
                    .ok_or_else(|| CycleSimError::Failed(format!("{}: X address", sram.name)))?
                    as usize;
                let mem = &self.mems[sram.mem];
                if addr >= mem.size() {
                    return Err(CycleSimError::Failed(format!(
                        "{}: address {} out of range",
                        sram.name, addr
                    )));
                }
                let din = self.values[sram.din]
                    .try_i64()
                    .ok_or_else(|| CycleSimError::Failed(format!("{}: X write data", sram.name)))?;
                mem.store(addr, din);
                written_srams.push(index);
            }
        }
        lap(StepPhase::Sram);

        let full_drive = std::mem::take(&mut self.fsm_full_drive);
        let mut done = false;
        for i in 0..self.fsms.len() {
            let (next_state, failed) = {
                let fsm = &self.fsms[i];
                let current = &fsm.table.states()[fsm.state];
                if current.terminal {
                    (fsm.state, None)
                } else {
                    let mut next = fsm.state;
                    let mut failed = None;
                    for transition in &current.transitions {
                        match transition.condition {
                            None => {
                                next = transition.target;
                                break;
                            }
                            Some((index, expected)) => {
                                let v = self.values[fsm.conditions[index]];
                                if v.is_x() {
                                    failed = Some(format!(
                                        "{}: X condition in state '{}'",
                                        fsm.name, current.name
                                    ));
                                    break;
                                }
                                if v.is_true() == expected {
                                    next = transition.target;
                                    break;
                                }
                            }
                        }
                    }
                    (next, failed)
                }
            };
            if let Some(message) = failed {
                return Err(CycleSimError::Failed(message));
            }
            let prev_state = std::mem::replace(&mut self.fsms[i].state, next_state);
            let fsm = &self.fsms[i];
            let states = fsm.table.states();
            let (values, clamps) = (&mut self.values, &self.fault_clamps);
            if full_drive {
                drive_fsm_outputs(fsm, 0..fsm.outputs.len(), values, clamps, changed);
            } else if next_state != prev_state {
                let listed = states[prev_state].outputs.iter().chain(&states[next_state].outputs);
                drive_fsm_outputs(fsm, listed.map(|&(i, _)| i), values, clamps, changed);
            }
            if states[next_state].terminal {
                done = true;
            }
        }
        debug_assert!(self.fsm_outputs_hold_state(), "an FSM output slot lost its Moore value");
        lap(StepPhase::Fsm);

        for &(index, v) in &reg_next {
            let q = self.regs[index].q;
            let v = clamp_with(&self.fault_clamps, q, v);
            if self.values[q] != v {
                self.values[q] = v;
                changed.push(q);
            }
        }
        self.reg_next = reg_next;

        let watch = self.watches.iter().find_map(|watch| {
            (self.values[watch.sig].try_i64() == Some(watch.value)).then(|| watch.name.clone())
        });
        lap(StepPhase::RegCommitWatch);
        Ok(EdgeEffects { done, watch })
    }

    /// Whether every FSM output slot holds the clamped Moore value of its
    /// control unit's current state — the invariant the sparse drive in
    /// [`FlatModel::commit_edge`] relies on.
    fn fsm_outputs_hold_state(&self) -> bool {
        self.fsms.iter().all(|fsm| {
            fsm.outputs
                .iter()
                .zip(&fsm.state_values[fsm.state])
                .all(|(&slot, &value)| {
                    self.values[slot] == clamp_with(&self.fault_clamps, slot, value)
                })
        })
    }

    /// Registers a stuck-at fault on one bit of a named signal. Returns
    /// the affected slot, or `None` when the signal does not exist in
    /// this model (the fault may live in another configuration). The
    /// current value is clamped immediately so constants and
    /// already-driven FSM outputs — which are never re-evaluated — honor
    /// the fault too.
    pub(crate) fn inject_stuck(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
    ) -> Result<Option<usize>, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(None);
        };
        let width = self.values[slot].width();
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "stuck-at bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        if self.fault_clamps.is_empty() {
            self.fault_clamps = vec![(u64::MAX, 0); self.values.len()];
        }
        let mask = 1u64 << bit;
        if value {
            self.fault_clamps[slot].1 |= mask;
        } else {
            self.fault_clamps[slot].0 &= !mask;
        }
        self.values[slot] = clamp_with(&self.fault_clamps, slot, self.values[slot]);
        Ok(Some(slot))
    }

    /// Registers a transient single-bit flip on a named signal at a given
    /// clock cycle. Returns the affected slot, or `None` when the signal
    /// does not exist in this model. The engine decides when (and
    /// whether) to apply the pending flip — see the engine docs for the
    /// supported fault classes.
    pub(crate) fn inject_flip(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
    ) -> Result<Option<usize>, CycleSimError> {
        let Some(&slot) = self.signal_index.get(signal) else {
            return Ok(None);
        };
        let width = self.values[slot].width();
        if bit >= width {
            return Err(CycleSimError::Build(format!(
                "bit-flip bit {bit} out of range for signal '{signal}' (width {width})"
            )));
        }
        self.fault_flips.push((cycle, slot, 1u64 << bit));
        Ok(Some(slot))
    }

    /// Applies the stuck-at clamp for `slot` to a value about to be
    /// written there. No-op (and branch-free on the empty check) when no
    /// faults are injected.
    #[inline]
    pub(crate) fn clamp_value(&self, slot: usize, value: Value) -> Value {
        clamp_with(&self.fault_clamps, slot, value)
    }

    /// Renders `(instance name, output value)` pairs for a set of
    /// combinational instances — the actionable part of a
    /// [`CycleSimError::NoFixpoint`] report, also reused for the level
    /// engine's combinational-cycle report.
    pub(crate) fn describe_combs(&self, indices: &[usize]) -> Vec<(String, String)> {
        indices
            .iter()
            .map(|&i| {
                let comb = &self.combs[i];
                (
                    comb.name().to_string(),
                    format!("{} = {}", self.names[comb.y()], self.values[comb.y()]),
                )
            })
            .collect()
    }
}

/// Samples one register's next value from the settled netlist: reset wins,
/// then the enable gate; `None` means the register holds its value.
#[inline]
fn sample_reg(reg: &RegModel, values: &[Value]) -> Option<Value> {
    if let Some(rst) = reg.rst {
        if values[rst].is_true() {
            return Some(Value::known(reg.width, 0));
        }
    }
    let enabled = match reg.en {
        Some(en) => values[en].is_true(),
        None => true,
    };
    enabled.then(|| values[reg.d].resize(reg.width))
}

/// Applies the stuck-at clamp for `slot` from a raw clamp table. Whole-
/// value X passes through unchanged (the fault policy forces known bits
/// only once the signal resolves); an empty table means no faults.
#[inline]
pub(crate) fn clamp_with(clamps: &[(u64, u64)], slot: usize, value: Value) -> Value {
    if clamps.is_empty() {
        return value;
    }
    let (and, or) = clamps[slot];
    match value.try_u64() {
        Some(bits) => {
            let clamped = (bits & and) | or;
            if clamped == bits {
                value
            } else {
                Value::known(value.width(), clamped as i64)
            }
        }
        None => value,
    }
}

/// Drives the listed Moore outputs (`outputs` are output indices, repeats
/// allowed) of `fsm`'s current state, appending every slot whose value
/// actually changed to `changed`. Output values pass through the stuck-at
/// `clamps` table (empty when no faults are injected).
fn drive_fsm_outputs(
    fsm: &FsmModel,
    outputs: impl Iterator<Item = usize>,
    values: &mut [Value],
    clamps: &[(u64, u64)],
    changed: &mut Vec<usize>,
) {
    let state_values = &fsm.state_values[fsm.state];
    for i in outputs {
        let (signal, value) = (fsm.outputs[i], state_values[i]);
        let value = clamp_with(clamps, signal, value);
        if values[signal] != value {
            values[signal] = value;
            changed.push(signal);
        }
    }
}

/// Evaluates one combinational instance against the current values,
/// returning `(output slot, new value)` without writing it back.
pub(crate) fn eval_comb(
    comb: &Comb,
    values: &[Value],
    mems: &[MemHandle],
) -> Result<(usize, Value), CycleSimError> {
    match comb {
        Comb::Bin {
            kind,
            a,
            b,
            y,
            width,
            name,
        } => {
            let out_width = if kind.is_comparison() { 1 } else { *width };
            let out = match (values[*a].try_i64(), values[*b].try_i64()) {
                (Some(a), Some(b)) => eval_binop(*kind, a, b, *width)
                    .map_err(|m| CycleSimError::Failed(format!("{name}: {m}")))?,
                _ => Value::x(out_width),
            };
            Ok((*y, out))
        }
        Comb::Un {
            kind,
            a,
            y,
            width,
            name,
        } => {
            let out = match values[*a].try_i64() {
                Some(a) => eval_unop(*kind, a, *width)
                    .map_err(|m| CycleSimError::Failed(format!("{name}: {m}")))?,
                None => Value::x(*width),
            };
            Ok((*y, out))
        }
        Comb::Mux {
            sel,
            inputs,
            y,
            width,
            ..
        } => {
            let out = match values[*sel].try_u64() {
                Some(s) => match inputs.get(s as usize) {
                    Some(&i) => values[i].resize(*width),
                    None => Value::x(*width),
                },
                None => Value::x(*width),
            };
            Ok((*y, out))
        }
        Comb::SramRead {
            mem,
            en,
            we,
            addr,
            dout,
            ..
        } => {
            let m = &mems[*mem];
            let width = m.width();
            if !values[*en].is_true() || values[*we].is_true() {
                // dout undefined while disabled; during writes it follows
                // the committed word only after the edge, so leave X within
                // the cycle (registers never sample it mid-write in
                // generated designs).
                return Ok((*dout, Value::x(width)));
            }
            // Bad addresses on the (combinational) read path yield X, as
            // in the event kernel; only committing writes fail.
            let out = match values[*addr].try_u64() {
                Some(a) if (a as usize) < m.size() => match m.load(a as usize) {
                    Some(v) => Value::known(width, v),
                    None => Value::x(width),
                },
                _ => Value::x(width),
            };
            Ok((*dout, out))
        }
    }
}
