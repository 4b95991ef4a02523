//! The levelized compiled-schedule engine.
//!
//! Where [`crate::cyclesim::CycleSim`] re-sweeps every combinational
//! instance until fixpoint (paying `sweeps × instances` evaluations per
//! cycle), this engine compiles the netlist once at build time:
//!
//! 1. **Levelization** — combinational instances are topologically ranked
//!    (Kahn's algorithm over the comb-to-comb dependency edges), so rank
//!    *r* instances depend only on sequential outputs, constants, and ranks
//!    `< r`. A true combinational cycle is detected here and reported as
//!    [`CycleSimError::CombinationalCycle`] naming one concrete loop,
//!    instead of burning a 1000-sweep budget at runtime.
//! 2. **Slot interning** — the shared [`crate::simmodel::FlatModel`] already
//!    interns every signal/memory name into dense indices; this engine adds
//!    a CSR fanout table (value slot → dependent schedule positions), so the
//!    cycle path touches only flat `Vec`s.
//! 3. **Dirty scheduling** — a rank-ordered dirty bitset over schedule
//!    positions. Evaluating a comb can only dirty *later* positions
//!    (strictly higher ranks), so one ascending pass over the bitset
//!    evaluates every dirty instance exactly once per clock phase and
//!    skips quiescent regions entirely.
//!
//! After the settle pass, registers, memories, and FSMs commit in the single
//! sample phase shared with the sweep engine ([`FlatModel::commit_edge`]),
//! and every slot the commit changed (plus the read path of every written
//! SRAM) re-seeds the dirty set for the next cycle. The commit is sparse on
//! both sides: only registers whose inputs changed are resampled, and a
//! control unit rewrites only the Moore outputs its old or new state lists,
//! and none while it holds its state (see [`crate::simmodel`]). A cycle
//! that applies a transient flip asks the next edge for a full re-drive,
//! which reverts a flipped FSM output.
//!
//! [`LevelSim::enable_profile`] times every step in [`StepPhase`]s (flips
//! and reset, settle, register sample, SRAM, FSM, register commit and
//! watch, re-mark) on top of the per-rank settle counters.

use crate::cyclesim::{CycleOutcome, CycleSimError, CycleSummary};
use crate::memory::MemHandle;
use crate::netlist::Netlist;
use crate::ops::FsmTable;
use crate::profile::{lap, PhaseTimes, StepPhase};
use crate::simmodel::{eval_comb, FlatModel};
use crate::value::Value;
use std::collections::HashMap;
use std::time::Instant;

/// One row of [`LevelSim::rank_table`]: an instance, its rank, and the
/// combinational producers it reads (with their ranks).
#[derive(Debug, Clone)]
pub struct RankEntry {
    /// Instance name.
    pub instance: String,
    /// Evaluation rank (0 = fed only by sequential/constant slots).
    pub rank: usize,
    /// `(producer instance, producer rank)` for every combinational
    /// instance whose output this one reads.
    pub sources: Vec<(String, usize)>,
}

/// The levelized engine. See the [module docs](self).
pub struct LevelSim {
    model: FlatModel,
    /// Comb indices in (rank, instance) order — the compiled schedule.
    order: Vec<u32>,
    /// Rank of each comb, indexed by comb index.
    ranks: Vec<u32>,
    /// Number of distinct ranks.
    rank_count: usize,
    /// CSR: value slot -> positions (into `order`) of combs reading it.
    fanout_starts: Vec<u32>,
    fanout: Vec<u32>,
    /// Schedule position of each SRAM's read comb, indexed like
    /// `model.srams`: a committed write dirties the read path even though
    /// no signal changed.
    sram_read_pos: Vec<u32>,
    /// Schedule position of the comb driving each value slot
    /// (`u32::MAX` for sequential/constant slots with no comb producer).
    /// A transient flip re-dirties the producer so the settle recomputes
    /// it away, matching the cycle sweeper's fixpoint semantics.
    producer_pos: Vec<u32>,
    /// Dirty bitset over schedule positions.
    dirty: Vec<u64>,
    dirty_count: usize,
    /// CSR: value slot -> registers reading it (`d`/`en`/`rst`).
    reg_fanout_starts: Vec<u32>,
    reg_fanout: Vec<u32>,
    /// Dirty bitset over registers — only these are sampled on the edge
    /// (see [`FlatModel::commit_edge`]'s `reg_filter`).
    reg_dirty: Vec<u64>,
    cycles: u64,
    comb_evals: u64,
    changed_scratch: Vec<usize>,
    sram_scratch: Vec<usize>,
    /// Opt-in step-phase and per-rank settle profiling. `None` (the
    /// default) keeps the hot loops untouched: the only cost is one
    /// `is_some` branch per phase boundary.
    profile: Option<Box<LevelProfile>>,
}

/// Step-phase timing, per-rank settle timing and dirty-bitset
/// effectiveness, collected when [`LevelSim::enable_profile`] was called.
#[derive(Debug, Clone, Default)]
pub struct LevelProfile {
    /// Time per step phase; the phases tile every step.
    pub phases: PhaseTimes,
    /// Settle passes executed (one per clock cycle, plus the initial
    /// full evaluation).
    pub settles: u64,
    /// Number of schedule positions in each rank.
    pub rank_sizes: Vec<u64>,
    /// Accumulated per-rank counters, indexed by rank.
    pub ranks: Vec<RankProfile>,
}

/// One rank's accumulated profile counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankProfile {
    /// Dirty positions of this rank actually evaluated.
    pub evals: u64,
    /// Evaluations whose output value changed.
    pub changes: u64,
    /// Monotonic nanoseconds spent evaluating this rank.
    pub nanos: u64,
}

impl LevelProfile {
    /// Fraction of rank `rank`'s positions the dirty bitset actually
    /// evaluated, across all settles — 1.0 means no savings over
    /// evaluate-everything, small values mean the bitset is doing its
    /// job.
    pub fn hit_rate(&self, rank: usize) -> f64 {
        let visited = self.ranks.get(rank).map_or(0, |row| row.evals);
        let possible = self.rank_sizes.get(rank).copied().unwrap_or(0) * self.settles;
        if possible == 0 {
            0.0
        } else {
            visited as f64 / possible as f64
        }
    }
}

impl LevelSim {
    /// Builds and levelizes a compiled-schedule model from a structural
    /// netlist. Supports exactly the vocabulary of
    /// [`CycleSim::from_netlist`](crate::cyclesim::CycleSim::from_netlist).
    ///
    /// # Errors
    ///
    /// [`CycleSimError::Build`] for unsupported constructs, and
    /// [`CycleSimError::CombinationalCycle`] when the combinational netlist
    /// is not a DAG (the error names one concrete loop).
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, CycleSimError> {
        let model = FlatModel::from_netlist(netlist)?;
        let n = model.combs.len();

        // Producers per value slot (combinational drivers only).
        let mut producers: Vec<Vec<u32>> = vec![Vec::new(); model.values.len()];
        for (i, comb) in model.combs.iter().enumerate() {
            producers[comb.y()].push(i as u32);
        }

        // comb -> combs reading its output, and per-comb in-degree.
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indegree: Vec<u32> = vec![0; n];
        let mut input_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut scratch = Vec::new();
        for (i, comb) in model.combs.iter().enumerate() {
            scratch.clear();
            comb.inputs(&mut scratch);
            scratch.sort_unstable();
            scratch.dedup();
            input_slots[i] = scratch.clone();
            for &slot in &scratch {
                for &p in &producers[slot] {
                    adjacency[p as usize].push(i as u32);
                    indegree[i] += 1;
                }
            }
        }

        // Kahn's algorithm; rank = longest path from a sequential source.
        let mut ranks: Vec<u32> = vec![0; n];
        let mut processed: Vec<bool> = vec![false; n];
        let mut worklist: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        let mut head = 0;
        while head < worklist.len() {
            let p = worklist[head] as usize;
            head += 1;
            processed[p] = true;
            for &c in &adjacency[p] {
                let c = c as usize;
                ranks[c] = ranks[c].max(ranks[p] + 1);
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    worklist.push(c as u32);
                }
            }
        }
        if head < n {
            return Err(CycleSimError::CombinationalCycle {
                instances: extract_cycle(&model, &input_slots, &producers, &processed),
            });
        }

        // Stable (rank, index) schedule via counting sort.
        let rank_count = ranks.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        let mut rank_starts = vec![0u32; rank_count + 1];
        for &r in &ranks {
            rank_starts[r as usize + 1] += 1;
        }
        for r in 0..rank_count {
            rank_starts[r + 1] += rank_starts[r];
        }
        let mut cursor = rank_starts.clone();
        let mut order = vec![0u32; n];
        let mut pos_of = vec![0u32; n];
        for i in 0..n {
            let slot = &mut cursor[ranks[i] as usize];
            order[*slot as usize] = i as u32;
            pos_of[i] = *slot;
            *slot += 1;
        }

        // CSR fanout: value slot -> schedule positions reading it.
        let mut fanout_starts = vec![0u32; model.values.len() + 1];
        for slots in &input_slots {
            for &s in slots {
                fanout_starts[s + 1] += 1;
            }
        }
        for s in 0..model.values.len() {
            fanout_starts[s + 1] += fanout_starts[s];
        }
        let mut fill = fanout_starts.clone();
        let mut fanout = vec![0u32; fanout_starts[model.values.len()] as usize];
        for (i, slots) in input_slots.iter().enumerate() {
            for &s in slots {
                fanout[fill[s] as usize] = pos_of[i];
                fill[s] += 1;
            }
        }

        let mut producer_pos = vec![u32::MAX; model.values.len()];
        for (i, comb) in model.combs.iter().enumerate() {
            producer_pos[comb.y()] = pos_of[i];
        }

        let sram_read_pos = model
            .srams
            .iter()
            .map(|sram| {
                let comb = model
                    .combs
                    .iter()
                    .position(|c| matches!(c, crate::simmodel::Comb::SramRead { mem, .. } if *mem == sram.mem))
                    .expect("every sram has a read comb");
                pos_of[comb]
            })
            .collect();

        // CSR: value slot -> register indices sampling it, mirroring the
        // comb fanout so an edge only resamples registers whose inputs
        // (`d`/`en`/`rst`) actually changed.
        let mut reg_inputs: Vec<Vec<usize>> = Vec::with_capacity(model.regs.len());
        for reg in &model.regs {
            let mut slots = vec![reg.d];
            slots.extend(reg.en);
            slots.extend(reg.rst);
            slots.sort_unstable();
            slots.dedup();
            reg_inputs.push(slots);
        }
        let mut reg_fanout_starts = vec![0u32; model.values.len() + 1];
        for slots in &reg_inputs {
            for &s in slots {
                reg_fanout_starts[s + 1] += 1;
            }
        }
        for s in 0..model.values.len() {
            reg_fanout_starts[s + 1] += reg_fanout_starts[s];
        }
        let mut fill = reg_fanout_starts.clone();
        let mut reg_fanout = vec![0u32; reg_fanout_starts[model.values.len()] as usize];
        for (i, slots) in reg_inputs.iter().enumerate() {
            for &s in slots {
                reg_fanout[fill[s] as usize] = i as u32;
                fill[s] += 1;
            }
        }

        let words = n.div_ceil(64);
        let reg_words = model.regs.len().div_ceil(64);
        let reg_count = model.regs.len();
        let mut sim = LevelSim {
            model,
            order,
            ranks,
            rank_count,
            fanout_starts,
            fanout,
            sram_read_pos,
            producer_pos,
            dirty: vec![0u64; words],
            dirty_count: 0,
            reg_fanout_starts,
            reg_fanout,
            reg_dirty: vec![0u64; reg_words],
            cycles: 0,
            comb_evals: 0,
            changed_scratch: Vec::new(),
            sram_scratch: Vec::new(),
            profile: None,
        };
        // First settle evaluates everything once, in rank order, and the
        // first edge samples every register.
        for pos in 0..n {
            sim.mark_pos(pos);
        }
        for reg in 0..reg_count {
            sim.reg_dirty[reg / 64] |= 1u64 << (reg % 64);
        }
        Ok(sim)
    }

    /// Attaches a behavioral control unit (same table as
    /// [`crate::ops::ControlUnit`]).
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when a referenced signal does not
    /// exist or counts disagree with the table.
    pub fn add_control_unit(
        &mut self,
        name: impl Into<String>,
        conditions: &[&str],
        outputs: &[(&str, u32)],
        table: FsmTable,
    ) -> Result<(), CycleSimError> {
        self.model
            .add_control_unit(name.into(), conditions, outputs, table)?;
        // Initial-state outputs were just driven; dirty their readers.
        let fsm = self.model.fsms.last().expect("just pushed");
        let outs: Vec<usize> = fsm.outputs.clone();
        for slot in outs {
            self.mark_slot(slot);
        }
        Ok(())
    }

    /// Content handle of an SRAM instance.
    pub fn mem(&self, name: &str) -> Option<&MemHandle> {
        self.model.mem(name)
    }

    /// Current value of a named signal.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.model.value(name)
    }

    /// Injects a stuck-at fault on one bit of a named signal: every write
    /// to the signal is clamped, so the bit holds `value` for the rest of
    /// the run. Returns `false` (without injecting) when the signal does
    /// not exist in this model. The clamped slot's readers are marked
    /// dirty so the incremental schedule re-evaluates them.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range for
    /// the signal's width.
    pub fn inject_stuck_at(
        &mut self,
        signal: &str,
        bit: u32,
        value: bool,
    ) -> Result<bool, CycleSimError> {
        match self.model.inject_stuck(signal, bit, value)? {
            Some(slot) => {
                self.mark_slot(slot);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Schedules a one-cycle transient flip: at the start of the walk
    /// whose cycle number matches, the bit is XORed into the slot's
    /// value before the reset drive and the settle — the same timing as
    /// [`CycleSim`](crate::cyclesim::CycleSim). The flipped slot's
    /// producer (when comb-driven) and readers are re-dirtied so the
    /// incremental settle reaches the exact fixpoint the full sweep
    /// would: comb-driven flips are recomputed away, flips on
    /// sequential outputs (register `q`, FSM outputs, constants)
    /// persist for that one walk and propagate.
    ///
    /// Returns `false` when no such signal exists in this model.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Build`] when `bit` is out of range for
    /// the signal's width.
    pub fn inject_transient_flip(
        &mut self,
        signal: &str,
        bit: u32,
        cycle: u64,
    ) -> Result<bool, CycleSimError> {
        Ok(self.model.inject_flip(signal, bit, cycle)?.is_some())
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of levelization ranks in the compiled schedule.
    pub fn rank_count(&self) -> usize {
        self.rank_count
    }

    /// Combinational evaluations performed so far.
    pub fn comb_evals(&self) -> u64 {
        self.comb_evals
    }

    /// The levelization result, for inspection and property tests: every
    /// combinational instance with its rank and its combinational sources.
    pub fn rank_table(&self) -> Vec<RankEntry> {
        let mut producer_of: HashMap<usize, usize> = HashMap::new();
        for (i, comb) in self.model.combs.iter().enumerate() {
            producer_of.insert(comb.y(), i);
        }
        let mut scratch = Vec::new();
        self.model
            .combs
            .iter()
            .enumerate()
            .map(|(i, comb)| {
                scratch.clear();
                comb.inputs(&mut scratch);
                scratch.sort_unstable();
                scratch.dedup();
                let sources = scratch
                    .iter()
                    .filter_map(|slot| producer_of.get(slot))
                    .map(|&p| {
                        (
                            self.model.combs[p].name().to_string(),
                            self.ranks[p] as usize,
                        )
                    })
                    .collect();
                RankEntry {
                    instance: comb.name().to_string(),
                    rank: self.ranks[i] as usize,
                    sources,
                }
            })
            .collect()
    }

    #[inline]
    fn mark_pos(&mut self, pos: usize) {
        let word = pos / 64;
        let bit = 1u64 << (pos % 64);
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.dirty_count += 1;
        }
    }

    /// Marks everything that reads `slot` dirty: dependent combinational
    /// schedule positions and registers sampling it on the next edge.
    #[inline]
    fn mark_slot(&mut self, slot: usize) {
        let (lo, hi) = (
            self.fanout_starts[slot] as usize,
            self.fanout_starts[slot + 1] as usize,
        );
        for f in lo..hi {
            self.mark_pos(self.fanout[f] as usize);
        }
        let (lo, hi) = (
            self.reg_fanout_starts[slot] as usize,
            self.reg_fanout_starts[slot + 1] as usize,
        );
        for f in lo..hi {
            let reg = self.reg_fanout[f] as usize;
            self.reg_dirty[reg / 64] |= 1u64 << (reg % 64);
        }
    }

    /// Turns on step-phase and per-rank settle profiling. Profiling only
    /// observes: cycle and evaluation counters, values, and outcomes are
    /// bit-identical with it on or off.
    pub fn enable_profile(&mut self) {
        let mut rank_sizes = vec![0u64; self.rank_count];
        for &comb in &self.order {
            rank_sizes[self.ranks[comb as usize] as usize] += 1;
        }
        self.profile = Some(Box::new(LevelProfile {
            phases: PhaseTimes::default(),
            settles: 0,
            rank_sizes,
            ranks: vec![RankProfile::default(); self.rank_count],
        }));
    }

    /// The accumulated profile, when [`enable_profile`](Self::enable_profile)
    /// was called.
    pub fn profile(&self) -> Option<&LevelProfile> {
        self.profile.as_deref()
    }

    /// Decomposes the engine into the flat model and the compiled rank
    /// schedule (comb indices in evaluation order). The batch engine
    /// flattens both into its lane-parallel bytecode instead of walking
    /// the CSR tables.
    pub(crate) fn into_parts(self) -> (FlatModel, Vec<u32>) {
        (self.model, self.order)
    }

    /// Rewinds a built (and control-unit-attached) simulator to its
    /// pre-first-step state so it can be re-run without rebuilding: signal
    /// values, FSM states, memories, counters, and injected faults all
    /// reset, and the dirty bitsets are re-seeded exactly as
    /// [`LevelSim::from_netlist`] left them (everything dirty, so the
    /// first settle re-evaluates the whole schedule and the first edge
    /// samples every register). Attached control units stay attached. A
    /// reset simulator is bit-identical to a freshly built one — see the
    /// `reset_reuse` tests.
    pub fn reset_state(&mut self) {
        self.model.reset_state();
        self.dirty.iter_mut().for_each(|w| *w = 0);
        self.dirty_count = 0;
        let n = self.order.len();
        for pos in 0..n {
            self.mark_pos(pos);
        }
        self.reg_dirty.iter_mut().for_each(|w| *w = 0);
        for reg in 0..self.model.regs.len() {
            self.reg_dirty[reg / 64] |= 1u64 << (reg % 64);
        }
        self.cycles = 0;
        self.comb_evals = 0;
        self.changed_scratch.clear();
        self.sram_scratch.clear();
        if self.profile.is_some() {
            self.enable_profile();
        }
    }

    /// Charges a step-phase boundary when profiling is on.
    #[inline]
    fn lap(&mut self, phase: StepPhase) {
        lap(self.profile.as_deref_mut().map(|p| &mut p.phases), phase);
    }

    /// One ascending pass over the dirty bitset. Evaluating a position can
    /// only dirty strictly later positions (higher ranks), so each dirty
    /// comb is evaluated exactly once and the set is empty on return.
    fn settle(&mut self) -> Result<(), CycleSimError> {
        if self.profile.is_some() {
            return self.settle_profiled();
        }
        if self.dirty_count == 0 {
            return Ok(());
        }
        for word in 0..self.dirty.len() {
            // Re-fetch each iteration: evals may set higher bits in this
            // same word, and those must be visited in this pass too.
            while self.dirty[word] != 0 {
                let bit = self.dirty[word].trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << bit);
                self.dirty_count -= 1;
                let pos = word * 64 + bit;
                let comb_index = self.order[pos] as usize;
                self.comb_evals += 1;
                let (y, value) = eval_comb(
                    &self.model.combs[comb_index],
                    &self.model.values,
                    &self.model.mems,
                )?;
                let value = self.model.clamp_value(y, value);
                if self.model.values[y] != value {
                    self.model.values[y] = value;
                    self.mark_slot(y);
                }
            }
        }
        debug_assert_eq!(self.dirty_count, 0);
        Ok(())
    }

    /// The profiling twin of [`settle`](Self::settle): the same pass,
    /// additionally timing each evaluation into its rank's counters.
    /// Kept separate so the unprofiled hot loop carries no timing code.
    fn settle_profiled(&mut self) -> Result<(), CycleSimError> {
        let mut profile = self.profile.take().expect("profiling enabled");
        profile.settles += 1;
        let result = (|| {
            if self.dirty_count == 0 {
                return Ok(());
            }
            for word in 0..self.dirty.len() {
                // Re-fetch each iteration: evals may set higher bits in
                // this same word, and those must be visited in this pass.
                while self.dirty[word] != 0 {
                    let bit = self.dirty[word].trailing_zeros() as usize;
                    self.dirty[word] &= !(1u64 << bit);
                    self.dirty_count -= 1;
                    let pos = word * 64 + bit;
                    let comb_index = self.order[pos] as usize;
                    let rank = self.ranks[comb_index] as usize;
                    self.comb_evals += 1;
                    let eval_started = Instant::now();
                    let (y, value) = eval_comb(
                        &self.model.combs[comb_index],
                        &self.model.values,
                        &self.model.mems,
                    )?;
                    let value = self.model.clamp_value(y, value);
                    let changed = self.model.values[y] != value;
                    if changed {
                        self.model.values[y] = value;
                        self.mark_slot(y);
                    }
                    let row = &mut profile.ranks[rank];
                    row.evals += 1;
                    row.nanos += eval_started.elapsed().as_nanos() as u64;
                    if changed {
                        row.changes += 1;
                    }
                }
            }
            debug_assert_eq!(self.dirty_count, 0);
            Ok(())
        })();
        self.profile = Some(profile);
        result
    }

    /// Executes one clock cycle: settle (one levelized pass), then commit
    /// every sequential element on the implicit rising edge.
    ///
    /// Returns `Ok(None)` while running, or the terminating outcome.
    ///
    /// # Errors
    ///
    /// Propagates design failures ([`CycleSimError::Failed`]).
    pub fn step(&mut self) -> Result<Option<CycleOutcome>, CycleSimError> {
        if let Some(profile) = self.profile.as_mut() {
            profile.phases.begin();
        }
        // Transient fault flips scheduled for this cycle apply before
        // the reset drive and the settle, with the cycle sweeper's
        // timing. Re-dirtying the producer position makes the settle
        // erase comb-driven flips (the sweeper's fixpoint does this
        // implicitly); re-dirtying the readers propagates surviving
        // flips on sequential outputs, and the next edge re-drives every
        // FSM output so a flipped one reverts.
        if !self.model.fault_flips.is_empty() {
            for i in 0..self.model.fault_flips.len() {
                let (cycle, slot, mask) = self.model.fault_flips[i];
                if cycle == self.cycles {
                    let v = self.model.values[slot];
                    if let Some(bits) = v.try_u64() {
                        self.model.values[slot] =
                            Value::known(v.width(), (bits ^ mask) as i64);
                        let producer = self.producer_pos[slot];
                        if producer != u32::MAX {
                            self.mark_pos(producer as usize);
                        }
                        self.mark_slot(slot);
                        self.model.fsm_full_drive = true;
                    }
                }
            }
        }

        // Reset generators assert during cycle 0.
        let reset_active = self.cycles == 0;
        for i in 0..self.model.reset_signals.len() {
            let y = self.model.reset_signals[i];
            let v = self.model.clamp_value(y, Value::bit(reset_active));
            if self.model.values[y] != v {
                self.model.values[y] = v;
                self.mark_slot(y);
            }
        }
        self.lap(StepPhase::FlipsReset);

        self.settle()?;
        self.lap(StepPhase::Settle);

        self.changed_scratch.clear();
        self.sram_scratch.clear();
        let profile = &mut self.profile;
        let effects = self.model.commit_edge(
            &mut self.changed_scratch,
            &mut self.sram_scratch,
            Some(&mut self.reg_dirty),
            |phase| lap(profile.as_deref_mut().map(|p| &mut p.phases), phase),
        )?;

        // Everything the edge changed re-seeds the dirty set.
        let changed = std::mem::take(&mut self.changed_scratch);
        for &slot in &changed {
            self.mark_slot(slot);
        }
        self.changed_scratch = changed;
        let written = std::mem::take(&mut self.sram_scratch);
        for &sram in &written {
            self.mark_pos(self.sram_read_pos[sram] as usize);
        }
        self.sram_scratch = written;

        self.cycles += 1;
        self.lap(StepPhase::Remark);

        if let Some(name) = effects.watch {
            return Ok(Some(CycleOutcome::Watchpoint(name)));
        }
        if effects.done {
            return Ok(Some(CycleOutcome::Done));
        }
        Ok(None)
    }

    /// Runs until a control unit finishes, a watchpoint matches, or
    /// `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Propagates [`CycleSimError`] from [`step`](Self::step).
    pub fn run(&mut self, max_cycles: u64) -> Result<CycleSummary, CycleSimError> {
        let start_cycles = self.cycles;
        let start_evals = self.comb_evals;
        let outcome = loop {
            if self.cycles - start_cycles >= max_cycles {
                break Ok(CycleOutcome::CycleLimit);
            }
            match self.step() {
                Ok(None) => {}
                Ok(Some(outcome)) => break Ok(outcome),
                Err(e) => break Err(e),
            }
        };
        if let Some(p) = self.profile.as_mut() {
            p.phases.stop();
        }
        let outcome = outcome?;
        Ok(CycleSummary {
            outcome,
            cycles: self.cycles - start_cycles,
            comb_evals: self.comb_evals - start_evals,
        })
    }
}

/// Walks producer edges backward among unprocessed (cycle-involved) combs
/// until a node repeats, returning one concrete loop in dependency order.
fn extract_cycle(
    model: &FlatModel,
    input_slots: &[Vec<usize>],
    producers: &[Vec<u32>],
    processed: &[bool],
) -> Vec<String> {
    let start = (0..processed.len())
        .find(|&i| !processed[i])
        .expect("caller guarantees an unprocessed comb");
    let mut path: Vec<usize> = Vec::new();
    let mut pos_in_path: HashMap<usize, usize> = HashMap::new();
    let mut cur = start;
    loop {
        if let Some(&at) = pos_in_path.get(&cur) {
            // path[at..] walked backward along dependencies; reverse it so
            // the report reads source -> sink.
            let mut cycle: Vec<String> = path[at..]
                .iter()
                .map(|&i| model.combs[i].name().to_string())
                .collect();
            cycle.reverse();
            return cycle;
        }
        pos_in_path.insert(cur, path.len());
        path.push(cur);
        cur = input_slots[cur]
            .iter()
            .flat_map(|&slot| producers[slot].iter().copied())
            .map(|p| p as usize)
            .find(|&p| !processed[p])
            .expect("unprocessed combs always have an unprocessed producer");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclesim::CycleSim;
    use crate::netlist::{Instance, Netlist};
    use crate::ops::{FsmState, FsmTransition};

    fn pipeline_netlist() -> Netlist {
        let mut nl = Netlist::new("pipe");
        nl.add_signal("clk", 1);
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("sum", 8);
        nl.add_signal("q1", 8);
        nl.add_signal("q2", 8);
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 3).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("cb", "const")
                .with_param("width", 8).with_param("value", 4).with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("add0", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "b").with_conn("y", "sum"),
        );
        nl.add_instance(
            Instance::new("r1", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "sum").with_conn("q", "q1"),
        );
        nl.add_instance(
            Instance::new("r2", "reg").with_param("width", 8)
                .with_conn("clk", "clk").with_conn("d", "q1").with_conn("q", "q2"),
        );
        nl
    }

    #[test]
    fn matches_cycle_sim_on_a_pipeline() {
        let nl = pipeline_netlist();
        let mut level = LevelSim::from_netlist(&nl).unwrap();
        let mut cycle = CycleSim::from_netlist(&nl).unwrap();
        for _ in 0..4 {
            level.step().unwrap();
            cycle.step().unwrap();
            for sig in ["sum", "q1", "q2"] {
                assert_eq!(level.value(sig), cycle.value(sig), "signal {sig}");
            }
        }
        assert_eq!(level.value("q2").unwrap().as_u64(), 7);
    }

    #[test]
    fn quiescent_netlist_skips_evaluation() {
        let nl = pipeline_netlist();
        let mut level = LevelSim::from_netlist(&nl).unwrap();
        level.step().unwrap();
        let after_first = level.comb_evals();
        for _ in 0..10 {
            level.step().unwrap();
        }
        // Constants never change, so the adder settles after the first
        // cycle and is never re-evaluated.
        assert_eq!(level.comb_evals(), after_first, "quiescent region skipped");
    }

    #[test]
    fn ranks_respect_dependencies() {
        let mut nl = Netlist::new("chain");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("c", 8);
        nl.add_signal("d", 8);
        nl.add_instance(
            Instance::new("ca", "const")
                .with_param("width", 8).with_param("value", 1).with_conn("y", "a"),
        );
        nl.add_instance(
            Instance::new("inc1", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "a").with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("inc2", "add").with_param("width", 8)
                .with_conn("a", "b").with_conn("b", "a").with_conn("y", "c"),
        );
        nl.add_instance(
            Instance::new("inc3", "add").with_param("width", 8)
                .with_conn("a", "c").with_conn("b", "b").with_conn("y", "d"),
        );
        let level = LevelSim::from_netlist(&nl).unwrap();
        assert_eq!(level.rank_count(), 3);
        for entry in level.rank_table() {
            for (source, source_rank) in &entry.sources {
                assert!(
                    entry.rank > *source_rank,
                    "{} (rank {}) must outrank source {} (rank {})",
                    entry.instance, entry.rank, source, source_rank
                );
            }
        }
    }

    #[test]
    fn combinational_cycle_reported_at_build_time() {
        // a -> inc -> b -> dec -> a: a true combinational loop.
        let mut nl = Netlist::new("loopy");
        nl.add_signal("a", 8);
        nl.add_signal("b", 8);
        nl.add_signal("one", 8);
        nl.add_instance(
            Instance::new("c1", "const")
                .with_param("width", 8).with_param("value", 1).with_conn("y", "one"),
        );
        nl.add_instance(
            Instance::new("inc", "add").with_param("width", 8)
                .with_conn("a", "a").with_conn("b", "one").with_conn("y", "b"),
        );
        nl.add_instance(
            Instance::new("dec", "sub").with_param("width", 8)
                .with_conn("a", "b").with_conn("b", "one").with_conn("y", "a"),
        );
        match LevelSim::from_netlist(&nl).map(|_| ()) {
            Err(CycleSimError::CombinationalCycle { instances }) => {
                assert_eq!(instances.len(), 2);
                assert!(instances.contains(&"inc".to_string()));
                assert!(instances.contains(&"dec".to_string()));
            }
            other => panic!("expected CombinationalCycle, got {other:?}"),
        }
    }

    #[test]
    fn fsm_and_watchpoint_semantics_match_cycle_sim() {
        let mut nl = Netlist::new("f");
        nl.add_signal("ctl", 8);
        let table = || {
            FsmTable::new(
                vec![
                    FsmState {
                        name: "s0".into(),
                        outputs: vec![(0, 5)],
                        transitions: vec![FsmTransition { condition: None, target: 1 }],
                        terminal: false,
                    },
                    FsmState { name: "end".into(), terminal: true, ..Default::default() },
                ],
                0,
                1,
            )
            .unwrap()
        };
        let mut level = LevelSim::from_netlist(&nl).unwrap();
        level.add_control_unit("fsm0", &[], &[("ctl", 8)], table()).unwrap();
        let mut cycle = CycleSim::from_netlist(&nl).unwrap();
        cycle.add_control_unit("fsm0", &[], &[("ctl", 8)], table()).unwrap();
        let l = level.run(100).unwrap();
        let c = cycle.run(100).unwrap();
        assert_eq!(l.outcome, c.outcome);
        assert_eq!(l.cycles, c.cycles);
        assert_eq!(level.value("ctl"), cycle.value("ctl"));
    }

    #[test]
    fn sram_write_redirties_read_path() {
        // Writes at a fixed address must show up on dout once we is
        // deasserted — even though no *signal* feeding the read changed
        // while the memory contents did.
        let mut nl = Netlist::new("m");
        for (sig, w) in [
            ("clk", 1), ("en", 1), ("we", 1), ("addr", 8), ("din", 8), ("dout", 8),
        ] {
            nl.add_signal(sig, w);
        }
        nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
        nl.add_instance(
            Instance::new("m0", "sram")
                .with_param("width", 8).with_param("size", 4)
                .with_conn("clk", "clk").with_conn("en", "en").with_conn("we", "we")
                .with_conn("addr", "addr").with_conn("din", "din").with_conn("dout", "dout"),
        );
        // en/we/addr/din come from an FSM so we can change phases.
        let table = FsmTable::new(
            vec![
                FsmState {
                    name: "write".into(),
                    outputs: vec![(0, 1), (1, 1), (2, 2), (3, 0x55)],
                    transitions: vec![FsmTransition { condition: None, target: 1 }],
                    terminal: false,
                },
                FsmState {
                    name: "read".into(),
                    outputs: vec![(0, 1), (1, 0), (2, 2), (3, 0)],
                    transitions: vec![FsmTransition { condition: None, target: 2 }],
                    terminal: false,
                },
                FsmState { name: "end".into(), terminal: true, ..Default::default() },
            ],
            0,
            4,
        )
        .unwrap();
        let mut level = LevelSim::from_netlist(&nl).unwrap();
        level
            .add_control_unit(
                "ctl0",
                &[],
                &[("en", 1), ("we", 1), ("addr", 8), ("din", 8)],
                table,
            )
            .unwrap();
        level.step().unwrap(); // write commits 0x55 @ 2, FSM moves to "read"
        assert_eq!(level.mem("m0").unwrap().load(2), Some(0x55));
        level.step().unwrap(); // read phase settles with we = 0
        assert_eq!(level.value("dout").unwrap().as_u64(), 0x55);
    }
}
