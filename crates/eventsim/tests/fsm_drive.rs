//! Corner cases of the sparse Moore drive: the compiled engines rewrite
//! only the FSM outputs a transition can change, so anything else that
//! writes an FSM output slot must be reverted or honoured explicitly.
//!
//! The design accumulates every FSM output into a register each cycle
//! (`acc += o_a + o_b + o_c`) while a counter keeps the FSM holding its
//! first state, so a fault on an output shows up in the final `acc`.
//! `o_c` is listed by no state. The cycle, level and batch engines (lane
//! 0, and a single faulted lane among clean ones) must agree, and a
//! one-cycle flip must add its delta to `acc` exactly once.

use eventsim::batchsim::{BatchSim, LaneOutcome, LANES};
use eventsim::cyclesim::{CycleOutcome, CycleSim};
use eventsim::levelsim::LevelSim;
use eventsim::netlist::{Instance, Netlist};
use eventsim::ops::{FsmState, FsmTable, FsmTransition};

const WIDTH: u32 = 16;
const MAX_CYCLES: u64 = 100;
/// The cycle a flip lands on; the FSM holds its first state until the
/// counter reaches 6.
const FLIP_CYCLE: u64 = 3;
const SIGNALS: [&str; 4] = ["acc", "o_a", "o_b", "o_c"];

fn build_netlist() -> Netlist {
    let mut nl = Netlist::new("fsm_drive");
    for (name, width) in [
        ("clk", 1),
        ("rst", 1),
        ("one", WIDTH),
        ("six", WIDTH),
        ("cnt", WIDTH),
        ("cnt_next", WIDTH),
        ("go", 1),
        ("o_a", WIDTH),
        ("o_b", WIDTH),
        ("o_c", WIDTH),
        ("ab", WIDTH),
        ("mix", WIDTH),
        ("acc", WIDTH),
        ("acc_next", WIDTH),
    ] {
        nl.add_signal(name, width);
    }
    nl.add_instance(Instance::new("clock0", "clock").with_conn("y", "clk"));
    nl.add_instance(Instance::new("reset0", "reset").with_conn("y", "rst"));
    for (name, value, y) in [("c1", 1, "one"), ("c6", 6, "six")] {
        nl.add_instance(
            Instance::new(name, "const")
                .with_param("width", WIDTH)
                .with_param("value", value)
                .with_conn("y", y),
        );
    }
    let binop = |name: &str, kind: &str, a: &str, b: &str, y: &str| {
        Instance::new(name, kind)
            .with_param("width", WIDTH)
            .with_conn("a", a)
            .with_conn("b", b)
            .with_conn("y", y)
    };
    nl.add_instance(binop("inc", "add", "cnt", "one", "cnt_next"));
    nl.add_instance(binop("cmp", "ge", "cnt", "six", "go"));
    nl.add_instance(binop("add_ab", "add", "o_a", "o_b", "ab"));
    nl.add_instance(binop("add_c", "add", "ab", "o_c", "mix"));
    nl.add_instance(binop("add_acc", "add", "acc", "mix", "acc_next"));
    for (name, d, q) in [("cnt0", "cnt_next", "cnt"), ("acc0", "acc_next", "acc")] {
        nl.add_instance(
            Instance::new(name, "reg")
                .with_param("width", WIDTH)
                .with_conn("clk", "clk")
                .with_conn("d", d)
                .with_conn("q", q)
                .with_conn("rst", "rst"),
        );
    }
    nl
}

/// `init` waits out the reset cycle (the counter is X until then),
/// `hold` drives `o_a = 5` until `go`, `step` drives `o_b = 3`, `end`
/// drives `o_a = 1`. No state lists `o_c`.
fn control_table() -> FsmTable {
    let states = vec![
        FsmState {
            name: "init".to_string(),
            outputs: Vec::new(),
            transitions: vec![FsmTransition {
                condition: None,
                target: 1,
            }],
            terminal: false,
        },
        FsmState {
            name: "hold".to_string(),
            outputs: vec![(0, 5)],
            transitions: vec![
                FsmTransition {
                    condition: Some((0, true)),
                    target: 2,
                },
                FsmTransition {
                    condition: None,
                    target: 1,
                },
            ],
            terminal: false,
        },
        FsmState {
            name: "step".to_string(),
            outputs: vec![(1, 3)],
            transitions: vec![FsmTransition {
                condition: None,
                target: 3,
            }],
            terminal: false,
        },
        FsmState {
            name: "end".to_string(),
            outputs: vec![(0, 1)],
            terminal: true,
            ..Default::default()
        },
    ];
    FsmTable::new(states, 1, 3).expect("table validates")
}

const CONDITIONS: [&str; 1] = ["go"];
const OUTPUTS: [(&str, u32); 3] = [("o_a", WIDTH), ("o_b", WIDTH), ("o_c", WIDTH)];

#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    Stuck(&'static str, u32, bool),
    Flip(&'static str, u32),
}

/// What a run leaves behind: outcome, cycles, and the probed values.
#[derive(Debug, PartialEq)]
struct Run {
    done: bool,
    cycles: u64,
    values: Vec<Option<i64>>,
}

impl Run {
    fn acc(&self) -> i64 {
        self.values[0].expect("acc is known")
    }
}

/// The engine interface the sequential engines share.
trait Sequential {
    fn stuck(&mut self, signal: &str, bit: u32, value: bool) -> bool;
    fn flip(&mut self, signal: &str, bit: u32, cycle: u64) -> bool;
    fn run_to_end(&mut self) -> (bool, u64);
    fn read(&self, signal: &str) -> Option<i64>;
}

macro_rules! sequential {
    ($engine:ty) => {
        impl Sequential for $engine {
            fn stuck(&mut self, signal: &str, bit: u32, value: bool) -> bool {
                self.inject_stuck_at(signal, bit, value).expect("injects")
            }
            fn flip(&mut self, signal: &str, bit: u32, cycle: u64) -> bool {
                self.inject_transient_flip(signal, bit, cycle)
                    .expect("injects")
            }
            fn run_to_end(&mut self) -> (bool, u64) {
                let summary = self.run(MAX_CYCLES).expect("design runs");
                (summary.outcome == CycleOutcome::Done, summary.cycles)
            }
            fn read(&self, signal: &str) -> Option<i64> {
                self.value(signal).and_then(|v| v.try_i64())
            }
        }
    };
}
sequential!(LevelSim);
sequential!(CycleSim);

fn run_sequential(mut sim: impl Sequential, fault: Fault) -> Run {
    match fault {
        Fault::None => {}
        Fault::Stuck(signal, bit, value) => assert!(sim.stuck(signal, bit, value)),
        Fault::Flip(signal, bit) => assert!(sim.flip(signal, bit, FLIP_CYCLE)),
    }
    let (done, cycles) = sim.run_to_end();
    Run {
        done,
        cycles,
        values: SIGNALS.iter().map(|s| sim.read(s)).collect(),
    }
}

fn level(fault: Fault) -> Run {
    let mut sim = LevelSim::from_netlist(&build_netlist()).expect("builds");
    sim.add_control_unit("ctl", &CONDITIONS, &OUTPUTS, control_table())
        .expect("attaches");
    run_sequential(sim, fault)
}

fn cycle(fault: Fault) -> Run {
    let mut sim = CycleSim::from_netlist(&build_netlist()).expect("builds");
    sim.add_control_unit("ctl", &CONDITIONS, &OUTPUTS, control_table())
        .expect("attaches");
    run_sequential(sim, fault)
}

/// Runs the batch engine with `fault` on the lanes in `faulted` (every
/// lane for `!0`), returning one [`Run`] per lane.
fn batch(fault: Fault, faulted: u64) -> Vec<Run> {
    let mut sim = BatchSim::from_netlist(&build_netlist()).expect("builds");
    sim.add_control_unit("ctl", &CONDITIONS, &OUTPUTS, control_table())
        .expect("attaches");
    for lane in (0..LANES).filter(|l| faulted & (1u64 << l) != 0) {
        let injected = match fault {
            Fault::None => Ok(true),
            Fault::Stuck(signal, bit, value) => sim.inject_stuck_at_lane(signal, bit, value, lane),
            Fault::Flip(signal, bit) => {
                sim.inject_transient_flip_lane(signal, bit, FLIP_CYCLE, lane)
            }
        };
        assert!(injected.expect("injects"));
    }
    let summary = sim.run_batch(MAX_CYCLES);
    (0..LANES)
        .map(|lane| {
            let result = summary.lanes[lane].as_ref().expect("lane is active");
            Run {
                done: result.outcome == LaneOutcome::Done,
                cycles: result.cycles,
                values: SIGNALS
                    .iter()
                    .map(|s| sim.value_lane(s, lane).and_then(|v| v.try_i64()))
                    .collect(),
            }
        })
        .collect()
}

/// Runs `fault` on every engine, asserts they all agree with the level
/// engine (batch on every lane, then on lane 9 alone with the other
/// lanes clean), and returns the level run.
fn agree(fault: Fault) -> Run {
    let reference = level(fault);
    let clean = level(Fault::None);
    assert!(reference.done, "{fault:?}: the design finishes");
    assert_eq!(cycle(fault), reference, "{fault:?}: cycle engine diverges");
    for (lane, run) in batch(fault, !0).iter().enumerate() {
        assert_eq!(run, &reference, "{fault:?}: batch lane {lane} diverges");
    }
    let faulted_lane = 9;
    for (lane, run) in batch(fault, 1u64 << faulted_lane).iter().enumerate() {
        let want = if lane == faulted_lane {
            &reference
        } else {
            &clean
        };
        assert_eq!(
            run, want,
            "{fault:?}: lane-masked batch lane {lane} diverges"
        );
    }
    reference
}

#[test]
fn clean_run_drives_every_output_from_its_state() {
    let run = agree(Fault::None);
    // In `end`: o_a = 1, o_b back to 0, o_c never driven nonzero.
    assert_eq!(run.values[1..], [Some(1), Some(0), Some(0)]);
}

#[test]
fn flip_on_a_held_state_output_lasts_one_cycle() {
    let clean = level(Fault::None);
    // o_a = 5 in the holding state; flipping bit 1 makes it 7 for one
    // cycle, then the next edge re-drives it back to 5.
    let run = agree(Fault::Flip("o_a", 1));
    assert_eq!(
        run.acc(),
        clean.acc() + 2,
        "the flip is accumulated exactly once"
    );
    assert_eq!(run.values[1..], clean.values[1..]);
}

#[test]
fn flip_on_an_unlisted_output_lasts_one_cycle() {
    let clean = level(Fault::None);
    // No state lists o_c, so no transition would ever rewrite it: only
    // the full re-drive after the flip restores its 0.
    let run = agree(Fault::Flip("o_c", 2));
    assert_eq!(
        run.acc(),
        clean.acc() + 4,
        "the flip is accumulated exactly once"
    );
    assert_eq!(run.values[3], Some(0), "o_c reverts to 0");
}

#[test]
fn stuck_at_on_fsm_outputs_holds_across_transitions() {
    // o_a bit 1 stuck high: 5 -> 7 in `hold`, 0 -> 2 in `step`, 1 -> 3
    // in `end`; o_c bit 0 stuck high reads 1 although no state lists it.
    let run = agree(Fault::Stuck("o_a", 1, true));
    assert_eq!(run.values[1], Some(3));
    let run = agree(Fault::Stuck("o_c", 0, true));
    assert_eq!(run.values[3], Some(1));
    assert_ne!(run.acc(), level(Fault::None).acc());
}
