//! The event engine elaborates each configuration from the netlist and
//! control table the flow parsed once per design. These tests check that
//! this changes nothing: every run through `TestFlow::run` must match a
//! direct `elaborate_config(dp_doc, fsm_doc)` build, which translates and
//! parses a fresh `.hds` for every configuration. Kernel counters depend
//! on the order components are registered, so they are compared exactly.

use eventsim::{KernelStats, RunOutcome, SimTime};
use fpgatest::elaborate::{elaborate_config, elaborate_config_instrumented};
use fpgatest::faults::FaultSpec;
use fpgatest::flow::{ConfigCoverage, FlowError, FlowOptions, TestFlow, TestReport};
use fpgatest::stimulus::{MemImage, Stimulus};
use nenya::datapath::FU_KINDS;
use nenya::{compile, CompileOptions, Design};
use std::collections::BTreeMap;

/// How many entries the flow keeps in `ConfigRun::hot_components`.
const HOT: usize = 10;

struct Case {
    name: String,
    source: String,
    stimuli: Vec<(String, Stimulus)>,
    compile: CompileOptions,
}

/// What one configuration's run leaves behind, as the report states it.
#[derive(Debug, PartialEq)]
struct ConfigObserved {
    name: String,
    kernel: KernelStats,
    hot_components: Vec<(String, u64)>,
    cycles: u64,
    coverage: Option<ConfigCoverage>,
}

#[derive(Debug, PartialEq)]
enum Observed {
    Finished {
        configs: Vec<ConfigObserved>,
        mems: BTreeMap<String, MemImage>,
    },
    TimedOut,
}

fn suite_cases() -> Vec<Case> {
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/suite/suite.manifest"
    );
    let suite = fpgatest::suite::load_manifest(manifest).expect("example suite loads");
    suite
        .cases()
        .iter()
        .map(|case| Case {
            name: case.name.clone(),
            source: case.source.clone(),
            stimuli: case.stimuli.clone(),
            compile: case.options.compile.clone(),
        })
        .collect()
}

fn generated_cases() -> Vec<Case> {
    let budget = fpgafuzz::gen::Budget::default();
    (0..4u64)
        .map(|index| {
            let case = fpgafuzz::gen::generate_case(11, index, &budget).expect("generates");
            // The alternate variant: one-op-per-state and/or two
            // partitions, when the program has statements to split.
            let variants = fpgafuzz::exec::variants_for(index);
            let variant = &variants[1];
            let partitions = variant.partitions.min(case.program.body.stmts.len()).max(1);
            Case {
                name: format!("gen{index}"),
                source: case.source,
                stimuli: case
                    .stimuli
                    .iter()
                    .map(|(mem, values)| {
                        (mem.clone(), Stimulus::from_values(values.iter().copied()))
                    })
                    .collect(),
                compile: CompileOptions {
                    width: budget.width,
                    policy: variant.policy,
                    partitions,
                    optimize: index % 2 == 1,
                },
            }
        })
        .collect()
}

fn via_flow(case: &Case, options: &FlowOptions) -> Observed {
    let mut flow = TestFlow::new(&case.name, &case.source).with_options(options.clone());
    for (mem, stimulus) in &case.stimuli {
        flow = flow.stimulus(mem, stimulus.clone());
    }
    match flow.run() {
        Ok(report) => observed_from_report(&report),
        Err(FlowError::Timeout { .. }) => Observed::TimedOut,
        Err(e) => panic!("{}: flow error {e}", case.name),
    }
}

fn observed_from_report(report: &TestReport) -> Observed {
    Observed::Finished {
        configs: report
            .runs
            .iter()
            .map(|run| ConfigObserved {
                name: run.name.clone(),
                kernel: run.kernel,
                hot_components: run.hot_components.clone(),
                cycles: run.cycles,
                coverage: run.coverage.clone(),
            })
            .collect(),
        mems: report.sim_mems.clone(),
    }
}

/// The event-engine flow spelled out over `elaborate_config`: emit the
/// two XML documents of every configuration, elaborate them, preload the
/// memories, plant the faults as kernel components, run, and carry the
/// memories to the next configuration.
fn via_xml(case: &Case, design: &Design, options: &FlowOptions) -> Observed {
    let mut mems = design.blank_images();
    for (mem, stimulus) in &case.stimuli {
        stimulus
            .apply(mems.get_mut(mem).expect("stimulus memory"))
            .expect("stimulus fits");
    }
    let mut configs = Vec::new();
    for node in design.rtg.execution_order().expect("rtg orders") {
        let index = design
            .configs
            .iter()
            .position(|c| c.datapath.name == node.datapath)
            .expect("rtg names a configuration");
        let config = &design.configs[index];
        let dp_doc = nenya::xml::emit_datapath(&config.datapath);
        let fsm_doc = nenya::xml::emit_fsm(&config.fsm);
        let mut cs = if options.coverage {
            elaborate_config_instrumented(&dp_doc, &fsm_doc, true)
        } else {
            elaborate_config(&dp_doc, &fsm_doc)
        }
        .unwrap_or_else(|e| panic!("{}: elaborate: {e}", case.name));
        for (mem, handle) in &cs.mems {
            for (addr, word) in mems[mem].iter().enumerate() {
                if let Some(v) = word {
                    handle.store(addr, *v);
                }
            }
        }
        for (i, fault) in options.faults.iter().enumerate() {
            match fault {
                FaultSpec::StuckAt { signal, bit, value } => {
                    if let Some(id) = cs.sim.find_signal(signal) {
                        cs.sim.add_component(eventsim::faults::StuckAtClamp::new(
                            format!("fault{i}"),
                            id,
                            *bit,
                            *value,
                        ));
                    }
                }
                FaultSpec::BitFlip { signal, bit, cycle } => {
                    if let Some(id) = cs.sim.find_signal(signal) {
                        let edge = cs.clock_period / 2 + cycle * cs.clock_period;
                        cs.sim.add_component(eventsim::faults::TransientFlip::new(
                            format!("fault{i}"),
                            id,
                            *bit,
                            edge - 1,
                        ));
                    }
                }
                other => panic!("test plants no {other}"),
            }
        }
        let summary = cs.sim.run(SimTime(options.max_ticks)).expect("kernel runs");
        if summary.outcome == RunOutcome::TimeLimit {
            return Observed::TimedOut;
        }
        let coverage = cs.fsm_coverage.as_ref().map(|handle| {
            let fsm_cov = handle.snapshot();
            let kind_of: BTreeMap<&str, &str> = config
                .datapath
                .cells
                .iter()
                .filter(|c| FU_KINDS.contains(&c.kind.as_str()))
                .map(|c| (c.name.as_str(), c.kind.as_str()))
                .collect();
            let mut operator_activations: BTreeMap<String, u64> =
                kind_of.values().map(|kind| (kind.to_string(), 0)).collect();
            for (id, count) in cs.sim.hot_components(usize::MAX) {
                if let Some(kind) = kind_of.get(cs.sim.component_name(id)) {
                    *operator_activations.get_mut(*kind).expect("kind listed") += count;
                }
            }
            ConfigCoverage {
                visited_states: cs
                    .state_names
                    .iter()
                    .zip(&fsm_cov.state_visits)
                    .filter(|(_, visits)| **visits > 0)
                    .map(|(name, _)| name.clone())
                    .collect(),
                state_total: cs.state_names.len(),
                transitions_taken: fsm_cov.transitions_taken(),
                transition_total: cs.transition_total,
                operator_activations,
            }
        });
        configs.push(ConfigObserved {
            name: config.name.clone(),
            kernel: cs.sim.stats(),
            hot_components: cs
                .sim
                .hot_components(HOT)
                .into_iter()
                .map(|(id, count)| (cs.sim.component_name(id).to_string(), count))
                .collect(),
            cycles: summary.end_time.ticks() / cs.clock_period,
            coverage,
        });
        if !matches!(summary.outcome, RunOutcome::Stopped(_)) {
            // The flow stops at the first failing configuration and
            // reports the memories as they were before it.
            return Observed::Finished { configs, mems };
        }
        for (mem, handle) in &cs.mems {
            mems.insert(mem.clone(), handle.snapshot());
        }
    }
    Observed::Finished { configs, mems }
}

/// One stuck-at and one transient bit flip on datapath signals of the
/// first configuration, picked by position so every design gets some.
fn planted_faults(design: &Design) -> Vec<FaultSpec> {
    let signals: Vec<&str> = design.configs[0]
        .datapath
        .signals
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| *name != design.configs[0].datapath.clock && *name != "done")
        .collect();
    vec![
        FaultSpec::StuckAt {
            signal: signals[signals.len() / 3].to_string(),
            bit: 0,
            value: true,
        },
        FaultSpec::BitFlip {
            signal: signals[2 * signals.len() / 3].to_string(),
            bit: 0,
            cycle: 5,
        },
    ]
}

fn check(cases: &[Case]) {
    let mut perturbed = 0;
    for case in cases {
        let design = compile(&case.name, &case.source, &case.compile).expect("compiles");
        let base = FlowOptions {
            compile: case.compile.clone(),
            ..FlowOptions::default()
        };
        let clean = via_flow(case, &base);
        assert_eq!(
            clean,
            via_xml(case, &design, &base),
            "{}: plain run",
            case.name
        );
        let Observed::Finished { configs, .. } = &clean else {
            panic!("{}: the clean run timed out", case.name);
        };
        assert!(
            configs.iter().all(|c| c.kernel.events > 0),
            "{}: nothing ran",
            case.name
        );

        let covered = FlowOptions {
            coverage: true,
            ..base.clone()
        };
        let observed = via_flow(case, &covered);
        assert_eq!(
            observed,
            via_xml(case, &design, &covered),
            "{}: coverage run",
            case.name
        );
        let Observed::Finished { configs, .. } = &observed else {
            panic!("{}: the covered run timed out", case.name);
        };
        assert!(
            configs.iter().all(|c| c.coverage.is_some()),
            "{}: no coverage",
            case.name
        );

        // A fault can hang the control unit: bound the run well above
        // the clean one so a hang shows as a timeout on both sides.
        let clean_cycles: u64 = configs.iter().map(|c| c.cycles).sum();
        let faulted = FlowOptions {
            faults: planted_faults(&design),
            max_ticks: (clean_cycles + 100) * 40,
            ..base.clone()
        };
        let observed = via_flow(case, &faulted);
        assert_eq!(
            observed,
            via_xml(case, &design, &faulted),
            "{}: faulted run ({:?})",
            case.name,
            faulted.faults
        );
        if observed != clean {
            perturbed += 1;
        }
    }
    assert!(perturbed > 0, "no planted fault changed any run");
}

#[test]
fn example_suite_runs_match_a_direct_xml_elaboration() {
    check(&suite_cases());
}

#[test]
fn generated_programs_run_match_a_direct_xml_elaboration() {
    check(&generated_cases());
}
