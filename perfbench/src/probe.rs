//! The transform split: calls the public pieces that `prepare_design`
//! strings together, one by one on the same design, so the traced run can
//! say which of them the transform stage's time goes to. It also builds
//! the level engine for each configuration and runs the design once on it.

use crate::trace::Tracer;
use crate::Run;
use fpgatest::flow::{prepare_design, Engine, FlowOptions};
use fpgatest::stimulus::Stimulus;
use nenya::CompileOptions;
use std::time::Instant;

/// One design to probe: its source, compile options and one stimulus set.
pub struct ProbeDesign {
    pub name: String,
    pub source: String,
    pub compile: CompileOptions,
    pub stimuli: Vec<(String, Stimulus)>,
}

/// The transform pieces whose sum `flow.prepare_covered_frac` compares
/// with `flow.prepare`.
const PIECES: &[&str] = &[
    "xml.emit",
    "xml.pretty",
    "xform.hds",
    "xform.behav",
    "xform.dot",
    "hds.parse",
    "elaborate.fsm_table",
];

/// What a probe over a set of designs measured.
pub struct Probe {
    tracer: Tracer,
    designs: usize,
    operators: f64,
    fsm_states: f64,
    xml_lines: f64,
    level_cycles: f64,
    level_evals: f64,
    level_sim_seconds: f64,
    instructions: f64,
}

fn stylesheet_err(e: impl std::fmt::Display) -> String {
    format!("stylesheet: {e}")
}

/// Probes every design `reps` times.
pub fn probe(designs: &[ProbeDesign], reps: usize) -> Result<Probe, String> {
    let mut out = Probe {
        tracer: Tracer::new(Instant::now()),
        designs: 0,
        operators: 0.0,
        fsm_states: 0.0,
        xml_lines: 0.0,
        level_cycles: 0.0,
        level_evals: 0.0,
        level_sim_seconds: 0.0,
        instructions: 0.0,
    };
    let mut t = Tracer::new(Instant::now());
    let level = FlowOptions {
        engine: Engine::Level,
        ..FlowOptions::default()
    };
    for _ in 0..reps {
        for (i, d) in designs.iter().enumerate() {
            let case = i as u64;
            let root = t.begin("probe", case);
            let program = t
                .time("lang.parse", case, || nenya::lang::parse(&d.source))
                .map_err(|e| format!("{}: parse: {e}", d.name))?;
            let design = t
                .time("nenya.compile", case, || {
                    nenya::compile_program(&d.name, &program, &d.compile)
                })
                .map_err(|e| format!("{}: compile: {e}", d.name))?;
            let prepared = t
                .time("flow.prepare", case, || prepare_design(design.clone()))
                .map_err(|e| format!("{}: prepare: {e}", d.name))?;

            t.time("xml.emit", case, || nenya::xml::emit_rtg(&design.rtg));
            for config in &design.configs {
                let (dp, fsm_doc) = t.time("xml.emit", case, || {
                    (
                        nenya::xml::emit_datapath(&config.datapath),
                        nenya::xml::emit_fsm(&config.fsm),
                    )
                });
                let lines = t.time("xml.pretty", case, || {
                    std::hint::black_box(dp.to_pretty_string());
                    std::hint::black_box(fsm_doc.to_pretty_string());
                    xmlite::loc(&dp) + xmlite::loc(&fsm_doc)
                });
                out.xml_lines += lines as f64;
                let hds = t
                    .time("xform.hds", case, || {
                        xform::apply(&xform::stylesheets::datapath_to_hds(), dp.root())
                    })
                    .map_err(stylesheet_err)?;
                t.time("xform.behav", case, || {
                    xform::apply(&xform::stylesheets::fsm_to_behavior(), fsm_doc.root())
                })
                .map_err(stylesheet_err)?;
                t.time("xform.dot", case, || {
                    xform::apply(&xform::stylesheets::datapath_to_dot(), dp.root()).and_then(|_| {
                        xform::apply(&xform::stylesheets::fsm_to_dot(), fsm_doc.root())
                    })
                })
                .map_err(stylesheet_err)?;
                let netlist = t
                    .time("hds.parse", case, || eventsim::hds::parse(&hds))
                    .map_err(|e| format!("hds: {e}"))?;
                t.time("elaborate.fsm_table", case, || {
                    nenya::xml::parse_fsm(&fsm_doc)
                        .map_err(|e| format!("fsm dialect: {e}"))
                        .and_then(|fsm| {
                            fpgatest::elaborate::fsm_to_table(&fsm)
                                .map_err(|e| format!("fsm table: {e}"))
                        })
                })?;
                t.time("levelsim.build", case, || netlist.compile_levelized())
                    .map_err(|e| format!("levelize: {e}"))?;
                out.operators += config.datapath.operator_count() as f64;
                out.fsm_states += config.fsm.state_count() as f64;
            }

            let golden = t
                .time("interp.golden", case, || {
                    prepared.prepare_golden(&d.stimuli, &level)
                })
                .map_err(|e| format!("{}: golden: {e}", d.name))?;
            let report = t
                .time("flow.simulate", case, || {
                    prepared.run_with_golden(&golden, &level)
                })
                .map_err(|e| format!("{}: level run: {e}", d.name))?;
            if !report.passed {
                return Err(format!("{}: level run does not pass", d.name));
            }
            out.instructions += report.golden.instructions as f64;
            for run in &report.runs {
                out.level_cycles += run.cycles as f64;
                out.level_evals += run.kernel.evals as f64;
                out.level_sim_seconds += run.summary.wall_seconds;
            }
            t.end(root);
            out.designs += 1;
        }
    }
    out.tracer = t;
    Ok(out)
}

impl Probe {
    fn per_design(&self, total: f64) -> f64 {
        total / self.designs.max(1) as f64
    }

    /// Mean milliseconds per design of the spans named `name`.
    fn ms(&self, name: &str) -> f64 {
        self.per_design(self.tracer.total_ms(name))
    }

    /// Puts the transform split into `run`: the XML, stylesheet and parse
    /// pieces, the covered share of `flow.prepare`, and the level-engine
    /// build time.
    pub fn set_transform_split(&self, run: &mut Run) {
        run.set("xml.emit_ms", self.ms("xml.emit"));
        run.set("xml.pretty_ms", self.ms("xml.pretty"));
        run.set("xml.lines", self.per_design(self.xml_lines));
        run.set("xform.hds_ms", self.ms("xform.hds"));
        run.set("xform.behav_ms", self.ms("xform.behav"));
        run.set("xform.dot_ms", self.ms("xform.dot"));
        run.set("hds.parse_ms", self.ms("hds.parse"));
        run.set("elaborate.fsm_table_ms", self.ms("elaborate.fsm_table"));
        run.set("levelsim.build_ms", self.ms("levelsim.build"));
        let pieces: f64 = PIECES.iter().map(|p| self.tracer.total_ms(p)).sum();
        let prepare = self.tracer.total_ms("flow.prepare");
        run.set(
            "flow.prepare_covered_frac",
            if prepare > 0.0 { pieces / prepare } else { 0.0 },
        );
    }

    /// Puts the front end and the transform total into `run`, for
    /// workloads whose timed loop does not compile.
    pub fn set_front_end(&self, run: &mut Run) {
        run.set("lang.parse_ms", self.ms("lang.parse"));
        run.set("nenya.compile_ms", self.ms("nenya.compile"));
        run.set("nenya.operators", self.per_design(self.operators));
        run.set("nenya.fsm_states", self.per_design(self.fsm_states));
        run.set("flow.prepare_ms", self.ms("flow.prepare"));
    }

    /// Puts the probe's golden run and level-engine simulation into `run`.
    pub fn set_level_run(&self, run: &mut Run) {
        run.set("interp.golden_ms", self.ms("interp.golden"));
        run.set("interp.instructions", self.per_design(self.instructions));
        run.set("flow.simulate_ms", self.ms("flow.simulate"));
        run.set("sim.cycles", self.per_design(self.level_cycles));
        self.set_level(run);
    }

    /// Puts the probe's level-engine figures into `run`.
    pub fn set_level(&self, run: &mut Run) {
        if self.level_cycles > 0.0 {
            run.set(
                "levelsim.ns_per_cycle",
                self.level_sim_seconds * 1e9 / self.level_cycles,
            );
        }
        run.set("levelsim.evals", self.per_design(self.level_evals));
    }

    /// Writes the probe's spans.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.tracer.write_jsonl(path)
    }
}
