//! `fdct-level`: the paper's Table I designs — FDCT1 and FDCT2 at 4,096
//! pixels, and the Hamming decoder — prepared once in set-up, then seeded
//! inputs simulated through `PreparedDesign::run` on the level engine.
//! The transform does no work here; simulation does almost all of it.

use crate::kernels::{Kernel, KernelInput, Kind};
use crate::probe::{probe, ProbeDesign};
use crate::trace::Tracer;
use crate::{measure_units, overhead_frac, repeat_setup, Args, Run, Timed};
use fpgafuzz::rng::Rng;
use fpgatest::flow::{prepare_design, Engine, FlowOptions, PreparedDesign, TestReport};
use std::time::Instant;

const PIXELS: usize = 4096;
const HAMMING_WORDS: usize = 4096;
/// Seeded inputs per design; cases cycle through them.
const INPUTS: usize = 8;

struct Design {
    kernel: Kernel,
    prepared: PreparedDesign,
    inputs: Vec<KernelInput>,
}

fn setup(seed: u64) -> Result<Vec<Design>, String> {
    let kernels = [
        Kernel::new(Kind::Fdct, PIXELS, 1),
        Kernel::new(Kind::Fdct, PIXELS, 2),
        Kernel::new(Kind::Hamming, HAMMING_WORDS, 1),
    ];
    let mut designs = Vec::new();
    for (k, kernel) in kernels.into_iter().enumerate() {
        let design = nenya::compile(&kernel.name, &kernel.source, &kernel.compile)
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        let prepared = prepare_design(design).map_err(|e| format!("{}: {e}", kernel.name))?;
        let mut rng = Rng::new(seed).derive(0xfdc7).derive(k as u64);
        let inputs = (0..INPUTS).map(|_| kernel.input(&mut rng)).collect();
        designs.push(Design {
            kernel,
            prepared,
            inputs,
        });
    }
    Ok(designs)
}

fn options() -> FlowOptions {
    FlowOptions {
        engine: Engine::Level,
        ..FlowOptions::default()
    }
}

/// The order cases visit the designs in: FDCT1, Hamming, FDCT2, Hamming.
/// Hamming, whose input takes longer than FDCT2's and less than FDCT1's,
/// gets half the cases, so the median case lies inside its cluster of
/// latencies and not on the edge between two designs.
const ROTATION: [usize; 4] = [0, 2, 1, 2];

/// Case `i` runs design `ROTATION[i % 4]` on its input `(i / 4) % INPUTS`.
fn pick(designs: &[Design], i: usize) -> (&Design, &KernelInput) {
    let d = &designs[ROTATION[i % ROTATION.len()]];
    (d, &d.inputs[(i / ROTATION.len()) % INPUTS])
}

fn verdict(d: &Design, input: &KernelInput, report: &TestReport) -> Result<(), String> {
    if !report.passed {
        return Err(format!("{}: does not match the golden run", d.kernel.name));
    }
    d.kernel.check(&report.sim_mems, input)
}

/// The untraced loop: the cases in turn until time is up.
fn measure(designs: &[Design], seconds: f64, run: &mut Run) -> Timed {
    let options = options();
    measure_units(usize::MAX, seconds, |u| {
        let (d, input) = pick(designs, u);
        run.attempted += 1;
        let mut cycles = 0.0;
        let result = d
            .prepared
            .run(&input.stimuli, &options)
            .map_err(|e| format!("{}: {e}", d.kernel.name))
            .and_then(|report| {
                cycles = report.runs.iter().map(|r| r.cycles).sum::<u64>() as f64;
                verdict(d, input, &report)
            });
        if let Err(message) = result {
            run.fail(message);
        }
        (1.0, cycles)
    })
}

fn measure_traced(designs: &[Design], seconds: f64, run: &mut Run, t: &mut Tracer) -> (u64, f64) {
    let options = options();
    let (mut done, mut cycles, mut evals, mut sim_seconds, mut instructions) =
        (0u64, 0.0, 0.0, 0.0, 0.0);
    let started = Instant::now();
    for i in 0.. {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (d, input) = pick(designs, i);
        let id = i as u64;
        let root = t.begin("case", id);
        let golden = t.time("interp.golden", id, || {
            d.prepared.prepare_golden(&input.stimuli, &options)
        });
        let report = t.time("flow.simulate", id, || {
            golden.and_then(|g| d.prepared.run_with_golden(&g, &options))
        });
        let result = t.time("bench.check", id, || {
            report
                .map_err(|e| format!("{}: {e}", d.kernel.name))
                .and_then(|report| {
                    instructions += report.golden.instructions as f64;
                    for r in &report.runs {
                        cycles += r.cycles as f64;
                        evals += r.kernel.evals as f64;
                        sim_seconds += r.summary.wall_seconds;
                    }
                    verdict(d, input, &report)
                })
        });
        t.end(root);
        done += 1;
        if let Err(message) = result {
            run.fail(format!("traced: {message}"));
        }
    }
    let n = done.max(1) as f64;
    run.set("interp.instructions", instructions / n);
    run.set("sim.cycles", cycles / n);
    run.set("levelsim.evals", evals / n);
    if cycles > 0.0 {
        run.set("levelsim.ns_per_cycle", sim_seconds * 1e9 / cycles);
    }
    (done, started.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Run, String> {
    let (designs, setup) = repeat_setup(|| setup(args.seed))?;
    let mut run = Run::default();
    if !args.trace {
        let timed = measure(&designs, args.seconds, &mut run);
        run.set_end_to_end(&Timed { setup, ..timed });
        return Ok(run);
    }

    let half = args.seconds / 2.0;
    let timed = measure(&designs, half, &mut run);
    let untraced = timed.latencies.len() as f64 / timed.wall;
    let mut t = Tracer::new(Instant::now());
    let (done, traced_wall) = measure_traced(&designs, half, &mut run, &mut t);
    run.attempted += done;
    let n = done.max(1) as f64;
    run.set("interp.golden_ms", t.total_ms("interp.golden") / n);
    run.set("flow.simulate_ms", t.total_ms("flow.simulate") / n);
    run.set("bench.check_ms", t.total_ms("bench.check") / n);
    run.set("trace.cases", done as f64);
    run.set("trace.unattributed_frac", t.unattributed_frac("case"));
    run.set(
        "trace.overhead_frac",
        overhead_frac(untraced, done as f64 / traced_wall),
    );

    // The designs were compiled and prepared in set-up: probe them for
    // the front end and the transform split.
    let probed: Vec<ProbeDesign> = designs
        .iter()
        .map(|d| ProbeDesign {
            name: d.kernel.name.clone(),
            source: d.kernel.source.clone(),
            compile: d.kernel.compile.clone(),
            stimuli: d.inputs[0].stimuli.clone(),
        })
        .collect();
    let probe = probe(&probed, 3)?;
    probe.set_transform_split(&mut run);
    probe.set_front_end(&mut run);
    crate::write_traces(args, &t, &probe);
    Ok(run)
}
