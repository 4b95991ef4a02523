//! `regress`: a seeded draw of distinct programs, each compiled and
//! verified once through `TestFlow::run` on the default (event) engine —
//! what `fpgatest run` and `fpgafuzz` do per case. Every case pays the
//! fixed per-design cost: parse, compile, transform, build, simulate.

use crate::kernels::{Kernel, KernelInput, Kind};
use crate::probe::{probe, ProbeDesign};
use crate::trace::Tracer;
use crate::{measure_units, overhead_frac, pins, repeat_setup, Args, Run, Timed};
use fpgafuzz::gen::{generate_case, Budget};
use fpgafuzz::rng::Rng;
use fpgatest::flow::{prepare_design, FlowOptions, TestFlow, TestReport};
use fpgatest::stimulus::Stimulus;
use nenya::interp::MemImage;
use nenya::CompileOptions;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Cases per second of measurement generated in set-up: about twice the
/// rate the flow reaches today, so a faster flow still finds inputs. Case
/// costs vary widely from program to program, so a run needs thousands of
/// them for its figures not to depend on the seed's draw.
const CASES_PER_SECOND: f64 = 600.0;
/// Every `STOCK_EVERY`-th case is a stock kernel.
const STOCK_EVERY: usize = 10;
/// Kernel-tick watchdog per configuration, as the fuzzer's executor uses.
const MAX_TICKS: u64 = 5_000_000;
/// Cases whose memories and cycles make up the pinned digest.
pub const DIGEST_CASES: usize = 100;
/// Generated cases the traced run probes for the transform split.
const PROBE_CASES: usize = 40;
/// Seconds the traced run drives the daemon with the serve-mix job mix,
/// for the `cache` and `serve` layers.
const SERVE_SECONDS: f64 = 5.0;

enum Oracle {
    /// A generated program: every compile variant must leave the same
    /// final memories (and each must match the golden run).
    Variants { program: u64, mems: Vec<String> },
    /// A stock kernel, checked against its hand-written reference.
    Reference { kernel: Kernel, input: KernelInput },
}

struct Case {
    name: String,
    source: String,
    stimuli: Vec<(String, Stimulus)>,
    compile: CompileOptions,
    oracle: Oracle,
}

fn stock(seed: u64, slot: usize) -> Case {
    let kernel = match (slot / STOCK_EVERY) % 4 {
        0 => Kernel::new(Kind::Fdct, 64, 1),
        1 => Kernel::new(Kind::Hamming, 32, 1),
        2 => Kernel::new(Kind::Sort, 16, 1),
        _ => Kernel::new(Kind::Matmul, 4, 1),
    };
    let mut rng = Rng::new(seed).derive(0x570c).derive(slot as u64);
    let input = kernel.input(&mut rng);
    Case {
        name: format!("{}_{slot}", kernel.name),
        source: kernel.source.clone(),
        stimuli: input.stimuli.clone(),
        compile: kernel.compile.clone(),
        oracle: Oracle::Reference { kernel, input },
    }
}

/// Generates the case list: fuzz programs under `variants_for`, two
/// compile variants each with `optimize` alternating per program, and a
/// stock kernel in every tenth slot. Also returns the milliseconds
/// `generate_case` took per program.
fn generate(seed: u64, count: usize) -> Result<(Vec<Case>, f64), String> {
    let mut gen_seconds = 0.0;
    let budget = Budget::default();
    let mut cases = Vec::with_capacity(count);
    let mut program = 0u64;
    let mut pending: Vec<Case> = Vec::new();
    while cases.len() < count {
        let slot = cases.len();
        if slot % STOCK_EVERY == STOCK_EVERY - 1 {
            cases.push(stock(seed, slot));
            continue;
        }
        if pending.is_empty() {
            let started = Instant::now();
            let case = generate_case(seed, program, &budget)?;
            gen_seconds += started.elapsed().as_secs_f64();
            let stimuli: Vec<(String, Stimulus)> = case
                .stimuli
                .iter()
                .map(|(mem, values)| (mem.clone(), Stimulus::from_values(values.iter().copied())))
                .collect();
            let mems: Vec<String> = case.program.mems.iter().map(|m| m.name.clone()).collect();
            for variant in fpgafuzz::exec::variants_for(program) {
                if variant.partitions > case.program.body.stmts.len() {
                    continue;
                }
                pending.push(Case {
                    name: format!("fuzz_{seed}_{program}_{}", pending.len()),
                    source: case.source.clone(),
                    stimuli: stimuli.clone(),
                    compile: CompileOptions {
                        width: budget.width,
                        policy: variant.policy,
                        partitions: variant.partitions,
                        optimize: program % 2 == 1,
                    },
                    oracle: Oracle::Variants {
                        program,
                        mems: mems.clone(),
                    },
                });
            }
            pending.reverse();
            program += 1;
        }
        if let Some(case) = pending.pop() {
            cases.push(case);
        }
    }
    Ok((cases, gen_seconds * 1e3 / program.max(1) as f64))
}

fn flow_options(case: &Case) -> FlowOptions {
    FlowOptions {
        compile: case.compile.clone(),
        max_ticks: MAX_TICKS,
        ..FlowOptions::default()
    }
}

/// Checks one finished case. `previous` carries the final memories of the
/// last generated case so variants of one program can be compared.
struct Checker {
    previous: Option<(u64, BTreeMap<String, MemImage>)>,
    digest: u64,
    digested: usize,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            previous: None,
            digest: pins::FNV_OFFSET,
            digested: 0,
        }
    }

    fn check(&mut self, case: &Case, report: &TestReport) -> Result<(), String> {
        let cycles: u64 = report.runs.iter().map(|r| r.cycles).sum();
        let digested = self.digested < DIGEST_CASES;
        if digested {
            self.digested += 1;
            pins::fnv(&mut self.digest, case.name.as_bytes());
            pins::fnv(&mut self.digest, &cycles.to_le_bytes());
        }
        if !report.passed {
            return Err(format!(
                "{}: {}",
                case.name,
                report
                    .failure
                    .clone()
                    .unwrap_or_else(|| format!("{} mismatches vs golden", report.mismatches.len()))
            ));
        }
        match &case.oracle {
            Oracle::Reference { kernel, input } => {
                if digested {
                    pins::digest_mem(&mut self.digest, report.sim_mems.get(kernel.output_mem()));
                }
                kernel.check(&report.sim_mems, input)
            }
            Oracle::Variants { program, mems } => {
                let own: BTreeMap<String, MemImage> = mems
                    .iter()
                    .filter_map(|m| report.sim_mems.get(m).map(|img| (m.clone(), img.clone())))
                    .collect();
                if own.len() != mems.len() {
                    return Err(format!("{}: a declared memory is missing", case.name));
                }
                if digested {
                    for image in own.values() {
                        pins::digest_mem(&mut self.digest, Some(image));
                    }
                }
                let verdict = match &self.previous {
                    Some((p, earlier)) if p == program && *earlier != own => Err(format!(
                        "{}: compile variants of program {program} leave different memories",
                        case.name
                    )),
                    _ => Ok(()),
                };
                self.previous = Some((*program, own));
                verdict
            }
        }
    }

    /// Compares the digest of the first [`DIGEST_CASES`] cases with the
    /// pinned one for this seed.
    fn finish(&self, seed: u64, run: &mut Run) {
        let digest = format!("{:016x}", self.digest);
        if self.digested < DIGEST_CASES {
            run.notes
                .insert("digest", format!("incomplete ({} cases)", self.digested));
            return;
        }
        match pins::regress(seed) {
            Some(pinned) if pinned != digest => run.problems.push(format!(
                "digest of the first {DIGEST_CASES} cases is {digest}, pinned {pinned} for seed {seed}"
            )),
            Some(_) => {
                run.notes.insert("digest", format!("{digest} (pinned)"));
            }
            None => {
                run.notes.insert("digest", format!("{digest} (unpinned seed)"));
            }
        }
    }
}

/// The untraced loop: one `TestFlow::run` per case until time is up.
fn measure(cases: &[Case], seconds: f64, run: &mut Run, checker: &mut Checker) -> Timed {
    measure_units(cases.len(), seconds, |u| {
        let case = &cases[u];
        run.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut flow = TestFlow::new(&case.name, &case.source).with_options(flow_options(case));
            for (mem, stimulus) in &case.stimuli {
                flow = flow.stimulus(mem, stimulus.clone());
            }
            flow.run()
        }));
        let mut cycles = 0.0;
        let verdict = match result {
            Ok(Ok(report)) => {
                cycles = report.runs.iter().map(|r| r.cycles).sum::<u64>() as f64;
                checker.check(case, &report)
            }
            Ok(Err(e)) => Err(format!("{}: {e}", case.name)),
            Err(_) => Err(format!("{}: the flow panicked", case.name)),
        };
        if let Err(message) = verdict {
            run.fail(message);
        }
        (1.0, cycles)
    })
}

/// The traced loop: the same cases through the public pieces `TestFlow`
/// strings together, one span per layer.
fn measure_traced(cases: &[Case], seconds: f64, run: &mut Run, t: &mut Tracer) -> (u64, f64) {
    let mut checker = Checker::new();
    let mut done = 0u64;
    let mut counts = [0f64; 6];
    let started = Instant::now();
    for (id, case) in cases.iter().enumerate() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let id = id as u64;
        let options = flow_options(case);
        let root = t.begin("case", id);
        let result: Result<TestReport, String> = (|| {
            let program = t.time("lang.parse", id, || {
                nenya::lang::parse(&case.source).map_err(|e| e.to_string())
            });
            let design = t.time("nenya.compile", id, || {
                program.and_then(|p| {
                    nenya::compile_program(&case.name, &p, &case.compile).map_err(|e| e.to_string())
                })
            })?;
            counts[0] += design.operator_count() as f64;
            counts[1] += design
                .configs
                .iter()
                .map(|c| c.fsm.state_count())
                .sum::<usize>() as f64;
            let prepared = t.time("flow.prepare", id, || {
                prepare_design(design).map_err(|e| e.to_string())
            })?;
            let golden = t.time("interp.golden", id, || {
                prepared
                    .prepare_golden(&case.stimuli, &options)
                    .map_err(|e| e.to_string())
            })?;
            t.time("flow.simulate", id, || {
                prepared
                    .run_with_golden(&golden, &options)
                    .map_err(|e| e.to_string())
            })
        })();
        let verdict = t.time("bench.check", id, || {
            result.and_then(|report| {
                counts[2] += report.golden.instructions as f64;
                for r in &report.runs {
                    counts[3] += r.cycles as f64;
                    counts[4] += r.kernel.events as f64;
                    counts[5] += r.kernel.evals as f64;
                }
                checker.check(case, &report)
            })
        });
        t.end(root);
        done += 1;
        if let Err(message) = verdict {
            run.fail(format!("traced: {message}"));
        }
    }
    let n = done.max(1) as f64;
    for (name, total) in [
        "nenya.operators",
        "nenya.fsm_states",
        "interp.instructions",
        "sim.cycles",
        "kernel.events",
        "kernel.evals",
    ]
    .into_iter()
    .zip(counts)
    {
        run.set(name, total / n);
    }
    (done, started.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Run, String> {
    let count = ((args.seconds * CASES_PER_SECOND) as usize).max(2 * DIGEST_CASES);
    let ((cases, gen_ms), setup) = repeat_setup(|| generate(args.seed, count))?;
    let mut run = Run::default();
    if !args.trace {
        let mut checker = Checker::new();
        let timed = measure(&cases, args.seconds, &mut run, &mut checker);
        checker.finish(args.seed, &mut run);
        run.set_end_to_end(&Timed { setup, ..timed });
        return Ok(run);
    }

    // Traced: the untraced loop for half the time, the traced loop for
    // the other half (both from the first case), then the probe.
    let half = args.seconds / 2.0;
    let mut checker = Checker::new();
    let timed = measure(&cases, half, &mut run, &mut checker);
    checker.finish(args.seed, &mut run);
    let untraced = timed.latencies.len() as f64 / timed.wall;
    let mut t = Tracer::new(Instant::now());
    let (done, traced_wall) = measure_traced(&cases, half, &mut run, &mut t);
    run.attempted += done;
    let n = done.max(1) as f64;
    run.set("gen.case_ms", gen_ms);
    for (metric, span) in [
        ("lang.parse_ms", "lang.parse"),
        ("nenya.compile_ms", "nenya.compile"),
        ("flow.prepare_ms", "flow.prepare"),
        ("interp.golden_ms", "interp.golden"),
        ("flow.simulate_ms", "flow.simulate"),
        ("bench.check_ms", "bench.check"),
    ] {
        run.set(metric, t.total_ms(span) / n);
    }
    run.set("trace.cases", done as f64);
    run.set("trace.unattributed_frac", t.unattributed_frac("case"));
    run.set(
        "trace.overhead_frac",
        overhead_frac(untraced, done as f64 / traced_wall),
    );

    let designs: Vec<ProbeDesign> = cases
        .iter()
        .take(PROBE_CASES)
        .map(|c| ProbeDesign {
            name: c.name.clone(),
            source: c.source.clone(),
            compile: c.compile.clone(),
            stimuli: c.stimuli.clone(),
        })
        .collect();
    let probe = probe(&designs, 1)?;
    probe.set_transform_split(&mut run);
    probe.set_level(&mut run);
    crate::serve::layers(args.seed, SERVE_SECONDS, &mut run)?;
    crate::write_traces(args, &t, &probe);
    Ok(run)
}
