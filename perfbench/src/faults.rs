//! `faults-batch`: seeded fault campaigns on FDCT1 at 1,024 pixels through
//! `faults::run_campaign_sharded` with the batch engine and 2 shards. The
//! only workload on the batch engine and the work-stealing runtime: each
//! walk simulates 64 diverging faulted lanes, not one stimulus.

use crate::kernels::{Kernel, Kind};
use crate::probe::{probe, ProbeDesign};
use crate::trace::Tracer;
use crate::{check_cores, measure_units, overhead_frac, pins, repeat_setup, Args, Run, Timed};
use eventsim::batchsim::LANES;
use fpgafuzz::rng::Rng;
use fpgatest::events::EventSink;
use fpgatest::faults::{
    enumerate_sites, run_campaign_sharded, CampaignOptions, FaultSpec, InjectionOutcome,
    ShardedCampaignOptions,
};
use fpgatest::flow::{prepare_design, BatchLaneSpec, Engine, FlowError, FlowOptions, LaneReport};
use fpgatest::suite::TestCase;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const PIXELS: usize = 1024;
/// Sites per campaign: two 64-site chunks per shard, so a shard that
/// finishes first has a chunk to steal.
const SITES: usize = 4 * LANES;
const SHARDS: usize = 2;
/// The campaigns the timed loop runs in turn: campaign `k` runs on the
/// `k`-th image drawn from the run's seed.
const CAMPAIGNS: usize = 4;
/// Every campaign samples its sites with this seed, whatever the run's
/// seed. A walk takes about 0.1 s, or up to 2 s when one of its 64 sites
/// makes the lanes diverge, so the site sample sets a campaign's cost:
/// with one sample every campaign costs about the same, and the time per
/// site does not depend on which campaigns a run fits in.
const SITE_SEED: u64 = 0;
const OUTCOMES: [InjectionOutcome; 5] = [
    InjectionOutcome::Detected,
    InjectionOutcome::Silent,
    InjectionOutcome::Hung,
    InjectionOutcome::Crashed,
    InjectionOutcome::Skipped,
];

/// The case each campaign runs, its clean run checked against the
/// host FDCT reference in set-up.
fn setup(seed: u64) -> Result<Vec<TestCase>, String> {
    let kernel = Kernel::new(Kind::Fdct, PIXELS, 1);
    let design =
        nenya::compile(&kernel.name, &kernel.source, &kernel.compile).map_err(|e| e.to_string())?;
    let prepared = prepare_design(design).map_err(|e| e.to_string())?;
    let level = FlowOptions {
        engine: Engine::Level,
        ..FlowOptions::default()
    };
    let mut rng = Rng::new(seed).derive(0xfa17);
    let mut cases = Vec::new();
    for _ in 0..CAMPAIGNS {
        let input = kernel.input(&mut rng);
        let report = prepared
            .run(&input.stimuli, &level)
            .map_err(|e| format!("clean run: {e}"))?;
        if !report.passed {
            return Err("clean run does not match the golden run".to_string());
        }
        kernel.check(&report.sim_mems, &input)?;
        let mut case = TestCase::new("fdct1", kernel.source.clone());
        case.stimuli = input.stimuli;
        case.options.compile = kernel.compile.clone();
        cases.push(case);
    }
    Ok(cases)
}

fn campaign_options(events: EventSink) -> CampaignOptions {
    CampaignOptions {
        seed: SITE_SEED,
        sites: SITES,
        engine: Engine::Batch,
        max_ticks: None,
        events,
    }
}

fn sharded() -> ShardedCampaignOptions {
    ShardedCampaignOptions {
        shards: SHARDS,
        ..ShardedCampaignOptions::default()
    }
}

fn tally(outcomes: impl Iterator<Item = InjectionOutcome>) -> [u64; 5] {
    let mut counts = [0u64; 5];
    for outcome in outcomes {
        let i = OUTCOMES
            .iter()
            .position(|o| *o == outcome)
            .expect("known outcome");
        counts[i] += 1;
    }
    counts
}

fn tally_text(counts: &[u64; 5]) -> String {
    counts
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks one campaign's outcomes: every site classified, no harness
/// crash or skip, and campaign 0's tally equal to the pinned one.
fn check(seed: u64, k: u64, counts: &[u64; 5], run: &mut Run) {
    let classified: u64 = counts.iter().sum();
    if classified != SITES as u64 {
        run.fail(format!(
            "campaign {k}: {classified} of {SITES} sites classified"
        ));
    }
    for _ in 0..counts[3] + counts[4] {
        run.fail(format!(
            "campaign {k}: a site crashed the harness or was skipped"
        ));
    }
    if k == 0 {
        let text = tally_text(counts);
        match pins::faults(seed) {
            Some(pinned) if pinned != text => run.problems.push(format!(
                "campaign 0 tally (detected silent hung crashed skipped) is {text}, pinned {pinned} for seed {seed}"
            )),
            Some(_) => {
                run.notes.insert("tally", format!("{text} (pinned)"));
            }
            None => {
                run.notes.insert("tally", format!("{text} (unpinned seed)"));
            }
        }
    }
}

/// The untraced loop: the campaigns in turn until time is up.
fn measure(cases: &[TestCase], seed: u64, seconds: f64, run: &mut Run) -> Timed {
    measure_units(usize::MAX, seconds, |i| {
        let k = i % CAMPAIGNS;
        run.attempted += SITES as u64;
        let options = campaign_options(EventSink::disabled());
        match run_campaign_sharded(&cases[k], &options, &sharded()) {
            Ok(outcome) => {
                let report = outcome.report;
                let counts = tally(report.injections.iter().map(|r| r.outcome));
                check(seed, k as u64, &counts, run);
                let sites = report.injections.len() as f64;
                (sites, report.clean_cycles as f64 * sites)
            }
            Err(e) => {
                for _ in 0..SITES {
                    run.fail(format!("campaign {k}: {e}"));
                }
                (SITES as f64, 0.0)
            }
        }
    })
}

/// Classifies a lane as the campaign runtime does.
fn lane_outcome(lane: &LaneReport) -> InjectionOutcome {
    if lane.timed_out.is_some() {
        InjectionOutcome::Hung
    } else if lane.flow_error.is_some() || lane.failure.is_some() || !lane.mismatches.is_empty() {
        InjectionOutcome::Detected
    } else {
        InjectionOutcome::Silent
    }
}

/// Per-layer sums of the traced loop.
#[derive(Default)]
struct Sums {
    operators: f64,
    fsm_states: f64,
    instructions: f64,
    clean_cycles: f64,
    calls: f64,
    lanes: f64,
    lane_cycles: f64,
    walk_seconds: f64,
    timeout_lanes_first: f64,
    overhead_ms: f64,
}

/// What the bit-identity check needs from campaign 0: the prepared
/// design, its golden run, options, and the first chunk's sites and lanes.
struct FirstChunk {
    prepared: fpgatest::flow::PreparedDesign,
    golden: fpgatest::flow::PreparedGolden,
    options: FlowOptions,
    sites: Vec<FaultSpec>,
    lanes: Vec<LaneReport>,
}

/// One campaign rebuilt from the public pieces `run_campaign_sharded`
/// strings together, chunks spread over the same number of threads.
/// Returns the replica's tally and, for campaign 0, its first chunk.
fn replica(
    case: &TestCase,
    campaign: &CampaignOptions,
    k: u64,
    t: &mut Tracer,
    origin: Instant,
    sums: &mut Sums,
) -> Result<([u64; 5], Option<FirstChunk>), String> {
    let program = t
        .time("lang.parse", k, || nenya::lang::parse(&case.source))
        .map_err(|e| e.to_string())?;
    let design = t
        .time("nenya.compile", k, || {
            nenya::compile_program(&case.name, &program, &case.options.compile)
        })
        .map_err(|e| e.to_string())?;
    sums.operators += design.operator_count() as f64;
    sums.fsm_states += design
        .configs
        .iter()
        .map(|c| c.fsm.state_count())
        .sum::<usize>() as f64;
    let prepared = t
        .time("flow.prepare", k, || prepare_design(design))
        .map_err(|e| e.to_string())?;
    let mut options = case.options.clone();
    options.engine = Engine::Batch;
    options.keep_artifacts = false;
    let clean = t
        .time("flow.simulate", k, || prepared.run(&case.stimuli, &options))
        .map_err(|e| e.to_string())?;
    let clean_cycles = clean.runs.iter().map(|r| r.cycles).max().unwrap_or(0);
    let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * 10).sum();
    sums.clean_cycles += clean.runs.iter().map(|r| r.cycles).sum::<u64>() as f64;
    sums.instructions += clean.golden.instructions as f64;
    let mut sites = t.time("faults.enumerate", k, || {
        enumerate_sites(prepared.design(), clean_cycles, campaign.seed)
    })?;
    // The campaign's seeded Fisher-Yates sample, replayed.
    t.time("faults.sample", k, || {
        let mut rng = Rng::new(campaign.seed);
        for i in (1..sites.len()).rev() {
            sites.swap(i, rng.below(i as u64 + 1) as usize);
        }
        sites.truncate(campaign.sites);
    });
    options.max_ticks = (clean_ticks * 5).max(50_000);
    let golden = t
        .time("interp.golden", k, || {
            prepared.prepare_golden(&case.stimuli, &options)
        })
        .map_err(|e| e.to_string())?;

    let chunks: Vec<&[FaultSpec]> = sites.chunks(LANES).collect();
    let mut results: Vec<Option<Result<Vec<LaneReport>, String>>> = vec![None; chunks.len()];
    let mut shard_tracers = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let (chunks, prepared, options) = (&chunks, &prepared, &options);
                let stimuli = &case.stimuli;
                scope.spawn(move || {
                    let mut st = Tracer::new(origin);
                    let mut out = Vec::new();
                    for (c, chunk) in chunks.iter().enumerate().skip(shard).step_by(SHARDS) {
                        let specs: Vec<BatchLaneSpec> = chunk
                            .iter()
                            .map(|fault| BatchLaneSpec {
                                stimuli: stimuli.clone(),
                                faults: vec![fault.clone()],
                            })
                            .collect();
                        let span = st.begin("batchsim.call", k);
                        let report = prepared.run_batch(&specs, options);
                        if let Ok(report) = &report {
                            st.record("batchsim.walk", k, (report.sim_wall_seconds * 1e9) as u64);
                        }
                        st.end(span);
                        out.push((
                            c,
                            report
                                .map(|r| (r.lanes, r.sim_wall_seconds))
                                .map_err(|e| e.to_string()),
                        ));
                    }
                    (st, out)
                })
            })
            .collect();
        for handle in handles {
            let (st, out) = handle.join().expect("replica shard thread panicked");
            shard_tracers.push(st);
            for (c, result) in out {
                results[c] = Some(result.map(|(lanes, walk)| {
                    sums.walk_seconds += walk;
                    lanes
                }));
            }
        }
    });
    let root = t.current();
    for st in shard_tracers {
        t.absorb(st, root);
    }
    let mut counts = [0u64; 5];
    let mut first = None;
    for (c, result) in results.into_iter().enumerate() {
        let lanes = result.expect("every chunk ran")?;
        sums.calls += 1.0;
        sums.lanes += lanes.len() as f64;
        sums.lane_cycles += lanes.iter().map(|l| l.cycles).sum::<u64>() as f64;
        let chunk_counts = tally(lanes.iter().map(lane_outcome));
        for (total, n) in counts.iter_mut().zip(chunk_counts) {
            *total += n;
        }
        if k == 0 {
            sums.timeout_lanes_first +=
                lanes.iter().filter(|l| l.timed_out.is_some()).count() as f64;
            if c == 0 {
                first = Some((chunks[0].to_vec(), lanes));
            }
        }
    }
    let first = first.map(|(sites, lanes)| FirstChunk {
        prepared,
        golden,
        options,
        sites,
        lanes,
    });
    Ok((counts, first))
}

/// Re-runs the first chunk of campaign 0 lane by lane on the level engine:
/// every lane's verdict and cycles must equal the batch walk's.
fn bit_identity(chunk: &FirstChunk, run: &mut Run) -> (f64, f64, f64) {
    let (mut cycles, mut evals, mut seconds) = (0.0, 0.0, 0.0);
    let mut options = chunk.options.clone();
    options.engine = Engine::Level;
    for (i, (site, lane)) in chunk.sites.iter().zip(&chunk.lanes).enumerate() {
        options.faults = vec![site.clone()];
        let result = catch_unwind(AssertUnwindSafe(|| {
            chunk.prepared.run_with_golden(&chunk.golden, &options)
        }));
        let same = match result {
            Ok(Ok(report)) => {
                let lane_cycles: u64 = report.runs.iter().map(|r| r.cycles).sum();
                for r in &report.runs {
                    cycles += r.cycles as f64;
                    evals += r.kernel.evals as f64;
                    seconds += r.summary.wall_seconds;
                }
                lane.timed_out.is_none()
                    && lane.flow_error.is_none()
                    && lane.passed == report.passed
                    && lane.failure == report.failure
                    && lane.mismatches.len() == report.mismatches.len()
                    && lane.cycles == lane_cycles
            }
            Ok(Err(e @ FlowError::Timeout { .. })) => lane.timed_out == Some(e.to_string()),
            Ok(Err(e)) => lane.flow_error == Some(e.to_string()),
            Err(_) => false,
        };
        if !same {
            run.fail(format!(
                "bit identity: lane {i} ({site}) differs between the batch walk and a level run"
            ));
        }
    }
    (cycles, evals, seconds)
}

pub fn run(args: &Args) -> Result<Run, String> {
    check_cores(SHARDS, "faults-batch")?;
    let (cases, setup) = repeat_setup(|| setup(args.seed))?;
    let mut run = Run::default();
    if !args.trace {
        let timed = measure(&cases, args.seed, args.seconds, &mut run);
        run.set_end_to_end(&Timed { setup, ..timed });
        return Ok(run);
    }

    // Each traced campaign runs twice: replayed from the pieces with spans,
    // then untraced through the runtime, which is what the tracing
    // overhead compares against.
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let mut sums = Sums::default();
    let mut first = None;
    let mut campaigns = 0u64;
    let (mut replica_seconds, mut campaign_seconds) = (0.0, 0.0);
    let started = Instant::now();
    for k in 0u64.. {
        if k > 0 && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let case = &cases[k as usize % CAMPAIGNS];
        let options = campaign_options(EventSink::disabled());
        run.attempted += SITES as u64;
        let root = t.begin("case", k);
        let replayed = replica(case, &options, k, &mut t, origin, &mut sums);
        t.end(root);
        let replica_wall = t.last_ms("case") / 1e3;
        replica_seconds += replica_wall;
        let (counts, chunk) = match replayed {
            Ok(done) => done,
            Err(e) => {
                run.fail(format!("traced campaign {k}: {e}"));
                continue;
            }
        };
        if chunk.is_some() {
            first = chunk;
        }
        // The runtime itself on the same campaign: its tally must equal
        // the replica's, and its wall minus the replica's is its overhead.
        let outcome = t.time("campaign", k, || {
            run_campaign_sharded(case, &options, &sharded())
        });
        let campaign_wall = t.last_ms("campaign") / 1e3;
        match outcome {
            Ok(outcome) => {
                let runtime = tally(outcome.report.injections.iter().map(|r| r.outcome));
                if runtime != counts {
                    run.fail(format!(
                        "campaign {k}: runtime tally {} differs from the replayed pieces' {}",
                        tally_text(&runtime),
                        tally_text(&counts)
                    ));
                }
                check(args.seed, k, &runtime, &mut run);
                if k == 0 {
                    for (name, n) in [
                        "faults.detected",
                        "faults.silent",
                        "faults.hung",
                        "faults.crashed",
                        "faults.skipped",
                    ]
                    .into_iter()
                    .zip(runtime)
                    {
                        run.set(name, n as f64);
                    }
                }
            }
            Err(e) => run.fail(format!("campaign {k}: {e}")),
        }
        sums.overhead_ms += (campaign_wall - replica_wall) * 1e3;
        campaign_seconds += campaign_wall;
        campaigns += 1;
    }
    let n = campaigns.max(1) as f64;
    for (metric, span) in [
        ("lang.parse_ms", "lang.parse"),
        ("nenya.compile_ms", "nenya.compile"),
        ("flow.prepare_ms", "flow.prepare"),
        ("flow.simulate_ms", "flow.simulate"),
        ("faults.enumerate_ms", "faults.enumerate"),
        ("interp.golden_ms", "interp.golden"),
    ] {
        run.set(metric, t.total_ms(span) / n);
    }
    run.set("nenya.operators", sums.operators / n);
    run.set("nenya.fsm_states", sums.fsm_states / n);
    run.set("interp.instructions", sums.instructions / n);
    run.set("sim.cycles", sums.clean_cycles / n);
    run.set("batchsim.call_ms", t.mean_ms("batchsim.call"));
    run.set(
        "batchsim.walk_ms",
        sums.walk_seconds * 1e3 / sums.calls.max(1.0),
    );
    run.set("batchsim.lanes_per_walk", sums.lanes / sums.calls.max(1.0));
    run.set("batchsim.timeout_lanes", sums.timeout_lanes_first);
    if sums.lane_cycles > 0.0 {
        run.set(
            "batchsim.ns_per_lane_cycle",
            sums.walk_seconds * 1e9 / sums.lane_cycles,
        );
    }
    run.set("campaign.overhead_ms", sums.overhead_ms / n);
    run.set("trace.cases", (campaigns * SITES as u64) as f64);
    run.set("trace.unattributed_frac", t.unattributed_frac("case"));
    run.set(
        "trace.overhead_frac",
        overhead_frac(1.0 / campaign_seconds, 1.0 / replica_seconds.max(1e-9)),
    );

    let chunk = first.ok_or("campaign 0 did not finish")?;
    let (cycles, evals, seconds) = bit_identity(&chunk, &mut run);
    if cycles > 0.0 {
        run.set("levelsim.ns_per_cycle", seconds * 1e9 / cycles);
    }
    run.set("levelsim.evals", evals / chunk.lanes.len().max(1) as f64);

    let probe = probe(
        &[ProbeDesign {
            name: cases[0].name.clone(),
            source: cases[0].source.clone(),
            compile: cases[0].options.compile.clone(),
            stimuli: cases[0].stimuli.clone(),
        }],
        3,
    )?;
    probe.set_transform_split(&mut run);
    crate::write_traces(args, &t, &probe);
    Ok(run)
}
