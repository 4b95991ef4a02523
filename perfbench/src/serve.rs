//! `serve-mix`: an in-process `Server` with default `ServeOptions`, driven
//! as a closed loop by one client connection that waits for `job-finished`
//! before it submits again. One job at a time is in the daemon, so the
//! process CPU time from submit to finish is that job's. Jobs are level-engine
//! test jobs drawn from a seeded, skewed pool of more distinct designs
//! than the cache holds, so warm hits, cold misses and evictions all
//! occur. The only workload that measures the `cache` and `serve` layers.

use crate::kernels::{Kernel, KernelInput, Kind};
use crate::probe::{probe, ProbeDesign};
use crate::trace::Tracer;
use crate::{check_cores, cpu, overhead_frac, repeat_setup, Args, Run, Timed};
use fpgafuzz::rng::Rng;
use fpgatest::flow::{prepare_design, Engine, FlowOptions};
use fpgatest::serve::{Client, JobSpec, ServeOptions, Server, ShutdownHandle};
use fpgatest::telemetry::Json;
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections. With more than one, jobs overlap and
/// the process CPU time between a job's submit and finish is no longer
/// its own.
const CLIENTS: usize = 1;
/// Seeded inputs per pool design.
const INPUTS: usize = 4;
/// Skew of the job draw over the pool's popularity ranks.
const ZIPF_EXPONENT: f64 = 1.4;
/// Jobs drawn per client; a client that runs out starts over.
const JOBS_PER_CLIENT: usize = 4096;

/// The pool in popularity order, kinds interleaved so the hot set mixes
/// small and large designs: 24 designs against the default cache of 8.
fn pool_kernels() -> Vec<Kernel> {
    let sizes: [(Kind, &[usize]); 4] = [
        (Kind::Matmul, &[6, 8, 10, 12, 14, 16]),
        (Kind::Hamming, &[64, 128, 192, 256, 384, 512]),
        (Kind::Sort, &[12, 16, 20, 24, 28, 32]),
        (Kind::Fdct, &[256, 512, 768, 1024]),
    ];
    let mut kernels = Vec::new();
    for i in 0..6 {
        for (kind, list) in &sizes {
            if let Some(&size) = list.get(i) {
                kernels.push(Kernel::new(*kind, size, 1));
            }
        }
    }
    kernels.push(Kernel::new(Kind::Fdct, 256, 2));
    kernels.push(Kernel::new(Kind::Fdct, 512, 2));
    kernels
}

/// One pool design with its seeded inputs and the cycles each takes,
/// checked once in set-up against the hand-written reference.
struct Entry {
    kernel: Kernel,
    inputs: Vec<(KernelInput, u64)>,
}

/// A booted daemon; dropping it drains and joins it.
struct Daemon {
    addr: String,
    stop: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn boot() -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let stop = server.shutdown_handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-serve".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Daemon {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    fn stats(&self) -> Result<Json, String> {
        let mut client = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        client.stats().map_err(|e| format!("{e:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.shutdown();
            let _ = thread.join();
        }
    }
}

struct Setup {
    pool: Vec<Entry>,
    /// Per client: `(design, input)` draws.
    draws: Vec<Vec<(usize, usize)>>,
    daemon: Daemon,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let level = FlowOptions {
        engine: Engine::Level,
        ..FlowOptions::default()
    };
    let mut rng = Rng::new(seed).derive(0x5e7e);
    let mut pool = Vec::new();
    for kernel in pool_kernels() {
        let design = nenya::compile(&kernel.name, &kernel.source, &kernel.compile)
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        let prepared = prepare_design(design).map_err(|e| format!("{}: {e}", kernel.name))?;
        let mut inputs = Vec::new();
        for _ in 0..INPUTS {
            let input = kernel.input(&mut rng);
            let report = prepared
                .run(&input.stimuli, &level)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            if !report.passed {
                return Err(format!("{}: does not match the golden run", kernel.name));
            }
            kernel.check(&report.sim_mems, &input)?;
            let cycles = report.runs.iter().map(|r| r.cycles).sum();
            inputs.push((input, cycles));
        }
        pool.push(Entry { kernel, inputs });
    }
    // Zipf popularity over the pool: about three jobs in four hit a warm
    // cache entry, so the median job is warm and the 90th percentile cold.
    let weights: Vec<f64> = (0..pool.len())
        .map(|r| ((r + 1) as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let draws = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed).derive(0xd4a7).derive(c as u64);
            (0..JOBS_PER_CLIENT)
                .map(|_| {
                    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                    let design = weights
                        .iter()
                        .position(|w| {
                            x -= w;
                            x < 0.0
                        })
                        .unwrap_or(pool.len() - 1);
                    (design, rng.below(INPUTS as u64) as usize)
                })
                .collect()
        })
        .collect();
    Ok(Setup {
        pool,
        draws,
        daemon: Daemon::boot()?,
    })
}

fn spec(entry: &Entry, input: &KernelInput) -> JobSpec {
    let mut spec = JobSpec::test(&entry.kernel.name, &entry.kernel.source);
    spec.width = Some(entry.kernel.compile.width);
    spec.partitions = Some(entry.kernel.compile.partitions);
    spec.engine = Engine::Level;
    spec.stimuli = input.stimuli.clone();
    spec
}

/// One finished job as a client saw it.
struct Job {
    /// Wall seconds from submit to finish.
    latency: f64,
    /// Process CPU seconds from submit to finish.
    cpu: f64,
    run_seconds: f64,
    cycles: u64,
    verdict: Result<(), String>,
}

/// Runs one client's closed loop until `deadline` seconds after `started`.
fn client_loop(
    setup: &Setup,
    client_index: usize,
    started: Instant,
    deadline: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Job>, String> {
    let mut client = Client::connect(&setup.daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let draws = &setup.draws[client_index];
    let mut jobs = Vec::new();
    for (i, &(design, input)) in draws.iter().cycle().enumerate() {
        if started.elapsed().as_secs_f64() >= deadline {
            break;
        }
        let entry = &setup.pool[design];
        let (input, expected_cycles) = &entry.inputs[input];
        let id = (client_index * JOBS_PER_CLIENT * 1000 + i) as u64;
        let root = tracer.as_mut().map(|t| t.begin("case", id));
        cpu::sample_reference();
        let t0 = Instant::now();
        let cpu0 = cpu::process_seconds();
        let result = client.run_job(&spec(entry, input));
        let cpu = cpu::process_seconds() - cpu0;
        let latency = t0.elapsed().as_secs_f64();
        let (run_seconds, cycles, verdict) = match result {
            Ok(outcome) => {
                let check = tracer.as_mut().map(|t| {
                    t.record("serve.run", id, (outcome.wall_seconds * 1e9) as u64);
                    t.begin("bench.check", id)
                });
                let cycles: u64 = outcome
                    .report
                    .get("configs")
                    .and_then(Json::as_array)
                    .map_or(0, |configs| {
                        configs
                            .iter()
                            .filter_map(|c| c.get("cycles").and_then(Json::as_u64))
                            .sum()
                    });
                let passed = outcome.report.get("passed").and_then(Json::as_bool) == Some(true);
                let verdict = if outcome.verdict != "pass" || !passed || outcome.attempts != 1 {
                    Err(format!(
                        "{}: verdict {} after {} attempts: {}",
                        entry.kernel.name, outcome.verdict, outcome.attempts, outcome.detail
                    ))
                } else if cycles != *expected_cycles {
                    Err(format!(
                        "{}: {cycles} cycles, {expected_cycles} when run directly",
                        entry.kernel.name
                    ))
                } else {
                    Ok(())
                };
                if let (Some(t), Some(span)) = (tracer.as_mut(), check) {
                    t.end(span);
                }
                (outcome.wall_seconds, cycles, verdict)
            }
            Err(e) => (0.0, 0, Err(format!("{}: {e:?}", entry.kernel.name))),
        };
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.end(root);
        }
        jobs.push(Job {
            latency,
            cpu,
            run_seconds,
            cycles,
            verdict,
        });
    }
    Ok(jobs)
}

/// One client's finished jobs and, when traced, its spans.
type ClientRun = Result<(Vec<Job>, Option<Tracer>), String>;

/// Drives the daemon with [`CLIENTS`] closed-loop clients for `seconds`,
/// returning the jobs, the wall and CPU seconds of the drive, and the spans.
/// With `origin`, every client traces its jobs into its own recorder.
fn drive(
    setup: &Setup,
    seconds: f64,
    origin: Option<Instant>,
    run: &mut Run,
) -> Result<(Vec<Job>, f64, f64, Option<Tracer>), String> {
    let started = Instant::now();
    let cpu_started = cpu::process_seconds();
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tracer = origin.map(Tracer::new);
                    client_loop(setup, c, started, seconds, tracer.as_mut())
                        .map(|jobs| (jobs, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let cpu = cpu::process_seconds() - cpu_started;
    let mut jobs = Vec::new();
    let mut merged = origin.map(Tracer::new);
    for result in results {
        let (client_jobs, tracer) = result?;
        jobs.extend(client_jobs);
        if let (Some(m), Some(t)) = (merged.as_mut(), tracer) {
            m.absorb(t, None);
        }
    }
    run.attempted += jobs.len() as u64;
    for job in &jobs {
        if let Err(message) = &job.verdict {
            run.fail(message.clone());
        }
    }
    Ok((jobs, wall, cpu, merged))
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut node = Some(stats);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(args: &Args) -> Result<Run, String> {
    check_cores(CLIENTS, "serve-mix")?;
    let (mut state, setup_seconds) = repeat_setup(|| setup(args.seed))?;
    let mut run = Run::default();
    if !args.trace {
        let from = cpu::reference_timings();
        let (jobs, wall, cpu, _) = drive(&state, args.seconds, None, &mut run)?;
        run.set_end_to_end(&Timed {
            setup: setup_seconds,
            scale: cpu::speed_scale(from),
            latencies: jobs.iter().map(|j| j.cpu).collect(),
            cases: jobs.len() as f64,
            busy: jobs.iter().map(|j| j.cpu).sum(),
            cycles: jobs.iter().map(|j| j.cycles as f64).sum(),
            wall,
            cpu,
        });
        return Ok(run);
    }

    let half = args.seconds / 2.0;
    let (jobs, wall, _, _) = drive(&state, half, None, &mut run)?;
    let untraced = jobs.len() as f64 / wall;
    let (jobs, wall, t) = drive_layers(&mut state, half, &mut run)?;
    let n = jobs.len().max(1) as f64;
    run.set("bench.check_ms", t.total_ms("bench.check") / n);
    run.set("trace.cases", jobs.len() as f64);
    run.set("trace.unattributed_frac", t.unattributed_frac("case"));
    run.set(
        "trace.overhead_frac",
        overhead_frac(untraced, jobs.len() as f64 / wall),
    );

    let designs: Vec<ProbeDesign> = state
        .pool
        .iter()
        .map(|e| ProbeDesign {
            name: e.kernel.name.clone(),
            source: e.kernel.source.clone(),
            compile: e.kernel.compile.clone(),
            stimuli: e.inputs[0].0.stimuli.clone(),
        })
        .collect();
    let probe = probe(&designs, 1)?;
    probe.set_transform_split(&mut run);
    probe.set_front_end(&mut run);
    probe.set_level_run(&mut run);
    crate::write_traces(args, &t, &probe);
    Ok(run)
}

/// The `cache` and `serve` layers for another workload's traced run: the
/// serve-mix job mix drawn from `seed`, driven for `seconds` on a fresh
/// daemon. Every job is checked as in `serve-mix`.
pub fn layers(seed: u64, seconds: f64, run: &mut Run) -> Result<(), String> {
    let mut state = setup(seed)?;
    drive_layers(&mut state, seconds, run).map(|_| ())
}

/// Drives a fresh daemon, so it starts cold, traced for `seconds`, and
/// sets the `cache` and `serve` layer metrics from its stats and the
/// jobs' outcomes. Returns the jobs, the wall seconds and the spans.
fn drive_layers(
    state: &mut Setup,
    seconds: f64,
    run: &mut Run,
) -> Result<(Vec<Job>, f64, Tracer), String> {
    state.daemon = Daemon::boot()?;
    let (jobs, wall, _, tracer) = drive(state, seconds, Some(Instant::now()), run)?;
    let t = tracer.expect("traced drive returns spans");
    let stats = state.daemon.stats()?;
    let n = jobs.len().max(1) as f64;
    let run_ms: f64 = jobs.iter().map(|j| j.run_seconds).sum::<f64>() * 1e3 / n;
    let latency_ms: f64 = jobs.iter().map(|j| j.latency).sum::<f64>() * 1e3 / n;
    run.set("serve.run_ms", run_ms);
    run.set("serve.wait_ms", latency_ms - run_ms);
    let (hits, misses) = (
        stat(&stats, &["cache", "hits"]),
        stat(&stats, &["cache", "misses"]),
    );
    run.set("cache.hits", hits);
    run.set("cache.misses", misses);
    run.set("cache.evictions", stat(&stats, &["cache", "evictions"]));
    run.set("cache.hit_frac", hits / (hits + misses).max(1.0));
    run.set(
        "serve.rejected",
        stat(&stats, &["rejected"]) + stat(&stats, &["overloaded"]),
    );
    run.set("serve.worker_restarts", stat(&stats, &["worker_restarts"]));
    Ok((jobs, wall, t))
}
