//! `perfbench` — the end-to-end and per-layer benchmark of the test flow.
//!
//! ```text
//! perfbench --workload <regress|fdct-level|faults-batch|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed` in set-up, measures for
//! `--seconds`, checks every output against an oracle, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed`, and the
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). The line before it carries the machine fingerprint. The exit
//! code is 0 when every output was correct, 1 on any mismatch or failed
//! case, and 2 when the run could not start. See README.md.

mod cpu;
mod faults;
mod fdct;
mod kernels;
mod pins;
mod probe;
mod regress;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
/// Times are CPU time of the process (see [`cpu`]).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cases_per_cpu_s", "1/s"),
    ("case_p50_cpu_ms", "ms"),
    ("case_p90_cpu_ms", "ms"),
    ("sim_mcycles_per_cpu_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.case_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("nenya.compile_ms", "ms"),
    ("nenya.operators", "count"),
    ("nenya.fsm_states", "count"),
    ("flow.prepare_ms", "ms"),
    ("xml.emit_ms", "ms"),
    ("xml.pretty_ms", "ms"),
    ("xml.lines", "count"),
    ("xform.hds_ms", "ms"),
    ("xform.behav_ms", "ms"),
    ("xform.dot_ms", "ms"),
    ("hds.parse_ms", "ms"),
    ("elaborate.fsm_table_ms", "ms"),
    ("flow.prepare_covered_frac", "ratio"),
    ("interp.golden_ms", "ms"),
    ("interp.instructions", "count"),
    ("flow.simulate_ms", "ms"),
    ("sim.cycles", "count"),
    ("kernel.events", "count"),
    ("kernel.evals", "count"),
    ("levelsim.build_ms", "ms"),
    ("levelsim.ns_per_cycle", "ns"),
    ("levelsim.evals", "count"),
    ("faults.enumerate_ms", "ms"),
    ("batchsim.call_ms", "ms"),
    ("batchsim.walk_ms", "ms"),
    ("batchsim.lanes_per_walk", "count"),
    ("batchsim.timeout_lanes", "count"),
    ("batchsim.ns_per_lane_cycle", "ns"),
    ("campaign.overhead_ms", "ms"),
    ("faults.detected", "count"),
    ("faults.silent", "count"),
    ("faults.hung", "count"),
    ("faults.crashed", "count"),
    ("faults.skipped", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_frac", "ratio"),
    ("serve.run_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.worker_restarts", "count"),
    ("bench.check_ms", "ms"),
    ("trace.cases", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// A run repeats its set-up at least `SETUP_REPEATS.0` times, and more
/// until `SETUP_CPU_SECONDS` of CPU time are spent or `SETUP_REPEATS.1`
/// repetitions ran; `setup_s` is the median. A set-up of a few
/// milliseconds varies by a third from one repetition to the next.
const SETUP_REPEATS: (usize, usize) = (5, 25);
const SETUP_CPU_SECONDS: f64 = 1.0;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Cases started.
    pub attempted: u64,
    /// Cases that errored, crashed, timed out, were refused, or whose
    /// output differed from its oracle.
    pub failed: u64,
    /// Oracle violations that are not tied to one case (a pinned digest
    /// or tally that moved).
    pub problems: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts for the fingerprint line (digests, pin status).
    pub notes: BTreeMap<&'static str, String>,
}

impl Run {
    /// Records a failed case, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// What an untraced measurement timed, in CPU seconds of the process,
/// turned into the end-to-end metrics by [`Run::set_end_to_end`].
#[derive(Default)]
pub struct Timed {
    /// Each set-up repetition, already scaled (see [`repeat_setup`]).
    pub setup: Vec<f64>,
    /// The factor the loop's CPU times are scaled by, and the reference
    /// timings it rests on (see [`cpu`]).
    pub scale: (f64, usize),
    /// Per case: its time to verdict (on `faults-batch`, its campaign's
    /// time per site).
    pub latencies: Vec<f64>,
    /// Verified cases finished.
    pub cases: f64,
    /// Time spent in the cases, the reference's timings left out.
    pub busy: f64,
    /// Simulated clock cycles over the loop.
    pub cycles: f64,
    /// Wall and CPU seconds of the whole loop, for the fingerprint.
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `unit(i)` for i = 0, 1, 2, ... until `seconds` of wall time are up
/// or `units` have run, timing the host-speed reference in between.
/// `unit(i)` returns the cases it finished and the clock cycles it
/// simulated; its CPU time per case is one latency sample.
pub fn measure_units(
    units: usize,
    seconds: f64,
    mut unit: impl FnMut(usize) -> (f64, f64),
) -> Timed {
    let mut timed = Timed::default();
    let from = cpu::reference_timings();
    let started = Instant::now();
    let cpu_started = cpu::process_seconds();
    for i in 0..units {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        cpu::sample_reference();
        let t0 = cpu::process_seconds();
        let (cases, cycles) = unit(i);
        let spent = cpu::process_seconds() - t0;
        timed.latencies.push(spent / cases.max(1.0));
        timed.cases += cases;
        timed.busy += spent;
        timed.cycles += cycles;
    }
    cpu::sample_reference();
    timed.cpu = cpu::process_seconds() - cpu_started;
    timed.wall = started.elapsed().as_secs_f64();
    timed.scale = cpu::speed_scale(from);
    timed
}

impl Run {
    pub fn set_end_to_end(&mut self, timed: &Timed) {
        let (scale, samples) = timed.scale;
        let mut latencies = timed.latencies.clone();
        latencies.sort_by(f64::total_cmp);
        let busy = timed.busy * scale;
        self.set("setup_s", median(&timed.setup));
        self.set("cases_per_cpu_s", timed.cases / busy);
        self.set("case_p50_cpu_ms", quantile(&latencies, 0.5) * scale * 1e3);
        self.set("case_p90_cpu_ms", quantile(&latencies, 0.9) * scale * 1e3);
        self.set("sim_mcycles_per_cpu_s", timed.cycles / busy / 1e6);
        self.notes
            .insert("latency_samples", latencies.len().to_string());
        self.notes.insert(
            "host_scale",
            format!("{scale:.4} from {samples} reference timings"),
        );
        self.notes.insert(
            "unscaled_cases_per_cpu_s",
            format!("{:.3}", timed.cases / timed.busy),
        );
        self.notes
            .insert("cpu_per_wall", format!("{:.3}", timed.cpu / timed.wall));
    }
}

/// Linear-interpolated quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Runs `setup` as [`SETUP_REPEATS`] says, keeping the last product and
/// the CPU seconds of every repetition, scaled by the reference timings
/// taken between the repetitions.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let from = cpu::reference_timings();
    let mut seconds: Vec<f64> = Vec::new();
    let mut last = None;
    while seconds.len() < SETUP_REPEATS.0
        || (seconds.len() < SETUP_REPEATS.1 && seconds.iter().sum::<f64>() < SETUP_CPU_SECONDS)
    {
        drop(last.take());
        cpu::sample_reference();
        let started = cpu::process_seconds();
        last = Some(setup()?);
        seconds.push(cpu::process_seconds() - started);
    }
    cpu::sample_reference();
    let (scale, _) = cpu::speed_scale(from);
    let seconds = seconds.iter().map(|s| s * scale).collect();
    Ok((last.expect("at least one set-up repetition"), seconds))
}

/// The tracing overhead: extra wall time per case of the traced loop over
/// the untraced loop on the same inputs.
pub fn overhead_frac(untraced_cases_per_s: f64, traced_cases_per_s: f64) -> f64 {
    if traced_cases_per_s > 0.0 {
        untraced_cases_per_s / traced_cases_per_s - 1.0
    } else {
        0.0
    }
}

/// Load-generator threads and connections may not outnumber the cores.
pub fn check_cores(wanted: usize, what: &str) -> Result<(), String> {
    let cores = cores();
    if wanted > cores {
        Err(format!(
            "{what} needs {wanted} threads but only {cores} cores are available; refusing to oversubscribe"
        ))
    } else {
        Ok(())
    }
}

/// Where results and span records go, inside the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Writes a traced run's spans: the timed loop's and the probe's.
pub fn write_traces(args: &Args, loop_spans: &trace::Tracer, probe: &probe::Probe) {
    let dir = std::path::Path::new(OUT_DIR);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let _ = loop_spans.write_jsonl(&dir.join(format!("{stem}-spans.jsonl")));
    let _ = probe.write(&dir.join(format!("{stem}-probe-spans.jsonl")));
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit; `unknown` outside a git checkout (git is not
/// asked then, so it does not search the directories above this one).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "regress" => regress::run(&args),
        "fdct-level" => fdct::run(&args),
        "faults-batch" => faults::run(&args),
        "serve-mix" => serve::run(&args),
        other => Err(format!(
            "unknown workload '{other}' (regress, fdct-level, faults-batch, serve-mix)"
        )),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    run.set("peak_rss_mb", peak_rss_mb());
    if run.attempted == 0 {
        run.problems.push("no case ran".to_string());
    }
    for problem in &run.problems {
        eprintln!("perfbench: {}: {problem}", args.workload);
    }
    let correct = run.failed == 0 && run.problems.is_empty();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = run.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let fail_frac = run.failed as f64 / run.attempted.max(1) as f64;
    let mut notes = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", json_num(args.seconds)),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"cores\": {}", cores()),
        format!(
            "\"profile\": {}",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            })
        ),
        format!("\"commit\": {}", json_str(&commit())),
        format!("\"fail_frac\": {}", json_num(fail_frac)),
    ];
    for (key, value) in &run.notes {
        notes.push(format!("{}: {}", json_str(key), json_str(value)));
    }
    let fingerprint = format!("{{\"fingerprint\": {{{}}}}}", notes.join(", "));
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    let out_dir = PathBuf::from(OUT_DIR);
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let _ = std::fs::write(file, format!("{fingerprint}\n{result}\n"));
    }
    println!("{fingerprint}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
