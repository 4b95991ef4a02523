//! The `fpgafuzz` CLI.
//!
//! ```text
//! fpgafuzz run --seed 42 --cases 500 [--width 16] [--corpus DIR]
//!              [--inject branch-polarity|signal-fault] [--max-shrink-evals 500]
//! fpgafuzz gen --seed 42 --index 7 [--width 16]
//! fpgafuzz repro --seed 42 --index 7 [--width 16] [--inject ...]
//! ```
//!
//! Exit codes: 0 = clean, 1 = at least one divergence, 2 = usage or
//! generator error. Output is deterministic: same seed, same cases,
//! bit-identical bytes at any `--shards`. `repro` regenerates a case
//! with the bias a fresh `run` freezes, so it rebuilds the program the
//! campaign reported at that index.

use fpgafuzz::campaign::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgafuzz::coverage::{missing_ops, CoverageMap};
use fpgafuzz::distill::{distill, DistillOptions};
use fpgafuzz::exec::{run_case, CaseOutcome, ExecOptions, Injection};
use fpgafuzz::gen::{generate_case, Budget};
use fpgafuzz::shrink::{line_count, shrink};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fpgafuzz run --seed N --cases K [--width W] [--corpus DIR] \\
               [--inject branch-polarity|signal-fault] [--max-shrink-evals E] [--max-ticks T] \\
               [--events-out FILE|-] [--shards N] [--checkpoint FILE] \\
               [--checkpoint-every K] [--resume FILE] [--ledger FILE]
  fpgafuzz distill --corpus DIR [--width W] [--out DIR] [--max-ticks T]
  fpgafuzz gen --seed N --index I [--width W]
  fpgafuzz repro --seed N --index I [--width W] [--inject branch-polarity|signal-fault] [--max-ticks T]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fpgafuzz: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "run" => cmd_run(&flags),
        "distill" => cmd_distill(&flags),
        "gen" => cmd_gen(&flags),
        "repro" => cmd_repro(&flags),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let events = match flags.get("events-out") {
        None => fpgatest::events::EventSink::disabled(),
        Some(path) => fpgatest::events::EventSink::to_path(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?,
    };
    let opts = CampaignOptions {
        seed: flags.require_u64("seed")?,
        cases: flags.require_u64("cases")?,
        width: flags.u64_or("width", 16)? as u32,
        corpus_dir: flags.get("corpus").map(PathBuf::from),
        injection: flags.injection()?,
        max_shrink_evals: flags.u64_or("max-shrink-evals", 500)? as usize,
        max_ticks: flags.u64_or("max-ticks", 5_000_000)?,
        events,
    };
    let shard = ShardedCampaignOptions {
        shards: (flags.u64_or("shards", 1)? as usize).max(1),
        checkpoint: flags.get("checkpoint").map(PathBuf::from),
        checkpoint_every: flags.u64_or("checkpoint-every", 0)?,
        resume: flags.get("resume").map(PathBuf::from),
        stop: None,
        sigint: true,
    };
    let started = std::time::Instant::now();
    fpgatest::campaign::install_sigint();
    let outcome = run_campaign_sharded(&opts, &shard).map_err(|e| format!("campaign: {e}"))?;
    if let Some(note) = &outcome.salvage {
        eprintln!("fpgafuzz: {note}");
    }
    let report = outcome.report;
    print!("{}", report.log);
    if outcome.interrupted {
        eprintln!("fpgafuzz: interrupted; checkpoint holds the completed prefix");
        return Ok(ExitCode::from(130));
    }
    if let Some(path) = flags.get("ledger") {
        let wall = started.elapsed().as_secs_f64();
        let cases_per_sec = if wall > 0.0 {
            opts.cases as f64 / wall
        } else {
            0.0
        };
        let entry = fpgatest::ledger::LedgerEntry {
            engine: "fuzz".to_string(),
            wall_seconds: wall,
            passed: opts.cases - report.divergences as u64,
            failed: report.divergences as u64,
            counters: vec![
                ("shards".to_string(), shard.shards as f64),
                ("cases_per_sec".to_string(), cases_per_sec),
                ("new_keys".to_string(), report.new_keys as f64),
            ],
            ..fpgatest::ledger::LedgerEntry::new("fuzz", &format!("seed{}", opts.seed))
        };
        fpgatest::ledger::append(std::path::Path::new(path), &entry)
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
        eprintln!("ledger entry appended to {path}");
    }
    if report.divergences > 0 {
        Ok(ExitCode::from(1))
    } else if report.generator_errors > 0 {
        Ok(ExitCode::from(2))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_distill(flags: &Flags) -> Result<ExitCode, String> {
    let corpus = flags
        .get("corpus")
        .ok_or("--corpus is required for distill")?;
    let report = distill(&DistillOptions {
        corpus_dir: PathBuf::from(corpus),
        width: flags.u64_or("width", 16)? as u32,
        out_dir: flags.get("out").map(PathBuf::from),
        max_ticks: flags.u64_or("max-ticks", 5_000_000)?,
    })
    .map_err(|e| format!("distill: {e}"))?;
    print!("{}", report.log);
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.require_u64("seed")?;
    let index = flags.require_u64("index")?;
    let budget = Budget {
        width: flags.u64_or("width", 16)? as u32,
        ..Budget::default()
    };
    let case = generate_case(seed, index, &budget)?;
    print!("{}", case.source);
    for (mem, values) in &case.stimuli {
        let rendered: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        println!("// stimulus {mem}: {}", rendered.join(" "));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_repro(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.require_u64("seed")?;
    let index = flags.require_u64("index")?;
    let width = flags.u64_or("width", 16)? as u32;
    // The bias a fresh `fpgafuzz run` freezes, so case `index` is the
    // very program the campaign reported.
    let budget = Budget {
        width,
        op_bias: missing_ops(&CoverageMap::new()),
        ..Budget::default()
    };
    let exec = ExecOptions {
        injection: flags.injection()?,
        max_ticks: flags.u64_or("max-ticks", 5_000_000)?,
        ..ExecOptions::default()
    };
    let case = generate_case(seed, index, &budget)?;
    match run_case(&case, width, &exec) {
        CaseOutcome::Pass { coverage } => {
            println!("case {index}: PASS ({} coverage keys)", coverage.len());
            Ok(ExitCode::SUCCESS)
        }
        CaseOutcome::Divergence(d) => {
            println!(
                "case {index}: DIVERGENCE [{}] {:?}: {}",
                d.variant, d.kind, d.detail
            );
            let report = shrink(&case, width, &exec, 500);
            println!(
                "shrunk {} -> {} lines in {} evals:",
                line_count(&case),
                line_count(&report.case),
                report.evals
            );
            print!("{}", report.case.source);
            Ok(ExitCode::from(1))
        }
        CaseOutcome::GeneratorError(e) => {
            println!("case {index}: generator error: {e}");
            Ok(ExitCode::from(2))
        }
    }
}

/// Minimal `--flag value` parser (the container has no argument-parsing
/// crate, and the fuzzer's surface is small enough not to want one).
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{arg}'"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require_u64(&self, name: &str) -> Result<u64, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))?
            .parse()
            .map_err(|_| format!("--{name} must be an integer"))
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            Some(value) => value
                .parse()
                .map_err(|_| format!("--{name} must be an integer")),
            None => Ok(default),
        }
    }

    fn injection(&self) -> Result<Option<Injection>, String> {
        match self.get("inject") {
            None => Ok(None),
            Some("branch-polarity") => Ok(Some(Injection::BranchPolarity)),
            Some("signal-fault") => Ok(Some(Injection::SignalFault)),
            Some(other) => Err(format!(
                "unknown injection '{other}' (expected branch-polarity or signal-fault)"
            )),
        }
    }
}
