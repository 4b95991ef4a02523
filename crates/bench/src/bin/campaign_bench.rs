//! Wall-clock gate for the sharded campaign runtime.
//!
//! Runs the mega-campaign workload — a fuzz campaign plus a fault
//! campaign — once at 1 shard and once at 4 shards, and a third leg
//! that isolates the *amortization* win: the fault campaign prepares
//! the design and the golden reference once, where a prepare-per-site
//! loop over the same sampled sites re-transforms the design and re-runs
//! the golden model for every injection.
//!
//! The gate is core-count-aware. With 4+ hardware threads the 4-shard
//! run must beat the 1-shard run by `--floor` (default 3×). On smaller
//! hosts (CI runners, 1-core containers) a parallel speedup is
//! physically impossible, so the gate flips to: 4 shards must not
//! regress past ~1.3× of 1 shard, and the prepare-once amortization
//! speedup must clear the floor instead. Either way the report records
//! every wall so the trend ledger can watch both numbers.
//!
//! Usage: `campaign_bench [--cases N] [--sites N] [--floor F]
//! [--out FILE] [--ledger FILE]`
//!
//! Defaults: 2000 fuzz cases, 512 fault sites, floor 3×,
//! `BENCH_campaign.json`.

use fpgafuzz::campaign::{
    run_campaign_sharded as run_fuzz_sharded, CampaignOptions as FuzzOptions,
    ShardedCampaignOptions as FuzzShardOptions,
};
use fpgatest::events::EventSink;
use fpgatest::faults::{
    run_campaign_sharded as run_faults_sharded, CampaignOptions as FaultOptions, FaultSpec,
    ShardedCampaignOptions as FaultShardOptions,
};
use fpgatest::flow::{run_design, Engine};
use fpgatest::ledger::{self, LedgerEntry};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::telemetry::Json;
use fpgatest::workloads;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const PIXELS: usize = 64;

fn fdct_case() -> TestCase {
    let mut case = TestCase::new("fdct1", workloads::fdct_source(PIXELS))
        .with_stimulus("img", Stimulus::from_values(workloads::test_image(PIXELS)));
    case.options.compile.width = 32;
    case
}

/// One full mega-campaign (fuzz + faults) at the given shard count;
/// returns (fuzz wall, faults wall).
fn mega_campaign(shards: usize, cases: u64, sites: usize) -> (f64, f64) {
    let fuzz = FuzzOptions {
        seed: 42,
        cases,
        max_ticks: 50_000,
        max_shrink_evals: 60,
        events: EventSink::disabled(),
        ..FuzzOptions::default()
    };
    let started = Instant::now();
    let outcome = run_fuzz_sharded(
        &fuzz,
        &FuzzShardOptions {
            shards,
            ..FuzzShardOptions::default()
        },
    )
    .expect("fuzz campaign");
    assert!(!outcome.interrupted);
    let fuzz_wall = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let outcome = run_faults_sharded(
        &fdct_case(),
        &FaultOptions {
            seed: 5,
            sites,
            engine: Engine::Batch,
            max_ticks: None,
            events: EventSink::disabled(),
        },
        &FaultShardOptions {
            shards,
            ..FaultShardOptions::default()
        },
    )
    .expect("fault campaign");
    assert!(!outcome.interrupted);
    (fuzz_wall, started.elapsed().as_secs_f64())
}

/// The prepare-per-site baseline: compile once, then run the whole flow
/// (transform, golden run, simulation, comparison) for every fault, with
/// the campaign's derived tick budget. Returns how many sites ran.
fn prepare_per_site(case: &TestCase, faults: &[FaultSpec]) -> usize {
    let program = nenya::lang::parse(&case.source).expect("fdct parses");
    let design =
        nenya::compile_program(&case.name, &program, &case.options.compile).expect("fdct compiles");
    let mut options = case.options.clone();
    options.engine = Engine::Level;
    options.keep_artifacts = false;
    let clean = run_design(&design, &case.stimuli, &options).expect("clean run");
    let clean_ticks: u64 = clean.runs.iter().map(|r| r.cycles * 10).sum();
    options.max_ticks = (clean_ticks * 5).max(50_000);
    for fault in faults {
        options.faults = vec![fault.clone()];
        // Verdicts are the campaign's business; only the cost counts here.
        let _ = run_design(&design, &case.stimuli, &options);
    }
    faults.len()
}

fn main() -> ExitCode {
    let mut cases = 2000u64;
    let mut sites = 512usize;
    let mut floor = 3.0f64;
    let mut out = PathBuf::from("BENCH_campaign.json");
    let mut ledger_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--cases" => cases = value("--cases").parse().expect("--cases: integer"),
            "--sites" => sites = value("--sites").parse().expect("--sites: integer"),
            "--floor" => floor = value("--floor").parse().expect("--floor: number"),
            "--out" => out = PathBuf::from(value("--out")),
            "--ledger" => ledger_out = Some(PathBuf::from(value("--ledger"))),
            other => {
                eprintln!("unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "campaign_bench: {cases} fuzz cases + {sites} fault sites, floor {floor:.2}x, {cores} cores"
    );

    let (fuzz_1, faults_1) = mega_campaign(1, cases, sites);
    let wall_1 = fuzz_1 + faults_1;
    println!("  1 shard:  {wall_1:.3}s (fuzz {fuzz_1:.3}s + faults {faults_1:.3}s)");
    let (fuzz_4, faults_4) = mega_campaign(4, cases, sites);
    let wall_4 = fuzz_4 + faults_4;
    println!("  4 shards: {wall_4:.3}s (fuzz {fuzz_4:.3}s + faults {faults_4:.3}s)");
    let shard_speedup = wall_1 / wall_4.max(1e-9);
    println!("  4-shard speedup: {shard_speedup:.2}x");

    // Amortization leg: the level engine has no lane batching, so the
    // gap between the campaign and a prepare-per-site loop over the very
    // sites it sampled is purely prepare-once (one transform, one golden
    // run) against re-transform-and-re-golden per site.
    let amortize_sites = sites.min(48);
    let started = Instant::now();
    let sharded = run_faults_sharded(
        &fdct_case(),
        &FaultOptions {
            seed: 5,
            sites: amortize_sites,
            engine: Engine::Level,
            max_ticks: None,
            events: EventSink::disabled(),
        },
        &FaultShardOptions {
            shards: 4,
            ..FaultShardOptions::default()
        },
    )
    .expect("sharded fault campaign");
    let sharded_wall = started.elapsed().as_secs_f64();
    let faults: Vec<FaultSpec> = sharded
        .report
        .injections
        .iter()
        .map(|record| record.fault.clone())
        .collect();
    let started = Instant::now();
    let per_site = prepare_per_site(&fdct_case(), &faults);
    let legacy_wall = started.elapsed().as_secs_f64();
    assert_eq!(
        per_site, amortize_sites,
        "both amortization legs classify the same sites"
    );
    let amortization = legacy_wall / sharded_wall.max(1e-9);
    println!(
        "  prepare-once amortization ({amortize_sites} level-engine sites): \
         {legacy_wall:.3}s per-site vs {sharded_wall:.3}s prepared = {amortization:.2}x"
    );

    let parallel_gate = cores >= 4;
    let (gate, gated_speedup) = if parallel_gate {
        ("4-shard parallel speedup", shard_speedup)
    } else {
        ("prepare-once amortization", amortization)
    };
    println!("  gate [{cores} cores]: {gate} {gated_speedup:.2}x vs floor {floor:.2}x");

    let mut report = Json::obj([
        ("schema", Json::from("fpgatest-bench-campaign-v1")),
        ("cores", Json::from(cores)),
        ("fuzz_cases", Json::from(cases)),
        ("fault_sites", Json::from(sites)),
        ("floor", Json::from(floor)),
        ("gate", Json::from(gate)),
        ("wall_1_shard", Json::from(wall_1)),
        ("wall_4_shards", Json::from(wall_4)),
        ("fuzz_wall_1_shard", Json::from(fuzz_1)),
        ("fuzz_wall_4_shards", Json::from(fuzz_4)),
        ("faults_wall_1_shard", Json::from(faults_1)),
        ("faults_wall_4_shards", Json::from(faults_4)),
        ("shard_speedup", Json::from(shard_speedup)),
        ("amortization_sites", Json::from(amortize_sites)),
        ("amortization_legacy_wall", Json::from(legacy_wall)),
        ("amortization_sharded_wall", Json::from(sharded_wall)),
        ("amortization_speedup", Json::from(amortization)),
    ]);
    report.sort_keys();
    if let Err(e) = std::fs::write(&out, report.emit_pretty()) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());

    if let Some(path) = &ledger_out {
        let mut entry = LedgerEntry::new("bench", "campaign:mega");
        entry.engine = "batch".to_string();
        entry.wall_seconds = wall_1 + wall_4;
        entry.passed = (cases as usize + sites) as u64 * 2;
        entry
            .counters
            .push(("shard_speedup".to_string(), shard_speedup));
        entry
            .counters
            .push(("amortization_speedup".to_string(), amortization));
        entry.counters.push(("cores".to_string(), cores as f64));
        if let Err(e) = ledger::append(path, &entry) {
            eprintln!("cannot append {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if gated_speedup < floor {
        eprintln!("FAIL: {gate} {gated_speedup:.2}x below floor {floor:.2}x");
        return ExitCode::FAILURE;
    }
    if !parallel_gate && wall_4 > wall_1 * 1.3 {
        eprintln!(
            "FAIL: 4-shard wall {wall_4:.3}s regresses past 1.3x of 1-shard {wall_1:.3}s \
             on a {cores}-core host"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
