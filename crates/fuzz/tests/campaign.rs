//! End-to-end tests of the fuzzing campaign: determinism, the planted
//! branch-polarity bug being caught and shrunk small, corpus
//! persistence, and `fpgafuzz repro` rebuilding what `run` reported.

use fpgafuzz::campaign::{
    run_campaign_sharded, CampaignOptions, CampaignReport, ShardedCampaignOptions,
};
use fpgafuzz::exec::Injection;
use fpgafuzz::shrink::line_count;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs a campaign on one shard, the CLI's default.
fn run_one_shard(opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
    let shard = ShardedCampaignOptions {
        shards: 1,
        ..ShardedCampaignOptions::default()
    };
    run_campaign_sharded(opts, &shard).map(|outcome| outcome.report)
}

fn quick(seed: u64, cases: u64) -> CampaignOptions {
    CampaignOptions {
        seed,
        cases,
        // A small watchdog: the planted bug can loop the FSM forever, and
        // the timeout is then the divergence signal.
        max_ticks: 50_000,
        ..CampaignOptions::default()
    }
}

#[test]
fn fresh_campaigns_are_bit_identical() {
    let opts = quick(7, 40);
    let a = run_one_shard(&opts).unwrap();
    let b = run_one_shard(&opts).unwrap();
    assert_eq!(a.log, b.log);
    assert_eq!(a.divergences, 0, "clean compiler must not diverge:\n{}", a.log);
    assert_eq!(a.generator_errors, 0, "generator must emit valid cases:\n{}", a.log);
    assert!(a.coverage.len() > 10, "a run this size covers many keys");
}

#[test]
fn injected_branch_polarity_is_caught_and_shrunk() {
    let opts = CampaignOptions {
        injection: Some(Injection::BranchPolarity),
        ..quick(42, 20)
    };
    let report = run_one_shard(&opts).unwrap();
    assert!(
        report.divergences > 0,
        "the planted bug must be detected:\n{}",
        report.log
    );
    let smallest = report
        .shrunk
        .iter()
        .map(line_count)
        .min()
        .expect("at least one shrunk case");
    assert!(
        smallest <= 10,
        "expected a shrunk case of <= 10 source lines, got {smallest}:\n{}",
        report.log
    );
}

#[test]
fn injected_signal_fault_is_never_a_clean_pass() {
    use fpgafuzz::exec::{run_case, signal_fault_for, CaseOutcome, ExecOptions};
    use fpgafuzz::gen::{generate_case, Budget};

    let budget = Budget {
        width: 16,
        ..Budget::default()
    };
    let exec = ExecOptions {
        max_ticks: 50_000,
        injection: Some(Injection::SignalFault),
        ..ExecOptions::default()
    };
    let mut faulted = 0;
    for index in 0..8 {
        let case = generate_case(11, index, &budget).expect("generator emits a valid case");
        match run_case(&case, 16, &exec) {
            // A fault-injected run must never come back as Pass; the
            // only clean Pass allowed is a design with nothing to fault.
            CaseOutcome::Pass { .. } => {
                let compile = nenya::CompileOptions {
                    width: 16,
                    ..nenya::CompileOptions::default()
                };
                let name = format!("fuzz_11_{index}");
                let design = nenya::compile_program(&name, &case.program, &compile).unwrap();
                assert!(
                    signal_fault_for(&design, index).is_none(),
                    "case {index} passed despite a faultable memory"
                );
            }
            CaseOutcome::Divergence(_) => faulted += 1,
            CaseOutcome::GeneratorError(e) => panic!("case {index}: generator error: {e}"),
        }
    }
    assert!(
        faulted > 0,
        "at least one case in the batch must carry a detected fault"
    );
}

#[test]
fn corpus_accumulates_coverage_across_runs() {
    let dir = std::env::temp_dir().join("fpgafuzz_campaign_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        corpus_dir: Some(dir.clone()),
        ..quick(9, 25)
    };
    let first = run_one_shard(&opts).unwrap();
    assert!(first.new_keys > 0);
    assert!(dir.join("coverage.txt").is_file());
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_some(),
        "coverage-increasing cases are saved"
    );
    // A second run starts from the saved map. Its generation is biased
    // differently (the missing-operator set shrank), so it may still add
    // the odd key, but coverage only grows and mostly saturates.
    let second = run_one_shard(&opts).unwrap();
    assert!(second.new_keys <= first.new_keys / 2);
    assert!(second.coverage.len() >= first.coverage.len());
    assert_eq!(
        std::fs::read_to_string(dir.join("coverage.txt")).unwrap(),
        second.coverage.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fpgafuzz repro` regenerates a case with the bias a fresh `run`
/// freezes, so every divergence a campaign reports reproduces verbatim
/// at its index.
#[test]
fn every_reported_divergence_reproduces_verbatim() {
    let fpgafuzz = env!("CARGO_BIN_EXE_fpgafuzz");
    let planted = ["--inject", "branch-polarity", "--max-ticks", "50000"];
    let run = Command::new(fpgafuzz)
        .args(["run", "--seed", "42", "--cases", "40"])
        .args(planted)
        .output()
        .expect("fpgafuzz run starts");
    assert_eq!(run.status.code(), Some(1), "the planted bug diverges");
    let log = String::from_utf8(run.stdout).expect("utf-8 log");
    let divergences: Vec<&str> = log
        .lines()
        .filter(|l| l.contains(": DIVERGENCE "))
        .collect();
    assert!(!divergences.is_empty(), "no divergence in:\n{log}");
    for line in divergences {
        let index = line
            .strip_prefix("case ")
            .and_then(|rest| rest.split(':').next())
            .expect("case N: prefix");
        // The verdict line comes before the shrink; stop reading there.
        let mut repro = Command::new(fpgafuzz)
            .args(["repro", "--seed", "42", "--index", index])
            .args(planted)
            .stdout(Stdio::piped())
            .spawn()
            .expect("fpgafuzz repro starts");
        let mut first = String::new();
        BufReader::new(repro.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("repro prints a verdict line");
        let _ = repro.kill();
        let _ = repro.wait();
        assert_eq!(first.trim_end(), line, "case {index} does not reproduce");
    }
}
