//! End-to-end checks of the observability layer: the `--metrics-out`
//! JSON agrees with the printed Table I, the span tree covers every
//! pipeline stage, and `--baseline` prints deltas without changing the
//! verdict.

use fpgatest::flow::TestFlow;
use fpgatest::stimulus::Stimulus;
use fpgatest::telemetry::{suite_json, Json, Recorder};
use std::path::PathBuf;
use std::process::Command;

const PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpgatest_telemetry_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fpgatest(dir: &PathBuf, args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_fpgatest"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("fpgatest runs");
    (
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
        output.status.success(),
    )
}

/// All span names in the report, tree-flattened.
fn span_names(report: &Json) -> Vec<String> {
    fn walk(spans: &[Json], acc: &mut Vec<String>) {
        for span in spans {
            if let Some(name) = span.get("name").and_then(Json::as_str) {
                acc.push(name.to_string());
            }
            if let Some(children) = span.get("children").and_then(Json::as_array) {
                walk(children, acc);
            }
        }
    }
    let mut acc = Vec::new();
    if let Some(spans) = report.get("spans").and_then(Json::as_array) {
        walk(spans, &mut acc);
    }
    acc
}

#[test]
fn metrics_json_matches_printed_table() {
    let dir = workdir("table");
    std::fs::write(dir.join("prog.src"), PROGRAM).unwrap();
    std::fs::write(dir.join("inp.stim"), "0: 1\n1: 2\n2: 3\n3: 4\n").unwrap();

    let (stdout, stderr, ok) = fpgatest(
        &dir,
        &[
            "test",
            "prog.src",
            "--stimulus",
            "inp=inp.stim",
            "--metrics-out",
            "m.json",
            "--trace-log",
            "t.jsonl",
            "--verbose",
        ],
    );
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("PASS"), "{stdout}");

    let report = Json::parse(&std::fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
    assert_eq!(report.get("schema").unwrap().as_str(), Some("fpgatest-metrics-v1"));
    assert_eq!(
        report.get("suite").unwrap().get("passed").unwrap().as_u64(),
        Some(1)
    );

    let design = &report.get("designs").unwrap().as_array().unwrap()[0];
    assert_eq!(design.get("design").unwrap().as_str(), Some("prog"));
    assert_eq!(design.get("status").unwrap().as_str(), Some("pass"));
    let config = &design.get("configs").unwrap().as_array().unwrap()[0];
    let events = config.get("events").unwrap().as_u64().unwrap();
    let sim_seconds = config.get("sim_seconds").unwrap().as_f64().unwrap();
    assert!(events > 0);

    // The verbose Table I row for this design must show the same numbers
    // the JSON carries.
    let row = stdout
        .lines()
        .find(|l| l.starts_with("prog "))
        .unwrap_or_else(|| panic!("no table row in:\n{stdout}"));
    assert!(
        row.contains(&events.to_string()),
        "events {events} not in row: {row}"
    );
    assert!(
        row.contains(&format!("{sim_seconds:.4}")),
        "sim_seconds {sim_seconds:.4} not in row: {row}"
    );

    // Kernel counters surfaced from eventsim.
    let kernel = config.get("kernel").unwrap();
    assert_eq!(kernel.get("events").unwrap().as_u64(), Some(events));
    assert!(kernel.get("delta_cycles").unwrap().as_u64().unwrap() > 0);
    assert!(kernel.get("max_queue_depth").unwrap().as_u64().unwrap() > 0);
    let hot = config.get("hot_components").unwrap().as_array().unwrap();
    assert!(!hot.is_empty());
    assert!(hot[0].get("activations").unwrap().as_u64().unwrap() > 0);

    // Span tree covers every pipeline stage.
    let names = span_names(&report);
    for stage in [
        "flow.parse",
        "flow.lower",
        "flow.transform",
        "flow.elaborate",
        "flow.compare",
    ] {
        assert!(names.iter().any(|n| n == stage), "{stage} missing: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("flow.simulate.")),
        "{names:?}"
    );

    // The JSONL trace log parses line by line.
    let jsonl = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    assert!(jsonl.lines().count() >= 6);
    for line in jsonl.lines() {
        let entry = Json::parse(line).unwrap();
        assert_eq!(entry.get("type").unwrap().as_str(), Some("span"));
    }
}

#[test]
fn baseline_prints_deltas_without_changing_verdict() {
    let dir = workdir("baseline");
    std::fs::write(dir.join("prog.src"), PROGRAM).unwrap();
    std::fs::write(dir.join("inp.stim"), "0: 1\n1: 2\n2: 3\n3: 4\n").unwrap();
    let args = ["test", "prog.src", "--stimulus", "inp=inp.stim"];

    let (first_out, _, ok) = fpgatest(
        &dir,
        &[&args[..], &["--metrics-out", "m.json"]].concat(),
    );
    assert!(ok, "{first_out}");

    let (second_out, stderr, ok) =
        fpgatest(&dir, &[&args[..], &["--baseline", "m.json"]].concat());
    assert!(ok, "stdout:\n{second_out}\nstderr:\n{stderr}");
    assert!(second_out.contains("PASS"), "{second_out}");
    assert!(second_out.contains("timing vs baseline:"), "{second_out}");
    assert!(second_out.contains("prog"), "{second_out}");
    assert!(second_out.contains("total"), "{second_out}");
}

#[test]
fn test_subcommand_accepts_a_manifest() {
    let dir = workdir("manifest");
    std::fs::write(dir.join("a.src"), PROGRAM).unwrap();
    std::fs::write(dir.join("inp.stim"), "0: 5\n1: 6\n2: 7\n3: 8\n").unwrap();
    std::fs::write(
        dir.join("suite.manifest"),
        "case a\n  source a.src\n  stimulus inp inp.stim\ncase b\n  source a.src\n  stimulus inp inp.stim\n",
    )
    .unwrap();

    let (stdout, stderr, ok) = fpgatest(
        &dir,
        &["test", "suite.manifest", "--metrics-out", "m.json"],
    );
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("2 passed"), "{stdout}");

    let report = Json::parse(&std::fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
    let designs = report.get("designs").unwrap().as_array().unwrap();
    assert_eq!(designs.len(), 2);
    // Each case's flow spans nest under its case.<name> span.
    let names = span_names(&report);
    assert!(names.iter().any(|n| n == "case.a"), "{names:?}");
    assert!(names.iter().any(|n| n == "case.b"), "{names:?}");
}

#[test]
fn library_report_agrees_with_flow_results() {
    let mut recorder = Recorder::new();
    let report = TestFlow::new("lib", PROGRAM)
        .stimulus("inp", Stimulus::from_values([9, 9, 9, 9]))
        .run_recorded(&mut recorder)
        .unwrap();
    assert!(report.passed);
    assert_eq!(report.runs[0].kernel.events, report.runs[0].summary.events);
    assert!(!report.runs[0].hot_components.is_empty());
    // Histogram is sorted descending.
    let counts: Vec<u64> = report.runs[0]
        .hot_components
        .iter()
        .map(|(_, n)| *n)
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));

    let suite = fpgatest::suite::SuiteReport {
        results: vec![(
            "lib".to_string(),
            fpgatest::suite::CaseResult::Finished(report),
        )],
    };
    let json = suite_json(&suite, &recorder);
    let text = json.emit_pretty();
    let reparsed = Json::parse(&text).unwrap();
    assert_eq!(reparsed, json, "report JSON must round-trip");
    let design = &reparsed.get("designs").unwrap().as_array().unwrap()[0];
    let config = &design.get("configs").unwrap().as_array().unwrap()[0];
    let events_json = config.get("events").unwrap().as_u64().unwrap();
    match &suite.results[0].1 {
        fpgatest::suite::CaseResult::Finished(r) => {
            assert_eq!(events_json, r.runs[0].summary.events);
        }
        _ => unreachable!(),
    }
}

/// Every compiled engine's step phases tile its simulate span: on a
/// small FDCT the phase times sum to at least 95% of the
/// `flow.simulate.<config>` span (and never exceed it), and profiling
/// leaves cycles and evaluation counts bit-identical.
#[test]
fn compiled_engine_phases_cover_the_simulate_span() {
    use fpgatest::flow::{Engine, FlowOptions};
    use fpgatest::workloads;
    use nenya::CompileOptions;

    const PIXELS: usize = 64;
    for engine in [Engine::Cycle, Engine::Level, Engine::Batch] {
        let flow = |profile: bool| {
            TestFlow::new("fdct1", workloads::fdct_source(PIXELS))
                .with_options(FlowOptions {
                    compile: CompileOptions {
                        width: 32,
                        ..CompileOptions::default()
                    },
                    engine,
                    profile,
                    ..FlowOptions::default()
                })
                .stimulus("img", Stimulus::from_values(workloads::test_image(PIXELS)))
        };
        let plain = flow(false).run().expect("plain flow runs");
        let mut recorder = Recorder::new();
        let profiled = flow(true).run_recorded(&mut recorder).expect("profiled flow runs");
        assert!(plain.passed && profiled.passed, "{engine}: FDCT passes");
        assert_eq!(plain.runs.len(), profiled.runs.len());
        for (p, q) in plain.runs.iter().zip(&profiled.runs) {
            assert_eq!(p.cycles, q.cycles, "{engine}: profiling changed cycles");
            assert_eq!(p.kernel, q.kernel, "{engine}: profiling changed counters");
            let profile = q.profile.as_ref().expect("profile collected");
            assert_eq!(profile.engine, engine);
            let phases: Vec<&str> = profile.phases.iter().map(|ph| ph.phase.as_str()).collect();
            assert!(
                phases.starts_with(&["flips_reset", "settle", "reg_sample", "sram", "fsm"]),
                "{engine}: phases {phases:?}"
            );
            let phase_seconds =
                profile.phases.iter().map(|ph| ph.nanos).sum::<u64>() as f64 / 1e9;
            let span = recorder
                .find(&format!("flow.simulate.{}", q.name))
                .expect("simulate span recorded");
            let covered = phase_seconds / span.wall_seconds;
            assert!(
                (0.95..=1.0).contains(&covered),
                "{engine}: phases cover {:.1}% of the {:.3} ms simulate span",
                covered * 100.0,
                span.wall_seconds * 1e3
            );
        }
    }
}
