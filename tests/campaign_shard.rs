//! Property tests of the sharded fault-campaign runtime: at any shard
//! count the merged records and the deterministic event stream are
//! byte-identical, the batch engine's records equal the level engine's
//! site for site, and a stop-flag interrupt plus resume reproduces the
//! uninterrupted run exactly.

use fpgatest::events::EventSink;
use fpgatest::faults::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgatest::flow::Engine;
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn passing_case(name: &str) -> TestCase {
    TestCase::new(name, PROGRAM).with_stimulus("inp", Stimulus::from_values([3, 1, 4, 1]))
}

fn campaign(engine: Engine, sites: usize, events: EventSink) -> CampaignOptions {
    CampaignOptions {
        seed: 5,
        sites,
        engine,
        max_ticks: None,
        events,
    }
}

/// One injection as comparable `(fault, outcome, detail)` strings.
type RecordStrings = Vec<(String, String, String)>;

/// Records as comparable `(fault, outcome, detail)` strings.
fn record_strings(report: &fpgatest::faults::CampaignReport) -> RecordStrings {
    report
        .injections
        .iter()
        .map(|r| (r.fault.to_string(), r.outcome.to_string(), r.detail.clone()))
        .collect()
}

#[test]
fn sharded_records_and_events_are_identical_at_every_shard_count() {
    let mut level_records = RecordStrings::new();
    for engine in [Engine::Event, Engine::Level, Engine::Batch] {
        let case = passing_case("shardmerge");
        let mut reference: Option<(RecordStrings, String)> = None;
        for shards in [1usize, 2, 4] {
            let (sink, captured) = EventSink::capture();
            let outcome = run_campaign_sharded(
                &case,
                &campaign(engine, 40, sink),
                &ShardedCampaignOptions {
                    shards,
                    ..ShardedCampaignOptions::default()
                },
            )
            .unwrap();
            assert!(!outcome.interrupted);
            // The cross-engine contract: every batch lane classifies its
            // site exactly as a level-engine run does.
            match engine {
                Engine::Level => level_records = record_strings(&outcome.report),
                Engine::Batch => assert_eq!(
                    level_records,
                    record_strings(&outcome.report),
                    "batch at {shards} shards diverges from the level engine"
                ),
                _ => {}
            }
            let snapshot = (record_strings(&outcome.report), captured.text());
            match &reference {
                None => reference = Some(snapshot),
                Some(reference) => {
                    assert_eq!(reference.0, snapshot.0, "{engine:?} records differ at {shards}");
                    assert_eq!(reference.1, snapshot.1, "{engine:?} events differ at {shards}");
                }
            }
        }
    }
}

#[test]
fn stop_flag_interrupt_then_resume_matches_the_uninterrupted_campaign() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("faults.ckpt");

    let case = passing_case("shardresume");
    let (sink, reference_events) = EventSink::capture();
    let reference = run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 48, sink),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    assert!(!reference.interrupted);

    // The timer's cut point is scheduling-dependent; whatever prefix
    // lands in the checkpoint, resuming must finish to the same bytes.
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 48, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();
    timer.join().unwrap();

    let (final_records, final_events) = if first.interrupted {
        let text = std::fs::read_to_string(&checkpoint).unwrap();
        assert!(
            text.contains("\"schema\": \"fpgatest-checkpoint-v1\"")
                || text.contains("\"schema\":\"fpgatest-checkpoint-v1\""),
            "checkpoint file carries the fpgatest-checkpoint-v1 schema tag:\n{text}"
        );
        let (sink, resumed_events) = EventSink::capture();
        let resumed = run_campaign_sharded(
            &case,
            &campaign(Engine::Event, 48, sink),
            &ShardedCampaignOptions {
                shards: 2,
                resume: Some(checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert!(resumed.resumed > 0, "checkpoint held completed injections");
        (record_strings(&resumed.report), resumed_events.text())
    } else {
        // Outran the timer: the run is its own uninterrupted comparison.
        (record_strings(&first.report), String::new())
    };
    assert_eq!(record_strings(&reference.report), final_records);
    if !final_events.is_empty() {
        assert_eq!(reference_events.text(), final_events);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_campaign() {
    let dir = std::env::temp_dir().join("fpgatest_campaign_shard_mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("cp.json");

    let case = passing_case("shardid");
    run_campaign_sharded(
        &case,
        &campaign(Engine::Event, 12, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap();

    // Same checkpoint, different design name: the identity check refuses.
    let other = passing_case("shardid-other");
    let err = run_campaign_sharded(
        &other,
        &campaign(Engine::Event, 12, EventSink::disabled()),
        &ShardedCampaignOptions {
            shards: 2,
            resume: Some(checkpoint),
            ..ShardedCampaignOptions::default()
        },
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("checkpoint"),
        "mismatch error names the checkpoint: {message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
