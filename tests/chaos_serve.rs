//! Chaos harness for the fault-tolerance layer: workers SIGKILLed
//! (panicked) mid-job by the deterministic `--chaos` hook, clients that
//! stall, flood, or speak garbage, queues pushed past their admission
//! bound, and checkpoints torn mid-write. The invariants under test:
//!
//! - the daemon stays up through all of it;
//! - every accepted job reaches **exactly one** terminal outcome;
//! - a resumed campaign is byte-identical to an uninterrupted one.

use fpgatest::events::EventSink;
use fpgatest::faults::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};
use fpgatest::flow::{Engine, Planted};
use fpgatest::serve::{Client, ClientError, JobSpec, ServeOptions, Server};
use fpgatest::stimulus::Stimulus;
use fpgatest::suite::TestCase;
use fpgatest::telemetry::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SCALE_SRC: &str = "mem inp[8]; mem out[8];
     void main() { int i; for (i = 0; i < 8; i = i + 1) { out[i] = inp[i] * 3; } }";

/// Seed 42 kills the worker on chaos ticks 3 and 7 (verified against
/// the SplitMix64 in `serve::chaos_maybe_kill_worker`), so a 12-job
/// burst is guaranteed to see at least two mid-job worker deaths.
const CHAOS_SEED: u64 = 42;

fn scale_job(name: &str) -> JobSpec {
    JobSpec::test(name, SCALE_SRC).stimulus("inp", Stimulus::from_values([1, 2, 3, 4, 5, 6, 7, 8]))
}

/// A job that hangs until its wall-clock watchdog: occupies a worker
/// for ~`wall_ms` and then finishes with the `timeout` verdict. The
/// planted hang parks the job thread forever, so the budget always
/// trips however fast the machine is.
fn hog_job(wall_ms: u64) -> JobSpec {
    let mut hog = scale_job("hog");
    hog.planted = Some(Planted::Hang);
    hog.wall_ms = Some(wall_ms);
    hog
}

/// Polls `stats` until the only worker has picked up the one accepted
/// job: `inflight` counts accepted jobs, so it must also have left the
/// queue.
fn wait_until_inflight(client: &mut Client) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if stat(&stats, "inflight") == 1 && stat(&stats, "queued") == 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no job went in flight"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn start_server(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", options).expect("bind test daemon");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn stat(stats: &Json, name: &str) -> u64 {
    stats
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats carries {name}: {}", stats.emit()))
}

/// A raw protocol connection, bypassing `Client` so tests can send
/// malformed frames and count response lines without interpretation.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let writer = TcpStream::connect(addr).expect("raw connect");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        RawConn { reader, writer }
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("raw write");
        self.writer.flush().expect("raw flush");
    }

    fn send_json(&mut self, json: &Json) {
        self.send_bytes(format!("{}\n", json.emit()).as_bytes());
    }

    /// Reads one response line; `None` means the server closed the
    /// connection. Panics after 60 s — a wedged daemon IS the failure.
    fn read_line(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("server speaks JSON")),
            Err(e) => panic!("daemon wedged: no response within the read timeout: {e}"),
        }
    }

    /// Asserts the next line is a typed `error` with `code`.
    fn expect_error(&mut self, code: &str) {
        let json = self.read_line().expect("error line before close");
        assert_eq!(json.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            json.get("code").and_then(Json::as_str),
            Some(code),
            "typed code: {}",
            json.emit()
        );
    }

    /// Asserts the server closed the connection. A reset counts: the
    /// server closing with unread bytes still in its receive buffer
    /// (a flood it refused to parse) surfaces as RST, not FIN.
    fn expect_eof(&mut self) {
        let mut rest = Vec::new();
        match self.reader.read_to_end(&mut rest) {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, got {n} more bytes"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("expected EOF, got error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker chaos: exactly-once terminal outcomes
// ---------------------------------------------------------------------------

/// With the chaos hook panicking workers mid-job, a 12-job burst still
/// delivers exactly one `job-finished` line per accepted id, every
/// verdict is `pass` (the supervisor requeues and a later attempt
/// succeeds), and the stats confirm the supervisor actually restarted
/// workers. Counted over the raw wire, not through `Client`, so a
/// duplicated or dropped terminal line cannot hide.
#[test]
fn chaos_worker_kills_preserve_exactly_one_terminal_outcome_per_job() {
    let (addr, server) = start_server(ServeOptions {
        workers: 2,
        retries: 2,
        backoff_base_ms: 1,
        chaos: Some(CHAOS_SEED),
        ..ServeOptions::default()
    });

    const JOBS: usize = 12;
    let mut conn = RawConn::connect(&addr);
    for i in 0..JOBS {
        conn.send_json(&Json::obj([
            ("type", Json::from("submit")),
            ("job", scale_job(&format!("chaos-{i}")).to_json()),
        ]));
    }

    // Read until every submission is both accepted and finished; a
    // fast worker can race its job-finished line ahead of the
    // dispatcher's job-accepted line, so neither count alone is enough.
    let mut accepted: Vec<u64> = Vec::new();
    let mut finished: HashMap<u64, String> = HashMap::new();
    while finished.len() < JOBS || accepted.len() < JOBS {
        let json = conn.read_line().expect("line before close");
        match json.get("type").and_then(Json::as_str) {
            Some("job-accepted") => {
                accepted.push(json.get("id").and_then(Json::as_u64).expect("id"));
            }
            Some("job-finished") => {
                let id = json.get("id").and_then(Json::as_u64).expect("id");
                let verdict = json
                    .get("verdict")
                    .and_then(Json::as_str)
                    .expect("verdict")
                    .to_string();
                let dup = finished.insert(id, verdict);
                assert!(dup.is_none(), "job {id} got a second terminal outcome");
            }
            other => panic!("unexpected response type {other:?}"),
        }
    }
    assert_eq!(accepted.len(), JOBS, "every submission was accepted");
    for id in &accepted {
        assert_eq!(
            finished.get(id).map(String::as_str),
            Some("pass"),
            "job {id} survived the chaos"
        );
    }

    let mut control = Client::connect(&addr).expect("connect control");
    let stats = control.stats().expect("stats");
    assert_eq!(stat(&stats, "submitted"), JOBS as u64);
    assert_eq!(stat(&stats, "finished"), JOBS as u64);
    assert_eq!(stat(&stats, "inflight"), 0);
    assert_eq!(stat(&stats, "queued"), 0);
    assert!(
        stat(&stats, "worker_restarts") >= 2,
        "seed {CHAOS_SEED} kills at least two workers in a 12-job burst: {}",
        stats.emit()
    );

    // The daemon is still healthy after the carnage (chaos stays on —
    // the supervisor absorbs any further kills too).
    let ok = control.run_job(&scale_job("post-chaos")).expect("post-chaos job");
    assert_eq!(ok.verdict, "pass");

    control.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A job whose every attempt crashes burns its retry budget and lands
/// in quarantine: typed `quarantined` verdict, the attempt count in the
/// outcome, and a `quarantined` entry in the stats.
#[test]
fn retry_exhaustion_quarantines_the_job() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        retries: 2,
        backoff_base_ms: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    let mut poison = scale_job("poison");
    poison.planted = Some(Planted::Panic);
    let outcome = client.run_job(&poison).expect("quarantine is terminal");
    assert_eq!(outcome.verdict, "quarantined");
    assert_eq!(outcome.exit_code, 3, "keeps the last failure's exit code");
    assert_eq!(outcome.attempts, 3, "retries 2 = three attempts");
    assert!(
        outcome.detail.contains("quarantined after 3 attempts"),
        "detail names the budget: {}",
        outcome.detail
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "retried"), 2);
    let quarantined = match stats.get("quarantined") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("stats carries the quarantined list, got {other:?}"),
    };
    assert_eq!(quarantined.len(), 1);
    assert_eq!(
        quarantined[0].get("id").and_then(Json::as_u64),
        Some(outcome.id)
    );

    // Quarantine poisons the job, not the daemon.
    let ok = client.run_job(&scale_job("after-poison")).expect("healthy job");
    assert_eq!(ok.verdict, "pass");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Hostile clients: deadlines, frame caps, protocol garbage
// ---------------------------------------------------------------------------

/// A client that sends half a request line and stalls gets the typed
/// `deadline` error and its connection closed — it cannot pin a
/// connection thread forever (slow-loris guard).
#[test]
fn stalled_partial_request_line_gets_the_deadline_error() {
    let (addr, server) = start_server(ServeOptions {
        read_deadline_ms: 150,
        ..ServeOptions::default()
    });

    let mut stall = RawConn::connect(&addr);
    stall.send_bytes(b"{\"type\":\"stat"); // no newline, ever
    stall.expect_error("deadline");
    stall.expect_eof();

    // The stall cost the daemon one connection thread, nothing more.
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.run_job(&scale_job("after-stall")).expect("job").verdict, "pass");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// A request line past the frame cap gets the typed `frame-too-long`
/// error and a closed connection — with or without a newline, so a
/// newline-free byte flood cannot grow the buffer without bound.
#[test]
fn oversized_request_lines_get_the_frame_too_long_error() {
    let (addr, server) = start_server(ServeOptions {
        max_line_len: 1024,
        ..ServeOptions::default()
    });

    // Oversized but newline-terminated.
    let mut terminated = RawConn::connect(&addr);
    let mut flood = vec![b'x'; 4096];
    flood.push(b'\n');
    terminated.send_bytes(&flood);
    terminated.expect_error("frame-too-long");
    terminated.expect_eof();

    // A newline-free flood trips the same cap from the buffer side.
    let mut unterminated = RawConn::connect(&addr);
    unterminated.send_bytes(&vec![b'y'; 4096]);
    unterminated.expect_error("frame-too-long");
    unterminated.expect_eof();

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.run_job(&scale_job("after-flood")).expect("job").verdict, "pass");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// Malformed JSON, structurally valid but unknown requests, and binary
/// garbage each get a typed `bad-request` error on the same connection,
/// and a well-formed job afterwards still succeeds.
#[test]
fn protocol_garbage_gets_typed_errors_and_the_daemon_keeps_serving() {
    let (addr, server) = start_server(ServeOptions::default());
    let mut conn = RawConn::connect(&addr);

    conn.send_bytes(b"{this is not json\n");
    conn.expect_error("bad-request");

    conn.send_json(&Json::obj([("type", Json::from("frobnicate"))]));
    conn.expect_error("bad-request");

    conn.send_json(&Json::obj([("no-type", Json::from(1u64))]));
    conn.expect_error("bad-request");

    conn.send_bytes(b"\x00\x01\xfe\xff\x80garbage\n");
    conn.expect_error("bad-request");

    // Same connection, well-formed request: still served.
    conn.send_json(&Json::obj([
        ("type", Json::from("submit")),
        ("job", scale_job("after-garbage").to_json()),
    ]));
    let accepted = conn.read_line().expect("accepted");
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("job-accepted")
    );
    let done = conn.read_line().expect("finished");
    assert_eq!(done.get("type").and_then(Json::as_str), Some("job-finished"));
    assert_eq!(done.get("verdict").and_then(Json::as_str), Some("pass"));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Backpressure: bounded admission and load shedding
// ---------------------------------------------------------------------------

/// With one worker occupied and the admission queue full, the next
/// submission gets the typed `overloaded` rejection; the accepted jobs
/// still finish normally.
#[test]
fn full_admission_queue_rejects_with_the_typed_overloaded_error() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        max_queue: 1,
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    let hog_id = client.submit(&hog_job(600)).expect("submit hog");
    wait_until_inflight(&mut client);
    let queued_id = client.submit(&scale_job("queued")).expect("fills the queue");

    match client.submit(&scale_job("rejected")) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "overloaded"),
        other => panic!("full queue must reject, got {other:?}"),
    }

    assert_eq!(client.wait(hog_id).expect("hog").verdict, "timeout");
    assert_eq!(client.wait(queued_id).expect("queued").verdict, "pass");
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "overloaded"), 1);
    assert_eq!(stat(&stats, "finished"), 2);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

/// The shed shutdown cancels the queue instead of running it: each
/// queued job still gets its terminal `job-finished` line (verdict
/// `cancelled`), the running job drains normally, and the ack reports
/// how many jobs were shed.
#[test]
fn shed_shutdown_cancels_queued_jobs_with_terminal_outcomes() {
    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut submitter = Client::connect(&addr).expect("connect submitter");

    let hog_id = submitter.submit(&hog_job(600)).expect("submit hog");
    wait_until_inflight(&mut submitter);
    let q1 = submitter.submit(&scale_job("shed-1")).expect("submit shed-1");
    let q2 = submitter.submit(&scale_job("shed-2")).expect("submit shed-2");

    let shedder = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut control = Client::connect(&addr).expect("connect shedder");
            control.shutdown_shed().expect("shed shutdown acknowledges")
        }
    });

    for id in [q1, q2] {
        let outcome = submitter.wait(id).expect("shed outcome");
        assert_eq!(outcome.verdict, "cancelled", "queued job was shed");
        assert_eq!(outcome.exit_code, 2);
        assert!(
            outcome.detail.contains("shed"),
            "detail says why: {}",
            outcome.detail
        );
    }
    assert_eq!(submitter.wait(hog_id).expect("hog").verdict, "timeout");

    let ack = shedder.join().expect("shedder thread");
    assert_eq!(ack.get("shed").and_then(Json::as_u64), Some(2));
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Client-side resilience: disconnects and resume-by-id
// ---------------------------------------------------------------------------

/// A client that vanishes mid-event-stream must not take the job with
/// it: the daemon's writes fail (EPIPE), the sink is muted, and the job
/// still reaches its normal terminal outcome — verdict, ledger line,
/// and stats all unchanged.
#[test]
fn client_disconnect_mid_stream_mutes_events_without_losing_the_job() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_epipe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ledger = dir.join("serve.ledger");

    let (addr, server) = start_server(ServeOptions {
        workers: 1,
        ledger: Some(ledger.clone()),
        ..ServeOptions::default()
    });

    let id = {
        let mut doomed = Client::connect(&addr).expect("connect doomed");
        let mut spec = scale_job("epipe");
        spec.events = true; // stream events at the connection that dies
        doomed.submit(&spec).expect("submit")
        // `doomed` drops here: the socket closes while the job runs.
    };

    // The job still finishes; poll its state from a second connection.
    let mut observer = Client::connect(&addr).expect("connect observer");
    let outcome = loop {
        match observer.result(id).expect("result") {
            Some(outcome) => break outcome,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert_eq!(outcome.verdict, "pass", "orphaned job completes normally");
    assert_eq!(outcome.attempts, 1);

    let stats = observer.stats().expect("stats");
    assert_eq!(stat(&stats, "submitted"), 1);
    assert_eq!(stat(&stats, "finished"), 1);

    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    assert!(
        text.contains("epipe") && text.contains("pass"),
        "ledger records the orphaned job's pass: {text}"
    );

    observer.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Losing the connection does not lose the job: after a severed socket,
/// `wait_or_resubmit` reconnects and recovers the terminal outcome via
/// the `result` replay; for an id the daemon never issued it falls back
/// to resubmitting the spec.
#[test]
fn severed_client_resumes_by_job_id_or_resubmits() {
    let (addr, server) = start_server(ServeOptions::default());
    let spec = scale_job("resume-me");

    // Resume path: the job finishes while the client is gone.
    let mut client = Client::connect(&addr).expect("connect");
    let id = client.submit(&spec).expect("submit");
    let mut observer = Client::connect(&addr).expect("connect observer");
    while observer.result(id).expect("poll").is_none() {
        std::thread::sleep(Duration::from_millis(20));
    }
    client.sever();
    let outcome = client.wait_or_resubmit(id, &spec).expect("resume by id");
    assert_eq!(outcome.id, id, "same job, replayed");
    assert_eq!(outcome.verdict, "pass");

    // Resubmit path: an id from "before the daemon restarted" draws the
    // unknown-job rejection, and the client transparently resubmits.
    client.sever();
    let outcome = client
        .wait_or_resubmit(id + 1_000_000, &spec)
        .expect("resubmit on unknown id");
    assert_eq!(outcome.verdict, "pass");
    assert_ne!(outcome.id, id + 1_000_000, "a fresh submission ran");

    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------------
// Checkpoint chaos: torn files, salvage, byte-identical resume
// ---------------------------------------------------------------------------

const CAMPAIGN_PROGRAM: &str = "mem inp[4]; mem out[4];
void main() { int i; for (i = 0; i < 4; i = i + 1) { out[i] = inp[i] * 2 + 1; } }";

fn campaign_case(name: &str) -> TestCase {
    TestCase::new(name, CAMPAIGN_PROGRAM).with_stimulus("inp", Stimulus::from_values([3, 1, 4, 1]))
}

fn campaign_options(sites: usize) -> CampaignOptions {
    CampaignOptions {
        seed: 5,
        sites,
        engine: Engine::Event,
        max_ticks: None,
        events: EventSink::disabled(),
    }
}

/// Records as comparable `(fault, outcome, detail)` strings.
fn record_strings(report: &fpgatest::faults::CampaignReport) -> Vec<(String, String, String)> {
    report
        .injections
        .iter()
        .map(|r| (r.fault.to_string(), r.outcome.to_string(), r.detail.clone()))
        .collect()
}

/// Kill a sharded campaign mid-run, tear its checkpoint (trailing
/// garbage — a torn concurrent write), then `--resume`: the salvage
/// loader recovers the longest valid prefix and the finished campaign
/// is byte-identical to an uninterrupted reference run.
#[test]
fn torn_checkpoint_salvages_and_resumes_byte_identical() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_torn_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let checkpoint = dir.join("faults.ckpt");

    let case = campaign_case("tornckpt");
    let reference = run_campaign_sharded(
        &case,
        &campaign_options(48),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("reference run");
    assert!(!reference.interrupted);

    // Interrupt mid-campaign via the cooperative stop flag.
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign_options(48),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("interrupted run");
    timer.join().expect("timer thread");

    let final_records = if !first.interrupted {
        // Outran the timer: the run is its own uninterrupted comparison.
        record_strings(&first.report)
    } else {
        // Tear the checkpoint the way a dying writer would: valid JSON
        // followed by garbage bytes. (The interrupt can land before the
        // first save; then there is nothing to tear and the rerun is a
        // plain full campaign.)
        let torn = checkpoint.exists();
        if torn {
            let mut bytes = std::fs::read(&checkpoint).expect("read checkpoint");
            bytes.extend_from_slice(b"\xff\xfe{{{ torn mid-write");
            std::fs::write(&checkpoint, &bytes).expect("tear checkpoint");
        }
        let resumed = run_campaign_sharded(
            &case,
            &campaign_options(48),
            &ShardedCampaignOptions {
                shards: 2,
                resume: torn.then(|| checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .expect("salvage + resume");
        assert!(!resumed.interrupted);
        if torn {
            assert!(resumed.resumed > 0, "the salvaged prefix was reused");
            assert!(
                resumed.salvage.is_some(),
                "the torn checkpoint was reported as salvaged"
            );
        }
        record_strings(&resumed.report)
    };
    assert_eq!(
        record_strings(&reference.report),
        final_records,
        "resumed campaign is byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating the primary checkpoint to half its bytes (no garbage, a
/// clean torn tail) falls back to the previous generation and still
/// resumes to the reference bytes.
#[test]
fn truncated_checkpoint_falls_back_to_the_previous_generation() {
    let dir = std::env::temp_dir().join("fpgatest_chaos_truncated_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let checkpoint = dir.join("faults.ckpt");

    let case = campaign_case("truncckpt");
    let reference = run_campaign_sharded(
        &case,
        &campaign_options(32),
        &ShardedCampaignOptions {
            shards: 2,
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("reference run");

    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };
    let first = run_campaign_sharded(
        &case,
        &campaign_options(32),
        &ShardedCampaignOptions {
            shards: 2,
            checkpoint: Some(checkpoint.clone()),
            checkpoint_every: 1,
            stop: Some(stop),
            ..ShardedCampaignOptions::default()
        },
    )
    .expect("interrupted run");
    timer.join().expect("timer thread");

    let final_records = if !first.interrupted {
        // Outran the timer: the run is its own uninterrupted comparison.
        record_strings(&first.report)
    } else {
        // The save cadence can lag the merge count, so the interrupt
        // may land before a second generation exists; only truncate
        // when there is a `.prev` to fall back to. (The exhaustive
        // every-byte-boundary truncation matrix lives in the campaign
        // unit tests.)
        let torn = checkpoint.with_extension("prev").exists();
        if torn {
            let bytes = std::fs::read(&checkpoint).expect("read checkpoint");
            std::fs::write(&checkpoint, &bytes[..bytes.len() / 2]).expect("truncate");
        }
        let resumed = run_campaign_sharded(
            &case,
            &campaign_options(32),
            &ShardedCampaignOptions {
                shards: 2,
                resume: checkpoint.exists().then(|| checkpoint.clone()),
                ..ShardedCampaignOptions::default()
            },
        )
        .expect("fallback + resume");
        assert!(!resumed.interrupted);
        if torn {
            assert!(
                resumed.salvage.is_some(),
                "the fallback generation was reported"
            );
        }
        record_strings(&resumed.report)
    };
    assert_eq!(record_strings(&reference.report), final_records);
    let _ = std::fs::remove_dir_all(&dir);
}
