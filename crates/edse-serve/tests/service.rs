//! Service-level tests: shared-cache multi-tenancy, per-job budgets,
//! cancellation within one batch with resumable snapshots, scheduler
//! robustness under a random pause/resume/cancel storm, determinism of a
//! paused-and-resumed job against a straight-through run, and HTTP
//! smokes over a real socket (including hostile request bodies).

use edse_core::evaluate::EvalEngine;
use edse_core::{CancelToken, DiskCache, JobSpec, StepOutcome};
use edse_serve::driver::build_driver;
use edse_serve::jobs::{JobState, Registry};
use edse_serve::server::Server;
use edse_telemetry::json::{self, Json};
use edse_telemetry::Collector;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edse-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn toy_spec(technique: &str, budget: usize, seed: u64) -> JobSpec {
    JobSpec {
        technique: technique.to_string(),
        budget,
        seed,
        space: "toy".to_string(),
        mapper: "fixed".to_string(),
        ..JobSpec::default()
    }
}

/// Runs a spec straight through on a standalone driver (no scheduler)
/// and returns its final summary document.
fn run_straight(spec: &JobSpec, engine: EvalEngine) -> Json {
    let mut driver = build_driver(
        spec,
        engine,
        None,
        None,
        Collector::noop(),
        CancelToken::new(),
    )
    .expect("build driver");
    for _ in 0..100_000 {
        match driver.step() {
            StepOutcome::Pending => continue,
            StepOutcome::Done => return driver.finish(),
            StepOutcome::Cancelled => panic!("uncancelled driver reported Cancelled"),
        }
    }
    panic!("driver never finished");
}

#[test]
fn concurrent_jobs_share_disk_cache_with_private_budgets() {
    let dir = scratch_dir("shared");
    let disk = Arc::new(DiskCache::open_with(dir.join("cache"), Collector::noop()).expect("disk"));
    let registry = Registry::new(EvalEngine::serial(), Some(disk), None, Collector::noop());
    let workers = registry.spawn_workers(3);

    let a = registry
        .submit(toy_spec("explainable", 12, 7))
        .expect("submit a");
    let b = registry
        .submit(toy_spec("random", 10, 7))
        .expect("submit b");
    assert_eq!(registry.wait_terminal(a), Some(JobState::Completed));
    assert_eq!(registry.wait_terminal(b), Some(JobState::Completed));

    let status_a = registry.status(a).expect("status a");
    let status_b = registry.status(b).expect("status b");
    // Budgets are per job even though the disk tier is shared: the random
    // baseline counts exactly its own trace; the explainable run counts
    // its own unique evaluations.
    assert_eq!(
        status_b.get("evaluations").and_then(Json::as_f64),
        Some(10.0)
    );
    let evals_a = status_a
        .get("evaluations")
        .and_then(Json::as_f64)
        .expect("evals a");
    assert!(
        evals_a > 0.0 && evals_a <= 12.0,
        "explainable evals {evals_a}"
    );
    for status in [&status_a, &status_b] {
        assert_eq!(
            status
                .get("cache")
                .and_then(|c| c.get("disk_attached"))
                .and_then(Json::as_bool),
            Some(true),
            "both tenants must share the disk tier"
        );
        assert!(
            status.get("result").is_some(),
            "terminal status carries the summary"
        );
    }

    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_within_one_batch_and_leaves_resumable_snapshot() {
    let dir = scratch_dir("cancel");
    let snap = dir.join("job.snapshot");
    let spec = JobSpec {
        technique: "explainable".to_string(),
        budget: 60,
        seed: 3,
        space: "edge".to_string(),
        mapper: "fixed".to_string(),
        checkpoint: Some(snap.clone()),
        checkpoint_every: 1,
        ..JobSpec::default()
    };
    let engine = EvalEngine::serial();

    // Step a standalone driver a few batches, then cancel: the VERY NEXT
    // step must observe the token ("within one evaluation batch").
    let cancel = CancelToken::new();
    let mut driver = build_driver(&spec, engine, None, None, Collector::noop(), cancel.clone())
        .expect("build driver");
    for _ in 0..5 {
        assert_eq!(driver.step(), StepOutcome::Pending);
    }
    cancel.cancel();
    assert_eq!(driver.step(), StepOutcome::Cancelled);
    let cancelled_evals = driver.evaluations();
    assert!(
        cancelled_evals < spec.budget,
        "cancel must not run to budget"
    );
    let summary = driver.finish();
    assert_eq!(
        summary.get("termination").and_then(Json::as_str),
        Some("cancelled")
    );
    assert!(snap.exists(), "cancel must leave the snapshot behind");

    // Resuming from the snapshot and running to completion is
    // bit-identical to a straight-through run of the same spec.
    let resumed_spec = JobSpec {
        resume: true,
        ..spec.clone()
    };
    let resumed = run_straight(&resumed_spec, engine);
    let fresh_spec = JobSpec {
        checkpoint: None,
        ..spec.clone()
    };
    let fresh = run_straight(&fresh_spec, engine);
    assert_eq!(
        resumed.to_line(),
        fresh.to_line(),
        "resume-after-cancel must reproduce the straight-through run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_tenant_completes_while_long_sweep_tenant_runs() {
    // Two tenants on one registry sharing the process-wide executor pool:
    // a long job whose every step runs real linear-mapper sweeps over the
    // edge space, and a short toy job. Fairness is enforced at chunk
    // granularity — pool workers re-pick scopes round-robin per task — so
    // the short tenant must finish while the long sweep is still running,
    // instead of queueing behind it.
    let registry = Registry::new(EvalEngine::with_threads(2), None, None, Collector::noop());
    let workers = registry.spawn_workers(2);
    // Annealing evaluates point by point, so each of its steps is one
    // evaluation: the scheduler gets real step boundaries while every
    // evaluation still runs linear-mapper sweeps over the edge space
    // through the shared pool.
    let long = registry
        .submit(JobSpec {
            technique: "annealing".to_string(),
            budget: 200,
            map_trials: 150,
            seed: 11,
            space: "edge".to_string(),
            mapper: "linear".to_string(),
            ..JobSpec::default()
        })
        .expect("submit long");
    let short = registry
        .submit(toy_spec("explainable", 6, 3))
        .expect("submit short");
    assert_eq!(registry.wait_terminal(short), Some(JobState::Completed));
    assert_eq!(
        registry.is_terminal(long),
        Some(false),
        "long sweep tenant should still be running when the short one finishes"
    );
    // The shared pool's counters are server-level series in /metrics.
    let metrics = registry.prometheus_text();
    for needle in [
        "executor_spawn_avoided",
        "executor_steals",
        "executor_idle_ns",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    registry.cancel(long).expect("cancel long");
    let state = registry.wait_terminal(long).expect("long exists");
    assert!(matches!(state, JobState::Cancelled | JobState::Completed));
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
}

#[test]
fn scheduler_survives_random_control_storm() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(3);
    let techniques = [
        "explainable",
        "grid",
        "random",
        "annealing",
        "genetic",
        "rl",
    ];
    let ids: Vec<u64> = techniques
        .iter()
        .enumerate()
        .map(|(i, t)| {
            registry
                .submit(toy_spec(t, 14, i as u64 + 1))
                .expect("submit")
        })
        .collect();

    // A deterministic LCG storm of pause/resume/cancel at whatever batch
    // boundaries the scheduler happens to be at.
    let mut rng_state = 0x2545F4914F6CDD1Du64;
    let mut next = move |n: u64| {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) % n
    };
    for round in 0..60 {
        let id = ids[next(ids.len() as u64) as usize];
        // Control calls may race with completion; 'already terminal' is a
        // legal answer, never a crash or a wedged queue.
        match next(if round > 40 { 3 } else { 2 }) {
            0 => drop(registry.pause(id)),
            1 => drop(registry.resume(id)),
            _ => drop(registry.cancel(id)),
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // Un-wedge anything the storm left paused, then everything must
    // reach a terminal state.
    for &id in &ids {
        let _ = registry.resume(id);
    }
    for &id in &ids {
        let state = registry.wait_terminal(id).expect("job exists");
        assert!(
            matches!(state, JobState::Completed | JobState::Cancelled),
            "job {id} ended {state:?}"
        );
        let status = registry.status(id).expect("status");
        assert!(
            status.get("result").is_some(),
            "terminal job {id} has a summary"
        );
    }
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A job that gets paused and resumed at arbitrary points while
    /// sharing the scheduler with a decoy tenant finishes bit-identical
    /// to the same spec run straight through on a standalone driver.
    #[test]
    fn paused_and_resumed_job_matches_straight_through(
        seed in 0u64..1000,
        budget in 8usize..20,
        technique_idx in 0usize..3,
        pauses in proptest::collection::vec(0u64..8, 1..4),
    ) {
        let technique = ["explainable", "random", "genetic"][technique_idx];
        let spec = toy_spec(technique, budget, seed);
        let expected = run_straight(&spec, EvalEngine::serial());

        let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
        let workers = registry.spawn_workers(2);
        let decoy = registry.submit(toy_spec("grid", 12, seed ^ 0xFF)).unwrap();
        let id = registry.submit(spec).unwrap();
        for &pause in &pauses {
            let _ = registry.pause(id);
            std::thread::sleep(std::time::Duration::from_millis(pause));
            let _ = registry.resume(id);
        }
        let _ = registry.resume(id);
        prop_assert_eq!(registry.wait_terminal(id), Some(JobState::Completed));
        registry.wait_terminal(decoy);
        let status = registry.status(id).unwrap();
        let result = status.get("result").expect("summary");
        prop_assert_eq!(result.to_line(), expected.to_line());
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }
}

/// One blocking request over a real socket (the test client).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .expect("status");
    (status, payload.to_string())
}

#[test]
fn http_smoke_submit_poll_metrics() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(2);
    let server = Server::start("127.0.0.1:0", 2, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();

    let (status, body) = http(
        addr,
        "POST",
        "/jobs",
        "{\"technique\":\"explainable\",\"space\":\"toy\",\"mapper\":\"fixed\",\"budget\":10,\"seed\":1}",
    );
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .expect("submit response JSON")
        .get("id")
        .and_then(Json::as_f64)
        .expect("id") as u64;

    registry.wait_terminal(id);
    let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("status JSON");
    assert_eq!(
        doc.get("state").and_then(Json::as_str),
        Some("completed"),
        "{body}"
    );

    let (status, body) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"explainable\""), "{body}");

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains(&format!("edse_job{id}_")), "{metrics}");

    let (status, _) = http(addr, "GET", "/jobs/42", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/jobs", "");
    assert_eq!(status, 404);

    server.stop();
}

/// A request body nested far deeper than the JSON parser's depth bound
/// (but well under the body-size cap) is a 400, not a stack overflow
/// that aborts the server, and the one-thread front end keeps serving.
#[test]
fn deeply_nested_body_is_a_client_error() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();

    let (status, body) = http(addr, "POST", "/jobs", &"[".repeat(500_000));
    assert_eq!(status, 400, "{body}");
    let (status, _) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200, "the front end must keep serving");

    server.stop();
}

/// Sends `raw` as is and reads the response status, on a client that
/// gives up after `timeout` rather than hanging on a server that never
/// answers.
fn raw_status(addr: std::net::SocketAddr, raw: &[u8], timeout: Duration) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(timeout)).unwrap();
    stream.write_all(raw).expect("send");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            Ok(_) => break,
            Err(e) => panic!("no response: {e}"),
        }
    }
    let line = String::from_utf8_lossy(&head);
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"))
}

/// A request line that never ends is cut off at the head-line cap with a
/// 431 instead of growing the server's buffer until the client gives up;
/// too many headers are a 431 and an oversized body a 413. The one-thread
/// front end keeps serving.
#[test]
fn oversized_request_heads_and_bodies_are_refused() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();
    let timeout = Duration::from_secs(10);

    let endless_line = format!("GET /{}", "a".repeat(64 * 1024));
    assert_eq!(raw_status(addr, endless_line.as_bytes(), timeout), 431);
    let many_headers = format!("GET /jobs HTTP/1.1\r\n{}\r\n", "X-A: b\r\n".repeat(101));
    assert_eq!(raw_status(addr, many_headers.as_bytes(), timeout), 431);
    let big_body = "POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n";
    assert_eq!(raw_status(addr, big_body.as_bytes(), timeout), 413);
    let (status, _) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200, "the front end must keep serving");

    server.stop();
}

/// A resume snapshot that cannot be loaded, or that another run wrote, is
/// refused at submission with a 400 — on a one-thread front end, so a
/// handler that died on it would take the whole server down — and the
/// server keeps serving.
fn unloadable_snapshots_are_client_errors(technique: &str, other_technique: &str) {
    let dir = scratch_dir(&format!("bad-snapshot-{technique}"));
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();
    let submit = |spec: &JobSpec| http(addr, "POST", "/jobs", &spec.to_json_string());
    let resume_from = |path: &PathBuf, spec: JobSpec| JobSpec {
        checkpoint: Some(path.clone()),
        resume: true,
        ..spec
    };

    let corrupt = dir.join("corrupt.snapshot");
    std::fs::write(&corrupt, "{ not json").expect("write corrupt snapshot");
    // A real snapshot of this technique at budget 10, and one of another
    // technique.
    let snapshot = dir.join("job.snapshot");
    let foreign = dir.join("foreign.snapshot");
    for (path, name) in [(&snapshot, technique), (&foreign, other_technique)] {
        run_straight(
            &JobSpec {
                checkpoint: Some(path.clone()),
                ..toy_spec(name, 10, 1)
            },
            EvalEngine::serial(),
        );
        assert!(path.exists(), "{name} left no snapshot");
    }

    let refused = [
        resume_from(&corrupt, toy_spec(technique, 10, 1)),
        resume_from(&snapshot, toy_spec(technique, 11, 1)),
        resume_from(&foreign, toy_spec(technique, 10, 1)),
    ];
    for spec in &refused {
        let (status, body) = submit(spec);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("cannot resume"), "{body}");
        let (status, _) = http(addr, "GET", "/jobs", "");
        assert_eq!(status, 200, "the front end must keep serving");
    }

    // The matching snapshot resumes, and the job completes.
    let (status, body) = submit(&resume_from(&snapshot, toy_spec(technique, 10, 1)));
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .expect("submit response JSON")
        .get("id")
        .and_then(Json::as_f64)
        .expect("id") as u64;
    assert_eq!(registry.wait_terminal(id), Some(JobState::Completed));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unloadable_explainable_snapshot_is_a_client_error() {
    unloadable_snapshots_are_client_errors("explainable", "random");
}

#[test]
fn unloadable_baseline_snapshot_is_a_client_error() {
    unloadable_snapshots_are_client_errors("random", "explainable");
}
