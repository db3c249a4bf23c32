//! The `serve_mixed` workload: an in-process `edse-serve` (no disk
//! cache) driven over loopback HTTP by an open-loop, single-threaded
//! generator that holds one connection at a time. Jobs arrive on a fixed
//! schedule from independent tenants and alternate between an
//! explainable codesign search and a Bayesian-optimisation baseline
//! stepped through its driver. Each job is timed from its submission until
//! a poll first sees it terminal, on this process's CPU clock (the
//! figures the end-to-end metrics report) and on the wall clock from its
//! due send time (kept in the run record and the traced metrics).
//!
//! Every figure of a traced run comes from the timed window itself: the
//! service's `GET /metrics` scraped once after the window, the in-process
//! memo and pool counters, and the generator's own HTTP timings. The
//! window carries no wrappers, so tracing adds nothing to it.

use crate::codesign::{engine, model, run_search, warm_pool, Technique, TOP_N};
use crate::layers::{self, add_memo, add_pool};
use crate::util::{
    bench_threads, cpu_ticks, derive_seed, geomean, median, peak_rss_mb, pool_threads,
    process_cpu_s, shuffled, steal_frac, Args, EndToEnd, Outcome, Tally, Threads,
};
use edse_core::{edge_space, CodesignEvaluator, EvalEngine, JobSpec};
use edse_executor::Executor;
use edse_serve::jobs::Registry;
use edse_serve::server::Server;
use edse_telemetry::json::{self, Json};
use edse_telemetry::{Collector, Event, Sink};
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The schedule repeats every period: an explainable job, a baseline
/// job, and another explainable job, each `(kind, due offset within the
/// period)`. An explainable job takes about 0.15 s and a baseline job
/// about 0.5 s on a 2-CPU host, so each job normally runs alone, with
/// about 0.1 s of slack on either side: then one more busy thread on the
/// host (another process, or the generator and its HTTP handler) still
/// leaves the job a CPU. When jobs overlapped, two busy scheduler
/// workers filled both CPUs, and job latencies on a shared 2-CPU virtual
/// machine spread by 0.3 to 0.6 of their median across ten runs.
const PERIOD_S: f64 = 1.25;
const SCHEDULE: [(Technique, f64); 3] = [
    (Technique::Explainable, 0.0),
    (Technique::Bayesian, 0.3),
    (Technique::Explainable, 0.95),
];
/// Offered load in jobs per second, well below the capacity measured on
/// a 2-CPU host (see `perfbench/README.md`).
pub const RATE: f64 = SCHEDULE.len() as f64 / PERIOD_S;
/// The run is invalid when any job is sent later than this after its due
/// time (under the shortest gap between due times).
const LAG_BOUND_S: f64 = 0.1;
/// Pause between poll rounds over the outstanding jobs.
const POLL_PAUSE: Duration = Duration::from_millis(5);
/// How long after the schedule ends outstanding jobs may take to finish.
const DRAIN_LIMIT_S: f64 = 60.0;
/// Above the first convergence of ResNet-18 (97 evaluations), so every
/// explainable job goes on into restart phases from seed-driven
/// perturbations: jobs of different seeds evaluate different designs.
const EXPLAINABLE_BUDGET: usize = 130;
/// Each kind's job seeds are a set fixed by the window's length (job `j`
/// of a kind has seed `derive_seed(<kind's base>, j)`); the benchmark
/// seed orders them over the schedule. The jobs of a kind then run the
/// same searches in every run, in another order, so `best_latency_ms`
/// repeats exactly and the latency medians do not move with a seed set
/// drawn afresh, while each job still searches under a seed of its own.
const EXPLAINABLE_SEEDS: u64 = 0xE5EED;
const BASELINE_SEEDS: u64 = 0xBA5E;
const BASELINE_BUDGET: usize = 100;
/// One handler suffices: the generator holds one connection at a time.
const HTTP_THREADS: usize = 1;
/// Serve set-ups per run: this process's own plus fresh processes.
const SETUPS: usize = 7;
fn spec(kind: Technique, seed: u64) -> JobSpec {
    match kind {
        Technique::Explainable => JobSpec {
            technique: "explainable".to_string(),
            budget: EXPLAINABLE_BUDGET,
            map_trials: TOP_N,
            seed,
            models: vec!["resnet18".to_string()],
            space: "edge".to_string(),
            mapper: "linear".to_string(),
            ..JobSpec::default()
        },
        Technique::Bayesian => JobSpec {
            technique: "bayesian".to_string(),
            budget: BASELINE_BUDGET,
            seed,
            models: vec!["resnet18".to_string()],
            space: "edge".to_string(),
            mapper: "fixed".to_string(),
            ..JobSpec::default()
        },
    }
}

/// A sink that keeps the server's collector active (so it counts) and
/// discards events, as the `edse-serve` binary does.
struct Discard;

impl Sink for Discard {
    fn record(&self, _event: &Event) {}
}

/// The service's evaluation engine: each job step evaluates on its
/// scheduler worker (`edse-serve --eval-threads 1`), and the two workers
/// give the tenants their parallelism. With steps fanned out over the
/// shared pool instead, a short explainable job waits on whichever pool
/// participant the host deschedules, and its latency swung twofold
/// between runs of one seed set on a 2-CPU virtual machine.
pub fn service_engine() -> EvalEngine {
    EvalEngine::serial()
}

fn start_server() -> Result<Server, String> {
    let telemetry = Collector::builder().sink(Discard).build();
    let registry = Registry::new(service_engine(), None, None, telemetry);
    let workers = registry.spawn_workers(bench_threads());
    Server::start("127.0.0.1:0", HTTP_THREADS, registry, workers).map_err(|e| format!("bind: {e}"))
}

/// One HTTP/1.1 exchange on a fresh connection (`Connection: close`).
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {text:?}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head:?}"))?;
    Ok((status, payload.to_string()))
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> Result<u64, String> {
    let (status, body) = exchange(addr, "POST", "/jobs", &spec.to_json_string())?;
    if status != 202 {
        return Err(format!("submit refused ({status}): {body}"));
    }
    json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("submit reply lacks an id: {body}"))
}

/// Polls `GET /jobs/:id`; `Some(status document)` once the job is terminal.
fn poll(addr: SocketAddr, id: u64) -> Result<Option<Json>, String> {
    let (status, body) = exchange(addr, "GET", &format!("/jobs/{id}"), "")?;
    if status != 200 {
        return Err(format!("poll of job {id} answered {status}"));
    }
    let doc = json::parse(&body).map_err(|e| format!("job {id} status: {e}"))?;
    let state = doc.get("state").and_then(Json::as_str).unwrap_or_default();
    Ok(matches!(state, "completed" | "cancelled" | "failed").then_some(doc))
}

/// Runs the untimed warm-up jobs (one of each kind, one after the other,
/// with fixed seeds so set-up does the same work in every run).
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    for (i, kind) in [Technique::Explainable, Technique::Bayesian]
        .into_iter()
        .enumerate()
    {
        let id = submit(addr, &spec(kind, derive_seed(0x5EED, i as u64)))?;
        let doc = loop {
            if let Some(doc) = poll(addr, id)? {
                break doc;
            }
            std::thread::sleep(POLL_PAUSE);
        };
        if doc.get("state").and_then(Json::as_str) != Some("completed") {
            return Err(format!("warm-up job {id} did not complete"));
        }
    }
    Ok(())
}

/// The internal child mode: one serve set-up (server bound, warm-up
/// done) in this fresh process; prints the CPU seconds it took.
pub fn child_setup() -> Result<(), String> {
    let server = start_server()?;
    warm_pool();
    warm_up(server.addr())?;
    let setup_s = process_cpu_s();
    server.stop();
    println!(
        "{}",
        Json::obj(vec![("setup_s", Json::Num(setup_s))]).to_line()
    );
    Ok(())
}

fn spawn_setup() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", "serve-setup"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn serve set-up: {e}"))?;
    if !output.status.success() {
        return Err(format!("serve set-up child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or_default())
        .ok()
        .and_then(|j| j.get("setup_s").and_then(Json::as_f64))
        .ok_or_else(|| "serve set-up child printed no result".to_string())
}

/// One timed job of the schedule.
struct Job {
    kind: Technique,
    spec: JobSpec,
    due_s: f64,
    id: Option<u64>,
    latency_s: Option<f64>,
    /// This process's CPU clock when the job was submitted.
    submit_cpu_s: f64,
    cpu_latency_s: Option<f64>,
    completed: bool,
    best: Option<f64>,
    evaluations: u64,
    converged: Option<u64>,
}

/// `GET /metrics` as a name → value map.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = exchange(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Sums job `id`'s series `<family>` (sharded counters summed over
/// shards, e.g. `point_cache` + `hit`).
fn job_sum(m: &BTreeMap<String, f64>, id: u64, family: &str, suffix: &str) -> f64 {
    let prefix = format!("edse_job{id}_{family}");
    m.range(prefix.clone()..)
        .take_while(|(k, _)| k.starts_with(&prefix))
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

fn job_value(m: &BTreeMap<String, f64>, id: u64, name: &str) -> f64 {
    m.get(&format!("edse_job{id}_{name}"))
        .copied()
        .unwrap_or(0.0)
}

/// The generator's record of the timed window.
struct Window {
    jobs: Vec<Job>,
    http_errors: u64,
    requests: u64,
    max_lag_s: f64,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
}

fn drive(addr: SocketAddr, seed: u64, seconds: f64) -> Result<Window, String> {
    let periods = ((seconds / PERIOD_S).round() as usize).max(1);
    let order = |kind, base| {
        let jobs = SCHEDULE.iter().filter(|(k, _)| *k == kind).count() * periods;
        shuffled(jobs, derive_seed(seed, base)).into_iter()
    };
    let mut explainable = order(Technique::Explainable, EXPLAINABLE_SEEDS);
    let mut baseline = order(Technique::Bayesian, BASELINE_SEEDS);
    let mut jobs: Vec<Job> = (0..periods * SCHEDULE.len())
        .map(|i| {
            let period = i / SCHEDULE.len();
            let (kind, offset) = SCHEDULE[i % SCHEDULE.len()];
            let job_seed = match kind {
                Technique::Explainable => derive_seed(
                    EXPLAINABLE_SEEDS,
                    explainable.next().expect("a seed per job"),
                ),
                Technique::Bayesian => {
                    derive_seed(BASELINE_SEEDS, baseline.next().expect("a seed per job"))
                }
            };
            Job {
                kind,
                spec: spec(kind, job_seed),
                due_s: period as f64 * PERIOD_S + offset,
                id: None,
                latency_s: None,
                submit_cpu_s: 0.0,
                cpu_latency_s: None,
                completed: false,
                best: None,
                evaluations: 0,
                converged: None,
            }
        })
        .collect();
    let n = jobs.len();
    let mut w = Window {
        jobs: Vec::new(),
        http_errors: 0,
        requests: 0,
        max_lag_s: 0.0,
        submit_ms: Vec::new(),
        poll_ms: Vec::new(),
    };
    let start = Instant::now();
    let mut next = 0usize;
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    loop {
        let now = start.elapsed().as_secs_f64();
        if next < n && now >= jobs[next].due_s {
            w.max_lag_s = w.max_lag_s.max(now - jobs[next].due_s);
            let sent = Instant::now();
            jobs[next].submit_cpu_s = process_cpu_s();
            w.requests += 1;
            match submit(addr, &jobs[next].spec) {
                Ok(id) => {
                    jobs[next].id = Some(id);
                    outstanding.push_back(next);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    w.http_errors += 1;
                }
            }
            w.submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            next += 1;
            continue;
        }
        if outstanding.is_empty() {
            if next == n {
                break;
            }
            let wait = jobs[next].due_s - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait.min(POLL_PAUSE.as_secs_f64())));
            }
            continue;
        }
        if now > seconds + DRAIN_LIMIT_S {
            return Err(format!(
                "{} jobs still running {DRAIN_LIMIT_S} s after the schedule ended",
                outstanding.len()
            ));
        }
        // One poll round over the outstanding jobs, yielding to any
        // submission that falls due.
        for _ in 0..outstanding.len() {
            if next < n && start.elapsed().as_secs_f64() >= jobs[next].due_s {
                break;
            }
            let i = outstanding.pop_front().expect("non-empty");
            let sent = Instant::now();
            w.requests += 1;
            let polled = poll(addr, jobs[i].id.expect("submitted"));
            w.poll_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            match polled {
                Ok(Some(doc)) => {
                    let job = &mut jobs[i];
                    job.latency_s = Some(start.elapsed().as_secs_f64() - job.due_s);
                    job.cpu_latency_s = Some(process_cpu_s() - job.submit_cpu_s);
                    job.completed = doc.get("state").and_then(Json::as_str) == Some("completed");
                    job.evaluations = doc.get("evaluations").and_then(Json::as_u64).unwrap_or(0);
                    let result = doc.get("result");
                    job.best = result
                        .and_then(|r| r.get("best_objective"))
                        .and_then(Json::as_f64);
                    job.converged = result
                        .and_then(|r| r.get("converged_after"))
                        .and_then(Json::as_arr)
                        .and_then(|a| a.first())
                        .and_then(Json::as_u64);
                }
                Ok(None) => outstanding.push_back(i),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    w.http_errors += 1;
                    outstanding.push_back(i);
                }
            }
        }
        let until_due = if next < n {
            jobs[next].due_s - start.elapsed().as_secs_f64()
        } else {
            f64::INFINITY
        };
        let pause = POLL_PAUSE.as_secs_f64().min(until_due);
        if pause > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(pause));
        }
    }
    w.jobs = jobs;
    Ok(w)
}

/// Runs `spec` to completion in this process through the public session
/// APIs and returns its best objective (the output check; untimed).
fn replay(spec: &JobSpec) -> Result<f64, String> {
    let models = spec
        .models
        .iter()
        .map(|m| model(m))
        .collect::<Result<Vec<_>, _>>()?;
    let mapper: Box<dyn MappingOptimizer> = match spec.mapper.as_str() {
        "linear" => Box::new(LinearMapper::new(spec.map_trials)),
        _ => Box::new(FixedMapper),
    };
    let ev = CodesignEvaluator::new(edge_space(), models, mapper).with_engine(engine());
    let technique = Technique::parse(&spec.technique)?;
    // The service runs the default configuration, restarts included.
    let restarts = edse_core::DseConfig::default().restarts;
    let mut unused = Tally::default();
    Ok(run_search(
        &ev,
        technique,
        spec.seed,
        spec.budget,
        restarts,
        false,
        &mut unused,
    )
    .best_objective)
}

/// The wall-clock latencies of one kind's jobs, from their due times.
fn latencies(w: &Window, kind: Technique) -> Vec<f64> {
    w.jobs
        .iter()
        .filter(|j| j.kind == kind)
        .filter_map(|j| j.latency_s)
        .collect()
}

/// The CPU-clock latencies of one kind's jobs, from their submissions.
fn cpu_latencies(w: &Window, kind: Technique) -> Vec<f64> {
    w.jobs
        .iter()
        .filter(|j| j.kind == kind)
        .filter_map(|j| j.cpu_latency_s)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // A smoke run keeps two periods, so every metric has samples.
    let seconds = if args.smoke { 2.0 } else { args.seconds };
    let mut setups = Vec::new();
    if !args.smoke {
        for _ in 1..SETUPS {
            setups.push(spawn_setup()?);
        }
    }
    let started = process_cpu_s();
    let server = start_server()?;
    let addr = server.addr();
    warm_pool();
    warm_up(addr)?;
    setups.push(process_cpu_s() - started);

    let spawned = Executor::global().counters().workers_spawned;
    let pool_before = Executor::global().counters();
    let memo_before = mapper::space_cache_stats();
    let ticks_before = cpu_ticks();
    let w = drive(addr, args.seed, seconds)?;
    let steal = steal_frac(ticks_before, cpu_ticks());
    let pool_after = Executor::global().counters();
    let memo_after = mapper::space_cache_stats();
    let end_metrics = scrape(addr)?;
    server.stop();

    let mut invalid = Vec::new();
    if w.max_lag_s > LAG_BOUND_S {
        invalid.push(format!(
            "generator ran {:.3} s late (bound {LAG_BOUND_S} s)",
            w.max_lag_s
        ));
    }
    if pool_after.workers_spawned != spawned {
        invalid.push("executor spawned workers after warm-up".to_string());
    }

    // Output checks, outside the timed window.
    let mut errors = Vec::new();
    for (i, job) in w.jobs.iter().enumerate() {
        if !job.completed {
            errors.push(format!("job {i} did not complete"));
        }
    }
    for kind in [Technique::Explainable, Technique::Bayesian] {
        let Some(job) = w.jobs.iter().find(|j| j.kind == kind) else {
            continue;
        };
        let again = replay(&job.spec)?;
        if Some(again.to_bits()) != job.best.map(f64::to_bits) {
            errors.push(format!(
                "{} seed {}: served best {:?}, in-process run {:?}",
                job.spec.technique, job.spec.seed, job.best, again
            ));
        }
    }

    let faulted: f64 = w
        .jobs
        .iter()
        .filter_map(|j| j.id)
        .map(|id| job_value(&end_metrics, id, "fault_point_failures"))
        .sum();
    let evaluated: u64 = w.jobs.iter().map(|j| j.evaluations).sum();
    let not_completed = w.jobs.iter().filter(|j| !j.completed).count() as u64;
    let attempted = w.jobs.len() as u64 + w.requests + evaluated;
    let failed = not_completed + w.http_errors + faulted as u64;

    let explainable: Vec<&Job> = w
        .jobs
        .iter()
        .filter(|j| j.kind == Technique::Explainable && j.completed)
        .collect();
    let explainable_cpu_s = cpu_latencies(&w, Technique::Explainable);
    let e2e = EndToEnd {
        setup_s: median(&setups),
        // On the service a search is an explainable job, timed from its
        // submission to its result.
        search_cpu_s: median(&explainable_cpu_s),
        // The median job's rate: a mean over latencies would follow the
        // slowest jobs.
        evals_per_cpu_s: median(
            &explainable
                .iter()
                .filter_map(|j| Some(j.evaluations as f64 / j.cpu_latency_s?))
                .collect::<Vec<_>>(),
        ),
        evals_to_converge: explainable
            .iter()
            .map(|j| j.converged.unwrap_or(j.evaluations) as f64)
            .sum::<f64>()
            / explainable.len().max(1) as f64,
        best_latency_ms: geomean(
            &explainable
                .iter()
                .map(|j| j.best.unwrap_or(f64::NAN))
                .collect::<Vec<_>>(),
        ),
        explainable_cpu_s,
        baseline_cpu_s: cpu_latencies(&w, Technique::Bayesian),
        attempted,
        failed,
        peak_rss_mb: peak_rss_mb(),
    };
    let (mut metrics, e2e_info) = e2e.metrics();

    if args.trace {
        let mut t = Tally::default();
        add_memo(&mut t, &memo_before, &memo_after);
        add_pool(&mut t, &pool_before, &pool_after);
        for job in &w.jobs {
            let Some(id) = job.id else { continue };
            let g = |family: &str, suffix: &str| job_sum(&end_metrics, id, family, suffix);
            t.add(
                "mapper.calls",
                job_value(&end_metrics, id, "stage_mapper_us_count"),
            );
            t.add(
                "mapper.busy_s",
                job_value(&end_metrics, id, "stage_mapper_us_sum") * 1e-6,
            );
            // Each step evaluates serially on its worker, so point
            // assembly time contains the mapper time it caused.
            t.add(
                "eval.busy_s",
                job_value(&end_metrics, id, "stage_point_eval_us_sum") * 1e-6,
            );
            let point_hits = g("point_cache", "_hit");
            let point_accesses =
                point_hits + g("point_cache", "_miss") + g("point_cache", "_inflight_wait");
            t.add("point.hits", point_hits);
            t.add("point.accesses", point_accesses);
            t.add("eval.points", point_accesses);
            let layer_waits = g("layer_cache", "_inflight_wait");
            t.add("layer.hits", g("layer_cache", "_hit"));
            t.add(
                "layer.accesses",
                g("layer_cache", "_hit") + g("layer_cache", "_miss") + layer_waits,
            );
            t.add("layer.inflight_waits", layer_waits);
            if job.kind == Technique::Bayesian {
                t.add("baseline.point_replay_hits", point_hits);
                t.add("baseline.evals", job.evaluations as f64);
                t.add("baseline.point_accesses", point_accesses);
            }
        }
        // The service exports no evaluator-call count, DSE or baseline
        // self time, or infeasible-mapping count: those stay 0 here.
        t.add("eval.self_s", t.get("eval.busy_s") - t.get("mapper.busy_s"));
        t.add("http.submit_ms", w.submit_ms.iter().sum());
        t.add("http.submits", w.submit_ms.len() as f64);
        t.add("http.poll_ms", w.poll_ms.iter().sum());
        t.add("http.polls", w.poll_ms.len() as f64);
        t.add("max:serve.lag_s", w.max_lag_s);
        t.add(
            "max:serve.explainable_wall_p50_s",
            median(&latencies(&w, Technique::Explainable)),
        );
        t.add(
            "max:serve.baseline_wall_p50_s",
            median(&latencies(&w, Technique::Bayesian)),
        );
        metrics = layers::metrics(&t, 1.0, 1.0);
    }

    let count = |kind| w.jobs.iter().filter(|j| j.kind == kind).count() as f64;
    let mut info = e2e_info;
    info.extend([
        ("offered_jobs_per_s", Json::Num(RATE)),
        ("period_s", Json::Num(PERIOD_S)),
        ("host_steal_frac", Json::Num(steal)),
        (
            "explainable_cpu_latencies_s",
            Json::Arr(
                e2e.explainable_cpu_s
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        ),
        (
            "explainable_wall_latencies_s",
            Json::Arr(
                latencies(&w, Technique::Explainable)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
        (
            "baseline_cpu_latencies_s",
            Json::Arr(e2e.baseline_cpu_s.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "baseline_wall_latencies_s",
            Json::Arr(
                latencies(&w, Technique::Bayesian)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
        ("window_s", Json::Num(seconds)),
        ("explainable_jobs", Json::Num(count(Technique::Explainable))),
        ("baseline_jobs", Json::Num(count(Technique::Bayesian))),
        ("generator_max_lag_s", Json::Num(w.max_lag_s)),
        ("lag_bound_s", Json::Num(LAG_BOUND_S)),
        ("scheduler_workers", Json::Num(bench_threads() as f64)),
        ("http_threads", Json::Num(HTTP_THREADS as f64)),
        ("explainable_budget", Json::Num(EXPLAINABLE_BUDGET as f64)),
        (
            "setups_s",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "errors",
            Json::Arr(errors.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    Ok(Outcome {
        correct: errors.is_empty(),
        threads: Threads {
            engine: bench_threads() * service_engine().resolved_threads(),
            pool: pool_threads(),
            generator: 1,
        },
        attempted,
        failed,
        metrics,
        info,
        invalid,
    })
}
