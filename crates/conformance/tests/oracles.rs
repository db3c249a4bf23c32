//! Differential oracles: pairs of code paths the codebase promises are
//! equivalent, checked for bit-identical results.
//!
//! 1. Serial vs parallel [`EvalEngine`] batches (and whole searches).
//! 2. Straight-through vs killed-and-resumed sessions — both
//!    [`SearchSession`] and [`BaselineSession`].
//! 3. Cold vs warm runs over a persistent [`DiskCache`] — the identical
//!    search (explainable and every baseline technique) replayed against a
//!    warmed cache directory must be bit-identical to the cold run and
//!    answered almost entirely (≥ 99%) from disk.
//! 4. The evaluator's cached fast path vs the straight-line
//!    [`NaiveReferenceEvaluator`].

use accel_model::AcceleratorConfig;
use baselines::{
    BaselineSession, BayesianOpt, ConfuciuxRl, DseTechnique, GeneticAlgorithm, GridSearch,
    HyperMapperLike, RandomSearch, SimulatedAnnealing,
};
use conformance::NaiveReferenceEvaluator;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::cost::{Constraint, Evaluation};
use edse_core::dse::{DseConfig, DseResult};
use edse_core::evaluate::{CacheSnapshot, CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::fault::EvalFault;
use edse_core::space::{edge_space, DesignPoint, DesignSpace};
use edse_core::{DiskCache, JobSpec, SearchSession};
use edse_telemetry::Collector;
use mapper::FixedMapper;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use workloads::zoo;

fn edge_evaluator(engine: EvalEngine) -> CodesignEvaluator<FixedMapper> {
    CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper).with_engine(engine)
}

/// A deterministic spread of design points (splitmix-style walk over every
/// parameter's cardinality) — diverse without depending on any search.
fn spread_points(space: &DesignSpace, n: usize) -> Vec<DesignPoint> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            DesignPoint::new(
                space
                    .params()
                    .iter()
                    .map(|p| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as usize) % p.len()
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Every `DseResult` field except the wall clock.
fn assert_results_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.trace().samples, b.trace().samples);
    assert_eq!(a.attempts(), b.attempts());
    assert_eq!(a.best(), b.best());
    assert_eq!(a.converged_after(), b.converged_after());
    assert_eq!(a.termination(), b.termination());
}

// ---------------------------------------------------------------------------
// Oracle 1: serial vs parallel evaluation engine.
// ---------------------------------------------------------------------------

#[test]
fn serial_and_parallel_batches_are_bit_identical() {
    let serial = edge_evaluator(EvalEngine::serial());
    let parallel = edge_evaluator(EvalEngine::with_threads(4));
    let points = spread_points(serial.space(), 24);
    let a: Vec<Evaluation> = serial.evaluate_batch(&points);
    let b: Vec<Evaluation> = parallel.evaluate_batch(&points);
    assert_eq!(a, b);
    assert_eq!(serial.unique_evaluations(), parallel.unique_evaluations());
}

/// A 1-candidate batch over a many-layer workload: the engine's fan-out
/// unit is the layer mapping, so the parallel engine must both (a) return
/// results bit-identical to serial and (b) observably distribute the
/// per-layer jobs across its workers (per-thread pull counts in the
/// `engine/mapping` batch record sum to the unique layer count).
#[test]
fn single_candidate_multi_layer_batch_is_bit_identical_and_distributed() {
    use edse_telemetry::{Event, MemorySink};
    let serial = edge_evaluator(EvalEngine::serial());
    let sink = MemorySink::new();
    let collector = Collector::builder().sink(sink.clone()).build();
    let parallel = edge_evaluator(EvalEngine::with_threads(4)).with_telemetry(collector);
    let batch = vec![serial.space().minimum_point()];
    let a: Vec<Evaluation> = serial.evaluate_batch(&batch);
    let b: Vec<Evaluation> = parallel.evaluate_batch(&batch);
    assert_eq!(a, b);
    assert_eq!(serial.unique_evaluations(), parallel.unique_evaluations());

    let layers = zoo::resnet18().unique_shape_count() as u64;
    let mapping_records: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Batch { record, .. } if record.stage == "engine/mapping" => Some(record),
            _ => None,
        })
        .collect();
    assert_eq!(mapping_records.len(), 1, "one mapping fan-out phase");
    assert_eq!(mapping_records[0].items, layers);
    assert_eq!(
        mapping_records[0].per_thread.iter().sum::<u64>(),
        layers,
        "every layer job pulled exactly once"
    );
    assert_eq!(mapping_records[0].per_thread.len(), 4.min(layers as usize));
}

#[test]
fn serial_and_parallel_searches_are_bit_identical() {
    let config = DseConfig {
        budget: 40,
        seed: 11,
        ..DseConfig::default()
    };
    let serial_ev = edge_evaluator(EvalEngine::serial());
    let parallel_ev = edge_evaluator(EvalEngine::with_threads(4));
    let initial = serial_ev.space().minimum_point();
    let a = SearchSession::new(dnn_latency_model(), config.clone())
        .evaluator(&serial_ev)
        .run(initial.clone());
    let b = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&parallel_ev)
        .run(initial);
    assert_results_identical(&a, &b);
}

// ---------------------------------------------------------------------------
// Oracle 2: straight-through vs killed-and-resumed sessions.
// ---------------------------------------------------------------------------

fn silence_expected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("simulated kill") {
                prev(info);
            }
        }));
    });
}

fn temp_snapshot_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "edse-conformance-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

/// Wraps an evaluator and panics once `kill_after` evaluation requests
/// have been spent — a SIGKILL landing mid-search, as seen from inside
/// the process. All bookkeeping methods pass through.
struct KillSwitch<E> {
    inner: E,
    remaining: AtomicUsize,
}

impl<E> KillSwitch<E> {
    fn new(inner: E, kill_after: usize) -> Self {
        KillSwitch {
            inner,
            remaining: AtomicUsize::new(kill_after),
        }
    }

    fn spend(&self, n: usize) {
        let left = self.remaining.load(Ordering::Relaxed);
        if left < n {
            panic!("simulated kill");
        }
        self.remaining.store(left - n, Ordering::Relaxed);
    }
}

impl<E: Evaluator> Evaluator for KillSwitch<E> {
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        self.spend(1);
        self.inner.evaluate(point)
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        self.spend(points.len());
        self.inner.evaluate_batch(points)
    }

    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        self.spend(1);
        self.inner.try_evaluate(point)
    }

    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        self.spend(points.len());
        self.inner.try_evaluate_batch(points)
    }

    fn space(&self) -> &DesignSpace {
        self.inner.space()
    }

    fn constraints(&self) -> &[Constraint] {
        self.inner.constraints()
    }

    fn unique_evaluations(&self) -> usize {
        self.inner.unique_evaluations()
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        self.inner.decode(point)
    }

    fn cache_snapshot(&self) -> CacheSnapshot {
        self.inner.cache_snapshot()
    }

    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        self.inner.restore_caches(snapshot)
    }

    fn cache_stats(&self) -> edse_core::evaluate::CacheStats {
        self.inner.cache_stats()
    }
}

#[test]
fn killed_and_resumed_search_session_matches_straight_through() {
    silence_expected_panics();
    let config = DseConfig {
        budget: 40,
        seed: 2,
        ..DseConfig::default()
    };
    let reference_ev = edge_evaluator(EvalEngine::serial());
    let initial = reference_ev.space().minimum_point();
    let reference = SearchSession::new(dnn_latency_model(), config.clone())
        .evaluator(&reference_ev)
        .run(initial.clone());

    // Kill early, mid-run, and past the end (the latter degrades to
    // resuming a completed snapshot).
    for kill_after in [1usize, 9, 23, 10_000] {
        let path = temp_snapshot_path("search-kill");
        let killed_ev = KillSwitch::new(edge_evaluator(EvalEngine::serial()), kill_after);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            SearchSession::new(dnn_latency_model(), config.clone())
                .evaluator(&killed_ev)
                .spec(&JobSpec {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 1,
                    ..JobSpec::default()
                })
                .run(initial.clone())
        }));
        let resumed_ev = edge_evaluator(EvalEngine::serial());
        let resumed = SearchSession::new(dnn_latency_model(), config.clone())
            .evaluator(&resumed_ev)
            .spec(&JobSpec {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                resume: true,
                ..JobSpec::default()
            })
            .run(initial.clone());
        assert_results_identical(&resumed, &reference);
        assert_eq!(
            resumed_ev.unique_evaluations(),
            reference_ev.unique_evaluations(),
            "kill_after={kill_after}"
        );
        if let Ok(completed) = killed {
            assert_results_identical(&completed, &reference);
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn killed_and_resumed_baseline_session_matches_straight_through() {
    silence_expected_panics();
    let budget = 25;
    let reference = {
        let mut technique = RandomSearch::new(13);
        BaselineSession::new(&mut technique).run(&edge_evaluator(EvalEngine::serial()), budget)
    };

    for kill_after in [3usize, 12, 10_000] {
        let path = temp_snapshot_path("baseline-kill");
        let killed_ev = KillSwitch::new(edge_evaluator(EvalEngine::serial()), kill_after);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            let mut technique = RandomSearch::new(13);
            BaselineSession::new(&mut technique)
                .spec(&JobSpec {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 1,
                    ..JobSpec::default()
                })
                .run(&killed_ev, budget)
        }));
        let mut technique = RandomSearch::new(13);
        let resumed = BaselineSession::new(&mut technique)
            .spec(&JobSpec {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                resume: true,
                ..JobSpec::default()
            })
            .run(&edge_evaluator(EvalEngine::serial()), budget);
        assert_eq!(
            resumed.samples, reference.samples,
            "kill_after={kill_after}"
        );
        assert_eq!(resumed.technique, reference.technique);
        if let Ok(completed) = killed {
            assert_eq!(completed.samples, reference.samples);
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: cold vs warm runs over a persistent disk cache.
// ---------------------------------------------------------------------------

fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "edse-conformance-cache-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// The warm run's disk tier must have answered (almost) every layer-mapping
/// lookup; a single stray miss on a 100+-lookup run still passes, a cold
/// tier does not.
fn assert_warm(ev: &impl Evaluator, what: &str) {
    let disk = ev
        .cache_stats()
        .disk
        .unwrap_or_else(|| panic!("{what}: no disk tier attached"));
    let lookups = disk.hits + disk.misses;
    assert!(
        lookups > 0,
        "{what}: warm run never consulted the disk tier"
    );
    let rate = disk.hits as f64 / lookups as f64;
    assert!(
        rate >= 0.99,
        "{what}: warm disk hit rate {rate:.4} ({}/{lookups}) below 0.99",
        disk.hits
    );
}

/// An explainable search replayed against the cache directory its cold run
/// populated: bit-identical trace, and the mapper never runs again (the
/// disk tier answers ≥ 99% of layer lookups).
#[test]
fn warm_search_session_matches_the_cold_run_from_disk() {
    let config = DseConfig {
        budget: 40,
        seed: 5,
        ..DseConfig::default()
    };
    let dir = temp_cache_dir("search");
    let cold_ev = edge_evaluator(EvalEngine::serial())
        .with_disk_cache(Arc::new(DiskCache::open(&dir).expect("open cache")));
    let initial = cold_ev.space().minimum_point();
    let cold = SearchSession::new(dnn_latency_model(), config.clone())
        .evaluator(&cold_ev)
        .run(initial.clone());

    // A fresh process would reopen the directory: drop the cold evaluator
    // and rebuild the store from its segments alone.
    drop(cold_ev);
    let warm_ev = edge_evaluator(EvalEngine::serial())
        .with_disk_cache(Arc::new(DiskCache::open(&dir).expect("reopen cache")));
    let warm = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&warm_ev)
        .run(initial);
    assert_results_identical(&cold, &warm);
    assert_warm(&warm_ev, "search session");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every baseline technique, cold then warm, all sharing one cache
/// directory: each warm replay is bit-identical and served from disk. The
/// techniques overlap heavily in the configs they visit, so the shared
/// store also exercises cross-technique reuse.
#[test]
fn warm_baseline_sessions_match_their_cold_runs_from_disk() {
    type TechniqueFactory = fn(u64) -> Box<dyn DseTechnique>;
    let budget = 10;
    let factories: Vec<(&str, TechniqueFactory)> = vec![
        ("grid", |_| Box::new(GridSearch)),
        ("random", |s| Box::new(RandomSearch::new(s))),
        ("annealing", |s| Box::new(SimulatedAnnealing::new(s))),
        ("genetic", |s| Box::new(GeneticAlgorithm::new(8, s))),
        ("bayesian", |s| Box::new(BayesianOpt::new(s))),
        ("hypermapper", |s| Box::new(HyperMapperLike::new(s))),
        ("rl", |s| Box::new(ConfuciuxRl::new(s))),
    ];
    let dir = temp_cache_dir("baselines");
    let mut cold_samples = Vec::new();
    for (name, make) in &factories {
        let ev = edge_evaluator(EvalEngine::serial())
            .with_disk_cache(Arc::new(DiskCache::open(&dir).expect("open cache")));
        let mut technique = make(7);
        let trace = BaselineSession::new(technique.as_mut()).run(&ev, budget);
        cold_samples.push((*name, trace.samples));
    }
    for ((name, make), (_, cold)) in factories.iter().zip(&cold_samples) {
        let ev = edge_evaluator(EvalEngine::serial())
            .with_disk_cache(Arc::new(DiskCache::open(&dir).expect("reopen cache")));
        let mut technique = make(7);
        let warm = BaselineSession::new(technique.as_mut()).run(&ev, budget);
        assert_eq!(&warm.samples, cold, "technique {name} drifted when warm");
        assert_warm(&ev, name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Oracle 4: cached fast path vs the straight-line reference evaluator.
// ---------------------------------------------------------------------------

#[test]
fn fast_path_matches_naive_reference_bit_for_bit() {
    let fast = edge_evaluator(EvalEngine::serial());
    let reference = NaiveReferenceEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
    for point in spread_points(fast.space(), 16) {
        let expected = reference.evaluate(&point);
        let cold = fast.evaluate(&point);
        let warm = fast.evaluate(&point); // memoized path
        assert_eq!(cold, expected, "cold evaluation diverged at {point:?}");
        assert_eq!(warm, expected, "cache hit diverged at {point:?}");
    }
}

#[test]
fn batched_fast_path_matches_naive_reference() {
    let fast = edge_evaluator(EvalEngine::with_threads(4));
    let reference = NaiveReferenceEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
    let points = spread_points(fast.space(), 12);
    let batched = fast.evaluate_batch(&points);
    for (point, got) in points.iter().zip(&batched) {
        assert_eq!(
            got,
            &reference.evaluate(point),
            "batch diverged at {point:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Oracle 6: stepwise drivers vs blocking runs.
// ---------------------------------------------------------------------------

/// The Fig. 4 toy evaluator (all eight techniques finish it in well under
/// a second), parameterized over the evaluation engine so the oracle also
/// covers the parallel batch path.
fn toy_evaluator(engine: EvalEngine) -> CodesignEvaluator<FixedMapper> {
    CodesignEvaluator::new(
        bench::toy::toy_space(),
        vec![bench::toy::single_layer_model()],
        FixedMapper,
    )
    .with_engine(engine)
}

/// A deterministic baseline-technique factory for the driver oracle,
/// mirroring `bench::run_technique`'s registry.
fn toy_technique(kind: bench::TechniqueKind, seed: u64) -> Box<dyn DseTechnique> {
    use bench::TechniqueKind;
    match kind {
        TechniqueKind::Grid => Box::new(GridSearch),
        TechniqueKind::Random => Box::new(RandomSearch::new(seed)),
        TechniqueKind::Annealing => Box::new(SimulatedAnnealing::new(seed)),
        TechniqueKind::Genetic => Box::new(GeneticAlgorithm::new(8, seed)),
        TechniqueKind::Bayesian => Box::new(BayesianOpt::new(seed)),
        TechniqueKind::HyperMapper => Box::new(HyperMapperLike::new(seed)),
        TechniqueKind::Rl => Box::new(ConfuciuxRl::new(seed)),
        TechniqueKind::Explainable => unreachable!("explainable is not a baseline"),
    }
}

/// `SearchSession::run` / `BaselineSession::run` must be bit-identical to
/// stepping the corresponding driver by hand, for every technique, on both
/// the serial and the parallel engine — the API-redesign contract that lets
/// `edse-serve` interleave jobs without changing any result.
#[test]
fn driver_stepping_matches_blocking_run() {
    let budget = 24;
    let seed = 7;
    for engine in [EvalEngine::serial(), EvalEngine::with_threads(2)] {
        for kind in bench::TechniqueKind::ALL {
            if kind == bench::TechniqueKind::Explainable {
                let blocking_ev = toy_evaluator(engine);
                let config = DseConfig {
                    budget,
                    seed,
                    ..DseConfig::default()
                };
                let initial = blocking_ev.space().minimum_point();
                let blocking = SearchSession::new(dnn_latency_model(), config.clone())
                    .evaluator(&blocking_ev)
                    .run(initial.clone());

                let stepped_ev = toy_evaluator(engine);
                let mut driver = SearchSession::new(dnn_latency_model(), config)
                    .evaluator(&stepped_ev)
                    .driver(initial);
                let mut steps = 0usize;
                while driver.step() == edse_core::StepOutcome::Pending {
                    steps += 1;
                    assert!(steps < 10_000, "driver failed to terminate");
                }
                let stepped = driver.finish();
                assert_results_identical(&stepped, &blocking);
                assert_eq!(
                    stepped_ev.unique_evaluations(),
                    blocking_ev.unique_evaluations(),
                    "explainable driver re-evaluated points ({engine:?})"
                );
            } else {
                let blocking_ev = toy_evaluator(engine);
                let mut technique = toy_technique(kind, seed);
                let blocking = BaselineSession::new(technique.as_mut()).run(&blocking_ev, budget);

                let stepped_ev = toy_evaluator(engine);
                let mut driver = baselines::BaselineDriver::new(
                    move || toy_technique(kind, seed),
                    &stepped_ev,
                    budget,
                    &edse_core::JobSpec::default(),
                );
                let mut steps = 0usize;
                while driver.step() == edse_core::StepOutcome::Pending {
                    steps += 1;
                    assert!(steps < 10_000, "baseline driver failed to terminate");
                }
                let stepped = driver.finish();
                assert_eq!(
                    stepped.samples, blocking.samples,
                    "{kind:?} driver diverged ({engine:?})"
                );
                assert_eq!(stepped.technique, blocking.technique);
            }
        }
    }
}
