//! Ask/tell stepping oracles for the black-box baselines.
//!
//! A [`BaselineDriver`] keeps its technique between steps and runs one
//! propose → evaluate → observe round per step, so a stepped run must do
//! exactly the work of a blocking [`BaselineSession::run`]:
//!
//! 1. Every step counts each evaluated sample once: after each pending
//!    step the driver's evaluation count matches what its evaluator did
//!    (one unique evaluation per distinct point sampled so far, so exactly
//!    the count when a technique never revisits a point), and the
//!    iteration records it streams equal the blocking session's.
//! 2. No replay, by count: a stepped run makes exactly as many point-cache
//!    accesses as the blocking run, on the serial and the parallel engine.

use baselines::{
    BaselineDriver, BaselineSession, BayesianOpt, ConfuciuxRl, DseTechnique, GeneticAlgorithm,
    GridSearch, HyperMapperLike, RandomSearch, SensitivityGuided, SimulatedAnnealing,
    WarmStartHybrid,
};
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator, TierStats};
use edse_core::space::edge_space;
use edse_core::Sample;
use edse_core::{JobSpec, StepOutcome};
use edse_telemetry::{Collector, Event, IterationRecord, MemorySink};
use mapper::FixedMapper;
use std::collections::HashSet;
use workloads::zoo;

const HOSTED: [&str; 7] = [
    "grid",
    "random",
    "annealing",
    "genetic",
    "bayesian",
    "hypermapper",
    "rl",
];

/// Every technique, built as `edse-serve` builds the seven it hosts.
fn technique(name: &str, seed: u64) -> Box<dyn DseTechnique> {
    match name {
        "grid" => Box::new(GridSearch),
        "random" => Box::new(RandomSearch::new(seed)),
        "annealing" => Box::new(SimulatedAnnealing::new(seed)),
        "genetic" => Box::new(GeneticAlgorithm::new(16, seed)),
        "bayesian" => Box::new(BayesianOpt::new(seed)),
        "hypermapper" => Box::new(HyperMapperLike::new(seed)),
        "rl" => Box::new(ConfuciuxRl::new(seed)),
        "sensitivity" => Box::new(SensitivityGuided::new(seed)),
        "hybrid" => Box::new(WarmStartHybrid::new(
            Box::new(RandomSearch::new(seed)),
            0.4,
            seed,
        )),
        other => panic!("unknown technique {other}"),
    }
}

fn edge_evaluator(engine: EvalEngine) -> CodesignEvaluator<FixedMapper> {
    CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper).with_engine(engine)
}

fn engines() -> [EvalEngine; 2] {
    [EvalEngine::serial(), EvalEngine::with_threads(2)]
}

fn records(sink: &MemorySink) -> Vec<IterationRecord> {
    sink.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Iteration { record, .. } => Some(record),
            _ => None,
        })
        .collect()
}

/// Distinct points among `samples`.
fn distinct(samples: &[Sample]) -> usize {
    samples
        .iter()
        .map(|s| &s.point)
        .collect::<HashSet<_>>()
        .len()
}

/// Point-cache accesses: a hit, a miss, or a wait on a parallel
/// neighbor computing the same point (which a serial run counts as a hit).
fn accesses(point: &TierStats) -> u64 {
    point.hits + point.misses + point.inflight_waits
}

#[test]
fn stepped_baselines_count_each_sample_once() {
    let (budget, seed) = (30, 3);
    for engine in engines() {
        for name in HOSTED {
            let blocking_sink = MemorySink::new();
            let mut blocking_technique = technique(name, seed);
            let blocking = BaselineSession::new(blocking_technique.as_mut())
                .telemetry(Collector::builder().sink(blocking_sink.clone()).build())
                .run(&edge_evaluator(engine), budget);

            let stepped_sink = MemorySink::new();
            let mut driver = BaselineDriver::new(
                || technique(name, seed),
                edge_evaluator(engine),
                budget,
                &JobSpec::default(),
            )
            .telemetry(Collector::builder().sink(stepped_sink.clone()).build());
            let mut steps = 0usize;
            while driver.step() == StepOutcome::Pending {
                steps += 1;
                assert!(steps <= budget, "{name}: more steps than samples");
                assert!(driver.evaluations() <= blocking.evaluations(), "{name}");
                assert_eq!(
                    driver.evaluator().unique_evaluations(),
                    distinct(&blocking.samples[..driver.evaluations()]),
                    "{name} after step {steps} ({engine:?})"
                );
                assert_eq!(
                    records(&stepped_sink).len(),
                    driver.evaluations(),
                    "{name} streamed a record per sample ({engine:?})"
                );
            }
            assert_eq!(driver.evaluations(), blocking.evaluations(), "{name}");
            assert_eq!(
                records(&stepped_sink),
                records(&blocking_sink),
                "{name} streamed records ({engine:?})"
            );
        }
    }
}

#[test]
fn stepping_does_no_replay_work() {
    let (budget, seed) = (24, 5);
    let all = HOSTED.into_iter().chain(["sensitivity", "hybrid"]);
    for engine in engines() {
        for name in all.clone() {
            let blocking_ev = edge_evaluator(engine);
            let mut blocking_technique = technique(name, seed);
            let blocking =
                BaselineSession::new(blocking_technique.as_mut()).run(&blocking_ev, budget);

            let mut driver = BaselineDriver::new(
                || technique(name, seed),
                edge_evaluator(engine),
                budget,
                &JobSpec::default(),
            );
            while driver.step() == StepOutcome::Pending {}
            let stepped_point = driver.evaluator().cache_stats().point;
            assert_eq!(
                driver.finish().samples,
                blocking.samples,
                "{name} ({engine:?})"
            );
            let blocking_point = blocking_ev.cache_stats().point;
            assert_eq!(
                accesses(&stepped_point),
                accesses(&blocking_point),
                "{name}: stepped point-cache accesses vs blocking ({engine:?})"
            );
            assert_eq!(
                stepped_point.misses, blocking_point.misses,
                "{name} ({engine:?})"
            );
        }
    }
}
