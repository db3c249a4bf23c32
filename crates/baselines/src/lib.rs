#![warn(missing_docs)]
//! Non-explainable DSE baselines, reimplementing the comparison set of the
//! Explainable-DSE paper's §5: grid search, random search, simulated
//! annealing (SciPy-style), a genetic algorithm (scikit-opt style),
//! Bayesian optimization, HyperMapper-2.0-style constrained Bayesian
//! optimization, and Confuciux-style constrained reinforcement learning.
//!
//! All techniques run against the same [`edse_core::evaluate::Evaluator`]
//! and report the same [`edse_core::cost::Trace`] format as the explainable
//! DSE, so every figure compares like with like.
//!
//! Every technique is an ask/tell state machine ([`DseTechnique`]): it
//! proposes a batch of points, is told their evaluations, and proposes the
//! next batch. One loop drives that protocol for all three entry points —
//! [`DseTechnique::run`], [`BaselineSession::run`] and
//! [`BaselineDriver::step`] — so a stepped run does exactly the work of a
//! blocking one.
//!
//! # Example
//!
//! ```
//! use baselines::{DseTechnique, RandomSearch};
//! use edse_core::evaluate::CodesignEvaluator;
//! use edse_core::space::edge_space;
//! use mapper::FixedMapper;
//! use workloads::zoo;
//!
//! let evaluator =
//!     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
//! let trace = RandomSearch::new(7).run(&evaluator, 20);
//! assert_eq!(trace.evaluations(), 20);
//! ```

pub mod bo;
pub mod hybrid;
pub mod rl;
pub mod sensitivity;
pub mod simple;

pub use bo::{BayesianOpt, HyperMapperLike};
pub use hybrid::WarmStartHybrid;
pub use rl::ConfuciuxRl;
pub use sensitivity::SensitivityGuided;
pub use simple::{GeneticAlgorithm, GridSearch, RandomSearch, SimulatedAnnealing};

use edse_core::checkpoint::{load_baseline, save_baseline, BaselineSnapshot};
use edse_core::cost::{Constraint, Evaluation, Sample, Trace};
use edse_core::evaluate::Evaluator;
use edse_core::space::{DesignPoint, DesignSpace};
use edse_core::{CancelToken, JobSpec, StepOutcome};
use edse_telemetry::{Collector, Level};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a technique may read about the run it is in: the problem, and how
/// many samples the run has evaluated so far.
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    /// The space points are drawn from.
    pub space: &'a DesignSpace,
    /// The constraints a feasible point meets.
    pub constraints: &'a [Constraint],
    /// How many samples the run may evaluate.
    pub budget: usize,
    /// How many samples the run has evaluated so far.
    pub evaluations: usize,
}

impl Problem<'_> {
    /// Whether the run has used its whole budget.
    pub fn spent(&self) -> bool {
        self.evaluations >= self.budget
    }
}

/// A DSE technique as an ask/tell state machine: [`DseTechnique::propose`]
/// asks for the next batch of points to evaluate, and
/// [`DseTechnique::observe`] tells the technique their evaluations.
///
/// A run calls [`DseTechnique::start`] once, then alternates `propose` and
/// `observe` until `propose` returns an empty batch. Points within one batch
/// never depend on each other's results, so a parallel evaluator evaluates
/// a batch at once without changing any result.
pub trait DseTechnique: Send {
    /// Technique name for reports, e.g. `"random"`.
    fn name(&self) -> String;

    /// Begins a fresh run, discarding the state of any earlier one (random
    /// number generators carry on where they were). Techniques with
    /// per-run state override it; the default does nothing.
    fn start(&mut self, problem: &Problem) {
        let _ = problem;
    }

    /// The next batch of points to evaluate; empty when the run is over.
    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint>;

    /// The evaluations of the batch the last `propose` returned, in its
    /// order (`problem.evaluations` does not count them yet). Techniques
    /// without feedback keep the default, which ignores them.
    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        let _ = (problem, points, evaluations);
    }

    /// Runs the technique to the end against an evaluator and returns the
    /// trace. Provided, and not meant to be overridden: it is the same
    /// loop [`BaselineSession`] and [`BaselineDriver`] drive.
    ///
    /// For telemetry (a `baseline/<name>` span plus per-sample iteration
    /// records) and checkpoint/resume, run the technique through
    /// [`BaselineSession`] instead of calling this directly.
    fn run(&mut self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        let mut run = AskTell::new(self, evaluator, budget, Collector::noop());
        while run.round(self, evaluator) {}
        run.trace
    }
}

/// The penalized scalar cost every feedback technique optimizes: the
/// objective for feasible points; a large violation-scaled penalty
/// otherwise, so unconstrained optimizers still feel constraint pressure
/// the way the paper's penalized baselines do.
pub(crate) fn penalized_cost(evaluation: &Evaluation, constraints: &[Constraint]) -> f64 {
    if evaluation.feasible(constraints) {
        evaluation.objective
    } else {
        let budget = evaluation.constraint_budget(constraints);
        // Infeasible points rank strictly worse than any feasible one and
        // worse the deeper the violation.
        if budget.is_finite() {
            1e12 * (1.0 + budget)
        } else {
            1e15
        }
    }
}

/// The one propose → evaluate → observe loop: it owns the trace, streams
/// an iteration record per sample, and snapshots the evaluator caches at
/// batch boundaries.
struct AskTell {
    trace: Trace,
    budget: usize,
    telemetry: Collector,
    checkpoint: Option<Checkpoint>,
}

/// Where and how often an [`AskTell`] loop snapshots the evaluator caches.
struct Checkpoint {
    path: PathBuf,
    every: usize,
    /// Unique evaluations at the last snapshot.
    saved_at: usize,
}

impl AskTell {
    /// Starts `technique` on a run of `budget` evaluations.
    fn new<T: DseTechnique + ?Sized>(
        technique: &mut T,
        evaluator: &dyn Evaluator,
        budget: usize,
        telemetry: Collector,
    ) -> AskTell {
        technique.start(&Problem {
            space: evaluator.space(),
            constraints: evaluator.constraints(),
            budget,
            evaluations: 0,
        });
        AskTell {
            trace: Trace::new(technique.name()),
            budget,
            telemetry,
            checkpoint: None,
        }
    }

    /// Snapshots to `path` whenever `every` (at least 1) new unique
    /// evaluations have accrued since the last snapshot. With `resume`
    /// and an existing snapshot, first restores the evaluator caches from
    /// it, so re-running the loop answers every completed evaluation from
    /// cache.
    ///
    /// # Errors
    ///
    /// A resume snapshot that cannot be loaded, or that records another
    /// technique or budget: re-running is only bit-identical when it
    /// repeats the interrupted run exactly, so a mismatch is refused
    /// rather than silently recomputed.
    fn checkpoint(
        &mut self,
        evaluator: &dyn Evaluator,
        path: &Path,
        every: usize,
        resume: bool,
    ) -> Result<(), String> {
        if resume && path.exists() {
            let snapshot = self.load(path)?;
            evaluator.restore_caches(&snapshot.caches);
            self.telemetry.log(
                Level::Info,
                &format!(
                    "resumed baseline {} from {} with {} cached evaluations",
                    self.trace.technique,
                    path.display(),
                    snapshot.caches.unique_evaluations
                ),
            );
        }
        self.checkpoint = Some(Checkpoint {
            path: path.to_path_buf(),
            every: every.max(1),
            saved_at: 0,
        });
        Ok(())
    }

    /// Loads the snapshot at `path` and checks it records this run.
    fn load(&self, path: &Path) -> Result<BaselineSnapshot, String> {
        let snapshot = load_baseline(path).map_err(|e| format!("cannot resume baseline: {e}"))?;
        if snapshot.technique != self.trace.technique {
            return Err(format!(
                "cannot resume baseline: snapshot records technique {:?}, this run is {:?}",
                snapshot.technique, self.trace.technique
            ));
        }
        if snapshot.budget != self.budget {
            return Err(format!(
                "cannot resume baseline: snapshot records budget {}, this run has {}",
                snapshot.budget, self.budget
            ));
        }
        Ok(snapshot)
    }

    /// One round: asks `technique` for a batch, evaluates it, and tells the
    /// technique the results. Returns `false`, having done nothing, once
    /// the technique proposes an empty batch.
    fn round<T: DseTechnique + ?Sized>(
        &mut self,
        technique: &mut T,
        evaluator: &dyn Evaluator,
    ) -> bool {
        let started = Instant::now();
        let problem = Problem {
            space: evaluator.space(),
            constraints: evaluator.constraints(),
            budget: self.budget,
            evaluations: self.trace.evaluations(),
        };
        let points = technique.propose(&problem);
        if points.is_empty() {
            return false;
        }
        let evaluations = evaluator.evaluate_batch(&points);
        technique.observe(&problem, &points, &evaluations);
        let emitted = self.trace.samples.len();
        self.trace
            .samples
            .extend(
                points
                    .into_iter()
                    .zip(evaluations)
                    .map(|(point, eval)| Sample {
                        feasible: eval.feasible(problem.constraints),
                        point,
                        objective: eval.objective,
                        constraint_values: eval.constraint_values,
                    }),
            );
        self.trace
            .emit_iteration_records_from(&self.telemetry, self.budget, emitted);
        if let Some(checkpoint) = &self.checkpoint {
            let uniques = evaluator.unique_evaluations();
            if uniques >= checkpoint.saved_at + checkpoint.every {
                self.save(evaluator);
            }
        }
        self.trace.wall_seconds += started.elapsed().as_secs_f64();
        true
    }

    /// Snapshots the evaluator caches now when checkpointing is on; returns
    /// whether a save was attempted. A failed save is counted
    /// (`checkpoint/save_failures`) and logged, never raised: losing a
    /// snapshot must not kill the run it exists to protect.
    fn save(&mut self, evaluator: &dyn Evaluator) -> bool {
        let Some(checkpoint) = &mut self.checkpoint else {
            return false;
        };
        checkpoint.saved_at = evaluator.unique_evaluations();
        let snapshot = BaselineSnapshot {
            technique: self.trace.technique.clone(),
            budget: self.budget,
            caches: evaluator.cache_snapshot(),
        };
        match save_baseline(&checkpoint.path, &snapshot) {
            Ok(()) => self.telemetry.counter("checkpoint/saves", 1),
            Err(e) => {
                self.telemetry.counter("checkpoint/save_failures", 1);
                self.telemetry
                    .log(Level::Warn, &format!("checkpoint save failed: {e}"));
            }
        }
        true
    }
}

/// Builder and runner for one baseline exploration: telemetry plus
/// checkpoint/resume for any [`DseTechnique`], mirroring
/// `edse_core::SearchSession` for the explainable search.
///
/// With a checkpoint path the session snapshots the *evaluator caches* at
/// batch boundaries, once every `checkpoint_every` new unique evaluations
/// and at the end. Resuming restores those caches and runs the
/// deterministic technique from the start: every evaluation the
/// interrupted run completed is answered from cache, and the resumed trace
/// is bit-for-bit identical to the uninterrupted one.
///
/// ```
/// use baselines::{BaselineSession, RandomSearch};
/// use edse_core::evaluate::CodesignEvaluator;
/// use edse_core::space::edge_space;
/// use mapper::FixedMapper;
/// use workloads::zoo;
///
/// let evaluator =
///     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
/// let mut technique = RandomSearch::new(7);
/// let trace = BaselineSession::new(&mut technique).run(&evaluator, 20);
/// assert_eq!(trace.evaluations(), 20);
/// ```
pub struct BaselineSession<'t> {
    technique: &'t mut dyn DseTechnique,
    telemetry: Collector,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
}

impl<'t> BaselineSession<'t> {
    /// Starts a session around a technique. Telemetry defaults to the
    /// inert collector and checkpointing is off.
    pub fn new(technique: &'t mut dyn DseTechnique) -> Self {
        BaselineSession {
            technique,
            telemetry: Collector::noop(),
            checkpoint: None,
            checkpoint_every: 10,
            resume: false,
        }
    }

    /// Attaches a telemetry collector: the run gets a `baseline/<name>`
    /// span and per-sample iteration records.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies the session-relevant subset of a [`JobSpec`]: checkpoint
    /// path, snapshot cadence, and resume policy — the same configuration
    /// surface `edse_core::SearchSession::spec` consumes.
    pub fn spec(mut self, spec: &JobSpec) -> Self {
        self.checkpoint = spec.checkpoint.clone();
        self.checkpoint_every = spec.checkpoint_every.max(1);
        self.resume = spec.resume;
        self
    }

    /// Runs the technique for `budget` evaluations.
    ///
    /// # Panics
    ///
    /// Panics when resume is enabled and the snapshot file exists but
    /// cannot be loaded, or records a different technique or budget than
    /// this run (use [`BaselineDriver::try_new`] to get the error instead).
    pub fn run(self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        let technique = self.technique;
        let mut run = AskTell::new(&mut *technique, evaluator, budget, self.telemetry);
        if let Some(path) = &self.checkpoint {
            run.checkpoint(evaluator, path, self.checkpoint_every, self.resume)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        {
            let _span = run
                .telemetry
                .span(&format!("baseline/{}", run.trace.technique));
            while run.round(&mut *technique, evaluator) {}
        }
        run.save(evaluator);
        run.trace
    }
}

/// An owned, stepwise, cancellable baseline exploration — the baseline
/// counterpart of `edse_core::SearchDriver`, speaking the same
/// [`StepOutcome`]/[`CancelToken`] protocol so a scheduler can interleave
/// explainable and baseline jobs uniformly.
///
/// The driver keeps the technique between steps, and each
/// [`BaselineDriver::step`] is one round of the loop behind
/// [`BaselineSession::run`]: one proposed batch, evaluated and observed.
/// A stepped run therefore does exactly the work of a blocking one, and
/// its trace is bit-for-bit identical (enforced by the conformance oracle
/// `driver_stepping_matches_blocking_run`). Each step streams the
/// iteration records of the samples it appended.
pub struct BaselineDriver<E> {
    technique: Box<dyn DseTechnique>,
    evaluator: E,
    run: AskTell,
    cancel: CancelToken,
    outcome: Option<StepOutcome>,
}

impl<E: Evaluator> BaselineDriver<E> {
    /// Starts a driver on the technique `factory` builds, for `budget`
    /// evaluations, with the checkpoint policy of `spec`.
    ///
    /// # Panics
    ///
    /// Panics where [`BaselineDriver::try_new`] returns an error.
    pub fn new<F>(factory: F, evaluator: E, budget: usize, spec: &JobSpec) -> Self
    where
        F: FnOnce() -> Box<dyn DseTechnique>,
    {
        Self::try_new(factory(), evaluator, budget, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts a driver on `technique`, for `budget` evaluations, with the
    /// checkpoint policy of `spec`. With [`JobSpec::resume`] and an
    /// existing snapshot, the evaluator caches are restored from it first.
    ///
    /// # Errors
    ///
    /// The resume snapshot exists but cannot be loaded, or records a
    /// different technique or budget.
    pub fn try_new(
        mut technique: Box<dyn DseTechnique>,
        evaluator: E,
        budget: usize,
        spec: &JobSpec,
    ) -> Result<Self, String> {
        let mut run = AskTell::new(technique.as_mut(), &evaluator, budget, Collector::noop());
        if let Some(path) = &spec.checkpoint {
            run.checkpoint(&evaluator, path, spec.checkpoint_every, spec.resume)?;
        }
        Ok(BaselineDriver {
            technique,
            evaluator,
            run,
            cancel: CancelToken::new(),
            outcome: None,
        })
    }

    /// Attaches a telemetry collector: each step then streams the
    /// iteration records of the samples it appended.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.run.telemetry = telemetry;
        self
    }

    /// Uses `token` as the driver's cancellation token instead of a fresh
    /// one.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A clone of the driver's cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Advances the exploration by one batch. Checks the [`CancelToken`]
    /// first: when it has fired, no batch runs, the evaluator caches are
    /// snapshotted if checkpointing is configured, and
    /// [`StepOutcome::Cancelled`] is returned. The step on which the
    /// technique proposes nothing more snapshots too and returns
    /// [`StepOutcome::Done`]. After either, further calls are no-ops
    /// returning the same outcome.
    pub fn step(&mut self) -> StepOutcome {
        if let Some(outcome) = self.outcome {
            return outcome;
        }
        let outcome = if self.cancel.is_cancelled() {
            StepOutcome::Cancelled
        } else {
            let _span = self
                .run
                .telemetry
                .span(&format!("baseline/{}", self.run.trace.technique));
            if self.run.round(self.technique.as_mut(), &self.evaluator) {
                return StepOutcome::Pending;
            }
            StepOutcome::Done
        };
        self.snapshot();
        self.outcome = Some(outcome);
        outcome
    }

    /// Steps until the exploration terminates or the token fires, then
    /// returns the trace.
    pub fn run_to_completion(mut self) -> Trace {
        while self.step() == StepOutcome::Pending {}
        self.finish()
    }

    /// Writes an evaluator-cache snapshot now when checkpointing is
    /// configured; a no-op otherwise. Returns whether a save was attempted.
    pub fn snapshot(&mut self) -> bool {
        self.run.save(&self.evaluator)
    }

    /// Whether the exploration has terminated or been cancelled.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// Samples evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.run.trace.evaluations()
    }

    /// Objective of the best feasible sample so far, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.best().map(|s| s.objective)
    }

    /// Best feasible sample so far, if any.
    pub fn best(&self) -> Option<&Sample> {
        self.run.trace.best_feasible()
    }

    /// The evaluator the driver owns.
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Consumes the driver, yielding the trace explored so far.
    pub fn finish(self) -> Trace {
        self.run.trace
    }
}

/// Uniformly random point in a space.
pub(crate) fn random_point(space: &DesignSpace, rng: &mut rand::rngs::StdRng) -> DesignPoint {
    use rand::Rng;
    DesignPoint::new(
        space
            .params()
            .iter()
            .map(|p| rng.gen_range(0..p.len()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn every_technique_respects_budget_and_reports_samples() {
        let budget = 15;
        let mut techs: Vec<Box<dyn DseTechnique>> = vec![
            Box::new(GridSearch),
            Box::new(RandomSearch::new(1)),
            Box::new(SimulatedAnnealing::new(1)),
            Box::new(GeneticAlgorithm::new(6, 1)),
            Box::new(BayesianOpt::new(1)),
            Box::new(HyperMapperLike::new(1)),
            Box::new(ConfuciuxRl::new(1)),
        ];
        for t in &mut techs {
            let ev = evaluator();
            let trace = t.run(&ev, budget);
            assert!(
                trace.evaluations() <= budget,
                "{} overshot: {}",
                t.name(),
                trace.evaluations()
            );
            assert!(trace.evaluations() > 0, "{} did nothing", t.name());
            assert!(!trace.technique.is_empty());
        }
    }

    #[test]
    fn traced_session_matches_run_and_emits_comparable_records() {
        use edse_telemetry::{Event, MemorySink};
        let budget = 12;
        let plain = RandomSearch::new(3).run(&evaluator(), budget);

        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let mut technique = RandomSearch::new(3);
        let traced = BaselineSession::new(&mut technique)
            .telemetry(collector.clone())
            .run(&evaluator(), budget);
        // Identical samples; wall_seconds legitimately differs between runs.
        assert_eq!(
            plain.samples, traced.samples,
            "telemetry must not change the search"
        );

        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnter { name, .. } if name == "baseline/random")),
            "the traced session must open a technique span"
        );
        let records: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::Iteration { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), traced.evaluations());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.technique, "random");
            assert_eq!(rec.iteration as usize, i);
            // A black box offers no explanation — that contrast with the
            // explainable DSE's records is the point.
            assert!(rec.bottleneck.is_none());
            assert_eq!((rec.proposed, rec.deduped, rec.evaluated), (1, 0, 1));
            assert_eq!(rec.budget_remaining as usize, budget - (i + 1));
        }
    }

    #[test]
    fn baseline_warm_starts_from_a_shared_disk_cache() {
        use edse_core::DiskCache;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-diskcache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let budget = 10;
        let cold = {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let ev = evaluator().with_disk_cache(disk);
            let mut technique = RandomSearch::new(5);
            BaselineSession::new(&mut technique).run(&ev, budget)
        };
        // Same technique in a fresh process: identical trace, all layer
        // mappings answered from disk.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let ev = evaluator().with_disk_cache(disk);
        let mut technique = RandomSearch::new(5);
        let warm = BaselineSession::new(&mut technique).run(&ev, budget);
        assert_eq!(cold.samples, warm.samples, "warm must be bit-identical");
        let disk_stats = ev.cache_stats().disk.unwrap();
        assert!(disk_stats.hits > 0);
        assert_eq!(disk_stats.misses, 0);
        drop(ev);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_resumes_by_replay_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("annealing.ckpt.json");
        let budget = 14;
        let spec = JobSpec {
            checkpoint: Some(path.clone()),
            checkpoint_every: 3,
            ..JobSpec::default()
        };

        let mut technique = SimulatedAnnealing::new(9);
        let uninterrupted = BaselineSession::new(&mut technique).run(&evaluator(), budget);

        // "Interrupted" run: a driver snapshotting every 3 unique
        // evaluations, abandoned halfway through the budget.
        {
            let mut driver = BaselineDriver::new(
                || Box::new(SimulatedAnnealing::new(9)),
                evaluator(),
                budget,
                &spec,
            );
            while driver.evaluations() < budget / 2 {
                assert_eq!(driver.step(), StepOutcome::Pending);
            }
            assert!(driver.evaluator().unique_evaluations() < budget);
        }
        assert!(path.exists(), "interrupted run must leave a snapshot");

        // Resume: restore caches and re-run from the start; the completed
        // evaluations are answered from cache.
        let ev = evaluator();
        let mut technique = SimulatedAnnealing::new(9);
        let resumed = BaselineSession::new(&mut technique)
            .spec(&JobSpec {
                resume: true,
                ..spec.clone()
            })
            .run(&ev, budget);
        assert_eq!(
            uninterrupted.samples, resumed.samples,
            "replay-resume must be bit-identical"
        );

        // A mismatched budget must refuse to resume rather than silently
        // replay a different search.
        let mut technique = SimulatedAnnealing::new(9);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BaselineSession::new(&mut technique)
                .spec(&JobSpec {
                    resume: true,
                    ..spec.clone()
                })
                .run(&evaluator(), budget + 1)
        }));
        assert!(refused.is_err(), "budget drift must be rejected");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn driver_refuses_unloadable_or_foreign_snapshots_with_an_error() {
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-refuse-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let spec = JobSpec {
            checkpoint: Some(path.clone()),
            resume: true,
            ..JobSpec::default()
        };
        let try_new = |technique: Box<dyn DseTechnique>, budget| {
            BaselineDriver::try_new(technique, evaluator(), budget, &spec).map(|_| ())
        };

        std::fs::write(&path, "{ not json").unwrap();
        let err = try_new(Box::new(RandomSearch::new(1)), 10).unwrap_err();
        assert!(err.starts_with("cannot resume baseline"), "{err}");

        // A snapshot of a random search at budget 10...
        std::fs::remove_file(&path).unwrap();
        let mut driver = BaselineDriver::new(
            || Box::new(RandomSearch::new(1)),
            evaluator(),
            10,
            &JobSpec {
                resume: false,
                ..spec.clone()
            },
        );
        while driver.step() == StepOutcome::Pending {}
        assert!(path.exists());
        // ...resumes the same run, and refuses another technique or budget.
        assert!(try_new(Box::new(RandomSearch::new(1)), 10).is_ok());
        let err = try_new(Box::new(GridSearch), 10).unwrap_err();
        assert!(err.contains("technique"), "{err}");
        let err = try_new(Box::new(RandomSearch::new(1)), 11).unwrap_err();
        assert!(err.contains("budget"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn penalized_cost_orders_infeasible_below_feasible() {
        let ev = evaluator();
        // Minimum point: infeasible (violates the throughput floor).
        let bad = ev.evaluate(&ev.space().minimum_point());
        assert!(penalized_cost(&bad, ev.constraints()) >= 1e12);
    }
}
