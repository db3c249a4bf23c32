//! Experiment harness shared by the figure/table-regenerating binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index). This library
//! provides the common pieces: CLI argument handling with a `--quick`
//! preset, the technique registry (every baseline plus Explainable-DSE,
//! each in the fixed-dataflow and codesign settings), and plain-text table
//! rendering so each binary prints the same rows/series the paper reports.

use baselines::{
    BaselineSession, BayesianOpt, ConfuciuxRl, DseTechnique, GeneticAlgorithm, GridSearch,
    HyperMapperLike, RandomSearch, SimulatedAnnealing,
};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::cost::Trace;
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::edge_space;
use edse_core::{JobSpec, SearchSession};
use edse_telemetry::Collector;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
use workloads::DnnModel;

pub mod cli;
pub mod report;
pub mod toy;
pub mod tracefile;
pub use cli::{BenchArgs, SessionOpts};
pub use report::{BenchReport, TraceSummary};
pub use tracefile::{load_events, TraceError};

/// How mappings are obtained during hardware exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperKind {
    /// The fixed optimized output-stationary dataflow (the paper's
    /// "-FixDF" setting).
    FixedDataflow,
    /// Tightly coupled codesign via the pruned-space linear mapper with a
    /// top-`N` budget.
    Linear(usize),
    /// Timeloop-style random mapping search with the given trials (the
    /// paper's black-box codesign setting).
    Random(usize),
}

impl MapperKind {
    fn build(self, seed: u64) -> Box<dyn MappingOptimizer> {
        match self {
            MapperKind::FixedDataflow => Box::new(FixedMapper),
            MapperKind::Linear(n) => Box::new(LinearMapper::new(n)),
            MapperKind::Random(trials) => Box::new(RandomMapper::new(trials, seed)),
        }
    }

    /// Suffix used in technique labels (`-fixdf` / `-codesign`).
    pub fn suffix(self) -> &'static str {
        match self {
            MapperKind::FixedDataflow => "-fixdf",
            _ => "-codesign",
        }
    }
}

/// The DSE techniques of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechniqueKind {
    /// Grid search (non-feedback).
    Grid,
    /// Random search (non-feedback).
    Random,
    /// Simulated annealing.
    Annealing,
    /// Genetic algorithm.
    Genetic,
    /// Vanilla Bayesian optimization.
    Bayesian,
    /// HyperMapper-2.0-style constrained Bayesian optimization.
    HyperMapper,
    /// Confuciux-style constrained RL.
    Rl,
    /// Explainable-DSE (this paper).
    Explainable,
}

impl TechniqueKind {
    /// All techniques in the paper's row order.
    pub const ALL: [TechniqueKind; 8] = [
        TechniqueKind::Grid,
        TechniqueKind::Random,
        TechniqueKind::Annealing,
        TechniqueKind::Genetic,
        TechniqueKind::Bayesian,
        TechniqueKind::HyperMapper,
        TechniqueKind::Rl,
        TechniqueKind::Explainable,
    ];

    /// Paper-style row label, e.g. `"HyperMapper 2.0"`.
    pub fn label(self) -> &'static str {
        match self {
            TechniqueKind::Grid => "Grid Search",
            TechniqueKind::Random => "Random Search",
            TechniqueKind::Annealing => "Simulated Annealing",
            TechniqueKind::Genetic => "Genetic Algorithm",
            TechniqueKind::Bayesian => "Bayesian Optimization",
            TechniqueKind::HyperMapper => "HyperMapper 2.0",
            TechniqueKind::Rl => "Reinforcement Learning",
            TechniqueKind::Explainable => "Explainable-DSE",
        }
    }
}

/// Runs Explainable-DSE and returns its trace together with the
/// evaluation counts at which each exploration phase converged (the first
/// entry is the paper's "iterations to converge"). Telemetry is wired
/// through both the DSE loop (iteration records) and the evaluator
/// (cache/stage metrics); counter deltas are flushed at the end, so each
/// run snapshots its own traffic into the trace.
pub fn run_explainable_detailed(
    mapper: MapperKind,
    models: Vec<DnnModel>,
    budget: usize,
    seed: u64,
    telemetry: &Collector,
    session: &SessionOpts,
) -> (Trace, Vec<usize>) {
    let evaluator = session.attach_disk(
        CodesignEvaluator::new(edge_space(), models, mapper.build(seed))
            .with_telemetry(telemetry.clone()),
    );
    let mut search = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            seed,
            ..DseConfig::default()
        },
    )
    .evaluator(&evaluator)
    .telemetry(telemetry.clone());
    if let Some(path) = session.path_for(&format!("explainable{}", mapper.suffix())) {
        search = search.spec(&JobSpec {
            checkpoint: Some(path),
            checkpoint_every: session.every,
            resume: session.resume,
            ..JobSpec::default()
        });
    }
    let initial = evaluator.space().minimum_point();
    let result = search.run(initial);
    telemetry.flush();
    let converged = result.converged_after().to_vec();
    let mut trace = result.into_trace();
    trace.technique = format!("{}{}", trace.technique, mapper.suffix());
    (trace, converged)
}

/// Runs one technique on one workload set and returns the trace.
///
/// Explainable-DSE emits live iteration records; the black-box baselines
/// go through a [`BaselineSession`], which reconstructs comparable
/// records post hoc. Either way the evaluator reports cache and stage
/// metrics, and the run ends with a counter/histogram flush. When
/// `session` enables checkpointing, each technique snapshots to its own
/// `<base>.<technique><suffix>` file (see [`SessionOpts::path_for`]);
/// when it carries a disk cache (`--cache-dir`), the evaluator
/// warm-starts layer mappings from it and persists new ones.
pub fn run_technique(
    kind: TechniqueKind,
    mapper: MapperKind,
    models: Vec<DnnModel>,
    budget: usize,
    seed: u64,
    telemetry: &Collector,
    session: &SessionOpts,
) -> Trace {
    let evaluator = session.attach_disk(
        CodesignEvaluator::new(edge_space(), models, mapper.build(seed))
            .with_telemetry(telemetry.clone()),
    );
    let mut trace = match kind {
        TechniqueKind::Explainable => {
            let mut search = SearchSession::new(
                dnn_latency_model(),
                DseConfig {
                    budget,
                    seed,
                    ..DseConfig::default()
                },
            )
            .evaluator(&evaluator)
            .telemetry(telemetry.clone());
            if let Some(path) = session.path_for(&format!("explainable{}", mapper.suffix())) {
                search = search.spec(&JobSpec {
                    checkpoint: Some(path),
                    checkpoint_every: session.every,
                    resume: session.resume,
                    ..JobSpec::default()
                });
            }
            let initial = evaluator.space().minimum_point();
            search.run(initial).into_trace()
        }
        other => {
            let mut technique: Box<dyn DseTechnique> = match other {
                TechniqueKind::Grid => Box::new(GridSearch),
                TechniqueKind::Random => Box::new(RandomSearch::new(seed)),
                TechniqueKind::Annealing => Box::new(SimulatedAnnealing::new(seed)),
                TechniqueKind::Genetic => Box::new(GeneticAlgorithm::new(16, seed)),
                TechniqueKind::Bayesian => Box::new(BayesianOpt::new(seed)),
                TechniqueKind::HyperMapper => Box::new(HyperMapperLike::new(seed)),
                TechniqueKind::Rl => Box::new(ConfuciuxRl::new(seed)),
                TechniqueKind::Explainable => unreachable!("handled above"),
            };
            let label = format!("{}{}", technique.name(), mapper.suffix());
            let mut run = BaselineSession::new(technique.as_mut()).telemetry(telemetry.clone());
            if let Some(path) = session.path_for(&label) {
                run = run.spec(&JobSpec {
                    checkpoint: Some(path),
                    checkpoint_every: session.every,
                    resume: session.resume,
                    ..JobSpec::default()
                });
            }
            run.run(&evaluator, budget)
        }
    };
    telemetry.flush();
    trace.technique = format!("{}{}", trace.technique, mapper.suffix());
    trace
}

/// Formats a latency cell the way Table 2 does: the value, `-` when no
/// feasible design was found, and `-*` when not even area/power were met.
pub fn latency_cell(trace: &Trace, constraints: &[edse_core::Constraint]) -> String {
    match trace.best_feasible() {
        Some(s) => format!("{:.1}", s.objective),
        None => {
            let any_area_power = trace.samples.iter().any(|s| {
                s.constraint_values
                    .iter()
                    .zip(constraints)
                    .take(2)
                    .all(|(v, c)| c.satisfied(*v))
            });
            if any_area_power {
                "-".into()
            } else {
                "-*".into()
            }
        }
    }
}

/// Prints a plain-text table: header row then aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>width$}", width = w))
            .collect();
        println!("{}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The paper's edge constraints for a workload set (used for reporting).
pub fn constraints_for(models: &[DnnModel]) -> Vec<edse_core::Constraint> {
    let evaluator = CodesignEvaluator::new(edge_space(), models.to_vec(), FixedMapper);
    evaluator.constraints().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::zoo;

    #[test]
    fn technique_registry_runs_every_kind_briefly() {
        for kind in TechniqueKind::ALL {
            let t = run_technique(
                kind,
                MapperKind::FixedDataflow,
                vec![zoo::resnet18()],
                8,
                3,
                &Collector::noop(),
                &SessionOpts::none(),
            );
            assert!(t.evaluations() <= 8, "{:?}", kind);
            assert!(t.technique.ends_with("-fixdf"));
        }
    }

    #[test]
    fn latency_cell_distinguishes_failure_modes() {
        let t = run_technique(
            TechniqueKind::Explainable,
            MapperKind::FixedDataflow,
            vec![zoo::resnet18()],
            60,
            3,
            &Collector::noop(),
            &SessionOpts::none(),
        );
        let constraints = constraints_for(&[zoo::resnet18()]);
        let cell = latency_cell(&t, &constraints);
        assert!(!cell.is_empty());
    }

    #[test]
    fn args_quick_preset_scales_down() {
        let a = BenchArgs::parse_from(&[] as &[&str], 2500);
        assert!(a.quick);
        assert!(a.models_or(&Collector::noop(), vec![zoo::resnet18()]).len() == 1);
    }

    #[test]
    fn run_technique_streams_a_complete_trace() {
        use edse_telemetry::{Event, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let t = run_technique(
            TechniqueKind::Explainable,
            MapperKind::FixedDataflow,
            vec![zoo::resnet18()],
            12,
            3,
            &collector,
            &SessionOpts::none(),
        );
        assert!(t.evaluations() <= 12);
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, Event::Iteration { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Counters { .. })));
        // Every run ends in a flush, so the point-cache traffic snapshot
        // is present with real misses recorded.
        let misses: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counters { deltas, .. } => Some(
                    deltas
                        .iter()
                        .filter(|(k, _)| k.starts_with("point_cache/") && k.ends_with("/miss"))
                        .map(|(_, v)| *v)
                        .sum::<u64>(),
                ),
                _ => None,
            })
            .sum();
        assert!(misses > 0, "flush must snapshot point-cache misses");
    }
}
