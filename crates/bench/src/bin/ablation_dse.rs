//! Ablations of Explainable-DSE's design choices (DESIGN.md §6):
//!
//! * **aggregation** — minimum vs maximum over conflicting per-layer
//!   predictions (§4.4 argues max exhausts the constraints budget early);
//! * **budget-awareness** — the §4.6 objective x budget update vs plain
//!   objective minimization;
//! * **top-K** — how many cost-critical sub-functions contribute
//!   predictions per attempt (paper: 5);
//! * **mapping coupling** — fixed dataflow vs tightly coupled codesign
//!   (§6.2's 4.24x claim).
//!
//! Usage: `ablation_dse [--iters N] [--models a,b] [--seed N] [--json PATH]`

use bench::{print_table, BenchArgs, BenchReport, SessionOpts};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::cost::Trace;
use edse_core::dse::{Aggregation, DseConfig};
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::edge_space;
use edse_core::SearchSession;
use edse_telemetry::Collector;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use workloads::{zoo, DnnModel};

fn run<M: MappingOptimizer>(
    model: &DnnModel,
    mapper: M,
    config: DseConfig,
    telemetry: &Collector,
    session: &SessionOpts,
) -> (String, String, String, Trace) {
    let ev = session.attach_disk(
        CodesignEvaluator::new(edge_space(), vec![model.clone()], mapper)
            .with_telemetry(telemetry.clone()),
    );
    let session = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&ev)
        .telemetry(telemetry.clone());
    let initial = ev.space().minimum_point();
    let r = session.run(initial);
    let best = r
        .best()
        .map(|(_, e)| format!("{:.2}", e.objective))
        .unwrap_or_else(|| "-".into());
    let budget = r
        .best()
        .map(|(_, e)| format!("{:.2}", e.constraint_budget(ev.constraints())))
        .unwrap_or_else(|| "-".into());
    let evaluations = r.trace().evaluations().to_string();
    (best, evaluations, budget, r.into_trace())
}

fn main() {
    let mut args = BenchArgs::parse(250);
    // Convergence comparisons need room even in quick mode.
    args.spec.budget = args.spec.budget.max(150);
    let telemetry = args.telemetry();
    let session = args.session_opts(&telemetry);
    let models = args.models_or(&telemetry, vec![zoo::resnet18(), zoo::efficientnet_b0()]);
    let base = DseConfig {
        budget: args.spec.budget,
        ..DseConfig::default()
    };

    let mut report = BenchReport::new("ablation_dse", &args);
    for model in &models {
        println!(
            "== ablations for {} (budget {}) ==",
            model.name(),
            args.spec.budget
        );
        let variants: Vec<(&str, DseConfig, bool)> = vec![
            (
                "paper defaults (min agg, budget-aware, K=5)",
                base.clone(),
                false,
            ),
            (
                "max aggregation",
                DseConfig {
                    aggregation: Aggregation::Max,
                    ..base.clone()
                },
                false,
            ),
            (
                "budget-awareness off",
                DseConfig {
                    budget_aware: false,
                    ..base.clone()
                },
                false,
            ),
            (
                "top-K = 1",
                DseConfig {
                    top_k: 1,
                    ..base.clone()
                },
                false,
            ),
            (
                "top-K = 20",
                DseConfig {
                    top_k: 20,
                    ..base.clone()
                },
                false,
            ),
            ("codesign (linear mapper)", base.clone(), true),
        ];
        let mut rows = Vec::new();
        for (name, config, codesign) in variants {
            let (best, evals, budget, trace) = if codesign {
                run(
                    model,
                    LinearMapper::new(args.spec.map_trials),
                    config,
                    &telemetry,
                    &session,
                )
            } else {
                run(model, FixedMapper, config, &telemetry, &session)
            };
            telemetry.flush();
            report.push_trace(&format!("{name}/{}", model.name()), &trace);
            rows.push(vec![name.to_string(), best, evals, budget]);
        }
        print_table(
            &["variant", "best latency (ms)", "evals", "budget used"],
            &rows,
        );
        println!();
    }
    println!(
        "paper shape: max aggregation converges faster but exhausts the budget on\n\
         over-provisioned designs; removing budget-awareness chases marginal\n\
         objective reductions; codesign reduces latency a further ~4.24x."
    );
    report.write_if_requested(&args);
}
