//! Fig. 6 — The paper's walkthrough, end to end: exploring a ResNet-18
//! accelerator with every step narrated — (b) per-layer bottleneck
//! analysis, (c) aggregation across layers, (d) bottleneck-mitigating
//! acquisitions, (e) constraints-aware update — rendered as the markdown
//! report the framework produces for any run.
//!
//! Usage: `fig06_walkthrough [--iters N] [--json PATH]`

use bench::{BenchArgs, BenchReport};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::edge_space;
use edse_core::SearchSession;
use edse_telemetry::json::Json;
use mapper::FixedMapper;
use workloads::zoo;

fn main() {
    let args = BenchArgs::parse(80);
    let telemetry = args.telemetry();
    let evaluator = args.session_opts(&telemetry).attach_disk(
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
            .with_telemetry(telemetry.clone()),
    );
    let mut session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget: args.spec.budget.max(60),
            restarts: 0,
            ..DseConfig::default()
        },
    )
    .evaluator(&evaluator)
    .telemetry(telemetry.clone());
    session = session.spec(&args.spec);
    let initial = evaluator.space().minimum_point();
    let result = session.run(initial);
    telemetry.flush();
    println!(
        "{}",
        result.report(evaluator.space(), evaluator.constraints())
    );

    let mut report = BenchReport::new("fig06_walkthrough", &args);
    report.push_trace("explainable-walkthrough", result.trace());
    report.metric("attempts", Json::Num(result.attempts().len() as f64));
    report.metric("termination", Json::Str(result.termination().to_string()));
    report.write_if_requested(&args);
}
