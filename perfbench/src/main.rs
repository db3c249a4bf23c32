//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <codesign_cold|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` the per-layer metrics
//! (measured from outside the program by wrappers and public counters)
//! and the tracing overhead. The line before it records the run's
//! context (host CPUs, commit, seed, thread counts, offered job rate);
//! the same record, and the traced run's spans, are written under
//! `.perfbench/`.

mod codesign;
mod layers;
mod serve;
mod spans;
mod util;

use edse_telemetry::json::Json;
use util::{bench_threads, commit_id, host_cpus, metrics_json, out_dir, Args, Outcome};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Bound the shared executor pool to the benchmark's thread budget
    // before anything starts it (children inherit the setting).
    std::env::set_var("EDSE_TEST_THREADS", bench_threads().to_string());

    if let Some(child) = &args.child {
        let done = match child.as_str() {
            "search" => codesign::child_search(&args),
            "serve-setup" => serve::child_setup(),
            other => Err(format!("unknown child mode {other:?}")),
        };
        if let Err(e) = done {
            eprintln!("perfbench child: {e}");
            std::process::exit(1);
        }
        return;
    }

    let outcome = match args.workload.as_str() {
        "codesign_cold" => codesign::cold(&args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (expected codesign_cold or serve_mixed)"
        )),
    };
    match outcome {
        Ok(outcome) => finish(&args, outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Applies the validity guards, writes the run record, and prints the
/// result line. An invalid run's record keeps its context but no metrics.
fn finish(args: &Args, mut outcome: Outcome) {
    let cpus = host_cpus();
    let t = outcome.threads;
    for (what, n) in [
        ("engine", t.engine),
        ("pool", t.pool),
        ("generator", t.generator),
    ] {
        if n > cpus {
            outcome
                .invalid
                .push(format!("{what} uses {n} threads on a {cpus}-CPU host"));
        }
    }
    let mut info = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("host_cpus", Json::Num(cpus as f64)),
        ("commit", Json::Str(commit_id())),
        ("engine_threads", Json::Num(t.engine as f64)),
        ("pool_threads", Json::Num(t.pool as f64)),
        ("generator_threads", Json::Num(t.generator as f64)),
        ("correct", Json::Bool(outcome.correct)),
        (
            "invalid",
            Json::Arr(outcome.invalid.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    info.append(&mut outcome.info);
    let mut record = vec![("perfbench", Json::obj(info))];
    if outcome.invalid.is_empty() {
        record.push(("metrics", metrics_json(&outcome.metrics)));
    }
    let record = Json::obj(record);
    let runs = out_dir().join("runs");
    let _ = std::fs::create_dir_all(&runs);
    let _ = std::fs::write(
        runs.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )),
        record.to_line() + "\n",
    );
    println!(
        "{}",
        record.get("perfbench").expect("built above").to_line()
    );
    if !outcome.invalid.is_empty() {
        eprintln!("perfbench: run invalid: {}", outcome.invalid.join("; "));
        std::process::exit(3);
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", result.to_line());
    if !outcome.correct {
        eprintln!("perfbench: output checks failed");
        std::process::exit(1);
    }
}
