//! The traced run's instrumentation, kept entirely outside the program:
//! transparent wrappers over the public [`MappingOptimizer`] and
//! [`Evaluator`] traits that record one span per call into an in-memory
//! recorder, plus self-time arithmetic over the recorded span tree.
//!
//! Span tree: `search` or `baseline` (opened by the harness around one
//! `SearchSession::run` or `BaselineSession::run`) → `eval` (one per evaluator call, on the search
//! thread) → `mapper` (one per mapping-optimizer call, on whichever
//! executor thread ran it). Mapper calls run on pool workers, so their
//! parent is the `eval` span open when they started — the evaluator call
//! that caused them, since a search issues one evaluator call at a time.

use accel_model::{AcceleratorConfig, ExecutionProfile};
use edse_core::cost::{Constraint, Evaluation};
use edse_core::evaluate::{CacheSnapshot, CacheStats, Evaluator};
use edse_core::fault::EvalFault;
use edse_core::space::{DesignPoint, DesignSpace};
use edse_telemetry::json::Json;
use mapper::{MappedLayer, MappingOptimizer};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use workloads::LayerShape;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The process-wide span store.
pub struct Recorder {
    t0: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    /// The open `search` span (parent of `eval` spans), 0 when none.
    current_search: AtomicU64,
    /// The open `eval` span (parent of `mapper` spans), 0 when none.
    current_eval: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    mapper_infeasible: AtomicU64,
    points: Mutex<Vec<DesignPoint>>,
}

thread_local! {
    static THREAD: u64 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

pub fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        t0: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        current_search: AtomicU64::new(0),
        current_eval: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        mapper_infeasible: AtomicU64::new(0),
        points: Mutex::new(Vec::new()),
    })
}

/// An open span; closed (and stored) by [`Open::close`].
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) -> SpanRec {
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            thread: THREAD.with(|t| *t),
        };
        self.spans.lock().expect("span store").push(rec);
        rec
    }

    /// Opens a search span (`search` for the explainable DSE loop,
    /// `baseline` for a black-box technique) that parents the next
    /// evaluator calls.
    pub fn begin_search(&self, name: &'static str) -> Open {
        let open = self.open(name, 0);
        self.current_search.store(open.id, Ordering::SeqCst);
        open
    }

    pub fn end_search(&self, open: Open) -> SpanRec {
        self.current_search.store(0, Ordering::SeqCst);
        self.close(open)
    }

    /// Removes and returns every span recorded so far and the count of
    /// infeasible mapping calls, resetting both.
    pub fn drain(&self) -> (Vec<SpanRec>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span store"));
        let infeasible = self.mapper_infeasible.swap(0, Ordering::Relaxed);
        (spans, infeasible)
    }

    /// Removes and returns the points evaluated since the last call.
    pub fn take_points(&self) -> Vec<DesignPoint> {
        std::mem::take(&mut *self.points.lock().expect("point store"))
    }
}

/// Per-layer aggregates of one batch of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSums {
    pub eval_calls: u64,
    pub eval_busy_s: f64,
    pub eval_self_s: f64,
    pub mapper_calls: u64,
    pub mapper_busy_s: f64,
    pub dse_self_s: f64,
    pub baseline_self_s: f64,
}

/// Self time of `parent`: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_time(parent: &SpanRec, children: &[&SpanRec]) -> f64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
}

pub fn sums(spans: &[SpanRec]) -> SpanSums {
    let mut children: std::collections::HashMap<u64, Vec<&SpanRec>> = Default::default();
    for span in spans {
        children.entry(span.parent).or_default().push(span);
    }
    let kids = |span: &SpanRec| children.get(&span.id).cloned().unwrap_or_default();
    let mut out = SpanSums::default();
    for span in spans {
        match span.name {
            "search" => out.dse_self_s += self_time(span, &kids(span)),
            "baseline" => out.baseline_self_s += self_time(span, &kids(span)),
            "eval" => {
                out.eval_calls += 1;
                out.eval_busy_s += span.dur_s();
                out.eval_self_s += self_time(span, &kids(span));
            }
            "mapper" => {
                out.mapper_calls += 1;
                out.mapper_busy_s += span.dur_s();
            }
            _ => {}
        }
    }
    out
}

/// Writes spans as JSON lines (`name`, `id`, `parent`, `thread`,
/// `start_us`, `end_us`).
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let line = Json::obj(vec![
            ("name", Json::Str(s.name.to_string())),
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("thread", Json::Num(s.thread as f64)),
            ("start_us", Json::Num((s.start_ns / 1000) as f64)),
            ("end_us", Json::Num((s.end_ns / 1000) as f64)),
        ])
        .to_line();
        writeln!(out, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// A [`MappingOptimizer`] that records a `mapper` span around every
/// optimisation call and counts calls that found no feasible mapping.
/// Name and fingerprint pass through, so cache keys are unchanged.
pub struct TracedMapper<M>(pub M);

impl<M: MappingOptimizer> TracedMapper<M> {
    fn traced(&self, call: impl FnOnce() -> Option<MappedLayer>) -> Option<MappedLayer> {
        let rec = recorder();
        let open = rec.open("mapper", rec.current_eval.load(Ordering::SeqCst));
        let out = call();
        rec.close(open);
        if out.is_none() {
            rec.mapper_infeasible.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl<M: MappingOptimizer> MappingOptimizer for TracedMapper<M> {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.traced(|| self.0.optimize(layer, cfg))
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        self.traced(|| self.0.optimize_threaded(layer, cfg, threads))
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn fingerprint(&self) -> String {
        self.0.fingerprint()
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        self.0.diagnose(layer, cfg)
    }
}

/// An [`Evaluator`] that records an `eval` span around every evaluation
/// call (single or batch) and remembers the evaluated points, so the
/// run's disk lookups can be replayed afterwards. Every method forwards
/// to the wrapped evaluator unchanged.
pub struct TracedEvaluator<E>(pub E);

impl<E: Evaluator> TracedEvaluator<E> {
    fn traced<T>(&self, points: &[DesignPoint], call: impl FnOnce() -> T) -> T {
        let rec = recorder();
        let open = rec.open("eval", rec.current_search.load(Ordering::SeqCst));
        rec.current_eval.store(open.id, Ordering::SeqCst);
        let out = call();
        rec.current_eval.store(0, Ordering::SeqCst);
        rec.close(open);
        rec.points
            .lock()
            .expect("point store")
            .extend_from_slice(points);
        out
    }
}

impl<E: Evaluator> Evaluator for TracedEvaluator<E> {
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        self.traced(std::slice::from_ref(point), || self.0.evaluate(point))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        self.traced(points, || self.0.evaluate_batch(points))
    }

    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        self.traced(std::slice::from_ref(point), || self.0.try_evaluate(point))
    }

    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        self.traced(points, || self.0.try_evaluate_batch(points))
    }

    fn space(&self) -> &DesignSpace {
        self.0.space()
    }

    fn constraints(&self) -> &[Constraint] {
        self.0.constraints()
    }

    fn unique_evaluations(&self) -> usize {
        self.0.unique_evaluations()
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        self.0.decode(point)
    }

    fn cache_snapshot(&self) -> CacheSnapshot {
        self.0.cache_snapshot()
    }

    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        self.0.restore_caches(snapshot)
    }

    fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, "eval", 0, 100);
        // Overlapping children on two threads cover [10, 60) and [80, 120)
        // clipped to [80, 100): 70 ns covered, 30 ns self.
        let a = span(2, 1, "mapper", 10, 50);
        let b = span(3, 1, "mapper", 30, 60);
        let c = span(4, 1, "mapper", 80, 120);
        let s = self_time(&parent, &[&a, &b, &c]);
        assert!((s - 30e-9).abs() < 1e-15, "{s}");
    }

    #[test]
    fn sums_attribute_spans_to_their_layers() {
        let spans = [
            span(1, 0, "search", 0, 1000),
            span(2, 1, "eval", 100, 600),
            span(3, 2, "mapper", 150, 450),
            span(4, 2, "mapper", 200, 500),
        ];
        let s = sums(&spans);
        assert_eq!((s.eval_calls, s.mapper_calls), (1, 2));
        assert!((s.dse_self_s - 500e-9).abs() < 1e-15);
        assert!((s.eval_self_s - 150e-9).abs() < 1e-15);
        assert!((s.mapper_busy_s - 600e-9).abs() < 1e-15);
    }
}
