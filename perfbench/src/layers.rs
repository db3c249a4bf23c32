//! Per-layer tallies and the per-layer metric list.
//!
//! Every layer figure is read from outside the program: span sums from
//! the benchmark's own wrappers ([`crate::spans`]), and counter snapshots
//! from public accessors — `mapper::space_cache_stats()`,
//! `Executor::global().counters()`, `DiskCache::stats()`,
//! `Evaluator::cache_stats()` — and, for the service, `GET /metrics`.
//! Tallies are additive; [`metrics`] divides them by the number of traced
//! passes (codesign), so figures are per pass over the search list.

use crate::spans::{self, SpanRec};
use crate::util::{ratio, Metric, Tally};
use edse_core::evaluate::CacheStats;
use edse_core::{DiskCache, DiskCacheStats, DseResult};
use edse_executor::{Counters, Executor};
use mapper::SpaceCacheStats;

/// Counter snapshots taken before and after one search.
pub struct SearchLayers {
    pool: Counters,
    memo: SpaceCacheStats,
    disk: DiskCacheStats,
}

impl SearchLayers {
    pub fn capture(disk: &DiskCache) -> SearchLayers {
        SearchLayers {
            pool: Executor::global().counters(),
            memo: mapper::space_cache_stats(),
            disk: disk.stats(),
        }
    }

    /// The tallies of everything that happened since `before`, plus the
    /// search's own evaluator statistics and result.
    pub fn since(&self, before: &SearchLayers, cache: &CacheStats) -> Tally {
        let mut t = Tally::default();
        add_memo(&mut t, &before.memo, &self.memo);
        add_pool(&mut t, &before.pool, &self.pool);
        let (d0, d1) = (&before.disk, &self.disk);
        t.add("disk.hits", (d1.hits - d0.hits) as f64);
        t.add("disk.misses", (d1.misses - d0.misses) as f64);
        t.add("disk.appends", (d1.appends - d0.appends) as f64);
        t.add("disk.errors", (disk_errors(d1) - disk_errors(d0)) as f64);
        add_tiers(&mut t, cache);
        t
    }
}

pub fn add_memo(t: &mut Tally, before: &SpaceCacheStats, after: &SpaceCacheStats) {
    t.add("memo.hits", (after.hits - before.hits) as f64);
    t.add(
        "memo.lookups",
        ((after.hits + after.misses + after.inflight_waits)
            - (before.hits + before.misses + before.inflight_waits)) as f64,
    );
    t.add(
        "memo.evictions",
        (after.evictions - before.evictions) as f64,
    );
}

pub fn add_pool(t: &mut Tally, before: &Counters, after: &Counters) {
    t.add("exec.tasks", (after.tasks - before.tasks) as f64);
    t.add("exec.steals", (after.steals - before.steals) as f64);
    t.add(
        "exec.idle_s",
        (after.idle_ns - before.idle_ns) as f64 * 1e-9,
    );
    t.add("max:exec.workers_spawned", after.workers_spawned as f64);
}

/// Point- and layer-tier traffic of one evaluator.
pub fn add_tiers(t: &mut Tally, cache: &CacheStats) {
    let p = &cache.point;
    t.add("point.hits", p.hits as f64);
    t.add(
        "point.accesses",
        (p.hits + p.misses + p.inflight_waits) as f64,
    );
    let l = &cache.layer;
    t.add("layer.hits", l.hits as f64);
    t.add(
        "layer.accesses",
        (l.hits + l.misses + l.inflight_waits) as f64,
    );
    t.add("layer.inflight_waits", l.inflight_waits as f64);
}

/// Read errors, write failures, torn tails and skipped segments.
pub fn disk_errors(d: &DiskCacheStats) -> u64 {
    d.read_errors + d.write_failures + d.torn_tails + d.skipped_segments
}

/// A black-box baseline's point-cache traffic: hits are re-requests of
/// already-evaluated points (replays, when stepped through a driver).
pub fn add_baseline(t: &mut Tally, cache: &CacheStats) {
    let p = &cache.point;
    t.add(
        "baseline.point_replay_hits",
        (p.hits + p.inflight_waits) as f64,
    );
    t.add("baseline.evals", cache.unique_evaluations as f64);
    t.add(
        "baseline.point_accesses",
        (p.hits + p.misses + p.inflight_waits) as f64,
    );
}

/// The DSE loop's own counts: attempts and incumbent updates.
pub fn add_result(t: &mut Tally, result: &DseResult) {
    t.add("dse.attempts", result.attempts().len() as f64);
    t.add("dse.incumbent_updates", incumbent_updates(result) as f64);
}

/// How often the best feasible objective strictly improved.
fn incumbent_updates(result: &DseResult) -> u64 {
    let mut best = f64::INFINITY;
    let mut updates = 0;
    for s in &result.trace().samples {
        if s.feasible && s.objective < best {
            best = s.objective;
            updates += 1;
        }
    }
    updates
}

/// Folds span sums into the tally.
pub fn add_spans(t: &mut Tally, spans: &[SpanRec], infeasible: u64, points: usize) {
    let s = spans::sums(spans);
    t.add("mapper.calls", s.mapper_calls as f64);
    t.add("mapper.traced_calls", s.mapper_calls as f64);
    t.add("mapper.busy_s", s.mapper_busy_s);
    t.add("mapper.infeasible", infeasible as f64);
    t.add("eval.calls", s.eval_calls as f64);
    t.add("eval.points", points as f64);
    t.add("eval.busy_s", s.eval_busy_s);
    t.add("eval.self_s", s.eval_self_s);
    t.add("dse.self_s", s.dse_self_s);
    t.add("baseline.self_s", s.baseline_self_s);
}

/// Every per-layer metric, from a tally over `per` units (traced passes
/// for the codesign workloads, 1 for the service's window), plus the
/// tracing overhead.
pub fn metrics(t: &Tally, per: f64, overhead: f64) -> Vec<Metric> {
    let per = per.max(1.0);
    let n = |k: &str| t.get(k) / per;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("mapper.calls", n("mapper.calls"), "count"),
        m("mapper.busy_s", n("mapper.busy_s"), "s"),
        m(
            "mapper.us_per_call",
            1e6 * ratio(t.get("mapper.busy_s"), t.get("mapper.calls")),
            "us",
        ),
        m(
            "mapper.infeasible_frac",
            ratio(t.get("mapper.infeasible"), t.get("mapper.traced_calls")),
            "fraction",
        ),
        m(
            "mapper.space_memo_hit_rate",
            ratio(t.get("memo.hits"), t.get("memo.lookups")),
            "fraction",
        ),
        m("mapper.space_memo_evictions", n("memo.evictions"), "count"),
        m("eval.calls", n("eval.calls"), "count"),
        m("eval.points", n("eval.points"), "count"),
        m("eval.busy_s", n("eval.busy_s"), "s"),
        m("eval.self_s", n("eval.self_s"), "s"),
        m(
            "eval.point_hit_rate",
            ratio(t.get("point.hits"), t.get("point.accesses")),
            "fraction",
        ),
        m(
            "eval.layer_hit_rate",
            ratio(t.get("layer.hits"), t.get("layer.accesses")),
            "fraction",
        ),
        m(
            "eval.layer_inflight_waits",
            n("layer.inflight_waits"),
            "count",
        ),
        m(
            "disk.open_s",
            ratio(t.get("disk.open_s"), t.get("disk.opens")),
            "s",
        ),
        m("disk.hits", n("disk.hits"), "count"),
        m("disk.misses", n("disk.misses"), "count"),
        m("disk.appends", n("disk.appends"), "count"),
        m("disk.bytes", n("disk.bytes"), "bytes"),
        m("disk.errors", n("disk.errors"), "count"),
        m(
            "disk.get_us",
            1e6 * ratio(t.get("disk.get_s"), t.get("disk.gets")),
            "us",
        ),
        m("dse.self_s", n("dse.self_s"), "s"),
        m("dse.attempts", n("dse.attempts"), "count"),
        m("dse.incumbent_updates", n("dse.incumbent_updates"), "count"),
        m("exec.tasks", n("exec.tasks"), "count"),
        m("exec.steals", n("exec.steals"), "count"),
        m("exec.idle_s", n("exec.idle_s"), "s"),
        m(
            "exec.workers_spawned",
            t.get("max:exec.workers_spawned").max(0.0),
            "count",
        ),
        m(
            "baseline.point_replay_hits",
            n("baseline.point_replay_hits"),
            "count",
        ),
        m("baseline.self_s", n("baseline.self_s"), "s"),
        m(
            "baseline.useful_frac",
            ratio(t.get("baseline.evals"), t.get("baseline.point_accesses")),
            "fraction",
        ),
        m(
            "http.submit_ms",
            ratio(t.get("http.submit_ms"), t.get("http.submits")),
            "ms",
        ),
        m(
            "http.poll_ms",
            ratio(t.get("http.poll_ms"), t.get("http.polls")),
            "ms",
        ),
        m(
            "serve.generator_lag_s",
            t.get("max:serve.lag_s").max(0.0),
            "s",
        ),
        m(
            "serve.explainable_wall_p50_s",
            t.get("max:serve.explainable_wall_p50_s").max(0.0),
            "s",
        ),
        m(
            "serve.baseline_wall_p50_s",
            t.get("max:serve.baseline_wall_p50_s").max(0.0),
            "s",
        ),
        m("trace.overhead", overhead, "ratio"),
    ]
}
