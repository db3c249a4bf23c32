//! Property-based tests for the bottleneck trees, the design space, the
//! trace/constraint utilities, and the checkpoint/resume + fault-tolerance
//! acceptance criteria (determinism under interruption, graceful
//! degradation under injected faults).

use accel_model::AcceleratorConfig;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::bottleneck::tree::{NodeKind, TreeBuilder};
use edse_core::cost::{Constraint, Evaluation, Sample, Trace};
use edse_core::dse::{Attempt, DseConfig, DseResult};
use edse_core::evaluate::{CacheSnapshot, CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::fault::{EvalFault, FaultPolicy};
use edse_core::space::{edge_space, DesignPoint, DesignSpace, ParamDef};
use edse_core::{DiskCache, DiskCacheStats, JobSpec, SearchSession};
use edse_telemetry::{Collector, MemorySink};
use mapper::{FaultInjector, FixedMapper};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use workloads::zoo;

/// A random three-level tree: root max over sums of leaves.
fn arb_tree_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1e6, 1..5), 1..5)
}

proptest! {
    /// Interior values follow the node semantics; the root contribution is
    /// exactly 1 and every contribution lies in [0, 1].
    #[test]
    fn contributions_bounded_and_root_total(groups in arb_tree_values()) {
        let mut b = TreeBuilder::new();
        let mut sums = Vec::new();
        for (i, leaves) in groups.iter().enumerate() {
            let ids: Vec<_> = leaves
                .iter()
                .enumerate()
                .map(|(j, v)| b.leaf(format!("l{i}_{j}"), *v))
                .collect();
            sums.push(b.sum(format!("s{i}"), ids));
        }
        let root = b.max("root", sums.clone());
        let tree = b.build(root);

        // Root = max of group sums.
        let expected: f64 = groups
            .iter()
            .map(|g| g.iter().sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((tree.value(tree.root()) - expected).abs() < 1e-9);

        let contrib = tree.contributions();
        prop_assert!((contrib[tree.root()] - 1.0).abs() < 1e-12);
        for c in &contrib {
            prop_assert!((0.0..=1.0 + 1e-9).contains(c), "contribution {c}");
        }

        // Sum-node children contributions add up to the parent's when the
        // parent value is positive.
        for &sid in &sums {
            let node = tree.node(sid);
            prop_assert_eq!(node.kind, NodeKind::Sum);
            if node.value > 0.0 {
                let child_total: f64 =
                    node.children.iter().map(|&c| contrib[c]).sum();
                prop_assert!(
                    (child_total - contrib[sid]).abs() < 1e-9,
                    "sum children {child_total} != parent {}", contrib[sid]
                );
            }
        }
    }

    /// The dominant path always ends at a leaf and never leaves the tree.
    #[test]
    fn bottleneck_path_reaches_leaf(groups in arb_tree_values()) {
        let mut b = TreeBuilder::new();
        let mut sums = Vec::new();
        for (i, leaves) in groups.iter().enumerate() {
            let ids: Vec<_> = leaves
                .iter()
                .enumerate()
                .map(|(j, v)| b.leaf(format!("l{i}_{j}"), *v))
                .collect();
            sums.push(b.sum(format!("s{i}"), ids));
        }
        let root = b.max("root", sums);
        let tree = b.build(root);
        let path = tree.bottleneck_path();
        prop_assert_eq!(path[0], tree.root());
        let last = *path.last().unwrap();
        prop_assert!(tree.node(last).children.is_empty(), "path must end at a leaf");
        // Consecutive path elements are parent/child.
        for w in path.windows(2) {
            prop_assert!(tree.node(w[0]).children.contains(&w[1]));
        }
    }

    /// Required scaling is always at least the requested floor.
    #[test]
    fn required_scaling_floor(groups in arb_tree_values(), floor in 1.01f64..3.0) {
        let mut b = TreeBuilder::new();
        let ids: Vec<_> = groups
            .concat()
            .iter()
            .enumerate()
            .map(|(j, v)| b.leaf(format!("l{j}"), *v))
            .collect();
        let root = b.max("root", ids);
        let tree = b.build(root);
        prop_assert!(tree.required_scaling(floor) >= floor - 1e-12);
    }

    /// `round_up_index` returns the first domain value >= the target, or
    /// the last index when none is.
    #[test]
    fn round_up_index_correct(
        mut values in proptest::collection::vec(1.0f64..1e6, 1..30),
        target in 0.0f64..2e6,
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        let p = ParamDef::new("x", values.clone());
        let idx = p.round_up_index(target);
        match values.iter().position(|&v| v >= target) {
            Some(expected) => prop_assert_eq!(idx, expected),
            None => prop_assert_eq!(idx, values.len() - 1),
        }
    }

    /// The convergence curve is monotonically non-increasing and reflects
    /// only feasible samples.
    #[test]
    fn convergence_curve_monotone(
        objs in proptest::collection::vec((0.1f64..1e4, any::<bool>()), 1..50),
    ) {
        let mut t = Trace::new("prop");
        for (o, feasible) in &objs {
            t.samples.push(Sample {
                point: DesignPoint::new(vec![0]),
                objective: *o,
                constraint_values: vec![],
                feasible: *feasible,
            });
        }
        let curve = t.convergence_curve();
        prop_assert_eq!(curve.len(), objs.len());
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
        let best_feasible = objs
            .iter()
            .filter(|(_, f)| *f)
            .map(|(o, _)| *o)
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(*curve.last().unwrap(), best_feasible);
    }

    /// Constraint utilization scales linearly and feasibility matches the
    /// threshold comparison.
    #[test]
    fn constraint_semantics(threshold in 0.1f64..1e6, value in 0.0f64..2e6) {
        let c = Constraint::new("x", threshold);
        prop_assert_eq!(c.satisfied(value), value <= threshold);
        prop_assert!((c.utilization(value) - value / threshold).abs() < 1e-12);
    }

    /// Geometric-mean reduction of a strictly improving sequence is > 1 and
    /// of a flat sequence is 1.
    #[test]
    fn geomean_reduction_semantics(start in 10.0f64..1e4, steps in 2usize..20) {
        let mut improving = Trace::new("imp");
        let mut flat = Trace::new("flat");
        for i in 0..steps {
            let sample = |o: f64| Sample {
                point: DesignPoint::new(vec![0]),
                objective: o,
                constraint_values: vec![],
                feasible: true,
            };
            improving.samples.push(sample(start / (i as f64 + 1.0)));
            flat.samples.push(sample(start));
        }
        prop_assert!(improving.geomean_reduction().unwrap() > 1.0);
        prop_assert!((flat.geomean_reduction().unwrap() - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume + fault-tolerance acceptance tests
// ---------------------------------------------------------------------------

/// Installs (once per process) a panic hook that swallows the panics these
/// tests deliberately raise — the `FaultInjector`'s payloads and the
/// [`KillSwitch`]'s simulated kills — so the expected fault storms don't
/// spam stderr. Everything else still reaches the default hook.
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
            if !msg.contains("injected mapping fault") && !msg.contains("simulated kill") {
                prev(info);
            }
        }));
    });
}

fn temp_snapshot_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("edse-props-{}-{tag}-{n}.json", std::process::id()))
}

/// Wraps an evaluator and panics once `kill_after` evaluation requests have
/// been spent — a SIGKILL landing at an arbitrary point in the search, as
/// seen from inside the process. All bookkeeping methods pass through.
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

fn fresh_evaluator(parallel: bool) -> CodesignEvaluator<FixedMapper> {
    let engine = if parallel {
        EvalEngine::with_threads(4)
    } else {
        EvalEngine::serial()
    };
    CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper).with_engine(engine)
}

/// Asserts every `DseResult` field except the wall clock is identical.
fn assert_results_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.trace().samples, b.trace().samples);
    assert_eq!(a.attempts(), b.attempts());
    assert_eq!(a.best(), b.best());
    assert_eq!(a.converged_after(), b.converged_after());
    assert_eq!(a.termination(), b.termination());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism under interruption: for a random kill point `k`, a run
    /// killed after `k` evaluation requests (snapshotting every step) and
    /// then resumed produces a `DseResult` — incumbent, attempt sequence,
    /// sample trace, unique-evaluation count — bit-identical to an
    /// uninterrupted run, with the serial and the parallel `EvalEngine`
    /// alike. Kills past the end of the search degrade to resuming a
    /// completed snapshot, which must also be identical.
    #[test]
    fn killed_and_resumed_search_matches_uninterrupted_run(
        kill_after in 1usize..60,
        parallel in any::<bool>(),
        seed in 0u64..3,
    ) {
        silence_expected_panics();
        let config = DseConfig { budget: 40, seed, ..DseConfig::default() };

        // Uninterrupted reference run.
        let reference_ev = fresh_evaluator(parallel);
        let initial = reference_ev.space().minimum_point();
        let reference = SearchSession::new(dnn_latency_model(), config.clone())
            .evaluator(&reference_ev)
            .run(initial.clone());

        // Killed run: checkpoint every step, die after `kill_after`
        // evaluation requests (possibly mid-batch, possibly never).
        let path = temp_snapshot_path("kill");
        let killed_ev = KillSwitch::new(fresh_evaluator(parallel), kill_after);
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

        // Resume on a fresh evaluator (caches restored from the snapshot;
        // when the kill landed before the first snapshot, this is a fresh
        // start — also equivalent to the uninterrupted run).
        let resumed_ev = fresh_evaluator(parallel);
        let resumed = SearchSession::new(dnn_latency_model(), config.clone())
            .evaluator(&resumed_ev)
            .spec(&JobSpec {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                resume: true,
                ..JobSpec::default()
            })
            .run(initial);

        assert_results_identical(&resumed, &reference);
        prop_assert_eq!(
            resumed_ev.unique_evaluations(),
            reference_ev.unique_evaluations()
        );
        if let Ok(completed) = killed {
            // The kill never fired: the "killed" run finished normally and
            // must match too.
            assert_results_identical(&completed, &reference);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Graceful degradation: with a 20% injected fault rate the search
    /// still completes (no panic escapes the `EvalEngine` fault boundary),
    /// permanently failed candidates surface as `Attempt::Failed` with the
    /// policy's retry count, and the telemetry failure/retry counters are
    /// consistent with the attempt log.
    #[test]
    fn faulty_evaluations_degrade_gracefully(
        seed in 0u64..1000,
        parallel in any::<bool>(),
    ) {
        silence_expected_panics();
        let policy = FaultPolicy {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
            timeout: None,
        };
        let engine = if parallel {
            EvalEngine::with_threads(4).with_fault(policy)
        } else {
            EvalEngine::serial().with_fault(policy)
        };
        let collector = Collector::builder().sink(MemorySink::new()).build();
        let mapper = FaultInjector::new(FixedMapper, seed, 0.2);
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], mapper)
            .with_engine(engine)
            .with_telemetry(collector.clone());
        let initial = ev.space().minimum_point();
        let result = SearchSession::new(
            dnn_latency_model(),
            DseConfig { budget: 30, restarts: 2, seed, ..DseConfig::default() },
        )
        .evaluator(&ev)
        .telemetry(collector.clone())
        .run(initial);

        // The search completed despite the faults.
        prop_assert!(!result.termination().is_empty());
        prop_assert!(result.trace().evaluations() <= 30);

        // Every failed candidate went through the full retry budget, and
        // the telemetry counters account for at least those failures.
        let failed = result.attempts().iter().filter(|a| a.is_failed()).count();
        for a in result.attempts() {
            if let Attempt::Failed { retries, .. } = a {
                prop_assert_eq!(*retries, policy.max_retries);
            }
        }
        let point_failures = collector.counter_value("fault/point_failures");
        prop_assert!(
            failed as u64 <= point_failures,
            "{failed} failed attempts but only {point_failures} recorded point failures"
        );
        if point_failures > 0 {
            prop_assert!(
                collector.counter_value("fault/layer_failures") >= 1,
                "a failed point implies at least one exhausted layer mapping"
            );
            prop_assert!(
                collector.counter_value("fault/retries") >= policy.max_retries as u64,
                "an exhausted layer mapping implies a full retry round"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Disk-cache corruption recovery: whatever happens to the cache directory
// between runs, a warm-started search returns results bit-identical to the
// cold run — the damaged parts are just recomputed.
// ---------------------------------------------------------------------------

fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("edse-props-cache-{}-{tag}-{n}", std::process::id()))
}

/// One serial search over the given cache directory; returns the result
/// and the disk tier's statistics at the end of the run.
fn disk_cached_search(dir: &std::path::Path, seed: u64) -> (DseResult, DiskCacheStats) {
    let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
        .with_engine(EvalEngine::serial())
        .with_disk_cache(Arc::new(DiskCache::open(dir).expect("open cache dir")));
    let initial = ev.space().minimum_point();
    let result = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget: 20,
            seed,
            ..DseConfig::default()
        },
    )
    .evaluator(&ev)
    .run(initial);
    let disk = ev.cache_stats().disk.expect("disk tier attached");
    (result, disk)
}

/// The cache's segment files, sorted by name (creation order).
fn segment_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "edc"))
        .collect();
    segs.sort();
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A torn segment tail (the crash-mid-append case): cutting an
    /// arbitrary number of bytes off the end of the last segment loses at
    /// most the torn records. The reopened cache falls back to the
    /// surviving prefix and the warm search is bit-identical to the cold
    /// one.
    #[test]
    fn torn_segment_tail_never_changes_results(
        cut in 1u64..4096,
        seed in 0u64..3,
    ) {
        let dir = temp_cache_dir("torn");
        let (cold, cold_disk) = disk_cached_search(&dir, seed);
        prop_assert!(cold_disk.appends > 0, "cold run must populate the cache");

        let last = segment_files(&dir).pop().expect("at least one segment");
        let len = std::fs::metadata(&last).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
        file.set_len(len.saturating_sub(cut)).unwrap();
        drop(file);

        let (warm, warm_disk) = disk_cached_search(&dir, seed);
        assert_results_identical(&warm, &cold);
        // Whatever survived must all be readable; the torn part shows up
        // as misses that were recomputed and re-appended.
        prop_assert!(warm_disk.entries >= cold_disk.entries.saturating_sub(cold_disk.appends as usize));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stray file in the cache directory — junk under any name that is
    /// not a segment's — is ignored: the reopened cache still finds every
    /// record, and the warm run is bit-identical with a fully hot disk
    /// tier.
    #[test]
    fn stray_file_in_the_cache_directory_is_ignored(
        junk_seed in any::<u64>(),
        junk_len in 0usize..96,
        seed in 0u64..3,
    ) {
        // A splitmix walk stands in for arbitrary bytes (the vendored
        // proptest shim has no u8 strategy).
        let mut state = junk_seed;
        let junk: Vec<u8> = (0..junk_len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let dir = temp_cache_dir("stray");
        let (cold, cold_disk) = disk_cached_search(&dir, seed);
        std::fs::write(dir.join("stray.json"), &junk).unwrap();

        let (warm, warm_disk) = disk_cached_search(&dir, seed);
        assert_results_identical(&warm, &cold);
        prop_assert!(
            warm_disk.entries >= cold_disk.entries,
            "every record must be found: {} < {}",
            warm_disk.entries,
            cold_disk.entries
        );
        prop_assert_eq!(warm_disk.misses, 0, "the reopened cache must serve every lookup");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment stamped with an unknown format version (a future writer,
    /// or header rot) is skipped whole — never misread — and the warm run
    /// recomputes its contents, bit-identically.
    #[test]
    fn unknown_segment_version_is_skipped_whole(
        version in 2u32..u32::MAX,
        seed in 0u64..3,
    ) {
        let dir = temp_cache_dir("version");
        let (cold, _) = disk_cached_search(&dir, seed);

        // The version field sits after the 8-byte magic (see the module
        // docs in `edse_core::diskcache`).
        let seg = segment_files(&dir).pop().expect("at least one segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();

        let (warm, warm_disk) = disk_cached_search(&dir, seed);
        assert_results_identical(&warm, &cold);
        prop_assert!(warm_disk.skipped_segments > 0, "the alien segment must be skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
