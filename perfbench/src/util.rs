//! Shared plumbing: command-line arguments, order statistics, host facts,
//! the run's scratch directory, and the result line.

use edse_telemetry::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark's command line. The four public flags are the benchmark
/// contract; `--smoke` shrinks every workload to its minimal size;
/// `--child` and the flags after it in this list are internal (one cold
/// search or one serve set-up in a fresh process).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub child: Option<String>,
    pub model: String,
    pub technique: String,
    pub search_seed: u64,
    pub cache_dir: Option<PathBuf>,
    pub spans_out: Option<PathBuf>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            child: None,
            model: String::new(),
            technique: String::new(),
            search_seed: 0,
            cache_dir: None,
            spans_out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--smoke" => args.smoke = true,
                "--child" => args.child = Some(value()?),
                "--model" => args.model = value()?,
                "--technique" => args.technique = value()?,
                "--search-seed" => {
                    args.search_seed = value()?
                        .parse()
                        .map_err(|e| format!("--search-seed: {e}"))?
                }
                "--cache-dir" => args.cache_dir = Some(PathBuf::from(value()?)),
                "--spans-out" => args.spans_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.child.is_none() && args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// CPU seconds this process has used so far, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`); a child's count starts at its fork, so
/// it includes exec and start-up. Time the process spends descheduled, by
/// other processes or by the hypervisor (steal), does not count.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `(steal, total)` CPU ticks of the host's virtual CPUs so far, from the
/// first line of `/proc/stat`; `(0, 0)` where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The share of the virtual CPUs' time the hypervisor gave to others
/// (steal) between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64)
}

/// Worker threads the benchmark allows itself: the host's CPU count,
/// capped at 2 so figures from larger hosts stay comparable.
pub const MAX_THREADS: usize = 2;

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn bench_threads() -> usize {
    host_cpus().min(MAX_THREADS)
}

/// A well-mixed 64-bit value from `(seed, index)` (splitmix64), used to
/// derive every per-search and per-job seed from the benchmark seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0x000F_FFFF_FFFF_FFFF
}

/// `0..n` in an order drawn from `seed` (Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = derive_seed(seed, i as u64) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; with ten or fewer samples, the maximum. Every
/// workload takes a sample count fixed by its schedule (not by how many
/// searches fit in the window), at least 20 per job kind in a full run,
/// so the percentile does not move with the program's speed.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The geometric mean, summed in sorted order so that the same values in
/// another order give the same bits.
pub fn geomean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let logs: f64 = v.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Identifies the measured code: `git rev-parse HEAD` when the checkout is
/// a repository, otherwise an FNV-1a digest of every source file under
/// `crates/` plus the lock file (`tree:<hex>`).
pub fn commit_id() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
        {
            let id = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if out.status.success() && !id.is_empty() {
                return id;
            }
        }
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let mut bytes = file.to_string_lossy().into_owned().into_bytes();
        bytes.extend(std::fs::read(&file).unwrap_or_default());
        for b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree:{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The run's private scratch directory under `.perfbench/tmp/`, removed
/// when dropped (disk caches and child outputs live here).
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = out_dir()
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where run records and span files go: `.perfbench/` in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The threads a run used, as the validity guard compares them with the
/// host's CPUs: evaluation threads of the engines that did the work, the
/// shared pool's participants (workers plus the submitter), and
/// load-generator threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threads {
    pub engine: usize,
    pub pool: usize,
    pub generator: usize,
}

/// The shared executor pool's participants in this process.
pub fn pool_threads() -> usize {
    edse_executor::Executor::global().workers() + 1
}

/// What a workload hands back to `main`: the counts for the result line,
/// its metrics, whether every output check passed, the threads it used,
/// and free-form facts for the run record.
pub struct Outcome {
    pub correct: bool,
    pub threads: Threads,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, Json)>,
    pub invalid: Vec<String>,
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// A bag of additive per-layer tallies (counts and seconds) that child
/// processes report and the parent sums; `max:`-prefixed keys combine by
/// maximum instead.
#[derive(Debug, Clone, Default)]
pub struct Tally(pub BTreeMap<String, f64>);

impl Tally {
    pub fn add(&mut self, key: &str, value: f64) {
        if key.starts_with("max:") {
            let slot = self.0.entry(key.to_string()).or_insert(f64::MIN);
            *slot = slot.max(value);
        } else {
            *self.0.entry(key.to_string()).or_insert(0.0) += value;
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Tally) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    }

    pub fn from_json(json: &Json) -> Tally {
        let mut tally = Tally::default();
        if let Json::Obj(entries) = json {
            for (k, v) in entries {
                if let Some(v) = v.as_f64() {
                    tally.add(k, v);
                }
            }
        }
        tally
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end figures every workload reports. Set-up, search and job
/// times are CPU seconds of the measured process (see
/// `perfbench/README.md`); search and job samples are kept whole so the median and tail are taken the same
/// way everywhere.
pub struct EndToEnd {
    pub setup_s: f64,
    pub search_cpu_s: f64,
    pub evals_per_cpu_s: f64,
    pub evals_to_converge: f64,
    pub best_latency_ms: f64,
    pub explainable_cpu_s: Vec<f64>,
    pub baseline_cpu_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metric list, plus the facts the run record keeps about it
    /// (sample counts and which percentile each tail is).
    pub fn metrics(&self) -> (Vec<Metric>, Vec<(&'static str, Json)>) {
        let (e_tail, e_pct) = tail(&self.explainable_cpu_s);
        let (b_tail, b_pct) = tail(&self.baseline_cpu_s);
        let m = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            m("setup_s", self.setup_s, "s"),
            m("search_cpu_s", self.search_cpu_s, "s"),
            m("evals_per_cpu_s", self.evals_per_cpu_s, "1/s"),
            m("evals_to_converge", self.evals_to_converge, "count"),
            m("best_latency_ms", self.best_latency_ms, "sim_ms"),
            m(
                "explainable_job_p50_cpu_s",
                median(&self.explainable_cpu_s),
                "s",
            ),
            m("explainable_job_tail_cpu_s", e_tail, "s"),
            m("baseline_job_p50_cpu_s", median(&self.baseline_cpu_s), "s"),
            m("baseline_job_tail_cpu_s", b_tail, "s"),
            m(
                "success_frac",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "fraction",
            ),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ];
        let info = vec![
            (
                "explainable_samples",
                Json::Num(self.explainable_cpu_s.len() as f64),
            ),
            ("explainable_tail_percentile", Json::Num(e_pct)),
            (
                "baseline_samples",
                Json::Num(self.baseline_cpu_s.len() as f64),
            ),
            ("baseline_tail_percentile", Json::Num(b_pct)),
        ];
        (metrics, info)
    }
}
