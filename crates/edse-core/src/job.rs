//! [`JobSpec`]: the one declarative description of a DSE job.
//!
//! Three overlapping configuration surfaces grew up around running a
//! search — builder setters on [`crate::SearchSession`], the bench
//! harness's CLI fields, and the service's request body. `JobSpec`
//! consolidates them: the same struct is the `POST /jobs` request body of
//! `edse-serve` (via the zero-dependency JSON layer), the input to
//! [`crate::SearchSession::spec`], and the backing store of the bench
//! harness's `BenchArgs`. Anything a job needs that is *not* derivable
//! from the evaluator itself lives here.

use edse_telemetry::json::{self, Json};
use std::path::PathBuf;

/// A complete, serializable description of one DSE job: which technique to
/// run, over which models and space, with which budget and knobs, and how
/// to checkpoint and cache it.
///
/// JSON (de)serialization goes through the telemetry crate's zero-dep JSON
/// layer ([`JobSpec::to_json`] / [`JobSpec::from_json`]); every field is
/// optional in the JSON form and falls back to [`JobSpec::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Technique label: `"explainable"` or one of the baseline labels
    /// (`"grid"`, `"random"`, `"annealing"`, `"genetic"`, `"bayesian"`,
    /// `"hypermapper"`, `"rl"`).
    pub technique: String,
    /// Evaluation budget (unique point evaluations).
    pub budget: usize,
    /// Mapping-search trials per layer for stochastic mappers.
    pub map_trials: usize,
    /// RNG seed shared by technique and mapper.
    pub seed: u64,
    /// Workload model names (the bench harness's `zoo` names, e.g.
    /// `"resnet18"`); empty means the caller's default set.
    pub models: Vec<String>,
    /// Design-space label: `"edge"`, `"datacenter"`, or `"toy"` (the
    /// Fig. 4 single-layer space).
    pub space: String,
    /// Mapper label: `"fixed"`, `"random"`, or `"linear"`.
    pub mapper: String,
    /// Snapshot file path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Snapshot cadence in search steps (clamped to at least 1 on use).
    pub checkpoint_every: usize,
    /// Resume from `checkpoint` when the snapshot file exists.
    pub resume: bool,
    /// Persistent disk-cache directory; `None` runs without a disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Evaluation threads: `None` = serial engine, `Some(0)` = all cores.
    pub threads: Option<usize>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            technique: "explainable".to_string(),
            budget: 100,
            map_trials: 1000,
            seed: 7,
            models: Vec::new(),
            space: "edge".to_string(),
            mapper: "fixed".to_string(),
            checkpoint: None,
            checkpoint_every: 10,
            resume: false,
            cache_dir: None,
            threads: None,
        }
    }
}

impl JobSpec {
    /// Serializes the spec as a JSON object (the `POST /jobs` body shape).
    /// `None` fields are emitted as `null` so the output round-trips
    /// through [`JobSpec::from_json`] unchanged.
    pub fn to_json(&self) -> Json {
        let opt_path = |p: &Option<PathBuf>| match p {
            Some(path) => Json::Str(path.display().to_string()),
            None => Json::Null,
        };
        Json::obj(vec![
            ("technique", Json::Str(self.technique.clone())),
            ("budget", Json::Num(self.budget as f64)),
            ("map_trials", Json::Num(self.map_trials as f64)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "models",
                Json::Arr(self.models.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
            ("space", Json::Str(self.space.clone())),
            ("mapper", Json::Str(self.mapper.clone())),
            ("checkpoint", opt_path(&self.checkpoint)),
            ("checkpoint_every", Json::Num(self.checkpoint_every as f64)),
            ("resume", Json::Bool(self.resume)),
            ("cache_dir", opt_path(&self.cache_dir)),
            (
                "threads",
                match self.threads {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Serializes the spec as a single-line JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_line()
    }

    /// Builds a spec from a parsed JSON object. Missing or `null` members
    /// fall back to [`JobSpec::default`]; present members of the wrong
    /// type are an error (a silently ignored typo in a job submission
    /// would run the wrong search).
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        if !matches!(value, Json::Obj(_)) {
            return Err("job spec must be a JSON object".to_string());
        }
        let mut spec = JobSpec::default();
        let get = |key: &str| value.get(key).filter(|v| !matches!(v, Json::Null));
        if let Some(v) = get("technique") {
            spec.technique = req_str(v, "technique")?;
        }
        if let Some(v) = get("budget") {
            spec.budget = req_usize(v, "budget")?;
        }
        if let Some(v) = get("map_trials") {
            spec.map_trials = req_usize(v, "map_trials")?;
        }
        if let Some(v) = get("seed") {
            spec.seed = req_u64(v, "seed")?;
        }
        if let Some(v) = get("models") {
            let items = v.as_arr().ok_or("`models` must be an array")?;
            spec.models = items
                .iter()
                .map(|m| req_str(m, "models[..]"))
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = get("space") {
            spec.space = req_str(v, "space")?;
        }
        if let Some(v) = get("mapper") {
            spec.mapper = req_str(v, "mapper")?;
        }
        if let Some(v) = get("checkpoint") {
            spec.checkpoint = Some(PathBuf::from(req_str(v, "checkpoint")?));
        }
        if let Some(v) = get("checkpoint_every") {
            spec.checkpoint_every = req_usize(v, "checkpoint_every")?;
        }
        if let Some(v) = get("resume") {
            spec.resume = v.as_bool().ok_or("`resume` must be a boolean")?;
        }
        if let Some(v) = get("cache_dir") {
            spec.cache_dir = Some(PathBuf::from(req_str(v, "cache_dir")?));
        }
        if let Some(v) = get("threads") {
            spec.threads = Some(req_usize(v, "threads")?);
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text (e.g. an HTTP request body).
    pub fn from_json_str(text: &str) -> Result<JobSpec, String> {
        let value = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        JobSpec::from_json(&value)
    }
}

fn req_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

/// The largest integer a JSON number (an `f64`) is guaranteed to hold
/// exactly: 2^53.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// An integer member in `0..=2^53`. Fractions, negatives and larger
/// magnitudes are errors rather than floored or saturated values, which
/// would run a different search than the one submitted.
fn req_u64(value: &Json, key: &str) -> Result<u64, String> {
    match value {
        Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(n) => Ok(*n as u64),
        _ => Err(format!("`{key}` must be an integer in 0..=2^53")),
    }
}

fn req_usize(value: &Json, key: &str) -> Result<usize, String> {
    req_u64(value, key).and_then(|n| {
        usize::try_from(n).map_err(|_| format!("`{key}` does not fit this platform's usize"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let spec = JobSpec::default();
        let back = JobSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn full_spec_round_trips_through_json() {
        let spec = JobSpec {
            technique: "random".to_string(),
            budget: 42,
            map_trials: 17,
            seed: 99,
            models: vec!["resnet18".to_string(), "mobilenet_v2".to_string()],
            space: "toy".to_string(),
            mapper: "random".to_string(),
            checkpoint: Some(PathBuf::from("/tmp/ck")),
            checkpoint_every: 3,
            resume: true,
            cache_dir: Some(PathBuf::from("/tmp/cache")),
            threads: Some(4),
        };
        let back = JobSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn missing_members_fall_back_to_defaults() {
        let spec = JobSpec::from_json_str(r#"{"technique":"grid","budget":5}"#).unwrap();
        assert_eq!(spec.technique, "grid");
        assert_eq!(spec.budget, 5);
        assert_eq!(spec.seed, JobSpec::default().seed);
        assert!(spec.checkpoint.is_none());
    }

    #[test]
    fn wrong_member_type_is_an_error() {
        assert!(JobSpec::from_json_str(r#"{"budget":"lots"}"#).is_err());
        assert!(JobSpec::from_json_str(r#"{"models":3}"#).is_err());
        assert!(JobSpec::from_json_str(r#"[1,2]"#).is_err());
        // Numbers must be exact integers in 0..=2^53: never floored or
        // saturated into a different search.
        for (body, member) in [
            (r#"{"budget":2.5}"#, "budget"),
            (r#"{"seed":-5}"#, "seed"),
            (r#"{"threads":1e300}"#, "threads"),
            (r#"{"map_trials":9007199254740994}"#, "map_trials"),
            (r#"{"checkpoint_every":-0.5}"#, "checkpoint_every"),
        ] {
            let err = JobSpec::from_json_str(body).expect_err(body);
            assert!(err.contains(member), "{body}: {err}");
        }
        let edge = JobSpec::from_json_str(r#"{"seed":9007199254740992,"budget":0}"#).unwrap();
        assert_eq!((edge.seed, edge.budget), (1 << 53, 0));
    }
}
