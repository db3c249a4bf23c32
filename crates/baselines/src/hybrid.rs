//! Hybrid optimization methodologies (paper §B): Explainable-DSE's
//! quickly-found efficient solutions serve as high-quality initial points
//! for further black-box refinement, and black-box techniques can be
//! chained with each other.

use crate::{penalized_cost, random_point, DseTechnique, Problem};
use edse_core::cost::{Evaluation, Trace};
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chains two phases: any warm-up technique followed by a refinement
/// technique whose exploration is biased around the warm-up's best point.
///
/// The refinement is a seeded local random search: each sample re-draws a
/// few parameters of the incumbent (the common "basin hopping around a
/// good initial point" pattern the paper's hybrid-methodology note
/// alludes to).
pub struct WarmStartHybrid {
    warmup: Box<dyn DseTechnique>,
    /// Share of the budget the warm-up gets; `None` gives it the whole
    /// budget (it stops on its own, as a finished trace does).
    warmup_share: Option<f64>,
    rng: StdRng,
    /// Budget of the warm-up phase of the current run.
    warm_budget: usize,
    /// Whether the current run is still in its warm-up phase.
    warming: bool,
    /// Best feasible warm-up sample (point, objective), first on ties.
    warm_best: Option<(DesignPoint, f64)>,
    /// The refinement's incumbent and its penalized cost.
    incumbent: Option<(DesignPoint, f64)>,
}

impl WarmStartHybrid {
    /// A hybrid spending `warmup_share` (0..1) of the budget on `warmup`
    /// and the rest refining around its best point.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_share` is not within `(0, 1)`.
    pub fn new(warmup: Box<dyn DseTechnique>, warmup_share: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&warmup_share) && warmup_share > 0.0);
        Self::with_warmup(warmup, Some(warmup_share), seed)
    }

    /// A hybrid whose warm-up is a finished exploration — for example an
    /// explainable search, `SearchSession::run(..).into_trace()`. The run
    /// re-evaluates the trace's points as its first batch (cache hits on
    /// the evaluator that produced them), then refines around their best
    /// feasible point for the rest of the budget.
    pub fn from_trace(trace: Trace, seed: u64) -> Self {
        let replay = Replay {
            name: trace.technique,
            points: trace.samples.into_iter().map(|s| s.point).collect(),
        };
        Self::with_warmup(Box::new(replay), None, seed)
    }

    fn with_warmup(warmup: Box<dyn DseTechnique>, warmup_share: Option<f64>, seed: u64) -> Self {
        Self {
            warmup,
            warmup_share,
            rng: StdRng::seed_from_u64(seed),
            warm_budget: 0,
            warming: true,
            warm_best: None,
            incumbent: None,
        }
    }

    /// The problem as the warm-up phase sees it: its share of the budget.
    fn warm_problem<'a>(&self, problem: &Problem<'a>) -> Problem<'a> {
        Problem {
            budget: self.warm_budget,
            ..*problem
        }
    }
}

impl DseTechnique for WarmStartHybrid {
    fn name(&self) -> String {
        format!("{}+refine", self.warmup.name())
    }

    fn start(&mut self, problem: &Problem) {
        let budget = problem.budget;
        self.warm_budget = self.warmup_share.map_or(budget, |share| {
            ((budget as f64 * share) as usize).max(1).min(budget)
        });
        self.warming = true;
        self.warm_best = None;
        self.incumbent = None;
        let warm = self.warm_problem(problem);
        self.warmup.start(&warm);
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        if self.warming {
            let batch = self.warmup.propose(&self.warm_problem(problem));
            if !batch.is_empty() {
                return batch;
            }
            self.warming = false;
            let start = match self.warm_best.take() {
                Some((point, _)) => point,
                None => random_point(problem.space, &mut self.rng),
            };
            self.incumbent = Some((start, f64::INFINITY));
        }
        if problem.spent() {
            return Vec::new();
        }
        let (incumbent, _) = self.incumbent.as_ref().expect("set when warm-up ends");
        // Redraw 1-3 parameters of the incumbent.
        let mut cand = incumbent.clone();
        let moves = self.rng.gen_range(1..=3usize);
        for _ in 0..moves {
            let p = self.rng.gen_range(0..problem.space.len());
            let idx = self.rng.gen_range(0..problem.space.param(p).len());
            cand = cand.with_index(p, idx);
        }
        vec![cand]
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        if self.warming {
            let warm = self.warm_problem(problem);
            self.warmup.observe(&warm, points, evaluations);
            for (point, eval) in points.iter().zip(evaluations) {
                let better = self
                    .warm_best
                    .as_ref()
                    .is_none_or(|(_, best)| eval.objective < *best);
                if eval.feasible(problem.constraints) && better {
                    self.warm_best = Some((point.clone(), eval.objective));
                }
            }
            return;
        }
        let (incumbent, incumbent_cost) = self.incumbent.as_mut().expect("set when warm-up ends");
        for (point, eval) in points.iter().zip(evaluations) {
            let cost = penalized_cost(eval, problem.constraints);
            if cost < *incumbent_cost {
                *incumbent_cost = cost;
                *incumbent = point.clone();
            }
        }
    }
}

/// A finished exploration re-proposed as one batch: the warm-up of
/// [`WarmStartHybrid::from_trace`].
struct Replay {
    name: String,
    points: Vec<DesignPoint>,
}

impl DseTechnique for Replay {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        if problem.evaluations > 0 {
            return Vec::new();
        }
        self.points.iter().take(problem.budget).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomSearch;
    use edse_core::bottleneck::dnn_latency_model;
    use edse_core::dse::DseConfig;
    use edse_core::evaluate::{CodesignEvaluator, Evaluator};
    use edse_core::space::edge_space;
    use edse_core::SearchSession;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn hybrid_respects_total_budget() {
        let mut h = WarmStartHybrid::new(Box::new(RandomSearch::new(3)), 0.4, 3);
        let trace = h.run(&evaluator(), 30);
        assert_eq!(trace.evaluations(), 30);
        assert_eq!(trace.technique, "random+refine");
    }

    #[test]
    fn explainable_warmup_hands_off_a_feasible_incumbent() {
        // §B: the explainable phase lands a feasible point quickly; the
        // refinement phase may only improve on it.
        let ev = evaluator();
        let config = DseConfig {
            seed: 1,
            budget: 80,
            ..DseConfig::default()
        };
        let warm_only = SearchSession::new(dnn_latency_model(), config)
            .evaluator(&ev)
            .run(ev.space().minimum_point())
            .into_trace();
        let mut h = WarmStartHybrid::from_trace(warm_only.clone(), 1);
        let trace = h.run(&ev, 160);
        assert_eq!(trace.technique, "explainable+refine");
        assert_eq!(
            trace.samples[..warm_only.evaluations()],
            warm_only.samples[..],
            "the warm-up samples lead the hybrid's trace"
        );
        let best = trace
            .best_feasible()
            .expect("hybrid finds a feasible design");
        if let Some(w) = warm_only.best_feasible() {
            assert!(
                best.objective <= w.objective + 1e-9,
                "refinement must not lose the incumbent"
            );
        }
    }

    #[test]
    #[should_panic(expected = "warmup_share")]
    fn invalid_share_rejected() {
        let _ = WarmStartHybrid::new(Box::new(RandomSearch::new(0)), 1.5, 0);
    }
}
