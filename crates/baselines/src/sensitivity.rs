//! A sensitivity-guided gray-box DSE — the §C middle ground between
//! black-box search and designer-written bottleneck models: when no
//! bottleneck model is available, per-parameter cost sensitivities can be
//! *estimated from probes* and used to pick the next parameter to move.
//!
//! The optimizer keeps an exponentially-weighted estimate of each
//! parameter's marginal cost change per index step (from its own history),
//! moves the most promising parameter in its improving direction, and
//! periodically re-probes a random parameter so stale estimates recover.

use crate::{penalized_cost, random_point, DseTechnique, Problem};
use edse_core::cost::Evaluation;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The gray-box sensitivity-guided explorer.
#[derive(Debug, Clone)]
pub struct SensitivityGuided {
    rng: StdRng,
    /// Probability of probing a random parameter instead of the best one.
    explore_prob: f64,
    /// EWMA smoothing factor for sensitivity updates.
    alpha: f64,
    /// The current point and its cost; `None` until the run's first sample
    /// is observed.
    current: Option<(DesignPoint, f64)>,
    /// Per parameter: estimated |improvement| per step.
    gain: Vec<f64>,
    /// Per parameter: the direction to move it next.
    dir: Vec<isize>,
    /// The parameter the pending candidate moved.
    moved: usize,
    /// Whether the pending point is a restart rather than a move.
    restart: bool,
}

impl SensitivityGuided {
    /// A sensitivity-guided run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            explore_prob: 0.2,
            alpha: 0.5,
            current: None,
            gain: Vec::new(),
            dir: Vec::new(),
            moved: 0,
            restart: false,
        }
    }
}

impl DseTechnique for SensitivityGuided {
    fn name(&self) -> String {
        "sensitivity".into()
    }

    fn start(&mut self, problem: &Problem) {
        let n = problem.space.len();
        self.current = None;
        self.gain = vec![f64::INFINITY; n]; // optimistic init
        self.dir = vec![1; n];
        self.restart = false;
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        let space = problem.space;
        let Some((current, _)) = &self.current else {
            return vec![space.minimum_point()];
        };
        // Occasional restart once every direction looks exhausted.
        if self.restart {
            return vec![random_point(space, &mut self.rng)];
        }
        let (gain, dir) = (&mut self.gain, &mut self.dir);
        while !problem.spent() {
            // Pick the parameter with the highest estimated gain (ties and
            // unprobed parameters first thanks to the optimistic init), or
            // explore randomly.
            let p = if self.rng.gen::<f64>() < self.explore_prob {
                self.rng.gen_range(0..space.len())
            } else {
                (0..space.len())
                    .max_by(|&a, &b| gain[a].partial_cmp(&gain[b]).unwrap())
                    .unwrap_or(0)
            };
            let len = space.param(p).len();
            if len <= 1 {
                gain[p] = 0.0;
                continue;
            }
            let idx = current.index(p) as isize;
            let mut next = idx + dir[p];
            if next < 0 || next >= len as isize {
                dir[p] = -dir[p];
                next = idx + dir[p];
                if next < 0 || next >= len as isize {
                    gain[p] = 0.0;
                    continue;
                }
            }
            self.moved = p;
            return vec![current.with_index(p, next as usize)];
        }
        Vec::new()
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        let cost = penalized_cost(&evaluations[0], problem.constraints);
        let Some((current, current_cost)) = &mut self.current else {
            self.current = Some((points[0].clone(), cost));
            return;
        };
        if self.restart {
            *current = points[0].clone();
            *current_cost = cost;
            self.gain.fill(f64::INFINITY);
            self.restart = false;
            return;
        }

        // Update the sensitivity estimate from the observed delta.
        let p = self.moved;
        let improvement = *current_cost - cost;
        let observed = improvement.abs();
        self.gain[p] = if self.gain[p].is_finite() {
            self.alpha * observed + (1.0 - self.alpha) * self.gain[p]
        } else {
            observed
        };
        if improvement > 0.0 {
            *current = points[0].clone();
            *current_cost = cost;
        } else {
            // Wrong direction: flip and decay the estimate.
            self.dir[p] = -self.dir[p];
            self.gain[p] *= 0.5;
        }
        self.restart = self.gain.iter().all(|g| *g <= 1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    #[test]
    fn sensitivity_guided_improves_within_budget() {
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let trace = SensitivityGuided::new(5).run(&ev, 120);
        assert!(trace.evaluations() <= 120);
        // The first sample is the (infeasible) minimum point; the explorer
        // must make progress on the penalized cost.
        let first = trace.samples.first().unwrap().objective;
        let last_best = trace
            .samples
            .iter()
            .map(|s| s.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(last_best <= first);
    }

    #[test]
    fn sensitivity_guided_is_reproducible() {
        let run = |seed| {
            let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
            SensitivityGuided::new(seed).run(&ev, 30)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(
            a.samples
                .iter()
                .map(|s| s.point.clone())
                .collect::<Vec<_>>(),
            b.samples
                .iter()
                .map(|s| s.point.clone())
                .collect::<Vec<_>>()
        );
    }
}
