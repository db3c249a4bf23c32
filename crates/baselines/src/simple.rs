//! Non-feedback and classic stochastic baselines: grid search, random
//! search, simulated annealing, genetic algorithm.

use crate::{penalized_cost, random_point, DseTechnique, Problem};
use edse_core::cost::Evaluation;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid search: strides each parameter so the grid's size roughly matches
/// the budget, then sweeps it (a non-feedback technique, Fig. 1a).
#[derive(Debug, Clone, Copy, Default)]
pub struct GridSearch;

impl DseTechnique for GridSearch {
    fn name(&self) -> String {
        "grid".into()
    }

    /// The sweep has no feedback: the whole grid is one batch, proposed at
    /// the start of the run.
    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        if problem.evaluations > 0 {
            return Vec::new();
        }
        let (space, budget) = (problem.space, problem.budget);

        // Choose per-parameter sample counts so the product ~ budget:
        // repeatedly double the count of the parameter with the largest
        // remaining domain while the grid still fits the budget.
        let mut counts: Vec<usize> = vec![1; space.len()];
        loop {
            let grid: usize = counts.iter().product();
            let candidate = (0..space.len())
                .filter(|&i| counts[i] * 2 <= space.param(i).len().max(2))
                .max_by_key(|&i| space.param(i).len() / counts[i]);
            match candidate {
                Some(i) if grid * 2 <= budget => {
                    counts[i] = (counts[i] * 2).min(space.param(i).len())
                }
                _ => break,
            }
        }

        let mut points = Vec::new();
        let mut counter = vec![0usize; space.len()];
        'outer: loop {
            if points.len() >= budget {
                break;
            }
            // Map counter to spread indices across each domain.
            let indices: Vec<usize> = counter
                .iter()
                .zip(space.params())
                .zip(&counts)
                .map(|((&c, p), &cnt)| {
                    if cnt <= 1 {
                        0
                    } else {
                        c * (p.len() - 1) / (cnt - 1)
                    }
                })
                .collect();
            points.push(DesignPoint::new(indices));

            // Mixed-radix increment.
            for i in 0..counter.len() {
                counter[i] += 1;
                if counter[i] < counts[i] {
                    continue 'outer;
                }
                counter[i] = 0;
            }
            break;
        }
        points
    }
}

/// Uniform random search (non-feedback).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    rng: StdRng,
}

impl RandomSearch {
    /// A random search with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DseTechnique for RandomSearch {
    fn name(&self) -> String {
        "random".into()
    }

    /// No feedback: the rest of the budget is one batch of independent
    /// draws.
    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        (problem.evaluations..problem.budget)
            .map(|_| random_point(problem.space, &mut self.rng))
            .collect()
    }
}

/// Simulated annealing with a linear temperature schedule and single-index
/// neighborhood moves (the SciPy-style baseline).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    rng: StdRng,
    initial_temp: f64,
    /// The current state and its cost; `None` until the run's first sample
    /// is observed.
    current: Option<(DesignPoint, f64)>,
    /// The temperature the pending neighbor is judged at.
    temp: f64,
}

impl SimulatedAnnealing {
    /// An annealer with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            initial_temp: 1.0,
            current: None,
            temp: 1.0,
        }
    }
}

impl DseTechnique for SimulatedAnnealing {
    fn name(&self) -> String {
        "annealing".into()
    }

    fn start(&mut self, _problem: &Problem) {
        self.current = None;
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        let Some((current, _)) = &self.current else {
            return vec![random_point(problem.space, &mut self.rng)];
        };
        if problem.spent() {
            return Vec::new();
        }
        self.temp = self.initial_temp
            * (1.0 - problem.evaluations as f64 / problem.budget as f64).max(1e-3);
        // Neighbor: move one random parameter by +-1 index.
        let p = self.rng.gen_range(0..problem.space.len());
        let len = problem.space.param(p).len();
        let idx = current.index(p);
        let next = if self.rng.gen::<bool>() && idx + 1 < len {
            idx + 1
        } else {
            idx.saturating_sub(1)
        };
        vec![current.with_index(p, next)]
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        let cost = penalized_cost(&evaluations[0], problem.constraints);
        let Some((current, current_cost)) = &mut self.current else {
            self.current = Some((points[0].clone(), cost));
            return;
        };
        let accept = cost <= *current_cost || {
            let ratio = (*current_cost - cost) / (current_cost.abs().max(1e-9) * self.temp);
            self.rng.gen::<f64>() < ratio.exp()
        };
        if accept {
            *current = points[0].clone();
            *current_cost = cost;
        }
    }
}

/// Genetic algorithm with tournament selection, uniform crossover, and
/// per-index mutation (the scikit-opt-style baseline).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    population: usize,
    rng: StdRng,
    /// Members and their costs; empty until the run's initial population
    /// is observed.
    pop: Vec<(DesignPoint, f64)>,
}

impl GeneticAlgorithm {
    /// A GA with the given population size and seed.
    pub fn new(population: usize, seed: u64) -> Self {
        Self {
            population: population.max(4),
            rng: StdRng::seed_from_u64(seed),
            pop: Vec::new(),
        }
    }
}

impl DseTechnique for GeneticAlgorithm {
    fn name(&self) -> String {
        "genetic".into()
    }

    fn start(&mut self, _problem: &Problem) {
        self.pop.clear();
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        let space = problem.space;
        if self.pop.is_empty() {
            // Initial population: no feedback between members, one batch.
            return (0..self.population.min(problem.budget))
                .map(|_| random_point(space, &mut self.rng))
                .collect();
        }
        if problem.spent() {
            return Vec::new();
        }
        let pick = |rng: &mut StdRng, pop: &[(DesignPoint, f64)]| {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            if pop[a].1 <= pop[b].1 {
                pop[a].0.clone()
            } else {
                pop[b].0.clone()
            }
        };
        let pa = pick(&mut self.rng, &self.pop);
        let pb = pick(&mut self.rng, &self.pop);
        // Uniform crossover + mutation.
        let mut child: Vec<usize> = (0..space.len())
            .map(|i| {
                if self.rng.gen::<bool>() {
                    pa.index(i)
                } else {
                    pb.index(i)
                }
            })
            .collect();
        for (i, gene) in child.iter_mut().enumerate() {
            if self.rng.gen::<f64>() < 0.1 {
                *gene = self.rng.gen_range(0..space.param(i).len());
            }
        }
        vec![DesignPoint::new(child)]
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        let costs = evaluations
            .iter()
            .map(|e| penalized_cost(e, problem.constraints));
        if self.pop.is_empty() {
            self.pop = points.iter().cloned().zip(costs).collect();
            return;
        }
        // Replace the worst member if the child is better.
        for (cand, cost) in points.iter().zip(costs) {
            if let Some(worst) = self
                .pop
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
                .map(|(i, _)| i)
            {
                if cost < self.pop[worst].1 {
                    self.pop[worst] = (cand.clone(), cost);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn grid_covers_distinct_points() {
        let ev = evaluator();
        let t = GridSearch.run(&ev, 30);
        let mut pts: Vec<_> = t.samples.iter().map(|s| s.point.clone()).collect();
        pts.sort_by_key(|p| p.indices().to_vec());
        pts.dedup();
        assert!(pts.len() > 1, "grid should visit distinct points");
    }

    #[test]
    fn random_search_is_reproducible() {
        let a = RandomSearch::new(5).run(&evaluator(), 10);
        let b = RandomSearch::new(5).run(&evaluator(), 10);
        let pa: Vec<_> = a.samples.iter().map(|s| s.point.clone()).collect();
        let pb: Vec<_> = b.samples.iter().map(|s| s.point.clone()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn annealing_neighbors_differ_by_one_index() {
        let ev = evaluator();
        let t = SimulatedAnnealing::new(3).run(&ev, 12);
        assert_eq!(t.evaluations(), 12);
    }

    #[test]
    fn ga_population_larger_than_budget_is_clipped() {
        let ev = evaluator();
        let t = GeneticAlgorithm::new(64, 2).run(&ev, 10);
        assert_eq!(t.evaluations(), 10);
    }
}
