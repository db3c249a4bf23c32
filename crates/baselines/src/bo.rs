//! Bayesian-optimization baselines: a vanilla GP-EI optimizer and a
//! HyperMapper-2.0-style constrained variant whose acquisition multiplies
//! expected improvement by a feasibility probability.
//!
//! Both fit a Gaussian process with an RBF kernel over normalized
//! parameter indices to their 120 most recent observations. The GP's
//! Cholesky factor persists between acquisitions and grows one row per
//! observation; each acquisition then solves for the standardized targets
//! in `O(n^2)` and scores a pool of 256 random candidates eight at a time.
//! Both are bitwise the textbook GP that refits from scratch and predicts
//! one candidate at a time, which the tests keep as their oracle.

use crate::{penalized_cost, random_point, DseTechnique, Problem};
use edse_core::cost::Evaluation;
use edse_core::space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RBF length scale over normalized parameter indices.
const LENGTH_SCALE: f64 = 0.3;
/// Observation noise added to the kernel diagonal.
const NOISE: f64 = 1e-4;
/// Most recent observations the GP is fitted to (practical BO packages
/// subsample their history likewise).
const MAX_GP: usize = 120;
/// Random candidates scored per acquisition.
const POOL: usize = 256;
/// Candidates whose posterior is computed together, one per lane of the
/// inner loops.
const LANES: usize = 8;
/// Neighbours consulted by HyperMapper's k-NN feasibility classifier.
const KNN: usize = 7;
/// The value `Iterator::sum` starts a float sum from. The lane-parallel
/// sums start there too, so each lane adds exactly the terms, in exactly
/// the order, of the scalar sum it replaces.
const SUM_START: f64 = -0.0;

/// One value per candidate of a block.
type Lanes = [f64; LANES];

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

fn kernel(d2: f64) -> f64 {
    (-d2 / (2.0 * LENGTH_SCALE * LENGTH_SCALE)).exp()
}

/// Offset of row `i` in a packed lower triangle.
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Cholesky factor `L` of `K + noise I`, the RBF kernel matrix over a
/// window of the observation history, grown one row per observation.
///
/// Row `i` of a Cholesky factor depends only on rows `0..i`, and each row
/// is computed in the textbook order (kernel entry, minus the dot product
/// of the two row prefixes in ascending order, then a square root or a
/// division), so a grown factor is bitwise the one a from-scratch
/// factorization of the same window gives. Appending a row costs
/// `O(n·d)` kernel entries plus `O(n^2)` for the row itself; when the
/// window slides, the factor is rebuilt by appending from empty.
#[derive(Debug, Clone)]
struct Factor {
    noise: f64,
    /// History index of the window's first observation.
    start: usize,
    /// Observations factored so far, from `start` on.
    rows: usize,
    /// Packed lower triangle: row `i` holds its `i + 1` entries from
    /// offset [`tri`]`(i)`.
    l: Vec<f64>,
    /// A pivot was not positive: `K` is numerically singular over this
    /// window, and stays so until the window slides.
    failed: bool,
}

impl Factor {
    fn new(noise: f64) -> Factor {
        Factor {
            noise,
            start: 0,
            rows: 0,
            l: Vec::new(),
            failed: false,
        }
    }

    /// Brings the factor up to the window `xs[start..]`: starts over when
    /// the window's first observation moved, then appends one row per
    /// observation not yet factored.
    fn sync(&mut self, xs: &[Vec<f64>], start: usize) {
        if start != self.start {
            self.start = start;
            self.rows = 0;
            self.l.clear();
            self.failed = false;
        }
        let window = &xs[start..];
        while !self.failed && self.rows < window.len() {
            self.push_row(&window[..=self.rows]);
        }
    }

    /// Appends the row of the last point of `window`, whose other points
    /// are already factored.
    fn push_row(&mut self, window: &[Vec<f64>]) {
        let i = self.rows;
        let row = self.l.len();
        for (j, xj) in window.iter().enumerate() {
            let mut sum = kernel(sq_dist(&window[i], xj));
            if j == i {
                sum += self.noise;
            }
            let lj = tri(j);
            for (a, b) in self.l[row..row + j].iter().zip(&self.l[lj..lj + j]) {
                sum -= a * b;
            }
            if j < i {
                self.l.push(sum / self.l[lj + j]);
            } else if sum <= 0.0 {
                self.l.truncate(row);
                self.failed = true;
                return;
            } else {
                self.l.push(sum.sqrt());
            }
        }
        self.rows += 1;
    }

    /// The GP posterior given the window's targets (one per factored
    /// observation), or `None` when the factor failed.
    fn posterior(&self, ys: &[f64]) -> Option<Posterior<'_>> {
        if self.failed || ys.is_empty() {
            return None;
        }
        debug_assert_eq!(ys.len(), self.rows);
        let n = ys.len() as f64;
        let y_mean = ys.iter().sum::<f64>() / n;
        let y_std = (ys.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n)
            .sqrt()
            .max(1e-9);
        // alpha = (L L^T)^-1 yn, by forward then back substitution.
        let mut alpha: Vec<f64> = ys.iter().map(|v| (v - y_mean) / y_std).collect();
        for i in 0..alpha.len() {
            let row = &self.l[tri(i)..tri(i + 1)];
            let (solved, rest) = alpha.split_at_mut(i);
            let mut sum = rest[0];
            for (lij, aj) in row.iter().zip(&*solved) {
                sum -= lij * aj;
            }
            rest[0] = sum / row[i];
        }
        for i in (0..alpha.len()).rev() {
            let (head, solved) = alpha.split_at_mut(i + 1);
            let mut sum = head[i];
            for (j, aj) in (i + 1..).zip(&*solved) {
                sum -= self.l[tri(j) + i] * aj;
            }
            head[i] = sum / self.l[tri(i) + i];
        }
        Some(Posterior {
            factor: self,
            alpha,
            y_mean,
            y_std,
        })
    }
}

/// Gaussian-process posterior over the factored window.
struct Posterior<'f> {
    factor: &'f Factor,
    /// `(K + noise I)^-1` times the standardized targets.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Posterior<'_> {
    /// Posterior mean and standard deviation at each query point, in
    /// query order, as `visit(mean, std, dists, lane)`. `history` ends
    /// with the window's points; `dists[i][lane]` is the squared distance
    /// from `history[i]` to the query, for HyperMapper's classifier.
    ///
    /// Queries go [`LANES`] at a time, with the query as the innermost
    /// loop; within a lane every value is computed with the operations,
    /// in the order, of a one-query-at-a-time posterior.
    fn predict(
        &self,
        history: &[Vec<f64>],
        queries: &[Vec<f64>],
        mut visit: impl FnMut(f64, f64, &[Lanes], usize),
    ) {
        let l = &self.factor.l;
        let n = self.alpha.len();
        let dims = queries.first().map_or(0, Vec::len);
        let mut qt = vec![[0.0; LANES]; dims];
        let mut dists: Vec<Lanes> = vec![[0.0; LANES]; history.len()];
        // k(x_i, q) over the window, then overwritten in place by
        // v = L^-1 k.
        let mut v: Vec<Lanes> = vec![[0.0; LANES]; n];
        for block in queries.chunks(LANES) {
            // Lanes past a short final block keep stale queries; their
            // results are dropped.
            for (lane, q) in block.iter().enumerate() {
                for (d, &qd) in q.iter().enumerate() {
                    qt[d][lane] = qd;
                }
            }
            for (d2, x) in dists.iter_mut().zip(history) {
                *d2 = [SUM_START; LANES];
                for (&xd, qd) in x.iter().zip(&qt) {
                    for lane in 0..LANES {
                        d2[lane] += (xd - qd[lane]).powi(2);
                    }
                }
            }
            for (vi, d2) in v.iter_mut().zip(&dists[history.len() - n..]) {
                *vi = d2.map(kernel);
            }
            let mut mean = [SUM_START; LANES];
            for (k, a) in v.iter().zip(&self.alpha) {
                for lane in 0..LANES {
                    mean[lane] += k[lane] * a;
                }
            }
            for i in 0..n {
                let row = &l[tri(i)..tri(i + 1)];
                let mut sum = v[i];
                for (lij, vj) in row.iter().zip(&v[..i]) {
                    for lane in 0..LANES {
                        sum[lane] -= lij * vj[lane];
                    }
                }
                v[i] = sum.map(|s| s / row[i]);
            }
            let mut ss = [SUM_START; LANES];
            for vi in &v {
                for lane in 0..LANES {
                    ss[lane] += vi[lane] * vi[lane];
                }
            }
            for lane in 0..block.len() {
                let var = (1.0 + self.factor.noise - ss[lane]).max(1e-12);
                visit(
                    mean[lane] * self.y_std + self.y_mean,
                    var.sqrt() * self.y_std,
                    &dists,
                    lane,
                );
            }
        }
    }
}

fn normalize(space: &DesignSpace, p: &DesignPoint) -> Vec<f64> {
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, def)| {
            if def.len() <= 1 {
                0.0
            } else {
                p.index(i) as f64 / (def.len() - 1) as f64
            }
        })
        .collect()
}

/// Standard-normal pdf / cdf (Abramowitz-Stegun approximation for the cdf).
fn phi(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn big_phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a minimization at predicted `(mean, std)` over
/// the incumbent `best`.
fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * big_phi(z) + std * phi(z)
}

/// Fraction of feasible observations among the [`KNN`] nearest, given
/// each observation's squared distance to the query (HyperMapper's
/// feasibility classifier stand-in). Distance ties go to the earlier
/// observation, so the neighbours are the first [`KNN`] of a stable sort
/// by distance.
fn knn_feasibility(dists: impl IntoIterator<Item = f64>, feas: &[bool]) -> f64 {
    // The nearest so far, ascending by (distance, history index).
    let mut near = [(0.0, false); KNN];
    let mut len = 0;
    for (d, &f) in dists.into_iter().zip(feas) {
        if len == KNN && d >= near[KNN - 1].0 {
            continue;
        }
        let mut at = len.min(KNN - 1);
        while at > 0 && near[at - 1].0 > d {
            near[at] = near[at - 1];
            at -= 1;
        }
        near[at] = (d, f);
        len = (len + 1).min(KNN);
    }
    near[..len].iter().filter(|(_, f)| *f).count() as f64 / len as f64
}

/// Shared BO skeleton: initial random design, then GP-EI acquisition over a
/// random candidate pool, with optional feasibility weighting.
#[derive(Debug, Clone)]
struct Bo {
    rng: StdRng,
    feasibility_aware: bool,
    /// Normalized points observed this run.
    xs: Vec<Vec<f64>>,
    /// Their log penalized costs (the penalized range spans orders of
    /// magnitude).
    ys: Vec<f64>,
    /// Whether each was feasible.
    feas: Vec<bool>,
    /// The GP's factor over the most recent [`MAX_GP`] observations, kept
    /// between acquisitions.
    factor: Factor,
}

impl Bo {
    fn new(seed: u64, feasibility_aware: bool) -> Bo {
        Bo {
            rng: StdRng::seed_from_u64(seed),
            feasibility_aware,
            xs: Vec::new(),
            ys: Vec::new(),
            feas: Vec::new(),
            factor: Factor::new(NOISE),
        }
    }

    fn start(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.feas.clear();
        self.factor = Factor::new(NOISE);
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        let space = problem.space;
        if self.xs.is_empty() {
            // Initial design: feedback-free, one batch.
            let init = (problem.budget / 5).clamp(3, 20).min(problem.budget);
            return (0..init)
                .map(|_| random_point(space, &mut self.rng))
                .collect();
        }
        if problem.spent() {
            return Vec::new();
        }
        // Scoring draws no randomness, so drawing the whole pool up front
        // keeps the draw order.
        let mut pool: Vec<DesignPoint> = (0..POOL)
            .map(|_| random_point(space, &mut self.rng))
            .collect();
        let start = self.xs.len().saturating_sub(MAX_GP);
        self.factor.sync(&self.xs, start);
        // Without a posterior every candidate scores alike; the first wins.
        let Some(gp) = self.factor.posterior(&self.ys[start..]) else {
            return vec![pool.swap_remove(0)];
        };
        let best = self.ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let queries: Vec<Vec<f64>> = pool.iter().map(|p| normalize(space, p)).collect();
        // HyperMapper's classifier looks at the whole history, plain BO
        // only at the window.
        let history = if self.feasibility_aware {
            &self.xs[..]
        } else {
            &self.xs[start..]
        };
        let mut scores = Vec::with_capacity(POOL);
        gp.predict(history, &queries, |mean, std, dists, lane| {
            let mut ei = expected_improvement(mean, std, best);
            if self.feasibility_aware {
                let near = dists.iter().map(|d| d[lane]);
                ei *= knn_feasibility(near, &self.feas).max(0.05);
            }
            scores.push(ei);
        });
        let mut best_cand: Option<(usize, f64)> = None;
        for (i, &score) in scores.iter().enumerate() {
            if best_cand.is_none_or(|(_, s)| score > s) {
                best_cand = Some((i, score));
            }
        }
        let (i, _) = best_cand.expect("pool non-empty");
        vec![pool.swap_remove(i)]
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        for (p, eval) in points.iter().zip(evaluations) {
            let cost = penalized_cost(eval, problem.constraints);
            self.xs.push(normalize(problem.space, p));
            self.ys.push(cost.max(1e-12).ln());
            self.feas.push(cost < 1e12);
        }
    }
}

/// Vanilla Bayesian optimization (GP + expected improvement), the
/// `fmfn/BayesianOptimization`-style baseline.
#[derive(Debug, Clone)]
pub struct BayesianOpt {
    bo: Bo,
}

impl BayesianOpt {
    /// A BO run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            bo: Bo::new(seed, false),
        }
    }
}

impl DseTechnique for BayesianOpt {
    fn name(&self) -> String {
        "bayesian".into()
    }

    fn start(&mut self, _problem: &Problem) {
        self.bo.start();
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        self.bo.propose(problem)
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        self.bo.observe(problem, points, evaluations);
    }
}

/// HyperMapper-2.0-style constrained Bayesian optimization: expected
/// improvement weighted by a feasibility classifier.
#[derive(Debug, Clone)]
pub struct HyperMapperLike {
    bo: Bo,
}

impl HyperMapperLike {
    /// A constrained-BO run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            bo: Bo::new(seed, true),
        }
    }
}

impl DseTechnique for HyperMapperLike {
    fn name(&self) -> String {
        "hypermapper".into()
    }

    fn start(&mut self, _problem: &Problem) {
        self.bo.start();
    }

    fn propose(&mut self, problem: &Problem) -> Vec<DesignPoint> {
        self.bo.propose(problem)
    }

    fn observe(&mut self, problem: &Problem, points: &[DesignPoint], evaluations: &[Evaluation]) {
        self.bo.observe(problem, points, evaluations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The from-scratch GP the incremental factor and the batched
    /// posterior replace, kept as their bit-identity oracle: a dense
    /// kernel matrix, a full Cholesky factorization per fit, and one query
    /// at a time.
    mod reference {
        pub struct Gp {
            pub x: Vec<Vec<f64>>,
            pub alpha: Vec<f64>,
            pub chol: Vec<Vec<f64>>,
            pub length_scale: f64,
            pub noise: f64,
            pub y_mean: f64,
            pub y_std: f64,
        }

        impl Gp {
            #[allow(clippy::needless_range_loop)] // symmetric-matrix index pairs
            pub fn fit(x: Vec<Vec<f64>>, y: &[f64], noise: f64) -> Option<Gp> {
                let n = x.len();
                if n == 0 {
                    return None;
                }
                let y_mean = y.iter().sum::<f64>() / n as f64;
                let y_std = (y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64)
                    .sqrt()
                    .max(1e-9);
                let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
                let length_scale = 0.3;

                // K + noise I, then Cholesky.
                let mut k = vec![vec![0.0; n]; n];
                for i in 0..n {
                    for j in 0..=i {
                        let v = rbf(&x[i], &x[j], length_scale);
                        k[i][j] = v;
                        k[j][i] = v;
                    }
                    k[i][i] += noise;
                }
                let chol = cholesky(&k)?;
                let alpha = chol_solve(&chol, &yn);
                Some(Gp {
                    x,
                    alpha,
                    chol,
                    length_scale,
                    noise,
                    y_mean,
                    y_std,
                })
            }

            /// Posterior mean and standard deviation at a point.
            pub fn predict(&self, q: &[f64]) -> (f64, f64) {
                let kstar: Vec<f64> = self
                    .x
                    .iter()
                    .map(|xi| rbf(xi, q, self.length_scale))
                    .collect();
                let mean_n: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
                // v = L^-1 k*; var = k(q,q) + noise - v.v
                let v = forward_sub(&self.chol, &kstar);
                let var = (1.0 + self.noise - v.iter().map(|a| a * a).sum::<f64>()).max(1e-12);
                (mean_n * self.y_std + self.y_mean, var.sqrt() * self.y_std)
            }
        }

        fn rbf(a: &[f64], b: &[f64], ls: f64) -> f64 {
            let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
            (-d2 / (2.0 * ls * ls)).exp()
        }

        #[allow(clippy::needless_range_loop)] // triangular index pairs
        pub fn cholesky(k: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
            let n = k.len();
            let mut l = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = k[i][j];
                    for t in 0..j {
                        sum -= l[i][t] * l[j][t];
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return None;
                        }
                        l[i][j] = sum.sqrt();
                    } else {
                        l[i][j] = sum / l[j][j];
                    }
                }
            }
            Some(l)
        }

        fn forward_sub(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
            let n = l.len();
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = b[i];
                for j in 0..i {
                    sum -= l[i][j] * y[j];
                }
                y[i] = sum / l[i][i];
            }
            y
        }

        pub fn chol_solve(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
            let n = l.len();
            let y = forward_sub(l, b);
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = y[i];
                for j in (i + 1)..n {
                    sum -= l[j][i] * x[j];
                }
                x[i] = sum / l[i][i];
            }
            x
        }

        /// The k-NN feasibility probability as a full stable sort of the
        /// history by distance.
        pub fn knn_feasibility(xs: &[Vec<f64>], feas: &[bool], q: &[f64]) -> f64 {
            let mut dists: Vec<(f64, bool)> = xs
                .iter()
                .zip(feas)
                .map(|(x, f)| {
                    let d: f64 = x.iter().zip(q).map(|(a, b)| (a - b).powi(2)).sum();
                    (d, *f)
                })
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let k = dists.len().min(7);
            dists[..k].iter().filter(|(_, f)| *f).count() as f64 / k as f64
        }
    }

    /// Parameter-list lengths of a 13-dimensional space like the edge
    /// space's: normalized coordinates sit on small grids, so points
    /// repeat and distances tie.
    const GRID: [usize; 13] = [1, 2, 3, 4, 5, 8, 3, 6, 4, 2, 7, 5, 9];

    fn grid_point(rng: &mut StdRng) -> Vec<f64> {
        GRID.iter()
            .map(|&len| {
                if len <= 1 {
                    0.0
                } else {
                    rng.gen_range(0..len) as f64 / (len - 1) as f64
                }
            })
            .collect()
    }

    fn continuous_point(rng: &mut StdRng) -> Vec<f64> {
        (0..GRID.len()).map(|_| rng.gen::<f64>()).collect()
    }

    /// The grown factor, `alpha` and target standardization against a
    /// from-scratch fit of the same window, bit for bit; returns whether
    /// the window had a posterior.
    fn assert_matches_refit(factor: &mut Factor, xs: &[Vec<f64>], ys: &[f64]) -> bool {
        let start = xs.len().saturating_sub(MAX_GP);
        factor.sync(xs, start);
        let got = factor.posterior(&ys[start..]);
        let want = reference::Gp::fit(xs[start..].to_vec(), &ys[start..], factor.noise);
        let (got, want) = match (got, want) {
            (None, None) => return false,
            (Some(got), Some(want)) => (got, want),
            (got, want) => panic!(
                "n={}: posterior {} but refit {}",
                xs.len(),
                got.is_some(),
                want.is_some()
            ),
        };
        let n = want.chol.len();
        assert_eq!(factor.l.len(), tri(n));
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(
                    factor.l[tri(i) + j].to_bits(),
                    want.chol[i][j].to_bits(),
                    "n={} L[{i}][{j}]",
                    xs.len()
                );
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.alpha), bits(&want.alpha), "n={} alpha", xs.len());
        assert_eq!(got.y_mean.to_bits(), want.y_mean.to_bits());
        assert_eq!(got.y_std.to_bits(), want.y_std.to_bits());
        true
    }

    #[test]
    fn grown_factor_is_bitwise_a_refit() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut factor = Factor::new(NOISE);
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            // An initial batch, then mostly single observations with the
            // odd batch, past the window slide.
            while xs.len() < 200 {
                let batch = if xs.is_empty() {
                    20
                } else {
                    [1, 1, 1, 3][rng.gen_range(0..4usize)]
                };
                for _ in 0..batch {
                    xs.push(grid_point(&mut rng));
                    ys.push(rng.gen::<f64>() * 10.0 - 5.0);
                }
                assert!(assert_matches_refit(&mut factor, &xs, &ys));
            }
            assert!(factor.start > 0, "the window slid");
        }
    }

    #[test]
    fn failed_pivot_matches_refit_until_the_window_slides() {
        let mut rng = StdRng::seed_from_u64(11);
        // Without noise, a repeated point makes K singular: the second
        // copy's pivot is exactly zero.
        let mut factor = Factor::new(0.0);
        let first = continuous_point(&mut rng);
        let (mut xs, mut ys) = (vec![first.clone(), first], vec![0.5, 1.5]);
        let mut outcomes = Vec::new();
        while xs.len() < MAX_GP + 5 {
            outcomes.push(assert_matches_refit(&mut factor, &xs, &ys));
            xs.push(continuous_point(&mut rng));
            ys.push(rng.gen::<f64>());
        }
        outcomes.push(assert_matches_refit(&mut factor, &xs, &ys));
        // Failed while the duplicate was in the window, fitted after.
        assert!(outcomes[..MAX_GP - 1].iter().all(|ok| !ok));
        assert!(*outcomes.last().unwrap());
    }

    #[test]
    fn batched_posterior_is_bitwise_the_scalar_predict() {
        let mut rng = StdRng::seed_from_u64(5);
        // The window is the history's suffix; HyperMapper passes older
        // points ahead of it for its classifier's distances.
        let history: Vec<Vec<f64>> = (0..MAX_GP + 30).map(|_| grid_point(&mut rng)).collect();
        let ys: Vec<f64> = (0..MAX_GP).map(|_| rng.gen::<f64>() * 4.0).collect();
        let mut factor = Factor::new(NOISE);
        factor.sync(&history, 30);
        let gp = factor.posterior(&ys).expect("noisy kernel factors");
        let want = reference::Gp::fit(history[30..].to_vec(), &ys, NOISE).unwrap();
        for (from, size) in [(30, 1), (30, 7), (0, 8), (30, 9), (0, 256), (30, 256)] {
            let xs = &history[from..];
            // Grid queries, some of them observed points.
            let queries: Vec<Vec<f64>> = (0..size)
                .map(|i| {
                    if i % 5 == 0 {
                        xs[rng.gen_range(0..xs.len())].clone()
                    } else {
                        grid_point(&mut rng)
                    }
                })
                .collect();
            let mut got = Vec::new();
            gp.predict(xs, &queries, |mean, std, dists, lane| {
                let q = &queries[got.len()];
                assert_eq!(dists.len(), xs.len());
                for (x, d) in xs.iter().zip(dists) {
                    assert_eq!(d[lane].to_bits(), sq_dist(x, q).to_bits());
                }
                got.push((mean, std));
            });
            assert_eq!(got.len(), size);
            for (q, (mean, std)) in queries.iter().zip(got) {
                let (m, s) = want.predict(q);
                assert_eq!(mean.to_bits(), m.to_bits(), "pool {size} mean");
                assert_eq!(std.to_bits(), s.to_bits(), "pool {size} std");
            }
        }
    }

    #[test]
    fn knn_feasibility_is_the_stable_sort_selection() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1, 2, 6, 7, 8, 40, 150] {
            let xs: Vec<Vec<f64>> = (0..n).map(|_| grid_point(&mut rng)).collect();
            let feas: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            for _ in 0..50 {
                let q = grid_point(&mut rng);
                let dists = xs.iter().map(|x| sq_dist(x, &q));
                assert_eq!(
                    knn_feasibility(dists, &feas).to_bits(),
                    reference::knn_feasibility(&xs, &feas, &q).to_bits(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn lane_sums_start_where_iterator_sum_does() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_START.to_bits());
    }

    /// The production posterior over a window small enough to be the
    /// whole history.
    fn fit_all(xs: &[Vec<f64>], ys: &[f64], factor: &mut Factor) -> Vec<(f64, f64)> {
        factor.sync(xs, 0);
        let gp = factor.posterior(ys).unwrap();
        let queries: Vec<Vec<f64>> = (0..=20).map(|i| vec![i as f64 / 20.0]).collect();
        let mut posterior = Vec::new();
        gp.predict(xs, &queries, |mean, std, _, _| posterior.push((mean, std)));
        posterior
    }

    #[test]
    fn gp_interpolates_training_points() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = [1.0, 2.0, 3.0];
        let (m, s) = fit_all(&x, &y, &mut Factor::new(NOISE))[10];
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
        assert!(s < 0.2, "std {s}");
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = [1.0, 1.1];
        let posterior = fit_all(&x, &y, &mut Factor::new(NOISE));
        let (_, near) = posterior[1];
        let (_, far) = posterior[20];
        assert!(far > near);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
    }

    #[test]
    fn ei_positive_when_mean_below_best() {
        assert!(expected_improvement(0.0, 1.0, 1.0) > 0.0);
        assert!(expected_improvement(5.0, 0.0, 1.0) == 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cholesky_roundtrip() {
        let k = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let l = reference::cholesky(&k).unwrap();
        // L L^T == K
        for i in 0..2 {
            for j in 0..2 {
                let v: f64 = (0..2).map(|t| l[i][t] * l[j][t]).sum();
                assert!((v - k[i][j]).abs() < 1e-12);
            }
        }
        let x = reference::chol_solve(&l, &[1.0, 1.0]);
        // K x = b
        for i in 0..2 {
            let b: f64 = (0..2).map(|j| k[i][j] * x[j]).sum();
            assert!((b - 1.0).abs() < 1e-9);
        }
    }
}
