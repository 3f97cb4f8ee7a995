//! One-dimensional Gaussian mixture models fit with Expectation–Maximization.
//!
//! This is the clustering engine of the BST methodology (paper §4.2):
//! "we employ GMM in conjunction with the Expectation-Maximization (EM)
//! methodology (GMM-EM) to iteratively compute the maximum likelihood that
//! each speed test data point belongs to its respective upload/download
//! speed cluster."
//!
//! The implementation supports:
//! * k-means++ initialization (robust on the spiky, heavy-tailed speed
//!   distributions this workspace generates),
//! * per-component mean, variance, and weight (the "parameters associated
//!   with a GMM cluster/component" of §4.2),
//! * soft responsibilities and hard assignment,
//! * BIC for the component-count ablation.

use crate::error::{validate_sample, StatsError};
use crate::kmeans::kmeans_1d;
use crate::Result;
use rand::Rng;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Point-block size for the EM normalize pass: large enough that the
/// contiguous column segments amortize the loop overhead and vectorize,
/// small enough that one block of every column stays cache-resident
/// (`EM_BLOCK × cols × 8 B` ≈ 32 KiB at 8 columns).
const EM_BLOCK: usize = 512;

/// Configuration for [`GaussianMixture::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmConfig {
    /// Number of mixture components.
    pub k: usize,
    /// Maximum EM iterations.
    pub max_iter: usize,
    /// Convergence threshold on mean per-sample log-likelihood improvement.
    pub tol: f64,
    /// Variance floor, as a fraction of the overall sample variance, to stop
    /// components collapsing onto single points.
    pub var_floor_frac: f64,
    /// Initial weight of an optional uniform background component that
    /// absorbs outliers. `None` disables it. With tight clusters plus
    /// scattered stragglers, a pure Gaussian mixture lets its widest
    /// component balloon into a straggler-collector; the background
    /// component keeps the Gaussians on the clusters.
    pub background_weight: Option<f64>,
}

impl Default for GmmConfig {
    fn default() -> Self {
        GmmConfig { k: 1, max_iter: 200, tol: 1e-7, var_floor_frac: 1e-4, background_weight: None }
    }
}

impl GmmConfig {
    /// Config with `k` components and default EM settings.
    pub fn with_k(k: usize) -> Self {
        GmmConfig { k, ..Default::default() }
    }
}

/// One fitted Gaussian component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Mixing weight (sums to 1 across components).
    pub weight: f64,
    /// Mean.
    pub mean: f64,
    /// Variance.
    pub var: f64,
}

impl Component {
    /// Log-density of `x` under this component (without the weight).
    fn log_pdf(&self, x: f64) -> f64 {
        let d = x - self.mean;
        -0.5 * (LN_2PI + self.var.ln() + d * d / self.var)
    }
}

/// Diagnostics from an EM fit.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmFit {
    /// Final mean per-sample log-likelihood.
    pub log_likelihood: f64,
    /// EM iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iter`.
    pub converged: bool,
    /// Mean per-sample log-likelihood after each E-step, one entry per
    /// iteration (`trajectory.len() == iterations`). A pure function of
    /// the data and initialization, so it belongs to the deterministic
    /// metric class (DESIGN.md §13).
    pub trajectory: Vec<f64>,
}

/// A fitted 1-D Gaussian mixture, optionally with a uniform background
/// (outlier) component.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    components: Vec<Component>,
    /// `(weight, log_density)` of the uniform background, if enabled.
    background: Option<(f64, f64)>,
    fit: GmmFit,
    n_samples: usize,
}

impl GaussianMixture {
    /// Fit a `cfg.k`-component mixture to `data` with EM, initialized by
    /// k-means++.
    pub fn fit<R: Rng + ?Sized>(data: &[f64], cfg: GmmConfig, rng: &mut R) -> Result<Self> {
        validate_sample(data)?;
        if cfg.k == 0 {
            return Err(StatsError::InvalidParameter { what: "k", value: 0.0 });
        }
        if data.len() < cfg.k {
            return Err(StatsError::TooFewSamples { needed: cfg.k, got: data.len() });
        }
        let n = data.len();
        let k = cfg.k;

        let total_var = crate::describe::variance(data).max(1e-12);
        let var_floor = (total_var * cfg.var_floor_frac).max(1e-12);

        // --- Initialization from k-means++ ---
        let km = kmeans_1d(data, k, 50, rng)?;
        let mut comps: Vec<Component> = (0..k)
            .map(|c| {
                let members: Vec<f64> = data
                    .iter()
                    .zip(&km.assignments)
                    .filter(|(_, &a)| a == c)
                    .map(|(&x, _)| x)
                    .collect();
                let weight = (members.len() as f64 / n as f64).max(1e-6);
                let mean = if members.is_empty() {
                    km.centers[c]
                } else {
                    crate::describe::mean(&members)
                };
                let var = if members.len() < 2 {
                    total_var / k as f64
                } else {
                    crate::describe::variance(&members).max(var_floor)
                };
                Component { weight, mean, var }
            })
            .collect();
        normalize_weights(&mut comps);
        Self::run_em(data, comps, cfg, var_floor, 0)
    }

    /// The EM loop shared by the initialization strategies.
    ///
    /// For the first `freeze_means_iters` iterations the M-step updates
    /// only weights and variances. Seeded initializations use this so
    /// component weights can shrink to the data's true mixture before
    /// means are allowed to migrate — without it, a seeded component with
    /// little nearby mass drifts into the gap between clusters.
    fn run_em(
        data: &[f64],
        mut comps: Vec<Component>,
        cfg: GmmConfig,
        var_floor: f64,
        freeze_means_iters: usize,
    ) -> Result<Self> {
        let n = data.len();
        let k = comps.len();

        // Optional uniform background over the (padded) data range.
        let mut background = cfg.background_weight.map(|w0| {
            let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let range = (hi - lo).max(1e-9) * 1.1;
            (w0.clamp(1e-6, 0.5), -(range.ln()))
        });
        if let Some((bg_w, _)) = background {
            // Make room in the simplex for the background weight.
            for c in comps.iter_mut() {
                c.weight *= 1.0 - bg_w;
            }
        }

        let cols = k + usize::from(background.is_some());
        let mut resp = vec![0.0f64; n * cols];
        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        let mut last_ll = prev_ll;
        let mut trajectory = Vec::with_capacity(cfg.max_iter.min(64));

        for it in 0..cfg.max_iter {
            iterations = it + 1;
            let ll = em_step(
                data,
                &mut comps,
                &mut background,
                &mut resp,
                var_floor,
                it >= freeze_means_iters,
            );
            if !ll.is_finite() {
                return Err(StatsError::Diverged { iteration: it });
            }
            last_ll = ll;
            trajectory.push(ll);

            // Never declare convergence while means are still frozen — the
            // likelihood can plateau in the warmup and leave seeds unmoved.
            if (ll - prev_ll).abs() < cfg.tol && it > 0 && it >= freeze_means_iters {
                converged = true;
                break;
            }
            prev_ll = ll;
        }

        // Canonical order: ascending mean, so cluster index 0 is always the
        // slowest tier.
        comps.sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite"));

        Ok(GaussianMixture {
            components: comps,
            background,
            fit: GmmFit { log_likelihood: last_ll, iterations, converged, trajectory },
            n_samples: n,
        })
    }

    /// Fit a mixture with EM starting from caller-supplied component means
    /// (variances start at the sample variance, weights uniform).
    ///
    /// Domain-informed initialization: when the caller knows where clusters
    /// *should* sit (e.g. ISP plan caps), seeding EM there keeps thin
    /// clusters from being absorbed by heavy neighbours.
    pub fn fit_with_means(data: &[f64], init_means: &[f64], cfg: GmmConfig) -> Result<Self> {
        validate_sample(data)?;
        if init_means.is_empty() {
            return Err(StatsError::InvalidParameter { what: "init means", value: 0.0 });
        }
        if data.len() < init_means.len() {
            return Err(StatsError::TooFewSamples { needed: init_means.len(), got: data.len() });
        }
        for (i, &m) in init_means.iter().enumerate() {
            if !m.is_finite() {
                return Err(StatsError::NonFinite { index: i, value: m });
            }
        }
        let k = init_means.len();
        let total_var = crate::describe::variance(data).max(1e-12);
        let var_floor = (total_var * cfg.var_floor_frac).max(1e-12);
        // Initial spread per component: a quarter of the gap to its nearest
        // seeded neighbour, so components own their own neighbourhood and a
        // thin cluster's seed cannot balloon into an outlier-absorber.
        let mut sorted = init_means.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
        let init_var = |m: f64| -> f64 {
            let gap = sorted
                .iter()
                .filter(|&&o| o != m)
                .map(|&o| (o - m).abs())
                .fold(f64::INFINITY, f64::min);
            if gap.is_finite() {
                ((gap / 4.0) * (gap / 4.0)).max(var_floor)
            } else {
                total_var.max(var_floor) // single component
            }
        };
        let comps: Vec<Component> = init_means
            .iter()
            .map(|&m| Component { weight: 1.0 / k as f64, mean: m, var: init_var(m) })
            .collect();
        Self::run_em(data, comps, GmmConfig { k, ..cfg }, var_floor, 10)
    }

    /// Fit mixtures for each `k` in `k_range` and return the one minimizing
    /// BIC. Used by the ablation comparing KDE-peak counting against
    /// information-criterion model selection.
    pub fn fit_best_bic<R: Rng + ?Sized>(
        data: &[f64],
        k_range: std::ops::RangeInclusive<usize>,
        rng: &mut R,
    ) -> Result<Self> {
        let mut best: Option<(f64, GaussianMixture)> = None;
        for k in k_range {
            if k == 0 || k > data.len() {
                continue;
            }
            let gm = GaussianMixture::fit(data, GmmConfig::with_k(k), rng)?;
            let bic = gm.bic();
            match &best {
                Some((b, _)) if *b <= bic => {}
                _ => best = Some((bic, gm)),
            }
        }
        best.map(|(_, g)| g).ok_or(StatsError::EmptyInput)
    }

    /// The fitted components, sorted by ascending mean.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Component means, ascending.
    pub fn means(&self) -> Vec<f64> {
        self.components.iter().map(|c| c.mean).collect()
    }

    /// Fit diagnostics.
    pub fn fit_info(&self) -> &GmmFit {
        &self.fit
    }

    /// The uniform background component's `(weight, log_density)`, if the
    /// mixture was fit with one.
    pub fn background(&self) -> Option<(f64, f64)> {
        self.background
    }

    /// Log-density of `x` under the mixture (including any background).
    pub fn log_pdf(&self, x: f64) -> f64 {
        let mut max_lp = f64::NEG_INFINITY;
        let mut lps: Vec<f64> = self
            .components
            .iter()
            .map(|c| {
                let lp = c.weight.ln() + c.log_pdf(x);
                max_lp = max_lp.max(lp);
                lp
            })
            .collect();
        if let Some((bw, bld)) = self.background {
            let lp = bw.ln() + bld;
            max_lp = max_lp.max(lp);
            lps.push(lp);
        }
        max_lp + lps.iter().map(|lp| (lp - max_lp).exp()).sum::<f64>().ln()
    }

    /// Density of `x` under the mixture.
    pub fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Posterior responsibilities `P(component c | x)` for one point.
    pub fn responsibilities(&self, x: f64) -> Vec<f64> {
        let lps: Vec<f64> = self.components.iter().map(|c| c.weight.ln() + c.log_pdf(x)).collect();
        let max_lp = lps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = lps.iter().map(|lp| (lp - max_lp).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Hard cluster assignment (argmax responsibility) for one point.
    pub fn predict(&self, x: f64) -> usize {
        let r = self.responsibilities(x);
        r.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("at least one component")
    }

    /// Per-component constants hoisted for batch scoring:
    /// `(ln weight, ln var, mean, var)`.
    fn score_consts(&self) -> Vec<(f64, f64, f64, f64)> {
        self.components.iter().map(|c| (c.weight.ln(), c.var.ln(), c.mean, c.var)).collect()
    }

    /// Hard assignments for a batch.
    ///
    /// One reusable scratch row instead of three `Vec` allocations per
    /// point, with the `ln` terms hoisted out of the point loop. The
    /// arithmetic replicates [`GaussianMixture::predict`] operation for
    /// operation (exp-normalize, then last-max-wins argmax over the
    /// normalized responsibilities), so assignments are bit-identical to
    /// the pointwise path.
    pub fn predict_batch(&self, data: &[f64]) -> Vec<usize> {
        let consts = self.score_consts();
        let mut lps = vec![0.0f64; consts.len()];
        data.iter()
            .map(|&x| {
                let mut max_lp = f64::NEG_INFINITY;
                for (dst, &(lw, lv, mean, var)) in lps.iter_mut().zip(&consts) {
                    let d = x - mean;
                    let lp = lw + -0.5 * (LN_2PI + lv + d * d / var);
                    *dst = lp;
                    max_lp = max_lp.max(lp);
                }
                let mut sum = 0.0;
                for v in lps.iter_mut() {
                    let d = *v - max_lp;
                    // Same exact-case shortcuts as `em_step`'s normalize
                    // pass: exp(±0) == 1.0, exp(d) == +0.0 for d ≤ -746.
                    *v = if d == 0.0 {
                        1.0
                    } else if d < -746.0 {
                        0.0
                    } else {
                        d.exp()
                    };
                    sum += *v;
                }
                let (mut best, mut best_r) = (0usize, f64::NEG_INFINITY);
                for (c, &e) in lps.iter().enumerate() {
                    let r = e / sum;
                    // `>=`: ties resolve to the last maximum, matching
                    // `Iterator::max_by` in `predict`.
                    if r >= best_r {
                        best_r = r;
                        best = c;
                    }
                }
                best
            })
            .collect()
    }

    /// Batched [`GaussianMixture::predict_with_background`]: hard
    /// assignment per point, `None` where the uniform background
    /// out-scores every Gaussian component. Hoists the per-component `ln`
    /// terms; the comparison order (last-max-wins over components, then
    /// the background test) replicates the pointwise path bit-for-bit.
    pub fn predict_with_background_batch(&self, data: &[f64]) -> Vec<Option<usize>> {
        let consts = self.score_consts();
        let bg_lp = self.background.map(|(bw, bld)| bw.ln() + bld);
        data.iter()
            .map(|&x| {
                let (mut best, mut best_lp) = (0usize, f64::NEG_INFINITY);
                for (c, &(lw, lv, mean, var)) in consts.iter().enumerate() {
                    let d = x - mean;
                    let lp = lw + -0.5 * (LN_2PI + lv + d * d / var);
                    if lp >= best_lp {
                        best_lp = lp;
                        best = c;
                    }
                }
                match bg_lp {
                    Some(b) if b > best_lp => None,
                    _ => Some(best),
                }
            })
            .collect()
    }

    /// Hard assignment that may reject a point as background noise:
    /// `None` when the uniform background (if fitted) out-scores every
    /// Gaussian component for `x`.
    pub fn predict_with_background(&self, x: f64) -> Option<usize> {
        let best = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.weight.ln() + c.log_pdf(x)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("at least one component");
        if let Some((bw, bld)) = self.background {
            if bw.ln() + bld > best.1 {
                return None;
            }
        }
        Some(best.0)
    }

    /// Bayesian information criterion (lower is better).
    /// A 1-D k-component mixture has `3k - 1` free parameters (plus one
    /// for a background weight).
    pub fn bic(&self) -> f64 {
        let p = (3 * self.k() - 1 + usize::from(self.background.is_some())) as f64;
        let n = self.n_samples as f64;
        p * n.ln() - 2.0 * self.fit.log_likelihood * n
    }
}

fn normalize_weights(comps: &mut [Component]) {
    let total: f64 = comps.iter().map(|c| c.weight).sum();
    for c in comps {
        c.weight /= total;
    }
}

/// One EM iteration over column-major responsibilities (DESIGN.md §15).
///
/// The E-step fills one contiguous column per component
/// (`resp[c*n..(c+1)*n]`) with log-posteriors — the `ln(weight)` and
/// `ln(var)` terms are hoisted out of the point loop — then a per-point
/// pass normalizes across columns with log-sum-exp in ascending component
/// order (background last), exactly the order the row-major scalar
/// reference uses. The M-step reduces each column sequentially in
/// ascending point order. Every accumulation order matches
/// [`reference_em_step`] bit-for-bit; the proptests enforce it.
///
/// `resp` must hold `data.len() * (comps.len() + background slots)`
/// elements. Returns the mean per-sample log-likelihood of the E-step.
/// With `update_means` false the M-step leaves component means in place
/// (the seeded-init warmup).
#[doc(hidden)]
pub fn em_step(
    data: &[f64],
    comps: &mut [Component],
    background: &mut Option<(f64, f64)>,
    resp: &mut [f64],
    var_floor: f64,
    update_means: bool,
) -> f64 {
    let n = data.len();
    let k = comps.len();
    let cols = k + usize::from(background.is_some());
    assert_eq!(resp.len(), n * cols, "responsibility buffer shape");

    // E-step, columnar fill: one contiguous pass per component.
    for (c, comp) in comps.iter().enumerate() {
        let lw = comp.weight.ln();
        let lv = comp.var.ln();
        let (mean, var) = (comp.mean, comp.var);
        for (dst, &x) in resp[c * n..(c + 1) * n].iter_mut().zip(data) {
            let d = x - mean;
            *dst = lw + -0.5 * (LN_2PI + lv + d * d / var);
        }
    }
    if let Some((bw, bld)) = *background {
        resp[k * n..(k + 1) * n].fill(bw.ln() + bld);
    }

    // E-step, per-point log-sum-exp across columns (component order, then
    // background — the same summation order as the scalar reference).
    //
    // Points are processed in fixed blocks with the component loop inside:
    // each pass then streams contiguous column segments instead of striding
    // the full buffer per point, and the max/divide passes vectorize. The
    // interchange only reorders work across *independent* points — each
    // point's max, sum, and divisions still run in ascending component
    // order, and `ll_sum` still accumulates in ascending point order, so
    // the result is bit-identical to the per-point loop.
    let mut blk_max = [f64::NEG_INFINITY; EM_BLOCK];
    let mut blk_sum = [0.0f64; EM_BLOCK];
    let mut ll_sum = 0.0;
    let mut start = 0;
    while start < n {
        let len = EM_BLOCK.min(n - start);
        let bm = &mut blk_max[..len];
        bm.fill(f64::NEG_INFINITY);
        for c in 0..cols {
            let col = &resp[c * n + start..c * n + start + len];
            for (m, &v) in bm.iter_mut().zip(col) {
                *m = m.max(v);
            }
        }
        let bs = &mut blk_sum[..len];
        bs.fill(0.0);
        for c in 0..cols {
            let col = &mut resp[c * n + start..c * n + start + len];
            for ((v, s), &m) in col.iter_mut().zip(bs.iter_mut()).zip(bm.iter()) {
                let d = *v - m;
                // Branch-free of the libm call on the two exact cases:
                // exp(±0) == 1.0 (the argmax column) and exp(d) == +0.0
                // for d ≤ -746 (well below ln(2^-1075) ≈ -745.14, where
                // exp rounds to zero) — well-separated components land
                // here for most points, and neither shortcut changes a
                // single bit.
                let e = if d == 0.0 {
                    1.0
                } else if d < -746.0 {
                    0.0
                } else {
                    d.exp()
                };
                *v = e;
                *s += e;
            }
        }
        for c in 0..cols {
            let col = &mut resp[c * n + start..c * n + start + len];
            for (v, &s) in col.iter_mut().zip(bs.iter()) {
                *v /= s;
            }
        }
        for (&m, &s) in bm.iter().zip(bs.iter()) {
            ll_sum += m + s.ln();
        }
        start += len;
    }
    let ll = ll_sum / n as f64;

    // M-step: contiguous per-component column reductions. With frozen
    // means the first-moment accumulator would be discarded, so the two
    // passes fuse into one; each accumulator still sums in ascending
    // point order, so the fusion is bit-neutral.
    for (c, comp) in comps.iter_mut().enumerate() {
        let col = &resp[c * n..(c + 1) * n];
        let (nk, mean, var_acc) = if update_means {
            let mut nk = 0.0;
            let mut mean_acc = 0.0;
            for (&r, &x) in col.iter().zip(data) {
                nk += r;
                mean_acc += r * x;
            }
            let mean = mean_acc / nk.max(1e-12);
            let mut var_acc = 0.0;
            for (&r, &x) in col.iter().zip(data) {
                let d = x - mean;
                var_acc += r * d * d;
            }
            (nk, mean, var_acc)
        } else {
            let mean = comp.mean;
            let mut nk = 0.0;
            let mut var_acc = 0.0;
            for (&r, &x) in col.iter().zip(data) {
                nk += r;
                let d = x - mean;
                var_acc += r * d * d;
            }
            (nk, mean, var_acc)
        };
        let nk_safe = nk.max(1e-12);
        *comp = Component { weight: nk / n as f64, mean, var: (var_acc / nk_safe).max(var_floor) };
    }
    if let Some((bw, _)) = background.as_mut() {
        let nk: f64 = resp[k * n..(k + 1) * n].iter().sum();
        *bw = (nk / n as f64).clamp(1e-9, 0.9);
    } else {
        normalize_weights(comps);
    }
    ll
}

/// Scalar row-major reference for one EM iteration — the pre-columnar
/// implementation, retained verbatim as the executable contract for
/// [`em_step`]. Allocates a responsibility row per point and recomputes
/// `ln` terms inline; slow, but the proptests assert the production
/// kernel matches it bit-for-bit.
#[doc(hidden)]
pub fn reference_em_step(
    data: &[f64],
    comps: &mut [Component],
    background: &mut Option<(f64, f64)>,
    var_floor: f64,
    update_means: bool,
) -> f64 {
    let n = data.len();
    let k = comps.len();
    let cols = k + usize::from(background.is_some());
    let mut resp = vec![0.0f64; n * cols];

    let mut ll_sum = 0.0;
    for (i, &x) in data.iter().enumerate() {
        let row = &mut resp[i * cols..(i + 1) * cols];
        let mut max_lp = f64::NEG_INFINITY;
        for (c, comp) in comps.iter().enumerate() {
            let lp = comp.weight.ln() + comp.log_pdf(x);
            row[c] = lp;
            max_lp = max_lp.max(lp);
        }
        if let Some((bw, bld)) = *background {
            let lp = bw.ln() + bld;
            row[k] = lp;
            max_lp = max_lp.max(lp);
        }
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max_lp).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
        ll_sum += max_lp + sum.ln();
    }
    let ll = ll_sum / n as f64;

    for c in 0..k {
        let mut nk = 0.0;
        let mut mean_acc = 0.0;
        for (i, &x) in data.iter().enumerate() {
            let r = resp[i * cols + c];
            nk += r;
            mean_acc += r * x;
        }
        let nk_safe = nk.max(1e-12);
        let mean = if update_means { mean_acc / nk_safe } else { comps[c].mean };
        let mut var_acc = 0.0;
        for (i, &x) in data.iter().enumerate() {
            let d = x - mean;
            var_acc += resp[i * cols + c] * d * d;
        }
        comps[c] =
            Component { weight: nk / n as f64, mean, var: (var_acc / nk_safe).max(var_floor) };
    }
    if let Some((bw, _)) = background.as_mut() {
        let nk: f64 = (0..n).map(|i| resp[i * cols + k]).sum();
        *bw = (nk / n as f64).clamp(1e-9, 0.9);
    } else {
        normalize_weights(comps);
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn gaussians(spec: &[(f64, f64, usize)], seed: u64) -> Vec<f64> {
        let mut r = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &(mu, sd, n) in spec {
            for _ in 0..n {
                // Box–Muller from uniform draws.
                let u1: f64 = r.gen::<f64>().max(1e-12);
                let u2: f64 = r.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                out.push(mu + sd * z);
            }
        }
        out
    }

    #[test]
    fn recovers_two_well_separated_components() {
        let data = gaussians(&[(5.0, 0.5, 500), (35.0, 1.0, 500)], 1);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        let m = gm.means();
        assert!((m[0] - 5.0).abs() < 0.2, "means: {m:?}");
        assert!((m[1] - 35.0).abs() < 0.5, "means: {m:?}");
        let w: Vec<f64> = gm.components().iter().map(|c| c.weight).collect();
        assert!((w[0] - 0.5).abs() < 0.05 && (w[1] - 0.5).abs() < 0.05, "weights: {w:?}");
    }

    #[test]
    fn recovers_four_upload_tiers() {
        // The ISP-A upload plan structure: 5 / 10 / 15 / 35 Mbps.
        let data =
            gaussians(&[(5.3, 0.6, 900), (11.3, 0.7, 300), (17.0, 0.8, 280), (40.0, 1.5, 500)], 2);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(4), &mut rng()).unwrap();
        let m = gm.means();
        for (expect, got) in [5.3, 11.3, 17.0, 40.0].iter().zip(&m) {
            assert!((expect - got).abs() < 1.0, "expected {expect}, got {got} in {m:?}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let data = gaussians(&[(0.0, 1.0, 200), (10.0, 1.0, 200)], 3);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        let total: f64 = gm.components().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let data = gaussians(&[(0.0, 1.0, 150), (8.0, 1.0, 150)], 4);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        for x in [-2.0, 0.0, 4.0, 8.0, 12.0] {
            let r = gm.responsibilities(x);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn predict_assigns_to_nearer_component() {
        let data = gaussians(&[(0.0, 1.0, 300), (20.0, 1.0, 300)], 5);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        assert_eq!(gm.predict(-1.0), 0);
        assert_eq!(gm.predict(21.0), 1);
    }

    #[test]
    fn variance_aware_assignment_beats_distance() {
        // A wide cluster at 0 (sd 5) and a narrow one at 12 (sd 0.5):
        // the point x = 8 is nearer to 12 in distance but far in the narrow
        // cluster's sigma units — GMM should assign it to the wide cluster.
        // (This is the paper's argument for GMM over k-means.)
        let data = gaussians(&[(0.0, 5.0, 2000), (12.0, 0.5, 2000)], 6);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        assert_eq!(gm.predict(8.0), 0, "components: {:?}", gm.components());
    }

    #[test]
    fn log_likelihood_is_monotone_across_em() {
        // Run EM step by step via increasing max_iter and check the final
        // log-likelihood never decreases (within tolerance).
        let data = gaussians(&[(3.0, 1.0, 300), (9.0, 1.5, 300)], 8);
        let mut prev = f64::NEG_INFINITY;
        for iters in [1usize, 2, 4, 8, 16, 32] {
            let mut r = rng(); // same seed → same init → same EM trajectory
            let cfg = GmmConfig { k: 2, max_iter: iters, tol: 0.0, ..Default::default() };
            let gm = GaussianMixture::fit(&data, cfg, &mut r).unwrap();
            let ll = gm.fit_info().log_likelihood;
            assert!(ll >= prev - 1e-9, "ll {ll} < prev {prev} at iters {iters}");
            prev = ll;
        }
    }

    #[test]
    fn trajectory_records_one_ll_per_iteration() {
        let data = gaussians(&[(3.0, 1.0, 300), (9.0, 1.5, 300)], 8);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        let fit = gm.fit_info();
        assert_eq!(fit.trajectory.len(), fit.iterations);
        assert_eq!(*fit.trajectory.last().unwrap(), fit.log_likelihood);
        // The trajectory is monotone non-decreasing (EM guarantee).
        for w in fit.trajectory.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "trajectory decreased: {w:?}");
        }
    }

    #[test]
    fn bic_selects_true_component_count() {
        let data = gaussians(&[(0.0, 0.7, 400), (10.0, 0.7, 400), (25.0, 0.7, 400)], 9);
        let gm = GaussianMixture::fit_best_bic(&data, 1..=6, &mut rng()).unwrap();
        assert_eq!(gm.k(), 3, "chose k = {}", gm.k());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let data = gaussians(&[(2.0, 0.8, 300), (7.0, 1.2, 300)], 10);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(2), &mut rng()).unwrap();
        let (lo, hi, n) = (-10.0, 20.0, 6000);
        let dx = (hi - lo) / n as f64;
        let integral: f64 = (0..n).map(|i| gm.pdf(lo + (i as f64 + 0.5) * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn fit_with_means_recovers_thin_clusters() {
        // A thin cluster (3% of mass) between two heavy ones: random init
        // tends to lose it, cap-seeded init must not.
        let data =
            gaussians(&[(5.3, 0.5, 900), (10.7, 0.6, 300), (15.7, 0.7, 40), (37.0, 1.5, 400)], 21);
        let gm =
            GaussianMixture::fit_with_means(&data, &[5.0, 10.0, 15.0, 35.0], GmmConfig::default())
                .unwrap();
        let m = gm.means();
        assert!((m[2] - 15.7).abs() < 1.2, "thin cluster mean {m:?}");
        // Points near 15.7 classify to component 2, not 1.
        assert_eq!(gm.predict(15.7), 2);
    }

    #[test]
    fn fit_with_means_is_deterministic() {
        let data = gaussians(&[(3.0, 1.0, 200), (9.0, 1.0, 200)], 22);
        let a = GaussianMixture::fit_with_means(&data, &[3.0, 9.0], GmmConfig::default()).unwrap();
        let b = GaussianMixture::fit_with_means(&data, &[3.0, 9.0], GmmConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_with_means_rejects_bad_input() {
        assert!(GaussianMixture::fit_with_means(&[1.0, 2.0], &[], GmmConfig::default()).is_err());
        assert!(GaussianMixture::fit_with_means(&[1.0], &[1.0, 2.0], GmmConfig::default()).is_err());
        assert!(GaussianMixture::fit_with_means(&[1.0, 2.0], &[f64::NAN], GmmConfig::default())
            .is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(GaussianMixture::fit(&[], GmmConfig::with_k(1), &mut rng()).is_err());
        assert!(GaussianMixture::fit(&[1.0], GmmConfig::with_k(0), &mut rng()).is_err());
        assert!(GaussianMixture::fit(&[1.0], GmmConfig::with_k(2), &mut rng()).is_err());
    }

    #[test]
    fn constant_data_does_not_panic() {
        let gm = GaussianMixture::fit(&[4.0; 100], GmmConfig::with_k(2), &mut rng()).unwrap();
        assert!(gm.predict(4.0) < 2);
        assert!(gm.components().iter().all(|c| c.var > 0.0));
    }

    #[test]
    fn single_component_matches_sample_moments() {
        let data = gaussians(&[(6.0, 2.0, 2000)], 11);
        let gm = GaussianMixture::fit(&data, GmmConfig::with_k(1), &mut rng()).unwrap();
        let c = gm.components()[0];
        assert!((c.mean - 6.0).abs() < 0.15, "mean {}", c.mean);
        assert!((c.var - 4.0).abs() < 0.5, "var {}", c.var);
        assert!((c.weight - 1.0).abs() < 1e-12);
    }
}
