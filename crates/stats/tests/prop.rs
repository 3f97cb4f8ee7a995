//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use st_stats::{
    consistency_factor, mean, quantile, Bandwidth, Ecdf, GaussianMixture, GmmConfig, KernelDensity,
    Summary,
};

/// Strategy: a non-empty vector of plausible speed values.
fn speeds() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..2000.0, 1..200)
}

/// Strategy: larger samples for estimators that need mass.
fn big_speeds() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..2000.0, 30..300)
}

proptest! {
    #[test]
    fn quantile_is_bounded_by_extremes(data in speeds(), q in 0.0f64..=1.0) {
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&data, q).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn quantile_is_monotone_in_q(data in speeds(), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = quantile(&data, qa).unwrap();
        let vb = quantile(&data, qb).unwrap();
        prop_assert!(va <= vb + 1e-9);
    }

    #[test]
    fn mean_is_between_extremes(data in speeds()) {
        let m = mean(&data);
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn summary_orders_its_quantiles(data in speeds()) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert_eq!(s.count, data.len());
    }

    #[test]
    fn consistency_factor_is_positive(data in speeds()) {
        // p95 of positive data is positive, so the factor exists and is > 0.
        let f = consistency_factor(&data).unwrap();
        prop_assert!(f > 0.0);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(data in speeds(), xs in prop::collection::vec(-10.0f64..2100.0, 2..20)) {
        let e = Ecdf::new(&data).unwrap();
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn ecdf_plot_points_end_at_one(data in speeds()) {
        let e = Ecdf::new(&data).unwrap();
        let pts = e.plot_points(50);
        prop_assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn kde_density_is_nonnegative_and_normalized(data in big_speeds()) {
        let kde = KernelDensity::fit(&data, Bandwidth::Silverman).unwrap();
        let grid = kde.auto_grid(800).unwrap();
        let dx = grid[1].0 - grid[0].0;
        let mut integral = 0.0;
        for &(_, y) in &grid {
            prop_assert!(y >= 0.0);
            integral += y * dx;
        }
        // Grid covers ±3 bandwidths past the data, so ≥ 99% of the mass.
        prop_assert!((0.9..=1.1).contains(&integral), "integral {integral}");
    }

    #[test]
    fn gmm_responsibilities_form_a_distribution(
        data in prop::collection::vec(0.01f64..100.0, 10..120),
        k in 1usize..4,
        x in 0.0f64..100.0,
    ) {
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        if let Ok(gm) = GaussianMixture::fit(&data, GmmConfig::with_k(k), &mut rng) {
            let r = gm.responsibilities(x);
            prop_assert_eq!(r.len(), gm.k());
            let total: f64 = r.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
            for p in r {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            }
            let pred = gm.predict(x);
            prop_assert!(pred < gm.k());
        }
    }

    #[test]
    fn gmm_weights_sum_to_one(
        data in prop::collection::vec(0.01f64..100.0, 12..120),
        k in 1usize..4,
    ) {
        let mut rng = rand::rngs::mock::StepRng::new(7, 11);
        if let Ok(gm) = GaussianMixture::fit(&data, GmmConfig::with_k(k), &mut rng) {
            let total: f64 = gm.components().iter().map(|c| c.weight).sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "weights sum {total}");
            for c in gm.components() {
                prop_assert!(c.var > 0.0);
                prop_assert!(c.mean.is_finite());
            }
            // Means sorted ascending.
            for w in gm.components().windows(2) {
                prop_assert!(w[0].mean <= w[1].mean);
            }
        }
    }

    #[test]
    fn gmm_seeded_fit_is_deterministic(
        data in prop::collection::vec(0.01f64..100.0, 12..80),
        seeds in prop::collection::vec(1.0f64..90.0, 1..4),
    ) {
        let a = GaussianMixture::fit_with_means(&data, &seeds, GmmConfig::default());
        let b = GaussianMixture::fit_with_means(&data, &seeds, GmmConfig::default());
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "one fit succeeded, the other failed"),
        }
    }
}

proptest! {
    #[test]
    fn gini_is_bounded_and_scale_invariant(
        data in prop::collection::vec(0.0f64..1000.0, 2..100),
        scale in 0.1f64..100.0,
    ) {
        use st_stats::gini;
        if let Ok(g) = gini(&data) {
            prop_assert!((0.0..=1.0).contains(&g));
            let scaled: Vec<f64> = data.iter().map(|v| v * scale).collect();
            let gs = gini(&scaled).unwrap();
            prop_assert!((g - gs).abs() < 1e-9, "gini not scale-invariant: {g} vs {gs}");
        }
    }

    #[test]
    fn ks_statistic_is_symmetric_and_bounded(
        a in prop::collection::vec(0.0f64..100.0, 1..80),
        b in prop::collection::vec(0.0f64..100.0, 1..80),
    ) {
        use st_stats::ks_test;
        let ab = ks_test(&a, &b).unwrap();
        let ba = ks_test(&b, &a).unwrap();
        prop_assert!((0.0..=1.0).contains(&ab.statistic));
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
        prop_assert!((ab.statistic - ba.statistic).abs() < 1e-12, "not symmetric");
    }

    #[test]
    fn ks_of_identical_samples_is_zero(a in prop::collection::vec(0.0f64..100.0, 1..80)) {
        use st_stats::ks_test;
        let t = ks_test(&a, &a).unwrap();
        prop_assert!(t.statistic < 1e-12);
    }

    /// A flat-topped maximum must yield exactly one peak, anchored at the
    /// plateau's left edge (the left-strict / right-inclusive rule).
    #[test]
    fn equal_max_plateau_yields_one_left_anchored_peak(
        plateau_len in 2usize..6,
        base in 0.05f64..0.3,
    ) {
        use st_stats::kde::find_peaks_on_grid;
        let mut grid: Vec<(f64, f64)> = vec![(0.0, base), (1.0, base * 1.5)];
        for i in 0..plateau_len {
            grid.push((2.0 + i as f64, 1.0));
        }
        grid.push((2.0 + plateau_len as f64, base * 1.5));
        grid.push((3.0 + plateau_len as f64, base));
        let peaks = find_peaks_on_grid(&grid, 0.1);
        prop_assert_eq!(peaks.len(), 1, "one peak for one plateau: {:?}", &peaks);
        prop_assert_eq!(peaks[0].x, 2.0, "anchored at the plateau's left edge");
    }

    #[test]
    fn bootstrap_median_ci_contains_its_estimate(
        data in prop::collection::vec(0.0f64..500.0, 5..80),
        seed in 0u64..100,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use st_stats::median_ci;
        let mut rng = StdRng::seed_from_u64(seed);
        let ci = median_ci(&data, 100, 0.95, &mut rng).unwrap();
        prop_assert!(ci.lo <= ci.hi);
        prop_assert!(ci.contains(ci.estimate), "{ci:?}");
    }

    /// Selection is an optimization, not a numeric change: it must give
    /// sort-then-`quantile_sorted`'s float bit for bit, with heavy ties
    /// (values drawn from a handful of levels, signed zeros among them)
    /// and at n = 1 and 2.
    #[test]
    fn quantile_select_matches_sort_then_quantile_sorted_bitwise(
        levels in prop::collection::vec(0u8..6, 1..60),
        spread in prop::collection::vec(0.01f64..2000.0, 1..60),
        q in 0.0f64..=1.0,
    ) {
        use st_stats::describe::quantile_sorted;
        use st_stats::quantile_select;
        // Ties: six levels, -0.0 and 0.0 among them.
        let tied: Vec<f64> =
            levels.iter().map(|&l| [-0.0, 0.0, 1.5, 1.5, 7.25, 300.0][l as usize]).collect();
        for data in [tied, spread] {
            for n in [1, 2, data.len()] {
                let sample = &data[..n.min(data.len())];
                for q in [q, 0.0, 0.5, 1.0] {
                    let mut sorted = sample.to_vec();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let want = quantile_sorted(&sorted, q);
                    let got = quantile_select(&mut sample.to_vec(), q);
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "n={} q={}: {} vs {}", sample.len(), q, got, want);
                }
            }
        }
    }

    /// The blocked KDE kernel is an optimization, not a numeric change:
    /// every probe point must match the scalar reference bit-for-bit,
    /// including probes far outside the sample (empty window) and sample
    /// sizes straddling the block size.
    #[test]
    fn blocked_pdf_matches_scalar_reference_bitwise(
        data in prop::collection::vec(0.01f64..2000.0, 1..200),
        probes in prop::collection::vec(-500.0f64..2500.0, 1..20),
    ) {
        let kde = KernelDensity::fit(&data, Bandwidth::Silverman).unwrap();
        let (sorted, h) = (kde.data(), kde.bandwidth());
        for &x in &probes {
            let fast = kde.pdf(x);
            let slow = st_stats::kde::reference_pdf(sorted, h, x);
            prop_assert_eq!(fast.to_bits(), slow.to_bits(),
                "pdf({}) = {} vs reference {}", x, fast, slow);
        }
    }

    /// The two-pointer window advance in `grid` must agree with the
    /// binary-search window in `pdf` — and both with the reference — at
    /// every grid point, for any grid resolution.
    #[test]
    fn grid_matches_scalar_reference_bitwise(
        data in prop::collection::vec(0.01f64..2000.0, 2..160),
        points in 2usize..300,
    ) {
        let kde = KernelDensity::fit(&data, Bandwidth::Silverman).unwrap();
        let grid = kde.auto_grid(points).unwrap();
        prop_assert_eq!(grid.len(), points);
        for &(x, y) in &grid {
            let slow = st_stats::kde::reference_pdf(kde.data(), kde.bandwidth(), x);
            prop_assert_eq!(y.to_bits(), slow.to_bits(), "grid({x})");
        }
    }

    /// Exercise sample sizes right at the block boundary (the chunked
    /// accumulator's seam): KERNEL_BLOCK-1, KERNEL_BLOCK, KERNEL_BLOCK+1,
    /// and 2×KERNEL_BLOCK must all fold partials in the same order as the
    /// reference's explicit bookkeeping.
    #[test]
    fn block_boundary_sizes_match_reference(
        seed in 0.01f64..100.0,
        delta in 0usize..4,
        x in 0.0f64..120.0,
    ) {
        use st_stats::kde::KERNEL_BLOCK;
        let n = [KERNEL_BLOCK - 1, KERNEL_BLOCK, KERNEL_BLOCK + 1, 2 * KERNEL_BLOCK][delta];
        let data: Vec<f64> = (0..n).map(|i| seed + i as f64 * 0.37).collect();
        let kde = KernelDensity::fit(&data, Bandwidth::Silverman).unwrap();
        let fast = kde.pdf(x);
        let slow = st_stats::kde::reference_pdf(kde.data(), kde.bandwidth(), x);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// One columnar EM step must be bit-identical to the retained scalar
    /// row-major step: same log-likelihood, same component parameters,
    /// same background weight, with and without a background column and
    /// with frozen or free means.
    #[test]
    fn columnar_em_step_matches_scalar_reference_bitwise(
        data in prop::collection::vec(0.01f64..100.0, 4..150),
        means in prop::collection::vec(1.0f64..90.0, 1..4),
        vars in prop::collection::vec(0.5f64..25.0, 1..4),
        with_background in any::<bool>(),
        update_means in any::<bool>(),
    ) {
        use st_stats::gmm::{em_step, reference_em_step, Component};
        let k = means.len().min(vars.len());
        let comps: Vec<Component> = (0..k)
            .map(|c| Component { weight: 1.0 / k as f64, mean: means[c], var: vars[c] })
            .collect();
        let background = with_background.then(|| (0.03, (1.0 / 100.0f64).ln()));
        let var_floor = 1e-6;

        let mut fast_comps = comps.clone();
        let mut fast_bg = background;
        let cols = k + usize::from(with_background);
        let mut resp = vec![0.0f64; data.len() * cols];
        let fast_ll =
            em_step(&data, &mut fast_comps, &mut fast_bg, &mut resp, var_floor, update_means);

        let mut slow_comps = comps;
        let mut slow_bg = background;
        let slow_ll =
            reference_em_step(&data, &mut slow_comps, &mut slow_bg, var_floor, update_means);

        prop_assert_eq!(fast_ll.to_bits(), slow_ll.to_bits(), "log-likelihood");
        for (f, s) in fast_comps.iter().zip(&slow_comps) {
            prop_assert_eq!(f.weight.to_bits(), s.weight.to_bits(), "weight");
            prop_assert_eq!(f.mean.to_bits(), s.mean.to_bits(), "mean");
            prop_assert_eq!(f.var.to_bits(), s.var.to_bits(), "var");
        }
        match (fast_bg, slow_bg) {
            (None, None) => {}
            (Some((fw, fl)), Some((sw, sl))) => {
                prop_assert_eq!(fw.to_bits(), sw.to_bits(), "background weight");
                prop_assert_eq!(fl.to_bits(), sl.to_bits(), "background log-density");
            }
            other => prop_assert!(false, "background presence diverged: {:?}", other),
        }
    }

    /// Iterating the columnar step keeps matching the reference: bit drift
    /// cannot accumulate across EM iterations.
    #[test]
    fn repeated_em_steps_stay_bit_identical(
        data in prop::collection::vec(0.01f64..100.0, 8..80),
        iters in 1usize..6,
    ) {
        use st_stats::gmm::{em_step, reference_em_step, Component};
        let comps = vec![
            Component { weight: 0.5, mean: 25.0, var: 9.0 },
            Component { weight: 0.5, mean: 75.0, var: 9.0 },
        ];
        let mut fast_comps = comps.clone();
        let mut slow_comps = comps;
        let (mut fast_bg, mut slow_bg) = (None, None);
        let mut resp = vec![0.0f64; data.len() * 2];
        for it in 0..iters {
            let f = em_step(&data, &mut fast_comps, &mut fast_bg, &mut resp, 1e-6, true);
            let s = reference_em_step(&data, &mut slow_comps, &mut slow_bg, 1e-6, true);
            prop_assert_eq!(f.to_bits(), s.to_bits(), "iteration {}", it);
        }
        prop_assert_eq!(fast_comps, slow_comps);
    }

    #[test]
    fn gmm2d_responsibilities_are_a_simplex(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..40.0), 4..60),
        probe in (0.0f64..100.0, 0.0f64..40.0),
    ) {
        use st_stats::GaussianMixture2d;
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        if let Ok(gm) =
            GaussianMixture2d::fit_with_means(&xs, &ys, &[(25.0, 10.0), (75.0, 30.0)], 60, 1e-6)
        {
            let r = gm.responsibilities(probe.0, probe.1);
            prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            for c in gm.components() {
                prop_assert!(c.cov.is_positive_definite(), "{:?}", c.cov);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&c.weight));
            }
            prop_assert!(gm.predict(probe.0, probe.1) < gm.k());
        }
    }
}

#[test]
fn plateau_touching_grid_edge_is_not_a_peak() {
    use st_stats::kde::find_peaks_on_grid;
    // Maximum plateau begins at index 0: interior points on the plateau
    // fail the left-strict test, so no peak is reported. The guard keeps
    // a clipped density ramp from minting a phantom cluster.
    let leading = vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.4), (4.0, 0.2)];
    assert!(find_peaks_on_grid(&leading, 0.05).is_empty());
    // Same at the right edge: the plateau's left entry point is a peak
    // (left-strict holds, right-inclusive holds), but only one.
    let trailing = vec![(0.0, 0.2), (1.0, 0.4), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)];
    let peaks = find_peaks_on_grid(&trailing, 0.05);
    assert_eq!(peaks.len(), 1);
    assert_eq!(peaks[0].x, 2.0);
}

#[test]
fn two_point_plateau_mid_grid_reports_single_peak() {
    use st_stats::kde::find_peaks_on_grid;
    let grid = vec![(0.0, 0.1), (1.0, 0.5), (2.0, 1.0), (3.0, 1.0), (4.0, 0.5), (5.0, 0.1)];
    let peaks = find_peaks_on_grid(&grid, 0.05);
    assert_eq!(peaks.len(), 1, "{peaks:?}");
    assert_eq!(peaks[0].x, 2.0);
    assert_eq!(peaks[0].density, 1.0);
}
