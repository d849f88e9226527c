import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.special import erfc as scipy_erfc
from scipy.special import erfcx as scipy_erfcx

from oracles import auto_model, bin_mean, cross_model

from biphoton import fitting
from biphoton.errors import ValidationError
from biphoton.fitting import (DEFAULT_FIXED, FTOL, LOWER_BOUNDS, PARAM_NAMES, ModelKind,
                              erfcx, exp_gauss, fit, initial_guess,
                              model_eval, model_eval_binned, model_jacobian)


def perturbed_start(kind, truth, factor=1.3):
    names = PARAM_NAMES[kind]
    fixed = DEFAULT_FIXED[kind]
    return np.array([v if n in fixed else v * factor
                     for n, v in zip(names, truth)])


def scipy_fit(x, y, sigma_y, kind, initial_params, bin_width=0.0, n_starts=8):
    """(chi2, params) of the same fit through SciPy's bounded trust-region
    solver: the same residuals, Jacobian, bounds, evaluation budget and
    starts, and the best chi-square of the starts."""
    names = PARAM_NAMES[kind]
    free_idx = [names.index(n) for n in names if n not in DEFAULT_FIXED[kind]]
    p0 = np.asarray(initial_params, dtype=float)

    def with_free(p):
        full = p0.copy()
        full[free_idx] = p
        return full

    rng = np.random.default_rng(0)
    best = None
    for start in range(n_starts):
        p_start = p0[free_idx]
        if start > 0:
            p_start = p_start * np.exp(rng.normal(0.0, 0.2, size=len(p_start)))
        res = least_squares(
            lambda p: (model_eval_binned(kind, with_free(p), x, bin_width) - y) / sigma_y,
            p_start, jac=lambda p: (model_jacobian(kind, with_free(p), x, bin_width)[:, free_idx]
                                    / sigma_y[:, None]),
            bounds=(np.asarray(LOWER_BOUNDS[kind])[free_idx], np.inf), max_nfev=500)
        if best is None or 2 * res.cost < best[0]:
            best = (2 * res.cost, with_free(res.x))
    return best


def poisson_cross(seed, params, g_acc=50.0):
    """A cross histogram of 1.4 ns bins as ``biphoton fit`` sees it."""
    kind = ModelKind.CROSS_CONVOLVED
    x = np.arange(-20.3, 100.0, 1.4)
    counts = np.random.default_rng(seed).poisson(
        g_acc * model_eval_binned(kind, params, x, 1.4))
    return x, counts / g_acc, np.sqrt(counts + 1.0) / g_acc


class TestErfcx:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_scipy_over_the_double_range(self):
        z = np.concatenate([np.linspace(0.0, 30.0, 100_001),
                            np.logspace(-300, 300, 6001), [0.0, 1e300]])
        assert np.max(np.abs(erfcx(z) / scipy_erfcx(z) - 1.0)) < 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_gauss_matches_scipy_erfc_on_both_signs(self):
        # exp_gauss takes erfc(z) = 2 - exp(-z^2) erfcx(-z) for z < 0.
        t = np.linspace(-10.0, 40.0, 5001)
        for tau, sigma in ((4.4, 0.61), (0.5, 2.0), (18.9, 0.05)):
            z = (sigma * sigma - t * tau) / (np.sqrt(2.0) * sigma * tau)
            assert np.any(z < 0) and np.any(z > 0)
            pos, neg = z >= 0, z < 0
            reference = np.empty_like(t)
            reference[pos] = (0.5 * np.exp(-t[pos] ** 2 / (2 * sigma * sigma))
                              * scipy_erfcx(z[pos]))
            reference[neg] = (0.5 * np.exp(sigma * sigma / (2 * tau * tau) - t[neg] / tau)
                              * scipy_erfc(z[neg]))
            tiny = reference < 1e-300
            rel = np.abs(exp_gauss(t, tau, sigma)[~tiny] / reference[~tiny] - 1.0)
            assert rel.max() < 1e-13
            assert np.all(exp_gauss(t, tau, sigma)[tiny] < 1e-290)


class TestModels:
    def test_cross_zero_jitter_limit(self):
        params = np.array([10.0, 4.4, 0.0, 1.5])
        val = model_eval(ModelKind.CROSS_CONVOLVED, params, np.array([4.4]))
        assert val[0] == pytest.approx(1.5 + 10.0 / np.e, rel=1e-12)

    def test_cross_zero_jitter_negative_delay_is_baseline(self):
        params = np.array([10.0, 4.4, 0.0, 1.5])
        val = model_eval(ModelKind.CROSS_CONVOLVED, params, np.array([-1.0]))
        assert val[0] == 1.5

    def test_absorption_on_resonance(self):
        params = np.array([20.0, 6.065, 0.0])
        val = model_eval(ModelKind.ABSORPTION_OD, params, np.array([0.0]))
        assert val[0] == pytest.approx(np.exp(-20.0), rel=1e-12)
        assert val[0] == pytest.approx(2.06e-9, rel=1e-2)

    def test_auto_zero_jitter_symmetric_exponential(self):
        params = np.array([0.8, 18.9, 0.0, 1.0])
        x = np.array([-18.9 / 2, 0.0, 18.9 / 2])
        val = model_eval(ModelKind.AUTO_CONVOLVED, params, x)
        assert val[1] == pytest.approx(1.8, rel=1e-12)
        assert val[0] == pytest.approx(1.0 + 0.8 / np.e, rel=1e-12)
        assert val[0] == pytest.approx(val[2], rel=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            model_eval(ModelKind.CROSS_CONVOLVED, [1.0, -1.0, 0.1, 0.0], [0.0])
        with pytest.raises(ValidationError):
            model_eval(ModelKind.ABSORPTION_OD, [-1.0, 6.0, 0.0], [0.0])


class TestConvolutionOracle:
    def test_cross_matches_quadrature_on_reference_grid(self):
        x = np.linspace(-5.0, 30.0, 141)
        params = (100.0, 4.4, 0.61, 1.0)
        analytic = model_eval(ModelKind.CROSS_CONVOLVED, np.array(params), x)
        reference = np.array([cross_model(t, *params) for t in x])
        rel = np.abs(analytic - reference) / np.abs(reference)
        assert rel.max() < 1e-6

    def test_cross_and_auto_match_quadrature_random_draws(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            tau_c = rng.uniform(0.5, 30.0)
            tau_d = rng.uniform(0.01, 2.0) * tau_c
            x = np.linspace(-3 * tau_c, 6 * tau_c, 31)
            cross_p = (rng.uniform(1, 100), tau_c, tau_d, rng.uniform(0, 2))
            a = model_eval(ModelKind.CROSS_CONVOLVED, np.array(cross_p), x)
            b = np.array([cross_model(t, *cross_p) for t in x])
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-6
            auto_p = (rng.uniform(0.1, 1.0), tau_c, tau_d, 1.0)
            a = model_eval(ModelKind.AUTO_CONVOLVED, np.array(auto_p), x)
            b = np.array([auto_model(t, *auto_p) for t in x])
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-6

    def test_exp_gauss_extreme_arguments_stay_finite(self):
        vals = exp_gauss(np.array([-1e3, -10.0, 0.0, 10.0, 1e3]), 1.0, 0.1)
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0 or vals[0] < 1e-300

    def test_binned_average_converges_to_point_value(self):
        params = np.array([10.0, 4.4, 0.61, 1.0])
        centers = np.linspace(-3, 10, 40)
        coarse = model_eval_binned(ModelKind.CROSS_CONVOLVED, params, centers, 1.4)
        fine = model_eval(ModelKind.CROSS_CONVOLVED, params, centers)
        tiny = model_eval_binned(ModelKind.CROSS_CONVOLVED, params, centers, 1e-6)
        assert not np.allclose(coarse, fine, rtol=1e-4)
        assert np.allclose(tiny, fine, rtol=1e-8)

    def test_bin_means_match_high_precision_integral(self):
        # Widths from 1 ps to 5 ns and tau_d from 0 up; per draw a bin that
        # holds 0, one with an edge on 0 and one anywhere on the curve. F is
        # rounded to about eps tau_c, so bins narrower than tau_c / 2000 are
        # held to the rounding bound of model_eval_binned's docstring, with
        # a margin of 2, rather than to 1e-12.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(18)
        for _ in range(25):
            tau_c = rng.uniform(0.5, 30.0)
            tau_d = (0.0, 1e-4, 0.01, rng.uniform(0.0, 2.0) * tau_c)[rng.integers(4)]
            w = 10.0 ** rng.uniform(-3.0, np.log10(5.0))
            centers = np.array([rng.uniform(-w / 2, w / 2), w / 2,
                                rng.uniform(-3 * tau_c, 6 * tau_c)])
            for kind in (ModelKind.CROSS_CONVOLVED, ModelKind.AUTO_CONVOLVED):
                got = model_eval_binned(kind, [1.0, tau_c, tau_d, 0.0], centers, w)
                want = [bin_mean(c - w / 2, c + w / 2, tau_c, tau_d,
                                 kind is ModelKind.AUTO_CONVOLVED) for c in centers]
                assert np.max(np.abs(got - want)) <= max(1e-12, 4 * eps * tau_c / w), \
                    (kind, tau_c, tau_d, w)


class TestJacobian:
    """The analytic Jacobians equal central differences of the models."""

    @staticmethod
    def random_params(rng, kind):
        if kind is ModelKind.ABSORPTION_OD:
            return (np.array([rng.uniform(0.1, 30.0), rng.uniform(1.0, 20.0),
                              rng.uniform(-20.0, 20.0)]),
                    np.linspace(-100, 100, 61))
        tau_c = rng.uniform(0.5, 30.0)
        params = np.array([rng.uniform(0.1, 100.0), tau_c,
                           rng.uniform(0.01, 2.0) * tau_c, rng.uniform(0.0, 2.0)])
        return params, np.linspace(-3 * tau_c, 6 * tau_c, 61)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(7)
        for draw in range(21):
            params, x = self.random_params(rng, kind)
            if draw == 20 and kind is not ModelKind.ABSORPTION_OD:
                params[2] = 0.01  # tau_d, far below the bins
            bin_width = rng.choice([0.0, rng.uniform(0.1, 3.0)])
            if kind is ModelKind.ABSORPTION_OD:
                bin_width = 0.0  # the absorption model has no bin means
            jac = model_jacobian(kind, params, x, bin_width)
            assert jac.shape == (len(x), len(params))
            for k in range(len(params)):
                # A step on the scale of tau_c or gamma, params[1]: rounding in
                # a bin mean grows as tau_c / bin_width, and at tau_d = 0.01 ns
                # a step of 1e-6 tau_d would difference rounding alone.
                h = 1e-6 * max(abs(params[k]), params[1])
                up, down = params.copy(), params.copy()
                up[k] += h
                down[k] -= h
                numeric = (model_eval_binned(kind, up, x, bin_width)
                           - model_eval_binned(kind, down, x, bin_width)) / (2 * h)
                scale = np.max(np.abs(numeric)) + 1e-12
                assert np.max(np.abs(jac[:, k] - numeric)) < 1e-6 * scale, (kind, k)

    def test_extreme_arguments_stay_finite(self):
        x = np.array([-1e3, -10.0, 0.0, 10.0, 1e3])
        for kind in (ModelKind.CROSS_CONVOLVED, ModelKind.AUTO_CONVOLVED):
            for tau_d in (0.0, 0.1):
                for bin_width in (0.0, 1.4):
                    jac = model_jacobian(kind, [1.0, 1.0, tau_d, 0.0], x, bin_width)
                    assert np.all(np.isfinite(jac))


class TestFit:
    def test_noiseless_exact_recovery_all_models(self):
        cases = [
            (ModelKind.CROSS_CONVOLVED, np.array([100.0, 4.4, 0.61, 1.0]),
             np.linspace(-10, 40, 201)),
            (ModelKind.AUTO_CONVOLVED, np.array([0.8, 18.9, 0.9, 1.0]),
             np.linspace(-60, 60, 201)),
            (ModelKind.ABSORPTION_OD, np.array([20.0, 6.065, 3.0]),
             np.linspace(-120, 120, 201)),
        ]
        for kind, truth, x in cases:
            y = model_eval(kind, truth, x)
            sigma = np.full_like(x, 1e-3)
            result = fit(x, y, sigma, kind, perturbed_start(kind, truth))
            assert result.converged
            rel = np.abs(result.params - truth) / np.maximum(np.abs(truth), 1e-12)
            assert rel.max() < 1e-6

    def test_fixed_parameters_do_not_move(self):
        x = np.linspace(-60, 60, 201)
        truth = np.array([0.8, 18.9, 0.9, 1.0])
        y = model_eval(ModelKind.AUTO_CONVOLVED, truth, x)
        start = truth.copy()
        start[0] *= 1.5
        result = fit(x, y, np.full_like(x, 1e-3), ModelKind.AUTO_CONVOLVED, start)
        assert result["baseline"] == 1.0
        assert "baseline" in result.fixed

    def test_free_override(self):
        x = np.linspace(-120, 120, 201)
        truth = np.array([20.0, 7.0, 0.0])
        y = model_eval(ModelKind.ABSORPTION_OD, truth, x)
        start = np.array([15.0, 6.065, 0.5])
        result = fit(x, y, np.full_like(x, 1e-4), ModelKind.ABSORPTION_OD,
                     start, free=("od", "gamma", "center"))
        assert result["gamma"] == pytest.approx(7.0, rel=1e-5)

    def test_shift_invariance_of_absorption_center(self):
        x = np.linspace(-120, 120, 201)
        rng = np.random.default_rng(4)
        noise = 1 + 0.01 * rng.standard_normal(len(x))
        results = []
        for shift in (0.0, 25.0):
            truth = np.array([20.0, 6.065, shift])
            y = model_eval(ModelKind.ABSORPTION_OD, truth, x) * noise
            sigma = 0.01 * np.maximum(model_eval(ModelKind.ABSORPTION_OD, truth, x), 1e-6)
            r = fit(x, y, sigma, ModelKind.ABSORPTION_OD,
                    initial_guess(x, y, ModelKind.ABSORPTION_OD))
            results.append(r)
        assert results[0]["od"] == pytest.approx(results[1]["od"], abs=0.05)
        assert results[1]["center"] - results[0]["center"] == pytest.approx(25.0, abs=0.2)

    def test_uncertainty_coverage_is_calibrated(self):
        # 68% of independent noisy realizations should land within 1 sigma.
        rng = np.random.default_rng(42)
        x = np.linspace(-5, 25, 100)
        truth = np.array([50.0, 4.4, 0.61, 1.0])
        clean = model_eval(ModelKind.CROSS_CONVOLVED, truth, x)
        noise_level = 0.5
        hits = 0
        zs = []
        n_trials = 150
        for trial in range(n_trials):
            y = clean + noise_level * rng.standard_normal(len(x))
            r = fit(x, y, np.full_like(x, noise_level),
                    ModelKind.CROSS_CONVOLVED, truth.copy(), n_starts=1)
            zs.append((r["tau_c"] - 4.4) / r.uncertainty("tau_c"))
            if abs(zs[-1]) <= 1.0:
                hits += 1
        # Allow sampling noise (sigma of the fraction is ~0.04 at N=150)
        # plus mild nonlinearity tails.
        assert 0.68 - 0.12 <= hits / n_trials <= 0.68 + 0.12
        assert 0.85 < np.std(zs) < 1.2

    @pytest.mark.parametrize("kind, start", [
        (ModelKind.CROSS_CONVOLVED, [50.0, 0.0, 0.61, 1.0]),
        (ModelKind.CROSS_CONVOLVED, [50.0, -4.4, 0.61, 1.0]),
        (ModelKind.CROSS_CONVOLVED, [50.0, 4.4, -0.1, 1.0]),
        (ModelKind.AUTO_CONVOLVED, [0.8, 18.9, -0.9, 1.0]),
        (ModelKind.ABSORPTION_OD, [-1.0, 6.065, 0.0]),
        (ModelKind.ABSORPTION_OD, [20.0, 0.0, 0.0]),
    ])
    def test_out_of_domain_start_rejected(self, kind, start):
        x = np.linspace(-10, 40, 50)
        with pytest.raises(ValidationError) as err:
            fit(x, np.ones_like(x), np.ones_like(x), kind, start)
        assert err.value.field == "p0"

    def test_non_finite_data_rejected(self):
        x = np.linspace(-10, 40, 50)
        y = np.ones_like(x)
        y[7] = np.nan
        with pytest.raises(ValidationError) as err:
            fit(x, y, np.ones_like(x), ModelKind.CROSS_CONVOLVED,
                [1.0, 4.4, 0.61, 1.0])
        assert err.value.field == "y"

    def test_matches_recorded_solution(self):
        # A Poisson cross histogram fitted as `biphoton fit` does; the
        # constants are SciPy least_squares' best solution over the same
        # eight starts, at ftol = xtol = gtol = 1e-15 on the exact bin
        # means, which the solver must reproduce within 1e-3 of a standard
        # error.
        kind = ModelKind.CROSS_CONVOLVED
        rng = np.random.default_rng(2021)
        x = np.arange(-20.3, 100.0, 1.4)
        g_acc = 50.0
        counts = rng.poisson(
            g_acc * model_eval_binned(kind, (30.0, 4.4, 0.61, 1.0), x, 1.4))
        y = counts / g_acc
        sigma = np.sqrt(counts + 1.0) / g_acc
        r = fit(x, y, sigma, kind, initial_guess(x, y, kind), bin_width=1.4)
        params = [29.60094776344496, 4.457034860973832,
                  0.560562930482388, 0.9803487027421013]
        errors = [0.6929207593806356, 0.09241885437862114,
                  0.039505433860888284, 0.017057817666143484]
        assert r.converged
        assert np.all(np.abs(r.params - params) < 1e-3 * np.array(errors))
        assert r.uncertainties == pytest.approx(errors, rel=1e-6)
        assert r.chi2 == pytest.approx(79.62714706228985, rel=1e-6)

    @pytest.mark.parametrize("bin_width", [1.4, 0.0])
    def test_jacobian_reuses_the_parts_of_the_residuals(self, monkeypatch, bin_width):
        # The solver asks for each Jacobian at the point of its last
        # residuals; those residuals' exp_gauss parts serve it, and the fit
        # is the same to the bit as one that evaluates them again.
        kind = ModelKind.CROSS_CONVOLVED
        x, y, sigma = poisson_cross(2021, (30.0, 4.4, 0.61, 1.0))
        p0 = initial_guess(x, y, kind)
        calls = {"parts": 0, "jacobian": 0}
        parts, jacobian = fitting._exp_gauss_parts, fitting.model_jacobian

        def counted_parts(*args, **kwargs):
            calls["parts"] += 1
            return parts(*args, **kwargs)

        def unshared_jacobian(*args, memo):
            calls["jacobian"] += 1
            return jacobian(*args)

        monkeypatch.setattr(fitting, "_exp_gauss_parts", counted_parts)
        shared = fit(x, y, sigma, kind, p0, bin_width=bin_width)
        n_shared = calls["parts"]
        monkeypatch.setattr(fitting, "model_jacobian", unshared_jacobian)
        calls["parts"] = 0
        unshared = fit(x, y, sigma, kind, p0, bin_width=bin_width)
        assert shared.as_dict() == unshared.as_dict()
        assert calls["jacobian"] > 0
        assert n_shared == calls["parts"] - calls["jacobian"]

    def test_requires_enough_samples(self):
        with pytest.raises(ValidationError):
            fit([0.0, 1.0], [1.0, 2.0], [0.1, 0.1], ModelKind.CROSS_CONVOLVED,
                [1.0, 1.0, 0.1, 0.0])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = np.linspace(-5, 25, 80)
        truth = np.array([50.0, 4.4, 0.61, 1.0])
        y = model_eval(ModelKind.CROSS_CONVOLVED, truth, x) + rng.standard_normal(len(x))
        a = fit(x, y, np.ones_like(x), ModelKind.CROSS_CONVOLVED, truth * 1.2)
        b = fit(x, y, np.ones_like(x), ModelKind.CROSS_CONVOLVED, truth * 1.2)
        assert np.array_equal(a.params, b.params)
        assert a.chi2 == b.chi2


class TestSolverAgainstScipy:
    @pytest.mark.parametrize("kind, truth, x, bin_width", [
        (ModelKind.CROSS_CONVOLVED, (30.0, 4.4, 0.61, 1.0), np.arange(-20.3, 100.0, 1.4), 1.4),
        (ModelKind.AUTO_CONVOLVED, (0.8, 18.9, 0.9, 1.0), np.arange(-100.1, 100.0, 1.4), 1.4),
        (ModelKind.ABSORPTION_OD, (20.0, 6.065, 3.0), np.linspace(-100, 100, 161), 0.0),
    ])
    def test_interior_fit_matches_scipy(self, kind, truth, x, bin_width):
        y = model_eval_binned(kind, truth, x, bin_width)
        sigma = np.sqrt(50.0 * np.abs(y) + 1.0) / 50.0
        p0 = initial_guess(x, y, kind)
        r = fit(x, y, sigma, kind, p0, bin_width=bin_width)
        _, params = scipy_fit(x, y, sigma, kind, p0, bin_width)
        assert r.converged and r.starts_converged == 8
        free = r.uncertainties > 0
        assert np.all(np.abs(r.params - params)[free] < 1e-6 * r.uncertainties[free])

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_with_zero_jitter_reaches_scipy_chi2(self, seed):
        # A bin edge sits on the step at 0, so the bin means move linearly in
        # tau_d near 0 and the best tau_d is often on the bound: the solver
        # must approach it without stalling the other parameters.
        kind = ModelKind.CROSS_CONVOLVED
        x, y, sigma = poisson_cross(seed, (300.0, 4.4, 0.0, 1.0))
        p0 = initial_guess(x, y, kind)
        r = fit(x, y, sigma, kind, p0, bin_width=1.4)
        chi2, _ = scipy_fit(x, y, sigma, kind, p0, 1.4)
        assert r.converged
        assert r.chi2 <= chi2 * (1 + FTOL)

    @pytest.mark.parametrize("bump", [0.02, 0.1])
    def test_absorption_with_zero_depth_reaches_scipy_chi2(self, bump):
        # Transmission above 1 everywhere: the best optical depth is 0.
        kind = ModelKind.ABSORPTION_OD
        x = np.linspace(-60, 60, 121)
        y = 1.0 + bump * np.exp(-(x / 10.0) ** 2)
        sigma = np.full_like(x, 0.01)
        p0 = initial_guess(x, y, kind)
        r = fit(x, y, sigma, kind, p0)
        chi2, _ = scipy_fit(x, y, sigma, kind, p0)
        assert r.converged
        assert r["od"] < 1e-4
        assert r.chi2 <= chi2 * (1 + FTOL)

    def test_evaluation_budget_ends_the_fit(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 3)
        kind = ModelKind.CROSS_CONVOLVED
        x, y, sigma = poisson_cross(2021, (30.0, 4.4, 0.61, 1.0))
        p0 = initial_guess(x, y, kind)
        r = fit(x, y, sigma, kind, p0, bin_width=1.4)
        assert not r.converged
        assert r.starts_converged == 0
        assert r.n_evaluations == 3
        assert r.message


class TestInitialGuess:
    def test_flat_data_gives_zero_amplitude(self):
        x = np.linspace(-10, 10, 50)
        y = np.full_like(x, 2.0)
        guess = initial_guess(x, y, ModelKind.CROSS_CONVOLVED)
        assert guess[0] == 0.0

    def test_clean_peak_within_factor_two(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            truth = np.array([rng.uniform(5, 200), rng.uniform(2, 10),
                              rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0)])
            x = np.arange(-10 * truth[1], 10 * truth[1], truth[1] / 10)
            y = model_eval(ModelKind.CROSS_CONVOLVED, truth, x)
            guess = initial_guess(x, y, ModelKind.CROSS_CONVOLVED)
            ratio = guess / truth
            assert np.all(ratio > 0.5) and np.all(ratio < 2.0)

    def test_od_guess_within_20_percent_of_fit(self):
        rng = np.random.default_rng(13)
        x = np.linspace(-100, 100, 161)
        truth = np.array([20.0, 6.065, 0.0])
        clean = model_eval(ModelKind.ABSORPTION_OD, truth, x)
        y = clean * (1 + 0.01 * rng.standard_normal(len(x)))
        guess = initial_guess(x, y, ModelKind.ABSORPTION_OD)
        result = fit(x, y, 0.01 * np.maximum(clean, 1e-6),
                     ModelKind.ABSORPTION_OD, guess)
        assert abs(guess[0] - result["od"]) / result["od"] < 0.2
