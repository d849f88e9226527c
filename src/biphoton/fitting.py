"""Weighted nonlinear least squares with adaptive damping, plus the three
measurement models: jitter-convolved cross-correlation, jitter-convolved
symmetric auto-correlation, and the Lorentzian absorption profile.

The convolved models use the exponential (x) Gaussian closed form derived
from scratch; they are validated against direct numerical quadrature of
the convolution integral in the test suite. Evaluation is guarded against
overflow by switching to the scaled complementary error function where the
naive exponent grows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcx

from .errors import NonConvergenceError, RankDeficiencyError, ValidationError
from .metrics import RB_D2_LINEWIDTH_MHZ


class ModelKind(enum.Enum):
    CROSS_CONVOLVED = "cross"
    AUTO_CONVOLVED = "auto"
    ABSORPTION_OD = "absorption"


PARAM_NAMES = {
    ModelKind.CROSS_CONVOLVED: ("amplitude", "tau_c", "tau_d", "baseline"),
    ModelKind.AUTO_CONVOLVED: ("g0", "tau_c", "tau_d", "baseline"),
    ModelKind.ABSORPTION_OD: ("od", "gamma", "center"),
}

# Parameters held fixed unless the caller frees them explicitly.
DEFAULT_FIXED = {
    ModelKind.CROSS_CONVOLVED: (),
    ModelKind.AUTO_CONVOLVED: ("baseline",),
    ModelKind.ABSORPTION_OD: ("gamma",),
}


def exp_gauss(t, tau, sigma):
    """Convolution of exp(-t/tau) * step(t) with a unit-area Gaussian of
    width sigma. Peak value is 1 in the sigma -> 0 limit."""
    t = np.asarray(t, dtype=float)
    if sigma == 0:
        return np.where(t >= 0, np.exp(-np.clip(t, 0, None) / tau), 0.0)
    z = (sigma * sigma - t * tau) / (math.sqrt(2.0) * sigma * tau)
    out = np.empty_like(t)
    pos = z >= 0
    # e^a erfc(z) = e^(-t^2/(2 sigma^2)) erfcx(z); exact, overflow-free for z >= 0.
    out[pos] = 0.5 * np.exp(-t[pos] ** 2 / (2 * sigma * sigma)) * erfcx(z[pos])
    # For z < 0 the naive exponent is already negative: direct form is safe.
    tn = t[~pos]
    out[~pos] = 0.5 * np.exp(sigma * sigma / (2 * tau * tau) - tn / tau) * erfc(z[~pos])
    return out


def model_eval(kind: ModelKind, params, x):
    """Evaluate a model on delay/detuning axis ``x``.

    CROSS_CONVOLVED (x in ns): baseline + amplitude * [one-sided exponential
    with 1/e time tau_c, convolved with a Gaussian of width tau_d].

    AUTO_CONVOLVED (x in ns): baseline + g0 * [exp(-2|x|/tau_c) convolved
    with a Gaussian of width tau_d]; baseline is 1 for normalized data.

    ABSORPTION_OD (x = detuning in MHz): transmission
    exp(-od * gamma^2 / (gamma^2 + 4 (x - center)^2)).
    """
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind is ModelKind.CROSS_CONVOLVED:
        amplitude, tau_c, tau_d, baseline = params
        _require_positive(tau_c=tau_c)
        _require_nonnegative(tau_d=tau_d)
        return baseline + amplitude * exp_gauss(x, tau_c, tau_d)
    if kind is ModelKind.AUTO_CONVOLVED:
        g0, tau_c, tau_d, baseline = params
        _require_positive(tau_c=tau_c)
        _require_nonnegative(tau_d=tau_d)
        half = tau_c / 2.0
        if tau_d == 0:
            bump = np.exp(-2.0 * np.abs(x) / tau_c)
        else:
            bump = exp_gauss(x, half, tau_d) + exp_gauss(-x, half, tau_d)
        return baseline + g0 * bump
    if kind is ModelKind.ABSORPTION_OD:
        od, gamma, center = params
        _require_nonnegative(od=od)
        _require_positive(gamma=gamma)
        d = x - center
        return np.exp(-od * gamma * gamma / (gamma * gamma + 4.0 * d * d))
    raise ValidationError(f"unknown model kind {kind}", field="kind")


def model_eval_binned(kind: ModelKind, params, centers, bin_width):
    """Bin-averaged model: 3-point Gauss-Legendre average over each bin.

    Matches histogrammed data, whose per-bin value is the mean of the
    underlying curve over the bin, not its center sample.
    """
    if bin_width <= 0:
        return model_eval(kind, params, centers)
    nodes = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
    weights = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    centers = np.asarray(centers, dtype=float)
    acc = np.zeros_like(centers)
    for node, w in zip(nodes, weights):
        acc += w * model_eval(kind, params, centers + 0.5 * bin_width * node)
    return acc


def _require_positive(**kv):
    for name, v in kv.items():
        if not v > 0:
            raise ValidationError("must be positive", field=name)


def _require_nonnegative(**kv):
    for name, v in kv.items():
        if v < 0:
            raise ValidationError("must be non-negative", field=name)


def _in_domain(kind: ModelKind, params) -> bool:
    if kind is ModelKind.CROSS_CONVOLVED or kind is ModelKind.AUTO_CONVOLVED:
        return params[1] > 0 and params[2] >= 0
    if kind is ModelKind.ABSORPTION_OD:
        return params[0] >= 0 and params[1] > 0
    return True


@dataclass
class FitResult:
    kind: ModelKind
    params: np.ndarray
    uncertainties: np.ndarray
    chi2: float
    reduced_chi2: float
    n_iterations: int
    converged: bool
    fixed: tuple[str, ...] = ()
    message: str = ""

    def __getitem__(self, name: str) -> float:
        return float(self.params[PARAM_NAMES[self.kind].index(name)])

    def uncertainty(self, name: str) -> float:
        return float(self.uncertainties[PARAM_NAMES[self.kind].index(name)])

    def as_dict(self) -> dict:
        names = PARAM_NAMES[self.kind]
        return {
            "model": self.kind.value,
            "params": {n: float(p) for n, p in zip(names, self.params)},
            "uncertainties": {n: float(u) for n, u in zip(names, self.uncertainties)},
            "chi2": self.chi2,
            "reduced_chi2": self.reduced_chi2,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "fixed": list(self.fixed),
        }


def numeric_jacobian(func, params, f0=None, rel_step=None):
    """Forward-difference Jacobian of ``func`` (returns a residual vector)."""
    params = np.asarray(params, dtype=float)
    if f0 is None:
        f0 = func(params)
    if rel_step is None:
        rel_step = math.sqrt(np.finfo(float).eps)
    jac = np.empty((len(f0), len(params)))
    for j in range(len(params)):
        # The unit floor keeps the step representable when a parameter
        # sits at zero (e.g. a centered line position).
        step = rel_step * max(abs(params[j]), 1.0)
        p = params.copy()
        p[j] += step
        jac[:, j] = (func(p) - f0) / step
    return jac


CHI2_RTOL = 1e-9
GRAD_ATOL = 1e-8
CONSECUTIVE_OK = 3
MAX_ITERATIONS = 500
LAMBDA_MAX = 1e12


def _lm_minimize(residual_fn, p0, max_iterations=MAX_ITERATIONS):
    """Damped least squares with adaptive Levenberg-style damping.

    ``residual_fn(p)`` returns weighted residuals or None when ``p`` is
    outside the model domain.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual_fn(p)
    if r is None:
        raise ValidationError("initial parameters outside model domain", field="p0")
    chi2 = float(r @ r)
    lam = 1e-3
    ok_streak = 0
    n_iter = 0
    converged = False
    while n_iter < max_iterations:
        n_iter += 1
        def safe_residual(q):
            rq = residual_fn(q)
            return rq if rq is not None else np.full_like(r, np.inf)

        jac = numeric_jacobian(safe_residual, p, f0=r)
        jtj = jac.T @ jac
        grad = jac.T @ r
        accepted = False
        singular_only = True
        while lam <= LAMBDA_MAX:
            damped = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-14, None))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                lam *= 10.0
                continue
            singular_only = False
            trial = p + step
            r_trial = residual_fn(trial)
            if r_trial is None or not np.all(np.isfinite(r_trial)):
                lam *= 10.0
                continue
            chi2_trial = float(r_trial @ r_trial)
            if chi2_trial <= chi2:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            if singular_only:
                raise RankDeficiencyError("normal matrix singular at maximum damping")
            # No downhill step found at any damping: converged in place.
            converged = True
            break
        rel_drop = (chi2 - chi2_trial) / max(chi2, 1e-300)
        p, r, chi2 = trial, r_trial, chi2_trial
        lam = max(lam / 3.0, 1e-12)
        grad_norm = float(np.max(np.abs(jac.T @ r)))
        if rel_drop < CHI2_RTOL or grad_norm < GRAD_ATOL:
            ok_streak += 1
            if ok_streak >= CONSECUTIVE_OK:
                converged = True
                break
        else:
            ok_streak = 0
    return p, r, chi2, n_iter, converged


def fit(x, y, sigma_y, kind: ModelKind, initial_params, *,
        free=None, bin_width: float = 0.0, n_starts: int = 8,
        max_iterations: int = MAX_ITERATIONS, raise_on_failure: bool = False,
        start_seed: int = 0) -> FitResult:
    """Fit a model to (x, y, sigma_y) samples.

    ``free`` overrides which parameters vary (default: everything except
    the model's conventionally fixed ones). ``bin_width`` > 0 switches to
    bin-averaged model evaluation. ``n_starts`` perturbed initial guesses
    are tried deterministically; the best chi-square wins, ties broken by
    parameter lexicographic order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma_y = np.asarray(sigma_y, dtype=float)
    if np.any(sigma_y <= 0):
        raise ValidationError("sigma_y must be positive", field="sigma_y")
    names = PARAM_NAMES[kind]
    p_full = np.asarray(initial_params, dtype=float).copy()
    if len(p_full) != len(names):
        raise ValidationError(f"expected {len(names)} parameters", field="initial_params")
    if free is None:
        free_names = tuple(n for n in names if n not in DEFAULT_FIXED[kind])
    else:
        free_names = tuple(free)
        for n in free_names:
            if n not in names:
                raise ValidationError(f"unknown parameter {n!r}", field="free")
    free_idx = np.array([names.index(n) for n in free_names], dtype=int)
    if len(x) < 2 * len(free_idx):
        raise ValidationError("need at least 2x more samples than free parameters",
                              field="x")

    def residual_fn(p_free):
        full = p_full.copy()
        full[free_idx] = p_free
        if not _in_domain(kind, full):
            return None
        try:
            model = model_eval_binned(kind, full, x, bin_width)
        except ValidationError:
            return None
        res = (model - y) / sigma_y
        return res if np.all(np.isfinite(res)) else None

    rng = np.random.default_rng(np.random.SeedSequence(start_seed))
    best = None
    for start in range(max(1, n_starts)):
        p_start = p_full[free_idx].astype(float)
        if start > 0:
            p_start = p_start * np.exp(rng.normal(0.0, 0.2, size=len(p_start)))
        if residual_fn(p_start) is None:
            continue
        try:
            p_opt, r_opt, chi2, n_iter, converged = _lm_minimize(
                residual_fn, p_start, max_iterations=max_iterations)
        except RankDeficiencyError:
            continue
        key = (chi2, tuple(p_opt))
        if best is None or key < best[0]:
            best = (key, p_opt, r_opt, chi2, n_iter, converged)

    if best is None:
        raise RankDeficiencyError("every start failed with a singular normal matrix")
    _, p_opt, r_opt, chi2, n_iter, converged = best

    full = p_full.copy()
    full[free_idx] = p_opt
    jac = numeric_jacobian(lambda q: residual_fn(q), p_opt, f0=r_opt)
    uncertainties = np.zeros(len(names))
    try:
        cov = np.linalg.inv(jac.T @ jac)
        uncertainties[free_idx] = np.sqrt(np.clip(np.diag(cov), 0, None))
    except np.linalg.LinAlgError:
        uncertainties[free_idx] = np.nan
    dof = max(len(x) - len(free_idx), 1)
    result = FitResult(
        kind=kind, params=full, uncertainties=uncertainties,
        chi2=chi2, reduced_chi2=chi2 / dof, n_iterations=n_iter,
        converged=converged,
        fixed=tuple(n for n in names if n not in free_names),
        message="" if converged else "maximum iterations exceeded",
    )
    if not converged and raise_on_failure:
        raise NonConvergenceError("fit did not converge", result=result)
    return result


def initial_guess(x, y, kind: ModelKind):
    """Heuristic starting parameters from the data alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0:
        raise ValidationError("data must be non-empty", field="x")
    order = np.argsort(x)
    x, y = x[order], y[order]

    if kind is ModelKind.ABSORPTION_OD:
        tmin = float(np.min(y))
        od = -math.log(max(tmin, 1e-12))
        center = float(x[int(np.argmin(y))])
        return np.array([max(od, 1e-3), RB_D2_LINEWIDTH_MHZ, center])

    if kind is ModelKind.CROSS_CONVOLVED:
        # Median is robust against the smeared rise just left of zero.
        baseline = float(np.median(y[x < 0])) if np.any(x < 0) else float(np.min(y))
    else:
        baseline = 1.0
    peak = float(np.max(y))
    amplitude = max(peak - baseline, 0.0)
    x_peak = float(x[int(np.argmax(y))])

    span = x[-1] - x[0]
    tau_c = max(span / 10.0, 1e-3)
    tau_d = max(span / 100.0, 1e-3)
    if amplitude > 0:
        # 1/e crossing of the background-subtracted tail.
        tail = (x > x_peak) & (y - baseline < amplitude / math.e)
        if np.any(tail):
            tau_c = max(float(x[tail][0] - x_peak), 1e-3)
        # Rise span between 10% and 90% of the peak, over the Gaussian's
        # 10-90 width of 2.563 sigma.
        rise = x <= x_peak
        xr, yr = x[rise], (y[rise] - baseline) / amplitude
        above10 = xr[yr >= 0.1]
        above90 = xr[yr >= 0.9]
        if len(above10) and len(above90) and above90[0] > above10[0]:
            tau_d = max(float(above90[0] - above10[0]) / 2.563, 1e-3)
    if kind is ModelKind.AUTO_CONVOLVED:
        # Symmetric bump decays at 2/tau_c, so the 1/e crossing sits at tau_c/2.
        return np.array([amplitude if amplitude > 0 else 0.1,
                         2.0 * tau_c, tau_d, baseline])
    return np.array([amplitude, tau_c, tau_d, baseline])
