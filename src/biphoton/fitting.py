"""Weighted nonlinear least squares with SciPy's bounded trust-region
solver (``scipy.optimize.least_squares``, method ``trf``), plus the three
measurement models: jitter-convolved cross-correlation, jitter-convolved
symmetric auto-correlation, and the Lorentzian absorption profile.

The convolved models use the exponential (x) Gaussian closed form derived
from scratch; they are validated against direct numerical quadrature of
the convolution integral in the test suite. Evaluation is guarded against
overflow by switching to the scaled complementary error function where the
naive exponent grows. Each model has a closed-form Jacobian, which the
solver uses instead of finite differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import erfc, erfcx

from .errors import NonConvergenceError, ValidationError
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


def exp_gauss_grad(t, tau, sigma):
    """``exp_gauss`` f with df/dtau and df/dsigma. With g the unit Gaussian
    exp(-t^2/(2 sigma^2))/sqrt(2 pi), df/dtau = (f (t - sigma^2/tau) +
    g sigma)/tau^2 and df/dsigma = f sigma/tau^2 - g (1/tau + t/sigma^2);
    at sigma = 0, g and df/dsigma are taken as 0."""
    t = np.asarray(t, dtype=float)
    f = exp_gauss(t, tau, sigma)
    if sigma == 0:
        return f, f * t / tau**2, np.zeros_like(f)
    g = np.exp(-t * t / (2 * sigma * sigma)) / math.sqrt(2.0 * math.pi)
    return (f, (f * (t - sigma * sigma / tau) + g * sigma) / tau**2,
            f * sigma / tau**2 - g * (1.0 / tau + t / sigma**2))


def model_jacobian(kind: ModelKind, params, x, bin_width: float = 0.0):
    """Derivatives of ``model_eval_binned`` in each parameter, on a last
    axis after the shape of ``x``."""
    if bin_width > 0:
        return _bin_average(lambda nodes: model_jacobian(kind, params, nodes),
                            x, bin_width)
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind is ModelKind.ABSORPTION_OD:
        od, gamma, center = params
        d = x - center
        denom = gamma * gamma + 4.0 * d * d
        transmission = np.exp(-od * gamma * gamma / denom)
        # -od T times the Lorentzian's derivatives in gamma and center.
        scale = -8.0 * od * gamma * transmission / denom**2
        return np.stack([-gamma * gamma / denom * transmission,
                         scale * d * d, scale * gamma * d], axis=-1)
    amplitude, tau_c, tau_d, _ = params
    if kind is ModelKind.CROSS_CONVOLVED:
        f, d_tau, d_sigma = exp_gauss_grad(x, tau_c, tau_d)
    elif tau_d == 0:
        f = np.exp(-2.0 * np.abs(x) / tau_c)
        d_tau, d_sigma = f * 2.0 * np.abs(x) / tau_c**2, np.zeros_like(x)
    else:
        # Both terms at tau_c / 2 in one call, so d/dtau_c is half d/dtau.
        f, d_half, d_sigma = (v.sum(axis=0) for v in
                              exp_gauss_grad(np.stack([x, -x]), tau_c / 2.0, tau_d))
        d_tau = d_half / 2.0
    return np.stack([f, amplitude * d_tau, amplitude * d_sigma, np.ones_like(x)],
                    axis=-1)


_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _bin_average(evaluate, centers, bin_width):
    """3-point Gauss-Legendre average over each bin of ``evaluate``, called
    once on every bin's nodes, one leading row per node."""
    centers = np.asarray(centers, dtype=float)
    values = evaluate(centers + 0.5 * bin_width
                      * _GL_NODES.reshape((3,) + (1,) * centers.ndim))
    acc = np.zeros_like(values[0])
    for w, v in zip(_GL_WEIGHTS, values):
        acc += w * v
    return acc


def model_eval_binned(kind: ModelKind, params, centers, bin_width):
    """Bin-averaged model: 3-point Gauss-Legendre average over each bin.

    Matches histogrammed data, whose per-bin value is the mean of the
    underlying curve over the bin, not its center sample.
    """
    if bin_width <= 0:
        return model_eval(kind, params, centers)
    return _bin_average(lambda x: model_eval(kind, params, x), centers, bin_width)


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
            "message": self.message,
            "fixed": list(self.fixed),
        }


# Lower bounds of each model's parameters: decay and jitter times, optical
# depth and linewidth are not negative. The solver keeps its iterates
# strictly inside, so the strict bounds of ``_in_domain`` hold too.
LOWER_BOUNDS = {
    ModelKind.CROSS_CONVOLVED: (-np.inf, 0.0, 0.0, -np.inf),
    ModelKind.AUTO_CONVOLVED: (-np.inf, 0.0, 0.0, -np.inf),
    ModelKind.ABSORPTION_OD: (0.0, 0.0, -np.inf),
}
MAX_ITERATIONS = 500  # residual evaluations per start, Jacobian ones excluded


def fit(x, y, sigma_y, kind: ModelKind, initial_params, *,
        free=None, bin_width: float = 0.0, n_starts: int = 8,
        raise_on_failure: bool = False) -> FitResult:
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
    for name, values in (("x", x), ("y", y), ("sigma_y", sigma_y)):
        if not np.all(np.isfinite(values)):
            raise ValidationError("must be finite", field=name)
    if np.any(sigma_y <= 0):
        raise ValidationError("sigma_y must be positive", field="sigma_y")
    names = PARAM_NAMES[kind]
    p_full = np.asarray(initial_params, dtype=float).copy()
    if len(p_full) != len(names):
        raise ValidationError(f"expected {len(names)} parameters", field="initial_params")
    if not _in_domain(kind, p_full):
        raise ValidationError("initial parameters outside model domain", field="p0")
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
    bounds = (np.asarray(LOWER_BOUNDS[kind])[free_idx], np.inf)

    def with_free(p_free):
        full = p_full.copy()
        full[free_idx] = p_free
        return full

    def residual_fn(p_free):
        return (model_eval_binned(kind, with_free(p_free), x, bin_width) - y) / sigma_y

    def jac_fn(p_free):
        jac = model_jacobian(kind, with_free(p_free), x, bin_width)
        return jac[:, free_idx] / sigma_y[:, None]

    # Scaling by exp(normal) keeps each start's signs, so every start is
    # inside the domain checked above.
    rng = np.random.default_rng(0)
    best = None
    for start in range(max(1, n_starts)):
        p_start = p_full[free_idx]
        if start > 0:
            p_start = p_start * np.exp(rng.normal(0.0, 0.2, size=len(p_start)))
        res = least_squares(residual_fn, p_start, jac=jac_fn, bounds=bounds,
                            max_nfev=MAX_ITERATIONS)
        chi2 = float(res.fun @ res.fun)
        key = (chi2, tuple(res.x))
        if best is None or key < best[0]:
            best = (key, res)
    (chi2, _), res = best

    full = p_full.copy()
    full[free_idx] = res.x
    uncertainties = np.zeros(len(names))
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac)
        uncertainties[free_idx] = np.sqrt(np.clip(np.diag(cov), 0, None))
    except np.linalg.LinAlgError:
        uncertainties[free_idx] = np.nan
    dof = max(len(x) - len(free_idx), 1)
    converged = bool(res.status > 0)
    result = FitResult(
        kind=kind, params=full, uncertainties=uncertainties,
        chi2=chi2, reduced_chi2=chi2 / dof, n_iterations=int(res.njev),
        converged=converged,
        fixed=tuple(n for n in names if n not in free_names),
        message=res.message,
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
