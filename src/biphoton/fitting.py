"""Weighted nonlinear least squares with a bounded Levenberg-Marquardt
solver, plus the three measurement models: jitter-convolved
cross-correlation, jitter-convolved symmetric auto-correlation, and the
Lorentzian absorption profile.

The convolved models use the exponential (x) Gaussian closed form f and
its integral F = tau (Phi - f), so a histogram bin's mean is the exact
(F(hi) - F(lo)) / w; one call of the scaled complementary error function
``erfcx``, computed here from a Chebyshev expansion, gives both without
overflow. Each model has a closed-form Jacobian, which the solver uses
instead of finite differences. The module needs numpy alone; the tests
check it against SciPy, quadrature and a 20-digit mpmath integral.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily on first use; importing it here keeps that
# load out of the first command that draws or fits.
from numpy.random import default_rng

from .errors import ValidationError
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


# Chebyshev coefficients of log(erfcx(z) / t) in u = 2t - 1, t = 2/(2 + z),
# which maps z in [0, inf] onto u in [-1, 1]. Generated with mpmath 1.3.0 at
# 50 digits: c_k = (2/N) sum_j f(u_j) cos(k theta_j) over the N = 120 nodes
# u_j = cos(theta_j), theta_j = pi (j + 1/2) / N, then rounded to double
# and cut after c_24; the omitted terms sum to less than 3e-16. Bin means
# difference erfcx at nearby points, which magnifies the slope of its error.
_ERFCX_CHEB = (
    -1.3026537197817094, 0.6419697923564902, 0.019476473204185836,
    -0.009561514786808632, -0.0009465953444820369, 0.00036683949785276145,
    4.252332480690777e-05, -2.0278578112534242e-05, -1.6242900046470256e-06,
    1.3036558355805232e-06, 1.5626441722066142e-08, -8.523809591492654e-08,
    6.5290544390988515e-09, 5.059343495551469e-09, -9.91364156493033e-10,
    -2.273651222931836e-10, 9.646791102015527e-11, 2.3940380830391146e-12,
    -6.886027526497553e-12, 8.944879273090725e-13, 3.130921399342958e-13,
    -1.1270822361367252e-13, 3.810905255189232e-16, 7.106097613609237e-15,
    -1.5230282014571043e-15,
)


def erfcx(z):
    """Scaled complementary error function exp(z^2) erfc(z) for z >= 0,
    within 2e-15 relative, by Clenshaw summation of ``_ERFCX_CHEB``."""
    z = np.asarray(z, dtype=float)
    t = 2.0 / (2.0 + z)
    two_u = 4.0 * t - 2.0
    # b_k = c_k + 2u b_(k+1) - b_(k+2), held in three rotating buffers.
    b1 = np.full_like(t, _ERFCX_CHEB[-1])
    b2 = np.zeros_like(t)
    b0 = np.empty_like(t)
    for c in _ERFCX_CHEB[-2:0:-1]:
        np.multiply(two_u, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    # Sum = c_0/2 + u b_1 - b_2.
    np.multiply(two_u, b1, out=b0)
    b0 *= 0.5
    b0 -= b2
    b0 += 0.5 * _ERFCX_CHEB[0]
    np.exp(b0, out=b0)
    b0 *= t
    return b0


def exp_gauss(t, tau, sigma):
    """Convolution of exp(-t/tau) * step(t) with a unit-area Gaussian of
    width sigma. Peak value is 1 in the sigma -> 0 limit."""
    return _exp_gauss_parts(t, tau, sigma, integral=False)[0]


def _exp_gauss_parts(t, tau, sigma, integral=True):
    """``exp_gauss`` f at points t, its integral from -inf F = tau (Phi(u) -
    f) and the unit Gaussian g = phi(u), u = t/sigma, Phi being phi's CDF.
    One ``erfcx`` call serves f and Phi(-|u|) = e^(-u^2/2) erfcx(|u|/sqrt 2)
    / 2; without ``integral``, F may come back None, from a call half as
    long. At sigma = 0, F is tau (1 - e^(-t/tau)) for t >= 0 and g is 0."""
    t = np.asarray(t, dtype=float)
    if sigma == 0:
        # -0.0, the mirror image of 0, falls left of the step, so that the
        # auto bump f(x) + f(-x) is 1 at x = 0.
        decay = -np.clip(t, 0, None) / tau
        return (np.where(np.signbit(t), 0.0, np.exp(decay)), -tau * np.expm1(decay),
                np.zeros_like(t))
    z = (sigma * sigma - t * tau) / (math.sqrt(2.0) * sigma * tau)
    neg = z < 0
    # With a = sigma^2/(2 tau^2) - t/tau, f = e^a erfc(z) / 2, and
    # e^a erfc(|z|) = e^(-u^2/2) erfcx(|z|) never overflows. For z < 0,
    # erfc(z) = 2 - erfc(|z|), and a < 0 there.
    args = np.stack([z, t / (math.sqrt(2.0) * sigma)]) if integral else z[np.newaxis]
    scaled = erfcx(np.abs(args, out=args))
    gauss = np.exp(-t * t / (2.0 * sigma * sigma))
    scaled *= 0.5 * gauss
    f, *tail = scaled
    f[neg] = np.exp(0.5 * (sigma / tau) ** 2 - t[neg] / tau) - f[neg]
    F = tau * (np.where(t > 0, 1.0 - tail[0], tail[0]) - f) if integral else None
    return f, F, gauss / math.sqrt(2.0 * math.pi)


def model_eval(kind: ModelKind, params, x):
    """Evaluate a model on delay/detuning axis ``x``.

    CROSS_CONVOLVED (x in ns): baseline + amplitude * [one-sided exponential
    with 1/e time tau_c, convolved with a Gaussian of width tau_d].

    AUTO_CONVOLVED (x in ns): baseline + g0 * [exp(-2|x|/tau_c) convolved
    with a Gaussian of width tau_d]; baseline is 1 for normalized data.

    ABSORPTION_OD (x = detuning in MHz): transmission
    exp(-od * gamma^2 / (gamma^2 + 4 (x - center)^2)).
    """
    return _model(kind, params, x, 0.0, False)


def model_eval_binned(kind: ModelKind, params, centers, bin_width, *, memo=None):
    """Mean of a convolved model over each bin of ``bin_width`` centred on
    ``centers``, which is what a histogram holds; ``bin_width`` <= 0 gives
    ``model_eval``. The absorption model has no bin means.

    A bin's mean is (F(hi) - F(lo)) / w with F the integral of
    ``exp_gauss``, exact but for rounding: F is rounded to about eps tau_c,
    so on the unit peak a mean is within 2 eps tau_c / w, which is below
    1e-12 for bins wider than tau_c / 2000.

    ``memo``, a dict that a caller keeps for one ``kind``, ``centers`` and
    ``bin_width``, holds the ``exp_gauss`` parts of the last call, which
    depend on tau_c and tau_d alone; a call with the same two reuses them,
    and the result is the same to the bit.
    """
    return _model(kind, params, centers, bin_width, False, memo)


def model_jacobian(kind: ModelKind, params, x, bin_width: float = 0.0, *, memo=None):
    """Derivatives of ``model_eval_binned`` in each parameter, on a last
    axis after the shape of ``x``; ``memo`` as there."""
    return _model(kind, params, x, bin_width, True, memo)


def _model(kind, params, x, bin_width, jacobian, memo=None):
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    if not _in_domain(kind, params):
        raise ValidationError(f"parameters outside the domain of model {kind}", field="params")
    if kind is ModelKind.ABSORPTION_OD:
        if bin_width > 0:
            raise ValidationError("the absorption model has no bin means", field="bin_width")
        od, gamma, center = params
        d = x - center
        denom = gamma * gamma + 4.0 * d * d
        transmission = np.exp(-od * gamma * gamma / denom)
        if not jacobian:
            return transmission
        # -od T times the Lorentzian's derivatives in gamma and center.
        scale = -8.0 * od * gamma * transmission / denom**2
        return np.stack([-gamma * gamma / denom * transmission,
                         scale * d * d, scale * gamma * d], axis=-1)
    amplitude, tau_c, sigma, baseline = params
    # The auto bump is exp_gauss at tau_c / 2 plus its mirror image; points
    # t carry a last axis of images, which ``total`` sums.
    signs = np.array([1.0] if kind is ModelKind.CROSS_CONVOLVED else [1.0, -1.0])
    tau = tau_c / len(signs)
    binned = bin_width > 0
    if binned:
        # Bins that tile the axis share their edges: n + 1 points, not 2n.
        if x.ndim == 1 and np.max(np.abs(np.diff(x) - bin_width), initial=0) <= 1e-12 * bin_width:
            ends, lo, hi = np.append(x, x[-1:] + bin_width), np.s_[:-1], np.s_[1:]
        else:
            ends, lo, hi = np.stack([x, x + bin_width]), 0, 1
        t = np.multiply.outer(ends - 0.5 * bin_width, signs)
        # A bin's mean is (F(hi) - F(lo)) / w, its mirror's (F(-lo) - F(-hi)) / w.
        total = lambda v: (v[hi] - v[lo]) @ (signs / bin_width)
    else:
        t = np.multiply.outer(x, signs)
        total = lambda v: v.sum(axis=-1)
    memo = {} if memo is None else memo
    parts = memo.get((tau, sigma))
    if parts is None:
        memo.clear()
        parts = memo[tau, sigma] = _exp_gauss_parts(t, tau, sigma, binned)
    f, F, g = parts
    if not jacobian:
        return baseline + amplitude * total(F if binned else f)
    # a = tau df/dtau and b = dF/dsigma; then dF/dtau = F / tau - a and
    # df/dsigma = -b / tau - g t / sigma^2.
    a = (f * (t - sigma * sigma / tau) + g * sigma) / tau
    b = g - f * sigma / tau
    if binned:
        value, d_tau, d_sigma = F, F / tau - a, b
    else:
        value, d_tau, d_sigma = f, a / tau, -b / tau - (g * t / sigma**2 if sigma > 0 else 0.0)
    return np.stack([total(value), amplitude * total(d_tau) / len(signs),
                     amplitude * total(d_sigma), np.ones_like(x)], axis=-1)


def _in_domain(kind: ModelKind, params) -> bool:
    if kind is ModelKind.CROSS_CONVOLVED or kind is ModelKind.AUTO_CONVOLVED:
        return params[1] > 0 and params[2] >= 0
    if kind is ModelKind.ABSORPTION_OD:
        return params[0] >= 0 and params[1] > 0
    return False


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
    n_evaluations: int = 0
    starts_converged: int = 0

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
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "starts_converged": self.starts_converged,
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
MAX_ITERATIONS = 500  # trial points per start, Jacobian evaluations excluded
# Convergence tolerances on the chi-square's relative reduction, on the
# step relative to the parameters and on the gradient's largest component.
FTOL = XTOL = GTOL = 1e-8
# Share of the distance to a bound that a step crossing it keeps.
BOUND_SHARE = 0.1


@dataclass
class _Solution:
    x: np.ndarray
    residuals: np.ndarray
    jac: np.ndarray
    n_evaluations: int
    n_jacobians: int
    converged: bool
    message: str


def _bounded_step(system, grad, room):
    """Solve ``system`` dx = -grad with each component that would pass
    below ``room`` held there; returns dx and the mask of held components."""
    dx = np.linalg.solve(system, -grad)
    held = np.zeros(len(dx), dtype=bool)
    while np.any(passing := ~held & (dx < room)):
        held |= passing
        free = ~held
        dx[held] = room[held]
        dx[free] = np.linalg.solve(system[free][:, free],
                                   -grad[free] - system[free][:, held] @ dx[held])
    return dx, held


def _levenberg_marquardt(residual_fn, jac_fn, x, lower, in_domain) -> _Solution:
    """Minimise |r(x)|^2 over x >= lower by Levenberg-Marquardt with
    Marquardt's diagonal scaling, the largest diag(J^T J) seen so far, and
    Nielsen's damping update.

    A component whose step would cross its bound is held at the point that
    keeps ``BOUND_SHARE`` of the distance to it, and the other components
    are solved again around it; a trial outside ``in_domain`` is rejected
    unevaluated. Every trial counts toward ``MAX_ITERATIONS``.
    """
    r = residual_fn(x)
    cost, n_eval = float(r @ r), 1
    jac, n_jac = jac_fn(x), 1
    scale = np.zeros(len(x))
    damping, growth = 1e-3, 2.0
    while True:
        grad, hess = jac.T @ r, jac.T @ jac
        if np.max(np.abs(grad)) < GTOL:
            return _Solution(x, r, jac, n_eval, n_jac, True, f"gradient below gtol={GTOL:g}")
        scale = np.maximum(scale, np.diag(hess))
        # A column that has been zero throughout is damped on a unit scale.
        marquardt = np.diag(np.where(scale > 0, scale, 1.0))
        while True:
            if n_eval >= MAX_ITERATIONS:
                return _Solution(x, r, jac, n_eval, n_jac, False,
                                 f"no tolerance met in {n_eval} evaluations")
            # x - lower is inf where there is no bound, so the room is -inf there.
            dx, held = _bounded_step(hess + damping * marquardt, grad,
                                     -(1.0 - BOUND_SHARE) * (x - lower))
            # A held component moves all but BOUND_SHARE of its way to the
            # bound, which approaches a minimum on the bound, not a stall.
            if (np.linalg.norm(dx) < XTOL * (XTOL + np.linalg.norm(x))
                    and not np.any(dx[held])):
                return _Solution(x, r, jac, n_eval, n_jac, True, f"step below xtol={XTOL:g}")
            trial = x + dx
            n_eval += 1
            if in_domain(trial):
                r_trial = residual_fn(trial)
                reduction = cost - float(r_trial @ r_trial)
                if reduction > 0:
                    break
            damping, growth = damping * growth, growth * 2.0
        # The reduction the linearised model predicted: the tolerance on the
        # actual one holds only for a step that achieved a quarter of it.
        predicted = -float(2.0 * grad @ dx + dx @ hess @ dx)
        x, r, cost = trial, r_trial, cost - reduction
        jac, n_jac = jac_fn(x), n_jac + 1
        if reduction < FTOL * (cost + reduction) and reduction > 0.25 * predicted:
            return _Solution(x, r, jac, n_eval, n_jac, True,
                             f"chi-square reduction below ftol={FTOL:g}")
        rho = reduction / predicted if predicted > 0 else 1.0
        damping, growth = max(damping * max(1 / 3, 1 - (2 * rho - 1) ** 3), 1e-12), 2.0


def fit(x, y, sigma_y, kind: ModelKind, initial_params, *,
        free=None, bin_width: float = 0.0, n_starts: int = 8) -> FitResult:
    """Fit a model to (x, y, sigma_y) samples.

    ``free`` overrides which parameters vary (default: everything except
    the model's conventionally fixed ones). ``bin_width`` > 0 switches to
    bin-averaged model evaluation. ``n_starts`` perturbed initial guesses
    are tried deterministically; the best chi-square wins, ties broken by
    parameter lexicographic order. A fit that meets no tolerance returns
    its best result with ``converged`` False.
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
    lower = np.asarray(LOWER_BOUNDS[kind])[free_idx]

    def with_free(p_free):
        full = p_full.copy()
        full[free_idx] = p_free
        return full

    # The solver asks for the Jacobian at the point whose residuals it has
    # just computed: one evaluation of the model's parts serves both.
    memo = {}

    def residual_fn(p_free):
        return (model_eval_binned(kind, with_free(p_free), x, bin_width, memo=memo)
                - y) / sigma_y

    def jac_fn(p_free):
        jac = model_jacobian(kind, with_free(p_free), x, bin_width, memo=memo)
        return jac[:, free_idx] / sigma_y[:, None]

    # Scaling by exp(normal) keeps each start's signs, so every start is
    # inside the domain checked above.
    rng = default_rng(0)
    best = None
    starts_converged = 0
    for start in range(max(1, n_starts)):
        p_start = p_full[free_idx]
        if start > 0:
            p_start = p_start * np.exp(rng.normal(0.0, 0.2, size=len(p_start)))
        sol = _levenberg_marquardt(residual_fn, jac_fn, p_start, lower,
                                   lambda p: _in_domain(kind, with_free(p)))
        starts_converged += sol.converged
        chi2 = float(sol.residuals @ sol.residuals)
        key = (chi2, tuple(sol.x))
        if best is None or key < best[0]:
            best = (key, sol)
    (chi2, _), sol = best

    full = p_full.copy()
    full[free_idx] = sol.x
    uncertainties = np.zeros(len(names))
    try:
        cov = np.linalg.inv(sol.jac.T @ sol.jac)
        uncertainties[free_idx] = np.sqrt(np.clip(np.diag(cov), 0, None))
    except np.linalg.LinAlgError:
        uncertainties[free_idx] = np.nan
    dof = max(len(x) - len(free_idx), 1)
    return FitResult(
        kind=kind, params=full, uncertainties=uncertainties,
        chi2=chi2, reduced_chi2=chi2 / dof, n_iterations=sol.n_jacobians,
        n_evaluations=sol.n_evaluations, converged=sol.converged,
        starts_converged=starts_converged,
        fixed=tuple(n for n in names if n not in free_names),
        message=sol.message,
    )


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
        # Median is robust against the smeared rise just left of zero;
        # statistics.median, as np.median would import numpy.ma.
        baseline = (statistics.median(y[x < 0].tolist()) if np.any(x < 0)
                    else float(np.min(y)))
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
