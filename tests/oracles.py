"""Independent reference implementations used to validate the library.

These deliberately avoid sharing code with the package: the convolution
oracle integrates the defining integral numerically, the bin-mean oracle
integrates the point model's closed form at 20 digits, the correlator
oracle enumerates all pairs, the chaotic-light oracle synthesises the
field on a time grid, and the dead-time oracle walks every tag.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.signal import lfilter


def convolved_exponential(t, tau, sigma):
    """Numerical quadrature of int_0^inf exp(-s/tau) N(t - s; sigma) ds.

    The integrand has a kink at s = 0 and a peak near s = t, so the range
    is split there for the adaptive quadrature. The Gaussian is written out
    with ``math.exp``: a per-point ``scipy.stats.norm.pdf`` call cost about
    200 times as much, for the same values to a few ulp.
    """
    if sigma == 0:
        return float(np.exp(-t / tau)) if t >= 0 else 0.0
    hi = max(t + 12.0 * sigma, 0.0) + 16.0 * tau
    scale = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    val, _ = quad(lambda s: math.exp(-s / tau)
                  * math.exp(-0.5 * ((t - s) / sigma) ** 2) * scale,
                  0.0, hi, points=[max(t, 0.0)], limit=400)
    return val


def cross_model(t, amplitude, tau_c, tau_d, baseline):
    """Reference cross-correlation model via quadrature."""
    return baseline + amplitude * convolved_exponential(t, tau_c, tau_d)


def auto_model(t, g0, tau_c, tau_d, baseline):
    """Reference symmetric auto-correlation model via quadrature."""
    half = tau_c / 2.0
    return baseline + g0 * (convolved_exponential(t, half, tau_d)
                            + convolved_exponential(-t, half, tau_d))


def bin_mean(lo, hi, tau_c, tau_d, auto=False):
    """Mean over [lo, hi] of the unit cross model, exp(-t/tau_c) step(t)
    convolved with a Gaussian of width tau_d, or with ``auto`` of the unit
    auto bump, that model at tau_c / 2 plus its mirror image.

    mpmath's tanh-sinh quadrature at 20 digits of the closed form
    e^(tau_d^2/(2 tau^2) - t/tau) erfc((tau_d^2 - t tau)/(sqrt 2 tau_d tau))
    / 2, with the range split at 0, where the step or the bump's peak sits.
    """
    with mpmath.workdps(20):
        lo, hi, tau_c, s = (mpmath.mpf(float(v)) for v in (lo, hi, tau_c, tau_d))
        tau = tau_c / 2 if auto else tau_c

        def point(t):
            if s == 0:
                return mpmath.exp(-t / tau) if t >= 0 else mpmath.mpf(0)
            return (mpmath.exp(s * s / (2 * tau * tau) - t / tau)
                    * mpmath.erfc((s * s - t * tau) / (mpmath.sqrt(2) * s * tau)) / 2)

        curve = (lambda t: point(t) + point(-t)) if auto else point
        points = [lo, mpmath.mpf(0), hi] if lo < 0 < hi else [lo, hi]
        return float(mpmath.quad(curve, points) / (hi - lo))


def brute_force_histogram(channels, timestamps, *, channel_a, channel_b,
                          dt_min_ps, bin_width_ps, n_bins):
    """O(N^2) all-pairs coincidence histogram.

    Counts every ordered pair (a, b) with dt = t_b - t_a in
    [dt_min, dt_min + n_bins * bin_width); in the auto case (same channel)
    a tag is not paired with itself, but distinct simultaneous tags are.
    """
    channels = np.asarray(channels)
    timestamps = np.asarray(timestamps, dtype=np.int64)
    ta = timestamps[channels == channel_a]
    tb = timestamps[channels == channel_b]
    dt_end_ps = dt_min_ps + n_bins * bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    chunk = max(1, 10_000_000 // max(len(tb), 1))
    for i in range(0, len(ta), chunk):
        # Every pair's delay less (dt_min - bin_width), so that its floor
        # quotient is the bin index + 1; clipped to an underflow bin 0 and
        # an overflow bin n_bins + 1, and counted in one pass.
        dt = tb[None, :] - (ta[i:i + chunk, None] + (dt_min_ps - bin_width_ps))
        dt //= bin_width_ps
        np.clip(dt, 0, n_bins + 1, out=dt)
        counts += np.bincount(dt.ravel(), minlength=n_bins + 2)[1:-1]
    if channel_a == channel_b and dt_min_ps <= 0 < dt_end_ps:
        counts[(0 - dt_min_ps) // bin_width_ps] -= len(ta)
    return counts


def chaotic_on_grid(rate, tau, duration_ns, grid_dt_ns, seed):
    """Chaotic event times (int64 ps, sorted) over ``[0, duration_ns)``.

    The field is a unit-power complex AR(1) process on a grid of
    ``grid_dt_ns`` cells with correlation time ``tau`` (ns), held constant
    within a cell; each cell emits a Poisson number of events at
    ``rate`` (s^-1) times its intensity, placed uniformly in the cell.
    Cells are synthesised in chunks of 2^20, the filter state carried
    across, so memory stays bounded.
    """
    rng = np.random.default_rng(seed)
    n_cells = int(np.ceil(duration_ns / grid_dt_ns))
    rho = np.exp(-grid_dt_ns / tau)
    drive = np.sqrt(1.0 - rho * rho)
    # Stationary start: each quadrature has variance 1/2.
    zi = rho * rng.standard_normal((2, 1)) / np.sqrt(2)
    times = [np.zeros(0)]
    for first in range(0, n_cells, 1 << 20):
        n = min(1 << 20, n_cells - first)
        field, zi = lfilter([drive], [1.0, -rho],
                            rng.standard_normal((2, n)) / np.sqrt(2), zi=zi)
        # Per-cell Poisson counts are one Poisson total thrown onto the
        # cells in proportion to their intensity.
        cum = np.cumsum(np.square(field).sum(axis=0))
        total = rng.poisson(rate * grid_dt_ns * 1e-9 * cum[-1])
        cells = first + np.searchsorted(cum, rng.random(total) * cum[-1], side="right")
        times.append(np.sort((cells + rng.random(total)) * grid_dt_ns))
    return (np.concatenate(times) * 1000).astype(np.int64)


def dead_time_mask(times_ps, dead_ps):
    """Greedy dead-time mask over sorted tags: a tag is dropped when it
    comes less than ``dead_ps`` after the last kept tag."""
    keep = np.ones(len(times_ps), dtype=bool)
    last = None
    for i, t in enumerate(times_ps):
        if last is not None and t - last < dead_ps:
            keep[i] = False
        else:
            last = t
    return keep
