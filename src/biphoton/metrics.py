"""Derived physics quantities: phase matching of the diamond scheme,
bandwidth, spectral brightness, Cauchy-Schwarz ratio, and atom-number
bookkeeping.

All functions are pure and stateless. Wavevectors are in rad/m and
optical angular frequencies in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_fields

RB_D2_LINEWIDTH_MHZ = 6.065  # natural linewidth, also the absorption-fit guess
SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class PhaseMatchSpec:
    """Wavevectors (rad/m) and angular frequencies (rad/s) of the four fields."""

    k_p1: tuple[float, float, float]
    k_p2: tuple[float, float, float]
    k_s: tuple[float, float, float]
    k_i: tuple[float, float, float]
    omega_p1: float
    omega_p2: float
    omega_s: float
    omega_i: float

    @classmethod
    def colinear(cls, lambda_p1_nm, lambda_p2_nm, lambda_s_nm, lambda_i_nm,
                 axis=(0.0, 0.0, 1.0)):
        """Co-linear geometry from vacuum wavelengths in nm."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)

        def k_of(lam_nm):
            k = 2.0 * math.pi / (lam_nm * 1e-9)
            return tuple(k * axis)

        def w_of(lam_nm):
            return 2.0 * math.pi * SPEED_OF_LIGHT / (lam_nm * 1e-9)

        return cls(
            k_p1=k_of(lambda_p1_nm), k_p2=k_of(lambda_p2_nm),
            k_s=k_of(lambda_s_nm), k_i=k_of(lambda_i_nm),
            omega_p1=w_of(lambda_p1_nm), omega_p2=w_of(lambda_p2_nm),
            omega_s=w_of(lambda_s_nm), omega_i=w_of(lambda_i_nm),
        )


@dataclass(frozen=True)
class PhaseMatchReport:
    momentum_residual: tuple[float, float, float]
    energy_residual: float
    momentum_relative: float
    energy_relative: float
    passes: bool


def check_phase_matching(spec: PhaseMatchSpec, rel_tol: float) -> PhaseMatchReport:
    """Evaluate momentum and energy conservation of a four-field geometry.

    Passes iff both the momentum residual (relative to |k_p1 + k_p2|) and
    the energy residual (relative to omega_p1 + omega_p2) are within
    ``rel_tol``.
    """
    if rel_tol <= 0:
        raise ValidationError("rel_tol must be positive", field="rel_tol")
    kp1 = np.asarray(spec.k_p1, dtype=float)
    kp2 = np.asarray(spec.k_p2, dtype=float)
    ks = np.asarray(spec.k_s, dtype=float)
    ki = np.asarray(spec.k_i, dtype=float)
    if np.linalg.norm(kp1) == 0 or np.linalg.norm(kp2) == 0:
        raise ValidationError("pump wavevectors must be non-zero", field="k_p1/k_p2")

    pump_k = kp1 + kp2
    dk = pump_k - ks - ki
    pump_w = spec.omega_p1 + spec.omega_p2
    dw = pump_w - spec.omega_s - spec.omega_i

    mom_rel = float(np.linalg.norm(dk) / np.linalg.norm(pump_k))
    en_rel = abs(dw) / pump_w
    return PhaseMatchReport(
        momentum_residual=tuple(dk),
        energy_residual=float(dw),
        momentum_relative=mom_rel,
        energy_relative=float(en_rel),
        passes=bool(mom_rel <= rel_tol and en_rel <= rel_tol),
    )


@dataclass(frozen=True)
class ODContext:
    """Absorption-probe geometry."""

    sigma0_cm2: float = 2.907e-9  # on-resonance cross section
    area_cm2: float = 0.008  # probe beam area

    def __post_init__(self):
        check_fields(self)
        if self.sigma0_cm2 <= 0 or self.area_cm2 <= 0:
            raise ValidationError("must be positive", field="sigma0/area")


@dataclass(frozen=True)
class CauchyReport:
    g2_si_max: float
    g2_ss_0: float
    g2_ii_0: float
    ratio: float
    classical: bool  # ratio <= 1


def bandwidth_from_tau(tau_c_ns: float) -> float:
    """Single-photon bandwidth in MHz from the 1/e coherence time in ns."""
    if not 0 < tau_c_ns < math.inf:
        raise ValidationError("tau_c must be positive and finite", field="tau_c_ns")
    return 1e3 / (2.0 * math.pi * tau_c_ns)


def spectral_brightness(coincidence_rate_hz: float, tau_c_ns: float) -> float:
    """Pairs per second per MHz of bandwidth: 2 pi tau_c r_c."""
    if not 0 <= coincidence_rate_hz < math.inf:
        raise ValidationError("must be finite and non-negative", field="coincidence_rate_hz")
    return coincidence_rate_hz / bandwidth_from_tau(tau_c_ns)


def cauchy_schwarz(g2_si_max: float, g2_ss_0: float, g2_ii_0: float) -> CauchyReport:
    """Classicality test R = g2_si^2 / (g2_ss g2_ii); R > 1 is non-classical."""
    if g2_ss_0 <= 0 or g2_ii_0 <= 0:
        raise ValidationError("auto-correlation peaks must be positive",
                              field="g2_ss_0/g2_ii_0")
    ratio = g2_si_max * g2_si_max / (g2_ss_0 * g2_ii_0)
    return CauchyReport(g2_si_max=g2_si_max, g2_ss_0=g2_ss_0, g2_ii_0=g2_ii_0,
                        ratio=ratio, classical=ratio <= 1.0)


def atom_number(od: float, ctx: ODContext) -> float:
    """Absorbing atoms behind an optical density: N = OD * A / sigma0."""
    if od < 0:
        raise ValidationError("OD must be non-negative", field="od")
    return od * ctx.area_cm2 / ctx.sigma0_cm2
