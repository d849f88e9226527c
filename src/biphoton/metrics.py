"""Derived physics quantities: bandwidth, spectral brightness,
Cauchy-Schwarz ratio, scattering rate, and atom-number bookkeeping.

All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

RB_D2_LINEWIDTH_MHZ = 6.065  # natural linewidth, also the absorption-fit guess


@dataclass(frozen=True)
class ODContext:
    """Absorption-probe geometry and saturation parameters."""

    sigma0_cm2: float = 2.907e-9  # on-resonance cross section
    area_cm2: float = 0.008  # probe beam area
    s0: float = 0.0  # I / I_sat
    gamma_mhz: float = RB_D2_LINEWIDTH_MHZ
    detuning_mhz: float = 0.0

    def __post_init__(self):
        if self.sigma0_cm2 <= 0 or self.area_cm2 <= 0:
            raise ValidationError("must be positive", field="sigma0/area")
        if self.s0 < 0:
            raise ValidationError("must be non-negative", field="s0")
        if self.gamma_mhz <= 0:
            raise ValidationError("must be positive", field="gamma_mhz")


@dataclass(frozen=True)
class CauchyReport:
    g2_si_max: float
    g2_ss_0: float
    g2_ii_0: float
    ratio: float
    classical: bool  # ratio <= 1


@dataclass(frozen=True)
class BrightnessReport:
    tau_c_ns: float
    bandwidth_mhz: float
    coincidence_rate_hz: float
    brightness_per_mhz_s: float


def bandwidth_from_tau(tau_c_ns: float) -> float:
    """Single-photon bandwidth in MHz from the 1/e coherence time in ns."""
    if tau_c_ns <= 0:
        raise ValidationError("tau_c must be positive", field="tau_c_ns")
    return 1e3 / (2.0 * math.pi * tau_c_ns)


def spectral_brightness(coincidence_rate_hz: float, tau_c_ns: float) -> float:
    """Pairs per second per MHz of bandwidth: 2 pi tau_c r_c."""
    if coincidence_rate_hz < 0:
        raise ValidationError("rate must be non-negative", field="coincidence_rate_hz")
    return coincidence_rate_hz / bandwidth_from_tau(tau_c_ns)


def brightness_report(coincidence_rate_hz: float, tau_c_ns: float) -> BrightnessReport:
    return BrightnessReport(
        tau_c_ns=tau_c_ns,
        bandwidth_mhz=bandwidth_from_tau(tau_c_ns),
        coincidence_rate_hz=coincidence_rate_hz,
        brightness_per_mhz_s=spectral_brightness(coincidence_rate_hz, tau_c_ns),
    )


def cauchy_schwarz(g2_si_max: float, g2_ss_0: float, g2_ii_0: float) -> CauchyReport:
    """Classicality test R = g2_si^2 / (g2_ss g2_ii); R > 1 is non-classical."""
    if g2_ss_0 <= 0 or g2_ii_0 <= 0:
        raise ValidationError("auto-correlation peaks must be positive",
                              field="g2_ss_0/g2_ii_0")
    ratio = g2_si_max * g2_si_max / (g2_ss_0 * g2_ii_0)
    return CauchyReport(g2_si_max=g2_si_max, g2_ss_0=g2_ss_0, g2_ii_0=g2_ii_0,
                        ratio=ratio, classical=ratio <= 1.0)


def scattering_rate(ctx: ODContext) -> float:
    """Photon scattering rate in MHz, full saturation form."""
    g = ctx.gamma_mhz
    return (ctx.s0 * g / 2.0) / (1.0 + ctx.s0 + (2.0 * ctx.detuning_mhz / g) ** 2)


def scattering_rate_low_saturation(ctx: ODContext) -> float:
    """Low-saturation branch (I << I_sat) of the scattering rate, MHz."""
    g = ctx.gamma_mhz
    return (ctx.s0 * g / 2.0) * g * g / (g * g + 4.0 * ctx.detuning_mhz ** 2)


def atom_number(od: float, ctx: ODContext) -> float:
    """Absorbing atoms behind an optical density: N = OD * A / sigma0."""
    if od < 0:
        raise ValidationError("OD must be non-negative", field="od")
    return od * ctx.area_cm2 / ctx.sigma0_cm2
