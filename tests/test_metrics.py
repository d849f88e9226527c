import math

import numpy as np
import pytest

from biphoton.errors import ValidationError
from biphoton.metrics import (ODContext, PhaseMatchSpec, atom_number,
                              bandwidth_from_tau, cauchy_schwarz,
                              check_phase_matching, spectral_brightness)

NOMINAL = dict(lambda_p1_nm=780.0, lambda_p2_nm=776.0,
               lambda_s_nm=762.0, lambda_i_nm=795.0)


class TestPhaseMatching:
    def test_exact_colinear_identity_passes_with_zero_residuals(self):
        # Choose output wavelengths so 1/l_s + 1/l_i = 1/l_p1 + 1/l_p2 exactly.
        lp1, lp2, ls = 780.0, 776.0, 762.0
        li = 1.0 / (1.0 / lp1 + 1.0 / lp2 - 1.0 / ls)
        spec = PhaseMatchSpec.colinear(lp1, lp2, ls, li)
        report = check_phase_matching(spec, rel_tol=1e-9)
        assert report.passes
        assert report.momentum_relative < 1e-12
        assert report.energy_relative < 1e-12

    def test_nominal_wavelengths_pass_loose_fail_tight(self):
        spec = PhaseMatchSpec.colinear(**NOMINAL)
        loose = check_phase_matching(spec, rel_tol=1e-3)
        tight = check_phase_matching(spec, rel_tol=1e-5)
        assert loose.passes
        assert not tight.passes
        # Rounded nominal wavelengths leave a relative residual of a few 1e-4.
        assert 1e-5 < loose.energy_relative < 1e-3

    def test_reversed_idler_fails_with_double_k_residual(self):
        spec = PhaseMatchSpec.colinear(**NOMINAL)
        flipped = PhaseMatchSpec(
            k_p1=spec.k_p1, k_p2=spec.k_p2, k_s=spec.k_s,
            k_i=tuple(-k for k in spec.k_i),
            omega_p1=spec.omega_p1, omega_p2=spec.omega_p2,
            omega_s=spec.omega_s, omega_i=spec.omega_i)
        report = check_phase_matching(flipped, rel_tol=1e-3)
        assert not report.passes
        k_i_norm = np.linalg.norm(spec.k_i)
        assert np.linalg.norm(report.momentum_residual) == pytest.approx(
            2.0 * k_i_norm, rel=1e-3)

    def test_rejects_nonpositive_tolerance(self):
        spec = PhaseMatchSpec.colinear(**NOMINAL)
        with pytest.raises(ValidationError):
            check_phase_matching(spec, rel_tol=0.0)


class TestBandwidth:
    def test_4_4_ns_gives_36_2_mhz(self):
        assert bandwidth_from_tau(4.4) == pytest.approx(36.2, abs=0.05)

    def test_exact_reciprocal_point(self):
        # tau_c = 1/(2 pi) us makes the bandwidth exactly 1 MHz.
        assert bandwidth_from_tau(1e3 / (2 * math.pi)) == pytest.approx(1.0, rel=1e-12)

    def test_reciprocity(self):
        for tau in (0.5, 4.4, 18.9, 100.0):
            assert bandwidth_from_tau(tau) * tau == pytest.approx(
                1e3 / (2 * math.pi), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            bandwidth_from_tau(0.0)


class TestBrightness:
    def test_expected_value_from_1e4_rate(self):
        b = spectral_brightness(1e4, 4.4)
        assert b == pytest.approx(276.5, abs=0.5)

    def test_zero_rate_gives_zero(self):
        assert spectral_brightness(0.0, 4.4) == 0.0

    def test_rate_equal_to_bandwidth_gives_unity(self):
        bw_hz = bandwidth_from_tau(4.4)
        assert spectral_brightness(bw_hz, 4.4) == pytest.approx(1.0, rel=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            spectral_brightness(-1.0, 4.4)


class TestCauchySchwarz:
    def test_strong_cross_correlation_is_nonclassical(self):
        r = cauchy_schwarz(1270.0, 1.77, 1.63)
        assert r.ratio == pytest.approx(5.59e5, rel=0.001)
        assert not r.classical

    def test_coherent_light_saturates_the_bound(self):
        r = cauchy_schwarz(1.0, 1.0, 1.0)
        assert r.ratio == 1.0
        assert r.classical

    def test_thermal_light_is_classical(self):
        r = cauchy_schwarz(2.0, 2.0, 2.0)
        assert r.ratio == 1.0
        assert r.classical

    def test_nonpositive_autos_rejected(self):
        with pytest.raises(ValidationError):
            cauchy_schwarz(10.0, 0.0, 1.0)


class TestAtomNumber:
    def test_od_20_default_geometry(self):
        n = atom_number(20.0, ODContext())
        assert n == pytest.approx(5.5e7, rel=0.01)

    def test_zero_od_gives_zero(self):
        assert atom_number(0.0, ODContext()) == 0.0

    def test_linear_in_area(self):
        base = atom_number(5.0, ODContext(area_cm2=0.008))
        doubled = atom_number(5.0, ODContext(area_cm2=0.016))
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_negative_od_rejected(self):
        with pytest.raises(ValidationError):
            atom_number(-1.0, ODContext())

    def test_invalid_context_rejected(self):
        with pytest.raises(ValidationError):
            ODContext(area_cm2=0.0)
