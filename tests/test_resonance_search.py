import math

import numpy as np
import pytest
from scipy.optimize import brentq

from capwaves import (
    FluidParams,
    branch_frequency,
    enumerate_triads,
    min_positive_width,
    min_resonant_vorticity,
    resonance_width,
    resonant_vorticity,
)
from capwaves.dispersion import RESONANCE_REL_TOL


class TestEnumerateTriads:
    def test_pair_count(self, triads_100):
        assert len(triads_100) == 100 * 101 // 2

    def test_single_pair_domain(self, params_unit):
        triads = enumerate_triads(1, params_unit)
        assert len(triads) == 1
        t = triads[0]
        assert t.wavenumbers == (1, 1, 2)
        assert t.omega_gen == pytest.approx(min_resonant_vorticity(params_unit), rel=1e-14)

    def test_rejects_zero_kmax(self, params_unit):
        with pytest.raises(ValueError):
            enumerate_triads(0, params_unit)

    def test_sorted_by_vorticity(self, triads_100):
        omegas = [t.omega_gen for t in triads_100]
        assert omegas == sorted(omegas)
        assert triads_100[0].wavenumbers == (1, 1, 2)

    def test_completeness(self, triads_100):
        pairs = {(t.k1, t.k2) for t in triads_100}
        assert pairs == {(a, b) for a in range(1, 101) for b in range(a, 101)}

    def test_sum_mode_not_clipped(self, triads_by_wn):
        assert (20, 94, 114) in triads_by_wn
        assert (79, 80, 159) in triads_by_wn

    def test_published_vorticity_gap(self, triads_by_wn):
        om1 = triads_by_wn[(20, 94, 114)].omega_gen
        om2 = triads_by_wn[(24, 70, 94)].omega_gen
        assert abs(om1 - om2) / max(om1, om2) < 1e-4

    def test_zero_width_certificate(self, triads_100, params_unit):
        for t in triads_100:
            width = resonance_width(t.k1, t.k2, t.omega_gen, params_unit)
            assert width < 1e-9 * branch_frequency(t.k3, t.omega_gen, params_unit)


class TestResonanceWidth:
    def test_irrotational_unit_pair(self, params_unit):
        assert resonance_width(1, 1, 0.0, params_unit) == pytest.approx(
            abs(2.0 - 2.0**1.5), rel=1e-12
        )

    def test_irrotational_one_two(self, params_unit):
        assert resonance_width(1, 2, 0.0, params_unit) == pytest.approx(
            abs(1.0 + 2.0**1.5 - 3.0**1.5), rel=1e-6
        )

    def test_vanishes_at_generating_vorticity(self, params_unit):
        for a, b in ((1, 5), (13, 14), (40, 99)):
            omega = resonant_vorticity(a, b, params_unit)
            scale = branch_frequency(a + b, omega, params_unit)
            assert resonance_width(a, b, omega, params_unit) < 1e-9 * scale

    def test_rejects_nonpositive(self, params_unit):
        with pytest.raises(ValueError):
            resonance_width(0, 2, 1.0, params_unit)

    def test_bisection_recovers_generating_vorticity(self, params_unit):
        # the signed mismatch is continuous and changes sign across omega_gen
        for a, b in ((7, 11), (30, 41)):
            omega_gen = resonant_vorticity(a, b, params_unit)

            def mismatch(om):
                return (
                    branch_frequency(a, om, params_unit)
                    + branch_frequency(b, om, params_unit)
                    - branch_frequency(a + b, om, params_unit)
                )

            root = brentq(mismatch, 0.5 * omega_gen, 2.0 * omega_gen, xtol=1e-13 * omega_gen)
            assert abs(root - omega_gen) / omega_gen < 1e-10


class TestMinPositiveWidth:
    def test_single_candidate(self, params_unit):
        assert min_positive_width(1, 0.0, params_unit) == pytest.approx(
            resonance_width(1, 1, 0.0, params_unit), rel=1e-15
        )

    @pytest.mark.parametrize("pair", [None, (5, 7)])
    def test_brute_force_minimum(self, params_unit, pair):
        omega = 0.0 if pair is None else resonant_vorticity(*pair, params_unit)
        widths = {
            (k1, k2): resonance_width(k1, k2, omega, params_unit)
            for k1 in range(1, 21)
            for k2 in range(k1, 21)
        }
        expected = min(
            w
            for (k1, k2), w in widths.items()
            if w >= RESONANCE_REL_TOL * branch_frequency(k1 + k2, omega, params_unit)
        )
        assert min_positive_width(20, omega, params_unit) == pytest.approx(expected, rel=1e-15)

    def test_irrotational_domain_is_frozen(self, params_unit):
        # without vorticity no pair comes close to resonance
        assert min_positive_width(100, 0.0, params_unit) > 1e-6

    def test_resonant_vorticity_excludes_exact_family(self, params_unit):
        omega = resonant_vorticity(50, 50, params_unit)
        width = min_positive_width(100, omega, params_unit)
        assert width > 0.0

    def test_empty_domain_rejected(self, params_unit):
        with pytest.raises(ValueError, match="kmax must be a positive integer"):
            min_positive_width(0, 0.0, params_unit)

    def test_all_exact_domain_raises(self, params_unit):
        omega = resonant_vorticity(1, 1, params_unit)
        with pytest.raises(ValueError, match="no positive width"):
            min_positive_width(1, omega, params_unit)
