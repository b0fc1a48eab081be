import math

import numpy as np
import pytest

from capwaves import (
    FluidParams,
    angular_frequency,
    branch_frequency,
    coupling_coefficient,
    min_resonant_vorticity,
    resonant_vorticity,
    tilde_frequency,
)

# Z(50, 50, 100) at the generating vorticity, sigma = 1; frozen from a
# 60-digit decimal evaluation of the coupling formula
Z_50_50_100 = 450.606304869268874762781201710960556832207102003294015455627


def test_fluid_params_validation():
    with pytest.raises(ValueError):
        FluidParams(0.0)
    with pytest.raises(ValueError):
        FluidParams(-1.0)


class TestTildeFrequency:
    def test_zero_vorticity(self, params_unit):
        assert tilde_frequency(4, 0.0, params_unit) == pytest.approx(8.0, abs=1e-14)

    def test_with_vorticity(self, params_unit):
        assert tilde_frequency(1, 2.0, params_unit) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_abs_k_symmetry(self, params_unit):
        assert tilde_frequency(-4, 0.0, params_unit) == pytest.approx(8.0, abs=1e-14)

    def test_zero_wavenumber_rejected(self, params_unit):
        with pytest.raises(ValueError):
            tilde_frequency(0, 0.0, params_unit)

    def test_strictly_increasing_in_abs_k(self, params_unit):
        for omega in (0.0, 2.0, 50.0):
            vals = tilde_frequency(np.arange(1, 200), omega, params_unit)
            assert np.all(np.diff(vals) > 0.0)


class TestAngularFrequency:
    def test_zero_vorticity(self, params_unit):
        assert angular_frequency(4, 0.0, params_unit) == pytest.approx(8.0, abs=1e-14)

    def test_doppler_shift(self, params_unit):
        assert angular_frequency(1, 2.0, params_unit) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-14
        )

    def test_mirror_wavenumber(self, params_unit):
        assert angular_frequency(-1, 2.0, params_unit) == pytest.approx(
            math.sqrt(2.0) + 1.0, rel=1e-14
        )

    def test_branch_is_mirror(self, params_unit):
        for k in (1, 5, -3):
            assert branch_frequency(k, 1.7, params_unit) == pytest.approx(
                angular_frequency(-k, 1.7, params_unit), rel=1e-15
            )

    def test_zero_wavenumber_rejected(self, params_unit):
        with pytest.raises(ValueError):
            angular_frequency(0, 1.0, params_unit)
        with pytest.raises(ValueError, match="nonzero"):
            branch_frequency(0, 1.0, params_unit)

    def test_positive_for_positive_k(self, params_unit):
        vals = angular_frequency(np.arange(1, 101), 2.0, params_unit)
        assert np.all(vals > 0.0)


class TestResonantVorticity:
    def test_minimum_pair(self):
        for sigma in (1.0, 7.23e-5, 3.0):
            params = FluidParams(sigma)
            assert resonant_vorticity(1, 1, params) == pytest.approx(
                2.0 * math.sqrt(sigma / 3.0), rel=1e-14
            )

    @pytest.mark.parametrize("k", [1, 2, 7, 50, 100])
    def test_equal_wavenumbers_collapse(self, k, params_unit):
        # symbolic reduction of the closed form at k1 = k2 = k
        expected = 2.0 * math.sqrt(1.0 / 3.0) * k**1.5
        assert resonant_vorticity(k, k, params_unit) == pytest.approx(expected, rel=1e-13)

    def test_published_near_degeneracy(self, params_unit):
        om1 = resonant_vorticity(20, 94, params_unit)
        om2 = resonant_vorticity(24, 70, params_unit)
        assert om1 != om2
        assert abs(om1 - om2) / om1 < 1e-4

    def test_symmetry_on_grid(self, params_unit):
        a, b = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
        assert np.array_equal(
            resonant_vorticity(a, b, params_unit), resonant_vorticity(b, a, params_unit)
        )

    def test_lower_bound_equality_only_at_unit_pair(self, params_unit):
        a, b = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
        om = resonant_vorticity(a, b, params_unit)
        om_min = min_resonant_vorticity(params_unit)
        assert np.all(om >= om_min - 1e-15)
        at_min = om <= om_min * (1.0 + 1e-12)
        assert at_min.sum() == 1
        assert om[0, 0] == pytest.approx(om_min, rel=1e-14)

    def test_sigma_scaling(self, params_unit):
        a, b = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
        base = resonant_vorticity(a, b, params_unit)
        for sigma in (7.23e-5, 0.3):
            scaled = resonant_vorticity(a, b, FluidParams(sigma))
            assert np.max(np.abs(scaled / base / math.sqrt(sigma) - 1.0)) < 1e-12

    def test_rejects_nonpositive(self, params_unit):
        with pytest.raises(ValueError):
            resonant_vorticity(0, 3, params_unit)
        with pytest.raises(ValueError):
            resonant_vorticity(-2, 3, params_unit)


class TestMinResonantVorticity:
    def test_values(self):
        assert min_resonant_vorticity(FluidParams(1.0)) == pytest.approx(
            1.15470054, abs=5e-9
        )
        assert min_resonant_vorticity(FluidParams(3.0)) == pytest.approx(2.0, rel=1e-14)

    def test_grid_brute_force(self, params_unit):
        a, b = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
        grid_min = resonant_vorticity(a, b, params_unit).min()
        assert grid_min == pytest.approx(min_resonant_vorticity(params_unit), rel=1e-14)


class TestCouplingCoefficient:
    def test_regression_value(self, params_unit):
        omega = resonant_vorticity(50, 50, params_unit)
        z = coupling_coefficient(50, 50, 100, omega, params_unit)
        assert z == pytest.approx(Z_50_50_100, rel=1e-12)

    def test_symmetry(self, params_unit):
        omega = resonant_vorticity(3, 8, params_unit)
        z1 = coupling_coefficient(3, 8, 11, omega, params_unit)
        z2 = coupling_coefficient(8, 3, 11, omega, params_unit)
        assert z1 == pytest.approx(z2, rel=1e-15)

    def test_sigma_scaling(self):
        for k1, k2 in ((1, 1), (50, 50), (20, 94)):
            base = coupling_coefficient(
                k1, k2, k1 + k2, resonant_vorticity(k1, k2, FluidParams(1.0)), FluidParams(1.0)
            )
            for sigma in (1e-5, 7.23e-5, 0.5):
                params = FluidParams(sigma)
                z = coupling_coefficient(
                    k1, k2, k1 + k2, resonant_vorticity(k1, k2, params), params
                )
                assert z / base == pytest.approx(sigma**0.25, rel=1e-12)

    def test_triad_precondition(self, params_unit):
        with pytest.raises(ValueError):
            coupling_coefficient(1, 2, 4, 1.0, params_unit)

    def test_off_resonance_warns_but_evaluates(self, params_unit):
        with pytest.warns(UserWarning):
            z = coupling_coefficient(2, 3, 5, 1.0, params_unit)
        assert math.isfinite(z)


def test_resonance_closure_sample(params_unit):
    # the generating vorticity closes the triad exactly on the mirror branch
    for a, b in ((1, 1), (2, 3), (20, 94), (50, 50), (1, 99)):
        omega = resonant_vorticity(a, b, params_unit)
        mismatch = abs(
            branch_frequency(a, omega, params_unit)
            + branch_frequency(b, omega, params_unit)
            - branch_frequency(a + b, omega, params_unit)
        )
        assert mismatch < 1e-9 * branch_frequency(a + b, omega, params_unit)
