import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from capwaves import (
    TriadInvariants,
    build_clusters,
    build_system,
    closed_form_amplitudes,
    closed_form_phase,
    complete_elliptic_K,
    dynamical_phases,
    jacobi_elliptic,
    refine_minimum,
    solve_dense,
    triad_elliptic_params,
)


class TestJacobiElliptic:
    def test_origin(self):
        assert jacobi_elliptic(0.0, 0.7) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)

    def test_circular_limit(self):
        xs = np.linspace(-5.0, 5.0, 11)
        sn, cn, dn = jacobi_elliptic(xs, 0.0)
        np.testing.assert_allclose(sn, np.sin(xs), atol=1e-15)
        np.testing.assert_allclose(cn, np.cos(xs), atol=1e-15)
        np.testing.assert_allclose(dn, 1.0, atol=1e-15)

    def test_hyperbolic_limit(self):
        xs = np.linspace(-3.0, 3.0, 11)
        sn, cn, dn = jacobi_elliptic(xs, 1.0)
        np.testing.assert_allclose(sn, np.tanh(xs), atol=1e-15)
        np.testing.assert_allclose(cn, 1.0 / np.cosh(xs), atol=1e-15)
        np.testing.assert_allclose(dn, 1.0 / np.cosh(xs), atol=1e-15)

    def test_identities_random(self):
        rng = np.random.default_rng(2024)
        xs = rng.uniform(-20.0, 20.0, 1000)
        mus = rng.uniform(0.0, 1.0, 1000)
        for x, mu in zip(xs, mus):
            sn, cn, dn = jacobi_elliptic(x, mu)
            assert abs(sn**2 + cn**2 - 1.0) < 1e-12
            assert abs(dn**2 + (mu * sn) ** 2 - 1.0) < 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            x = rng.uniform(-15.0, 15.0)
            mu = rng.uniform(0.0, 0.999)
            sn, cn, dn = jacobi_elliptic(x, mu)
            sn_ref, cn_ref, dn_ref, _ = scipy.special.ellipj(x, mu**2)
            assert sn == pytest.approx(sn_ref, abs=5e-12)
            assert cn == pytest.approx(cn_ref, abs=5e-12)
            assert dn == pytest.approx(dn_ref, abs=5e-12)

    def test_modulus_range(self):
        with pytest.raises(ValueError):
            jacobi_elliptic(1.0, -0.1)
        with pytest.raises(ValueError):
            jacobi_elliptic(1.0, 1.1)


class TestCompleteEllipticK:
    def test_zero_modulus(self):
        assert complete_elliptic_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_strictly_increasing(self):
        mus = np.linspace(0.0, 0.999, 200)
        vals = [complete_elliptic_K(m) for m in mus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            complete_elliptic_K(1.0)
        with pytest.raises(ValueError):
            complete_elliptic_K(1.5)

    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_against_quadrature(self, mu):
        # independent oracle: direct numerical quadrature of the defining integral
        expected, err = quad(
            lambda theta: 1.0 / math.sqrt(1.0 - (mu * math.sin(theta)) ** 2),
            0.0,
            math.pi / 2.0,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert complete_elliptic_K(mu) == pytest.approx(expected, rel=1e-12)

    def test_against_scipy(self):
        for mu in np.linspace(0.0, 0.9999, 50):
            assert complete_elliptic_K(mu) == pytest.approx(
                scipy.special.ellipk(mu**2), rel=1e-14
            )


class TestTriadEllipticParams:
    def test_symmetric_zero_hamiltonian_hits_separatrix(self):
        inv = TriadInvariants(i13=1.0, i23=1.0, h=0.0, z=1.0)
        params = triad_elliptic_params(inv)
        assert (params.rho_a, params.rho_b, params.rho_c) == pytest.approx((0.0, 1.0, 1.0))
        assert params.mu == pytest.approx(1.0)
        assert math.isinf(params.tau)

    def test_asymmetric_zero_hamiltonian_factorizes(self):
        inv = TriadInvariants(i13=1.0, i23=2.0, h=0.0, z=1.0)
        params = triad_elliptic_params(inv)
        assert (params.rho_a, params.rho_b, params.rho_c) == pytest.approx((0.0, 1.0, 2.0))
        assert params.mu**2 == pytest.approx(0.5, rel=1e-12)
        assert params.tau == pytest.approx(
            2.0 * complete_elliptic_K(math.sqrt(0.5)) / math.sqrt(2.0), rel=1e-12
        )

    def test_unphysical_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            triad_elliptic_params(TriadInvariants(i13=1.0, i23=1.0, h=5.0, z=1.0))

    def test_random_states_are_physical(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            b = rng.uniform(0.2, 1.5, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            inv = TriadInvariants.from_state(b[0], b[1], b[2], z=0.7)
            params = triad_elliptic_params(inv)
            assert 0.0 <= params.rho_a <= params.rho_b <= params.rho_c
            assert params.rho_b <= min(inv.i13, inv.i23) + 1e-12

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            TriadInvariants(i13=-1.0, i23=1.0, h=0.0, z=1.0)
        with pytest.raises(ValueError):
            TriadInvariants(i13=1.0, i23=1.0, h=0.0, z=0.0)


@pytest.fixture(scope="module")
def triad_setup(triads_by_wn):
    [cluster] = build_clusters([triads_by_wn[(5, 7, 12)]], 1e-3)
    system = build_system(cluster)
    b0 = np.array([1.0 * np.exp(0.3j), 0.8 * np.exp(-0.2j), 0.5 * np.exp(0.4j)])
    inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], system.terms[0].z)
    return system, b0, inv, triad_elliptic_params(inv)


def _first_minimum_time(sol, t_hi):
    b3 = sol.slot(2)
    grid = np.linspace(0.0, t_hi, 600)
    return refine_minimum(lambda t: np.abs(b3(t)) ** 2, grid, 1e-13, first=True)


class TestClosedFormAmplitudes:
    def test_anchor_at_extremal_root(self, triad_setup):
        _, _, inv, params = triad_setup
        rho1, rho2, rho3 = closed_form_amplitudes(params, inv, 3.7, 3.7)
        assert rho3 == pytest.approx(params.rho_a, abs=1e-13)

    def test_invariant_sums(self, triad_setup):
        _, _, inv, params = triad_setup
        ts = np.linspace(0.0, 3.0 * params.tau, 200)
        rho1, rho2, rho3 = closed_form_amplitudes(params, inv, ts, 0.4)
        np.testing.assert_allclose(rho1 + rho3, inv.i13, rtol=1e-12)
        np.testing.assert_allclose(rho2 + rho3, inv.i23, rtol=1e-12)

    def test_excursion_within_roots(self, triad_setup):
        _, _, inv, params = triad_setup
        ts = np.linspace(0.0, 5.0 * params.tau, 500)
        _, _, rho3 = closed_form_amplitudes(params, inv, ts, 0.0)
        assert np.all(rho3 >= params.rho_a - 1e-12)
        assert np.all(rho3 <= params.rho_b + 1e-12)

    def test_matches_integration(self, triad_setup):
        system, b0, inv, params = triad_setup
        sol = solve_dense(system, b0, 6.5 * params.tau, 1e-11)
        t0 = _first_minimum_time(sol, 1.6 * params.tau)
        ts = np.linspace(0.0, 5.0 * params.tau, 400)
        states = sol(ts)
        rho1, rho2, rho3 = closed_form_amplitudes(params, inv, ts, t0)
        assert np.max(np.abs(rho3 - np.abs(states[2]) ** 2)) < 1e-6
        assert np.max(np.abs(rho1 - np.abs(states[0]) ** 2)) < 1e-6
        assert np.max(np.abs(rho2 - np.abs(states[1]) ** 2)) < 1e-6


class TestClosedFormPhase:
    def test_anchor_value(self, triad_setup):
        _, _, inv, params = triad_setup
        phi0 = 0.5
        assert closed_form_phase(params, inv, phi0, 2.2, 2.2) == pytest.approx(math.pi / 2.0)
        assert closed_form_phase(params, inv, -phi0, 2.2, 2.2) == pytest.approx(-math.pi / 2.0)

    def test_sign_symmetry(self, triad_setup):
        _, _, inv, params = triad_setup
        ts = np.linspace(0.0, 2.0 * params.tau, 50)
        plus = closed_form_phase(params, inv, 0.3, ts, 0.1)
        minus = closed_form_phase(params, inv, -0.3, ts, 0.1)
        np.testing.assert_allclose(plus, -minus, rtol=1e-14)

    def test_locked_state_rejected(self, triad_setup):
        _, _, inv, params = triad_setup
        locked = TriadInvariants(inv.i13, inv.i23, 0.0, inv.z)
        with pytest.raises(ValueError):
            closed_form_phase(triad_elliptic_params(locked), locked, 0.5, 1.0, 0.0)

    def test_matches_integration(self, triad_setup):
        system, b0, inv, params = triad_setup
        sol = solve_dense(system, b0, 6.5 * params.tau, 1e-11)
        t0 = _first_minimum_time(sol, 1.6 * params.tau)
        phi0 = float(dynamical_phases(system, b0)[0])
        ts = np.linspace(0.0, 5.0 * params.tau, 400)
        measured = np.array([dynamical_phases(system, sol(t))[0] for t in ts])
        keep = ~np.isnan(measured)
        predicted = closed_form_phase(params, inv, phi0, ts[keep], t0)
        assert np.max(np.abs(predicted - measured[keep])) < 1e-4
