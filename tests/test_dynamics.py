import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import capwaves.clustering
import capwaves.dynamics
from capwaves import (
    ClusterSystem,
    FluidParams,
    TriadInvariants,
    build_clusters,
    build_system,
    characteristic_time,
    conservation_count,
    conserved_quadratics,
    dynamical_phases,
    enumerate_triads,
    hamiltonian,
    identification_count,
    integrate,
    measure_period,
    phase_lock_residual,
    solve_dense,
    time_derivative,
    triad_elliptic_params,
)
from capwaves.dynamics import (
    IntegrationError,
    TriadTerm,
    drift_report,
    mode_labels,
    refine_minimum,
)

REFERENCE_TOPOLOGIES = ["triad_system", "pp_butterfly", "aa_butterfly", "three_star", "four_star"]


@pytest.fixture(scope="module")
def triad_system(triads_by_wn):
    [cluster] = build_clusters([triads_by_wn[(5, 7, 12)]], 1e-3)
    return build_system(cluster)


@pytest.fixture(scope="module")
def pp_butterfly(triads_by_wn):
    [cluster] = build_clusters(
        [triads_by_wn[(5, 9, 14)], triads_by_wn[(5, 11, 16)]], 0.9
    )
    return build_system(cluster)


@pytest.fixture(scope="module")
def aa_butterfly(triads_by_wn):
    [cluster] = build_clusters(
        [triads_by_wn[(50, 50, 100)], triads_by_wn[(49, 51, 100)]], 1e-3
    )
    return build_system(cluster)


@pytest.fixture(scope="module")
def three_star(triads_by_wn):
    [cluster] = build_clusters(
        [triads_by_wn[k] for k in [(79, 80, 159), (78, 81, 159), (77, 82, 159)]], 1e-3
    )
    return build_system(cluster)


@pytest.fixture(scope="module")
def four_star(triads_by_wn):
    star = [(48, 48, 96), (47, 49, 96), (28, 96, 124), (46, 50, 96)]
    [cluster] = build_clusters([triads_by_wn[k] for k in star], 1e-3)
    return build_system(cluster)


def _random_states(system, count, seed):
    """Random complex states, a few with exactly zero amplitudes."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.2, 1.5, (count, system.n_modes)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (count, system.n_modes))
    )
    states[::4, 0] = 0.0
    states[1::4, -1] = 0.0
    return states


class TestBuildSystem:
    def test_isolated_triad(self, triad_system):
        assert triad_system.n_modes == 3
        assert triad_system.n_triads == 1
        assert triad_system.modes == (5, 7, 12)
        np.testing.assert_array_equal(triad_system.incidence, [[1], [1], [-1]])

    def test_joint_passive_pair_shares_one_slot(self, pp_butterfly):
        assert pp_butterfly.n_modes == 5
        assert pp_butterfly.terms[0].m1 == pp_butterfly.terms[1].m1
        assert pp_butterfly.modes.count(5) == 1

    def test_joint_active_pair(self, aa_butterfly):
        assert aa_butterfly.n_modes == 5
        assert aa_butterfly.terms[0].m3 == aa_butterfly.terms[1].m3
        # the degenerate pair keeps two slots for the duplicated wavenumber
        assert aa_butterfly.modes.count(50) == 2

    def test_three_star_shares_active_slot(self, three_star):
        assert three_star.n_modes == 7
        slots = {t.m3 for t in three_star.terms}
        assert len(slots) == 1

    def test_four_star(self, four_star):
        assert four_star.n_modes == 9
        assert np.linalg.matrix_rank(four_star.incidence.astype(float)) == 4

    def test_duplicated_and_shared_value_merges(self, triads_by_wn):
        # (5,5,10) duplicates 5 internally while (4,5,9) shares it, and
        # (3,3,6) duplicates 3 while (1,2,3) shares it: one slot each, on
        # which the doubled term adds twice
        rng = np.random.default_rng(11)
        for pair in [[(5, 5, 10), (4, 5, 9)], [(3, 3, 6), (1, 2, 3)]]:
            [cluster] = build_clusters([triads_by_wn[wn] for wn in pair], 0.99)
            system = build_system(cluster)
            [doubled] = [t for t in system.terms if system.modes[t.m1] == system.modes[t.m2]]
            assert doubled.m1 == doubled.m2
            basis = conserved_quadratics(system)
            assert len(basis) == conservation_count(cluster)
            # momentum, c = k, is in the span of the basis
            momentum = np.array(system.modes)
            assert np.linalg.matrix_rank(np.vstack([basis, momentum])) == len(basis)
            b0 = rng.uniform(0.4, 1.2, system.n_modes) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, system.n_modes)
            )
            t_end = 50.0 * characteristic_time(system, b0)
            traj = integrate(system, b0, t_end, tol=1e-10, samples=400)
            drift = drift_report(system, basis, b0, traj)
            assert drift.hamiltonian < 1e-8 and drift.quadratic < 1e-8

    def test_lone_doubled_triad_maps_to_the_merged_slot(self, triads_by_wn):
        # the two-slot (5,5,10) on B1 = B2 = B is the one-slot system, whose
        # doubled term adds twice, under B_5 = B / sqrt(2), B_10 = B3 / 2
        [cluster] = build_clusters([triads_by_wn[(5, 5, 10)]], 1e-3)
        two_slot = build_system(cluster)
        assert two_slot.modes == (5, 5, 10)
        z = two_slot.terms[0].z
        merged = ClusterSystem(modes=(5, 10), terms=(TriadTerm(0, 0, 1, z),))
        b, b3 = 0.9 * np.exp(0.3j), 0.6 * np.exp(-1.1j)
        start = np.array([b, b, b3])
        t_end = 20.0 * characteristic_time(two_slot, start)
        times = np.linspace(0.0, t_end, 200)
        states = solve_dense(two_slot, start, t_end, 1e-12)(times)
        mapped = solve_dense(merged, np.array([b / math.sqrt(2), b3 / 2]), t_end, 1e-12)(times)
        np.testing.assert_allclose(mapped[0], states[0] / math.sqrt(2), rtol=0, atol=1e-10)
        np.testing.assert_allclose(mapped[1], states[2] / 2, rtol=0, atol=1e-10)

    def test_kite_matches_hand_coded_system(self, triads_by_wn):
        # two triads glued through both a joint passive mode (2) and an
        # active-passive pair (5): four slots, cross-coupled terms
        [cluster] = build_clusters(
            [triads_by_wn[(2, 3, 5)], triads_by_wn[(2, 5, 7)]], 0.9
        )
        system = build_system(cluster)
        assert system.n_modes == 4
        za = triads_by_wn[(2, 3, 5)].z
        zb = triads_by_wn[(2, 5, 7)].z
        rng = np.random.default_rng(7)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        slot = {v: i for i, v in enumerate(system.modes)}
        b1, b2, b3, b4 = (state[slot[v]] for v in (2, 3, 5, 7))
        expected = np.zeros(4, complex)
        expected[slot[2]] = za * np.conj(b2) * b3 + zb * np.conj(b3) * b4
        expected[slot[3]] = za * np.conj(b1) * b3
        expected[slot[5]] = -za * b1 * b2 + zb * np.conj(b1) * b4
        expected[slot[7]] = -zb * b1 * b3
        np.testing.assert_allclose(time_derivative(system, state), expected, rtol=1e-14)


class TestTimeDerivative:
    def test_fixed_point(self, triad_system):
        state = np.array([0.7 + 0.2j, 0.0, 0.0])
        np.testing.assert_array_equal(time_derivative(triad_system, state), np.zeros(3))

    def test_real_state_matches_amplitude_equations(self, triad_system):
        # with all phases zero the amplitude rates are (Z C2 C3, Z C1 C3, -Z C1 C2)
        z = triad_system.terms[0].z
        c = np.array([1.1, 0.7, 0.4])
        deriv = time_derivative(triad_system, c.astype(complex))
        np.testing.assert_allclose(deriv.imag, 0.0, atol=1e-16)
        np.testing.assert_allclose(
            deriv.real, [z * c[1] * c[2], z * c[0] * c[2], -z * c[0] * c[1]], rtol=1e-14
        )

    def test_joint_active_slot_accumulates_both_triads(self, aa_butterfly):
        za, zb = (t.z for t in aa_butterfly.terms)
        rng = np.random.default_rng(3)
        state = rng.normal(size=5) + 1j * rng.normal(size=5)
        t0, t1 = aa_butterfly.terms
        expected = -za * state[t0.m1] * state[t0.m2] - zb * state[t1.m1] * state[t1.m2]
        assert time_derivative(aa_butterfly, state)[t0.m3] == pytest.approx(expected)

    def test_dimension_mismatch_rejected(self, triad_system):
        with pytest.raises(ValueError):
            time_derivative(triad_system, np.zeros(4, complex))

    @pytest.mark.parametrize("fixture_name", REFERENCE_TOPOLOGIES)
    def test_bit_identical_to_numpy_scalar_loop(self, request, fixture_name):
        system = request.getfixturevalue(fixture_name)

        def reference(state):
            out = np.zeros(system.n_modes, dtype=complex)
            for term in system.terms:
                b1, b2, b3 = state[term.m1], state[term.m2], state[term.m3]
                out[term.m1] += term.z * np.conj(b2) * b3
                out[term.m2] += term.z * np.conj(b1) * b3
                out[term.m3] -= term.z * b1 * b2
            return out

        for state in _random_states(system, 40, seed=31):
            assert time_derivative(system, state).tobytes() == reference(state).tobytes()

    def test_matches_finite_differences_of_trajectory(self, triad_system):
        b0 = np.array([1.0, 0.8 * np.exp(0.4j), 0.5 * np.exp(-0.3j)])
        sol = solve_dense(triad_system, b0, 2.0, 1e-12)
        t_star = 0.9
        exact = time_derivative(triad_system, sol(t_star))
        errs = []
        for h in (2e-4, 1e-4):
            fd = (sol(t_star + h) - sol(t_star - h)) / (2.0 * h)
            errs.append(np.max(np.abs(fd - exact)))
        assert errs[0] < 1e-6
        assert errs[1] < errs[0] / 3.0  # second-order decay


class TestHamiltonian:
    def test_real_state_vanishes(self, triad_system):
        assert hamiltonian(triad_system, np.array([1.0, 2.0, 3.0], dtype=complex)) == 0.0

    def test_quarter_phase_unit_amplitudes(self, triad_system):
        z = triad_system.terms[0].z
        state = np.array([1.0, 1.0, np.exp(-1j * np.pi / 2)])
        assert hamiltonian(triad_system, state) == pytest.approx(z, rel=1e-14)

    def test_conserved_along_trajectory(self, pp_butterfly):
        rng = np.random.default_rng(11)
        b0 = rng.uniform(0.5, 1.0, 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        traj = integrate(pp_butterfly, b0, 30.0 * characteristic_time(pp_butterfly, b0), tol=1e-10)
        h0 = traj[0].hamiltonian
        assert max(abs(s.hamiltonian - h0) for s in traj) < 1e-8 * abs(h0)

    def test_corrupted_coupling_sign_breaks_conservation(self, pp_butterfly):
        # flipping one triad's coupling unbalances the two Hamiltonian shares
        t0, t1 = pp_butterfly.terms
        corrupted = ClusterSystem(
            modes=pp_butterfly.modes,
            terms=(TriadTerm(t0.m1, t0.m2, t0.m3, -t0.z), t1),
        )
        rng = np.random.default_rng(4)
        b0 = rng.uniform(0.6, 1.1, 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        traj = integrate(
            pp_butterfly, b0, 10.0 * characteristic_time(pp_butterfly, b0), tol=1e-11
        )
        values = [hamiltonian(corrupted, s.state) for s in traj]
        assert max(abs(v - values[0]) for v in values) > 1e-3


class TestTrajectoryArrays:
    """Hamiltonian and phases on an (M, T) state array equal per-column calls."""

    @pytest.mark.parametrize("fixture_name", REFERENCE_TOPOLOGIES)
    def test_columns_match_single_states(self, request, fixture_name):
        system = request.getfixturevalue(fixture_name)
        states = _random_states(system, 24, seed=37).T  # (M, T)
        hams = hamiltonian(system, states)
        phases = dynamical_phases(system, states)
        assert hams.shape == (states.shape[1],)
        assert phases.shape == (system.n_triads, states.shape[1])
        for i in range(states.shape[1]):
            assert hams[i] == pytest.approx(hamiltonian(system, states[:, i]), rel=1e-14, abs=1e-15)
            np.testing.assert_array_equal(phases[:, i], dynamical_phases(system, states[:, i]))
        # NaN marks exactly the triads with a zero amplitude
        slots = np.array([[t.m1, t.m2, t.m3] for t in system.terms]).T
        undefined = (states[slots] == 0).any(axis=0)
        assert undefined.any()
        np.testing.assert_array_equal(np.isnan(phases), undefined)

    def test_record_columns_match_rows(self, three_star):
        rng = np.random.default_rng(43)
        b0 = rng.uniform(0.4, 1.2, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        traj = integrate(three_star, b0, 5.0 * characteristic_time(three_star, b0), samples=30)
        assert isinstance(traj, np.recarray)
        assert traj.dtype.names == ("t", "state", "hamiltonian", "invariants", "phases")
        assert traj.t.shape == traj.hamiltonian.shape == (30,)
        assert traj.state.shape == (30, three_star.n_modes) and traj.state.dtype == complex
        assert traj.invariants.shape == (30, len(conserved_quadratics(three_star)))
        assert traj.phases.shape == (30, three_star.n_triads)
        for i, row in enumerate(traj):
            assert row.t == traj.t[i] and traj[i].hamiltonian == traj.hamiltonian[i]
            np.testing.assert_array_equal(row.state, traj.state[i])
            np.testing.assert_array_equal(row.invariants, traj.invariants[i])
            np.testing.assert_array_equal(row.phases, traj.phases[i])
        [start] = integrate(three_star, b0, traj.t[-1], samples=1)
        assert start.t == 0.0
        np.testing.assert_array_equal(start.state, b0)

    def test_integrate_samples_match_single_state_evaluation(self, three_star):
        rng = np.random.default_rng(41)
        b0 = rng.uniform(0.4, 1.2, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        traj = integrate(three_star, b0, 5.0 * characteristic_time(three_star, b0), samples=50)
        basis = conserved_quadratics(three_star).astype(float)
        for s in traj:
            assert s.hamiltonian == pytest.approx(hamiltonian(three_star, s.state), rel=1e-12)
            np.testing.assert_allclose(s.invariants, basis @ np.abs(s.state) ** 2, rtol=1e-13)
            np.testing.assert_array_equal(s.phases, dynamical_phases(three_star, s.state))


def _fraction_basis(system):
    """Exact rational Gauss-Jordan null space of S^T, scaled to primitive integers."""
    rows = [[Fraction(int(x)) for x in row] for row in system.incidence.T]
    ncols = system.n_modes
    pivots, r = [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    for free_col in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free_col] = Fraction(1)
        for rr, pivot_col in enumerate(pivots):
            v[pivot_col] = -rows[rr][free_col]
        ints = [int(f * math.lcm(*(g.denominator for g in v))) for f in v]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x != 0) < 0:
            ints = [-x for x in ints]
        basis.append(ints)
    return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)


@cache
def _multi_triad_clusters_1e3():
    # kept out of the @given signature: hypothesis would repr every cluster
    # in a failure report, and that repr warning masks the failure
    triads = enumerate_triads(100, FluidParams(1.0))
    return [c for c in build_clusters(triads, 1e-3) if c.size > 1]


class TestConservedQuadraticsExactness:
    @pytest.mark.parametrize("fixture_name", REFERENCE_TOPOLOGIES)
    def test_matches_rational_elimination(self, request, fixture_name):
        system = request.getfixturevalue(fixture_name)
        np.testing.assert_array_equal(conserved_quadratics(system), _fraction_basis(system))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_sub_clusters_match_rational_elimination(self, data):
        cluster = data.draw(st.sampled_from(_multi_triad_clusters_1e3()))
        subset = data.draw(
            st.lists(st.sampled_from(cluster.triads), min_size=1, unique=True)
        )
        for part in build_clusters(subset, 1e-3):
            system = build_system(part)
            basis = conserved_quadratics(system)
            np.testing.assert_array_equal(basis, _fraction_basis(system))
            assert not (system.incidence.T @ basis.T).any()
            assert identification_count(part) == 3 * system.n_triads - system.n_modes


class TestConservedQuadratics:
    def test_triad_basis_spans_the_standard_invariants(self, triad_system):
        basis = conserved_quadratics(triad_system)
        assert basis.shape == (2, 3)
        standard = np.array([[1, 0, 1], [0, 1, 1]])  # I13, I23
        stacked = np.vstack([basis, standard])
        assert np.linalg.matrix_rank(stacked) == 2

    def test_dense_incidence_built_only_on_request(self, triads_by_wn):
        [cluster] = build_clusters([triads_by_wn[(5, 7, 12)]], 1e-3)
        system = build_system(cluster)
        b0 = np.array([1.0, 0.8, 0.6], dtype=complex)
        integrate(system, b0, 5.0 * characteristic_time(system, b0), samples=20)
        conserved_quadratics(system)
        assert "incidence" not in vars(system)
        np.testing.assert_array_equal(system.incidence, [[1], [1], [-1]])

    def test_eliminated_once_per_system(self, triads_by_wn, monkeypatch):
        law_pass, calls = capwaves.clustering._law_pass, []

        def counted(*args):
            calls.append(1)
            return law_pass(*args)

        monkeypatch.setattr(capwaves.clustering, "_law_pass", counted)
        [cluster] = build_clusters([triads_by_wn[(5, 7, 12)]], 1e-3)
        system = build_system(cluster)
        basis = conserved_quadratics(system)
        b0 = np.array([1.0, 0.8, 0.6], dtype=complex)
        integrate(system, b0, 5.0 * characteristic_time(system, b0), samples=20)
        assert conserved_quadratics(system) is basis
        assert len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 7
        conserved_quadratics(build_system(cluster))  # a new system builds its own
        assert len(calls) == 2

    def test_rank_deficient_incidence_keeps_its_laws(self):
        # two triads on the same three slots: rank 1, so M - rank = 2 > M - N = 1;
        # the suite turns any warning into an error
        system = ClusterSystem(
            modes=(5, 7, 12), terms=(TriadTerm(0, 1, 2, 1.0), TriadTerm(0, 1, 2, 2.0))
        )
        assert conserved_quadratics(system).shape == (2, 3)

    def test_annihilates_incidence(self, three_star):
        basis = conserved_quadratics(three_star)
        assert not (three_star.incidence.T @ basis.T).any()

    @pytest.mark.parametrize(
        "fixture_name, expected_dim",
        [
            ("triad_system", 2),
            ("pp_butterfly", 3),
            ("aa_butterfly", 3),
            ("three_star", 4),
        ],
    )
    def test_dimensions(self, request, fixture_name, expected_dim):
        system = request.getfixturevalue(fixture_name)
        assert len(conserved_quadratics(system)) == expected_dim

    def test_drift_along_trajectories(self, aa_butterfly):
        rng = np.random.default_rng(5)
        b0 = rng.uniform(0.5, 1.0, 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        traj = integrate(aa_butterfly, b0, 30.0 * characteristic_time(aa_butterfly, b0), tol=1e-10)
        q0 = traj[0].invariants
        scale = np.abs(conserved_quadratics(aa_butterfly)).astype(float) @ (np.abs(b0) ** 2)
        drift = max(float(np.max(np.abs(s.invariants - q0) / scale)) for s in traj)
        assert drift < 1e-8


class TestIntegrate:
    def test_fixed_point_trajectory_constant(self, triad_system):
        b0 = np.array([0.9 + 0.1j, 0.0, 0.0])
        traj = integrate(triad_system, b0, 10.0, tol=1e-10, samples=50)
        for s in traj:
            np.testing.assert_array_equal(s.state, b0)

    def test_bounded_by_invariants(self, triad_system):
        b0 = np.array([1.0 * np.exp(0.2j), 0.8, 0.5 * np.exp(-1.0j)])
        inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], triad_system.terms[0].z)
        bound = max(inv.i13, inv.i23)
        traj = integrate(triad_system, b0, 20.0, tol=1e-10)
        for s in traj:
            assert np.all(np.abs(s.state) ** 2 <= bound + 1e-9)
            # nonnegative invariant rows bound every contributing intensity
        basis = conserved_quadratics(triad_system)
        for row, q in zip(basis, traj[0].invariants):
            if np.all(row >= 0):
                for s in traj:
                    assert np.all(np.abs(s.state[row > 0]) ** 2 <= q + 1e-9)

    def test_zero_initial_phase_stays_locked(self, triad_system):
        b0 = np.array([1.0, 1.0, 0.8], dtype=complex)
        inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], triad_system.terms[0].z)
        tau = triad_elliptic_params(inv).tau
        traj = integrate(triad_system, b0, 50.0 * tau, tol=1e-10, samples=1500)
        worst = 0.0
        for s in traj:
            phi = s.phases[0]
            if not math.isnan(phi):
                worst = max(worst, min(abs(phi), math.pi - abs(phi)))
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "entry, t_end, tol, samples",
        [
            pytest.param(entry, t_end, tol, 10, id=f"{entry.__name__}-t_end={t_end}-tol={tol}")
            for entry in (integrate, solve_dense, measure_period)
            for t_end, tol in [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
                               (0.0, 1e-10), (-1.0, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10),
                               (1.0, 1e-16), (1.0, 1e-14)]
        ]
        + [pytest.param(integrate, 1.0, 1e-10, 0, id="integrate-samples=0")],
    )
    def test_invalid_arguments(self, triad_system, entry, t_end, tol, samples):
        # rejected before the solve starts: a NaN tol or an infinite span
        # would otherwise keep the integrator stepping without end, and below
        # 100 eps scipy would raise rtol to that floor and leave atol
        b0 = np.array([1.0, 0.5, 0.2], dtype=complex)
        kwargs = {"samples": samples} if entry is integrate else {}
        with pytest.raises(
            ValueError, match="must be positive and finite|samples must be|tol must be at least"
        ):
            entry(triad_system, b0, t_end, tol, **kwargs)


class TestDynamicalPhases:
    def test_zero_phases(self, triad_system):
        assert dynamical_phases(triad_system, np.array([1.0, 2.0, 3.0], complex))[0] == 0.0

    def test_quarter_phase_combination(self, triad_system):
        state = np.exp(1j * np.array([np.pi / 4, np.pi / 4, np.pi / 2]))
        assert dynamical_phases(triad_system, state)[0] == pytest.approx(0.0, abs=1e-15)

    def test_wrapping(self, triad_system):
        state = np.exp(1j * np.array([3.0, 3.0, -3.0]))
        assert dynamical_phases(triad_system, state)[0] == pytest.approx(
            9.0 - 2.0 * np.pi, rel=1e-12
        )

    def test_lock_residual(self):
        assert phase_lock_residual([0.0, np.pi, -np.pi, np.nan]) == 0.0
        assert phase_lock_residual([[0.25, np.nan], [np.pi - 0.5, -0.125]]) == 0.5
        assert math.isnan(phase_lock_residual(np.full((3, 2), np.nan)))

    def test_zero_amplitude_marks_undefined(self, triad_system):
        state = np.array([1.0, 0.0, 1.0], complex)
        assert math.isnan(dynamical_phases(triad_system, state)[0])

    def test_pp_butterfly_phase_rates_match_finite_differences(self, pp_butterfly):
        # the joint passive mode carries the full Hamiltonian in the phase
        # rate while each private mode carries only its own triad's share;
        # the compact one-multiplier form holds exactly only for a single triad
        rng = np.random.default_rng(23)
        b0 = rng.uniform(0.6, 1.1, 5) * np.exp(1j * rng.uniform(-1.0, 1.0, 5))
        t_char = characteristic_time(pp_butterfly, b0)
        sol = solve_dense(pp_butterfly, b0, 6.0 * t_char, 1e-12)
        shared = pp_butterfly.terms[0].m1
        h = 1e-4 * t_char

        def phases_at(t):
            return dynamical_phases(pp_butterfly, sol(t))

        checked = 0
        for t_star in np.linspace(0.8, 5.2, 12) * t_char:
            state = sol(t_star)
            phases = phases_at(t_star)
            if np.any(np.abs(phases) > 2.8):  # too close to the wrap boundary
                continue
            c = np.abs(state)
            ham = hamiltonian(pp_butterfly, state)
            fd = (phases_at(t_star + h) - phases_at(t_star - h)) / (2.0 * h)
            for j, term in enumerate(pp_butterfly.terms):
                other = term.m2 if term.m1 == shared else term.m1
                share = term.z * (
                    state[term.m1] * state[term.m2] * np.conj(state[term.m3])
                ).imag
                expected = (
                    -ham / c[shared] ** 2
                    - share / c[other] ** 2
                    + share / c[term.m3] ** 2
                )
                assert fd[j] == pytest.approx(expected, rel=1e-4, abs=1e-6)
            checked += 1
        assert checked >= 6


@pytest.fixture(scope="module")
def cluster_33():
    triads = enumerate_triads(300, FluidParams(1.0))
    cluster = next(c for c in build_clusters(triads, 1e-3) if c.size == 33)
    return build_system(cluster)


def _scipy_solve(system, initial, t_end, tol, rhs=None):
    """scipy's own DOP853 solve of the problem solve_dense solves: the reference."""
    initial = np.asarray(initial, dtype=complex)
    scale = max(float(np.max(np.abs(initial))), 1.0)
    return solve_ivp(
        lambda t, y: (rhs or time_derivative)(system, y),
        (0.0, t_end),
        initial,
        method="DOP853",
        rtol=tol,
        atol=tol * scale,
        dense_output=True,
    )


def _scipy_dense(system, initial, t_end, tol):
    """scipy's own dense output of the solve solve_dense makes: the reference."""
    return _scipy_solve(system, initial, t_end, tol).sol


class _ScipyHandle:
    """solve_dense's result as it used to be: scipy's OdeSolution, slots read off the state."""

    def __init__(self, sol):
        self.sol = sol

    def __call__(self, t):
        return self.sol(t)

    def slot(self, m):
        return lambda t: self.sol(t)[m]


def _assert_same_bits(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    assert value.dtype == reference.dtype == complex
    bits = np.ascontiguousarray(value).view(np.uint64)
    assert np.array_equal(bits, np.ascontiguousarray(reference).view(np.uint64))


def _random_state(system, rng):
    return rng.uniform(0.4, 1.2, system.n_modes) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, system.n_modes)
    )


def _assert_same_stacks(sol, ref):
    """Every step of a DenseSolution equals scipy's, bit for bit."""
    steps = ref.interpolants
    assert np.array_equal(sol.ts, ref.ts)
    assert np.array_equal(sol.t_old, [s.t_old for s in steps])
    assert np.array_equal(sol.h, [s.h for s in steps])
    _assert_same_bits(sol.y_old, np.array([s.y_old for s in steps]))
    _assert_same_bits(sol.coeffs, np.array([s.F[::-1] for s in steps]))


# the tolerances the library solves at; 1e-10 keeps the bare system name
_SOLVED = [
    pytest.param((name, tol), id=name if tol == 1e-10 else f"{name}-tol={tol}")
    for name in ("triad_system", "four_star", "cluster_33")
    for tol in (1e-10, 1e-11, 1e-12)
]


class TestDenseSolution:
    @pytest.fixture(params=_SOLVED)
    def solved(self, request):
        name, tol = request.param
        system = request.getfixturevalue(name)
        rng = np.random.default_rng(61)
        b0 = _random_state(system, rng)
        t_end = 5.0 * characteristic_time(system, b0)
        return (
            solve_dense(system, b0, t_end, tol),
            _scipy_dense(system, b0, t_end, tol),
            t_end,
            rng,
        )

    def test_stacks_every_step(self, solved):
        sol, ref, _, _ = solved
        steps, m = len(ref.interpolants), ref.interpolants[0].y_old.size
        assert sol.coeffs.shape == (steps, 7, m)
        assert sol.y_old.shape == (steps, m)
        assert np.array_equal(sol.ts, ref.ts)

    def test_scalar_times_bit_identical(self, solved):
        sol, ref, t_end, _ = solved
        mid = 0.4321 * t_end
        times = [0.0, t_end, -0.05 * t_end, 1.2 * t_end, mid, np.float64(mid), np.array(mid)]
        times += list(ref.ts)
        for t in times:
            state = ref(t)
            _assert_same_bits(sol(t), state)
            for m in range(state.size):
                _assert_same_bits(sol.slot(m)(t), state[m])

    def test_time_arrays_bit_identical(self, solved):
        sol, ref, t_end, rng = solved
        unsorted = rng.uniform(-0.1 * t_end, 1.1 * t_end, 500)
        for times in (ref.ts, unsorted, np.linspace(0.0, t_end, 257), np.array([t_end])):
            block = ref(times)
            _assert_same_bits(sol(times), block)
            assert sol(times).strides == block.strides
            for m in range(block.shape[0]):
                _assert_same_bits(sol.slot(m)(times), block[m])

    def test_two_dimensional_times_rejected(self, solved):
        sol = solved[0]
        with pytest.raises(ValueError):
            sol(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sol.slot(0)(np.zeros((2, 2)))

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan")])
    def test_non_positive_span_rejected(self, triad_system, t_end):
        with pytest.raises(ValueError, match="t_end must be positive"):
            solve_dense(triad_system, np.array([1.0, 0.8, 0.5], complex), t_end, 1e-10)

    def test_integrate_and_period_unchanged(self, triad_system, monkeypatch):
        b0 = np.array([1.0 * np.exp(0.3j), 0.8 * np.exp(-0.2j), 0.5 * np.exp(0.4j)])
        t_end = 6.0 * triad_elliptic_params(
            TriadInvariants.from_state(b0[0], b0[1], b0[2], triad_system.terms[0].z)
        ).tau
        samples = integrate(triad_system, b0, t_end, samples=300)
        period = measure_period(triad_system, b0, t_end, tol=1e-12)
        monkeypatch.setattr(
            capwaves.dynamics,
            "solve_dense",
            lambda system, initial, t_end, tol: _ScipyHandle(
                _scipy_dense(system, initial, t_end, tol)
            ),
        )
        reference = integrate(triad_system, b0, t_end, samples=300)
        assert measure_period(triad_system, b0, t_end, tol=1e-12) == period
        for s, r in zip(samples, reference, strict=True):
            assert s.t == r.t and s.hamiltonian == r.hamiltonian
            _assert_same_bits(s.state, r.state)
            assert np.array_equal(s.invariants, r.invariants)
            assert np.array_equal(s.phases, r.phases, equal_nan=True)

    @pytest.mark.parametrize("name", ["triad_system", "four_star", "cluster_33"])
    def test_stacks_and_rhs_calls_match_scipy(self, request, name, monkeypatch):
        system = request.getfixturevalue(name)
        b0 = _random_state(system, np.random.default_rng(67))
        t_end = 8.0 * characteristic_time(system, b0)
        rhs, calls = capwaves.dynamics._rhs, []

        def counted(*args):
            calls.append(1)
            return rhs(*args)

        monkeypatch.setattr(capwaves.dynamics, "_rhs", counted)
        sol = solve_dense(system, b0, t_end, 1e-11)
        monkeypatch.undo()
        ref = _scipy_solve(system, b0, t_end, 1e-11)
        _assert_same_stacks(sol, ref.sol)
        assert len(calls) == ref.nfev

    def test_rejected_steps_and_stack_growth_match_scipy(self, triad_system, monkeypatch):
        # 221 steps, so the stacks double twice past their 64 rows, and steps
        # are rejected: each accepted step costs 15 calls, a rejected one 12
        b0 = _random_state(triad_system, np.random.default_rng(67))
        t_end = 40.0 * characteristic_time(triad_system, b0)
        rhs, calls = capwaves.dynamics._rhs, []

        def counted(*args):
            calls.append(1)
            return rhs(*args)

        monkeypatch.setattr(capwaves.dynamics, "_rhs", counted)
        sol = solve_dense(triad_system, b0, t_end, 1e-10)
        monkeypatch.undo()
        ref = _scipy_solve(triad_system, b0, t_end, 1e-10)
        _assert_same_stacks(sol, ref.sol)
        assert len(calls) == ref.nfev
        steps = len(sol.h)
        rejected, rest = divmod(len(calls) - 2 - 15 * steps, 12)
        assert steps > 128 and rejected > 0 and rest == 0

    @pytest.mark.parametrize("name", ["triad_system", "cluster_33"])
    def test_cached_scalar_rows_match_block_and_scipy(self, request, name):
        # scalar calls keep the rows of the step they last landed in; the
        # values must not depend on whether a step was converted before or
        # after a block call, on whether a one-slot or a full-state call came
        # first, nor on the step the call before landed in
        system = request.getfixturevalue(name)
        b0 = _random_state(system, np.random.default_rng(79))
        t_end = 6.0 * characteristic_time(system, b0)
        sol, ref = solve_dense(system, b0, t_end, 1e-11), _scipy_dense(system, b0, t_end, 1e-11)
        mids = (sol.ts[:-1] + sol.ts[1:]) / 2
        times = np.concatenate([sol.ts, mids])
        expected = ref(times)
        slot_fns = [sol.slot(m) for m in range(system.n_modes)]  # each keeps its own rows

        def check(indices, slot_first):
            for i in indices:
                t = times[i]
                slots = [f(t) for f in slot_fns] if slot_first else None
                state = sol(t)
                if not slot_first:
                    slots = [f(t) for f in slot_fns]
                _assert_same_bits(state, expected[:, i])
                _assert_same_bits(state, ref(t))
                for m, value in enumerate(slots):
                    _assert_same_bits(value, expected[m, i])

        # the midpoints of every other step, a block call, then every time in
        # order and shuffled, so calls both stay in a step and jump between steps
        check(range(len(sol.ts), len(times), 2), slot_first=False)
        _assert_same_bits(sol(times), expected)
        check(range(len(times)), slot_first=True)
        check(np.random.default_rng(83).permutation(len(times)), slot_first=False)
        for m, f in enumerate(slot_fns):
            _assert_same_bits(f(times), expected[m])

    def test_tolerance_floor_accepted_and_matches_scipy(self, triad_system):
        # 100 eps is scipy's floor on rtol: accepted there without a warning
        b0 = _random_state(triad_system, np.random.default_rng(71))
        t_end = 3.0 * characteristic_time(triad_system, b0)
        tol = 100 * np.finfo(float).eps
        _assert_same_stacks(
            solve_dense(triad_system, b0, t_end, tol), _scipy_dense(triad_system, b0, t_end, tol)
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_initial_state_rejected(self, triad_system, bad, monkeypatch):
        monkeypatch.setattr(capwaves.dynamics, "_rhs", None)  # no step is taken
        b0 = np.array([1.0, bad, 0.5], complex)
        with pytest.raises(ValueError, match="initial state must be finite"):
            solve_dense(triad_system, b0, 1.0, 1e-10)

    @pytest.mark.parametrize("finite_calls", [1, 40, 400])
    def test_non_finite_rhs_fails_where_scipy_fails(self, four_star, finite_calls, monkeypatch):
        # the right-hand side turns NaN after a number of finite calls; both
        # solvers shrink the step below min_step and report the same state
        rhs = capwaves.dynamics._rhs

        def poisoned(calls):
            def poisoned_rhs(rows, n_modes, state):
                calls.append(1)
                value = rhs(rows, n_modes, state)
                return value if len(calls) <= finite_calls else [complex(math.nan)] * n_modes

            return poisoned_rhs

        b0 = _random_state(four_star, np.random.default_rng(73))
        t_end = 10.0 * characteristic_time(four_star, b0)
        scipy_rhs = poisoned([])
        with np.errstate(invalid="ignore"):
            ref = _scipy_solve(
                four_star, b0, t_end, 1e-10,
                rhs=lambda system, y: np.array(scipy_rhs(system.term_rows, system.n_modes, y)),
            )
        assert ref.status == -1 and (ref.t[-1] > 0.0) == (finite_calls > 1)
        calls = []
        monkeypatch.setattr(capwaves.dynamics, "_rhs", poisoned(calls))
        with np.errstate(invalid="ignore"), pytest.raises(IntegrationError) as failure:
            solve_dense(four_star, b0, t_end, 1e-10)
        assert str(failure.value) == f"integration failed at t={ref.t[-1]}: {ref.message}"
        assert failure.value.t_last == ref.t[-1]
        _assert_same_bits(failure.value.state_last, ref.y[:, -1])
        assert len(calls) == ref.nfev

    def test_non_finite_rhs_at_start_fails(self, triad_system):
        # the couplings overflow at this amplitude, so no step size exists;
        # scipy's DOP853 would retry a NaN step without end
        b0 = np.array([1.0, 0.8, 0.6j]) * 1e160
        with pytest.raises(IntegrationError) as failure:
            solve_dense(triad_system, b0, 5.0 * characteristic_time(triad_system, b0), 1e-10)
        assert failure.value.t_last == 0.0
        _assert_same_bits(failure.value.state_last, b0)


class TestPeriodMeasurement:
    def test_matches_elliptic_period(self, triad_system):
        b0 = np.array([1.0 * np.exp(0.3j), 0.8 * np.exp(-0.2j), 0.5 * np.exp(0.4j)])
        inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], triad_system.terms[0].z)
        tau = triad_elliptic_params(inv).tau
        period = measure_period(triad_system, b0, 6.0 * tau, tol=1e-12)
        assert period == pytest.approx(tau, rel=1e-6)

    def test_constant_signal_rejected(self, triad_system):
        with pytest.raises(ValueError):
            measure_period(triad_system, np.array([1.0, 0.0, 0.0], complex), 10.0)

    @pytest.mark.parametrize("phi", [np.pi / 2, -np.pi / 2])
    @pytest.mark.parametrize("index", range(12))
    def test_turning_point_at_t0(self, phi, index):
        # |B3|² has a turning point at t = 0, so the lowest sample of the
        # first period can sit on the edge of the search grid
        triad = enumerate_triads(12, FluidParams(1.0))[index]
        [cluster] = build_clusters([triad], 1e-3)
        system = build_system(cluster)
        b0 = np.array([1.0, 0.8, 0.6 * np.exp(-1j * phi)])
        inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], triad.z)
        tau = triad_elliptic_params(inv).tau
        assert measure_period(system, b0, 6.8 * tau, 1e-12) == pytest.approx(tau, rel=1e-6)


class TestRefineMinimum:
    def test_edge_minimum_is_skipped(self):
        # the lowest sample is the left edge; the interior minimum is at 1.5
        grid = np.linspace(0.5, 2.0, 301)
        rho = lambda t: np.cos(2.0 * np.pi * t)  # noqa: E731
        assert rho(grid[0]) <= rho(grid).min()
        assert refine_minimum(rho, grid, 1e-12) == pytest.approx(1.5, abs=1e-6)

    def test_lowest_or_first_interior_minimum(self):
        grid = np.linspace(0.2, 2.3, 400)
        rho = lambda t: np.cos(2.0 * np.pi * t) - 0.1 * t  # noqa: E731
        lowest = refine_minimum(rho, grid, 1e-12)
        first = refine_minimum(rho, grid, 1e-12, first=True)
        assert first == pytest.approx(0.5, abs=0.01)
        assert lowest == pytest.approx(1.5, abs=0.01)

    def test_no_interior_minimum_rejected(self):
        with pytest.raises(ValueError, match="no strict interior minimum"):
            refine_minimum(np.exp, np.linspace(0.0, 1.0, 50), 1e-12)


class TestDriftReport:
    def test_natural_magnitudes(self, four_star):
        rng = np.random.default_rng(43)
        b0 = rng.uniform(0.4, 1.2, 9) * np.exp(1j * rng.uniform(-np.pi, np.pi, 9))
        traj = integrate(four_star, b0, 20.0 * characteristic_time(four_star, b0), samples=200)
        basis = conserved_quadratics(four_star)
        drift = drift_report(four_star, basis, b0, traj)
        q0 = traj[0].invariants
        q_scale = np.maximum(np.abs(q0), np.abs(basis) @ np.abs(b0) ** 2)
        q_drift = max(float(np.max(np.abs(s.invariants - q0) / q_scale)) for s in traj)
        h0 = traj[0].hamiltonian
        h_scale = max(
            abs(h0), sum(abs(t.z * b0[t.m1] * b0[t.m2] * b0[t.m3]) for t in four_star.terms)
        )
        h_drift = max(abs(s.hamiltonian - h0) for s in traj) / h_scale
        assert drift.quadratic == pytest.approx(q_drift, rel=1e-12)
        assert drift.hamiltonian == pytest.approx(h_drift, rel=1e-12)
        assert 0.0 < drift.quadratic < 1e-8 and 0.0 < drift.hamiltonian < 1e-8

    def test_quantities_without_magnitude_are_absolute(self, triad_system):
        # a fixed point: the Hamiltonian and one quadratic have no contribution
        b0 = np.array([0.9, 0.0, 0.0], complex)
        traj = integrate(triad_system, b0, 5.0, samples=20)
        drift = drift_report(triad_system, conserved_quadratics(triad_system), b0, traj)
        assert drift.hamiltonian == 0.0 and drift.quadratic == 0.0


def test_characteristic_time(triad_system):
    z = abs(triad_system.terms[0].z)
    b0 = np.array([2.0, 1.0, 0.5], complex)
    assert characteristic_time(triad_system, b0) == pytest.approx(1.0 / (2.0 * z))


def test_mode_labels_disambiguate_duplicates(aa_butterfly):
    labels = mode_labels(aa_butterfly)
    assert len(labels) == len(set(labels))
    assert "k50" in labels and "k50_2" in labels
