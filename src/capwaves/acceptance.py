"""Validation suite: every published, reproducible-at-desk-scale result.

Each check returns a CheckResult with the measured and expected values; the
CLI ``validate`` command runs them all and reports one line per check.  The
checks pin the cluster tables of the kmax = 100 spectral domain, the exact
closure of the generating-vorticity formula, the fluid-independence scalings
and the conservation / closed-form oracles of the cluster dynamics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import (
    TriadInvariants,
    closed_form_amplitudes,
    closed_form_phase,
    triad_elliptic_params,
)
from .clustering import build_clusters
from .dispersion import (
    FluidParams,
    SIGMA_WATER_25C,
    SIGMA_WATER_5C,
    branch_frequency,
)
from .dynamics import (
    build_system,
    characteristic_time,
    conserved_quadratics,
    drift_report,
    dynamical_phases,
    integrate,
    measure_period,
    phase_lock_residual,
    refine_minimum,
    solve_dense,
)
from .resonance_search import enumerate_triads, min_positive_width, resonance_width

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]

KMAX = 100

# published two-triad clusters appearing at accuracy 1e-4
PAIRS_1E4 = {
    frozenset({(20, 94, 114), (24, 70, 94)}),
    frozenset({(17, 71, 88), (15, 88, 103)}),
    frozenset({(11, 83, 94), (12, 71, 83)}),
    frozenset({(10, 47, 57), (12, 35, 47)}),
}
# two-triad clusters with a joint active mode, appearing at accuracy 1e-3
AA_PAIRS_1E3 = [
    ((50, 50, 100), (49, 51, 100)),
    ((47, 48, 95), (46, 49, 95)),
    ((44, 44, 88), (43, 45, 88)),
]
STAR3 = {(79, 80, 159), (78, 81, 159), (77, 82, 159)}
STAR4 = {(48, 48, 96), (47, 49, 96), (28, 96, 124), (46, 50, 96)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured}; expected {self.expected}"


@lru_cache(maxsize=4)
def _triads(sigma: float):
    return tuple(enumerate_triads(KMAX, FluidParams(sigma)))


@lru_cache(maxsize=16)
def _clusters(sigma: float, epsilon: float):
    return tuple(build_clusters(list(_triads(sigma)), epsilon))


def _multi_sets(clusters) -> set[frozenset]:
    return {
        frozenset(t.wavenumbers for t in c.triads) for c in clusters if c.size > 1
    }


def _find_cluster(clusters, triple):
    for c in clusters:
        for t in c.triads:
            if t.wavenumbers == triple:
                return c
    raise LookupError(f"triad {triple} not found in any cluster")


def check_cluster_table_1e4() -> CheckResult:
    t0 = time.perf_counter()
    clusters = build_clusters(list(_triads(SIGMA_WATER_25C)), 1e-4)
    elapsed = time.perf_counter() - t0
    multi = _multi_sets(clusters)
    ok = multi == PAIRS_1E4 and elapsed < 10.0
    return CheckResult(
        "cluster-table-eps-1e-4",
        ok,
        f"{len(multi)} multi-triad clusters {sorted(map(sorted, multi))} in {elapsed:.2f}s",
        "exactly the four published two-triad clusters, under 10 s",
    )


def check_cluster_table_1e3() -> CheckResult:
    clusters = _clusters(SIGMA_WATER_25C, 1e-3)
    problems: list[str] = []
    for pair in AA_PAIRS_1E3:
        cl = _find_cluster(clusters, pair[0])
        names = {t.wavenumbers for t in cl.triads}
        if pair[1] not in names:
            problems.append(f"{pair} not co-clustered")
            continue
        kinds = {
            c.kind
            for c in cl.connections
            if {c.triad_a.wavenumbers, c.triad_b.wavenumbers} == {pair[0], pair[1]}
        }
        if kinds != {"AA"}:
            problems.append(f"{pair} connection kinds {kinds}")
    star3 = _find_cluster(clusters, (79, 80, 159))
    if not STAR3 <= {t.wavenumbers for t in star3.triads}:
        problems.append("three-triad star not co-clustered")
    else:
        internal = [
            c.kind
            for c in star3.connections
            if c.triad_a.wavenumbers in STAR3 and c.triad_b.wavenumbers in STAR3
        ]
        if sorted(internal) != ["AA", "AA", "AA"]:
            problems.append(f"three-triad star connections {internal}")
    star4 = _find_cluster(clusters, (48, 48, 96))
    names4 = {t.wavenumbers for t in star4.triads}
    hist = {}
    for c in star4.connections:
        hist[c.kind] = hist.get(c.kind, 0) + 1
    if names4 != STAR4:
        problems.append(f"four-triad cluster is {sorted(names4)}")
    if hist != {"AA": 3, "AP": 1}:
        problems.append(f"four-triad connection histogram {hist}")
    return CheckResult(
        "cluster-table-eps-1e-3",
        not problems,
        "; ".join(problems) if problems else
        f"AA pairs, 3-star (all AA) and 4-triad cluster ({hist}) all present",
        "AA pairs co-clustered AA; 3-star all-AA; 4-triad cluster with 3 AA + 1 AP",
    )


def check_two_triad_count_1e3() -> CheckResult:
    clusters = _clusters(SIGMA_WATER_25C, 1e-3)
    count = sum(1 for c in clusters if c.size == 2)
    lo, hi = 83 * 0.85, 83 * 1.15
    return CheckResult(
        "two-triad-count-eps-1e-3",
        lo <= count <= hi,
        str(count),
        f"83 within ±15% ([{lo:.1f}, {hi:.1f}])",
    )


def check_isolated_below_1e5() -> CheckResult:
    counts = {}
    for eps in (1e-8, 1e-7, 1e-6, 1e-5):
        clusters = build_clusters(list(_triads(SIGMA_WATER_25C)), eps)
        counts[eps] = sum(1 for c in clusters if c.size > 1)
    ok = all(v == 0 for v in counts.values())
    return CheckResult(
        "isolated-below-eps-1e-5",
        ok,
        f"multi-triad clusters {counts}",
        "zero multi-triad clusters for epsilon in [1e-8, 1e-5]",
    )


def check_giant_cluster_1e2() -> CheckResult:
    t0 = time.perf_counter()
    clusters = build_clusters(list(_triads(SIGMA_WATER_25C)), 1e-2)
    largest = clusters[0]
    elapsed = time.perf_counter() - t0
    n_conns = sum(largest.kind_counts.values())
    ok = 1e3 <= largest.size <= 1e4 and n_conns > 1e4 and elapsed < 120.0
    return CheckResult(
        "giant-cluster-eps-1e-2",
        ok,
        f"largest {largest.size} triads, {n_conns} connections, {elapsed:.1f}s",
        "10^3..10^4 triads, >10^4 connections, under 120 s",
    )


def check_resonance_closure() -> CheckResult:
    params = FluidParams(SIGMA_WATER_25C)
    worst = 0.0
    for t in _triads(SIGMA_WATER_25C):
        width = resonance_width(t.k1, t.k2, t.omega_gen, params)
        worst = max(worst, width / branch_frequency(t.k3, t.omega_gen, params))
    return CheckResult(
        "resonance-closure",
        worst < 1e-9,
        f"max relative mismatch {worst:.3e} over {len(_triads(SIGMA_WATER_25C))} pairs",
        "< 1e-9 for all pairs at the generating vorticity",
    )


def check_irrotational_control() -> CheckResult:
    width = min_positive_width(KMAX, 0.0, FluidParams(1.0))
    return CheckResult(
        "irrotational-negative-control",
        width > 1e-6,
        f"min width {width:.6f} at zero vorticity",
        "> 1e-6 (no exact resonances without vorticity)",
    )


def check_sigma_scaling() -> CheckResult:
    base = _triads(1.0)
    worst_om = worst_z = 0.0
    for sigma in (1e-5, SIGMA_WATER_25C):
        scaled = _triads(sigma)
        for tb, ts in zip(base, scaled):
            worst_om = max(worst_om, abs(ts.omega_gen / tb.omega_gen / sigma**0.5 - 1.0))
            worst_z = max(worst_z, abs(ts.z / tb.z / sigma**0.25 - 1.0))
    partitions = []
    for sigma in (SIGMA_WATER_25C, SIGMA_WATER_5C, 1.0, 1e-5):
        parts = {}
        for eps in (1e-4, 1e-3):
            parts[eps] = _multi_sets(build_clusters(list(_triads(sigma)), eps))
        partitions.append(parts)
    same = all(p == partitions[0] for p in partitions[1:])
    ok = worst_om < 1e-12 and worst_z < 1e-12 and same
    return CheckResult(
        "sigma-scaling",
        ok,
        f"max |Omega ratio error| {worst_om:.2e}, max |Z ratio error| {worst_z:.2e}, "
        f"clusterings identical: {same}",
        "sqrt(sigma) and sigma^(1/4) scalings to 1e-12; identical clusterings",
    )


def _reference_topologies():
    """The five reference topologies, built from real triads of the domain."""
    params = FluidParams(1.0)
    by_wn = {t.wavenumbers: t for t in enumerate_triads(KMAX, params)}

    def cluster_of(triples, eps):
        triads = [by_wn[t] for t in triples]
        clusters = build_clusters(triads, eps)
        if len(clusters) != 1:
            raise RuntimeError(f"triads {triples} did not form one cluster at eps={eps}")
        return clusters[0]

    return [
        ("isolated-triad", cluster_of([(20, 94, 114)], 1e-3), 2),
        # the shared mode 5 is passive in both triads
        ("pp-butterfly", cluster_of([(5, 9, 14), (5, 11, 16)], 0.9), 3),
        ("aa-butterfly", cluster_of([(50, 50, 100), (49, 51, 100)], 1e-3), 3),
        ("three-star", cluster_of([(79, 80, 159), (78, 81, 159), (77, 82, 159)], 1e-3), 4),
        ("four-star", cluster_of(sorted(STAR4), 1e-3), 5),
    ]


def check_conservation_suite() -> CheckResult:
    rng = np.random.default_rng(20100423)
    tol = 1e-10
    problems = []
    details = []
    for name, cluster, expected_dim in _reference_topologies():
        system = build_system(cluster)
        basis = conserved_quadratics(system)
        rank = np.linalg.matrix_rank(system.incidence.astype(float))
        if len(basis) != expected_dim:
            problems.append(f"{name}: dimension {len(basis)} != {expected_dim}")
            continue
        if rank != system.n_triads:
            problems.append(f"{name}: incidence rank {rank} != N")
            continue
        b0 = rng.uniform(0.4, 1.2, system.n_modes) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, system.n_modes)
        )
        t_end = 50.0 * characteristic_time(system, b0)
        traj = integrate(system, b0, t_end, tol=tol, samples=400)
        drift = drift_report(system, basis, b0, traj)
        h_drift, q_drift = drift.hamiltonian, drift.quadratic
        details.append(f"{name}: dim {len(basis)}, H drift {h_drift:.1e}, quad drift {q_drift:.1e}")
        if h_drift >= 1e-8 or q_drift >= 1e-8:
            problems.append(f"{name}: drift H {h_drift:.2e} quad {q_drift:.2e}")
    return CheckResult(
        "conservation-suite",
        not problems,
        "; ".join(problems or details),
        "dims (2,3,3,4,5); H and quadratic drift < 1e-8 over 50 periods at tol 1e-10",
    )


def _random_triad_state(rng, system):
    """Generic physical state away from the separatrix and the phase-locked line."""
    while True:
        c = rng.uniform(0.3, 1.5, 3)
        theta = rng.uniform(-np.pi, np.pi, 3)
        b0 = c * np.exp(1j * theta)
        z = system.terms[0].z
        inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], z)
        h_scale = abs(z) * c[0] * c[1] * c[2]
        if abs(inv.h) < 0.02 * h_scale:
            continue
        params = triad_elliptic_params(inv)
        if params.mu**2 > 0.99:
            continue
        return b0, inv, params


def _first_minimum(b_mode, t_hi):
    """Time of the first strict interior minimum of |B_mode|² before t_hi."""
    return refine_minimum(
        lambda t: np.abs(b_mode(t)) ** 2, np.linspace(0.0, t_hi, 600), 1e-13, first=True
    )


def check_analytic_oracle() -> CheckResult:
    rng = np.random.default_rng(577215664)
    params = FluidParams(1.0)
    triads = [t for t in enumerate_triads(12, params)]
    worst_amp = worst_period = worst_phase = 0.0
    for _ in range(100):
        triad = triads[rng.integers(len(triads))]
        cluster = build_clusters([triad], 1e-3)[0]
        system = build_system(cluster)
        b0, inv, ell = _random_triad_state(rng, system)
        t_end = 6.8 * ell.tau
        sol = solve_dense(system, b0, t_end, 1e-11)
        mode3 = system.terms[0].m3
        t0 = _first_minimum(sol.slot(mode3), 1.6 * ell.tau)
        ts = np.linspace(0.0, 5.0 * ell.tau, 700)
        states = sol(ts)
        rho1, rho2, rho3 = closed_form_amplitudes(ell, inv, ts, t0)
        amp_err = max(
            float(np.max(np.abs(rho1 - np.abs(states[system.terms[0].m1]) ** 2))),
            float(np.max(np.abs(rho2 - np.abs(states[system.terms[0].m2]) ** 2))),
            float(np.max(np.abs(rho3 - np.abs(states[mode3]) ** 2))),
        )
        worst_amp = max(worst_amp, amp_err)
        period = measure_period(system, b0, t_end, tol=1e-12)
        worst_period = max(worst_period, abs(period - ell.tau) / ell.tau)
        phi0 = float(dynamical_phases(system, b0)[0])
        phi_meas = dynamical_phases(system, states)[0]
        keep = ~np.isnan(phi_meas)
        phi_cf = closed_form_phase(ell, inv, phi0, ts[keep], t0)
        worst_phase = max(worst_phase, float(np.max(np.abs(phi_cf - phi_meas[keep]))))
    ok = worst_amp < 1e-6 and worst_period < 1e-6 and worst_phase < 1e-4
    return CheckResult(
        "analytic-oracle",
        ok,
        f"100 states: max amplitude err {worst_amp:.2e}, period err {worst_period:.2e}, "
        f"phase err {worst_phase:.2e}",
        "amplitudes < 1e-6 over 5 periods; period < 1e-6 relative; phase < 1e-4",
    )


def check_phase_behaviour() -> CheckResult:
    params = FluidParams(1.0)
    by_wn = {t.wavenumbers: t for t in enumerate_triads(12, params)}
    triad = by_wn[(5, 7, 12)]
    cluster = build_clusters([triad], 1e-3)[0]
    system = build_system(cluster)
    problems = []

    # a zero initial dynamical phase never unlocks (residual to the {0, pi} set)
    b0 = np.array([1.0, 1.0, 0.8], dtype=complex)
    inv = TriadInvariants.from_state(b0[0], b0[1], b0[2], triad.z)
    tau = triad_elliptic_params(inv).tau
    traj = integrate(system, b0, 50.0 * tau, tol=1e-10, samples=2000)
    residual = phase_lock_residual([s.phases for s in traj])
    if not residual < 1e-6:
        problems.append(f"zero-phase lock residual {residual:.2e}")

    # a small nonzero phase strictly shrinks the sum-mode excursion range
    def c3_range(phi_in: float) -> float:
        state = np.array([1.0, 1.0, 0.8 * np.exp(-1j * phi_in)])
        samples = integrate(system, state, 12.0 * tau, tol=1e-11, samples=6000)
        rho3 = np.array([abs(s.state[system.terms[0].m3]) ** 2 for s in samples])
        return float(rho3.max() - rho3.min())

    r_zero = c3_range(0.0)
    r_small = c3_range(0.01)
    if not r_small < r_zero:
        problems.append(f"range {r_small:.6f} not below zero-phase range {r_zero:.6f}")

    # half-pi phases on a two-triad cluster modulate the amplitude envelope;
    # with locked (zero) phases the envelope of the joint mode stays flat
    pp = build_clusters([by_wn[(5, 9, 14)], by_wn[(5, 11, 16)]], 0.9)[0]
    pp_sys = build_system(pp)
    shared = pp_sys.terms[0].m1  # slot of the joint passive mode k=5

    def envelope(phase: float):
        theta = np.zeros(pp_sys.n_modes)
        theta[pp_sys.terms[0].m3] = -phase
        theta[pp_sys.terms[1].m3] = -phase
        b0pp = np.ones(pp_sys.n_modes) * np.exp(1j * theta)
        t_end = 120.0 * characteristic_time(pp_sys, b0pp)
        b_shared = solve_dense(pp_sys, b0pp, t_end, 1e-11).slot(shared)
        ts = np.linspace(0.0, t_end, 40000)
        c1sq = np.abs(b_shared(ts)) ** 2
        peaks = np.where((c1sq[1:-1] > c1sq[:-2]) & (c1sq[1:-1] > c1sq[2:]))[0] + 1
        var = float((c1sq[peaks].max() - c1sq[peaks].min()) / c1sq[peaks].mean())
        return ts, c1sq, peaks, var

    ts, c1sq, peaks, peak_var = envelope(np.pi / 2)
    _, _, _, control_var = envelope(0.0)
    spec = np.abs(np.fft.rfft(c1sq - c1sq.mean())) ** 2
    freqs = np.fft.rfftfreq(ts.size, ts[1] - ts[0])
    f_primary = freqs[int(np.argmax(spec[1:])) + 1]
    env_t = ts[peaks]
    env = np.interp(np.linspace(env_t[0], env_t[-1], 512), env_t, c1sq[peaks])
    env_spec = np.abs(np.fft.rfft(env - env.mean())) ** 2
    env_freqs = np.fft.rfftfreq(512, (env_t[-1] - env_t[0]) / 511)
    f_env = env_freqs[int(np.argmax(env_spec[1:])) + 1]
    if not (peak_var > 0.01 and peak_var > 100.0 * control_var and f_env < 0.5 * f_primary):
        problems.append(
            f"envelope variation {peak_var:.4f} vs control {control_var:.2e}, "
            f"f_env/f_primary {f_env / f_primary:.3f}"
        )

    return CheckResult(
        "phase-behaviour",
        not problems,
        "; ".join(problems)
        if problems
        else f"lock residual {residual:.1e}; range {r_zero:.4f} -> {r_small:.4f}; "
        f"envelope variation {peak_var:.3f} (control {control_var:.1e}) at "
        f"f_env/f_primary {f_env / f_primary:.2f}",
        "lock < 1e-6; strictly smaller range at phi=0.01; sub-primary envelope "
        "modulation absent from the zero-phase control",
    )


ALL_CHECKS = [
    check_cluster_table_1e4,
    check_cluster_table_1e3,
    check_two_triad_count_1e3,
    check_isolated_below_1e5,
    check_giant_cluster_1e2,
    check_resonance_closure,
    check_irrotational_control,
    check_sigma_scaling,
    check_conservation_suite,
    check_analytic_oracle,
    check_phase_behaviour,
]


def run_all(report=print) -> list[CheckResult]:
    """Run every check, reporting one line per check; returns all results."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if report is not None:
            report(result.line())
    return results
