"""The benchmark's catalogue gates and its drift reader, run in the suite.

The benchmark (perfbench/) reads clusters through the public API: the
clusters.json structure digest, the published cluster tables with their
``len(connections)`` bound, and the summary of every multi-triad cluster.
Its ``cluster_flow`` workload reads the rows of an ``integrate`` trajectory
(``traj[0].hamiltonian``, ``for s in traj``).  These tests run those gates
without rendering any text, so a change to the cluster or trajectory types
that would break the benchmark fails here first.
"""

import sys
import time
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from capwaves import (
    FluidParams,
    build_clusters,
    build_system,
    characteristic_time,
    clusters_to_json,
    conservation_count,
    conserved_quadratics,
    coupling_ratio_hints,
    drift_report,
    enumerate_triads,
    integrate,
)
from capwaves.acceptance import _reference_topologies

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
def test_catalogue_gates_hold(triads_100, params_unit, epsilon):
    digests = workloads.Catalogue(seed=1, out_dir=Path("unused")).digests
    t0 = time.perf_counter()
    clusters = build_clusters(triads_100, epsilon)
    build_s = time.perf_counter() - t0
    payload = clusters_to_json(clusters, epsilon, params_unit, 100)
    assert workloads.structure_digest(payload) == digests[f"100:{epsilon:g}"]
    assert workloads.published_table_misses(epsilon, clusters, build_s) == []

    res = workloads.PassResult()
    multi = [c for c in clusters if c.size > 1]
    for cl in multi:
        try:
            conservation_count(cl)
            coupling_ratio_hints(cl)
        except ValueError as exc:
            workloads.record_summary_error(res, 100, epsilon, cl.size, exc)
        else:
            res.op()
    assert res.attempted == len(multi)
    assert res.correct, res.misses


@cache
def _flow_cluster(name: str):
    """The acceptance four-star, or the first 12-triad cluster of the flow cell."""
    if name == "four-star":
        return next(c for n, c, _ in _reference_topologies() if n == name)
    triads = enumerate_triads(workloads.FLOW_KMAX, FluidParams(1.0))
    clusters = build_clusters(triads, workloads.FLOW_EPSILON)
    return next(c for c in clusters if c.size == 12)


@pytest.mark.parametrize("name", ["four-star", "12-triad"])
def test_natural_drift_reads_trajectory_rows(name):
    # cluster_flow's drift gate reads integrate's rows; it must agree with
    # the library's column reader on the same trajectory
    system = build_system(_flow_cluster(name))
    basis = conserved_quadratics(system)
    rng = np.random.default_rng(20100423)
    b0 = rng.uniform(0.4, 1.2, system.n_modes) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, system.n_modes)
    )
    t_end = workloads.FLOW_T_CHAR * characteristic_time(system, b0)
    traj = integrate(system, b0, t_end, tol=workloads.FLOW_TOL, samples=workloads.FLOW_SAMPLES)
    drift = drift_report(system, basis, b0, traj)
    natural = workloads._natural_drift(system, basis, b0, traj)
    assert natural == pytest.approx(max(drift.hamiltonian, drift.quadratic), rel=1e-12)
    assert 0.0 < natural < 1e-7
