"""The benchmark's catalogue gates and its drift reader, run in the suite.

The benchmark (perfbench/) reads clusters through the public API: the
clusters.json structure digest, the published cluster tables with their
``len(connections)`` bound, and the summary of every multi-triad cluster.
Its ``cluster_flow`` workload reads the rows of an ``integrate`` trajectory
(``traj[0].hamiltonian``, ``for s in traj``).  These tests run those gates
without rendering any text, so a change to the cluster or trajectory types
that would break the benchmark fails here first.
"""

import hashlib
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from capwaves import (
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


# sha256 of the wavenumbers of the clusters cluster_flow integrates, recorded
# before clustering read triads as columns; their order fixes the states a
# pass draws, and so the drift failures it counts
FLOW_CLUSTERS_SHA256 = "0e4368cd840816c42cec17f31917f95905fa9cbb7bc1d67eeab53ef6507648e8"
# sha256 of the slot tables, (modes, term_rows), and of the invariant bases,
# [q.tolist() for each system's quadratics], that build_system gives the flow
# clusters and the multi-triad clusters at kmax 100, eps 1e-2 that have no
# merged doubled slot (m1 == m2); the tables were recorded before
# build_system and conservation_count shared one slot table, the bases while
# the basis was still eliminated from the rows of S^T.  The slot order fixes
# the states cluster_flow draws and trajectory.csv, the bases its invariants.
SLOT_TABLES_SHA256 = {
    "flow": ("79eb2d9e36edb6ed3f3507b96f74adf48948873d5a423bce3d9fc9e1df455a2b",
             "f9c7faa0571a5f54e8c887f1010a5f8c496b43469c48bd2d3b42b22ba6248d7b"),
    "kmax100-0.01": ("2a95aaf8636822ff181c4d4604945befe09520851637c8786bd83629a15d79d7",
                     "8e3fdd46f4ddffacfaa5d5ecc5f2ba2f80007c5665acff9e563b2d660f4bc918"),
}
# sha256 of all 110 slot tables at kmax 100, eps 1e-2, the two giants' merged
# slots included, recorded once build_system accepted them
ALL_TABLES_SHA256 = "aeafca9de2b5bba44abdf4f7e6ae4bea367d3d10b963e5138b9f8d24844b3166"


@pytest.mark.parametrize(
    "kmax, epsilon",
    [pytest.param(kmax, eps, id=f"{eps:g}" if kmax == 100 else f"kmax{kmax}-{eps:g}")
     for kmax, eps in workloads.CATALOGUE_CELLS],
)
def test_catalogue_gates_hold(params_unit, kmax, epsilon):
    digests = workloads.Catalogue(seed=1, out_dir=Path("unused")).digests
    triads = enumerate_triads(kmax, params_unit)
    t0 = time.perf_counter()
    clusters = build_clusters(triads, epsilon)
    build_s = time.perf_counter() - t0
    payload = clusters_to_json(clusters, epsilon, params_unit, kmax)
    assert workloads.structure_digest(payload) == digests[f"{kmax}:{epsilon:g}"]
    # the columns and the records make one payload
    records = clusters_to_json(build_clusters(list(triads), epsilon), epsilon, params_unit, kmax)
    assert records == payload
    if kmax == 100:
        assert workloads.published_table_misses(epsilon, clusters, build_s) == []

    res = workloads.PassResult()
    multi = [c for c in clusters if c.size > 1]
    for cl in multi:
        try:
            conservation_count(cl)
            coupling_ratio_hints(cl)
        except ValueError as exc:
            workloads.record_summary_error(res, kmax, epsilon, cl.size, exc)
        else:
            res.op()
    assert res.attempted == len(multi)
    assert res.correct, res.misses


@cache
def _flow_clusters():
    """The first cluster of each size in FLOW_SIZES, as cluster_flow's set-up takes them."""
    return workloads.ClusterFlow(seed=1, out_dir=Path("unused")).clusters


def test_flow_clusters_are_pinned():
    clusters = _flow_clusters()
    assert [c.size for c in clusters] == list(workloads.FLOW_SIZES)
    text = repr([[t.wavenumbers for t in c.triads] for c in clusters])
    assert hashlib.sha256(text.encode()).hexdigest() == FLOW_CLUSTERS_SHA256


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name", list(SLOT_TABLES_SHA256))
def test_slot_tables_are_pinned(params_unit, name):
    if name == "flow":
        clusters = _flow_clusters()
    else:
        clusters = build_clusters(enumerate_triads(100, params_unit), 1e-2)
    systems = [build_system(cluster) for cluster in clusters if cluster.size > 1]
    assert len(systems) == (9 if name == "flow" else 110)
    if name != "flow":
        assert _sha256([(s.modes, s.term_rows) for s in systems]) == ALL_TABLES_SHA256
    unmerged = [s for s in systems if all(m1 != m2 for m1, m2, _, _ in s.term_rows)]
    assert len(unmerged) == (9 if name == "flow" else 108)
    tables_digest, bases_digest = SLOT_TABLES_SHA256[name]
    assert _sha256([(s.modes, s.term_rows) for s in unmerged]) == tables_digest
    assert _sha256([s.quadratics.tolist() for s in unmerged]) == bases_digest


@cache
def _flow_cluster(name: str):
    """The acceptance four-star, or the first 12-triad cluster of the flow cell."""
    if name == "four-star":
        return next(c for n, c, _ in _reference_topologies() if n == name)
    return next(c for c in _flow_clusters() if c.size == 12)


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
