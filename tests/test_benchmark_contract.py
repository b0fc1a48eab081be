"""The benchmark's catalogue gates, run on the kmax = 100 cells.

The benchmark (perfbench/) reads clusters through the public API: the
clusters.json structure digest, the published cluster tables with their
``len(connections)`` bound, and the summary of every multi-triad cluster.
These tests run those gates without rendering any text, so a change to the
cluster types that would break the benchmark fails here first.
"""

import sys
import time
from pathlib import Path

import pytest

from capwaves import build_clusters, clusters_to_json, conservation_count, coupling_ratio_hints

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
