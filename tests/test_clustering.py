import json
import math
from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capwaves import (
    ClusterGraph,
    Connection,
    FluidParams,
    Triad,
    build_clusters,
    build_system,
    clusters_to_json,
    conservation_count,
    coupling_ratio_hints,
    enumerate_triads,
    export_nr_diagram,
    identification_count,
)
from capwaves.cli import _cluster_summary

PAIRS_1E4 = {
    frozenset({(20, 94, 114), (24, 70, 94)}),
    frozenset({(17, 71, 88), (15, 88, 103)}),
    frozenset({(11, 83, 94), (12, 71, 83)}),
    frozenset({(10, 47, 57), (12, 35, 47)}),
}


@pytest.fixture(scope="module")
def clusters_1e3(triads_100):
    return build_clusters(triads_100, 1e-3)


def _multi_sets(clusters):
    return {frozenset(t.wavenumbers for t in c.triads) for c in clusters if c.size > 1}


def _pair_edge(triads_by_wn, a, b):
    """The one typed edge of the two-triad cluster {a, b}."""
    [cluster] = build_clusters([triads_by_wn[a], triads_by_wn[b]], 0.99)
    [conn] = cluster.connections
    assert cluster.kind_counts == {conn.kind: 1}
    return conn


class TestConnectionType:
    def test_joint_active_mode(self, triads_by_wn):
        conn = _pair_edge(triads_by_wn, (50, 50, 100), (49, 51, 100))
        assert (conn.shared_k, conn.kind) == (100, "AA")

    def test_active_passive(self, triads_by_wn):
        conn = _pair_edge(triads_by_wn, (48, 48, 96), (28, 96, 124))
        assert (conn.shared_k, conn.kind) == (96, "AP")

    def test_published_pair_is_active_passive(self, triads_by_wn):
        # 94 is the sum mode of (24,70,94) but a passive mode of (20,94,114)
        conn = _pair_edge(triads_by_wn, (20, 94, 114), (24, 70, 94))
        assert (conn.shared_k, conn.kind) == (94, "AP")
        assert conn.triad_a.wavenumbers == (24, 70, 94)  # the A-sharer comes first

    def test_joint_passive_mode(self, triads_by_wn):
        conn = _pair_edge(triads_by_wn, (5, 9, 14), (5, 11, 16))
        assert (conn.shared_k, conn.kind) == (5, "PP")


class TestBuildClusters:
    def test_published_table_at_1e4(self, triads_100):
        assert _multi_sets(build_clusters(triads_100, 1e-4)) == PAIRS_1E4

    def test_fine_accuracy_keeps_triads_isolated(self, triads_100):
        assert _multi_sets(build_clusters(triads_100, 1e-8)) == set()

    def test_three_star_all_active(self, clusters_1e3):
        star = {(79, 80, 159), (78, 81, 159), (77, 82, 159)}
        [cluster] = [c for c in clusters_1e3 if star <= {t.wavenumbers for t in c.triads}]
        assert {t.wavenumbers for t in cluster.triads} == star
        assert [c.kind for c in cluster.connections] == ["AA", "AA", "AA"]

    def test_four_star_connection_kinds(self, clusters_1e3):
        star = {(48, 48, 96), (47, 49, 96), (28, 96, 124), (46, 50, 96)}
        [cluster] = [c for c in clusters_1e3 if star <= {t.wavenumbers for t in c.triads}]
        assert {t.wavenumbers for t in cluster.triads} == star
        kinds = sorted(c.kind for c in cluster.connections)
        assert kinds == ["AA", "AA", "AA", "AP"]

    def test_monotone_refinement(self, triads_100):
        fine = build_clusters(triads_100, 1e-4)
        coarse_map = {}
        for i, cluster in enumerate(build_clusters(triads_100, 1e-3)):
            for t in cluster.triads:
                coarse_map[t.wavenumbers] = i
        for cluster in fine:
            owners = {coarse_map[t.wavenumbers] for t in cluster.triads}
            assert len(owners) == 1

    def test_sigma_independence(self, triads_100):
        base = _multi_sets(build_clusters(triads_100, 1e-3))
        other = enumerate_triads(100, FluidParams(7.23e-5))
        assert _multi_sets(build_clusters(other, 1e-3)) == base

    def test_spread_bound(self, clusters_1e3):
        for cluster in clusters_1e3:
            assert cluster.spread <= (cluster.size - 1) * 1e-3 + 1e-15

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
    def test_edges_built_only_on_request(self, triads_100, epsilon):
        clusters = [c for c in build_clusters(triads_100, epsilon) if c.size > 1]
        for i, cluster in enumerate(clusters):
            identification_count(cluster)
            for call in (conservation_count, build_system,
                         lambda c: _cluster_summary(i, c, epsilon)):
                try:
                    call(cluster)
                except ValueError:  # over-connected or inconsistently shared
                    pass
        assert all(c._connections is None for c in clusters)
        for cluster in clusters:
            assert cluster.connections is cluster._connections

    def test_isolated_triads_reported(self, triads_100):
        clusters = build_clusters(triads_100, 1e-8)
        assert len(clusters) == len(triads_100)
        assert all(c.size == 1 and not c.connections for c in clusters)
        assert all(c.spread == 0.0 for c in clusters)

    def test_epsilon_validation(self, triads_100):
        with pytest.raises(ValueError):
            build_clusters(triads_100, 0.0)
        with pytest.raises(ValueError):
            build_clusters(triads_100, 1.0)


class TestConservationCount:
    def test_isolated_triad(self, triads_by_wn):
        [cluster] = build_clusters([triads_by_wn[(5, 9, 14)]], 1e-3)
        assert conservation_count(cluster) == 2

    def test_joint_passive_pair(self, triads_by_wn):
        [cluster] = build_clusters(
            [triads_by_wn[(5, 9, 14)], triads_by_wn[(5, 11, 16)]], 0.9
        )
        assert cluster.size == 2
        assert conservation_count(cluster) == 3

    def test_three_star_counts_identifications(self, clusters_1e3):
        star = {(79, 80, 159), (78, 81, 159), (77, 82, 159)}
        [cluster] = [c for c in clusters_1e3 if {t.wavenumbers for t in c.triads} == star]
        # one mode shared by three triads merges twice; the diagram clique
        # still shows three edges
        assert identification_count(cluster) == 2
        assert len(cluster.connections) == 3
        assert conservation_count(cluster) == 4

    def test_four_star(self, clusters_1e3):
        star = {(48, 48, 96), (47, 49, 96), (28, 96, 124), (46, 50, 96)}
        [cluster] = [c for c in clusters_1e3 if {t.wavenumbers for t in c.triads} == star]
        assert identification_count(cluster) == 3
        assert conservation_count(cluster) == 5

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 1e-2])
    def test_identification_count_tallies_carriers(self, triads_100, epsilon):
        for cluster in build_clusters(triads_100, epsilon):
            carriers = Counter(v for t in cluster.triads for v in set(t.wavenumbers))
            assert identification_count(cluster) == sum(m - 1 for m in carriers.values())


class TestExport:
    def test_single_triad_diagram(self, triads_by_wn):
        [cluster] = build_clusters([triads_by_wn[(5, 9, 14)]], 1e-3)
        text = export_nr_diagram(cluster)
        assert text.count("shape=triangle") == 1
        assert "--" not in text

    def test_joint_passive_pair_diagram(self, triads_by_wn):
        [cluster] = build_clusters(
            [triads_by_wn[(5, 9, 14)], triads_by_wn[(5, 11, 16)]], 0.9
        )
        text = export_nr_diagram(cluster)
        assert text.count("shape=triangle") == 2
        assert text.count("--") == 1
        assert 'label="PP k=5"' in text

    def test_four_star_diagram(self, clusters_1e3):
        star = {(48, 48, 96), (47, 49, 96), (28, 96, 124), (46, 50, 96)}
        [cluster] = [c for c in clusters_1e3 if {t.wavenumbers for t in c.triads} == star]
        text = export_nr_diagram(cluster)
        assert text.count("shape=triangle") == 4
        assert text.count('label="AA') == 3
        assert text.count('label="AP') == 1

    def test_deterministic(self, triads_100):
        first = [export_nr_diagram(c) for c in build_clusters(triads_100, 1e-4) if c.size > 1]
        second = [export_nr_diagram(c) for c in build_clusters(triads_100, 1e-4) if c.size > 1]
        assert first == second

    def test_json_schema(self, triads_100, params_unit):
        clusters = build_clusters(triads_100, 1e-4)
        payload = clusters_to_json(clusters, 1e-4, params_unit, 100)
        assert set(payload) == {"epsilon", "sigma", "kmax", "clusters"}
        assert payload["epsilon"] == 1e-4
        assert len(payload["clusters"]) == len(clusters)
        entry = payload["clusters"][0]
        assert set(entry) == {"triads", "vorticities", "spread", "connections"}
        for conn in entry["connections"]:
            assert set(conn) == {"a", "b", "shared_k", "kind"}
            assert 0 <= conn["a"] < len(entry["triads"])
            assert 0 <= conn["b"] < len(entry["triads"])
        json.dumps(payload)  # round-trippable


def test_coupling_ratio_hints():
    # synthetic pair with a ratio exactly at a known-integrable value
    t1 = Triad(1, 2, 3, 1.0, 2.0)
    t2 = Triad(2, 5, 7, 1.0005, 1.0)
    [cluster] = build_clusters([t1, t2], 1e-2)
    assert cluster.size == 2
    hints = coupling_ratio_hints(cluster)
    assert len(hints) == 1
    assert hints[0][1] == 2.0

    t3 = Triad(2, 5, 7, 1.0005, 0.37)  # ratio far from 1, 2, 1/2
    [cluster2] = build_clusters([t1, t3], 1e-2)
    assert coupling_ratio_hints(cluster2) == []


def _reference_build_clusters(triads, epsilon):
    """The window union-find over per-value candidate lists that build_clusters
    replaced, kept verbatim in behaviour as the reference: every pair of a
    value's vorticity-sorted list is tested until the first failure, and each
    edge is typed by the roles of the shared value in its two triads.  Returns
    (cluster, connections) pairs."""
    triads = list(triads)
    parent = list(range(len(triads)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    byval = defaultdict(list)
    for i, t in enumerate(triads):
        byval[t.k1].append(i)
        if t.k2 != t.k1:
            byval[t.k2].append(i)
        byval[t.k3].append(i)
    for idxs in byval.values():
        idxs = sorted(idxs, key=lambda i: triads[i].omega_gen)
        oms = [triads[i].omega_gen for i in idxs]
        for i in range(len(idxs)):
            j = i + 1
            while j < len(idxs) and abs(oms[j] - oms[i]) < epsilon * max(oms[j], oms[i]):
                ra, rb = find(idxs[i]), find(idxs[j])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                j += 1

    def typed(a, b, value):
        roles = tuple("A" if t.k3 == value else "P" for t in (a, b))
        assert all(value in t.wavenumbers for t in (a, b))
        return Connection(a, b, value, {("A", "A"): "AA", ("P", "P"): "PP"}.get(roles, "AP"))

    members = defaultdict(list)
    for i in range(len(triads)):
        members[find(i)].append(triads[i])
    clusters = []
    for comp in members.values():
        comp.sort()
        roles = defaultdict(lambda: ([], []))
        for t in comp:
            roles[t.k3][0].append(t)
            roles[t.k1][1].append(t)
            if t.k2 != t.k1:
                roles[t.k2][1].append(t)
        conns = []
        for value in sorted(roles):
            actives, passives = roles[value]
            if len(actives) + len(passives) < 2:
                continue
            actives.sort()
            passives.sort()
            for i in range(len(actives)):
                for j in range(i + 1, len(actives)):
                    conns.append(typed(actives[i], actives[j], value))
            if actives:
                conns += [typed(actives[0], p, value) for p in passives]
            else:
                for i in range(len(passives)):
                    for j in range(i + 1, len(passives)):
                        conns.append(typed(passives[i], passives[j], value))
        oms = [t.omega_gen for t in comp]
        omega_min, omega_max = min(oms), max(oms)
        cluster = ClusterGraph(
            triads=tuple(comp),
            omega_min=omega_min,
            omega_max=omega_max,
            spread=(omega_max - omega_min) / omega_max,
        )
        clusters.append((cluster, tuple(conns)))
    clusters.sort(key=lambda c: (-c[0].size, c[0].omega_min, c[0].triads))
    return clusters


def _assert_same_clusters(clusters, reference):
    # compared cluster by cluster, so that a failure names the first
    # difference instead of diffing two full reprs; graph equality covers the
    # triads and the vorticity range, so the edges are compared on their own
    assert len(clusters) == len(reference)
    for i, (got, (want, want_connections)) in enumerate(zip(clusters, reference)):
        same = got == want
        assert same, f"cluster {i}: {got.size} triads, reference {want.size}"
        same = got.connections == want_connections
        assert same, f"cluster {i}: {len(got.connections)} edges, {len(want_connections)} wanted"
        assert got.kind_counts == Counter(c.kind for c in got.connections), f"cluster {i}"


class TestAdjacentLinkEquivalence:
    """build_clusters links only vorticity-adjacent carriers of a value; the
    partition, member order, vorticity range and typed edges must equal those
    of the all-pairs window reference."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_subsets_of_the_kmax_100_triads(self, triads_100, data):
        start = data.draw(st.integers(0, len(triads_100) - 1))
        window = triads_100[start:start + data.draw(st.integers(1, 400))]
        keep = data.draw(st.floats(0.05, 1.0))
        rng = data.draw(st.randoms(use_true_random=False))
        subset = [t for t in window if rng.random() < keep]
        rng.shuffle(subset)
        epsilon = 10.0 ** data.draw(st.floats(-6.0, math.log10(0.5)))
        _assert_same_clusters(
            build_clusters(subset, epsilon), _reference_build_clusters(subset, epsilon)
        )

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 1e-2])
    def test_whole_kmax_100_domain(self, triads_100, epsilon):
        _assert_same_clusters(
            build_clusters(triads_100, epsilon), _reference_build_clusters(triads_100, epsilon)
        )

    @pytest.mark.parametrize(
        "triads",
        [
            pytest.param([Triad(3, 3, 6, 2.0, 1.0), Triad(3, 4, 7, 2.001, 0.5)], id="k1-equals-k2"),
            pytest.param([Triad(2, 5, 7, 1.5, 1.0), Triad(1, 2, 3, 1.5, 2.0),
                          Triad(2, 7, 9, 1.5, 0.3)], id="equal-vorticities"),
            pytest.param([Triad(5, 9, 14, 3.0, 1.0)], id="single-triad"),
            pytest.param([Triad(3, 4, 7, 2.0, 1.0), Triad(1, 5, 6, 2.0, 1.0)],
                         id="tied-singletons"),
            # b - a == 0.5 * b exactly: unlinked at epsilon 0.5
            pytest.param([Triad(1, 2, 3, 1.0, 2.0), Triad(2, 5, 7, 2.0, 1.0)], id="gap-at-bound"),
            pytest.param([Triad(1, 2, 3, 1.0, 2.0), Triad(2, 5, 7, 1.0005, 1.0)], id="ratio-hint"),
            pytest.param([Triad(1, 2, 3, 1.0, 2.0), Triad(2, 5, 7, 1.0005, 0.37)], id="no-hint"),
            pytest.param([Triad(2, 5, 7, 1.0005, 1.0), Triad(1, 2, 3, 1.0, 2.0),
                          Triad(2, 5, 7, 1.0005, 1.0)], id="duplicate-triad"),
        ],
    )
    @pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 1e-2, 0.5])
    def test_hand_built(self, triads, epsilon):
        _assert_same_clusters(
            build_clusters(triads, epsilon), _reference_build_clusters(triads, epsilon)
        )
