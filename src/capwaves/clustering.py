"""Resonance clustering at finite vorticity accuracy and typed cluster graphs.

Two exact triads belong to the same cluster when a chain of pairwise links
connects them, where a link requires (i) a shared integer wavenumber value
and (ii) generating vorticities within relative accuracy epsilon of each
other (measured against the larger vorticity).

Components are found from adjacent links only.  Every (value, triad)
carrier is sorted once by value, then vorticity, and the link rule is tested
on neighbouring carriers of one value.  For sorted vorticities a <= b the
rule reads b - a < epsilon * b, and it can only fail more easily as a falls
(also in floating point, since rounding is monotone): a pair that straddles
a failed neighbour gap is never linked.  Every pair inside a span of passed
neighbour gaps is chained through them, so the components equal those of the
all-pairs rule at O(n log n) cost.

Within a cluster the shared wavenumber values define the diagram edges.  A
mode is active (A) in a triad when it is the sum mode k3, passive (P)
otherwise.  Per shared value the edges are emitted as: every pair of
A-sharers (the joint active mode, a mutual AA clique), one AP edge from each
P-sharer to the canonical A-sharer, and a PP clique when no triad carries the
value as its active mode.  This reproduces the published connection counts
(e.g. three AA plus one AP for the four-triad star).

Note that the number of *independent conserved quadratics* of a cluster is
governed not by the edge count but by the number of shared-mode
identifications (see :func:`conservation_count`); the two agree for chains
and simple pairs and differ when three or more triads share one mode.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .dispersion import FluidParams
from .resonance_search import Triad

__all__ = [
    "Connection",
    "ClusterGraph",
    "connection_type",
    "build_clusters",
    "conservation_count",
    "carrier_counts",
    "identification_count",
    "coupling_ratio_hints",
    "export_nr_diagram",
    "clusters_to_json",
]

# coupling ratios at which single-shared-mode clusters are known integrable
INTEGRABLE_RATIOS = (1.0, 2.0, 0.5)


@dataclass(frozen=True, slots=True)
class Connection:
    """A shared-mode edge between two triads, typed by the mode's role in each."""

    triad_a: Triad
    triad_b: Triad
    shared_k: int
    kind: str  # "AA", "AP" or "PP"


@dataclass(frozen=True, slots=True)
class ClusterGraph:
    """A connected component of triads with its typed shared-mode edges."""

    triads: tuple[Triad, ...]
    connections: tuple[Connection, ...]
    omega_min: float
    omega_max: float
    spread: float

    @property
    def size(self) -> int:
        return len(self.triads)


def connection_type(triad_a: Triad, triad_b: Triad, shared_k: int) -> Connection:
    """Build the typed connection for a wavenumber value shared by two triads.

    The kind is AA when the value is the sum mode of both triads, PP when it
    is a passive mode of both, AP otherwise.
    """
    role_a = triad_a.role(shared_k)  # raises if shared_k absent
    role_b = triad_b.role(shared_k)
    kind = {("A", "A"): "AA", ("P", "P"): "PP"}.get((role_a, role_b), "AP")
    return Connection(triad_a, triad_b, shared_k, kind)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _component_connections(component: tuple[Triad, ...]) -> list[Connection]:
    """Diagram edges of one component (in Triad order): AA clique / one AP per
    P-sharer / PP clique, per shared value."""
    roles: dict[int, tuple[list[Triad], list[Triad]]] = defaultdict(lambda: ([], []))
    for t in component:
        roles[t.k3][0].append(t)
        roles[t.k1][1].append(t)
        if t.k2 != t.k1:
            roles[t.k2][1].append(t)
    conns: list[Connection] = []
    for value in sorted(roles):
        actives, passives = roles[value]
        for i, a in enumerate(actives):
            conns += [Connection(a, b, value, "AA") for b in actives[i + 1:]]
        if actives:
            conns += [Connection(actives[0], p, value, "AP") for p in passives]
        else:
            for i, a in enumerate(passives):
                conns += [Connection(a, b, value, "PP") for b in passives[i + 1:]]
    return conns


def build_clusters(triads: list[Triad] | tuple[Triad, ...], epsilon: float) -> list[ClusterGraph]:
    """Partition triads into clusters at vorticity accuracy epsilon.

    Returns every connected component, isolated triads included, sorted by
    descending size then ascending vorticity; each component lists its
    triads in Triad order.  The pairwise link rule makes the partition
    refine monotonically in epsilon and keeps it independent of sigma, since
    relative vorticity gaps do not depend on the fluid.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    triads = list(triads)
    n = len(triads)
    k1, k2, k3, omega, z = (
        np.fromiter(map(attrgetter(name), triads), dtype=float, count=n)
        for name in ("k1", "k2", "k3", "omega_gen", "z")
    )
    # one (value, owner) carrier per distinct wavenumber of each triad
    owner = np.arange(n)
    doubled = k2 == k1
    values = np.concatenate((k1, k2[~doubled], k3))
    owners = np.concatenate((owner, owner[~doubled], owner))
    order = np.lexsort((owners, omega[owners], values))
    values, owners = values[order], owners[order]
    a, b = omega[owners[:-1]], omega[owners[1:]]
    linked = (values[1:] == values[:-1]) & (np.abs(b - a) < epsilon * np.maximum(a, b))
    left, right = owners[:-1][linked], owners[1:][linked]
    uf = _UnionFind(n)
    for i, j in zip(left.tolist(), right.tolist()):
        uf.union(i, j)
    label = owner.copy()
    touched = np.union1d(left, right).tolist()
    label[touched] = [uf.find(i) for i in touched]
    # members of each component in Triad order; components by lowest index
    members = np.lexsort((z, omega, k3, k2, k1, label))
    starts = np.flatnonzero(np.diff(label[members], prepend=-1)).tolist()
    ordered = [triads[i] for i in members.tolist()]
    clusters = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        if hi - lo == 1:
            t = ordered[lo]
            comp, conns, omega_min, omega_max = (t,), (), t.omega_gen, t.omega_gen
        else:
            comp = tuple(ordered[lo:hi])
            conns = tuple(_component_connections(comp))
            oms = [t.omega_gen for t in comp]
            omega_min, omega_max = min(oms), max(oms)
        spread = (omega_max - omega_min) / omega_max
        clusters.append(ClusterGraph(comp, conns, omega_min, omega_max, spread))
    clusters.sort(key=lambda c: (-c.size, c.omega_min, c.triads))
    return clusters


def carrier_counts(triads: Iterable[Triad]) -> Counter[int]:
    """Number of triads carrying each wavenumber value (k1 = k2 counts once)."""
    return Counter(v for t in triads for v in set(t.wavenumbers))


def identification_count(cluster: ClusterGraph) -> int:
    """Number of shared-mode identifications: for each wavenumber value carried
    by m triads of the cluster, m - 1 mode slots merge into one."""
    return sum(m - 1 for m in carrier_counts(cluster.triads).values())


def conservation_count(cluster: ClusterGraph) -> int:
    """Number of independent conserved quadratics of the cluster dynamics: 2N - n.

    N is the triad count and n the number of shared-mode identifications;
    each isolated triad carries two such laws and every identification
    removes one.  n equals the connection count for isolated triads, pairs
    and chains; when several triads share one mode the diagram clique holds
    more edges than identifications, and it is the identification count that
    matches the dimension of the conserved-quadratic space (see
    :func:`capwaves.dynamics.conserved_quadratics`).
    """
    seen: set = set()
    for c in cluster.connections:
        key = (c.triad_a, c.triad_b, c.shared_k)
        size = len(seen)
        seen.add(key)  # one hash per key: a duplicate leaves the set unchanged
        if len(seen) == size:
            raise ValueError(f"duplicate connection in cluster: {key}")
    count = 2 * cluster.size - identification_count(cluster)
    if count < 1:
        raise ValueError(
            f"over-connected cluster: 2N - n = {count} < 1 "
            f"(N={cluster.size}, identifications={identification_count(cluster)})"
        )
    return count


def coupling_ratio_hints(
    cluster: ClusterGraph, rel_tol: float = 1e-2
) -> list[tuple[Connection, float]]:
    """Connections whose coupling ratio sits near an integrable value.

    For clusters glued through one common mode, a coupling ratio of 1, 2 or
    1/2 is known to make the dynamics integrable for arbitrary initial
    conditions; this flags connected pairs whose |Z_a / Z_b| falls within
    rel_tol of one of those values.  Reporting only; no classification is
    attempted.
    """
    hints = []
    for conn in cluster.connections:
        ratio = abs(conn.triad_a.z / conn.triad_b.z)
        for target in INTEGRABLE_RATIOS:
            if abs(ratio - target) <= rel_tol * target:
                hints.append((conn, target))
                break
    return hints


def _node_name(t: Triad) -> str:
    return f"{t.k1}+{t.k2}={t.k3}"


def export_nr_diagram(cluster: ClusterGraph) -> str:
    """Deterministic DOT text: one node per triad, one labelled edge per connection."""
    lines = ["graph cluster {"]
    for t in cluster.triads:
        lines.append(f'  "{_node_name(t)}" [shape=triangle];')
    for c in cluster.connections:
        lines.append(
            f'  "{_node_name(c.triad_a)}" -- "{_node_name(c.triad_b)}"'
            f' [label="{c.kind} k={c.shared_k}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def clusters_to_json(
    clusters: list[ClusterGraph], epsilon: float, params: FluidParams, kmax: int
) -> dict:
    """JSON-ready description of a clustering run (deterministic ordering)."""
    out = {"epsilon": epsilon, "sigma": params.sigma, "kmax": kmax, "clusters": []}
    for cl in clusters:
        index = {t: i for i, t in enumerate(cl.triads)} if cl.connections else {}
        out["clusters"].append(
            {
                "triads": [[t.k1, t.k2, t.k3] for t in cl.triads],
                "vorticities": [t.omega_gen for t in cl.triads],
                "spread": cl.spread,
                "connections": [
                    {
                        "a": index[c.triad_a],
                        "b": index[c.triad_b],
                        "shared_k": c.shared_k,
                        "kind": c.kind,
                    }
                    for c in cl.connections
                ],
            }
        )
    return out
