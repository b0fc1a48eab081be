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

A cluster is its triads: which triads carry a wavenumber value, and in
which role, fixes every diagram edge.  A mode is active (A) in a triad when
it is the sum mode k3, passive (P) otherwise.  One tally, the role groups of
every value that two or more triads carry, is the single definition of a
cluster's structure; nothing else is stored.  Per shared value the edges are
every pair of A-sharers (the joint active mode, a mutual AA clique), one AP
edge from each P-sharer to the canonical A-sharer, and a PP clique when no
triad carries the value as its active mode.  This reproduces the published
connection counts (e.g. three AA plus one AP for the four-triad star).  The
edge counts follow from the group sizes alone, so the edges themselves are
made only when ``connections`` is read.

Note that the number of *independent conserved quadratics* of a cluster is
governed not by the edge count but by the number of shared-mode
identifications (see :func:`conservation_count`); the two agree for chains
and simple pairs and differ when three or more triads share one mode.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .dispersion import FluidParams
from .resonance_search import Triad

__all__ = [
    "Connection",
    "ClusterGraph",
    "build_clusters",
    "conservation_count",
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


def _role_groups(triads) -> list[tuple[int, list[Triad], list[Triad]]]:
    """(value, actives, passives) for every wavenumber value that two or more
    of the triads carry, by value.  Actives carry it as sum mode k3, passives
    as k1 or k2 (once when k1 = k2); both lists keep the order of triads."""
    groups: dict[int, tuple[list[Triad], list[Triad]]] = defaultdict(lambda: ([], []))
    for t in triads:
        groups[t.k3][0].append(t)
        groups[t.k1][1].append(t)
        if t.k2 != t.k1:
            groups[t.k2][1].append(t)
    return [(v, a, p) for v, (a, p) in sorted(groups.items()) if len(a) + len(p) > 1]


def _edges(triads):
    """(triad_a, triad_b, value, kind) of every diagram edge, in connection
    order: per shared value an AA clique, one AP edge per P-sharer to the
    first A-sharer, or a PP clique when the value is nowhere active."""
    for value, actives, passives in _role_groups(triads):
        for i, a in enumerate(actives):
            for b in actives[i + 1:]:
                yield a, b, value, "AA"
        if actives:
            for p in passives:
                yield actives[0], p, value, "AP"
        else:
            for i, a in enumerate(passives):
                for b in passives[i + 1:]:
                    yield a, b, value, "PP"


@dataclass(frozen=True, slots=True)
class ClusterGraph:
    """A connected component of triads, in Triad order, and its vorticity range.

    The typed shared-mode edges are derived from the triads: ``kind_counts``
    counts them from the role groups, and ``connections`` makes them on
    first access and keeps them.
    """

    triads: tuple[Triad, ...]
    omega_min: float
    omega_max: float
    spread: float
    # the edge cache lives in a slot: a per-instance __dict__, which
    # functools.cached_property needs, would cost every isolated triad
    _connections: tuple[Connection, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.triads)

    @property
    def connections(self) -> tuple[Connection, ...]:
        """The typed diagram edges (see the module docstring), built once."""
        if len(self.triads) == 1:
            return ()
        if self._connections is None:
            object.__setattr__(
                self, "_connections", tuple(starmap(Connection, _edges(self.triads)))
            )
        return self._connections

    @property
    def kind_counts(self) -> Counter[str]:
        """Number of edges of each kind present, from the group sizes alone:
        AA = C(a, 2), AP = p when a > 0, PP = C(p, 2) when a = 0."""
        counts: Counter[str] = Counter()
        for _, actives, passives in _role_groups(self.triads):
            a, p = len(actives), len(passives)
            counts["AA"] += a * (a - 1) // 2
            if a:
                counts["AP"] += p
            else:
                counts["PP"] += p * (p - 1) // 2
        return +counts  # only the kinds present


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
    links = coo_array(
        (np.ones(np.count_nonzero(linked)), (owners[:-1][linked], owners[1:][linked])),
        shape=(n, n),
    )
    label = connected_components(links, directed=False)[1]
    # members of each component in Triad order, components one after another
    members = np.lexsort((z, omega, k3, k2, k1, label))
    starts = np.flatnonzero(np.diff(label[members], prepend=-1))
    ends = np.append(starts, n)[1:]
    # the same blocks sorted by vorticity: their first and last members give
    # each range, read off the triads so that no float is made per cluster
    by_omega = np.lexsort((omega, label))
    omega_min = [triads[i].omega_gen for i in by_omega[starts].tolist()]
    omega_max = [triads[i].omega_gen for i in by_omega[ends - 1].tolist()]
    ordered = [triads[i] for i in members.tolist()]
    bounds = zip(starts.tolist(), ends.tolist())
    clusters = [
        ClusterGraph(tuple(ordered[lo:hi]), lo_om, hi_om, (hi_om - lo_om) / hi_om)
        for (lo, hi), lo_om, hi_om in zip(bounds, omega_min, omega_max)
    ]
    clusters.sort(key=lambda c: (-c.size, c.omega_min, c.triads))
    return clusters


def identification_count(cluster: ClusterGraph) -> int:
    """Number of shared-mode identifications: for each wavenumber value carried
    by m triads of the cluster, m - 1 mode slots merge into one."""
    return sum(len(a) + len(p) - 1 for _, a, p in _role_groups(cluster.triads))


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
    n = identification_count(cluster)
    count = 2 * cluster.size - n
    if count < 1:
        raise ValueError(
            f"over-connected cluster: 2N - n = {count} < 1 "
            f"(N={cluster.size}, identifications={n})"
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
    attempted.  The edges are walked from the role groups, so a cluster's
    ``connections`` are not built for this.
    """
    hints = []
    for edge in _edges(cluster.triads):
        ratio = abs(edge[0].z / edge[1].z)
        for target in INTEGRABLE_RATIOS:
            if abs(ratio - target) <= rel_tol * target:
                hints.append((Connection(*edge), target))
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
        conns = cl.connections
        index = {t: i for i, t in enumerate(cl.triads)} if conns else {}
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
                    for c in conns
                ],
            }
        )
    return out
