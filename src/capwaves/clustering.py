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
all-pairs rule at O(n log n) cost.  When no neighbour pair links, every
triad is its own component and no graph is searched.

Clustering is columnar: :func:`build_clusters` reads the columns of a
:class:`~capwaves.resonance_search.TriadTable` (other record sequences are
read into columns first), and each cluster it returns holds a row range of
one member-ordered table shared by the whole clustering.  A cluster makes
its ``Triad`` records only when ``triads`` is first read, and
:func:`clusters_to_json` writes isolated triads straight from the columns,
so at small epsilon, where most triads are isolated, no record is made for
them.

A cluster is its triads: which triads carry a wavenumber value, and in
which role, fixes every diagram edge.  A mode is active (A) in a triad when
it is the sum mode k3, passive (P) otherwise.  One tally, the role groups of
every value that two or more triads carry, is the single definition of a
cluster's structure; nothing else is stored.  Per shared value the edges are
every pair of A-sharers (the joint active mode, a mutual AA clique), one AP
edge from each P-sharer to the canonical A-sharer, and a PP clique when no
triad carries the value as its active mode.  This reproduces the published
connection counts (e.g. three AA plus one AP for the four-triad star).  The
edge counts follow from the group sizes alone; the writers read the edges as
columns of triad positions, and ``Connection`` records are made only when
``connections`` is read.

The conserved quadratics of a cluster are the null space of S^T, with S the
signed incidence between its triads and its M mode slots.  One integer pass
over the slot table gives both their number, M - rank(S)
(:func:`conservation_count`), and the basis of the cluster's system.  The
diagram's edge count is a third number, which differs from the paper's n
when three or more triads share one mode.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .dispersion import FluidParams
from .resonance_search import Triad, TriadTable

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
_TARGETS = np.array(INTEGRABLE_RATIOS)[:, None]
# a triad record read into columns
_RECORD = np.dtype([("k1", np.int64), ("k2", np.int64), ("k3", np.int64),
                    ("omega_gen", float), ("z", float)])


class Connection(NamedTuple):
    """A shared-mode edge between two triads, typed by the mode's role in each."""

    triad_a: Triad
    triad_b: Triad
    shared_k: int
    kind: str  # "AA", "AP" or "PP"


def _role_groups(triads) -> list[tuple[int, list[int], list[int]]]:
    """(value, actives, passives) for every wavenumber value that two or more
    of the triads carry, by value.  Actives are the positions of the triads
    that carry it as sum mode k3, passives of those that carry it as k1 or k2
    (once when k1 = k2); both lists ascend."""
    groups: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, (k1, k2, k3, _, _) in enumerate(triads):
        groups[k3][0].append(i)
        groups[k1][1].append(i)
        if k2 != k1:
            groups[k2][1].append(i)
    return [(v, a, p) for v, (a, p) in sorted(groups.items()) if len(a) + len(p) > 1]


def _slot_table(triads) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The wavenumber of each mode slot, and the slots (s1, s2, s3) of each
    triad's k1, k2, k3.  Each value takes one slot, numbered by first
    appearance over k1, k2, k3 of each triad in turn.  A value doubled in a
    k1 = k2 triad that no other triad carries takes a second slot right
    after its first; one that another triad carries keeps one, s1 == s2."""
    carried = Counter(chain.from_iterable(t[:3] for t in triads))
    # slots in order of their keys; the second slot of a doubled value that
    # only its own triad carries (twice) is keyed -k, which no wavenumber is
    slot_of: dict[int, int] = {}
    rows = [(slot_of.setdefault(k1, len(slot_of)),
             slot_of.setdefault(-k2 if k2 == k1 and carried[k1] == 2 else k2, len(slot_of)),
             slot_of.setdefault(k3, len(slot_of)))
            for k1, k2, k3, _, _ in triads]
    return list(map(abs, slot_of)), rows


def _edge_columns(triads) -> tuple[list[int], list[int], list[int], list[str]]:
    """Columns (a, b, value, kind) of every diagram edge in connection order,
    with a and b positions in triads: per shared value an AA clique, one AP
    edge per P-sharer to the first A-sharer, or a PP clique when the value is
    nowhere active."""
    a: list[int] = []
    b: list[int] = []
    values: list[int] = []
    kinds: list[str] = []
    for value, actives, passives in _role_groups(triads):
        clique = actives or passives
        for i, head in enumerate(clique[:-1], start=1):
            a += [head] * (len(clique) - i)
            b += clique[i:]
        n_edges = len(clique) * (len(clique) - 1) // 2
        kinds += ["AA" if actives else "PP"] * n_edges
        if actives:
            a += [actives[0]] * len(passives)
            b += passives
            kinds += ["AP"] * len(passives)
            n_edges += len(passives)
        values += [value] * n_edges
    return a, b, values, kinds


@dataclass(frozen=True, slots=True)
class ClusterGraph:
    """A connected component of triads, in Triad order, and its vorticity range.

    The typed shared-mode edges are derived from the triads: ``kind_counts``
    counts them from the role groups, and ``connections`` makes them on
    first access and keeps them.  A cluster that :func:`build_clusters`
    made holds rows lo:hi of a table shared by the whole clustering and
    makes its ``triads`` records on first access.
    """

    triads: tuple[Triad, ...]
    omega_min: float
    omega_max: float
    spread: float
    # caches and the shared rows live in slots: a per-instance __dict__,
    # which functools.cached_property needs, would cost every isolated triad
    _connections: tuple[Connection, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _table: TriadTable | None = field(default=None, init=False, repr=False, compare=False)
    _lo: int = field(default=0, init=False, repr=False, compare=False)
    _size: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.triads) if self._table is None else self._size

    @property
    def connections(self) -> tuple[Connection, ...]:
        """The typed diagram edges (see the module docstring), built once."""
        if self.size == 1:
            return ()
        if self._connections is None:
            a, b, values, kinds = _edge_columns(self.triads)
            at = self.triads.__getitem__
            rows = zip(map(at, a), map(at, b), values, kinds)
            object.__setattr__(
                self, "_connections", tuple(map(tuple.__new__, repeat(Connection), rows))
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


# The triads field reads through a property over its slot: a cluster made
# over shared rows sets the slot on first read, and __init__, replace and
# unpickling set it through the property as they set any field.
_TRIADS_SLOT = ClusterGraph.triads


def _cluster_triads(cluster: ClusterGraph) -> tuple[Triad, ...]:
    try:
        return _TRIADS_SLOT.__get__(cluster)
    except AttributeError:  # not read since build_clusters made it
        triads = tuple(cluster._table[cluster._lo:cluster._lo + cluster._size])
        _TRIADS_SLOT.__set__(cluster, triads)
        return triads


ClusterGraph.triads = property(_cluster_triads, _TRIADS_SLOT.__set__,
                               doc="The cluster's triads, in Triad order.")


def build_clusters(triads: TriadTable | Iterable[Triad], epsilon: float) -> list[ClusterGraph]:
    """Partition triads into clusters at vorticity accuracy epsilon.

    Returns every connected component, isolated triads included, sorted by
    descending size, then ascending vorticity, then first triad; each
    component lists its triads in Triad order.  The pairwise link rule makes
    the partition refine monotonically in epsilon and keeps it independent
    of sigma, since relative vorticity gaps do not depend on the fluid.

    A :class:`TriadTable` is read as columns; any other sequence of records
    is read into columns first.  The clusters share one table of the
    triads in member order, and none makes a record before it is read.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if isinstance(triads, TriadTable):
        columns = triads.columns
    else:
        rows = np.fromiter(triads, _RECORD)
        columns = tuple(rows[name] for name in _RECORD.names)
    k1, k2, k3, omega, z = columns
    n = len(k1)
    # one (value, owner) carrier per distinct wavenumber of each triad
    owner = np.arange(n)
    doubled = k2 == k1
    values = np.concatenate((k1, k2[~doubled], k3))
    owners = np.concatenate((owner, owner[~doubled], owner))
    order = np.lexsort((owners, omega[owners], values))
    values, owners = values[order], owners[order]
    a, b = omega[owners[:-1]], omega[owners[1:]]
    linked = (values[1:] == values[:-1]) & (np.abs(b - a) < epsilon * np.maximum(a, b))
    if linked.any():
        rows, cols = owners[:-1][linked], owners[1:][linked]
        by_row = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        links = csr_array((np.ones(rows.size), cols[by_row], indptr), shape=(n, n))
        label = connected_components(links, directed=False)[1]
    else:
        label = owner
    # members of each component in Triad order, components one after another;
    # the labels number the components from 0
    in_order = np.lexsort((z, omega, k3, k2, k1))
    members = in_order[np.argsort(label[in_order], kind="stable")]
    sizes = np.bincount(label)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # the same blocks sorted by vorticity: their first and last members give
    # each range
    by_omega = np.lexsort((omega, label))
    lowest, highest = omega[by_omega[starts]], omega[by_omega[ends - 1]]
    # equal records always share a cluster, so the place of each cluster's
    # first triad in Triad order ranks the clusters as those records do
    place = np.empty(n, dtype=np.intp)
    place[in_order] = owner
    ranked = np.lexsort((place[members[starts]], lowest, -sizes))
    lowest, highest, sizes = lowest[ranked], highest[ranked], sizes[ranked]
    # the isolated triads come last: there the range is one vorticity, whose
    # float serves both ends, and the spread is 0.0
    n_multi = np.count_nonzero(sizes > 1)
    omega_min = lowest.tolist()
    omega_max = highest[:n_multi].tolist() + omega_min[n_multi:]
    spread = ((highest - lowest) / highest)[:n_multi].tolist() + [0.0] * (len(sizes) - n_multi)
    # a frozen dataclass's __init__ sets each field through object.__setattr__;
    # here each slot is set for every cluster at once
    clusters = list(map(object.__new__, repeat(ClusterGraph, len(sizes))))
    for slot, column in (
        (ClusterGraph._table, repeat(TriadTable(*(c[members] for c in columns)))),
        (ClusterGraph._lo, starts[ranked].tolist()),
        (ClusterGraph._size, sizes.tolist()),
        (ClusterGraph.omega_min, omega_min),
        (ClusterGraph.omega_max, omega_max),
        (ClusterGraph.spread, spread),
        (ClusterGraph._connections, repeat(None)),
    ):
        deque(map(slot.__set__, clusters, column), maxlen=0)
    return clusters


def identification_count(cluster: ClusterGraph) -> int:
    """Number of shared-mode identifications: for each wavenumber value carried
    by m triads of the cluster, m - 1 mode slots merge into one."""
    return sum(len(a) + len(p) - 1 for _, a, p in _role_groups(cluster.triads))


def conservation_count(cluster: ClusterGraph) -> int:
    """Number of independent conserved quadratics sum_m c_m |B_m|² of the
    cluster dynamics: M - rank(S), in exact integer arithmetic.

    S is the signed incidence between the triads and the M slots of the
    slot table that :func:`capwaves.dynamics.build_system` reads too, and
    the count is d - rank(residuals) of :func:`_law_pass`, the pass that
    gives the system's ``quadratics``.  Momentum, c = k, is always
    conserved, so that rank stops at d - 1.  For an isolated triad, pairs
    and chains, and whenever S has full rank and no doubled mode is shared,
    this is the paper's 2N - n with n the shared-mode identifications
    (:func:`identification_count`); three or more triads on one mode still
    remove one law per identification, not per diagram edge.
    """
    modes, slots = _slot_table(cluster.triads)
    d, _, residuals = _law_pass(slots, len(modes))
    return d - _rank(residuals, cap=d - 1)


def _law_pass(slots: list[tuple[int, int, int]], n_slots: int):
    """The laws {c : c_s1 + c_s2 = c_s3 on every slot row (s1, s2, s3)} as
    (d, forms, residuals); s1 == s2 is a merged doubled slot, counted twice.

    Each slot's coefficient is an integer linear form {parameter: factor} in
    d parameters: the most carried open slot becomes a parameter, and a row
    with one open slot of coefficient +-1 fixes that slot by additions
    alone.  The residuals are the rows that fix no slot, as integer rows
    over the parameters; the laws are the forms on their null space.
    """
    # (slot, coefficient) per row; a merged doubled slot counts twice
    rows = [[(s1, 2), (s3, -1)] if s1 == s2 else [(s1, 1), (s2, 1), (s3, -1)]
            for s1, s2, s3 in slots]
    carriers: list[list[int]] = [[] for _ in range(n_slots)]
    for r, row in enumerate(rows):
        for slot, _ in row:
            carriers[slot].append(r)
    open_in_row = [len(row) for row in rows]
    forms: list[dict[int, int] | None] = [None] * n_slots
    constraints: list[int] = []
    ready: list[int] = []

    def settle(slot: int, form: dict[int, int]) -> None:
        forms[slot] = form
        for r in carriers[slot]:
            open_in_row[r] -= 1
            if open_in_row[r] == 1:
                ready.append(r)
            elif open_in_row[r] == 0:
                constraints.append(r)

    seeds = iter(sorted(range(n_slots), key=lambda m: -len(carriers[m])))
    d = 0
    while True:
        while ready:
            r = ready.pop()
            if open_in_row[r] != 1:
                continue
            [(slot, coef)] = [(m, c) for m, c in rows[r] if forms[m] is None]
            if coef not in (1, -1):
                continue  # 2 c_k = c_2k gives c_2k from c_k, never c_k from c_2k
            form: dict[int, int] = {}
            for m, c in rows[r]:
                if m != slot:
                    for p, x in forms[m].items():
                        form[p] = form.get(p, 0) - coef * c * x
            open_in_row[r] = 0  # settled below to -1: a fixing row is no constraint
            settle(slot, {p: x for p, x in form.items() if x})
        seed = next((m for m in seeds if forms[m] is None), None)
        if seed is None:
            break
        settle(seed, {d: 1})
        d += 1
    residuals = []
    for r in constraints:
        vec = [0] * d
        for m, c in rows[r]:
            for p, x in forms[m].items():
                vec[p] += c * x
        residuals.append(vec)
    return d, forms, residuals


def _law_basis(slots: list[tuple[int, int, int]], n_slots: int) -> list[list[int]]:
    """Primitive basis of the laws of :func:`_law_pass`, reduced with pivots
    from the rightmost slot, by pivot slot: the basis that
    :func:`_integer_nullspace` gives on the rows of S^T."""
    d, forms, residuals = _law_pass(slots, n_slots)
    laws = [[sum(x[p] * c for p, c in form.items()) for form in forms]
            for x in _integer_nullspace(residuals, d)]
    # a seed slot's form is its own parameter, so every law takes a pivot
    rows, _ = _gauss_jordan(laws, range(n_slots - 1, -1, -1))
    return [_primitive(row) for row in reversed(rows)]


def _gauss_jordan(rows: list[list[int]], columns: Iterable[int]):
    """Fraction-free reduced row echelon form of integer rows, pivoting on the
    columns in the given order: the rows, pivot rows first in pivot order,
    and the pivot columns."""
    rows = [row[:] for row in rows]
    nrows = len(rows)
    pivots: list[int] = []
    for col in columns:
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][col]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f != 0:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = math.gcd(*row) or 1
                rows[i] = [a // g for a in row]
        pivots.append(col)
    return rows, pivots


def _integer_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of {x : rows @ x = 0} by fraction-free Gauss-Jordan.

    Each vector is the free-column solution of the reduced row echelon form,
    in :func:`_primitive` form.  The reduced form is unique, so this is the
    basis exact rational elimination gives.
    """
    rows, pivots = _gauss_jordan(rows, range(ncols))
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        # x[free] = 1, x[pivot] = -row[free] / row[pivot], times the common denominator
        used = [(row, c) for row, c in zip(rows, pivots) if row[free] != 0]
        denom = math.lcm(*(row[c] for row, c in used))
        v = [0] * ncols
        v[free] = denom
        for row, c in used:
            v[c] = -row[free] * (denom // row[c])
        basis.append(_primitive(v))
    return basis


def _primitive(v: list[int]) -> list[int]:
    """A nonzero integer vector over the gcd of its entries, signed so that
    its first nonzero entry is positive."""
    g = math.gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return [x // g for x in v]


def _rank(rows: list[list[int]], cap: int) -> int:
    """Rank of integer rows by fraction-free elimination, stopping at cap."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row), echelon order
    for row in rows:
        if len(basis) >= cap:
            break
        for col, prow in basis:
            f = row[col]
            if f:
                p = prow[col]
                row = [p * x - f * y for x, y in zip(row, prow)]
        pivot = next((col for col, x in enumerate(row) if x), None)
        if pivot is not None:
            g = math.gcd(*row)
            basis.append((pivot, [x // g for x in row]))
    return len(basis)


def coupling_ratio_hints(
    cluster: ClusterGraph, rel_tol: float = 1e-2
) -> list[tuple[Connection, float]]:
    """Connections whose coupling ratio sits near an integrable value.

    For clusters glued through one common mode, a coupling ratio of 1, 2 or
    1/2 is known to make the dynamics integrable for arbitrary initial
    conditions; this flags connected pairs whose |Z_a / Z_b| falls within
    rel_tol of one of those values, the first such value in
    ``INTEGRABLE_RATIOS`` order.  Reporting only; no classification is
    attempted.  The ratios are taken over the edge columns at once, so a
    cluster's ``connections`` are not built for this.
    """
    triads = cluster.triads
    a, b, values, kinds = _edge_columns(triads)
    if not a:
        return []
    z = np.fromiter(map(itemgetter(4), triads), float, len(triads))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(z[a] / z[b])
    near = np.abs(ratio - _TARGETS) <= rel_tol * _TARGETS  # (targets, edges)
    edges = np.flatnonzero(near.any(axis=0))
    return [
        (Connection(triads[a[e]], triads[b[e]], values[e], kinds[e]), INTEGRABLE_RATIOS[i])
        for e, i in zip(edges.tolist(), near[:, edges].argmax(axis=0).tolist())
    ]


def export_nr_diagram(cluster: ClusterGraph) -> str:
    """Deterministic DOT text: one node per triad, one labelled edge per connection."""
    names = ['"%s+%s=%s"' % t[:3] for t in cluster.triads]
    a, b, values, kinds = _edge_columns(cluster.triads)
    at = names.__getitem__
    edges = chain.from_iterable(zip(map(at, a), map(at, b), kinds, values))
    return (
        "graph cluster {\n"
        + "  %s [shape=triangle];\n" * len(names) % tuple(names)
        + '  %s -- %s [label="%s k=%s"];\n' * len(a) % tuple(edges)
        + "}\n"
    )


def clusters_to_json(
    clusters: list[ClusterGraph], epsilon: float, params: FluidParams, kmax: int
) -> dict:
    """JSON-ready description of a clustering run (deterministic ordering).

    Each cluster lists its triads' wavenumbers and vorticities, its spread,
    and its connections as (a, b, shared_k, kind) with a and b positions in
    its triads.  The vorticities and connections are tuples, which the
    cyclic garbage collector stops tracking once their items are plain
    numbers and strings; the wavenumber rows stay lists.  ``json.dumps``
    writes both as arrays.  An isolated triad of :func:`build_clusters` is
    written from the shared columns, without its record.
    """
    entries = []
    table = None
    for cl in clusters:
        if cl._table is not None and cl._size == 1:
            if cl._table is not table:
                table = cl._table
                k1, k2, k3 = (c.tolist() for c in table.columns[:3])
            i = cl._lo
            entries.append({"triads": [[k1[i], k2[i], k3[i]]], "vorticities": (cl.omega_min,),
                            "spread": cl.spread, "connections": ()})
            continue
        triads = cl.triads
        entries.append(
            {
                "triads": [[t[0], t[1], t[2]] for t in triads],
                "vorticities": tuple(map(itemgetter(3), triads)),
                "spread": cl.spread,
                "connections": tuple([
                    {"a": i, "b": j, "shared_k": v, "kind": k}
                    for i, j, v, k in zip(*_edge_columns(triads))
                ]),
            }
        )
    return {"epsilon": epsilon, "sigma": params.sigma, "kmax": kmax, "clusters": entries}
