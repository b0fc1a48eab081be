"""Exact-triad enumeration over an integer spectral domain and resonance widths.

A triad is a pair of positive wavenumbers (k1 <= k2) together with its sum
mode k3 = k1 + k2, the vorticity that closes it exactly and the coupling
coefficient there.  The resonance width of a candidate pair under an
arbitrary vorticity quantifies how far it is from exact resonance.

Enumeration is columnar: :func:`triad_columns` evaluates the closed-form
vorticity and the coupling over the whole (k1 <= k2) grid with vectorized
numpy and returns the sorted columns (k1, k2, k3, omega_gen, z).
:func:`enumerate_triads` wraps them in a :class:`TriadTable`, a read-only
sequence that makes a :class:`Triad` record only when an item is indexed or
iterated; clustering and the writers read the columns themselves.  A record
is a tuple (k1, k2, k3, omega_gen, z): its fields are read by name or
position, it orders and hashes as that tuple, and rows of the grid, which
satisfy the triad rule by construction, are made without re-checking it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import index
from typing import NamedTuple

import numpy as np

from .dispersion import (
    RESONANCE_REL_TOL,
    FluidParams,
    branch_frequency,
    coupling_coefficient,
    resonant_vorticity,
)

__all__ = [
    "Triad",
    "TriadTable",
    "triad_columns",
    "enumerate_triads",
    "resonance_width",
    "min_positive_width",
]


class _TriadRow(NamedTuple):
    k1: int
    k2: int
    k3: int
    omega_gen: float
    z: float


class Triad(_TriadRow):
    """Exact resonance (k1, k2, k3=k1+k2) with generating vorticity and coupling.

    Canonical ordering k1 <= k2 is assumed everywhere downstream; the
    constructor checks it and k3 = k1 + k2.
    """

    __slots__ = ()

    def __new__(cls, k1: int, k2: int, k3: int, omega_gen: float, z: float) -> "Triad":
        if not (0 < k1 <= k2):
            raise ValueError(f"triad requires 0 < k1 <= k2, got ({k1}, {k2})")
        if k3 != k1 + k2:
            raise ValueError(f"triad requires k3 = k1 + k2, got {k3}")
        return tuple.__new__(cls, (k1, k2, k3, omega_gen, z))

    @classmethod
    def _make(cls, iterable) -> "Triad":
        # _replace builds through _make: keep it checked as well
        return cls(*iterable)

    @property
    def wavenumbers(self) -> tuple[int, int, int]:
        return self[:3]


def triad_columns(kmax: int, params: FluidParams) -> tuple[np.ndarray, ...]:
    """Columns (k1, k2, k3, omega_gen, z) of every exact triad with 1 <= k1 <= k2 <= kmax.

    Rows are sorted by generating vorticity, ties broken by (k1, k2).
    k3 = k1 + k2 is deliberately not clipped to kmax: clusters of interest
    contain sum modes beyond the search domain.  Each column has exactly
    kmax (kmax + 1) / 2 entries; the coupling is taken at each triad's own
    generating vorticity.  The columns are read-only.
    """
    k1, k2, k3 = _pair_grid(kmax)
    with np.errstate(all="ignore"):
        omega = resonant_vorticity(k1, k2, params)
        z = coupling_coefficient(k1, k2, k3, omega, params, check_resonant=False)
    if not (np.isfinite(omega).all() and np.isfinite(z).all()):
        raise ValueError(
            f"sigma = {params.sigma!r} gives non-finite vorticities or couplings "
            f"at kmax = {kmax}"
        )
    order = np.lexsort((k2, k1, omega))
    columns = k1[order], k2[order], k3[order], omega[order], z[order]
    for c in columns:
        c.flags.writeable = False
    return columns


class TriadTable(Sequence):
    """Read-only sequence of :class:`Triad` records over five columns.

    ``columns`` are the (k1, k2, k3, omega_gen, z) arrays, integer and float,
    read-only when they come from :func:`triad_columns`.  A record is made
    from them only when an item is indexed or iterated, and a slice is a
    table over views of the same columns.  A table compares equal to a list
    or table of the same records.
    """

    __slots__ = ("columns",)

    def __init__(self, k1, k2, k3, omega_gen, z) -> None:
        self.columns = (k1, k2, k3, omega_gen, z)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TriadTable(*(c[i] for c in self.columns))
        i = index(i)
        return tuple.__new__(Triad, [c.item(i) for c in self.columns])

    def __iter__(self):
        return map(tuple.__new__, repeat(Triad), zip(*(c.tolist() for c in self.columns)))

    def __eq__(self, other):
        if isinstance(other, (list, TriadTable)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def enumerate_triads(kmax: int, params: FluidParams) -> TriadTable:
    """All exact triads with 1 <= k1 <= k2 <= kmax, sorted by generating vorticity.

    The rows of :func:`triad_columns` as a :class:`TriadTable`; the grid
    satisfies the triad rule, so its records are not checked again.
    """
    return TriadTable(*triad_columns(kmax, params))


def _pair_grid(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k1, k2, k1 + k2) over the grid 1 <= k1 <= k2 <= kmax, k1-major."""
    if kmax < 1:
        raise ValueError(f"kmax must be a positive integer, got {kmax}")
    k1, k2 = (i + 1 for i in np.triu_indices(kmax))
    return k1, k2, k1 + k2


def _width(k1, k2, omega_cap: float, params: FluidParams):
    """Signed mismatch omega(k1) + omega(k2) - omega(k1+k2) on the resonant branch."""
    return (
        branch_frequency(k1, omega_cap, params)
        + branch_frequency(k2, omega_cap, params)
        - branch_frequency(k1 + k2, omega_cap, params)
    )


def resonance_width(k1: int, k2: int, omega_cap: float, params: FluidParams) -> float:
    """Frequency mismatch |omega(k1) + omega(k2) - omega(k1+k2)| at the given vorticity.

    Evaluated on the propagation branch that carries the exact resonances of
    positive vorticity (see :mod:`capwaves.dispersion`); vanishes exactly at
    omega_cap = resonant_vorticity(k1, k2) and is continuous in omega_cap.
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError("resonance width requires positive wavenumbers")
    return abs(float(_width(k1, k2, omega_cap, params)))


def min_positive_width(kmax: int, omega_cap: float, params: FluidParams) -> float:
    """Smallest nonzero resonance width on the (k1 <= k2 <= kmax) grid.

    Widths below the exactness tolerance (relative to the sum-mode frequency)
    are treated as exact resonances and excluded; this estimates the gap
    separating the quasi-resonant band from exact resonance.
    """
    k1, k2, k3 = _pair_grid(kmax)
    widths = np.abs(_width(k1, k2, omega_cap, params))
    positive = widths >= RESONANCE_REL_TOL * branch_frequency(k3, omega_cap, params)
    if not positive.any():
        raise ValueError("no positive width in domain: every candidate is exactly resonant")
    return float(widths[positive].min())
