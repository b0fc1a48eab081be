"""Exact-triad enumeration over an integer spectral domain and resonance widths.

A triad is a pair of positive wavenumbers (k1 <= k2) together with its sum
mode k3 = k1 + k2, the vorticity that closes it exactly and the coupling
coefficient there.  The resonance width of a candidate pair under an
arbitrary vorticity quantifies how far it is from exact resonance.

Enumeration is columnar: :func:`triad_columns` evaluates the closed-form
vorticity and the coupling over the whole (k1 <= k2) grid with vectorized
numpy and returns the sorted columns (k1, k2, k3, omega_gen, z).  Writers that
only format rows read those columns directly; :func:`enumerate_triads` turns
them into immutable :class:`Triad` records for everything that works per
triad.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "triad_columns",
    "enumerate_triads",
    "resonance_width",
    "min_positive_width",
]


@dataclass(frozen=True, order=True, slots=True)
class Triad:
    """Exact resonance (k1, k2, k3=k1+k2) with generating vorticity and coupling.

    Canonical ordering k1 <= k2 is assumed everywhere downstream.
    """

    k1: int
    k2: int
    k3: int
    omega_gen: float
    z: float

    def __post_init__(self) -> None:
        if not (0 < self.k1 <= self.k2):
            raise ValueError(f"triad requires 0 < k1 <= k2, got ({self.k1}, {self.k2})")
        if self.k3 != self.k1 + self.k2:
            raise ValueError(f"triad requires k3 = k1 + k2, got {self.k3}")

    @property
    def wavenumbers(self) -> tuple[int, int, int]:
        return (self.k1, self.k2, self.k3)


def triad_columns(kmax: int, params: FluidParams) -> tuple[np.ndarray, ...]:
    """Columns (k1, k2, k3, omega_gen, z) of every exact triad with 1 <= k1 <= k2 <= kmax.

    Rows are sorted by generating vorticity, ties broken by (k1, k2).
    k3 = k1 + k2 is deliberately not clipped to kmax: clusters of interest
    contain sum modes beyond the search domain.  Each column has exactly
    kmax (kmax + 1) / 2 entries; the coupling is taken at each triad's own
    generating vorticity.
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
    return k1[order], k2[order], k3[order], omega[order], z[order]


def enumerate_triads(kmax: int, params: FluidParams) -> list[Triad]:
    """All exact triads with 1 <= k1 <= k2 <= kmax, sorted by generating vorticity.

    The rows of :func:`triad_columns` as :class:`Triad` records.
    """
    columns = [c.tolist() for c in triad_columns(kmax, params)]
    return [Triad(*row) for row in zip(*columns)]


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
