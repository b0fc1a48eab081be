"""Dispersion kernel for 2π-periodic capillary waves riding a constant-vorticity shear.

All quantities are SI: the fluid enters only through sigma, the ratio of the
surface-tension coefficient to the density (m³/s²); the shear current enters
through its constant vorticity Omega (1/s).  Wavenumbers are the nonzero
integer Fourier indices of the periodic domain.

Sign convention.  The dispersion relation is

    omega(k) = -(Omega/2) sgn(k) + sqrt(sigma |k|³ + Omega²/4)

so a positive vorticity Doppler-shifts right-running (k > 0) waves downward.
Triads of *positive* indices (k1, k2, k1+k2) are closed exactly by the
generating vorticity of :func:`resonant_vorticity` on the mirror branch
(k < 0), equivalently at vorticity -Omega; the sign of the vorticity only
selects which propagation direction resonates (ebb versus tide).  The
resonance-facing helpers in :mod:`capwaves.resonance_search` evaluate that
branch, see :func:`branch_frequency`.

Everything here is a pure function of its arguments and safe to call
concurrently from any number of threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_WATER_25C",
    "SIGMA_WATER_5C",
    "FluidParams",
    "tilde_frequency",
    "angular_frequency",
    "branch_frequency",
    "resonant_vorticity",
    "min_resonant_vorticity",
    "coupling_coefficient",
]

# water at standard pressure: surface tension / density, m^3/s^2
SIGMA_WATER_25C = 7.23e-5
SIGMA_WATER_5C = 7.52e-5

# relative tolerance below which a triad is considered exactly resonant
RESONANCE_REL_TOL = 1e-9


@dataclass(frozen=True)
class FluidParams:
    """Fluid constants of the problem: sigma = surface tension / density."""

    sigma: float = SIGMA_WATER_25C

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def tilde_frequency(k, omega_cap: float, params: FluidParams):
    """Shifted frequency sqrt(sigma |k|³ + Omega²/4).

    This is the quantity that diagonalizes the quadratic part of the wave
    Hamiltonian; it is even in both k and the vorticity and strictly
    positive for k != 0.

    Parameters
    ----------
    k : int or ndarray
        Nonzero integer wavenumber(s).
    omega_cap : float
        Constant vorticity Omega (1/s).
    params : FluidParams
    """
    k = np.asarray(k)
    if np.any(k == 0):
        raise ValueError("wavenumber must be nonzero")
    out = np.sqrt(params.sigma * np.abs(k).astype(float) ** 3 + omega_cap**2 / 4.0)
    return out if out.ndim else float(out)


def angular_frequency(k, omega_cap: float, params: FluidParams):
    """Dispersion relation omega(k) = -(Omega/2) sgn(k) + tilde_frequency(k).

    Positive for k > 0 whenever sigma|k|³ > 0; negative k is supported so
    both propagation directions can be inspected.
    """
    k = np.asarray(k)
    out = -(omega_cap / 2.0) * np.sign(k) + tilde_frequency(k, omega_cap, params)
    return out if out.ndim else float(out)


def branch_frequency(k, omega_cap: float, params: FluidParams):
    """Frequency of the mirror propagation branch, omega(-k).

    For positive vorticity the exact triads generated by
    :func:`resonant_vorticity` live on this branch; evaluating it keeps all
    resonance arithmetic in positive integer indices.
    """
    return angular_frequency(-np.asarray(k), omega_cap, params)


def resonant_vorticity(k1, k2, params: FluidParams):
    """Vorticity magnitude at which the pair (k1, k2) joins an exact triad.

    Closed form::

        Omega(k1,k2) = sqrt(sigma/6) * k1 k2 (9k1² + 9k2² + 14k1k2)
                       / [sqrt(k1+k2) sqrt(6k1⁴ + 15k1³k2 + 22k1²k2² + 15k1k2³ + 6k2⁴)]

    Symmetric in (k1, k2) and bounded below by
    :func:`min_resonant_vorticity`, with equality only at k1 = k2 = 1.

    Parameters
    ----------
    k1, k2 : int or ndarray
        Positive integer wavenumbers.
    params : FluidParams

    Returns
    -------
    float or ndarray
        Generating vorticity, in 1/s; scales as sqrt(sigma).
    """
    k1 = np.asarray(k1)
    k2 = np.asarray(k2)
    if np.any(k1 <= 0) or np.any(k2 <= 0):
        raise ValueError("resonant vorticity is defined for positive wavenumbers only")
    a = k1.astype(float)
    b = k2.astype(float)
    num = a * b * (9.0 * a**2 + 9.0 * b**2 + 14.0 * a * b)
    den = np.sqrt(a + b) * np.sqrt(
        6.0 * a**4 + 15.0 * a**3 * b + 22.0 * a**2 * b**2 + 15.0 * a * b**3 + 6.0 * b**4
    )
    out = math.sqrt(params.sigma / 6.0) * num / den
    return out if out.ndim else float(out)


def min_resonant_vorticity(params: FluidParams) -> float:
    """Smallest vorticity magnitude that can generate an exact triad: 2 sqrt(sigma/3)."""
    return 2.0 * math.sqrt(params.sigma / 3.0)


def coupling_coefficient(
    k1,
    k2,
    k3,
    omega_cap: float,
    params: FluidParams,
    *,
    check_resonant: bool = True,
):
    """Three-wave interaction coefficient of the triad (k1, k2, k3 = k1 + k2).

        Z = sqrt(k1 k2 k3 / (pi w1 w2 w3)) * (-w1 w2 / 2 + (Omega/4) w3)

    with w_j = tilde_frequency(k_j).  The formula is meaningful on the
    resonant manifold Omega = resonant_vorticity(k1, k2); off-manifold
    evaluation is allowed as a diagnostic and triggers a warning unless
    ``check_resonant`` is disabled.  Scales as sigma**(1/4) along the
    manifold.
    """
    k1a = np.asarray(k1)
    k2a = np.asarray(k2)
    k3a = np.asarray(k3)
    if np.any(k1a <= 0) or np.any(k2a <= 0):
        raise ValueError("coupling coefficient requires positive k1, k2")
    if np.any(k3a != k1a + k2a):
        raise ValueError("triad precondition violated: k3 must equal k1 + k2")
    if check_resonant:
        om_res = resonant_vorticity(k1a, k2a, params)
        if np.any(np.abs(omega_cap - om_res) > RESONANCE_REL_TOL * np.abs(om_res)):
            warnings.warn(
                "coupling coefficient evaluated off the resonant manifold "
                f"(Omega={omega_cap!r}); value returned as a diagnostic",
                stacklevel=2,
            )
    w1 = tilde_frequency(k1a, omega_cap, params)
    w2 = tilde_frequency(k2a, omega_cap, params)
    w3 = tilde_frequency(k3a, omega_cap, params)
    pref = np.sqrt(k1a * k2a * k3a / (math.pi * w1 * w2 * w3))
    out = pref * (-w1 * w2 / 2.0 + (omega_cap / 4.0) * w3)
    return out if np.ndim(out) else float(out)
