"""Coupled complex-amplitude dynamics of a resonance cluster.

Each triad j contributes the canonical three-wave right-hand side

    dB1 += Z_j B2* B3,   dB2 += Z_j B1* B3,   dB3 -= Z_j B1 B2

on its three mode slots; slots are shared between triads according to the
cluster's shared wavenumber values, which couples the systems.  The
Hamiltonian is the coupling-weighted sum of the triple-product imaginaries
(for a single triad this is Z Im(B1 B2 B3*), i.e. Z times the bare
triple-product invariant).  Quadratic invariants are obtained by exact integer
elimination as the null space of the transposed signed incidence matrix
between modes and triads, whose rows are read straight off the system's one
slot table (the slot indices and coupling of every triad).

Integration is an explicit adaptive Runge-Kutta scheme with an embedded
error estimate (scipy's DOP853) and dense output; conserved quantities are
monitored along the trajectory, never projected, so their drift doubles as a
global accuracy meter.  The dense output is a DenseSolution: every step's
interpolation coefficients stacked once and evaluated with scipy's own
arithmetic, so its values are bit-identical to scipy's OdeSolution, at a
fraction of the cost per call; one slot can be evaluated alone.

The right-hand side loops over the triads on Python complex numbers: cheaper
per call than numpy scalars at every size, and than a numpy gather for small
clusters and isolated triads.  Everything evaluated along a trajectory
(Hamiltonian, phases, invariants, period grids) works on whole sample grids
at once.

A ClusterSystem is immutable once built and can be shared across threads;
every integration owns its state.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .clustering import ClusterGraph, _role_groups
from .resonance_search import Triad

__all__ = [
    "TriadTerm",
    "ClusterSystem",
    "TrajectorySample",
    "IntegrationError",
    "DenseSolution",
    "Regime",
    "Drift",
    "build_system",
    "time_derivative",
    "hamiltonian",
    "conserved_quadratics",
    "dynamical_phases",
    "phase_lock_residual",
    "drift_report",
    "solve_dense",
    "integrate",
    "characteristic_time",
    "measure_period",
    "refine_minimum",
    "classify_regime",
    "mode_labels",
]


@dataclass(frozen=True)
class TriadTerm:
    """One triad's contribution: slot indices (m1, m2 passive, m3 active) and coupling."""

    m1: int
    m2: int
    m3: int
    z: float


@dataclass(frozen=True, eq=False)
class ClusterSystem:
    """Deduplicated mode slots and the slot table of per-triad coupling terms.

    Slot count M = 3N - n with n the number of shared-mode identifications.
    Every other view of the table (``term_rows``, ``term_arrays``,
    ``incidence``) is derived from ``terms`` when first asked for.
    """

    modes: tuple[int, ...]  # wavenumber per slot; k1 = k2 triads carry two slots
    terms: tuple[TriadTerm, ...]
    triads: tuple[Triad, ...]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n_triads(self) -> int:
        return len(self.terms)

    @cached_property
    def term_rows(self) -> tuple[tuple[int, int, int, float], ...]:
        """(m1, m2, m3, z) of every triad as Python scalars, for the RHS loop."""
        return tuple((t.m1, t.m2, t.m3, t.z) for t in self.terms)

    @cached_property
    def term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot indices (3, N), rows m1, m2, m3, and couplings z (N,), for array evaluation."""
        m1, m2, m3, z = zip(*self.term_rows)
        return np.array([m1, m2, m3]), np.array(z, dtype=float)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Signed incidence (M, N): +1 where slot m is a passive mode of triad j,
        -1 where it is the active mode, 0 otherwise."""
        return np.array(_incidence_rows(self), dtype=int).T


def _incidence_rows(system: ClusterSystem) -> list[list[int]]:
    """Rows of the transposed incidence S^T, one per triad, as Python ints."""
    rows = []
    for m1, m2, m3, _ in system.term_rows:
        row = [0] * system.n_modes
        row[m1] += 1
        row[m2] += 1
        row[m3] -= 1
        rows.append(row)
    return rows


class IntegrationError(RuntimeError):
    """Integration failed; carries the last accepted time and state."""

    def __init__(self, message: str, t_last: float, state_last: np.ndarray) -> None:
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: np.ndarray  # complex amplitudes per slot
    hamiltonian: float
    invariants: np.ndarray  # conserved quadratics, basis order of conserved_quadratics
    phases: np.ndarray  # per-triad dynamical phase in (-pi, pi], NaN when undefined


class Regime(enum.Enum):
    DISCRETE = "discrete"
    MESOSCOPIC = "mesoscopic"
    KINETIC = "kinetic"


def build_system(cluster: ClusterGraph) -> ClusterSystem:
    """Assemble the coupled ODE system of a cluster.

    Mode slots are merged across triads by shared wavenumber value.  A triad
    with k1 = k2 keeps two distinct slots for the duplicated value (the
    published two-triad systems treat them as independent variables); if such
    a value is additionally shared with another triad the mapping would be
    ambiguous and a structural error is raised.
    """
    shared = {value for value, _, _ in _role_groups(cluster.triads)}
    modes: list[int] = []
    value_slot: dict[int, int] = {}
    terms: list[TriadTerm] = []
    for t in cluster.triads:
        slot_idx: list[int] = []
        for pos, v in enumerate(t.wavenumbers):
            duplicate = pos == 1 and t.k2 == t.k1
            if duplicate:
                if v in shared:
                    raise ValueError(
                        f"inconsistent sharing: value {v} is duplicated inside triad "
                        f"{t.wavenumbers} and shared with another triad"
                    )
                modes.append(v)
                slot_idx.append(len(modes) - 1)
                continue
            if v in value_slot:
                slot_idx.append(value_slot[v])
            else:
                modes.append(v)
                value_slot[v] = len(modes) - 1
                slot_idx.append(value_slot[v])
        terms.append(TriadTerm(slot_idx[0], slot_idx[1], slot_idx[2], t.z))
    return ClusterSystem(modes=tuple(modes), terms=tuple(terms), triads=tuple(cluster.triads))


def mode_labels(system: ClusterSystem) -> list[str]:
    """Stable per-slot labels 'k<value>', disambiguating duplicated values."""
    seen: dict[int, int] = {}
    labels = []
    for v in system.modes:
        seen[v] = seen.get(v, 0) + 1
        labels.append(f"k{v}" if seen[v] == 1 else f"k{v}_{seen[v]}")
    return labels


def _rhs(
    rows: tuple[tuple[int, int, int, float], ...], n_modes: int, state: np.ndarray
) -> np.ndarray:
    """The per-triad right-hand-side loop, on Python complex numbers."""
    b = state.tolist()
    out = [0j] * n_modes
    for m1, m2, m3, z in rows:
        b1, b2, b3 = b[m1], b[m2], b[m3]
        out[m1] += z * b2.conjugate() * b3
        out[m2] += z * b1.conjugate() * b3
        out[m3] -= z * b1 * b2
    return np.array(out)


def time_derivative(system: ClusterSystem, state: np.ndarray) -> np.ndarray:
    """Right-hand side of the cluster ODE for a complex state vector."""
    state = np.asarray(state)
    if state.shape != (system.n_modes,):
        raise ValueError(f"state must have shape ({system.n_modes},), got {state.shape}")
    return _rhs(system.term_rows, system.n_modes, state)


def _triple_products(system: ClusterSystem, state: np.ndarray) -> np.ndarray:
    """B1 B2 B3* of every triad: shape (N,) for an (M,) state, (N, T) for (M, T)."""
    b = np.asarray(state)[system.term_arrays[0]]
    return b[0] * b[1] * np.conj(b[2])


def hamiltonian(system: ClusterSystem, state: np.ndarray) -> float | np.ndarray:
    """Coupling-weighted Hamiltonian sum_j Z_j Im(B1 B2 B3*) over the triads.

    A float for an (M,) state, one value per column for an (M, T) state.
    """
    h = system.term_arrays[1] @ _triple_products(system, state).imag
    return float(h) if h.ndim == 0 else h


def _integer_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of {x : rows @ x = 0} by fraction-free Gauss-Jordan.

    Each vector is the free-column solution of the reduced row echelon form,
    scaled to coprime integers with a positive leading entry.  The reduced
    form is unique, so this is the basis exact rational elimination gives.
    """
    rows = [row[:] for row in rows]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f != 0:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = math.gcd(*row) or 1
                rows[i] = [a // g for a in row]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        # x[free] = 1 and x[pivot] = -rows[rr][free] / rows[rr][pivot], times
        # the common denominator
        used = [(rr, c) for rr, c in enumerate(pivots) if rows[rr][free_col] != 0]
        denom = math.lcm(*(rows[rr][c] for rr, c in used)) if used else 1
        v = [0] * ncols
        v[free_col] = denom
        for rr, c in used:
            v[c] = -rows[rr][free_col] * (denom // rows[rr][c])
        g = math.gcd(*v)
        v = [x // g for x in v]
        if next(x for x in v if x != 0) < 0:
            v = [-x for x in v]
        basis.append(v)
    return basis


def conserved_quadratics(system: ClusterSystem) -> np.ndarray:
    """Integer basis of the conserved quadratics sum_m c_m |B_m|².

    The coefficient vectors span the null space of the transposed incidence
    matrix, computed by exact integer elimination in primitive integer form.
    The dimension is M - rank(S); with a full-rank incidence (true for all
    published cluster topologies) this equals M - N, which is 2N - n, the
    Manley-Rowe count for N triads with n = 3N - M shared-mode identifications.
    """
    basis = _integer_nullspace(_incidence_rows(system), system.n_modes)
    out = np.array(basis, dtype=np.int64).reshape(len(basis), system.n_modes)
    expected = system.n_modes - system.n_triads
    if len(basis) != expected:
        warnings.warn(
            f"conserved-quadratic dimension {len(basis)} differs from 2N - n = {expected}: "
            "rank-deficient incidence",
            stacklevel=2,
        )
    return out


def dynamical_phases(system: ClusterSystem, state: np.ndarray) -> np.ndarray:
    """Per-triad dynamical phase theta1 + theta2 - theta3, wrapped to (-pi, pi].

    Computed as the argument of the triple product B1 B2 B3*, which performs
    the wrapping exactly; NaN marks triads with a zero amplitude (a zero
    triple product), where the phase is undefined.  Shape (N,) for an (M,)
    state, (N, T) for an (M, T) state.
    """
    triple = _triple_products(system, state)
    phases = np.arctan2(triple.imag, triple.real)
    phases[triple == 0] = np.nan
    return phases


def phase_lock_residual(phases: np.ndarray) -> float:
    """Largest distance of the defined dynamical phases to the locked set {0, pi}.

    Takes phases of any shape, e.g. the (T, N) block of a trajectory; NaN
    entries (undefined phases) are skipped, and the result is NaN when no
    phase is defined.
    """
    phases = np.asarray(phases)
    defined = np.abs(phases[~np.isnan(phases)])
    if defined.size == 0:
        return float("nan")
    return float(np.max(np.minimum(defined, np.pi - defined)))


@dataclass(frozen=True)
class Drift:
    """Largest relative drift of the Hamiltonian and of the conserved quadratics."""

    hamiltonian: float
    quadratic: float


def drift_report(
    system: ClusterSystem,
    basis: np.ndarray,
    initial: np.ndarray,
    trajectory: list[TrajectorySample],
) -> Drift:
    """Drift of the conserved quantities along a trajectory, against natural magnitudes.

    A quadratic with cancelling signs can start near zero, so each quantity
    is measured against the size of its contributions at the initial state:
    sum_m |c_m| |B_m|² for a quadratic, sum_j |Z_j| |B1 B2 B3| for the
    Hamiltonian, or the initial value where that is larger.  A quantity whose
    contributions all vanish initially has no natural magnitude and is
    measured in absolute terms.
    """
    b0 = np.asarray(initial)
    index, z = system.term_arrays
    b = b0[index]
    h = np.array([s.hamiltonian for s in trajectory])
    q = np.array([s.invariants for s in trajectory])
    h_scale = max(abs(h[0]), float(np.abs(z) @ np.abs(b[0] * b[1] * b[2])))
    q_scale = np.maximum(np.abs(q[0]), np.abs(basis).astype(float) @ (np.abs(b0) ** 2))
    q_scale[q_scale == 0.0] = 1.0
    return Drift(
        hamiltonian=float(np.max(np.abs(h - h[0]))) / (h_scale or 1.0),
        quadratic=float(np.max(np.abs(q - q[0]) / q_scale, initial=0.0)),
    )


def characteristic_time(system: ClusterSystem, initial: np.ndarray) -> float:
    """Nonlinear time scale 1 / (max |Z| * max initial amplitude)."""
    zmax = max(abs(term.z) for term in system.terms)
    bmax = float(np.max(np.abs(initial)))
    if zmax == 0.0 or bmax == 0.0:
        raise ValueError("characteristic time undefined for zero coupling or zero state")
    return 1.0 / (zmax * bmax)


class DenseSolution:
    """The dense output of one DOP853 solve, every step stacked once.

    Step s covers [ts[s], ts[s + 1]] with ``t_old`` (S,), ``h`` (S,),
    ``y_old`` (S, M) and the seven interpolation coefficient rows ``coeffs``
    (S, 7, M), stored in Horner order (scipy's ``F`` reversed).

    Calling it evaluates scipy's ``Dop853DenseOutput`` arithmetic in the same
    order (``y += f``, then ``y *= x`` or ``y *= 1 - x`` in turn, then
    ``y += y_old``), on the step ``OdeSolution`` picks
    (``searchsorted(ts, t, side="left") - 1``, clipped to the steps), so the
    values are bit-identical to scipy's.  Every multiplier is real, so the
    complex products round the same on numpy arrays and on the Python
    ``complex`` values of the scalar path.  A scalar time gives an (M,)
    state, a 1-D array of times an (M, T) block in scipy's memory layout;
    times outside [0, t_end] extrapolate from the end steps.  :meth:`slot`
    evaluates one slot alone.
    """

    __slots__ = ("ts", "t_old", "h", "y_old", "coeffs", "_ts", "_t_old", "_h", "_last")

    def __init__(self, ts, t_old, h, y_old, coeffs) -> None:
        self.ts, self.t_old, self.h, self.y_old, self.coeffs = ts, t_old, h, y_old, coeffs
        # Python floats for the scalar path
        self._ts, self._t_old, self._h = ts.tolist(), t_old.tolist(), h.tolist()
        self._last = len(self._h) - 1

    @classmethod
    def from_ode_solution(cls, sol) -> DenseSolution:
        """Restack the per-step ``Dop853DenseOutput`` pieces of a scipy ``OdeSolution``."""
        steps = sol.interpolants
        return cls(
            np.asarray(sol.ts, dtype=float),
            np.array([s.t_old for s in steps], dtype=float),
            np.array([s.h for s in steps], dtype=float),
            np.array([s.y_old for s in steps]),
            np.array([s.F[::-1] for s in steps]),
        )

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            seg, wx, wu = self._step(float(t))
            return np.array([
                _horner(wx, wu, y0, *col)
                for y0, col in zip(self.y_old[seg].tolist(), self.coeffs[seg].T.tolist())
            ])
        return self._block(t, self.y_old, self.coeffs)

    def slot(self, m: int):
        """Interpolant of slot m alone: a complex for a scalar time, (T,) for an array."""
        y_old, coeffs = self.y_old[:, m], self.coeffs[:, :, m]

        def at(t):
            t = np.asarray(t)
            if t.ndim == 0:
                seg, wx, wu = self._step(float(t))
                return np.complex128(_horner(wx, wu, y_old[seg].item(), *coeffs[seg].tolist()))
            return self._block(t, y_old, coeffs)

        return at

    def _step(self, t: float) -> tuple[int, complex, complex]:
        """Step of a scalar time, and its Horner multipliers x and 1 - x as complex."""
        seg = min(max(bisect_left(self._ts, t) - 1, 0), self._last)
        x = (t - self._t_old[seg]) / self._h[seg]
        return seg, complex(x), complex(1 - x)

    def _block(self, t: np.ndarray, y_old: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Values at a 1-D array of times: (M, T) for the full stacks, (T,) for one slot."""
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        seg = np.searchsorted(self.ts, t, side="left") - 1
        np.clip(seg, 0, self._last, out=seg)
        x = ((t - self.t_old[seg]) / self.h[seg]).reshape((-1,) + (1,) * (y_old.ndim - 1))
        weights = (x, 1 - x)
        y = np.zeros((t.size,) + y_old.shape[1:], dtype=y_old.dtype)
        for i in range(coeffs.shape[1]):
            y += coeffs[seg, i]
            y *= weights[i % 2]
        y += y_old[seg]
        return y.T


def _horner(wx, wu, y_old, f0, f1, f2, f3, f4, f5, f6) -> complex:
    """One slot of scipy's DOP853 Horner sequence (seven rows), on Python complex values."""
    y = (((0j + f0) * wx + f1) * wu + f2) * wx
    return ((((y + f3) * wu + f4) * wx + f5) * wu + f6) * wx + y_old


def solve_dense(
    system: ClusterSystem, initial: np.ndarray, t_end: float, tol: float
) -> DenseSolution:
    """Integrate over [0, t_end] and return the dense interpolant of the state.

    The returned :class:`DenseSolution` maps a time (scalar or array) to the
    complex state, bit-identical to scipy's ``OdeSolution`` of the same
    solve, which is dropped once restacked; ``slot(m)`` evaluates one slot.
    :func:`integrate` and :func:`measure_period` are built on it, and it is
    the handle to use when comparing trajectories against closed-form
    solutions at arbitrary times.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (system.n_modes,):
        raise ValueError(f"initial state must have shape ({system.n_modes},)")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    scale = max(float(np.max(np.abs(initial))), 1.0)
    rows, n_modes = system.term_rows, system.n_modes
    sol = solve_ivp(
        lambda t, y: _rhs(rows, n_modes, y),
        (0.0, t_end),
        initial,
        method="DOP853",
        rtol=tol,
        atol=tol * scale,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(
            f"integration failed at t={sol.t[-1]}: {sol.message}",
            float(sol.t[-1]),
            sol.y[:, -1],
        )
    return DenseSolution.from_ode_solution(sol.sol)


def integrate(
    system: ClusterSystem,
    initial: np.ndarray,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 1000,
) -> list[TrajectorySample]:
    """Integrate the cluster from the given state over [0, t_end].

    Samples are taken at a fixed time stride through the integrator's dense
    output.  Each sample carries the Hamiltonian, every conserved quadratic
    and the per-triad dynamical phases; the relative drift of the conserved
    quantities stays below ~100 tol.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    times = np.linspace(0.0, t_end, samples)
    # the dense solution is dropped once sampled, before the block evaluations
    states = solve_dense(system, initial, t_end, tol)(times)
    basis = conserved_quadratics(system).astype(float)
    hams = hamiltonian(system, states)
    invariants = np.abs(states.T) ** 2 @ basis.T
    phases = dynamical_phases(system, states).T
    return [
        TrajectorySample(t=float(t), state=state, hamiltonian=float(h), invariants=q, phases=phi)
        for t, state, h, q, phi in zip(times, states.T, hams, invariants, phases)
    ]


def _interior_minimum(vals: np.ndarray, first: bool = False) -> int:
    """Index of the lowest (or the earliest) strict interior minimum of samples."""
    mins = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
    if mins.size == 0:
        raise ValueError("no strict interior minimum on the grid")
    return int(mins[0] if first else mins[np.argmin(vals[mins])])


def refine_minimum(rho, grid: np.ndarray, xtol: float, first: bool = False) -> float:
    """Brent-refined minimum of a signal, started from a strict interior grid minimum.

    ``rho`` maps a time, or an array of times, to the signal; the grid is
    sampled in one call.  Brent starts from the lowest strict interior
    minimum of the samples (the earliest one with ``first``), whose two grid
    neighbours are a valid bracket; a minimum on the edge of the grid is never
    used.  Raises ValueError when the samples have no strict interior minimum.
    """
    i = _interior_minimum(rho(grid), first)
    res = minimize_scalar(
        lambda t: float(rho(t)),
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="brent",
        options={"xtol": xtol},
    )
    return float(res.x)


def measure_period(
    system: ClusterSystem,
    initial: np.ndarray,
    t_end: float,
    tol: float = 1e-12,
    mode: int | None = None,
) -> float:
    """Oscillation period of one squared amplitude, |B_mode|².

    A coarse estimate comes from the autocorrelation of the sampled signal;
    it is then refined to the spacing of two consecutive minima located on
    the integrator's dense output.  Defaults to the active slot of the first
    triad, whose squared amplitude is periodic for an isolated triad.
    """
    if mode is None:
        mode = system.terms[0].m3
    b_mode = solve_dense(system, np.asarray(initial, dtype=complex), t_end, tol).slot(mode)

    def rho(t):
        return np.abs(b_mode(t)) ** 2

    ngrid = 8192
    ts = np.linspace(0.0, t_end, ngrid)
    vals = rho(ts)
    x = vals - vals.mean()
    if np.max(np.abs(x)) < 1e-14 * max(np.max(vals), 1.0):
        raise ValueError("signal is constant; no period to measure")
    # autocorrelation at lags 0..ngrid-1, zero-padded against circular wrap
    spec = np.fft.rfft(x, 2 * ngrid)
    acf = np.fft.irfft(spec.real**2 + spec.imag**2, 2 * ngrid)[:ngrid]
    peaks = np.where((acf[1:-1] > acf[:-2]) & (acf[1:-1] > acf[2:]))[0] + 1
    peaks = peaks[acf[peaks] > 0.5 * acf[0]]
    if peaks.size == 0:
        raise ValueError("no periodicity detected within t_end")
    coarse = ts[peaks[0]]

    def refine_min(center: float) -> float:
        lo = max(center - 0.35 * coarse, 0.0)
        hi = min(center + 0.35 * coarse, t_end)
        return refine_minimum(rho, np.linspace(lo, hi, 201), 1e-12)

    # a minimum within the first coarse period, then its successor
    grid0 = np.linspace(0.0, coarse * 1.05, 301)
    t_first = refine_min(grid0[_interior_minimum(rho(grid0))])
    if t_first + 1.2 * coarse > t_end:
        raise ValueError("t_end too short to bracket two minima")
    t_second = refine_min(t_first + coarse)
    return t_second - t_first


def classify_regime(broadening: float, z: float, b_char: float) -> Regime:
    """Wave-turbulence regime from resonance broadening vs. the nonlinear rate |Z B|.

    The ratio rho = broadening / |Z B| selects: discrete for rho < 0.1,
    kinetic for rho > 10, mesoscopic in between.
    """
    if broadening < 0.0:
        raise ValueError(f"broadening must be nonnegative, got {broadening}")
    rate = abs(z * b_char)
    if rate == 0.0:
        raise ValueError("nonlinear rate Z * B must be nonzero")
    ratio = broadening / rate
    if ratio < 0.1:
        return Regime.DISCRETE
    if ratio > 10.0:
        return Regime.KINETIC
    return Regime.MESOSCOPIC
