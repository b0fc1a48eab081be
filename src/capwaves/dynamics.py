"""Coupled complex-amplitude dynamics of a resonance cluster.

Each triad j contributes the canonical three-wave right-hand side

    dB1 += Z_j B2* B3,   dB2 += Z_j B1* B3,   dB3 -= Z_j B1 B2

on its three mode slots; slots are shared between triads according to the
cluster's shared wavenumber values, which couples the systems.  The
Hamiltonian is the coupling-weighted sum of the triple-product imaginaries
(for a single triad this is Z Im(B1 B2 B3*), i.e. Z times the bare
triple-product invariant).  A doubled value that another triad shares is one
slot, on which its k1 = k2 triad's terms add twice (see :func:`build_system`).
The quadratic invariants come from the integer pass over the slot rows that
:func:`capwaves.clustering.conservation_count` counts on.

Integration is the explicit adaptive Runge-Kutta pair DOP853 with dense
output, stepped by the library's own loop: it repeats scipy's DOP853
arithmetic in scipy's order (initial step, stages, error norm, step-size
controller, dense-output stages) on scipy's published tableau, so its steps,
states and right-hand-side calls are bit-identical to ``solve_ivp``'s,
without the solver machinery around each call.  Tolerances below 100 eps,
where scipy would raise rtol alone to that floor, are rejected.  Conserved
quantities are monitored along the trajectory, never projected, so their
drift doubles as a global accuracy meter.  The dense output is a
DenseSolution: each step keeps its end state and derivative and its unscaled
D·K, and scipy's interpolation rows are formed from them once per solve, in
place on the whole stacks.  They are evaluated with scipy's own arithmetic,
so the values are bit-identical to scipy's OdeSolution, at a fraction of the
cost per call; scalar times convert their step's rows to Python values once
while they stay in that step, and one slot can be evaluated alone.  The
exact invariant basis is built once per system and kept on it.

The right-hand side loops over the triads on Python complex numbers: cheaper
per call than numpy scalars at every size, and than a numpy gather for small
clusters and isolated triads.  Everything evaluated along a trajectory
(Hamiltonian, phases, invariants, period grids) works on whole sample grids
at once, and a trajectory is one record array whose columns (time, state,
Hamiltonian, invariants, phases) its readers take whole.

A ClusterSystem is immutable once built and can be shared across threads;
every integration owns its state.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import minimize_scalar

from .clustering import ClusterGraph, _law_basis, _slot_table

__all__ = [
    "TriadTerm",
    "ClusterSystem",
    "IntegrationError",
    "DenseSolution",
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

    :func:`build_system` reads both off the cluster's slot table, the one
    that :func:`capwaves.clustering.conservation_count` counts laws on.
    Every other view of the table (``term_rows``, ``term_arrays``,
    ``incidence``, ``quadratics``) is derived from ``terms`` when first asked
    for.
    """

    modes: tuple[int, ...]  # wavenumber per slot; an unshared doubled value has two
    terms: tuple[TriadTerm, ...]

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
        """Signed incidence (M, N): +1 where slot m is a passive mode of triad j
        (+2 on a merged doubled slot), -1 where it is the active mode, 0
        otherwise."""
        index, _ = self.term_arrays
        out = np.zeros((self.n_modes, self.n_triads), dtype=int)
        np.add.at(out, (index, np.arange(self.n_triads)), [[1], [1], [-1]])
        return out

    @cached_property
    def quadratics(self) -> np.ndarray:
        """Read-only integer basis (K, M) of the conserved quadratics, built
        once per system; :func:`conserved_quadratics` returns it."""
        basis = _law_basis([row[:3] for row in self.term_rows], self.n_modes)
        out = np.array(basis, dtype=np.int64).reshape(len(basis), self.n_modes)
        out.flags.writeable = False
        return out


class IntegrationError(RuntimeError):
    """Integration failed; carries the last accepted time and state."""

    def __init__(self, message: str, t_last: float, state_last: np.ndarray) -> None:
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last


def build_system(cluster: ClusterGraph) -> ClusterSystem:
    """Assemble the coupled ODE system of a cluster.

    The slots and each triad's row are the cluster's one slot table, which
    :func:`capwaves.clustering.conservation_count` reads too: one slot per
    shared wavenumber value, in order of first appearance.  A k1 = k2 triad
    alone on its value keeps two slots for it, as the published two-triad
    systems do.  A doubled value that another triad shares takes one slot
    (m1 == m2), on which the doubled term adds twice: the canonical system
    with the slots identified, law row 2 c_k = c_2k, to which the two-slot
    system on B1 = B2 = B maps under B_k = B/sqrt(2), B_2k = B3/2.
    """
    triads = cluster.triads
    modes, slots = _slot_table(triads)
    terms = tuple(TriadTerm(*row, t.z) for t, row in zip(triads, slots))
    return ClusterSystem(modes=tuple(modes), terms=terms)


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
) -> list[complex]:
    """The per-triad right-hand-side loop, on Python complex numbers, as a list."""
    b = state.tolist()
    out = [0j] * n_modes
    for m1, m2, m3, z in rows:
        b1, b2, b3 = b[m1], b[m2], b[m3]
        out[m1] += z * b2.conjugate() * b3
        out[m2] += z * b1.conjugate() * b3
        out[m3] -= z * b1 * b2
    return out


def time_derivative(system: ClusterSystem, state: np.ndarray) -> np.ndarray:
    """Right-hand side of the cluster ODE for a complex state vector."""
    state = np.asarray(state)
    if state.shape != (system.n_modes,):
        raise ValueError(f"state must have shape ({system.n_modes},), got {state.shape}")
    return np.array(_rhs(system.term_rows, system.n_modes, state))


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


def conserved_quadratics(system: ClusterSystem) -> np.ndarray:
    """Integer basis of the conserved quadratics sum_m c_m |B_m|².

    The rows span the null space of the transposed incidence in primitive
    integer form, the basis exact rational elimination gives.  It is built
    from the pass that :func:`capwaves.clustering.conservation_count` counts
    on, so its length is M - rank(S), that count; for the published cluster
    topologies this is the Manley-Rowe count 2N - n.  The basis is the
    system's read-only ``quadratics``, built on the first call.
    """
    return system.quadratics


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
    trajectory: np.recarray,
) -> Drift:
    """Drift of the conserved quantities along a trajectory, against natural magnitudes.

    Reads the ``hamiltonian`` (T,) and ``invariants`` (T, K) columns of an
    :func:`integrate` trajectory.  A quadratic with cancelling signs can start
    near zero, so each quantity is measured against the size of its
    contributions at the initial state: sum_m |c_m| |B_m|² for a quadratic,
    sum_j |Z_j| |B1 B2 B3| for the Hamiltonian, or the initial value where
    that is larger.  A quantity whose contributions all vanish initially has
    no natural magnitude and is measured in absolute terms.
    """
    b0 = np.asarray(initial)
    index, z = system.term_arrays
    b = b0[index]
    h, q = trajectory.hamiltonian, trajectory.invariants
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

    Step s covers [ts[s], ts[s + 1]] with ``t_old`` (S,), the step starts
    ``ts[:-1]``, ``h`` (S,), their differences, ``y_old`` (S, M) and the
    seven interpolation coefficient rows ``coeffs`` (S, 7, M), stored in
    Horner order (scipy's ``F`` reversed).

    Calling it evaluates scipy's ``Dop853DenseOutput`` arithmetic in the same
    order (``y += f``, then ``y *= x`` or ``y *= 1 - x`` in turn, then
    ``y += y_old``), on the step ``OdeSolution`` picks
    (``searchsorted(ts, t, side="left") - 1``, clipped to the steps), so the
    values are bit-identical to scipy's.  Every multiplier is real, so the
    complex products round the same on numpy arrays and on the Python
    ``complex`` values of the scalar path.  A scalar time gives an (M,)
    state, a 1-D array of times an (M, T) block in scipy's memory layout;
    times outside [0, t_end] extrapolate from the end steps.  :meth:`slot`
    evaluates one slot alone.  A scalar call converts its step's ``y_old``
    and coefficient rows (one slot's, for :meth:`slot`) to Python values,
    and the scalar calls after it reuse them while they land in that step,
    so a sorted scan or a converging minimum search converts each step
    once; only the last step's rows are kept.  Arrays of times read the
    stacks.  The stacks are not to be written once in use: the kept rows
    would not see the change.
    """

    __slots__ = ("ts", "t_old", "h", "y_old", "coeffs", "_ts", "_t_old", "_h", "_last", "_cached")

    def __init__(self, ts: np.ndarray, y_old: np.ndarray, coeffs: np.ndarray) -> None:
        self.ts, self.y_old, self.coeffs = ts, y_old, coeffs
        # t - t_old, as scipy computes each step's h
        self.t_old, self.h = ts[:-1], np.diff(ts)
        # Python floats for the scalar path
        self._ts, self._t_old, self._h = ts.tolist(), self.t_old.tolist(), self.h.tolist()
        self._last = len(self._h) - 1
        # the last scalar call's step, with its y_old and coefficient columns
        # as Python values
        self._cached: tuple[int, list, list] = (-1, [], [])

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            seg, wx, wu = self._step(float(t))
            # one tuple, replaced whole: a concurrent call never pairs a step
            # with another step's rows
            cached = self._cached
            if cached[0] != seg:
                cached = (seg, self.y_old[seg].tolist(), self.coeffs[seg].T.tolist())
                self._cached = cached
            return np.array([_horner(wx, wu, y0, *col) for y0, col in zip(cached[1], cached[2])])
        return self._block(t, self.y_old, self.coeffs)

    def slot(self, m: int):
        """Interpolant of slot m alone: a complex for a scalar time, (T,) for an array."""
        y_old, coeffs = self.y_old[:, m], self.coeffs[:, :, m]
        cached = (-1, 0j, [])

        def at(t):
            nonlocal cached
            t = np.asarray(t)
            if t.ndim == 0:
                seg, wx, wu = self._step(float(t))
                if cached[0] != seg:
                    cached = (seg, y_old[seg].item(), coeffs[seg].tolist())
                return np.complex128(_horner(wx, wu, cached[1], *cached[2]))
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


# DOP853's tableau, as scipy publishes it on its solver class, each stage
# row cut to scipy's a[:s].  It is cast to complex once: np.dot casts its
# real operand to the complex state's type on every call, so each stage sum
# is the same BLAS call on the same values.  The right-hand side is
# autonomous, so the stage times (C, C_EXTRA) are never formed.
_N_STAGES = DOP853.n_stages  # row _N_STAGES of the stage array holds f at the step's end
_STAGES = [a[:s].astype(complex) for s, a in enumerate(DOP853.A[1:], start=1)]
_EXTRA_STAGES = [
    a[:s].astype(complex) for s, a in enumerate(DOP853.A_EXTRA, start=_N_STAGES + 1)
]
_B, _E3, _E5, _D = (c.astype(complex) for c in (DOP853.B, DOP853.E3, DOP853.E5, DOP853.D))
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
TOL_FLOOR = 100 * float(np.finfo(float).eps)  # scipy's floor on rtol


def _squared_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) ** 2 of a complex vector, with the same roundings."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im)) ** 2


def _initial_step(
    rows, n_modes: int, y0: np.ndarray, f0: np.ndarray, t_end: float, rtol: float, atol: float
) -> float:
    """scipy's ``select_initial_step`` for DOP853, forward from t = 0."""
    scale = atol + np.abs(y0) * rtol
    d0 = np.linalg.norm(y0 / scale) / n_modes**0.5
    d1 = np.linalg.norm(f0 / scale) / n_modes**0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = np.array(_rhs(rows, n_modes, y0 + h0 * f0))
    d2 = np.linalg.norm((f1 - f0) / scale) / n_modes**0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return float(min(100 * h0, h1, t_end))


def _dop853(
    system: ClusterSystem, y: np.ndarray, t_end: float, rtol: float, atol: float
) -> DenseSolution:
    """Step DOP853 from t = 0 to t_end exactly as scipy's solver does.

    Every stage, the error norm and the step-size controller (safety 0.9,
    factors in [0.2, 10], ``min_step`` ten spacings of t, no growth right
    after a rejection, the last step clipped to t_end) are scipy's, in its
    order; each accepted step then takes scipy's three extra stages.  A step
    keeps only what its interpolation rows are made of: its end state and
    end derivative, and its unscaled ``D·K`` in the rows of the returned
    :class:`DenseSolution`; :func:`_interpolation_rows` forms the rows of
    every step from them once the solve ends.  Raises IntegrationError, with
    scipy's message, where scipy's step size would fall below ``min_step``,
    and where it would be NaN.
    """
    rhs, rows, n = _rhs, system.term_rows, system.n_modes
    # scipy's K_extended: the stages, f at the step's end, the extra stages;
    # KT[s] is K[:s].T, the operand of stage s
    K = np.empty((_N_STAGES + 1 + len(_EXTRA_STAGES), n), dtype=complex)
    KT = [K[:s].T for s in range(len(K) + 1)]
    K[0] = rhs(rows, n, y)
    # a right-hand side that is not finite at the start leaves no step size
    h_abs = math.nan
    if np.isfinite(K[0]).all():
        h_abs = _initial_step(rows, n, y, K[0], t_end, rtol, atol)
    ts = [0.0]
    # the state and the derivative at ts[i] go to ys[i] and coeffs[i, 5], one
    # row past the steps; the unscaled D·K of step i goes to coeffs[i, 3::-1]
    ys = np.empty((64, n), dtype=complex)
    coeffs = np.empty((64, 7, n), dtype=complex)
    ys[0], coeffs[0, 5] = y, K[0]
    abs_y = np.abs(y)
    t = 0.0
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # NaN fails here too: a right-hand side that is not finite at the
            # start leaves no step size, where scipy would retry without end
            if not h_abs >= min_step:
                raise IntegrationError(
                    f"integration failed at t={t}: "
                    "Required step size is less than spacing between numbers.",
                    t,
                    y,
                )
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            # the real step as the complex scalar numpy casts it to
            hc = complex(h)
            for s, a in enumerate(_STAGES, start=1):
                K[s] = rhs(rows, n, y + KT[s].dot(a) * hc)
            y_new = y + hc * KT[_N_STAGES].dot(_B)
            K[_N_STAGES] = rhs(rows, n, y_new)
            abs_y_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_y_new) * rtol
            err5 = _squared_norm(KT[_N_STAGES + 1].dot(_E5) / scale)
            err3 = _squared_norm(KT[_N_STAGES + 1].dot(_E3) / scale)
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = 10
                else:
                    factor = min(10, 0.9 * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**_ERROR_EXPONENT)
            rejected = True

        for s, a in enumerate(_EXTRA_STAGES, start=_N_STAGES + 1):
            K[s] = rhs(rows, n, y + KT[s].dot(a) * hc)
        i = len(ts)
        if i == len(ys):  # double the stacks; the rows past i are overwritten
            ys = np.resize(ys, (2 * i, n))
            coeffs = np.resize(coeffs, (2 * i, 7, n))
        coeffs[i - 1, 3::-1] = _D.dot(K)
        ys[i], coeffs[i, 5] = y_new, K[_N_STAGES]
        ts.append(t_new)
        t, y, abs_y = t_new, y_new, abs_y_new
        K[0] = K[_N_STAGES]
    steps = len(ts) - 1
    sol = DenseSolution(np.array(ts), ys[:steps], coeffs[:steps])
    _interpolation_rows(sol.h, ys[: steps + 1], coeffs[: steps + 1])
    return sol


def _interpolation_rows(h: np.ndarray, ys: np.ndarray, coeffs: np.ndarray) -> None:
    """Form scipy's DOP853 interpolation rows F of every step in place, in Horner order.

    On entry ``ys`` (S + 1, M) holds the state and ``coeffs[:, 5]`` the
    derivative at every step boundary, and ``coeffs[s, 3::-1]`` the unscaled
    ``D·K`` of step s.  Each row is scipy's expression, with its operands and
    operations in scipy's order, on whole stacks and with no stack-sized
    temporary: ``delta_y``, ``h f_old - delta_y``,
    ``2 delta_y - h (f_new + f_old)`` and ``h D·K``.  The row past the last
    step is left as it was.
    """
    hs = h[:, None]
    f = coeffs[:, 5]
    delta_y, f1, f2 = coeffs[:-1, 6], coeffs[:-1, 5], coeffs[:-1, 4]
    np.add(f[1:], f[:-1], out=f2)  # f_new + f_old
    np.multiply(hs, f2, out=f2)
    np.multiply(hs, f1, out=f1)  # h f_old
    np.subtract(ys[1:], ys[:-1], out=delta_y)
    f1 -= delta_y
    # 2 delta_y - h (f_new + f_old), then delta_y again in its own row
    np.multiply(2, delta_y, out=delta_y)
    np.subtract(delta_y, f2, out=f2)
    np.subtract(ys[1:], ys[:-1], out=delta_y)
    np.multiply(hs[:, None], coeffs[:-1, :4], out=coeffs[:-1, :4])


def solve_dense(
    system: ClusterSystem, initial: np.ndarray, t_end: float, tol: float
) -> DenseSolution:
    """Integrate over [0, t_end] and return the dense interpolant of the state.

    The returned :class:`DenseSolution` maps a time (scalar or array) to the
    complex state; ``slot(m)`` evaluates one slot.  Its steps, stacks and
    values are bit-identical to those of scipy's ``solve_ivp`` with
    ``method="DOP853"``, ``rtol=tol`` and ``atol=tol * max(max|initial|, 1)``.
    :func:`integrate` and :func:`measure_period` are built on it and leave it
    the checks of the arguments: ``t_end`` positive and finite, ``tol`` finite
    and at least ``TOL_FLOOR`` (100 eps, below which scipy would raise
    ``rtol`` and leave ``atol``), a finite initial state.  It is the handle to
    use when comparing trajectories against closed-form solutions at
    arbitrary times.  A state whose triple products B1 B2 B3* overflow has
    no finite Hamiltonian terms and fails at t = 0 with IntegrationError.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (system.n_modes,):
        raise ValueError(f"initial state must have shape ({system.n_modes},)")
    for name, value in (("t_end", t_end), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if tol < TOL_FLOOR:
        raise ValueError(f"tol must be at least 100 eps = {TOL_FLOOR!r}, got {tol}")
    if not np.isfinite(initial).all():
        raise ValueError("initial state must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = not np.isfinite(_triple_products(system, initial)).all()
    if overflow:
        raise IntegrationError(
            "integration failed at t=0.0: the triple products B1 B2 B3* overflow "
            "at the initial state", 0.0, initial,
        )
    scale = max(float(np.max(np.abs(initial))), 1.0)
    return _dop853(system, initial, float(t_end), tol, tol * scale)


def integrate(
    system: ClusterSystem,
    initial: np.ndarray,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 1000,
) -> np.recarray:
    """Integrate the cluster from the given state over [0, t_end].

    Samples are taken at a fixed time stride through the integrator's dense
    output.  The trajectory is a record array with one row per sample and
    the columns ``t`` (T,), ``state`` (T, M), ``hamiltonian`` (T,), every
    conserved quadratic ``invariants`` (T, K) in the basis order of
    :func:`conserved_quadratics`, and the per-triad dynamical ``phases``
    (T, N) in (-pi, pi], NaN where undefined; a row reads the same fields
    (``traj[i].hamiltonian``).  The relative drift of the conserved
    quantities stays below ~100 tol.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    dense = solve_dense(system, initial, t_end, tol)  # checks t_end and tol first
    times = np.linspace(0.0, t_end, samples)
    states = dense(times)
    del dense  # dropped once sampled, before the block evaluations
    basis = conserved_quadratics(system).astype(float)
    traj = np.recarray(samples, dtype=[
        ("t", float), ("state", complex, (system.n_modes,)), ("hamiltonian", float),
        ("invariants", float, (len(basis),)), ("phases", float, (system.n_triads,)),
    ])
    traj.t, traj.state = times, states.T
    traj.hamiltonian = hamiltonian(system, states)
    traj.invariants = np.abs(states.T) ** 2 @ basis.T
    traj.phases = dynamical_phases(system, states).T
    return traj


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
) -> float:
    """Oscillation period of |B3|², the squared amplitude of the first triad's
    active slot, which is periodic for an isolated triad.

    A coarse estimate comes from the autocorrelation of the sampled signal;
    it is then refined to the spacing of two consecutive minima located on
    the integrator's dense output.
    """
    solution = solve_dense(system, np.asarray(initial, dtype=complex), t_end, tol)
    b3 = solution.slot(system.terms[0].m3)

    def rho(t):
        return np.abs(b3(t)) ** 2

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
