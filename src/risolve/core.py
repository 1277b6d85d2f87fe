"""Problem abstraction for rate-independent evolutions.

A problem is the triple (state space, energy, dissipation quasi-distance)
plus an optional viscous correction.  Energies and dissipations are
extended-real valued: ``math.inf`` is the one and only representation of
"+infinity" (constraint violations); sentinel large floats are never used.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "RisProblem",
    "CorrectionSpec",
    "TrivialH",
    "QuadraticMu",
    "PowerLq",
    "build_correction",
    "Trajectory",
    "sup_distance",
    "JumpRecord",
    "is_finite",
]

INF = math.inf


def is_finite(x: float) -> bool:
    """True for an ordinary real; False for +infinity."""
    if math.isnan(x):
        raise ValueError("NaN is not an admissible extended-real value")
    return x != INF


def median(a) -> float:
    """``float(np.median(a))`` of a nonempty float array without nan, bit
    for bit, from one ``np.partition``; np.median's first call imports
    numpy.ma.  Its mean sums from +0.0, so a -0.0 middle gives 0.0."""
    a = np.asarray(a, dtype=float).reshape(-1)
    k = a.size // 2
    if a.size % 2:
        return 0.0 + float(np.partition(a, k)[k])
    part = np.partition(a, [k - 1, k])
    return (0.0 + float(part[k - 1]) + float(part[k])) / 2


def unique(a) -> NDArray[np.float64]:
    """``np.unique(a)`` of a nonempty float array without nan, bit for bit:
    its sort and mask, without the numpy.ma import of its first call."""
    a = np.array(a, dtype=float).reshape(-1)
    a.sort()
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _as_z(z) -> NDArray[np.float64]:
    a = np.atleast_1d(np.asarray(z, dtype=float))
    if a.ndim != 1:
        raise ValueError("z must be a 1-d vector")
    return a


# ---------------------------------------------------------------------------
# viscous corrections


@dataclass(frozen=True)
class CorrectionSpec:
    """Base class tag; concrete kinds below."""


@dataclass(frozen=True)
class TrivialH(CorrectionSpec):
    """Correction delta(z, z') = h(d(z, z')) with h nondecreasing, h(r)/r -> 0 at 0.

    ``h`` is any callable that acts elementwise on an array of d values (and
    on a float).  A forbidden step (d = +inf) costs h(+inf), +inf for every
    unbounded h.  The admissibility of the decay is probed by
    :func:`risolve.stability.correction_ratio_check`, not assumed here.
    """

    h: Callable[[float], float]

    def __post_init__(self):
        if abs(self.h(0.0)) > 1e-15:
            raise ValueError("h(0) must be 0")


@dataclass(frozen=True)
class QuadraticMu(CorrectionSpec):
    """Correction delta = (mu/2) * dist(z, z')**2.

    ``dist`` selects the squared distance: "euclidean" uses |z'-z|, while
    "dissipation" reuses the problem's own d.
    """

    mu: float
    dist: str = "euclidean"

    def __post_init__(self):
        if not 0 <= self.mu < INF:
            raise ValueError("mu must be finite and nonnegative")
        if self.dist not in ("euclidean", "dissipation"):
            raise ValueError("dist must be 'euclidean' or 'dissipation'")


@dataclass(frozen=True)
class PowerLq(CorrectionSpec):
    """Correction delta = |z' - z|_q ** gamma (componentwise q-norm)."""

    q: float
    gamma: float

    def __post_init__(self):
        if not (1 < self.q < INF and 1 < self.gamma < INF):
            raise ValueError("q and gamma must be finite and exceed 1")


def _no_u(t, Z) -> NDArray[np.float64]:
    """The empty u of a problem with n_u = 0, one per state of the batch."""
    return np.empty(np.broadcast_shapes(np.shape(t), np.shape(Z)[:-1]) + (0,))


def _zero_correction(z, zp, d=None):
    return np.zeros(np.broadcast_shapes(np.shape(z), np.shape(zp))[:-1])


def build_correction(spec: Optional[CorrectionSpec], problem: "RisProblem"):
    """Return the broadcasting map delta(Z_from, Z_to, D=None) implementing
    ``spec``.

    ``D``, when given, is d(Z_from, Z_to) already evaluated; a correction
    defined on d takes it instead of evaluating d again.  ``None`` (and
    mu=0) yield the zero correction.
    """
    if spec is None:
        return _zero_correction

    def dist(z, zp, d):
        return np.asarray(problem.dissipation(z, zp) if d is None else d, dtype=float)

    if isinstance(spec, TrivialH):
        h = spec.h

        def corr_h(z, zp, d=None):
            return h(dist(z, zp, d))

        return corr_h
    if isinstance(spec, QuadraticMu):
        if spec.mu == 0.0:
            return _zero_correction
        mu = spec.mu
        if spec.dist == "euclidean":
            def corr_mu(z, zp, d=None):
                dz = np.asarray(zp, dtype=float) - np.asarray(z, dtype=float)
                return 0.5 * mu * np.sum(dz * dz, axis=-1)
        else:
            def corr_mu(z, zp, d=None):
                return 0.5 * mu * dist(z, zp, d) ** 2
        return corr_mu
    if isinstance(spec, PowerLq):
        q, gamma = spec.q, spec.gamma

        def corr_lq(z, zp, d=None):
            dz = np.abs(np.asarray(zp, dtype=float) - np.asarray(z, dtype=float))
            # keepdims: a single pair takes numpy's array power, as a batch
            # does, not the scalar one, which can differ in the last bit
            return (np.sum(dz ** q, axis=-1, keepdims=True) ** (gamma / q))[..., 0]

        return corr_lq
    raise TypeError(f"unknown correction spec {spec!r}")


# ---------------------------------------------------------------------------
# problem


@dataclass(frozen=True)
class RisProblem:
    """A finite-dimensional rate-independent system.

    Broadcasting maps define it.  Each takes states of shape (..., n_z),
    minimizing displacements of shape (..., n_u) and a time or an array of
    times, all broadcasting against each other, and returns values of the
    broadcast shape (...), so one definition serves a single state, a batch,
    and all pairs of two batches: reduced_vec(t, Z) is the reduced energy
    I(t, z) = min_u E(t, u, z) of in-box states; energy(t, U, Z) is
    E(t, u, z), +infinity exactly where constraints are violated;
    solve_u(t, Z) returns a minimizing u of shape (..., n_u); power(t, U, Z)
    is the analytic partial time derivative of the energy;
    dissipation(Z_from, Z_to) is an asymmetric extended quasi-distance
    (``inf`` encodes forbidden directions such as healing);
    correction(Z_from, Z_to, D=None) is the viscous perturbation delta of
    the VE scheme and stability function, which takes D = d(Z_from, Z_to)
    when given.  Left at None, it is derived from ``correction_spec`` and
    the problem's own dissipation, and a copy derives it again, so a copy
    with another d or spec prices delta with them; a map given here (the
    layer trace in ``perfbench`` gives a counted one) is used as it is and
    kept by copies, until :meth:`with_correction` installs another spec.
    A map must act elementwise whatever the memory layout of its batch:
    the step search passes cell-major batches, Z[..., i] one contiguous
    plane per cell, which a map prices fastest plane by plane.

    With n_u > 0, energy and solve_u are required.  With n_u = 0 there is
    no u to eliminate, so E = I: the problem derives energy as I(t, z) in
    the box and +infinity outside, and solve_u as an empty (..., 0) u.
    """

    n_u: int
    n_z: int
    reduced_vec: Callable[[float, NDArray], NDArray]
    power: Callable[[float, NDArray, NDArray], NDArray]
    dissipation: Callable[[NDArray, NDArray], NDArray]
    z_box: Sequence[tuple[float, float]]
    energy: Optional[Callable[[float, NDArray, NDArray], NDArray]] = None
    horizon: float = 1.0
    correction: Optional[Callable[[NDArray, NDArray], NDArray]] = None
    correction_spec: Optional[CorrectionSpec] = None
    unidirectional: bool = False
    solve_u: Optional[Callable[[float, NDArray], NDArray]] = None
    name: str = "problem"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_u < 0 or self.n_z < 1:
            raise ValueError("need n_u >= 0 and n_z >= 1")
        if self.n_u > 0 and (self.energy is None or self.solve_u is None):
            raise ValueError("a problem with n_u > 0 needs energy and solve_u")
        if len(self.z_box) != self.n_z:
            raise ValueError("z_box length must equal n_z")
        for lo, hi in self.z_box:
            if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("z_box intervals must be bounded and nonempty")
        if not 0 < self.horizon < INF:  # also true for a nan
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        box = np.array(self.z_box, dtype=float).reshape(self.n_z, 2)
        object.__setattr__(self, "_box", box)  # rows (lo, hi)
        object.__setattr__(self, "_lo", box[:, 0].copy())
        object.__setattr__(self, "_hi", box[:, 1].copy())
        # the box widened by the 1e-12 that ``inside`` allows
        object.__setattr__(self, "_lo_tol", self._lo - 1e-12)
        object.__setattr__(self, "_hi_tol", self._hi + 1e-12)
        if self.n_u == 0:
            # bound to this copy, so a copy with another reduced_vec follows it
            object.__setattr__(self, "energy", self._box_energy)
            object.__setattr__(self, "solve_u", _no_u)
        corr = self.correction
        if corr is None or getattr(corr, "_derived", False):
            # none given, or the derived map of the problem this one copies
            corr = build_correction(self.correction_spec, self)
            corr._derived = True
            object.__setattr__(self, "correction", corr)

    def _box_energy(self, t, U, Z) -> NDArray:
        Z = np.asarray(Z, dtype=float)
        return np.where(self.inside(Z), self.reduced_vec(t, Z), INF)

    def with_correction(self, spec: Optional[CorrectionSpec]) -> "RisProblem":
        """Copy of the problem using the correction described by ``spec``."""
        return dataclasses.replace(self, correction_spec=spec, correction=None)

    def inside(self, Z) -> NDArray[np.bool_]:
        """Per state of an (..., n_z) batch, whether it lies in the box."""
        Z = np.asarray(Z, dtype=float)
        return np.logical_and.reduce((Z >= self._lo_tol) & (Z <= self._hi_tol), axis=-1)

    def in_box(self, z) -> bool:
        """Whether every state of an (..., n_z) batch lies in the box."""
        Z = np.asarray(z, dtype=float)
        return np.count_nonzero((Z >= self._lo_tol) & (Z <= self._hi_tol)) == Z.size

    def clip(self, z) -> NDArray[np.float64]:
        return np.clip(_as_z(z), self._lo, self._hi)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class JumpRecord:
    """A detected discontinuity: left state, largest intermediate, right state."""

    t: float
    z_left: NDArray[np.float64]
    z_inner: NDArray[np.float64]
    z_right: NDArray[np.float64]
    t_end: float  # the last node of the jump's run of steps


@dataclass(frozen=True)
class Trajectory:
    """Node times with the node states, row n of ``Z`` (N, n_z) and of
    ``U`` (N, n_u) the state at ``times[n]``; left-continuous
    piecewise-constant in between (``nodes_at``)."""

    times: NDArray[np.float64]
    Z: NDArray[np.float64]
    U: NDArray[np.float64]
    jump_records: tuple[JumpRecord, ...] = ()

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        for name in ("Z", "U"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 2 or len(a) != len(t):
                raise ValueError(f"{name} must have one row per node time")
            if not np.isfinite(a).all():
                raise ValueError("state entries must be finite")
            object.__setattr__(self, name, a)
        if len(t) == 0:
            raise ValueError("a trajectory needs at least one node")
        if np.any(np.diff(t) <= 0):
            raise ValueError("node times must be strictly increasing")

    def nodes_at(self, ts) -> NDArray[np.intp]:
        """Per time of ``ts``, the node whose state the left-continuous
        interpolant takes there: node n on (t_{n-1}, t_n], node 0 up to
        t_0 and the last node past T."""
        n = np.searchsorted(self.times, ts, side="left")
        return np.minimum(n, len(self.times) - 1)


def sup_distance(a: Trajectory, b: Trajectory, probes) -> float:
    """The largest Euclidean distance between the z of ``a`` and of ``b``
    over the times ``probes``."""
    d = a.Z[a.nodes_at(probes)] - b.Z[b.nodes_at(probes)]
    return float(np.sqrt(np.vecdot(d, d)).max())
