"""Reduced energy I(t, z) = min_u E(t, u, z) and global minimization backends.

Two engines coexist on purpose: a brute-force grid oracle (exhaustive,
certifiable, slow) and the production path.  Tests pit one against the other.

The production path minimizes the step objective
I(t, z) + d(z_prev, z) + delta(z_prev, z) (``step_objective``), assembled
from the problem's three broadcasting maps ``reduced_vec``, ``dissipation``
and ``correction``: for n_z <= 2 a coarse grid, then a batched zoom on its
best points (``zoom_search``); for larger n_z a multistart Powell descent.
A single state is priced as a batch of one, so every caller sees the same
bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import optimize

from .core import INF, RisProblem, is_finite

__all__ = [
    "MinResult",
    "MinimizerConfig",
    "oracle_grid_min",
    "reduce_energy",
    "reduced_value",
    "global_min_corrected",
    "step_objective",
    "zoom_search",
]

_GRID_BUDGET = 10_000_000
DESCENT_TOL = 1e-10  # zoom half-width and Powell xtol/ftol at which a search stops
NEAR_OPTIMAL_BAND = 1e-9  # step values this close to the best one tie
_MULTISTART_COUNT = 12  # random Powell starts besides z_prev (n_z > 2)
_ZOOM_STARTS = 4  # best coarse-grid points the zoom refines
_ZOOM_POINTS = 17  # zoom window points per axis, the centre included
_ZOOM_FACTOR = 2 / (_ZOOM_POINTS - 1)  # each level's half-width: the last spacing


@dataclass(frozen=True)
class MinResult:
    argmin: NDArray[np.float64]
    value: float
    method: str
    certified_global: bool
    tolerance: float
    u: Optional[NDArray[np.float64]] = None


@dataclass(frozen=True)
class MinimizerConfig:
    """Coarse grid points per axis (n_z <= 2) and the seed of the random
    Powell starts (n_z > 2)."""

    grid_resolution: int = 129
    seed: int = 0

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")


def oracle_grid_min(
    objective: Callable,
    box: Sequence[tuple[float, float]],
    resolution,
    vectorized: bool = False,
) -> MinResult:
    """Exhaustive evaluation of ``objective`` on a regular grid over ``box``.

    ``resolution`` is an int or per-dimension sequence.  With
    ``vectorized=True`` the objective receives an (M, dim) array and must
    return M values.  Budget: 1e7 points.
    """
    dim = len(box)
    if np.isscalar(resolution):
        res = [int(resolution)] * dim
    else:
        res = [int(r) for r in resolution]
    if any(r < 2 for r in res):
        raise ValueError("resolution must be >= 2 per dimension")
    total = math.prod(res)
    if total > _GRID_BUDGET:
        raise ValueError(f"grid budget exceeded: {total} > {_GRID_BUDGET}")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, res)]
    if vectorized:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(objective(pts), dtype=float)
        vals = np.where(np.isnan(vals), INF, vals)
        i = int(np.argmin(vals))
        best_x, best_v = pts[i].copy(), float(vals[i])
    else:
        best_v, best_x = INF, np.array([a[0] for a in axes])
        for combo in itertools.product(*axes):
            v = float(objective(np.array(combo)))
            if v < best_v:
                best_v, best_x = v, np.array(combo)
    spacing = max((hi - lo) / (r - 1) for (lo, hi), r in zip(box, res))
    return MinResult(
        argmin=best_x,
        value=best_v,
        method="grid",
        certified_global=True,
        tolerance=spacing,
    )


# ---------------------------------------------------------------------------
# u-elimination


def reduce_energy(problem: RisProblem, t: float, z) -> MinResult:
    """I(t, z) with a minimizing u from the problem's ``solve_u``."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not problem.in_box(z):
        return MinResult(np.empty(0), INF, "closed-form", True, 0.0, u=None)
    v = float(problem.reduced_vec(t, z[None])[0])
    if problem.n_u == 0:
        return MinResult(z, v, "closed-form", True, 0.0, u=np.empty(0))
    u = np.asarray(problem.solve_u(t, z), float)
    return MinResult(z, v, "closed-form", True, 1e-12, u=u)


def reduced_value(problem: RisProblem, t: float, z) -> float:
    """Cheap I(t, z): value only, no MinResult allocation."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not problem.in_box(z):
        return INF
    return float(problem.reduced_vec(t, z[None])[0])


# ---------------------------------------------------------------------------
# corrected global step


def step_objective(
    problem: RisProblem, t: float, z_prev: NDArray
) -> Callable[[NDArray], NDArray]:
    """Z -> I(t, Z) + d(z_prev, Z) + delta(z_prev, Z) over an (M, n_z) batch
    of in-box states; every non-finite value is +infinity."""

    def f(pts):
        vals = problem.reduced_vec(t, pts) + problem.dissipation(z_prev, pts)
        vals += problem.correction(z_prev, pts)
        vals[~np.isfinite(vals)] = INF
        return vals

    return f


def _window_offsets(n: int) -> NDArray:
    """Points of one zoom window in units of its spacing, centre first and
    then by distance, so a tie in value keeps the point nearest the centre."""
    half = (_ZOOM_POINTS - 1) // 2
    axis = np.arange(-half, half + 1, dtype=float)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=-1)
    return offs[np.argsort(np.abs(offs).sum(axis=1), kind="stable")]


_WINDOWS = {n: _window_offsets(n) for n in (1, 2)}  # the zoom runs for n_z <= 2


def zoom_search(
    objective: Callable[[NDArray], NDArray],
    centers: NDArray,
    values: NDArray,
    half_width: NDArray,
    lo: NDArray,
    hi: NDArray,
    tol: float,
) -> tuple[NDArray, NDArray]:
    """Refine every centre at once by nested windows until their half-width
    drops below ``tol``.

    Each level evaluates a window of ``_ZOOM_POINTS`` per axis spanning
    +-half_width around each centre (clipped to [lo, hi]) in one batched
    call, moves each centre to its window's best point, and shrinks the
    half-width to the window's spacing.  A centre's value never rises.
    """
    centers = np.array(centers, dtype=float)
    values = np.array(values, dtype=float)
    k, n = centers.shape
    offs = _WINDOWS[n][None, :, :]
    h = np.asarray(half_width, dtype=float)
    rows = np.arange(k)
    while np.max(h) >= tol:
        h = h * _ZOOM_FACTOR  # this window's spacing, the next half-width
        pts = np.minimum(np.maximum(centers[:, None, :] + offs * h, lo), hi)
        vals = objective(pts.reshape(-1, n)).reshape(k, -1)
        best = np.argmin(vals, axis=1)
        centers, values = pts[rows, best], vals[rows, best]
    return centers, values


def _search_box(problem: RisProblem, z_prev: NDArray) -> list[tuple[float, float]]:
    box = []
    for zi, (lo, hi) in zip(z_prev, problem.z_box):
        # unidirectional d is infinite above z_prev: clip the search space
        hi_eff = min(hi, zi) if problem.unidirectional else hi
        if hi_eff <= lo:
            box.append((lo, max(lo, zi)))
        else:
            box.append((lo, hi_eff))
    return box


def _tie_break(
    cands: list[tuple[NDArray, float]], band: float, z_prev: NDArray
) -> tuple[NDArray, float]:
    best_v = min(v for _, v in cands)
    near = [(x, v) for x, v in cands if v <= best_v + band]
    x, v = min(near, key=lambda xv: float(np.linalg.norm(xv[0] - z_prev)))
    return x, v


def global_min_corrected(
    problem: RisProblem,
    t: float,
    z_prev,
    cfg: MinimizerConfig | None = None,
) -> MinResult:
    """Minimize z -> I(t,z) + d(z_prev,z) + delta(z_prev,z) over the box.

    Certified-global only for the grid path (n_z <= 2); the multistart
    Powell descent (n_z > 2) is honest about the heuristic.  Ties within
    ``NEAR_OPTIMAL_BAND`` go to the candidate closest to z_prev.
    """
    cfg = cfg or MinimizerConfig()
    z_prev = np.atleast_1d(np.asarray(z_prev, dtype=float))
    f = step_objective(problem, t, z_prev)
    # I(t, z_prev) + 0 + 0 bit for bit, so a state that stays has a
    # residual of exactly 0
    stay = float(f(z_prev[None])[0]) if problem.in_box(z_prev) else INF
    if not is_finite(stay):
        raise ValueError("infeasible step: previous state has infinite objective")
    box = _search_box(problem, z_prev)
    n = problem.n_z

    cands: list[tuple[NDArray, float]] = [(z_prev.copy(), stay)]
    certified = n <= 2
    if certified:
        res = min(cfg.grid_resolution, int(_GRID_BUDGET ** (1.0 / n)))
        axes = [
            np.unique(np.append(np.linspace(a, b, res), np.clip(zi, a, b)))
            for (a, b), zi in zip(box, z_prev)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = f(pts)
        starts = np.argsort(vals)[:_ZOOM_STARTS]
        # coarse runners-up stay candidates for the tie-break
        cands += [(pts[i].copy(), float(vals[i])) for i in starts]
        lo, hi = np.array(box).T
        centers, values = zoom_search(
            f, pts[starts], vals[starts], (hi - lo) / (res - 1), lo, hi,
            DESCENT_TOL,
        )
        cands += [(x, float(v)) for x, v in zip(centers, values)]
    else:
        rng = np.random.default_rng(cfg.seed)
        starts = [z_prev] + [
            np.array([rng.uniform(lo, hi) for lo, hi in box])
            for _ in range(_MULTISTART_COUNT)
        ]
        for x0 in starts:
            r = optimize.minimize(
                lambda z: float(f(z[None, :])[0]),
                x0,
                method="Powell",
                bounds=box,
                options={"xtol": DESCENT_TOL, "ftol": DESCENT_TOL},
            )
            if is_finite(float(r.fun)):
                cands.append((np.asarray(r.x, float), float(r.fun)))

    x, v = _tie_break(cands, NEAR_OPTIMAL_BAND, z_prev)
    # snap to box edges when the search stopped a hair away from them
    snapped = x.copy()
    for i, (lo, hi) in enumerate(problem.z_box):
        if 0 < abs(snapped[i] - lo) < 1e-8:
            snapped[i] = lo
        elif 0 < abs(snapped[i] - hi) < 1e-8:
            snapped[i] = hi
    if not np.array_equal(snapped, x):
        vs = float(f(snapped[None, :])[0])
        if vs <= v + NEAR_OPTIMAL_BAND:
            x, v = snapped, vs
    # the step objective can never beat simply staying put by less than 0
    if v > stay:
        x, v = z_prev.copy(), stay
    return MinResult(
        argmin=x,
        value=v,
        method="grid" if certified else "multistart-descent",
        certified_global=certified,
        tolerance=DESCENT_TOL,
    )
