"""Reduced energy I(t, z) = min_u E(t, u, z) and global minimization backends.

Two engines coexist on purpose: a brute-force grid oracle (exhaustive,
certifiable, slow) and the production path.  Tests pit one against the other.

The production path eliminates u in closed form and minimizes the step
objective I(t, z) + d(z_prev, z) + delta(z_prev, z), defined once over
batches of states (``step_objective``): for n_z <= 2 a coarse grid, then a
batched zoom on its best points (``zoom_search``); for larger n_z a
multistart Powell descent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import optimize

from .core import (
    INF,
    PowerLq,
    QuadraticMu,
    RisProblem,
    State,
    TrivialH,
    is_finite,
)

__all__ = [
    "MinResult",
    "MinimizerConfig",
    "oracle_grid_min",
    "reduce_energy",
    "reduced_value",
    "global_min_corrected",
    "batch_maps",
    "step_objective",
    "zoom_search",
]

_GRID_BUDGET = 10_000_000
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
    method: str = "grid"  # grid | multistart-descent | closed-form
    grid_resolution: int = 129
    multistart_count: int = 12
    descent_tol: float = 1e-10
    near_optimal_band: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("grid", "multistart-descent", "closed-form"):
            raise ValueError(f"unknown minimizer method {self.method!r}")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.descent_tol <= 0 or self.near_optimal_band <= 0:
            raise ValueError("tolerances must be positive")


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


def reduce_energy(
    problem: RisProblem,
    t: float,
    z,
    cfg: MinimizerConfig | None = None,
) -> MinResult:
    """I(t, z) with a minimizing u.

    Shipped models carry a closed-form ``solve_u`` hook (their energies are
    quadratic in u at fixed z); the descent fallback covers user models.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not problem.in_box(z):
        return MinResult(np.empty(0), INF, "closed-form", True, 0.0, u=None)
    if problem.n_u == 0:
        v = float(problem.energy(t, np.empty(0), z))
        return MinResult(z, v, "closed-form", True, 0.0, u=np.empty(0))
    if problem.solve_u is not None:
        u, v = problem.solve_u(t, z)
        return MinResult(z, float(v), "closed-form", True, 1e-12, u=np.asarray(u, float))
    cfg = cfg or MinimizerConfig(method="multistart-descent")
    rng = np.random.default_rng(cfg.seed)
    best_u, best_v = None, INF
    for _ in range(cfg.multistart_count):
        u0 = rng.uniform(-1.0, 1.0, size=problem.n_u)
        r = optimize.minimize(
            lambda u: problem.energy(t, u, z),
            u0,
            method="Nelder-Mead",
            options={"xatol": cfg.descent_tol, "fatol": cfg.descent_tol},
        )
        if r.fun < best_v:
            best_v, best_u = float(r.fun), r.x
    return MinResult(z, best_v, "multistart-descent", False, cfg.descent_tol, u=best_u)


def reduced_value(problem: RisProblem, t: float, z) -> float:
    """Cheap I(t, z): value only, no MinResult allocation."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not problem.in_box(z):
        return INF
    if problem.n_u == 0:
        return float(problem.energy(t, np.empty(0), z))
    if problem.solve_u is not None:
        return float(problem.solve_u(t, z)[1])
    return reduce_energy(problem, t, z).value


# ---------------------------------------------------------------------------
# corrected global step


def _correction_batch(
    problem: RisProblem, z_prev: NDArray, pts: NDArray, d: NDArray
) -> NDArray:
    """delta(z_prev, p) for a batch of points, given the batched d values."""
    spec = problem.correction_spec
    m = len(pts)
    if spec is None:
        return np.zeros(m)
    if isinstance(spec, TrivialH):
        finite = np.isfinite(d)
        out = np.full(m, INF)
        out[finite] = spec.h(d[finite])
        return out
    if isinstance(spec, QuadraticMu):
        if spec.mu == 0.0:
            return np.zeros(m)
        if spec.dist == "euclidean":
            dz = pts - z_prev[None, :]
            return 0.5 * spec.mu * np.sum(dz * dz, axis=1)
        out = np.full(m, INF)
        finite = np.isfinite(d)
        out[finite] = 0.5 * spec.mu * d[finite] ** 2
        return out
    if isinstance(spec, PowerLq):
        dz = np.abs(pts - z_prev[None, :])
        return np.sum(dz ** spec.q, axis=1) ** (spec.gamma / spec.q)
    raise TypeError(f"no batched form for correction spec {spec!r}")


def batch_maps(problem: RisProblem):
    """I(t, Z) and d(z, Z) over an (M, n_z) batch Z; a problem without
    batched hooks loops its scalar maps over the batch."""
    reduced = problem.reduced_vec
    if reduced is None:
        def reduced(t, pts):
            return np.array([reduced_value(problem, t, p) for p in pts])
    diss = problem.dissipation_vec
    if diss is None:
        def diss(z, pts):
            return np.array([problem.dissipation(z, p) for p in pts])
    return reduced, diss


def step_objective(
    problem: RisProblem, t: float, z_prev: NDArray
) -> Callable[[NDArray], NDArray]:
    """Z -> I(t, Z) + d(z_prev, Z) + delta(z_prev, Z) over an (M, n_z) batch
    of in-box states; every non-finite value is +infinity."""
    reduced, diss = batch_maps(problem)

    def f(pts):
        d = np.asarray(diss(z_prev, pts), dtype=float)
        vals = np.asarray(reduced(t, pts), dtype=float) + d
        vals += _correction_batch(problem, z_prev, pts, d)
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

    Certified-global only for the grid path with n_z <= 2; elsewhere the
    flag is honest about the heuristic.  Ties within ``near_optimal_band``
    go to the candidate closest to z_prev.
    """
    cfg = cfg or MinimizerConfig()
    z_prev = np.atleast_1d(np.asarray(z_prev, dtype=float))
    # staying put, priced by the scalar maps like residual_stability's
    # I(t, z): a state that stays has a residual of exactly 0
    stay = (
        reduced_value(problem, t, z_prev)
        + problem.dissipation(z_prev, z_prev)
        + problem.correction(z_prev, z_prev)
    )
    if not is_finite(stay):
        raise ValueError("infeasible step: previous state has infinite objective")
    f = step_objective(problem, t, z_prev)
    box = _search_box(problem, z_prev)
    n = problem.n_z

    cands: list[tuple[NDArray, float]] = [(z_prev.copy(), stay)]
    certified = n <= 2 and cfg.method in ("grid", "closed-form")
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
            cfg.descent_tol,
        )
        cands += [(x, float(v)) for x, v in zip(centers, values)]
    else:
        rng = np.random.default_rng(cfg.seed)
        starts = [z_prev] + [
            np.array([rng.uniform(lo, hi) for lo, hi in box])
            for _ in range(cfg.multistart_count)
        ]
        for x0 in starts:
            r = optimize.minimize(
                lambda z: float(f(z[None, :])[0]),
                x0,
                method="Powell",
                bounds=box,
                options={"xtol": cfg.descent_tol, "ftol": cfg.descent_tol},
            )
            if is_finite(float(r.fun)):
                cands.append((np.asarray(r.x, float), float(r.fun)))

    x, v = _tie_break(cands, cfg.near_optimal_band, z_prev)
    # snap to box edges when the search stopped a hair away from them
    snapped = x.copy()
    for i, (lo, hi) in enumerate(problem.z_box):
        if 0 < abs(snapped[i] - lo) < 1e-8:
            snapped[i] = lo
        elif 0 < abs(snapped[i] - hi) < 1e-8:
            snapped[i] = hi
    if not np.array_equal(snapped, x):
        vs = float(f(snapped[None, :])[0])
        if vs <= v + cfg.near_optimal_band:
            x, v = snapped, vs
    # the step objective can never beat simply staying put by less than 0
    if v > stay:
        x, v = z_prev.copy(), stay
    method = "grid" if certified else "multistart-descent"
    return MinResult(
        argmin=x,
        value=v,
        method=method,
        certified_global=certified,
        tolerance=cfg.descent_tol,
    )
