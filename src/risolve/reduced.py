"""Reduced energy I(t, z) = min_u E(t, u, z) and global minimization backends.

Two engines coexist on purpose: a brute-force grid oracle (exhaustive,
certifiable, slow) and the production path (closed-form u-elimination plus
grid/descent over z with a polish step).  Tests pit one against the other.
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
]

_GRID_BUDGET = 10_000_000


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


def _corrected_objective(problem: RisProblem, t: float, z_prev: NDArray):
    diss, corr = problem.dissipation, problem.correction

    def f(z):
        d = diss(z_prev, z)
        if not is_finite(d):
            return INF
        c = corr(z_prev, z)
        if not is_finite(c):
            return INF
        v = reduced_value(problem, t, z)
        if not is_finite(v):
            return INF
        return v + d + c

    return f


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
    f = _corrected_objective(problem, t, z_prev)
    stay = f(z_prev)
    if not is_finite(stay):
        raise ValueError("infeasible step: previous state has infinite objective")
    box = _search_box(problem, z_prev)
    n = problem.n_z

    cands: list[tuple[NDArray, float]] = [(z_prev.copy(), stay)]
    certified = False
    if n <= 2 and cfg.method in ("grid", "closed-form"):
        certified = True
        if n == 1:
            lo, hi = box[0]
            if hi - lo < 1e-14:
                xs = np.array([lo])
            else:
                xs = np.linspace(lo, hi, cfg.grid_resolution)
            xs = np.unique(np.concatenate([xs, np.clip(z_prev, lo, hi)]))
            if problem.reduced_vec is not None and problem.dissipation_vec is not None:
                pts = xs[:, None]
                ivals = np.asarray(problem.reduced_vec(t, pts), dtype=float)
                d = np.asarray(problem.dissipation_vec(z_prev, pts), dtype=float)
                vals = ivals + d + _correction_batch(problem, z_prev, pts, d)
                vals[~np.isfinite(vals)] = INF
            else:
                vals = np.array([f(np.array([x])) for x in xs])
            order = np.argsort(vals)
            best_grid = float(vals[order[0]])
            # polish near-best cells with a bounded scalar search; distant
            # runners-up only enter unpolished for tie-breaking
            seen = set()
            polish_band = max(1e-3, 10 * cfg.near_optimal_band)
            for i in order[:4]:
                cands.append((np.array([xs[i]]), float(vals[i])))
                if float(vals[i]) > best_grid + polish_band:
                    continue
                a = xs[max(int(i) - 1, 0)]
                b = xs[min(int(i) + 1, len(xs) - 1)]
                if b - a > 1e-13 and (a, b) not in seen:
                    seen.add((a, b))
                    r = optimize.minimize_scalar(
                        lambda x: f(np.array([x])),
                        bounds=(a, b),
                        method="bounded",
                        options={"xatol": cfg.descent_tol},
                    )
                    cands.append((np.array([r.x]), float(r.fun)))
        else:
            res = min(cfg.grid_resolution, int(math.sqrt(_GRID_BUDGET)))
            axes = [np.linspace(lo, hi, res) for lo, hi in box]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            if problem.reduced_vec is not None and problem.dissipation_vec is not None:
                ivals = np.asarray(problem.reduced_vec(t, pts), dtype=float)
                d = np.asarray(problem.dissipation_vec(z_prev, pts), dtype=float)
                c = _correction_batch(problem, z_prev, pts, d)
                vals = ivals + d + c
                vals[~np.isfinite(vals)] = INF
            else:
                vals = np.array([f(p) for p in pts])
            flat = np.argsort(vals)
            for k in flat[:4]:
                x0 = pts[int(k)].copy()
                cands.append((x0, float(vals[int(k)])))
                r = optimize.minimize(
                    f,
                    x0,
                    method="Powell",
                    bounds=box,
                    options={"xtol": cfg.descent_tol, "ftol": cfg.descent_tol},
                )
                if is_finite(float(r.fun)):
                    cands.append((np.asarray(r.x, float), float(r.fun)))
    else:
        rng = np.random.default_rng(cfg.seed)
        starts = [z_prev] + [
            np.array([rng.uniform(lo, hi) for lo, hi in box])
            for _ in range(cfg.multistart_count)
        ]
        for x0 in starts:
            r = optimize.minimize(
                f,
                x0,
                method="Powell",
                bounds=box,
                options={"xtol": cfg.descent_tol, "ftol": cfg.descent_tol},
            )
            if is_finite(float(r.fun)):
                cands.append((np.asarray(r.x, float), float(r.fun)))

    x, v = _tie_break(cands, cfg.near_optimal_band, z_prev)
    # snap to box edges when the polish stopped a hair away from them
    snapped = x.copy()
    for i, (lo, hi) in enumerate(problem.z_box):
        if 0 < abs(snapped[i] - lo) < 1e-8:
            snapped[i] = lo
        elif 0 < abs(snapped[i] - hi) < 1e-8:
            snapped[i] = hi
    if not np.array_equal(snapped, x):
        vs = f(snapped)
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
