"""The tests' reference minimizer: exhaustive evaluation on a regular grid.

No command runs it; tests pit the step search against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from risolve.core import INF

_GRID_BUDGET = 10_000_000  # points of an oracle grid


@dataclass(frozen=True)
class MinResult:
    argmin: NDArray[np.float64]
    value: float
    tolerance: float


def oracle_grid_min(
    objective: Callable,
    box: Sequence[tuple[float, float]],
    resolution,
    vectorized: bool = False,
) -> MinResult:
    """Exhaustive evaluation of ``objective`` on a regular grid over ``box``.

    ``resolution`` is an int or per-dimension sequence.  With
    ``vectorized=True`` the objective receives an (M, dim) array, each
    column contiguous, and must return M values.  Budget: 1e7 points.
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
        # cell-major, as the step search's batches: pts[:, j] is contiguous
        pts = np.stack([m.ravel() for m in mesh], axis=0).T
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
    return MinResult(argmin=best_x, value=best_v, tolerance=spacing)
