"""Reduced energy I(t, z) = min_u E(t, u, z) and global minimization backends.

Two engines coexist on purpose: a brute-force grid oracle (exhaustive,
certifiable, slow) and the production path.  Tests pit one against the other.

The production path minimizes the step objective
I(t, z) + d(z_prev, z) + delta(z_prev, z) (``step_objective``), assembled
from the problem's three broadcasting maps ``reduced_vec``, ``dissipation``
and ``correction``: a coarse grid, then a batched zoom on its best points
(``zoom_search``).  It runs for n_z <= 2; for larger n_z there is no
certified search yet, and a step there raises.

``global_min_rows`` takes rows (ts[p], Z_prev[p]) and searches them
together, each row with its own box, grid and zoom depth, in chunks of
``chunk_rows`` rows (as many as fit in ``_ROW_POINTS`` objective points);
every row gets the bits it would get alone.  The scheme searches a run of
steps from one state as one chunk of rows, and the next steps of runs in
lockstep as one batch; a residual batch is many chunks;
``global_min_corrected`` is a batch of one, so every caller sees the same
bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import INF, RisProblem

__all__ = [
    "MinResult",
    "GRID_RESOLUTION",
    "oracle_grid_min",
    "reduce_energy",
    "reduced_value",
    "global_min_corrected",
    "global_min_rows",
    "chunk_rows",
    "require_search",
    "step_objective",
    "zoom_search",
]

GRID_RESOLUTION = 129  # coarse grid points per axis of the step search
_GRID_BUDGET = 10_000_000  # points of an oracle grid
_ROW_POINTS = 1 << 16  # objective points a batch of step rows holds at once
DESCENT_TOL = 1e-10  # zoom half-width at which a search stops
NEAR_OPTIMAL_BAND = 1e-9  # step values this close to the best one tie
_ZOOM_STARTS = 4  # best coarse-grid points the zoom refines
_ZOOM_POINTS = 17  # zoom window points per axis, the centre included
_ZOOM_FACTOR = 2 / (_ZOOM_POINTS - 1)  # each level's half-width: the last spacing
_SORT_WHOLE = 1024  # grid values up to which a stable sort beats a partition
# zoom window points from which merging repeated starts pays: the 289 of a
# 2-d window, not the 17 of a 1-d one, where the check costs more than a
# repeated window
_MERGE_POINTS = _ZOOM_POINTS**2


@dataclass(frozen=True)
class MinResult:
    argmin: NDArray[np.float64]
    value: float
    method: str
    certified_global: bool
    tolerance: float
    u: Optional[NDArray[np.float64]] = None


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


def step_objective(problem: RisProblem, t, z_prev) -> Callable[[NDArray], NDArray]:
    """Z -> I(t, Z) + d(z_prev, Z) + delta(z_prev, Z) over a batch of in-box
    states; every non-finite value is +infinity.

    ``t`` and ``z_prev`` broadcast against the batch: a time and an (n_z,)
    state price an (M, n_z) batch, a (P, 1) column of times and a
    (P, 1, n_z) stack of states price the P rows of a (P, M, n_z) batch.
    d is evaluated once and handed to the correction.  The maps act
    elementwise, so a batch gets the same bits in any memory layout; the
    search hands them cell-major batches.
    """

    def f(pts):
        d = problem.dissipation(z_prev, pts)
        vals = problem.reduced_vec(t, pts) + d
        vals += problem.correction(z_prev, pts, d)
        vals[~np.isfinite(vals)] = INF
        return vals

    return f


def _row_objective(problem: RisProblem, ts: NDArray, Z_prev: NDArray) -> Callable:
    """The step objective of row p at (ts[p], Z_prev[p]) over the rows of a
    (P, M, n_z) batch; a single row keeps its time and state unstacked,
    which numpy broadcasts faster and prices to the same bits."""
    if len(ts) == 1:
        return step_objective(problem, float(ts[0]), Z_prev[0])
    return step_objective(problem, ts[:, None], Z_prev[:, None, :])


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
    objective: Callable[[slice | NDArray], Callable[[NDArray], NDArray]],
    centers: NDArray,
    values: NDArray,
    half_width: NDArray,
    lo: NDArray,
    hi: NDArray,
    tol: float,
) -> tuple[NDArray, NDArray]:
    """Refine the (P, k, n) ``centers`` of P rows at once by nested windows
    until each row's half-width drops below ``tol``.

    Row p has its own (n,) half-width, box [lo[p], hi[p]] and objective
    row: ``objective(rows)``, for a slice or an index array of rows, maps
    an (R, M, n) batch of those R rows to (R, M) values.  The batch is
    cell-major, a view of one buffer whose (R, M) plane of each axis is
    contiguous; every level writes its windows into it.  Each level
    evaluates a window of ``_ZOOM_POINTS`` per axis spanning +-half_width
    around each centre (clipped to the box) in one batched call, moves each
    centre to its window's best point, and shrinks the half-width to the
    window's spacing.  A row that has stopped leaves the batch, and its
    centres keep their points and values, as when it is searched alone.  A
    centre's value never rises.

    Windows of at least ``_MERGE_POINTS`` points are merged after the first
    level: a start whose centre has the bits of an earlier start of its row
    would zoom the same windows to the same end, so it leaves the batch and
    takes that start's result.  The rest zoom one window per batch row, in
    a buffer of their own.
    """
    out_c = np.array(centers, dtype=float)
    out_v = np.array(values, dtype=float)
    P, k, n = out_c.shape
    offs = _WINDOWS[n]
    merge = len(offs) >= _MERGE_POINTS
    rows = np.arange(P)
    # rows[i] is batch row i's objective row, dest[i] its row of the output
    # into_c/into_v (seen as P * k rows of one start once merged), which
    # takes its result when it stops
    dest, into_c, into_v, copies = rows, out_c, out_v, None
    c, v, h = out_c, out_v, np.asarray(half_width, dtype=float)
    lo, hi = lo[:, None, None, :], hi[:, None, None, :]
    f, windows = objective(slice(None)), np.arange(P * k)
    pts = _window_batch(P, k, offs)
    while h.max() >= tol:
        if len(rows) > 1:
            live = h.max(axis=1) >= tol
            if not live.all():
                into_c[dest], into_v[dest] = c, v
                rows, dest, c, h = rows[live], dest[live], c[live], h[live]
                lo, hi = lo[live], hi[live]
                f, windows = objective(rows), np.arange(len(rows) * k)
                pts = pts[: len(rows)]
        h = h * _ZOOM_FACTOR  # this window's spacing, the next half-width
        np.add(c[:, :, None, :], offs * h[:, None, None, :], out=pts)
        np.maximum(pts, lo, out=pts)
        np.minimum(pts, hi, out=pts)
        vals = f(pts.reshape(len(rows), -1, n)).reshape(len(windows), -1)
        best = vals.argmin(axis=1)
        c = pts.reshape(len(windows), -1, n)[windows, best].reshape(-1, k, n)
        v = vals[windows, best].reshape(-1, k)
        if merge:
            merge = False
            first = _first_equal(c)
            keep = first == np.arange(k)
            if not keep.all():
                # the output as P * k rows of one start; each start that
                # repeats an earlier one of its row copies that one's result
                into_c, into_v = out_c.reshape(-1, 1, n), out_v.reshape(-1, 1)
                row, start = np.nonzero(~keep)
                copies = dest[row] * k + start, dest[row] * k + first[row, start]
                row, start = np.nonzero(keep)
                rows, dest = rows[row], dest[row] * k + start
                c, v = c[row, start][:, None], v[row, start][:, None]
                h, lo, hi, k = h[row], lo[row], hi[row], 1
                f, windows = objective(rows), np.arange(len(rows))
                pts = _window_batch(len(rows), 1, offs)
    if len(dest) == len(into_c):
        return c, v
    into_c[dest], into_v[dest] = c, v
    if copies is not None:
        to, src = copies
        into_c[to], into_v[to] = into_c[src], into_v[src]
    return out_c, out_v


def _window_batch(P: int, k: int, offs: NDArray) -> NDArray:
    """An empty (P, k, M, n) batch for P rows of k windows of the M points
    ``offs``, cell-major as the grid's: pts[..., j] is one contiguous plane
    (in 1-d both layouts are the same memory)."""
    m, n = offs.shape
    return np.empty((n, P, k, m)).transpose(1, 2, 3, 0)


def _first_equal(c: NDArray) -> NDArray:
    """Per row of the (R, k, n) centres, the first start whose centre has
    the bits of each start's: (R, k) indices, each at most its own."""
    bits = np.ascontiguousarray(c).view(np.int64)
    same = (bits[:, :, None, :] == bits[:, None, :, :]).all(axis=3)
    return same.argmax(axis=2)


def _search_boxes(problem: RisProblem, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """Per row, the lower and upper corners of the box the step searches."""
    lo, hi = np.empty_like(Z_prev), np.empty_like(Z_prev)
    lo[:], hi[:] = problem._lo, problem._hi
    if problem.unidirectional:
        # d is infinite above z_prev: clip the search space there
        hi = np.where(Z_prev < hi, Z_prev, hi)
        hi = np.where(hi <= lo, np.where(Z_prev > lo, Z_prev, lo), hi)
    return lo, hi


def _grid_axis(lo: NDArray, hi: NDArray, z: NDArray) -> tuple[NDArray, NDArray]:
    """Per row, np.unique(np.append(np.linspace(lo, hi, GRID_RESOLUTION),
    np.clip(z, lo, hi))) as the sorted row and the mask of the values it
    keeps."""
    res = GRID_RESOLUTION
    row = np.empty((len(z), res + 1))
    y = row[:, :res]
    np.multiply(np.arange(res), ((hi - lo) / (res - 1))[:, None], out=y)
    y += lo[:, None]
    y[:, -1] = hi
    # z lies in the box up to 1e-12; a +-0 tie dedups against the grid's end
    row[:, res] = np.minimum(np.maximum(z, lo), hi)
    row.sort(axis=1, kind="stable")  # a -0.0 and a 0.0 keep np.unique's order
    keep = np.empty(row.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(row[:, 1:], row[:, :-1], out=keep[:, 1:])
    return row, keep


def _row_groups(lengths: NDArray) -> list:
    """Row selections of equal grid shape: one slice when all rows agree."""
    if (lengths == lengths[0]).all():
        return [slice(None)]
    shapes, label = np.unique(lengths, axis=0, return_inverse=True)
    return [np.flatnonzero(label.ravel() == g) for g in range(len(shapes))]


def _first_k(vals: NDArray, k: int) -> NDArray:
    """Per row, the first ``k`` indices of the stable ascending order,
    ``np.argsort(vals, axis=1, kind="stable")[:, :k]``: tied values keep
    index order on every CPU, where numpy's default sort breaks ties by the
    CPU it dispatches to.  A row of m < k values gives m.  A large batch is
    not sorted whole."""
    P, m = vals.shape
    if m <= k or vals.size <= _SORT_WHOLE:
        return np.argsort(vals, axis=1, kind="stable")[:, :k]
    kth = np.partition(vals, k - 1, axis=1)[:, k - 1, None]
    # at least k candidates a row, each row's in index order; the stable
    # lexsort orders them by row, then by value
    rows, cols = np.nonzero(vals <= kth)
    cols = cols[np.lexsort((vals[rows, cols], rows))]
    return cols[np.searchsorted(rows, np.arange(P))[:, None] + np.arange(k)]


def _grid_zoom(
    problem: RisProblem, ts: NDArray, Z_prev: NDArray, lo: NDArray, hi: NDArray
) -> tuple[NDArray, NDArray]:
    """Per row, the best ``_ZOOM_STARTS`` points of a grid of
    ``GRID_RESOLUTION`` points per axis over the search box plus z_prev,
    then their zoomed refinements: (P, 2 * _ZOOM_STARTS, n) candidates and
    their values."""
    P, n = Z_prev.shape
    axes = [_grid_axis(lo[:, j], hi[:, j], Z_prev[:, j]) for j in range(n)]
    lengths = np.array([keep.sum(axis=1) for _, keep in axes]).T
    starts = np.empty((P, _ZOOM_STARTS, n))
    start_vals = np.empty((P, _ZOOM_STARTS))
    for rows in _row_groups(lengths):
        shape = lengths[rows][0]
        ax = [row[rows][keep[rows]].reshape(-1, m) for (row, keep), m in zip(axes, shape)]
        # the "ij" mesh of the row's axes, cell-major: one plane per axis
        mesh = np.empty((n, len(ax[0]), *shape))
        for j, a in enumerate(ax):
            mesh[j] = a.reshape(-1, *(m if i == j else 1 for i, m in enumerate(shape)))
        pts = mesh.transpose(*range(1, n + 2), 0).reshape(len(ax[0]), -1, n)
        vals = _row_objective(problem, ts[rows], Z_prev[rows])(pts)
        best = _first_k(vals, _ZOOM_STARTS)
        if best.shape[1] < _ZOOM_STARTS:
            # a grid of fewer points repeats its last start; a repeated
            # candidate changes no choice
            best = best[:, np.minimum(np.arange(_ZOOM_STARTS), best.shape[1] - 1)]
        grids = np.arange(len(pts))[:, None]
        starts[rows], start_vals[rows] = pts[grids, best], vals[grids, best]
    centers, values = zoom_search(
        lambda sel: _row_objective(problem, ts[sel], Z_prev[sel]),
        starts, start_vals, (hi - lo) / (GRID_RESOLUTION - 1), lo, hi, DESCENT_TOL,
    )
    # coarse runners-up stay candidates for the tie-break
    return (
        np.concatenate([starts, centers], axis=1),
        np.concatenate([start_vals, values], axis=1),
    )


def chunk_rows(n_z: int) -> int:
    """Rows one chunk of ``global_min_rows`` searches together: as many as
    fit in ``_ROW_POINTS`` objective points, at least one."""
    per_row = max((GRID_RESOLUTION + 1) ** n_z, _ZOOM_STARTS * _ZOOM_POINTS**n_z)
    return max(1, _ROW_POINTS // per_row)


def require_search(n_z: int) -> None:
    """Raise ValueError for n_z > 2, where no certified search exists yet."""
    if n_z > 2:
        raise ValueError(
            f"no certified step search exists yet for n_z > 2 (got n_z = {n_z})"
        )


def global_min_rows(problem: RisProblem, ts, Z_prev) -> tuple[NDArray, NDArray]:
    """Minimize z -> I(t,z) + d(z_prev,z) + delta(z_prev,z) over the box for
    every row (ts[p], Z_prev[p]): the (P, n_z) minimizers and (P,) values.

    Rows are searched together, ``chunk_rows`` at a time, and each gets
    the bits it would get alone.  A row's candidates are staying put, the
    best points of its grid and their zoomed refinements.  Ties within
    ``NEAR_OPTIMAL_BAND`` go to the candidate closest to z_prev.  Raises
    ValueError for n_z > 2, where no certified search exists yet.
    """
    n = problem.n_z
    require_search(n)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    Z_prev = np.asarray(Z_prev, dtype=float).reshape(len(ts), n)
    size = chunk_rows(n)
    if len(ts) <= size:
        return _step_rows(problem, ts, Z_prev)
    parts = [
        _step_rows(problem, ts[i : i + size], Z_prev[i : i + size])
        for i in range(0, len(ts), size)
    ]
    return np.concatenate([x for x, _ in parts]), np.concatenate([v for _, v in parts])


def _step_rows(problem: RisProblem, ts: NDArray, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """``global_min_rows`` for one chunk of rows."""
    f = _row_objective(problem, ts, Z_prev)
    # I(t, z_prev) + 0 + 0 bit for bit, so a state that stays has a
    # residual of exactly 0
    stay = f(Z_prev[:, None, :])[:, 0] if problem.inside(Z_prev).all() else None
    if stay is None or not np.isfinite(stay).all():
        raise ValueError("infeasible step: previous state has infinite objective")
    lo, hi = _search_boxes(problem, Z_prev)
    cands, vals = _grid_zoom(problem, ts, Z_prev, lo, hi)
    cands = np.concatenate([Z_prev[:, None, :], cands], axis=1)
    vals = np.concatenate([stay[:, None], vals], axis=1)
    # of the candidates within the band of the best, the first nearest
    # z_prev; vecdot is the BLAS dot np.linalg.norm takes, bit for bit
    near = vals <= (vals.min(axis=1) + NEAR_OPTIMAL_BAND)[:, None]
    step = cands - Z_prev[:, None, :]
    dist = np.where(near, np.sqrt(np.vecdot(step, step)), INF)
    rows, pick = np.arange(len(ts)), dist.argmin(axis=1)
    x, v = cands[rows, pick], vals[rows, pick]
    # snap to box edges when the search stopped a hair away from them
    off = np.abs(x[:, :, None] - problem._box)
    hit = (0 < off) & (off < 1e-8)
    if hit.any():
        snapped = np.where(
            hit[..., 0], problem._lo, np.where(hit[..., 1], problem._hi, x)
        )
        vs = f(snapped[:, None, :])[:, 0]
        take = hit.any(axis=(1, 2)) & (vs <= v + NEAR_OPTIMAL_BAND)
        x, v = np.where(take[:, None], snapped, x), np.where(take, vs, v)
    # the step objective can never beat simply staying put by less than 0
    back = v > stay
    return np.where(back[:, None], Z_prev, x), np.where(back, stay, v)


def global_min_corrected(problem: RisProblem, t: float, z_prev) -> MinResult:
    """Minimize z -> I(t,z) + d(z_prev,z) + delta(z_prev,z) over the box: a
    batch of one of ``global_min_rows``, certified global."""
    z_prev = np.atleast_1d(np.asarray(z_prev, dtype=float))
    x, v = global_min_rows(problem, [t], z_prev[None])
    return MinResult(
        argmin=x[0],
        value=float(v[0]),
        method="grid",
        certified_global=True,
        tolerance=DESCENT_TOL,
    )
