"""Reduced energy I(t, z) = min_u E(t, u, z) and global minimization backends.

The u-elimination is the problem's own: ``reduced_vec`` gives I and
``solve_u`` a minimizing u, both broadcasting maps; this module searches z.

Two engines coexist on purpose: a brute-force grid oracle (exhaustive,
certifiable, slow) and the production path.  Tests pit one against the other.

The production path minimizes the step objective
I(t, z) + d(z_prev, z) + delta(z_prev, z) (``step_objective``), assembled
from the problem's three broadcasting maps ``reduced_vec``, ``dissipation``
and ``correction``: a coarse grid, then a batched zoom on its best points
(``zoom_search``).  It runs for n_z <= 2; for larger n_z there is no
certified search yet, and a step there raises.

The zoom fixes its level schedule before its first level: a row zooms as
many levels as its widest half-width, shrunk by ``_ZOOM_FACTOR`` a level,
stays at least ``DESCENT_TOL`` (10 levels for a 1-d row over a box of width
10), and leaves the batch after its last.  A level is then the objective
call and a few array operations, so a lone step, as every flowing step of
a plasticity run is, costs little more than its 12 objective calls
(staying put, the grid and 10 levels).

``global_min_rows`` takes rows (ts[p], Z_prev[p]) and searches them
together, each row with its own box, grid and zoom depth, in chunks of
``chunk_rows`` rows (as many as fit in ``_ROW_POINTS`` objective points);
every row gets the bits it would get alone.  The scheme searches a run of
steps from one state as one chunk of rows, and the next steps of runs in
lockstep as one batch; a residual batch is many chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import INF, RisProblem

__all__ = [
    "MinResult",
    "GRID_RESOLUTION",
    "oracle_grid_min",
    "reduced_value",
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


# ---------------------------------------------------------------------------
# reduced energy


def reduced_value(problem: RisProblem, t: float, z) -> float:
    """I(t, z) of one state: +infinity off the box.  A minimizing u is the
    problem's ``solve_u(t, z)``."""
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


def _level_count(width: float, tol: float) -> int:
    """The zoom levels of a row whose widest half-width is ``width``: each
    level multiplies it by ``_ZOOM_FACTOR``, and a level runs while it is at
    least ``tol``.  A Python float multiplies as a float64 array does."""
    count = 0
    while width >= tol:
        width *= _ZOOM_FACTOR
        count += 1
    return count


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
    window's spacing.  A centre's value never rises.

    The schedule is fixed before the first level.  A level multiplies each
    half-width by ``_ZOOM_FACTOR``, and rounding is monotone, so a row's
    widest half-width after l levels is its first widest one multiplied l
    times: the row zooms ``_level_count`` levels, as many as a test of its
    widest half-width before each level would run.  A row leaves the batch
    after its last level, and its centres keep their points and values, as
    when it is searched alone; the values are read from the last level's
    batch only then.

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
    m = len(offs)
    merge = m >= _MERGE_POINTS
    h = np.asarray(half_width, dtype=float)
    widest = h.max(axis=1).tolist()
    counts = {w: _level_count(w, tol) for w in set(widest)}
    left = np.array([counts[w] for w in widest])  # each batch row's levels
    # rows[i] is batch row i's objective row, dest[i] its row of the output
    # into_c/into_v (seen as P * k rows of one start once merged), which
    # takes its result when it stops
    rows = dest = np.arange(P)
    into_c, into_v, copies = out_c, out_v, None
    # the batch is kept as its buffer of n planes, (n, R, k, M), and the
    # centres (n, R, k, 1), window offsets (n, R, 1, M) and boxes
    # (n, R, 1, 1) broadcast against it.  _ZOOM_FACTOR is a power of two, so
    # scaling by it is exact: a level's offsets, the last level's times
    # _ZOOM_FACTOR, have the bits of offs times its half-width
    c = out_c.transpose(2, 0, 1)[..., None]
    step = offs.T[:, None, None, :] * h.T[:, :, None, None]
    lo, hi = lo.T[:, :, None, None], hi.T[:, :, None, None]
    f = objective(slice(None))
    buf, pts, planes, first = _window_batch(P, k, offs)
    ends = sorted(set(counts.values()))
    level = 0
    for end in ends:
        if end > ends[0]:
            # the rows whose schedule ends at this level leave the batch
            go = left >= end
            if level:
                stop = ~go
                into_c[dest[stop]] = c[..., 0][:, stop].transpose(1, 2, 0)
                into_v[dest[stop]] = vals.reshape(-1)[best].reshape(-1, k)[stop]
            rows, dest, left = rows[go], dest[go], left[go]
            c, step, lo, hi = c[:, go], step[:, go], lo[:, go], hi[:, go]
            f = objective(rows)
            buf, pts, planes, first = _window_batch(len(rows), k, offs)
        while level < end:
            level += 1
            step *= _ZOOM_FACTOR  # h becomes this window's spacing
            np.add(c, step, out=buf)
            np.maximum(buf, lo, out=buf)
            np.minimum(buf, hi, out=buf)
            vals = f(pts)
            best = vals.reshape(-1, m).argmin(axis=1) + first  # into a plane
            c = planes.take(best, axis=1).reshape(n, -1, k, 1)
            if merge:
                merge = False
                same = _first_equal(c[..., 0].transpose(1, 2, 0))
                keep = same == np.arange(k)
                if not keep.all():
                    # the output as P * k rows of one start; each start that
                    # repeats an earlier one of its row copies that one's result
                    into_c, into_v = out_c.reshape(-1, 1, n), out_v.reshape(-1, 1)
                    row, start = np.nonzero(~keep)
                    copies = dest[row] * k + start, dest[row] * k + same[row, start]
                    row, start = np.nonzero(keep)
                    rows, dest, left = rows[row], dest[row] * k + start, left[row]
                    c, best = c[:, row, start, None], best.reshape(-1, k)[row, start]
                    step, lo, hi, k = step[:, row], lo[:, row], hi[:, row], 1
                    f = objective(rows)
                    buf, pts, planes, first = _window_batch(len(rows), 1, offs)
    if not level:
        return out_c, out_v
    c, v = c[..., 0].transpose(1, 2, 0), vals.reshape(-1)[best].reshape(-1, k)
    if len(dest) == len(into_c):
        return np.ascontiguousarray(c), v
    into_c[dest], into_v[dest] = c, v
    if copies is not None:
        to, src = copies
        into_c[to], into_v[to] = into_c[src], into_v[src]
    return out_c, out_v


def _window_batch(P: int, k: int, offs: NDArray) -> tuple[NDArray, ...]:
    """An empty batch for P rows of k windows of the M points ``offs``, as
    its buffer of n planes, (n, P, k, M), and as the (P, k * M, n) batch the
    objective takes, cell-major as the grid's: pts[..., j] is one contiguous
    plane.  With them, the (n, P * k * M) planes and the index in a plane of
    each window's first point."""
    m, n = offs.shape
    buf = np.empty((n, P, k, m))
    pts = buf.reshape(n, P, k * m).transpose(1, 2, 0)
    return buf, pts, buf.reshape(n, -1), np.arange(0, P * k * m, m)


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


_GRID_STEPS = np.arange(GRID_RESOLUTION, dtype=float)  # a grid axis in units of its spacing


def _grid_axis(lo: NDArray, hi: NDArray, spacing: NDArray, z: NDArray) -> NDArray:
    """Per row, np.sort(np.append(np.linspace(lo, hi, GRID_RESOLUTION),
    np.clip(z, lo, hi))): the grid of one axis with z among its points, a
    value the grid holds already included."""
    res = GRID_RESOLUTION
    row = np.empty((len(z), res + 1))
    y = row[:, :res]
    np.multiply(_GRID_STEPS, spacing[:, None], out=y)
    y += lo[:, None]
    y[:, -1] = hi
    # z lies in the box up to 1e-12; a +-0 tie dedups against the grid's end
    row[:, res] = np.minimum(np.maximum(z, lo), hi)
    row.sort(axis=1, kind="stable")  # a -0.0 and a 0.0 keep np.unique's order
    return row


def _grid_groups(axes: list[NDArray]) -> list[tuple]:
    """The rows of equal grid shape, each as a row selection and its axes of
    np.unique's values (each (R, m_j)): one selection of every row when no
    row repeats a value."""
    repeats = [row[:, 1:] == row[:, :-1] for row in axes]
    if not any(map(np.count_nonzero, repeats)):
        return [(slice(None), axes)]
    keeps = []
    for rep in repeats:
        keep = np.ones((len(rep), rep.shape[1] + 1), dtype=bool)
        np.logical_not(rep, out=keep[:, 1:])
        keeps.append(keep)
    lengths = np.array([keep.sum(axis=1) for keep in keeps]).T
    if (lengths == lengths[0]).all():
        sels = [slice(None)]
    else:
        shapes, label = np.unique(lengths, axis=0, return_inverse=True)
        sels = [np.flatnonzero(label.ravel() == g) for g in range(len(shapes))]
    return [
        (sel, [row[sel][keep[sel]].reshape(-1, m)
               for row, keep, m in zip(axes, keeps, lengths[sel][0])])
        for sel in sels
    ]


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
    objective: Callable[[slice | NDArray], Callable[[NDArray], NDArray]],
    Z_prev: NDArray,
    lo: NDArray,
    hi: NDArray,
) -> tuple[NDArray, ...]:
    """Per row, the best ``_ZOOM_STARTS`` points of a grid of
    ``GRID_RESOLUTION`` points per axis over the search box plus z_prev,
    then their zoomed refinements: the (P, _ZOOM_STARTS, n) starts, their
    values, and the same for the refinements.  ``objective`` gives the step
    objective of a selection of rows, as ``zoom_search`` takes it."""
    P, n = Z_prev.shape
    k = _ZOOM_STARTS
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    axes = [_grid_axis(lo[:, j], hi[:, j], spacing[:, j], Z_prev[:, j]) for j in range(n)]
    starts, start_vals = np.empty((P, k, n)), np.empty((P, k))
    for rows, ax in _grid_groups(axes):
        R, shape = len(ax[0]), [a.shape[1] for a in ax]
        # the "ij" mesh of the row's axes, cell-major: one plane per axis
        mesh = np.empty((n, R, *shape))
        for j, a in enumerate(ax):
            mesh[j] = a.reshape(-1, *(m if i == j else 1 for i, m in enumerate(shape)))
        pts = mesh.transpose(*range(1, n + 2), 0).reshape(R, -1, n)
        vals = objective(rows)(pts)
        best = _first_k(vals, k)
        if best.shape[1] < k:
            # a grid of fewer points repeats its last start; a repeated
            # candidate changes no choice
            best = best[:, np.minimum(np.arange(k), best.shape[1] - 1)]
        best += np.arange(0, vals.size, vals.shape[1])[:, None]  # into a plane
        starts[rows] = mesh.reshape(n, -1).take(best, axis=1).transpose(1, 2, 0)
        start_vals[rows] = vals.reshape(-1).take(best)
    centers, values = zoom_search(objective, starts, start_vals, spacing, lo, hi, DESCENT_TOL)
    return starts, start_vals, centers, values


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
    # a selection of rows is an index array, or slice(None) for every row
    starts, start_vals, centers, values = _grid_zoom(
        lambda sel: f if isinstance(sel, slice) else _row_objective(problem, ts[sel], Z_prev[sel]),
        Z_prev, lo, hi,
    )
    # the candidates: staying put, the grid's best points and their
    # refinements, which the coarse runners-up join for the tie-break
    cands = np.concatenate([Z_prev[:, None, :], starts, centers], axis=1)
    vals = np.concatenate([stay[:, None], start_vals, values], axis=1)
    # of the candidates within the band of the best, the first nearest
    # z_prev; vecdot is the BLAS dot np.linalg.norm takes, bit for bit
    near = vals <= (np.minimum.reduce(vals, axis=1) + NEAR_OPTIMAL_BAND)[:, None]
    step = cands - Z_prev[:, None, :]
    dist = np.where(near, np.sqrt(np.vecdot(step, step)), INF)
    pick = dist.argmin(axis=1) + np.arange(0, vals.size, vals.shape[1])  # into flat
    x, v = cands.reshape(-1, Z_prev.shape[1]).take(pick, axis=0), vals.reshape(-1).take(pick)
    # snap to box edges when the search stopped a hair away from them
    off = np.abs(x[:, :, None] - problem._box)
    hit = (0 < off) & (off < 1e-8)
    if np.count_nonzero(hit):
        snapped = np.where(
            hit[..., 0], problem._lo, np.where(hit[..., 1], problem._hi, x)
        )
        vs = f(snapped[:, None, :])[:, 0]
        take = hit.any(axis=(1, 2)) & (vs <= v + NEAR_OPTIMAL_BAND)
        x, v = np.where(take[:, None], snapped, x), np.where(take, vs, v)
    # the step objective can never beat simply staying put by less than 0
    back = v > stay
    if not np.count_nonzero(back):
        return x, v
    return np.where(back[:, None], Z_prev, x), np.where(back, stay, v)
