"""Reduced energy I(t, z) = min_u E(t, u, z) and the global step search.

The u-elimination is the problem's own: ``reduced_vec`` gives I and
``solve_u`` a minimizing u, both broadcasting maps; this module searches z.

The search minimizes the step objective I(t, z) + d(z_prev, z) +
delta(z_prev, z) (``step_objective``), assembled from the problem's three
broadcasting maps ``reduced_vec``, ``dissipation`` and ``correction``: a
coarse grid, then a batched zoom on its best point (``zoom_search``).  It
runs for n_z <= 2; for larger n_z there is no certified search yet, and a
step there raises.

Every row zooms its best grid point alone, in windows of the points per
axis ``_ZOOM_SHAPES`` gives its dimension: 65 in 1-d, 17 in 2-d.  A level
shrinks the half-width to the window's spacing, 1/32 or 1/8 of it, so both
shapes reach the same final half-width 2**-30 of the first.  The zoom fixes
its level schedule before its first level: a row zooms as many levels as
its widest half-width, shrunk a level, stays at least ``DESCENT_TOL`` (6
levels for a 1-d row over a box of width 10, 10 for a 2-d one), and leaves
the batch after its last.  A level is then the objective call and eight
array operations on operands of one shape.  A lone step, as every flowing
step of a plasticity run is, makes 7 objective calls: the grid, whose batch
prices the staying state as one more point, and 6 levels.

``global_min_rows`` takes rows (ts[p], Z_prev[p]) and searches them
together, each row with its own box, grid and zoom depth, in chunks of
``chunk_rows`` rows (as many as fit in ``_ROW_POINTS`` objective points);
every row gets the bits it would get alone.  The scheme searches a run of
steps from one state as one chunk of rows, and the next steps of runs in
lockstep as one batch; a residual batch is many chunks.

A call of exactly one 1-d row, as every flowing step of a plasticity run
is, goes to ``_lone_row`` instead, chosen by the input's shape alone.  It
makes the same objective calls as ``_step_rows`` with the same box, grid
and zoom schedule helpers, and keeps the one-element bookkeeping of the
zoom and the pick on Python floats, which round as float64 ufuncs do
element by element: it returns the bits ``_step_rows`` would, without the
numpy calls on arrays of 1-3 elements that cost a lone row most of its
time.  ``_step_rows`` stays the path of every other call, and the reference
the tests compare the lone path with.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .core import INF, RisProblem

__all__ = [
    "GRID_RESOLUTION",
    "reduced_value",
    "global_min_rows",
    "chunk_rows",
    "require_search",
    "step_objective",
    "step_terms",
    "zoom_search",
]

GRID_RESOLUTION = 129  # coarse grid points per axis of the step search
_ROW_POINTS = 1 << 16  # objective points a batch of step rows holds at once
DESCENT_TOL = 1e-10  # zoom half-width at which a search stops
NEAR_OPTIMAL_BAND = 1e-9  # step values this close to the best one tie
_SNAP_TOL = 1e-8  # a pick this close to a box edge is tried on the edge
# per n_z, the zoom's window points per axis, the centre included: 2**j + 1,
# so that each level's half-width factor, the window's spacing, is a power
# of two.  The zoom refines the best grid point alone: over every shipped
# config's commands and perfbench seeds 0-2, no other of the 4 best grid
# points zoomed to a value more than 2.2e-16 below it in 87,490 1-d rows,
# nor more than 4.4e-16 below it in 3,351 2-d rows.  In 1-d one 65-point
# window makes 6 levels where 17 points make 10
_ZOOM_SHAPES = {1: 65, 2: 17}


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

    dissipation, reduced_vec, correction = (
        problem.dissipation, problem.reduced_vec, problem.correction
    )

    def f(pts):
        d = dissipation(z_prev, pts)
        vals = reduced_vec(t, pts) + d
        vals += correction(z_prev, pts, d)
        finite = np.isfinite(vals)
        if np.count_nonzero(finite) < vals.size:
            vals[~finite] = INF
        return vals

    return f


def step_terms(problem: RisProblem, times, Z) -> tuple[NDArray, NDArray, NDArray]:
    """Per step n of the (N, n_z) node states ``Z`` at ``times``, the parts
    of its ``step_objective`` value: d(z_{n-1}, z_n), delta(z_{n-1}, z_n)
    and the gain over staying put, max(I(t_n, z_{n-1}) - ((I(t_n, z_n) +
    d) + delta), 0), each an (N - 1,) array.

    The maps act elementwise, so on a scheme run's states the value has the
    bits of the step's search value, and a step that stayed put gains
    exactly 0."""
    t, Z_from, Z_to = times[1:], Z[:-1], Z[1:]
    d = problem.dissipation(Z_from, Z_to)
    delta = problem.correction(Z_from, Z_to, d)
    value = problem.reduced_vec(t, Z_to) + d
    value += delta
    return d, delta, np.maximum(problem.reduced_vec(t, Z_from) - value, 0.0)


def _row_objective(problem: RisProblem, ts: NDArray, Z_prev: NDArray) -> Callable:
    """The step objective of row p at (ts[p], Z_prev[p]) over the rows of a
    (P, M, n_z) batch; a single row keeps its time and state unstacked,
    which numpy broadcasts faster and prices to the same bits."""
    if len(ts) == 1:
        return step_objective(problem, float(ts[0]), Z_prev[0])
    return step_objective(problem, ts[:, None], Z_prev[:, None, :])


@functools.cache
def _window_offsets(n: int) -> NDArray:
    """Points of one zoom window of n axes in units of its spacing, centre
    first and then by distance, so a tie in value keeps the point nearest
    the centre."""
    half = (_ZOOM_SHAPES[n] - 1) // 2
    axis = np.arange(-half, half + 1, dtype=float)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=-1)
    return offs[np.argsort(np.abs(offs).sum(axis=1), kind="stable")]


def _zoom_factor(n: int) -> float:
    """Each zoom level's half-width over the last's in n axes: the window's
    spacing, 2 / (points - 1), a power of two."""
    return 2 / (_ZOOM_SHAPES[n] - 1)


def _level_count(width: float, tol: float, factor: float) -> int:
    """The zoom levels of a row whose widest half-width is ``width``: each
    level multiplies it by ``factor``, and a level runs while it is at
    least ``tol``.  A Python float multiplies as a float64 array does."""
    count = 0
    while width >= tol:
        width *= factor
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
    """Refine the (P, n) ``centers`` of P rows at once by nested windows
    until each row's half-width drops below ``tol``.

    Row p has its own (n,) half-width, box [lo[p], hi[p]] and objective
    row: ``objective(rows)``, for a slice or an index array of rows, maps
    an (R, M, n) batch of those R rows to (R, M) values.  The batch is
    cell-major, a view of one buffer whose (R, M) plane of each axis is
    contiguous; every level writes its windows into it.  Each level
    evaluates a window around each centre in one batched call, of the
    points per axis ``_ZOOM_SHAPES`` gives n (65 in 1-d, 17 in 2-d),
    spanning +-half_width (clipped to the box), moves each centre to its
    window's best point, and shrinks the half-width to the window's
    spacing.  A centre's value never rises.

    The schedule is fixed before the first level.  A level multiplies each
    half-width by ``_zoom_factor(n)``, and rounding is monotone, so a row's
    widest half-width after l levels is its first widest one multiplied l
    times: the row zooms ``_level_count`` levels, as many as a test of its
    widest half-width before each level would run.  A row leaves the batch
    after its last level, and its centre keeps its point and value, as when
    it is searched alone; the value is read from the last level's batch
    only then.
    """
    out_c = np.array(centers, dtype=float)
    out_v = np.array(values, dtype=float)
    P, n = out_c.shape
    offs, factor = _window_offsets(n), _zoom_factor(n)
    m = len(offs)
    h = np.asarray(half_width, dtype=float)
    widest = np.maximum.reduce(h, axis=1).tolist()
    counts = {w: _level_count(w, tol, factor) for w in set(widest)}
    ends = sorted(set(counts.values()))
    if not ends[-1]:
        return out_c, out_v
    # each row's levels, read when rows leave the batch
    levels = np.array([counts[w] for w in widest]) if len(ends) > 1 else None
    # rows[i] is batch row i's row of the output, which takes its result
    # when it stops
    rows = np.arange(P)
    sel = slice(None)  # the rows in the batch
    if not ends[0]:
        # a row that zooms no level keeps its centre and never enters the batch
        rows = sel = np.flatnonzero(levels)
        ends = ends[1:]
    # The batch is kept as its buffer of n planes, (n, R * M) for its R
    # windows of M points, and so are the window offsets and the boxes,
    # each repeated over its window's points; the centres c are (n, R).  A
    # level writes each centre over its window, then adds the offsets and
    # clips in place, ufuncs of operands of one shape, which numpy runs
    # without broadcasting.  The factor is a power of two, so scaling by it
    # is exact: a level's offsets, the last level's times the factor, have
    # the bits of offs times its half-width
    f = objective(sel)
    buf, windows, pts, first = _window_batch(len(rows), m, n)
    tiled = np.empty((3, n, len(rows), m))  # offsets, lower and upper box
    np.multiply(offs.T[:, None, :], h[sel].T[..., None], out=tiled[0])
    tiled[1], tiled[2] = lo[sel].T[..., None], hi[sel].T[..., None]
    step, lo, hi = tiled.reshape(3, n, -1)
    c = out_c[sel].T
    level = 0
    for end in ends:
        if end > ends[0]:
            # the rows whose schedule ends at this level leave the batch
            go = levels[rows] >= end
            stop = ~go
            out_c[rows[stop]] = c[:, stop].T
            out_v[rows[stop]] = vals.reshape(-1).take(best[stop])
            rows, c = rows[go], c[:, go]
            step, lo, hi = (a.reshape(n, len(go), m)[:, go].reshape(n, -1)
                            for a in (step, lo, hi))
            f = objective(rows)
            buf, windows, pts, first = _window_batch(len(rows), m, n)
        while level < end:
            level += 1
            step *= factor  # h becomes this window's spacing
            windows[...] = c[:, :, None]
            buf += step
            np.maximum(buf, lo, out=buf)
            np.minimum(buf, hi, out=buf)
            vals = f(pts)
            best = vals.reshape(-1, m).argmin(axis=1) + first  # into a plane
            c = buf.take(best, axis=1)
    c, v = c.T, vals.reshape(-1).take(best)
    if len(rows) == P:
        return c, v
    out_c[rows], out_v[rows] = c, v
    return out_c, out_v


def _window_batch(P: int, m: int, n: int) -> tuple[NDArray, ...]:
    """An empty batch for P windows of m points of n axes, as its buffer of
    n planes, (n, P * m), as its (n, P, m) windows and as the (P, m, n)
    batch the objective takes, cell-major as the grid's: pts[..., j] is one
    contiguous plane.  With them, the index in a plane of each window's
    first point."""
    buf = np.empty((n, P * m))
    pts = buf.reshape(n, P, m).transpose(1, 2, 0)
    return buf, buf.reshape(n, P, m), pts, np.arange(0, P * m, m)


def _search_boxes(problem: RisProblem, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """Per row, the lower and upper corners of the box the step searches."""
    box = np.empty((2, *Z_prev.shape))
    box[...] = problem._box.T[:, None, :]
    lo, hi = box[0], box[1]
    if problem.unidirectional:
        # d is infinite above z_prev: clip the search space there
        hi = np.where(Z_prev < hi, Z_prev, hi)
        hi = np.where(hi <= lo, np.where(Z_prev > lo, Z_prev, lo), hi)
    return lo, hi


_GRID_STEPS = np.arange(GRID_RESOLUTION, dtype=float)  # a grid axis in units of its spacing


def _grid_axes(lo: NDArray, hi: NDArray, spacing: NDArray, Z: NDArray) -> NDArray:
    """Per axis j and row p, np.sort(np.append(np.linspace(lo, hi,
    GRID_RESOLUTION), np.clip(z, lo, hi))) of the row's (lo, hi, z) on axis
    j: the grid of each axis with z among its points, a value the grid holds
    already included, as one (n, P, GRID_RESOLUTION + 1) array."""
    res = GRID_RESOLUTION
    lo, hi = lo.T, hi.T
    axes = np.empty((len(lo), len(Z), res + 1))
    y = axes[:, :, :res]
    np.multiply(_GRID_STEPS, spacing.T[:, :, None], out=y)
    y += lo[:, :, None]
    y[:, :, -1] = hi
    # z lies in the box up to 1e-12; a +-0 tie dedups against the grid's end
    axes[:, :, res] = np.minimum(np.maximum(Z.T, lo), hi)
    axes.sort(axis=2, kind="stable")  # a -0.0 and a 0.0 keep np.unique's order
    return axes


def _grid_groups(axes: NDArray) -> list[tuple]:
    """The rows of equal grid shape, each as a row selection and its axes of
    np.unique's values (each (R, m_j)), from the (n, P, m) ``axes``: one
    selection of every row when no row repeats a value."""
    repeats = axes[:, :, 1:] == axes[:, :, :-1]
    if not np.count_nonzero(repeats):
        return [(slice(None), list(axes))]
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


def _grid_zoom(
    objective: Callable[[slice | NDArray], Callable[[NDArray], NDArray]],
    Z_prev: NDArray,
    lo: NDArray,
    hi: NDArray,
) -> tuple[NDArray, NDArray]:
    """Per row, the step's three candidates and their values, (P, 3, n) and
    (P, 3): staying at z_prev, the best point of a grid of
    ``GRID_RESOLUTION`` points per axis over the search box plus z_prev
    (the first of ties, in grid order), then its zoomed refinement.
    ``objective`` gives the step objective of a selection of rows, as
    ``zoom_search`` takes it.

    z_prev itself, not the grid's clipped copy of it, is one more point of
    its row's grid batch: the maps act elementwise, so its value has the
    bits of a batch of its own, I(t, z_prev) + 0 + 0, and a state that
    stays has a residual of exactly 0.  Raises ValueError, before the zoom,
    when a row's staying value is infinite."""
    P, n = Z_prev.shape
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    axes = _grid_axes(lo, hi, spacing, Z_prev)
    cands, vals = np.empty((P, 3, n)), np.empty((P, 3))
    cands[:, 0] = Z_prev
    for rows, ax in _grid_groups(axes):
        R, shape = len(ax[0]), [a.shape[1] for a in ax]
        M = math.prod(shape)
        # the "ij" mesh of the row's axes, cell-major, one plane per axis,
        # with z_prev after it: mesh is a view of the batch's buffer
        buf = np.empty((n, R, M + 1))
        mesh = buf[:, :, :M].reshape(n, R, *shape)
        for j, a in enumerate(ax):
            mesh[j] = a.reshape(-1, *(m if i == j else 1 for i, m in enumerate(shape)))
        buf[:, :, M] = Z_prev[rows].T
        grid = objective(rows)(buf.transpose(1, 2, 0))
        vals[rows, 0] = grid[:, M]
        best = grid[:, :M].argmin(axis=1) + np.arange(0, grid.size, M + 1)  # into a plane
        cands[rows, 1] = buf.reshape(n, -1).take(best, axis=1).T
        vals[rows, 1] = grid.reshape(-1).take(best)
    if np.count_nonzero(np.isfinite(vals[:, 0])) < P:
        raise ValueError("infeasible step: previous state has infinite objective")
    cands[:, 2], vals[:, 2] = zoom_search(
        objective, cands[:, 1], vals[:, 1], spacing, lo, hi, DESCENT_TOL
    )
    return cands, vals


def chunk_rows(n_z: int) -> int:
    """Rows one chunk of ``global_min_rows`` searches together: as many as
    fit in ``_ROW_POINTS`` objective points, at least one.  A row counts its
    grid, (GRID_RESOLUTION + 1) ** n_z points, which is more than its zoom's
    first level in every shape of ``_ZOOM_SHAPES`` (130 > 65 in 1-d,
    130 ** 2 > 17 ** 2 in 2-d); the grid's batch holds one point more a
    row, the staying state."""
    return max(1, _ROW_POINTS // (GRID_RESOLUTION + 1) ** n_z)


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
    best point of its grid and its zoomed refinement.  Ties within
    ``NEAR_OPTIMAL_BAND`` go to the candidate closest to z_prev.  Raises
    ValueError for n_z > 2, where no certified search exists yet.
    """
    n = problem.n_z
    require_search(n)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    Z_prev = np.asarray(Z_prev, dtype=float).reshape(len(ts), n)
    if len(ts) == 1 and n == 1:
        return _lone_row(problem, float(ts[0]), Z_prev)
    size = chunk_rows(n)
    if len(ts) <= size:
        return _step_rows(problem, ts, Z_prev)
    parts = [
        _step_rows(problem, ts[i : i + size], Z_prev[i : i + size])
        for i in range(0, len(ts), size)
    ]
    return np.concatenate([x for x, _ in parts]), np.concatenate([v for _, v in parts])


def _lone_row(problem: RisProblem, t: float, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """``global_min_rows`` for one 1-d row (t, Z_prev[0]), with the bits
    ``_step_rows`` gives it: the same box, grid, objective calls and zoom
    schedule, with the 1-element bookkeeping on Python floats.  A Python
    float adds, multiplies, compares and takes ``math.sqrt`` as a float64
    array does, one element at a time."""
    if not problem.in_box(Z_prev):
        raise ValueError("infeasible step: previous state has infinite objective")
    z = float(Z_prev[0, 0])
    lo, hi = _search_boxes(problem, Z_prev)
    spacing = (hi - lo) / (GRID_RESOLUTION - 1)
    ((_, (axis,)),) = _grid_groups(_grid_axes(lo, hi, spacing, Z_prev))
    M = axis.shape[1]
    # the grid plus z_prev's clipped copy, then z_prev itself for staying put
    pts = np.empty((1, M + 1, 1))
    pts[0, :M, 0], pts[0, M, 0] = axis[0], z
    f = step_objective(problem, t, Z_prev[0])
    grid = f(pts)
    stay = grid.item(M)
    if not math.isfinite(stay):
        raise ValueError("infeasible step: previous state has infinite objective")
    i = grid[0, :M].argmin()
    c, v = axis.item(i), grid.item(i)
    cands = [(z, stay), (c, v)]
    # the zoom of the best grid point, one window a level: zoom_search's
    # offsets, scaling and clipping on one flat buffer of the window's points
    h, lo, hi, factor = spacing.item(), lo.item(), hi.item(), _zoom_factor(1)
    levels = _level_count(h, DESCENT_TOL, factor)
    if levels:
        step = _window_offsets(1)[:, 0] * h
        buf = np.empty(len(step))
        window = buf.reshape(1, -1, 1)
        for _ in range(levels):
            step *= factor
            np.add(step, c, out=buf)
            np.maximum(buf, lo, out=buf)
            np.minimum(buf, hi, out=buf)
            vals = f(window)
            j = vals.argmin()
            c, v = buf.item(j), vals.item(j)
    cands.append((c, v))
    # of the candidates within the band of the best, the first nearest z_prev
    top = min(value for _, value in cands) + NEAR_OPTIMAL_BAND
    dist = [INF if value > top else math.sqrt((x - z) * (x - z)) for x, value in cands]
    x, v = cands[dist.index(min(dist))]
    # snap to a box edge when the search stopped a hair away from it
    box_lo, box_hi = problem._box[0].tolist()
    if 0 < abs(x - box_lo) < _SNAP_TOL:
        edge = box_lo
    elif 0 < abs(x - box_hi) < _SNAP_TOL:
        edge = box_hi
    else:
        return np.array([[x]]), np.array([v])
    vs = f(np.full((1, 1, 1), edge)).item()
    if vs <= v + NEAR_OPTIMAL_BAND:
        x, v = edge, vs
    if v > stay:
        x, v = z, stay
    return np.array([[x]]), np.array([v])


def _step_rows(problem: RisProblem, ts: NDArray, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """``global_min_rows`` for one chunk of rows."""
    if not problem.in_box(Z_prev):
        raise ValueError("infeasible step: previous state has infinite objective")
    f = _row_objective(problem, ts, Z_prev)
    lo, hi = _search_boxes(problem, Z_prev)
    # the candidates: staying put, the grid's best point and its
    # refinement; a selection of rows is an index array, or slice(None)
    # for every row
    cands, vals = _grid_zoom(
        lambda sel: f if isinstance(sel, slice) else _row_objective(problem, ts[sel], Z_prev[sel]),
        Z_prev, lo, hi,
    )
    stay = vals[:, 0]
    # of the candidates within the band of the best (vals holds no nan),
    # the first nearest z_prev; vecdot is the BLAS dot np.linalg.norm
    # takes, bit for bit
    far = vals > (np.minimum.reduce(vals, axis=1) + NEAR_OPTIMAL_BAND)[:, None]
    step = cands - Z_prev[:, None, :]
    dist = np.sqrt(np.vecdot(step, step))
    dist[far] = INF
    pick = dist.argmin(axis=1) + np.arange(0, vals.size, vals.shape[1])  # into flat
    x, v = cands.reshape(-1, Z_prev.shape[1]).take(pick, axis=0), vals.reshape(-1).take(pick)
    # snap to box edges when the search stopped a hair away from them
    off = np.abs(x[:, :, None] - problem._box)
    hit = off < _SNAP_TOL
    if np.count_nonzero(hit):
        hit &= 0 < off
    if not np.count_nonzero(hit):
        # unsnapped, no pick lies above staying put: z_prev is candidate 0,
        # at distance 0, so it is the pick when it lies in the band of the
        # best, and a pick in the band lies below it otherwise
        return x, v
    snapped = np.where(hit[..., 0], problem._lo, np.where(hit[..., 1], problem._hi, x))
    vs = f(snapped[:, None, :])[:, 0]
    take = hit.any(axis=(1, 2)) & (vs <= v + NEAR_OPTIMAL_BAND)
    x, v = np.where(take[:, None], snapped, x), np.where(take, vs, v)
    # a snapped point may lie up to the band above its pick: the step
    # objective can never beat simply staying put by less than 0
    back = v > stay
    if not np.count_nonzero(back):
        return x, v
    return np.where(back[:, None], Z_prev, x), np.where(back, stay, v)
