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
array operations on operands of one shape.  A lone flowing step of a
nonconvex 1-d model makes 7 objective calls: the grid, whose batch prices
the staying state as one more point, and 6 levels.

A problem that states I(t, .) convex (``RisProblem.reduced_dz``), as
plasticity and the convex toy do, takes no grid: its rows are solved on
the derivative (``_convex_rows``).  A row stays put, its exact bytes, when
no sign of step descends from z_prev; each other row's optimality
condition is solved by a safeguarded Newton iteration written once on
Python floats (``_convex_step``), so a row has the same bits alone and in
any batch, and one objective call prices the picks and the staying
states.  A lone flowing plasticity step makes that one call.

``global_min_rows`` takes rows (ts[p], Z_prev[p]) and searches them
together, each row with its own box, grid and zoom depth, in chunks of
``chunk_rows`` rows (as many as fit in ``_ROW_POINTS`` objective points);
every row gets the bits it would get alone.  A searched row takes
``_step_rows``, the one grid-and-zoom path, in a call of one row or of
many, 1-d or 2-d.  The scheme searches a run of steps from one state as
one chunk of rows, and the next steps of runs in lockstep as one batch; a
residual batch is many chunks.  A scheme run of a convex problem takes
neither: ``convex_chain`` solves its steps one after another, each from
the last one's pick, with the kernel and stay test of a row alone, and
prices the whole chain with one objective call, so the runs of a tau
sweep of such a problem share no search.
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
    "convex_chain",
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
# a convex step's pick must zero its optimality condition to this fraction
# of the condition's terms; Newton meets it at rounding, about 1e-16
OPTIMALITY_TOL = 1e-9
_ROOT_STEPS = 200  # a convex step's Newton and bisection steps, at most
# a convex step's condition this small against its terms is zero to rounding
_ROOT_ROUNDING = 2.0**-50
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
    GRID_RESOLUTION), min(max(z, lo), hi)), kind="stable") of the row's
    (lo, hi, z) on axis j: the grid of each axis with z among its points, a
    value the grid holds already included, as one (n, P, GRID_RESOLUTION +
    1) array.  The stable sort of a sorted run and one value costs less
    than the numpy insertions of it that were timed, for 1 or 504 rows."""
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

    Rows are searched together by ``_step_rows``, ``chunk_rows`` at a
    time, whatever the batch size, and each gets the bits it would get
    alone.  A row's candidates are staying put, the best point of its grid
    and its zoomed refinement.  Ties within ``NEAR_OPTIMAL_BAND`` go to
    the candidate closest to z_prev.  The rows of a problem that states
    I(t, .) convex are solved on the derivative instead
    (``_convex_rows``).  Raises ValueError for n_z > 2, where no
    certified search exists yet.
    """
    n = problem.n_z
    require_search(n)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    Z_prev = np.asarray(Z_prev, dtype=float).reshape(len(ts), n)
    if problem.reduced_dz is not None:
        return _convex_rows(problem, ts, Z_prev)
    size = chunk_rows(n)
    if len(ts) <= size:
        return _step_rows(problem, ts, Z_prev)
    parts = [
        _step_rows(problem, ts[i : i + size], Z_prev[i : i + size])
        for i in range(0, len(ts), size)
    ]
    return np.concatenate([x for x, _ in parts]), np.concatenate([v for _, v in parts])


def _stay_band(problem: RisProblem) -> tuple[float, float]:
    """The slopes I'(t, z_prev) from which no step of a problem that states
    I(t, .) convex descends: a step of sign s descends when s I' + kappa_s +
    delta'(0) < 0, kappa_s = d(0, s), so the band is [-(kappa_+ +
    delta'(0)), kappa_- + delta'(0)]."""
    (down, a_down, e_down), (up, a_up, e_up) = problem._rays
    return -(up + a_up * 0.0**e_up), down + a_down * 0.0**e_down


def _priced_picks(problem: RisProblem, ts: NDArray, Z_prev: NDArray,
                  X: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """Each row's pick X[p] of a convex step, priced against staying at
    Z_prev[p] by one ``step_objective`` call: the picks, with a pick above
    staying put, which rounding alone can make, given way to it; their
    values; and the indices of the rows that gave way.  Raises ValueError
    when a row's staying value is infinite."""
    pts = np.empty((len(ts), 2, 1))
    pts[:, 0], pts[:, 1] = X, Z_prev
    vals = _row_objective(problem, ts, Z_prev)(pts)
    v, stay = vals[:, 0], vals[:, 1]
    if np.count_nonzero(np.isfinite(stay)) < len(ts):
        raise ValueError("infeasible step: previous state has infinite objective")
    back = np.flatnonzero(v > stay)
    if len(back):
        X[back], v[back] = Z_prev[back], stay[back]
    return X, v, back


def _convex_rows(problem: RisProblem, ts: NDArray, Z_prev: NDArray) -> tuple[NDArray, NDArray]:
    """``global_min_rows`` for the rows of a problem that states I(t, .)
    convex (``RisProblem.reduced_dz``): each row solved on the derivative.

    A row whose slope I'(t, z_prev) lies in the ``_stay_band`` stays at
    z_prev, its exact bytes.  That test runs on the rows' array, and
    ``_convex_step`` solves each other row on Python floats, the same code
    whatever the batch.  The picks are then priced against the staying
    states (``_priced_picks``)."""
    if not problem.in_box(Z_prev):
        raise ValueError("infeasible step: previous state has infinite objective")
    grad = problem.reduced_dz(ts, Z_prev[:, 0])
    lower, upper = _stay_band(problem)
    X = Z_prev.copy()
    move = np.flatnonzero(~((lower <= grad) & (grad <= upper))).tolist()
    if move:
        rays, box = problem._rays, problem._box[0].tolist()
        t, z, g = ts.tolist(), Z_prev[:, 0].tolist(), grad.tolist()
        for p in move:
            s = g[p] < lower  # a step up; a nan slope tries down and raises
            X[p, 0] = _convex_step(problem, t[p], z[p], 1.0 if s else -1.0, rays[s], box[s])
    X, v, _ = _priced_picks(problem, ts, Z_prev, X)
    return X, v


def convex_chain(problem: RisProblem, ts, z) -> tuple[NDArray, NDArray]:
    """The steps at times ``ts`` of a run of a problem that states I(t, .)
    convex, from the (1,) state ``z``: row n starts from row n - 1's pick,
    solved as ``_convex_rows`` solves a row alone.

    The stay test and ``_convex_step`` run on Python floats, row after
    row, and one ``step_objective`` call then prices every pick against
    its staying state (``_priced_picks``).  The chain is cut after the
    first row whose pick gives way to staying put: the rows after it
    started from a state that is not the run's.  Returns the (m, 1)
    minimizers and (m,) values of the rows up to the cut, m <= len(ts),
    each with the bits of ``global_min_rows`` on that row alone."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    Z_prev = np.empty((len(ts), 1))
    Z_prev[0] = z
    if not problem.in_box(Z_prev[:1]):
        raise ValueError("infeasible step: previous state has infinite objective")
    dz, rays, box = problem.reduced_dz, problem._rays, problem._box[0].tolist()
    lower, upper = _stay_band(problem)
    x, picks = Z_prev.item(0), []
    for t in ts.tolist():
        g = dz(t, x)
        if not lower <= g <= upper:
            s = g < lower  # a step up; a nan slope tries down and raises
            x = _convex_step(problem, t, x, 1.0 if s else -1.0, rays[s], box[s])
        picks.append(x)
    X = np.array(picks).reshape(-1, 1)
    Z_prev[1:] = X[:-1]
    X, v, back = _priced_picks(problem, ts, Z_prev, X)
    if not len(back):
        return X, v
    m = back[0] + 1
    return X[:m], v[:m]


def _convex_step(problem: RisProblem, t: float, z: float, s: float, ray: tuple,
                 edge: float) -> float:
    """The step from z along sign s of a problem that states I(t, .)
    convex, on Python floats: the root r of the increasing
    g(r) = s I'(t, z + s r) + kappa + a r**e on [0, |edge - z|], with
    ``ray`` = (kappa, a, e), or the box's ``edge`` where g stays <= 0 up to
    it.  The caller found g(0) < 0.

    A safeguarded Newton iteration keeps a bracket [lo, hi] with
    g(lo) < 0 < g(hi); a Newton step that leaves it, or that fails to halve
    the step before, is a bisection.  It stops at rounding: where |g| is
    within ``_ROOT_ROUNDING`` of the sum of its terms' sizes, or where a
    step no longer moves r, within ``_ROOT_STEPS``.  Raises ValueError,
    naming (t, z), when the optimality condition
    |g(r)| <= ``OPTIMALITY_TOL`` * (|I'| + kappa + a r**e) then fails, as a
    nan from a derivative map makes it."""
    dz, dzz = problem.reduced_dz, problem.reduced_dzz
    kappa, a, e = ray
    grad = dz(t, z)
    g = s * grad + kappa + a * 0.0**e
    reach = s * (edge - z)
    # the caller's test, on floats, or z_prev on the edge (or past it by the
    # box's slop); a nan goes on to the raise
    if g >= 0 or g < 0 and not reach > 0:
        return z
    if s * dz(t, edge) + kappa + a * reach**e <= 0:
        return edge
    lo, hi, r, x, last = 0.0, reach, 0.0, z, reach
    for _ in range(_ROOT_STEPS):
        # delta's curvature a e r**(e - 1) is +inf at r = 0 for e < 1, where
        # the iteration bisects, as for any slope that is not finite and > 0
        curve = dzz(t, x) + (a * e * r ** (e - 1) if r > 0 or e >= 1 else INF)
        nxt = r - g / curve if 0 < curve < INF else math.nan
        if not lo <= nxt <= hi or abs(nxt - r) > 0.5 * last:
            nxt = lo + 0.5 * (hi - lo)
        if nxt == r:
            break
        last, r = abs(nxt - r), nxt
        x = z + s * r
        grad = dz(t, x)
        slope = a * r**e
        g = s * grad + kappa + slope
        if not abs(g) > _ROOT_ROUNDING * (abs(grad) + kappa + slope):
            break  # a root at rounding, or a nan
        if g < 0:
            lo = r
        else:
            hi = r
    if not abs(g) <= OPTIMALITY_TOL * (abs(grad) + kappa + a * r**e):
        raise ValueError(
            f"the convex step at t = {t!r} from z_prev = {z!r} misses its "
            f"optimality condition: residual {g!r} at z = {x!r}"
        )
    return edge if s * (x - edge) > 0 else x


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
