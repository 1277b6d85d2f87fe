"""Viscous chains and jump cost bounds.

The true jump cost is an infimum over curves on compact parameter sets; we
search over pure-jump chains plus discretized sliding segments (optimal
transitions decompose into exactly those pieces) and report an upper bound
together with a lower estimate.  The estimate starts from the dissipation,
a true lower bound, and may be raised by extrapolating two DP grid values;
that step is not a bound.  The DP chain search runs for n_z = 1 only; in
higher dimensions the other candidates give the bound.  Its shortest path is
a dense Dijkstra in numpy (``dijkstra``): the grid graph has a few hundred
nodes and is often nearly complete.

Every residual along a chain comes from a ``ResidualMemo``, so each point
a command prices is minimized once, by the same search as the scheme's steps;
a viscous chain steps to the witness of each point's residual search.  The
sliding path is priced only while it can still win: its residuals are filled
``chunk_rows`` points at a time (a 2-d chunk is 3 points, a 1-d path is one
chunk), and it is dropped once the links plus the residuals so far exceed the
direct chain's cost.  Every term is >= 0 and rounding is monotone, so that
partial sum never exceeds the full cost, and a dropped path could not have
been the upper value or its witness.  The DP chains are priced in full, as
their values set the lower estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import INF, RisProblem, is_finite, unique
from .reduced import chunk_rows
from .stability import ResidualMemo, use_memo

__all__ = [
    "JumpChain",
    "CostBound",
    "viscous_chain",
    "jump_cost",
]

DP_RESOLUTION = 201  # DP grid points (n_z = 1)
_SLIDING_POINTS = 64  # links of the sliding-path candidate
_MAX_CHAIN_STEPS = 200  # minimal-set iterations of a viscous chain


@dataclass(frozen=True)
class JumpChain:
    """Ordered z-states theta_0..theta_K with per-link and per-point costs.

    Cost = sum(link_diss) + sum(link_gap) + sum of point residuals over
    theta_0..theta_{K-1} (the terminal point pays no residual).
    """

    points: tuple[NDArray[np.float64], ...]
    kinds: tuple[str, ...]  # "sliding" | "viscous" per point
    link_diss: tuple[float, ...]  # length K
    link_gap: tuple[float, ...]  # length K
    point_residual: tuple[float, ...]  # length K (residuals at points 0..K-1)
    converged: bool = True

    @property
    def cost(self) -> float:
        return (
            sum(self.link_diss) + sum(self.link_gap) + sum(self.point_residual)
        )


@dataclass(frozen=True)
class CostBound:
    upper: float
    lower: float  # an estimate; see jump_cost
    witness: Optional[JumpChain] = None

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _build_chain(
    problem: RisProblem,
    t: float,
    points: Sequence[NDArray],
    kinds: Sequence[str],
    memo: ResidualMemo,
    cutoff: float = INF,
) -> Optional[JumpChain]:
    """The chain through ``points``, its residuals filled from ``memo``
    ``chunk_rows`` points at a time; None once the links plus the residuals
    so far exceed ``cutoff``, which its full cost would too."""
    pts = [np.atleast_1d(np.asarray(p, float)) for p in points]
    P = np.array(pts)
    d = problem.dissipation(P[:-1], P[1:])
    link_diss = tuple(d.tolist())
    link_gap = tuple(problem.correction(P[:-1], P[1:], d).tolist())
    links = sum(link_diss) + sum(link_gap)
    heads, size = P[:-1], chunk_rows(problem.n_z)
    pr: list[float] = []
    for i in range(0, len(heads), size):
        rows = heads[i : i + size]
        pr += memo.fill(np.full(len(rows), float(t)), rows)
        if links + sum(pr) > cutoff:
            return None
    return JumpChain(
        points=tuple(pts),
        kinds=tuple(kinds),
        link_diss=link_diss,
        link_gap=link_gap,
        point_residual=tuple(pr),
    )


def viscous_chain(
    problem: RisProblem,
    t: float,
    z_start,
    memo: ResidualMemo | None = None,
) -> JumpChain:
    """Iterate the minimal-set map at fixed t until it fixes a point, for
    at most ``_MAX_CHAIN_STEPS`` steps.

    Each step goes to the witness of the point's residual search in
    ``memo`` (made if None), so one search gives both the step and the
    chain's residual there.
    """
    memo = use_memo(memo, problem)
    z = np.atleast_1d(np.asarray(z_start, float))
    pts = [z]
    converged = False
    for _ in range(_MAX_CHAIN_STEPS):
        step = memo.witness(t, z)
        if float(np.max(np.abs(step - z))) < 1e-10:
            converged = True
            break
        z = step
        pts.append(z)
    chain = _build_chain(problem, t, pts, ("viscous",) * len(pts), memo)
    return chain if converged else replace(chain, converged=False)


def dijkstra(W: NDArray, src: int, dst: int) -> Optional[list[int]]:
    """Shortest path from ``src`` to ``dst`` in the dense graph of
    non-negative link weights ``W[i, j]`` (+infinity where there is no
    link): the node sequence, or None when ``dst`` is unreachable.

    Dijkstra's algorithm on the dense matrix, one row relaxed per settled
    node.  It stops once ``dst`` is settled, as every node on its path is
    settled before it.  Distances are summed as dist[u] + W[u, v] and only
    a strictly shorter path replaces a tentative one.
    """
    m = len(W)
    dist = np.full(m, INF)
    dist[src] = 0.0
    todo = dist.copy()  # distances of the open nodes; +infinity once settled
    pred = np.full(m, -1)
    cand = np.empty(m)
    better = np.empty(m, dtype=bool)
    while True:
        u = int(todo.argmin())
        if not todo[u] < INF:
            return None
        if u == dst:
            break
        todo[u] = INF
        # a settled node v has dist[v] <= dist[u], so no link reaches it shorter
        np.add(W[u], dist[u], out=cand)
        np.less(cand, dist, out=better)
        np.copyto(dist, cand, where=better)
        np.copyto(todo, cand, where=better)
        np.copyto(pred, u, where=better)
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def _dp_chain(
    problem: RisProblem,
    t: float,
    z_minus: NDArray,
    z_plus: NDArray,
    resolution: int,
) -> Optional[list[NDArray]]:
    """Shortest chain on a regular grid of a 1-d z; nodes pay their residual,
    links pay d + delta.  Returns the node sequence, or None when unreachable.

    Residuals here are grid-restricted (competitors confined to the same
    grid), which overestimates the true residual, so the resulting path is
    searched under an upper-bound weighting; the caller re-evaluates the
    winning chain exactly.
    """
    lo, hi = problem.z_box[0]
    xs = unique(
        np.concatenate([np.linspace(lo, hi, resolution), [z_minus[0], z_plus[0]]])
    )
    src = int(np.argmax(np.isclose(xs, z_minus[0], atol=1e-12)))
    dst = int(np.argmax(np.isclose(xs, z_plus[0], atol=1e-12)))
    if src == dst:
        return [z_minus]
    pts = xs[:, None]
    ivals = np.asarray(problem.reduced_vec(t, pts), dtype=float)
    if not (is_finite(ivals[src]) and is_finite(ivals[dst])):
        return None
    # all-pairs link weights d + delta, d priced once
    a, b = pts[:, None], pts[None]
    D = problem.dissipation(a, b)
    D = D + problem.correction(a, b, D)
    D[~np.isfinite(D)] = INF
    np.fill_diagonal(D, 0.0)
    # grid-restricted residual per node
    with np.errstate(invalid="ignore"):
        comp = np.where(np.isfinite(ivals)[None, :], ivals[None, :], INF) + D
    node_res = np.where(np.isfinite(ivals), ivals - comp.min(axis=1), INF)
    node_res = np.maximum(node_res, 0.0)
    W = D + node_res[:, None]  # a link leaves a node at its residual
    np.fill_diagonal(W, INF)
    path = dijkstra(W, src, dst)
    if path is None:
        return None
    return [pts[i] for i in path]


def jump_cost(
    problem: RisProblem,
    t: float,
    z_minus,
    z_plus,
    memo: ResidualMemo | None = None,
    dp_resolution: int = DP_RESOLUTION,
) -> CostBound:
    """Upper bound and lower estimate of the jump cost between two states
    at time t.

    Candidates: the direct two-point chain, the viscous chain from z_minus
    spliced toward z_plus, a dynamic-programming search on a z-grid of
    ``dp_resolution`` points (n_z = 1), and a fine sliding path equidistant
    in d.  The upper value is the cheapest candidate, the first of equals
    in that order.  The sliding path is dropped once its links plus the
    residuals priced so far exceed the direct chain's cost, so a 2-d path
    that cannot win costs a chunk of searches, not 64; the other candidates
    are priced in full.  The lower value starts at d(z_minus, z_plus), a true
    lower bound; when the DP search applies it is raised to the smaller of
    the DP values at two grid resolutions minus their difference, an
    extrapolation that is an estimate, not a bound.  Residuals come from
    ``memo``, which is made if None.
    """
    z_minus = np.atleast_1d(np.asarray(z_minus, float))
    z_plus = np.atleast_1d(np.asarray(z_plus, float))
    d_direct = float(problem.dissipation(z_minus, z_plus))
    if np.allclose(z_minus, z_plus, atol=1e-14):
        chain = JumpChain((z_minus,), ("sliding",), (), (), ())
        return CostBound(upper=0.0, lower=0.0, witness=chain)
    memo = use_memo(memo, problem)
    candidates: list[JumpChain] = []

    if is_finite(d_direct):
        direct = _build_chain(problem, t, [z_minus, z_plus], ["viscous"] * 2, memo)
        candidates.append(direct)
        # sliding path: equidistant points on the segment, priced while it
        # can still beat the direct chain
        K = _SLIDING_POINTS
        lam = np.linspace(0.0, 1.0, K + 1)
        pts = [z_minus + l * (z_plus - z_minus) for l in lam]
        sliding = _build_chain(
            problem, t, pts, ["sliding"] * (K + 1), memo, cutoff=direct.cost
        )
        if sliding is not None:
            candidates.append(sliding)

    vc = viscous_chain(problem, t, z_minus, memo=memo)
    if vc.converged and len(vc.points) > 1:
        term = vc.points[-1]
        if np.allclose(term, z_plus, atol=1e-8):
            candidates.append(vc)
        elif is_finite(float(problem.dissipation(term, z_plus))):
            pts = list(vc.points) + [z_plus]
            candidates.append(
                _build_chain(problem, t, pts, ["viscous"] * len(pts), memo)
            )

    dp_values = []
    if problem.n_z == 1:
        for res in (dp_resolution, 2 * dp_resolution - 1):
            path = _dp_chain(problem, t, z_minus, z_plus, res)
            if path is not None:
                ch = _build_chain(
                    problem, t, path, ["viscous"] * len(path), memo
                )
                dp_values.append(ch.cost)
                candidates.append(ch)

    finite = [c for c in candidates if is_finite(c.cost)]
    if not finite:
        return CostBound(upper=INF, lower=d_direct, witness=None)
    best = min(finite, key=lambda c: c.cost)
    lower = d_direct if is_finite(d_direct) else 0.0
    if len(dp_values) == 2:
        modulus = abs(dp_values[0] - dp_values[1])
        lower = max(lower, min(dp_values) - modulus - 1e-9)
    lower = min(lower, best.cost)
    return CostBound(upper=best.cost, lower=lower, witness=best)
