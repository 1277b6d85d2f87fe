"""Time-incremental minimization schemes and the jump detector.

Three flavours share one driver and differ only in the correction of the
problem they solve (``scheme_problem``): the plain scheme E removes the
problem's correction, the viscosity-penalized scheme BV installs the
eps/(2 tau) squared-distance penalty (an approximation of the
vanishing-viscosity limit), and the corrected scheme VE keeps the
problem's own viscous correction.

A run is a ``DiscreteTrajectory``: a ``Trajectory`` that also keeps the
problem it solved and its config.  Everything else about it is read from
its node times and states: its step terms d, delta and gain
(``reduced.step_terms``) and its jumps.  ``jump_records`` is the one jump
detector, so a scheme run and a trajectory read back from its CSV get the
same records; every jump window is taken from them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    JumpRecord,
    QuadraticMu,
    RisProblem,
    Trajectory,
    median,
    sup_distance,
)
from .reduced import (chunk_rows, convex_chain, global_min_rows, reduced_value, search_boxes,
                      step_terms)

__all__ = [
    "SchemeConfig",
    "DiscreteTrajectory",
    "scheme_problem",
    "solve_incremental",
    "solve_lockstep",
    "refine_study",
    "ConvergenceReport",
    "jump_records",
    "jump_onset",
]

JUMP_THRESH = 10.0  # step is a jump candidate beyond this multiple of median
JUMP_FLOOR = 1e-6
ONSET_GAIN = 0.05  # jump_onset's threshold on the step gain, in units of tau
# the uniform times at which two runs are compared: the sup distance of
# refine_study and of the sweep's sup_dist_prev column
SUP_PROBES = 129
# per n_z, the factor a block grows by after a block kept whole.  A 1-d
# global_min_rows call costs some 30-50 rows of fixed work on 2 cores (one
# row 240-370 us, 64 rows 0.77-0.88 ms): 1-d blocks grow 1, 8, 64, 504
# rows.  A 2-d row's 16,900-point grid outweighs the call: 1, 2, 3 rows
_BLOCK_GROWTH = {1: 8, 2: 2}


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "VE"  # E | BV | VE
    tau: float = 1e-2
    epsilon: float = 0.0  # BV only
    initial_z: Optional[Sequence[float]] = None  # None: n_z zeros
    t_span: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.scheme not in ("E", "BV", "VE"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.scheme == "BV":
            if self.epsilon <= 0:
                raise ValueError("BV scheme needs epsilon > 0")
            if self.epsilon / self.tau < 10:
                warnings.warn(
                    "BV scheme with epsilon/tau < 10 is far from the "
                    "vanishing-viscosity regime; output is a rough proxy",
                    stacklevel=2,
                )


@dataclass(frozen=True, kw_only=True)
class DiscreteTrajectory(Trajectory):
    """A scheme run: its nodes, with the jump records the detector finds
    in them, the problem it solved and its config.  The problem prices
    the run's step terms (``reduced.step_terms``)."""

    problem: RisProblem  # problem with the scheme's correction installed
    config: SchemeConfig


def scheme_problem(problem: RisProblem, cfg: SchemeConfig) -> RisProblem:
    """The problem the scheme of ``cfg`` solves and its certificate checks:
    a copy of ``problem`` without a correction (E), with the penalty
    QuadraticMu(epsilon / tau) (BV) or with the problem's own (VE)."""
    if cfg.scheme == "E":
        spec = None
    elif cfg.scheme == "BV":
        spec = QuadraticMu(mu=cfg.epsilon / cfg.tau, dist="euclidean")
    else:
        spec = problem.correction_spec
    return problem.with_correction(spec)


class _Run:
    """One run of the scheme in progress: its partition, the nodes it has
    reached and the block of steps it searches next.

    A step depends only on its time and the state it starts from.  So from
    a state z the rows (times[n:n+k], z) of one row batch are the steps
    n..n+k-1 exactly, up to and including the first row whose argmin
    differs from the bytes of z; the rows after it are dropped.

    A run of a problem that states I(t, .) convex (``RisProblem.reduced_dz``)
    chains its block instead (``reduced.convex_chain``): row n starts from
    row n - 1's pick, so its rows are the steps n..n+k-1, moving or not, up
    to and including the first whose pick gives way to staying put, where
    the chain is cut.

    The block grows by ``_BLOCK_GROWTH`` after a block kept whole, up to
    the rows one chunk of the search holds (``chunk_rows``), and is one
    again after a move or a cut.  So a flowing step of a searched problem
    is a block of one, and a flowing convex run takes O(log n + n / cap)
    chains.  A frozen state, whose search box (``reduced.search_boxes``) is
    the state itself on every axis, can only stay: its next block is every
    remaining step, up to the cap.  After a block raised, the blocks are
    one row until the run moves, is cut or gets past that block's end, so
    no row is searched in a block that raised before.
    """

    def __init__(self, prob: RisProblem, cfg: SchemeConfig):
        t0, t1 = cfg.t_span if cfg.t_span is not None else (0.0, prob.horizon)
        if not 0.0 <= t0 < t1 <= prob.horizon:  # also true for a nan
            raise ValueError(f"t_span = ({t0:g}, {t1:g}) must satisfy "
                             f"0 <= t0 < t1 <= {prob.horizon:g}, the model's horizon")
        n_steps = max(1, round((t1 - t0) / cfg.tau))
        times = t0 + cfg.tau * np.arange(n_steps + 1)
        if abs(times[-1] - t1) > 1e-9:
            raise ValueError(
                f"tau = {cfg.tau:g} does not divide the time span [{t0:g}, {t1:g}]: "
                f"the last node would be t = {times[-1]:.12g}"
            )
        times[-1] = t1
        z = np.zeros(prob.n_z) if cfg.initial_z is None else np.atleast_1d(
            np.asarray(cfg.initial_z, dtype=float))
        if z.shape != (prob.n_z,):
            raise ValueError(f"initial_z needs n_z = {prob.n_z} numbers, "
                             f"got {z.tolist()}")
        z = prob.clip(z)
        if not math.isfinite(reduced_value(prob, times[0], z)):
            raise ValueError("initial state has infinite energy")
        self.prob, self.cfg, self.times, self.z = prob, cfg, times, z
        self.Z = np.empty((n_steps + 1, prob.n_z))  # the node states
        self.Z[0] = z
        self.cap, self.growth = chunk_rows(prob.n_z), _BLOCK_GROWTH.get(prob.n_z, 1)
        self.n, self.stop = 1, 0  # stop: the end of the last block that raised
        self.k = self.cap if self.frozen() else 1
        self.chained = prob.reduced_dz is not None

    def next_block(self) -> tuple[NDArray, NDArray]:
        """The rows (ts, Z) of the steps this run searches next; for a
        chained run, their times and the state z the chain starts from."""
        ts = self.times[self.n : self.n + self.k]
        if self.chained:
            return ts, self.z
        Z = np.empty((len(ts), len(self.z)))
        Z[:] = self.z
        return ts, Z

    def frozen(self) -> bool:
        """Whether the state's search box is the state itself on every
        axis, where every candidate of a step equals it in value."""
        lo, hi = search_boxes(self.prob, self.z[None])
        return lo[0].tolist() == hi[0].tolist() == self.z.tolist()

    def failed(self, exc: Exception) -> None:
        """The block's own search raised ``exc``: raise it for a block of
        one, else search blocks of one up to its end or to a move or cut."""
        if self.k == 1 or not isinstance(exc, ValueError):
            raise exc
        # the failing row may lie past a move, where the state never
        # starts from z, or past a chain's cut, where the chain started from
        # a pick that gave way: only a block of one raises
        self.stop, self.k = self.n + self.k, 1

    def advance(self, X: NDArray) -> Optional[DiscreteTrajectory]:
        """Keep the steps of the block up to its first move, given the
        block's minimizers ``X``, or every row of a chain up to its cut; the
        trajectory once the last step is kept."""
        prob, z = self.prob, self.z
        if self.chained:
            m = len(X)
            whole = m == min(self.k, len(self.times) - self.n)
        else:
            # keep up to the first row whose argmin leaves the bytes of z
            diff = (X.view(np.int64) != z.view(np.int64)).ravel()
            first = int(diff.argmax())
            whole = not diff[first]
            m = len(X) if whole else first // prob.n_z + 1
            X = X[:m]
        self.Z[self.n : self.n + m] = X
        if np.count_nonzero(np.isfinite(X)) < X.size:
            raise ValueError("state entries must be finite")
        self.z = X[-1]
        self.n += m
        if not whole:
            self.stop = 0  # the row that raised may lie past the move or cut
        grown = min(self.growth * self.k, self.cap) if whole else 1
        self.k = 1 if self.n < self.stop else self.cap if self.frozen() else grown
        if self.n < len(self.times):
            return None
        # every node's u at once: solve_u acts elementwise, so each gets
        # the bits it gets alone
        return DiscreteTrajectory(
            times=self.times,
            Z=self.Z,
            U=prob.solve_u(self.times, self.Z),
            jump_records=jump_records(prob, self.times, self.Z),
            problem=prob,
            config=self.cfg,
        )


def _search_blocks(prob: RisProblem, blocks: list[tuple[NDArray, NDArray]]) -> list:
    """Per block (ts, Z) of rows, its minimizers from one ``global_min_rows``
    call over the rows of all blocks.  When that call raises, each block is
    searched alone, and a block whose own search raises gets the exception
    instead."""
    if len(blocks) == 1:
        try:
            return [global_min_rows(prob, *blocks[0])[0]]
        except Exception as exc:
            return [exc]
    try:
        X, _ = global_min_rows(prob, *(np.concatenate(part) for part in zip(*blocks)))
    except Exception:
        return [_search_blocks(prob, [b])[0] for b in blocks]
    out, a = [], 0
    for ts, _ in blocks:
        out.append(X[a : a + len(ts)])
        a += len(ts)
    return out


def _chain_blocks(prob: RisProblem, blocks: list[tuple[NDArray, NDArray]]) -> list:
    """Per block (ts, z) of a convex run, its chain's minimizers
    (``convex_chain``), or the exception the chain raised."""
    out = []
    for ts, z in blocks:
        try:
            out.append(convex_chain(prob, ts, z)[0])
        except Exception as exc:
            out.append(exc)
    return out


def solve_lockstep(
    runs: Sequence[tuple[RisProblem, SchemeConfig]],
) -> list[DiscreteTrajectory | Exception]:
    """Run the incremental scheme on every (problem, config) pair of
    ``runs``, stepping the runs that share a step objective in lockstep.

    Runs share a step objective when they have the same problem object and
    their ``scheme_problem`` copies equal corrections: the runs of an E or
    VE tau sweep do, those of a BV tau sweep (whose correction scales with
    1/tau), a mu sweep or a k sweep do not.  Each round advances every
    unfinished run of a group by its next block of steps, sized by the run
    alone (``_Run``: grown after a block kept whole, every remaining step
    from a frozen state), and one ``global_min_rows`` call searches the
    rows of all of them.  The runs of a problem that states I(t, .) convex
    share no search: each chains its own block (``reduced.convex_chain``).
    Every row gets the bits it gets alone, so each run equals its solo run
    to the bit.  A run whose own search raises, or that fails otherwise,
    drops out: its entry is the exception, and the other runs go on.
    """
    out: list = [None] * len(runs)
    # (problem, scheme problem, [(index, run)])
    groups: list[tuple] = []
    for i, (problem, cfg) in enumerate(runs):
        try:
            prob = scheme_problem(problem, cfg)
            spec = prob.correction_spec
            group = next(
                (g for g in groups if g[0] is problem and g[1].correction_spec == spec), None
            )
            if group is None:
                group = (problem, prob, [])
                groups.append(group)
            group[2].append((i, _Run(group[1], cfg)))
        except Exception as exc:
            out[i] = exc
    for _, prob, live in groups:
        search = _chain_blocks if prob.reduced_dz is not None else _search_blocks
        while live:
            found = search(prob, [run.next_block() for _, run in live])
            for (i, run), res in zip(live, found):
                try:
                    if isinstance(res, Exception):
                        run.failed(res)
                    else:
                        out[i] = run.advance(res)
                except Exception as exc:
                    out[i] = exc
            live = [(i, run) for i, run in live if out[i] is None]
    return out


def solve_incremental(problem: RisProblem, cfg: SchemeConfig) -> DiscreteTrajectory:
    """Run the incremental scheme on a uniform partition of [0, T]: the
    one-run case of ``solve_lockstep``, raising the run's exception."""
    (disc,) = solve_lockstep([(problem, cfg)])
    if isinstance(disc, Exception):
        raise disc
    return disc


def jump_onset(disc: DiscreteTrajectory) -> float | None:
    """First node time whose step improves on staying put by more than
    ``ONSET_GAIN * tau``: the onset of a jump regime.

    A step that merely tracks a smoothly sliding stable state improves the
    objective by O(tau^2); a step participating in a genuine transition
    improves it by O(tau) (finite energy-drop rate).  The threshold 0.05*tau
    therefore separates crawl from jump, and keeps firing near the
    local-stability-loss time even when a strong correction smears the
    transition itself over many nodes.

    This is the paper's onset study, read by
    ``TestDoubleWellHierarchy::test_onset_ordering``, not a window
    detector: every jump window comes from ``jump_records``.
    """
    _, _, gain = step_terms(disc.problem, disc.times, disc.Z)
    idx = np.nonzero(gain > ONSET_GAIN * disc.config.tau)[0]
    if idx.size == 0:
        return None
    return float(disc.times[int(idx[0]) + 1])


def _runs(flags: NDArray[np.bool_]) -> list[tuple[int, int]]:
    """Index ranges [a, b] of the runs of True in ``flags``."""
    edges = np.diff(np.r_[0, flags.astype(np.int8), 0])
    starts, stops = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)
    return list(zip(starts.tolist(), (stops - 1).tolist()))


def jump_records(problem: RisProblem, times: NDArray, Z: NDArray) -> tuple[JumpRecord, ...]:
    """The jumps of the (N, n_z) node states ``Z`` at ``times``: one record
    per run of consecutive steps whose dissipation exceeds both
    ``JUMP_THRESH`` times the median step's and ``JUMP_FLOOR``, with the
    states before and after the run and, inside it, the state reached by
    the step of largest dissipation.  A single node has no steps and no
    jumps."""
    d = problem.dissipation(Z[:-1], Z[1:])  # d[a]: the step into node a + 1
    med = median(d) if d.size else 0.0
    records = []
    for a, b in _runs(d > max(JUMP_THRESH * med, JUMP_FLOOR)):
        k = a + int(np.argmax(d[a : b + 1]))
        records.append(
            JumpRecord(
                t=float(times[a + 1]),
                z_left=Z[a],
                z_inner=Z[k + 1],
                z_right=Z[b + 1],
                t_end=float(times[b + 1]),
            )
        )
    return tuple(records)


@dataclass(frozen=True)
class ConvergenceReport:
    taus: list[float]
    sup_differences: list[float]  # between consecutive refinements
    jump_times: list[list[float]]
    balance_residuals: list[float]
    cauchy: bool


def refine_study(
    problem: RisProblem,
    cfg: SchemeConfig,
    tau_list: Sequence[float],
) -> ConvergenceReport:
    """Re-run the scheme over decreasing tau and compare the runs at
    ``SUP_PROBES`` times."""
    taus = list(tau_list)
    if len(taus) < 3 or any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("need >= 3 strictly decreasing tau values")
    t0, t1 = cfg.t_span if cfg.t_span is not None else (0.0, problem.horizon)
    probes = np.linspace(t0, t1, SUP_PROBES)
    from .verify import balance_residual  # local import: verify builds on scheme

    runs = solve_lockstep([(problem, replace(cfg, tau=tau)) for tau in taus])
    for disc in runs:
        if isinstance(disc, Exception):
            raise disc
    sups = [sup_distance(a, b, probes) for a, b in zip(runs, runs[1:])]
    # Cauchy proxy: the pairwise gaps shrink (1.05 slack for plateaus at 0)
    cauchy = all(s2 <= 1.05 * s1 + 2 * taus[i] for i, (s1, s2) in enumerate(zip(sups, sups[1:])))
    return ConvergenceReport(
        taus=taus,
        sup_differences=sups,
        jump_times=[[rec.t for rec in disc.jump_records] for disc in runs],
        balance_residuals=[balance_residual(disc) for disc in runs],
        cauchy=cauchy,
    )
