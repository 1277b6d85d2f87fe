"""Time-incremental minimization schemes and interpolants.

Three flavours share one driver: the plain scheme (no correction), the
viscosity-penalized scheme (eps/(2 tau) squared-distance penalty, an
approximation of the vanishing-viscosity limit), and the corrected scheme
with a user-chosen viscous correction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    CorrectionSpec,
    JumpRecord,
    QuadraticMu,
    RisProblem,
    State,
    Trajectory,
)
from .reduced import chunk_rows, global_min_rows, reduce_energy

__all__ = [
    "SchemeConfig",
    "DiscreteTrajectory",
    "solve_incremental",
    "solve_lockstep",
    "interpolate",
    "refine_study",
    "ConvergenceReport",
    "detect_jumps",
    "jump_flags",
    "jump_records",
    "jump_onset",
]

JUMP_THRESH = 10.0  # step is a jump candidate beyond this multiple of median
JUMP_FLOOR = 1e-6
ONSET_GAIN = 0.05  # jump_onset's threshold on the step gain, in units of tau


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "VE"  # E | BV | VE
    tau: float = 1e-2
    correction: Optional[CorrectionSpec] = None  # VE only
    epsilon: float = 0.0  # BV only
    initial_z: Sequence[float] = (0.0,)
    t_span: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.scheme not in ("E", "BV", "VE"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.scheme == "BV":
            if self.epsilon <= 0:
                raise ValueError("BV scheme needs epsilon > 0")
            if self.epsilon / self.tau < 10:
                warnings.warn(
                    "BV scheme with epsilon/tau < 10 is far from the "
                    "vanishing-viscosity regime; output is a rough proxy",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class DiscreteTrajectory:
    times: NDArray[np.float64]
    states: tuple[State, ...]
    step_values: NDArray[np.float64]  # minimized objective per step
    step_diss: NDArray[np.float64]  # d(z^{n-1}, z^n) per step
    step_corr: NDArray[np.float64]  # delta(z^{n-1}, z^n) per step
    # improvement over staying put: the previous state's residual at the new
    # time; spikes exactly when that state loses corrected stability
    step_gain: NDArray[np.float64]
    problem: RisProblem  # problem with the scheme's correction installed
    config: SchemeConfig

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _scheme_correction(cfg: SchemeConfig) -> Optional[CorrectionSpec]:
    if cfg.scheme == "E":
        return None
    if cfg.scheme == "BV":
        return QuadraticMu(mu=cfg.epsilon / cfg.tau, dist="euclidean")
    return cfg.correction


_NO_U = np.empty(0)  # the u of every node of a problem with n_u = 0


class _Run:
    """One run of the scheme in progress: its partition, the nodes it has
    reached and the block of steps it searches next.

    A step depends only on its time and the state it starts from.  So from
    a state z the rows (times[n:n+k], z) of one row batch are the steps
    n..n+k-1 exactly, up to and including the first row whose argmin
    differs from the bytes of z; the rows after it are dropped.  The block
    size doubles after a block that stayed put throughout, up to the rows
    one chunk of the search holds (``chunk_rows``), and is one again after
    a move, so a flowing step is a block of one.
    """

    def __init__(self, prob: RisProblem, cfg: SchemeConfig):
        t0, t1 = cfg.t_span if cfg.t_span is not None else (0.0, prob.horizon)
        n_steps = max(1, round((t1 - t0) / cfg.tau))
        times = t0 + cfg.tau * np.arange(n_steps + 1)
        if abs(times[-1] - t1) > 1e-9:
            raise ValueError(
                f"tau = {cfg.tau:g} does not divide the time span [{t0:g}, {t1:g}]: "
                f"the last node would be t = {times[-1]:.12g}"
            )
        times[-1] = t1
        z = prob.clip(np.asarray(cfg.initial_z, dtype=float))
        r0 = reduce_energy(prob, times[0], z)
        if not math.isfinite(r0.value):
            raise ValueError("initial state has infinite energy")
        self.prob, self.cfg, self.times, self.z = prob, cfg, times, z
        self.states = [State(u=r0.u, z=z)]
        self.vals, self.diss, self.corr, self.gains = (np.empty(n_steps) for _ in range(4))
        self.cap = chunk_rows(prob.n_z)
        self.n, self.k = 1, 1

    def next_block(self) -> tuple[NDArray, NDArray]:
        """The rows (ts, Z) of the steps this run searches next."""
        ts = self.times[self.n : self.n + self.k]
        self.block = ts, np.tile(self.z, (len(ts), 1))
        return self.block

    def failed(self, exc: Exception) -> None:
        """The block's own search raised ``exc``: raise it for a block of
        one, else search a block of one next."""
        if self.k == 1 or not isinstance(exc, ValueError):
            raise exc
        # the failing row may lie past a move, where the state never
        # starts from z: only a batch of one raises
        self.k = 1

    def advance(self, X: NDArray, V: NDArray) -> Optional[DiscreteTrajectory]:
        """Keep the steps of the block up to its first move, given the
        block's minimizers ``X`` and values ``V``; the trajectory once the
        last step is kept."""
        prob, z = self.prob, self.z
        ts, Z = self.block
        # keep up to the first row whose argmin leaves the bytes of z
        diff = (X.view(np.int64) != z.view(np.int64)).ravel()
        first = int(diff.argmax())
        moved = bool(diff[first])
        m = first // prob.n_z + 1 if moved else len(ts)
        X, V, ts, Z = X[:m], V[:m], ts[:m], Z[:m]
        s = slice(self.n - 1, self.n - 1 + m)
        self.diss[s] = d = prob.dissipation(Z, X)
        self.corr[s] = prob.correction(Z, X, d)
        self.vals[s] = V
        g = prob.reduced_vec(ts, Z) - V
        self.gains[s] = np.maximum(g, 0.0)
        # one finiteness check a block, not one per State
        finite = np.isfinite(X).all()
        us = [_NO_U] * m
        if prob.n_u:
            us = [np.atleast_1d(np.asarray(prob.solve_u(t, x), dtype=float)) for t, x in zip(ts, X)]
            finite = finite and np.isfinite(np.concatenate(us, axis=None)).all()
        if not finite:
            raise ValueError("state entries must be finite")
        self.states.extend(map(State._checked, us, X))
        self.z = X[-1]
        self.n += m
        self.k = 1 if moved else min(2 * self.k, self.cap)
        if self.n < len(self.times):
            return None
        return DiscreteTrajectory(
            times=self.times,
            states=tuple(self.states),
            step_values=self.vals,
            step_diss=self.diss,
            step_corr=self.corr,
            step_gain=self.gains,
            problem=prob,
            config=self.cfg,
        )


def _search_blocks(prob: RisProblem, blocks: list[tuple[NDArray, NDArray]]) -> list:
    """Per block (ts, Z) of rows, its minimizers and values from one
    ``global_min_rows`` call over the rows of all blocks.  When that call
    raises, each block is searched alone, and a block whose own search
    raises gets the exception instead."""
    try:
        if len(blocks) == 1:
            X, V = global_min_rows(prob, *blocks[0])
        else:
            ts, Z = (np.concatenate(part) for part in zip(*blocks))
            X, V = global_min_rows(prob, ts, Z)
    except Exception as exc:
        if len(blocks) == 1:
            return [exc]
        return [_search_blocks(prob, [b])[0] for b in blocks]
    out, a = [], 0
    for ts, _ in blocks:
        out.append((X[a : a + len(ts)], V[a : a + len(ts)]))
        a += len(ts)
    return out


def solve_lockstep(
    runs: Sequence[tuple[RisProblem, SchemeConfig]],
) -> list[DiscreteTrajectory | Exception]:
    """Run the incremental scheme on every (problem, config) pair of
    ``runs``, stepping the runs that share a step objective in lockstep.

    Runs share a step objective when they have the same problem object and
    equal scheme corrections: the runs of an E or VE tau sweep do, those of a BV tau sweep (whose correction scales
    with 1/tau), a mu sweep or a k sweep do not.  Each round advances every
    unfinished run of a group by its next block of steps (``_Run``), and
    one ``global_min_rows`` call searches the rows of all of them.  Every
    row gets the bits it gets alone, so each run equals its solo run to
    the bit.  A run whose own search raises, or that fails otherwise,
    drops out: its entry is the exception, and the other runs go on.
    """
    out: list = [None] * len(runs)
    # (problem, correction, corrected problem, [(index, run)])
    groups: list[tuple] = []
    for i, (problem, cfg) in enumerate(runs):
        try:
            spec = _scheme_correction(cfg)
            group = next(
                (g for g in groups if g[0] is problem and g[1] == spec), None
            )
            if group is None:
                group = (problem, spec, problem.with_correction(spec), [])
                groups.append(group)
            group[3].append((i, _Run(group[2], cfg)))
        except Exception as exc:
            out[i] = exc
    for _, _, prob, live in groups:
        while live:
            found = _search_blocks(prob, [run.next_block() for _, run in live])
            for (i, run), res in zip(live, found):
                try:
                    if isinstance(res, Exception):
                        run.failed(res)
                    else:
                        out[i] = run.advance(*res)
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
    """
    idx = np.nonzero(disc.step_gain > ONSET_GAIN * disc.config.tau)[0]
    if idx.size == 0:
        return None
    return float(disc.times[int(idx[0]) + 1])


def _runs(flags: NDArray[np.bool_]) -> list[tuple[int, int]]:
    """Index ranges [a, b] of the runs of True in ``flags``."""
    edges = np.diff(np.r_[0, flags.astype(np.int8), 0])
    starts, stops = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)
    return list(zip(starts.tolist(), (stops - 1).tolist()))


def jump_flags(disc: DiscreteTrajectory) -> NDArray[np.bool_]:
    """Per node, whether the step into it dissipates far more than the
    median step; the first node, which no step leads into, is never flagged."""
    d = disc.step_diss
    med = float(np.median(d)) if d.size else 0.0
    return np.r_[False, d > max(JUMP_THRESH * med, JUMP_FLOOR)]


def detect_jumps(disc: DiscreteTrajectory) -> list[tuple[int, int]]:
    """Index ranges [a, b] of step runs whose dissipation dwarfs the median.

    Consecutive flagged steps merge into one discontinuity.
    """
    return _runs(jump_flags(disc)[1:])


def jump_records(
    problem: RisProblem, times: NDArray, states: Sequence[State], flags
) -> tuple[JumpRecord, ...]:
    """One record per run of flagged nodes (``jump_flags``; the first
    node's flag is ignored): the states before and after the run and,
    inside it, the state reached by the step of largest dissipation."""
    Z = np.array([s.z for s in states])
    d = problem.dissipation(Z[:-1], Z[1:])  # d[a]: the step into node a + 1
    records = []
    for a, b in _runs(np.asarray(flags[1:], dtype=bool)):
        k = a + int(np.argmax(d[a : b + 1]))
        records.append(
            JumpRecord(
                t=float(times[a + 1]),
                z_left=states[a].z,
                z_inner=states[k + 1].z,
                z_right=states[b + 1].z,
                t_end=float(times[b + 1]),
            )
        )
    return tuple(records)


def interpolate(disc: DiscreteTrajectory) -> Trajectory:
    """Left-continuous piecewise-constant interpolant with jump records."""
    return Trajectory(
        times=disc.times,
        states=disc.states,
        jump_records=jump_records(
            disc.problem, disc.times, disc.states, jump_flags(disc)
        ),
        meta={"scheme": disc.config.scheme, "tau": disc.config.tau},
    )


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
    probe_count: int = 257,
) -> ConvergenceReport:
    """Re-run the scheme over decreasing tau and compare interpolants."""
    taus = list(tau_list)
    if len(taus) < 3 or any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("need >= 3 strictly decreasing tau values")
    t0, t1 = cfg.t_span if cfg.t_span is not None else (0.0, problem.horizon)
    probes = np.linspace(t0, t1, probe_count)
    trajs = []
    jumps = []
    residuals = []
    from .verify import balance_residual  # local import: verify builds on scheme

    for disc in solve_lockstep([(problem, replace(cfg, tau=tau)) for tau in taus]):
        if isinstance(disc, Exception):
            raise disc
        traj = interpolate(disc)
        trajs.append(traj)
        jumps.append([rec.t for rec in traj.jump_records])
        residuals.append(balance_residual(disc))
    sups = []
    for a, b in zip(trajs, trajs[1:]):
        sups.append(
            max(
                float(np.linalg.norm(a.state_at(t).z - b.state_at(t).z))
                for t in probes
            )
        )
    # Cauchy proxy: the pairwise gaps shrink (1.05 slack for plateaus at 0)
    cauchy = all(s2 <= 1.05 * s1 + 2 * taus[i] for i, (s1, s2) in enumerate(zip(sups, sups[1:])))
    return ConvergenceReport(
        taus=taus,
        sup_differences=sups,
        jump_times=jumps,
        balance_residuals=residuals,
        cauchy=cauchy,
    )
