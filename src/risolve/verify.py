"""Certificates: does a trajectory satisfy the corrected solution concept?

Checks the three defining conditions numerically — minimality of u,
corrected stability off jumps, and the energy-dissipation balance with the
augmented variation — plus per-jump cost identities, the plain (uncorrected)
variant, coincidence detection, the yield-surface check for the plasticity
model, and the adhesive-to-brittle penalty-limit study.

Every balance, the scheme's (``balance_residual``) and the certificate's,
is |E(T) + Var - E(0) - W| with its own variation Var, priced by one
function: W is the exact load work of the piecewise-constant z, telescoped
from the reduced energy, so ``power`` plays no part in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import models
from .core import INF, RisProblem, Trajectory, is_finite, sup_distance, unique
from .jump import DP_RESOLUTION, CostBound, jump_cost
from .reduced import reduced_value
from .scheme import (
    DiscreteTrajectory,
    SchemeConfig,
    detect_jumps,
    interpolate,
    solve_incremental,
)
from .stability import ResidualMemo, residual_rows, use_memo

__all__ = [
    "TolConfig",
    "Certificate",
    "balance_residual",
    "verify_VE",
    "verify_E",
    "ve_equals_e",
    "VeEqualsEReport",
    "plasticity_stress_check",
    "gamma_limit_study",
    "GammaLimitReport",
]

_STRESS_TOL = 1e-6  # slack of plasticity_stress_check's yield surface
_STRESS_PROBES = 512  # probe times of plasticity_stress_check


@dataclass(frozen=True)
class TolConfig:
    minimality_tol: float = 1e-8
    stability_tol: float = 1e-6
    balance_tol: float = 5e-2
    jump_tol: float = 5e-2
    probe_count: int = 512

    def __post_init__(self):
        for key in ("minimality_tol", "stability_tol", "balance_tol", "jump_tol"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ValueError(f"{key!r} must be finite and nonnegative, got {value}")
        if self.probe_count < 0:
            raise ValueError(f"'probe_count' must be >= 0, got {self.probe_count}")


@dataclass(frozen=True)
class JumpCheck:
    t: float
    # energy-drop-vs-cost residuals: left->inner, inner->right, left->right
    left_inner: float
    inner_right: float
    left_right: float
    cost_gap: float

    @property
    def worst(self) -> float:
        return max(abs(self.left_inner), abs(self.inner_right), abs(self.left_right))


@dataclass(frozen=True)
class Certificate:
    minimality_residual: float
    stability_residual: float
    balance_residual: float
    jump_checks: tuple[JumpCheck, ...]
    verdict: dict
    tolerances: TolConfig

    @property
    def passed(self) -> bool:
        return all(self.verdict.values())


def _probe_times(traj: Trajectory, count: int) -> NDArray:
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    return unique(np.concatenate([np.linspace(t0, t1, count), traj.times]))


def _in_jump_window(traj: Trajectory, ts: NDArray) -> NDArray[np.bool_]:
    """Per time of ``ts``, whether it lies in the window of a jump record,
    from the node before its first jump node t to its t_end, shifted by
    1e-12, where stability is not due."""
    first = np.searchsorted(traj.times, [rec.t for rec in traj.jump_records])
    lo = traj.times[np.maximum(first - 1, 0)] - 1e-12
    hi = np.array([rec.t_end - 1e-12 for rec in traj.jump_records])
    ts = np.asarray(ts, dtype=float)[:, None]
    return ((lo < ts) & (ts < hi)).any(axis=1)


def _balance(
    problem: RisProblem,
    traj: Trajectory | DiscreteTrajectory,
    var: float,
    I_node: NDArray | None = None,
) -> float:
    """|E(T) + var - E(0) - W| for the variation ``var`` of ``traj``.

    W is the exact load work of the piecewise-constant z, telescoped over
    the steps: W = sum_n [I(t_n, z_{n-1}) - I(t_{n-1}, z_{n-1})], from one
    ``reduced_vec`` call at the nodes and one at each step's end time.  A
    caller that has priced the nodes, every one in the box, passes their
    I(t_n, z_n) as ``I_node``.  A node off the box, or an infinite energy,
    makes the balance +infinity.
    """
    t, Z = traj.times, traj.Z
    if I_node is None:
        if not problem.inside(Z).all():
            return INF
        I_node = problem.reduced_vec(t, Z)  # I(t_n, z_n)
    I_step = problem.reduced_vec(t[1:], Z[:-1])  # I(t_n, z_{n-1})
    if not (np.isfinite(I_node).all() and np.isfinite(I_step).all()):
        return INF
    work = 0.0
    # left to right from 0.0: from Python 3.12, sum() of floats compensates
    for term in (I_step - I_node[:-1]).tolist():
        work += term
    return abs(float(I_node[-1]) + var - float(I_node[0]) - work)


def balance_residual(disc: DiscreteTrajectory) -> float:
    """|E(T) + Var_{d,c}(0, T) - E(0) - W| for a scheme run, W the exact
    load work (see ``_balance``).

    The variation is assembled from the run's own step data: per-step d and
    delta everywhere, plus the recorded step gains over detected jump
    windows, each paid at its own node time.  This is the discrete jump
    cost (links plus per-point residuals along the actual chain); re-pricing
    the chain at a single jump time would add time-alignment noise instead.
    """
    var = float(np.sum(disc.step_diss) + np.sum(disc.step_corr))
    for a, b in detect_jumps(disc):
        var += float(np.sum(disc.step_gain[a : b + 1]))
    return _balance(disc.problem, disc, var)


def _jump_checks(
    problem: RisProblem,
    traj: Trajectory,
    tol: TolConfig,
    memo: ResidualMemo,
) -> list[tuple[float, JumpCheck]]:
    """Per jump record, its Delta_c = c - d >= 0 (+infinity for an infinite
    c) from the unrefined bound of (z_left, z_right), and its cost checks.

    Each distinct pair is priced once, from ``memo``; a cost gap above
    ``jump_tol`` is refined only where refining changes the bound, the DP
    chain search of n_z = 1."""
    refine = problem.n_z == 1
    bounds: dict[tuple, CostBound] = {}

    def price(t, za, zb, resolution=DP_RESOLUTION) -> CostBound:
        key = (t, za.tobytes(), zb.tobytes(), resolution)
        if key not in bounds:
            bounds[key] = jump_cost(problem, t, za, zb, memo, resolution)
        return bounds[key]

    out = []
    for rec in traj.jump_records:
        t = rec.t
        z_left, z_inner, z_right = (
            np.atleast_1d(np.asarray(z, float)) for z in (rec.z_left, rec.z_inner, rec.z_right)
        )
        triples, gaps, uppers = [], [], []
        for za, zb in ((z_left, z_inner), (z_inner, z_right), (z_left, z_right)):
            if np.allclose(za, zb, atol=1e-12):
                triples.append(0.0)
                gaps.append(0.0)
                uppers.append(0.0)
                continue
            bound = price(t, za, zb)
            uppers.append(bound.upper)
            if bound.gap > tol.jump_tol and refine:
                # refine the chain search before accepting a verdict
                bound = price(t, za, zb, 2 * DP_RESOLUTION - 1)
            drop = reduced_value(problem, t, za) - reduced_value(problem, t, zb)
            triples.append(drop - bound.upper)
            gaps.append(bound.gap)
        d = float(problem.dissipation(z_left, z_right))
        delta_c = max(uppers[2] - d, 0.0) if is_finite(uppers[2]) else INF
        check = JumpCheck(
            t=t,
            left_inner=triples[0],
            inner_right=triples[1],
            left_right=triples[2],
            cost_gap=max(gaps),
        )
        out.append((delta_c, check))
    return out


def _certify(
    problem: RisProblem,
    traj: Trajectory,
    tol: TolConfig,
    augmented: bool,
    memo: ResidualMemo | None = None,
) -> Certificate:
    memo = use_memo(memo, problem)
    probes = _probe_times(traj, tol.probe_count)
    # each stored u must attain the reduced energy at its own node time, a
    # node of finite I(t, z); off-node probes would penalize the
    # piecewise-constant interpolant for load movement instead
    inside = problem.inside(traj.Z)
    t, U, Z = traj.times[inside], traj.U[inside], traj.Z[inside]
    I = problem.reduced_vec(t, Z)
    due = np.isfinite(I)
    minim = float(np.abs(problem.energy(t[due], U[due], Z[due]) - I[due]).max(initial=0.0))
    ts = probes[~_in_jump_window(traj, probes)]
    stab = max([0.0, *memo.fill(ts, traj.Z[traj.nodes_at(ts)])])
    # the variation: d over the node steps, plus Delta_c at each jump when
    # augmented (Var_{d,c})
    var = sum(problem.dissipation(traj.Z[:-1], traj.Z[1:]).tolist())
    # one pass prices each jump for the variation and the jump checks, from
    # the residuals of the stability probes; each Delta_c is added on its own
    priced = _jump_checks(problem, traj, tol, memo) if augmented else []
    for delta_c, _ in priced:
        var += delta_c
    # I prices every node when every node lies in the box
    balance = _balance(problem, traj, var, I if inside.all() else None)
    jumps = tuple(check for _, check in priced)
    verdict = {
        "minimality": minim <= tol.minimality_tol,
        "stability": stab <= tol.stability_tol,
        "balance": balance <= tol.balance_tol,
        "jumps": all(j.worst <= tol.jump_tol for j in jumps),
    }
    return Certificate(
        minimality_residual=minim,
        stability_residual=stab,
        balance_residual=balance,
        jump_checks=jumps,
        verdict=verdict,
        tolerances=tol,
    )


def verify_VE(
    problem: RisProblem,
    traj: Trajectory,
    tol: TolConfig | None = None,
    memo: ResidualMemo | None = None,
) -> Certificate:
    """Certificate against the corrected solution concept.

    ``problem`` must carry the same correction the trajectory was produced
    with; stability is checked off detected jumps, the balance uses the
    augmented variation.  ``memo`` holds residuals of ``problem`` already
    computed, e.g. for the trajectory CSV.
    """
    return _certify(problem, traj, tol or TolConfig(), augmented=True, memo=memo)


def verify_E(
    problem: RisProblem,
    traj: Trajectory,
    tol: TolConfig | None = None,
    memo: ResidualMemo | None = None,
) -> Certificate:
    """Certificate with the correction removed and the plain d-variation.

    A problem without a correction is certified as it is, so ``memo`` (its
    residuals) can serve it; a corrected problem is certified through an
    uncorrected copy, which no outside memo prices.
    """
    plain = problem if problem.correction_spec is None else problem.with_correction(None)
    return _certify(plain, traj, tol or TolConfig(), augmented=False, memo=memo)


@dataclass(frozen=True)
class VeEqualsEReport:
    equal: bool
    global_stability_residual: float
    max_delta_c: float
    jump_residuals: tuple[float, ...]  # drop - d per jump, uncorrected


def ve_equals_e(
    problem: RisProblem,
    traj: Trajectory,
    tol: TolConfig | None = None,
) -> VeEqualsEReport:
    """Coincidence test: corrected and plain solutions agree exactly when
    uncorrected global stability holds everywhere and every jump is a
    sliding jump (cost equals dissipation)."""
    tol = tol or TolConfig()
    plain = problem.with_correction(None)
    probes = _probe_times(traj, tol.probe_count)
    ts = probes[~_in_jump_window(traj, probes)]
    residuals = ResidualMemo(plain).fill(ts, traj.Z[traj.nodes_at(ts)])
    stab = max([0.0, *residuals])
    max_dc = 0.0
    jr = []
    memo = ResidualMemo(problem)
    for rec in traj.jump_records:
        d = float(plain.dissipation(rec.z_left, rec.z_right))
        bound = jump_cost(problem, rec.t, rec.z_left, rec.z_right, memo)
        if is_finite(bound.upper) and is_finite(d):
            max_dc = max(max_dc, max(bound.upper - d, 0.0))
        drop = reduced_value(plain, rec.t, rec.z_left) - reduced_value(
            plain, rec.t, rec.z_right
        )
        jr.append(drop - d)
    equal = stab <= tol.stability_tol and max_dc <= tol.jump_tol
    return VeEqualsEReport(
        equal=equal,
        global_stability_residual=stab,
        max_delta_c=max_dc,
        jump_residuals=tuple(jr),
    )


@dataclass(frozen=True)
class StressCheckReport:
    passed: bool
    max_abs_stress: float
    yield_stress: float
    stability_agrees: bool


def plasticity_stress_check(
    problem: RisProblem,
    traj: Trajectory,
) -> StressCheckReport:
    """Yield-surface admissibility |sigma(t)| <= sigma_y + ``_STRESS_TOL``
    at ``_STRESS_PROBES`` probes.

    Also samples that admissibility and uncorrected stability agree, which
    is the finite-dimensional content of their equivalence.
    """
    sigma = problem.extras.get("sigma")
    sigma_y = problem.extras.get("sigma_y")
    if sigma is None or sigma_y is None:
        raise ValueError("problem does not expose a stress map")
    probes = _probe_times(traj, _STRESS_PROBES)
    Z = traj.Z[traj.nodes_at(probes)]
    stress = np.abs(sigma(probes, Z))
    worst = float(stress.max(initial=0.0))
    picked = np.arange(0, len(probes), max(1, len(probes) // 16))
    picked = picked[~_in_jump_window(traj, probes[picked])]
    residuals = ResidualMemo(problem.with_correction(None)).fill(probes[picked], Z[picked])
    agree = np.array_equal(np.array(residuals) <= 1e-6, stress[picked] <= sigma_y + 1e-5)
    return StressCheckReport(
        passed=worst <= sigma_y + _STRESS_TOL,
        max_abs_stress=worst,
        yield_stress=sigma_y,
        stability_agrees=agree,
    )


@dataclass(frozen=True)
class GammaLimitReport:
    k_values: list[float]
    constraint_violation: list[float]  # max_t z_k * [u_k]^2
    sup_state_distance: list[float]  # to the brittle run
    sup_energy_gap: list[float]  # sup_t |E_k - E_brittle|
    liminf_probe_ok: bool
    brittle_traj: Trajectory
    adhesive_trajs: list[Trajectory]


def gamma_limit_study(
    spec,
    k_list: Sequence[float],
    scheme_cfg: SchemeConfig,
    probe_count: int = 129,
) -> GammaLimitReport:
    """Solve the adhesive model for each penalty k and the brittle model,
    and report the convergence diagnostics of the penalty limit."""
    ks = list(k_list)
    if len(ks) < 4 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("need >= 4 increasing k values")
    brittle = models.make_delamination0d(spec, brittle=True)
    disc_b = solve_incremental(brittle, scheme_cfg)
    traj_b = interpolate(disc_b)
    probes = np.linspace(float(traj_b.times[0]), float(traj_b.times[-1]), probe_count)
    # the scheme's nodes lie in the box, where I is reduced_vec
    I_b = brittle.reduced_vec(probes, traj_b.Z[traj_b.nodes_at(probes)])

    violations, dists, egaps, trajs = [], [], [], []
    for k in ks:
        adh = models.make_delamination0d(spec, brittle=False, k=k)
        disc = solve_incremental(adh, scheme_cfg)
        traj = interpolate(disc)
        trajs.append(traj)
        Z = traj.Z[traj.nodes_at(probes)]
        gap = adh.extras["gap"](adh.solve_u(probes, Z))
        violations.append(float((Z[:, 0] * gap**2).max(initial=0.0)))
        dists.append(sup_distance(traj, traj_b, probes))
        egaps.append(float(np.abs(adh.reduced_vec(probes, Z) - I_b).max(initial=0.0)))

    # recovery-sequence probe: rescaling a brittle competitor by z_k/z must
    # asymptotically not beat the brittle residual from below
    liminf_ok = _liminf_probe(spec, ks, brittle)
    return GammaLimitReport(
        k_values=ks,
        constraint_violation=violations,
        sup_state_distance=dists,
        sup_energy_gap=egaps,
        liminf_probe_ok=liminf_ok,
        brittle_traj=traj_b,
        adhesive_trajs=trajs,
    )


def _liminf_probe(spec, ks: Sequence[float], brittle: RisProblem) -> bool:
    """Sample that the adhesive residual at the largest penalty dominates
    the brittle one."""
    t = 0.5 * brittle.horizon
    z = np.array([[1.0]])
    r_b = float(residual_rows(brittle, [t], z)[0][0])
    adh = models.make_delamination0d(spec, brittle=False, k=ks[-1])
    r_k = float(residual_rows(adh, [t], z)[0][0])
    return r_k >= r_b - max(0.05 * max(r_b, 1.0), 1e-6)
