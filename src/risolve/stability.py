"""Stability diagnostics: residual stability, exponent checks.

The residual R(t, z) = I(t, z) - inf_{z'} ( I(t, z') + d(z, z') + delta(z, z') )
is nonnegative and vanishes exactly on the corrected stable set.  It reuses
the same global minimizer as the schemes, so certification semantics match;
a ``ResidualMemo`` holds the residuals of one problem for the stability
probes and for jump pricing.

``residual_rows`` prices many (t, z) at once through one
``global_min_rows`` call, which works through them in chunks of a fixed
point budget.  A memo's ``fill`` computes every residual it lacks of a
list in that one call, and ``seed_from`` takes the residuals of nodes a
scheme run stayed at from its step gains (``reduced.step_terms``).  A memo
keeps each residual's witness too, the step from z at t, which a viscous
chain walks along.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .core import RisProblem, is_finite
from .reduced import global_min_rows, step_terms

__all__ = [
    "residual_rows",
    "ResidualMemo",
    "use_memo",
    "correction_ratio_check",
    "exponent_check",
    "ExponentReport",
]

_CLAMP_TOL = 1e-9  # floating slop a negative residual may show before it raises


def residual_rows(problem: RisProblem, ts, Z) -> tuple[NDArray, NDArray, NDArray]:
    """R(ts[p], Z[p]) for every row: the (P,) residuals, the (P, n_z) best
    competitors found and their (P,) step values, from one
    ``global_min_rows`` call."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    Z = np.asarray(Z, dtype=float).reshape(len(ts), problem.n_z)
    i_here = problem.reduced_vec(ts, Z) if problem.inside(Z).all() else None
    if i_here is None or not np.isfinite(i_here).all():
        raise ValueError("residual undefined: I(t, z) is infinite")
    witness, y_value = global_min_rows(problem, ts, Z)
    residual = i_here - y_value
    low = residual < -_CLAMP_TOL
    if low.any():
        # a competitor beating z by more than floating slop would mean the
        # minimizer disagrees with itself; surface it
        raise RuntimeError(f"negative residual {residual[low][0]} beyond clamp tolerance")
    return np.maximum(residual, 0.0), witness, y_value


class ResidualMemo:
    """R(t, z) of one problem, each computed once.

    Keys are the exact time and the bytes of z; the residual and its
    witness are kept.  A memo lives for one command or one certificate,
    never longer.
    """

    def __init__(self, problem: RisProblem):
        self.problem = problem
        self._values: dict[tuple[float, bytes], tuple[float, NDArray]] = {}

    def fill(self, ts, Z) -> list[float]:
        """R(ts[p], Z[p]) for every row, in order; the rows not yet known
        are computed together by one ``residual_rows`` call."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        Z = np.asarray(Z, dtype=float).reshape(len(ts), self.problem.n_z)
        keys = [(t, z.tobytes()) for t, z in zip(ts.tolist(), Z)]
        todo: dict[tuple[float, bytes], int] = {}
        for i, key in enumerate(keys):
            if key not in self._values:
                todo.setdefault(key, i)
        if todo:
            rows = list(todo.values())
            residual, witness, _ = residual_rows(self.problem, ts[rows], Z[rows])
            self._values.update(zip(todo, zip(residual.tolist(), witness)))
        return [self._values[key][0] for key in keys]

    def witness(self, t: float, z) -> NDArray[np.float64]:
        """The best competitor R(t, z) found, computed once with it: where
        the step from z at t goes."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        self.fill([t], z[None])
        return self._values[(float(t), z.tobytes())][1]

    def seed_from(self, disc) -> None:
        """Take R(t_n, z_n) from a scheme run of this memo's problem
        wherever step n stayed put: row n of ``disc.Z`` has the bytes of row
        n - 1 (compared through an int64 view, so -0.0 differs from 0.0),
        so the step's gain (``step_terms``) is the same minimization, and
        z_n its witness.  Only a scheme run of this very problem is taken
        (a plain ``Trajectory`` has no ``problem``): the search chose each
        of its stayed nodes, and a stayed node of another trajectory, a
        hand-edited CSV say, need not be stable."""
        use_memo(self, disc.problem)
        Z = disc.Z
        bits = Z.view(np.int64)
        stayed = np.flatnonzero((bits[1:] == bits[:-1]).all(axis=1)) + 1
        gain = step_terms(disc.problem, disc.times, Z)[2].tolist()
        for n in stayed.tolist():
            self._values.setdefault(
                (float(disc.times[n]), Z[n].tobytes()),
                (gain[n - 1], Z[n]),
            )


def use_memo(memo: ResidualMemo | None, problem: RisProblem) -> ResidualMemo:
    """``memo`` when it prices ``problem``; for no memo, a new one."""
    if memo is None:
        return ResidualMemo(problem)
    if memo.problem is not problem:
        raise ValueError("residual memo belongs to another problem")
    return memo


@dataclass(frozen=True)
class RatioEntry:
    scale: float
    ratio: float
    skipped: bool = False


def correction_ratio_check(
    problem: RisProblem,
    z,
    direction,
    scales: Sequence[float],
) -> tuple[list[RatioEntry], bool]:
    """Probe delta/d along a spatial ray at shrinking scales.

    PASS requires the ratio sequence to decrease with the final entry below
    0.1 of the initial one — a numerical stand-in for delta being a
    higher-order perturbation of d.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    direction = direction / np.linalg.norm(direction)
    rows: list[RatioEntry] = []
    for s in scales:
        zp = z + s * direction
        d = float(problem.dissipation(z, zp))
        if not is_finite(d) or d == 0.0:
            rows.append(RatioEntry(scale=s, ratio=float("nan"), skipped=True))
            continue
        rows.append(RatioEntry(scale=s, ratio=float(problem.correction(z, zp, d)) / d))
    kept = [r.ratio for r in rows if not r.skipped]
    ok = (
        len(kept) >= 2
        and all(b < a + 1e-15 for a, b in zip(kept, kept[1:]))
        and kept[-1] < 0.1 * kept[0] + 1e-15
    )
    return rows, ok


@dataclass(frozen=True)
class ExponentReport:
    theta: Fraction
    theta_in_range: bool
    r_gt_d: bool
    interpolation_ok: bool  # (1 - theta) q > 1
    compatibility_below: bool  # r > q d / (q + d)
    gamma_threshold: Fraction | None  # gamma must exceed this when defined
    gamma_ok: bool


def exponent_check(d: int, r, q, gamma) -> ExponentReport:
    """Compatibility conditions for the power-type damage correction.

    Exact rational arithmetic throughout: theta solves
    1/q = theta (1/r - 1/d) + 1 - theta, and gamma must satisfy
    gamma (1/q - (1 - 1/q)(d - r)/(d r + r - d)) > 1.
    """
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    r, q, gamma = Fraction(r), Fraction(q), Fraction(gamma)
    if r <= 1 or q <= 1 or gamma <= 1:
        raise ValueError("r, q, gamma must exceed 1")
    dd = Fraction(d)
    denom = Fraction(1, r) - Fraction(1, dd) - 1
    theta = (Fraction(1, q) - 1) / denom
    theta_in_range = 0 < theta < 1
    r_gt_d = r > dd
    interpolation_ok = theta_in_range and (1 - theta) * q > 1
    compatibility_below = r > q * dd / (q + dd)
    bracket = Fraction(1, q) - (1 - Fraction(1, q)) * (dd - r) / (dd * r + r - dd)
    gamma_threshold = 1 / bracket if bracket > 0 else None
    gamma_ok = gamma_threshold is not None and gamma > gamma_threshold
    return ExponentReport(
        theta=theta,
        theta_in_range=theta_in_range,
        r_gt_d=r_gt_d,
        interpolation_ok=interpolation_ok,
        compatibility_below=compatibility_below,
        gamma_threshold=gamma_threshold,
        gamma_ok=gamma_ok,
    )
