"""Acceptance gate: closed-form, oracle, and invariant reproduction at desk scale.

Every expected number here is recomputed in-test from an independent route
(closed forms, exhaustive grid scans, finite differences) rather than taken
from the production code paths under test.
"""

import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from risolve import (
    QuadraticMu,
    SchemeConfig,
    TrivialH,
    correction_ratio_check,
    exponent_check,
    gamma_limit_study,
    interpolate,
    jump_cost,
    oracle_grid_min,
    plasticity_stress_check,
    reduced_value,
    refine_study,
    residual_stability,
    solve_incremental,
    ve_equals_e,
)
from risolve.cli import load_config
from risolve.core import is_finite
from risolve.models import (
    Damage1dSpec,
    Delamination0dSpec,
    Plasticity0dSpec,
    Toy1dSpec,
    make_damage1d,
    make_delamination0d,
    make_plasticity0d,
    make_toy1d,
)
from risolve.scheme import jump_onset

from conftest import step_min

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# 1. convex toy reproduces the closed-form threshold response


class TestConvexClosedForm:
    @pytest.mark.parametrize("mu", [0.0, 1.0, 10.0])
    def test_play_operator(self, mu):
        # a=1, kappa=1, ell=2t: the exact response is z(t) = max(2t - 1, 0)
        tau = 1e-3
        start = time.monotonic()
        prob = make_toy1d(Toy1dSpec(well="convex", ell=(0.0, 2.0)))
        corr = QuadraticMu(mu=mu) if mu > 0 else None
        cfg = SchemeConfig(scheme="VE", tau=tau, correction=corr, initial_z=(0.0,))
        disc = solve_incremental(prob.with_correction(corr), cfg)
        zs = disc.Z[:, 0]
        exact = np.maximum(2 * disc.times - 1.0, 0.0)
        elapsed = time.monotonic() - start
        assert np.max(np.abs(zs - exact)) <= 5 * tau
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. perfect plasticity: return mapping, coincidence, yield admissibility


class TestPlasticityReturnMap:
    def test_full_criterion(self):
        tau = 1e-3
        start = time.monotonic()
        corr = TrivialH(h=lambda r: r**4)
        prob = make_plasticity0d(Plasticity0dSpec(correction=corr))
        cfg = SchemeConfig(scheme="VE", tau=tau, correction=corr, initial_z=(0.0,))
        disc = solve_incremental(prob, cfg)
        zs = disc.Z[:, 0]
        exact = np.maximum(disc.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * tau

        traj = interpolate(disc)
        rep = ve_equals_e(prob, traj)
        assert rep.equal

        stress = plasticity_stress_check(prob, traj)
        assert stress.passed
        assert stress.max_abs_stress <= 1.0 + 1e-6
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. double-well hierarchy: jump onsets ordered between the two
#    stability-loss thresholds, both recomputed by independent scans


def _doublewell(mu):
    spec = Toy1dSpec(
        well="doublewell", ell=(0.0, 3.0), z_box=(-3.0, 3.0),
        correction=QuadraticMu(mu=mu),
    )
    return make_toy1d(spec)


def _left_branch(t, kappa=1.0):
    """Quasistatic position in the left well under threshold-kappa sliding."""
    if 3 * t <= kappa:
        return -1.0
    # slides along W'(z) = 3t - kappa, W'(z) = 4z(z^2 - 1), z in (-1, -1/sqrt(3))
    return optimize.brentq(
        lambda z: 4 * z * (z * z - 1) - (3 * t - kappa),
        -1.0,
        -1.0 / np.sqrt(3.0) + 1e-12,
    )


def _loses_global_stability(t):
    zb = _left_branch(t)
    zs = np.linspace(-3.0, 3.0, 4001)
    I = (zs**2 - 1.0) ** 2 - 3 * t * zs
    Ib = (zb**2 - 1.0) ** 2 - 3 * t * zb
    return Ib > np.min(I + np.abs(zs - zb)) + 1e-10


class TestDoubleWellHierarchy:
    def test_onset_ordering(self):
        tau = 1e-3
        start = time.monotonic()
        # threshold of global-stability loss, by t-bisection over the scan
        lo, hi = 0.1, 0.9
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _loses_global_stability(mid):
                hi = mid
            else:
                lo = mid
        t_E = 0.5 * (lo + hi)
        # threshold of local-stability loss: the left branch ceases to exist
        # when 3t - kappa exceeds the barrier slope max of W'
        zs = np.linspace(-1.0, 0.0, 4001)
        t_BV = (1.0 + np.max(4 * zs * (zs**2 - 1.0))) / 3.0
        assert 0.33 < t_E < 0.34
        assert 0.84 < t_BV < 0.85

        onsets = {}
        for mu in (0.01, 1.0, 100.0):
            prob = _doublewell(mu)
            cfg = SchemeConfig(
                scheme="VE", tau=tau, correction=QuadraticMu(mu=mu),
                initial_z=(-1.0,),
            )
            onsets[mu] = jump_onset(solve_incremental(prob, cfg))
        assert t_E - 2 * tau <= onsets[0.01] <= onsets[1.0] <= onsets[100.0] <= t_BV + 2 * tau
        # the weak and strong corrections approach the two thresholds
        assert abs(onsets[0.01] - t_E) < 0.01
        assert abs(onsets[100.0] - t_BV) < 0.05
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 4. discrete energy-dissipation balance is O(tau) for every model


_BALANCE_CASES = [
    (
        "toy-doublewell",
        lambda: make_toy1d(
            Toy1dSpec(well="doublewell", ell=(0.0, 3.0), z_box=(-3.0, 3.0),
                      correction=QuadraticMu(mu=1.0))
        ),
        QuadraticMu(mu=1.0),
        (-1.0,),
    ),
    (
        "plasticity",
        lambda: make_plasticity0d(
            Plasticity0dSpec(correction=TrivialH(h=lambda r: r**4))
        ),
        TrivialH(h=lambda r: r**4),
        (0.0,),
    ),
    ("damage", lambda: make_damage1d(Damage1dSpec()), Damage1dSpec().correction, (1.0, 1.0)),
    (
        "delamination",
        lambda: make_delamination0d(Delamination0dSpec()),
        Delamination0dSpec().correction,
        (1.0,),
    ),
]


class TestBalanceRefinement:
    @pytest.mark.parametrize("name,factory,corr,z0", _BALANCE_CASES,
                             ids=[c[0] for c in _BALANCE_CASES])
    def test_slope(self, name, factory, corr, z0):
        taus = [4e-3, 2e-3, 1e-3, 5e-4]
        prob = factory()
        cfg = SchemeConfig(scheme="VE", tau=1e-2, correction=corr, initial_z=z0)
        rep = refine_study(prob, cfg, taus)
        res = np.asarray(rep.balance_residuals, dtype=float)
        assert res[-1] <= 1e-2
        if np.max(res) <= 1e-8:
            return  # balance already exact to rounding at every tau
        slope = np.polyfit(np.log(taus), np.log(np.maximum(res, 1e-16)), 1)[0]
        assert slope >= 0.9, (name, res.tolist(), slope)


# ---------------------------------------------------------------------------
# 5. every node of every shipped config is stable under its own correction


class TestShippedConfigStability:
    @pytest.mark.parametrize(
        "config", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem
    )
    def test_nodewise_stability(self, config):
        run = load_config(config)
        disc = solve_incremental(run.problem, run.scheme)
        worst = 0.0
        for t, z in zip(disc.times, disc.Z):
            rep = residual_stability(run.problem, float(t), z)
            worst = max(worst, rep.residual)
        assert worst <= 1e-6 + 1e-8, worst

    @pytest.mark.parametrize(
        "config", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem
    )
    def test_staying_state_has_zero_residual(self, config):
        # the stay-put competitor and I(t, z) come from the same maps, so a
        # node that keeps its state has a residual of exactly 0
        run = load_config(config)
        scheme = replace(run.scheme, t_span=(0.0, 20 * run.scheme.tau))
        disc = solve_incremental(run.problem, scheme)
        n = next(
            n for n in range(1, len(disc.times))
            if disc.Z[n].tobytes() == disc.Z[n - 1].tobytes()
        )
        t, z = float(disc.times[n]), disc.Z[n]
        assert residual_stability(disc.problem, t, z).residual == 0.0


# ---------------------------------------------------------------------------
# 6. jump conditions on the double-well run


class TestJumpConditions:
    def test_energy_drop_matches_cost(self):
        tau = 1e-3
        prob = _doublewell(1.0)
        cfg = SchemeConfig(
            scheme="VE", tau=tau, correction=QuadraticMu(mu=1.0), initial_z=(-1.0,)
        )
        traj = interpolate(solve_incremental(prob, cfg))
        assert len(traj.jump_records) >= 1
        for rec in traj.jump_records:
            bound = jump_cost(prob, rec.t, rec.z_left, rec.z_right)
            drop = reduced_value(prob, rec.t, rec.z_left) - reduced_value(
                prob, rec.t, rec.z_right
            )
            assert abs(drop - bound.upper) <= max(1e-3, 10 * bound.gap)
            assert bound.gap <= 1e-6  # n_z = 1: the grid search certifies


# ---------------------------------------------------------------------------
# 7. every incremental damage step agrees with an exhaustive grid oracle


class TestDamageOracleEquivalence:
    def test_stepwise_oracle_match(self):
        start = time.monotonic()
        spec = Damage1dSpec()
        prob = make_damage1d(spec)
        tau = 0.05
        cfg = SchemeConfig(
            scheme="VE", tau=tau, correction=spec.correction, initial_z=(1.0, 1.0)
        )
        disc = solve_incremental(prob, cfg)
        cell = 1e-3

        for n in range(1, len(disc.times)):
            t = float(disc.times[n])
            z_prev = disc.Z[n - 1]

            def objective(pts):
                d = prob.dissipation(z_prev, pts)
                vals = prob.reduced_vec(t, pts) + d + 1e-4 * d**4
                return vals

            grid = oracle_grid_min(
                objective, list(prob.z_box), resolution=1001, vectorized=True
            )
            x, value = step_min(prob, t, z_prev)
            assert np.all(np.abs(x - grid.argmin) <= 2 * cell + 1e-12), (n, x, grid.argmin)
            assert abs(value - grid.value) <= 1e-6, (n, value, grid.value)
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 8. adhesive-to-brittle penalty limit


class TestPenaltyLimit:
    def test_k_sweep(self):
        start = time.monotonic()
        spec = Delamination0dSpec()
        cfg = SchemeConfig(
            scheme="VE", tau=5e-3, correction=spec.correction, initial_z=(1.0,)
        )
        rep = gamma_limit_study(spec, [4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0], cfg)
        v = rep.constraint_violation
        for a, b in zip(v, v[1:]):
            assert b <= 1.1 * a + 1e-12  # nonincreasing within 10% slack
        assert v[-1] <= 1e-3
        assert rep.sup_energy_gap[-1] <= 5e-2
        assert rep.sup_state_distance[-1] <= 5e-2
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 9. exponent compatibility in exact arithmetic


class TestExponentCriterion:
    def test_reference_threshold(self):
        rep = exponent_check(3, 2, 2, 3)
        assert rep.gamma_threshold == Fraction(5, 2)
        assert rep.gamma_ok
        assert not exponent_check(3, 2, 2, Fraction(5, 2)).gamma_ok
        assert exponent_check(3, 2, 2, Fraction(5, 2) + Fraction(1, 10**12)).gamma_ok

    def test_compatibility_verdicts(self):
        # r > q d / (q + d): true for (3, 2, 2), false at the boundary value
        assert exponent_check(3, 2, 2, 3).compatibility_below
        assert not exponent_check(3, Fraction(6, 5), 2, 3).compatibility_below
        assert exponent_check(2, 2, 2, 3).compatibility_below  # 2 > 1


# ---------------------------------------------------------------------------
# 10. core invariant suite over all four models with fixed seeds


def _shipped_models():
    return [
        make_toy1d(
            Toy1dSpec(well="doublewell", ell=(0.0, 3.0), z_box=(-3.0, 3.0),
                      correction=QuadraticMu(mu=1.0))
        ),
        make_plasticity0d(Plasticity0dSpec(correction=TrivialH(h=lambda r: r**4))),
        make_damage1d(Damage1dSpec()),
        make_delamination0d(Delamination0dSpec()),
    ]


class TestCoreInvariantSuite:
    def test_all_models(self):
        rng = np.random.default_rng(20240817)
        for prob in _shipped_models():
            lo = np.array([b[0] for b in prob.z_box])
            hi = np.array([b[1] for b in prob.z_box])
            pts = rng.uniform(lo, hi, size=(90, prob.n_z))

            # d(z, z) = 0 and the triangle inequality
            for z in pts[:10]:
                assert prob.dissipation(z, z) == 0.0
            for a, b, c in zip(pts[:30], pts[30:60], pts[60:]):
                l1, l2 = prob.dissipation(a, b), prob.dissipation(b, c)
                if is_finite(l1) and is_finite(l2):
                    assert prob.dissipation(a, c) <= l1 + l2 + 1e-12

            # power agrees with central finite differences at equilibrium
            dt = 1e-6
            for z in pts[:5]:
                t = 0.5 * prob.horizon
                if not is_finite(reduced_value(prob, t, z)):
                    continue
                u = prob.solve_u(t, z)
                p = prob.power(t, u, z)
                fd = (prob.energy(t + dt, u, z) - prob.energy(t - dt, u, z)) / (2 * dt)
                assert abs(p - fd) <= 1e-5 * (1.0 + abs(p))

            # the correction is a higher-order perturbation of d along an
            # admissible ray
            z0 = 0.9 * np.ones(prob.n_z) if prob.unidirectional else np.zeros(prob.n_z)
            dirn = -np.ones(prob.n_z) if prob.unidirectional else np.ones(prob.n_z)
            scales = [2.0 ** (-k) for k in range(1, 9)]
            _, ok = correction_ratio_check(prob, z0, dirn, scales)
            assert ok, prob.name
