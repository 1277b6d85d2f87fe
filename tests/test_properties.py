"""Structural invariants sampled across all shipped models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risolve import (
    QuadraticMu,
    TrivialH,
    correction_ratio_check,
    reduced_value,
)
from risolve.core import INF, is_finite
from risolve.models import Plasticity0dSpec, Toy1dSpec, make_plasticity0d, make_toy1d
from risolve.reduced import NEAR_OPTIMAL_BAND, step_objective

from conftest import residual_at, step_min
from grid_oracle import oracle_grid_min


def _sample_z(prob, rng, n):
    lo = np.array([b[0] for b in prob.z_box])
    hi = np.array([b[1] for b in prob.z_box])
    return rng.uniform(lo, hi, size=(n, prob.n_z))


class TestDissipationAxioms:
    def test_vanishes_on_diagonal(self, all_models, rng):
        for prob in all_models:
            for z in _sample_z(prob, rng, 20):
                assert prob.dissipation(z, z) == 0.0

    def test_nonnegative(self, all_models, rng):
        for prob in all_models:
            pts = _sample_z(prob, rng, 40)
            for a, b in zip(pts[:20], pts[20:]):
                assert prob.dissipation(a, b) >= 0.0

    def test_triangle_inequality(self, all_models, rng):
        # whenever both legs are admissible the direct move is admissible
        # too and never more expensive
        for prob in all_models:
            pts = _sample_z(prob, rng, 300)
            for a, b, c in zip(pts[:100], pts[100:200], pts[200:]):
                leg1 = prob.dissipation(a, b)
                leg2 = prob.dissipation(b, c)
                if not (is_finite(leg1) and is_finite(leg2)):
                    continue
                direct = prob.dissipation(a, c)
                assert direct <= leg1 + leg2 + 1e-12

    def test_forbidden_directions_are_one_sided(self, damage, delamination):
        rng = np.random.default_rng(7)
        for prob in (damage, delamination):
            for z in _sample_z(prob, rng, 10):
                step = 0.1 * np.ones(prob.n_z)
                up = np.minimum(z + step, 1.0)
                if np.any(up > z + 1e-9):
                    assert prob.dissipation(z, up) == INF
                down = np.maximum(z - step, 0.0)
                assert is_finite(prob.dissipation(z, down))


class TestPowerConsistency:
    def test_power_matches_finite_difference(self, all_models, rng):
        # the power map must be the explicit time derivative of the energy
        # at frozen (u, z); probe with central differences at equilibrium u
        dt = 1e-6
        for prob in all_models:
            for _ in range(5):
                t = float(rng.uniform(0.1, 0.9)) * prob.horizon
                z = _sample_z(prob, rng, 1)[0]
                if not is_finite(reduced_value(prob, t, z)):
                    continue
                u = prob.solve_u(t, z)
                p = prob.power(t, u, z)
                fd = (prob.energy(t + dt, u, z) - prob.energy(t - dt, u, z)) / (2 * dt)
                assert p == pytest.approx(fd, abs=1e-5 * (1.0 + abs(p)))


class TestCorrectionAxioms:
    def test_vanishes_on_diagonal_and_nonnegative(self, all_models, rng):
        for prob in all_models:
            if prob.correction is None:
                continue
            for z in _sample_z(prob, rng, 10):
                assert prob.correction(z, z) == 0.0
                down = np.maximum(z - 0.05, np.array([b[0] for b in prob.z_box]))
                c = prob.correction(z, down)
                assert c >= 0.0 or c == INF

    def test_shipped_corrections_are_higher_order(self, damage, delamination):
        # each shipped correction must vanish faster than the dissipation
        # along an admissible (decreasing) ray
        scales = [2.0 ** (-k) for k in range(1, 9)]
        for prob, z, dirn in (
            (damage, [0.9, 0.9], [-1.0, -1.0]),
            (delamination, [0.9], [-1.0]),
        ):
            rows, ok = correction_ratio_check(prob, z, dirn, scales)
            assert ok, [r.ratio for r in rows]


class TestStepInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        z0=st.floats(min_value=-2.5, max_value=2.5),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_step_never_worse_than_staying(self, z0, t):
        prob = make_toy1d(
            Toy1dSpec(well="doublewell", ell=(0.0, 3.0), z_box=(-3.0, 3.0),
                      correction=QuadraticMu(mu=1.0))
        )
        _, value = step_min(prob, t, [z0])
        assert value <= reduced_value(prob, t, [z0]) + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        z0=st.floats(min_value=-2.5, max_value=2.5),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_residual_nonnegative_and_witness_feasible(self, z0, t):
        prob = make_toy1d(
            Toy1dSpec(well="doublewell", ell=(0.0, 3.0), z_box=(-3.0, 3.0))
        )
        residual, witness = residual_at(prob, t, [z0])
        assert residual >= 0.0
        assert is_finite(reduced_value(prob, t, witness))

    def test_residual_zero_iff_step_stays(self, all_models, rng):
        # the scheme's one-step minimizer and the stability residual must
        # agree on which states are worth leaving
        for prob in all_models:
            for z in _sample_z(prob, rng, 4):
                t = 0.5 * prob.horizon
                if not is_finite(reduced_value(prob, t, z)):
                    continue
                residual, _ = residual_at(prob, t, z)
                x, _ = step_min(prob, t, z)
                moved = np.linalg.norm(x - z) > 1e-6
                if residual > 1e-8:
                    assert moved


_corrections = st.one_of(
    st.none(),
    st.builds(QuadraticMu, mu=st.floats(0.1, 10.0),
              dist=st.sampled_from(["euclidean", "dissipation"])),
    st.floats(0.1, 10.0).map(lambda c: TrivialH(h=lambda r: c * r * r)),
)


class TestStepSearchAgainstOracle:
    """The step search of random convex 1-d rows against a 20,001-point
    grid: never more than the grid's error below it, never more than the
    tie band above it, and never above staying put."""

    @settings(max_examples=60, deadline=None)
    @given(
        plastic=st.booleans(),
        stiffness=st.floats(0.1, 10.0),
        yield_stress=st.floats(0.1, 5.0),
        load=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        t_frac=st.floats(0.0, 1.0),
        z_frac=st.floats(0.0, 1.0),
        correction=_corrections,
    )
    def test_within_grid_error_of_oracle(self, plastic, stiffness, yield_stress, load,
                                         t_frac, z_frac, correction):
        if plastic:
            prob = make_plasticity0d(Plasticity0dSpec(
                C=stiffness, sigma_y=yield_stress, eps=load, correction=correction))
        else:
            prob = make_toy1d(Toy1dSpec(
                a=stiffness, kappa=yield_stress, ell=load, correction=correction))
        (lo, hi), = prob.z_box
        t, z_prev = t_frac * prob.horizon, np.array([lo + z_frac * (hi - lo)])
        f = step_objective(prob, t, z_prev)
        x, value = step_min(prob, t, z_prev)
        oracle = oracle_grid_min(f, prob.z_box, 20_001, vectorized=True)
        # f is convex: its least value lies within a grid spacing of the
        # grid's best point, and above it by no more than its neighbours' rise
        near = np.clip(oracle.argmin + [[-oracle.tolerance], [oracle.tolerance]], lo, hi)
        grid_error = float(np.max(f(near) - oracle.value))
        assert oracle.value - grid_error - 1e-12 <= value
        assert value <= oracle.value + NEAR_OPTIMAL_BAND
        assert value <= f(z_prev[None])[0]
        assert value == f(x[None])[0]
