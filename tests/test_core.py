"""Problem abstraction: states, corrections, model values of the maps."""

import math

import numpy as np
import pytest

from risolve import (
    PowerLq,
    QuadraticMu,
    RisProblem,
    State,
    Trajectory,
    TrivialH,
)
from risolve.core import INF, is_finite, median, unique
from risolve.models import Damage1dSpec, make_damage1d


def test_infinity_is_math_inf():
    assert INF == math.inf
    assert not is_finite(INF)
    assert is_finite(1e300)
    with pytest.raises(ValueError):
        is_finite(float("nan"))


def test_state_validation():
    s = State(u=[1.0], z=[0.5])
    assert s.z.shape == (1,)
    with pytest.raises(ValueError):
        State(u=[1.0], z=[float("nan")])
    with pytest.raises(ValueError):
        State(u=[float("inf")], z=[0.0])


class TestCorrectionSpecs:
    def test_trivial_h_requires_h0_zero(self):
        TrivialH(h=lambda r: r * r)
        with pytest.raises(ValueError):
            TrivialH(h=lambda r: r + 1.0)

    def test_quadratic_mu_validation(self):
        QuadraticMu(mu=0.0)
        with pytest.raises(ValueError):
            QuadraticMu(mu=-1.0)
        with pytest.raises(ValueError):
            QuadraticMu(mu=1.0, dist="manhattan")

    def test_power_lq_validation(self):
        PowerLq(q=2.0, gamma=3.0)
        with pytest.raises(ValueError):
            PowerLq(q=1.0, gamma=3.0)
        with pytest.raises(ValueError):
            PowerLq(q=2.0, gamma=1.0)


def _simple_problem(correction=None):
    prob = RisProblem(
        n_u=0,
        n_z=1,
        reduced_vec=lambda t, Z: 0.5 * Z[..., 0] ** 2,
        power=lambda t, u, z: 0.0,
        dissipation=lambda z, zp: np.abs(np.asarray(zp)[..., 0] - np.asarray(z)[..., 0]),
        z_box=((-10.0, 10.0),),
    )
    return prob.with_correction(correction)


class TestBuildCorrection:
    def test_none_is_zero(self):
        p = _simple_problem(None)
        assert p.correction(np.array([0.0]), np.array([5.0])) == 0.0

    def test_quadratic_euclidean(self):
        p = _simple_problem(QuadraticMu(mu=2.0))
        assert p.correction(np.array([0.0]), np.array([2.0])) == pytest.approx(4.0)

    def test_quadratic_mu_zero_is_zero(self):
        p = _simple_problem(QuadraticMu(mu=0.0))
        assert p.correction(np.array([0.0]), np.array([2.0])) == 0.0

    def test_quadratic_dissipation_distance(self):
        p = _simple_problem(QuadraticMu(mu=2.0, dist="dissipation"))
        # d = |Delta| here, so both variants agree
        assert p.correction(np.array([1.0]), np.array([3.0])) == pytest.approx(4.0)

    def test_trivial_h_composes_with_d(self):
        p = _simple_problem(TrivialH(h=lambda r: r**2))
        assert p.correction(np.array([1.0]), np.array([4.0])) == pytest.approx(9.0)

    def test_power_lq(self):
        p = _simple_problem(PowerLq(q=2.0, gamma=3.0))
        assert p.correction(np.array([0.0]), np.array([2.0])) == pytest.approx(8.0)

    def test_trivial_h_propagates_forbidden_directions(self):
        spec = Damage1dSpec()
        prob = make_damage1d(spec)
        # healing is forbidden, so the composed correction is infinite too
        z, zp = np.array([0.5, 0.5]), np.array([0.6, 0.5])
        assert prob.dissipation(z, zp) == INF
        assert prob.correction(z, zp) == INF


class TestEvalWrappers:
    def test_energy_box_indicator(self):
        spec = Damage1dSpec()
        prob = make_damage1d(spec)
        s = State(u=np.zeros(prob.n_u), z=np.array([1.5, 0.5]))
        assert prob.energy(0.5, s.u, s.z) == INF

    def test_damage_dissipation_examples(self):
        prob = make_damage1d(Damage1dSpec())
        d = prob.dissipation(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
        assert float(d) == pytest.approx(0.5)
        prob1 = make_damage1d(Damage1dSpec(N=1))
        assert float(prob1.dissipation(np.array([0.5]), np.array([0.6]))) == INF

    def test_eval_correction_nonnegative(self):
        p = _simple_problem(QuadraticMu(mu=1.0))
        assert float(p.correction(np.array([0.0]), np.array([1.0]))) == pytest.approx(0.5)

    def test_eval_power(self, toy_convex):
        s = State(u=np.empty(0), z=[3.0])
        assert float(toy_convex.power(0.5, s.u, s.z)) == pytest.approx(-6.0)


class TestTrajectory:
    def test_left_continuous_interpolant(self):
        states = tuple(State(u=np.empty(0), z=[float(i)]) for i in range(3))
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), states=states)
        assert traj.state_at(0.0).z[0] == 0.0
        assert traj.state_at(0.5).z[0] == 1.0  # state on (t0, t1] is node 1
        assert traj.state_at(1.0).z[0] == 1.0
        assert traj.state_at(1.5).z[0] == 2.0
        assert traj.n_nodes == 3

    def test_times_must_increase(self):
        states = tuple(State(u=np.empty(0), z=[0.0]) for _ in range(2))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=states)

    def test_times_states_must_align(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0]), states=())


def test_with_correction_returns_new_problem():
    p = _simple_problem()
    q = p.with_correction(QuadraticMu(mu=1.0))
    assert p.correction(np.array([0.0]), np.array([1.0])) == 0.0
    assert q.correction(np.array([0.0]), np.array([1.0])) == pytest.approx(0.5)


def test_clip_and_in_box():
    p = _simple_problem()
    assert p.in_box(np.array([3.0]))
    assert not p.in_box(np.array([11.0]))
    assert p.clip(np.array([11.0]))[0] == 10.0


def test_median_and_unique_keep_numpy_bits():
    # -0.0 against 0.0 and infinities, at odd and even sizes
    rng = np.random.default_rng(3)
    draws = [np.array([-0.0]), np.array([-0.0, -0.0]), np.array([0.0, -0.0, -0.0])]
    for n in [*range(1, 40), 999, 1000]:
        draws.append(rng.normal(size=n))
        draws.append(rng.choice([0.0, -0.0, 1.5, INF, -INF], size=n))
        draws.append(np.round(rng.exponential(size=n), 1))
    for a in draws:
        bits = lambda x: np.asarray(x, dtype=float).view(np.int64).tolist()
        assert bits(median(a)) == bits(float(np.median(a)))
        assert bits(unique(a)) == bits(np.unique(a))
