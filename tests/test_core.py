"""Problem abstraction: corrections, model values of the maps, trajectories."""

import dataclasses
import math

import numpy as np
import pytest

from risolve import (
    PowerLq,
    QuadraticMu,
    RisProblem,
    Trajectory,
    TrivialH,
)
from risolve.core import INF, is_finite, median, sup_distance, unique
from risolve.models import Damage1dSpec, make_damage1d


def test_infinity_is_math_inf():
    assert INF == math.inf
    assert not is_finite(INF)
    assert is_finite(1e300)
    with pytest.raises(ValueError):
        is_finite(float("nan"))


class TestCorrectionSpecs:
    def test_trivial_h_validates_p_and_c(self):
        # h(r) = c r**p; p = 1 is built, for correction_ratio_check to reject
        h = TrivialH(p=1.0, c=2.0)
        assert h.h(0.0) == 0.0 and h.h(3.0) == 6.0
        # c = nan and c = -2 were h = nan * r**4 and h = -2 r**2 of the
        # callable form, which nothing refused
        bad = [(0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (-2.0, 1.0),
               (4.0, math.nan), (2.0, -2.0), (2.0, 0.0), (2.0, math.inf)]
        for p, c in bad:
            with pytest.raises(ValueError, match="finite p >= 1 and a finite c > 0"):
                TrivialH(p=p, c=c)

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
        power=lambda t, U, Z: np.zeros(np.shape(Z)[:-1]),
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
        p = _simple_problem(TrivialH(p=2.0, c=1.0))
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
        assert prob.energy(0.5, np.zeros(prob.n_u), np.array([1.5, 0.5])) == INF

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
        assert float(toy_convex.power(0.5, np.empty(0), np.array([3.0]))) == pytest.approx(-6.0)


class TestTrajectory:
    def test_left_continuous_interpolant(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]), Z=np.arange(3.0)[:, None], U=np.empty((3, 0))
        )
        # before t0, at each node, between nodes and after T, in one call:
        # the state on (t_{n-1}, t_n] is node n's
        ts = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        assert traj.nodes_at(ts).tolist() == [0, 0, 1, 1, 2, 2, 2]
        assert traj.Z[traj.nodes_at(ts), 0].tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        assert len(traj.times) == 3

    def test_node_entries_must_be_finite(self):
        times = np.array([0.0, 1.0])
        traj = Trajectory(times=times, Z=[[0.5], [0.5]], U=[[1.0], [1.0]])
        assert traj.Z.shape == (2, 1) and traj.U.shape == (2, 1)
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=times, Z=[[0.5], [float("nan")]], U=[[1.0], [1.0]])
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=times, Z=[[0.5], [0.5]], U=[[float("inf")], [1.0]])

    def test_sup_distance_is_the_largest_probe_distance(self):
        rng = np.random.default_rng(0)
        times = np.array([0.0, 0.5, 1.0])
        a = Trajectory(times=times, Z=rng.normal(size=(3, 2)), U=np.empty((3, 0)))
        b = Trajectory(times=times[[0, 2]], Z=rng.normal(size=(2, 2)), U=np.empty((2, 0)))
        probes = np.linspace(-0.5, 1.5, 17)
        per_probe = [
            float(np.linalg.norm(a.Z[a.nodes_at(t)] - b.Z[b.nodes_at(t)])) for t in probes
        ]
        assert sup_distance(a, b, probes) == max(per_probe)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), Z=np.zeros((2, 1)), U=np.empty((2, 0)))

    def test_times_states_must_align(self):
        # Z and U need one row per node time, and there is at least one node
        for Z, U in ((np.zeros((1, 1)), np.empty((2, 0))), (np.zeros((2, 1)), np.empty((3, 0)))):
            with pytest.raises(ValueError, match="one row per node time"):
                Trajectory(times=np.array([0.0, 1.0]), Z=Z, U=U)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([]), Z=np.zeros((0, 1)), U=np.empty((0, 0)))


def test_a_convex_model_states_both_derivatives_in_one_dimension():
    dz, dzz = (lambda t, z: z), (lambda t, z: z * 0.0 + 1.0)
    p = dataclasses.replace(_simple_problem(), reduced_dz=dz, reduced_dzz=dzz)
    assert p.reduced_dz is dz and p.reduced_dzz is dzz
    with pytest.raises(ValueError, match="both reduced_dz and reduced_dzz"):
        dataclasses.replace(_simple_problem(), reduced_dz=dz)
    with pytest.raises(ValueError, match="n_z = 1 may state reduced_dz"):
        dataclasses.replace(make_damage1d(Damage1dSpec()), reduced_dz=dz, reduced_dzz=dzz)


def test_a_convex_model_reads_its_rays_at_its_first_step():
    # kappa_s = d(0, s) and delta's slope a r**e per sign, down then up;
    # a copy calls no map until a step reads them
    calls = []

    def dissipation(z, zp):
        calls.append(1)
        step = np.asarray(zp)[..., 0] - np.asarray(z)[..., 0]
        return np.where(step < 0, 2.0 * -step, 3.0 * step)

    p = dataclasses.replace(
        _simple_problem(TrivialH(p=3.0, c=0.5)), dissipation=dissipation,
        reduced_dz=lambda t, z: z, reduced_dzz=lambda t, z: z * 0.0 + 1.0,
    )
    assert calls == []
    assert p._rays == ((2.0, 0.5 * 3.0 * 2.0**3, 2.0), (3.0, 0.5 * 3.0 * 3.0**3, 2.0))
    assert len(calls) == 2
    flat = dataclasses.replace(p, dissipation=lambda z, zp: 0.0 * _simple_problem().dissipation(z, zp))
    with pytest.raises(ValueError, match="needs d"):
        flat._rays


def test_with_correction_returns_new_problem():
    p = _simple_problem()
    q = p.with_correction(QuadraticMu(mu=1.0))
    assert p.correction(np.array([0.0]), np.array([1.0])) == 0.0
    assert q.correction(np.array([0.0]), np.array([1.0])) == pytest.approx(0.5)


def test_a_copy_with_another_dissipation_prices_its_correction_with_it():
    # delta = h(d) of the copy's own d: h(3 |dz|) = 9 for dz = 1, not h(|dz|) = 1
    p = _simple_problem(TrivialH(p=2.0, c=1.0))
    q = dataclasses.replace(
        p, dissipation=lambda z, zp: 3.0 * np.abs(np.asarray(zp)[..., 0] - np.asarray(z)[..., 0])
    )
    z, zp = np.array([0.0]), np.array([1.0])
    assert float(p.correction(z, zp)) == 1.0
    assert float(q.correction(z, zp)) == 9.0
    assert q.correction_spec is p.correction_spec


def test_a_given_correction_map_is_used_and_kept_until_with_correction():
    def counted(z, zp, d=None):
        calls.append(1)
        return 7.0 + 0.0 * np.asarray(zp)[..., 0]

    calls = []
    p = dataclasses.replace(_simple_problem(TrivialH(p=2.0, c=1.0)), correction=counted)
    z, zp = np.array([0.0]), np.array([1.0])
    assert p.correction is counted and float(p.correction(z, zp)) == 7.0
    q = dataclasses.replace(p, dissipation=lambda z, zp: 3.0 * np.abs(zp - z)[..., 0])
    assert q.correction is counted and len(calls) == 1
    r = q.with_correction(TrivialH(p=2.0, c=1.0))
    assert float(r.correction(z, zp)) == 9.0 and len(calls) == 1


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        dataclasses.replace(_simple_problem(), horizon=horizon)


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
