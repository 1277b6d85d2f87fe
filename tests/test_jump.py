"""Viscous chains and jump cost bounds."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from risolve import (
    QuadraticMu,
    ResidualMemo,
    RisProblem,
    SchemeConfig,
    TolConfig,
    TrivialH,
    interpolate,
    jump,
    jump_cost,
    solve_incremental,
    stability,
    verify,
    viscous_chain,
)
from risolve.core import INF
from risolve.models import (
    Delamination0dSpec,
    Plasticity0dSpec,
    make_delamination0d,
    make_plasticity0d,
)
from risolve.reduced import chunk_rows

from conftest import residual_at, step_min


def _quadratic_problem(correction=None):
    prob = RisProblem(
        n_u=0,
        n_z=1,
        reduced_vec=lambda t, Z: 0.5 * Z[..., 0] ** 2,
        power=lambda t, U, Z: np.zeros(np.shape(Z)[:-1]),
        dissipation=lambda z, zp: np.abs(np.asarray(zp)[..., 0] - np.asarray(z)[..., 0]),
        z_box=((-10.0, 10.0),),
    )
    return prob.with_correction(correction)


class TestViscousChain:
    def test_uncorrected_soft_threshold_fixes_in_one_hop(self):
        # from z=3 the map z -> argmin(z'^2/2 + |z' - z|) lands on 1 and
        # stays: the chain is exactly [3, 1]
        prob = _quadratic_problem()
        chain = viscous_chain(prob, 0.0, [3.0])
        assert chain.converged
        assert len(chain.points) == 2
        assert chain.points[1][0] == pytest.approx(1.0, abs=1e-6)
        assert chain.link_diss[0] == pytest.approx(2.0, abs=1e-6)
        # the start pays its residual I(3) - (I(1) + d) = 4.5 - 2.5
        assert chain.point_residual[0] == pytest.approx(2.0, abs=1e-6)
        assert chain.cost == pytest.approx(4.0, abs=1e-5)

    def test_quadratic_correction_contracts_halfway(self):
        # with delta = (z'-z)^2/2 each hop solves 2z' = z + 1: the orbit is
        # z_{n+1} = (z_n + 1)/2, converging to 1 (not a two-hop jump)
        prob = _quadratic_problem(QuadraticMu(mu=1.0))
        chain = viscous_chain(prob, 0.0, [3.0])
        assert chain.converged
        pts = [float(p[0]) for p in chain.points]
        assert pts[1] == pytest.approx(2.0, abs=1e-6)
        assert pts[2] == pytest.approx(1.5, abs=1e-6)
        assert all(b < a for a, b in zip(pts, pts[1:]))
        assert pts[-1] == pytest.approx(1.0, abs=1e-4)

    def test_stable_start_is_a_fixed_point(self):
        prob = _quadratic_problem()
        chain = viscous_chain(prob, 0.0, [0.5])
        assert chain.converged
        assert len(chain.points) == 1
        assert chain.cost == 0.0

    def test_one_search_per_point(self, monkeypatch):
        # each step is the witness of the point's residual search, the
        # minimizer the step search finds, bit for bit
        prob = _quadratic_problem(QuadraticMu(mu=1.0))
        z, expected = np.array([3.0]), [np.array([3.0])]
        for _ in range(100):
            step, _ = step_min(prob, 0.0, z)
            if abs(step[0] - z[0]) < 1e-10:
                break
            z = step
            expected.append(z)
        rows = []
        real = stability.residual_rows

        def counted(problem, ts, Z):
            rows.extend(Z.tobytes() for Z in np.asarray(Z, float))
            return real(problem, ts, Z)

        monkeypatch.setattr(stability, "residual_rows", counted)
        chain = viscous_chain(prob, 0.0, [3.0])
        assert chain.converged
        assert np.array(chain.points).tobytes() == np.array(expected).tobytes()
        assert rows == [p.tobytes() for p in expected]


class TestJumpCost:
    def test_identical_endpoints(self, toy_doublewell):
        bound = jump_cost(toy_doublewell, 0.5, [-1.0], [-1.0])
        assert bound.upper == 0.0
        assert bound.lower == 0.0

    def test_cost_at_least_dissipation(self, toy_doublewell):
        bound = jump_cost(toy_doublewell, 0.5, [-1.0], [1.0])
        d = toy_doublewell.dissipation(np.array([-1.0]), np.array([1.0]))
        assert bound.lower >= d - 1e-9
        assert bound.upper >= bound.lower - 1e-12

    def test_sliding_pair_costs_equal_distance(self, toy_convex):
        # at t=1 the plain stable set is [1, 3]; between stable states the
        # optimal transition slides, so c = d and the gap closes
        bound = jump_cost(toy_convex, 1.0, [1.2], [1.5])
        assert bound.upper == pytest.approx(0.3, abs=1e-6)
        assert bound.gap <= 1e-6

    def test_forbidden_direction_infeasible(self, delamination):
        bound = jump_cost(delamination, 0.5, [0.0], [1.0])
        assert bound.upper == INF

    def test_delamination_cost_decomposition(self):
        # brittle jump 1 -> 0 at t: cost = kappa + delta + residual of the
        # bonded state, all known in closed form:
        #   I(t,1) = k_s L^2/2 - a0,  I(t,0) = 0,  d = kappa, delta = kappa^2
        spec = Delamination0dSpec()
        prob = make_delamination0d(spec)
        t = 0.665
        L = 2 * t
        ks, a0, kappa = 2.0, 1.0, 0.5
        residual = max((0.5 * ks * L**2 - a0) - (kappa + kappa**2), 0.0)
        expected = kappa + kappa**2 + residual
        bound = jump_cost(prob, t, [1.0], [0.0])
        assert bound.upper == pytest.approx(expected, abs=1e-6)
        assert bound.gap <= 1e-6
        assert float(prob.dissipation(np.array([1.0]), np.array([0.0]))) == kappa

    def test_dp_reports_per_point_residuals(self):
        spec = Delamination0dSpec()
        prob = make_delamination0d(spec)
        bound = jump_cost(prob, 0.665, [1.0], [0.0])
        assert bound.witness is not None
        assert any(r > 0 for r in bound.witness.point_residual)

    def test_upper_bound_never_beats_direct_chain(self, toy_doublewell):
        # the two-point chain z- -> z+ has cost d + residual(z-); the search
        # can only improve on it
        t = 0.9
        z_minus, z_plus = np.array([-0.8]), np.array([1.2])
        direct = toy_doublewell.dissipation(z_minus, z_plus) + residual_at(
            toy_doublewell, t, z_minus
        )[0]
        bound = jump_cost(toy_doublewell, t, z_minus, z_plus)
        assert bound.upper <= direct + 1e-9


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def _assert_same_bound(got, ref):
    assert _bits([got.upper, got.lower]) == _bits([ref.upper, ref.lower])
    assert (got.witness is None) == (ref.witness is None)
    if got.witness is not None:
        a, b = got.witness, ref.witness
        assert a.kinds == b.kinds and a.converged == b.converged
        assert _bits(np.array(a.points)) == _bits(np.array(b.points))
        for name in ("point_residual", "link_diss", "link_gap"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name))


class TestSlidingCutoff:
    """The sliding path is dropped once it cannot beat the direct chain,
    and every bound keeps the bits of full pricing."""

    @staticmethod
    def _priced(problem, t, z_minus, z_plus, full=False):
        """jump_cost (with no cut-off when ``full``) and whether a chain was
        dropped."""
        real = jump._build_chain
        dropped = []

        def build(*args, cutoff=INF):
            chain = real(*args, cutoff=INF if full else cutoff)
            dropped.append(chain is None)
            return chain

        with mock.patch.object(jump, "_build_chain", build):
            return jump_cost(problem, t, z_minus, z_plus), any(dropped)

    def test_damage_jump_prices_one_chunk_of_the_path(self, damage, monkeypatch):
        # after the threshold (t0 = 0.577) (0, 0) beats (1, 1) by far: the
        # path's first residuals already cost more than the direct chain
        rows = []
        real = stability.residual_rows

        def counted(problem, ts, Z):
            rows.extend(np.asarray(Z, float).tolist())
            return real(problem, ts, Z)

        monkeypatch.setattr(stability, "residual_rows", counted)
        bound = jump_cost(damage, 0.7, [1.0, 1.0], [0.0, 0.0])
        inner = [z for z in rows if z[0] == z[1] and 0.0 < z[0] < 1.0]
        assert 0 < len(inner) <= chunk_rows(2) == 3
        assert len(rows) == len(set(map(tuple, rows)))
        assert bound.witness.kinds[0] == "viscous"

    def test_bounds_equal_full_pricing(self, damage, toy_convex, toy_doublewell):
        rng = np.random.default_rng(17)
        plastic = make_plasticity0d(Plasticity0dSpec(correction=TrivialH(h=lambda r: r**4)))
        cases = [(damage, 0.7, [1.0, 1.0], [0.0, 0.0])]
        for _ in range(8):  # 2-d damage, z_plus <= z_minus
            z_minus = rng.uniform(0.0, 1.0, 2)
            cases.append((damage, rng.uniform(0.0, 1.0), z_minus, z_minus * rng.uniform(0.0, 1.0, 2)))
        for _ in range(2):  # symmetric states long before the threshold: a stable path
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            cases.append((damage, rng.uniform(0.0, 0.3), [b, b], [a, a]))
        for prob in (toy_convex, toy_doublewell, plastic):
            (lo, hi), = prob.z_box
            for _ in range(6):
                a, b = rng.uniform(lo, hi, 2)
                cases.append((prob, rng.uniform(0.0, prob.horizon), [a], [b]))
        for _ in range(4):  # inside plasticity's stable set [t - 1, t + 1]
            t = rng.uniform(0.0, 2.0)
            a, b = rng.uniform(t - 1.0, t + 1.0, 2)
            cases.append((plastic, t, [a], [b]))
        seen = set()
        for prob, t, z_minus, z_plus in cases:
            got, cut = self._priced(prob, t, z_minus, z_plus)
            ref, _ = self._priced(prob, t, z_minus, z_plus, full=True)
            _assert_same_bound(got, ref)
            if cut:
                seen.add((prob.n_z, "dropped"))
            elif ref.witness is not None and ref.witness.kinds[0] == "sliding":
                seen.add((prob.n_z, "won"))
        # both branches ran in 1-d and 2-d: paths dropped, and paths that won
        assert seen == {(n, how) for n in (1, 2) for how in ("dropped", "won")}

    def test_winning_path_priced_in_full(self, monkeypatch):
        # sliding1d-style plasticity, t = 1.5: the segment [0.6, 1.4] lies in
        # the stable set [0.5, 2.5], so its 64 short links beat the direct
        # chain's correction h(0.8) = 0.41
        prob = make_plasticity0d(Plasticity0dSpec(correction=TrivialH(h=lambda r: r**4)))
        bound, cut = self._priced(prob, 1.5, [0.6], [1.4])
        ref, _ = self._priced(prob, 1.5, [0.6], [1.4], full=True)
        _assert_same_bound(bound, ref)
        assert not cut
        chain = bound.witness
        assert chain.kinds == ("sliding",) * 65 and len(chain.point_residual) == 64
        assert bound.upper == chain.cost == pytest.approx(0.8, abs=1e-5)


class TestDijkstra:
    """The DP chain's shortest path against scipy's Dijkstra."""

    @staticmethod
    def _graph(rng, m):
        W = rng.random((m, m)) * rng.choice([1e-3, 1.0, 1e3])
        W[rng.random((m, m)) > rng.uniform(0.05, 1.0)] = INF
        W[:, rng.random(m) < 0.15] = INF  # nodes no link reaches
        np.fill_diagonal(W, INF)
        return W

    def test_matches_scipy(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(7)
        unreachable = 0
        for m in [*range(1, 61), *range(1, 61), 403, 403]:
            W = self._graph(rng, m)
            src, dst = (int(i) for i in rng.integers(m, size=2))
            rows, cols = np.nonzero(np.isfinite(W))
            graph = csr_matrix((W[rows, cols], (rows, cols)), shape=(m, m))
            dist, pred = csgraph.dijkstra(
                graph, indices=src, return_predecessors=True
            )
            path = jump.dijkstra(W, src, dst)
            if not np.isfinite(dist[dst]):
                assert path is None
                unreachable += 1
                continue
            expected = [dst]
            while expected[-1] != src:
                expected.append(int(pred[expected[-1]]))
            assert path == expected[::-1]
            length = 0.0  # summed in the order Dijkstra sums it
            for a, b in zip(path, path[1:]):
                length += W[a, b]
            assert length == dist[dst]
        assert unreachable > 0

    def test_unreachable_end_gives_no_chain(self, delamination):
        # the brittle bond never heals: no chain climbs from 0 to 1
        assert jump._dp_chain(delamination, 0.5, np.array([0.0]), np.array([1.0]), 41) is None

    @pytest.mark.parametrize("spec", [TrivialH(h=lambda r: r**3), QuadraticMu(1.0, "dissipation")])
    def test_link_matrix_prices_d_once(self, toy_doublewell, spec):
        # a correction defined on d takes the link matrix's d instead of
        # pricing the (m, m) pairs again, and the path keeps its bits
        real = toy_doublewell.with_correction(spec)
        shapes = []

        def counted(z, zp):
            shapes.append(np.broadcast_shapes(np.shape(z)[:-1], np.shape(zp)[:-1]))
            return real.dissipation(z, zp)

        spied = dataclasses.replace(real, dissipation=counted).with_correction(spec)
        for res in (41, 81):
            shapes.clear()
            path = jump._dp_chain(spied, 0.5, np.array([-1.0]), np.array([1.0]), res)
            pairs = [s for s in shapes if len(s) == 2]
            assert len(pairs) == 1 and pairs[0][0] == pairs[0][1] >= res
            expected = jump._dp_chain(real, 0.5, np.array([-1.0]), np.array([1.0]), res)
            assert np.array_equal(np.array(path), np.array(expected))


class TestAugmentedVariation:
    @pytest.fixture
    def doublewell_run(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=5e-3, initial_z=(-1.0,))
        prob = toy_doublewell.with_correction(QuadraticMu(mu=1.0))
        disc = solve_incremental(prob, cfg)
        return prob, interpolate(disc)

    def test_dominates_plain_variation(self, doublewell_run):
        # Var_{d,c} adds Delta_c = c - d >= 0 per jump to the plain variation,
        # c the bound of the jump's (z_left, z_right)
        prob, traj = doublewell_run
        assert traj.jump_records
        priced = verify._jump_checks(prob, traj, TolConfig(), ResidualMemo(prob))
        assert len(priced) == len(traj.jump_records)
        for rec, (delta_c, _) in zip(traj.jump_records, priced):
            c = jump_cost(prob, rec.t, rec.z_left, rec.z_right).upper
            d = float(prob.dissipation(rec.z_left, rec.z_right))
            assert delta_c >= 0.0
            assert delta_c == pytest.approx(max(c - d, 0.0), rel=1e-12, abs=1e-15)
