"""Reduced energies and the corrected global minimization step.

Every nontrivial expected value is recomputed here by an independent brute
force (dense grid plus local refinement) rather than trusted from the
production path.
"""

import math

import numpy as np
import pytest

from risolve import (
    PowerLq,
    QuadraticMu,
    ResidualMemo,
    RisProblem,
    global_min_rows,
    reduced_value,
)
from risolve.core import INF
from risolve import reduced
from risolve.jump import _build_chain
from risolve.reduced import step_objective
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

from conftest import step_min
from grid_oracle import oracle_grid_min


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


def _brute_force_1d(f, lo, hi, coarse=20001, refine=3):
    """Dense scan plus golden-ratio-free refinement by re-gridding."""
    best_x = None
    for _ in range(refine):
        xs = np.linspace(lo, hi, coarse)
        vals = np.array([f(x) for x in xs])
        i = int(np.argmin(vals))
        best_x = xs[i]
        span = (hi - lo) / (coarse - 1)
        lo, hi = best_x - 2 * span, best_x + 2 * span
    return best_x, f(best_x)


class TestOracleGridMin:
    def test_recovers_quadratic_minimum(self):
        res = oracle_grid_min(
            lambda x: (x[0] - 0.3) ** 2, [(-1.0, 1.0)], resolution=2001
        )
        assert abs(res.argmin[0] - 0.3) <= res.tolerance

    def test_vectorized_matches_scalar(self):
        f = lambda x: (x[0] - 0.25) ** 2 + (x[1] + 0.5) ** 2
        fv = lambda pts: (pts[:, 0] - 0.25) ** 2 + (pts[:, 1] + 0.5) ** 2
        box = [(-1.0, 1.0), (-1.0, 1.0)]
        a = oracle_grid_min(f, box, resolution=41)
        b = oracle_grid_min(fv, box, resolution=41, vectorized=True)
        assert a.value == pytest.approx(b.value)
        assert np.allclose(a.argmin, b.argmin)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            oracle_grid_min(lambda x: 0.0, [(-1, 1)] * 3, resolution=300)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            oracle_grid_min(lambda x: 0.0, [(-1, 1)], resolution=1)


class TestReduceEnergy:
    def test_toy_energy_direct(self, toy_convex):
        # E(0.5, z=1) = 0.5 - 1
        assert reduced_value(toy_convex, 0.5, [1.0]) == pytest.approx(-0.5)
        assert toy_convex.solve_u(0.5, np.array([1.0])).shape == (0,)

    def test_out_of_box_is_infinite(self, toy_convex):
        assert reduced_value(toy_convex, 0.5, [20.0]) == INF

    def test_damage_closed_form_vs_grid_oracle(self):
        # intact uniform 4-cell bar under end displacement: the u-solve must
        # match an exhaustive search over interior node positions
        prob = make_damage1d(Damage1dSpec(N=4, w_D=(0.0, 1.0)))
        t = 0.5
        z = np.ones(4)
        value, u = reduced_value(prob, t, z), prob.solve_u(t, z)
        assert value == pytest.approx(0.5 * 1.0 * 0.5**2)  # 1/2 E0 w^2
        w = 0.5
        x = prob.extras

        def energy(U):
            # the bar energy over an (M, 3) batch of interior node positions;
            # z is uniform, so the gradient term vanishes
            nodes = np.concatenate(
                [np.zeros((len(U), 1)), U, np.full((len(U), 1), x["w_D"](t))], axis=1
            )
            k = (x["eta"] + (1.0 - x["eta"]) * z) * x["E0"]
            return 0.5 * np.sum(k * np.diff(nodes, axis=1) ** 2, axis=1) / x["h"]

        U = np.random.default_rng(2).uniform(0.0, w, size=(200, 3))
        assert np.allclose(energy(U), prob.energy(t, U, z), rtol=0.0, atol=1e-12)
        grid = oracle_grid_min(energy, [(0.0, w)] * 3, resolution=81, vectorized=True)
        assert grid.value >= value - 1e-12
        assert grid.value - value < 1e-3
        assert np.allclose(u, grid.argmin, atol=2 * grid.tolerance)

    def test_residual_stiffness_single_cell(self):
        prob = make_damage1d(Damage1dSpec(N=1, w_D=(0.0, 1.0)))
        assert reduced_value(prob, 1.0, [0.0]) == pytest.approx(0.5 * 0.25)
        assert reduced_value(prob, 1.0, [1.0]) == pytest.approx(0.5)


class TestGlobalMinCorrected:
    def test_soft_threshold_step(self):
        # min z^2/2 + |z - 3|: brute force oracle, then the production path
        prob = _quadratic_problem()
        xo, vo = _brute_force_1d(lambda x: 0.5 * x * x + abs(x - 3.0), -10, 10)
        x, value = step_min(prob, 0.0, [3.0])
        assert value == pytest.approx(vo, abs=1e-9)
        assert x[0] == pytest.approx(xo, abs=1e-6)
        assert x[0] == pytest.approx(1.0, abs=1e-6)

    def test_soft_threshold_with_quadratic_correction(self):
        prob = _quadratic_problem(QuadraticMu(mu=1.0))
        xo, vo = _brute_force_1d(
            lambda x: 0.5 * x * x + abs(x - 3.0) + 0.5 * (x - 3.0) ** 2, -10, 10
        )
        x, value = step_min(prob, 0.0, [3.0])
        assert value == pytest.approx(vo, abs=1e-9)
        assert x[0] == pytest.approx(xo, abs=1e-6)
        assert x[0] == pytest.approx(2.0, abs=1e-6)

    def test_stay_put_when_stable(self):
        prob = _quadratic_problem()
        x, value = step_min(prob, 0.0, [0.5])
        # |I'(0.5)| = 0.5 < 1, so staying is optimal and ties break to z_prev
        assert x[0] == pytest.approx(0.5)
        assert value == pytest.approx(0.125)

    def test_never_worse_than_staying(self, toy_doublewell):
        for t in (0.0, 0.3, 0.7, 1.0):
            for z0 in (-1.0, 0.0, 1.0):
                stay = reduced_value(toy_doublewell, t, [z0])
                _, value = step_min(toy_doublewell, t, [z0])
                assert value <= stay + 1e-12

    def test_unidirectional_search_clipped(self):
        prob = make_damage1d(Damage1dSpec(N=1, w_D=(0.0, 1.0)))
        x, _ = step_min(prob, 0.5, [0.7])
        assert x[0] <= 0.7 + 1e-12

    def test_box_corner_is_reachable(self):
        # at strong loading the single-cell damage jumps exactly onto z = 0
        prob = make_damage1d(Damage1dSpec(N=1, w_D=(0.0, 4.0)))
        x, _ = step_min(prob, 1.0, [1.0])
        assert x[0] == 0.0

    def test_infeasible_previous_state_raises(self):
        prob = _quadratic_problem()
        with pytest.raises(ValueError):
            step_min(prob, 0.0, [50.0])


def _random_steps(prob, count, seed):
    """Seeded (t, z_prev) pairs spread over the horizon and the box."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in prob.z_box])
    hi = np.array([b[1] for b in prob.z_box])
    return [(rng.uniform(0.0, prob.horizon), rng.uniform(lo, hi)) for _ in range(count)]


class TestZoomSearch:
    """The step search: a coarse grid, then a zoom on its best points."""

    @pytest.mark.parametrize("name", ["damage", "toy_doublewell"])
    def test_never_above_dense_grid_oracle(self, name, request):
        prob = request.getfixturevalue(name)  # the N=2 bar and the 1-d double well
        h = prob.correction_spec.h if prob.correction_spec is not None else None
        for t, z_prev in _random_steps(prob, 12, seed=3):

            def objective(pts, t=t, z_prev=z_prev):
                d = np.asarray(prob.dissipation(z_prev, pts), float)
                v = np.asarray(prob.reduced_vec(t, pts), float) + d
                return v + h(d) if h is not None else v

            oracle = oracle_grid_min(objective, prob.z_box, 401, vectorized=True)
            _, value = step_min(prob, t, z_prev)
            assert value <= oracle.value + 1e-12

    def test_stopped_row_leaves_the_batch(self):
        # row 0 starts stopped (zero half-width) at -0.0; row 1 zooms on
        # (x - 0.3)^2.  Row 0 is never evaluated and keeps its bits, as alone
        rows_seen = []

        def objective(sel):
            target = np.array([0.0, 0.3])[sel][:, None]

            def f(pts):
                rows_seen.append(len(pts))
                return (pts[..., 0] - target) ** 2

            return f

        centers = np.array([[[-0.0]], [[0.0]]])
        values = np.array([[0.0], [0.09]])
        half = np.array([[0.0], [1.0]])
        lo, hi = np.full((2, 1), -1.0), np.full((2, 1), 1.0)
        c, v = reduced.zoom_search(objective, centers, values, half, lo, hi, 1e-10)
        assert np.signbit(c[0, 0, 0]) and v[0, 0] == 0.0
        assert c[1, 0, 0] == pytest.approx(0.3, abs=1e-10)
        assert rows_seen and set(rows_seen) == {1}
        alone, _ = reduced.zoom_search(
            lambda sel: objective(slice(1, 2)), centers[1:], values[1:], half[1:],
            lo[1:], hi[1:], 1e-10,
        )
        assert alone.tobytes() == c[1:].tobytes()

    def test_search_batches_are_cell_major(self, damage, monkeypatch):
        # every grid and zoom batch reaching the objective holds one
        # contiguous (P, M) plane per cell, which the damage maps price
        # faster than interleaved cells
        seen = []
        objective = reduced.step_objective

        def spy(problem, t, z_prev):
            f = objective(problem, t, z_prev)

            def g(pts):
                planes = [pts[..., j].flags.c_contiguous for j in range(pts.shape[-1])]
                seen.append((pts.shape[:2], all(planes)))
                return f(pts)

            return g

        monkeypatch.setattr(reduced, "step_objective", spy)
        # boxes of three sizes: the rows stop zooming at different levels
        global_min_rows(damage, [0.3, 0.55, 0.6], [[1.0, 1.0], [0.7, 0.9], [0.1, 0.1]])
        searched = [(shape, ok) for shape, ok in seen if shape[1] > 1]
        assert all(ok for _, ok in searched)
        sizes = {shape for shape, _ in searched}
        points, starts = reduced._ZOOM_SHAPES[2]
        window = points**2
        assert (3, 129 * 129 + 1) in sizes  # the grid and the staying state
        assert (3, starts * window) in sizes  # the zoom's first level
        # then the 12 starts zoom their 6 distinct windows, one a batch row,
        # before and after the row of the smallest box stops with its one
        assert (6, window) in sizes and (5, window) in sizes

    @staticmethod
    def _bowl(target, seen):
        """The row objective |z - target[row]|^2, recording each batch."""

        def objective(sel):
            at = np.asarray(target, float)[sel][:, None, :]

            def f(pts):
                seen.append(pts.copy())
                return ((pts - at) ** 2).sum(axis=-1)

            return f

        return objective

    def test_repeated_2d_starts_zoom_once(self):
        # row 0: a bowl centred at (-1, -1), whose least value on the unit
        # box is at its corner (0, 0); the first level takes starts 0, 1 and
        # 3 to that corner, and start 2 elsewhere.
        # Row 1: a bowl inside the box, whose four starts stay apart
        seen = []
        objective = self._bowl([[-1.0, -1.0], [0.5, 0.2]], seen)
        centers = np.array([
            [[0.05, 0.05], [0.03, 0.06], [0.8, 0.8], [0.06, 0.03]],
            [[0.3, 0.3], [0.5, 0.2], [0.7, 0.9], [0.1, 0.9]],
        ])
        values = ((centers - [[[-1.0, -1.0]], [[0.5, 0.2]]]) ** 2).sum(axis=-1)
        half, lo, hi = np.full((2, 2), 0.1), np.zeros((2, 2)), np.ones((2, 2))
        c, v = reduced.zoom_search(objective, centers, values, half, lo, hi, 1e-10)
        assert (c[0, [0, 1, 3]] == 0.0).all() and (c[0, 2] > 0.5).all()
        for j in range(4):
            alone, value = reduced.zoom_search(
                self._bowl([[-1.0, -1.0], [0.5, 0.2]], []), centers[:, j : j + 1],
                values[:, j : j + 1], half, lo, hi, 1e-10,
            )
            assert alone.tobytes() == c[:, j : j + 1].tobytes()
            assert value.tobytes() == v[:, j : j + 1].tobytes()
        # the first level prices every start's window; the next ones price
        # one window per distinct centre, the centre first
        window = reduced._ZOOM_SHAPES[2][0] ** 2
        assert seen[0].shape == (2, 4 * window, 2)
        assert len(seen) > 2
        for pts in seen[1:]:
            assert pts.shape == (6, window, 2)
            centres = {tuple(x) for x in pts[:, 0]}
            assert len(centres) == 6 and (0.0, 0.0) in centres

    def test_repeated_1d_starts_merge(self):
        # a row of more than one start merges them after the first level in
        # 1-d too: both starts meet at the box's corner 0 and zoom on as one
        # window, with the bits each gets alone
        seen = []
        objective = self._bowl([[-1.0]], seen)
        centers, values = np.array([[[0.05], [0.03]]]), np.array([[1.1025, 1.0609]])
        half, lo, hi = np.full((1, 1), 0.1), np.zeros((1, 1)), np.ones((1, 1))
        c, v = reduced.zoom_search(objective, centers, values, half, lo, hi, 1e-10)
        assert (c == 0.0).all()
        for j in range(2):
            alone, value = reduced.zoom_search(
                self._bowl([[-1.0]], []), centers[:, j : j + 1], values[:, j : j + 1],
                half, lo, hi, 1e-10,
            )
            assert alone.tobytes() == c[:, j : j + 1].tobytes()
            assert value.tobytes() == v[:, j : j + 1].tobytes()
        window = reduced._ZOOM_SHAPES[1][0]
        assert seen[0].shape == (1, 2 * window, 1)
        assert len(seen) > 1
        assert {pts.shape for pts in seen[1:]} == {(1, window, 1)}

    def test_lone_flowing_step_makes_seven_objective_calls(self, plasticity, monkeypatch):
        calls = []
        objective = reduced.step_objective

        def spy(problem, t, z_prev):
            f = objective(problem, t, z_prev)

            def g(pts):
                calls.append(pts.shape)
                return f(pts)

            return g

        monkeypatch.setattr(reduced, "step_objective", spy)
        # on the yield surface at t = 1.499 and loaded on to t = 1.5: it flows
        x, _ = global_min_rows(plasticity, [1.5], [[0.499]])
        assert x[0, 0] == pytest.approx(0.5, abs=1e-7)
        # the 129-point grid plus z_prev's clipped copy, and z_prev itself
        # for staying put, then 6 zoom levels of the best grid point's
        # 65-point window: the box's half-width 10/128 stays at least
        # DESCENT_TOL for 6 shrinks by 1/32
        assert calls == [(1, 131, 1)] + [(1, 65, 1)] * 6

    @pytest.mark.parametrize(
        "model, t, z_prev",
        [
            # on the box's upper and lower edge, unloaded or inside the yield surface
            (make_plasticity0d(Plasticity0dSpec(eps=(5.0, 0.0))), 1.0, [5.0]),
            (make_plasticity0d(Plasticity0dSpec(eps=(-5.2, 0.0))), 1.0, [-5.0]),
            # -0.0, which the grid's 0.0 repeats
            (make_toy1d(Toy1dSpec(ell=(0.0, 2.0))), 0.0, [-0.0]),
            # unidirectional: the search box ends at hi = z_prev
            (make_damage1d(Damage1dSpec()), 0.05, [0.6, 0.6]),
            (make_delamination0d(Delamination0dSpec()), 0.0, [0.5]),
            # 5e-13 past the box, which ``inside`` accepts; the grid's
            # clipped copy of z_prev is the box's edge 10.0
            (make_toy1d(Toy1dSpec(ell=(10.0, 0.0))), 0.5, [10.0 + 5e-13]),
        ],
        ids=["upper-edge", "lower-edge", "minus-zero", "damage-clip", "delamination-clip",
             "outside-by-5e-13"],
    )
    def test_staying_row_returns_z_prev_and_its_objective(self, model, t, z_prev):
        # the staying value is z_prev itself priced in the grid call: the
        # bits of step_objective at z_prev, alone or among other rows
        z_prev = np.array(z_prev)
        assert model.in_box(z_prev)
        stay = step_objective(model, t, z_prev)(z_prev[None])[0]
        rows = _random_steps(model, 5, seed=41)
        ts = np.array([t] + [r for r, _ in rows])
        Z = np.array([z_prev] + [z for _, z in rows])
        for X, V in (global_min_rows(model, [t], [z_prev]), global_min_rows(model, ts, Z)):
            assert X[0].tobytes() == z_prev.tobytes()
            assert V[0].tobytes() == stay.tobytes()

    def test_rows_stop_at_their_scheduled_level(self):
        tol, factor = reduced.DESCENT_TOL, reduced._zoom_factor(2)
        edge = tol / factor**3  # exactly tol after three levels
        half = np.array([
            [edge, tol / 2],  # lands on tol: a fourth level runs
            [tol / 4, np.nextafter(edge, 0.0)],  # just below: three levels
            [0.05, 0.1],  # the wider axis sets the schedule
            [tol / 2, tol / 2],  # no level
        ])

        def levels(h):
            # the test of the widest half-width before each level
            count = 0
            while h.max() >= tol:
                h, count = h * factor, count + 1
            return count

        expected = [levels(h) for h in half]
        assert expected[:2] == [4, 3] and expected[2] > 4 and expected[3] == 0
        target = np.array([[0.3, 0.6], [0.7, 0.2], [0.45, 0.55], [0.5, 0.5]])
        seen = []

        def objective(sel):
            rows = np.arange(len(target))[sel]
            at = target[rows][:, None, :]

            def f(pts):
                seen.append(set(rows.tolist()))
                return ((pts - at) ** 2).sum(axis=-1)

            return f

        centers = target[:, None, :] + np.array([[0.01, -0.02], [-0.03, 0.01]])
        values = ((centers - target[:, None, :]) ** 2).sum(axis=-1)
        lo, hi = np.zeros((4, 2)), np.ones((4, 2))
        c, v = reduced.zoom_search(objective, centers, values, half, lo, hi, tol)
        assert [sum(p in rows for rows in seen) for p in range(4)] == expected
        for p in range(4):
            alone, value = reduced.zoom_search(
                lambda sel, p=p: objective(np.array([p])[sel]), centers[p : p + 1],
                values[p : p + 1], half[p : p + 1], lo[p : p + 1], hi[p : p + 1], tol,
            )
            assert alone.tobytes() == c[p : p + 1].tobytes()
            assert value.tobytes() == v[p : p + 1].tobytes()

    def test_zoom_factor_scales_exactly(self):
        # the zoom rescales each level's offsets by its dimension's factor,
        # which must be a power of two to keep the bits of offsets times
        # half-width.  On a box of width 10 (first half-width 10/128) a 1-d
        # row zooms 6 levels of 1/32 and a 2-d row 10 of 1/8: both end at
        # the half-width 10/128 * 2**-30
        first, tol = 10 / 128, reduced.DESCENT_TOL
        levels = {}
        for n in reduced._ZOOM_SHAPES:
            factor = reduced._zoom_factor(n)
            assert math.frexp(factor)[0] == 0.5 and factor < 1
            levels[n] = reduced._level_count(first, tol, factor)
            assert first * factor ** levels[n] == math.ldexp(first, -30)
        assert levels == {1: 6, 2: 10}

    def test_more_than_two_dimensions_fail_loudly(self):
        prob = make_damage1d(Damage1dSpec(N=3))
        with pytest.raises(ValueError, match="no certified step search"):
            global_min_rows(prob, [0.0], np.ones((1, 3)))


class TestOneDefinitionPerMap:
    """A batch and a single pair are priced by the same maps, bit for bit."""

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("damage", None),  # the shipped TrivialH correction
            ("delamination", None),  # the shipped TrivialH correction
            ("plasticity", QuadraticMu(mu=3.0)),
            ("damage", QuadraticMu(mu=3.0, dist="dissipation")),
            ("toy_doublewell", PowerLq(q=2.0, gamma=3.0)),
        ],
        ids=["damage-trivial", "delamination-trivial", "plasticity-quadratic",
             "damage-quadratic-d", "doublewell-power"],
    )
    def test_batch_equals_single_pairs(self, name, spec, request):
        prob = request.getfixturevalue(name)
        if spec is not None:
            prob = prob.with_correction(spec)
        memo = ResidualMemo(prob)
        rng = np.random.default_rng(19)
        lo = np.array([b[0] for b in prob.z_box])
        # 20 bases, 100 targets each: 2,000 pairs, every one finite
        for t, z in _random_steps(prob, 20, seed=17):
            hi = z if prob.unidirectional else np.array([b[1] for b in prob.z_box])
            Z = rng.uniform(lo, hi, size=(100, prob.n_z))
            vals = step_objective(prob, t, z)(Z)
            assert np.all(np.isfinite(vals))
            for i, zi in enumerate(Z):
                single = (
                    reduced_value(prob, t, zi) + prob.dissipation(z, zi)
                    + prob.correction(z, zi)
                )
                assert vals[i] == single
            # the link costs of a chain, as the DP search's all-pairs rows
            d_row, delta_row = prob.dissipation(z, Z), prob.correction(z, Z)
            for i, zi in enumerate(Z):
                chain = _build_chain(prob, t, [z, zi], ["viscous"] * 2, memo)
                assert chain.link_diss == (d_row[i],)
                assert chain.link_gap == (delta_row[i],)


def _bits(a):
    """The bytes of a float array as int64, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestRowBatch:
    """P rows searched together get the bits of P batches of one."""

    @staticmethod
    def _rows(prob, seed, extra=()):
        steps = _random_steps(prob, 24, seed) + list(extra)
        return np.array([t for t, _ in steps]), np.array([z for _, z in steps])

    @pytest.mark.parametrize(
        "name, extra",
        [
            # z_prev exactly on a grid point of the 129-point box grid
            ("toy_convex", [(0.7, [np.linspace(-10.0, 10.0, 129)[70]])]),
            ("toy_doublewell", [(0.4, [np.linspace(-3.0, 3.0, 129)[40]]), (0.9, [0.0])]),
            ("plasticity", [(1.5, [np.linspace(-5.0, 5.0, 129)[64]])]),
            # fully debonded: a degenerate box [0, 0] with a one-point grid
            ("delamination", [(0.6, [0.0]), (0.9, [0.0]), (0.3, [1.0])]),
            # symmetric states tie exactly between (a, b) and (b, a); a zero
            # cell leaves a degenerate axis
            ("damage", [(t, [c, c]) for t in (0.3, 0.6, 0.9) for c in (1.0, 0.5)]
             + [(0.8, [0.0, 0.7]), (0.5, [0.0, 0.0])]),
        ],
    )
    def test_rows_equal_batches_of_one(self, name, extra, request):
        prob = request.getfixturevalue(name)
        ts, Z = self._rows(prob, 29, extra)
        X, V = global_min_rows(prob, ts, Z)
        for p, (t, z) in enumerate(zip(ts, Z)):
            x, value = step_min(prob, t, z)
            assert (_bits(X[p]) == _bits(x)).all()
            assert _bits(V[p]) == _bits(value)

    def test_single_cell_bar_and_chunks(self, monkeypatch):
        # the 1-cell damage bar: boxes [0, z_prev] of every width, searched
        # a few rows per chunk
        prob = make_damage1d(Damage1dSpec(N=1, w_D=(0.0, 4.0)))
        ts, Z = self._rows(prob, 31, [(0.9, [0.0]), (0.9, [1e-9])])
        X, V = global_min_rows(prob, ts, Z)
        monkeypatch.setattr(reduced, "_ROW_POINTS", 3 * 130)
        X3, V3 = global_min_rows(prob, ts, Z)
        assert (_bits(X3) == _bits(X)).all() and (_bits(V3) == _bits(V)).all()
        for p, (t, z) in enumerate(zip(ts, Z)):
            x, value = step_min(prob, t, z)
            assert (_bits(X[p]) == _bits(x)).all()
            assert _bits(V[p]) == _bits(value)

    def test_symmetric_ties_pick_one_side(self):
        # a bar with a weak gradient term breaking one cell of (1, 1): the
        # candidates (0, 1) and (1, 0) tie in value and in distance to
        # z_prev, and the grid's stable order puts (0, 1) first at every
        # time, whatever CPU numpy's sort dispatches to
        prob = make_damage1d(Damage1dSpec(grad_weight=0.1))
        ts = np.linspace(0.5, 0.85, 8)
        X, _ = global_min_rows(prob, ts, np.ones((len(ts), 2)))
        for p, t in enumerate(ts):
            x, _ = step_min(prob, t, [1.0, 1.0])
            assert (_bits(X[p]) == _bits(x)).all()
        assert {tuple(x) for x in X} == {(0.0, 1.0)}

    @pytest.mark.parametrize("shift", [0, 1 << 20])
    def test_first_starts_are_the_stable_order(self, shift):
        # the grid's best points, selected: the head of the stable order on
        # rows full of ties, and of fewer points than asked, for small
        # values and for values shifted far from zero (still exact ties)
        rng = np.random.default_rng(3)
        for _ in range(500):
            P, m = rng.integers(1, 6), rng.integers(1, 400)
            vals = rng.integers(0, rng.integers(1, 6), size=(P, m)).astype(float)
            vals += shift
            vals[rng.random((P, m)) < 0.1] = INF
            order = np.argsort(vals, axis=1, kind="stable")
            for k in (1, 4):  # the starts of a 1-d and of a 2-d zoom
                assert np.array_equal(reduced._first_k(vals, k), order[:, :k])

    def test_chunk_rows(self, monkeypatch):
        # one chunk holds _ROW_POINTS objective points, a 1-d row 130 of
        # them and a 2-d row 130 ** 2; a grid of 130 ** 3 points or more
        # overflows a chunk alone, which leaves one row
        assert [reduced.chunk_rows(n) for n in (1, 2, 3, 4)] == [504, 3, 1, 1]
        # a row's grid holds more points than its zoom's first level
        for n, (points, starts) in reduced._ZOOM_SHAPES.items():
            assert starts * points**n < 130**n
        monkeypatch.setattr(reduced, "_ROW_POINTS", 100)
        assert reduced.chunk_rows(1) == 1
