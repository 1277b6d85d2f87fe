"""Reduced energies and the corrected global minimization step.

Every nontrivial expected value is recomputed here by an independent brute
force (dense grid plus local refinement) rather than trusted from the
production path.
"""

import dis
import inspect
import math
import sys

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
    """The step search: a coarse grid, then a zoom on its best point."""

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

        centers = np.array([[-0.0], [0.0]])
        values = np.array([0.0, 0.09])
        half = np.array([[0.0], [1.0]])
        lo, hi = np.full((2, 1), -1.0), np.full((2, 1), 1.0)
        c, v = reduced.zoom_search(objective, centers, values, half, lo, hi, 1e-10)
        assert np.signbit(c[0, 0]) and v[0] == 0.0
        assert c[1, 0] == pytest.approx(0.3, abs=1e-10)
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
        window = reduced._ZOOM_SHAPES[2] ** 2
        # the grid and the staying state, then one window a row, before and
        # after the row of the smallest box stops
        assert sizes == {(3, 129 * 129 + 1), (3, window), (2, window)}

    @staticmethod
    def _record_calls(monkeypatch) -> list:
        """The batch shapes every step objective is called on, in order."""
        calls = []
        objective = reduced.step_objective

        def spy(problem, t, z_prev):
            f = objective(problem, t, z_prev)

            def g(pts):
                calls.append(pts.shape)
                return f(pts)

            return g

        monkeypatch.setattr(reduced, "step_objective", spy)
        return calls

    def test_lone_flowing_step_makes_seven_objective_calls(self, plasticity, monkeypatch):
        calls = self._record_calls(monkeypatch)
        # on the yield surface at t = 1.499 and loaded on to t = 1.5: it flows
        x, _ = global_min_rows(plasticity, [1.5], [[0.499]])
        assert x[0, 0] == pytest.approx(0.5, abs=1e-7)
        # the 129-point grid plus z_prev's clipped copy, and z_prev itself
        # for staying put, then 6 zoom levels of the best grid point's
        # 65-point window: the box's half-width 10/128 stays at least
        # DESCENT_TOL for 6 shrinks by 1/32
        assert calls == [(1, 131, 1)] + [(1, 65, 1)] * 6

    def test_lone_2d_step_zooms_one_window_a_level(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        global_min_rows(make_damage1d(Damage1dSpec()), [0.55], [[0.7, 0.9]])
        # the 129**2 grid of the box [0, 0.7] x [0, 0.9], which holds z_prev
        # at its corner, and z_prev itself; then the best grid point's
        # 17**2-point window at each of the 9 levels that take the widest
        # half-width 0.9/128 below DESCENT_TOL by factors of 1/8
        assert calls == [(1, 129**2 + 1, 2)] + [(1, 17**2, 2)] * 9

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

        centers = target + np.array([0.01, -0.02])
        values = ((centers - target) ** 2).sum(axis=-1)
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


# the plasticity fixture's grid point 2.8125, where a flow to 2.812501 gains
# only 5e-13 more than stopping at it
_GRID_TIE = np.linspace(-5.0, 5.0, 129)[100]

# rows added to the random ones of each fixture.  A batch of one 1-d row is
# searched by ``reduced._lone_row``, so in 1-d these reach each of its
# branches; the batch of many rows is ``_step_rows``, the reference
_EXTRA_ROWS = [
    # z_prev exactly on a grid point of the 129-point box grid; -0.0, which
    # stays put
    ("toy_convex", [(0.7, [np.linspace(-10.0, 10.0, 129)[70]]), (0.2, [-0.0])]),
    ("toy_doublewell", [(0.4, [np.linspace(-3.0, 3.0, 129)[40]]), (0.9, [0.0])]),
    ("plasticity", [
        (1.5, [np.linspace(-5.0, 5.0, 129)[64]]),
        # 5e-9 above the lower edge, whose value is 5e-10 below staying
        # put: staying put is picked in the band, and snaps to the edge
        (-6.1 + 5e-9, [-5.0 + 5e-9]),
        # 5e-9 below the upper edge, whose value is 5e-9 above staying put:
        # the snap is refused
        (5.0, [5.0 - 5e-9]),
        # 5e-13 past the box, which ``inside`` accepts: the snap to the edge
        # is in the band but above staying put, which wins
        (4.5, [5.0 + 5e-13]),
        # the grid point ties with the zoom's better point and is nearer
        (_GRID_TIE + 1.0 + 1e-6, [0.0]),
    ]),
    # fully debonded: a degenerate box [0, 0] with a one-point grid and no
    # zoom level
    ("delamination", [(0.6, [0.0]), (0.9, [0.0]), (0.3, [1.0])]),
    # symmetric states tie exactly between (a, b) and (b, a); a zero
    # cell leaves a degenerate axis
    ("damage", [(t, [c, c]) for t in (0.3, 0.6, 0.9) for c in (1.0, 0.5)]
     + [(0.8, [0.0, 0.7]), (0.5, [0.0, 0.0])]),
]


class TestRowBatch:
    """P rows searched together get the bits of P batches of one."""

    @staticmethod
    def _rows(prob, seed, extra=()):
        steps = _random_steps(prob, 24, seed) + list(extra)
        return np.array([t for t, _ in steps]), np.array([z for _, z in steps])

    @pytest.mark.parametrize("name, extra", _EXTRA_ROWS)
    def test_rows_equal_batches_of_one(self, name, extra, request):
        prob = request.getfixturevalue(name)
        ts, Z = self._rows(prob, 29, extra)
        X, V = global_min_rows(prob, ts, Z)
        for p, (t, z) in enumerate(zip(ts, Z)):
            x, value = step_min(prob, t, z)
            assert (_bits(X[p]) == _bits(x)).all()
            assert _bits(V[p]) == _bits(value)

    def test_extra_rows_reach_every_branch_of_the_lone_search(self, request):
        # a line trace of reduced._lone_row over the 1-d extra rows: every
        # line runs but the two raises, which the infeasible-step tests reach
        code = reduced._lone_row.__code__
        source, first = inspect.getsourcelines(reduced._lone_row)
        raises = {first + i for i, text in enumerate(source) if text.strip().startswith("raise")}
        seen = set()

        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is code else None)
        try:
            for name, extra in _EXTRA_ROWS:
                prob = request.getfixturevalue(name)
                if prob.n_z == 1:
                    for t, z in extra:
                        step_min(prob, t, z)
        finally:
            sys.settrace(previous)
        lines = {line for _, line in dis.findlinestarts(code) if line is not None}
        lines.discard(first)  # the def line, which traces no statement
        assert lines - seen == raises and len(raises) == 2
        # the tie: the nearer grid point wins over a point up to the band lower
        prob = request.getfixturevalue("plasticity")
        t = _GRID_TIE + 1.0 + 1e-6
        x, value = step_min(prob, t, [0.0])
        better = step_objective(prob, t, np.zeros(1))(np.array([[t - 1.0]]))[0]
        assert x[0] == _GRID_TIE and 0 < value - better <= reduced.NEAR_OPTIMAL_BAND

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

    def test_chunk_rows(self, monkeypatch):
        # one chunk holds _ROW_POINTS objective points, a 1-d row 130 of
        # them and a 2-d row 130 ** 2; a grid of 130 ** 3 points or more
        # overflows a chunk alone, which leaves one row
        assert [reduced.chunk_rows(n) for n in (1, 2, 3, 4)] == [504, 3, 1, 1]
        # a row's grid holds more points than its zoom's first level
        for n, points in reduced._ZOOM_SHAPES.items():
            assert points**n < 130**n
        monkeypatch.setattr(reduced, "_ROW_POINTS", 100)
        assert reduced.chunk_rows(1) == 1
