"""Incremental schemes, step terms, jump detection, refinement studies."""

import dataclasses
import math

import numpy as np
import pytest

from risolve import (
    PowerLq,
    QuadraticMu,
    RisProblem,
    SchemeConfig,
    TrivialH,
    refine_study,
    solve_incremental,
    solve_lockstep,
)
from risolve import reduced, scheme
from risolve.reduced import reduced_value, step_terms
from risolve.scheme import jump_onset
from risolve.models import (
    Delamination0dSpec,
    Toy1dSpec,
    make_delamination0d,
    make_toy1d,
)

from conftest import step_min


class TestSchemeConfig:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="implicit-euler")

    def test_tau_must_be_positive(self):
        for tau in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau"):
                SchemeConfig(tau=tau)

    def test_bv_needs_epsilon(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="BV", tau=1e-3)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                SchemeConfig(scheme="BV", tau=1e-3, epsilon=eps)

    def test_bv_warns_outside_regime(self):
        with pytest.warns(UserWarning):
            SchemeConfig(scheme="BV", tau=1e-2, epsilon=1e-3)


class TestSchemeProblem:
    def test_each_scheme_installs_its_correction(self, damage):
        # E removes the model's correction, BV installs QuadraticMu(epsilon /
        # tau), VE keeps the model's own; each solves a copy
        for name, epsilon, spec in [
            ("E", 0.0, None),
            ("BV", 2.5, QuadraticMu(mu=10.0)),
            ("VE", 0.0, damage.correction_spec),
        ]:
            cfg = SchemeConfig(scheme=name, tau=0.25, epsilon=epsilon, initial_z=(1.0, 1.0))
            prob = scheme.scheme_problem(damage, cfg)
            assert prob is not damage and prob.correction_spec == spec
            disc = solve_incremental(damage, cfg)
            assert disc.problem is not damage and disc.problem.correction_spec == spec


class TestSolveIncremental:
    def test_play_operator_closed_form(self, toy_convex):
        # a=1, kappa=1, ell=2t: the rate-independent response is
        # z(t) = max(2t - 1, 0); the plain scheme lags by at most 2 tau
        tau = 1e-2
        cfg = SchemeConfig(scheme="E", tau=tau, initial_z=(0.0,))
        disc = solve_incremental(toy_convex, cfg)
        zs = disc.Z[:, 0]
        exact = np.maximum(2 * disc.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * tau

    def test_plasticity_return_mapping(self, plasticity):
        # C=1, sigma_y=1, eps=t on [0,2]: p(t) = max(t - 1, 0)
        tau = 1e-2
        cfg = SchemeConfig(scheme="VE", tau=tau, initial_z=(0.0,))
        disc = solve_incremental(plasticity.with_correction(TrivialH(h=lambda r: r**4)), cfg)
        zs = disc.Z[:, 0]
        exact = np.maximum(disc.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * tau

    def test_bv_equals_quadratic_correction(self, toy_convex):
        tau, eps = 1e-2, 0.5
        a = solve_incremental(
            toy_convex,
            SchemeConfig(scheme="BV", tau=tau, epsilon=eps, initial_z=(0.0,)),
        )
        b = solve_incremental(
            toy_convex.with_correction(QuadraticMu(mu=eps / tau)),
            SchemeConfig(scheme="VE", tau=tau, initial_z=(0.0,)),
        )
        assert np.max(np.abs(a.Z - b.Z)) < 1e-9

    def test_constant_load_stays_put(self):
        prob = make_toy1d(Toy1dSpec(well="convex", ell=(0.0, 0.0)))
        disc = solve_incremental(
            prob, SchemeConfig(scheme="E", tau=0.1, initial_z=(0.3,))
        )
        assert disc.Z[:, 0] == pytest.approx(np.full(len(disc.times), 0.3))
        d, _, gain = step_terms(disc.problem, disc.times, disc.Z)
        assert np.all(d == 0.0)
        assert np.all(gain == 0.0)

    def test_step_arrays_have_step_length(self, toy_convex):
        disc = solve_incremental(
            toy_convex, SchemeConfig(scheme="E", tau=0.25, initial_z=(0.0,))
        )
        assert len(disc.times) - 1 == 4
        for arr in step_terms(disc.problem, disc.times, disc.Z):
            assert arr.shape == (4,)

    @pytest.mark.parametrize("initial_z", [(1.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_initial_z_of_another_length_rejected(self, damage, initial_z):
        cfg = SchemeConfig(scheme="VE", tau=0.1, initial_z=initial_z)
        with pytest.raises(ValueError, match="initial_z needs n_z = 2 numbers"):
            solve_incremental(damage, cfg)

    def test_initial_z_defaults_to_zeros_of_the_model(self, damage):
        # the default fits every n_z: n_z zeros
        disc = solve_incremental(damage, SchemeConfig(tau=0.1))
        assert disc.Z[0].tolist() == [0.0, 0.0]
        given = solve_incremental(damage, SchemeConfig(tau=0.1, initial_z=(0.0, 0.0)))
        assert given.Z.tobytes() == disc.Z.tobytes()

    @pytest.mark.parametrize("tau, span", [(0.3, None), (0.3, (0.1, 0.5)), (5.0, None)])
    def test_tau_not_dividing_the_span_rejected(self, toy_convex, tau, span):
        cfg = SchemeConfig(scheme="E", tau=tau, initial_z=(0.0,), t_span=span)
        with pytest.raises(ValueError, match=f"tau = {tau:g} does not divide"):
            solve_incremental(toy_convex, cfg)

    def test_tau_within_the_node_tolerance_accepted(self, toy_convex):
        # 0.1 * 3 lands 5.6e-17 past t = 0.3, which the last node snaps to
        cfg = SchemeConfig(scheme="E", tau=0.1, t_span=(0.0, 0.3))
        disc = solve_incremental(toy_convex, cfg)
        assert len(disc.times) - 1 == 3 and disc.times[-1] == 0.3

    def test_infinite_initial_energy_rejected(self, toy_convex):
        import dataclasses

        # clip() keeps the default initial state inside the box, so force a
        # problem whose energy is infinite even on the box
        bad = dataclasses.replace(
            toy_convex, reduced_vec=lambda t, Z: np.full(np.shape(Z)[:-1], np.inf)
        )
        with pytest.raises(ValueError):
            solve_incremental(bad, SchemeConfig(scheme="E", tau=0.5))


def _stepwise(problem, cfg):
    """The scheme one step at a time: a batch of one of the step search and
    the maps on single pairs per step."""
    t0, t1 = cfg.t_span if cfg.t_span is not None else (0.0, problem.horizon)
    prob = scheme.scheme_problem(problem, cfg)
    n_steps = max(1, round((t1 - t0) / cfg.tau))
    times = t0 + cfg.tau * np.arange(n_steps + 1)
    times[-1] = t1 if abs(times[-1] - t1) < 1e-9 else times[-1]
    z = prob.clip(np.asarray(cfg.initial_z, dtype=float))
    Z, U = [z], [prob.solve_u(times[0], z)]
    vals, diss, corr, gains = (np.empty(n_steps) for _ in range(4))
    for n in range(1, n_steps + 1):
        t = times[n]
        z_new, vals[n - 1] = step_min(prob, t, z)
        diss[n - 1] = prob.dissipation(z, z_new)
        corr[n - 1] = prob.correction(z, z_new)
        gains[n - 1] = max(0.0, reduced_value(prob, t, z) - vals[n - 1])
        U.append(prob.solve_u(t, z_new))
        Z.append(z_new)
        z = z_new
    return times, np.array(Z), np.array(U), vals, diss, corr, gains


def _bits(a):
    """The bytes of a float array as int64, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _assert_same_bits(disc, ref):
    """The run's nodes, and the search values, d, delta and gains that
    ``step_terms`` reads from its states, have the bits of the stepwise
    loop's."""
    d, delta, gain = step_terms(disc.problem, disc.times, disc.Z)
    value = disc.problem.reduced_vec(disc.times[1:], disc.Z[1:]) + d
    value += delta
    for a, b in zip((disc.times, disc.Z, disc.U, value, d, delta, gain), ref, strict=True):
        assert np.array_equal(_bits(a), _bits(b))


def _counted_rows(monkeypatch):
    """Record (rows, raised) of every ``global_min_rows`` call of the scheme."""
    calls, real = [], scheme.global_min_rows

    def counted(problem, ts, Z_prev):
        try:
            out = real(problem, ts, Z_prev)
        except ValueError:
            calls.append((len(ts), True))
            raise
        calls.append((len(ts), False))
        return out

    monkeypatch.setattr(scheme, "global_min_rows", counted)
    return calls


def _guarded_toy(t_forbid):
    """The convex toy (z = max(2t - 1, 0)) whose energy is infinite near
    z = 0 from ``t_forbid`` on."""

    def reduced_vec(t, Z):
        x = Z[..., 0]
        v = 0.5 * x * x - 2.0 * t * x
        return np.where((t >= t_forbid) & (np.abs(x) < 0.05), np.inf, v)

    return RisProblem(
        n_u=0,
        n_z=1,
        reduced_vec=reduced_vec,
        power=lambda t, U, Z: -2.0 * np.asarray(Z)[..., 0],
        dissipation=lambda z, zp: np.abs(np.asarray(zp)[..., 0] - np.asarray(z)[..., 0]),
        z_box=((-10.0, 10.0),),
    )


class TestStationaryBlocks:
    """Runs of steps priced as one row batch equal the scheme step by step."""

    @pytest.mark.parametrize(
        "name, corr, cfg",
        [
            ("toy_convex", None, SchemeConfig(scheme="E", tau=1e-2, initial_z=(0.0,))),
            (
                "toy_convex", PowerLq(2, 3),
                SchemeConfig(scheme="VE", tau=1e-2, initial_z=(0.0,)),
            ),
            (
                "toy_doublewell", QuadraticMu(mu=0.01),
                SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,)),
            ),
            (
                "plasticity", None,
                SchemeConfig(scheme="BV", tau=1e-2, epsilon=0.5, initial_z=(0.0,)),
            ),
            # debonds, then searches the degenerate box [0, 0]
            (
                "delamination", TrivialH(h=lambda r: r * r),
                SchemeConfig(scheme="VE", tau=1e-2, initial_z=(1.0,)),
            ),
            (
                "damage", TrivialH(h=lambda r: 1e-4 * r**4),
                SchemeConfig(scheme="VE", tau=2.5e-2, initial_z=(1.0, 1.0)),
            ),
        ],
        ids=["convex-E", "convex-VE", "doublewell", "plasticity-BV", "delamination", "damage"],
    )
    def test_equals_stepwise_loop(self, name, corr, cfg, request, monkeypatch):
        prob = request.getfixturevalue(name).with_correction(corr)
        calls = _counted_rows(monkeypatch)
        disc = solve_incremental(prob, cfg)
        _assert_same_bits(disc, _stepwise(prob, cfg))
        assert max(rows for rows, _ in calls) > 1  # some steps were priced together

    def test_stationary_run_makes_few_searches(self, monkeypatch):
        prob = make_toy1d(Toy1dSpec(well="convex", ell=(0.0, 0.0)))
        cfg = SchemeConfig(scheme="E", tau=1e-3, initial_z=(0.3,))
        calls = _counted_rows(monkeypatch)
        disc = solve_incremental(prob, cfg)
        n, cap = len(disc.times) - 1, reduced.chunk_rows(1)
        # blocks double from one row up to cap, then take cap rows until
        # the steps run out: O(log n + n / cap) searches, not n
        blocks, left = [], n
        while left:
            blocks.append(min(2 ** len(blocks), cap, left))
            left -= blocks[-1]
        assert [rows for rows, _ in calls] == blocks
        assert len(calls) <= math.ceil(math.log2(cap)) + math.ceil(n / cap)
        assert (_bits(disc.Z) == _bits(disc.Z[0])).all()

    def test_infeasible_row_past_a_move_does_not_escape(self, monkeypatch):
        # the state leaves z = 0 at t = 0.6 inside the block of rows 0.4 to
        # 0.7, whose row at t = 0.7 is infeasible from z = 0
        prob = _guarded_toy(0.65)
        cfg = SchemeConfig(scheme="E", tau=0.1, initial_z=(0.0,))
        calls = _counted_rows(monkeypatch)
        disc = solve_incremental(prob, cfg)
        assert (4, True) in calls
        _assert_same_bits(disc, _stepwise(prob, cfg))
        assert disc.Z[6, 0] > 0.1

    def test_infeasible_row_of_a_stuck_state_raises(self):
        # from z = 0, still stuck at t = 0.4, the step is infeasible: the
        # block raises where the stepwise loop does
        prob = _guarded_toy(0.35)
        cfg = SchemeConfig(scheme="E", tau=0.1, initial_z=(0.0,))
        with pytest.raises(ValueError, match="infeasible step") as block:
            solve_incremental(prob, cfg)
        with pytest.raises(ValueError, match="infeasible step") as step:
            _stepwise(prob, cfg)
        assert str(block.value) == str(step.value)


def _assert_same_run(a, b):
    """Two DiscreteTrajectory runs agree to the bit: nodes, jump records,
    config and correction."""
    assert a.config == b.config
    assert a.problem.correction_spec == b.problem.correction_spec
    for x, y in ((a.times, b.times), (a.Z, b.Z), (a.U, b.U)):
        assert np.array_equal(_bits(x), _bits(y))
    assert len(a.jump_records) == len(b.jump_records)
    for r, s in zip(a.jump_records, b.jump_records):
        assert (r.t, r.t_end) == (s.t, s.t_end)
        for name in ("z_left", "z_inner", "z_right"):
            assert np.array_equal(_bits(getattr(r, name)), _bits(getattr(s, name)))


def _tau_runs(problem, cfg, taus):
    return [(problem, dataclasses.replace(cfg, tau=tau)) for tau in taus]


class TestLockstep:
    """Runs stepped in lockstep equal their solo runs to the bit."""

    @pytest.mark.parametrize(
        "name, corr, cfg, taus, shared",
        [
            (
                "plasticity", TrivialH(h=lambda r: r**4), SchemeConfig(scheme="VE"),
                [4e-2, 2e-2, 1e-2], True,
            ),
            # each tau has its own correction mu = epsilon / tau
            (
                "plasticity", None, SchemeConfig(scheme="BV", epsilon=0.5),
                [4e-2, 2e-2, 1e-2], False,
            ),
            (
                "damage", TrivialH(h=lambda r: 1e-4 * r**4),
                SchemeConfig(scheme="VE", initial_z=(1.0, 1.0)), [5e-2, 2.5e-2], True,
            ),
        ],
        ids=["plasticity-VE", "plasticity-BV", "damage"],
    )
    def test_tau_sweep_equals_solo_runs(self, name, corr, cfg, taus, shared, request,
                                        monkeypatch):
        prob = request.getfixturevalue(name).with_correction(corr)
        runs = _tau_runs(prob, cfg, taus)
        calls = _counted_rows(monkeypatch)
        solo = [solve_incremental(p, c) for p, c in runs]
        solo_calls = len(calls)
        calls.clear()
        for a, b in zip(solve_lockstep(runs), solo):
            _assert_same_run(a, b)
        # runs that share the step objective share searches
        assert len(calls) < solo_calls if shared else len(calls) == solo_calls

    def test_k_list_equals_solo_runs(self):
        spec = Delamination0dSpec()
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(1.0,))
        runs = [(make_delamination0d(spec, brittle=False, k=k), cfg) for k in (5.0, 50.0, 500.0)]
        for (p, c), disc in zip(runs, solve_lockstep(runs)):
            _assert_same_run(disc, solve_incremental(p, c))

    def test_failing_run_drops_out_alone(self):
        # both runs share the step objective of the guarded toy; the run
        # stuck at z = 0 hits the infinite energy at t = 0.4, the run from
        # z = 0.5 never comes near it
        prob = _guarded_toy(0.35)
        runs = [
            (prob, SchemeConfig(scheme="E", tau=0.05, initial_z=(0.5,))),
            (prob, SchemeConfig(scheme="E", tau=0.1, initial_z=(0.0,))),
        ]
        healthy, failed = solve_lockstep(runs)
        _assert_same_run(healthy, solve_incremental(*runs[0]))
        with pytest.raises(ValueError, match="infeasible step") as solo:
            solve_incremental(*runs[1])
        assert type(failed) is ValueError
        assert str(failed) == str(solo.value)

    def test_flowing_runs_share_searches(self, monkeypatch):
        # from z = -1 the convex toy flows from the start: z = 2t - 1
        prob = make_toy1d(Toy1dSpec(well="convex", ell=(0.0, 2.0)))
        cfg = SchemeConfig(scheme="E", initial_z=(-1.0,))
        runs = _tau_runs(prob, cfg, [4e-2, 2e-2, 1e-2])
        calls = _counted_rows(monkeypatch)
        discs = solve_lockstep(runs)
        assert all((step_terms(d.problem, d.times, d.Z)[0] > 0).all() for d in discs)
        steps = [len(d.times) - 1 for d in discs]
        assert len(calls) < sum(steps)
        assert len(calls) == max(steps)  # one search a round
        assert max(rows for rows, _ in calls) == len(runs)


class TestJumpDetection:
    def test_single_jump_run(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,))
        toy_doublewell = toy_doublewell.with_correction(QuadraticMu(mu=0.01))
        disc = solve_incremental(toy_doublewell, cfg)
        (rec,) = disc.jump_records
        first, _ = rec.nodes(disc.times)
        assert rec.t == disc.times[first]
        d, _, _ = step_terms(disc.problem, disc.times, disc.Z)
        assert d[first - 1] > 1.0  # the well-to-well crossing

    def test_no_jump_in_sliding_run(self, toy_convex):
        disc = solve_incremental(
            toy_convex, SchemeConfig(scheme="E", tau=1e-2, initial_z=(0.0,))
        )
        assert disc.jump_records == ()
        assert jump_onset(disc) is None

    def test_onset_matches_detected_jump_for_weak_correction(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,))
        toy_doublewell = toy_doublewell.with_correction(QuadraticMu(mu=0.01))
        disc = solve_incremental(toy_doublewell, cfg)
        (rec,) = disc.jump_records
        assert jump_onset(disc) == pytest.approx(rec.t)

    def test_median_rule_on_the_states(self, toy_convex):
        # steps of d = 0.1 with a run of two steps of d = 2 and 1.5 among
        # them: one record, its inner state after the larger step
        z = np.concatenate([0.1 * np.arange(6), 0.5 + np.array([2.0, 3.5]),
                            4.0 + 0.1 * np.arange(1, 6)])
        times = np.linspace(0.0, 1.0, len(z))
        (rec,) = scheme.jump_records(toy_convex, times, z[:, None])
        assert (rec.t, rec.t_end) == (times[6], times[7])
        assert rec.nodes(times) == (6, 7)
        assert (rec.z_left[0], rec.z_inner[0], rec.z_right[0]) == (z[5], z[6], z[7])
        # with a median of 0 a step must still exceed JUMP_FLOOR; a single
        # node has no steps
        tiny = np.r_[0.0, 0.0, 0.0, 0.5e-6][:, None]
        assert scheme.jump_records(toy_convex, times[:4], tiny) == ()
        assert scheme.jump_records(toy_convex, times[:1], z[:1, None]) == ()

    def test_runs_match_loop_reference(self):
        # the run merge read from np.diff against the plain scan it replaced
        def scan(flags):
            runs, i = [], 0
            while i < len(flags):
                if flags[i]:
                    j = i
                    while j + 1 < len(flags) and flags[j + 1]:
                        j += 1
                    runs.append((i, j))
                    i = j + 1
                else:
                    i += 1
            return runs

        rng = np.random.default_rng(7)
        for size in (1, 2, 3, 10, 50):
            for _ in range(40):
                flags = rng.random(size) < rng.random()
                assert scheme._runs(flags) == scan(flags)


class TestInterpolate:
    def test_jump_record_fields(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,))
        toy_doublewell = toy_doublewell.with_correction(QuadraticMu(mu=0.01))
        disc = solve_incremental(toy_doublewell, cfg)
        assert len(disc.jump_records) == 1
        rec = disc.jump_records[0]
        assert rec.z_left[0] == pytest.approx(-1.0, abs=0.05)
        assert rec.z_right[0] > 0.9
        assert rec.t_end >= rec.t

    def test_interpolant_is_left_continuous_at_jump(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,))
        toy_doublewell = toy_doublewell.with_correction(QuadraticMu(mu=0.01))
        traj = solve_incremental(toy_doublewell, cfg)
        rec = traj.jump_records[0]
        # rec.t is the first post-jump node: the last pre-jump state lives
        # one step earlier on the left-continuous interpolant
        left, right = traj.Z[traj.nodes_at([rec.t - cfg.tau, rec.t_end]), 0]
        assert left == pytest.approx(rec.z_left[0])
        assert right == pytest.approx(rec.z_right[0])


class TestRefineStudy:
    def test_needs_decreasing_taus(self, toy_convex):
        cfg = SchemeConfig(scheme="E", tau=1e-2, initial_z=(0.0,))
        with pytest.raises(ValueError):
            refine_study(toy_convex, cfg, [1e-2, 1e-2, 1e-3])
        with pytest.raises(ValueError):
            refine_study(toy_convex, cfg, [1e-2, 5e-3])

    def test_convex_refinement_is_cauchy(self, toy_convex):
        cfg = SchemeConfig(scheme="E", tau=1e-2, initial_z=(0.0,))
        rep = refine_study(toy_convex, cfg, [8e-3, 4e-3, 2e-3, 1e-3])
        assert rep.cauchy
        assert rep.sup_differences[-1] < rep.sup_differences[0] + 1e-12
        assert all(r < 0.1 for r in rep.balance_residuals)
