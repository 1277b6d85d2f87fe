"""Incremental schemes, jump detection, interpolants, refinement studies."""

import numpy as np
import pytest

from risolve import (
    QuadraticMu,
    SchemeConfig,
    TrivialH,
    interpolate,
    refine_study,
    solve_incremental,
)
from risolve import scheme
from risolve.scheme import detect_jumps, jump_onset
from risolve.models import (
    Damage1dSpec,
    Plasticity0dSpec,
    Toy1dSpec,
    make_damage1d,
    make_plasticity0d,
    make_toy1d,
)


class TestSchemeConfig:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="implicit-euler")

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            SchemeConfig(tau=0.0)

    def test_bv_needs_epsilon(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="BV", tau=1e-3)

    def test_bv_warns_outside_regime(self):
        with pytest.warns(UserWarning):
            SchemeConfig(scheme="BV", tau=1e-2, epsilon=1e-3)


class TestSolveIncremental:
    def test_play_operator_closed_form(self, toy_convex):
        # a=1, kappa=1, ell=2t: the rate-independent response is
        # z(t) = max(2t - 1, 0); the plain scheme lags by at most 2 tau
        tau = 1e-2
        cfg = SchemeConfig(scheme="E", tau=tau, initial_z=(0.0,))
        disc = solve_incremental(toy_convex, cfg)
        zs = np.array([s.z[0] for s in disc.states])
        exact = np.maximum(2 * disc.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * tau

    def test_plasticity_return_mapping(self, plasticity):
        # C=1, sigma_y=1, eps=t on [0,2]: p(t) = max(t - 1, 0)
        tau = 1e-2
        cfg = SchemeConfig(
            scheme="VE",
            tau=tau,
            correction=TrivialH(h=lambda r: r**4),
            initial_z=(0.0,),
        )
        disc = solve_incremental(plasticity, cfg)
        zs = np.array([s.z[0] for s in disc.states])
        exact = np.maximum(disc.times - 1.0, 0.0)
        assert np.max(np.abs(zs - exact)) <= 5 * tau

    def test_bv_equals_quadratic_correction(self, toy_convex):
        tau, eps = 1e-2, 0.5
        a = solve_incremental(
            toy_convex,
            SchemeConfig(scheme="BV", tau=tau, epsilon=eps, initial_z=(0.0,)),
        )
        b = solve_incremental(
            toy_convex,
            SchemeConfig(
                scheme="VE",
                tau=tau,
                correction=QuadraticMu(mu=eps / tau),
                initial_z=(0.0,),
            ),
        )
        za = np.array([s.z[0] for s in a.states])
        zb = np.array([s.z[0] for s in b.states])
        assert np.max(np.abs(za - zb)) < 1e-9

    def test_constant_load_stays_put(self):
        prob = make_toy1d(Toy1dSpec(well="convex", ell=(0.0, 0.0)))
        disc = solve_incremental(
            prob, SchemeConfig(scheme="E", tau=0.1, initial_z=(0.3,))
        )
        assert all(s.z[0] == pytest.approx(0.3) for s in disc.states)
        assert np.all(disc.step_diss == 0.0)
        assert np.all(disc.step_gain == 0.0)

    def test_step_arrays_have_step_length(self, toy_convex):
        disc = solve_incremental(
            toy_convex, SchemeConfig(scheme="E", tau=0.25, initial_z=(0.0,))
        )
        assert disc.n_steps == 4
        for arr in (disc.step_values, disc.step_diss, disc.step_corr, disc.step_gain):
            assert arr.shape == (4,)

    def test_infinite_initial_energy_rejected(self, toy_convex):
        import dataclasses

        # clip() keeps the default initial state inside the box, so force a
        # problem whose energy is infinite even on the box
        bad = dataclasses.replace(
            toy_convex, reduced_vec=lambda t, Z: np.full(np.shape(Z)[:-1], np.inf)
        )
        with pytest.raises(ValueError):
            solve_incremental(bad, SchemeConfig(scheme="E", tau=0.5))


class TestJumpDetection:
    def test_single_jump_run(self, toy_doublewell):
        cfg = SchemeConfig(
            scheme="VE",
            tau=1e-2,
            correction=QuadraticMu(mu=0.01),
            initial_z=(-1.0,),
        )
        disc = solve_incremental(toy_doublewell, cfg)
        runs = detect_jumps(disc)
        assert len(runs) == 1
        a, b = runs[0]
        assert disc.step_diss[a] > 1.0  # the well-to-well crossing

    def test_no_jump_in_sliding_run(self, toy_convex):
        disc = solve_incremental(
            toy_convex, SchemeConfig(scheme="E", tau=1e-2, initial_z=(0.0,))
        )
        assert detect_jumps(disc) == []
        assert jump_onset(disc) is None

    def test_onset_matches_detected_jump_for_weak_correction(self, toy_doublewell):
        cfg = SchemeConfig(
            scheme="VE",
            tau=1e-2,
            correction=QuadraticMu(mu=0.01),
            initial_z=(-1.0,),
        )
        disc = solve_incremental(toy_doublewell, cfg)
        (a, _), = detect_jumps(disc)
        assert jump_onset(disc) == pytest.approx(float(disc.times[a + 1]))


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
        cfg = SchemeConfig(
            scheme="VE",
            tau=1e-2,
            correction=QuadraticMu(mu=0.01),
            initial_z=(-1.0,),
        )
        disc = solve_incremental(toy_doublewell, cfg)
        traj = interpolate(disc)
        assert len(traj.jump_records) == 1
        rec = traj.jump_records[0]
        assert rec.z_left[0] == pytest.approx(-1.0, abs=0.05)
        assert rec.z_right[0] > 0.9
        assert rec.t_end >= rec.t
        assert traj.meta["scheme"] == "VE"

    def test_interpolant_is_left_continuous_at_jump(self, toy_doublewell):
        cfg = SchemeConfig(
            scheme="VE",
            tau=1e-2,
            correction=QuadraticMu(mu=0.01),
            initial_z=(-1.0,),
        )
        traj = interpolate(solve_incremental(toy_doublewell, cfg))
        rec = traj.jump_records[0]
        # rec.t is the first post-jump node: the last pre-jump state lives
        # one step earlier on the left-continuous interpolant
        tau = traj.meta["tau"]
        assert traj.state_at(rec.t - tau).z[0] == pytest.approx(rec.z_left[0])
        assert traj.state_at(rec.t_end).z[0] == pytest.approx(rec.z_right[0])


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
