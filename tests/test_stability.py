"""Residual stability, ratio probe, exponent compatibility."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from risolve import (
    QuadraticMu,
    ResidualMemo,
    TrivialH,
    correction_ratio_check,
    exponent_check,
)
from risolve import solve_incremental, stability
from risolve.cli import load_config
from risolve.models import Damage1dSpec, make_damage1d

from conftest import residual_at


class TestResidualMemo:
    def test_computes_each_point_once(self, toy_convex, monkeypatch):
        rows = []
        real = stability.residual_rows
        expected, _ = residual_at(toy_convex, 1.0, [0.0])

        def counted(problem, ts, Z):
            rows.extend(zip(ts.tolist(), Z.tolist()))
            return real(problem, ts, Z)

        monkeypatch.setattr(stability, "residual_rows", counted)
        memo = ResidualMemo(toy_convex)
        [first] = memo.fill([1.0], [[0.0]])
        assert memo.fill([1.0], np.array([[0.0]])) == [first]
        assert first == expected
        memo.fill([1.0, 0.5, 1.0], [[1.5], [0.0], [1.5]])
        assert rows == [(1.0, [0.0]), (1.0, [1.5]), (0.5, [0.0])]

    def test_refuses_another_problem(self, toy_convex):
        memo = ResidualMemo(toy_convex)
        assert stability.use_memo(memo, toy_convex) is memo
        with pytest.raises(ValueError):
            stability.use_memo(memo, toy_convex.with_correction(None))


class TestResidualStability:
    def test_unstable_convex_state(self, toy_convex):
        # t=1: I(z) = z^2/2 - 2z; from z=0 the best competitor is z'=1:
        # I(1) + d(0,1) = -1.5 + 1 = -0.5, so R = 0 - (-0.5) = 0.5
        residual, witness = residual_at(toy_convex, 1.0, [0.0])
        assert residual == pytest.approx(0.5, abs=1e-8)
        assert witness[0] == pytest.approx(1.0, abs=1e-6)

    def test_stable_state_has_zero_residual(self, toy_convex):
        # |I'(1.5)| = |1.5 - 2| = 0.5 < kappa at t=1: inside the stable set
        residual, _ = residual_at(toy_convex, 1.0, [1.5])
        assert residual == 0.0

    def test_correction_enlarges_stable_set(self, toy_convex):
        plain, _ = residual_at(toy_convex, 1.0, [0.0])
        corrected, _ = residual_at(toy_convex.with_correction(QuadraticMu(mu=1.0)), 1.0, [0.0])
        assert corrected <= plain
        # brute force the corrected infimum: z^2/2 - 2z + |z| + (z^2)/2
        zs = np.linspace(-10, 10, 200001)
        best = np.min(zs**2 / 2 - 2 * zs + np.abs(zs) + zs**2 / 2)
        assert corrected == pytest.approx(0.0 - best, abs=1e-7)

    def test_infinite_energy_state_rejected(self, toy_convex):
        with pytest.raises(ValueError):
            residual_at(toy_convex, 0.5, [20.0])


class TestCorrectionRatio:
    def test_quadratic_ratio_decays(self, toy_convex):
        prob = toy_convex.with_correction(QuadraticMu(mu=1.0))
        scales = [2.0 ** (-k) for k in range(8)]
        rows, ok = correction_ratio_check(prob, [0.0], [1.0], scales)
        assert ok
        ratios = [r.ratio for r in rows if not r.skipped]
        # delta/d = s/2 for the quadratic correction along a unit ray
        assert ratios[0] == pytest.approx(0.5, abs=1e-12)
        assert ratios[-1] == pytest.approx(2.0 ** (-8), abs=1e-12)

    def test_first_order_perturbation_fails(self, toy_convex):
        prob = toy_convex.with_correction(TrivialH(p=1.0, c=1.0))
        scales = [2.0 ** (-k) for k in range(8)]
        _, ok = correction_ratio_check(prob, [0.0], [1.0], scales)
        assert not ok

    @pytest.mark.parametrize(
        "spec",
        [TrivialH(p=2.0, c=1.0), QuadraticMu(mu=2.0, dist="dissipation")],
        ids=["trivial-h", "mu-on-d"],
    )
    def test_correction_on_d_prices_d_once(self, toy_convex, spec):
        # a correction defined on d takes the probe's d: one dissipation
        # call per scale, and each ratio has the bits of the correction
        # pricing d itself
        calls = []

        def dissipation(z, zp):
            calls.append(1)
            return toy_convex.dissipation(z, zp)

        prob = replace(toy_convex, dissipation=dissipation).with_correction(spec)
        scales = [2.0 ** (-k) for k in range(6)]
        rows, ok = correction_ratio_check(prob, [0.3], [1.0], scales)
        assert ok and len(calls) == len(scales)
        for row in rows:
            zp = np.array([0.3 + row.scale])
            d = float(toy_convex.dissipation(np.array([0.3]), zp))
            expected = float(prob.correction(np.array([0.3]), zp)) / d
            assert np.float64(row.ratio).tobytes() == np.float64(expected).tobytes()

    def test_forbidden_direction_skipped(self):
        prob = make_damage1d(Damage1dSpec())
        rows, ok = correction_ratio_check(
            prob, [0.5, 0.5], [1.0, 0.0], [0.1, 0.05, 0.01]
        )
        assert all(r.skipped for r in rows)
        assert not ok


class TestExponentCheck:
    def test_reference_case_exact(self):
        rep = exponent_check(3, 2, 2, 3)
        assert rep.theta == Fraction(3, 5)
        assert rep.gamma_threshold == Fraction(5, 2)
        assert rep.theta_in_range
        # (1 - theta) q = 4/5 < 1 here: the plain interpolation route fails,
        # which is exactly why the gamma threshold is needed
        assert not rep.interpolation_ok
        assert not rep.r_gt_d
        assert rep.compatibility_below  # 2 > 2*3/(2+3)
        assert rep.gamma_ok

    def test_gamma_at_threshold_rejected(self):
        rep = exponent_check(3, 2, 2, Fraction(5, 2))
        assert not rep.gamma_ok
        assert exponent_check(3, 2, 2, Fraction(5, 2) + Fraction(1, 1000)).gamma_ok

    def test_compatibility_below_boundary(self):
        # r = qd/(q+d) exactly is not strict
        rep = exponent_check(3, Fraction(6, 5), 2, 3)
        assert not rep.compatibility_below
        assert exponent_check(3, Fraction(6, 5) + Fraction(1, 100), 2, 3).compatibility_below

    def test_input_validation(self):
        with pytest.raises(ValueError):
            exponent_check(4, 2, 2, 3)
        with pytest.raises(ValueError):
            exponent_check(3, 1, 2, 3)
        with pytest.raises(ValueError):
            exponent_check(3, 2, 2, 1)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestSeededMemo:
    """A node the scheme stayed at takes the step's gain as its residual."""

    @pytest.mark.parametrize(
        "config",
        ["delamination0d.ini", "damage1d.ini", "plasticity0d.ini", "toy_convex.ini"],
    )
    def test_seeded_entries_equal_fresh_ones(self, config, monkeypatch):
        run = load_config(CONFIG_DIR / config)
        disc = solve_incremental(run.problem, run.scheme)
        seeded = ResidualMemo(disc.problem)
        seeded.seed_from(disc)
        stayed = [
            n for n in range(1, len(disc.times))
            if disc.Z[n].tobytes() == disc.Z[n - 1].tobytes()
        ]
        assert len(stayed) >= len(disc.times) // 2
        ts = disc.times[stayed]
        Z = disc.Z[stayed]
        fresh = ResidualMemo(disc.problem).fill(ts, Z)

        def unpriced(*args, **kwargs):
            raise AssertionError("a seeded residual was computed")

        monkeypatch.setattr(stability, "residual_rows", unpriced)
        got = seeded.fill(ts, Z)
        # bit for bit, so a -0.0 differs from 0.0
        assert (np.array(got).view(np.int64) == np.array(fresh).view(np.int64)).all()

    @pytest.mark.parametrize("config", ["delamination0d.ini", "damage1d.ini"])
    def test_seeded_witness_is_the_node(self, config, monkeypatch):
        # the step stayed at z_n, so the search from z_n at t_n goes nowhere
        run = load_config(CONFIG_DIR / config)
        disc = solve_incremental(run.problem, run.scheme)
        seeded = ResidualMemo(disc.problem)
        seeded.seed_from(disc)
        stayed = [
            n for n in range(1, len(disc.times))
            if disc.Z[n].tobytes() == disc.Z[n - 1].tobytes()
        ][:: 10]
        fresh = ResidualMemo(disc.problem)
        fresh.fill(disc.times[stayed], disc.Z[stayed])

        def unpriced(*args, **kwargs):
            raise AssertionError("a seeded witness was computed")

        monkeypatch.setattr(stability, "residual_rows", unpriced)
        for n in stayed:
            t, z = disc.times[n], disc.Z[n]
            assert seeded.witness(t, z).tobytes() == z.tobytes()
            assert fresh.witness(t, z).tobytes() == z.tobytes()

    def test_refuses_a_run_of_another_config(self):
        run = load_config(CONFIG_DIR / "delamination0d.ini")
        disc = solve_incremental(run.problem, replace(run.scheme, tau=0.1))
        # the scheme solves a corrected copy of the model, not the model itself
        memo = ResidualMemo(run.problem)
        assert disc.problem is not run.problem
        with pytest.raises(ValueError):
            memo.seed_from(disc)


class TestFill:
    def test_witness_is_the_searched_competitor(self, toy_doublewell, monkeypatch):
        memo = ResidualMemo(toy_doublewell)
        ts = np.array([0.2, 0.7, 0.9])
        Z = np.array([[-1.0], [0.3], [1.2]])
        memo.fill(ts, Z)
        witnesses = [residual_at(toy_doublewell, t, z)[1] for t, z in zip(ts, Z)]
        monkeypatch.setattr(stability, "residual_rows", None)  # nothing is searched twice
        for t, z, witness in zip(ts, Z, witnesses):
            assert memo.witness(t, z).tobytes() == witness.tobytes()

    def test_fill_equals_single_calls(self, toy_doublewell):
        memo = ResidualMemo(toy_doublewell)
        ts = np.array([0.2, 0.2, 0.7, 0.9, 0.7])
        Z = np.array([[-1.0], [-1.0], [0.3], [1.2], [0.3]])
        got = memo.fill(ts, Z)
        assert got[0] == got[1] and got[2] == got[4]
        for r, t, z in zip(got, ts, Z):
            assert r == residual_at(toy_doublewell, t, z)[0]
        assert memo.fill([], np.empty((0, 1))) == []
