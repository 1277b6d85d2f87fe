"""Certificates, coincidence reports, stress admissibility, penalty limits."""

import dataclasses

import numpy as np
import pytest

from risolve import (
    CostBound,
    JumpRecord,
    QuadraticMu,
    RisProblem,
    SchemeConfig,
    TolConfig,
    Trajectory,
    TrivialH,
    balance_residual,
    gamma_limit_study,
    plasticity_stress_check,
    solve_incremental,
    ve_equals_e,
    verify_E,
    verify_VE,
)
from risolve import jump, verify
from risolve.cli import read_trajectory_csv, write_trajectory_csv
from risolve.models import Delamination0dSpec


@pytest.fixture
def convex_run(toy_convex):
    cfg = SchemeConfig(scheme="E", tau=5e-3, initial_z=(0.0,))
    return solve_incremental(toy_convex, cfg)


@pytest.fixture
def delam_run(delamination):
    cfg = SchemeConfig(scheme="VE", tau=5e-3, initial_z=(1.0,))
    return delamination, solve_incremental(delamination, cfg)


class TestBalance:
    def test_convex_balance_small(self, toy_convex, convex_run):
        assert balance_residual(convex_run) < 5e-2

    def test_balance_shrinks_with_tau(self, toy_convex):
        res = []
        for tau in (2e-2, 5e-3):
            disc = solve_incremental(
                toy_convex, SchemeConfig(scheme="E", tau=tau, initial_z=(0.0,))
            )
            res.append(balance_residual(disc))
        assert res[1] < res[0]

    @staticmethod
    def _cubic_load(reduced_vec):
        """A 1-d problem with load ell(t) = t^3 on the box [-10, 10]."""
        return RisProblem(
            n_u=0,
            n_z=1,
            reduced_vec=reduced_vec,
            power=lambda t, U, Z: -3.0 * np.asarray(t) ** 2 * Z[..., 0],
            dissipation=lambda Z, Zp: np.abs(Zp[..., 0] - Z[..., 0]),
            z_box=[(-10.0, 10.0)],
        )

    def test_load_work_exact_for_cubic_load(self):
        # I = z^2/2 - t^3 z with z frozen at 1: E(T) - E(0) is the load work
        # -1, so the balance is rounding; a midpoint rule on 11 nodes is off
        # by sum(dt^3)/4 = 2.5e-3
        prob = self._cubic_load(lambda t, Z: 0.5 * Z[..., 0] ** 2 - np.asarray(t) ** 3 * Z[..., 0])
        times = np.linspace(0.0, 1.0, 11)
        Z = np.ones((11, 1))
        traj = Trajectory(times=times, Z=Z, U=prob.solve_u(times, Z))
        assert verify_E(prob, traj).balance_residual <= 1e-14

    def test_node_off_box_is_infinite(self):
        # sqrt(10 - z) warns past z = 10: the balance must not price I there
        prob = self._cubic_load(lambda t, Z: np.sqrt(10.0 - Z[..., 0]) - np.asarray(t) ** 3)
        times = np.linspace(0.0, 1.0, 3)
        Z = np.array([[0.0], [20.0], [0.0]])
        traj = Trajectory(times=times, Z=Z, U=prob.solve_u(times, Z))
        assert verify._balance(prob, traj, 0.0) == np.inf


class TestCertificates:
    def test_plain_scheme_certified(self, toy_convex, convex_run):
        cert = verify_E(toy_convex, convex_run)
        assert cert.passed
        assert cert.stability_residual <= 1e-6
        assert cert.jump_checks == ()

    def test_corrected_delamination_certified(self, delam_run):
        prob, traj = delam_run
        cert = verify_VE(prob, traj)
        assert cert.passed, cert.verdict
        assert cert.minimality_residual <= 1e-8
        assert len(cert.jump_checks) == 1
        assert cert.jump_checks[0].cost_gap <= 5e-2

    def test_tampered_node_fails_stability(self, delam_run):
        prob, traj = delam_run
        # re-bond a node far past the debonding time: at strong loading the
        # bonded state is no longer stable and the certificate must fail
        Z = traj.Z.copy()
        Z[(3 * len(traj.times)) // 4] = 1.0
        forged = dataclasses.replace(traj, Z=Z)
        cert = verify_VE(prob, forged)
        assert not cert.passed
        assert not cert.verdict["stability"]


class TestJumpPricing:
    """A certificate prices each jump pair once, and refines a wide cost gap
    only when the DP chain search, the one refinement changes, applies."""

    @staticmethod
    def _jump_traj(problem, z_inner):
        times = np.array([0.0, 0.25, 0.5, 0.75])
        n = problem.n_z
        zs = [np.ones(n), np.ones(n), np.asarray(z_inner, float), np.zeros(n)]
        Z = np.array(zs)
        rec = JumpRecord(t=0.5, z_left=zs[1], z_inner=zs[2], z_right=zs[3], t_end=0.75)
        return Trajectory(times=times, Z=Z, U=problem.solve_u(times, Z), jump_records=(rec,))

    @pytest.mark.parametrize(
        "model, z_inner, pairs, calls_per_pair",
        [
            ("damage", (0.5, 0.5), 3, 1),  # n_z = 2: no DP search, no refine
            ("damage", (0.0, 0.0), 1, 1),  # one-step jump: one distinct pair
            ("delamination", (0.5,), 3, 2),  # n_z = 1: DP applies, refined
        ],
    )
    def test_calls_per_distinct_pair(self, request, monkeypatch, model, z_inner,
                                     pairs, calls_per_pair):
        problem = request.getfixturevalue(model)
        calls = []

        def wide_gap(prob, t, z_minus, z_plus, memo=None, dp_resolution=None):
            calls.append((z_minus.tobytes(), z_plus.tobytes(), dp_resolution))
            return CostBound(upper=1.0, lower=0.0)

        for module in (jump, verify):  # every binding of jump_cost
            monkeypatch.setattr(module, "jump_cost", wide_gap)
        tol = TolConfig(probe_count=2)
        cert = verify_VE(problem, self._jump_traj(problem, z_inner), tol)
        assert cert.jump_checks[0].cost_gap > tol.jump_tol
        assert len(calls) == len(set(calls)) == pairs * calls_per_pair


class TestJumpWindow:
    """Stability is not due from the node before a record's first jump node
    up to its t_end, both read from the node times."""

    def test_hand_built_window_starts_at_the_left_node(self, delamination):
        traj = TestJumpPricing._jump_traj(delamination, (0.5,))
        ts = np.array([0.2, 0.25, 0.375, 0.5, 0.6, 0.75, 0.8])
        inside = verify._in_jump_window(traj, ts)
        assert inside.tolist() == [False, True, True, True, True, False, False]

    def test_csv_gives_the_window_of_the_run(self, toy_doublewell, tmp_path):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(-1.0,))
        prob = toy_doublewell.with_correction(QuadraticMu(mu=0.01))
        disc = solve_incremental(prob, cfg)
        write_trajectory_csv(tmp_path / "dw.csv", disc)
        read = read_trajectory_csv(tmp_path / "dw.csv", prob)
        probes = verify._probe_times(disc, TolConfig().probe_count)
        inside = verify._in_jump_window(disc, probes)
        assert len(disc.jump_records) == 1 and inside.any()
        assert np.array_equal(verify._in_jump_window(read, probes), inside)


class TestCoincidence:
    def test_plasticity_coincides(self, plasticity):
        cfg = SchemeConfig(scheme="VE", tau=1e-2, initial_z=(0.0,))
        prob = plasticity.with_correction(TrivialH(p=4.0, c=1.0))
        traj = solve_incremental(prob, cfg)
        rep = ve_equals_e(prob, traj)
        assert rep.equal
        assert rep.global_stability_residual <= 1e-6
        assert rep.max_delta_c <= 1e-6

    def test_doublewell_does_not_coincide(self, toy_doublewell):
        cfg = SchemeConfig(scheme="VE", tau=5e-3, initial_z=(-1.0,))
        prob = toy_doublewell.with_correction(QuadraticMu(mu=1.0))
        traj = solve_incremental(prob, cfg)
        rep = ve_equals_e(prob, traj)
        assert not rep.equal
        # the corrected run clings to the left well past plain global
        # stability, so the pre-jump residual is macroscopic
        assert rep.global_stability_residual > 0.01


class TestStressCheck:
    def test_yield_admissibility(self, plasticity):
        # the quartic correction overshoots the yield surface by O(tau^3):
        # tau = 2e-3 keeps it ~3e-8, far inside the admissibility tolerance
        cfg = SchemeConfig(scheme="VE", tau=2e-3, initial_z=(0.0,))
        traj = solve_incremental(plasticity.with_correction(TrivialH(p=4.0, c=1.0)), cfg)
        rep = plasticity_stress_check(plasticity, traj)
        assert rep.passed
        assert rep.max_abs_stress <= rep.yield_stress + 1e-6
        assert rep.stability_agrees

    def test_requires_stress_map(self, toy_convex, convex_run):
        with pytest.raises(ValueError):
            plasticity_stress_check(toy_convex, convex_run)


class TestGammaLimit:
    def test_needs_enough_increasing_k(self):
        spec = Delamination0dSpec()
        cfg = SchemeConfig(scheme="VE", tau=2e-2)
        with pytest.raises(ValueError):
            gamma_limit_study(spec, [4.0, 16.0, 8.0, 32.0], cfg)
        with pytest.raises(ValueError):
            gamma_limit_study(spec, [4.0, 16.0], cfg)

    def test_small_penalty_sweep(self):
        spec = Delamination0dSpec()
        cfg = SchemeConfig(scheme="VE", tau=2e-2, initial_z=(1.0,))
        rep = gamma_limit_study(spec, [4.0, 16.0, 64.0, 256.0], cfg)
        assert len(rep.adhesive_trajs) == 4
        # penalization tightens the bonding constraint monotonically
        assert rep.constraint_violation[-1] < rep.constraint_violation[0]
        assert rep.sup_energy_gap[-1] < rep.sup_energy_gap[0]
        assert rep.liminf_probe_ok
