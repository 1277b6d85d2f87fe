"""Analytic checks of the four shipped model constructors."""

import numpy as np
import pytest

from risolve import reduce_energy, reduced_value
from risolve.core import INF
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


class TestToy1d:
    def test_convex_energy_values(self, toy_convex):
        # a=1, ell=2t: E(t, z) = z^2/2 - 2 t z
        assert toy_convex.energy(0.5, np.empty(0), np.array([1.0])) == pytest.approx(-0.5)
        assert toy_convex.energy(0.0, np.empty(0), np.array([2.0])) == pytest.approx(2.0)

    def test_power_is_minus_rate_times_z(self, toy_doublewell):
        # ell = 3t, so the explicit time derivative is -3 z
        assert toy_doublewell.power(0.3, np.empty(0), np.array([2.0])) == pytest.approx(-6.0)
        assert toy_doublewell.power(0.9, np.empty(0), np.array([-1.0])) == pytest.approx(3.0)

    def test_doublewell_even_in_z(self, rng):
        prob = make_toy1d(Toy1dSpec(well="doublewell", ell=(0.0, 0.0), z_box=(-3, 3)))
        for z in rng.uniform(-3, 3, size=20):
            a = prob.energy(0.0, np.empty(0), np.array([z]))
            b = prob.energy(0.0, np.empty(0), np.array([-z]))
            assert a == pytest.approx(b)

    def test_dissipation_scales_with_kappa(self):
        prob = make_toy1d(Toy1dSpec(kappa=2.5))
        assert prob.dissipation(np.array([0.0]), np.array([1.2])) == pytest.approx(3.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Toy1dSpec(well="triple")
        with pytest.raises(ValueError):
            Toy1dSpec(kappa=0.0)
        with pytest.raises(ValueError):
            Toy1dSpec(well="convex", a=-1.0)


class TestPlasticity0d:
    def test_energy_and_stress(self, plasticity):
        # C=1, eps=t: E(2, p=0.5) = (1.5)^2/2, sigma = 1.5
        assert plasticity.energy(2.0, np.empty(0), np.array([0.5])) == pytest.approx(1.125)
        assert plasticity.extras["sigma"](2.0, np.array([0.5])) == pytest.approx(1.5)

    def test_dissipation_is_yield_times_slip(self, plasticity):
        assert plasticity.dissipation(np.array([0.0]), np.array([1.0])) == pytest.approx(1.0)
        assert plasticity.dissipation(np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Plasticity0dSpec(C=0.0)
        with pytest.raises(ValueError):
            Plasticity0dSpec(sigma_y=-1.0)


class TestDamage1d:
    def test_single_cell_reduced_energy(self):
        # intact: E0 w^2/2; fully damaged: eta E0 w^2/2
        prob = make_damage1d(Damage1dSpec(N=1, w_D=(0.0, 1.0)))
        assert reduced_value(prob, 1.0, [1.0]) == pytest.approx(0.5)
        assert reduced_value(prob, 1.0, [0.0]) == pytest.approx(0.125)

    def test_uniform_bar_swap_symmetry(self, rng):
        prob = make_damage1d(Damage1dSpec(N=2, w_D=(0.0, 1.0)))
        for _ in range(10):
            a, b = rng.uniform(0, 1, size=2)
            va = reduced_value(prob, 0.7, [a, b])
            vb = reduced_value(prob, 0.7, [b, a])
            assert va == pytest.approx(vb)

    def test_energy_bounded_below_by_residual_stiffness(self, rng):
        prob = make_damage1d(Damage1dSpec(N=3, w_D=(0.0, 1.0)))
        t = 0.9
        floor = 0.5 * 0.25 * 1.0 * t**2  # all-damaged series bar
        for _ in range(25):
            z = rng.uniform(0, 1, size=3)
            u = rng.uniform(0, t, size=2)
            assert prob.energy(t, u, z) >= floor - 1e-12

    def test_healing_is_forbidden(self, damage):
        assert damage.dissipation(np.array([0.5, 0.5]), np.array([0.6, 0.5])) == INF
        assert damage.dissipation(np.array([0.5, 0.5]), np.array([0.4, 0.5])) == pytest.approx(0.1)

    def test_dissipation_uses_cell_weights(self):
        prob = make_damage1d(Damage1dSpec(N=2, kappa=(1.0, 3.0)))
        d = prob.dissipation(np.array([1.0, 1.0]), np.array([0.5, 0.75]))
        assert d == pytest.approx(1.0 * 0.5 + 3.0 * 0.25)

    def test_recovery_transform_preserves_energy_gap(self):
        # push a competitor below a converging sequence: z_n -> z, and the
        # clipped competitors min((z' - delta_n)^+, z_n) must stay admissible
        # and recover the energy difference in the limit
        prob = make_damage1d(Damage1dSpec(N=2, w_D=(0.0, 1.0)))
        t = 0.8
        z = np.array([0.6, 0.7])
        zp = np.array([0.3, 0.5])  # a genuine competitor, zp <= z
        target = reduced_value(prob, t, zp) - reduced_value(prob, t, z)
        gaps = []
        for n in (10, 100, 1000):
            delta = 1.0 / n
            zn = z + delta * np.array([1.0, -1.0]) / 2  # z_n -> z
            zpn = np.minimum(np.maximum(zp - delta, 0.0), zn)
            assert np.all(zpn <= zn + 1e-15)  # admissible direction
            gaps.append(reduced_value(prob, t, zpn) - reduced_value(prob, t, zn))
        assert gaps[-1] == pytest.approx(target, abs=1e-2)
        assert abs(gaps[2] - target) < abs(gaps[0] - target)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Damage1dSpec(N=0)
        with pytest.raises(ValueError):
            Damage1dSpec(eta=1.0)
        with pytest.raises(ValueError):
            Damage1dSpec(r=1.0)
        with pytest.raises(ValueError):
            Damage1dSpec(kappa=(1.0, 0.0))
        with pytest.raises(ValueError):
            make_damage1d(Damage1dSpec(N=3, E0=(1.0, 2.0)))


class TestDelamination0d:
    def test_brittle_bonded_energy_is_series_spring(self, delamination):
        # ks = km kp / (km + kp) = 2, L = 2t, bonded: ks L^2 / 2 - a0 z
        t = 0.5
        res = reduce_energy(delamination, t, np.array([1.0]))
        assert res.value == pytest.approx(0.5 * 2.0 * 1.0 - 1.0)
        assert res.u[0] == pytest.approx(res.u[1])  # gap closed

    def test_detached_energy(self, delamination):
        res = reduce_energy(delamination, 0.5, np.array([0.0]))
        assert res.value == pytest.approx(0.0)
        assert res.u[1] - res.u[0] == pytest.approx(1.0)  # gap = ell

    def test_open_gap_with_bonding_is_infinite(self, delamination):
        assert delamination.energy(0.5, np.array([0.0, 1.0]), np.array([1.0])) == INF

    def test_penetration_is_infinite(self, delamination):
        assert delamination.energy(0.5, np.array([1.0, 0.5]), np.array([0.0])) == INF

    def test_adhesive_below_brittle_and_monotone_in_k(self):
        spec = Delamination0dSpec()
        brittle = make_delamination0d(spec, brittle=True)
        t, z = 0.7, np.array([1.0])
        vb = reduced_value(brittle, t, z)
        prev = -INF
        for k in (1.0, 10.0, 100.0, 1000.0):
            adh = make_delamination0d(spec, brittle=False, k=k)
            v = reduced_value(adh, t, z)
            assert v <= vb + 1e-12  # finite penalty relaxes the constraint
            assert v >= prev - 1e-12
            prev = v
        assert vb - prev < 0.05  # large k approaches the brittle value

    def test_healing_is_forbidden(self, delamination):
        assert delamination.dissipation(np.array([0.2]), np.array([0.3])) == INF

    def test_adhesive_needs_penalty(self):
        with pytest.raises(ValueError):
            make_delamination0d(Delamination0dSpec(), brittle=False)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Delamination0dSpec(k_minus=0.0)
        with pytest.raises(ValueError):
            Delamination0dSpec(kappa=0.0)
        with pytest.raises(ValueError):
            Delamination0dSpec(a0=-1.0)
