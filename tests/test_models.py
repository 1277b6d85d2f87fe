"""Analytic checks of the four shipped model constructors."""

import math

import numpy as np
import pytest

from risolve import PowerLq, QuadraticMu, reduced_value
from risolve.core import INF
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

    def test_energy_gradient_term_has_the_batch_bits(self, rng):
        # at t = 0 the bar is unloaded: E(0, 0, z) and I(0, z) are both the
        # gradient term, and a single state gets a batch's bits (r = 2.5
        # takes numpy's power, whose scalar form differs in the last bit)
        prob = make_damage1d(Damage1dSpec(N=3, r=2.5, w_D=(0.0, 1.0)))
        for z in rng.uniform(0, 1, size=(200, 3)):
            e = prob.energy(0.0, np.zeros(2), z)
            assert e == float(prob.reduced_vec(0.0, z[None])[0]) and e > 0.0

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
        t, z = 0.5, np.array([1.0])
        assert reduced_value(delamination, t, z) == pytest.approx(0.5 * 2.0 * 1.0 - 1.0)
        u = delamination.solve_u(t, z)
        assert u[0] == pytest.approx(u[1])  # gap closed

    def test_detached_energy(self, delamination):
        z = np.array([0.0])
        assert reduced_value(delamination, 0.5, z) == pytest.approx(0.0)
        u = delamination.solve_u(0.5, z)
        assert u[1] - u[0] == pytest.approx(1.0)  # gap = ell

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

    def test_brittle_takes_no_penalty(self):
        with pytest.raises(ValueError, match="'k'"):
            make_delamination0d(Delamination0dSpec(), k=5.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Delamination0dSpec(k_minus=0.0)
        with pytest.raises(ValueError):
            Delamination0dSpec(kappa=0.0)
        with pytest.raises(ValueError):
            Delamination0dSpec(a0=-1.0)


# every numeric field of each spec, with a non-finite value in its place
_NON_FINITE = [
    (Toy1dSpec, "kappa", math.nan),
    (Toy1dSpec, "a", math.inf),
    (Toy1dSpec, "b", -math.inf),
    (Toy1dSpec, "w", math.nan),
    (Toy1dSpec, "ell", (0.0, math.nan)),
    (Toy1dSpec, "horizon", math.inf),
    (Toy1dSpec, "z_box", (-math.inf, 10.0)),
    (Plasticity0dSpec, "C", math.inf),
    (Plasticity0dSpec, "sigma_y", math.nan),
    (Plasticity0dSpec, "eps", (math.inf, 1.0)),
    (Plasticity0dSpec, "horizon", math.nan),
    (Plasticity0dSpec, "z_box", (-5.0, math.nan)),
    (Damage1dSpec, "E0", (1.0, math.inf)),
    (Damage1dSpec, "eta", math.nan),
    (Damage1dSpec, "r", math.inf),
    (Damage1dSpec, "grad_weight", math.nan),
    (Damage1dSpec, "grad_weight", math.inf),
    (Damage1dSpec, "kappa", math.inf),
    (Damage1dSpec, "w_D", (0.0, math.nan)),
    (Damage1dSpec, "horizon", math.inf),
    (Delamination0dSpec, "k_minus", math.inf),
    (Delamination0dSpec, "k_plus", math.nan),
    (Delamination0dSpec, "a0", math.inf),
    (Delamination0dSpec, "kappa", math.nan),
    (Delamination0dSpec, "ell", (math.nan, 2.0)),
    (Delamination0dSpec, "horizon", -math.inf),
]


@pytest.mark.parametrize(
    "cls, name, value", _NON_FINITE,
    ids=[f"{cls.__name__}-{name}-{value}" for cls, name, value in _NON_FINITE],
)
def test_non_finite_spec_field_is_named(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
        cls(**{name: value})


def test_negative_grad_weight_is_refused():
    # a negative weight would make the gradient term gw sum |z_{i+1} -
    # z_i|^r / (r h^(r - 1)) reward damage that differs between cells; 0 is
    # the bar without the term
    with pytest.raises(ValueError, match=r"^grad_weight must be >= 0, got -1$"):
        Damage1dSpec(grad_weight=-1)
    Damage1dSpec(grad_weight=0.0)


# ---------------------------------------------------------------------------
# every map prices a batch in either memory layout to the same bits


def _bits(a):
    """The bytes of a float array as int64, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


_LAYOUT_MODELS = {
    "toy-convex": lambda: make_toy1d(Toy1dSpec(correction=QuadraticMu(mu=2.0))),
    "toy-doublewell": lambda: make_toy1d(
        Toy1dSpec(well="doublewell", z_box=(-3.0, 3.0), correction=PowerLq(q=2.0, gamma=3.0))
    ),
    "plasticity": lambda: make_plasticity0d(
        Plasticity0dSpec(correction=QuadraticMu(mu=3.0, dist="dissipation"))
    ),
    "damage-N1": lambda: make_damage1d(Damage1dSpec(N=1)),
    "damage-N2": lambda: make_damage1d(Damage1dSpec(N=2, E0=(1.0, 2.0), kappa=(1.0, 3.0))),
    "damage-N2-power": lambda: make_damage1d(
        Damage1dSpec(N=2, correction=PowerLq(q=3.0, gamma=2.0))
    ),
    "damage-N3": lambda: make_damage1d(
        Damage1dSpec(N=3, kappa=(1.0, 2.0, 3.0), correction=QuadraticMu(mu=2.0))
    ),
    "delamination-brittle": lambda: make_delamination0d(Delamination0dSpec()),
    "delamination-adhesive": lambda: make_delamination0d(
        Delamination0dSpec(), brittle=False, k=50.0
    ),
}


@pytest.mark.parametrize("name", list(_LAYOUT_MODELS))
def test_maps_are_layout_independent(name):
    """A (P, M, n_z) batch in C order, its cell-major copy (Z[..., j] one
    contiguous plane, as the step search builds it) and each state priced
    alone give the same bits, in every map and in the step objective.  The
    maps of u take the batch's own minimizing u, (P, M, n_u), cell-major
    with the cell-major batch."""
    prob = _LAYOUT_MODELS[name]()
    P, M, n = 3, 6, prob.n_z
    rng = np.random.default_rng(23)
    lo, hi = prob._lo, prob._hi
    ts = rng.uniform(0.0, prob.horizon, size=P)
    Zp = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.1 * (hi - lo), size=(P, n))
    Zp[2, 0] = -0.0 if lo[0] == 0.0 else Zp[2, 0]
    top = Zp[:, None, :] if prob.unidirectional else hi
    Z = lo + (top - lo) * rng.random((P, M, n))
    Z[:, 0] = Zp  # staying put
    Z[0, 1] = Zp[0] + 0.05 * (hi - lo)  # healing, where it is forbidden
    Z[1, 2, 0] = -0.0
    cell_major = np.ascontiguousarray(np.moveaxis(Z, -1, 0))
    Zc = np.moveaxis(cell_major, 0, -1)
    assert all(Zc[..., j].flags.c_contiguous for j in range(n))
    assert _bits(Zc).tobytes() == _bits(Z).tobytes()

    t_rows, zp_rows = ts[:, None], Zp[:, None, :]
    U = prob.solve_u(t_rows, Z)
    assert U.shape == (P, M, prob.n_u)
    Uc = np.moveaxis(np.ascontiguousarray(np.moveaxis(U, -1, 0)), 0, -1)
    # each map of (Z, U) over a batch, and of (p, z, u) for one state
    maps = {
        "reduced_vec": (
            lambda X, V: prob.reduced_vec(t_rows, X),
            lambda p, z, u: prob.reduced_vec(ts[p], z[None])[0],
        ),
        "dissipation": (
            lambda X, V: prob.dissipation(zp_rows, X),
            lambda p, z, u: prob.dissipation(Zp[p], z),
        ),
        "correction": (
            lambda X, V: prob.correction(zp_rows, X),
            lambda p, z, u: prob.correction(Zp[p], z),
        ),
        "step_objective": (
            lambda X, V: step_objective(prob, t_rows, zp_rows)(X),
            lambda p, z, u: step_objective(prob, ts[p], Zp[p])(z[None])[0],
        ),
        "solve_u": (
            lambda X, V: prob.solve_u(t_rows, X),
            lambda p, z, u: prob.solve_u(ts[p], z),
        ),
        "energy": (
            lambda X, V: prob.energy(t_rows, V, X),
            lambda p, z, u: prob.energy(ts[p], u, z),
        ),
        "power": (
            lambda X, V: prob.power(t_rows, V, X),
            lambda p, z, u: prob.power(ts[p], u, z),
        ),
    }
    if "sigma" in prob.extras:
        sigma = prob.extras["sigma"]
        maps["sigma"] = (lambda X, V: sigma(t_rows, X), lambda p, z, u: sigma(ts[p], z))
    if "gap" in prob.extras:
        gap = prob.extras["gap"]
        maps["gap"] = (lambda X, V: gap(V), lambda p, z, u: gap(u))
    for key, (batch, alone) in maps.items():
        a, b = batch(Z, U), batch(Zc, Uc)
        single = np.array([[alone(p, Z[p, m], U[p, m]) for m in range(M)] for p in range(P)])
        assert a.shape[:2] == (P, M) and a.shape == single.shape, key
        assert _bits(a).tobytes() == _bits(b).tobytes(), key
        assert _bits(a).tobytes() == _bits(single).tobytes(), key
    if prob.unidirectional:
        assert prob.dissipation(Zp[0], Z[0, 1]) == INF
        assert step_objective(prob, ts[0], Zp[0])(Z[0, 1][None])[0] == INF
