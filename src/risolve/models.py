"""Four desk-scale model systems.

Each constructor returns a fully analytic problem: the reduced energy,
exact partial time derivative and dissipation as broadcasting maps, and
(where the energy is quadratic in u) the full energy with a closed-form
u-elimination, so reduced energies are exact up to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.typing import NDArray

from .core import (
    INF,
    CorrectionSpec,
    RisProblem,
    TrivialH,
)

__all__ = [
    "Toy1dSpec",
    "Damage1dSpec",
    "Plasticity0dSpec",
    "Delamination0dSpec",
    "make_toy1d",
    "make_damage1d",
    "make_plasticity0d",
    "make_delamination0d",
]


# the brittle interface counts as bonded where z exceeds this
Z_TOL = 1e-12


def _step(z, zp) -> NDArray:
    """z' - z over broadcast batches of one-cell states, one value a state."""
    return np.asarray(zp, dtype=float)[..., 0] - np.asarray(z, dtype=float)[..., 0]


def _affine(coeffs) -> tuple[Callable[[float], float], Callable[[float], float]]:
    c0, c1 = float(coeffs[0]), float(coeffs[1])
    return (lambda t: c0 + c1 * t), (lambda t: c1)


# ---------------------------------------------------------------------------
# scalar toy


@dataclass(frozen=True)
class Toy1dSpec:
    well: str = "convex"  # convex | doublewell
    a: float = 1.0  # convex curvature
    b: float = 1.0  # barrier height
    w: float = 1.0  # well separation
    kappa: float = 1.0
    ell: tuple[float, float] = (0.0, 2.0)  # affine loading coefficients
    horizon: float = 1.0
    z_box: tuple[float, float] = (-10.0, 10.0)
    correction: Optional[CorrectionSpec] = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.well not in ("convex", "doublewell"):
            raise ValueError("well must be 'convex' or 'doublewell'")
        if self.well == "convex" and self.a <= 0:
            raise ValueError("convex curvature must be positive")


def make_toy1d(spec: Toy1dSpec) -> RisProblem:
    """Scalar energy W(z) - ell(t) z with |.|-type dissipation (n_u = 0).
    The convex well states its derivatives in z, a z - ell(t) and a."""
    ell, dell = _affine(spec.ell)
    kappa = spec.kappa
    convex = {}
    if spec.well == "convex":
        a = spec.a
        W = lambda z: 0.5 * a * z * z
        convex = {
            "reduced_dz": lambda t, z: a * z - ell(t),
            "reduced_dzz": lambda t, z: z * 0.0 + a,  # z's shape, a float for a float
        }
    else:
        b, w = spec.b, spec.w
        W = lambda z: b * (z * z - w * w) ** 2 / w ** 4

    def power(t, U, Z):
        return -dell(t) * np.asarray(Z, dtype=float)[..., 0]

    def dissipation(z, zp):
        return kappa * np.abs(_step(z, zp))

    def reduced_vec(t, pts):
        x = pts[..., 0]
        return W(x) - ell(t) * x

    prob = RisProblem(
        n_u=0,
        n_z=1,
        power=power,
        dissipation=dissipation,
        z_box=(spec.z_box,),
        horizon=spec.horizon,
        reduced_vec=reduced_vec,
        name=f"toy1d-{spec.well}",
        **convex,
    )
    return prob.with_correction(spec.correction)


# ---------------------------------------------------------------------------
# scalar perfect plasticity


@dataclass(frozen=True)
class Plasticity0dSpec:
    C: float = 1.0
    sigma_y: float = 1.0
    eps: tuple[float, float] = (0.0, 1.0)  # affine strain program
    horizon: float = 2.0
    z_box: tuple[float, float] = (-5.0, 5.0)
    correction: Optional[CorrectionSpec] = None

    def __post_init__(self):
        if self.C <= 0 or self.sigma_y <= 0:
            raise ValueError("C and sigma_y must be positive")


def make_plasticity0d(spec: Plasticity0dSpec) -> RisProblem:
    """Stored energy C (eps(t) - p)^2 / 2 with yield-type dissipation.  It
    is convex in p, with derivatives C (p - eps(t)) and C."""
    eps, deps = _affine(spec.eps)
    C, sy = spec.C, spec.sigma_y

    def sigma(t, Z):
        return C * (eps(t) - np.asarray(Z, dtype=float)[..., 0])

    def power(t, U, Z):
        return sigma(t, Z) * deps(t)

    def dissipation(z, zp):
        return sy * np.abs(_step(z, zp))

    def reduced_vec(t, pts):
        return 0.5 * C * (eps(t) - pts[..., 0]) ** 2

    prob = RisProblem(
        n_u=0,
        n_z=1,
        power=power,
        dissipation=dissipation,
        z_box=(spec.z_box,),
        horizon=spec.horizon,
        reduced_vec=reduced_vec,
        reduced_dz=lambda t, z: C * (z - eps(t)),
        reduced_dzz=lambda t, z: z * 0.0 + C,  # z's shape, a float for a float
        name="plasticity0d",
        extras={
            "sigma": sigma,
            "sigma_y": sy,
            "C": C,
            "eps": eps,
        },
    )
    return prob.with_correction(spec.correction)


# ---------------------------------------------------------------------------
# 1-d damage bar


@dataclass(frozen=True)
class Damage1dSpec:
    N: int = 2  # cells on [0, 1], mesh size 1/N
    E0: Union[float, tuple] = 1.0  # per-cell stiffness profile
    eta: float = 0.25  # residual stiffness fraction
    r: float = 2.0  # gradient exponent
    grad_weight: float = 4.0
    kappa: Union[float, tuple] = 1.0  # per-cell dissipation weight
    w_D: tuple[float, float] = (0.0, 4.0)  # affine boundary displacement
    horizon: float = 1.0
    correction: Optional[CorrectionSpec] = field(
        default_factory=lambda: TrivialH(p=4.0, c=1e-4)
    )

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one cell")
        if not (0 < self.eta < 1):
            raise ValueError("eta must lie in (0, 1)")
        if self.r <= 1:
            raise ValueError("gradient exponent must exceed 1")
        ks = self.kappa if isinstance(self.kappa, tuple) else (self.kappa,)
        if min(ks) <= 0:
            raise ValueError("kappa must be bounded below by a positive constant")


def make_damage1d(spec: Damage1dSpec) -> RisProblem:
    """N-cell bar, clamped at 0, displaced to w_D(t) at 1; z = cell damage.

    Stiffness of cell i is (eta + (1 - eta) z_i) E0_i — nondecreasing in z,
    so lowering z releases elastic energy at a dissipative price.  Healing
    (any increase of z) costs +infinity.
    """
    N = spec.N
    h = 1.0 / N
    E0 = np.full(N, spec.E0) if np.isscalar(spec.E0) else np.asarray(spec.E0, float)
    kap = (
        np.full(N, spec.kappa)
        if np.isscalar(spec.kappa)
        else np.asarray(spec.kappa, float)
    )
    if len(E0) != N or len(kap) != N:
        raise ValueError("profiles must have one entry per cell")
    eta, r, gw = spec.eta, spec.r, spec.grad_weight
    wD, dwD = _affine(spec.w_D)
    E0s, kaps = E0.tolist(), kap.tolist()

    # The maps take cell i as the plane Z[..., i] with scalar coefficients:
    # a cell-major batch, as the step search builds, gives contiguous planes,
    # and no (N,) vector broadcasts over the rows.  Every sum over cells
    # starts from zeros and adds cell 0, cell 1, ... in order, so a batch
    # in either layout and a single state get the same bits.  The maps of
    # the step search compute in place, in buffers of the batch's shape
    # that they allocate (0-d for a single state), in the order of the
    # written formula.

    def stiff(Z) -> list:
        """The stiffness (eta + (1 - eta) z_i) E0_i of each cell, a plane per
        cell."""
        planes = []
        for i, e in enumerate(E0s):
            k = np.multiply(Z[..., i], 1.0 - eta, out=np.empty(Z.shape[:-1]))
            k += eta
            k *= e
            planes.append(k)
        return planes

    def grad_term(Z):
        """gw sum_i |z_{i+1} - z_i|^r / (r h^(r - 1))"""
        total, dz = np.zeros(Z.shape[:-1]), np.empty(Z.shape[:-1])
        for i in range(N - 1):
            np.subtract(Z[..., i + 1], Z[..., i], out=dz)
            np.abs(dz, out=dz)
            dz **= r
            total += dz
        total *= gw
        total /= r * h ** (r - 1)
        return total

    def node(t, U, i):
        """Node i of the bar: 0 at the clamp, u_i inside, w_D(t) at the end."""
        return 0.0 if i == 0 else wD(t) if i == N else U[..., i - 1]

    def energy(t, U, Z):
        """sum_i k_i (u_{i+1} - u_i)^2 / (2 h) plus the gradient term, and
        +infinity off the box [0, 1]^N."""
        U, Z = np.asarray(U, dtype=float), np.asarray(Z, dtype=float)
        el = 0.0
        for i, k in enumerate(stiff(Z)):
            el = el + k * np.square(node(t, U, i + 1) - node(t, U, i))
        inside = np.logical_and.reduce((Z >= -1e-12) & (Z <= 1.0 + 1e-12), axis=-1)
        return np.where(inside, 0.5 * el / h + grad_term(Z), INF)

    def solve_u(t, Z):
        """Series springs: the strain splits inversely to stiffness, so u_i
        is w_D(t) times the compliance of cells 0..i-1 over the total."""
        w = wD(t)
        comp = list(itertools.accumulate(h / k for k in stiff(np.asarray(Z, dtype=float))))
        U = np.empty(np.broadcast_shapes(np.shape(w), np.shape(comp[0])) + (N - 1,))
        for i in range(N - 1):
            U[..., i] = w * comp[i] / comp[-1]
        return U

    def power(t, U, Z):
        # only the boundary cell touches the imposed displacement
        U, kN = np.asarray(U, dtype=float), stiff(np.asarray(Z, dtype=float))[-1]
        return (node(t, U, N) - node(t, U, N - 1)) * kN / h * dwD(t)

    def dissipation(z, zp):
        """sum_i kappa_i |zp_i - z_i|, +infinity if a cell heals."""
        z, zp = np.asarray(z, dtype=float), np.asarray(zp, dtype=float)
        shape = np.broadcast_shapes(z.shape, zp.shape)[:-1]
        total, dz = np.zeros(shape), np.empty(shape)
        for i, k in enumerate(kaps):
            np.subtract(zp[..., i], z[..., i], out=dz)
            heal = dz > 1e-12
            np.abs(dz, out=dz)
            dz *= k
            # a healing cell costs +infinity, and so does the whole step
            dz[heal] = INF
            total += dz
        return total

    def reduced_vec(t, pts):
        """0.5 keff w_D(t)^2 + the gradient term, keff the series stiffness
        1 / sum_i (h / k_i)."""
        w = wD(t)
        comp = np.zeros(np.broadcast_shapes(np.shape(w), pts.shape[:-1]))
        for k in stiff(pts):
            comp += np.divide(h, k, out=k)
        np.divide(1.0, comp, out=comp)
        comp *= 0.5
        comp *= w
        comp *= w
        comp += grad_term(pts)
        return comp

    prob = RisProblem(
        n_u=N - 1,
        n_z=N,
        energy=energy,
        power=power,
        dissipation=dissipation,
        z_box=tuple((0.0, 1.0) for _ in range(N)),
        horizon=spec.horizon,
        unidirectional=True,
        solve_u=solve_u,
        reduced_vec=reduced_vec,
        name="damage1d",
        extras={"h": h, "eta": eta, "E0": E0, "kappa": kap, "w_D": wD},
    )
    return prob.with_correction(spec.correction)


# ---------------------------------------------------------------------------
# two-spring delamination


@dataclass(frozen=True)
class Delamination0dSpec:
    k_minus: float = 4.0
    k_plus: float = 4.0
    a0: float = 1.0  # stored adhesive energy per unit bonding
    kappa: float = 0.5
    ell: tuple[float, float] = (0.0, 2.0)  # affine pull program
    horizon: float = 1.0
    correction: Optional[CorrectionSpec] = field(
        default_factory=lambda: TrivialH(p=2.0, c=1.0)
    )

    def __post_init__(self):
        if self.k_minus <= 0 or self.k_plus <= 0:
            raise ValueError("spring stiffnesses must be positive")
        if self.a0 < 0 or self.kappa <= 0:
            raise ValueError("need a0 >= 0 and kappa > 0")


def make_delamination0d(
    spec: Delamination0dSpec,
    brittle: bool = True,
    k: Optional[float] = None,
) -> RisProblem:
    """Two springs with a bondable interface: u = (u1, u2), gap [u] = u2 - u1.

    Adhesive variant penalizes (k/2) z [u]^2; the brittle variant enforces
    z [u] = 0 exactly (the gap may open only at z = 0).  Bonding stores -a0 z;
    debonding dissipates kappa per unit of z and cannot heal.
    """
    if not brittle and (k is None or not 0 < k < INF):
        raise ValueError(f"the adhesive variant needs a finite positive penalty 'k', got {k}")
    if brittle and k is not None:
        raise ValueError(f"the brittle variant takes no penalty 'k', got {k}")
    km, kp, a0, kappa = spec.k_minus, spec.k_plus, spec.a0, spec.kappa
    ell, dell = _affine(spec.ell)
    ks = km * kp / (km + kp)

    def gap(U):
        U = np.asarray(U, dtype=float)
        return U[..., 1] - U[..., 0]

    def energy(t, U, Z):
        U, zz = np.asarray(U, dtype=float), np.asarray(Z, dtype=float)[..., 0]
        g = gap(U)
        e = 0.5 * km * U[..., 0] ** 2 + 0.5 * kp * (ell(t) - U[..., 1]) ** 2
        e = e - a0 * zz
        # off the box, and a penetrating gap (nonpenetration), cost +infinity
        bad = (zz < -1e-12) | (zz > 1.0 + 1e-12) | (g < -1e-10)
        if brittle:
            bad |= (zz > Z_TOL) & (np.abs(g) > 1e-10)  # an open gap while bonded
        else:
            e = e + 0.5 * k * zz * g * g
        return np.where(bad, INF, e)

    def solve_u(t, Z):
        zz, L = np.asarray(Z, dtype=float)[..., 0], ell(t)
        if brittle:
            # bonded, both springs stretch as one series spring
            bonded, u1 = zz > Z_TOL, kp * L / (km + kp)
            u2 = u1
        else:
            kz = k * zz
            bonded = kz > 1e-300
            keff = 1.0 / (1.0 / km + 1.0 / np.maximum(kz, 1e-300) + 1.0 / kp)
            u1, u2 = keff * L / km, L - keff * L / kp
        # debonded, the springs part: u = (0, ell(t))
        U = np.where(bonded, u1, 0.0), np.where(bonded, u2, L)
        return np.stack(np.broadcast_arrays(*U), axis=-1)

    def power(t, U, Z):
        return kp * (ell(t) - np.asarray(U, dtype=float)[..., 1]) * dell(t)

    def dissipation(z, zp):
        dz = _step(z, zp)
        return np.where(dz > 1e-12, INF, kappa * np.abs(dz))

    def reduced_vec(t, pts):
        zz = pts[..., 0]
        L = ell(t)
        if brittle:
            bonded = 0.5 * ks * L * L - a0 * zz
            return np.where(zz > Z_TOL, bonded, -a0 * zz)
        kz = k * zz
        keff = np.where(
            kz > 1e-300,
            1.0 / (1.0 / km + 1.0 / np.maximum(kz, 1e-300) + 1.0 / kp),
            0.0,
        )
        return 0.5 * keff * L * L - a0 * zz

    prob = RisProblem(
        n_u=2,
        n_z=1,
        energy=energy,
        power=power,
        dissipation=dissipation,
        z_box=((0.0, 1.0),),
        horizon=spec.horizon,
        unidirectional=True,
        solve_u=solve_u,
        reduced_vec=reduced_vec,
        name="delamination0d-brittle" if brittle else f"delamination0d-adhesive",
        extras={"gap": gap, "k_series": ks, "a0": a0, "kappa": kappa, "ell": ell},
    )
    return prob.with_correction(spec.correction)
