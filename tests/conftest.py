import dataclasses

import numpy as np
import pytest

from risolve.reduced import global_min_rows
from risolve.stability import residual_rows
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


def step_min(problem, t, z_prev):
    """The step search of one row (t, z_prev): the minimizer and value of a
    batch of one of ``global_min_rows``."""
    x, v = global_min_rows(problem, [t], [z_prev])
    return x[0], float(v[0])


def residual_at(problem, t, z):
    """R(t, z) of one state and the best competitor found: a batch of one
    of ``residual_rows``."""
    residual, witness, _ = residual_rows(problem, [t], [np.atleast_1d(z)])
    return float(residual[0]), witness[0]


@pytest.fixture
def toy_convex():
    return make_toy1d(Toy1dSpec(well="convex", a=1.0, kappa=1.0, ell=(0.0, 2.0)))


@pytest.fixture
def toy_doublewell():
    return make_toy1d(
        Toy1dSpec(
            well="doublewell",
            b=1.0,
            w=1.0,
            kappa=1.0,
            ell=(0.0, 3.0),
            z_box=(-3.0, 3.0),
        )
    )


@pytest.fixture
def plasticity():
    return make_plasticity0d(Plasticity0dSpec())


@pytest.fixture
def searched_plasticity(plasticity):
    """The plasticity model without its stated derivatives, so that its
    steps take the grid search."""
    return dataclasses.replace(plasticity, reduced_dz=None, reduced_dzz=None)


@pytest.fixture
def damage():
    return make_damage1d(Damage1dSpec())


@pytest.fixture
def delamination():
    return make_delamination0d(Delamination0dSpec())


@pytest.fixture
def all_models(toy_convex, toy_doublewell, plasticity, damage, delamination):
    return [toy_convex, toy_doublewell, plasticity, damage, delamination]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
