"""Shared fixtures.

The full-scale reference map (256 grid, 100 steps) takes a few seconds to
build, so it is session-scoped and shared by the acceptance tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from oitsample import (
    PeriodicGrid,
    ScalarField,
    TransportConfig,
    build_transport_map,
    make_density,
)

REFERENCE_GRID_N = 256
REFERENCE_STEPS = 100


@pytest.fixture(scope="session")
def grid64() -> PeriodicGrid:
    return PeriodicGrid(64, 64)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=20240817))


@pytest.fixture(scope="session")
def reference_density():
    """The ratio-100 two-bump target on the 256 grid."""
    grid = PeriodicGrid(REFERENCE_GRID_N, REFERENCE_GRID_N)
    return make_density("two-bump", grid)


@pytest.fixture(scope="session")
def reference_build(reference_density):
    """Transport map for the two-bump target at full scale, built once."""
    import time

    cfg = TransportConfig(steps=REFERENCE_STEPS, grid=reference_density.grid)
    t0 = time.perf_counter()
    result = build_transport_map(reference_density, cfg)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def identity_map(grid: PeriodicGrid):
    """The identity diffeomorphism, with its (identity) inverse."""
    from oitsample import DiffeoMap, VectorField

    zero = ScalarField.constant(grid, 0.0)
    disp = VectorField(zero, zero)
    return DiffeoMap(disp, disp)


def smooth_test_map(grid: PeriodicGrid, amp: float = 0.15, phase: float = 0.0):
    """A smooth analytic diffeomorphism for grid-calculus tests."""
    from oitsample import DiffeoMap, VectorField

    def dx(x, y):
        return amp * np.sin(x + phase) * np.cos(y)

    def dy(x, y):
        return -amp * np.cos(x) * np.sin(y - phase)

    disp = VectorField(
        ScalarField.from_function(grid, dx),
        ScalarField.from_function(grid, dy),
    )
    return DiffeoMap(disp)


def nan_velocities(ws, source):
    """A stand-in for ``transport._solve_gradient`` whose velocities are NaN."""
    return np.full(source.shape, np.nan), np.full(source.shape, np.nan)


def singular_newton_diff(grid, padded, axis):
    """A stand-in for ``transport._central_diff`` that is -0.5 everywhere:
    the Newton Jacobian then has a11 = a22 = 0.5 and a12 = a21 = -0.5, so
    its determinant is 0 at every point."""
    return np.full(grid.shape, -0.5)


def alternating_fold(grid: PeriodicGrid):
    """Displacement arrays ``(dx, dy)``: +-0.6 h_x along x, alternating row by
    row of nodes (``grid.n_x`` even), and no y displacement.

    Each centred difference spans two nodes of one sign, so the nodal
    determinant reads 1.0 at every node; yet on every other cell the
    bilinear map's determinant is 1 - 1.2 = -0.2, and the map folds.
    """
    sign = np.where(np.arange(grid.n_x) % 2, -1.0, 1.0)
    dx = np.repeat(0.6 * grid.h_x * sign[:, None], grid.n_y, axis=1)
    return dx, np.zeros(grid.shape)


@pytest.fixture(scope="session")
def wavy_map():
    """A random smooth displacement on a non-square grid, shifted so that
    a fifth to a third of the points wrap on each axis."""
    from oitsample import DiffeoMap, VectorField

    g = PeriodicGrid(64, 48)
    gen = np.random.Generator(np.random.Philox(key=np.array([2027, 5], np.uint64)))
    X, Y = g.node_mesh()

    def component(shift):
        v = np.full(g.shape, shift)
        for kx in range(3):
            for ky in range(3):
                v += 0.04 * gen.standard_normal() * np.sin(kx * X + ky * Y + gen.uniform(0, 6.3))
        return v

    return DiffeoMap(VectorField.from_arrays(g, component(2.0), component(-1.3)))
