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


def _affine_quantile(a, b, u):
    """The u-quantile on [0, 1] of the density proportional to a + b*s,
    positive at both ends: the root of b/2 s^2 + a s = u (a + b/2), in the
    form that stays exact as b goes to 0."""
    q = u * (a + 0.5 * b)
    return 2.0 * q / (a + np.sqrt(a * a + 2.0 * b * q))


def draw_inverse_law(mapping, n: int, seed: int) -> np.ndarray:
    """``n`` exact draws, shape (n, 2), from the inverse law of ``mapping``:
    the law of y solving psi(y) = u for uniform u, where psi is the bilinear
    interpolant of the stored inverse.  Its density u0 * det D psi is affine
    on each cell.  A cell is picked by its exact mass, the mean of its four
    corner determinants; inside it the x marginal, then y given x, is
    inverted by a quadratic.  The corners are formed here from the stored
    displacement, apart from the package's corner kernel."""
    from oitsample.grid import wrap_angle

    g = mapping.grid
    dx, dy = (np.pad(f.values, ((0, 1), (0, 1)), mode="wrap")
              for f in (mapping.inv_disp.u_x, mapping.inv_disp.u_y))
    a11, a21 = 1.0 + np.diff(dx, axis=0) / g.h_x, np.diff(dy, axis=0) / g.h_x
    a12, a22 = np.diff(dx, axis=1) / g.h_y, 1.0 + np.diff(dy, axis=1) / g.h_y

    def corner(x, y):  # the corner on the cell's left/right (x) and lower/upper (y) side
        return (a11[:, y:y + g.n_y] * a22[x:x + g.n_x]
                - a12[x:x + g.n_x] * a21[:, y:y + g.n_y]).reshape(-1)

    c00, c10, c01, c11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
    mass = c00 + c10 + c01 + c11
    gen = np.random.Generator(np.random.Philox(key=seed))
    cell = gen.choice(mass.size, size=n, p=mass / mass.sum())
    u, v = gen.random((2, n))
    c0, slope_x, slope_y = c00[cell], c10[cell] - c00[cell], c01[cell] - c00[cell]
    s = _affine_quantile(c0 + 0.5 * slope_y, slope_x, u)
    t = _affine_quantile(c0 + slope_x * s, slope_y, v)
    i, j = np.divmod(cell, g.n_y)
    return wrap_angle(np.column_stack((g.xs[i] + s * g.h_x, g.ys[j] + t * g.h_y)))


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
