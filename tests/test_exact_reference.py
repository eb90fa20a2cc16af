"""Exact references: closed-form inverse maps that check the build with no samples.

A target that varies along one direction has a closed-form inverse map.  For
mu proportional to 1 + s*sin(x), the inverse map x -> x - s*cos(x) has
derivative 1 + s*sin(x), mu over the uniform density, so the stored inverse
displacement should be (-s*cos x, 0).  For 1 + s*sin(x + y) each component
is -(s/2)*cos(x + y).  The error is the largest nodal |stored inverse
displacement - closed form|; ``sine-perturbation:0.5`` on an (n, 8) grid
gives the (n, n) numbers at a fraction of the cost.

Each bound is a measured value with a stated margin (256 x 8 unless named):

- order in time: errors 1.04e-3, 4.94e-4 and 2.24e-4 at K = 25, 50 and
  100, so each doubling of K cuts the error 2.10x and 2.21x (bound
  [1.8, 2.5]) and K * error reads 0.026, 0.025 and 0.022 (bound
  [0.015, 0.04]);
- order in space after Richardson extrapolation in K, RE 50+25 = 2*D_50 -
  D_25: 1.89e-4, 4.92e-5 and 1.58e-5 at n = 128, 256 and 512, falls 3.84x
  and 3.11x per halving of h (bound: at least 2.5x, between h^1.3 and h^2);
- off-axis, 1 + 0.5*sin(x + y) on 128^2 at K = 50: the components agree to
  1.9e-16 (bound 1e-12) and each is 1.14e-4 off (bound 2x that);
- no rotation: the y-displacement is exactly 0 and the mean offset from the
  closed form is about 2e-17 (bound 1e-12).
"""

from functools import lru_cache

import numpy as np
import pytest

from oitsample import (
    PeriodicGrid,
    ScalarField,
    TransportConfig,
    build_transport_map,
    make_density,
    normalize,
)

S = 0.5  # sine-perturbation's default amplitude: max/min 3


@lru_cache(maxsize=None)
def inverse_disp(n_x, n_y, steps, off_axis=False):
    """The stored inverse displacement ``(dx, dy)`` of a sine target's build."""
    g = PeriodicGrid(n_x, n_y)
    if off_axis:
        target = normalize(ScalarField.from_function(g, lambda x, y: 1.0 + S * np.sin(x + y)))
    else:
        target = make_density(f"sine-perturbation:{S}", g)
    inv = build_transport_map(target, TransportConfig(steps=steps, grid=g)).map.inv_disp
    return inv.u_x.values, inv.u_y.values


def offset(n, disp):
    """Nodal ``disp`` minus the on-axis closed form -s*cos(x)."""
    return disp - (-S * np.cos(PeriodicGrid(n, 8).xs))[:, None]


def error(n, steps):
    return np.abs(offset(n, inverse_disp(n, 8, steps)[0])).max()


def richardson_error(n):
    """Error of RE 50+25, the map extrapolated to zero time step."""
    return np.abs(offset(n, 2.0 * inverse_disp(n, 8, 50)[0] - inverse_disp(n, 8, 25)[0])).max()


@pytest.mark.parametrize("steps", [25, 50])
def test_doubling_the_steps_halves_the_error(steps):
    assert 1.8 <= error(256, steps) / error(256, 2 * steps) <= 2.5


@pytest.mark.parametrize("steps", [25, 50, 100])
def test_the_error_is_first_order_in_time(steps):
    assert 0.015 <= steps * error(256, steps) <= 0.04


@pytest.mark.parametrize("n", [128, 256])
def test_richardson_leaves_a_spatial_error_of_high_order(n):
    assert richardson_error(n) / richardson_error(2 * n) >= 2.5


def test_off_axis_components_agree_and_match_the_closed_form():
    dx, dy = inverse_disp(128, 128, 50, off_axis=True)
    X, Y = PeriodicGrid(128, 128).node_mesh()
    exact = -0.5 * S * np.cos(X + Y)
    assert np.abs(dx - dy).max() <= 1e-12
    for d in (dx, dy):
        assert np.abs(d - exact).max() <= 2 * 1.14e-4


@pytest.mark.parametrize("steps", [25, 50, 100])
def test_no_rotation(steps):
    dx, dy = inverse_disp(256, 8, steps)
    assert np.all(dy == 0.0)
    assert abs(offset(256, dx).mean()) < 1e-12
