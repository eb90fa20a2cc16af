"""Densities on the torus and the closed-form Fisher-Rao geodesic.

A density is stored with respect to Lebesgue measure on [-pi, pi)^2 and
normalized to unit mass, so the uniform reference density is the constant
1/(4*pi^2).  The constant-speed Fisher-Rao geodesic between two densities
has a closed form in terms of the square-root ratio of the endpoints and
the Bhattacharyya angle between them; both the path and its time
derivative are evaluated analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidInputError,
    PositivityError,
)
from .grid import PeriodicGrid, ScalarField

# below this angle the sin-quotient coefficients switch to their Taylor limits
SMALL_ANGLE = 1e-8

# densities must stay at least this far from zero (the transport loop divides by them)
POSITIVITY_FLOOR = 1e-12

MASS_TOL = 1e-10


def quadrature(field: ScalarField) -> float:
    """Riemann sum over the periodic grid (== trapezoid rule there)."""
    return float(field.values.sum() * field.grid.cell_volume)


@dataclass(frozen=True)
class Density:
    """Strictly positive unit-mass density sampled on a grid."""

    field: ScalarField
    mass: float

    def __post_init__(self) -> None:
        if self.field.values.min() < POSITIVITY_FLOOR:
            raise PositivityError(
                f"density min {self.field.values.min():.3e} below floor {POSITIVITY_FLOOR:.0e}"
            )
        if abs(self.mass - 1.0) > MASS_TOL:
            raise InvalidInputError(f"density mass {float(self.mass)!r} is not 1")

    @property
    def grid(self) -> PeriodicGrid:
        return self.field.grid


def normalize(raw: ScalarField) -> Density:
    """Scale a strictly positive field to unit mass.

    Raises DegenerateInputError for the all-zero field and PositivityError
    for any non-positive value (or if the scaled field dips below the
    positivity floor).
    """
    v = raw.values
    if not v.any():
        raise DegenerateInputError("cannot normalize the zero field")
    if v.min() <= 0.0:
        raise PositivityError(f"field has non-positive value {float(v.min())!r}")
    total = quadrature(raw)
    scaled = ScalarField(raw.grid, v / total)
    return Density(scaled, quadrature(scaled))


def uniform_density(grid: PeriodicGrid) -> Density:
    """The reference density, constant 1/(4*pi^2)."""
    return normalize(ScalarField.constant(grid, 1.0))


def set_dynamic_range(raw: ScalarField, ratio: float) -> ScalarField:
    """Shift a nonnegative field so max/min equals ``ratio`` exactly.

    The additive offset beta = (max - ratio*min)/(ratio - 1) makes
    (max+beta)/(min+beta) = ratio; min+beta = (max-min)/(ratio-1) > 0, so
    both widening and narrowing the range are safe.  Callers normalize
    afterwards.
    """
    if not ratio > 1.0:
        raise InvalidInputError(f"ratio must exceed 1, got {ratio}")
    v = raw.values
    vmax = float(v.max())
    vmin = float(v.min())
    if vmin < 0.0:
        raise InvalidInputError("field must be nonnegative")
    if vmax == vmin:
        raise DegenerateInputError("constant field has no dynamic range to set")
    beta = (vmax - ratio * vmin) / (ratio - 1.0)
    return ScalarField(raw.grid, v + beta)


def bhattacharyya_angle(mu0: Density, mu1: Density) -> float:
    """arccos of the affinity integral of sqrt(mu1/mu0) against mu0.

    Zero iff the densities coincide; strictly below pi/2 for positive
    densities (Cauchy-Schwarz).  Affinities within 1e-12 of 1 clamp to
    angle 0: quadrature roundoff cannot resolve smaller angles, and the
    clamp stays inside the 1e-10 cosine-consistency contract.
    """
    if mu0.grid != mu1.grid:
        raise GridMismatchError("densities live on different grids")
    affinity = float(
        (np.sqrt(mu1.field.values / mu0.field.values) * mu0.field.values).sum()
        * mu0.grid.cell_volume
    )
    if affinity >= 1.0 - 1e-12:
        return 0.0
    return float(np.arccos(affinity))


@dataclass(frozen=True)
class GeodesicPath:
    """Fisher-Rao geodesic from ``mu0`` to ``mu1`` with cached square-root ratio."""

    mu0: Density
    mu1: Density
    angle: float
    sqrt_ratio: ScalarField

    def coefficients(self, t: float) -> tuple[float, float, float, float]:
        """Scalar coefficients (c1, c2, c1_dot, c2_dot) of a(t) = c1 + c2*r.

        a(t) multiplies sqrt(mu0); below SMALL_ANGLE the Taylor limits
        (1-t) + t*r and r - 1 are used to avoid 0/0.
        """
        if not 0.0 <= t <= 1.0:
            raise InvalidInputError(f"geodesic time {t} outside [0, 1]")
        th = self.angle
        if th < SMALL_ANGLE:
            return 1.0 - t, t, -1.0, 1.0
        s = np.sin(th)
        return (
            float(np.sin((1.0 - t) * th) / s),
            float(np.sin(t * th) / s),
            float(-th * np.cos((1.0 - t) * th) / s),
            float(th * np.cos(t * th) / s),
        )


def geodesic_path(mu0: Density, mu1: Density) -> GeodesicPath:
    if mu0.grid != mu1.grid:
        raise GridMismatchError("densities live on different grids")
    ratio = np.sqrt(mu1.field.values / mu0.field.values)
    return GeodesicPath(
        mu0, mu1, bhattacharyya_angle(mu0, mu1), ScalarField(mu0.grid, ratio)
    )


def geodesic_eval(path: GeodesicPath, t: float) -> tuple[Density, ScalarField]:
    """Density mu(t) and its time derivative along the geodesic.

    mu(t) = a(t)^2 * mu0 with a = c1 + c2*sqrt(mu1/mu0), and
    mu_dot(t) = 2*a*a_dot*mu0.  The endpoints return the stored densities
    so that mu(0) is mu0 and mu(1) is mu1 exactly.
    """
    c1, c2, d1, d2 = path.coefficients(t)
    r = path.sqrt_ratio.values
    mu0v = path.mu0.field.values
    a = c1 + c2 * r
    a_dot = d1 + d2 * r
    mu_dot = ScalarField(path.mu0.grid, 2.0 * a * a_dot * mu0v)
    if t == 0.0:
        return path.mu0, mu_dot
    if t == 1.0:
        return path.mu1, mu_dot
    mu_field = ScalarField(path.mu0.grid, a * a * mu0v)
    return Density(mu_field, quadrature(mu_field)), mu_dot


def log_density_rate(path: GeodesicPath, t: float) -> ScalarField:
    """d/dt log mu(t) = mu_dot/mu = 2*a_dot/a, formed without dividing fields.

    This is the Poisson source of the transport loop; computing 2*a_dot/a
    directly avoids amplifying interpolation error where mu is small.
    """
    c1, c2, d1, d2 = path.coefficients(t)
    r = path.sqrt_ratio.values
    a = c1 + c2 * r
    return ScalarField(path.mu0.grid, 2.0 * (d1 + d2 * r) / a)
