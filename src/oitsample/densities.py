"""Target densities: the built-in analytic ones and scalar OITF field files.

Each built-in produces a raw positive field on a given grid; a field file
brings its own.  The common pipeline (optional dynamic-range shift, then
normalization) turns either into a unit-mass density.  Registry names are
what the CLI accepts; a parameter can be appended after a colon, e.g.
``sine-perturbation:0.8``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import fileio
from .errors import DegenerateInputError, FileFormatError, InvalidInputError, PositivityError
from .geodesic import Density, normalize, set_dynamic_range
from .grid import PeriodicGrid, ScalarField


def uniform_field(grid: PeriodicGrid, _param: float | None = None) -> ScalarField:
    return ScalarField.constant(grid, 1.0)


def two_bump_field(grid: PeriodicGrid, _param: float | None = None) -> ScalarField:
    """Two Gaussian bumps (one banana-shaped) over a 1/10 floor."""
    def formula(x, y):
        return (3.0 * np.exp(-x**2 - 10.0 * (y - x**2 / 2.0 + 1.0) ** 2)
                + 2.0 * np.exp(-((x + 1.0) ** 2) - y**2) + 0.1)
    return ScalarField.from_function(grid, formula)


def one_gaussian_bump_field(grid: PeriodicGrid, param: float | None = None) -> ScalarField:
    """Isotropic Gaussian bump exp(-(x^2+y^2)/w) centered at the origin."""
    width = 1.0 if param is None else float(param)
    if width <= 0.0:
        raise InvalidInputError("bump width must be positive")
    return ScalarField.from_function(grid, lambda x, y: np.exp(-(x**2 + y**2) / width))


def sine_perturbation_field(grid: PeriodicGrid, param: float | None = None) -> ScalarField:
    """1 + s*sin(x); s in (0, 1) keeps it positive."""
    s = 0.5 if param is None else float(param)
    if not 0.0 < s < 1.0:
        raise InvalidInputError(f"sine amplitude must be in (0, 1), got {s}")
    return ScalarField.from_function(grid, lambda x, y: 1.0 + s * np.sin(x))


# name -> (field builder, dynamic-range ratio applied when none is requested,
# whether it reads a :param)
REGISTRY = {
    "uniform": (uniform_field, None, False),
    "two-bump": (two_bump_field, 100.0, False),
    "one-gaussian-bump": (one_gaussian_bump_field, 100.0, True),
    "sine-perturbation": (sine_perturbation_field, None, True),
}


def names_field_file(spec: str) -> bool:
    """Whether ``spec`` names a scalar OITF field file: its name before any
    ``:`` is not a built-in (whatever files exist), and it ends in ``.oitf``
    or names an existing file."""
    builtin = spec.partition(":")[0].strip() in REGISTRY
    return not builtin and (spec.endswith(".oitf") or Path(spec).is_file())


def parse_density_spec(spec: str) -> tuple[str, float | None]:
    """Split ``name`` or ``name:param`` into (name, optional float param);
    a ``:`` with nothing after it is an empty parameter, not no parameter."""
    name, colon, raw_param = spec.partition(":")
    name = name.strip()
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise InvalidInputError(f"unknown density {name!r} (built-ins: {known})")
    if not colon:
        return name, None
    if not REGISTRY[name][2]:
        raise InvalidInputError(f"density {name!r} takes no parameter, got {raw_param!r}")
    try:
        return name, float(raw_param)
    except ValueError as exc:
        raise InvalidInputError(f"bad density parameter {raw_param!r}") from exc


def make_density(spec: str, grid: PeriodicGrid, ratio: float | None = None) -> Density:
    """Resolve a density spec, as ``--density`` takes it: raw field, optional
    range shift, normalize.

    A spec that ``names_field_file`` is read from that file and keeps its
    own grid; anything else is a built-in, built on ``grid`` (an unknown
    name raises ``InvalidInputError``).  ``ratio`` overrides the registry
    default (two-bump and one-gaussian-bump pin max/min = 100 unless told
    otherwise; a file has no default).  A field file whose field cannot be range-shifted or
    normalized (a non-positive entry, all zeros, a constant field given a
    ratio) raises ``FileFormatError`` naming the file; a built-in's error
    names none.
    """
    from_file = names_field_file(spec)
    if from_file:
        raw, default_ratio = fileio.read_field_oitf(spec), None
    else:
        name, param = parse_density_spec(spec)
        builder, default_ratio, _ = REGISTRY[name]
        raw = builder(grid, param)
    effective = default_ratio if ratio is None else ratio
    try:
        if effective is not None:
            raw = set_dynamic_range(raw, effective)
        return normalize(raw)
    except (PositivityError, DegenerateInputError) as exc:
        if not from_file:
            raise
        raise FileFormatError(f"{spec}: {exc}") from exc
