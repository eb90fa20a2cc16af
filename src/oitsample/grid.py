"""Periodic grid, its fields, the bilinear kernel and torus diffeomorphisms.

Everything in this package lives on a uniform n_x-by-n_y grid over the
square [-pi, pi)^2 with opposite edges identified.  Fields are stored
row-major as ``values[i, j]`` = sample at node ``(-pi + i*h_x, -pi + j*h_y)``,
so axis 0 is x and axis 1 is y.  Maps are stored as periodic displacement
fields (the map is ``x -> wrap(x + d(x))``), which keeps the identity exact
and makes periodicity trivial.

Interpolation is periodic bilinear throughout; the order is a deliberate
constant of this package, not a knob.  Derivatives here are finite
differences; the Fourier calculus lives in ``poisson.py``.

There is one periodic extension, ``_pad``: the 2-D ``(n_x+2, n_y+2)`` array
with a one-node halo on every side, whose shape no other module spells.
Every gather, centred difference and bin-mass corner reads across the seam
through it, so no code special-cases the first or last row or column.  Its
halo half, ``_refresh_halo``, serves a field that lives in its pad and is
updated through the interior view, as the build loop's inverse map is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidInputError

TWO_PI = 2.0 * np.pi


# Largest |x| that one shift by 2*pi brings into [-pi, pi); kept below 3*pi
# so that the shifted value cannot round onto the interval's open end.
_SHIFT_BOUND = 9.42


def wrap_angle(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap arbitrary finite reals into [-pi, pi).

    One min/max pair picks one of three paths.  Input already in range is
    returned as is, not copied: the add-mod-subtract round trip would
    perturb it by an ulp, making wrapped and unwrapped code paths disagree.
    Inputs whose extremes lie within one period of the range (every point
    the transport loop and the sampler wrap) take the conditional shift of
    :func:`_wrap_shift`; anything else, NaN included, goes through
    ``np.mod``, which can round up to exactly 2*pi for tiny negative
    inputs, so that case is folded back too.
    """
    arr = np.asarray(x, dtype=np.float64)
    lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if -np.pi <= lo and hi < np.pi:
        return arr
    if -_SHIFT_BOUND <= lo and hi <= _SHIFT_BOUND:
        return _wrap_shift(arr)
    m = np.mod(arr + np.pi, TWO_PI)
    m = np.where(m >= TWO_PI, m - TWO_PI, m)
    return np.where((arr >= -np.pi) & (arr < np.pi), arr, m - np.pi)


def _wrap_shift(x: np.ndarray) -> np.ndarray:
    """Wrap values known to lie in (-3*pi, 3*pi) into [-pi, pi).

    One conditional shift per side, applied in place to a copy; much
    cheaper than ``np.mod`` on large sample batches.  Callers must
    guarantee the bound.
    """
    out = np.array(x, dtype=np.float64)
    np.subtract(out, TWO_PI, out=out, where=out >= np.pi)
    np.add(out, TWO_PI, out=out, where=out < -np.pi)
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C", copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform discretization of the flat torus [-pi, pi)^2.

    Attributes:
        n_x, n_y: nodes per axis (>= 4).
        h_x, h_y: spacing 2*pi/n per axis.
        cell_volume: h_x * h_y.
        xs, ys: 1-D node coordinate arrays.
    """

    n_x: int
    n_y: int
    h_x: float = field(init=False, compare=False, repr=False)
    h_y: float = field(init=False, compare=False, repr=False)
    cell_volume: float = field(init=False, compare=False, repr=False)
    xs: np.ndarray = field(init=False, compare=False, repr=False)
    ys: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_x < 4 or self.n_y < 4:
            raise InvalidInputError(f"grid must be at least 4x4, got {self.n_x}x{self.n_y}")
        h_x = TWO_PI / self.n_x
        h_y = TWO_PI / self.n_y
        object.__setattr__(self, "h_x", h_x)
        object.__setattr__(self, "h_y", h_y)
        object.__setattr__(self, "cell_volume", h_x * h_y)
        object.__setattr__(self, "xs", _freeze(-np.pi + np.arange(self.n_x) * h_x))
        object.__setattr__(self, "ys", _freeze(-np.pi + np.arange(self.n_y) * h_y))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_y)

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y of shape (n_x, n_y)."""
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return X, Y


@dataclass(frozen=True)
class ScalarField:
    """Grid sampling of a periodic real function."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise InvalidInputError(f"values shape {v.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("field values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "ScalarField":
        """Sample ``fn(X, Y)`` at the grid nodes."""
        X, Y = grid.node_mesh()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))


@dataclass(frozen=True)
class VectorField:
    """Pair of scalar components on one grid."""

    u_x: ScalarField
    u_y: ScalarField

    def __post_init__(self) -> None:
        if self.u_x.grid != self.u_y.grid:
            raise GridMismatchError("vector components live on different grids")

    @property
    def grid(self) -> PeriodicGrid:
        return self.u_x.grid

    @classmethod
    def from_arrays(cls, grid: PeriodicGrid, ux: np.ndarray, uy: np.ndarray) -> "VectorField":
        return cls(ScalarField(grid, ux), ScalarField(grid, uy))


# ---------------------------------------------------------------------------
# bilinear interpolation


# The one block size for large point sets.  It sets the sampler's chunk (one
# uniform draw, one thread task and one map evaluation each), the rejection
# oracle's proposal block (one draw and one density evaluation) and the row
# blocks of nodes that the build loop's pointwise phases run over.  A block's
# stencil and gather temporaries, a few 256 KB arrays, stay in a core's L2
# cache; a 2^20-point pass streams every one of them through memory.  On a
# 2-core host with 2 MB of L2 per core, 2^20 sampler points
# took 104/74/71/78/96 ms in blocks of 2^12/2^14/2^15/2^16/2^17 points,
# against 141 ms unblocked.
_POINT_BLOCK = 1 << 15


def _pad(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The periodic extension ``np.pad(values, 1, mode="wrap")`` of a field.

    A C-contiguous ``(n_x+2, n_y+2)`` array, a one-node halo on every side,
    so ``values[i, j]`` sits at ``[i+1, j+1]``.  ``out``, when given, is a
    C-contiguous array of that shape, filled and returned.  It is the
    interior copy followed by :func:`_refresh_halo`.
    """
    n_x, n_y = values.shape
    if out is None:
        out = np.empty((n_x + 2, n_y + 2))
    out[1:-1, 1:-1] = values
    return _refresh_halo(out)


def _refresh_halo(padded: np.ndarray) -> np.ndarray:
    """Rewrite the halo of ``padded``, a ``_pad`` array, from its interior,
    and return it.

    The side columns take the opposite interior columns, then the first
    and last rows take the opposite interior rows, corners included.  The
    interior is not written, so a field that lives in its pad is written
    through the interior view and refreshed here once it is complete.
    """
    padded[1:-1, 0] = padded[1:-1, -2]
    padded[1:-1, -1] = padded[1:-1, 1]
    padded[0] = padded[-2]
    padded[-1] = padded[1]
    return padded


class _Stencil:
    """Precomputed periodic bilinear index and offsets for a point set.

    Building the stencil once and gathering several fields through it is the
    main cost saver in the transport loop and the sampler.  ``base`` indexes
    the lower-left corner of each point's cell in the field's periodic
    extension (``_pad``) read flat, counted from node (0, 0), so the other
    three corners sit at fixed offsets (a padded row is ``shape[1]`` values)
    and no seam needs fixing up.  A gather reads a padded field only, so a caller
    pads each field once and gathers it through any number of stencils.
    Gathers use the nested-lerp form ``v00 + f*(v10 - v00)``, which
    reproduces constants and nodal values exactly.  The query arrays are
    never written to.
    """

    __slots__ = ("base", "fx", "fy", "shape")

    def __init__(self, grid: PeriodicGrid, px: np.ndarray, py: np.ndarray):
        ix, self.fx = _index_frac(wrap_angle(px), grid.xs, grid.h_x, grid.n_x)
        iy, self.fy = _index_frac(wrap_angle(py), grid.ys, grid.h_y, grid.n_y)
        self.shape = (grid.n_x + 2, grid.n_y + 2)
        ix *= self.shape[1]
        ix += iy
        self.base = ix

    def gather(self, f: np.ndarray) -> np.ndarray:
        """The field whose ``_pad`` extension is ``f``, at the stencil's points."""
        # "clip" below would turn a field of any other shape into silent garbage
        if f.shape != self.shape:
            raise InvalidInputError(
                f"gather needs a padded field of shape {self.shape}, got shape {f.shape}")
        m = self.shape[1]
        f = f.reshape(-1)[m + 1:]  # node (0, 0), past the halo's first row and column
        # indices are in range by construction, and "clip" lets take() write
        # straight into ``out`` instead of through a buffer
        lo = f.take(self.base, mode="clip")
        hi = f[1:].take(self.base, mode="clip")
        d = f[m:].take(self.base, mode="clip")
        d -= lo
        d *= self.fx
        lo += d
        f[m + 1:].take(self.base, out=d, mode="clip")
        d -= hi
        d *= self.fx
        hi += d
        hi -= lo
        hi *= self.fy
        lo += hi
        return lo


# On an n-node axis, _index_frac re-checks a point against the next node
# when its offset lies within n*_FIX_BAND below 1; see its docstring.
_FIX_BAND = 2.0**-40


def _index_frac(c: np.ndarray, nodes: np.ndarray, h: float, n: int):
    """Lower node index and fractional offset for wrapped coordinates.

    The provisional index from division is corrected against the stored node
    coordinates so that a query at a node yields frac == 0 exactly; this is
    what makes interpolation nodally exact.

    The correction only runs on points whose provisional offset lies outside
    [0, 1 - n*_FIX_BAND).  Skipping it elsewhere is exact.  ``frac < 0``
    holds precisely when ``c < nodes[i0]``: 1/h > 1/2, so no nonzero
    difference rounds to zero.  Each node carries at most ~6.7e-16 of
    rounding, so a node spacing falls short of h by at most ~1.34e-15 <
    2*pi*2**-52 = n*h*2**-52; hence ``c >= nodes[i0 + 1]`` forces
    ``frac >= 1 - n*2**-52 - 3*2**-53``.  The band is about 2**10 times wider.
    """
    t = c + np.pi
    t *= 1.0 / h
    i0 = t.astype(np.int64)  # t >= 0, so truncation == floor
    # t's buffer becomes frac.  An index outside [0, n) comes from NaN or
    # from a point within ulps of pi (i0 == n); "clip" looks up a node for it
    # anyway, its frac then falls outside the fast range, and the exact path
    # below clips the index itself.
    frac = nodes.take(i0, out=t, mode="clip")
    np.subtract(c, frac, out=frac)
    frac *= 1.0 / h
    if not frac.size:
        return i0, frac
    upper_band = 1.0 - n * _FIX_BAND
    if frac.min() >= 0.0 and frac.max() < upper_band:
        return i0, frac
    fix = np.flatnonzero(~((frac >= 0.0) & (frac < upper_band)))
    cf = c[fix]
    i_f = np.clip(i0[fix], 0, n - 1)
    i_f -= cf < nodes[i_f]  # nodes[0] == -pi, cannot underflow
    upper = np.append(nodes, np.inf)  # the last node has no upper neighbour
    i_f += cf >= upper[i_f + 1]
    frac_f = (cf - nodes[i_f]) * (1.0 / h)
    np.clip(frac_f, 0.0, 1.0, out=frac_f)
    i0[fix] = i_f
    frac[fix] = frac_f
    return i0, frac


def _point_stencil(grid: PeriodicGrid, points: np.ndarray) -> _Stencil:
    """The stencil of every public point query, after its input checks.

    ``points`` is one ``(2,)`` point or an ``(N, 2)`` array; any other shape
    or a non-finite coordinate raises InvalidInputError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"points must have shape (N, 2) or (2,), got {np.shape(points)}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("point coordinates must be finite")
    return _Stencil(grid, np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1]))


def _displaced_stencil(grid: PeriodicGrid, dx: np.ndarray, dy: np.ndarray,
                       rows: slice = slice(None)) -> _Stencil:
    """Stencil at the displaced nodes ``(X + dx, Y + dy)`` of the grid rows ``rows``.

    ``dx`` and ``dy`` are whole-grid fields; the stencil covers the nodes of
    ``rows`` only, in row-major order.  Broadcasting the 1-D node
    coordinates gives the same sums as the node mesh, bit for bit, without
    building the mesh.
    """
    return _Stencil(grid, (grid.xs[rows, None] + dx[rows]).reshape(-1),
                    (grid.ys[None, :] + dy[rows]).reshape(-1))


def interp_scalar(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Periodic bilinear interpolation of ``field`` at arbitrary points.

    Parameters
    ----------
    field : ScalarField
    points : array of shape (N, 2) or (2,), any finite reals (wrapped mod 2*pi)

    Returns
    -------
    np.ndarray of N interpolated values.  Exact at grid nodes and exact on
    constant fields.
    """
    st = _point_stencil(field.grid, points)
    out = st.gather(_pad(field.values))
    return out[0] if np.ndim(points) == 1 else out


# ---------------------------------------------------------------------------
# diffeomorphisms


def _central_diff(grid: PeriodicGrid, padded: np.ndarray, axis: int) -> np.ndarray:
    """Periodic centred difference ``(v[i+1] - v[i-1]) / (2*h)`` along
    ``axis`` of the field whose ``_pad`` extension is ``padded``.

    One difference of two shifted slices of the pad: the halo holds the
    wrapped neighbours, so the first and last rows and columns need no
    seam code.
    """
    if axis == 0:
        out = np.subtract(padded[2:, 1:-1], padded[:-2, 1:-1])
    else:
        out = np.subtract(padded[1:-1, 2:], padded[1:-1, :-2])
    out /= 2.0 * (grid.h_x if axis == 0 else grid.h_y)
    return out


def _jacobian_det_arrays(grid: PeriodicGrid, pad_dx: np.ndarray,
                         pad_dy: np.ndarray) -> np.ndarray:
    """Nodal det(I + Dd) from centred differences of the displacement ``(dx, dy)``.

    ``pad_dx`` and ``pad_dy`` are the ``_pad`` extensions of ``dx`` and
    ``dy``.  Second-order accurate at the nodes, but blind to the node
    between the two it differences, so it is no fold test: see
    :func:`_corner_det`.  The entries are combined in place, so the call
    holds three grid arrays at most.
    """
    a11 = _central_diff(grid, pad_dx, 0)
    a11 += 1.0
    a22 = _central_diff(grid, pad_dy, 1)
    a22 += 1.0
    a11 *= a22
    del a22
    a12 = _central_diff(grid, pad_dx, 1)
    a12 *= _central_diff(grid, pad_dy, 0)
    a11 -= a12
    return a11


def _corner_det(grid: PeriodicGrid, pad_dx: np.ndarray, pad_dy: np.ndarray,
                rows: slice = slice(None)) -> np.ndarray:
    """Least corner determinant det(I + Dd_h) of each cell of the grid rows
    ``rows``; cell ``(i, j)`` spans nodes ``i, i+1`` and ``j, j+1``.

    det D(x + d_h) is bilinear on a cell, so its least value is at a corner
    and the map folds exactly where this is <= 0.  ``pad_dx`` and ``pad_dy``
    are the ``_pad`` extensions of ``(dx, dy)``; each corner entry is an
    edge difference read off them, so a row range gives those rows of the
    whole-grid result bit for bit.
    """
    r0, r1, _ = rows.indices(grid.n_x)

    def edges(padded):
        # nodes r0..r1 by 0..n_y: each cell's corners, the halo closing the seam
        p = padded[r0 + 1:r1 + 2, 1:]
        along_x = np.subtract(p[1:], p[:-1])  # (cells, n_y+1): lower, upper edges
        along_x /= grid.h_x
        along_y = np.subtract(p[:, 1:], p[:, :-1])  # (cells+1, n_y): left, right edges
        along_y /= grid.h_y
        return along_x, along_y

    a11, a12 = edges(pad_dx)
    a21, a22 = edges(pad_dy)
    a11 += 1.0
    a22 += 1.0
    lower, upper = slice(None, -1), slice(1, None)
    out = np.full((r1 - r0, grid.n_y), np.inf)
    det = np.empty_like(out)
    tmp = np.empty_like(out)
    for y in (lower, upper):  # the corner's y: the cell's lower or upper side
        for x in (lower, upper):  # its x: the left or right side
            np.multiply(a11[:, y], a22[x], out=det)
            det -= np.multiply(a12[x], a21[:, y], out=tmp)
            np.minimum(out, det, out=out)
    return out


@dataclass(frozen=True)
class DiffeoMap:
    """Torus diffeomorphism stored as a periodic displacement field.

    The map is ``x -> wrap(x + disp(x))`` on ``disp``'s grid, bilinear on each
    cell; construction refuses it if it folds anywhere, which
    :func:`_corner_det` decides exactly.  ``inv_disp``, when present, is the
    inverse map's displacement, on that grid; construction checks the
    round-trip ``phi^-1(phi(x)) ~= x`` to within 2 grid spacings.

    Construction pads the forward displacement once, into the read-only
    ``_padded``; the map's checks, ``apply``, ``jacobian_det``, the
    pushforward residual and the sampler all gather through those pads.
    """

    disp: VectorField
    inv_disp: VectorField | None = None
    _padded: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    @property
    def grid(self) -> PeriodicGrid:
        return self.disp.grid

    def __post_init__(self) -> None:
        dx = self.disp.u_x.values
        dy = self.disp.u_y.values
        if max(np.abs(dx).max(), np.abs(dy).max()) > TWO_PI:
            raise InvalidInputError("displacement exceeds one period")
        padded = (_pad(dx), _pad(dy))
        for p in padded:
            p.setflags(write=False)
        object.__setattr__(self, "_padded", padded)
        det = _corner_det(self.grid, *padded).min()
        if det <= 0.0:
            raise InvalidInputError(
                f"map is not orientation preserving (min cell-corner det {det:.3e})"
            )
        if self.inv_disp is not None:
            if self.inv_disp.grid != self.grid:
                raise GridMismatchError("inverse displacement grid mismatch")
            err = self._round_trip_error()
            bound = 2.0 * max(self.grid.h_x, self.grid.h_y)
            if err > bound:
                raise InvalidInputError(
                    f"inverse is inconsistent: round-trip error {err:.3e} > {bound:.3e}"
                )

    def _round_trip_error(self) -> float:
        """Largest node error of phi^-1(phi(x)) - x = wrap(d + d_inv o phi)."""
        bx, by = _compose_disp_arrays(self.grid, self.inv_disp.u_x.values,
                                      self.inv_disp.u_y.values,
                                      self.disp.u_x.values, self.disp.u_y.values)
        return float(np.hypot(wrap_angle(bx), wrap_angle(by)).max())

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the map at one (2,) point or at (N, 2) points, with the
        input's shape; result wrapped into [-pi, pi)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        st = _point_stencil(self.grid, pts)
        moved = np.stack([st.gather(p) for p in self._padded], axis=1)
        moved += pts
        out = wrap_angle(moved)
        return out[0] if np.ndim(points) == 1 else out


def jacobian_det(mapping: DiffeoMap) -> ScalarField:
    """Jacobian determinant of the map at the nodes, second-order accurate.

    A value, not a fold test: construction of the map has already refused
    any fold of its bilinear interpolant.
    """
    return ScalarField(mapping.grid, _jacobian_det_arrays(mapping.grid, *mapping._padded))


def _compose_disp_arrays(grid: PeriodicGrid,
                         outer_x: np.ndarray, outer_y: np.ndarray,
                         inner_x: np.ndarray, inner_y: np.ndarray):
    """Displacement of outer-after-inner: d(x) = d_in(x) + d_out(x + d_in(x))."""
    st = _displaced_stencil(grid, inner_x, inner_y)
    cx = st.gather(_pad(outer_x)).reshape(grid.shape)
    cx += inner_x  # in place: no second grid-sized array per component
    cy = st.gather(_pad(outer_y)).reshape(grid.shape)
    cy += inner_y
    return cx, cy

