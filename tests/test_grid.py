import numpy as np
import pytest

from oitsample import (
    DiffeoMap,
    GridMismatchError,
    InvalidInputError,
    PeriodicGrid,
    ScalarField,
    VectorField,
    gradient_spectral,
    interp_scalar,
    jacobian_det,
)
from oitsample.grid import (
    _FIX_BAND,
    _SHIFT_BOUND,
    _central_diff,
    _compose_disp_arrays,
    _corner_det,
    _corner_dets,
    _corner_mean,
    _index_frac,
    _jacobian_det_arrays,
    _pad,
    _Stencil,
    _wrap_shift,
    wrap_angle,
)
from conftest import alternating_fold, identity_map, smooth_test_map

TWO_PI = 2.0 * np.pi


def random_points(rng, n=200, span=10.0):
    return rng.uniform(-span, span, size=(n, 2))


def smooth_disp(rng, g, amp, modes):
    """A random smooth periodic field: ``modes``^2 plane waves, each of
    amplitude at most about ``amp / modes`` times a standard normal."""
    X, Y = g.node_mesh()
    v = np.zeros(g.shape)
    for kx in range(modes):
        for ky in range(modes):
            v += amp * rng.standard_normal() * np.sin(kx * X + ky * Y
                                                     + rng.uniform(0, 6.3)) / modes
    return v


class TestPeriodicGrid:
    def test_geometry(self):
        g = PeriodicGrid(64, 128)
        assert g.h_x == pytest.approx(2 * np.pi / 64, rel=1e-15)
        assert g.h_y == pytest.approx(2 * np.pi / 128, rel=1e-15)
        assert g.xs[0] == -np.pi
        assert g.n_x * g.n_y * g.cell_volume == pytest.approx(4 * np.pi**2, rel=1e-12)

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            PeriodicGrid(3, 64)

    def test_equality_is_by_shape(self):
        assert PeriodicGrid(8, 8) == PeriodicGrid(8, 8)
        assert PeriodicGrid(8, 8) != PeriodicGrid(8, 16)


class TestWrap:
    def test_range_for_awkward_inputs(self):
        vals = np.array([np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi,
                         5.0, -5.0, 0.0, -1e-18, np.nextafter(np.pi, -1)])
        w = wrap_angle(vals)
        assert np.all(w >= -np.pi)
        assert np.all(w < np.pi)

    def test_boundary_maps_to_left_edge(self):
        assert wrap_angle(np.pi) == -np.pi
        assert wrap_angle(-np.pi) == -np.pi
        assert wrap_angle(3 * np.pi) == -np.pi

    def test_idempotent_inside(self, rng):
        x = rng.uniform(-np.pi, np.pi, 1000)
        x = x[x < np.pi]
        assert np.array_equal(wrap_angle(x), x)

    def test_in_range_input_is_returned_as_is(self):
        x = np.linspace(-np.pi, 3.0, 50)
        assert wrap_angle(x) is x


# The wrap and index kernels as first written, kept as the reference that the
# faster ones must reproduce bit for bit.


def reference_wrap_angle(x):
    arr = np.asarray(x, dtype=np.float64)
    m = np.mod(arr + np.pi, TWO_PI)
    m = np.where(m >= TWO_PI, m - TWO_PI, m)
    return np.where((arr >= -np.pi) & (arr < np.pi), arr, m - np.pi)


def reference_wrap_shift(x):
    out = np.where(x >= np.pi, x - TWO_PI, x)
    return np.where(out < -np.pi, out + TWO_PI, out)


def reference_index_frac(c, nodes, h, n):
    t = (c + np.pi) * (1.0 / h)
    i0 = t.astype(np.int64)
    np.clip(i0, 0, n - 1, out=i0)
    i0 = np.where(c < nodes[i0], i0 - 1, i0)
    nxt = i0 + 1
    has_next = nxt < n
    upper = nodes[np.where(has_next, nxt, 0)]
    i0 = np.where(has_next & (c >= upper), nxt, i0)
    frac = (c - nodes[i0]) * (1.0 / h)
    np.clip(frac, 0.0, 1.0, out=frac)
    return i0, frac


KERNEL_GRID = PeriodicGrid(256, 48)
PI_EDGES = np.array([-np.pi, np.nextafter(np.pi, 0), np.pi, np.nextafter(np.pi, 4),
                     np.nextafter(-np.pi, 0), np.nextafter(-np.pi, -4)])
BOUND_INSIDE = np.array([_SHIFT_BOUND, -_SHIFT_BOUND, np.nextafter(_SHIFT_BOUND, 0),
                         np.nextafter(-_SHIFT_BOUND, 0)])
BOUND_OUTSIDE = np.array([np.nextafter(_SHIFT_BOUND, 10), np.nextafter(-_SHIFT_BOUND, -10),
                          3 * np.pi, -3 * np.pi])


def expected_wrap(x):
    """The old shift inside the bound, the old ``np.mod`` wrap outside it."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and np.abs(x).max() <= _SHIFT_BOUND:
        return reference_wrap_shift(x)
    return reference_wrap_angle(x)


def kernel_cases():
    """Input arrays by name, on both sides of the shift bound."""
    rng = np.random.default_rng(20170425)
    nodes = np.concatenate([KERNEL_GRID.xs, KERNEL_GRID.ys])
    near_nodes = np.concatenate([np.nextafter(nodes, -4), np.nextafter(nodes, 4)])
    shifted = np.concatenate([nodes + TWO_PI, nodes - TWO_PI])
    shifted = shifted[np.abs(shifted) <= _SHIFT_BOUND]
    return {
        "nodes": nodes,
        "nodes +- 1 ulp": near_nodes,
        "nodes shifted a period": shifted,
        "pi edges": PI_EDGES,
        "just inside bound": BOUND_INSIDE,
        "just outside bound": BOUND_OUTSIDE,
        "one period each side": rng.uniform(-_SHIFT_BOUND, _SHIFT_BOUND, 4096),
        "(-3pi, 3pi)": rng.uniform(-3 * np.pi, 3 * np.pi, 4096),
        "(-50, 50)": rng.uniform(-50.0, 50.0, 4096),
        "empty": np.empty(0),
    }


KERNEL_CASES = kernel_cases()
by_case = pytest.mark.parametrize("x", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())


class TestKernelsMatchReference:
    def test_cases_cover_both_paths(self):
        assert np.abs(KERNEL_CASES["just inside bound"]).max() <= _SHIFT_BOUND
        assert np.abs(KERNEL_CASES["just outside bound"]).min() > _SHIFT_BOUND

    @by_case
    def test_wrap_angle(self, x):
        w = wrap_angle(x)
        assert w.dtype == np.float64 and w.shape == x.shape
        assert np.array_equal(w, expected_wrap(x))
        assert np.all((w >= -np.pi) & (w < np.pi))

    @by_case
    def test_wrap_angle_per_scalar(self, x):
        for v in x:
            w = wrap_angle(float(v))
            assert w.shape == () and w == expected_wrap(v)

    def test_wrap_angle_non_finite_takes_mod_path(self):
        x = np.array([0.5, np.nan, np.inf, -4.0])
        with np.errstate(invalid="ignore"):
            assert np.array_equal(wrap_angle(x), expected_wrap(x), equal_nan=True)

    @by_case
    def test_wrap_shift(self, x):
        x = x[np.abs(x) < 3 * np.pi]
        assert np.array_equal(_wrap_shift(x), reference_wrap_shift(x))

    def test_wrap_shift_scalar_and_input_untouched(self):
        x = np.array([4.0, -4.0, 0.5])
        kept = x.copy()
        assert np.array_equal(_wrap_shift(x), reference_wrap_shift(kept))
        assert np.array_equal(x, kept)
        assert _wrap_shift(np.float64(np.pi)) == -np.pi

    @by_case
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_index_frac(self, x, axis):
        g = KERNEL_GRID
        nodes, h, n = (g.xs, g.h_x, g.n_x) if axis == "x" else (g.ys, g.h_y, g.n_y)
        c = reference_wrap_angle(x)
        i0, frac = _index_frac(c, nodes, h, n)
        ref_i0, ref_frac = reference_index_frac(c, nodes, h, n)
        assert i0.dtype == ref_i0.dtype
        assert np.array_equal(i0, ref_i0)
        assert np.array_equal(frac, ref_frac)


class ReferenceStencil:
    """The bilinear stencil as first written: four flat indices into the
    unpadded field, with the seam wrapped by boolean-mask fix-ups."""

    def __init__(self, grid, px, py):
        ix, self.fx = reference_index_frac(expected_wrap(px), grid.xs, grid.h_x, grid.n_x)
        iy, self.fy = reference_index_frac(expected_wrap(py), grid.ys, grid.h_y, grid.n_y)
        n_y = grid.n_y
        iy1 = iy + 1
        iy1[iy1 == n_y] = 0
        base = ix * n_y
        base1 = base + n_y
        base1[base1 == grid.n_x * n_y] = 0
        self.flat00 = base + iy
        self.flat10 = base1 + iy
        self.flat01 = base + iy1
        self.flat11 = base1 + iy1

    def gather(self, values):
        flat = values.reshape(-1)
        lo = flat[self.flat00]
        lo += self.fx * (flat[self.flat10] - lo)
        hi = flat[self.flat01]
        hi += self.fx * (flat[self.flat11] - hi)
        lo += self.fy * (hi - lo)
        return lo


def reference_central_diff(values, axis, spacing):
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spacing)


# 37x100 has an odd axis and unequal spacings; 4096x4 puts a long node table
# on x, where the band below frac == 1 is widest.
STENCIL_GRIDS = {"256x48": KERNEL_GRID, "37x100": PeriodicGrid(37, 100),
                 "4096x4": PeriodicGrid(4096, 4)}


def band_points(nodes, h, n):
    """Points just below each next node, where the provisional offset lands
    in the band that _index_frac re-checks."""
    upper = np.append(nodes[1:], np.pi)
    return np.concatenate([np.nextafter(upper, -4), np.nextafter(np.nextafter(upper, -4), -4),
                           nodes + h * (1.0 - 0.5 * n * _FIX_BAND)])


def stencil_cases(grid):
    """Point sets (px, py) by name for one grid."""
    rng = np.random.default_rng(20170426)
    X, Y = grid.node_mesh()
    xs_ulp = np.concatenate([grid.xs, np.nextafter(grid.xs, -4), np.nextafter(grid.xs, 4)])
    ys_ulp = np.concatenate([grid.ys, np.nextafter(grid.ys, -4), np.nextafter(grid.ys, 4)])
    nx_ulp, ny_ulp = np.meshgrid(xs_ulp, ys_ulp, indexing="ij")
    last = np.array([-np.pi, np.nextafter(np.pi, 0)])
    edge_x = np.concatenate([np.repeat(last, grid.n_y), np.tile(grid.xs, 2)])
    edge_y = np.concatenate([np.tile(grid.ys, 2), np.repeat(last, grid.n_x)])
    n = 1_000_000
    bx = band_points(grid.xs, grid.h_x, grid.n_x)
    by = band_points(grid.ys, grid.h_y, grid.n_y)
    mixed_x = rng.uniform(-np.pi, np.pi, n)
    mixed_y = rng.uniform(-np.pi, np.pi, n)
    mixed_x[rng.choice(n, bx.size, replace=False)] = bx
    mixed_y[rng.choice(n, by.size, replace=False)] = by
    return {
        "displaced nodes": ((X + 0.7 * np.sin(Y - 0.3)).reshape(-1),
                            (Y - 0.9 * np.cos(2 * X)).reshape(-1)),
        "nodes and nodes +- 1 ulp": (nx_ulp.reshape(-1), ny_ulp.reshape(-1)),
        "-pi and last float below pi on the last row and column": (edge_x, edge_y),
        "pi itself, which wraps to -pi": (np.concatenate([np.full(grid.n_y, np.pi), grid.xs]),
                                          np.concatenate([grid.ys, np.full(grid.n_x, np.pi)])),
        "band points in a random batch": (mixed_x, mixed_y),
        "band points shifted a period": (bx - TWO_PI, np.resize(by, bx.size) + TWO_PI),
    }


def provisional_index_frac(c, nodes, h, n):
    """Index and offset before any correction against the node table."""
    i0 = np.minimum(((c + np.pi) * (1.0 / h)).astype(np.int64), n - 1)
    return i0, (c - nodes[i0]) * (1.0 / h)


class TestStencilMatchesReference:
    @pytest.mark.parametrize("grid", STENCIL_GRIDS.values(), ids=STENCIL_GRIDS.keys())
    def test_fractions_and_gathers(self, grid):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(grid.shape)
        for name, (px, py) in stencil_cases(grid).items():
            st = _Stencil(grid, px, py)
            ref = ReferenceStencil(grid, px, py)
            assert np.array_equal(st.fx, ref.fx), name
            assert np.array_equal(st.fy, ref.fy), name
            assert np.array_equal(st.gather(_pad(values)), ref.gather(values)), name

    @pytest.mark.parametrize("grid", STENCIL_GRIDS.values(), ids=STENCIL_GRIDS.keys())
    def test_band_points_take_the_correction(self, grid):
        for nodes, h, n in ((grid.xs, grid.h_x, grid.n_x), (grid.ys, grid.h_y, grid.n_y)):
            _, frac = provisional_index_frac(band_points(nodes, h, n), nodes, h, n)
            assert np.any(frac >= 1.0 - n * _FIX_BAND)

    @pytest.mark.parametrize("n", [4, 37, 48, 100, 256, 4096, 1 << 20])
    def test_band_bound(self, n):
        """A query at the next node always lands in the band."""
        g = PeriodicGrid(n, 4)
        assert np.abs(np.diff(g.xs) - g.h_x).max() <= 1.34e-15
        i0, frac = provisional_index_frac(g.xs[1:], g.xs, g.h_x, n)
        below = i0 < np.arange(1, n)
        assert np.all(frac[below] >= 1.0 - n * 2.0**-52 - 3 * 2.0**-53)

    @pytest.mark.parametrize("in_range", [True, False])
    def test_query_points_untouched(self, in_range):
        rng = np.random.default_rng(8)
        span = np.pi if in_range else 3 * np.pi
        px = rng.uniform(-span, span, 1000)
        py = rng.uniform(-span, span, 1000)
        kept = px.copy(), py.copy()
        px.setflags(write=False)
        py.setflags(write=False)
        st = _Stencil(KERNEL_GRID, px, py)
        st.gather(_pad(rng.standard_normal(KERNEL_GRID.shape)))
        assert np.array_equal(px, kept[0]) and np.array_equal(py, kept[1])

    def test_pad_is_the_periodic_extension(self):
        values = np.random.default_rng(11).standard_normal((5, 7))
        expected = np.pad(values, 1, mode="wrap")
        assert np.array_equal(_pad(values), expected)
        out = np.full(expected.shape, np.nan)
        assert _pad(values, out=out) is out and np.array_equal(out, expected)

    def test_gather_refuses_a_field_of_another_size(self):
        """``take(mode="clip")`` would read any other shape as garbage; the
        one-sided ``(n_x+1)*(n_y+1)`` extension and the flat pad of earlier
        layouts too."""
        values = np.random.default_rng(12).standard_normal(KERNEL_GRID.shape)
        st = _Stencil(KERNEL_GRID, np.array([0.5, -1.0]), np.array([0.25, 2.0]))
        one_sided = np.zeros((KERNEL_GRID.n_x + 1) * (KERNEL_GRID.n_y + 1))
        for field in (values, values.reshape(-1), _pad(values)[:-1], _pad(np.zeros((128, 96))),
                      one_sided, _pad(values).reshape(-1)):
            with pytest.raises(InvalidInputError, match="padded field"):
                st.gather(field)
        assert st.gather(_pad(values)).shape == (2,)

    def test_nan_points_match_reference(self):
        px = np.array([0.5, np.nan, -1.0])
        py = np.array([np.nan, 0.25, 2.0])
        values = np.random.default_rng(10).standard_normal(KERNEL_GRID.shape)
        with np.errstate(invalid="ignore"):
            st = _Stencil(KERNEL_GRID, px, py)
            ref = ReferenceStencil(KERNEL_GRID, px, py)
            assert np.array_equal(st.fx, ref.fx, equal_nan=True)
            assert np.array_equal(st.fy, ref.fy, equal_nan=True)
            assert np.array_equal(st.gather(_pad(values)), ref.gather(values), equal_nan=True)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_central_diff(self, axis, order):
        g = STENCIL_GRIDS["37x100"]
        v = np.asarray(np.random.default_rng(9).standard_normal(g.shape), order=order)
        spacing = g.h_x if axis == 0 else g.h_y
        ref = reference_central_diff(v, axis, spacing)
        assert np.array_equal(_central_diff(g, _pad(v), axis), ref)


class TestInterpScalar:
    def test_reproduces_constants_exactly(self, rng):
        g = PeriodicGrid(32, 32)
        f = ScalarField.constant(g, 3.5)
        out = interp_scalar(f, random_points(rng))
        assert np.all(out == 3.5)

    def test_exact_at_nodes(self, rng):
        g = PeriodicGrid(48, 32)
        f = ScalarField(g, rng.standard_normal(g.shape))
        ii = rng.integers(0, g.n_x, 64)
        jj = rng.integers(0, g.n_y, 64)
        pts = np.stack([g.xs[ii], g.ys[jj]], axis=1)
        out = interp_scalar(f, pts)
        assert np.array_equal(out, f.values[ii, jj])

    def test_midpoint_between_nodes(self):
        g = PeriodicGrid(256, 256)
        f = ScalarField.from_function(g, lambda x, y: np.sin(x))
        q = np.array([-np.pi + g.h_x / 2.0, 0.0])
        expected = (np.sin(-np.pi) + np.sin(-np.pi + g.h_x)) / 2.0
        assert interp_scalar(f, q) == pytest.approx(expected, abs=1e-15)

    def test_linear_along_grid_lines(self):
        g = PeriodicGrid(16, 16)
        f = ScalarField(g, np.arange(256, dtype=float).reshape(16, 16))
        j = 5
        for frac in (0.25, 0.5, 0.75):
            q = np.array([g.xs[3] + frac * g.h_x, g.ys[j]])
            expected = (1 - frac) * f.values[3, j] + frac * f.values[4, j]
            assert interp_scalar(f, q) == pytest.approx(expected, rel=1e-14)

    def test_periodic_seam(self):
        g = PeriodicGrid(16, 16)
        f = ScalarField.from_function(g, lambda x, y: np.cos(x) + np.sin(y))
        inside = interp_scalar(f, np.array([-np.pi + 0.1, 0.3]))
        shifted = interp_scalar(f, np.array([np.pi + 0.1, 0.3 + 2 * np.pi]))
        assert shifted == pytest.approx(inside, rel=1e-14)

    def test_rejects_nonfinite(self):
        g = PeriodicGrid(8, 8)
        f = ScalarField.constant(g, 1.0)
        with pytest.raises(InvalidInputError):
            interp_scalar(f, np.array([np.nan, 0.0]))
        with pytest.raises(InvalidInputError):
            interp_scalar(f, np.array([[0.0, np.inf]]))


class TestGradientSpectral:
    def test_gradient_of_constant_is_zero(self):
        g = PeriodicGrid(32, 32)
        grad = gradient_spectral(ScalarField.constant(g, 4.2))
        assert np.all(grad.u_x.values == 0.0)
        assert np.all(grad.u_y.values == 0.0)

    def test_sin_x(self):
        g = PeriodicGrid(64, 64)
        grad = gradient_spectral(ScalarField.from_function(g, lambda x, y: np.sin(x)))
        X, _ = g.node_mesh()
        assert np.abs(grad.u_x.values - np.cos(X)).max() <= 1e-12
        assert np.abs(grad.u_y.values).max() <= 1e-12

    def test_cos_3y(self):
        g = PeriodicGrid(64, 64)
        grad = gradient_spectral(ScalarField.from_function(g, lambda x, y: np.cos(3 * y)))
        _, Y = g.node_mesh()
        assert np.abs(grad.u_x.values).max() <= 1e-12
        assert np.abs(grad.u_y.values + 3 * np.sin(3 * Y)).max() <= 1e-12

    def test_curl_free_for_arbitrary_input(self, rng):
        g = PeriodicGrid(32, 32)
        for _ in range(5):
            grad = gradient_spectral(ScalarField(g, rng.standard_normal(g.shape)))
            kx = np.fft.fftfreq(g.n_x, d=g.h_x) * 2 * np.pi
            ky = np.fft.fftfreq(g.n_y, d=g.h_y) * 2 * np.pi
            kx[g.n_x // 2] = 0.0
            ky[g.n_y // 2] = 0.0
            curl = (
                np.fft.ifft2(1j * ky[None, :] * np.fft.fft2(grad.u_x.values))
                - np.fft.ifft2(1j * kx[:, None] * np.fft.fft2(grad.u_y.values))
            ).real
            assert np.abs(curl).max() <= 1e-10


def _disp(mapping):
    """The (x, y) displacement arrays ``_compose_disp_arrays`` takes."""
    return mapping.disp.u_x.values, mapping.disp.u_y.values


class TestJacobianDet:
    def test_identity(self):
        g = PeriodicGrid(16, 16)
        det = jacobian_det(identity_map(g))
        assert np.all(det.values == 1.0)

    def test_translation(self):
        g = PeriodicGrid(16, 16)
        disp = VectorField(ScalarField.constant(g, 0.3), ScalarField.constant(g, -0.1))
        det = jacobian_det(DiffeoMap(disp))
        assert np.all(det.values == 1.0)

    def test_shear_map(self):
        g = PeriodicGrid(256, 256)
        disp = VectorField(
            ScalarField.from_function(g, lambda x, y: 0.1 * np.sin(x)),
            ScalarField.constant(g, 0.0),
        )
        det = jacobian_det(DiffeoMap(disp))
        X, _ = g.node_mesh()
        assert np.abs(det.values - (1.0 + 0.1 * np.cos(X))).max() <= 1e-3

    def test_multiplicativity_converges_under_refinement(self):
        # Centered differences of a bilinearly composed displacement carry an
        # O(h) kink term, so per-refinement ratios sit near 2 rather than 4;
        # assert monotone decrease and the overall 4x-refinement reduction.
        errors = []
        for n in (64, 128, 256):
            g = PeriodicGrid(n, n)
            a = smooth_test_map(g, amp=0.30, phase=0.4)
            b = smooth_test_map(g, amp=0.25, phase=1.1)
            lhs = _jacobian_det_arrays(g, *map(_pad, _compose_disp_arrays(g, *_disp(a),
                                                                         *_disp(b))))
            det_a_at_b = interp_scalar(
                jacobian_det(a),
                b.apply(np.stack([m.reshape(-1) for m in g.node_mesh()], axis=1)),
            ).reshape(g.shape)
            rhs = det_a_at_b * jacobian_det(b).values
            errors.append(np.abs(lhs - rhs).mean() / np.abs(rhs).mean())
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[2] >= 4.0

    def test_multiplicativity_with_translation_is_tight(self):
        # A constant inner translation keeps the interpolation offset uniform,
        # which removes the kink term; the identity then holds to ~1e-5.
        g = PeriodicGrid(128, 128)
        a = smooth_test_map(g, amp=0.3, phase=0.4)
        b = DiffeoMap(VectorField(ScalarField.constant(g, 0.37),
                                     ScalarField.constant(g, -0.61)))
        lhs = _jacobian_det_arrays(g, *map(_pad, _compose_disp_arrays(g, *_disp(a), *_disp(b))))
        X, Y = g.node_mesh()
        pts = np.stack([(X + 0.37).reshape(-1), (Y - 0.61).reshape(-1)], axis=1)
        rhs = interp_scalar(jacobian_det(a), pts).reshape(g.shape) * jacobian_det(b).values
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-4

    # (grid, rows per block): each leaves a ragged last block, as the build
    # loop cuts its row blocks
    ROW_CASES = [((40, 40), 7), ((36, 20), 11), ((24, 44), 5)]

    @pytest.mark.parametrize("shape, rows", ROW_CASES)
    def test_row_range_gives_those_rows_of_the_whole_grid(self, rng, shape, rows):
        """The cell-corner kernel and both its reductions, the minimum as the
        build loop's fold check reads it block by block and the mean."""
        g = PeriodicGrid(*shape)
        assert g.n_x % rows
        dx = 0.05 * rng.standard_normal(g.shape)
        dy = 0.05 * rng.standard_normal(g.shape)
        pads = _pad(dx), _pad(dy)
        # the first row, the last row, a one-row range inside, then the blocks
        ranges = [slice(0, 1), slice(g.n_x - 1, g.n_x), slice(3, 4)]
        ranges += [slice(r, min(r + rows, g.n_x)) for r in range(0, g.n_x, rows)]
        for kernel in (_corner_det, _corner_mean):
            whole = kernel(g, *pads)
            for r in ranges:
                assert np.array_equal(kernel(g, *pads, r), whole[r]), (kernel, r)
        whole = np.stack(list(_corner_dets(g, *pads, slice(None))))
        for r in ranges:
            assert np.array_equal(np.stack(list(_corner_dets(g, *pads, r))), whole[:, r]), r
        # the blocks' minima are the whole grid's, as the build loop reads them
        whole = _corner_det(g, *pads)
        assert min(_corner_det(g, *pads, r).min() for r in ranges[3:]) == whole.min()

    @pytest.mark.parametrize("amp", [0.05, 0.3, 1.0])
    def test_corner_det_is_the_cell_minimum_of_the_bilinear_det(self, rng, amp):
        """On each cell det D(x + d_h) is affine, so its least value over a
        9x9 lattice of the cell, corners included, is the kernel's minimum,
        and the lattice's mean is the kernel's mean.  The largest amplitude
        folds some cells."""
        g = PeriodicGrid(24, 20)
        dx, dy = smooth_disp(rng, g, amp, 4), smooth_disp(rng, g, amp, 4)
        s = np.linspace(0.0, 1.0, 9)[:, None]  # local x, along lattice axis 2
        t = np.linspace(0.0, 1.0, 9)[None, :]  # local y, along lattice axis 3

        def corners(v):  # v at cell (i, j)'s corners (i + a, j + b), lattice-ready
            return [np.roll(v, (-a, -b), axis=(0, 1))[:, :, None, None]
                    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]

        x00, x10, x01, x11 = corners(dx)
        y00, y10, y01, y11 = corners(dy)
        j11 = 1.0 + ((1 - t) * (x10 - x00) + t * (x11 - x01)) / g.h_x
        j12 = ((1 - s) * (x01 - x00) + s * (x11 - x10)) / g.h_y
        j21 = ((1 - t) * (y10 - y00) + t * (y11 - y01)) / g.h_x
        j22 = 1.0 + ((1 - s) * (y01 - y00) + s * (y11 - y10)) / g.h_y
        lattice = j11 * j22 - j12 * j21
        got = _corner_det(g, _pad(dx), _pad(dy))
        assert np.array_equal(got, lattice.min(axis=(2, 3)))
        mean = _corner_mean(g, _pad(dx), _pad(dy))
        assert np.abs(mean - lattice.mean(axis=(2, 3))).max() <= 1e-13 * np.abs(lattice).max()
        if amp == 1.0:
            assert got.min() < 0.0

    def test_corner_interpolant_is_the_bilinear_det_inside_the_cell(self, rng):
        """At random points of every cell, the bilinear interpolant of the
        four corner determinants, in the kernel's order, is det D(x + d_h)
        formed from the cell's four corner displacements."""
        g = PeriodicGrid(24, 20)
        dx, dy = smooth_disp(rng, g, 0.3, 4), smooth_disp(rng, g, 0.3, 4)
        c00, c10, c01, c11 = _corner_dets(g, _pad(dx), _pad(dy), slice(None))
        s, t = rng.uniform(0.0, 1.0, (2,) + g.shape)
        interpolant = ((1 - s) * (1 - t) * c00 + s * (1 - t) * c10
                       + (1 - s) * t * c01 + s * t * c11)

        def corner(v, a, b):  # v at cell (i, j)'s corner (i + a, j + b)
            return np.roll(v, (-a, -b), axis=(0, 1))

        x00, x10, x01, x11 = (corner(dx, a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
        y00, y10, y01, y11 = (corner(dy, a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
        j11 = 1.0 + ((1 - t) * (x10 - x00) + t * (x11 - x01)) / g.h_x
        j12 = ((1 - s) * (x01 - x00) + s * (x11 - x10)) / g.h_y
        j21 = ((1 - t) * (y10 - y00) + t * (y11 - y01)) / g.h_x
        j22 = 1.0 + ((1 - s) * (y01 - y00) + s * (y11 - y10)) / g.h_y
        det = j11 * j22 - j12 * j21
        assert np.abs(interpolant - det).max() <= 1e-12 * np.abs(det).max()

    def test_alternating_fold_is_seen_only_by_the_corners(self):
        """The nodal determinant reads 1.0 everywhere; the cell corners read
        the fold."""
        g = PeriodicGrid(16, 12)
        pads = tuple(map(_pad, alternating_fold(g)))
        assert np.all(_jacobian_det_arrays(g, *pads) == 1.0)
        corner = _corner_det(g, *pads)
        assert corner[0::2] == pytest.approx(np.full((8, 12), -0.2), abs=1e-12)
        assert corner[1::2] == pytest.approx(np.full((8, 12), 2.2), abs=1e-12)

    def test_whole_grid_is_the_product_formula(self, rng):
        g = PeriodicGrid(40, 40)
        dx = 0.05 * rng.standard_normal(g.shape)
        dy = 0.05 * rng.standard_normal(g.shape)
        a11 = 1.0 + reference_central_diff(dx, 0, g.h_x)
        a12 = reference_central_diff(dx, 1, g.h_y)
        a21 = reference_central_diff(dy, 0, g.h_x)
        a22 = 1.0 + reference_central_diff(dy, 1, g.h_y)
        assert np.array_equal(_jacobian_det_arrays(g, _pad(dx), _pad(dy)), a11 * a22 - a12 * a21)


class TestCornerMean:
    """``_corner_mean``: u0 * h_x * h_y times a cell's mean corner
    determinant is the cell's mass under the law of density u0 * det of the
    map, u0 = 1 / (4 pi^2) being the uniform density."""

    @staticmethod
    def cell_masses(g, dx, dy):
        return _corner_mean(g, _pad(dx), _pad(dy)) * (g.cell_volume / TWO_PI**2)

    @pytest.fixture
    def smooth_map(self, rng):
        g = PeriodicGrid(64, 64)
        dx, dy = smooth_disp(rng, g, 0.15, 3), smooth_disp(rng, g, 0.15, 3)
        assert _corner_det(g, _pad(dx), _pad(dy)).min() > 0.0  # a law, not a fold
        return g, dx, dy

    def test_cell_masses_sum_to_one(self, smooth_map):
        assert abs(self.cell_masses(*smooth_map).sum() - 1.0) <= 1e-14

    def test_cell_mass_is_the_shoelace_area_of_the_corner_images(self, smooth_map):
        """The bilinear map sends a cell's edges to the segments between its
        corner images, so the image is that quadrilateral."""
        g, dx, dy = smooth_map

        def image(a, b):  # corner (i + a, j + b), relative to node (i, j)
            return (a * g.h_x + np.roll(dx, (-a, -b), axis=(0, 1)),
                    b * g.h_y + np.roll(dy, (-a, -b), axis=(0, 1)))

        quad = [image(0, 0), image(1, 0), image(1, 1), image(0, 1)]  # counterclockwise
        area = 0.5 * sum(x0 * y1 - x1 * y0
                         for (x0, y0), (x1, y1) in zip(quad, quad[1:] + quad[:1]))
        mass = self.cell_masses(g, dx, dy)
        assert np.abs(mass - area / TWO_PI**2).max() <= 1e-13

    def test_identity_is_one_in_every_cell(self):
        g = PeriodicGrid(20, 12)
        zero = np.zeros(g.shape)
        assert np.all(_corner_mean(g, _pad(zero), _pad(zero)) == 1.0)


class TestCompose:
    """``_compose_disp_arrays(grid, *outer, *inner)``: the displacement of
    outer-after-inner, as ``DiffeoMap``'s round-trip check composes."""

    def test_right_identity(self, rng):
        g = PeriodicGrid(32, 32)
        phi = smooth_test_map(g, amp=0.2)
        zero = np.zeros(g.shape)
        cx, cy = _compose_disp_arrays(g, *_disp(phi), zero, zero)
        assert np.array_equal(cx, phi.disp.u_x.values)
        assert np.array_equal(cy, phi.disp.u_y.values)

    def test_left_identity(self):
        g = PeriodicGrid(32, 32)
        psi = smooth_test_map(g, amp=0.2, phase=0.7)
        zero = np.zeros(g.shape)
        cx, cy = _compose_disp_arrays(g, zero, zero, *_disp(psi))
        assert np.array_equal(cx, psi.disp.u_x.values)
        assert np.array_equal(cy, psi.disp.u_y.values)

    def test_translation_group(self):
        g = PeriodicGrid(16, 16)
        a = (np.full(g.shape, 0.4), np.full(g.shape, -0.2))
        b = (np.full(g.shape, 0.25), np.full(g.shape, 0.9))
        cx, cy = _compose_disp_arrays(g, *b, *a)  # apply a first, then b
        assert np.all(cx == 0.4 + 0.25)
        assert np.all(cy == -0.2 + 0.9)

    def test_associativity_error_decreases_with_refinement(self):
        errors = []
        for n in (64, 128, 256):
            g = PeriodicGrid(n, n)
            a = _disp(smooth_test_map(g, amp=0.15, phase=0.3))
            b = _disp(smooth_test_map(g, amp=0.1, phase=1.2))
            c = _disp(smooth_test_map(g, amp=0.12, phase=2.1))
            left = _compose_disp_arrays(g, *_compose_disp_arrays(g, *a, *b), *c)
            right = _compose_disp_arrays(g, *a, *_compose_disp_arrays(g, *b, *c))
            errors.append(max(np.abs(left[0] - right[0]).max(),
                              np.abs(left[1] - right[1]).max()))
        assert errors[0] > errors[1] > errors[2]


def _zero(n_x, n_y):
    return ScalarField.constant(PeriodicGrid(n_x, n_y), 0.0)


# case -> (a constructor call on data of the wrong shape or on mismatched
# grids, the error it raises, the start of its message)
MISMATCHED = {
    "scalar-shape": (lambda: ScalarField(PeriodicGrid(8, 8), np.zeros((8, 4))),
                     InvalidInputError, "values shape (8, 4) != grid (8, 8)"),
    "vector-grids": (lambda: VectorField(_zero(8, 8), _zero(8, 16)),
                     GridMismatchError, "vector components live on different grids"),
    "inverse-grid": (lambda: DiffeoMap(VectorField(_zero(8, 8), _zero(8, 8)),
                                       VectorField(_zero(16, 8), _zero(16, 8))),
                     GridMismatchError, "inverse displacement grid mismatch"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_value_type_refuses_mismatched_data(case):
    build, error, message = MISMATCHED[case]
    with pytest.raises(error) as info:
        build()
    assert str(info.value).startswith(message)


class TestDiffeoMapInvariants:
    def test_rejects_folding_displacement(self):
        g = PeriodicGrid(64, 64)
        disp = VectorField(
            ScalarField.from_function(g, lambda x, y: 1.2 * np.sin(x)),
            ScalarField.constant(g, 0.0),
        )
        with pytest.raises(InvalidInputError):
            DiffeoMap(disp)

    @pytest.mark.parametrize("with_inverse", [False, True])
    def test_rejects_alternating_fold(self, with_inverse):
        """A fold between nodes, which the nodal determinant cannot see; with
        an inverse of -d its round trip is within bounds, so only the fold
        test refuses it."""
        g = PeriodicGrid(16, 12)
        dx, dy = alternating_fold(g)
        disp = VectorField.from_arrays(g, dx, dy)
        inv = VectorField.from_arrays(g, -dx, -dy) if with_inverse else None
        with pytest.raises(InvalidInputError, match="not orientation preserving"):
            DiffeoMap(disp, inv)

    def test_rejects_oversized_displacement(self):
        g = PeriodicGrid(16, 16)
        disp = VectorField(ScalarField.constant(g, 6.5), ScalarField.constant(g, 0.0))
        with pytest.raises(InvalidInputError):
            DiffeoMap(disp)

    @pytest.mark.parametrize("shift, refused", [
        (TWO_PI, True),  # the torus identity, which one wrap shift cannot bring into range
        (np.nextafter(_SHIFT_BOUND - np.pi, 10.0), True),
        (_SHIFT_BOUND - np.pi, False),
    ], ids=["two-pi", "past-the-bound", "at-the-bound"])
    def test_displacement_bound_is_one_wrap_shift(self, shift, refused):
        """A point of [-pi, pi) moved by at most ``_SHIFT_BOUND - pi`` takes
        one wrap shift into range, as the sampler applies it; a larger
        displacement is refused, the constant 2*pi shift included."""
        g = PeriodicGrid(8, 8)
        zero = ScalarField.constant(g, 0.0)
        for disp in (VectorField(ScalarField.constant(g, shift), zero),
                     VectorField(zero, ScalarField.constant(g, -shift))):
            if not refused:
                DiffeoMap(disp)
                continue
            with pytest.raises(InvalidInputError, match="exceeds _SHIFT_BOUND - pi"):
                DiffeoMap(disp)

    def test_rejects_inconsistent_inverse(self):
        g = PeriodicGrid(32, 32)
        phi = smooth_test_map(g, amp=0.2)
        bogus = VectorField(ScalarField.constant(g, 2.5), ScalarField.constant(g, 2.5))
        with pytest.raises(InvalidInputError):
            DiffeoMap(phi.disp, bogus)

    @pytest.mark.parametrize("cells,refused", [(1.5, False), (3.0, True)])
    def test_inverse_within_two_grid_spacings(self, cells, refused):
        """The identity map with a stored inverse that is a constant shift
        along x: 1.5 grid spacings off is within the bound, 3 are refused."""
        g = PeriodicGrid(32, 32)
        zero = np.zeros(g.shape)
        disp = VectorField.from_arrays(g, zero, zero)
        inv = VectorField.from_arrays(g, np.full(g.shape, cells * g.h_x), zero)
        if not refused:
            DiffeoMap(disp, inv)
            return
        with pytest.raises(InvalidInputError, match="inverse is inconsistent"):
            DiffeoMap(disp, inv)

    def test_kept_pads_are_the_read_only_extensions(self):
        """The map keeps the ``_pad`` extensions of its forward displacement,
        and writing to them raises."""
        m = smooth_test_map(PeriodicGrid(32, 24), amp=0.2)
        for pad, comp in zip(m._padded, (m.disp.u_x, m.disp.u_y)):
            assert np.array_equal(pad, _pad(comp.values))
            with pytest.raises(ValueError, match="read-only"):
                pad[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                pad += 1.0

    def test_apply_wraps_into_range(self):
        g = PeriodicGrid(32, 32)
        m = DiffeoMap(VectorField(ScalarField.constant(g, np.pi),
                                     ScalarField.constant(g, 0.0)))
        out = m.apply(np.array([[np.pi / 2, 0.0]]))
        assert out[0, 0] == pytest.approx(-np.pi / 2, abs=1e-15)
        assert np.all(out >= -np.pi) and np.all(out < np.pi)


class TestPointEntry:
    """interp_scalar and DiffeoMap.apply share one input check."""

    GRID = PeriodicGrid(16, 16)

    @staticmethod
    def queries():
        g = TestPointEntry.GRID
        field = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.cos(y))
        return {
            "interp_scalar": lambda pts: interp_scalar(field, pts),
            "apply": identity_map(g).apply,
        }

    @pytest.mark.parametrize("name", ["interp_scalar", "apply"])
    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3)),
        np.zeros((3, 1)),
        np.zeros((2, 3)),
        np.zeros(3),
        np.zeros((2, 2, 2)),
        np.array([[0.0, np.nan], [0.1, 0.2]]),
        np.array([np.nan, 0.0]),
        np.array([[np.inf, 0.0]]),
    ], ids=["3col", "1col", "2x3", "3vec", "3d", "nan-row", "nan-point", "inf"])
    def test_rejects_bad_points(self, name, bad):
        with pytest.raises(InvalidInputError):
            self.queries()[name](bad)

    def test_single_point(self):
        q = self.queries()
        point = np.array([0.3, -1.2])
        row = point[None, :]
        assert np.ndim(q["interp_scalar"](point)) == 0
        assert q["interp_scalar"](point) == q["interp_scalar"](row)[0]
        assert np.array_equal(q["apply"](point), point)

    @pytest.mark.parametrize("points, shape", [
        ([0.5, -1.0], (2,)),
        ([[0.5, -1.0]], (1, 2)),
        (np.zeros((3, 2)), (3, 2)),
    ], ids=["point", "one-row", "rows"])
    def test_apply_keeps_the_input_shape(self, points, shape):
        """One (2,) point moves to one (2,) point, as interp_scalar gives one
        value for it; rows move to as many rows."""
        m = smooth_test_map(self.GRID, amp=0.3)
        moved = m.apply(points)
        assert moved.shape == shape
        assert np.array_equal(moved.reshape(-1, 2), m.apply(np.reshape(points, (-1, 2))))

    def test_empty_batch(self):
        q = self.queries()
        empty = np.empty((0, 2))
        assert q["interp_scalar"](empty).shape == (0,)
        assert q["apply"](empty).shape == (0, 2)

    def test_apply_matches_interp_scalar(self, rng):
        g = PeriodicGrid(32, 32)
        m = smooth_test_map(g, amp=0.3)
        pts = random_points(rng, 300)
        moved = np.stack([interp_scalar(m.disp.u_x, pts), interp_scalar(m.disp.u_y, pts)], axis=1)
        expected = wrap_angle(pts + moved)
        assert np.array_equal(m.apply(pts), expected)


class TestDisplacedStencil:
    """The displaced-node stencil equals one built from the node mesh, bit for bit."""

    @pytest.mark.parametrize("shape", [(32, 48), (37, 20)])
    def test_matches_mesh_stencil(self, rng, shape):
        from oitsample.grid import _displaced_stencil

        g = PeriodicGrid(*shape)
        X, Y = g.node_mesh()
        for scale in (0.0, 0.05, 3.0, 9.0):
            dx = scale * rng.standard_normal(g.shape)
            dy = scale * rng.standard_normal(g.shape)
            got = _displaced_stencil(g, dx, dy)
            ref = _Stencil(g, (X + dx).reshape(-1), (Y + dy).reshape(-1))
            assert np.array_equal(got.base, ref.base)
            assert np.array_equal(got.fx, ref.fx)
            assert np.array_equal(got.fy, ref.fy)
            # a row block's stencil is the mesh stencil of its rows, and, for
            # coordinates that wrap_angle shifts rather than reduces mod 2*pi,
            # the whole stencil's slice of those rows
            in_bound = max(np.abs(X + dx).max(), np.abs(Y + dy).max()) <= _SHIFT_BOUND
            for rows in (slice(0, 5), slice(5, 11), slice(g.n_x - 3, g.n_x)):
                part = _displaced_stencil(g, dx, dy, rows)
                ref = _Stencil(g, (X + dx)[rows].reshape(-1), (Y + dy)[rows].reshape(-1))
                nodes = slice(rows.start * g.n_y, rows.stop * g.n_y)
                for name in ("base", "fx", "fy"):
                    assert np.array_equal(getattr(part, name), getattr(ref, name))
                    if in_bound:
                        assert np.array_equal(getattr(part, name), getattr(got, name)[nodes])
