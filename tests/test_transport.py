import tracemalloc
import warnings

import numpy as np
import pytest

from oitsample import (
    GridMismatchError,
    InvalidInputError,
    NumericalBlowupError,
    OrientationLossError,
    PeriodicGrid,
    ScalarField,
    TransportConfig,
    VectorField,
    DiffeoMap,
    build_transport_map,
    gradient_spectral,
    interp_scalar,
    make_density,
    normalize,
    geodesic_path,
    solve_poisson,
    uniform_density,
    PoissonWorkspace,
)
from oitsample.geodesic import log_density_rate
from oitsample.grid import _central_diff, _pad, _Stencil, wrap_angle
from oitsample.poisson import _solve_gradient
from oitsample.transport import _NEWTON_ITERS, _integrate, pushforward_residual
from conftest import identity_map, nan_velocities, singular_newton_diff


def sine_density(grid, amp):
    return normalize(ScalarField.from_function(grid, lambda x, y: 1.0 + amp * np.sin(x)))


class TestUniformFixedPoint:
    def test_displacement_is_exactly_zero(self):
        g = PeriodicGrid(64, 64)
        result = build_transport_map(make_density("uniform", g),
                                     TransportConfig(steps=10, grid=g))
        assert np.all(result.map.disp.u_x.values == 0.0)
        assert np.all(result.map.disp.u_y.values == 0.0)
        assert np.all(result.map.inv_disp.u_x.values == 0.0)
        assert np.all(result.map.inv_disp.u_y.values == 0.0)
        assert result.residual <= 1e-10
        assert result.angle == 0.0
        assert np.all(result.min_jacobian == 1.0)
        assert np.all(result.cfl == 0.0)


class TestNearIdentity:
    def test_single_step_matches_linearized_solution(self):
        g = PeriodicGrid(64, 64)
        target = sine_density(g, 0.01)
        result = build_transport_map(target, TransportConfig(steps=1, grid=g))
        assert result.residual <= 1e-3

        # one Euler step should agree with the t=0 linearization to O(amp^2)
        path = geodesic_path(uniform_density(g), target)
        f0 = solve_poisson(PoissonWorkspace(g), log_density_rate(path, 0.0))
        v0 = gradient_spectral(f0)
        assert np.abs(result.map.disp.u_x.values + v0.u_x.values).max() <= 1e-4
        assert np.abs(result.map.disp.u_y.values + v0.u_y.values).max() <= 1e-4

    def test_round_trip_improves_with_steps(self):
        g = PeriodicGrid(64, 64)
        target = sine_density(g, 0.3)

        def round_trip(result):
            X, Y = g.node_mesh()
            fx = X + result.map.disp.u_x.values
            fy = Y + result.map.disp.u_y.values
            pts = np.stack([fx.reshape(-1), fy.reshape(-1)], axis=1)
            inv = result.map.inv_disp
            ex = wrap_angle(pts[:, 0] + interp_scalar(inv.u_x, pts) - X.reshape(-1))
            ey = wrap_angle(pts[:, 1] + interp_scalar(inv.u_y, pts) - Y.reshape(-1))
            return np.hypot(ex, ey).max()

        coarse = build_transport_map(target, TransportConfig(steps=2, grid=g))
        fine = build_transport_map(target, TransportConfig(steps=16, grid=g))
        assert round_trip(fine) < round_trip(coarse)
        assert round_trip(fine) <= 1e-6 * g.h_x


class TestDiagnosticsAndErrors:
    def test_diagnostics_have_step_length(self):
        g = PeriodicGrid(32, 32)
        result = build_transport_map(sine_density(g, 0.2),
                                     TransportConfig(steps=7, grid=g))
        assert len(result.cfl) == 7
        assert len(result.poisson_mean) == 7
        assert len(result.min_jacobian) == 7
        assert result.min_jacobian.min() > 0

    def test_velocity_fields_curl_free_when_recorded(self, monkeypatch):
        import oitsample.transport as transport

        g = PeriodicGrid(64, 64)
        recorded = []
        solve = transport._solve_gradient

        def recording_solve(ws, source):
            v_x, v_y = solve(ws, source)
            recorded.append(VectorField.from_arrays(g, v_x, v_y))
            return v_x, v_y

        monkeypatch.setattr(transport, "_solve_gradient", recording_solve)
        build_transport_map(sine_density(g, 0.4), TransportConfig(steps=8, grid=g))
        assert len(recorded) == 8
        kx = np.fft.fftfreq(g.n_x, d=g.h_x) * 2 * np.pi
        ky = np.fft.fftfreq(g.n_y, d=g.h_y) * 2 * np.pi
        kx[g.n_x // 2] = 0.0
        ky[g.n_y // 2] = 0.0
        for vf in recorded[::3]:
            curl = (
                np.fft.ifft2(1j * ky[None, :] * np.fft.fft2(vf.u_x.values))
                - np.fft.ifft2(1j * kx[:, None] * np.fft.fft2(vf.u_y.values))
            ).real
            assert np.abs(curl).max() <= 1e-10

    def test_non_finite_velocity_is_a_blowup(self, monkeypatch):
        import oitsample.transport as transport

        monkeypatch.setattr(transport, "_solve_gradient", nan_velocities)
        g = PeriodicGrid(16, 16)
        with pytest.raises(NumericalBlowupError) as err:
            build_transport_map(sine_density(g, 0.2), TransportConfig(steps=2, grid=g))
        assert str(err.value) == "numerical blow-up at step 0: velocity field is not finite"
        assert err.value.step == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_newton_jacobian_is_a_blowup(self, monkeypatch):
        """A zero Newton determinant raises before the step divides by it,
        so no floating point warning comes first."""
        import oitsample.transport as transport

        monkeypatch.setattr(transport, "_central_diff", singular_newton_diff)
        g = PeriodicGrid(16, 16)
        with pytest.raises(NumericalBlowupError) as err:
            build_transport_map(make_density("sine-perturbation", g),
                                TransportConfig(steps=2, grid=g))
        assert str(err.value) == ("numerical blow-up at step 0: "
                                  "forward-map Newton Jacobian is singular or not finite")
        assert err.value.step == 0

    def test_orientation_loss_reports_step(self):
        """One step is far too coarse (CFL about 25): the error says to take
        more time steps."""
        g = PeriodicGrid(64, 64)
        with pytest.raises(OrientationLossError) as err:
            build_transport_map(make_density("two-bump", g),
                                TransportConfig(steps=1, grid=g))
        assert err.value.step == 0
        assert err.value.time == 1.0
        assert err.value.cfl > 1.0
        assert str(err.value).endswith("(try more time steps)")

    def test_orientation_loss_below_cfl_one_blames_the_contrast(self):
        """A ratio-1000 target folds late at CFL about 0.19: more steps would
        not resolve it, and the error does not advise them."""
        g = PeriodicGrid(32, 32)
        with pytest.raises(OrientationLossError) as err:
            build_transport_map(make_density("two-bump", g, ratio=1000.0),
                                TransportConfig(steps=50, grid=g))
        assert err.value.step == 47
        assert err.value.time == 48 / 50
        assert err.value.cfl < 1.0
        assert err.value.min_det < 0.0
        assert "more time steps" in str(err.value)
        assert "try more time steps" not in str(err.value)
        assert "target's contrast" in str(err.value)

    def test_grid_mismatch(self):
        g = PeriodicGrid(32, 32)
        other = PeriodicGrid(64, 64)
        with pytest.raises(GridMismatchError):
            build_transport_map(sine_density(g, 0.2), TransportConfig(steps=3, grid=other))

    def test_invalid_step_count(self):
        g = PeriodicGrid(32, 32)
        with pytest.raises(InvalidInputError):
            TransportConfig(steps=0, grid=g)

    def test_residual_warning_flag(self):
        g = PeriodicGrid(32, 32)
        target = make_density("two-bump", g)
        with pytest.warns(RuntimeWarning):
            result = build_transport_map(
                target, TransportConfig(steps=12, grid=g, residual_tol=1e-6))
        assert result.residual_above_tol

    def test_large_steps_build_without_warning(self):
        # 7 of the 8 steps move some node by more than half a grid spacing;
        # the per-step CFL is recorded, and only a residual above tolerance warns
        g = PeriodicGrid(32, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = build_transport_map(make_density("sine-perturbation:0.85", g),
                                         TransportConfig(steps=8, grid=g))
        assert result.cfl.max() > 0.5
        assert not result.residual_above_tol

    def test_determinism(self):
        g = PeriodicGrid(48, 48)
        target = sine_density(g, 0.35)
        cfg = TransportConfig(steps=9, grid=g)
        a = build_transport_map(target, cfg)
        b = build_transport_map(target, cfg)
        assert np.array_equal(a.map.disp.u_x.values, b.map.disp.u_x.values)
        assert np.array_equal(a.map.disp.u_y.values, b.map.disp.u_y.values)
        assert np.array_equal(a.map.inv_disp.u_x.values, b.map.inv_disp.u_x.values)
        assert a.residual == b.residual


class TestPushforwardResidual:
    def test_identity_on_uniform(self):
        g = PeriodicGrid(32, 32)
        assert pushforward_residual(identity_map(g), uniform_density(g)) <= 1e-10

    def test_target_on_another_grid(self):
        with pytest.raises(GridMismatchError, match="map and target grids differ"):
            pushforward_residual(identity_map(PeriodicGrid(16, 16)),
                                 uniform_density(PeriodicGrid(16, 32)))

    def test_translation_preserves_uniform(self):
        g = PeriodicGrid(32, 32)
        disp = VectorField(ScalarField.constant(g, 0.8), ScalarField.constant(g, -1.3))
        mapping = DiffeoMap(disp)
        assert pushforward_residual(mapping, uniform_density(g)) <= 1e-10

    def test_decreases_when_steps_double(self):
        g = PeriodicGrid(64, 64)
        target = make_density("two-bump", g)
        # both builds stay above the default tolerance, so both must warn
        builds = []
        for steps in (25, 50):
            with pytest.warns(RuntimeWarning, match="pushforward residual"):
                builds.append(build_transport_map(target, TransportConfig(steps=steps, grid=g)))
        coarse, fine = builds
        assert coarse.residual_above_tol and fine.residual_above_tol
        assert fine.residual < coarse.residual


class TestBuildMemory:
    @staticmethod
    def traced_peak_in_grid_arrays(n):
        """Traced peak of a 10-step build on an n x n grid, in n^2 float64 arrays."""
        g = PeriodicGrid(n, n)
        target = make_density("sine-perturbation", g)
        tracemalloc.start()
        try:
            build_transport_map(target, TransportConfig(steps=10, grid=g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def test_traced_peak_stays_under_32_grid_arrays(self):
        """The loop's step arrays are gone before the map is checked and
        scored, the loop builds no node mesh, a step's Newton scratch goes
        before its Jacobian check, the step runs on six padded buffers with
        ``source`` in one of them, and the inverse map lives in two of those
        buffers, with no second copy.  Measured: 30.6 grid arrays (n^2
        float64 each) at 128^2, one row block; 32.6 with the inverse map
        held beside its pads, 35.7 with eight pads and a separate
        ``source``, 39.3 with the scratch alive through the check too, and
        about 54.7 holding the step arrays past the loop."""
        assert self.traced_peak_in_grid_arrays(128) <= 32

    def test_traced_peak_at_two_blocks_stays_under_23_grid_arrays(self):
        """At 256^2 the loop's pointwise phases run in two row blocks, so a
        step holds the forward map, six pads (two of them the inverse map)
        and the velocities plus one block's temporaries, and the Jacobian
        check runs over the same blocks.  Measured: 21.3 grid arrays, set
        in the Newton pass; 23.3 with the inverse map held beside its pads,
        26.3 with eight pads and a separate ``source``, 31.1 with the last
        block's scratch alive through a whole-grid check as well, and 41.1
        unblocked."""
        assert self.traced_peak_in_grid_arrays(256) <= 23


class TestBlockLayout:
    """The row blocks of the build loop change no byte of its result."""

    @staticmethod
    def integrate(name, shape, steps):
        g = PeriodicGrid(*shape)
        path = geodesic_path(uniform_density(g), make_density(name, g))
        return _integrate(path, g, steps)

    # (density, grid, steps, block sizes): 1 gives one row per block, and the
    # others leave a ragged last block, on square and non-square grids
    CASES = [
        ("two-bump", (40, 40), 30, [1, 7 * 40, 16 * 40]),
        ("sine-perturbation:0.9", (36, 20), 12, [5 * 20, 11 * 20 + 3]),
        ("one-gaussian-bump:2", (24, 44), 12, [1, 5 * 44 + 43]),
    ]

    @pytest.mark.parametrize("name, shape, steps, sizes", CASES)
    def test_blocks_give_the_one_block_bytes(self, monkeypatch, name, shape, steps, sizes):
        import oitsample.transport as transport

        assert transport._POINT_BLOCK >= shape[0] * shape[1]  # one block by default
        whole = self.integrate(name, shape, steps)
        for size in sizes:
            monkeypatch.setattr(transport, "_POINT_BLOCK", size)
            rows = max(1, size // shape[1])
            assert shape[0] % rows or size == 1  # a ragged last block, or one row each
            blocked = self.integrate(name, shape, steps)
            for a, b in zip(whole, blocked):
                assert np.array_equal(a, b), (name, size)


def reference_integrate(path, g, K):
    """The K-step loop on whole grids, in fresh arrays, in the order of its
    phases: the source and the solve, the inverse Euler update, then every
    pad (old forward map, new inverse map, its four centred differences),
    then the predictor and its Newton updates, and last the fold check, the
    least of every cell's four corner determinants from edge differences of
    the forward map's pads."""
    eps = 1.0 / K
    ws = PoissonWorkspace(g)
    X, Y = g.node_mesh()
    fwd_x, fwd_y, inv_x, inv_y = (np.zeros(g.shape) for _ in range(4))
    cfl, poisson_mean, min_jac = np.zeros(K), np.zeros(K), np.zeros(K)
    for k in range(K):
        st = _Stencil(g, (X + fwd_x).reshape(-1), (Y + fwd_y).reshape(-1))
        source = st.gather(_pad(log_density_rate(path, k / K).values)).reshape(g.shape)
        poisson_mean[k] = source.mean()
        v_x, v_y = _solve_gradient(ws, source)
        cfl[k] = max(eps * np.abs(v_x).max() / g.h_x, eps * np.abs(v_y).max() / g.h_y)

        st = _Stencil(g, (X + inv_x).reshape(-1), (Y + inv_y).reshape(-1))
        inv_x = inv_x + eps * st.gather(_pad(v_x)).reshape(g.shape)
        inv_y = inv_y + eps * st.gather(_pad(v_y)).reshape(g.shape)

        pf_x, pf_y, pi_x, pi_y = (_pad(a) for a in (fwd_x, fwd_y, inv_x, inv_y))
        g_xx, g_xy, g_yx, g_yy = (_pad(_central_diff(g, p, axis))
                                  for p in (pi_x, pi_y) for axis in (0, 1))

        y_x = (X - eps * v_x).reshape(-1)
        y_y = (Y - eps * v_y).reshape(-1)
        st = _Stencil(g, y_x, y_y)
        y_x = y_x + st.gather(pf_x)
        y_y = y_y + st.gather(pf_y)
        for _ in range(_NEWTON_ITERS):
            st = _Stencil(g, y_x, y_y)
            res_x = wrap_angle((y_x + st.gather(pi_x)).reshape(g.shape) - X).reshape(-1)
            res_y = wrap_angle((y_y + st.gather(pi_y)).reshape(g.shape) - Y).reshape(-1)
            a11 = 1.0 + st.gather(g_xx)
            a12 = st.gather(g_xy)
            a21 = st.gather(g_yx)
            a22 = 1.0 + st.gather(g_yy)
            det = a11 * a22 - a12 * a21
            y_x = y_x - (a22 * res_x - a12 * res_y) / det
            y_y = y_y - (-a21 * res_x + a11 * res_y) / det
        fwd_x = y_x.reshape(g.shape) - X
        fwd_y = y_y.reshape(g.shape) - Y

        p_x, p_y = (_pad(a) for a in (fwd_x, fwd_y))

        def along_x(p, j):  # at each cell's lower (j = 0) or upper (j = 1) edge
            return (p[2:, 1 + j:g.n_y + 1 + j] - p[1:-1, 1 + j:g.n_y + 1 + j]) / g.h_x

        def along_y(p, i):  # at each cell's left (i = 0) or right (i = 1) edge
            return (p[1 + i:g.n_x + 1 + i, 2:] - p[1 + i:g.n_x + 1 + i, 1:-1]) / g.h_y

        min_jac[k] = min(((1.0 + along_x(p_x, j)) * (1.0 + along_y(p_y, i))
                          - along_y(p_x, i) * along_x(p_y, j)).min()
                         for i in (0, 1) for j in (0, 1))
    return fwd_x, fwd_y, inv_x, inv_y, cfl, poisson_mean, min_jac


class TestReferenceLoop:
    """The build loop, whatever its blocks and buffers, gives the bytes of
    the whole-grid loop in its own phase order."""

    @pytest.mark.parametrize("name, shape, steps, sizes", TestBlockLayout.CASES)
    def test_loop_equals_the_whole_grid_reference(self, monkeypatch, name, shape, steps, sizes):
        import oitsample.transport as transport

        g = PeriodicGrid(*shape)
        path = geodesic_path(uniform_density(g), make_density(name, g))
        ref = reference_integrate(path, g, steps)
        for size in sorted({1, *sizes}):  # one row per block, and ragged blocks
            monkeypatch.setattr(transport, "_POINT_BLOCK", size)
            got = _integrate(path, g, steps)
            for a, b in zip(got, ref, strict=True):
                assert np.array_equal(a, b), (name, size)
