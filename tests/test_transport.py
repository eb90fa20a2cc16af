import tracemalloc
import warnings

import numpy as np
import pytest

from oitsample import (
    GridMismatchError,
    InvalidInputError,
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
from oitsample.grid import wrap_angle
from oitsample.transport import pushforward_residual
from conftest import identity_map


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
        assert round_trip(fine) <= 10 * g.h_x


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

    def test_orientation_loss_reports_step(self):
        g = PeriodicGrid(64, 64)
        with pytest.raises(OrientationLossError) as err:
            build_transport_map(make_density("two-bump", g),
                                TransportConfig(steps=1, grid=g))
        assert err.value.step == 0

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

    def test_translation_preserves_uniform(self):
        g = PeriodicGrid(32, 32)
        disp = VectorField(ScalarField.constant(g, 0.8), ScalarField.constant(g, -1.3))
        mapping = DiffeoMap(g, disp)
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
    def test_traced_peak_stays_under_48_grid_arrays(self):
        """The loop's step arrays are gone before the map is checked and
        scored, and the loop builds no node mesh.  Measured: about 41.6 grid
        arrays (n^2 float64 each) at 128^2; holding the step arrays past the
        loop took about 54.7."""
        g = PeriodicGrid(128, 128)
        target = make_density("sine-perturbation", g)
        tracemalloc.start()
        try:
            build_transport_map(target, TransportConfig(steps=10, grid=g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * g.n_x * g.n_y * 8
