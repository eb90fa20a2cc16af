import math

import numpy as np
import pytest

from oitsample import (
    BinnedHistogram,
    DegenerateInputError,
    DiffeoMap,
    InvalidInputError,
    PeriodicGrid,
    SampleBatch,
    ScalarField,
    VectorField,
    chi_squared_gof,
    chi_squared_survival,
    expected_bin_mass,
    histogram,
    make_density,
    normalize,
    rejection_sample_oracle,
    two_sample_chi_squared,
    uniform_density,
)
from oitsample.sampler import draw_uniform
from oitsample.validate import (
    _chi_squared_critical,
    _half_power_noncentrality,
    _increasing_root,
    inverse_law_mass,
    law_certificate,
    regularized_gamma_q,
)
from conftest import alternating_fold, identity_map, smooth_test_map


def sine_density(grid, amp=0.5):
    return normalize(ScalarField.from_function(grid, lambda x, y: 1.0 + amp * np.sin(x)))


class TestHistogram:
    def test_left_edge_point(self):
        batch = SampleBatch(np.array([[-np.pi, -np.pi]]))
        h = histogram(batch, 4, 4)
        assert h.counts[0, 0] == 1
        assert h.total == 1

    def test_origin_goes_to_center_adjacent_bin(self):
        batch = SampleBatch(np.zeros((25, 2)))
        h = histogram(batch, 8, 8)
        assert h.counts[4, 4] == 25

    def test_conserves_count_with_boundary_points(self):
        edge = np.nextafter(np.pi, -1)
        pts = np.array([[-np.pi, edge], [edge, -np.pi], [0.0, 0.0], [edge, edge]])
        h = histogram(SampleBatch(pts), 3, 5)
        assert h.total == 4

    def test_uniform_counts_within_five_sigma(self):
        n = 10**6
        h = histogram(draw_uniform(n, seed=123), 16, 16)
        p = 1.0 / 256
        sigma = np.sqrt(n * p * (1 - p))
        assert np.abs(h.counts - n * p).max() <= 5 * sigma

    def test_bad_bins(self):
        with pytest.raises(InvalidInputError):
            histogram(draw_uniform(10, seed=0), 0, 4)


class TestBinnedHistogram:
    def test_keeps_a_read_only_copy(self):
        c = np.array([[1, 2], [3, 4]], dtype=np.int64)
        h = BinnedHistogram(c)
        assert c.flags.writeable
        c[0, 0] = 9
        assert h.counts.tolist() == [[1, 2], [3, 4]]
        with pytest.raises(ValueError, match="read-only"):
            h.counts[0, 0] = 0

    @pytest.mark.parametrize("counts", [np.arange(4), np.ones((2, 2, 2), dtype=int)])
    def test_needs_a_2d_array(self, counts):
        with pytest.raises(InvalidInputError, match="2-D"):
            BinnedHistogram(counts)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            BinnedHistogram(np.array([[1, -1]]))


class TestExpectedBinMass:
    def test_uniform_masses(self):
        g = PeriodicGrid(64, 64)
        mass = expected_bin_mass(uniform_density(g), 8, 8)
        assert np.allclose(mass, 1.0 / 64, rtol=1e-12)

    def test_masses_sum_to_one(self):
        g = PeriodicGrid(128, 128)
        mass = expected_bin_mass(make_density("two-bump", g), 32, 32)
        assert abs(mass.sum() - 1.0) <= 1e-10
        assert mass.max() / mass.min() < 100.0  # bin averaging contracts the range

    def test_sine_halves_match_quadrature_oracle(self):
        # oracle: fine 1-D trapezoid quadrature of (1 + sin x)/(2 pi) per half period
        m = 1 << 15
        xs = np.linspace(-np.pi, 0.0, m + 1)
        f = 1.0 + np.sin(xs)
        step = np.pi / m
        left = (f.sum() - 0.5 * (f[0] + f[-1])) * step / (2 * np.pi)
        oracle = np.array([left, 1.0 - left])
        g = PeriodicGrid(256, 256)
        mass = expected_bin_mass(sine_density(g, amp=1.0 - 1e-9), 2, 1).reshape(-1)
        assert mass == pytest.approx(oracle, abs=1e-4)

    def test_stable_under_grid_refinement(self):
        coarse = expected_bin_mass(sine_density(PeriodicGrid(256, 256)), 16, 16)
        fine = expected_bin_mass(sine_density(PeriodicGrid(512, 512)), 16, 16)
        assert np.abs(coarse - fine).max() <= 1e-6

    def test_resolution_mismatch(self):
        g = PeriodicGrid(64, 64)
        with pytest.raises(InvalidInputError):
            expected_bin_mass(uniform_density(g), 48, 48)

    @pytest.mark.parametrize("shape, bins", [((36, 20), (12, 5)), ((256, 256), (32, 32))])
    def test_equals_the_rolled_corner_formula(self, shape, bins):
        """Bit for bit the cell-corner sum read through ``np.roll``."""
        g = PeriodicGrid(*shape)
        if shape == (256, 256):
            target = make_density("two-bump", g)
        else:
            target = normalize(ScalarField(g, np.random.default_rng(13).uniform(0.5, 2.0, shape)))
        v = target.field.values
        east = np.roll(v, -1, axis=0)
        corners = 0.25 * (v + east + np.roll(v, -1, axis=1) + np.roll(east, -1, axis=1))
        cells = corners * g.cell_volume
        (b_x, b_y), (m_x, m_y) = bins, (shape[0] // bins[0], shape[1] // bins[1])
        ref = cells.reshape(b_x, m_x, b_y, m_y).sum(axis=(1, 3))
        assert np.array_equal(expected_bin_mass(target, *bins), ref)

    @pytest.mark.parametrize("bins", [0, -4])
    def test_needs_a_bin_per_axis(self, bins):
        g = PeriodicGrid(64, 64)
        with pytest.raises(InvalidInputError, match="at least one bin per axis"):
            expected_bin_mass(uniform_density(g), bins, bins)


class TestGammaFunction:
    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for a in (0.5, 1.0, 2.5, 10.0, 55.5, 511.5):
            for x in (1e-6, 0.1, 0.5 * a, a, a + 1.0, 2.0 * a, 5.0 * a):
                mine = regularized_gamma_q(a, x)
                ref = float(scipy_special.gammaincc(a, x))
                assert mine == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("a, x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1e-9)])
    def test_outside_the_domain(self, a, x):
        with pytest.raises(InvalidInputError, match="need a > 0 and x >= 0"):
            regularized_gamma_q(a, x)

    def test_survival_edge_cases(self):
        assert chi_squared_survival(0.0, 5) == 1.0
        assert chi_squared_survival(1e9, 5) == 0.0
        with pytest.raises(InvalidInputError):
            chi_squared_survival(1.0, 0)


class TestCertificate:
    """The inverse law's exact bin masses, and their TV and N50 against the
    target's."""

    @pytest.mark.parametrize("f, root", [(lambda x: x**3 - 2.0, 2.0 ** (1.0 / 3.0)),
                                         (lambda x: math.sqrt(x) - 1.5, 2.25)],
                             ids=["convex", "concave"])
    def test_illinois_step_on_either_side(self, f, root):
        """A convex f keeps moving the low end, a concave one the high end;
        halving the fixed end's weight reaches the root in a few steps
        (without it, the convex case takes 40 evaluations)."""
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        assert _increasing_root(counted, 1.0) == pytest.approx(root, rel=1e-15, abs=0.0)
        assert len(calls) <= 15

    @pytest.mark.parametrize("dof", [63, 255, 1023])
    def test_critical_value_and_half_power_match_scipy(self, dof):
        scipy_stats = pytest.importorskip("scipy.stats")
        crit = float(scipy_stats.chi2.isf(0.01, dof))
        assert _chi_squared_critical(dof, 0.01) == pytest.approx(crit, rel=1e-9, abs=0.0)
        nc = _half_power_noncentrality(dof, 0.01)
        assert float(scipy_stats.ncx2.sf(crit, dof, nc)) == pytest.approx(0.5, abs=1e-9)

    def test_identity_map_has_the_uniform_law(self):
        g = PeriodicGrid(64, 64)
        mass = inverse_law_mass(identity_map(g), 16, 16)
        assert mass == pytest.approx(np.full((16, 16), 1.0 / 256), rel=1e-15, abs=0.0)
        tv, n50 = law_certificate(mass, expected_bin_mass(uniform_density(g), 16, 16), 0.01)
        assert tv < 1e-15
        assert n50 > 1e20

    def test_masses_sum_to_one(self):
        g = PeriodicGrid(48, 40)
        psi = smooth_test_map(g, amp=0.3, phase=0.2).disp  # the stored inverse
        forward = VectorField.from_arrays(g, -psi.u_x.values, -psi.u_y.values)  # near its inverse
        mass = inverse_law_mass(DiffeoMap(forward, psi), 8, 5)
        assert mass.shape == (8, 5)
        assert abs(mass.sum() - 1.0) <= 1e-14

    def test_no_law_without_a_stored_inverse(self):
        assert inverse_law_mass(smooth_test_map(PeriodicGrid(32, 32)), 8, 8) is None

    def test_no_law_when_the_bins_do_not_divide_the_grid(self):
        mapping = identity_map(PeriodicGrid(40, 40))
        for bins in [(16, 16), (0, 4), (4, -1)]:
            assert inverse_law_mass(mapping, *bins) is None

    def test_no_law_when_the_inverse_folds(self):
        """An inverse 0.6 h_x off the identity passes the round-trip check,
        but folds on every other cell."""
        g = PeriodicGrid(16, 12)
        zero = np.zeros(g.shape)
        mapping = DiffeoMap(VectorField.from_arrays(g, zero, zero),
                            VectorField.from_arrays(g, *alternating_fold(g)))
        assert inverse_law_mass(mapping, 4, 4) is None

    def test_hand_computed_case(self):
        """Two bins at 0.6/0.4 against 0.5/0.5: TV 0.1, and lambda/N =
        0.01/0.5 * 2 = 0.04 on one degree of freedom."""
        tv, n50 = law_certificate(np.array([[0.6], [0.4]]), np.array([[0.5], [0.5]]), 0.01)
        assert tv == pytest.approx(0.1, rel=1e-12)
        assert n50 == pytest.approx(_half_power_noncentrality(1, 0.01) / 0.04, rel=1e-12)


class TestChiSquaredGof:
    def test_exact_match_gives_zero(self):
        h = BinnedHistogram(np.array([[30], [70]]))
        stat, dof, p = chi_squared_gof(h, np.array([0.3, 0.7]))
        assert stat == 0.0
        assert dof == 1
        assert p == 1.0

    def test_hand_computed_case(self):
        h = BinnedHistogram(np.array([[10], [20]]))
        stat, dof, p = chi_squared_gof(h, np.array([0.5, 0.5]))
        assert stat == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert dof == 1
        scipy_stats = pytest.importorskip("scipy.stats")
        assert p == pytest.approx(float(scipy_stats.chi2.sf(10.0 / 3.0, 1)), abs=1e-12)

    def test_calibration_under_null(self):
        # Across 400 seeds the p <= 0.01 fraction measures 0.0100 exactly; this
        # fixed hundred has zero failures, leaving margin under the <= 1 budget.
        failures = 0
        mass = np.full(256, 1.0 / 256)
        for seed in range(31400, 31500):
            h = histogram(draw_uniform(100_000, seed=seed), 16, 16)
            _, _, p = chi_squared_gof(h, mass)
            if p <= 0.01:
                failures += 1
        assert failures <= 1

    def test_merges_small_bins_deterministically(self):
        counts = np.array([[50, 50, 50, 50],
                           [50, 2, 50, 50],
                           [50, 50, 50, 50],
                           [50, 50, 50, 50]])
        mass = counts / counts.sum()
        h = BinnedHistogram(counts)
        stat, dof, p = chi_squared_gof(h, mass.reshape(-1))
        # the 2-expected bin merges into a neighbor: 16 bins -> 15 groups
        assert dof == 14
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_all_bins_merged_is_degenerate(self):
        h = BinnedHistogram(np.array([[1, 1], [1, 1]]))
        with pytest.raises(DegenerateInputError):
            chi_squared_gof(h, np.full(4, 0.25))

    def test_empty_histogram_is_degenerate(self):
        h = BinnedHistogram(np.zeros((4, 4), dtype=int))
        with pytest.raises(DegenerateInputError,
                           match="^goodness-of-fit test needs a nonempty histogram$"):
            chi_squared_gof(h, np.full(16, 1 / 16))

    def test_size_mismatch(self):
        h = BinnedHistogram(np.ones((2, 2), dtype=int))
        with pytest.raises(InvalidInputError):
            chi_squared_gof(h, np.full(8, 0.125))


class TestTwoSample:
    def test_identical_histograms(self):
        h = BinnedHistogram(np.array([[40], [60]]))
        stat, dof, p = two_sample_chi_squared(h, h)
        assert stat == 0.0
        assert p == 1.0

    def test_hand_computed_case(self):
        a = BinnedHistogram(np.array([[10], [20]]))
        b = BinnedHistogram(np.array([[20], [10]]))
        stat, dof, _ = two_sample_chi_squared(a, b)
        assert stat == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert dof == 1

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_empty_histogram(self, empty_first):
        empty = BinnedHistogram(np.zeros((2, 1), dtype=np.int64))
        full = BinnedHistogram(np.array([[1], [1]]))
        a, b = (empty, full) if empty_first else (full, empty)
        with pytest.raises(DegenerateInputError, match="needs nonempty histograms"):
            two_sample_chi_squared(a, b)

    def test_binning_mismatch(self):
        a = BinnedHistogram(np.array([[1], [1]]))
        b = BinnedHistogram(np.array([[1, 1]]))
        with pytest.raises(InvalidInputError):
            two_sample_chi_squared(a, b)

    def test_oracle_self_consistency(self):
        g = PeriodicGrid(64, 64)
        target = sine_density(g)
        failures = 0
        for seed in range(100):
            a = rejection_sample_oracle(target, 20_000, seed=seed)
            b = rejection_sample_oracle(target, 20_000, seed=10_000 + seed)
            _, _, p = two_sample_chi_squared(histogram(a, 16, 16), histogram(b, 16, 16))
            if p <= 0.01:
                failures += 1
        assert failures <= 1


class TestRejectionOracle:
    def test_uniform_target_accepts_everything(self):
        from oitsample.sampler import _uniform_stream
        from oitsample.validate import _STREAM_ORACLE

        g = PeriodicGrid(32, 32)
        batch = rejection_sample_oracle(uniform_density(g), 50_000, seed=3)
        # the points are the first 50_000 proposals, none rejected
        rows = _uniform_stream(3, _STREAM_ORACLE, 0, 3 * 50_000).reshape(-1, 3)
        assert np.array_equal(batch.points, -np.pi + 2.0 * np.pi * rows[:, :2])
        _, _, p = chi_squared_gof(histogram(batch, 16, 16), np.full(256, 1.0 / 256))
        assert p > 0.01

    def test_negative_count_rejected(self):
        target = uniform_density(PeriodicGrid(16, 16))
        with pytest.raises(InvalidInputError, match="sample count must be nonnegative, got -1"):
            rejection_sample_oracle(target, -1, 0)

    def test_determinism(self):
        g = PeriodicGrid(32, 32)
        target = sine_density(g)
        a = rejection_sample_oracle(target, 1000, seed=9)
        b = rejection_sample_oracle(target, 1000, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_empirical_masses_converge_like_root_n(self):
        g = PeriodicGrid(64, 64)
        target = sine_density(g)
        mass = expected_bin_mass(target, 16, 16).reshape(-1)
        devs = []
        for n in (10**4, 10**5, 10**6):
            h = histogram(rejection_sample_oracle(target, n, seed=77), 16, 16)
            devs.append(np.abs(h.counts.reshape(-1) / n - mass).max())
        for lo, hi in zip(devs[1:], devs[:-1]):
            ratio = hi / lo  # expect ~sqrt(10) per decade, within a factor 2
            assert np.sqrt(10) / 2 <= ratio <= 2 * np.sqrt(10)


# ---------------------------------------------------------------------------
# the oracle on the shared uniform stream, against its own-Generator form


def reference_rejection_sample_oracle(target, n, seed):
    """The oracle drawing its proposals from one long-lived Generator."""
    from oitsample.grid import _pad, _Stencil
    from oitsample.validate import _STREAM_ORACLE

    vmax = float(target.field.values.max())
    gen = np.random.Generator(np.random.Philox(key=[seed & ((1 << 64) - 1), _STREAM_ORACLE]))
    accepted, got = [], 0
    while got < n:
        block = max(4 * (n - got), 1 << 16)
        draw = gen.random((block, 3))
        pts = -np.pi + 2.0 * np.pi * draw[:, :2]
        st = _Stencil(target.grid, np.ascontiguousarray(pts[:, 0]),
                      np.ascontiguousarray(pts[:, 1]))
        hits = np.nonzero(draw[:, 2] * vmax < st.gather(_pad(target.field.values)))[0]
        accepted.append(pts[hits[: n - got]])
        got += len(accepted[-1])
    return np.concatenate(accepted) if accepted else np.empty((0, 2))


class TestOracleStream:
    @pytest.fixture(scope="class")
    def two_bump(self):
        return make_density("two-bump", PeriodicGrid(64, 64))

    # n = 0, n = 1, one block, several blocks (about 8% of proposals accept);
    # at n = 1e5 the reference's first block, 4n rows, spans about 12 point blocks
    @pytest.mark.parametrize("n, seed", [(0, 3), (1, 3), (1000, 4), (20_000, 5), (100_000, 8)])
    def test_matches_generator_form(self, two_bump, n, seed):
        batch = rejection_sample_oracle(two_bump, n, seed=seed)
        assert np.array_equal(batch.points, reference_rejection_sample_oracle(two_bump, n, seed))

    def test_uniform_target_matches_generator_form(self):
        target = uniform_density(PeriodicGrid(32, 32))
        batch = rejection_sample_oracle(target, 50_000, seed=3)
        assert np.array_equal(batch.points, reference_rejection_sample_oracle(target, 50_000, 3))

    def test_proposal_block_not_a_multiple_of_the_point_block(self, two_bump):
        from oitsample.grid import _POINT_BLOCK

        n = 17_001  # the reference's first proposal block, 4n = 2 * 2**15 + 2468 rows
        assert (4 * n) % _POINT_BLOCK and 4 * n > 2 * _POINT_BLOCK
        batch = rejection_sample_oracle(two_bump, n, seed=7)
        assert np.array_equal(batch.points, reference_rejection_sample_oracle(two_bump, n, 7))
