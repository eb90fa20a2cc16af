import numpy as np
import pytest

from oitsample import (
    BinnedHistogram,
    DegenerateInputError,
    InvalidInputError,
    PeriodicGrid,
    SampleBatch,
    ScalarField,
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
from oitsample.validate import regularized_gamma_q


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

    def test_survival_edge_cases(self):
        assert chi_squared_survival(0.0, 5) == 1.0
        assert chi_squared_survival(1e9, 5) == 0.0
        with pytest.raises(InvalidInputError):
            chi_squared_survival(1.0, 0)


class TestChiSquaredGof:
    def test_exact_match_gives_zero(self):
        h = BinnedHistogram(2, 1, np.array([[30], [70]]))
        stat, dof, p = chi_squared_gof(h, np.array([0.3, 0.7]))
        assert stat == 0.0
        assert dof == 1
        assert p == 1.0

    def test_hand_computed_case(self):
        h = BinnedHistogram(2, 1, np.array([[10], [20]]))
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
        h = BinnedHistogram(4, 4, counts)
        stat, dof, p = chi_squared_gof(h, mass.reshape(-1))
        # the 2-expected bin merges into a neighbor: 16 bins -> 15 groups
        assert dof == 14
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_all_bins_merged_is_degenerate(self):
        h = BinnedHistogram(2, 2, np.array([[1, 1], [1, 1]]))
        with pytest.raises(DegenerateInputError):
            chi_squared_gof(h, np.full(4, 0.25))

    def test_empty_histogram_is_degenerate(self):
        h = BinnedHistogram(4, 4, np.zeros((4, 4), dtype=int))
        with pytest.raises(DegenerateInputError,
                           match="^goodness-of-fit test needs a nonempty histogram$"):
            chi_squared_gof(h, np.full(16, 1 / 16))

    def test_size_mismatch(self):
        h = BinnedHistogram(2, 2, np.ones((2, 2), dtype=int))
        with pytest.raises(InvalidInputError):
            chi_squared_gof(h, np.full(8, 0.125))


class TestTwoSample:
    def test_identical_histograms(self):
        h = BinnedHistogram(2, 1, np.array([[40], [60]]))
        stat, dof, p = two_sample_chi_squared(h, h)
        assert stat == 0.0
        assert p == 1.0

    def test_hand_computed_case(self):
        a = BinnedHistogram(2, 1, np.array([[10], [20]]))
        b = BinnedHistogram(2, 1, np.array([[20], [10]]))
        stat, dof, _ = two_sample_chi_squared(a, b)
        assert stat == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert dof == 1

    def test_binning_mismatch(self):
        a = BinnedHistogram(2, 1, np.array([[1], [1]]))
        b = BinnedHistogram(1, 2, np.array([[1, 1]]))
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
        g = PeriodicGrid(32, 32)
        batch, stats = rejection_sample_oracle(uniform_density(g), 50_000, seed=3,
                                               with_stats=True)
        assert stats["rate"] == 1.0
        assert batch.count == 50_000
        _, _, p = chi_squared_gof(histogram(batch, 16, 16), np.full(256, 1.0 / 256))
        assert p > 0.01

    def test_acceptance_rate_matches_envelope(self):
        g = PeriodicGrid(64, 64)
        target = sine_density(g)
        n = 500_000
        batch, stats = rejection_sample_oracle(target, n, seed=5, with_stats=True)
        predicted = 1.0 / (target.field.values.max() * 4 * np.pi**2)
        sigma = np.sqrt(predicted * (1 - predicted) / stats["proposed"])
        assert stats["rate"] == pytest.approx(predicted, abs=3 * sigma)

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
    """The oracle drawing its proposals from one long-lived Generator, with
    the proposal count as it was counted before the exact-fill fix."""
    from oitsample.grid import _Stencil
    from oitsample.validate import _STREAM_ORACLE

    vmax = float(target.field.values.max())
    gen = np.random.Generator(np.random.Philox(key=[seed & ((1 << 64) - 1), _STREAM_ORACLE]))
    accepted, got, proposed = [], 0, 0
    while got < n:
        block = max(4 * (n - got), 1 << 16)
        draw = gen.random((block, 3))
        pts = -np.pi + 2.0 * np.pi * draw[:, :2]
        st = _Stencil(target.grid, np.ascontiguousarray(pts[:, 0]),
                      np.ascontiguousarray(pts[:, 1]))
        hits = np.nonzero(draw[:, 2] * vmax < st.gather(target.field.values))[0]
        if len(hits) > n - got:
            hits = hits[: n - got]
            proposed += int(hits[-1]) + 1
        else:
            proposed += block
        accepted.append(pts[hits])
        got += len(hits)
    points = np.concatenate(accepted) if accepted else np.empty((0, 2))
    return points, {"proposed": proposed, "accepted": got,
                    "rate": got / proposed if proposed else 1.0}


def first_block_accepts(target, seed):
    """Indices of the accepted proposals among the first 2**16 drawn."""
    from oitsample.grid import _Stencil
    from oitsample.validate import _STREAM_ORACLE

    gen = np.random.Generator(np.random.Philox(key=[seed, _STREAM_ORACLE]))
    draw = gen.random((1 << 16, 3))
    pts = -np.pi + 2.0 * np.pi * draw[:, :2]
    st = _Stencil(target.grid, np.ascontiguousarray(pts[:, 0]),
                  np.ascontiguousarray(pts[:, 1]))
    vmax = float(target.field.values.max())
    return np.nonzero(draw[:, 2] * vmax < st.gather(target.field.values))[0]


class TestOracleStream:
    @pytest.fixture(scope="class")
    def two_bump(self):
        return make_density("two-bump", PeriodicGrid(64, 64))

    # n = 0, n = 1, one block, several blocks (about 8% of proposals accept);
    # at n = 1e5 the reference's first block, 4n rows, spans about 12 point blocks
    @pytest.mark.parametrize("n, seed", [(0, 3), (1, 3), (1000, 4), (20_000, 5), (100_000, 8)])
    def test_matches_generator_form(self, two_bump, n, seed):
        batch, stats = rejection_sample_oracle(two_bump, n, seed=seed, with_stats=True)
        points, ref_stats = reference_rejection_sample_oracle(two_bump, n, seed)
        assert np.array_equal(batch.points, points)
        assert stats == ref_stats

    def test_uniform_target_matches_generator_form(self):
        target = uniform_density(PeriodicGrid(32, 32))
        batch, stats = rejection_sample_oracle(target, 50_000, seed=3, with_stats=True)
        points, ref_stats = reference_rejection_sample_oracle(target, 50_000, 3)
        assert np.array_equal(batch.points, points)
        assert stats == ref_stats

    def test_proposals_stop_at_the_last_accept_when_a_block_fills_exactly(self, two_bump):
        hits = first_block_accepts(two_bump, seed=3)
        n = len(hits)  # every accept of the first block is needed
        assert 4 * n <= 1 << 16 and hits[-1] + 1 < 1 << 16
        batch, stats = rejection_sample_oracle(two_bump, n, seed=3, with_stats=True)
        assert stats["proposed"] == hits[-1] + 1
        assert stats["accepted"] == n
        points, _ = reference_rejection_sample_oracle(two_bump, n, 3)
        assert np.array_equal(batch.points, points)
        short = rejection_sample_oracle(two_bump, n - 1, seed=3, with_stats=True)[1]
        assert short["proposed"] == hits[-2] + 1

    def test_proposal_block_not_a_multiple_of_the_point_block(self, two_bump):
        from oitsample.grid import _POINT_BLOCK

        n = 17_001  # the reference's first proposal block, 4n = 2 * 2**15 + 2468 rows
        assert (4 * n) % _POINT_BLOCK and 4 * n > 2 * _POINT_BLOCK
        batch, stats = rejection_sample_oracle(two_bump, n, seed=7, with_stats=True)
        points, ref_stats = reference_rejection_sample_oracle(two_bump, n, 7)
        assert np.array_equal(batch.points, points)
        assert stats == ref_stats
