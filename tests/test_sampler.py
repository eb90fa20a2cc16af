import warnings

import numpy as np
import pytest

from oitsample import (
    DiffeoMap,
    InvalidInputError,
    PeriodicGrid,
    SampleBatch,
    ScalarField,
    TransportConfig,
    VectorField,
    build_transport_map,
    interp_scalar,
    make_density,
    sample_target,
)
from oitsample.grid import _POINT_BLOCK, _pad
from conftest import identity_map
from oitsample.sampler import _transform_chunk, draw_uniform


def transform(mapping, batch):
    """The sampler's map evaluation of one chunk, applied to a whole batch."""
    out = np.empty(batch.points.shape)
    _transform_chunk(mapping, batch.points, out)
    return SampleBatch(out)


class TestDrawUniform:
    def test_empty_batch(self):
        batch = draw_uniform(0, seed=1)
        assert batch.count == 0
        assert batch.points.shape == (0, 2)

    def test_seed_determinism(self):
        a = draw_uniform(1000, seed=42)
        b = draw_uniform(1000, seed=42)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, draw_uniform(1000, seed=43).points)

    @pytest.mark.parametrize("splits", [(300, 700), (1, 999), (250, 250, 500), (333, 333, 334)])
    def test_chunked_equals_serial(self, splits):
        serial = draw_uniform(1000, seed=7)
        start = 0
        parts = []
        for size in splits:
            parts.append(draw_uniform(size, seed=7, start=start).points)
            start += size
        assert np.array_equal(np.concatenate(parts), serial.points)

    def test_all_in_range(self):
        pts = draw_uniform(10**6, seed=3).points
        assert pts.min() >= -np.pi
        assert pts.max() < np.pi

    def test_mean_within_clt_bound(self):
        n = 10**6
        pts = draw_uniform(n, seed=11).points
        bound = 3.0 * (2 * np.pi / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(pts[:, 0].mean()) <= bound
        assert abs(pts[:, 1].mean()) <= bound

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            draw_uniform(-1, seed=0)

    def test_negative_start_rejected(self):
        with pytest.raises(InvalidInputError, match="start index must be nonnegative, got -1"):
            draw_uniform(4, 0, start=-1)


class TestTransformSamples:
    """The map evaluation each sampler chunk runs: y = wrap(x + d(x))."""

    def test_identity_map_returns_input(self):
        g = PeriodicGrid(16, 16)
        batch = draw_uniform(500, seed=5)
        out = transform(identity_map(g), batch)
        assert np.array_equal(out.points, batch.points)

    def test_half_turn_translation_wraps(self):
        g = PeriodicGrid(16, 16)
        mapping = DiffeoMap(VectorField(ScalarField.constant(g, np.pi),
                                           ScalarField.constant(g, 0.0)))
        batch = SampleBatch(np.array([[np.pi / 2, 0.0]]))
        out = transform(mapping, batch)
        assert out.points[0, 0] == pytest.approx(-np.pi / 2, abs=1e-15)
        assert out.points[0, 1] == 0.0

    def test_boundary_inputs_stay_in_range(self):
        g = PeriodicGrid(16, 16)
        mapping = DiffeoMap(VectorField(ScalarField.constant(g, 2 * np.pi - 1e-9),
                                           ScalarField.constant(g, -2 * np.pi + 1e-9)))
        edge = np.nextafter(np.pi, -1)
        batch = SampleBatch(np.array([[-np.pi, -np.pi], [edge, edge], [0.0, 0.0]]))
        out = transform(mapping, batch)
        assert np.all(out.points >= -np.pi)
        assert np.all(out.points < np.pi)

    def test_matches_componentwise_interp(self):
        from conftest import smooth_test_map

        g = PeriodicGrid(32, 32)
        mapping = smooth_test_map(g, amp=0.3)
        disp = mapping.disp
        batch = draw_uniform(100, seed=9)
        out = transform(mapping, batch)
        dx = interp_scalar(disp.u_x, batch.points)
        dy = interp_scalar(disp.u_y, batch.points)
        expected_x = batch.points[:, 0] + dx
        expected_y = batch.points[:, 1] + dy
        expected_x = np.where(expected_x >= np.pi, expected_x - 2 * np.pi, expected_x)
        expected_x = np.where(expected_x < -np.pi, expected_x + 2 * np.pi, expected_x)
        expected_y = np.where(expected_y >= np.pi, expected_y - 2 * np.pi, expected_y)
        expected_y = np.where(expected_y < -np.pi, expected_y + 2 * np.pi, expected_y)
        assert np.array_equal(out.points[:, 0], expected_x)
        assert np.array_equal(out.points[:, 1], expected_y)

    def test_input_batch_unchanged_and_order_preserved(self):
        g = PeriodicGrid(16, 16)
        mapping = DiffeoMap(VectorField(ScalarField.constant(g, 0.1),
                                           ScalarField.constant(g, 0.0)))
        batch = draw_uniform(50, seed=2)
        before = batch.points.copy()
        out = transform(mapping, batch)
        assert np.array_equal(batch.points, before)
        assert np.array_equal(out.points[:, 1], batch.points[:, 1])


class TestSampleTarget:
    def test_empty(self):
        g = PeriodicGrid(16, 16)
        assert sample_target(identity_map(g), 0, seed=1).count == 0

    def test_identity_map_samples_are_uniform(self):
        from oitsample import chi_squared_gof, histogram

        g = PeriodicGrid(256, 256)
        batch = sample_target(identity_map(g), 100_000, seed=0)
        _, dof, p = chi_squared_gof(histogram(batch, 16, 16), np.full(256, 1.0 / 256))
        assert dof == 255
        assert p > 0.01

    def test_composition_of_draw_and_transform(self):
        g = PeriodicGrid(32, 32)
        mapping = DiffeoMap(VectorField(ScalarField.constant(g, 0.25),
                                           ScalarField.constant(g, -0.5)))
        direct = sample_target(mapping, 10_000, seed=14)
        manual = transform(mapping, draw_uniform(10_000, seed=14))
        assert np.array_equal(direct.points, manual.points)

    def test_chunk_boundaries_invisible(self):
        g = PeriodicGrid(16, 16)
        n = (1 << 20) + 17  # crosses the internal chunk size
        direct = sample_target(identity_map(g), n, seed=4)
        assert np.array_equal(direct.points, draw_uniform(n, seed=4).points)

    def test_workers_match_serial(self):
        g = PeriodicGrid(16, 16)
        mapping = DiffeoMap(VectorField(ScalarField.constant(g, 1.1),
                                           ScalarField.constant(g, 0.2)))
        n = 2 * (1 << 20) + 5
        a = sample_target(mapping, n, seed=21, workers=1)
        b = sample_target(mapping, n, seed=21, workers=3)
        assert np.array_equal(a.points, b.points)


class TestSampleBatchInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            SampleBatch(np.array([[np.pi, 0.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            SampleBatch(np.zeros((3, 3)))

    @pytest.mark.parametrize("col", [0, 1])
    def test_rejects_nan(self, col):
        pts = np.zeros((4, 2))
        pts[2, col] = np.nan
        with pytest.raises(InvalidInputError):
            SampleBatch(pts)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_sample_target_rejects(self, workers):
        with pytest.raises(InvalidInputError):
            sample_target(identity_map(PeriodicGrid(8, 8)), 10, seed=0, workers=workers)

    def test_pool_is_capped_at_the_core_count(self, monkeypatch):
        """The 4 chunks below fit in the 2 x ``workers`` chunks the driver
        submits ahead, so an uncapped pool would start one thread per chunk."""
        import os
        from concurrent.futures import ThreadPoolExecutor

        import oitsample.sampler as sampler

        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        g = PeriodicGrid(16, 16)
        n = 3 * _POINT_BLOCK + 7
        serial = sample_target(identity_map(g), n, seed=4, workers=1).points
        monkeypatch.setattr(sampler, "ThreadPoolExecutor", RecordingPool)
        wide = sample_target(identity_map(g), n, seed=4, workers=64).points
        assert all(size <= (os.cpu_count() or 1) for size in sizes)
        assert len(sizes) == (1 if (os.cpu_count() or 1) > 1 else 0)
        assert wide.tobytes() == serial.tobytes()


class TestOneDriver:
    """sample_target runs one chunk loop: one draw and one map evaluation per
    chunk, whatever the worker count.  The chunk is the package's one point
    block, so the n below span 32-65 chunks."""

    CHUNK = 1 << 15

    @pytest.fixture
    def calls(self, monkeypatch):
        import threading

        import oitsample.sampler as sampler

        assert _POINT_BLOCK == self.CHUNK
        log = {"draw": [], "transform": []}
        lock = threading.Lock()
        draw, transform = sampler.draw_uniform, sampler._transform_chunk

        def counting_draw(n, seed, start=0):
            with lock:
                log["draw"].append((start, n))
            return draw(n, seed, start=start)

        def counting_transform(mapping, pts, out):
            with lock:
                log["transform"].append(len(pts))
            transform(mapping, pts, out)

        monkeypatch.setattr(sampler, "draw_uniform", counting_draw)
        monkeypatch.setattr(sampler, "_transform_chunk", counting_transform)
        return log

    @classmethod
    def expected_spans(cls, n):
        return [(s, min(s + cls.CHUNK, n) - s) for s in range(0, n, cls.CHUNK)]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [0, 1 << 20, 2 * (1 << 20) + 5])
    def test_sample_target(self, calls, workers, n):
        g = PeriodicGrid(16, 16)
        out = sample_target(identity_map(g), n, seed=6, workers=workers)
        spans = self.expected_spans(n)
        assert sorted(calls["draw"]) == spans
        assert sorted(calls["transform"]) == sorted(size for _, size in spans)
        assert out.count == n


class TestStreamingDriver:
    """``_map_chunks`` hands each chunk to ``emit`` on the calling thread, in
    order, and computes at most 2 x workers chunks ahead of it."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_emit_order_and_chunks_ahead(self, monkeypatch, workers):
        import os
        import sys
        import threading
        import time

        import oitsample.sampler as sampler

        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # 3 workers run 3 threads
        lock = threading.Lock()
        ahead = {"now": 0, "most": 0}
        transform = sampler._transform_chunk

        def counting_transform(mapping, pts, out):
            transform(mapping, pts, out)
            with lock:
                ahead["now"] += 1
                ahead["most"] = max(ahead["most"], ahead["now"])

        monkeypatch.setattr(sampler, "_transform_chunk", counting_transform)
        home = threading.get_ident()
        emitted = []

        def emit(start, points):
            assert threading.get_ident() == home
            with lock:
                ahead["now"] -= 1
            emitted.append((start, len(points)))
            time.sleep(0.005)  # a slow consumer, so that the workers run ahead

        n = 24 * _POINT_BLOCK + 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # frequent thread switches
        try:
            sampler._map_chunks(identity_map(PeriodicGrid(16, 16)), n, 8, workers, emit)
        finally:
            sys.setswitchinterval(interval)
        assert emitted == [(s, min(_POINT_BLOCK, n - s)) for s in range(0, n, _POINT_BLOCK)]
        assert ahead["now"] == 0
        assert ahead["most"] <= 2 * workers
        if workers > 1:
            assert ahead["most"] > 1


# ---------------------------------------------------------------------------
# the keyed uniform stream, against the raw-word formula it replaced


def reference_raw_words(seed, stream, word_start, n_words):
    """Raw Philox words [word_start, word_start + n_words), fetched in whole
    4-word counter blocks and sliced."""
    block0, lead = divmod(word_start, 4)
    bg = np.random.Philox(key=np.array([seed & ((1 << 64) - 1), stream], np.uint64))
    if block0:
        bg.advance(block0)
    n_blocks = -(-(lead + n_words) // 4)
    return bg.random_raw(n_blocks * 4)[lead:lead + n_words]


def reference_draw_uniform(n, seed, start=0):
    from oitsample.sampler import _STREAM_UNIFORM

    words = reference_raw_words(seed, _STREAM_UNIFORM, 2 * start, 2 * n)
    unit = (words >> np.uint64(11)) * (1.0 / (1 << 53))
    return (-np.pi + 2.0 * np.pi * unit).reshape(n, 2)


class TestUniformStream:
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 6, 7, 13, 4 * 1000 + 2])
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 9])
    def test_equals_raw_word_formula(self, start, n):
        from oitsample.sampler import _uniform_stream

        for seed, stream in ((0, 1), (7, 0x756E6966), (2**62 + 9, 0x6F726163), (2**64 + 5, 3),
                             (-1, 0x756E6966), (2**63 + 1, 0x6F726163)):
            words = reference_raw_words(seed, stream, start, n)
            expected = (words >> np.uint64(11)) * (1.0 / (1 << 53))
            got = _uniform_stream(seed, stream, start, n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("start", [(1 << 20) - 5, (1 << 20) - 4, (1 << 20) + 3])
    def test_across_a_two_to_the_twenty_boundary(self, start):
        from oitsample.sampler import _uniform_stream

        words = reference_raw_words(11, 0x756E6966, start, 10)
        expected = (words >> np.uint64(11)) * (1.0 / (1 << 53))
        assert np.array_equal(_uniform_stream(11, 0x756E6966, start, 10), expected)

    @pytest.mark.parametrize("start", [0, 1, 7, 1 << 20])
    @pytest.mark.parametrize("n", [1, 2, 1001])
    def test_draw_uniform_is_bit_identical(self, start, n):
        got = draw_uniform(n, seed=3, start=start).points
        expected = reference_draw_uniform(n, seed=3, start=start)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestSeedKey:
    """Every 64-bit key word is used in full: numpy would convert a list key
    holding a word of 2**63 or more through float64."""

    SEEDS = (0, 1, -1, -2, 2**63, 2**63 + 1, 2**63 + 2)

    def test_seeds_give_distinct_draws_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [draw_uniform(4, seed=seed).points for seed in self.SEEDS]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j]), (self.SEEDS[i], self.SEEDS[j])


# ---------------------------------------------------------------------------
# cache-blocked map evaluation, against the one-pass evaluation it replaced


def reference_transform_chunk(mapping, pts, out):
    """The map evaluation as one unblocked pass over every point."""
    from oitsample.grid import _Stencil, _wrap_shift

    px = np.ascontiguousarray(pts[:, 0])
    py = np.ascontiguousarray(pts[:, 1])
    st = _Stencil(mapping.grid, px, py)
    out[:, 0] = _wrap_shift(px + st.gather(_pad(mapping.disp.u_x.values)))
    out[:, 1] = _wrap_shift(py + st.gather(_pad(mapping.disp.u_y.values)))


def reference_map(mapping, pts):
    out = np.empty(pts.shape)
    reference_transform_chunk(mapping, pts, out)
    return out


class TestBlockedEvaluation:
    SIZES = [_POINT_BLOCK - 1, _POINT_BLOCK, _POINT_BLOCK + 1, 3 * _POINT_BLOCK + 7, (1 << 20) + 17]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_sample_target(self, wavy_map, n, workers):
        got = sample_target(wavy_map, n, seed=31, workers=workers).points
        expected = reference_map(wavy_map, draw_uniform(n, seed=31).points)
        assert np.array_equal(got, expected)

    def test_map_is_not_constant_and_wraps(self, wavy_map):
        pts = draw_uniform(_POINT_BLOCK, seed=33).points
        step = reference_map(wavy_map, pts) - pts
        assert np.ptp(wavy_map.disp.u_x.values) > 0.1 and np.ptp(wavy_map.disp.u_y.values) > 0.1
        assert (np.abs(step) > np.pi).any(axis=0).all()


# ---------------------------------------------------------------------------
# the public point query and the sampler evaluate a map the same way


@pytest.fixture(scope="module")
def built_map():
    g = PeriodicGrid(48, 32)
    cfg = TransportConfig(steps=10, grid=g)
    return build_transport_map(make_density("sine-perturbation:0.6", g), cfg).map


@pytest.mark.parametrize("n", [0, 1, _POINT_BLOCK + 1, 3 * _POINT_BLOCK + 7])
@pytest.mark.parametrize("name", ["built_map", "wavy_map"])
def test_apply_of_the_draws_is_the_sample(request, name, n):
    """``apply`` of the uniform draws equals ``sample_target``'s points bit for
    bit, so a law checked through ``apply`` is the law ``sample`` draws."""
    mapping = request.getfixturevalue(name)
    expected = sample_target(mapping, n, seed=9, workers=2).points
    assert np.array_equal(mapping.apply(draw_uniform(n, seed=9).points), expected)


def test_reading_and_sampling_pad_the_map_once(tmp_path, monkeypatch):
    """``read_map_oitm`` and then ``sample_target`` pad each component of the
    forward displacement exactly once: the map pads it at construction, and
    the sampler gathers through those pads.  The target moves both
    coordinates, so no component equals another."""
    import sys

    from oitsample import grid
    from oitsample.fileio import read_map_oitm, write_map_oitm

    g = PeriodicGrid(48, 32)
    result = build_transport_map(make_density("two-bump", g, ratio=4.0),
                                 TransportConfig(steps=10, grid=g))
    path = tmp_path / "m.oitm"
    write_map_oitm(path, result, "two-bump@ratio=4.0")
    pad, padded = grid._pad, []

    def recording_pad(values, out=None):
        padded.append(np.array(values))
        return pad(values, out)

    for name, module in list(sys.modules.items()):  # every module that imported the one _pad
        if name.startswith("oitsample") and getattr(module, "_pad", None) is pad:
            monkeypatch.setattr(module, "_pad", recording_pad)
    mapping, _meta = read_map_oitm(path)
    sample_target(mapping, 2 * _POINT_BLOCK + 3, seed=4, workers=2)
    for comp in (mapping.disp.u_x.values, mapping.disp.u_y.values):
        assert sum(np.array_equal(values, comp) for values in padded) == 1
