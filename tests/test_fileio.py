import dataclasses
import os
import re
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from oitsample import (
    DiffeoMap,
    FileFormatError,
    InvalidInputError,
    PeriodicGrid,
    SampleBatch,
    ScalarField,
    TransportConfig,
    VectorField,
    build_transport_map,
    normalize,
)
from oitsample import fileio
from oitsample.fileio import (
    _CSV_BLOCK_ROWS,
    read_field_oitf,
    read_map_oitm,
    read_samples_csv,
    read_samples_oitf,
    write_field_oitf,
    write_heatmap_pgm,
    write_map_oitm,
    write_samples_csv,
    write_samples_oitf,
    write_warp_mesh_csv,
)
from oitsample.sampler import draw_uniform
from conftest import alternating_fold, identity_map


def sine_build(n):
    g = PeriodicGrid(n, n)
    target = normalize(ScalarField.from_function(g, lambda x, y: 1.0 + 0.4 * np.sin(x)))
    return build_transport_map(target, TransportConfig(steps=6, grid=g))


@pytest.fixture(scope="module")
def small_build():
    return sine_build(32)


class TestOitfFields:
    def test_scalar_round_trip(self, tmp_path, rng):
        g = PeriodicGrid(16, 24)
        f = ScalarField(g, rng.standard_normal(g.shape))
        p = tmp_path / "field.oitf"
        write_field_oitf(p, f)
        back = read_field_oitf(p)
        assert isinstance(back, ScalarField)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_two_component_file_is_not_a_field(self, tmp_path):
        """Component count 2 is the sample batch; a field holds one scalar."""
        p = tmp_path / "vec.oitf"
        p.write_bytes(b"OITF1\n" + np.asarray([8, 8], "<u4").tobytes() + bytes([2])
                      + np.zeros(2 * 64).tobytes())
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(p))}: "):
            read_field_oitf(p)

    def test_three_components_is_not_an_oitf(self, tmp_path):
        p = tmp_path / "three.oitf"
        p.write_bytes(fileio._oitf_header(4, 4, 3) + np.zeros(3 * 16).tobytes())
        with pytest.raises(FileFormatError) as info:
            read_field_oitf(p)
        assert str(info.value) == f"{p}: component count 3 not in (1, 2)"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.oitf"
        p.write_bytes(b"NOTIT1\n" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            read_field_oitf(p)

    def test_truncated(self, tmp_path):
        g = PeriodicGrid(8, 8)
        p = tmp_path / "trunc.oitf"
        write_field_oitf(p, ScalarField.constant(g, 1.0))
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(FileFormatError):
            read_field_oitf(p)

    def test_trailing_garbage(self, tmp_path):
        g = PeriodicGrid(8, 8)
        p = tmp_path / "trail.oitf"
        write_field_oitf(p, ScalarField.constant(g, 1.0))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FileFormatError):
            read_field_oitf(p)

    def test_file_is_header_then_values(self, tmp_path, rng):
        g = PeriodicGrid(5, 7)
        values = rng.standard_normal(g.shape)
        p = tmp_path / "field.oitf"
        write_field_oitf(p, ScalarField(g, values))
        header = b"OITF1\n" + np.asarray([5, 7], "<u4").tobytes() + bytes([1])
        assert p.read_bytes() == header + np.ascontiguousarray(values, dtype="<f8").tobytes()


class TestSampleFiles:
    def test_oitf_round_trip(self, tmp_path):
        batch = draw_uniform(1000, seed=5)
        p = tmp_path / "pts.oitf"
        write_samples_oitf(p, batch)
        assert np.array_equal(read_samples_oitf(p), batch.points)

    @pytest.mark.parametrize("n", [0, 1, 8, 11])
    def test_oitf_file_is_header_then_x_then_y_column(self, tmp_path, n):
        batch = draw_uniform(n, seed=5)
        p = tmp_path / "pts.oitf"
        write_samples_oitf(p, batch)
        cols = np.ascontiguousarray(batch.points.T, dtype="<f8")
        header = b"OITF1\n" + np.asarray([n, 1], "<u4").tobytes() + bytes([2])
        assert p.read_bytes() == header + cols.tobytes()

    def test_oitf_reader_rejects_a_field_file(self, tmp_path):
        p = tmp_path / "field.oitf"
        write_field_oitf(p, ScalarField.constant(PeriodicGrid(8, 8), 1.0))
        with pytest.raises(FileFormatError):
            read_samples_oitf(p)

    @pytest.mark.parametrize("bad", [np.nan, 7.0, -9.0, np.pi])
    def test_oitf_point_outside_the_torus_is_a_format_error(self, tmp_path, bad):
        """Each coordinate must lie in [-pi, pi), as a sample CSV's must; the
        error names the path."""
        x = np.array([0.5, bad, -1.0])
        y = np.array([0.0, 0.1, 0.2])
        p = tmp_path / "bad.oitf"
        p.write_bytes(fileio._oitf_header(3, 1, 2) + np.concatenate([x, y]).astype("<f8").tobytes())
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(p))}: sample coordinates"):
            read_samples_oitf(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_piped_oitf_holds_no_second_copy(self, tmp_path):
        """A pipe cannot seek, so the OITF writer holds the points until the
        header is known and then writes each column from them: the traced
        peak is one column's copy, not a copy of the batch.  Measured on
        2^18 points: 0.50 of the batch's bytes; 1.06 when the held points
        were first joined into one array."""
        batch = draw_uniform(1 << 18, seed=6)  # 4 MB of points
        ref = tmp_path / "pts.oitf"
        write_samples_oitf(ref, batch)
        expected = ref.read_bytes()
        got = bytearray(len(expected))  # the reader's buffer exists before tracing
        fifo = tmp_path / "pipe.oitf"
        os.mkfifo(fifo)

        def drain():
            view = memoryview(got)
            pos = 0
            with open(fifo, "rb", buffering=0) as fh:
                while n := fh.readinto(view[pos:pos + (1 << 16)]):
                    pos += n

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        tracemalloc.start()
        try:
            write_samples_oitf(fifo, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        reader.join(60)
        assert not reader.is_alive()
        assert got == expected
        assert peak < 0.75 * batch.points.nbytes

    def test_csv_round_trip_is_exact(self, tmp_path):
        batch = draw_uniform(2000, seed=6)
        p = tmp_path / "pts.csv"
        write_samples_csv(p, batch)
        assert np.array_equal(read_samples_csv(p), batch.points)

    def test_csv_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        write_samples_csv(p, draw_uniform(3, seed=0))
        assert p.read_text().splitlines()[0] == "x,y"

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        for max_rows in (None, 1):
            with pytest.raises(FileFormatError, match="expected header 'x,y', got 'a,b'"):
                read_samples_csv(p, max_rows=max_rows)

    @pytest.mark.parametrize("max_rows", [1, 777, 2000, 5000])
    def test_csv_max_rows_reads_a_prefix(self, tmp_path, max_rows):
        p = tmp_path / "pts.csv"
        write_samples_csv(p, draw_uniform(2000, seed=6))
        assert np.array_equal(read_samples_csv(p, max_rows=max_rows),
                              read_samples_csv(p)[:max_rows])

    def test_empty_batch_round_trip(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_samples_csv(p, draw_uniform(0, seed=0))
        assert read_samples_csv(p).shape == (0, 2)

    @pytest.mark.parametrize("exists", [True, False])
    def test_csv_negative_max_rows_is_refused_before_reading(self, tmp_path, exists):
        p = tmp_path / "pts.csv"
        if exists:
            write_samples_csv(p, draw_uniform(3, seed=0))
        with pytest.raises(InvalidInputError, match="^row count must be nonnegative, got -1$"):
            read_samples_csv(p, max_rows=-1)

    def test_unknown_format_is_refused_before_opening(self, tmp_path):
        """No file, not even a temporary one, appears for a format that has
        no encoder."""
        with pytest.raises(InvalidInputError, match="format must be csv or oitf, got 'xml'"):
            with fileio.stream_samples(tmp_path / "pts.xml", 1, "xml") as write:
                write(0, draw_uniform(1, seed=0).points)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("body, rows", [("\n \n", 0), ("\n\n0.5,-1\n", 1)])
    def test_csv_blank_lines_before_data(self, tmp_path, body, rows):
        p = tmp_path / "blank.csv"
        p.write_text("x,y\n" + body)
        assert read_samples_csv(p, max_rows=1).shape == (rows, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_rows", [None, 1, 2, 3, 5])
    def test_csv_blank_lines_among_and_after_rows_are_not_rows(self, tmp_path, max_rows):
        """No numpy warning escapes, and a blank line never counts as a row."""
        p = tmp_path / "blank.csv"
        p.write_text("x,y\n0.1,0.2\n\n0.3,0.4\n\n\n-0.5,0.6\n\n")
        rows = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6]])
        assert np.array_equal(read_samples_csv(p, max_rows=max_rows), rows[:max_rows])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("blank", [" ", "\t", " \t "])
    @pytest.mark.parametrize("max_rows", [None, 0, 1, 2, 3, 5])
    def test_csv_whitespace_lines_are_blank_anywhere(self, tmp_path, blank, max_rows):
        """A line of only spaces or tabs is blank before, among and after rows."""
        p = tmp_path / "ws.csv"
        p.write_text(f"x,y\n{blank}\n0.1,0.2\n{blank}\n0.3,0.4\n{blank}\n-0.5,0.6\n{blank}\n")
        rows = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6]])
        assert np.array_equal(read_samples_csv(p, max_rows=max_rows), rows[:max_rows])


class TestOitmMaps:
    def test_round_trip(self, tmp_path, small_build):
        p = tmp_path / "map.oitm"
        write_map_oitm(p, small_build, "sine-test")
        mapping, meta = read_map_oitm(p)
        assert np.array_equal(mapping.disp.u_x.values, small_build.map.disp.u_x.values)
        assert np.array_equal(mapping.disp.u_y.values, small_build.map.disp.u_y.values)
        assert np.array_equal(mapping.inv_disp.u_x.values,
                              small_build.map.inv_disp.u_x.values)
        assert meta.density_id == "sine-test"
        assert meta.steps == 6
        assert meta.angle == small_build.angle
        assert meta.residual == small_build.residual
        assert np.array_equal(meta.cfl, small_build.cfl)
        assert np.array_equal(meta.min_jacobian, small_build.min_jacobian)

    def test_flag_bit1_from_older_writers_is_ignored(self, tmp_path, small_build):
        # bit1 of the flag byte (offset 34) was once set by a CFL warning
        p = tmp_path / "map.oitm"
        write_map_oitm(p, small_build, "sine-test")
        data = bytearray(p.read_bytes())
        assert data[34] == 0
        old = tmp_path / "old.oitm"
        data[34] |= 2
        old.write_bytes(bytes(data))
        mapping, meta = read_map_oitm(p)
        old_mapping, old_meta = read_map_oitm(old)
        for a, b in ((mapping.disp, old_mapping.disp), (mapping.inv_disp, old_mapping.inv_disp)):
            assert np.array_equal(a.u_x.values, b.u_x.values)
            assert np.array_equal(a.u_y.values, b.u_y.values)
        for f in dataclasses.fields(meta):
            assert np.array_equal(getattr(old_meta, f.name), getattr(meta, f.name))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.oitm"
        p.write_bytes(b"OITF1\n" + b"\x00" * 64)
        with pytest.raises(FileFormatError):
            read_map_oitm(p)

    def test_truncation_detected(self, tmp_path, small_build):
        p = tmp_path / "map.oitm"
        write_map_oitm(p, small_build, "sine-test")
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(FileFormatError):
            read_map_oitm(p)

    def test_write_is_deterministic(self, tmp_path, small_build):
        p1 = tmp_path / "a.oitm"
        p2 = tmp_path / "b.oitm"
        write_map_oitm(p1, small_build, "sine-test")
        write_map_oitm(p2, small_build, "sine-test")
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_refuses_a_map_without_inverse(self, tmp_path, small_build):
        """A forward-only map is refused before any file is opened."""
        forward_only = dataclasses.replace(small_build, map=DiffeoMap(small_build.map.disp))
        with pytest.raises(InvalidInputError, match="inverse"):
            write_map_oitm(tmp_path / "map.oitm", forward_only, "x")
        assert list(tmp_path.iterdir()) == []

    def test_read_traced_peak_stays_under_16_grid_arrays(self, tmp_path):
        """The reader's columns are views of the file's bytes, and the
        bytes go once the map's frozen copies exist, so the map check runs
        beside one copy of the map.  Measured on a 256^2 map: 15.1 grid
        arrays (n^2 float64 each), set by the round-trip check; 23.1 with
        the bytes, a copied column each and the frozen copies all alive
        through it."""
        p = tmp_path / "map.oitm"
        write_map_oitm(p, sine_build(256), "sine-test")
        tracemalloc.start()
        try:
            read_map_oitm(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (256 * 256 * 8) <= 16


class TestFigureExports:
    def test_uniform_heatmap_is_flat(self, tmp_path):
        g = PeriodicGrid(16, 16)
        p = tmp_path / "flat.pgm"
        write_heatmap_pgm(p, ScalarField.constant(g, 2.0))
        data = p.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(pixels) == 256
        assert set(pixels) == {0}

    def test_heatmap_hits_full_range(self, tmp_path, rng):
        g = PeriodicGrid(8, 8)
        p = tmp_path / "ramp.pgm"
        write_heatmap_pgm(p, ScalarField(g, rng.uniform(1.0, 3.0, g.shape)))
        pixels = p.read_bytes().split(b"255\n", 1)[1]
        assert min(pixels) == 0
        assert max(pixels) == 255

    def test_identity_mesh_is_straight_and_closed(self, tmp_path):
        g = PeriodicGrid(16, 16)
        p = tmp_path / "mesh.csv"
        write_warp_mesh_csv(p, identity_map(g))
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        assert {r[0] for r in rows} == {"x", "y"}
        for direction, line_index, vertex, x, y in rows:
            x, y = float(x), float(y)
            if direction == "x":  # constant-x polyline of the identity: x == node
                assert x == g.xs[int(line_index)]
        # closing vertex wraps by exactly one period
        xlines = [r for r in rows if r[0] == "x" and r[1] == "0"]
        first = xlines[0]
        last = xlines[-1]
        assert float(last[4]) == float(first[4]) + 2 * np.pi
        assert float(last[3]) == float(first[3])

    def test_warped_mesh_closes_periodically(self, tmp_path, small_build):
        p = tmp_path / "mesh.csv"
        write_warp_mesh_csv(p, small_build.map)
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        for direction in ("x", "y"):
            sel = [r for r in rows if r[0] == direction and r[1] == "4"]
            first, last = sel[0], sel[-1]
            if direction == "x":
                assert float(last[4]) == pytest.approx(float(first[4]) + 2 * np.pi, abs=1e-12)
                assert float(last[3]) == pytest.approx(float(first[3]), abs=1e-12)
            else:
                assert float(last[3]) == pytest.approx(float(first[3]) + 2 * np.pi, abs=1e-12)
                assert float(last[4]) == pytest.approx(float(first[4]), abs=1e-12)


# ---------------------------------------------------------------------------
# the scalar writers the vectorised ones replaced, kept as byte-level oracles


def reference_write_samples_csv(path, batch):
    chunk = 1 << 18
    pts = batch.points
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for s in range(0, len(pts), chunk):
            block = pts[s:s + chunk]
            fh.write(("%.17g,%.17g\n" * len(block)) % tuple(block.reshape(-1)))


def reference_write_warp_mesh_csv(path, mapping):
    grid = mapping.grid
    dx = mapping.disp.u_x.values
    dy = mapping.disp.u_y.values
    two_pi = 2.0 * np.pi
    with open(path, "w", newline="\n") as fh:
        fh.write("direction,line_index,vertex_index,x,y\n")
        for i in range(0, grid.n_x, 4):
            for j in range(grid.n_y + 1):
                jj = j % grid.n_y
                x = grid.xs[i] + dx[i, jj]
                y = grid.ys[jj] + dy[i, jj] + (two_pi if j == grid.n_y else 0.0)
                fh.write("x,%d,%d,%.17g,%.17g\n" % (i, j, x, y))
        for j in range(0, grid.n_y, 4):
            for i in range(grid.n_x + 1):
                ii = i % grid.n_x
                x = grid.xs[ii] + dx[ii, j] + (two_pi if i == grid.n_x else 0.0)
                y = grid.ys[j] + dy[ii, j]
                fh.write("y,%d,%d,%.17g,%.17g\n" % (j, i, x, y))


class _Points:
    """A stand-in batch without SampleBatch's [-pi, pi) check, so the CSV
    writer also meets values of every magnitude."""

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)


def _ulps_around(x, count):
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[1:] + [x] + above[1:]


def _exact_ties(rng, per_n=300):
    """j / 2**n with j odd, n = 17..21, in the decade where the value has 18
    significant digits, the last a 5: an exact tie at the 17th digit."""
    ties = []
    for n in range(17, 22):
        lo, hi = 10 ** (17 - n) * 2**n, 10 ** (18 - n) * 2**n
        j = rng.integers(lo // 2, hi // 2, per_n) * 2 + 1
        ties.extend((j / 2.0**n).tolist())
    return ties


def _carries(rng, count=100):
    """Values whose 17-digit rounding carries through their 16th and 17th
    digits, both 9s, so the printed text ends in stripped zeros."""
    found = []
    while len(found) < count:
        x = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-4, 1))
        exact = Decimal(x)
        if exact.as_tuple().digits[15:17] == (9, 9) and Decimal("%.17g" % x) > exact:
            found.append(x)
    return found


def _stress_values(rng):
    vals = []
    for m in range(-4, 2):  # every power of ten from 1e-4 to 10, +-1..40 ulp
        vals += _ulps_around(float(f"1e{m}"), 40)
    vals += [np.nextafter(1e-4, 0.0), np.nextafter(10.0, 0.0),
             np.pi, np.nextafter(np.pi, 0.0), 0.0, 5e-324]
    vals += _exact_ties(rng)
    vals += _carries(rng)
    vals = np.asarray(vals)
    return np.concatenate([vals, -vals])


def _assert_csv_matches_reference(tmp_path, batch):
    got = tmp_path / "got.csv"
    want = tmp_path / "want.csv"
    write_samples_csv(got, batch)
    reference_write_samples_csv(want, batch)
    assert got.read_bytes() == want.read_bytes()


class TestCsvMatchesPercentFormat:
    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1, 3 * _CSV_BLOCK_ROWS + 7])
    def test_batch_sizes(self, tmp_path, n):
        _assert_csv_matches_reference(tmp_path, draw_uniform(n, seed=n))

    def test_stress_values_in_order(self, tmp_path):
        vals = _stress_values(np.random.default_rng(10))
        _assert_csv_matches_reference(tmp_path, _Points(vals.reshape(-1, 2)))

    def test_stress_values_shuffled_across_blocks(self, tmp_path):
        rng = np.random.default_rng(11)
        vals = _stress_values(rng)
        pts = rng.uniform(-np.pi, np.pi, (3 * _CSV_BLOCK_ROWS + 7, 2))
        pts.reshape(-1)[rng.choice(pts.size, len(vals), replace=False)] = vals
        _assert_csv_matches_reference(tmp_path, _Points(pts))

    def test_per_value_rows_at_block_edges(self, tmp_path):
        pts = draw_uniform(3 * _CSV_BLOCK_ROWS + 7, seed=4).points.copy()
        b = _CSV_BLOCK_ROWS
        edges = [0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, len(pts) - 2, len(pts) - 1]
        for k, r in enumerate(edges):
            pts[r, k % 2] = (0.0, -0.0, 1e-5, -3e-300)[k % 4]
        pts[b + 1] = (-0.0, 0.0)
        _assert_csv_matches_reference(tmp_path, SampleBatch(pts))

    def test_stress_values_cover_their_cases(self):
        rng = np.random.default_rng(12)
        ties = _exact_ties(rng, per_n=20)
        for x in ties:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        for x in _carries(rng, 20):
            assert len(("%.17g" % x).replace(".", "").strip("0")) <= 15
        # the float64 just below each decade boundary comes closest to a
        # rounding that reaches the next decade, and stays below it
        for m in range(-3, 2):
            below = float(f"1e{m}")
            while Decimal(below) >= Decimal(10) ** m:
                below = np.nextafter(below, 0.0)
            assert below in _ulps_around(float(f"1e{m}"), 40)
            assert Decimal("%.17g" % below) < Decimal(10) ** m

    def test_out_of_range_values_use_percent_format(self, tmp_path):
        vals = np.array([1e-5, 9.99e-5, 10.0, 12.5, 1e16, 1e17, 1e300, 1.7976931348623157e308,
                         np.inf, np.nan, 2.2250738585072014e-308, 1e-310])
        _assert_csv_matches_reference(tmp_path, _Points(np.stack([vals, -vals[::-1]], axis=1)))


class TestMeshMatchesScalarWriter:
    # the writer takes every 4th line; 4 divides 16 and 24, and on 18 x 21
    # the last line of each direction is closer than 4 to the seam; on
    # 8 x 10004 line and vertex indices pass 10**4
    @pytest.mark.parametrize("n_x,n_y", [(16, 24), (18, 21), (8, 10_004)])
    def test_identity(self, tmp_path, n_x, n_y):
        mapping = identity_map(PeriodicGrid(n_x, n_y))
        got = tmp_path / "got.csv"
        want = tmp_path / "want.csv"
        write_warp_mesh_csv(got, mapping)
        reference_write_warp_mesh_csv(want, mapping)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [32, 30])
    def test_small_build(self, tmp_path, n):
        mapping = sine_build(n).map
        got = tmp_path / "got.csv"
        want = tmp_path / "want.csv"
        write_warp_mesh_csv(got, mapping)
        reference_write_warp_mesh_csv(want, mapping)
        assert got.read_bytes() == want.read_bytes()

    def test_values_below_the_fast_range(self, tmp_path):
        # a translation by 1e-5: the vertices on the node at coordinate 0
        # read 1e-5, below the CSV encoder's 1e-4 fast range, so their rows
        # take its "%.17g" path
        grid = PeriodicGrid(16, 16)
        there = ScalarField.constant(grid, 1e-5)
        back = ScalarField.constant(grid, -1e-5)
        mapping = DiffeoMap(VectorField(there, there), VectorField(back, back))
        got = tmp_path / "got.csv"
        want = tmp_path / "want.csv"
        write_warp_mesh_csv(got, mapping)
        reference_write_warp_mesh_csv(want, mapping)
        assert got.read_bytes() == want.read_bytes()
        assert b"x,8,0,1.0000000000000001e-05," in got.read_bytes()


# ---------------------------------------------------------------------------
# OITM through the shared binary layer, against the separate OITM codec it
# replaced


def reference_write_map_oitm(path, result, density_id):
    """The OITM writer that wrote each field with its own tobytes call."""
    grid = result.map.grid
    ident = density_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"OITM1\n")
        fh.write(np.asarray([grid.n_x, grid.n_y, len(result.cfl)], "<u4").tobytes())
        fh.write(np.asarray([result.angle, result.residual], "<f8").tobytes())
        fh.write(bytes([1 if result.residual_above_tol else 0]))
        fh.write(np.asarray([len(ident)], "<u4").tobytes())
        fh.write(ident)
        for arr in (result.cfl, result.poisson_mean, result.min_jacobian):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for vf in (result.map.disp, result.map.inv_disp):
            for comp in (vf.u_x, vf.u_y):
                fh.write(np.ascontiguousarray(comp.values, dtype="<f8").tobytes())


def reference_read_map_oitm(path):
    """The OITM reader that parsed each field with its own u32/f64 reads.

    Returns the four displacement arrays and the metadata fields as a dict.
    """
    buf = path.read_bytes()
    offset = 6
    assert buf[:offset] == b"OITM1\n"

    def u32():
        nonlocal offset
        offset += 4
        return int(np.frombuffer(buf[offset - 4:offset], "<u4")[0])

    def f64(count):
        nonlocal offset
        offset += 8 * count
        return np.frombuffer(buf[offset - 8 * count:offset], "<f8").astype(np.float64)

    n_x, n_y, steps = u32(), u32(), u32()
    head = f64(2)
    flags = buf[offset]
    offset += 1
    id_len = u32()
    ident = buf[offset:offset + id_len].decode("utf-8")
    offset += id_len
    diags = [f64(steps) for _ in range(3)]
    comps = [f64(n_x * n_y).reshape(n_x, n_y) for _ in range(4)]
    assert offset == len(buf)
    meta = dict(steps=steps, angle=float(head[0]), residual=float(head[1]),
                density_id=ident, residual_above_tol=bool(flags & 1),
                cfl=diags[0], poisson_mean=diags[1], min_jacobian=diags[2])
    return comps, meta


@pytest.fixture(scope="module")
def one_step_build():
    g = PeriodicGrid(16, 16)
    target = normalize(ScalarField.from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(y)))
    return build_transport_map(target, TransportConfig(steps=1, grid=g))


class TestOitmMatchesSeparateCodec:
    CASES = [("small_build", "sine-test"), ("one_step_build", "cos-1"),
             ("small_build", "dichte-ü-密度-\U0001f30a")]

    @pytest.mark.parametrize("build, ident", CASES)
    def test_bytes_and_metadata(self, tmp_path, request, build, ident):
        result = request.getfixturevalue(build)
        new, ref = tmp_path / "new.oitm", tmp_path / "ref.oitm"
        write_map_oitm(new, result, ident)
        reference_write_map_oitm(ref, result, ident)
        assert new.read_bytes() == ref.read_bytes()
        mapping, meta = read_map_oitm(new)
        comps, ref_meta = reference_read_map_oitm(ref)
        got = [mapping.disp.u_x, mapping.disp.u_y, mapping.inv_disp.u_x, mapping.inv_disp.u_y]
        for a, b in zip(got, comps):
            assert np.array_equal(a.values, b)
        assert [f.name for f in dataclasses.fields(meta)] == list(ref_meta)
        for name, value in ref_meta.items():
            assert type(getattr(meta, name)) is type(value)
            assert np.array_equal(getattr(meta, name), value)

    def test_residual_flag_round_trips(self, tmp_path, small_build):
        flagged = dataclasses.replace(small_build, residual_above_tol=True)
        new, ref = tmp_path / "new.oitm", tmp_path / "ref.oitm"
        write_map_oitm(new, flagged, "x")
        reference_write_map_oitm(ref, flagged, "x")
        assert new.read_bytes() == ref.read_bytes()
        assert read_map_oitm(new)[1].residual_above_tol is True

    def test_every_truncation_is_a_format_error(self, tmp_path, one_step_build):
        p = tmp_path / "map.oitm"
        write_map_oitm(p, one_step_build, "cos-1")
        data = p.read_bytes()
        # header, identifier, diagnostics and each displacement component
        for cut in (0, 5, 6, 20, 38, 39, 41, 42, 50, 66, len(data) - 8, len(data) - 1):
            p.write_bytes(data[:cut])
            with pytest.raises(FileFormatError):
                read_map_oitm(p)

    def test_grid_size_does_not_wrap_in_uint32(self, tmp_path):
        # 65536 * 65536 is 0 in uint32: a reader multiplying the raw header
        # values would expect no displacement data and accept this file
        p = tmp_path / "huge.oitm"
        p.write_bytes(b"OITM1\n" + np.asarray([65536, 65536, 0], "<u4").tobytes()
                      + np.zeros(2, "<f8").tobytes() + b"\x00"
                      + np.zeros(1, "<u4").tobytes())
        with pytest.raises(FileFormatError, match="truncated"):
            read_map_oitm(p)

    def test_identifier_that_is_not_utf8(self, tmp_path, small_build):
        p = tmp_path / "map.oitm"
        write_map_oitm(p, small_build, "abc")
        data = bytearray(p.read_bytes())
        assert data[39:42] == b"abc"
        data[40] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="identifier"):
            read_map_oitm(p)

    def test_map_folded_between_nodes_is_a_format_error(self, tmp_path):
        """A map whose nodal determinant reads 1.0 but whose bilinear
        interpolant folds fails the map check; the error names the path."""
        g = PeriodicGrid(16, 12)
        dx, dy = alternating_fold(g)
        head = (fileio.OITM_MAGIC, g.n_x, g.n_y, 1, 0.0, 0.0, 0, 0)
        p = tmp_path / "folded.oitm"
        p.write_bytes(np.array(head, fileio._OITM_HEAD).tobytes()
                      + np.zeros(3, "<f8").tobytes()  # one step's three diagnostics
                      + np.concatenate([dx, dy, -dx, -dy]).astype("<f8").tobytes())
        with pytest.raises(FileFormatError,
                           match=f"^{re.escape(str(p))}: map is not orientation preserving"):
            read_map_oitm(p)

    def test_inverse_three_grid_spacings_off_is_a_format_error(self, tmp_path):
        """The identity map stored with an inverse shifted by 3 grid spacings
        fails the round-trip check; the error names the path."""
        g = PeriodicGrid(32, 32)
        zero = np.zeros(g.shape)
        head = (fileio.OITM_MAGIC, g.n_x, g.n_y, 1, 0.0, 0.0, 0, 0)
        p = tmp_path / "offset.oitm"
        p.write_bytes(np.array(head, fileio._OITM_HEAD).tobytes()
                      + np.zeros(3, "<f8").tobytes()  # one step's three diagnostics
                      + np.concatenate([zero, zero, np.full(g.shape, 3.0 * g.h_x), zero])
                      .astype("<f8").tobytes())
        with pytest.raises(FileFormatError,
                           match=f"^{re.escape(str(p))}: inverse is inconsistent"):
            read_map_oitm(p)


class TestMalformedCsv:
    @pytest.mark.parametrize("body", [b"x,y\n0.3,abc\n", b"x,y\n0.3,0.1\n\xff,0.2\n",
                                      b"\xff,y\n0.3,0.1\n", b"x,y\n0.3,0.1,0.2\n",
                                      b"x,y\n4.0,0.2\n", b"x,y\nnan,0.2\n",
                                      b"x,y\n# c\n0.1,0.2\n", b"x,y\n0.1,0.2 # note\n"])
    def test_format_error_names_the_path(self, tmp_path, body):
        """The grammar is the writer's: a header, rows and blank lines.  A
        ``#`` line or a trailing ``# note`` is no comment but an unreadable
        row, whether or not the read stops after ``max_rows``."""
        p = tmp_path / "bad.csv"
        p.write_bytes(body)
        for max_rows in (None, 5):
            with pytest.raises(FileFormatError, match="bad.csv"):
                read_samples_csv(p, max_rows)


def _oitm_head(n_x, n_y, steps):
    return np.array((fileio.OITM_MAGIC, n_x, n_y, steps, 0.0, 0.0, 0, 0),
                    fileio._OITM_HEAD).tobytes()


# reader -> the bytes of one file it refuses
MALFORMED = {
    "oitm-truncated": (read_map_oitm, _oitm_head(4, 4, 1) + np.zeros(5, "<f8").tobytes()),
    "oitf-field-magic": (read_field_oitf, b"OITM1\n" + np.zeros(16, "<u1").tobytes()),
    "oitf-samples-nan": (read_samples_oitf, fileio._oitf_header(2, 1, 2)
                         + np.array([0.5, np.nan, 0.0, 0.1], "<f8").tobytes()),
    "csv-header": (read_samples_csv, b"x;y\n0.3,0.1\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_reader_names_the_file_once(tmp_path, case):
    """Each reader's format and content errors get the path from
    ``fileio._reading`` once: a reader nested in another would name it twice."""
    read, data = MALFORMED[case]
    p = tmp_path / "bad.bin"
    p.write_bytes(data)
    with pytest.raises(FileFormatError) as info:
        read(p)
    message = str(info.value)
    assert message.startswith(f"{p}: ")
    assert message.count(str(p)) == 1


class TestSameFile:
    """``fileio.same_file``, the package's one file-identity test."""

    def test_spellings_and_links_of_one_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").write_bytes(b"a")
        (tmp_path / "b").write_bytes(b"b")
        os.link("a", "hard")
        os.symlink("a", "soft")
        for other in ("a", "./a", str(tmp_path / "a"), "hard", "soft"):
            assert fileio.same_file("a", other)
        assert not fileio.same_file("a", "b")

    def test_a_path_not_there_yet_is_the_file_it_resolves_to(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("dir")
        os.symlink("dir", "link")
        assert fileio.same_file("dir/new", "link/new")
        assert fileio.same_file("dir/new", "./dir/../dir/new")
        assert not fileio.same_file("dir/new", "dir/other")

    def test_an_open_descriptor(self, tmp_path):
        (tmp_path / "a").write_bytes(b"a")
        (tmp_path / "b").write_bytes(b"b")
        with open(tmp_path / "a", "rb") as fh:
            fd = fh.fileno()
            assert fileio.same_file(tmp_path / "a", fd)
            assert not fileio.same_file(tmp_path / "b", fd)
            assert not fileio.same_file(tmp_path / "none", fd)
        assert not fileio.same_file(tmp_path / "a", fd)  # closed
