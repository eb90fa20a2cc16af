"""Binary and text persistence: OITF fields, OITM maps, CSV, PGM.

OITF (field) layout, all little-endian:
    magic "OITF1\\n" | u32 n_x | u32 n_y | u8 components (1 for a field,
    2 for a sample batch) | components * n_x*n_y float64, row-major.
A sample batch stored as OITF uses n_x = N, n_y = 1, components = 2
(x coordinates then y coordinates).

OITM (map) layout:
    magic "OITM1\\n" | u32 n_x | u32 n_y | u32 steps | f64 angle
    | f64 residual | u8 flags (bit0 residual-above-tol; bit1 was a CFL
      warning flag, still set in files from older writers and ignored)
    | u32 id_len | id_len bytes utf-8 density identifier
    | steps f64 cfl | steps f64 poisson_mean | steps f64 min_jacobian
    | forward displacement (x then y) | inverse displacement (x then y),
each displacement component n_x*n_y float64 row-major.
"""

from __future__ import annotations

import io
import os
import shutil
import stat
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import chain, filterfalse
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError
from .grid import TWO_PI, DiffeoMap, PeriodicGrid, ScalarField, VectorField
from .sampler import SampleBatch
from .transport import TransportResult

OITF_MAGIC = b"OITF1\n"
OITM_MAGIC = b"OITM1\n"

# The fixed-size file headers, packed; the writers and readers share them.
_OITF_HEAD = np.dtype([("magic", "S6"), ("n_x", "<u4"), ("n_y", "<u4"), ("comps", "u1")])
_OITM_HEAD = np.dtype([("magic", "S6"), ("n_x", "<u4"), ("n_y", "<u4"), ("steps", "<u4"),
                       ("angle", "<f8"), ("residual", "<f8"), ("flags", "u1"),
                       ("id_len", "<u4")])
_F64 = np.dtype("<f8")

_CSV_HEADER = b"x,y\n"


@contextmanager
def _reading(path: str | Path) -> Iterator[None]:
    """Re-raise the block's ``InvalidInputError`` (a bad layout, or content
    failing a grid, field, map or batch check) as ``FileFormatError`` whose
    message starts with ``path``: the one place a reader names its file."""
    try:
        yield
    except InvalidInputError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _take(buf: bytes, offset: int, dtype: np.dtype, count: int,
          what: str) -> tuple[np.ndarray, int]:
    """``count`` values of ``dtype`` at ``offset`` of ``buf`` (a read-only
    view), and the offset just past them."""
    end = offset + dtype.itemsize * count
    if end > len(buf):
        raise FileFormatError(f"truncated file while reading {what}")
    return np.frombuffer(buf, dtype, count, offset), end


def _read_head(buf: bytes, layout: np.dtype, magic: bytes) -> tuple[dict, int]:
    """The header's fields as Python scalars (so n_x * n_y cannot wrap in
    uint32), and the offset after it."""
    raw, offset = _take(buf, 0, layout, 1, "header")
    if raw["magic"][0] != magic:
        raise FileFormatError(f"not an {magic[:4].decode()} file")
    return {name: raw[name][0].item() for name in layout.names}, offset


def _read_columns(buf: bytes, offset: int, counts: dict[str, int]) -> dict[str, np.ndarray]:
    """The rest of the file: for each name in order, a float64 column of its
    count of values.  A column is a read-only view of ``buf`` wherever the
    host's byte order is the file's, so a caller copies what it keeps and
    the bytes can go once it has."""
    columns = {}
    for name, count in counts.items():
        col, offset = _take(buf, offset, _F64, count, name)
        columns[name] = col.astype(np.float64, copy=False)
    if offset != len(buf):
        raise FileFormatError(f"{len(buf) - offset} trailing bytes")
    return columns


def _write_columns(fh, columns: list[np.ndarray]) -> None:
    """Each column's values as float64, in row-major order, one write per
    column: a C-contiguous float64 column (a field, a map component, a
    diagnostic array) goes out without a copy."""
    for col in columns:
        fh.write(np.ascontiguousarray(col, _F64))


def same_file(a: str | Path, b: str | Path | int) -> bool:
    """Whether path ``a`` and ``b``, a path or an open descriptor, name one
    file through any link; a path not there yet is the file it resolves to."""
    try:
        return os.path.samestat(os.stat(a), os.stat(b))
    except OSError:  # a path not there yet, or a closed descriptor
        return not isinstance(b, int) and os.path.realpath(a) == os.path.realpath(b)


@contextmanager
def _output(path: str | Path) -> Iterator:
    """A binary file whose contents become ``path``'s; every file this
    package writes reaches its path through here.

    When ``path`` names a regular file or nothing (symlinks followed), the
    file is a new one beside the target, which replaces the target when the
    block completes and is deleted when the block raises, so ``path`` never
    holds part of a file.  It keeps an existing target's permission bits,
    but not its owner or its other hard links.  A regular file that is this
    process's stdout or stderr is not replaced, which would cut it off from
    the shell's redirect: once complete, the new file is copied through that
    descriptor, at its offset, and deleted.  Anything else, such as a pipe
    or a device, is opened and written in place.
    """
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            yield fh
        return
    std = next((fd for fd in (1, 2) if same_file(path, fd)), None)
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real),
                       f".{os.path.basename(real)}.{os.urandom(4).hex()}.tmp")
    try:
        if mode is not None:
            open(real, "ab").close()  # fail where opening the target to write would
        fh = open(tmp, "xb")
    except OSError as exc:  # e.g. a missing directory: name the caller's path
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        if std is None:
            os.replace(tmp, real)
        else:
            with open(tmp, "rb") as done, open(os.dup(std), "wb") as fd_out:
                shutil.copyfileobj(done, fd_out)
    except BaseException:
        os.unlink(tmp)
        raise
    if std is not None:
        os.unlink(tmp)


def save_text(files: dict[str | Path, str]) -> None:
    """Each ``{path: text}`` item, UTF-8 encoded, as that path's contents, through
    ``_output``: if one open or write fails, no path changes."""
    with ExitStack() as stack:  # unwinds last in, first out: paths replaced in dict order
        for path, text in reversed(files.items()):
            stack.enter_context(_output(path)).write(text.encode())


# ---------------------------------------------------------------------------
# OITF fields


def _oitf_header(n_x: int, n_y: int, comps: int) -> bytes:
    return np.array((OITF_MAGIC, n_x, n_y, comps), _OITF_HEAD).tobytes()


def _read_oitf(path: str | Path) -> tuple[int, int, list[np.ndarray]]:
    """n_x, n_y and the flat float64 columns of an OITF file, as
    ``_read_columns`` gives them."""
    buf = Path(path).read_bytes()
    head, offset = _read_head(buf, _OITF_HEAD, OITF_MAGIC)
    n_x, n_y, comps = head["n_x"], head["n_y"], head["comps"]
    if comps not in (1, 2):
        raise FileFormatError(f"component count {comps} not in (1, 2)")
    columns = _read_columns(buf, offset, {f"component {c}": n_x * n_y for c in range(comps)})
    return n_x, n_y, list(columns.values())


def write_field_oitf(path: str | Path, field: ScalarField) -> None:
    with _output(path) as fh:
        fh.write(_oitf_header(field.grid.n_x, field.grid.n_y, 1))
        _write_columns(fh, [field.values])


def read_field_oitf(path: str | Path) -> ScalarField:
    with _reading(path):
        n_x, n_y, columns = _read_oitf(path)
        if len(columns) != 1:
            raise FileFormatError(f"not a field OITF ({len(columns)} components)")
        return ScalarField(PeriodicGrid(n_x, n_y), columns[0].reshape(n_x, n_y))


def write_samples_oitf(path: str | Path, batch: SampleBatch) -> None:
    with stream_samples(path, len(batch.points), "oitf") as write:
        write(0, batch.points)


def read_samples_oitf(path: str | Path) -> np.ndarray:
    with _reading(path):
        n, n_y, columns = _read_oitf(path)
        if n_y != 1 or len(columns) != 2:
            raise FileFormatError(
                f"not a sample-batch OITF (n_y={n_y}, comps={len(columns)})")
        return SampleBatch(np.stack(columns, axis=1)).points  # every point in [-pi, pi)


# ---------------------------------------------------------------------------
# OITM maps


# per-step diagnostics, named as in TransportResult and MapMetadata
_OITM_DIAGS = ("cfl", "poisson_mean", "min_jacobian")
_OITM_DISP = ("fwd_x", "fwd_y", "inv_x", "inv_y")


@dataclass(frozen=True)
class MapMetadata:
    steps: int
    angle: float
    residual: float
    density_id: str
    residual_above_tol: bool
    cfl: np.ndarray
    poisson_mean: np.ndarray
    min_jacobian: np.ndarray


def write_map_oitm(path: str | Path, result: TransportResult, density_id: str) -> None:
    if result.map.inv_disp is None:
        raise InvalidInputError("an OITM map file needs the map's inverse")
    grid = result.map.grid
    ident = density_id.encode("utf-8")
    head = (OITM_MAGIC, grid.n_x, grid.n_y, len(result.cfl), result.angle,
            result.residual, 1 if result.residual_above_tol else 0, len(ident))
    disp = result.map.disp
    inv = result.map.inv_disp
    with _output(path) as fh:
        fh.write(np.array(head, _OITM_HEAD).tobytes())
        fh.write(ident)
        _write_columns(fh, [getattr(result, name) for name in _OITM_DIAGS] + [
            c.values for c in (disp.u_x, disp.u_y, inv.u_x, inv.u_y)])


def read_map_oitm(path: str | Path) -> tuple[DiffeoMap, MapMetadata]:
    with _reading(path):
        buf = Path(path).read_bytes()
        head, offset = _read_head(buf, _OITM_HEAD, OITM_MAGIC)
        ident, offset = _take(buf, offset, np.dtype("u1"), head["id_len"], "identifier")
        try:
            density_id = ident.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"density identifier is not UTF-8 ({exc})") from exc
        n_x, n_y, steps = head["n_x"], head["n_y"], head["steps"]
        columns = _read_columns(buf, offset, {**dict.fromkeys(_OITM_DIAGS, steps),
                                              **dict.fromkeys(_OITM_DISP, n_x * n_y)})
        diags = {name: columns[name].copy() for name in _OITM_DIAGS}
        grid = PeriodicGrid(n_x, n_y)
        fwd_x, fwd_y, inv_x, inv_y = (ScalarField(grid, columns[name].reshape(n_x, n_y))
                                      for name in _OITM_DISP)
        del buf, ident, columns  # all copied out: the file's bytes go before the map check
        mapping = DiffeoMap(VectorField(fwd_x, fwd_y), VectorField(inv_x, inv_y))
    meta = MapMetadata(
        steps=steps,
        angle=head["angle"],
        residual=head["residual"],
        density_id=density_id,
        residual_above_tol=bool(head["flags"] & 1),
        **diags,
    )
    return mapping, meta


# ---------------------------------------------------------------------------
# CSV samples


# "%.17g" of a float64 x is its 17 significant digits N * 10**(X-16),
# rounded half-to-even, printed without trailing zeros.  With
# 1e-4 <= |x| < 10 the exponent X is -4..0 and the text is fixed-point:
# "d.ddd" for X = 0, "0.ddd" with -X-1 leading zeros otherwise.  Nearly
# all sample coordinates lie in that range (about 160 rows of a million
# two-bump samples hold one that does not), so those values are formatted
# here with numpy arithmetic; rows holding any other value (zeros,
# |x| < 1e-4, |x| >= 10, non-finite values) take Python's "%.17g".
#
# Each value is built in a slot of four uint64 words at fixed byte offsets:
#   bytes 0-5   sign, "0." and leading zeros, right-aligned ("-0.000")
#   byte  6     lead digit; byte 7 "." when X = 0 and digits follow
#   bytes 8-23  the other 16 digits, trailing zeros blanked
#   byte  24    "," or "\n"
# Unused bytes are 0, and ASCII text has none, so dropping every zero byte
# of a block of slots leaves exactly the rows' text.

_CSV_BLOCK_ROWS = 1 << 12  # 64 KB per float64 temporary

# 10**s for s = 0..22 (all exact in float64) and their Veltkamp halves
_POW10 = np.array([float(10**s) for s in range(23)])
_VELTKAMP = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of g = 0..9999, first digit in the lowest byte,
    and the count of trailing zero digits (4 for g = 0)."""
    g = np.arange(10000, dtype=np.uint64)
    digits = sum((g // np.uint64(10**(3 - i)) % np.uint64(10) + np.uint64(ord("0")))
                 << np.uint64(8 * i) for i in range(4))
    zeros = sum((g % np.uint64(10**i) == 0).astype(np.int8) for i in range(1, 5))
    return digits, zeros


_GROUP_LO, _GROUP_TZ = _group_tables()
_GROUP_HI = _GROUP_LO << np.uint64(32)
# masks keeping the 16 - t leading digits of bytes 8-15 / 16-23, for t = 0..16
_KEEP_1 = np.array([(1 << 8 * min(8, 16 - t)) - 1 for t in range(17)], np.uint64)
_KEEP_2 = np.array([(1 << 8 * max(0, 8 - t)) - 1 for t in range(17)], np.uint64)


def _lead_word(neg: int, k: int, d1: int, frac: int) -> int:
    prefix = (b"-" if neg else b"") + (b"0." + b"0" * (k - 1) if k else b"")
    tail = b"%d" % d1 + (b"." if frac and not k else b"\0")
    return int.from_bytes(prefix.rjust(6, b"\0") + tail, "little")


# bytes 0-7 of a slot, indexed by ((neg*5 + k)*10 + d1)*2 + (digits follow),
# where k = -X is 0..4 and d1 the lead digit
_LEAD = np.array([_lead_word(neg, k, d1, frac) for neg in (0, 1) for k in range(5)
                  for d1 in range(10) for frac in (0, 1)], np.uint64)


def _two_product(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a * 10**s exactly (Dekker's product; s <= 22, no underflow)."""
    hi = a * _POW10[s]
    c = a * _VELTKAMP
    ah = c - (c - a)
    al = a - ah
    ph = _POW10_HI[s]
    pl = _POW10_LO[s]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi, lo


def _format_slots(v: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Fill ``slots[:, :3]`` with the "%.17g" text of each value of ``v``.

    Returns the mask of values in 1e-4 <= |x| < 10; the slots of the others
    hold text of no meaning.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 10.0)
    a[~fast] = 1.0
    # a first exponent guess, then an exact check that 10**16 <= a*10**(16-X) < 10**17
    x10 = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _two_product(a, 16 - x10)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    off = np.flatnonzero(low | high)
    if off.size:  # log10 can miss by one next to a power of ten
        x10[off] += high[off].astype(np.int64) - low[off].astype(np.int64)
        hi[off], lo[off] = _two_product(a[off], 16 - x10[off])
    # N = hi + lo rounded half-to-even; hi is an integer here.  N never
    # rounds up to 10**17: the float64 nearest below each of 1e-3, 0.01,
    # 0.1, 1 and 10 lies at least 8e-17 relative below it, far more than
    # half a unit of the 17th digit (5e-18; the tests hold those values).
    f = np.floor(lo)
    n = hi.astype(np.int64) + f.astype(np.int64)
    half = f + 0.5
    n += (lo > half) | ((lo == half) & ((n & 1) == 1))
    d1 = n // 10**16
    r = n - d1 * 10**16
    r_hi = r // 10**8
    r_lo = r - r_hi * 10**8
    g1 = r_hi // 10**4
    g2 = r_hi - g1 * 10**4
    g3 = r_lo // 10**4
    g4 = r_lo - g3 * 10**4
    # trailing zero digits of r: a group counts only when all later ones are 0
    tz = _GROUP_TZ[g4]
    tz += (tz == 4) * _GROUP_TZ[g3]
    tz += (tz == 8) * _GROUP_TZ[g2]
    tz += (tz == 12) * _GROUP_TZ[g1]
    lead = (v < 0.0) * 100 - x10 * 20 + d1 * 2 + (tz < 16)
    slots[:, 0] = _LEAD[lead]
    slots[:, 1] = (_GROUP_LO[g1] | _GROUP_HI[g2]) & _KEEP_1[tz]
    slots[:, 2] = (_GROUP_LO[g3] | _GROUP_HI[g4]) & _KEEP_2[tz]
    return fast


def _write_csv_rows(fh, pts: np.ndarray) -> None:
    """Write each row of the (N, 2) float64 ``pts`` as b"%.17g,%.17g\n"."""
    rows = min(len(pts), _CSV_BLOCK_ROWS)
    slots = np.zeros((2 * rows, 4), "<u8")
    slots[0::2, 3] = ord(",")
    slots[1::2, 3] = ord("\n")
    text = slots.reshape(rows, 8).view(np.uint8)
    for s in range(0, len(pts), _CSV_BLOCK_ROWS):
        block = pts[s:s + _CSV_BLOCK_ROWS]
        m = len(block)
        fast = _format_slots(block.reshape(-1), slots[:2 * m])
        start = 0
        for r in np.flatnonzero(~(fast[0::2] & fast[1::2])).tolist():
            seg = text[start:r]
            fh.write(seg[seg != 0])
            fh.write(b"%.17g,%.17g\n" % (block[r, 0], block[r, 1]))
            start = r + 1
        seg = text[start:m]
        fh.write(seg[seg != 0])


def write_samples_csv(path: str | Path, batch: SampleBatch) -> None:
    """Header x,y then one %.17g pair per line (exact float64 round-trip)."""
    with stream_samples(path, len(batch.points), "csv") as write:
        write(0, batch.points)


@contextmanager
def stream_samples(path: str | Path, n: int,
                   fmt: str) -> Iterator[Callable[[int, np.ndarray], None]]:
    """Yield ``write(start, points)``, which stores the (m, 2) ``points`` as
    rows start..start+m-1 of an n-row sample file in ``fmt``, csv or oitf
    (checked before ``path`` is opened).

    The calls must cover rows 0..n-1 in ascending order; ``write_samples_csv``
    and ``write_samples_oitf`` are the one call ``write(0, points)``.  The
    file reaches ``path`` as ``_output`` says.  The OITF header is
    written last, so ``n`` is only encoded once every row is in.  An OITF
    going to a pipe, which cannot seek, holds the chunks until then and
    writes them column by column, with no second copy of the batch.
    """
    if fmt not in ("csv", "oitf"):
        raise InvalidInputError(f"format must be csv or oitf, got {fmt!r}")
    with _output(path) as fh:
        if fmt == "csv":
            fh.write(_CSV_HEADER)
            yield lambda start, points: _write_csv_rows(fh, points)
            return
        if not fh.seekable():
            chunks: list[np.ndarray] = []
            yield lambda start, points: chunks.append(points)
            fh.write(_oitf_header(n, 1, 2))
            _write_columns(fh, [c[:, 0] for c in chunks] + [c[:, 1] for c in chunks])
            return
        head = _OITF_HEAD.itemsize

        def write(start: int, points: np.ndarray) -> None:
            fh.seek(head + 8 * start)  # x block, then y block of the column pair
            _write_columns(fh, [points[:, 0]])
            fh.seek(head + 8 * (n + start))
            _write_columns(fh, [points[:, 1]])

        yield write
        fh.seek(0)
        fh.write(_oitf_header(n, 1, 2))


def read_samples_csv(path: str | Path, max_rows: int | None = None) -> np.ndarray:
    """Sample points from a CSV; with ``max_rows``, rows after that many are
    not parsed.  A line of only whitespace is blank, wherever it is, and is
    not a row; there are no comments, so a ``#`` line is an unreadable row."""
    if max_rows is not None and max_rows < 0:
        raise InvalidInputError(f"row count must be nonnegative, got {max_rows}")
    with _reading(path), open(path) as fh:
        try:
            header = fh.readline().strip()
            if header != "x,y":
                raise FileFormatError(f"expected header 'x,y', got {header!r}")
            rows = filterfalse(str.isspace, fh)  # a line of only whitespace is blank
            if max_rows == 0 or (first := next(rows, None)) is None:
                return np.empty((0, 2))
            data = np.loadtxt(chain([first], rows), delimiter=",", ndmin=2,
                              max_rows=max_rows, comments=None)
        except FileFormatError:
            raise
        except ValueError as exc:  # a field that is not a number, or undecodable text
            raise FileFormatError(f"unreadable sample CSV ({exc})") from exc
        if data.shape[1] != 2:
            raise FileFormatError("expected two columns")
        return SampleBatch(data).points  # a batch's range check: every point in [-pi, pi)


# ---------------------------------------------------------------------------
# figure exports


def write_heatmap_pgm(path: str | Path, field: ScalarField) -> None:
    """8-bit grayscale PGM (P5); linear map of [min, max] onto [0, 255].

    Row r of the image is y index n_y-1-r (y axis points up), column is x.
    A constant field maps to all zeros.
    """
    v = field.values
    lo = float(v.min())
    hi = float(v.max())
    if hi > lo:
        scaled = np.floor((v - lo) * (255.0 / (hi - lo)) + 0.5)
    else:
        scaled = np.zeros_like(v)
    img = scaled.astype(np.uint8).T[::-1, :]
    with _output(path) as fh:
        fh.write(f"P5\n{field.grid.n_x} {field.grid.n_y}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img).tobytes())


def write_warp_mesh_csv(path: str | Path, mapping: DiffeoMap) -> None:
    """Polylines of every 4th grid line pushed through the map.

    Positions are node + displacement, left unwrapped so each polyline is
    plottable as-is; the closing vertex repeats the first one shifted by a
    full period, which is the programmatic periodicity check.
    """
    grid = mapping.grid
    n_x, n_y = grid.shape
    dx = mapping.disp.u_x.values
    dy = mapping.disp.u_y.values
    i = np.arange(0, n_x, 4)[:, None]  # one polyline per row
    j = np.arange(0, n_y, 4)[:, None]
    # vertex v of a polyline sits on node v % n and is shifted by v // n
    # periods: only the closing vertex moves, but the others still add 0.0,
    # which turns a -0.0 coordinate into 0.0
    v_y = np.arange(n_y + 1)
    wrap_y = v_y % n_y
    v_x = np.arange(n_x + 1)
    wrap_x = v_x % n_x
    x_lines = np.stack((grid.xs[i] + dx[i, wrap_y],
                        grid.ys[wrap_y] + dy[i, wrap_y] + v_y // n_y * TWO_PI), -1)
    y_lines = np.stack((grid.xs[wrap_x] + dx[wrap_x, j] + v_x // n_x * TWO_PI,
                        grid.ys[j] + dy[wrap_x, j]), -1)
    rows = io.BytesIO()
    for lines in (x_lines, y_lines):
        _write_csv_rows(rows, lines.reshape(-1, 2))
    rows.seek(0)
    lead = (b"%s,%d,%d," % (direction, line, v)
            for direction, n_lines, n_vertices in ((b"x", n_x, n_y + 1), (b"y", n_y, n_x + 1))
            for line in range(0, n_lines, 4) for v in range(n_vertices))
    with _output(path) as fh:
        fh.write(b"direction,line_index,vertex_index,x,y\n")
        fh.writelines(map(bytes.__add__, lead, rows))  # a BytesIO iterates by line
