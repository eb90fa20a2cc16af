"""Binary and text persistence: OITF fields, OITM maps, CSV, PGM.

OITF (field) layout, all little-endian:
    magic "OITF1\\n" | u32 n_x | u32 n_y | u8 components (1 or 2)
    | components * n_x*n_y float64, row-major.
A sample batch stored as OITF uses n_x = N, n_y = 1, components = 2
(x coordinates then y coordinates).

OITM (map) layout:
    magic "OITM1\\n" | u32 n_x | u32 n_y | u32 steps | f64 angle
    | f64 residual | u8 flags (bit0 residual-above-tol, bit1 cfl-warned)
    | u32 id_len | id_len bytes utf-8 density identifier
    | steps f64 cfl | steps f64 poisson_mean | steps f64 min_jacobian
    | forward displacement (x then y) | inverse displacement (x then y),
each displacement component n_x*n_y float64 row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .grid import DiffeoMap, PeriodicGrid, ScalarField, VectorField
from .sampler import SampleBatch
from .transport import TransportResult

OITF_MAGIC = b"OITF1\n"
OITM_MAGIC = b"OITM1\n"

_U32 = np.dtype("<u4")
_F64 = np.dtype("<f8")

_OITF_BLOCK_ROWS = 1 << 20


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    end = offset + count
    if end > len(buf):
        raise FileFormatError(f"truncated file while reading {what}")
    return buf[offset:end], end


def _read_u32(buf: bytes, offset: int, what: str) -> tuple[int, int]:
    raw, offset = _take(buf, offset, 4, what)
    return int(np.frombuffer(raw, _U32)[0]), offset


def _read_f64_array(buf: bytes, offset: int, count: int, what: str):
    raw, offset = _take(buf, offset, 8 * count, what)
    return np.frombuffer(raw, _F64).astype(np.float64), offset


# ---------------------------------------------------------------------------
# OITF fields


def write_field_oitf(path: str | Path, field: ScalarField | VectorField) -> None:
    if isinstance(field, ScalarField):
        grid = field.grid
        components = [field.values]
    else:
        grid = field.grid
        components = [field.u_x.values, field.u_y.values]
    with open(path, "wb") as fh:
        fh.write(OITF_MAGIC)
        fh.write(np.asarray([grid.n_x, grid.n_y], _U32).tobytes())
        fh.write(bytes([len(components)]))
        for comp in components:
            fh.write(np.ascontiguousarray(comp, dtype=_F64).tobytes())


def read_field_oitf(path: str | Path) -> ScalarField | VectorField:
    buf = Path(path).read_bytes()
    magic, offset = _take(buf, 0, len(OITF_MAGIC), "magic")
    if magic != OITF_MAGIC:
        raise FileFormatError(f"{path}: not an OITF field file")
    n_x, offset = _read_u32(buf, offset, "n_x")
    n_y, offset = _read_u32(buf, offset, "n_y")
    raw, offset = _take(buf, offset, 1, "component count")
    comps = raw[0]
    if comps not in (1, 2):
        raise FileFormatError(f"{path}: component count {comps} not in (1, 2)")
    grid = PeriodicGrid(n_x, n_y)
    arrays = []
    for c in range(comps):
        vals, offset = _read_f64_array(buf, offset, n_x * n_y, f"component {c}")
        arrays.append(vals.reshape(n_x, n_y))
    if offset != len(buf):
        raise FileFormatError(f"{path}: {len(buf) - offset} trailing bytes")
    if comps == 1:
        return ScalarField(grid, arrays[0])
    return VectorField.from_arrays(grid, arrays[0], arrays[1])


def write_samples_oitf(path: str | Path, batch: SampleBatch) -> None:
    n = batch.count
    # each column goes out in blocks through one reusable buffer, so no
    # full-length column copy is ever made
    buf = np.empty(min(n, _OITF_BLOCK_ROWS), _F64)
    with open(path, "wb") as fh:
        fh.write(OITF_MAGIC)
        fh.write(np.asarray([n, 1], _U32).tobytes())
        fh.write(bytes([2]))
        for col in (0, 1):
            for s in range(0, n, _OITF_BLOCK_ROWS):
                block = buf[:min(n - s, _OITF_BLOCK_ROWS)]
                block[...] = batch.points[s:s + len(block), col]
                fh.write(block)


def read_samples_oitf(path: str | Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    magic, offset = _take(buf, 0, len(OITF_MAGIC), "magic")
    if magic != OITF_MAGIC:
        raise FileFormatError(f"{path}: not an OITF file")
    n, offset = _read_u32(buf, offset, "count")
    n_y, offset = _read_u32(buf, offset, "n_y")
    raw, offset = _take(buf, offset, 1, "component count")
    if n_y != 1 or raw[0] != 2:
        raise FileFormatError(f"{path}: not a sample-batch OITF (n_y={n_y}, comps={raw[0]})")
    xs, offset = _read_f64_array(buf, offset, n, "x coordinates")
    ys, offset = _read_f64_array(buf, offset, n, "y coordinates")
    if offset != len(buf):
        raise FileFormatError(f"{path}: {len(buf) - offset} trailing bytes")
    return np.stack([xs, ys], axis=1)


# ---------------------------------------------------------------------------
# OITM maps


@dataclass(frozen=True)
class MapMetadata:
    steps: int
    angle: float
    residual: float
    density_id: str
    residual_above_tol: bool
    cfl_warned: bool
    cfl: np.ndarray
    poisson_mean: np.ndarray
    min_jacobian: np.ndarray


def write_map_oitm(path: str | Path, result: TransportResult, density_id: str) -> None:
    grid = result.map.grid
    flags = (1 if result.residual_above_tol else 0) | (2 if result.cfl_exceeded_steps else 0)
    ident = density_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(OITM_MAGIC)
        fh.write(np.asarray([grid.n_x, grid.n_y, len(result.cfl)], _U32).tobytes())
        fh.write(np.asarray([result.angle, result.residual], _F64).tobytes())
        fh.write(bytes([flags]))
        fh.write(np.asarray([len(ident)], _U32).tobytes())
        fh.write(ident)
        for arr in (result.cfl, result.poisson_mean, result.min_jacobian):
            fh.write(np.ascontiguousarray(arr, dtype=_F64).tobytes())
        disp = result.map.disp
        inv = result.map.inv_disp
        for comp in (disp.u_x, disp.u_y, inv.u_x, inv.u_y):
            fh.write(np.ascontiguousarray(comp.values, dtype=_F64).tobytes())


def read_map_oitm(path: str | Path) -> tuple[DiffeoMap, MapMetadata]:
    buf = Path(path).read_bytes()
    magic, offset = _take(buf, 0, len(OITM_MAGIC), "magic")
    if magic != OITM_MAGIC:
        raise FileFormatError(f"{path}: not an OITM map file")
    n_x, offset = _read_u32(buf, offset, "n_x")
    n_y, offset = _read_u32(buf, offset, "n_y")
    steps, offset = _read_u32(buf, offset, "steps")
    head, offset = _read_f64_array(buf, offset, 2, "angle/residual")
    raw, offset = _take(buf, offset, 1, "flags")
    flags = raw[0]
    id_len, offset = _read_u32(buf, offset, "identifier length")
    ident_raw, offset = _take(buf, offset, id_len, "identifier")
    diags = []
    for name in ("cfl", "poisson_mean", "min_jacobian"):
        arr, offset = _read_f64_array(buf, offset, steps, name)
        diags.append(arr)
    comps = []
    for name in ("fwd_x", "fwd_y", "inv_x", "inv_y"):
        arr, offset = _read_f64_array(buf, offset, n_x * n_y, name)
        comps.append(arr.reshape(n_x, n_y))
    if offset != len(buf):
        raise FileFormatError(f"{path}: {len(buf) - offset} trailing bytes")
    grid = PeriodicGrid(n_x, n_y)
    mapping = DiffeoMap(
        grid,
        VectorField.from_arrays(grid, comps[0], comps[1]),
        VectorField.from_arrays(grid, comps[2], comps[3]),
    )
    meta = MapMetadata(
        steps=steps,
        angle=float(head[0]),
        residual=float(head[1]),
        density_id=ident_raw.decode("utf-8"),
        residual_above_tol=bool(flags & 1),
        cfl_warned=bool(flags & 2),
        cfl=diags[0],
        poisson_mean=diags[1],
        min_jacobian=diags[2],
    )
    return mapping, meta


# ---------------------------------------------------------------------------
# CSV samples


def write_samples_csv(path: str | Path, batch: SampleBatch) -> None:
    """Header x,y then one %.17g pair per line (exact float64 round-trip)."""
    chunk = 1 << 18
    pts = batch.points
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for s in range(0, len(pts), chunk):
            block = pts[s:s + chunk]
            fh.write(("%.17g,%.17g\n" * len(block)) % tuple(block.reshape(-1)))


def read_samples_csv(path: str | Path, max_rows: int | None = None) -> np.ndarray:
    """Sample points from a CSV; with ``max_rows``, rows after that many are
    not parsed."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,y":
            raise FileFormatError(f"{path}: expected header 'x,y', got {header!r}")
        start = fh.tell()
        while (line := fh.readline()) and not line.strip():
            start = fh.tell()
        if not line:
            return np.empty((0, 2))
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=max_rows)
    if data.shape[1] != 2:
        raise FileFormatError(f"{path}: expected two columns")
    return data


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
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.grid.n_x} {field.grid.n_y}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img).tobytes())


def write_warp_mesh_csv(path: str | Path, mapping: DiffeoMap, stride: int = 4) -> None:
    """Polylines of every ``stride``-th grid line pushed through the map.

    Positions are node + displacement, left unwrapped so each polyline is
    plottable as-is; the closing vertex repeats the first one shifted by a
    full period, which is the programmatic periodicity check.
    """
    grid = mapping.grid
    dx = mapping.disp.u_x.values
    dy = mapping.disp.u_y.values
    two_pi = 2.0 * np.pi
    with open(path, "w", newline="\n") as fh:
        fh.write("direction,line_index,vertex_index,x,y\n")
        for i in range(0, grid.n_x, stride):
            for j in range(grid.n_y + 1):
                jj = j % grid.n_y
                x = grid.xs[i] + dx[i, jj]
                y = grid.ys[jj] + dy[i, jj] + (two_pi if j == grid.n_y else 0.0)
                fh.write("x,%d,%d,%.17g,%.17g\n" % (i, j, x, y))
        for j in range(0, grid.n_y, stride):
            for i in range(grid.n_x + 1):
                ii = i % grid.n_x
                x = grid.xs[ii] + dx[ii, j] + (two_pi if i == grid.n_x else 0.0)
                y = grid.ys[j] + dy[ii, j]
                fh.write("y,%d,%d,%.17g,%.17g\n" % (j, i, x, y))
