"""Seeded uniform sampling on the torus and fast map evaluation.

The uniform stream is counter-based (Philox keyed by the seed), with each
sample's two coordinates taken from fixed positions in the raw word
stream.  Chunked or parallel generation therefore reproduces the serial
sequence bit for bit: chunk i simply starts the counter at its own offset.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import _POINT_BLOCK, TWO_PI, DiffeoMap, _Stencil, _wrap_shift

# Philox key word separating this stream from the rejection oracle's
_STREAM_UNIFORM = 0x756E6966  # "unif"

_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class SampleBatch:
    """Ordered points in [-pi, pi)^2."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInputError(f"points must be (N, 2), got {pts.shape}")
        # written so that a NaN, for which every comparison is False, fails
        if pts.size and not (-np.pi <= pts.min() and pts.max() < np.pi):
            raise InvalidInputError("sample coordinates must lie in [-pi, pi)")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _uniform_stream(seed: int, stream: int, start: int, n: int) -> np.ndarray:
    """Uniforms [start, start + n) of the Philox stream keyed by (seed, stream).

    Uniform i is ``(word_i >> 11) * 2**-53`` of raw 64-bit word i.  The
    generator emits 4 words per counter block, so the counter advances by
    whole blocks and the lead-in words are discarded.  The key is a uint64
    array: numpy converts a list holding a word of 2**63 or more through
    float64, which would drop the low bits of such seeds (and so of every
    negative seed).
    """
    block0, lead = divmod(start, 4)
    bg = np.random.Philox(key=np.array([seed & _MASK64, stream], np.uint64))
    bg.advance(block0)
    bg.random_raw(lead)
    return np.random.Generator(bg).random(n)


def draw_uniform(n: int, seed: int, start: int = 0) -> SampleBatch:
    """n i.i.d. uniform points on [-pi, pi)^2, sample indices start..start+n-1.

    Fully determined by (seed, index); ``start`` lets callers generate any
    slice of the infinite seeded sequence independently.
    """
    if n < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {n}")
    if start < 0:
        raise InvalidInputError(f"start index must be nonnegative, got {start}")
    pts = _uniform_stream(seed, _STREAM_UNIFORM, 2 * start, 2 * n)
    pts *= TWO_PI
    pts -= np.pi
    return SampleBatch(pts.reshape(n, 2))


def _transform_chunk(mapping: DiffeoMap, pts: np.ndarray, out: np.ndarray) -> None:
    """``out = wrap(pts + d(pts))`` for one chunk of points, gathering the
    displacement ``d`` through the map's own pads (``DiffeoMap._padded``)."""
    pad_x, pad_y = mapping._padded
    px = np.ascontiguousarray(pts[:, 0])
    py = np.ascontiguousarray(pts[:, 1])
    st = _Stencil(mapping.grid, px, py)
    out[:, 0] = _wrap_shift(px + st.gather(pad_x))
    out[:, 1] = _wrap_shift(py + st.gather(pad_y))


def _map_chunks(mapping: DiffeoMap, n: int, seed: int, workers: int,
                emit: Callable[[int, np.ndarray], None]) -> None:
    """Push uniform samples 0..n-1 through the map in ``_POINT_BLOCK``-point chunks.

    Chunk [s, e) draws uniform samples s..e-1 only when it runs, and
    ``emit(s, points)`` then receives its (e - s, 2) points on the calling
    thread, in ascending order of s.  Each chunk is one thread task, one
    ``draw_uniform`` call and one ``_transform_chunk`` call; both are looked
    up as module globals.  Every chunk gathers through the pads the map
    made of its displacement at construction (``DiffeoMap._padded``), so
    nothing is padded here.  The pool holds ``workers``
    threads, capped at the core count, and computes at most
    ``2 * workers`` chunks ahead of ``emit``, so memory does not grow with
    n.  The points depend on neither.
    """
    if n < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {n}")
    if workers < 1:
        raise InvalidInputError(f"worker count must be >= 1, got {workers}")

    def run(s: int) -> np.ndarray:
        e = min(s + _POINT_BLOCK, n)
        out = np.empty((e - s, 2))
        _transform_chunk(mapping, draw_uniform(e - s, seed, start=s).points, out)
        return out

    starts = range(0, n, _POINT_BLOCK)
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(starts) <= 1:
        for s in starts:
            emit(s, run(s))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for s in starts:
            ahead.append((s, pool.submit(run, s)))
            if len(ahead) == 2 * workers:
                done, chunk = ahead.popleft()
                emit(done, chunk.result())
        for done, chunk in ahead:
            emit(done, chunk.result())


def sample_target(mapping: DiffeoMap, n: int, seed: int,
                  workers: int = 1) -> SampleBatch:
    """Draw n seeded uniform points and push them through the map.

    This is the amortized workflow: build the map once, then call this as
    often as fresh samples are needed.
    """
    out = np.empty((max(n, 0), 2))  # a negative n is the driver's to reject

    def keep(start: int, points: np.ndarray) -> None:
        out[start:start + len(points)] = points

    _map_chunks(mapping, n, seed, workers, keep)
    return SampleBatch(out)
