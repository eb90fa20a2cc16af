"""In-memory spans for the traced run, and the rebinding that records them.

A traced op rebinds, in memory, the names through which one module of the
program calls into another (plus the grid, sampler and validate helpers
that the per-layer metrics split out) to wrappers that record one span per
call.  ``Tracer.uninstall`` puts every original object back, so untraced
ops run the program exactly as shipped.

Self time is a span's duration minus the part of it that its children on
the same thread cover.  Times are integer nanoseconds, so when spans nest
properly the self times of a root span and its same-thread descendants add
up to the root's duration exactly.
Spans opened on a worker thread take as parent the span the home thread is
blocked in (the load is one closed-loop client); they are busy time on
another thread and are not subtracted from that parent.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans in memory; optionally owns a set of installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            # list.append is atomic under the interpreter lock; worker
            # threads of a --workers 2 sample append concurrently.
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    # -- rebinding -----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        """Rebind ``owner.attr`` to a wrapper that records span ``name``.

        ``count(args, kwargs)``, when given, returns attributes (work counts)
        stored on the span after the call returns.  The attribute must be
        defined on ``owner`` itself, so a renamed program function fails
        loudly here instead of silently going untraced.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
            if count is not None:
                attrs.update(count(args, kwargs))
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, program):
        """Wrappers around ``program``'s layer boundaries for the block's duration."""
        try:
            instrument(self, program)
            yield self
        finally:
            self.uninstall()


def _stencil_points(args, kwargs):  # _Stencil.__init__(self, grid, px, py, ...)
    return {"points": len(args[2])}


def _gather_points(args, kwargs):  # _Stencil.gather(self, values)
    return {"points": args[0].fx.size}


def _file_bytes(args, kwargs):  # fileio readers and writers take the path first
    return {"bytes": os.path.getsize(args[0])}


def _workers(args, kwargs):  # sample_target(mapping, n, seed, workers=1)
    return {"workers": kwargs.get("workers", args[3] if len(args) > 3 else 1)}


def _oracle_n(args, kwargs):  # rejection_sample_oracle(target, n, seed)
    return {"n": args[1] if len(args) > 1 else kwargs["n"]}


def instrument(tracer: Tracer, p) -> None:
    """Install every wrapper; ``p`` has the program modules as attributes."""
    w = tracer.wrap
    # grid: stencils are built by transport, sampler, validate and by grid
    # itself (map checks), so the class methods are wrapped once for all.
    w(p.grid._Stencil, "__init__", "grid.stencil", _stencil_points)
    w(p.grid._Stencil, "gather", "grid.gather", _gather_points)
    w(p.grid, "_index_frac", "grid.index_frac")
    for owner, attr in ((p.grid, "wrap_angle"), (p.grid, "_wrap_shift"),
                        (p.transport, "wrap_angle"), (p.sampler, "_wrap_shift")):
        w(owner, attr, "grid.wrap")
    w(p.transport, "_central_diff", "grid.diff")
    w(p.transport, "_jacobian_det_arrays", "grid.diff")
    w(p.transport, "DiffeoMap", "grid.map_check")
    w(p.fileio, "DiffeoMap", "grid.map_check")
    # transport, and what the build loop calls in poisson and geodesic
    w(p.cli, "build_transport_map", "transport.build")
    w(p.transport, "pushforward_residual", "transport.residual")
    w(p.transport, "_solve_gradient", "poisson.solve")
    w(p.transport, "log_density_rate", "geodesic.rate")
    # sampler
    w(p.cli, "sample_target", "sampler.sample_target", _workers)
    w(p.sampler, "draw_uniform", "sampler.draw")
    w(p.sampler, "_transform_chunk", "sampler.transform")
    # fileio, as cli looks it up (cli.fileio is the fileio module)
    w(p.fileio, "read_map_oitm", "fileio.read_oitm", _file_bytes)
    w(p.fileio, "write_map_oitm", "fileio.write_oitm")
    w(p.fileio, "write_samples_oitf", "fileio.write_oitf", _file_bytes)
    w(p.fileio, "write_samples_csv", "fileio.write_csv", _file_bytes)
    w(p.fileio, "read_samples_csv", "fileio.read_csv", _file_bytes)
    w(p.fileio, "write_warp_mesh_csv", "fileio.write_mesh")
    w(p.fileio, "write_heatmap_pgm", "fileio.write_pgm")
    # validate
    w(p.cli, "rejection_sample_oracle", "validate.oracle", _oracle_n)
    w(p.cli, "histogram", "validate.histogram")
    w(p.cli, "expected_bin_mass", "validate.bin_mass")
    w(p.cli, "chi_squared_gof", "validate.chi2")
    w(p.cli, "two_sample_chi_squared", "validate.chi2")
    w(p.validate, "_merge_small_bins", "validate.merge")


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it its same-thread children cover.

    Coverage is the union of the children's intervals clipped to the
    parent, so a child that leaked outside its parent or overlapped a
    sibling makes the self times of a tree stop adding up to its root,
    which ``self_time_gap_ns`` detects.
    """
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            kids.setdefault(parent.id, []).append(
                (max(s.start_ns, parent.start_ns), min(s.end_ns, parent.end_ns)))
    own = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for lo, hi in sorted(kids.get(s.id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[s.id] = s.duration_ns - covered
    return own


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """Every span below ``root_id``, on any thread."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out: list[Span] = []
    todo = [root_id]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child.id)
    return out


def self_time_gap_ns(spans: list[Span], root: Span, own: dict[int, int]) -> int:
    """Root duration minus the summed self times of the root and its
    same-thread descendants; zero when the spans nest properly."""
    same_thread = [s for s in descendants(spans, root.id) if s.thread == root.thread]
    return root.duration_ns - own[root.id] - sum(own[s.id] for s in same_thread)
