"""Metric definitions, timing summaries and the per-layer numbers of a traced op."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from spans import Span, descendants

# name: (unit, better, what).  The first four are the end-to-end metrics
# every workload reports on its result line; the rest of the end-to-end
# block is printed by name on the workloads that have it.
END_TO_END = {
    "setup_s": ("s", "lower", "imports plus the median of the set-ups: the density, and for "
                "sample/readme the standard-map build and OITM write"),
    "op_s": ("s", "lower", "median wall time of one op: a build (build), a workers 1 + "
             "workers 2 sample pair (sample), one README pass (readme)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the benchmark process"),
    "map_residual": ("1", "lower", "pushforward residual of the standard map"),
}
DETAIL = {
    "build_s": ("s", "lower", "wall time of one build command"),
    "sample_rate_w1": ("samples/s", "higher", "n / wall time of one sample --workers 1"),
    "sample_rate_w2": ("samples/s", "higher", "n / wall time of one sample --workers 2"),
    "sample_csv_s": ("s", "lower", "wall time of sample --n 1e6 to CSV"),
    "validate_s": ("s", "lower", "wall time of validate --n 1e5 --bins 32"),
    "export_heatmap_s": ("s", "lower", "wall time of export --density"),
    "export_mesh_s": ("s", "lower", "wall time of export --map"),
    "export_scatter_s": ("s", "lower", "wall time of export --samples --n 5000"),
    "readme_cycle_s": ("s", "lower", "wall time of one pass of README steps 2-4"),
    "validate.reject_ratio": ("1", "lower", "reject verdicts / validate commands"),
    "fail_ratio": ("1", "lower", "failed ops / attempted ops"),
}
# Which command label each per-command detail metric times.
COMMAND_TIMES = {
    "build_s": "build",
    "sample_csv_s": "sample_csv",
    "validate_s": "validate",
    "export_heatmap_s": "export_heatmap",
    "export_mesh_s": "export_mesh",
    "export_scatter_s": "export_scatter",
}
# Which sample command each rate metric divides n by.
COMMAND_RATES = {"sample_rate_w1": "sample_w1", "sample_rate_w2": "sample_w2"}
DETAIL_BY_WORKLOAD = {
    "build": ("build_s",),
    "sample": ("sample_rate_w1", "sample_rate_w2"),
    "readme": ("sample_csv_s", "validate_s", "export_heatmap_s", "export_mesh_s",
               "export_scatter_s", "readme_cycle_s", "validate.reject_ratio"),
}

# Self time (busy time, summed over threads) per layer metric, by span name.
SELF_TIME = {
    "transport.self_s": ("transport.build", "transport.residual"),
    "grid.stencil_s": ("grid.stencil",),
    "grid.gather_s": ("grid.gather",),
    "grid.wrap_s": ("grid.wrap",),
    "grid.index_frac_s": ("grid.index_frac",),
    "grid.diff_s": ("grid.diff",),
    "grid.map_check_s": ("grid.map_check",),
    "poisson.solve_s": ("poisson.solve",),
    "geodesic.rate_s": ("geodesic.rate",),
    "sampler.draw_s": ("sampler.draw",),
    "sampler.transform_s": ("sampler.transform",),
    "sampler.sample_target_s": ("sampler.sample_target",),
    "fileio.read_oitm_s": ("fileio.read_oitm",),
    "fileio.write_oitm_s": ("fileio.write_oitm",),
    "fileio.write_oitf_s": ("fileio.write_oitf",),
    "fileio.write_csv_s": ("fileio.write_csv",),
    "fileio.read_csv_s": ("fileio.read_csv",),
    "fileio.write_mesh_s": ("fileio.write_mesh",),
    "fileio.write_pgm_s": ("fileio.write_pgm",),
    "validate.oracle_s": ("validate.oracle",),
    "validate.histogram_s": ("validate.histogram",),
    "validate.bin_mass_s": ("validate.bin_mass",),
    "validate.merge_s": ("validate.merge",),
    "validate.chi2_s": ("validate.chi2",),
}
# Bytes one gather moves, computed (not measured) from array sizes: per
# point 4 int64 flat indices, 4 float64 corner values, 2 float64
# fractions and 1 float64 result.
GATHER_BYTES_PER_POINT = 4 * 8 + 4 * 8 + 2 * 8 + 8

# Counts that must repeat exactly when the same op runs again.
EXACT_COUNTS = ("transport.stencils_per_step", "transport.gathers_per_step", "poisson.solves",
                "grid.points", "validate.oracle_proposals", "grid.gather_bytes")

PER_LAYER = {
    **{name: ("s", "lower", "self time per op of " + ", ".join(spans))
       for name, spans in SELF_TIME.items()},
    "cli.self_s": ("s", "lower", "per command: command wall time minus its child spans"),
    "fileio.write_oitf_mb_s": ("MB/s", "higher", "OITF bytes written / write self time"),
    "fileio.write_csv_mb_s": ("MB/s", "higher", "CSV bytes written / write self time"),
    "grid.stencils": ("count", "lower", "stencils built per op"),
    "grid.points": ("count", "lower", "points stenciled per op"),
    "grid.gathers": ("count", "lower", "gathers per op"),
    "grid.gather_bytes": ("count", "lower", "bytes gathered per op, computed from array sizes"),
    "transport.stencils_per_step": ("count", "lower", "stencils the build loop makes per step"),
    "transport.gathers_per_step": ("count", "lower", "gathers the build loop makes per step"),
    "poisson.solves": ("count", "lower", "Poisson solves per op"),
    "sampler.busy_ratio_w2": ("1", "higher", "worker busy time / (2 x sample_target wall), "
                              "--workers 2 commands"),
    "validate.oracle_proposals": ("count", "lower", "oracle proposals evaluated per op"),
    "validate.oracle_accept_ratio": ("1", "higher", "accepted / proposals evaluated"),
    "validate.reject_ratio": DETAIL["validate.reject_ratio"],
    "trace.spans": ("count", "lower", "spans recorded per op"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall time of the same op"),
}

PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(values: list[float], min_beyond: int = 10):
    """Highest of PERCENTILES with at least ``min_beyond`` samples above it.

    Nearest-rank: percentile p is the value at rank ceil(p * n / 100), and
    the n - rank samples after it are beyond it.  Returns (p, value), or
    None when even the median has fewer than ``min_beyond`` beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(Fraction(str(p)) * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            best = (p, ordered[rank - 1])
    return best


def summarize(values: list[float]) -> dict:
    """Median, tail percentile and sample count of one timing."""
    if not values:
        return {"median": None, "tail": None, "n": 0}
    tail = tail_percentile(values)
    return {"median": statistics.median(values),
            "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
            "n": len(values)}


def op_layer_metrics(spans: list[Span], root: Span, own: dict[int, int]) -> dict[str, float]:
    """Per-layer numbers of one traced op from its span tree."""
    tree = descendants(spans, root.id)
    by_name: dict[str, list[Span]] = {}
    for s in tree:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_s(*names):
        return sum(own[s.id] for s in named(*names)) / 1e9

    out = {metric: self_s(*names) for metric, names in SELF_TIME.items()}
    commands = [s for s in tree if s.name.startswith("cli.")]
    out["cli.self_s"] = (sum(own[s.id] for s in commands) / 1e9 / len(commands)
                         if commands else 0.0)
    for kind in ("oitf", "csv"):
        written = sum(s.attrs["bytes"] for s in named(f"fileio.write_{kind}"))
        busy = self_s(f"fileio.write_{kind}")
        out[f"fileio.write_{kind}_mb_s"] = written / 1e6 / busy if busy else 0.0

    stencils = named("grid.stencil")
    gathers = named("grid.gather")
    out["grid.stencils"] = len(stencils)
    out["grid.points"] = sum(s.attrs["points"] for s in stencils)
    out["grid.gathers"] = len(gathers)
    out["grid.gather_bytes"] = GATHER_BYTES_PER_POINT * sum(s.attrs["points"] for s in gathers)

    builds = {s.id for s in named("transport.build")}
    steps = sum(1 for s in named("geodesic.rate") if s.parent in builds)
    for name, metric in (("grid.stencil", "transport.stencils_per_step"),
                         ("grid.gather", "transport.gathers_per_step")):
        in_loop = sum(1 for s in named(name) if s.parent in builds)
        out[metric] = in_loop / steps if steps else 0.0
    out["poisson.solves"] = len(named("poisson.solve"))

    busy_ns = wall_ns = 0
    for call in named("sampler.sample_target"):
        if call.attrs["workers"] > 1:
            busy_ns += sum(s.duration_ns for s in tree
                           if s.parent == call.id and s.thread != call.thread)
            wall_ns += call.attrs["workers"] * call.duration_ns
    out["sampler.busy_ratio_w2"] = busy_ns / wall_ns if wall_ns else 0.0

    oracles = {s.id: s for s in named("validate.oracle")}
    proposals = sum(s.attrs["points"] for s in stencils if s.parent in oracles)
    accepted = sum(s.attrs["n"] for s in oracles.values())
    out["validate.oracle_proposals"] = proposals
    out["validate.oracle_accept_ratio"] = accepted / proposals if proposals else 0.0
    out["trace.spans"] = len(tree) + 1
    return out
