"""Batch command-line front end: build, sample, validate, export.

Commands are deterministic given their effective configuration (seeds
included).  Exit codes: 0 success, 1 usage or configuration error,
2 numerical failure, 3 validation failure.

Each command has one flag per setting it reads, spelled in full.  A
``--config`` file of ``key=value`` lines may hold any key but ``out`` and
``table``, the files a command writes, so one file serves a whole build,
sample, validate run; flags override it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import typing
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import fileio
from .densities import make_density, names_builtin
from .errors import (
    InvalidInputError,
    NumericalBlowupError,
    OrientationLossError,
)
from .geodesic import Density
from .grid import PeriodicGrid
from .sampler import SampleBatch, _map_chunks, sample_target
from .transport import TransportConfig, build_transport_map
from .validate import (
    chi_squared_gof,
    expected_bin_mass,
    histogram,
    rejection_sample_oracle,
    two_sample_chi_squared,
)

SIGNIFICANCE = 0.01


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command: defaults, then a config file, then flags."""

    density: str | None = None
    ratio: float | None = None
    grid: int = 256
    steps: int = 100
    seed: int = 0
    n: int = 100_000
    bins: int = 32
    out: str | None = None
    map: str | None = None
    samples: str | None = None
    table: str | None = None
    format: str = "csv"
    workers: int = 1


# key -> int, float or str, the non-None member of each field's annotation
_KEY_TYPES = {
    key: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for key, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_text(text: str) -> dict:
    """Parse key=value lines (# comments allowed) into typed values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key not in _KEY_TYPES:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in ("out", "table"):  # a file a command writes; shared, the next would overwrite it
            raise UsageError(f"config line {lineno}: pass --{key} as a flag")
        try:
            values[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {key}: {exc}") from exc
    return values


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            cfg = replace(cfg, **parse_config_text(Path(args.config).read_text()))
        except (UsageError, ValueError) as exc:  # ValueError: text that is not UTF-8
            raise UsageError(f"{args.config}: {exc}") from exc
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides)


def _resolve_density(cfg: RunConfig, grid: PeriodicGrid) -> tuple[Density, str]:
    """``make_density`` of ``--density`` (a built-in is built on ``grid``);
    returns (density, identifier), which records ``--ratio``."""
    if not cfg.density:
        raise UsageError("a density (built-in name or OITF file) is required")
    suffix = "" if cfg.ratio is None else f"@ratio={cfg.ratio}"
    return make_density(cfg.density, grid, cfg.ratio), Path(cfg.density).name + suffix


# ---------------------------------------------------------------------------
# commands


def cmd_build(cfg: RunConfig) -> int:
    if not cfg.out:
        raise UsageError("build requires --out for the map file")
    target, ident = _resolve_density(cfg, PeriodicGrid(cfg.grid, cfg.grid))
    tcfg = TransportConfig(steps=cfg.steps, grid=target.grid)
    t0 = time.perf_counter()
    with warnings.catch_warnings():  # the residual warning is this command's own stderr line
        warnings.filterwarnings("ignore", "pushforward residual .* above tolerance",
                                RuntimeWarning)
        result = build_transport_map(target, tcfg)
    elapsed = time.perf_counter() - t0
    fileio.write_map_oitm(cfg.out, result, ident)
    print(f"density: {ident}")
    print(f"angle: {result.angle:.6f}")
    print(f"residual: {result.residual:.6e}")
    print(f"min_jacobian: {result.min_jacobian.min():.6f}")
    print(f"wall_time_s: {elapsed:.2f}")
    print(f"map: {cfg.out}")
    if result.residual_above_tol:  # the map is written and usable: a warning, not an exit code
        print(f"warning: residual {result.residual:.6e} above tolerance {tcfg.residual_tol:.6e}",
              file=sys.stderr)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    if not cfg.map:
        raise UsageError("sample requires --map")
    if not cfg.out:
        raise UsageError("sample requires --out")
    mapping, _meta = fileio.read_map_oitm(cfg.map)
    write_time = 0.0
    t0 = time.perf_counter()
    with fileio.stream_samples(cfg.out, cfg.n, cfg.format) as write:

        def emit(start, points):
            nonlocal write_time
            points = SampleBatch(points).points  # a batch's range check, chunk by chunk
            t = time.perf_counter()
            write(start, points)
            write_time += time.perf_counter() - t

        _map_chunks(mapping, cfg.n, cfg.seed, cfg.workers, emit)
    loop_time = time.perf_counter() - t0
    sample_time = loop_time - write_time
    rate = cfg.n / loop_time if loop_time > 0 else float("inf")
    print(f"samples: {cfg.n}")
    print(f"sampling_time_s: {sample_time:.3f}")
    print(f"write_time_s: {write_time:.3f}")
    print(f"throughput_per_s: {rate:.3e}")
    print(f"out: {cfg.out}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    if not cfg.map:
        raise UsageError("validate requires --map")
    mapping, meta = fileio.read_map_oitm(cfg.map)
    target, ident = _resolve_density(cfg, mapping.grid)
    mass = expected_bin_mass(target, cfg.bins, cfg.bins)  # checks --bins before sampling

    batch = sample_target(mapping, cfg.n, cfg.seed, workers=cfg.workers)
    hist = histogram(batch, cfg.bins, cfg.bins)
    gof_stat, gof_dof, gof_p = chi_squared_gof(hist, mass)

    oracle = rejection_sample_oracle(target, cfg.n, cfg.seed)
    oracle_hist = histogram(oracle, cfg.bins, cfg.bins)
    ts_stat, ts_dof, ts_p = two_sample_chi_squared(hist, oracle_hist)

    passed = gof_p > SIGNIFICANCE and ts_p > SIGNIFICANCE
    report_lines = [
        f"map: {cfg.map}",
        f"density: {ident}",
        f"samples: {cfg.n}",
        f"seed: {cfg.seed}",
        f"bins: {cfg.bins}x{cfg.bins}",
        f"map_residual: {meta.residual:.6e}",
        f"gof_statistic: {gof_stat:.6f}",
        f"gof_dof: {gof_dof}",
        f"gof_p_value: {gof_p:.6g}",
        f"two_sample_statistic: {ts_stat:.6f}",
        f"two_sample_dof: {ts_dof}",
        f"two_sample_p_value: {ts_p:.6g}",
        f"significance: {SIGNIFICANCE}",
        f"result: {'pass' if passed else 'fail'}",
    ]
    report = "\n".join(report_lines) + "\n"
    files = {cfg.out: report} if cfg.out else {}
    if cfg.table:  # optional per-bin table; written with the report, or neither
        expected = (cfg.n * mass).reshape(cfg.bins, cfg.bins)
        rows = [f"{i},{j},{hist.counts[i, j]},{expected[i, j]:.6f},{oracle_hist.counts[i, j]}\n"
                for i in range(cfg.bins) for j in range(cfg.bins)]
        files[cfg.table] = "bin_x,bin_y,observed,expected,oracle\n" + "".join(rows)
    fileio.save_text(files)
    sys.stdout.write(report)
    return 0 if passed else 3


def cmd_export(cfg: RunConfig) -> int:
    if not cfg.out:
        raise UsageError("export requires --out")
    chosen = [k for k in ("map", "density", "samples") if getattr(cfg, k)]
    if len(chosen) != 1:
        raise UsageError("export needs exactly one of --map, --density, --samples")
    kind = chosen[0]
    if kind == "map":
        mapping, _meta = fileio.read_map_oitm(cfg.map)
        fileio.write_warp_mesh_csv(cfg.out, mapping)
        print(f"mesh: {cfg.out}")
    elif kind == "density":
        target, _ident = _resolve_density(cfg, PeriodicGrid(cfg.grid, cfg.grid))
        fileio.write_heatmap_pgm(cfg.out, target.field)
        print(f"heatmap: {cfg.out}")
    else:
        keep = fileio.read_samples_csv(cfg.samples, max_rows=cfg.n)
        fileio.write_samples_csv(cfg.out, SampleBatch(keep))
        print(f"scatter: {cfg.out} ({len(keep)} points)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # flags in full only; each command's parser is one too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


# command -> (function, help, the RunConfig keys it reads, which are its flags)
_COMMANDS = {
    "build": (cmd_build, "construct a transport map and save it as OITM",
              ("density", "ratio", "grid", "steps", "out")),
    "sample": (cmd_sample, "draw samples through a prebuilt map",
               ("map", "n", "seed", "format", "workers", "out")),
    "validate": (cmd_validate, "chi-squared checks of map samples against the target",
                 ("map", "density", "ratio", "n", "seed", "bins", "workers", "out",
                  "table")),
    "export": (cmd_export, "figure-ready artifacts: heatmap PGM, warp-mesh CSV, scatter CSV",
               ("map", "density", "ratio", "grid", "samples", "n", "out")),
}

# key -> flag help; build_parser appends the RunConfig default where there is one
_HELP = {
    "density": "built-in density name (optionally name:param) or OITF file",
    "ratio": "shift density to this max/min ratio",
    "grid": "grid nodes per axis of a built-in density",
    "steps": "time steps K",
    "seed": "RNG seed",
    "n": "sample count",
    "bins": "validation bins per axis",
    "out": "output path",
    "map": "OITM map file",
    "samples": "sample CSV to read",
    "table": "per-bin table CSV to write",
    "format": "sample output format, csv or oitf",
    "workers": "worker threads for sampling",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="oitsample",
                     description="Draw seeded random samples from a density on the "
                                 "flat torus through a measure-transport warp.")
    subs = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, (_, doc, keys) in _COMMANDS.items():
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config", help="key=value file, any key but out, table; flags win")
        for key in keys:
            default = getattr(defaults, key)
            tail = "" if default is None else f" (default {default})"
            sub.add_argument(f"--{key}", type=_KEY_TYPES[key], help=_HELP[key] + tail)
    return parser


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file, through any link, existing or not."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet names the file it resolves to
        return os.path.realpath(a) == os.path.realpath(b)


def _check_paths(cfg: RunConfig, keys: tuple[str, ...], config: str | None) -> None:
    """Refuse a run whose output names another file of the run: the report
    and the table would overwrite each other, and an output would replace
    an input (the config file, map, sample CSV or density field) before or
    while the command reads it.  Only the keys the command reads count."""
    written = [(k, getattr(cfg, k)) for k in ("out", "table") if getattr(cfg, k)]
    read = [("config", config)] + [(k, getattr(cfg, k)) for k in ("map", "samples", "density")
                                    if k in keys]
    read = [(k, p) for k, p in read if p and not (k == "density" and names_builtin(p))]
    for i, (key, path) in enumerate(written):
        for other, other_path in written[i + 1:] + read:
            if _same_file(path, other_path):
                raise UsageError(f"--{key} and --{other} name the same file")


def _report_stream(*files: str | None):
    """Where a command prints its report: stderr when one of the files it
    writes is this process's own stdout (``--out /dev/stdout`` or
    ``--table /dev/stdout``), so that the report never mixes into an output;
    stdout otherwise, and whenever stdout has no file descriptor."""
    try:
        stdout = os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no descriptor
        return sys.stdout
    for path in filter(None, files):
        try:
            if os.path.samestat(stdout, os.stat(path)):
                return sys.stderr
        except OSError:  # ``path`` does not exist yet
            pass
    return sys.stdout


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        _check_paths(cfg, _COMMANDS[args.command][2], args.config)
        with redirect_stdout(_report_stream(cfg.out, cfg.table)):
            return _COMMANDS[args.command][0](cfg)
    except (UsageError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OrientationLossError, NumericalBlowupError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
