"""Batch command-line front end: build, sample, validate, export.

Commands are deterministic given their effective configuration (seeds
included).  Exit codes: 0 success, 1 usage or configuration error,
2 numerical failure, 3 a goodness-of-fit rejection at ``validate.SIGNIFICANCE``.

Each command has one flag per setting it reads, spelled in full.  A
``--config`` file of ``key=value`` lines may hold any key but ``out`` and
``table``, the files a command writes, so one file serves a whole build,
sample, validate run; flags override it.
"""

from __future__ import annotations

import argparse
import sys
import time
import typing
from contextlib import redirect_stdout
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import fileio
from .densities import make_density, names_field_file
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
    SIGNIFICANCE,
    chi_squared_gof,
    expected_bin_mass,
    histogram,
    inverse_law_mass,
    law_certificate,
    law_chi2,
    rejection_sample_oracle,
    two_sample_chi_squared,
)

_WRITTEN = ("out", "table")  # the keys that name a file a command writes


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
        if key in _WRITTEN:  # a file a command writes; shared, the next would overwrite it
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
    suffix = "" if cfg.ratio is None else f"@ratio={cfg.ratio}"
    return make_density(cfg.density, grid, cfg.ratio), Path(cfg.density).name + suffix


# ---------------------------------------------------------------------------
# commands


def cmd_build(cfg: RunConfig) -> int:
    target, ident = _resolve_density(cfg, PeriodicGrid(cfg.grid, cfg.grid))
    tcfg = TransportConfig(steps=cfg.steps, grid=target.grid)
    t0 = time.perf_counter()
    result = build_transport_map(target, tcfg)
    elapsed = time.perf_counter() - t0
    fileio.write_map_oitm(cfg.out, result, ident)
    forward_chi2, inverse_chi2 = law_chi2(result.map, target)  # needs no sample, no bins
    print(f"density: {ident}")
    print(f"angle: {result.angle:.6f}")
    print(f"residual: {result.residual:.6e}")
    print(f"min_jacobian: {result.min_jacobian.min():.6f}")
    print(f"forward_law_chi2: {forward_chi2:.3e}")
    print(f"inverse_law_chi2: {'n/a' if inverse_chi2 is None else f'{inverse_chi2:.3e}'}")
    print(f"wall_time_s: {elapsed:.2f}")
    print(f"map: {cfg.out}")
    if result.residual_above_tol:  # the map is written and usable: a warning, not an exit code
        print(f"warning: residual {result.residual:.6e} above tolerance {tcfg.residual_tol:.6e}",
              file=sys.stderr)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
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
    mapping, meta = fileio.read_map_oitm(cfg.map)
    target, ident = _resolve_density(cfg, mapping.grid)
    mass = expected_bin_mass(target, cfg.bins, cfg.bins)  # checks --bins before sampling

    batch = sample_target(mapping, cfg.n, cfg.seed, workers=cfg.workers)
    hist = histogram(batch, cfg.bins, cfg.bins)
    gof_stat, gof_dof, gof_p = chi_squared_gof(hist, mass)

    oracle = rejection_sample_oracle(target, cfg.n, cfg.seed)  # a cross-check; decides nothing
    oracle_hist = histogram(oracle, cfg.bins, cfg.bins)
    ts_stat, ts_dof, ts_p = two_sample_chi_squared(hist, oracle_hist)

    # the sample-free certificate of the stored inverse's law, when it is one
    inverse_mass = inverse_law_mass(mapping, cfg.bins, cfg.bins)
    inverse_tv = inverse_n50 = "n/a"
    if inverse_mass is not None:
        tv, n50 = law_certificate(inverse_mass, mass)
        inverse_tv, inverse_n50 = f"{tv:.6e}", f"{n50:.3e}"

    passed = gof_p > SIGNIFICANCE  # the verdict: the GOF test alone
    report_lines = [
        f"map: {cfg.map}",
        f"density: {ident}",
        f"samples: {cfg.n}",
        f"seed: {cfg.seed}",
        f"bins: {cfg.bins}x{cfg.bins}",
        f"map_residual: {meta.residual:.6e}",
        f"inverse_law_tv: {inverse_tv}",
        f"inverse_law_n50: {inverse_n50}",
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
    if cfg.map:  # exactly one of map, density, samples is set
        mapping, _meta = fileio.read_map_oitm(cfg.map)
        fileio.write_warp_mesh_csv(cfg.out, mapping)
        print(f"mesh: {cfg.out}")
    elif cfg.density:
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


# command -> (function, help, the RunConfig keys it reads, which are its flags, the
# inputs it needs: each a key that must be set, or a tuple of which exactly one is)
_COMMANDS = {
    "build": (cmd_build, "construct a transport map and save it as OITM",
              ("density", "ratio", "grid", "steps", "out"), ("density", "out")),
    "sample": (cmd_sample, "draw samples through a prebuilt map",
               ("map", "n", "seed", "format", "workers", "out"), ("map", "out")),
    "validate": (cmd_validate, "chi-squared checks of map samples against the target",
                 ("map", "density", "ratio", "n", "seed", "bins", "workers", "out",
                  "table"), ("map", "density")),
    "export": (cmd_export, "figure-ready artifacts: heatmap PGM, warp-mesh CSV, scatter CSV",
               ("map", "density", "ratio", "grid", "samples", "n", "out"),
               ("out", ("map", "density", "samples"))),
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
    for name, (_, doc, keys, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config",
                         help=f"key=value file, any key but {', '.join(_WRITTEN)}; flags win")
        for key in keys:
            default = getattr(defaults, key)
            tail = "" if default is None else f" (default {default})"
            sub.add_argument(f"--{key}", type=_KEY_TYPES[key], help=_HELP[key] + tail)
    return parser


def _check_needs(command: str, cfg: RunConfig) -> None:
    """Refuse a run that lacks an input its command needs, before any file is read."""
    for need in _COMMANDS[command][3]:
        if isinstance(need, str) and not getattr(cfg, need):
            raise UsageError(f"{command} requires --{need}")
        if isinstance(need, tuple) and sum(bool(getattr(cfg, k)) for k in need) != 1:
            raise UsageError(f"{command} needs exactly one of {', '.join('--' + k for k in need)}")


def _check_paths(cfg: RunConfig, keys: tuple[str, ...], config: str | None) -> None:
    """Refuse a run whose output names another file of the run: the report
    and the table would overwrite each other, and an output would replace
    an input (the config file, map, sample CSV or density field) before or
    while the command reads it.  Only the keys the command reads count."""
    written = [(k, getattr(cfg, k)) for k in _WRITTEN if getattr(cfg, k)]
    read = [("config", config)] + [(k, getattr(cfg, k)) for k in ("map", "samples", "density")
                                    if k in keys]
    read = [(k, p) for k, p in read if p and (k != "density" or names_field_file(p))]
    for i, (key, path) in enumerate(written):
        for other, other_path in written[i + 1:] + read:
            if fileio.same_file(path, other_path):
                raise UsageError(f"--{key} and --{other} name the same file")


def _report_stream(*files: str | None):
    """Where a command prints its report: stderr when one of the files it
    writes is this process's stdout (``--out /dev/stdout``, or an output
    path the shell has redirected stdout to), so that the report never
    mixes into an output; stdout otherwise."""
    return sys.stderr if any(fileio.same_file(p, 1) for p in files if p) else sys.stdout


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        _check_needs(args.command, cfg)
        _check_paths(cfg, _COMMANDS[args.command][2], args.config)
        with redirect_stdout(_report_stream(*(getattr(cfg, k) for k in _WRITTEN))):
            return _COMMANDS[args.command][0](cfg)
    except (UsageError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OrientationLossError, NumericalBlowupError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
