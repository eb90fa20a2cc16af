"""The three workloads, their commands and the checks on every output.

Each op is a fixed list of CLI commands run in-process through
``oitsample.cli.main``; the op's wall time covers the commands only, and
the output checks run after it.  An op fails if a command raises, exits
with a code the command does not allow (1 or 2 for every command; 3 is a
completed ``validate`` that rejected), or an output check fails.
"""

from __future__ import annotations

import filecmp
import hashlib
import io
import math
import struct
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

class BenchError(Exception):
    """The benchmark cannot run at all (missing program, too few cores)."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the README's commands."""

    density: str = "two-bump"
    grid: int = 256
    steps: int = 100
    sample_n: int = 10_000_000
    csv_n: int = 1_000_000
    validate_n: int = 100_000
    bins: int = 32
    scatter_n: int = 5000


@dataclass
class Command:
    label: str
    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class Op:
    seed: int
    seconds: float
    commands: dict[str, Command]
    failures: list[str]
    values: dict = field(default_factory=dict)
    root_span: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def op_seed(workload_seed: int, index: int) -> int:
    """Per-op seed derived from the workload seed (a 32-bit hash)."""
    digest = hashlib.blake2b(f"{workload_seed}:{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little")


def run_cli(cli, label: str, argv: list[str], tracer=None) -> Command:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            with tracer.span("cli." + argv[0]) if tracer else nullcontext():
                rc = cli.main(argv)
        except Exception:  # the op fails; the loop goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Command(label, rc, seconds, out.getvalue(), err.getvalue(), error)


def run_op(workload: "Workload", seed: int, tracer=None) -> Op:
    """Run one op's commands (timed), then check their outputs (untimed).

    Outputs of earlier ops are deleted first, so a command that writes
    nothing cannot pass its check on a stale file, and no command pays for
    truncating a large file.
    """
    commands = workload.commands(seed)
    for _label, argv in commands:
        Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
    results: dict[str, Command] = {}
    with tracer.span("op") if tracer else nullcontext():
        start = time.perf_counter()
        for label, argv in commands:
            results[label] = run_cli(workload.program.cli, label, argv, tracer)
        seconds = time.perf_counter() - start
    root = tracer.spans[-1].id if tracer else None
    failures = []
    for cmd in results.values():
        if cmd.error is not None:
            failures.append(f"{cmd.label}: raised {cmd.error}")
        elif cmd.rc not in workload.allowed_exits(cmd.label):
            failures.append(f"{cmd.label}: exit {cmd.rc}: {cmd.stderr.strip()[:200]}")
    values: dict = {}
    if not failures:
        try:
            failures += workload.check(seed, results, values)
        except Exception:  # a malformed output is a failed check
            failures.append("check raised " + traceback.format_exc())
    return Op(seed, seconds, results, failures, values, root)


def _stdout_value(text: str, key: str) -> str:
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep and name.strip() == key:
            return value.strip()
    raise ValueError(f"no '{key}:' line in output")


def _line_count(path: Path) -> int:
    count = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            count += chunk.count(b"\n")
    return count


class Workload:
    name = ""
    workers: tuple[int, ...] = (1,)  # --workers values the commands use

    def __init__(self, program, workdir: Path, sizes: Sizes = Sizes(), nproc: int = 1) -> None:
        if max(self.workers) > nproc:
            raise BenchError(f"--workers {max(self.workers)} exceeds nproc {nproc}")
        self.program = program
        self.workdir = Path(workdir)
        self.sizes = sizes
        self.map_path = self.workdir / "standard.oitm"
        self.map_residual: float | None = None

    def build_argv(self, out: Path) -> list[str]:
        g = str(self.sizes.grid)
        return ["build", "--density", self.sizes.density, "--grid", g,
                "--steps", str(self.sizes.steps), "--out", str(out)]

    def setup(self) -> None:
        """Build the standard map through the CLI and check it."""
        cmd = run_cli(self.program.cli, "setup_build", self.build_argv(self.map_path))
        if cmd.error is not None or cmd.rc != 0:
            raise BenchError(f"set-up build failed: {cmd.error or cmd.stderr.strip()}")
        values: dict = {}
        failures = self.check_build(cmd, self.map_path, values)
        if failures:
            raise BenchError("set-up build: " + "; ".join(failures))
        self.map_residual = values["residual"]

    def check_build(self, cmd: Command, out: Path, values: dict) -> list[str]:
        """Residual finite and within the build's tolerance; the map reads back."""
        failures = []
        tol = self.program.transport.TransportConfig.__dataclass_fields__["residual_tol"].default
        printed = float(_stdout_value(cmd.stdout, "residual"))
        if not (math.isfinite(printed) and printed <= tol):
            failures.append(f"residual {printed!r} not finite or above {tol}")
        mapping, meta = self.program.fileio.read_map_oitm(out)
        if mapping.grid.shape != (self.sizes.grid, self.sizes.grid) or meta.steps != self.sizes.steps:
            failures.append(f"map read back as {mapping.grid.shape}/{meta.steps} steps")
        if not math.isclose(meta.residual, printed, rel_tol=1e-6):
            failures.append(f"stored residual {meta.residual!r} != printed {printed!r}")
        values["residual"] = meta.residual
        return failures

    def allowed_exits(self, label: str) -> tuple[int, ...]:
        return (0,)

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, seed: int, results: dict[str, Command], values: dict) -> list[str]:
        raise NotImplementedError


class BuildWorkload(Workload):
    """Repeated standard-map builds: the transport loop (grid stencils, gathers, FFT solves)."""

    name = "build"

    def setup(self) -> None:
        """Only the density; every op builds its own map."""
        p = self.program
        grid = p.grid.PeriodicGrid(self.sizes.grid, self.sizes.grid)
        p.densities.make_density(self.sizes.density, grid)

    def commands(self, seed):
        return [("build", self.build_argv(self.workdir / "build.oitm"))]

    def check(self, seed, results, values):
        return self.check_build(results["build"], self.workdir / "build.oitm", values)


class SampleWorkload(Workload):
    """The amortised path: 1e7 samples from a prebuilt map to OITF, workers 1 and 2."""

    name = "sample"
    workers = (1, 2)

    def _out(self, workers: int) -> Path:
        return self.workdir / f"samples_w{workers}.oitf"

    def commands(self, seed):
        return [(f"sample_w{w}",
                 ["sample", "--map", str(self.map_path), "--n", str(self.sizes.sample_n),
                  "--format", "oitf", "--workers", str(w), "--seed", str(seed),
                  "--out", str(self._out(w))])
                for w in self.workers]

    def check(self, seed, results, values):
        failures = []
        for w in self.workers:
            failures += self._check_oitf(self._out(w))
        first, *rest = (self._out(w) for w in self.workers)
        for other in rest:
            if not filecmp.cmp(first, other, shallow=False):
                failures.append(f"{other.name} differs from {first.name} for the same seed")
        return failures

    def _check_oitf(self, path: Path) -> list[str]:
        import numpy as np

        n = self.sizes.sample_n
        header = b"OITF1\n" + struct.pack("<IIB", n, 1, 2)
        with open(path, "rb") as fh:
            if fh.read(len(header)) != header:
                return [f"{path.name}: header is not a {n}-point OITF batch"]
        if path.stat().st_size != len(header) + 16 * n:
            return [f"{path.name}: size {path.stat().st_size} is not {len(header) + 16 * n}"]
        coords = np.memmap(path, dtype="<f8", mode="r", offset=len(header), shape=(2 * n,))
        step = 1 << 20
        for s in range(0, 2 * n, step):
            block = coords[s:s + step]
            if not (np.all(block >= -np.pi) and np.all(block < np.pi)):
                return [f"{path.name}: a coordinate lies outside [-pi, pi)"]
        return []


class ReadmeWorkload(Workload):
    """README steps 2-4 on a prebuilt map: CSV write/parse, validate and exports."""

    name = "readme"

    def _paths(self):
        d = self.workdir
        return d / "pts.csv", d / "report.txt", d / "density.pgm", d / "mesh.csv", d / "scatter.csv"

    def allowed_exits(self, label):
        return (0, 3) if label == "validate" else (0,)

    def commands(self, seed):
        pts, report, pgm, mesh, scatter = (str(p) for p in self._paths())
        s = self.sizes
        m = str(self.map_path)
        return [
            ("sample_csv", ["sample", "--map", m, "--n", str(s.csv_n), "--seed", str(seed),
                            "--out", pts]),
            ("validate", ["validate", "--map", m, "--density", s.density,
                          "--n", str(s.validate_n), "--seed", str(seed),
                          "--bins", str(s.bins), "--out", report]),
            ("export_heatmap", ["export", "--density", s.density, "--grid", str(s.grid),
                                "--out", pgm]),
            ("export_mesh", ["export", "--map", m, "--out", mesh]),
            ("export_scatter", ["export", "--samples", pts, "--n", str(s.scatter_n),
                                "--out", scatter]),
        ]

    def check(self, seed, results, values):
        pts, report, pgm, mesh, scatter = self._paths()
        s = self.sizes
        failures = []

        with open(pts, "rb") as fh:
            head = [fh.readline() for _ in range(s.scatter_n + 1)]
        if head[0] != b"x,y\n":
            failures.append(f"sample CSV header is {head[0]!r}")
        if _line_count(pts) != s.csv_n + 1:
            failures.append(f"sample CSV does not hold {s.csv_n} rows")
        if scatter.read_bytes() != b"".join(head):
            failures.append(f"scatter CSV is not the first {s.scatter_n} sample rows")

        failures += self._check_report(report, results["validate"], values)

        pgm_header = f"P5\n{s.grid} {s.grid}\n255\n".encode()
        data = pgm.read_bytes()
        if not data.startswith(pgm_header) or len(data) != len(pgm_header) + s.grid * s.grid:
            failures.append("heatmap is not a binary PGM of the grid's size")

        rows = 2 * (s.grid // 4) * (s.grid + 1)
        with open(mesh) as fh:
            mesh_header = fh.readline()
        if mesh_header != "direction,line_index,vertex_index,x,y\n":
            failures.append(f"mesh header is {mesh_header!r}")
        if _line_count(mesh) != rows + 1:
            failures.append(f"mesh does not hold {rows} rows")
        return failures

    def _check_report(self, path: Path, cmd: Command, values: dict) -> list[str]:
        text = path.read_text()
        report = {}
        for line in text.splitlines():
            key, _, value = line.partition(": ")
            report[key] = value
        failures = []
        for key in ("gof_p_value", "two_sample_p_value"):
            p = float(report[key])
            if not 0.0 <= p <= 1.0:
                failures.append(f"validate {key} {p!r} outside [0, 1]")
        if int(report["samples"]) != self.sizes.validate_n:
            failures.append(f"validate report counts {report['samples']} samples")
        verdict = report["result"]
        if (verdict, cmd.rc) not in (("pass", 0), ("fail", 3)):
            failures.append(f"validate verdict {verdict!r} with exit {cmd.rc}")
        if cmd.stdout != text:
            failures.append("validate report file differs from its printed report")
        values["rejected"] = verdict == "fail"
        return failures


WORKLOADS = {w.name: w for w in (BuildWorkload, SampleWorkload, ReadmeWorkload)}
