"""Benchmark of the oitsample CLI: one closed-loop client, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload build|sample|readme --seed N \\
        --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout the script sits in.
After the set-up and one warm-up op (excluded from timings), ops run one
after another for ``--seconds``; every op's output is checked.  With
``--trace 1`` every op runs twice with the same seed, untraced and then
traced, and one traced op is repeated at the end to check that the exact
counts repeat.  A report is printed, and saved with the environment under
``perfbench/out/``; the last line of standard output is the JSON result.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import report
from spans import Tracer, self_time_gap_ns, self_times
from workloads import WORKLOADS, BenchError, Op, Workload, op_seed, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 2
MODULES = ("cli", "densities", "fileio", "grid", "sampler", "transport", "validate")


def load_program(root: Path):
    """Import oitsample from ``root/src``; returns (modules, import seconds)."""
    src = root / "src"
    if not (src / "oitsample" / "cli.py").is_file():
        raise BenchError(f"no program sources at {src / 'oitsample'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    mods = {m: importlib.import_module(f"oitsample.{m}") for m in MODULES}
    import_s = time.perf_counter() - start
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise BenchError(f"oitsample imported from {where}, not from {src}")
    return SimpleNamespace(**mods), import_s


def environment(root: Path) -> dict:
    """Hardware and software the numbers were measured on (read-only probes)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = size
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    numpy = importlib.import_module("numpy")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches_per_core": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit}


@dataclass
class Measured:
    warmup: list[Op]
    timed: list[Op]
    traced: list[Op] = field(default_factory=list)
    repeat: Op | None = None
    tracer: Tracer | None = None

    @property
    def ops(self) -> list[Op]:
        return self.warmup + self.timed + self.traced + ([self.repeat] if self.repeat else [])


def measure(wl: Workload, seed: int, seconds: float, trace: bool = False) -> Measured:
    """Warm-up op, then ops back to back for ``seconds`` (closed loop)."""
    got = Measured(warmup=[run_op(wl, op_seed(seed, 0))], timed=[])
    if trace:
        got.tracer = Tracer()
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds:
        s = op_seed(seed, index)
        got.timed.append(run_op(wl, s))
        if trace:
            with got.tracer.installed(wl.program):
                got.traced.append(run_op(wl, s, got.tracer))
        index += 1
    if trace:
        with got.tracer.installed(wl.program):
            got.repeat = run_op(wl, op_seed(seed, 1), got.tracer)
    return got


def end_to_end(wl: Workload, got: Measured, setup_s: float) -> dict:
    """Every end-to-end number this workload has: a summary of the timed
    ops' values, or a single value."""
    ok = [op for op in got.timed if op.ok]
    out = {"setup_s": setup_s, "op_s": report.summarize([op.seconds for op in ok])}
    for metric in report.DETAIL_BY_WORKLOAD[wl.name]:
        if metric in report.COMMAND_TIMES:
            label = report.COMMAND_TIMES[metric]
            out[metric] = report.summarize([op.commands[label].seconds for op in ok])
        elif metric in report.COMMAND_RATES:
            label = report.COMMAND_RATES[metric]
            out[metric] = report.summarize(
                [wl.sizes.sample_n / op.commands[label].seconds for op in ok])
        elif metric == "readme_cycle_s":
            out[metric] = out["op_s"]
    residuals = [op.values["residual"] for op in got.ops if "residual" in op.values]
    residual = wl.map_residual if wl.map_residual is not None else (
        statistics.median(residuals) if residuals else None)
    out["map_residual"] = residual
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = got.ops
    out["fail_ratio"] = sum(not op.ok for op in ops) / len(ops)
    verdicts = [op.values["rejected"] for op in ops if "rejected" in op.values]
    if verdicts:
        out["validate.reject_ratio"] = sum(verdicts) / len(verdicts)
    return out


def value(metric) -> float | None:
    return metric["median"] if isinstance(metric, dict) else metric


def per_layer(got: Measured) -> tuple[dict, list[str]]:
    """Median per-layer numbers over traced ops, and failed trace invariants."""
    spans = got.tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    problems = []
    per_op = []
    for op in got.traced + [got.repeat]:
        root = by_id[op.root_span]
        gap = self_time_gap_ns(spans, root, own)
        if gap:
            problems.append(f"self times under op span {root.id} miss its duration by {gap} ns")
        per_op.append(report.op_layer_metrics(spans, root, own))
    first, repeat = per_op[0], per_op[-1]
    for name in report.EXACT_COUNTS:
        if first[name] != repeat[name]:
            problems.append(f"exact count {name} was {first[name]}, then {repeat[name]}")
    traced = [m for m, op in zip(per_op, got.traced) if op.ok]
    metrics = {name: statistics.median(m[name] for m in traced) if traced else 0.0
               for name in per_op[0]}
    pairs = [(t.seconds - u.seconds) for u, t in zip(got.timed, got.traced) if u.ok and t.ok]
    metrics["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    return metrics, problems


def write_artifacts(name: str, record: dict, tracer: Tracer | None) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        with open(results / f"{name}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    return path


def _line(name: str, unit: str, better: str, metric) -> str:
    if not isinstance(metric, dict):
        return f"{name} = {metric!r} {unit} ({better} is better)"
    tail = metric["tail"]
    tail_text = (f"p{tail['p']}={tail['value']!r}" if tail
                 else "no percentile has >=10 samples beyond it")
    return (f"{name} = {metric['median']!r} {unit} ({better} is better; median of "
            f"n={metric['n']}; {tail_text})")


def run(args) -> int:
    program, import_s = load_program(ROOT)
    env = environment(ROOT)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](program, work, nproc=env["nproc"])
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        got = measure(wl, args.seed, args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = got.ops
    failed = sum(not op.ok for op in ops)
    e2e = end_to_end(wl, got, setup_s)
    problems = []
    layers = {}
    if args.trace:
        layers, problems = per_layer(got)
        layers["validate.reject_ratio"] = e2e.get("validate.reject_ratio", 0.0)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env))
    print(f"ops: attempted={len(ops)} failed={failed} timed={len(got.timed)} "
          f"traced={len(got.traced)} warm-up ops excluded from timings={len(got.warmup)}")
    print(f"setup_s: imports {import_s!r} s + median of set-ups "
          + ", ".join(repr(t) for t in setups) + " s")
    for name, metric in e2e.items():
        unit, better, _ = {**report.END_TO_END, **report.DETAIL}[name]
        if value(metric) is not None:
            print("metric " + _line(name, unit, better, metric))
    for name, layer_value in layers.items():
        unit, better, _ = report.PER_LAYER[name]
        print(f"layer {name} = {layer_value!r} {unit} ({better} is better)")
    for op in ops:
        for failure in op.failures:
            print(f"failure (op seed {op.seed}): {failure}")
    for problem in problems:
        print(f"trace invariant failed: {problem}")

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "import_s": import_s, "setups_s": setups,
              "warmup_ops_excluded": len(got.warmup), "end_to_end": e2e,
              "per_layer": layers, "trace_problems": problems,
              "ops": [{"seed": op.seed, "seconds": op.seconds, "ok": op.ok,
                       "failures": op.failures, "values": op.values,
                       "commands": {k: {"rc": c.rc, "seconds": c.seconds}
                                    for k, c in op.commands.items()}} for op in ops]}
    saved = write_artifacts(f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
                            record, got.tracer)
    print(f"saved: {saved.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": report.PER_LAYER[name][0]}
                   for name in report.PER_LAYER}
    else:
        metrics = {name: {"value": value(e2e[name]), "unit": report.END_TO_END[name][0]}
                   for name in report.END_TO_END if value(e2e[name]) is not None}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for message in ("step displacement exceeded", "pushforward residual"):
        warnings.filterwarnings("ignore", message=message, category=RuntimeWarning)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
