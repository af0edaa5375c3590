#!/usr/bin/env python3
"""pucl benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload paper-bench --seed 42 --seconds 30 --trace 0

Set-up generates the workload's inputs from ``--seed`` several times and
reports the median as ``setup_s``; for ``annotate-apply`` it also trains the
checkpoint. The measured commands then run again and again, each time as
fresh processes of the pucl CLI with one thread, until ``--seconds`` have
passed. Every run's outputs are checked: exit codes, the report, strict F1
and artifact bytes against the first run of the same sources and seed.

With ``--trace 0`` the end-to-end times are those of the fastest run. With
``--trace 1`` untraced and traced runs alternate. The traced ones run the
CLI under ``spans.py`` and give the per-layer metrics; the difference
between the fastest of each kind is the tracing overhead.

Human-readable lines come first; the last line of standard output is the
JSON result. Files go under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import inputs as inputs_mod  # noqa: E402
import spans as spans_mod  # noqa: E402

SETUP_REPEATS = 3  # at least this many set-ups ...
SETUP_MIN_S = 2.0  # ... and more, up to SETUP_MAX_REPEATS, until this much time has passed
SETUP_MAX_REPEATS = 15
MIN_RUNS = 2  # measured runs, however short --seconds is
MAX_PARALLEL = 2  # measured runs at a time, one per core
TIME_LIMIT_S = 170.0  # the whole invocation must end well within 180 s
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "strict_f1": "ratio",
    "setup_s": "s",
    "success_ratio": "ratio",
}
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)  # this checkout's sources and nothing else
    # Every run imports pucl from cached bytecode, whatever the caller's
    # environment says; import_pucl writes the cache before the first run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Process:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv: list[str], log: Path, timeout: float, cpu: int | None = None) -> Process:
    """Run one child to completion, pinned to ``cpu`` if given, and return
    its own resource usage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:  # already gone; wait4 reports how
                pass
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def pucl_argv(cli_args: list[str]) -> list[str]:
    return [sys.executable, "-m", "pucl", *cli_args]


def traced_argv(cli_args: list[str], spans_path: Path, run: int) -> list[str]:
    return [sys.executable, str(HERE / "spans.py"), "--out", str(spans_path),
            "--run", str(run), "--", *cli_args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """Identifies the code under test: pucl's sources and this benchmark."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(sha256(path).encode())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "pucl_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_before": list(os.getloadavg()),
    }


# --- set-up ----------------------------------------------------------------------


def import_pucl() -> None:
    if not (SRC / "pucl" / "__init__.py").is_file():
        raise SetupError(f"pucl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    import pucl.cli  # every pucl module, so that all their bytecode is cached

    if Path(pucl.__file__).resolve().parent != (SRC / "pucl").resolve():
        raise SetupError(f"imported pucl from {pucl.__file__}, not from {SRC}")


def train_checkpoint(generated: inputs_mod.Inputs) -> None:
    """annotate-apply's model: `full` mode on the paper-bench splits of the
    same generator pass."""
    train_dir = generated.dir / "checkpoint-run"
    log = generated.dir / "checkpoint.log"
    argv = pucl_argv(inputs_mod.pipeline_args(generated, "full", train_dir))
    proc = run_process(argv, log, TIME_LIMIT_S)
    if proc.exit_code != 0:
        raise SetupError(f"checkpoint training exited with {proc.exit_code}; see {log}")
    shutil.copyfile(train_dir / "model.bin", generated.dir / "model.bin")
    shutil.rmtree(train_dir)


def setup(workload, seed, work: Path) -> tuple[inputs_mod.Inputs, list[float], list[str]]:
    """Generate the inputs several times; every generation must give the
    same bytes. Returns the last inputs, the set-up times and the problems
    found. annotate-apply then trains its checkpoint once; that training
    time is part of every set-up time, since repeating a training run
    several times would not fit the time one invocation may take."""
    times, problems, first = [], [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        i = len(times)
        start = time.perf_counter()
        generated = inputs_mod.generate(workload, seed, work / f"setup{i}")
        times.append(time.perf_counter() - start)
        # config.json holds its own directory's name
        digests = {p.name: sha256(p) for p in generated.dir.iterdir() if p.name != "config.json"}
        if first is None:
            first = digests
        elif digests != first:
            problems.append(f"set-up {i} produced different inputs than set-up 0")
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    if workload.mode is None:
        start = time.perf_counter()
        train_checkpoint(generated)
        train_s = time.perf_counter() - start
        times = [t + train_s for t in times]
    return generated, times, problems


# --- measured runs ------------------------------------------------------------------


@dataclass
class Run:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    strict_f1: float | None = None
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def measure(workload, generated: inputs_mod.Inputs, run_dir: Path, traced: bool,
            run_id: int, deadline: float, cpu: int) -> Run:
    run_dir.mkdir(parents=True)
    logs = run_dir.parent / f"{run_dir.name}-logs"
    logs.mkdir(exist_ok=True)
    run = Run(traced)
    span_files = []
    for i, cli_args in enumerate(inputs_mod.commands(workload, generated, run_dir)):
        if traced:
            span_files.append(logs / f"spans{i}.json")
            argv = traced_argv(cli_args, span_files[-1], run_id)
        else:
            argv = pucl_argv(cli_args)
        proc = run_process(argv, logs / f"cmd{i}.log", deadline - time.perf_counter(), cpu)
        run.wall_s += proc.wall_s
        run.cpu_s += proc.cpu_s
        run.peak_rss_mb = max(run.peak_rss_mb, proc.peak_rss_mb)
        run.exit_codes.append(proc.exit_code)
        if proc.exit_code != 0:
            run.problems.append(f"`pucl {cli_args[0]}` exited with {proc.exit_code}; see {logs}")
            return run
    try:
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        run.strict_f1 = float(report["strict"]["f1"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"report.json unreadable: {exc!r}")
    for path in inputs_mod.deterministic_artifacts(workload, run_dir):
        run.digests[path.name] = sha256(path) if path.exists() else "missing"
    run.artifact_bytes = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
    if traced:
        traces = [json.loads(p.read_text(encoding="utf-8")) for p in span_files]
        run.layers = spans_mod.layer_metrics(traces, generated.train_tokens)
        run.layers["pipeline.artifact_bytes"] = run.artifact_bytes
        run.layers["trace.coverage"] = run.layers["trace.top_level_s"] / run.wall_s
    return run


def reference_for(workload, seed: int, first: Run) -> tuple[dict, dict[str, float]]:
    """The first run that got through for these sources, workload and seed,
    and the strict F1 that other source trees gave at this seed, by source
    digest. Every source tree's first run is stored, so later invocations
    compare against it too."""
    path = STATE / "refs" / f"{workload.name}-seed{seed}.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    digest = source_digest()
    if digest not in refs:
        refs[digest] = {"strict_f1": first.strict_f1, "digests": first.digests}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    others = {d[:12]: ref["strict_f1"] for d, ref in refs.items() if d != digest}
    return refs[digest], others


def check(run: Run, ref: dict) -> None:
    if run.problems:
        return
    if run.strict_f1 != ref["strict_f1"]:
        run.problems.append(f"strict_f1 {run.strict_f1!r} != first run's {ref['strict_f1']!r}")
    for name in sorted(set(ref["digests"]) | set(run.digests)):
        if run.digests.get(name) != ref["digests"].get(name):
            run.problems.append(f"{name} differs from the first run's bytes")


# --- metrics ----------------------------------------------------------------------------


def passing(runs: list[Run]) -> list[Run]:
    """The runs that passed every check; all of them if none did, so that
    a failed invocation still reports numbers. A run that stopped early
    must not become the fastest run."""
    return [r for r in runs if not r.problems] or runs


def end_to_end(runs: list[Run], setup_times: list[float], generated, failed: int) -> dict[str, float]:
    """Times are those of the fastest passing run: CPU speed on a shared
    host swings for seconds at a time, and only ever slows a run down.
    Medians are printed and stored beside them."""
    ok = passing(runs)
    wall = min(r.wall_s for r in ok)
    return {
        "wall_s": wall,
        "cpu_s": min(r.cpu_s for r in ok),
        "tokens_per_s": generated.tokens / wall,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "strict_f1": next((r.strict_f1 for r in ok if r.strict_f1 is not None), 0.0),
        "setup_s": statistics.median(setup_times),
        "success_ratio": 1.0 - failed / len(runs),
    }


def per_layer(runs: list[Run]) -> dict[str, float]:
    traced = [r for r in passing([r for r in runs if r.traced]) if r.layers]
    plain = passing([r for r in runs if not r.traced])
    if not traced:
        return dict.fromkeys(spans_mod.PER_LAYER_UNITS, 0.0)
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in spans_mod.PER_LAYER_UNITS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = min(r.wall_s for r in traced) - min(r.wall_s for r in plain)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + TIME_LIMIT_S
    workload = inputs_mod.WORKLOADS[args.workload]
    os.environ.update(THREAD_ENV)
    try:
        import_pucl()
        env = environment()
        work = STATE / "work" / f"{workload.name}-seed{args.seed}"
        if work.exists():
            shutil.rmtree(work)
        generated, setup_times, setup_problems = setup(workload, args.seed, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # One run per core at a time, each pinned to its core: the cores' speeds
    # wander independently on a shared host, so this doubles the samples
    # without lengthening the measurement.
    cpus = sorted(os.sched_getaffinity(0))[:MAX_PARALLEL]
    runs: list[Run] = []
    measuring = time.perf_counter()
    with ThreadPoolExecutor(len(cpus)) as pool:
        while True:
            futures = []
            for k, cpu in enumerate(cpus):
                n = len(runs) + k
                # traced runs alternate between the cores from batch to batch
                traced = bool(args.trace) and (n // len(cpus) + k) % 2 == 1
                futures.append(pool.submit(
                    measure, workload, generated, work / f"run{n}", traced, n, deadline, cpu
                ))
            runs.extend(f.result() for f in futures)
            now = time.perf_counter()
            longest = max(r.wall_s for r in runs)
            enough = now - measuring >= args.seconds and len(runs) >= MIN_RUNS
            if enough or now + 1.5 * longest > deadline:
                break

    first_ok = next((r for r in runs if not r.problems), None)
    ref, f1_elsewhere = reference_for(workload, args.seed, first_ok) if first_ok else (None, {})
    if ref is not None:
        for r in runs:
            check(r, ref)
    f1_changed = {d: f1 for d, f1 in f1_elsewhere.items() if f1 != ref["strict_f1"]}
    if setup_problems:
        runs[0].problems.extend(setup_problems)
    failed = sum(1 for r in runs if r.problems)

    if args.trace:
        metrics, units = per_layer(runs), spans_mod.PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(runs, setup_times, generated, failed), END_TO_END_UNITS
    env["loadavg_after"] = list(os.getloadavg())

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)} ({sum(r.traced for r in runs)} traced)  "
          f"setups {len(setup_times)}  input tokens {generated.tokens}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for i, r in enumerate(runs):
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(f"run {i}{' traced' if r.traced else ''}: wall {r.wall_s:.3f} s  "
              f"cpu {r.cpu_s:.3f} s  rss {r.peak_rss_mb:.1f} MB  {status}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':<26} {failed / len(runs):>16.6f} ratio  ({failed} of {len(runs)} runs failed)")
    if not args.trace:
        ok = passing(runs)
        print(f"  wall_s and cpu_s are the fastest of {len(ok)} passing runs; medians "
              f"{statistics.median(r.wall_s for r in ok):.6f} s and "
              f"{statistics.median(r.cpu_s for r in ok):.6f} s")
    for digest, f1 in sorted(f1_changed.items()):
        print(f"  strict_f1 CHANGED at this seed: {f1!r} with sources {digest}, "
              f"{ref['strict_f1']!r} with these")

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            **result,
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "env": env, "setup_s": setup_times,
            "strict_f1_elsewhere": f1_elsewhere, "strict_f1_changed": bool(f1_changed),
            "runs": [r.__dict__ for r in runs],
        }, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
