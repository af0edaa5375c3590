#!/usr/bin/env python3
"""Collect a BENCH file from the benchmark harness as it stands.

    python3 tools/bench_collect.py --tree parent=../pucl-parent --tree change=. \\
        --seeds 3101,3102,3103 --out BENCH_1.json

For every workload and seed this runs each tree's ``perfbench/run.py
--trace 0`` once, the trees in turn, with the first tree swapped from seed
to seed so that neither side always runs first; then, in the same order,
one ``--trace 1`` run per workload and tree at each of the first
``TRACED_SEEDS`` seeds. The workloads and the run length are
BENCHMARK.json's (``workloads``, ``run_seconds``). It reads each
invocation's JSON result (its last line of standard output) and the
harness's ``env`` record, then removes the invocation's work directory,
which holds every run's outputs (several GB over a collection). It writes
per tree and workload the median and quartiles of every end-to-end metric
over the seeds, and each per-layer metric as the median of the traced
invocations, with their values. With two or more trees it also compares
the last tree with the first seed by seed: how many pairs it wins on each
end-to-end metric (ties count for neither), and whether the medians differ
by more than the first tree's quartile spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

#: Traced metrics that no longer measure what their names say (ROADMAP item 4).
STALE = {
    "voters.corpus_passes": "counts voters trained, 5; the voters score the corpus in one pass",
    "risk.pn_kept_ratio": "reads 1: the voters pass pn_risk only the rows they keep",
    "corpus.encode_calls": "counts encode_corpus cache hits, not encodings",
}
MISSING = "the larger paper-bench variant that the north star names does not exist yet (ROADMAP item 4)"
#: Traced invocations per workload and tree: one traced run reads a per-layer
#: time up to a quarter off its own median.
TRACED_SEEDS = 3


def tree_record(path: Path) -> dict:
    """The commit a tree is checked out at, whether its sources differ from
    it, and a digest of the pucl sources measured."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for source in sorted((path / "src" / "pucl").glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    status = git("status", "--porcelain", "--", "src", "perfbench")
    return {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "pucl_sources_sha256": digest.hexdigest(),
    }


def run_harness(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` invocation: its JSON result and env record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    env = json.loads(saved.read_text(encoding="utf-8"))["env"]
    shutil.rmtree(tree / ".perfbench" / "work" / f"{workload}-seed{seed}", ignore_errors=True)
    print(f"{tree} {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"wall_s={result['metrics'].get('wall_s', {}).get('value')}", flush=True)
    return result, env


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles over the seeds of every end-to-end metric."""
    metrics = runs[0]["metrics"]
    return {name: {**spread([r["metrics"][name]["value"] for r in runs]), "unit": metrics[name]["unit"]}
            for name in metrics}


def median_result(results: list[dict]) -> dict:
    """One result from several invocations: every metric's median, with
    the values it is the median of."""
    units = {name: metric["unit"] for name, metric in results[0]["metrics"].items()}
    values = {name: [r["metrics"][name]["value"] for r in results] for name in units}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(v), "values": v, "unit": units[name]} for name, v in values.items()
        },
    }


def compare(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Pairwise wins of ``change`` over ``base`` by seed, and the medians
    against the base's quartile spread."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in zip(base, change)]
        wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
        losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
        b_stats, c_stats = spread([b for b, _ in pairs]), spread([c for _, c in pairs])
        gain = sign * (c_stats["median"] - b_stats["median"])
        out[name] = {
            "pairs": len(pairs), "wins": wins, "losses": losses,
            "median_change": c_stats["median"] - b_stats["median"],
            "base_iqr": b_stats["q3"] - b_stats["q1"],
            "gain": wins >= 0.9 * len(pairs) and gain > b_stats["q3"] - b_stats["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source tree to measure; repeat for a parent and a change")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)

    trees = [(label, Path(path).resolve()) for label, _, path in (t.partition("=") for t in args.tree)]
    seeds = [int(s) for s in args.seeds.split(",")]
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    runs = {label: {w: [] for w in workloads} for label, _ in trees}
    traced, envs = {label: {} for label, _ in trees}, {}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for label, path in trees[::-1] if i % 2 else trees:
                result, envs[label] = run_harness(path, workload, seed, seconds, 0)
                runs[label][workload].append({"seed": seed, **result})
        traced_runs = {label: [] for label, _ in trees}
        for i, seed in enumerate(seeds[:TRACED_SEEDS]):
            for label, path in trees[::-1] if i % 2 else trees:
                traced_runs[label].append(run_harness(path, workload, seed, seconds, 1)[0])
        for label, results in traced_runs.items():
            traced[label][workload] = {"seeds": seeds[:TRACED_SEEDS], **median_result(results)}

    bench = {
        "about": "perfbench/run.py results gathered by tools/bench_collect.py (see its docstring)",
        "seeds": seeds,
        "seconds": seconds,
        "stale": STALE,
        "missing": MISSING,
        "trees": {
            label: {
                **tree_record(path),
                "env": envs[label],
                "workloads": {
                    w: {
                        "end_to_end": summarise(runs[label][w]),
                        "per_layer": traced[label][w],
                        "runs": runs[label][w],
                    }
                    for w in workloads
                },
            }
            for label, path in trees
        },
    }
    if len(trees) > 1:
        (base, _), (change, _) = trees[0], trees[-1]
        bench["comparison"] = {
            "base": base, "change": change,
            "workloads": {w: compare(runs[base][w], runs[change][w], better) for w in workloads},
        }
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
