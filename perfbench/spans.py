"""Span tracing of pucl's public functions, from outside the package.

Run as a script this is a drop-in for ``python -m pucl``: it wraps the
public functions listed in ``TARGETS`` (and every module-level name that
rebinds them, such as ``pucl.pipeline.train_voters``), runs the CLI, and
writes the recorded spans to a JSON file when the CLI returns::

    python3 perfbench/spans.py --out spans.json --run 1 -- pipeline --config c.json

A span is (name, parent, start, end, count); spans live in memory until the
run ends. ``layer_metrics`` turns one or more span files into the per-layer
metrics of the benchmark. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter_ns()  # before numpy and pucl are imported

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable  # noqa: E402


def _rows(args: tuple, result: Any) -> int:
    return int(args[1].shape[0])


def _kept_rows(args: tuple, result: Any) -> int:
    grads = result[1]
    return int((grads != 0).any(axis=1).sum())


def _clamped(args: tuple, result: Any) -> int:
    return int(result[0].clamped_count)


def _bytes_written(args: tuple, result: Any) -> int:
    return int(args[1].tell())


# (module, attribute path, count recorded with the span). The span name is
# the module without its package prefix, a dot, and the attribute path.
TARGETS: tuple[tuple[str, str, Callable[[tuple, Any], int] | None], ...] = (
    ("pucl.corpus", "read_conll", None),
    ("pucl.corpus", "Vocab.encode_sentence", None),
    ("pucl.model", "TokenClassifier.encode_corpus", None),
    ("pucl.distant", "compile_dictionary", None),
    ("pucl.distant", "annotate", None),
    ("pucl.model", "TokenClassifier.forward_rows", _rows),
    ("pucl.model", "TokenClassifier.backward_rows", None),
    ("pucl.model", "adam_step", None),
    ("pucl.model", "save_checkpoint", _bytes_written),
    ("pucl.model", "load_checkpoint", None),
    ("pucl.model", "predict", None),
    ("pucl.risk", "pn_risk", _kept_rows),
    ("pucl.risk", "conf_mpu_risk", _clamped),
    ("pucl.risk", "kl_soft_rows", None),
    ("pucl.voters", "train_voters", None),
    ("pucl.voters", "confidence_table", None),
    ("pucl.voters", "difficulty_scores", None),
    ("pucl.curriculum", "build_plan", None),
    ("pucl.curriculum", "single_curriculum_plan", None),
    ("pucl.curriculum", "train_baby_step", None),
    ("pucl.curriculum", "train_no_curriculum", None),
    ("pucl.curriculum", "train_no_confmpu", None),
    ("pucl.curriculum", "train_soft_label", None),
    ("pucl.curriculum", "self_train", None),
    ("pucl.evaluation", "evaluate", None),
    ("pucl.evaluation", "evaluate_labels", None),
    ("pucl.evaluation", "curriculum_error_analysis", None),
    ("pucl.evaluation", "difficulty_histogram", None),
    ("pucl.pipeline", "run_pipeline", None),
    ("pucl.cli", "main", None),
)


class Tracer:
    """Column-wise span store; a span's id is its index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.count: list[int] = []
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished top-level span."""
        self.name.append(self._intern(name))
        self.parent.append(-1)
        self.count.append(0)
        self.start.append(start_ns)
        self.end.append(end_ns)

    def wrap(self, name: str, fn: Callable, count: Callable[[tuple, Any], int] | None) -> Callable:
        name_id = self._intern(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends, counts, stack = (
            self.name, self.parent, self.start, self.end, self.count, self._stack
        )

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            counts.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                counts[span] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target, and every pucl module-level name bound to a
        target function, with its traced wrapper."""
        importlib.import_module("pucl.cli")  # imports every pucl module
        modules = [m for n, m in sys.modules.items() if n == "pucl" or n.startswith("pucl.")]
        for module_name, path, count in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name.removeprefix('pucl.')}.{path}", original, count)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def dump(self, path: str, run: int) -> None:
        data = {
            "run": run,
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start_ns": [s - _T0 for s in self.start],
            "end_ns": [e - _T0 for e in self.end],
            "count": self.count,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, separators=(",", ":"))


# --- analysis ------------------------------------------------------------------

# Layer -> span names. A layer's time counts a span only when no enclosing
# span belongs to the same layer, so nested calls are not counted twice.
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus.read": ("corpus.read_conll",),
    "corpus.encode": ("corpus.Vocab.encode_sentence", "model.TokenClassifier.encode_corpus"),
    "distant.compile": ("distant.compile_dictionary",),
    "distant.annotate": ("distant.annotate",),
    "model.forward": ("model.TokenClassifier.forward_rows",),
    "model.backward": ("model.TokenClassifier.backward_rows",),
    "model.adam": ("model.adam_step",),
    "model.checkpoint": ("model.save_checkpoint", "model.load_checkpoint"),
    "model.predict": ("model.predict",),
    "risk.pn": ("risk.pn_risk",),
    "risk.conf_mpu": ("risk.conf_mpu_risk",),
    "risk.kl_soft": ("risk.kl_soft_rows",),
    "voters.train": ("voters.train_voters",),
    "voters.confidence": ("voters.confidence_table",),
    "voters.difficulty": ("voters.difficulty_scores",),
    "curriculum.plan": ("curriculum.build_plan", "curriculum.single_curriculum_plan"),
    "curriculum.stage_train": (
        "curriculum.train_baby_step",
        "curriculum.train_no_curriculum",
        "curriculum.train_no_confmpu",
        "curriculum.train_soft_label",
    ),
    "curriculum.self_train": ("curriculum.self_train",),
    "evaluation.evaluate": ("evaluation.evaluate", "evaluation.evaluate_labels"),
    "evaluation.analysis": ("evaluation.curriculum_error_analysis", "evaluation.difficulty_histogram"),
    "pipeline": ("pipeline.run_pipeline",),
    "cli": ("cli.main",),
}
_LAYER_OF = {span: layer for layer, spans in LAYERS.items() for span in spans}
_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}

# Per-layer metric -> unit, in report order. ``trace.*`` and
# ``pipeline.artifact_bytes`` are filled in by the harness, not from spans.
# ``layer_metrics`` also returns ``trace.spans`` and ``trace.top_level_s``,
# which go only into the stored record of each run.
PER_LAYER_UNITS: dict[str, str] = {
    "corpus.read_s": "s",
    "corpus.read_calls": "count",
    "corpus.encode_s": "s",
    "corpus.encode_calls": "count",
    "distant.compile_s": "s",
    "distant.annotate_s": "s",
    "distant.annotate_calls": "count",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.forward_rows": "count",
    "model.forward_p50_us": "us",
    "model.forward_p99_us": "us",
    "model.backward_s": "s",
    "model.backward_calls": "count",
    "model.backward_p50_us": "us",
    "model.backward_p99_us": "us",
    "model.adam_s": "s",
    "model.adam_steps": "count",
    "model.adam_p50_us": "us",
    "model.adam_p99_us": "us",
    "model.checkpoint_s": "s",
    "model.checkpoint_bytes": "bytes",
    "model.predict_s": "s",
    "risk.pn_s": "s",
    "risk.conf_mpu_s": "s",
    "risk.kl_soft_s": "s",
    "risk.conf_mpu_clamped": "count",
    "risk.pn_kept_ratio": "ratio",
    "voters.train_s": "s",
    "voters.confidence_s": "s",
    "voters.difficulty_s": "s",
    "voters.corpus_passes": "count",
    "curriculum.plan_s": "s",
    "curriculum.stage_train_s": "s",
    "curriculum.self_train_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.analysis_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _percentile_us(durations_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 without samples."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def layer_metrics(traces: list[dict], train_tokens: int) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one measured run
    (one file per process). ``train_tokens`` turns voter-inference rows
    into full-corpus passes."""
    busy_ns = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    layer_counts = dict.fromkeys(LAYERS, 0)
    durations: dict[str, list[int]] = {"model.forward": [], "model.backward": [], "model.adam": []}
    forward_rows_in = {"voters.train": 0, "voters.inference": 0}
    startup_ns = top_level_ns = spans = 0
    for trace in traces:
        layer_of_name = [_LAYER_OF.get(n) for n in trace["names"]]
        parents, starts, ends, counts = trace["parent"], trace["start_ns"], trace["end_ns"], trace["count"]
        n = len(starts)
        spans += n
        ancestors = [0] * n  # bitmask of the layers enclosing each span
        child_ns = [0] * n
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            layer = layer_of_name[trace["name"][i]]
            if p < 0:
                top_level_ns += dur
                if layer is None:
                    startup_ns += dur
            else:
                child_ns[p] += dur
                parent_layer = layer_of_name[trace["name"][p]]
                ancestors[i] = ancestors[p] | (_BIT[parent_layer] if parent_layer else 0)
            if layer is None:
                continue
            calls[layer] += 1
            layer_counts[layer] += counts[i]
            if not ancestors[i] & _BIT[layer]:
                busy_ns[layer] += dur
            if layer in durations:
                durations[layer].append(dur)
            if layer == "model.forward":
                if ancestors[i] & _BIT["voters.train"]:
                    forward_rows_in["voters.train"] += counts[i]
                if ancestors[i] & (_BIT["voters.confidence"] | _BIT["voters.difficulty"]):
                    forward_rows_in["voters.inference"] += counts[i]
        for i in range(n):
            layer = layer_of_name[trace["name"][i]]
            if layer is not None:
                self_ns[layer] += ends[i] - starts[i] - child_ns[i]

    s = {layer: ns / 1e9 for layer, ns in busy_ns.items()}
    out: dict[str, float] = {
        "corpus.read_s": s["corpus.read"],
        "corpus.read_calls": calls["corpus.read"],
        "corpus.encode_s": s["corpus.encode"],
        "corpus.encode_calls": calls["corpus.encode"],
        "distant.compile_s": s["distant.compile"],
        "distant.annotate_s": s["distant.annotate"],
        "distant.annotate_calls": calls["distant.annotate"],
    }
    for layer, calls_name in (
        ("model.forward", "model.forward_calls"),
        ("model.backward", "model.backward_calls"),
        ("model.adam", "model.adam_steps"),
    ):
        out[f"{layer}_s"] = s[layer]
        out[calls_name] = calls[layer]
        out[f"{layer}_p50_us"] = _percentile_us(durations[layer], 0.50)
        out[f"{layer}_p99_us"] = _percentile_us(durations[layer], 0.99)
    out.update({
        "model.forward_rows": layer_counts["model.forward"],
        "model.checkpoint_s": s["model.checkpoint"],
        "model.checkpoint_bytes": layer_counts["model.checkpoint"],
        "model.predict_s": s["model.predict"],
        "risk.pn_s": s["risk.pn"],
        "risk.conf_mpu_s": s["risk.conf_mpu"],
        "risk.kl_soft_s": s["risk.kl_soft"],
        "risk.conf_mpu_clamped": layer_counts["risk.conf_mpu"],
        "risk.pn_kept_ratio": (
            layer_counts["risk.pn"] / forward_rows_in["voters.train"]
            if forward_rows_in["voters.train"] else 0.0
        ),
        "voters.train_s": s["voters.train"],
        "voters.confidence_s": s["voters.confidence"],
        "voters.difficulty_s": s["voters.difficulty"],
        "voters.corpus_passes": forward_rows_in["voters.inference"] / train_tokens,
        "curriculum.plan_s": s["curriculum.plan"],
        "curriculum.stage_train_s": s["curriculum.stage_train"],
        "curriculum.self_train_s": s["curriculum.self_train"],
        "evaluation.evaluate_s": s["evaluation.evaluate"],
        "evaluation.analysis_s": s["evaluation.analysis"],
        "pipeline.self_s": self_ns["pipeline"] / 1e9,
        "cli.self_s": self_ns["cli"] / 1e9,
        "cli.startup_s": startup_ns / 1e9,
        "trace.spans": spans,
        "trace.top_level_s": top_level_ns / 1e9,
    })
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--run", type=int, default=0, help="run id stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then pucl CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    import pucl.cli

    tracer.record("startup", _T0, time.perf_counter_ns())
    try:
        return pucl.cli.main(cli_args)
    finally:
        tracer.dump(args.out, args.run)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
