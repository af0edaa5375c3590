"""Command-line interface.

Subcommands cover single pipeline stages (annotate, train-voters,
score-difficulty, build-plan, train, self-train, evaluate, analyze) and
whole experiments (pipeline, sweep, gen-synthetic). train-voters,
score-difficulty, build-plan, train, self-train and analyze each run the
pipeline up to their stage (see ``pipeline.py``). A command imports only
the modules it runs: ``annotate`` and ``gen-synthetic`` load no model,
``evaluate`` no training code, and only the pipeline commands load
``config`` and ``pipeline``. Exit codes: 0 ok, 2
input format error (a path that cannot be opened, or a size that needs
more memory than there is, included), 3 compatibility error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .benchmark import BENCHMARK_CONFIG, BenchmarkSpec, make_benchmark
from .corpus import LabelSet, read_corpus, write_conll
from .distant import Dictionary, annotate, compile_dictionary, noise_report, read_dictionary_pairs, write_dictionary
from .errors import (
    CompatibilityError,
    FormatError,
    NumericError,
    PuclError,
    UnknownLabelError,
)
from .seeding import derive_seed
from .shared import MODES, atomic_open, write_text

if TYPE_CHECKING:
    from .config import PipelineConfig


# --- the pipeline, whole or up to a stage -----------------------------------


def cmd_pipeline(args: argparse.Namespace) -> int:
    """``pipeline``, or a stage subcommand: the pipeline up to ``args.until``."""
    from .pipeline import run_pipeline

    result = run_pipeline(_load_cfg(args), until=args.until)
    if result.report is not None:
        print(result.report.to_json())
    else:
        print(f"{args.command} finished; artifacts under {result.out_dir}")
    return 0


# --- commands with their own bodies -------------------------------------------


def cmd_annotate(args: argparse.Namespace) -> int:
    dict_path = Path(args.dict)
    if not dict_path.exists():
        raise FormatError(f"dictionary file not found: {args.dict}")
    with open(dict_path, encoding="utf-8") as f:
        pairs, dict_names = read_dictionary_pairs(f)

    corpus = read_corpus(args.input, max_sentence_len=sys.maxsize)  # sentences stay whole
    # The input's types keep their ids; the dictionary's new types follow.
    names = list(corpus.label_set.names)
    label_set = LabelSet(names + [name for name in dict_names if name not in names])

    if not pairs:
        print("warning: empty dictionary, output labels are all O", file=sys.stderr)
    matcher = compile_dictionary(Dictionary.build(pairs, label_set))

    distant = [label for surfaces in corpus.sentence_surfaces() for label in annotate(surfaces, matcher)]
    with atomic_open(args.out) as f:
        write_conll(corpus.with_distant(np.array(distant, dtype=np.int64), label_set), f)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import evaluate
    from .model import load_model

    model = load_model(args.model)
    try:
        label_set = LabelSet(model.label_names)
    except FormatError as exc:
        raise CompatibilityError(f"checkpoint carries an invalid label set: {exc}") from exc
    try:
        test = read_corpus(args.test, label_set)
    except UnknownLabelError as exc:
        raise CompatibilityError(f"test corpus does not fit the checkpoint: {exc}") from exc
    if not test.has_gold():
        raise CompatibilityError("test corpus has tokens without gold labels")
    text = evaluate(model, test).to_json() + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline

    cfg = _load_cfg(args)
    if cfg.test is None:
        raise CompatibilityError("sweep needs a test corpus in the config")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise FormatError(f"bad --values list: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise FormatError("--values must be positive integers")

    rows = []
    for value in values:
        run_cfg = cfg
        if args.vary == "voters":
            run_cfg = replace(run_cfg, voters=replace(cfg.voters, count=value))
        else:
            run_cfg = replace(run_cfg, curriculum=replace(cfg.curriculum, eta=value))
        run_cfg = replace(
            run_cfg,
            out=str(Path(cfg.out) / f"sweep-{args.vary}-{value}"),
            seed=derive_seed(cfg.seed, f"sweep-{args.vary}", value),
        )
        result = run_pipeline(run_cfg)
        assert result.report is not None
        rows.append((args.vary, value, result.report.strict.f1, result.report.relaxed.f1))

    out_path = Path(cfg.out) / "sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_path) as f:
        f.write("param,value,strict_f1,relaxed_f1\n")
        for param, value, strict_f1, relaxed_f1 in rows:
            f.write(f"{param},{value},{strict_f1:.17g},{relaxed_f1:.17g}\n")
    print(f"wrote {out_path}")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = BenchmarkSpec(**{f.name: getattr(args, f.name) for f in fields(BenchmarkSpec)})
    train, test, valid, dictionary = make_benchmark(args.seed, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Config paths are relative to the config's directory: bare names for a
    # relative --out, so that the directory can move; absolute paths for an
    # absolute one, so that a copy of the config elsewhere finds the files.
    base = out_dir if out_dir.is_absolute() else Path()
    config = {
        **BENCHMARK_CONFIG,
        "dict": str(base / "dict.tsv"),
        "out": str(base / "run"),
        "seed": args.seed,
    }
    for name, corpus in (("train", train), ("test", test), ("valid", valid)):
        if corpus is not None:
            with atomic_open(out_dir / f"{name}.tsv") as f:
                write_conll(corpus, f)
            config[name] = str(base / f"{name}.tsv")
    with atomic_open(out_dir / "dict.tsv") as f:
        write_dictionary(dictionary, f)
    write_text(out_dir / "config.json", json.dumps(config, sort_keys=True, indent=2) + "\n")
    write_text(out_dir / "noise_report.json", noise_report(train).to_json() + "\n")
    print(f"wrote synthetic benchmark under {out_dir}")
    return 0


# --- plumbing ---------------------------------------------------------------------


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    from .config import load_config

    if not getattr(args, "config", None):
        raise FormatError("this command needs --config")
    overrides = {name: getattr(args, name, None) for name in ("seed", "threads", "out", "mode")}
    return load_config(args.config).with_overrides(**overrides)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="accepted for compatibility; changes nothing")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--mode", default=None, choices=MODES, help="override the pipeline mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pucl",
        description="Distantly supervised token classification with "
        "difficulty-ordered curricula and confidence-based PU training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="distantly annotate a corpus with a dictionary")
    p.add_argument("--dict", required=True, help="dictionary TSV (surface<TAB>type)")
    p.add_argument("--in", dest="input", required=True, help="input corpus TSV")
    p.add_argument("--out", required=True, help="output corpus TSV")
    p.set_defaults(func=cmd_annotate)

    # command, the pipeline stage it runs up to (None: every stage), help
    for name, until, help_text in (
        ("train-voters", "voters", "train the voter ensemble"),
        ("score-difficulty", "difficulty", "dump per-token difficulty and confidence"),
        ("build-plan", "plan", "build the curriculum plan"),
        ("train", "train", "train the classifier, reusing matching saved voters"),
        ("self-train", "self-train", "self-train the saved model.bin (mode full-st)"),
        ("analyze", "analysis", "curriculum noise analysis and histograms"),
        ("pipeline", None, "run the full pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=cmd_pipeline, until=until, mode="full-st" if until == "self-train" else None)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a gold corpus")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--test", required=True, help="gold-labeled corpus TSV")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="one pipeline per parameter value")
    _add_common(p)
    p.add_argument("--vary", required=True, choices=("voters", "curricula"))
    p.add_argument("--values", required=True, help="comma-separated positive integers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic noisy benchmark")
    p.add_argument("--out", required=True)
    for f in fields(BenchmarkSpec):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        metavar = flag[2:].upper().replace("-", "_")
        p.add_argument(flag, dest=f.name, metavar=metavar, type=type(f.default), default=f.default)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PuclError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CompatibilityError):
            return 3
        return 4 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
