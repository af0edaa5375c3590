"""Command-line interface.

Subcommands cover single pipeline stages (annotate, train-voters,
score-difficulty, build-plan, train, self-train, evaluate, analyze) and
whole experiments (pipeline, sweep, gen-synthetic). Exit codes: 0 ok,
2 input format error, 3 compatibility error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import MODES, PipelineConfig, load_config
from .corpus import Corpus, LabelSet, Sentence, Token, build_vocab, read_conll, write_conll
from .curriculum import (
    CurriculumPlan,
    build_plan,
    self_train,
    single_curriculum_plan,
    train_baby_step,
    train_no_confmpu,
    train_no_curriculum,
    train_soft_label,
)
from .distant import (
    Dictionary,
    SyntheticSpec,
    compile_dictionary,
    annotate as annotate_sentence,
    generate_synthetic,
    inject_noise,
    noise_report,
    read_dictionary_pairs,
)
from .errors import (
    CompatibilityError,
    FormatError,
    NumericError,
    PuclError,
    UnknownLabelError,
)
from .evaluation import curriculum_error_analysis, difficulty_histogram, evaluate
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import run_pipeline
from .risk import estimate_priors
from .seeding import derive_seed, make_rng
from .voters import (
    VoterEnsemble,
    confidence_table,
    difficulty_scores,
    dump_scores_tsv,
    train_voters,
)


def _read_corpus_file(path: str, label_set: LabelSet | None = None, max_len: int = 256) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise FormatError(f"corpus file not found: {path}")
    with open(p, encoding="utf-8") as f:
        return read_conll(f, label_set, max_len)


def _write_corpus_file(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_conll(corpus, f)


# --- annotate ----------------------------------------------------------------


def cmd_annotate(args: argparse.Namespace) -> int:
    dict_path = Path(args.dict)
    if not dict_path.exists():
        raise FormatError(f"dictionary file not found: {args.dict}")
    with open(dict_path, encoding="utf-8") as f:
        pairs, dict_names = read_dictionary_pairs(f)

    input_corpus = _read_corpus_file(args.input)
    merged_names = list(input_corpus.label_set.names)
    for name in dict_names:
        if name != "O" and name not in merged_names:
            merged_names.append(name)
    label_set = LabelSet(merged_names)
    old_names = input_corpus.label_set

    if not pairs:
        print("warning: empty dictionary, output labels are all O", file=sys.stderr)
    matcher = compile_dictionary(Dictionary.build(pairs, label_set))

    sentences = []
    for sent in input_corpus.sentences:
        labels = annotate_sentence(sent, matcher)
        sentences.append(
            Sentence(
                tuple(
                    Token(
                        tok.surface,
                        labels[i],
                        None
                        if tok.gold_label is None
                        else label_set.id_of(old_names.name_of(tok.gold_label)),
                    )
                    for i, tok in enumerate(sent.tokens)
                )
            )
        )
    _write_corpus_file(Corpus(sentences, label_set), args.out)
    return 0


# --- staged artifact commands --------------------------------------------------


def _prepare(cfg: PipelineConfig):
    corpus = _read_corpus_file(cfg.train, max_len=cfg.model.max_sentence_len)
    vocab = build_vocab(corpus, cfg.model.min_count)
    model_config = ModelConfig(
        vocab_size=vocab.size,
        n_classes=corpus.label_set.n_classes,
        embed_dim=cfg.model.embed_dim,
        window=cfg.model.window,
        hidden_dim=cfg.model.hidden_dim,
        init_scale=cfg.model.init_scale,
    )
    return corpus, vocab, model_config


def _load_or_train_voters(cfg: PipelineConfig, corpus, vocab, model_config, out_dir: Path) -> VoterEnsemble:
    paths = [out_dir / f"voter_{i}.bin" for i in range(cfg.voters.count)]
    if all(p.exists() for p in paths):
        voters = []
        for p in paths:
            with open(p, "rb") as f:
                voters.append(load_checkpoint(f))
        ensemble = VoterEnsemble(voters)
        if ensemble.voters[0].label_names != corpus.label_set.names:
            raise CompatibilityError("saved voters do not match the training label set")
        return ensemble
    ensemble = train_voters(
        corpus, model_config, cfg.voters, derive_seed(cfg.seed, "voters"),
        vocab=vocab, threads=cfg.threads,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, voter in enumerate(ensemble.voters):
        with open(out_dir / f"voter_{i}.bin", "wb") as f:
            save_checkpoint(voter, f)
    return ensemble


def cmd_train_voters(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    corpus, vocab, model_config = _prepare(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ensemble = train_voters(
        corpus, model_config, cfg.voters, derive_seed(cfg.seed, "voters"),
        vocab=vocab, threads=cfg.threads,
    )
    for i, voter in enumerate(ensemble.voters):
        with open(out_dir / f"voter_{i}.bin", "wb") as f:
            save_checkpoint(voter, f)
    print(f"wrote {len(ensemble.voters)} voters under {out_dir}")
    return 0


def cmd_score_difficulty(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    corpus, vocab, model_config = _prepare(cfg)
    out_dir = Path(cfg.out)
    ensemble = _load_or_train_voters(cfg, corpus, vocab, model_config, out_dir)
    diff = difficulty_scores(ensemble, corpus)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "difficulty.tsv", "w", encoding="utf-8") as f:
        dump_scores_tsv(corpus, diff.confidence, diff, f)
    print(f"wrote {out_dir / 'difficulty.tsv'}")
    return 0


def cmd_build_plan(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    corpus, vocab, model_config = _prepare(cfg)
    out_dir = Path(cfg.out)
    ensemble = _load_or_train_voters(cfg, corpus, vocab, model_config, out_dir)
    diff = difficulty_scores(ensemble, corpus)
    plan = build_plan(diff, corpus, cfg.curriculum.tau, cfg.curriculum.eta)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plan.json").write_text(plan.to_json(corpus) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'plan.json'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Classifier training only, reusing voters and plan from the output
    directory when present; `pipeline` is the one-shot entry point."""
    cfg = _load_cfg(args)
    corpus, vocab, model_config = _prepare(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ensemble = _load_or_train_voters(cfg, corpus, vocab, model_config, out_dir)

    plan_path = out_dir / "plan.json"
    diff = None
    if cfg.mode == "no-curriculum":
        plan = single_curriculum_plan(corpus, cfg.curriculum.tau)
    elif plan_path.exists():
        plan = CurriculumPlan.from_json(plan_path.read_text(encoding="utf-8"), corpus)
    else:
        diff = difficulty_scores(ensemble, corpus)
        plan = build_plan(diff, corpus, cfg.curriculum.tau, cfg.curriculum.eta)
        plan_path.write_text(plan.to_json(corpus) + "\n", encoding="utf-8")
    conf = diff.confidence if diff is not None else confidence_table(ensemble, corpus)

    schedule = cfg.schedule()
    seed = derive_seed(cfg.seed, "train")
    log: list[dict] = []
    if cfg.mode in ("full", "full-st"):
        priors = estimate_priors(corpus)
        model = train_baby_step(
            corpus, plan, conf, priors, schedule, seed,
            vocab=vocab, model_config=model_config, log=log,
        )
    elif cfg.mode == "no-curriculum":
        priors = estimate_priors(corpus)
        model = train_no_curriculum(
            corpus, conf, priors, schedule, seed,
            total_epochs=cfg.curriculum.eta * cfg.curriculum.stage_epochs,
            vocab=vocab, model_config=model_config, log=log,
        )
    elif cfg.mode == "no-confmpu":
        model = train_no_confmpu(
            corpus, plan, schedule, seed, vocab=vocab, model_config=model_config, log=log
        )
    elif cfg.mode == "soft-label-curriculum":
        model = train_soft_label(
            corpus, plan, conf.distributions, schedule, seed,
            vocab=vocab, model_config=model_config, log=log,
        )
    else:
        raise CompatibilityError("mode voter-ensemble trains no classifier; use pipeline")

    with open(out_dir / "risk_log.jsonl", "w", encoding="utf-8") as f:
        for rec in log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out_dir / "model.bin", "wb") as f:
        save_checkpoint(model, f)
    print(f"wrote {out_dir / 'model.bin'}")
    return 0


def cmd_self_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    corpus = _read_corpus_file(cfg.train, max_len=cfg.model.max_sentence_len)
    model_path = Path(args.model or (Path(cfg.out) / "model.bin"))
    if not model_path.exists():
        raise CompatibilityError(f"model checkpoint not found: {model_path}")
    with open(model_path, "rb") as f:
        model = load_checkpoint(f)
    if model.label_names != corpus.label_set.names:
        raise CompatibilityError("checkpoint label set does not match the corpus")
    student = self_train(model, corpus, cfg.self_train, derive_seed(cfg.seed, "selftrain"))
    out_path = Path(args.out_model or (Path(cfg.out) / "model_selftrained.bin"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as f:
        save_checkpoint(student, f)
    print(f"wrote {out_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise CompatibilityError(f"model checkpoint not found: {args.model}")
    with open(model_path, "rb") as f:
        model = load_checkpoint(f)
    try:
        label_set = LabelSet(model.label_names)
    except FormatError as exc:
        raise CompatibilityError(f"checkpoint carries an invalid label set: {exc}") from exc
    try:
        test = _read_corpus_file(args.test, label_set)
    except UnknownLabelError as exc:
        raise CompatibilityError(f"test corpus does not fit the checkpoint: {exc}") from exc
    if not test.has_gold():
        raise CompatibilityError("test corpus has tokens without gold labels")
    report = evaluate(model, test)
    text = report.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    corpus, vocab, model_config = _prepare(cfg)
    if not corpus.has_gold():
        raise CompatibilityError("analysis needs gold labels in the training corpus")
    out_dir = Path(cfg.out)
    ensemble = _load_or_train_voters(cfg, corpus, vocab, model_config, out_dir)
    diff = difficulty_scores(ensemble, corpus)
    if cfg.mode == "no-curriculum":
        plan = single_curriculum_plan(corpus, cfg.curriculum.tau)
    else:
        plan = build_plan(diff, corpus, cfg.curriculum.tau, cfg.curriculum.eta)
    analysis = curriculum_error_analysis(plan, corpus, diff)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "curriculum_analysis.csv", "w", encoding="utf-8") as f:
        analysis.to_csv(f)
    positives = corpus.distant_array() > 0
    with open(out_dir / "difficulty_hist_all.csv", "w", encoding="utf-8") as f:
        difficulty_histogram(diff.scores, 30).to_csv(f)
    if positives.any():
        with open(out_dir / "difficulty_hist_positive.csv", "w", encoding="utf-8") as f:
            difficulty_histogram(diff.scores[positives], 30).to_csv(f)
    stats = noise_report(corpus)
    (out_dir / "noise_report.json").write_text(stats.to_json() + "\n", encoding="utf-8")
    print(f"wrote analysis artifacts under {out_dir}")
    return 0


# --- whole experiments -----------------------------------------------------------


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    result = run_pipeline(cfg)
    if result.report is not None:
        print(result.report.to_json())
    else:
        print(f"pipeline finished; artifacts under {result.out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
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
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("param,value,strict_f1,relaxed_f1\n")
        for param, value, strict_f1, relaxed_f1 in rows:
            f.write(f"{param},{value},{strict_f1:.17g},{relaxed_f1:.17g}\n")
    print(f"wrote {out_path}")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        n_sentences=args.sentences + args.test_sentences + args.valid_sentences,
        k=args.types,
        dict_size=args.dict_size,
    )
    rng = make_rng(args.seed, "synthetic")
    gold, dictionary = generate_synthetic(spec, rng)

    train_sents = gold.sentences[: args.sentences]
    test_sents = gold.sentences[args.sentences : args.sentences + args.test_sentences]
    valid_sents = gold.sentences[args.sentences + args.test_sentences :]

    train_gold = Corpus(train_sents, gold.label_set)
    noisy = inject_noise(
        train_gold, args.fn_rate, args.fp_rate, args.type_rate, make_rng(args.seed, "noise")
    )
    _write_corpus_file(noisy, str(out_dir / "train.tsv"))
    if test_sents:
        _write_corpus_file(Corpus(test_sents, gold.label_set), str(out_dir / "test.tsv"))
    if valid_sents:
        _write_corpus_file(Corpus(valid_sents, gold.label_set), str(out_dir / "valid.tsv"))
    with open(out_dir / "dict.tsv", "w", encoding="utf-8") as f:
        for tokens, label in dictionary.entries:
            f.write(f"{' '.join(tokens)}\t{gold.label_set.name_of(label)}\n")

    config = {
        "train": str(out_dir / "train.tsv"),
        "dict": str(out_dir / "dict.tsv"),
        "out": str(out_dir / "run"),
        "seed": args.seed,
        "voters": {"count": 5, "epochs": 5, "keep_negative_ratio": 0.1},
        "curriculum": {"tau": 0.5, "eta": 5, "stage_epochs": 2},
        "risk": {"epsilon": 0.5, "gamma": 10.0, "loss": "ce"},
    }
    if test_sents:
        config["test"] = str(out_dir / "test.tsv")
    if valid_sents:
        config["valid"] = str(out_dir / "valid.tsv")
    (out_dir / "config.json").write_text(
        json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    stats = noise_report(noisy)
    (out_dir / "noise_report.json").write_text(stats.to_json() + "\n", encoding="utf-8")
    print(f"wrote synthetic benchmark under {out_dir}")
    return 0


# --- plumbing ---------------------------------------------------------------------


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    if not getattr(args, "config", None):
        raise FormatError("this command needs --config")
    cfg = load_config(args.config)
    overrides = {}
    for name in ("seed", "threads", "out", "mode"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides.get("mode") is not None and overrides["mode"] not in MODES:
        raise FormatError(f"unknown mode {overrides['mode']!r}")
    return cfg.with_overrides(**overrides) if overrides else cfg


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="within-stage parallelism")
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

    for name, func, help_text in (
        ("train-voters", cmd_train_voters, "train the voter ensemble"),
        ("score-difficulty", cmd_score_difficulty, "dump per-token difficulty and confidence"),
        ("build-plan", cmd_build_plan, "build the curriculum plan"),
        ("train", cmd_train, "train the classifier, reusing saved voters/plan"),
        ("analyze", cmd_analyze, "curriculum noise analysis and histograms"),
        ("pipeline", cmd_pipeline, "run the full pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("self-train", help="self-train an existing checkpoint")
    _add_common(p)
    p.add_argument("--model", default=None, help="checkpoint to start from")
    p.add_argument("--out-model", default=None, help="where to write the student checkpoint")
    p.set_defaults(func=cmd_self_train)

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
    p.add_argument("--sentences", type=int, default=2000)
    p.add_argument("--test-sentences", type=int, default=500)
    p.add_argument("--valid-sentences", type=int, default=50)
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--dict-size", type=int, default=60)
    p.add_argument("--fn-rate", type=float, default=0.4)
    p.add_argument("--fp-rate", type=float, default=0.05)
    p.add_argument("--type-rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PuclError as exc:  # pragma: no cover - catch-all for subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
