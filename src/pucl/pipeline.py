"""End-to-end orchestration: voters -> difficulty -> plan -> staged training
-> optional self-training -> evaluation, with every intermediate artifact
written under the output directory and a run manifest recorded on both
success and failure.

With a fixed seed and --threads 1 two runs produce byte-identical artifacts
(the manifest's wall-clock fields are the only exception).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig
from .corpus import Corpus, build_vocab, encode_windows, read_conll
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
from .errors import CompatibilityError, FormatError, UnknownLabelError
from .evaluation import (
    EvalReport,
    curriculum_error_analysis,
    difficulty_histogram,
    evaluate,
    evaluate_labels,
)
from .model import ModelConfig, TokenClassifier, save_checkpoint
from .risk import estimate_priors
from .seeding import derive_seed
from .voters import (
    VoterEnsemble,
    difficulty_scores,
    dump_scores_tsv,
    train_voters,
    voter_distributions,
)


@dataclass
class PipelineResult:
    model: TokenClassifier | None
    ensemble: VoterEnsemble
    plan: CurriculumPlan
    report: EvalReport | None
    out_dir: Path
    artifacts: dict[str, str]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_corpus(path: str, max_len: int) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise FormatError(f"corpus file not found: {path}")
    with open(p, encoding="utf-8") as f:
        return read_conll(f, max_sentence_len=max_len)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute the configured pipeline mode end to end."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest: dict = {
        "config": cfg.snapshot(),
        "inputs": {},
        "artifacts": {},
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "status": "running",
    }

    def finish(status: str, error: str | None = None) -> None:
        manifest["status"] = status
        if error is not None:
            manifest["error"] = error
        manifest["wall_clock_seconds"] = time.time() - started
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    try:
        result = _run_pipeline_inner(cfg, out_dir, manifest)
    except BaseException as exc:
        finish("error", f"{type(exc).__name__}: {exc}")
        raise
    finish("ok")
    return result


def _run_pipeline_inner(
    cfg: PipelineConfig, out_dir: Path, manifest: dict
) -> PipelineResult:
    artifacts: dict[str, str] = {}

    def record(name: str, path: Path) -> Path:
        artifacts[name] = str(path)
        manifest["artifacts"][name] = str(path)
        return path

    if cfg.test and cfg.valid and Path(cfg.test).resolve() == Path(cfg.valid).resolve():
        if not cfg.allow_same_split:
            raise CompatibilityError(
                "test and valid point at the same file; pass allow_same_split "
                "only if this is intentional"
            )

    for name, path in (("train", cfg.train), ("test", cfg.test), ("valid", cfg.valid), ("dict", cfg.dict_path)):
        if path:
            p = Path(path)
            if not p.exists():
                raise FormatError(f"{name} file not found: {path}")
            manifest["inputs"][name] = {"path": str(path), "sha256": _sha256(p)}

    train_corpus = _read_corpus(cfg.train, cfg.model.max_sentence_len)
    test_corpus = _read_corpus(cfg.test, cfg.model.max_sentence_len) if cfg.test else None
    valid_corpus = _read_corpus(cfg.valid, cfg.model.max_sentence_len) if cfg.valid else None

    def align(corpus: Corpus | None, path: str | None, name: str) -> Corpus | None:
        """Re-read an eval split against the training label space so label
        ids line up; labels the training set never saw are a compatibility
        problem, not a parse error."""
        if corpus is None or corpus.label_set == train_corpus.label_set:
            return corpus
        try:
            with open(path, encoding="utf-8") as f:
                return read_conll(f, train_corpus.label_set, cfg.model.max_sentence_len)
        except UnknownLabelError as exc:
            raise CompatibilityError(f"{name} corpus does not fit the training labels: {exc}") from exc

    test_corpus = align(test_corpus, cfg.test, "test")
    valid_corpus = align(valid_corpus, cfg.valid, "valid")

    vocab = build_vocab(train_corpus, cfg.model.min_count)
    model_config = ModelConfig(
        vocab_size=vocab.size,
        n_classes=train_corpus.label_set.n_classes,
        embed_dim=cfg.model.embed_dim,
        window=cfg.model.window,
        hidden_dim=cfg.model.hidden_dim,
        init_scale=cfg.model.init_scale,
    )
    # Every model shares the vocabulary and window, so each corpus is
    # encoded once and its rows are passed down.
    train_rows = encode_windows(train_corpus, vocab, model_config.window)
    valid_rows = None
    if valid_corpus is not None and valid_corpus.has_gold():
        valid_rows = encode_windows(valid_corpus, vocab, model_config.window)

    ensemble = train_voters(
        train_corpus,
        model_config,
        cfg.voters,
        derive_seed(cfg.seed, "voters"),
        vocab=vocab,
        threads=cfg.threads,
        rows=train_rows,
    )
    for i, voter in enumerate(ensemble.voters):
        with open(record(f"voter_{i}", out_dir / f"voter_{i}.bin"), "wb") as f:
            save_checkpoint(voter, f)

    difficulty = difficulty_scores(ensemble, train_corpus, train_rows)
    confidence = difficulty.confidence
    with open(record("difficulty_tsv", out_dir / "difficulty.tsv"), "w", encoding="utf-8") as f:
        dump_scores_tsv(train_corpus, confidence, difficulty, f)

    if cfg.mode == "no-curriculum":
        plan = single_curriculum_plan(train_corpus, cfg.curriculum.tau)
    else:
        plan = build_plan(difficulty, train_corpus, cfg.curriculum.tau, cfg.curriculum.eta)
    record("plan", out_dir / "plan.json").write_text(
        plan.to_json(train_corpus) + "\n", encoding="utf-8"
    )

    schedule = cfg.schedule()
    train_seed = derive_seed(cfg.seed, "train")
    log: list[dict] = []
    stage_metrics: list[dict] = []

    def stage_callback(stage: int, m: TokenClassifier) -> None:
        if valid_rows is not None:
            report = evaluate(m, valid_corpus, cfg.require_type_match, valid_rows)
            stage_metrics.append(
                {
                    "stage": stage,
                    "strict_f1": report.strict.f1,
                    "relaxed_f1": report.relaxed.f1,
                }
            )

    model: TokenClassifier | None
    if cfg.mode in ("full", "full-st"):
        priors = estimate_priors(train_corpus)
        model = train_baby_step(
            train_corpus, plan, confidence, priors, schedule, train_seed,
            vocab=vocab, model_config=model_config, log=log, stage_callback=stage_callback,
            rows=train_rows,
        )
    elif cfg.mode == "no-curriculum":
        priors = estimate_priors(train_corpus)
        model = train_no_curriculum(
            train_corpus, confidence, priors, schedule, train_seed,
            total_epochs=cfg.curriculum.eta * cfg.curriculum.stage_epochs,
            vocab=vocab, model_config=model_config, log=log, stage_callback=stage_callback,
            rows=train_rows,
        )
    elif cfg.mode == "no-confmpu":
        model = train_no_confmpu(
            train_corpus, plan, schedule, train_seed,
            vocab=vocab, model_config=model_config, log=log, stage_callback=stage_callback,
            rows=train_rows,
        )
    elif cfg.mode == "soft-label-curriculum":
        model = train_soft_label(
            train_corpus, plan, confidence.distributions, schedule, train_seed,
            vocab=vocab, model_config=model_config, log=log, stage_callback=stage_callback,
            rows=train_rows,
        )
    elif cfg.mode == "voter-ensemble":
        model = None
    else:  # pragma: no cover - modes validated in config
        raise FormatError(f"unhandled mode {cfg.mode!r}")

    if cfg.mode == "full-st" and model is not None:
        st_log: list[dict] = []
        model = self_train(
            model, train_corpus, cfg.self_train, derive_seed(cfg.seed, "selftrain"),
            log=st_log, rows=train_rows,
        )
        with open(record("selftrain_log", out_dir / "selftrain_log.jsonl"), "w", encoding="utf-8") as f:
            for rec in st_log:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    with open(record("risk_log", out_dir / "risk_log.jsonl"), "w", encoding="utf-8") as f:
        for rec in log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    if stage_metrics:
        with open(record("valid_metrics", out_dir / "valid_metrics.jsonl"), "w", encoding="utf-8") as f:
            for rec in stage_metrics:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    if model is not None:
        with open(record("model", out_dir / "model.bin"), "wb") as f:
            save_checkpoint(model, f)

    report: EvalReport | None = None
    if test_corpus is not None:
        if not test_corpus.has_gold():
            raise CompatibilityError("test corpus has tokens without gold labels")
        if model is not None:
            report = evaluate(model, test_corpus, cfg.require_type_match)
        else:
            preds = _ensemble_predictions(ensemble, test_corpus)
            report = evaluate_labels(preds, test_corpus, cfg.require_type_match)
        record("report", out_dir / "report.json").write_text(
            report.to_json() + "\n", encoding="utf-8"
        )

    if train_corpus.has_gold():
        analysis = curriculum_error_analysis(plan, train_corpus, difficulty)
        with open(record("curriculum_analysis", out_dir / "curriculum_analysis.csv"), "w", encoding="utf-8") as f:
            analysis.to_csv(f)
    positives = train_corpus.distant_array() > 0
    with open(record("difficulty_hist_all", out_dir / "difficulty_hist_all.csv"), "w", encoding="utf-8") as f:
        difficulty_histogram(difficulty.scores, 30).to_csv(f)
    if positives.any():
        with open(record("difficulty_hist_positive", out_dir / "difficulty_hist_positive.csv"), "w", encoding="utf-8") as f:
            difficulty_histogram(difficulty.scores[positives], 30).to_csv(f)

    return PipelineResult(
        model=model,
        ensemble=ensemble,
        plan=plan,
        report=report,
        out_dir=out_dir,
        artifacts=artifacts,
    )


def _ensemble_predictions(ensemble: VoterEnsemble, corpus: Corpus) -> list[np.ndarray]:
    """Argmax of the mean voter distribution, per sentence."""
    if corpus.label_set.names != ensemble.voters[0].label_names:
        raise CompatibilityError("ensemble and corpus label sets differ")
    labels = np.argmax(voter_distributions(ensemble, corpus).mean(axis=0), axis=1)
    offsets = corpus.offsets
    return [labels[offsets[i] : offsets[i + 1]] for i in range(len(corpus))]
