"""End-to-end orchestration: one ordered list of stages (``STAGES``), with
every artifact written under the output directory and a run manifest
recorded on both success and failure.

``pucl pipeline`` runs every stage and reuses nothing. A stage subcommand
runs its stage and the stages it needs, and reuses the voters only when
``voters.sha256`` matches (see ``_voters``); the plan is always rebuilt.
``self-train`` needs no stage: it starts from the saved ``model.bin``.
An artifact is written to a temporary file, moved into place with
``os.replace`` and only then listed in the manifest. Once its inputs are
read, a run ends, ok or not, by removing every stage artifact and temporary
file that its manifest does not list, so the directory holds what it lists.

With a fixed seed two runs produce byte-identical artifacts; the
manifest, which records the wall-clock time of the run and the wall and
CPU time of each stage (``phases``), is the only exception.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from . import __version__
from .config import PipelineConfig
from .corpus import Corpus, Vocab, build_vocab, read_corpus
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
from .distant import noise_report
from .errors import CompatibilityError, FormatError, UnknownLabelError
from .evaluation import (
    EvalReport,
    curriculum_error_analysis,
    difficulty_histogram,
    evaluate,
    evaluate_labels,
)
from .model import ModelConfig, TokenClassifier, load_model, save_checkpoint
from .risk import estimate_priors
from .seeding import derive_seed
from .voters import (
    DifficultyTable,
    VoterEnsemble,
    confidence_table,
    difficulty_scores,
    dump_scores_tsv,
    train_voters,
)


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside ``path`` and move it onto ``path`` when
    the block ends. If the block raises, the temporary file is removed and
    ``path`` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class PipelineResult:
    """What a run reads and what its stages produce, filled in in stage
    order; a product stays None when its stage did not run."""

    cfg: PipelineConfig
    until: str | None
    out_dir: Path
    manifest: dict
    train: Corpus
    test: Corpus | None
    valid: Corpus | None
    vocab: Vocab
    model_config: ModelConfig
    ensemble: VoterEnsemble | None = None  # dropped once difficulty has scored the corpus
    difficulty: DifficultyTable | None = None
    plan: CurriculumPlan | None = None
    model: TokenClassifier | None = None
    report: EvalReport | None = None

    def record(self, name: str, filename: str) -> Path:
        """List artifact ``name`` in the manifest. A stage calls it only for a file it reads and keeps."""
        path = self.out_dir / filename
        self.manifest["artifacts"][name] = str(path)
        return path

    @contextmanager
    def write(self, name: str, filename: str, mode: str = "w") -> Iterator[IO]:
        """Write ``filename`` with ``atomic_open``; ``name`` enters the manifest once its bytes are in place."""
        with atomic_open(self.out_dir / filename, mode) as f:
            yield f
        self.record(name, filename)

    def write_text(self, name: str, filename: str, text: str) -> None:
        with self.write(name, filename) as f:
            f.write(text)

    def write_jsonl(self, name: str, filename: str, records: list[dict]) -> None:
        self.write_text(name, filename, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


# --- stages ---------------------------------------------------------------------


def _source_sha256() -> str:
    """SHA-256 over the name, size and bytes of every source file of the package."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"{path.name}\0{len(source)}\0".encode("utf-8") + source)
    return h.hexdigest()


def _voter_fingerprint(run: PipelineResult) -> str:
    """SHA-256 of everything the voters' bytes depend on: the seed, the
    config, the training file and the package's source code."""
    cfg = run.cfg
    payload = {
        "seed": cfg.seed,
        "model": asdict(cfg.model),
        "voters": asdict(cfg.voters),
        "train_sha256": run.manifest["inputs"]["train"]["sha256"],
        "source_sha256": _source_sha256(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _voters(run: PipelineResult) -> None:
    """Train the voters, or, for a stage subcommand, load the saved ones if
    ``voters.sha256`` matches. The fingerprint is removed before any voter
    is rewritten and written after the last one is in place, so a
    fingerprint on disk always describes the voter files there."""
    cfg = run.cfg
    count = cfg.voters.count
    fingerprint = _voter_fingerprint(run)
    stamp = run.out_dir / "voters.sha256"
    reuse = (
        run.until is not None
        and stamp.exists()
        and stamp.read_text(encoding="utf-8").strip() == fingerprint
        and all((run.out_dir / f"voter_{i}.bin").exists() for i in range(count))
    )
    run.manifest["voters_reused"] = reuse
    if reuse:
        for i in range(count):
            run.record(f"voter_{i}", f"voter_{i}.bin")
        run.ensemble = _load_voters(run)
        run.record("voters_fingerprint", stamp.name)
        if run.ensemble.vocab != run.vocab or run.ensemble.voters[0].label_names != run.train.label_set.names:
            raise CompatibilityError("saved voters do not fit the training corpus; delete voters.sha256 to retrain")
        return
    stamp.unlink(missing_ok=True)
    run.ensemble = train_voters(
        run.train, run.model_config, cfg.voters, derive_seed(cfg.seed, "voters"), vocab=run.vocab
    )
    for i, voter in enumerate(run.ensemble.voters):
        with run.write(f"voter_{i}", f"voter_{i}.bin", "wb") as f:
            save_checkpoint(voter, f)
    run.write_text("voters_fingerprint", stamp.name, fingerprint + "\n")


def _load_voters(run: PipelineResult) -> VoterEnsemble:
    """The voters that the manifest lists, read from their files."""
    artifacts = run.manifest["artifacts"]
    return VoterEnsemble([load_model(artifacts[f"voter_{i}"]) for i in range(run.cfg.voters.count)])


def _difficulty(run: PipelineResult) -> None:
    run.difficulty = difficulty_scores(run.ensemble, run.train)
    run.ensemble = None  # the voters' last reader; voter-ensemble's report loads their files
    with run.write("difficulty_tsv", "difficulty.tsv") as f:
        dump_scores_tsv(run.train, run.difficulty.confidence, run.difficulty, f)


def _plan(run: PipelineResult) -> None:
    tau = run.cfg.curriculum.tau
    if run.cfg.mode == "no-curriculum":
        run.plan = single_curriculum_plan(run.train, tau)
    else:
        run.plan = build_plan(run.difficulty, run.train, tau, run.cfg.curriculum.eta)
    run.write_text("plan", "plan.json", run.plan.to_json(run.train) + "\n")


# Mode -> classifier trainer; mode voter-ensemble trains none. The lambdas
# look the trainers up when called, so a rebound module-level name (a
# tracer's wrapper, a test double) is the one that runs.
_TRAINERS: dict[str, Callable[..., TokenClassifier]] = {
    "full": lambda run, **kw: train_baby_step(
        run.train, run.plan, run.difficulty.confidence, estimate_priors(run.train), **kw
    ),
    "no-curriculum": lambda run, **kw: train_no_curriculum(
        run.train, run.difficulty.confidence, estimate_priors(run.train),
        total_epochs=run.cfg.curriculum.eta * run.cfg.curriculum.stage_epochs, **kw,
    ),
    "no-confmpu": lambda run, **kw: train_no_confmpu(run.train, run.plan, **kw),
    "soft-label-curriculum": lambda run, **kw: train_soft_label(
        run.train, run.plan, run.difficulty.confidence.distributions, **kw
    ),
}
_TRAINERS["full-st"] = _TRAINERS["full"]


def _train(run: PipelineResult) -> None:
    cfg = run.cfg
    log: list[dict] = []
    stage_metrics: list[dict] = []
    score_valid = run.valid is not None and run.valid.has_gold()

    def stage_callback(stage: int, m: TokenClassifier) -> None:
        if score_valid:
            report = evaluate(m, run.valid, cfg.require_type_match)
            stage_metrics.append(
                {"stage": stage, "strict_f1": report.strict.f1, "relaxed_f1": report.relaxed.f1}
            )

    if cfg.mode in _TRAINERS:
        run.model = _TRAINERS[cfg.mode](
            run, schedule=cfg.schedule(), seed=derive_seed(cfg.seed, "train"), vocab=run.vocab,
            model_config=run.model_config, log=log, stage_callback=stage_callback,
        )
        run.write_jsonl("risk_log", "risk_log.jsonl", log)
    if stage_metrics:
        run.write_jsonl("valid_metrics", "valid_metrics.jsonl", stage_metrics)
    if run.model is not None:
        with run.write("model", "model.bin", "wb") as f:
            save_checkpoint(run.model, f)


def _self_train(run: PipelineResult) -> None:
    """Mode full-st only: the student replaces the model this run trained,
    or else the one saved as ``model.bin``."""
    if run.cfg.mode != "full-st":
        return
    if run.model is None:
        run.model = load_model(run.record("model", "model.bin"))
        if run.model.label_names != run.train.label_set.names:
            raise CompatibilityError("model.bin's label set does not match the training corpus")
    log: list[dict] = []
    seed = derive_seed(run.cfg.seed, "selftrain")
    run.model = self_train(run.model, run.train, run.cfg.self_train, seed, log=log)
    run.write_jsonl("selftrain_log", "selftrain_log.jsonl", log)
    with run.write("model", "model.bin", "wb") as f:
        save_checkpoint(run.model, f)


def _report(run: PipelineResult) -> None:
    test = run.test
    if test is None:
        return
    if run.model is not None:
        run.report = evaluate(run.model, test, run.cfg.require_type_match)
    else:  # mode voter-ensemble: the argmax of the mean voter distribution
        labels = np.argmax(confidence_table(_load_voters(run), test).distributions, axis=1)
        run.report = evaluate_labels(labels, test, run.cfg.require_type_match)
    run.write_text("report", "report.json", run.report.to_json() + "\n")


def _analysis(run: PipelineResult) -> None:
    train, scores = run.train, run.difficulty.scores
    if train.has_gold():
        with run.write("curriculum_analysis", "curriculum_analysis.csv") as f:
            curriculum_error_analysis(run.plan, train, run.difficulty).to_csv(f)
        run.write_text("noise_report", "noise_report.json", noise_report(train).to_json() + "\n")
    positives = train.distant_array() > 0
    with run.write("difficulty_hist_all", "difficulty_hist_all.csv") as f:
        difficulty_histogram(scores, 30).to_csv(f)
    if positives.any():
        with run.write("difficulty_hist_positive", "difficulty_hist_positive.csv") as f:
            difficulty_histogram(scores[positives], 30).to_csv(f)


@dataclass(frozen=True)
class Stage:
    name: str
    needs: tuple[str, ...]  # earlier stages whose products this one reads
    writes: tuple[str, ...]  # artifact file names, as glob patterns
    run: Callable[[PipelineResult], None]


STAGES: tuple[Stage, ...] = (
    Stage("voters", (), ("voter_*.bin", "voters.sha256"), _voters),
    Stage("difficulty", ("voters",), ("difficulty.tsv",), _difficulty),
    Stage("plan", ("difficulty",), ("plan.json",), _plan),
    Stage("train", ("plan",), ("risk_log.jsonl", "valid_metrics.jsonl", "model.bin"), _train),
    Stage("self-train", (), ("selftrain_log.jsonl", "model.bin"), _self_train),
    Stage("report", ("train", "self-train"), ("report.json",), _report),
    Stage(
        "analysis", ("plan",),
        ("curriculum_analysis.csv", "noise_report.json", "difficulty_hist_*.csv"), _analysis,
    ),
)


def stages_up_to(until: str | None) -> list[Stage]:
    """Stage ``until`` and every stage it needs, directly or not, in list
    order; all stages when ``until`` is None."""
    if until is None:
        return list(STAGES)
    if until not in {s.name for s in STAGES}:
        raise ValueError(f"unknown stage {until!r}")
    wanted = {until}
    for stage in reversed(STAGES):
        if stage.name in wanted:
            wanted.update(stage.needs)
    return [s for s in STAGES if s.name in wanted]


def _remove_unlisted_artifacts(out_dir: Path, manifest: dict) -> None:
    """Remove every file of a stage's ``writes`` that the manifest does not
    list, and the temporary files a killed run left: they are an earlier run's."""
    listed = {Path(path) for path in manifest["artifacts"].values()}
    writes = [pattern for stage in STAGES for pattern in stage.writes]
    temps = [f".{pattern}.*.tmp" for pattern in writes + ["manifest.json"]]
    for path in {path for pattern in writes + temps for path in out_dir.glob(pattern)} - listed:
        path.unlink()


def run_pipeline(cfg: PipelineConfig, until: str | None = None) -> PipelineResult:
    """Run stage ``until`` and the stages it needs (every stage, reusing
    nothing, when ``until`` is None)."""
    stages = stages_up_to(until)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest: dict = {
        "config": cfg.snapshot(),
        "stages": [s.name for s in stages],
        "phases": {},  # stage -> its wall and CPU seconds
        "inputs": {},
        "artifacts": {},
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "status": "running",
    }

    run = None
    try:
        run = _read_inputs(cfg, until, out_dir, manifest)
        for stage in stages:
            wall, cpu = time.perf_counter(), time.process_time()
            stage.run(run)
            manifest["phases"][stage.name] = {
                "wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
            }
        manifest["status"] = "ok"
        return run
    except BaseException as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if run is not None:  # a run that failed to read its inputs removes nothing
            _remove_unlisted_artifacts(out_dir, manifest)
        manifest["wall_clock_seconds"] = time.time() - started
        write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _read_inputs(cfg: PipelineConfig, until: str | None, out_dir: Path, manifest: dict) -> PipelineResult:
    """Check, hash and read the configured inputs."""
    same_split = cfg.test and cfg.valid and Path(cfg.test).resolve() == Path(cfg.valid).resolve()
    if same_split and not cfg.allow_same_split:
        raise CompatibilityError(
            "test and valid point at the same file; pass allow_same_split only if this is intentional"
        )

    for name, path in (("train", cfg.train), ("test", cfg.test), ("valid", cfg.valid), ("dict", cfg.dict_path)):
        if path:
            p = Path(path)
            if not p.exists():
                raise FormatError(f"{name} file not found: {path}")
            manifest["inputs"][name] = {"path": str(path), "sha256": _sha256(p)}

    max_len = cfg.model.max_sentence_len
    train = read_corpus(cfg.train, max_sentence_len=max_len)
    if until == "train" and cfg.mode == "voter-ensemble":
        raise CompatibilityError("mode voter-ensemble trains no classifier; use pipeline")
    if until == "self-train" and cfg.mode != "full-st":
        raise CompatibilityError(f"mode {cfg.mode} has no self-training; use mode full-st")
    if until == "analysis" and not train.has_gold():
        raise CompatibilityError("analysis needs gold labels in the training corpus")

    def read_split(path: str | None, name: str) -> Corpus | None:
        """Read an eval split in the training label space, so label ids
        line up. Labels the training set never saw are a compatibility
        problem, not a parse error."""
        try:
            return read_corpus(path, train.label_set, max_len) if path else None
        except UnknownLabelError as exc:
            raise CompatibilityError(f"{name} corpus does not fit the training labels: {exc}") from exc

    test = read_split(cfg.test, "test")
    valid = read_split(cfg.valid, "valid")

    vocab = build_vocab(train, cfg.model.min_count)
    model_config = cfg.model.model_config(vocab.size, train.label_set.n_classes)
    return PipelineResult(cfg, until, out_dir, manifest, train, test, valid, vocab, model_config)
