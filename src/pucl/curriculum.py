"""Power-law curriculum construction and staged ("baby step") training.

A plan is an ordered partition of all token positions. Unlabeled tokens all
sit in the first curriculum; positive tokens are sorted by difficulty and
dealt out with a power-law selector: curriculum j < eta takes the next
floor(tau^j * T_p) easiest positives and the final curriculum absorbs the
remainder. Stage i of training runs a fixed number of epochs over the
tokens of curricula 1..i, so the easiest material is revisited most often.

Trainers read the corpus through ``TokenClassifier.encode_corpus``, which
the corpus builds once per vocabulary and window, so a pipeline whose
models share the vocabulary encodes each corpus once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .corpus import Corpus, Vocab
from .errors import NumericError
from .model import TOKEN_BLOCK_ROWS, AdamState, BatchRisk, ModelConfig, TokenClassifier, reduce_classes, train_epoch
from .risk import ConfMpuConfig, Priors, conf_mpu_risk, kl_soft_rows, pn_risk
from .seeding import derive_seed, make_rng
from .voters import ConfidenceTable, DifficultyTable


@dataclass(frozen=True)
class CurriculumPlan:
    """Ordered partition C_1..C_eta of flat token indices.

    curricula[j] holds flat token positions; the first also contains every
    unlabeled token. positive_counts tracks how many positives each
    curriculum received.
    """

    tau: float
    eta: int
    t_u: int
    t_p: int
    curricula: tuple[np.ndarray, ...]
    positive_counts: tuple[int, ...]

    def curriculum_of_tokens(self, n_tokens: int) -> np.ndarray:
        """Flat array mapping token position -> 1-based curriculum index."""
        out = np.zeros(n_tokens, dtype=np.int64)
        for j, idx in enumerate(self.curricula, start=1):
            out[idx] = j
        return out

    def to_json(self, corpus: Corpus) -> str:
        """The plan with every token as its [sentence, token-in-sentence]
        pair, keys sorted. Each curriculum is dumped ``TOKEN_BLOCK_ROWS``
        pairs at a time, so no whole-corpus list of pairs is built."""
        offsets = corpus.offsets
        curricula = []
        for idx in self.curricula:
            chunks = []
            for lo in range(0, len(idx), TOKEN_BLOCK_ROWS):
                block = idx[lo : lo + TOKEN_BLOCK_ROWS]
                sentence = np.searchsorted(offsets, block, side="right") - 1
                chunks.append(json.dumps(np.stack([sentence, block - offsets[sentence]], axis=1).tolist())[1:-1])
            curricula.append("[" + ", ".join(chunks) + "]")
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "curricula"}
        # "curricula" sorts before every other field name
        return '{"curricula": [' + ", ".join(curricula) + "], " + json.dumps(rest, sort_keys=True)[1:]


def check_power_law(tau: float, eta: int) -> None:
    """The power-law selector's range rule: tau in (0, 1), eta >= 1."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")


def build_plan(
    difficulty: DifficultyTable, corpus: Corpus, tau: float, eta: int
) -> CurriculumPlan:
    """Partition tokens into eta curricula by the power-law selector.

    Positives are ordered by ascending difficulty (ties by token position);
    curriculum j takes the next min(floor(tau^j * T_p), remaining) of them
    for j < eta and the last curriculum takes whatever remains. All
    unlabeled tokens join curriculum 1. eta == 1 puts every token there.
    """
    check_power_law(tau, eta)
    labels = corpus.distant_array()
    if difficulty.scores.shape[0] != len(labels):
        raise ValueError("difficulty table does not cover the corpus")
    unlabeled = np.flatnonzero(labels == 0)
    positives = np.flatnonzero(labels > 0)
    order = np.lexsort((positives, difficulty.scores[positives]))
    positives = positives[order]
    t_p, t_u = len(positives), len(unlabeled)

    counts: list[int] = []
    remaining = t_p
    for _j in range(1, eta):
        n_j = min(int(np.floor(tau**_j * t_p)), remaining)
        counts.append(n_j)
        remaining -= n_j
    counts.append(remaining)

    curricula: list[np.ndarray] = []
    cursor = 0
    for j, n_j in enumerate(counts):
        chunk = positives[cursor : cursor + n_j]
        cursor += n_j
        if j == 0:
            chunk = np.concatenate([unlabeled, chunk])
        curricula.append(chunk.astype(np.int64))
    return CurriculumPlan(
        tau=tau,
        eta=eta,
        t_u=t_u,
        t_p=t_p,
        curricula=tuple(curricula),
        positive_counts=tuple(counts),
    )


def single_curriculum_plan(corpus: Corpus, tau: float = 0.5) -> CurriculumPlan:
    """Degenerate plan with every token in C_1 (the no-curriculum setting)."""
    labels = corpus.distant_array()
    all_idx = np.arange(len(labels), dtype=np.int64)
    ordered = np.concatenate([all_idx[labels == 0], all_idx[labels > 0]])
    return CurriculumPlan(
        tau=tau,
        eta=1,
        t_u=int(np.sum(labels == 0)),
        t_p=int(np.sum(labels > 0)),
        curricula=(ordered,),
        positive_counts=(int(np.sum(labels > 0)),),
    )


# --- staged training ---------------------------------------------------------


@dataclass(frozen=True)
class StageSchedule:
    stage_epochs: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 32
    conf_mpu: ConfMpuConfig = ConfMpuConfig()

    def __post_init__(self) -> None:
        if self.stage_epochs < 1 or self.batch_size < 1:
            raise ValueError("stage_epochs and batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass(frozen=True)
class SelfTrainConfig:
    rounds: int = 3
    epochs: int = 2
    sharpen: float = 2.0
    learning_rate: float = 5e-4
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("rounds, epochs and batch_size must be positive")
        if not (0 < self.sharpen < math.inf and 0 < self.learning_rate < math.inf):
            raise ValueError("sharpen and learning_rate must be positive and finite")


def _mean_risk(row_loss: Callable, targets: np.ndarray) -> BatchRisk:
    """Batch risk as the mean of ``row_loss(probs, targets[positions])``."""

    def batch_risk(probs: np.ndarray, positions: np.ndarray):
        values, grads = row_loss(probs, targets[positions])
        n = len(values)
        return float(values.sum() / n), grads / n, 0

    return batch_risk


def _run_stages(
    corpus: Corpus,
    plan: CurriculumPlan,
    schedule: StageSchedule,
    seed: int,
    vocab: Vocab,
    model_config: ModelConfig,
    batch_risk: BatchRisk,
    log: list[dict] | None,
    stage_callback: Callable[[int, TokenClassifier], None] | None,
) -> TokenClassifier:
    """Shared stage loop: stage i trains on curricula 1..i.

    Unlabeled tokens live in C_1 and are active from the first stage. The
    optimizer persists across stages. A token entering at curriculum j
    therefore participates in exactly (eta - j + 1) * stage_epochs epochs.
    The classifier has the shape of ``model_config`` and an init seed
    derived from ``seed``.
    """
    init = replace(model_config, seed=derive_seed(seed, "classifier-init"))
    model = TokenClassifier(init, vocab, corpus.label_set.names)
    adam = AdamState.for_model(model, schedule.learning_rate)
    shuffle_rng = make_rng(seed, "train-shuffle")

    labels = corpus.distant_array()
    cur_of = plan.curriculum_of_tokens(len(labels))

    epoch_counter = 0
    for stage in range(1, plan.eta + 1):
        active_mask = (labels == 0) | (cur_of <= stage)
        active_positive_count = int(np.sum(active_mask & (labels > 0)))
        for _ in range(schedule.stage_epochs):
            epoch_counter += 1
            risk_total, clamped_total = train_epoch(
                model, adam, corpus, shuffle_rng, schedule.batch_size, batch_risk,
                f"stage {stage}, epoch {epoch_counter}", lambda p: p[active_mask[p]],
            )
            if log is not None:
                log.append({
                    "stage": stage, "epoch": epoch_counter, "risk_total": risk_total,
                    "clamped_count": clamped_total, "active_positive_count": active_positive_count,
                })
        if stage_callback is not None:
            stage_callback(stage, model)
    return model


def train_baby_step(
    corpus: Corpus,
    plan: CurriculumPlan,
    confidence: ConfidenceTable,
    priors: Priors,
    schedule: StageSchedule,
    seed: int,
    *,
    vocab: Vocab,
    model_config: ModelConfig,
    log: list[dict] | None = None,
    stage_callback: Callable[[int, TokenClassifier], None] | None = None,
) -> TokenClassifier:
    """Train a fresh classifier through the curriculum with the
    confidence-based PU risk; returns the final-stage model."""
    labels = corpus.distant_array()
    lam = confidence.lam
    if len(lam) != len(labels):
        raise ValueError("confidence table does not cover the corpus")

    def batch_risk(probs: np.ndarray, positions: np.ndarray):
        breakdown, dprobs = conf_mpu_risk(
            probs, labels[positions], lam[positions], priors, schedule.conf_mpu
        )
        return breakdown.total, dprobs, breakdown.clamped_count

    return _run_stages(
        corpus, plan, schedule, seed, vocab, model_config, batch_risk, log, stage_callback
    )


def train_no_curriculum(
    corpus: Corpus,
    confidence: ConfidenceTable,
    priors: Priors,
    schedule: StageSchedule,
    seed: int,
    *,
    total_epochs: int,
    vocab: Vocab,
    model_config: ModelConfig,
    log: list[dict] | None = None,
    stage_callback: Callable[[int, TokenClassifier], None] | None = None,
) -> TokenClassifier:
    """PU training on everything at once (the curriculum ablation).

    Equivalent to train_baby_step with a single curriculum; ``total_epochs``
    matches the epoch budget of a staged run, e.g. eta * stage_epochs.
    """
    plan = single_curriculum_plan(corpus)
    sched = replace(schedule, stage_epochs=total_epochs)
    return train_baby_step(
        corpus, plan, confidence, priors, sched, seed,
        vocab=vocab, model_config=model_config, log=log, stage_callback=stage_callback,
    )


def train_no_confmpu(
    corpus: Corpus,
    plan: CurriculumPlan,
    schedule: StageSchedule,
    seed: int,
    *,
    vocab: Vocab,
    model_config: ModelConfig,
    log: list[dict] | None = None,
    stage_callback: Callable[[int, TokenClassifier], None] | None = None,
) -> TokenClassifier:
    """Baby-step training with the plain mean loss (the PU ablation):
    unlabeled tokens are treated as class 0."""
    labels = corpus.distant_array()

    def batch_risk(probs: np.ndarray, positions: np.ndarray):
        return *pn_risk(probs, labels[positions], schedule.conf_mpu.loss), 0

    return _run_stages(
        corpus, plan, schedule, seed, vocab, model_config, batch_risk, log, stage_callback
    )


def train_soft_label(
    corpus: Corpus,
    plan: CurriculumPlan,
    targets: np.ndarray,
    schedule: StageSchedule,
    seed: int,
    *,
    vocab: Vocab,
    model_config: ModelConfig,
    log: list[dict] | None = None,
    stage_callback: Callable[[int, TokenClassifier], None] | None = None,
) -> TokenClassifier:
    """Baby-step training against per-token soft targets with KL loss
    (curriculum over ensembled labels instead of distant labels)."""
    if targets.shape[0] != corpus.n_tokens:
        raise ValueError("soft targets do not cover the corpus")
    return _run_stages(
        corpus, plan, schedule, seed, vocab, model_config,
        _mean_risk(kl_soft_rows, targets), log, stage_callback,
    )


# --- self-training -------------------------------------------------------------


def sharpen(dist: np.ndarray, exponent: float) -> np.ndarray:
    """Raise probabilities to a power and renormalize; exponent 1 is the
    identity, larger exponents concentrate mass on the argmax."""
    powered = np.asarray(dist, dtype=np.float64) ** exponent
    return np.divide(powered, reduce_classes(np.add, powered)[..., None], out=powered)


def self_train(
    model: TokenClassifier,
    corpus: Corpus,
    cfg: SelfTrainConfig,
    seed: int,
    *,
    log: list[dict] | None = None,
) -> TokenClassifier:
    """Teacher/student rounds over the model's own sharpened soft labels.

    Each round freezes the current model as the teacher, sharpens its
    per-token distributions, and trains a student (initialized from the
    teacher, fresh optimizer) with KL loss over all tokens.
    """
    student = model
    for round_idx in range(cfg.rounds):
        teacher = student
        targets = sharpen(teacher.corpus_probs(corpus), cfg.sharpen)
        if not np.all(np.isfinite(targets)):
            raise NumericError(f"non-finite self-training targets in round {round_idx + 1}")
        student = teacher.copy()
        adam = AdamState.for_model(student, cfg.learning_rate)
        shuffle_rng = make_rng(seed, "selftrain-shuffle", round_idx)
        batch_risk = _mean_risk(kl_soft_rows, targets)
        for epoch in range(cfg.epochs):
            kl_risk, _ = train_epoch(
                student, adam, corpus, shuffle_rng, cfg.batch_size, batch_risk,
                f"self-training round {round_idx + 1}",
            )
            if log is not None:
                log.append({"round": round_idx + 1, "epoch": epoch + 1, "kl_risk": kl_risk})
    return student
