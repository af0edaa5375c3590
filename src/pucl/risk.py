"""Loss functions and empirical risk estimators.

Every estimator returns its value together with per-token gradients with
respect to the predicted class probabilities, already scaled by the
estimator's own weights, so that the model's backward pass only has to
chain them through the network.

The confidence-based PU estimator treats tokens with a positive distant
label as labeled positives of their class and distant-0 tokens as unlabeled.
Per entity class i with per-batch count T_i and prior pi_i:

    positive_term_i = (pi_i / T_i) * sum_j max{0, l(f_j, i)
                      + [lam_j > eps] * l(f_j, 0) / lam_j - l(f_j, 0)}

and the unlabeled term averages [lam_j <= eps] * l(f_j, 0) over the
distant-0 tokens. The total is gamma * sum_i positive_term_i + unlabeled
term. The max clamp is applied per token; gradients are subgradients (zero
through clamped tokens) and the confidence lam is treated as a constant.

The estimator makes one pass over the batch: two loss evaluations for every
row, then masks. Per-class sums are ``np.sum`` over each class's masked rows,
which sums pairwise in batch order as a per-class gather does;
``np.bincount`` would sum sequentially and round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .corpus import Corpus
from .model import reduce_classes

PROB_FLOOR = 1e-12

LossKind = Literal["ce", "mae"]


# --- per-distribution losses ----------------------------------------------


def _check_loss_kind(kind: str) -> None:
    if kind not in ("ce", "mae"):
        raise ValueError(f"loss kind must be 'ce' or 'mae', got {kind!r}")


def _loss_columns(
    probs: np.ndarray, targets: np.ndarray | int, kind: LossKind
) -> tuple[np.ndarray, np.ndarray | float, float]:
    """A loss against class ids ``targets`` (an array, or one id for every
    row): the per-row values, the gradient in each row's target column,
    and the gradient in every other column, which is a constant. CE reads
    only the target column; MAE's value sums every column's term left to
    right (``reduce_classes``)."""
    at_target = (slice(None), targets) if isinstance(targets, int) else (np.arange(len(probs)), targets)
    if kind == "ce":
        p_t = np.maximum(probs[at_target], PROB_FLOOR)
        return -np.log(p_t), -1.0 / p_t, 0.0
    terms = np.abs(probs)  # |onehot - p| off the target column
    terms[at_target] = np.abs(1.0 - probs[at_target])
    return reduce_classes(np.add, terms), -1.0, 1.0


def ce_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood of the target class, rows at a time.

    Probabilities are floored at 1e-12 so the value and gradient stay finite.
    """
    values, target_grad, _ = _loss_columns(probs, targets, "ce")
    grads = np.zeros_like(probs)
    grads[np.arange(len(probs)), targets] = target_grad
    return values, grads


def mae_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L1 distance to the one-hot target: 2 * (1 - p_target) on a valid
    distribution, bounded by [0, 2]."""
    values, _, _ = _loss_columns(probs, targets, "mae")
    grads = np.ones_like(probs)
    grads[np.arange(len(probs)), targets] = -1.0
    return values, grads


def loss_rows(
    probs: np.ndarray, targets: np.ndarray, kind: LossKind
) -> tuple[np.ndarray, np.ndarray]:
    _check_loss_kind(kind)
    return ce_rows(probs, targets) if kind == "ce" else mae_rows(probs, targets)


def kl_soft_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KL(target || predicted) per row, probabilities floored inside logs."""
    t = np.asarray(targets)
    p = np.maximum(probs, PROB_FLOOR)
    logt = np.log(np.maximum(t, PROB_FLOOR))
    values = reduce_classes(np.add, t * (logt - np.log(p)))
    grads = -t / p
    return values, grads


# --- priors ------------------------------------------------------------------


@dataclass(frozen=True)
class Priors:
    """Per-entity-class priors pi_1..pi_k; each positive, summing below 1."""

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 1 or len(pi) < 1:
            raise ValueError("priors must be a non-empty vector")
        if not np.all(pi > 0):  # NaN fails this test; an infinity fails the sum's
            raise ValueError("every class prior must be positive")
        if pi.sum() >= 1.0:
            raise ValueError(f"priors must sum below 1, got {pi.sum():.6f}")

    @property
    def k(self) -> int:
        return len(self.pi)


def estimate_priors(corpus: Corpus) -> Priors:
    """pi_i = fraction of tokens distantly labeled i, over all tokens."""
    labels = corpus.distant_array()
    k = corpus.label_set.k
    counts = np.bincount(labels, minlength=k + 1)
    missing = [corpus.label_set.name_of(i) for i in range(1, k + 1) if counts[i] == 0]
    if missing:
        raise ValueError(f"no distantly labeled tokens for classes: {', '.join(missing)}")
    return Priors(counts[1:] / len(labels))


# --- positive-negative risk with negative sampling ---------------------------


def sample_negatives(
    labels: np.ndarray, keep_negative_ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Negative sampling: a keep mask over ``labels`` that keeps every
    positive token and each distant-0 token with probability
    ``keep_negative_ratio``. Below ratio 1 it draws one uniform per token,
    positives included, from ``rng``; at ratio 1 it draws nothing."""
    if not 0.0 < keep_negative_ratio <= 1.0:
        raise ValueError(f"keep_negative_ratio must be in (0, 1], got {keep_negative_ratio}")
    labels = np.asarray(labels)
    if keep_negative_ratio >= 1.0:
        return np.ones(len(labels), dtype=bool)
    return (labels > 0) | (rng.random(len(labels)) < keep_negative_ratio)


def pn_risk(
    probs: np.ndarray, labels: np.ndarray, loss: LossKind = "ce"
) -> tuple[float, np.ndarray]:
    """Mean multi-class loss over the rows given, with per-row gradients.

    Negative sampling happens before the forward pass (``sample_negatives``),
    so every row given contributes.
    """
    count = len(labels)
    if count == 0:
        raise ValueError("pn_risk needs at least one row")
    values, grads = loss_rows(probs, np.asarray(labels), loss)
    return float(values.sum() / count), grads / count


# --- confidence-based multi-class PU risk ------------------------------------


@dataclass(frozen=True)
class ConfMpuConfig:
    epsilon: float = 0.5
    gamma: float = 1.0
    loss: LossKind = "mae"
    aggregate_clamp: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        _check_loss_kind(self.loss)


@dataclass(frozen=True)
class RiskBreakdown:
    """total = gamma * sum(positive_terms) + unlabeled_term."""

    total: float
    positive_terms: np.ndarray
    unlabeled_term: float
    clamped_count: int
    empty_classes: tuple[int, ...]
    gamma: float


def conf_mpu_risk(
    probs: np.ndarray,
    labels: np.ndarray,
    lam: np.ndarray,
    priors: Priors,
    cfg: ConfMpuConfig,
) -> tuple[RiskBreakdown, np.ndarray]:
    """Confidence-weighted PU risk over one batch, in one pass over its rows.

    ``labels`` are distant labels in 0..k (0 = unlabeled), ``lam`` the
    per-token entity-confidence scores in [0, 1]. Class counts T_i are
    batch-local. Classes absent from the batch contribute 0 and are reported
    in ``empty_classes``; an all-clamped batch is legal.

    One ``active`` mask picks the rows with a gradient: positive rows past
    the clamp (per token, or per class with ``aggregate_clamp``) and
    unlabeled rows at or below the gate. A row's gradient is l(f,y)'s
    plus ``coeff`` times l(f,0)'s, scaled by its class's weight. Both
    losses' gradients are one constant off their target column, so the
    gradient is built from three column vectors: column 0, column y and
    every other column; on unlabeled rows the first two are one.
    """
    labels = np.asarray(labels)
    lam = np.asarray(lam, dtype=np.float64)
    n = len(labels)
    if probs.shape[0] != n or len(lam) != n:
        raise ValueError("probs, labels and lam must agree in length")
    k = priors.k
    if probs.shape[1] != k + 1:
        raise ValueError(f"probs have {probs.shape[1]} classes, priors imply {k + 1}")
    if labels.dtype.kind not in "iu" or (n and (labels.min() < 0 or labels.max() > k)):
        raise ValueError(f"distant labels must be class ids in 0..{k}")
    if n and not (lam.min() >= 0.0 and lam.max() <= 1.0):  # a NaN fails both tests
        raise ValueError("confidence scores must lie in [0, 1]")

    ly_val, ly_grad, off_grad = _loss_columns(probs, labels, cfg.loss)
    l0_val, l0_grad, _ = _loss_columns(probs, 0, cfg.loss)
    positive = labels > 0
    over = lam > cfg.epsilon
    # coefficient of l(f,0): 1/lam above the threshold (True / lam), minus the
    # subtracted term on positive rows; 0 on gated-in unlabeled rows, where
    # l(f,y) = l(f,0)
    coeff = over / np.where(over, lam, 1.0) - positive
    inner = ly_val + coeff * l0_val

    counts = np.bincount(labels, minlength=k + 1)
    t_0 = int(counts[0])
    scale = np.divide(priors.pi, counts[1:], out=np.zeros(k), where=counts[1:] > 0)
    of_class = [labels == i for i in range(1, k + 1)]
    if cfg.aggregate_clamp:
        kept = np.array([False] + [inner[rows].sum() > 0.0 for rows in of_class])[labels]
    else:
        kept = inner > 0.0
    active = np.where(positive, kept, ~over)
    positive_terms = scale * np.array([inner[rows & active].sum() for rows in of_class])
    unlabeled_term = float(l0_val[active & ~positive].sum() / t_0) if t_0 else 0.0

    # per row, (coeff * l(f,0)'s gradient + l(f,y)'s gradient) times
    # gamma * pi_y / T_y on positive rows and over t_0 on unlabeled ones,
    # column by column; 0 on inactive rows
    columns = np.empty((2 if cfg.loss == "ce" else 3, n))
    np.multiply(coeff, l0_grad, out=columns[0])
    columns[0] += np.where(positive, off_grad, ly_grad)
    np.multiply(coeff, np.where(positive, off_grad, l0_grad), out=columns[1])
    columns[1] += ly_grad
    if len(columns) == 3:
        np.multiply(coeff, off_grad, out=columns[2])
        columns[2] += off_grad
    weight, divisor = np.empty(k + 1), np.ones(k + 1)
    weight[0], weight[1:], divisor[0] = 1.0, cfg.gamma * scale, t_0
    columns *= weight[labels]
    columns /= divisor[labels]
    columns = np.where(active, columns, 0.0)
    # CE's gradient off columns 0 and y is 0 * coeff + 0.0, scaled: +0.0
    grads = np.zeros((n, k + 1)) if len(columns) == 2 else np.repeat(columns[2][:, None], k + 1, axis=1)
    grads[:, 0] = columns[0]
    grads[np.arange(n), labels] = columns[1]

    total = cfg.gamma * float(positive_terms.sum()) + unlabeled_term
    breakdown = RiskBreakdown(
        total=total,
        positive_terms=positive_terms,
        unlabeled_term=unlabeled_term,
        clamped_count=int(np.sum(positive & ~active)),
        empty_classes=tuple(int(i) + 1 for i in np.flatnonzero(counts[1:] == 0)),
        gamma=cfg.gamma,
    )
    return breakdown, grads
