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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .corpus import Corpus

PROB_FLOOR = 1e-12

LossKind = Literal["ce", "mae"]


# --- per-distribution losses ----------------------------------------------


def _check_loss_kind(kind: str) -> None:
    if kind not in ("ce", "mae"):
        raise ValueError(f"loss kind must be 'ce' or 'mae', got {kind!r}")


def ce_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood of the target class, rows at a time.

    Probabilities are floored at 1e-12 so the value and gradient stay finite.
    """
    n = probs.shape[0]
    p_t = np.maximum(probs[np.arange(n), targets], PROB_FLOOR)
    values = -np.log(p_t)
    grads = np.zeros_like(probs)
    grads[np.arange(n), targets] = -1.0 / p_t
    return values, grads


def mae_rows(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L1 distance to the one-hot target: 2 * (1 - p_target) on a valid
    distribution, bounded by [0, 2]."""
    n = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), targets] = 1.0
    values = np.abs(onehot - probs).sum(axis=1)
    grads = np.ones_like(probs)
    grads[np.arange(n), targets] = -1.0
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
    values = (t * (logt - np.log(p))).sum(axis=1)
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
        if np.any(pi <= 0):
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
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
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
    """Confidence-weighted PU risk over one batch.

    ``labels`` are distant labels (0 = unlabeled), ``lam`` the per-token
    entity-confidence scores in [0, 1]. Class counts T_i are batch-local.
    Classes absent from the batch contribute 0 and are reported in
    ``empty_classes``; an all-clamped batch is legal.
    """
    labels = np.asarray(labels)
    lam = np.asarray(lam, dtype=np.float64)
    if probs.shape[0] != len(labels) or len(lam) != len(labels):
        raise ValueError("probs, labels and lam must agree in length")
    k = priors.k
    if probs.shape[1] != k + 1:
        raise ValueError(f"probs have {probs.shape[1]} classes, priors imply {k + 1}")
    if np.any((lam < 0.0) | (lam > 1.0)):
        raise ValueError("confidence scores must lie in [0, 1]")

    grads = np.zeros_like(probs)
    positive_terms = np.zeros(k)
    clamped = 0
    empty: list[int] = []

    for i in range(1, k + 1):
        idx = np.flatnonzero(labels == i)
        if len(idx) == 0:
            empty.append(i)
            continue
        t_i = len(idx)
        p = probs[idx]
        li_val, li_grad = loss_rows(p, np.full(t_i, i), cfg.loss)
        l0_val, l0_grad = loss_rows(p, np.zeros(t_i, dtype=np.int64), cfg.loss)
        lam_i = lam[idx]
        over = lam_i > cfg.epsilon
        # coefficient of l(f,0): 1/lam above the threshold, minus the
        # subtracted term everywhere
        coeff = np.where(over, np.divide(1.0, lam_i, where=over, out=np.ones_like(lam_i)), 0.0) - 1.0
        inner = li_val + coeff * l0_val
        scale = priors.pi[i - 1] / t_i
        if cfg.aggregate_clamp:
            total_i = inner.sum()
            if total_i > 0.0:
                positive_terms[i - 1] = scale * total_i
                grads[idx] += cfg.gamma * scale * (li_grad + coeff[:, None] * l0_grad)
            else:
                clamped += t_i
        else:
            active = inner > 0.0
            clamped += int((~active).sum())
            positive_terms[i - 1] = scale * inner[active].sum()
            rows = idx[active]
            grads[rows] += cfg.gamma * scale * (
                li_grad[active] + coeff[active, None] * l0_grad[active]
            )

    unlabeled_term = 0.0
    idx0 = np.flatnonzero(labels == 0)
    if len(idx0) > 0:
        t_0 = len(idx0)
        low = lam[idx0] <= cfg.epsilon
        rows = idx0[low]
        if len(rows) > 0:
            l0_val, l0_grad = loss_rows(probs[rows], np.zeros(len(rows), dtype=np.int64), cfg.loss)
            unlabeled_term = float(l0_val.sum() / t_0)
            grads[rows] += l0_grad / t_0

    total = cfg.gamma * float(positive_terms.sum()) + unlabeled_term
    breakdown = RiskBreakdown(
        total=total,
        positive_terms=positive_terms,
        unlabeled_term=unlabeled_term,
        clamped_count=clamped,
        empty_classes=tuple(empty),
        gamma=cfg.gamma,
    )
    return breakdown, grads
