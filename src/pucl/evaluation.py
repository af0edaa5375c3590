"""Span-level evaluation (strict and relaxed), per-curriculum noise
analysis, and difficulty-distribution summaries.

Strict credit requires an exact (start, end, type) match. Relaxed credit
needs at least one overlapping token with a same-type span on the other
side; the precision and recall numerators are counted independently, so one
prediction overlapping two gold spans recalls both. Spans are found with
``corpus.find_spans`` in the flat prediction and gold arrays and counted
with numpy; ``tests/oracles.py`` holds the span-list references.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, TYPE_CHECKING

import numpy as np

from .corpus import Corpus, find_spans
from .errors import CompatibilityError
from .model import TokenClassifier, predict

if TYPE_CHECKING:
    from .curriculum import CurriculumPlan
    from .voters import DifficultyTable


@dataclass(frozen=True)
class Metrics:
    """Span precision, recall and F1 with their counts; ``report.json``
    writes each field under its own name."""

    precision: float
    recall: float
    f1: float
    tp_precision: int
    tp_recall: int
    pred_spans: int
    gold_spans: int

    @staticmethod
    def from_counts(tp_precision: int, tp_recall: int, pred: int, gold: int) -> "Metrics":
        p = tp_precision / pred if pred else 0.0
        r = tp_recall / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return Metrics(p, r, f1, tp_precision, tp_recall, pred, gold)


@dataclass(frozen=True)
class EvalReport:
    strict: Metrics
    relaxed: Metrics
    strict_per_type: dict[str, Metrics]
    relaxed_per_type: dict[str, Metrics]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _any_marked(starts: np.ndarray, ends: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Whether any token of each span [start, end] is marked."""
    cum = np.concatenate([[0], np.cumsum(marked)])
    return cum[ends + 1] > cum[starts]


def evaluate_labels(pred: np.ndarray, corpus: Corpus, require_type_match: bool = True) -> EvalReport:
    """Evaluate flat per-token label ids, in corpus token order, against the
    corpus gold labels, overall (micro-averaged) and per type.

    A predicted span is a strict hit if a gold span has its start, end and
    label, and a relaxed hit if any of its tokens carries its label on the
    gold side (any entity label, with ``require_type_match`` off); gold
    spans are scored against the prediction the same way. The per-type
    families always match types, as the relaxed reference does on spans of
    one type.
    """
    if not corpus.has_gold():
        raise CompatibilityError("evaluation needs gold labels on every token")
    pred = np.asarray(pred, dtype=np.int64)
    if pred.shape != (corpus.n_tokens,):
        raise ValueError(f"prediction shape {pred.shape} does not match the corpus's {corpus.n_tokens} tokens")
    offsets = corpus.offsets
    gold = corpus.gold_array()
    p_start, p_end = find_spans(pred, offsets)
    g_start, g_end = find_spans(gold, offsets)
    p_label, g_label = pred[p_start], gold[g_start]
    gold_end = np.full(len(gold), -1)  # the end of the gold span that starts at each token, or -1
    gold_end[g_start] = g_end
    strict = (gold_end[p_start] == p_end) & (gold[p_start] == p_label)
    same = pred == gold
    p_typed, g_typed = _any_marked(p_start, p_end, same), _any_marked(g_start, g_end, same)
    if require_type_match:
        p_relaxed, g_relaxed = p_typed, g_typed
    else:
        p_relaxed, g_relaxed = _any_marked(p_start, p_end, gold != 0), _any_marked(g_start, g_end, pred != 0)

    names = corpus.label_set.names

    def per_type(labels: np.ndarray, hits: np.ndarray | None = None) -> list[int]:
        return np.bincount(labels if hits is None else labels[hits], minlength=len(names) + 1).tolist()

    n_pred, n_gold = per_type(p_label), per_type(g_label)
    tp, tp_p, tp_r = per_type(p_label, strict), per_type(p_label, p_typed), per_type(g_label, g_typed)
    return EvalReport(
        Metrics.from_counts(int(strict.sum()), int(strict.sum()), len(p_start), len(g_start)),
        Metrics.from_counts(int(p_relaxed.sum()), int(g_relaxed.sum()), len(p_start), len(g_start)),
        {name: Metrics.from_counts(tp[t], tp[t], n_pred[t], n_gold[t]) for t, name in enumerate(names, 1)},
        {name: Metrics.from_counts(tp_p[t], tp_r[t], n_pred[t], n_gold[t]) for t, name in enumerate(names, 1)},
    )


def evaluate(model: TokenClassifier, corpus: Corpus, require_type_match: bool = True) -> EvalReport:
    """Predict with the model and score against gold labels."""
    return evaluate_labels(predict(model, corpus), corpus, require_type_match)


# --- curriculum noise analysis ---------------------------------------------


@dataclass(frozen=True)
class CurriculumAnalysis:
    """Per-curriculum positive-token noise and difficulty summary.

    error_rate is None (not 0) for curricula without positive tokens.
    """

    rows: tuple[dict, ...]

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("curriculum,positives,errors,error_rate,mean_difficulty\n")
        for row in self.rows:
            rate = "" if row["error_rate"] is None else f"{row['error_rate']:.17g}"
            mean_h = "" if row["mean_difficulty"] is None else f"{row['mean_difficulty']:.17g}"
            stream.write(f"{row['curriculum']},{row['positives']},{row['errors']},{rate},{mean_h}\n")


def curriculum_error_analysis(
    plan: CurriculumPlan, corpus: Corpus, difficulty: DifficultyTable
) -> CurriculumAnalysis:
    """Per curriculum, over its positive-labeled tokens: the fraction whose
    distant label is a positive error (false positive or wrong type)
    against gold, and the mean difficulty score."""
    distant = corpus.distant_array()
    gold = corpus.gold_array()
    rows = []
    for j, idx in enumerate(plan.curricula, start=1):
        pos = idx[distant[idx] > 0]
        errors = int(np.sum(gold[pos] != distant[pos]))
        rows.append({
            "curriculum": j, "positives": len(pos), "errors": errors,
            "error_rate": errors / len(pos) if len(pos) else None,
            "mean_difficulty": float(difficulty.scores[pos].mean()) if len(pos) else None,
        })
    return CurriculumAnalysis(tuple(rows))


# --- difficulty distribution -------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("bin_lo,bin_hi,count\n")
        for i, count in enumerate(self.counts):
            stream.write(f"{self.edges[i]:.17g},{self.edges[i + 1]:.17g},{int(count)}\n")


def difficulty_histogram(scores: np.ndarray, bins: int) -> Histogram:
    """Equal-width histogram over [0, max score]; degenerate all-zero input
    occupies the first bin."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    hi = float(scores.max()) if len(scores) else 0.0
    edges = np.linspace(0.0, hi if hi > 0 else 1.0, bins + 1)
    counts, _ = np.histogram(scores, bins=edges)
    return Histogram(edges=edges, counts=counts)
