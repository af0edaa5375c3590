"""Span-level evaluation (strict and relaxed), per-curriculum noise
analysis, and difficulty-distribution summaries.

Strict credit requires an exact (start, end, type) match. Relaxed credit
needs at least one overlapping token with a same-type span on the other
side; the precision and recall numerators are counted independently, so one
prediction overlapping two gold spans recalls both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .corpus import Corpus, LabelSet, Span, extract_spans
from .errors import CompatibilityError
from .model import TokenClassifier, predict
from .curriculum import CurriculumPlan
from .voters import DifficultyTable


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    tp_precision: int
    tp_recall: int
    pred_count: int
    gold_count: int

    @staticmethod
    def from_counts(tp_precision: int, tp_recall: int, pred: int, gold: int) -> "Metrics":
        p = tp_precision / pred if pred else 0.0
        r = tp_recall / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return Metrics(p, r, f1, tp_precision, tp_recall, pred, gold)

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp_precision": self.tp_precision,
            "tp_recall": self.tp_recall,
            "pred_spans": self.pred_count,
            "gold_spans": self.gold_count,
        }


def strict_prf(
    pred: Sequence[Sequence[Span]], gold: Sequence[Sequence[Span]]
) -> Metrics:
    """Exact-match span metrics; a true positive agrees in start, end and
    label. 0/0 ratios are defined as 0."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold must cover the same sentences")
    tp = 0
    n_pred = 0
    n_gold = 0
    for p_spans, g_spans in zip(pred, gold):
        g_set = set(g_spans)
        tp += sum(1 for s in p_spans if s in g_set)
        n_pred += len(p_spans)
        n_gold += len(g_spans)
    return Metrics.from_counts(tp, tp, n_pred, n_gold)


def relaxed_prf(
    pred: Sequence[Sequence[Span]],
    gold: Sequence[Sequence[Span]],
    require_type_match: bool = True,
) -> Metrics:
    """Overlap-based span metrics.

    A predicted span scores for precision if it overlaps any gold span (of
    the same type unless disabled); a gold span scores for recall if any
    such prediction overlaps it.
    """
    if len(pred) != len(gold):
        raise ValueError("pred and gold must cover the same sentences")

    def compatible(a: Span, b: Span) -> bool:
        return a.overlaps(b) and (not require_type_match or a.label == b.label)

    tp_p = 0
    tp_r = 0
    n_pred = 0
    n_gold = 0
    for p_spans, g_spans in zip(pred, gold):
        tp_p += sum(1 for s in p_spans if any(compatible(s, g) for g in g_spans))
        tp_r += sum(1 for g in g_spans if any(compatible(p, g) for p in p_spans))
        n_pred += len(p_spans)
        n_gold += len(g_spans)
    return Metrics.from_counts(tp_p, tp_r, n_pred, n_gold)


@dataclass(frozen=True)
class EvalReport:
    strict: Metrics
    relaxed: Metrics
    strict_per_type: dict[str, Metrics]
    relaxed_per_type: dict[str, Metrics]

    def to_dict(self) -> dict:
        return {
            "strict": self.strict.to_dict(),
            "relaxed": self.relaxed.to_dict(),
            "strict_per_type": {t: m.to_dict() for t, m in self.strict_per_type.items()},
            "relaxed_per_type": {t: m.to_dict() for t, m in self.relaxed_per_type.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def evaluate_spans(
    pred: Sequence[Sequence[Span]],
    gold: Sequence[Sequence[Span]],
    label_set: LabelSet,
    require_type_match: bool = True,
) -> EvalReport:
    """Assemble overall (micro-averaged) and per-type metric families."""
    strict_per_type = {}
    relaxed_per_type = {}
    for type_id in range(1, label_set.k + 1):
        p_t = [[s for s in spans if s.label == type_id] for spans in pred]
        g_t = [[s for s in spans if s.label == type_id] for spans in gold]
        name = label_set.name_of(type_id)
        strict_per_type[name] = strict_prf(p_t, g_t)
        relaxed_per_type[name] = relaxed_prf(p_t, g_t, require_type_match)
    return EvalReport(
        strict=strict_prf(pred, gold),
        relaxed=relaxed_prf(pred, gold, require_type_match),
        strict_per_type=strict_per_type,
        relaxed_per_type=relaxed_per_type,
    )


def evaluate_labels(
    pred_labels: Sequence[np.ndarray | Sequence[int]],
    corpus: Corpus,
    require_type_match: bool = True,
) -> EvalReport:
    """Evaluate per-token label ids against the corpus gold labels."""
    if not corpus.has_gold():
        raise CompatibilityError("evaluation needs gold labels on every token")
    if len(pred_labels) != len(corpus.sentences):
        raise ValueError("prediction count does not match corpus sentences")
    pred_spans = [extract_spans(labels) for labels in pred_labels]
    gold_spans = [extract_spans(s.gold_labels()) for s in corpus.sentences]
    return evaluate_spans(pred_spans, gold_spans, corpus.label_set, require_type_match)


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
        n = len(pos)
        if n == 0:
            rows.append(
                {
                    "curriculum": j,
                    "positives": 0,
                    "errors": 0,
                    "error_rate": None,
                    "mean_difficulty": None,
                }
            )
            continue
        errors = int(np.sum(gold[pos] != distant[pos]))
        rows.append(
            {
                "curriculum": j,
                "positives": n,
                "errors": errors,
                "error_rate": errors / n,
                "mean_difficulty": float(difficulty.scores[pos].mean()),
            }
        )
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
