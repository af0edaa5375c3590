"""Voter ensembles: training, soft-label ensembling, confidence scores, and
pairwise-disagreement difficulty scores.

Voters are small token classifiers trained on the distant labels with a
plain positive-negative risk and negative sampling. Per-voter variability
comes from two sources only: seed-dependent initialization and independent
negative sampling; all voters visit sentences in the same shuffled order.
Difficulty is the mean symmetric KL divergence between the class
distributions of all voter pairs, computed once against the frozen
ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Iterator

import numpy as np

from .corpus import Corpus, Vocab
from .model import TOKEN_BLOCK_ROWS, AdamState, ModelConfig, TokenClassifier, reduce_classes, train_epoch
from .risk import PROB_FLOOR, LossKind, pn_risk, sample_negatives
from .seeding import derive_seed, make_rng


@dataclass(frozen=True)
class VoterConfig:
    """Sparse negative sampling (small keep ratio) is deliberate: it is the
    voters' second source of variability, and the per-voter variance it
    induces on weakly-evidenced tokens is what makes disagreement track
    annotation noise."""

    count: int = 5
    epochs: int = 5
    keep_negative_ratio: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    loss: LossKind = "ce"

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("need at least two voters")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.keep_negative_ratio <= 1.0:
            raise ValueError("keep_negative_ratio must be in (0, 1]")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class VoterEnsemble:
    voters: list[TokenClassifier]

    def __post_init__(self) -> None:
        if len(self.voters) < 2:
            raise ValueError("an ensemble needs at least two voters")
        first = self.voters[0]
        for v in self.voters[1:]:
            if v.vocab != first.vocab or v.label_names != first.label_names:
                raise ValueError("voters must share vocabulary and label set")

    @property
    def vocab(self) -> Vocab:
        return self.voters[0].vocab

    @property
    def size(self) -> int:
        return len(self.voters)


def _train_one_voter(
    corpus: Corpus,
    model_config: ModelConfig,
    cfg: VoterConfig,
    vocab: Vocab,
    seed: int,
    voter_idx: int,
) -> TokenClassifier:
    init_seed = derive_seed(seed, "voter-init", voter_idx)
    model = TokenClassifier(replace(model_config, seed=init_seed), vocab, corpus.label_set.names)
    adam = AdamState.for_model(model, cfg.learning_rate)
    sample_rng = make_rng(seed, "voter-sample", voter_idx)
    # Shared stream: every voter sees the same batch order per epoch.
    shuffle_rng = make_rng(seed, "voter-shuffle")
    labels = corpus.distant_array()

    def sample(positions: np.ndarray) -> np.ndarray:
        return positions[sample_negatives(labels[positions], cfg.keep_negative_ratio, sample_rng)]

    def batch_risk(probs: np.ndarray, positions: np.ndarray):
        return *pn_risk(probs, labels[positions], cfg.loss), 0

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(corpus))
        train_epoch(
            model, adam, corpus, order, cfg.batch_size, batch_risk, f"voter {voter_idx}", sample
        )
    return model


def train_voters(
    corpus: Corpus,
    model_config: ModelConfig,
    voter_config: VoterConfig,
    seed: int,
    vocab: Vocab,
) -> VoterEnsemble:
    """Train V independent voters on the distant labels.

    Voter v derives its initialization and sampling seeds from (seed, v), so
    adding voters never perturbs existing ones. Every voter has the shape
    of ``model_config`` and shares ``vocab``, and so one encoding of the
    corpus.
    """
    if not np.any(corpus.distant_array() > 0):
        raise ValueError("corpus has no positive distant labels; voters cannot train")
    return VoterEnsemble(
        [
            _train_one_voter(corpus, model_config, voter_config, vocab, seed, v)
            for v in range(voter_config.count)
        ]
    )


# --- ensembling and scoring -------------------------------------------------


def pairwise_disagreement(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric KL divergence (mean of both directions), probabilities
    floored at 1e-12 inside the logs."""
    p = np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR)
    q = np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR)
    logratio = np.log(p) - np.log(q)
    return 0.5 * float((p * logratio).sum() + (q * -logratio).sum())


def _voter_blocks(ensemble: VoterEnsemble, corpus: Corpus) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of ``TOKEN_BLOCK_ROWS`` tokens, in order: its slice of the
    flat token order and the [V, block tokens, n_classes] stack of the
    voters' distributions (``rows_probs``: the bytes of ``corpus_probs``)."""
    rows = [voter.encode_corpus(corpus) for voter in ensemble.voters]
    for block in (slice(lo, lo + TOKEN_BLOCK_ROWS) for lo in range(0, corpus.n_tokens, TOKEN_BLOCK_ROWS)):
        yield block, np.stack([voter.rows_probs(r[block]) for voter, r in zip(ensemble.voters, rows)])


class ConfidenceTable:
    """Per-token ensemble distribution and entity-confidence score."""

    def __init__(self, corpus: Corpus, distributions: np.ndarray):
        if distributions.shape[0] != corpus.n_tokens:
            raise ValueError("distribution count does not match corpus tokens")
        self.distributions = distributions
        self.lam = reduce_classes(np.add, distributions[:, 1:])


class DifficultyTable:
    """Per-token difficulty score H >= 0, and the confidence table of the
    same voter pass when ``difficulty_scores`` built it."""

    def __init__(
        self, corpus: Corpus, scores: np.ndarray, confidence: ConfidenceTable | None = None
    ):
        if scores.shape[0] != corpus.n_tokens:
            raise ValueError("score count does not match corpus tokens")
        if np.any(~np.isfinite(scores)) or np.any(scores < 0):
            raise ValueError("difficulty scores must be finite and non-negative")
        self.scores = scores
        self.confidence = confidence


def confidence_table(ensemble: VoterEnsemble, corpus: Corpus) -> ConfidenceTable:
    mean = np.empty((corpus.n_tokens, corpus.label_set.n_classes))
    for block, dists in _voter_blocks(ensemble, corpus):
        mean[block] = dists.mean(axis=0)
    return ConfidenceTable(corpus, mean)


def difficulty_scores(ensemble: VoterEnsemble, corpus: Corpus) -> DifficultyTable:
    """Mean symmetric KL disagreement over all unordered voter pairs, per
    token.

    The voters run over the corpus once, one block of ``TOKEN_BLOCK_ROWS``
    tokens at a time, so only the per-token outputs span the corpus. The
    same pass gives the ensemble mean, returned as the table's
    ``confidence`` (equal to ``confidence_table``), so a caller that needs
    both scores the corpus once.
    """
    if ensemble.size < 2:
        raise ValueError("difficulty scores need at least two voters")
    v = ensemble.size
    mean = np.empty((corpus.n_tokens, corpus.label_set.n_classes))
    total = np.zeros(corpus.n_tokens)
    for block, dists in _voter_blocks(ensemble, corpus):
        mean[block] = dists.mean(axis=0)
        floored = np.maximum(dists, PROB_FLOOR, out=dists)
        logs = np.log(floored)
        for i in range(v):
            for j in range(i + 1, v):
                logratio = logs[i] - logs[j]  # KL(i || j) + KL(j || i), halved:
                kl_ij = reduce_classes(np.add, floored[i] * logratio)
                total[block] += 0.5 * (kl_ij + reduce_classes(np.add, floored[j] * -logratio))
    total /= v * (v - 1) / 2
    # floors can leave tiny negatives behind; difficulty is non-negative
    return DifficultyTable(corpus, np.maximum(total, 0.0, out=total), ConfidenceTable(corpus, mean))


def dump_scores_tsv(corpus: Corpus, conf: ConfidenceTable, diff: DifficultyTable, stream: IO[str]) -> None:
    """One row per token: sentence_idx, token_idx, surface, distant label
    name, lambda, difficulty; one ``write`` per block of ``TOKEN_BLOCK_ROWS``."""
    name_of = corpus.label_set.name_of
    offsets, distant = corpus.offsets, corpus.distant_array()
    for lo in range(0, corpus.n_tokens, TOKEN_BLOCK_ROWS):
        flat = np.arange(lo, min(lo + TOKEN_BLOCK_ROWS, corpus.n_tokens))
        sentence = np.searchsorted(offsets, flat, side="right") - 1
        stream.write("".join([
            f"{s_idx}\t{t_idx}\t{surface}\t{name_of(label)}\t{lam:.17g}\t{h:.17g}\n"
            for s_idx, t_idx, surface, label, lam, h in zip(
                sentence.tolist(), (flat - offsets[sentence]).tolist(), corpus.surfaces[lo : lo + TOKEN_BLOCK_ROWS],
                distant[flat].tolist(), conf.lam[flat].tolist(), diff.scores[flat].tolist(),
            )
        ]))
