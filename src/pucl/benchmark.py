"""The bundled synthetic noisy benchmark, defined once.

``pucl gen-synthetic`` takes its options from ``BenchmarkSpec``'s fields,
builds its files with ``make_benchmark`` and writes ``BENCHMARK_CONFIG``
into its ``config.json``; the acceptance suite trains from the same three.
By default: 2,000 training sentences over two entity types, with 40% of
gold entity spans erased (false negatives), 5% of gold-O runs gaining a
spurious entity (false positives) and 5% of spans relabeled to the wrong
type, plus 500 clean test and 50 clean validation sentences.

``BENCHMARK_CONFIG`` carries the desk-scale hyperparameters calibrated on
this benchmark: sparse negative sampling (keep 0.1) makes voter
disagreement track annotation noise, and the staged trainer runs
cross-entropy with a positive-risk weight of 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus
from .distant import Dictionary, SyntheticSpec, generate_synthetic, inject_noise
from .seeding import make_rng


@dataclass(frozen=True)
class BenchmarkSpec:
    """``pucl gen-synthetic`` takes one option per field: its ``flag``
    metadata, or else the field name with dashes."""

    n_train: int = field(default=2000, metadata={"flag": "--sentences"})
    n_test: int = field(default=500, metadata={"flag": "--test-sentences"})
    n_valid: int = field(default=50, metadata={"flag": "--valid-sentences"})
    k: int = field(default=2, metadata={"flag": "--types"})
    dict_size: int = 60
    fn_rate: float = 0.4
    fp_rate: float = 0.05
    type_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_test < 0 or self.n_valid < 0:
            raise ValueError(
                "need at least one training sentence and no negative split size, got "
                f"{self.n_train} train, {self.n_test} test, {self.n_valid} validation"
            )


#: The config sections the benchmark is calibrated with; every other
#: setting keeps its default.
BENCHMARK_CONFIG = {
    "voters": {"count": 5, "epochs": 5, "keep_negative_ratio": 0.1},
    "curriculum": {"tau": 0.5, "eta": 5, "stage_epochs": 2},
    "risk": {"epsilon": 0.5, "gamma": 10.0, "loss": "ce"},
}


def make_benchmark(
    seed: int, spec: BenchmarkSpec = BenchmarkSpec()
) -> tuple[Corpus, Corpus | None, Corpus | None, Dictionary]:
    """(noisy train corpus with gold kept, clean test corpus, clean
    validation corpus, dictionary); an empty split is None.

    All sentences come from one generator pass, in split order, so the
    splits share the dictionary and template distribution; only the
    training split is corrupted.
    """
    gen = SyntheticSpec(
        n_sentences=spec.n_train + spec.n_test + spec.n_valid,
        k=spec.k,
        dict_size=spec.dict_size,
    )
    gold, dictionary = generate_synthetic(gen, make_rng(seed, "synthetic"))
    cut = (0, spec.n_train, spec.n_train + spec.n_test, gen.n_sentences)
    train, test, valid = (
        Corpus(gold.sentences[a:b], gold.label_set) if b > a else None
        for a, b in zip(cut, cut[1:])
    )
    train = inject_noise(
        train, spec.fn_rate, spec.fp_rate, spec.type_rate, make_rng(seed, "noise")
    )
    return train, test, valid, dictionary
