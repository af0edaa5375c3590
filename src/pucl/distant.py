"""Dictionary-based distant annotation, noise diagnostics, and synthetic
noisy-corpus generation.

Annotation resolves overlapping dictionary matches by maximizing the total
number of matched tokens (weighted-interval scheduling over candidate
matches). Ties are broken deterministically: prefer the labeling whose
sequence of (start, -length, label) triples is lexicographically smallest,
i.e. leftmost-longest, then smallest type id.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .corpus import O_NAME, Corpus, LabelSet, Sentence, Token, find_spans
from .errors import FormatError


@dataclass(frozen=True)
class Dictionary:
    """Deduplicated (tokenized surface, type id) entries."""

    entries: tuple[tuple[tuple[str, ...], int], ...]
    label_set: LabelSet

    @staticmethod
    def build(pairs: Iterable[tuple[str, str]], label_set: LabelSet) -> "Dictionary":
        """From (surface text, type name) pairs; surfaces are whitespace
        tokenized and case-folded, duplicates collapse to one entry. Every
        entry needs an entity type: one typed ``O`` is a FormatError."""
        seen: set[tuple[tuple[str, ...], int]] = set()
        entries: list[tuple[tuple[str, ...], int]] = []
        for surface, type_name in pairs:
            tokens = tuple(surface.casefold().split())
            if not tokens:
                raise FormatError(f"empty dictionary surface for type {type_name!r}")
            entry = (tokens, label_set.id_of(type_name))
            if entry[1] == 0:
                raise FormatError(f"dictionary entry {surface!r} has no entity type")
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
        return Dictionary(tuple(entries), label_set)


def read_dictionary_pairs(
    stream: IO[str] | Iterable[str],
) -> tuple[list[tuple[str, str]], list[str]]:
    """Parse `surface<TAB>type_name` lines into raw pairs plus the type
    names in order of first appearance. Surfaces may contain spaces; a
    line typed ``O`` is a FormatError, since an entry without an entity
    type would only hide the entries it overlaps."""
    pairs: list[tuple[str, str]] = []
    names: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise FormatError(f"dictionary line {lineno}: expected 2 columns, got {len(cols)}")
        surface, type_name = cols
        if type_name == O_NAME:
            raise FormatError(f"dictionary line {lineno}: {surface!r} has no entity type")
        pairs.append((surface, type_name))
        if type_name not in seen:
            seen.add(type_name)
            names.append(type_name)
    return pairs, names


def write_dictionary(dictionary: Dictionary, stream: IO[str]) -> None:
    """Write one `surface<TAB>type_name` line per entry, in entry order:
    the format ``read_dictionary_pairs`` reads."""
    for tokens, label in dictionary.entries:
        stream.write(f"{' '.join(tokens)}\t{dictionary.label_set.name_of(label)}\n")


def compile_dictionary(dictionary: Dictionary) -> dict[str, list[tuple[tuple[str, ...], int]]]:
    """Index a dictionary for ``annotate``: each first token maps to the
    entries that start with it, longest first (then smallest type id), so
    ``annotate`` answers "which entries could start here" at a position
    without touching the rest of the dictionary."""
    buckets: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for tokens, label in dictionary.entries:
        buckets.setdefault(tokens[0], []).append((tokens, label))
    for bucket in buckets.values():
        bucket.sort(key=lambda e: (-len(e[0]), e[1], e[0]))
    return buckets


def annotate(surfaces: Sequence[str], buckets: dict[str, list[tuple[tuple[str, ...], int]]]) -> list[int]:
    """Label a sentence's token surfaces with the max-coverage
    non-overlapping match set, over the ``compile_dictionary`` index
    ``buckets``.

    Dynamic program over start positions, right to left: ``cover[i]`` is
    the coverage of the best labeling of tokens[i:], and ``choice[i]`` the
    entry it starts with at i, or None to skip i. At equal coverage a match
    starting at i beats skipping i, and among matches the longest (then
    smallest type id) wins, which realizes the global leftmost-longest tie
    rule.
    """
    folded = [s.casefold() for s in surfaces]
    n = len(folded)
    cover = [0] * (n + 1)
    choice: list[tuple[tuple[str, ...], int] | None] = [None] * n
    for i in range(n - 1, -1, -1):
        best = cover[i + 1]
        for entry in buckets.get(folded[i], ()):
            # A bucket is longest first, ties by smallest label, so only a
            # strict improvement replaces the first match taken. The bucket's
            # key is the first token, so a one-token entry matches as it is.
            length = len(entry[0])
            end = i + length
            if end <= n:
                cand = length + cover[end]
                if (cand > best or (cand == best and choice[i] is None)) and (
                    length == 1 or tuple(folded[i:end]) == entry[0]
                ):
                    best, choice[i] = cand, entry
        cover[i] = best

    labels = [0] * n
    i = 0
    while i < n:
        entry = choice[i]
        if entry is None:
            i += 1
        else:
            length = len(entry[0])
            labels[i : i + length] = [entry[1]] * length
            i += length
    return labels


@dataclass(frozen=True)
class NoiseStats:
    """Token-level disagreement between distant and gold labels.

    false_negative: gold entity, distant 0. false_positive: gold 0, distant
    entity. positive_type_error: both entities, different types. Rates:
    false_negative_rate over gold-entity tokens; the other three over
    distant-entity tokens, so positive_error_rate is exactly the sum of the
    false-positive and type-error rates.
    """

    false_negatives: int
    false_positives: int
    positive_type_errors: int
    gold_positive_tokens: int
    distant_positive_tokens: int
    total_tokens: int

    @property
    def false_negative_rate(self) -> float:
        return self.false_negatives / self.gold_positive_tokens if self.gold_positive_tokens else 0.0

    @property
    def false_positive_rate(self) -> float:
        return self.false_positives / self.distant_positive_tokens if self.distant_positive_tokens else 0.0

    @property
    def positive_type_error_rate(self) -> float:
        return self.positive_type_errors / self.distant_positive_tokens if self.distant_positive_tokens else 0.0

    @property
    def positive_error_rate(self) -> float:
        if not self.distant_positive_tokens:
            return 0.0
        return (self.false_positives + self.positive_type_errors) / self.distant_positive_tokens

    def to_json(self) -> str:
        rates = ("false_negative_rate", "false_positive_rate", "positive_type_error_rate", "positive_error_rate")
        record = {"counts": asdict(self), "rates": {name: getattr(self, name) for name in rates}}
        return json.dumps(record, sort_keys=True, indent=2)


def noise_report(corpus: Corpus) -> NoiseStats:
    """Classify every token where distant != gold; needs full gold labels."""
    distant = corpus.distant_array()
    gold = corpus.gold_array()
    fn = int(np.sum((gold != 0) & (distant == 0)))
    fp = int(np.sum((gold == 0) & (distant != 0)))
    te = int(np.sum((gold != 0) & (distant != 0) & (gold != distant)))
    return NoiseStats(fn, fp, te, int(np.sum(gold != 0)), int(np.sum(distant != 0)), len(gold))


def inject_noise(corpus: Corpus, fn_rate: float, fp_rate: float, type_rate: float, rng: np.random.Generator) -> Corpus:
    """Corrupt gold labels into distant labels; surfaces and gold are kept.

    Per gold entity span, one uniform draw u decides: u < fn_rate erases the
    span to 0; fn_rate <= u < fn_rate+type_rate relabels it to a uniformly
    random other type (so the two corruptions are mutually exclusive and the
    erase check wins). Per maximal gold-O run, with probability fp_rate a
    random sub-run of length 1..3 gets a random entity type. The draws go
    sentence by sentence: a sentence's spans, then its gold-O runs, each in
    token order.
    """
    for name, rate in (("fn_rate", fn_rate), ("fp_rate", fp_rate), ("type_rate", type_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0,1], got {rate}")
    if fn_rate + type_rate > 1.0 + 1e-12:
        raise ValueError("fn_rate + type_rate must not exceed 1")
    k = corpus.label_set.k
    if type_rate > 0 and k < 2:
        raise ValueError("type_rate > 0 needs at least two entity types")

    if not corpus.has_gold():
        raise FormatError("inject_noise needs gold labels on every token")
    gold, offsets = corpus.gold_array(), corpus.offsets
    span_starts, span_ends = find_spans(gold, offsets)
    run_starts, run_ends = find_spans(gold == 0, offsets)  # the maximal gold-O runs
    starts, ends = np.concatenate([span_starts, run_starts]), np.concatenate([span_ends, run_ends])
    is_run = np.repeat([False, True], [len(span_starts), len(run_starts)])
    order = np.lexsort((starts, is_run, np.searchsorted(offsets, starts, side="right")))
    distant = gold.copy()  # a span that keeps its type and an O token that stays O
    for run, start, end in zip(is_run[order].tolist(), starts[order].tolist(), ends[order].tolist()):
        if not run:
            u = rng.random()
            if u < fn_rate:
                distant[start : end + 1] = 0
            elif u < fn_rate + type_rate:
                others = [t for t in range(1, k + 1) if t != gold[start]]
                distant[start : end + 1] = others[int(rng.integers(0, len(others)))]
        elif rng.random() < fp_rate:
            run_len = end - start + 1
            length = int(rng.integers(1, min(3, run_len) + 1))
            first = start + int(rng.integers(0, run_len - length + 1))
            distant[first : first + length] = int(rng.integers(1, k + 1))
    return corpus.with_distant(distant)


# --- synthetic corpus generation -----------------------------------------


def default_templates() -> list[list[str]]:
    """Sentence skeletons: literal words plus "{E}" entity and "{F}" filler
    slots. Every template carries at least one entity slot."""
    return [
        ["the", "{E}", "of", "{F}", "{F}", "was", "measured", "in", "the", "study"],
        ["{F}", "{F}", "showed", "increased", "{E}", "and", "decreased", "{E}"],
        ["a", "significant", "effect", "of", "{F}", "on", "{E}", "was", "observed"],
        ["{E}", "was", "associated", "with", "{F}", "{F}", "and", "{F}"],
        ["results", "for", "{E}", "were", "higher", "in", "{F}", "{F}"],
        ["the", "{F}", "study", "measured", "{E}", "in", "{F}", "animals"],
        ["{F}", "between", "{E}", "and", "{E}", "was", "significant"],
        ["in", "{F}", "{F}", "the", "{E}", "decreased", "with", "{F}"],
        ["{F}", "and", "{F}", "were", "associated", "with", "lower", "{E}"],
        ["the", "effect", "of", "{E}", "on", "{F}", "was", "not", "significant"],
        ["{F}", "analysis", "of", "{E}", "showed", "{F}", "{F}", "results"],
        ["observed", "{E}", "levels", "were", "lower", "after", "{F}", "{F}"],
    ]


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic gold corpus generator.

    Entity entries are drawn uniformly, so every dictionary surface occurs
    often enough for a small model to learn. Filler words follow a Zipf-ish
    frequency profile, giving a realistic mix of common and rare context.
    """

    n_sentences: int
    k: int = 2
    dict_size: int = 60
    templates: tuple[tuple[str, ...], ...] = tuple(tuple(t) for t in default_templates())
    entity_len_probs: tuple[float, ...] = (0.45, 0.35, 0.20)
    filler_vocab: int = 150
    words_per_type: int = 25
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.n_sentences < 1 or self.k < 1 or self.dict_size < 1:
            raise ValueError("n_sentences, k and dict_size must be positive")
        if not self.templates:
            raise ValueError("template pool must not be empty")
        if not all(math.isfinite(p) and p >= 0 for p in self.entity_len_probs):
            raise ValueError(f"entity_len_probs must be finite and non-negative, got {self.entity_len_probs}")
        if not self.entity_len_probs or abs(sum(self.entity_len_probs) - 1.0) > 1e-9:
            raise ValueError("entity_len_probs must sum to 1")
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent}")
        if self.filler_vocab < 1 or self.words_per_type < 1:
            raise ValueError("vocab sizes must be positive")


def _weighted_sampler(p: Sequence[float] | np.ndarray, rng: np.random.Generator) -> Callable[[], int]:
    """Draws of an index with probabilities ``p``: draw for draw, and state
    for state, what ``rng.choice(len(p), p=p)`` gives, which scans and sums
    all of ``p`` on every call. Like ``choice``, one ``rng.random()`` per
    draw, looked up in the normalised cumulative sums (``bisect_right`` is
    ``searchsorted(side="right")``)."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    cdf_list, random = cdf.tolist(), rng.random
    return lambda: bisect_right(cdf_list, random())


def generate_synthetic(
    spec: SyntheticSpec, rng: np.random.Generator
) -> tuple[Corpus, Dictionary]:
    """Gold-labeled corpus plus the dictionary it was generated from.

    Deterministic for a given generator state. Every entity token's surface
    comes from a dictionary entry of the matching type. Time and memory are
    linear in the tokens written: each weighted draw is one lookup in a
    precomputed cumulative table, and the corpus holds one shared ``Token``
    per distinct (surface, label).
    """
    label_set = LabelSet([f"T{t}" for t in range(1, spec.k + 1)])
    weights = 1.0 / np.arange(1, spec.filler_vocab + 1, dtype=np.float64) ** spec.zipf_exponent
    weights /= weights.sum()
    pools = {
        t: [f"x{t}{i:02d}" for i in range(spec.words_per_type)]
        for t in range(1, spec.k + 1)
    }

    entries: list[tuple[str, str]] = []
    seen: set[tuple[str, int]] = set()
    entity_length = _weighted_sampler(spec.entity_len_probs, rng)
    attempts = 0
    while len(entries) < spec.dict_size and attempts < spec.dict_size * 50:
        attempts += 1
        type_id = 1 + len(entries) % spec.k  # round-robin keeps every type populated
        length = 1 + entity_length()
        words = [pools[type_id][int(rng.integers(0, spec.words_per_type))] for _ in range(length)]
        surface = " ".join(words)
        if (surface, type_id) in seen:
            continue
        seen.add((surface, type_id))
        entries.append((surface, label_set.name_of(type_id)))
    dictionary = Dictionary.build(entries, label_set)

    shared: dict[tuple[str, int], Token] = {}

    def token(surface: str, label: int) -> Token:
        tok = shared.get((surface, label))
        if tok is None:
            tok = shared[surface, label] = Token(surface, label, label)
        return tok

    entry_tokens = [tuple(token(w, label) for w in tokens) for tokens, label in dictionary.entries]
    # Each template slot becomes its literal's Token or one of two markers.
    entity, filler = object(), object()
    markers = {"{E}": entity, "{F}": filler}
    slots = [[markers[s] if s in markers else token(s, 0) for s in template] for template in spec.templates]
    filler_index = _weighted_sampler(weights, rng)
    sentences: list[Sentence] = []
    for _ in range(spec.n_sentences):
        tokens: list[Token] = []
        for slot in slots[int(rng.integers(0, len(slots)))]:
            if slot is entity:
                tokens += entry_tokens[int(rng.integers(0, len(entry_tokens)))]
            elif slot is filler:
                tokens.append(token(f"w{filler_index():03d}", 0))
            else:
                tokens.append(slot)
        sentences.append(Sentence(tuple(tokens)))
    return Corpus(sentences, label_set), dictionary
