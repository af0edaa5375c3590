"""Corpus data model, CoNLL-style TSV I/O, vocabulary, and span extraction.

Labels are stored as plain type ids (IO scheme): id 0 is the unlabeled /
non-entity class, ids 1..k are entity types. A maximal run of one non-zero
id is one entity span; there is no BIO prefixing anywhere in the package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import FormatError, UnknownLabelError

O_NAME = "O"

#: Hard default for splitting over-long sentences on read.
DEFAULT_MAX_SENTENCE_LEN = 256


class LabelSet:
    """Ordered entity-type names. Id 0 is reserved for ``O``/unlabeled."""

    def __init__(self, names: Iterable[str]):
        names = list(names)
        if not names:
            raise FormatError("label set needs at least one entity type")
        seen = set()
        for name in names:
            if not name or name == O_NAME:
                raise FormatError(f"invalid entity type name: {name!r}")
            if name in seen:
                raise FormatError(f"duplicate entity type name: {name!r}")
            seen.add(name)
        self.names: tuple[str, ...] = tuple(names)
        self._id_of = {name: i + 1 for i, name in enumerate(names)}

    @property
    def k(self) -> int:
        """Number of entity types (excluding the unlabeled class)."""
        return len(self.names)

    @property
    def n_classes(self) -> int:
        return self.k + 1

    def id_of(self, name: str) -> int:
        if name == O_NAME:
            return 0
        try:
            return self._id_of[name]
        except KeyError:
            raise UnknownLabelError(f"unknown label name: {name!r}") from None

    def name_of(self, label_id: int) -> str:
        if label_id == 0:
            return O_NAME
        if not 1 <= label_id <= self.k:
            raise FormatError(f"label id {label_id} out of range 0..{self.k}")
        return self.names[label_id - 1]

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelSet) and self.names == other.names

    def __repr__(self) -> str:
        return f"LabelSet({list(self.names)!r})"


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    distant_label: int
    gold_label: int | None = None

    def __post_init__(self) -> None:
        # The same test as `not s or any(c.isspace() for c in s)`, and faster.
        if self.surface.split() != [self.surface]:
            raise FormatError(f"bad token surface: {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise FormatError("empty sentence")

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def gold_labels(self) -> list[int | None]:
        return [t.gold_label for t in self.tokens]


@dataclass(frozen=True, slots=True)
class Span:
    """Contiguous entity span, inclusive on both ends."""

    start: int
    end: int
    label: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"span start {self.start} > end {self.end}")
        if self.label == 0:
            raise ValueError("span label must be an entity id, not 0")

    def overlaps(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end


class Corpus:
    """Immutable list of sentences plus their label set.

    Construction validates every label id against the label set. Flat
    per-token arrays (labels, offsets, context windows) are computed lazily
    and cached; they are the representation all numeric modules work on.
    """

    def __init__(self, sentences: Sequence[Sentence], label_set: LabelSet):
        sentences = list(sentences)
        if not sentences:
            raise FormatError("corpus needs at least one sentence")
        k = label_set.k
        for s_idx, sent in enumerate(sentences):
            for tok in sent.tokens:
                if not 0 <= tok.distant_label <= k:
                    raise FormatError(
                        f"sentence {s_idx}: distant label id {tok.distant_label} "
                        f"out of range 0..{k}"
                    )
                if tok.gold_label is not None and not 0 <= tok.gold_label <= k:
                    raise FormatError(
                        f"sentence {s_idx}: gold label id {tok.gold_label} "
                        f"out of range 0..{k}"
                    )
        self.sentences: tuple[Sentence, ...] = tuple(sentences)
        self.label_set = label_set
        self._offsets: np.ndarray | None = None
        self._distant: np.ndarray | None = None
        self._windows: tuple[Vocab, int, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.sentences)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Corpus)
            and self.label_set == other.label_set
            and self.sentences == other.sentences
        )

    @property
    def n_tokens(self) -> int:
        return int(self.offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        """Prefix sums of sentence lengths; offsets[i] is the flat index of
        sentence i's first token, offsets[-1] the total token count."""
        if self._offsets is None:
            lengths = [len(s) for s in self.sentences]
            self._offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        return self._offsets

    def token_positions(self, sentence_indices: np.ndarray) -> np.ndarray:
        """Flat indices of the tokens of the given sentences, sentence by
        sentence in the given order."""
        idx = np.asarray(sentence_indices)
        starts = self.offsets[idx]
        lengths = self.offsets[idx + 1] - starts
        first_slot = np.cumsum(lengths) - lengths
        return np.repeat(starts - first_slot, lengths) + np.arange(lengths.sum())

    def distant_array(self) -> np.ndarray:
        """Flat distant labels, built once and shared by every caller, so
        the array is read-only."""
        if self._distant is None:
            self._distant = np.array(
                [t.distant_label for s in self.sentences for t in s.tokens],
                dtype=np.int64,
            )
            self._distant.flags.writeable = False
        return self._distant

    def windows(self, vocab: Vocab, window: int) -> np.ndarray:
        """[n_tokens, 2 * window + 1] vocabulary ids of every token's context
        window, in flat token order; positions beyond a sentence's edges hold
        ``Vocab.PAD``. The one encoded form of the corpus: each sentence goes
        through ``encode_sentence`` once, and the read-only array is kept
        until another vocabulary (compared with ``==``) or window asks."""
        cached = self._windows
        if cached is not None and cached[1] == window and cached[0] == vocab:
            return cached[2]
        ids = np.concatenate([vocab.encode_sentence(s) for s in self.sentences])
        lengths = np.diff(self.offsets)
        # Lay the sentences out with `window` padding slots before, between and
        # after them, so that no window reaches into a neighbouring sentence.
        start = np.arange(len(ids)) + np.repeat(np.arange(len(lengths)) * window, lengths)
        padded = np.full(len(ids) + (len(lengths) + 1) * window, Vocab.PAD, dtype=np.int64)
        padded[start + window] = ids
        out = np.empty((len(ids), 2 * window + 1), dtype=np.int64)
        for j in range(2 * window + 1):
            out[:, j] = padded[start + j]
        out.flags.writeable = False
        self._windows = (vocab, window, out)
        return out

    def gold_array(self) -> np.ndarray:
        """Flat gold labels; raises if any token lacks one."""
        out = []
        for s_idx, sent in enumerate(self.sentences):
            for tok in sent.tokens:
                if tok.gold_label is None:
                    raise FormatError(f"sentence {s_idx}: token without gold label")
                out.append(tok.gold_label)
        return np.array(out, dtype=np.int64)

    def has_gold(self) -> bool:
        return all(t.gold_label is not None for s in self.sentences for t in s.tokens)


def read_conll(
    stream: IO[str] | Iterable[str],
    label_set: LabelSet | None = None,
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN,
) -> Corpus:
    """Parse the two/three-column TSV format.

    One token per line, ``surface<TAB>distant[<TAB>gold]``; a blank line ends
    a sentence. When ``label_set`` is None it is inferred from the label
    names in order of first appearance. Sentences longer than
    ``max_sentence_len`` are split at the limit. Each line becomes its
    ``Token`` as it is read, so errors are reported in line order.
    """
    if max_sentence_len < 1:
        raise FormatError(f"max_sentence_len must be >= 1, got {max_sentence_len}")
    inferred = {O_NAME: 0}  # label name -> id, in order of first appearance
    label_id = label_set.id_of if label_set is not None else lambda name: inferred.setdefault(name, len(inferred))
    sentences: list[Sentence] = []
    current: list[Token] = []
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n").rstrip("\r")
        if line == "":
            if current:
                sentences.append(Sentence(tuple(current)))
                current = []
            continue
        cols = line.split("\t")
        if len(cols) == 2:
            surface, distant, gold = cols[0], cols[1], None
        elif len(cols) == 3:
            surface, distant, gold = cols
        else:
            raise FormatError(f"line {lineno}: expected 2 or 3 columns, got {len(cols)}")
        try:
            current.append(Token(surface, label_id(distant), None if gold is None else label_id(gold)))
        except FormatError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if len(current) == max_sentence_len:
            sentences.append(Sentence(tuple(current)))
            current = []
    if current:
        sentences.append(Sentence(tuple(current)))
    if not sentences:
        raise FormatError("empty corpus input")
    if label_set is None:
        # All-O corpora still need a k >= 1 label space.
        label_set = LabelSet(list(inferred)[1:] or ["ENT"])
    return Corpus(sentences, label_set)


def read_corpus(
    path: str | Path, label_set: LabelSet | None = None, max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN
) -> Corpus:
    """``read_conll`` on a file; a missing file is a FormatError."""
    if not Path(path).exists():
        raise FormatError(f"corpus file not found: {path}")
    with open(path, encoding="utf-8") as f:
        return read_conll(f, label_set, max_sentence_len)


def write_conll(corpus: Corpus, stream: IO[str], include_gold: bool = True) -> None:
    """Inverse of read_conll: each sentence is terminated by one blank line,
    so the file ends with exactly one blank line. Gold labels are written as
    a third column when present and ``include_gold`` is set."""
    name_of = corpus.label_set.name_of
    for sent in corpus.sentences:
        for tok in sent.tokens:
            if include_gold and tok.gold_label is not None:
                stream.write(
                    f"{tok.surface}\t{name_of(tok.distant_label)}\t{name_of(tok.gold_label)}\n"
                )
            else:
                stream.write(f"{tok.surface}\t{name_of(tok.distant_label)}\n")
        stream.write("\n")


def extract_spans(labels: Sequence[int] | np.ndarray) -> list[Span]:
    """Maximal runs of one non-zero label id become single spans.

    Zeros break runs; adjacent runs of different non-zero ids are separate
    spans. Output is sorted by start and pairwise disjoint.
    """
    spans: list[Span] = []
    start = -1
    run_label = 0
    for i, raw in enumerate(labels):
        label = int(raw)
        if label == run_label:
            continue
        if run_label != 0:
            spans.append(Span(start, i - 1, run_label))
        start, run_label = i, label
    if run_label != 0:
        spans.append(Span(start, len(labels) - 1, run_label))
    return spans


class Vocab:
    """Case-folded surface -> dense index map with two reserved slots.

    Index 0 is padding (used for context-window positions beyond sentence
    edges), index 1 is the unknown word. Real words occupy 2..size-1.
    """

    PAD = 0
    UNK = 1
    _RESERVED = ("<pad>", "<unk>")

    def __init__(self, words: Sequence[str]):
        for w in words:
            if w in self._RESERVED:
                raise ValueError(f"reserved token {w!r} cannot be a vocab word")
        self.index_to_word: tuple[str, ...] = self._RESERVED + tuple(words)
        self.word_to_index = {w: i for i, w in enumerate(self.index_to_word)}
        if len(self.word_to_index) != len(self.index_to_word):
            raise ValueError("duplicate words in vocabulary")

    @property
    def size(self) -> int:
        return len(self.index_to_word)

    def encode(self, surface: str) -> int:
        return self.word_to_index.get(surface.casefold(), self.UNK)

    def encode_sentence(self, sentence: Sentence) -> np.ndarray:
        return np.array([self.encode(t.surface) for t in sentence.tokens], dtype=np.int64)

    def words(self) -> tuple[str, ...]:
        """Real words, in index order (reserved slots excluded)."""
        return self.index_to_word[2:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self.index_to_word == other.index_to_word


def build_vocab(corpus: Corpus, min_count: int = 1) -> Vocab:
    """Index every case-folded surface with frequency >= min_count.

    Words are ordered by descending count, ties broken lexically, so the
    mapping is deterministic for a given corpus.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter(
        tok.surface.casefold() for sent in corpus.sentences for tok in sent.tokens
    )
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocab(kept)

