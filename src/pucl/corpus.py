"""Corpus data model, CoNLL-style TSV I/O, vocabulary, and the span finder.

Labels are stored as plain type ids (IO scheme): id 0 is the unlabeled /
non-entity class, ids 1..k are entity types. A maximal run of one non-zero
id within a sentence is one entity span; there is no BIO prefixing anywhere
in the package. Labels, predictions included, travel as flat arrays in
token order, and ``find_spans`` is the one place that turns them into
spans, as (start, end) index arrays.

A corpus is stored as flat per-token columns (surfaces, distant ids, gold
ids, sentence offsets). ``read_conll`` fills them line by line and
``write_conll`` writes from them; ``Sentence`` and ``Token`` are views for
the API and for code that builds a corpus by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, UnknownLabelError

O_NAME = "O"

#: Hard default for splitting over-long sentences on read.
DEFAULT_MAX_SENTENCE_LEN = 256

#: Tokens that ``write_conll`` joins into one write.
WRITE_BLOCK_TOKENS = 4096


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


class _Columns(NamedTuple):
    """The stored form of a corpus: one entry per token, in reading order."""

    surfaces: list[str]
    distant: np.ndarray  # int64 label ids
    gold: np.ndarray  # int64 label ids; -1 on a token without a gold label
    offsets: np.ndarray  # int64 prefix sums of the sentence lengths

    def read_only(self) -> "_Columns":
        for array in self[1:]:
            array.flags.writeable = False
        return self


class Corpus:
    """Immutable token columns plus their label set.

    A corpus is flat columns: the token surfaces, the distant and gold
    label ids and the sentence offsets (see ``_Columns``). Every reader in
    the package works on them; the arrays are read-only and shared with
    every caller, and none of them may be modified. A corpus read from a
    file stores only its columns, and ``sentences`` views them as
    ``Sentence``/``Token`` objects built on first use. A corpus constructed
    from sentences keeps them, checks every label id against the label set,
    and derives its columns on first use.
    """

    def __init__(self, sentences: Sequence[Sentence], label_set: LabelSet):
        sentences = tuple(sentences)
        if not sentences:
            raise FormatError("corpus needs at least one sentence")
        k = label_set.k
        for s_idx, sent in enumerate(sentences):
            for tok in sent.tokens:
                if not 0 <= tok.distant_label <= k:
                    raise FormatError(f"sentence {s_idx}: distant label id {tok.distant_label} out of range 0..{k}")
                if tok.gold_label is not None and not 0 <= tok.gold_label <= k:
                    raise FormatError(f"sentence {s_idx}: gold label id {tok.gold_label} out of range 0..{k}")
        self.label_set = label_set
        self._sentences: tuple[Sentence, ...] | None = sentences
        self._cols: _Columns | None = None
        self._windows: tuple[Vocab, int, np.ndarray] | None = None

    @classmethod
    def _from_columns(cls, cols: _Columns, label_set: LabelSet) -> "Corpus":
        """A corpus over columns whose surfaces and label ids its caller has checked."""
        corpus = cls.__new__(cls)
        corpus.label_set, corpus._sentences, corpus._cols, corpus._windows = label_set, None, cols.read_only(), None
        return corpus

    def _columns(self) -> _Columns:
        if self._cols is None:
            tokens = [t for s in self._sentences for t in s.tokens]
            self._cols = _Columns(
                [t.surface for t in tokens],
                np.fromiter((t.distant_label for t in tokens), np.int64, len(tokens)),
                np.fromiter((-1 if t.gold_label is None else t.gold_label for t in tokens), np.int64, len(tokens)),
                np.cumsum([0] + [len(s) for s in self._sentences]),
            ).read_only()
        return self._cols

    def with_distant(self, distant: np.ndarray, label_set: LabelSet | None = None) -> "Corpus":
        """The same tokens, gold labels and sentences with new distant
        labels (an int64 array this corpus takes over), in ``label_set`` if
        given, which must keep this corpus's type ids."""
        label_set = label_set or self.label_set
        surfaces, _, gold, offsets = self._columns()
        kept_ids = label_set.names[: self.label_set.k] == self.label_set.names
        if not kept_ids or distant.shape != (len(surfaces),) or not 0 <= distant.min() <= distant.max() <= label_set.k:
            raise ValueError("distant labels do not fit the corpus")
        return Corpus._from_columns(_Columns(surfaces, distant, gold, offsets), label_set)

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        """The constructing sentences, or views of the columns."""
        if self._sentences is None:
            surfaces, distant, gold, offsets = self._columns()
            tokens = [Token(s, d, None if g < 0 else g) for s, d, g in zip(surfaces, distant.tolist(), gold.tolist())]
            bounds = offsets.tolist()
            self._sentences = tuple(Sentence(tuple(tokens[a:b])) for a, b in zip(bounds, bounds[1:]))
        return self._sentences

    @property
    def surfaces(self) -> list[str]:
        return self._columns().surfaces

    @property
    def offsets(self) -> np.ndarray:
        """Prefix sums of sentence lengths; offsets[i] is the flat index of
        sentence i's first token, offsets[-1] the total token count."""
        return self._columns().offsets

    def sentence_surfaces(self) -> Iterator[list[str]]:
        """Each sentence's slice of the surfaces column, in order."""
        bounds = self.offsets.tolist()
        return (self.surfaces[a:b] for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus) or self.label_set != other.label_set:
            return False
        mine, theirs = self._columns(), other._columns()
        return mine.surfaces == theirs.surfaces and all(map(np.array_equal, mine[1:], theirs[1:]))

    @property
    def n_tokens(self) -> int:
        return len(self.surfaces)

    def token_positions(self, sentence_indices: np.ndarray) -> np.ndarray:
        """Flat indices of the tokens of the given sentences, sentence by
        sentence in the given order."""
        idx = np.asarray(sentence_indices)
        starts = self.offsets[idx]
        lengths = self.offsets[idx + 1] - starts
        first_slot = np.cumsum(lengths) - lengths
        return np.repeat(starts - first_slot, lengths) + np.arange(lengths.sum())

    def distant_array(self) -> np.ndarray:
        """The distant column."""
        return self._columns().distant

    def windows(self, vocab: Vocab, window: int) -> np.ndarray:
        """[n_tokens, 2 * window + 1] vocabulary ids of every token's context
        window, in flat token order; positions beyond a sentence's edges hold
        ``Vocab.PAD``. The one encoded form of the corpus: the surfaces
        column goes through ``encode_sentence`` once, and the read-only array
        is kept until another vocabulary (compared with ``==``) or window
        asks. Its cells are int32; a larger vocabulary raises ``ValueError``."""
        if vocab.size > np.iinfo(np.int32).max:
            raise ValueError(f"a vocabulary of {vocab.size} words does not fit int32 window cells")
        cached = self._windows
        if cached is not None and cached[1] == window and cached[0] == vocab:
            return cached[2]
        ids = vocab.encode_sentence(self.surfaces)
        lengths = np.diff(self.offsets)
        # Lay the sentences out with `window` padding slots before, between and
        # after them, so that no window reaches into a neighbouring sentence.
        start = np.arange(len(ids)) + np.repeat(np.arange(len(lengths)) * window, lengths)
        padded = np.full(len(ids) + (len(lengths) + 1) * window, Vocab.PAD, dtype=np.int32)
        padded[start + window] = ids
        out = np.empty((len(ids), 2 * window + 1), dtype=np.int32)
        for j in range(2 * window + 1):
            out[:, j] = padded[start + j]
        out.flags.writeable = False
        self._windows = (vocab, window, out)
        return out

    def gold_array(self) -> np.ndarray:
        """The gold column; raises if any token lacks a gold label."""
        gold = self._columns().gold
        missing = gold < 0
        if missing.any():
            s_idx = int(np.searchsorted(self.offsets, np.argmax(missing), side="right")) - 1
            raise FormatError(f"sentence {s_idx}: token without gold label")
        return gold

    def has_gold(self) -> bool:
        return bool((self._columns().gold >= 0).all())


def read_conll(
    stream: IO[str] | Iterable[str],
    label_set: LabelSet | None = None,
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN,
) -> Corpus:
    """Parse the two/three-column TSV format into the corpus's columns.

    One token per line, ``surface<TAB>distant[<TAB>gold]``; a blank line ends
    a sentence. When ``label_set`` is None it is inferred from the label
    names in order of first appearance. Sentences longer than
    ``max_sentence_len`` are split at the limit. Each line is checked as it
    is read (column count, distant label, gold label, then the surface), so
    the first error in the file is the one reported.
    """
    if max_sentence_len < 1:
        raise FormatError(f"max_sentence_len must be >= 1, got {max_sentence_len}")
    ids = {O_NAME: 0}  # label name -> id; inferred in order of first appearance
    if label_set is not None:
        ids.update((name, label_set.id_of(name)) for name in label_set.names)

    def new_label(name: str, lineno: int) -> int:
        try:
            if label_set is not None:
                return label_set.id_of(name)
            LabelSet([name])  # the rule every inferred name must pass
        except FormatError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        ids[name] = len(ids)
        return ids[name]

    surfaces: list[str] = []
    distant: list[int] = []
    gold: list[int] = []
    offsets = [0]
    checked: dict[str, str] = {}  # a surface known to be one run of non-whitespace -> the one object kept
    add_surface, add_distant, add_gold, add_offset = surfaces.append, distant.append, gold.append, offsets.append
    id_of, checked_surface = ids.get, checked.get
    n = start = 0  # tokens read; the flat index of the current sentence's first token
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            if n > start:
                add_offset(n)
                start = n
            continue
        cols = line.split("\t")
        if len(cols) == 3:
            surface, d_name, g_name = cols
            d = id_of(d_name)
            add_distant(new_label(d_name, lineno) if d is None else d)
            g = id_of(g_name)
            add_gold(new_label(g_name, lineno) if g is None else g)
        elif len(cols) == 2:
            surface, d_name = cols
            d = id_of(d_name)
            add_distant(new_label(d_name, lineno) if d is None else d)
            add_gold(-1)
        else:
            raise FormatError(f"line {lineno}: expected 2 or 3 columns, got {len(cols)}")
        kept = checked_surface(surface)
        if kept is None:
            # The same test as `not s or any(c.isspace() for c in s)`, and faster.
            if surface.split() != [surface]:
                raise FormatError(f"line {lineno}: bad token surface: {surface!r}")
            kept = checked[surface] = surface
        add_surface(kept)
        n += 1
        if n - start == max_sentence_len:
            add_offset(n)
            start = n
    if n > start:
        add_offset(n)
    if n == 0:
        raise FormatError("empty corpus input")
    if label_set is None:
        # All-O corpora still need a k >= 1 label space.
        label_set = LabelSet(list(ids)[1:] or ["ENT"])
    cols = _Columns(surfaces, np.array(distant, dtype=np.int64), np.array(gold, dtype=np.int64), np.array(offsets))
    return Corpus._from_columns(cols, label_set)


def read_corpus(
    path: str | Path, label_set: LabelSet | None = None, max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN
) -> Corpus:
    """``read_conll`` on a file; a missing file is a FormatError."""
    if not Path(path).exists():
        raise FormatError(f"corpus file not found: {path}")
    with open(path, encoding="utf-8") as f:
        return read_conll(f, label_set, max_sentence_len)


def write_conll(corpus: Corpus, stream: IO[str]) -> None:
    """Inverse of read_conll, written from the columns: each sentence is
    terminated by one blank line, so the file ends with exactly one blank
    line. Gold labels are written as a third column when present. The text
    goes out in one write per ``WRITE_BLOCK_TOKENS`` tokens."""
    names = (O_NAME,) + corpus.label_set.names
    surfaces, distant, gold, offsets = corpus._columns()
    # Every token's line ends in one of these, indexed by its (distant, gold)
    # pair; a sentence's last token takes the second copy, which carries the
    # blank line.
    endings = [f"\t{d}\t{g}\n" if g else f"\t{d}\n" for d in names for g in ("",) + names]
    endings += [ending + "\n" for ending in endings]
    codes = distant * (len(names) + 1) + gold + 1
    codes[offsets[1:] - 1] += len(endings) // 2
    codes = codes.tolist()
    for a in range(0, len(codes), WRITE_BLOCK_TOKENS):
        block = codes[a : a + WRITE_BLOCK_TOKENS]
        lines = [""] * (2 * len(block))
        lines[::2] = surfaces[a : a + WRITE_BLOCK_TOKENS]
        lines[1::2] = map(endings.__getitem__, block)
        stream.write("".join(lines))


def find_spans(labels: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last flat index of every span in flat ``labels``: a maximal
    run of one non-zero id, broken at the sentence boundaries ``offsets``.
    Both arrays are in token order."""
    breaks = np.ones(len(labels) + 1, dtype=bool)  # breaks[i]: a run cannot go on into token i
    breaks[1:-1] = labels[1:] != labels[:-1]
    breaks[offsets] = True
    entity = labels != 0
    return np.flatnonzero(breaks[:-1] & entity), np.flatnonzero(breaks[1:] & entity)


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

    def encode_sentence(self, surfaces: Sequence[str]) -> np.ndarray:
        """The ids of a sequence of token surfaces: one sentence's, or a
        whole corpus's surfaces column. Each distinct surface is encoded
        once."""
        table = {s: self.encode(s) for s in set(surfaces)}
        return np.fromiter(map(table.__getitem__, surfaces), np.int64, len(surfaces))

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
    counts: Counter[str] = Counter(map(str.casefold, corpus.surfaces))
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocab(kept)

