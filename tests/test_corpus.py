import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucl.corpus import (
    Corpus,
    LabelSet,
    Sentence,
    Token,
    Vocab,
    build_vocab,
    find_spans,
    read_conll,
    write_conll,
)
from pucl.errors import FormatError, UnknownLabelError

from oracles import extract_spans, loop_window_rows


def parse(text: str, **kwargs) -> Corpus:
    return read_conll(io.StringIO(text), **kwargs)


class TestLabelSet:
    def test_ids_and_names(self):
        ls = LabelSet(["PER", "ORG"])
        assert ls.k == 2
        assert ls.id_of("O") == 0
        assert ls.id_of("PER") == 1
        assert ls.name_of(2) == "ORG"

    def test_rejects_duplicates_and_o(self):
        with pytest.raises(FormatError):
            LabelSet(["PER", "PER"])
        with pytest.raises(FormatError):
            LabelSet(["O"])
        with pytest.raises(FormatError):
            LabelSet([])

    def test_unknown_name(self):
        with pytest.raises(FormatError):
            LabelSet(["PER"]).id_of("LOC")


class TestReadConll:
    def test_single_token_round_trip(self):
        corpus = parse("John\tPER\n\n")
        assert len(corpus.sentences) == 1
        assert len(corpus.sentences[0]) == 1
        tok = corpus.sentences[0].tokens[0]
        assert tok.surface == "John"
        assert tok.distant_label == corpus.label_set.id_of("PER")

    def test_direct_parse(self):
        corpus = parse("a\tO\nb\tPER\nc\tPER\n")
        assert [t.distant_label for t in corpus.sentences[0].tokens] == [0, 1, 1]

    def test_three_column_parse(self):
        corpus = parse("x\tO\tPER\n")
        tok = corpus.sentences[0].tokens[0]
        assert tok.distant_label == 0
        assert tok.gold_label == corpus.label_set.id_of("PER")

    def test_wrong_column_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("a\tO\nb\tO\tPER\tX\n")

    def test_unknown_label_with_label_set(self):
        with pytest.raises(FormatError, match="LOC"):
            parse("a\tLOC\n", label_set=LabelSet(["PER"]))

    def test_unknown_label_reported_at_its_line(self):
        # the reader stops at the first bad line: an unknown label on line 2
        # wins over a malformed line 4
        text = "a\tO\nb\tLOC\n\nc\tO\tO\tO\n"
        with pytest.raises(UnknownLabelError, match="line 2: .*LOC"):
            parse(text, label_set=LabelSet(["PER"]))

    def test_empty_input(self):
        with pytest.raises(FormatError):
            parse("")
        with pytest.raises(FormatError):
            parse("\n\n")

    def test_label_inference_order(self):
        corpus = parse("a\tORG\nb\tPER\n\nc\tORG\n\n")
        assert corpus.label_set.names == ("ORG", "PER")

    def test_long_sentence_split(self):
        text = "".join(f"w{i}\tO\n" for i in range(10)) + "\n"
        corpus = parse(text, label_set=LabelSet(["PER"]), max_sentence_len=4)
        assert [len(s) for s in corpus.sentences] == [4, 4, 2]

    def test_bad_surface(self):
        with pytest.raises(FormatError):
            parse("a b\tO\n")

    def test_bad_surface_reported_at_its_line(self):
        with pytest.raises(FormatError, match="line 2: bad token surface: 'b\\\\xa0c'"):
            parse("a\tO\nb\xa0c\tO\n")
        # Token checks the surface after the labels are looked up
        with pytest.raises(UnknownLabelError, match="line 1: .*LOC"):
            parse("b c\tLOC\n", label_set=LabelSet(["PER"]))


class TestWriteConll:
    def test_ends_with_single_blank_line(self):
        corpus = parse("a\tPER\n\n")
        out = io.StringIO()
        write_conll(corpus, out)
        assert out.getvalue().endswith("PER\n\n")
        assert not out.getvalue().endswith("\n\n\n")

    def test_gold_column_written(self):
        corpus = parse("a\tO\tPER\n\n")
        out = io.StringIO()
        write_conll(corpus, out)
        assert out.getvalue().splitlines()[0] == "a\tO\tPER"

    def test_round_trip_fixed(self):
        text = "a\tO\tPER\nb\tPER\tPER\n\nc\tO\tO\n\n"
        corpus = parse(text)
        out = io.StringIO()
        write_conll(corpus, out)
        assert parse(out.getvalue()) == corpus


SURFACE = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=6,
)


@st.composite
def corpora(draw):
    names = draw(st.lists(st.sampled_from(["PER", "ORG", "LOC"]), min_size=1, max_size=3, unique=True))
    ls = LabelSet(names)
    k = ls.k

    def token(_):
        surface = draw(SURFACE)
        distant = draw(st.integers(0, k))
        gold = draw(st.one_of(st.none(), st.integers(0, k)))
        return Token(surface, distant, gold)

    sentences = draw(
        st.lists(
            st.builds(
                lambda toks: Sentence(tuple(toks)),
                st.lists(st.builds(token, st.none()), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return Corpus(sentences, ls)


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_write_read_identity(self, corpus):
        out = io.StringIO()
        write_conll(corpus, out)
        again = parse(out.getvalue(), label_set=corpus.label_set)
        assert again == corpus

    def test_hundred_sentence_random_corpus(self):
        rng = np.random.default_rng(0)
        ls = LabelSet(["A", "B"])
        sentences = []
        for _ in range(100):
            n = int(rng.integers(1, 9))
            toks = tuple(
                Token(f"w{rng.integers(0, 50)}", int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                for _ in range(n)
            )
            sentences.append(Sentence(toks))
        corpus = Corpus(sentences, ls)
        out = io.StringIO()
        write_conll(corpus, out)
        assert parse(out.getvalue(), label_set=ls) == corpus


@st.composite
def conll_texts(draw):
    """(text, label set or None, max_sentence_len, canonical text, expected
    sentences, expected label set): a random file that mixes two- and
    three-column lines, CRLF line ends and extra blank lines, and what
    reading it must give."""
    names = draw(st.lists(st.sampled_from(["PER", "ORG", "LOC"]), min_size=1, max_size=3, unique=True))
    given = draw(st.booleans())
    max_len = draw(st.integers(1, 5))
    label = st.sampled_from(["O"] + names)
    rows = st.tuples(SURFACE, label, st.one_of(st.none(), label))
    sentences = draw(st.lists(st.lists(rows, min_size=1, max_size=8), min_size=1, max_size=6))
    text = ""
    for sent in sentences:
        for surface, d, g in sent:
            end = draw(st.sampled_from(["\n", "\r\n"]))
            text += f"{surface}\t{d}{end}" if g is None else f"{surface}\t{d}\t{g}{end}"
        text += "\n" * draw(st.integers(0 if sent is sentences[-1] else 1, 2))
    seen = [n for sent in sentences for _, d, g in sent for n in (d, g) if n not in (None, "O")]
    ls = LabelSet(names) if given else LabelSet(list(dict.fromkeys(seen)) or ["ENT"])
    chunks = [sent[i : i + max_len] for sent in sentences for i in range(0, len(sent), max_len)]
    canonical = "".join(
        "".join(f"{s}\t{d}\n" if g is None else f"{s}\t{d}\t{g}\n" for s, d, g in chunk) + "\n"
        for chunk in chunks
    )
    expected = tuple(
        Sentence(tuple(Token(s, ls.id_of(d), None if g is None else ls.id_of(g)) for s, d, g in chunk))
        for chunk in chunks
    )
    return text, ls if given else None, max_len, canonical, expected, ls


class TestColumnarReaderProperty:
    @settings(max_examples=150, deadline=None)
    @given(conll_texts())
    def test_columns_match_the_hand_built_form(self, case):
        text, label_set, max_len, canonical, expected, ls = case
        corpus = parse(text, label_set=label_set, max_sentence_len=max_len)
        assert corpus.label_set == ls
        out = io.StringIO()
        write_conll(corpus, out)
        assert out.getvalue() == canonical
        assert corpus.sentences == expected
        assert corpus == Corpus(expected, ls)

    def test_mixed_gold_columns_round_trip_byte_for_byte(self):
        text = "a\tPER\tPER\nb\tO\n\nc\tO\tORG\n\nd\tORG\n\n"
        out = io.StringIO()
        write_conll(parse(text), out)
        assert out.getvalue() == text


def spans_of(labels, offsets=None) -> list[tuple[int, int, int]]:
    """(start, end, label) of every span ``find_spans`` finds in flat
    ``labels``; one sentence unless ``offsets`` are given."""
    labels = np.asarray(labels)
    starts, ends = find_spans(labels, np.array([0, len(labels)] if offsets is None else offsets))
    return list(zip(starts.tolist(), ends.tolist(), labels[starts].tolist()))


class TestExtractSpans:
    """The span finder, ``find_spans``."""

    def test_definition(self):
        assert spans_of([0, 1, 1, 0, 2]) == [(1, 2, 1), (4, 4, 2)]

    def test_no_entities(self):
        assert spans_of([0, 0, 0]) == []

    def test_adjacent_runs_split(self):
        assert spans_of([1, 2, 2]) == [(0, 0, 1), (1, 2, 2)]

    def test_single_run_to_end(self):
        assert spans_of([0, 3, 3, 3]) == [(1, 3, 3)]

    def test_runs_break_at_sentence_edges(self):
        assert spans_of([1, 1, 1, 2, 2], [0, 2, 3, 5]) == [(0, 1, 1), (2, 2, 1), (3, 4, 2)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_union_and_disjointness(self, labels):
        spans = spans_of(labels)
        covered = {}
        for start, end, label in spans:
            assert start <= end
            for i in range(start, end + 1):
                assert i not in covered, "spans overlap"
                covered[i] = label
        nonzero = {i: lab for i, lab in enumerate(labels) if lab != 0}
        assert covered == nonzero
        starts = [start for start, _, _ in spans]
        assert starts == sorted(starts)
        # maximality: the position before each span differs from its label
        for start, _, label in spans:
            if start > 0:
                assert labels[start - 1] != label

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=1, max_size=8))
    def test_equals_the_oracle_sentence_by_sentence(self, sentences):
        # Small label alphabets and one-token sentences put many runs against
        # sentence edges, where a flat run must break.
        offsets = np.cumsum([0] + [len(s) for s in sentences])
        expected = [
            (lo + span.start, lo + span.end, span.label)
            for lo, labels in zip(offsets.tolist(), sentences)
            for span in extract_spans(labels)
        ]
        assert spans_of([x for s in sentences for x in s], offsets) == expected


class TestVocab:
    def test_min_count_two(self):
        corpus = parse("a\tO\na\tO\nb\tO\n\n", label_set=LabelSet(["X"]))
        vocab = build_vocab(corpus, min_count=2)
        assert vocab.encode("a") != Vocab.UNK
        assert vocab.encode("b") == Vocab.UNK

    def test_min_count_one_indexes_everything(self):
        corpus = parse("a\tO\nb\tO\nc\tO\n\n", label_set=LabelSet(["X"]))
        vocab = build_vocab(corpus, min_count=1)
        assert {vocab.encode(w) for w in "abc"} & {Vocab.UNK, Vocab.PAD} == set()

    def test_case_folding(self):
        corpus = parse("The\tO\nthe\tO\n\n", label_set=LabelSet(["X"]))
        vocab = build_vocab(corpus, min_count=2)
        assert vocab.encode("THE") == vocab.encode("the")
        assert vocab.size == 3  # pad, unk, "the"

    def test_reserved_indices_distinct_and_dense(self):
        corpus = parse("b\tO\na\tO\na\tO\n\n", label_set=LabelSet(["X"]))
        vocab = build_vocab(corpus)
        assert Vocab.PAD != Vocab.UNK
        indices = sorted(vocab.word_to_index.values())
        assert indices == list(range(vocab.size))


class TestCorpusStructure:
    def test_flat_indexing(self):
        corpus = parse("a\tO\nb\tO\n\nc\tO\n\n", label_set=LabelSet(["X"]))
        assert corpus.n_tokens == 3
        assert corpus.offsets.tolist() == [0, 2, 3]
        assert corpus.token_positions(np.array([1, 0])).tolist() == [2, 0, 1]

    def test_label_out_of_range(self):
        with pytest.raises(FormatError):
            Corpus([Sentence((Token("a", 2),))], LabelSet(["X"]))

    def test_distant_array_is_built_once_and_read_only(self):
        corpus = parse("a\tX\nb\tO\n\nc\tX\n\n")
        labels = corpus.distant_array()
        assert labels is corpus.distant_array()
        assert labels.tolist() == [1, 0, 1]
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0] = 0


class TestEncodedCorpus:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
        window=st.integers(0, 3),
    )
    def test_encode_windows_matches_per_sentence_loop(self, lengths, window):
        words = ["a", "b", "c", "zz"]  # "zz" is out of vocabulary
        sentences = [
            Sentence(tuple(Token(words[(s + t) % 4], 0) for t in range(n)))
            for s, n in enumerate(lengths)
        ]
        corpus = Corpus(sentences, LabelSet(["X"]))
        vocab = Vocab(["a", "b", "c"])
        expected = np.concatenate(
            [loop_window_rows(vocab.encode_sentence(s.surfaces()), window) for s in sentences]
        )
        assert np.array_equal(corpus.windows(vocab, window), expected)

    def test_windows_are_read_only(self):
        corpus = parse("a\tX\nb\tO\n\nc\tX\n\n")
        rows = corpus.windows(build_vocab(corpus), 1)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 5

    def test_windows_built_once_per_vocab_and_window(self, monkeypatch):
        corpus = parse("a\tX\nb\tO\n\nc\tX\n\n")
        encoded = []
        encode = Vocab.encode_sentence
        monkeypatch.setattr(
            Vocab, "encode_sentence", lambda v, s: encoded.append(s) or encode(v, s)
        )
        vocab = build_vocab(corpus)
        rows = corpus.windows(vocab, 2)
        # an equal vocabulary, as a voter loaded from disk carries, hits too
        assert corpus.windows(vocab, 2) is rows
        assert corpus.windows(Vocab(vocab.words()), 2) is rows
        assert encoded == [corpus.surfaces]  # the whole surfaces column, once

    def test_windows_rebuilt_for_another_vocab_or_window(self):
        corpus = parse("a\tX\nb\tO\n\nc\tX\n\n")
        vocab = build_vocab(corpus)
        rows = corpus.windows(vocab, 1)
        wider = corpus.windows(vocab, 2)
        assert wider.shape == (3, 5)
        assert np.array_equal(wider[:, 1:4], rows)
        other = Vocab(["c", "a"])
        assert np.array_equal(
            corpus.windows(other, 1),
            np.concatenate([loop_window_rows(other.encode_sentence(s.surfaces()), 1) for s in corpus.sentences]),
        )
        assert np.array_equal(corpus.windows(vocab, 1), rows)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=8), data=st.data())
    def test_token_positions_match_per_sentence_ranges(self, lengths, data):
        corpus = Corpus(
            [Sentence(tuple(Token("a", 0) for _ in range(n))) for n in lengths], LabelSet(["X"])
        )
        batch = np.array(
            data.draw(st.lists(st.integers(0, len(lengths) - 1), min_size=1, unique=True))
        )
        offsets = corpus.offsets
        expected = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in batch])
        assert np.array_equal(corpus.token_positions(batch), expected)
