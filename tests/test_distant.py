import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_candidates, extract_spans, oracle_annotate, oracle_generate_synthetic, oracle_inject_noise
from pucl.corpus import Corpus, LabelSet, Sentence, Token
from pucl.distant import (
    Dictionary,
    SyntheticSpec,
    _weighted_sampler,
    annotate,
    compile_dictionary,
    generate_synthetic,
    inject_noise,
    noise_report,
    read_dictionary_pairs,
    write_dictionary,
)
from pucl.errors import FormatError

LS = LabelSet(["T", "U"])


def sentence(words, distant=None, gold=None):
    n = len(words)
    distant = distant or [0] * n
    gold = gold if gold is not None else [None] * n
    return Sentence(tuple(Token(w, d, g) for w, d, g in zip(words, distant, gold)))


class TestCompile:
    def test_index_structure(self):
        idx = compile_dictionary(Dictionary.build([("milk fat", "T")], LS))
        assert idx == {"milk": [(("milk", "fat"), 1)]}

    def test_duplicates_collapse(self):
        d = Dictionary.build([("milk fat", "T"), ("Milk  Fat", "T")], LS)
        assert len(d.entries) == 1

    def test_unknown_type(self):
        with pytest.raises(FormatError):
            Dictionary.build([("milk", "NOPE")], LS)

    def test_every_entry_findable(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(40)]
        entries = []
        for _ in range(1000):
            length = int(rng.integers(1, 4))
            surface = " ".join(words[int(rng.integers(0, 40))] for _ in range(length))
            entries.append((surface, "T" if rng.random() < 0.5 else "U"))
        d = Dictionary.build(entries, LS)
        idx = compile_dictionary(d)
        smallest = {}
        for tokens, label in d.entries:
            smallest[tokens] = min(label, smallest.get(tokens, label))
        for tokens, label in d.entries:
            # The entry itself covers the whole sentence, and among full-length
            # matches the smallest type id wins.
            assert annotate(list(tokens), idx) == [smallest[tokens]] * len(tokens)


class TestAnnotate:
    def test_three_token_entry_wins(self):
        entries = [("milk fat", "T"), ("fat percentage", "T"), ("milk fat percentage", "T")]
        idx = compile_dictionary(Dictionary.build(entries, LS))
        assert annotate(["milk", "fat", "percentage"], idx) == [1, 1, 1]

    def test_no_hits(self):
        idx = compile_dictionary(Dictionary.build([("milk fat", "T")], LS))
        assert annotate(["a", "b", "c"], idx) == [0, 0, 0]

    def test_leftmost_wins_coverage_tie(self):
        idx = compile_dictionary(Dictionary.build([("a b", "T"), ("b c", "U")], LS))
        assert annotate(["a", "b", "c"], idx) == [1, 1, 0]

    def test_case_folded_match(self):
        idx = compile_dictionary(Dictionary.build([("Milk Fat", "T")], LS))
        assert annotate(["MILK", "fat"], idx) == [1, 1]

    def test_matches_oracle_on_random_sentences(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(8)]
        checked = 0
        while checked < 500:
            entries = []
            for _ in range(int(rng.integers(2, 7))):
                length = int(rng.integers(1, 4))
                surface = " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(length))
                entries.append((surface, "T" if rng.random() < 0.5 else "U"))
            words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(int(rng.integers(1, 11)))]
            if count_candidates(words, entries, LS) > 12:
                continue
            idx = compile_dictionary(Dictionary.build(entries, LS))
            checked += 1
            assert annotate(words, idx) == oracle_annotate(words, entries, LS), (
                words,
                entries,
            )

    def test_total_coverage_equals_oracle_optimum(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(100):
            entries = [
                (
                    " ".join(vocab[int(rng.integers(0, 6))] for _ in range(int(rng.integers(1, 4)))),
                    "T",
                )
                for _ in range(4)
            ]
            words = [vocab[int(rng.integers(0, 6))] for _ in range(8)]
            if count_candidates(words, entries, LS) > 12:
                continue
            idx = compile_dictionary(Dictionary.build(entries, LS))
            ours = sum(1 for lab in annotate(words, idx) if lab != 0)
            oracle = sum(1 for lab in oracle_annotate(words, entries, LS) if lab != 0)
            assert ours == oracle


class TestNoiseReport:
    def make(self, gold, distant):
        sent = sentence([f"w{i}" for i in range(len(gold))], distant, gold)
        return Corpus([sent], LS)

    def test_identical_labels(self):
        stats = noise_report(self.make([1, 0], [1, 0]))
        assert stats.positive_error_rate == 0.0
        assert stats.false_negative_rate == 0.0

    def test_false_negative(self):
        stats = noise_report(self.make([1, 0], [0, 0]))
        assert stats.false_negatives == 1
        assert stats.false_positives == 0
        assert stats.positive_type_errors == 0

    def test_mixed_table(self):
        stats = noise_report(self.make([1, 0, 2], [2, 1, 0]))
        assert stats.positive_type_errors == 1
        assert stats.false_positives == 1
        assert stats.false_negatives == 1

    def test_categories_partition_disagreements(self):
        rng = np.random.default_rng(5)
        gold = [int(x) for x in rng.integers(0, 3, size=200)]
        distant = [int(x) for x in rng.integers(0, 3, size=200)]
        stats = noise_report(self.make(gold, distant))
        disagreements = sum(1 for g, d in zip(gold, distant) if g != d)
        assert (
            stats.false_negatives + stats.false_positives + stats.positive_type_errors
            == disagreements
        )

    def test_aggregation_identity(self):
        rng = np.random.default_rng(6)
        gold = [int(x) for x in rng.integers(0, 3, size=300)]
        distant = [int(x) for x in rng.integers(0, 3, size=300)]
        stats = noise_report(self.make(gold, distant))
        assert stats.positive_error_rate == pytest.approx(
            stats.false_positive_rate + stats.positive_type_error_rate
        )

    def test_missing_gold(self):
        corpus = Corpus([sentence(["a"], [0])], LS)
        with pytest.raises(FormatError):
            noise_report(corpus)


class TestInjectNoise:
    def gold_corpus(self, n_sentences=200, rng=None):
        rng = rng or np.random.default_rng(0)
        sentences = []
        for _ in range(n_sentences):
            labels = []
            while len(labels) < 10:
                if rng.random() < 0.3:
                    labels.extend([int(rng.integers(1, 3))] * int(rng.integers(1, 3)))
                else:
                    labels.append(0)
            labels = labels[:10]
            sentences.append(sentence([f"w{i}" for i in range(10)], labels, labels))
        return Corpus(sentences, LS)

    def test_zero_rates_identity(self):
        corpus = self.gold_corpus()
        out = inject_noise(corpus, 0, 0, 0, np.random.default_rng(1))
        assert np.array_equal(out.distant_array(), out.gold_array())

    def test_full_erasure(self):
        corpus = self.gold_corpus()
        out = inject_noise(corpus, 1.0, 0, 0, np.random.default_rng(1))
        assert np.all(out.distant_array() == 0)

    def test_binomial_erasure_rate(self):
        corpus = self.gold_corpus(n_sentences=500)
        n_spans = sum(
            len(extract_spans(s.gold_labels())) for s in corpus.sentences
        )
        assert n_spans >= 1000
        out = inject_noise(corpus, 0.4, 0, 0, np.random.default_rng(2))
        erased = 0
        for sent in out.sentences:
            for span in extract_spans(sent.gold_labels()):
                if all(t.distant_label == 0 for t in sent.tokens[span.start : span.end + 1]):
                    erased += 1
        sigma = np.sqrt(n_spans * 0.4 * 0.6)
        assert abs(erased - 0.4 * n_spans) < 3 * sigma

    def test_surfaces_and_lengths_preserved(self):
        corpus = self.gold_corpus()
        out = inject_noise(corpus, 0.5, 0.3, 0.2, np.random.default_rng(3))
        assert [len(s) for s in out.sentences] == [len(s) for s in corpus.sentences]
        for a, b in zip(corpus.sentences, out.sentences):
            assert a.surfaces() == b.surfaces()
            assert a.gold_labels() == b.gold_labels()

    def test_deterministic_under_seed(self):
        corpus = self.gold_corpus()
        a = inject_noise(corpus, 0.3, 0.1, 0.1, np.random.default_rng(9))
        b = inject_noise(corpus, 0.3, 0.1, 0.1, np.random.default_rng(9))
        assert a == b

    def test_rate_validation(self):
        corpus = self.gold_corpus()
        with pytest.raises(ValueError):
            inject_noise(corpus, -0.1, 0, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            inject_noise(corpus, 0.8, 0, 0.4, np.random.default_rng(0))

    @settings(max_examples=150, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), min_size=1, max_size=10),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_the_per_sentence_oracle(self, sentences, k, seed, data):
        rate = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        fn_rate, fp_rate = data.draw(rate), data.draw(rate)
        type_rate = 0.0 if k == 1 else data.draw(st.just(1.0 - fn_rate) | st.floats(0.0, 1.0 - fn_rate))
        sents = [[min(x, k) for x in labels] for labels in sentences]
        corpus = Corpus([sentence(["w"] * len(g), g, g) for g in sents], LabelSet([f"T{t}" for t in range(1, k + 1)]))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = inject_noise(corpus, fn_rate, fp_rate, type_rate, rng)
        expected = oracle_inject_noise(corpus.gold_array(), corpus.offsets, k, fn_rate, fp_rate, type_rate, oracle_rng)
        assert out.distant_array().tolist() == expected
        assert rng.random() == oracle_rng.random()  # the same number of draws

    def test_type_rate_needs_two_types(self):
        ls = LabelSet(["T"])
        corpus = Corpus([Sentence((Token("a", 1, 1),))], ls)
        with pytest.raises(ValueError):
            inject_noise(corpus, 0, 0, 0.5, np.random.default_rng(0))


class TestGenerateSynthetic:
    def test_entity_surfaces_from_dictionary(self):
        spec = SyntheticSpec(n_sentences=10, k=2, dict_size=8)
        corpus, dictionary = generate_synthetic(spec, np.random.default_rng(1))
        assert len(corpus.sentences) == 10
        words_by_type = {}
        for tokens, label in dictionary.entries:
            words_by_type.setdefault(label, set()).update(tokens)
        for sent in corpus.sentences:
            for tok in sent.tokens:
                if tok.gold_label:
                    assert tok.surface.casefold() in words_by_type[tok.gold_label]

    def test_same_seed_identical(self):
        spec = SyntheticSpec(n_sentences=20, k=2, dict_size=10)
        a, da = generate_synthetic(spec, np.random.default_rng(7))
        b, db = generate_synthetic(spec, np.random.default_rng(7))
        assert a == b
        assert da.entries == db.entries

    def test_label_range(self):
        spec = SyntheticSpec(n_sentences=30, k=2, dict_size=10)
        corpus, _ = generate_synthetic(spec, np.random.default_rng(2))
        gold = corpus.gold_array()
        assert set(np.unique(gold)) <= {0, 1, 2}

    def test_empty_template_pool_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_sentences=5, templates=())

    @pytest.mark.parametrize(
        "knobs",
        [
            {"entity_len_probs": (1.5, -0.5, 0.0)},
            {"entity_len_probs": (float("nan"), 0.5, 0.5)},
            {"entity_len_probs": (float("inf"), 1.0)},
            {"zipf_exponent": float("nan")},
            {"zipf_exponent": float("inf")},
            {"zipf_exponent": -float("inf")},
        ],
        ids=["negative", "nan-prob", "inf-prob", "nan-zipf", "inf-zipf", "-inf-zipf"],
    )
    def test_probabilities_checked_at_construction(self, knobs):
        # a draw from a cumulative table checks nothing, so the spec must
        with pytest.raises(ValueError):
            SyntheticSpec(n_sentences=1, **knobs)

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(n_sentences=120),
            SyntheticSpec(n_sentences=150, filler_vocab=20_000, zipf_exponent=0.5),
            SyntheticSpec(
                n_sentences=80,
                k=3,
                dict_size=25,
                entity_len_probs=(0.1, 0.0, 0.6, 0.3),
                words_per_type=4,
                templates=(("{F}", "{E}", "of", "{F}"), ("see", "{E}", "{E}")),
            ),
            SyntheticSpec(n_sentences=40, dict_size=200, words_per_type=3, entity_len_probs=(1.0,)),
        ],
        ids=["default", "wide-vocab", "custom", "dictionary-exhausted"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_equals_the_choice_oracle(self, spec, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        corpus, dictionary = generate_synthetic(spec, rng)
        expected, expected_dictionary = oracle_generate_synthetic(spec, oracle_rng)
        assert corpus.surfaces == expected.surfaces
        assert corpus.distant_array().tolist() == expected.distant_array().tolist()
        assert corpus.gold_array().tolist() == expected.gold_array().tolist()
        assert corpus.offsets.tolist() == expected.offsets.tolist()
        assert dictionary.entries == expected_dictionary.entries
        assert rng.random() == oracle_rng.random()  # the same draws, in the same order

    def test_one_token_object_per_surface_and_label(self):
        spec = SyntheticSpec(n_sentences=200, k=3, filler_vocab=500, zipf_exponent=0.5)
        corpus, _ = generate_synthetic(spec, np.random.default_rng(3))
        tokens = [t for s in corpus.sentences for t in s.tokens]
        distinct = {(t.surface, t.gold_label) for t in tokens}
        assert len({id(t) for t in tokens}) == len(distinct) < len(tokens)
        assert all(t.distant_label == t.gold_label for t in tokens)


class TestWeightedSampler:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_generator_choice_draw_for_draw(self, weights, seed):
        p = np.asarray(weights) / np.sum(weights)
        rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _weighted_sampler(p, rng)
        assert [draw() for _ in range(50)] == [int(choice_rng.choice(len(p), p=p)) for _ in range(50)]
        assert rng.random() == choice_rng.random()


class TestReadDictionary:
    def test_parse(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("milk fat\tT\nhoof color\tU\n", encoding="utf-8")
        with open(path, encoding="utf-8") as f:
            pairs, names = read_dictionary_pairs(f)
        assert pairs == [("milk fat", "T"), ("hoof color", "U")]
        assert names == ["T", "U"]

    def test_bad_columns(self):
        with pytest.raises(FormatError):
            read_dictionary_pairs(["a\tT\tX\n"])


class TestWriteDictionary:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.text("abcxyzß", min_size=1, max_size=4), min_size=1, max_size=3),
                st.sampled_from(["PER", "LOC", "ORG"]),
            ),
            max_size=12,
        )
    )
    def test_round_trips_through_the_reader(self, entries):
        label_set = LabelSet(["PER", "LOC", "ORG"])
        dictionary = Dictionary.build([(" ".join(words), name) for words, name in entries], label_set)
        stream = io.StringIO()
        write_dictionary(dictionary, stream)
        pairs, names = read_dictionary_pairs(io.StringIO(stream.getvalue()))
        assert Dictionary.build(pairs, label_set) == dictionary
        assert names == list(dict.fromkeys(label_set.name_of(label) for _, label in dictionary.entries))
        assert len(stream.getvalue().splitlines()) == len(dictionary.entries)
