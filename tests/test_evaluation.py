import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucl.corpus import Corpus, LabelSet, Sentence, Token, build_vocab
from pucl.curriculum import build_plan
from pucl.errors import CompatibilityError
from pucl.evaluation import (
    curriculum_error_analysis,
    difficulty_histogram,
    evaluate,
    evaluate_labels,
)
from pucl.model import ModelConfig, TokenClassifier
from pucl.voters import DifficultyTable


from oracles import Span, extract_spans, oracle_metrics, oracle_report_json, relaxed_prf, strict_prf


def random_micro_corpus(rng, k=2):
    sentences = []
    n_sentences = int(rng.integers(1, 6))
    pred_labels = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, 9))
        gold = [int(x) for x in rng.integers(0, k + 1, size=n)]
        pred = [int(x) for x in rng.integers(0, k + 1, size=n)]
        tokens = tuple(Token(f"w{i}", 0, gold[i]) for i in range(n))
        sentences.append(Sentence(tokens))
        pred_labels.append(np.array(pred))
    names = [f"T{i}" for i in range(1, k + 1)]
    return Corpus(sentences, LabelSet(names)), pred_labels


class TestStrict:
    def test_perfect_prediction(self):
        spans = [[Span(0, 1, 1), Span(3, 3, 2)] for _ in range(5)]
        m = strict_prf(spans, spans)
        assert m.precision == m.recall == m.f1 == 1.0

    def test_boundary_mismatch_scores_zero(self):
        gold = [[Span(1, 2, 1)]]
        pred = [[Span(2, 3, 1)]]
        m = strict_prf(pred, gold)
        assert m.precision == m.recall == m.f1 == 0.0

    def test_empty_prediction_convention(self):
        m = strict_prf([[]], [[Span(0, 0, 1)]])
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_type_must_match(self):
        m = strict_prf([[Span(0, 1, 2)]], [[Span(0, 1, 1)]])
        assert m.f1 == 0.0


class TestRelaxed:
    def test_one_token_overlap_counts(self):
        gold = [[Span(1, 2, 1)]]
        pred = [[Span(2, 3, 1)]]
        m = relaxed_prf(pred, gold)
        assert m.precision == m.recall == m.f1 == 1.0

    def test_disjoint_scores_zero(self):
        m = relaxed_prf([[Span(0, 0, 1)]], [[Span(2, 3, 1)]])
        assert m.f1 == 0.0

    def test_one_pred_two_gold_independent_counting(self):
        gold = [[Span(0, 1, 1), Span(3, 4, 1)]]
        pred = [[Span(1, 3, 1)]]
        m = relaxed_prf(pred, gold)
        assert m.tp_precision == 1
        assert m.tp_recall == 2
        assert m.precision == 1.0
        assert m.recall == 1.0

    def test_type_agreement_switchable(self):
        gold = [[Span(0, 1, 1)]]
        pred = [[Span(1, 2, 2)]]
        assert relaxed_prf(pred, gold).f1 == 0.0
        assert relaxed_prf(pred, gold, require_type_match=False).f1 == 1.0


class TestOracleEquivalence:
    def test_200_random_micro_corpora(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            corpus, pred_labels = random_micro_corpus(rng)
            report = evaluate_labels(np.concatenate(pred_labels), corpus)
            pred_spans = [extract_spans(p) for p in pred_labels]
            gold_spans = [extract_spans(s.gold_labels()) for s in corpus.sentences]
            (sp, sr, sf), (rp, rr, rf) = oracle_metrics(pred_spans, gold_spans)
            assert report.strict.precision == pytest.approx(sp, abs=1e-12)
            assert report.strict.recall == pytest.approx(sr, abs=1e-12)
            assert report.strict.f1 == pytest.approx(sf, abs=1e-12)
            assert report.relaxed.precision == pytest.approx(rp, abs=1e-12)
            assert report.relaxed.recall == pytest.approx(rr, abs=1e-12)
            assert report.relaxed.f1 == pytest.approx(rf, abs=1e-12)

    @pytest.mark.parametrize("require_type", [True, False])
    def test_per_type_and_untyped_families_equal_the_references(self, require_type):
        rng = np.random.default_rng(31)
        for _ in range(200):
            corpus, pred_labels = random_micro_corpus(rng, k=3)
            report = evaluate_labels(np.concatenate(pred_labels), corpus, require_type_match=require_type)
            pred_spans = [extract_spans(p) for p in pred_labels]
            gold_spans = [extract_spans(s.gold_labels()) for s in corpus.sentences]
            families = [(report.strict, report.relaxed, pred_spans, gold_spans)]
            for t, name in enumerate(corpus.label_set.names, 1):
                families.append((
                    report.strict_per_type[name],
                    report.relaxed_per_type[name],
                    [[s for s in spans if s.label == t] for spans in pred_spans],
                    [[s for s in spans if s.label == t] for spans in gold_spans],
                ))
            for strict, relaxed, pred, gold in families:
                (sp, sr, sf), (rp, rr, rf) = oracle_metrics(pred, gold, require_type)
                assert (strict.precision, strict.recall, strict.f1) == (sp, sr, sf)
                assert (relaxed.precision, relaxed.recall, relaxed.f1) == (rp, rr, rf)
                # the span-list references agree on every count too
                assert strict == strict_prf(pred, gold)
                assert relaxed == relaxed_prf(pred, gold, require_type)

    def test_prediction_lengths_must_match_the_sentences(self):
        corpus, pred_labels = random_micro_corpus(np.random.default_rng(5))
        with pytest.raises(ValueError, match="shape"):
            evaluate_labels(np.append(np.concatenate(pred_labels), 0), corpus)
        with pytest.raises(ValueError, match="shape"):
            evaluate_labels(np.concatenate(pred_labels)[:-1], corpus)

    def test_strict_tp_never_exceeds_relaxed_precision_tp(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            corpus, pred_labels = random_micro_corpus(rng)
            report = evaluate_labels(np.concatenate(pred_labels), corpus)
            assert report.strict.tp_precision <= report.relaxed.tp_precision

    def test_sentence_permutation_invariance(self):
        rng = np.random.default_rng(29)
        corpus, pred_labels = random_micro_corpus(rng)
        while len(corpus.sentences) < 2:
            corpus, pred_labels = random_micro_corpus(rng)
        report = evaluate_labels(np.concatenate(pred_labels), corpus)
        order = rng.permutation(len(corpus.sentences))
        shuffled = Corpus([corpus.sentences[i] for i in order], corpus.label_set)
        shuffled_pred = np.concatenate([pred_labels[i] for i in order])
        other = evaluate_labels(shuffled_pred, shuffled)
        assert other.strict.f1 == report.strict.f1
        assert other.relaxed.f1 == report.relaxed.f1


@st.composite
def labelled_corpora(draw):
    """(corpus, flat prediction): k types, gold labels drawn from 0..used
    (so types above ``used`` have no gold span) and a prediction that may be
    all O."""
    k = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    n = sum(lengths)
    used = draw(st.integers(0, k))
    gold = draw(st.lists(st.integers(0, used), min_size=n, max_size=n))
    pred = draw(st.one_of(st.just([0] * n), st.lists(st.integers(0, k), min_size=n, max_size=n)))
    cuts = np.cumsum([0, *lengths]).tolist()
    sentences = [Sentence(tuple(Token(f"w{i}", 0, gold[i]) for i in range(a, b))) for a, b in zip(cuts, cuts[1:])]
    return Corpus(sentences, LabelSet([f"T{i}" for i in range(1, k + 1)])), np.array(pred)


class TestReportJson:
    @settings(max_examples=150, deadline=None)
    @given(labelled_corpora(), st.booleans())
    def test_equals_the_hand_written_payload(self, case, require_type):
        corpus, pred = case
        report = evaluate_labels(pred, corpus, require_type)
        assert report.to_json() == oracle_report_json(report)


class TestEvaluateModel:
    def corpus(self):
        ls = LabelSet(["A"])
        sents = [
            Sentence((Token("x", 0, 1), Token("y", 0, 0))),
            Sentence((Token("y", 0, 0), Token("x", 0, 1))),
        ]
        return Corpus(sents, ls)

    def oracle_model(self, corpus):
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, window=0, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, corpus.label_set.names)
        # rig the network: big logit for class 1 exactly on surface "x"
        model.embedding[:] = 0.0
        model.embedding[vocab.encode("x"), 0] = 1.0
        model.w1[:] = 0.0
        model.w1[0, 0] = 5.0
        model.b1[:] = 0.0
        model.w2[:] = 0.0
        model.w2[0, 1] = 50.0
        model.b2[:] = np.array([1.0, 0.0])
        return model

    def test_oracle_model_scores_one(self):
        corpus = self.corpus()
        report = evaluate(self.oracle_model(corpus), corpus)
        assert report.strict.f1 == 1.0
        assert report.relaxed.f1 == 1.0

    def test_all_o_model_scores_zero(self):
        corpus = self.corpus()
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, corpus.label_set.names)
        model.w2[:] = 0.0
        model.b2[:] = np.array([10.0, 0.0])
        report = evaluate(model, corpus)
        assert report.strict.f1 == 0.0 and report.relaxed.f1 == 0.0

    def test_missing_gold_rejected(self):
        ls = LabelSet(["A"])
        corpus = Corpus([Sentence((Token("x", 0, None),))], ls)
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, ls.names)
        with pytest.raises(CompatibilityError):
            evaluate(model, corpus)


class TestCurriculumAnalysis:
    def make_corpus(self):
        ls = LabelSet(["A", "B"])
        sents = [
            Sentence(
                (
                    Token("a", 1, 1),  # clean positive
                    Token("b", 1, 0),  # false positive
                    Token("c", 0, 0),
                    Token("d", 2, 2),  # clean positive
                )
            )
        ]
        return Corpus(sents, ls)

    def test_error_rates_per_curriculum(self):
        corpus = self.make_corpus()
        scores = np.array([0.0, 0.9, 0.1, 0.1])
        table = DifficultyTable(corpus, scores)
        plan = build_plan(table, corpus, tau=0.5, eta=2)
        # C_1 gets floor(0.5*3)=1 easiest positive (token 0), C_2 the rest
        analysis = curriculum_error_analysis(plan, corpus, table)
        assert analysis.rows[0]["positives"] == 1
        assert analysis.rows[0]["error_rate"] == 0.0
        assert analysis.rows[1]["positives"] == 2
        assert analysis.rows[1]["error_rate"] == 0.5

    def test_noise_free_rates_zero(self):
        ls = LabelSet(["A"])
        sents = [Sentence((Token("a", 1, 1), Token("b", 0, 0)))]
        corpus = Corpus(sents, ls)
        table = DifficultyTable(corpus, np.array([0.5, 0.2]))
        plan = build_plan(table, corpus, 0.5, 1)
        analysis = curriculum_error_analysis(plan, corpus, table)
        assert [r["error_rate"] for r in analysis.rows] == [0.0]

    def test_empty_curriculum_reports_none(self):
        corpus = self.make_corpus()
        table = DifficultyTable(corpus, np.array([0.0, 0.9, 0.1, 0.2]))
        plan = build_plan(table, corpus, tau=0.9, eta=4)
        analysis = curriculum_error_analysis(plan, corpus, table)
        empty_rows = [r for r in analysis.rows if r["positives"] == 0]
        assert empty_rows
        assert all(r["error_rate"] is None for r in empty_rows)

    def test_mean_difficulty_non_decreasing(self):
        corpus = self.make_corpus()
        table = DifficultyTable(corpus, np.array([0.05, 0.9, 0.0, 0.4]))
        plan = build_plan(table, corpus, tau=0.5, eta=2)
        analysis = curriculum_error_analysis(plan, corpus, table)
        means = [r["mean_difficulty"] for r in analysis.rows if r["mean_difficulty"] is not None]
        assert means == sorted(means)

    def test_csv_output(self):
        corpus = self.make_corpus()
        table = DifficultyTable(corpus, np.array([0.0, 0.9, 0.1, 0.1]))
        plan = build_plan(table, corpus, tau=0.5, eta=2)
        out = io.StringIO()
        curriculum_error_analysis(plan, corpus, table).to_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "curriculum,positives,errors,error_rate,mean_difficulty"
        assert len(lines) == 3


class TestHistogram:
    def test_all_zero_single_bin(self):
        hist = difficulty_histogram(np.zeros(50), bins=10)
        assert hist.counts[0] == 50
        assert hist.counts[1:].sum() == 0

    def test_counts_sum(self):
        rng = np.random.default_rng(0)
        scores = rng.random(321)
        hist = difficulty_histogram(scores, bins=7)
        assert hist.counts.sum() == 321

    def test_skew_indicator(self):
        scores = np.concatenate([np.zeros(90), np.full(10, 5.0)])
        hist = difficulty_histogram(scores, bins=5)
        assert hist.counts.tolist() == [90, 0, 0, 0, 10]

    def test_csv_format(self):
        out = io.StringIO()
        difficulty_histogram(np.array([0.1, 0.2, 0.9]), bins=3).to_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 4

    def test_bin_validation(self):
        with pytest.raises(ValueError):
            difficulty_histogram(np.array([0.1]), bins=0)
