import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loss_mae, naive_conf_mpu, oracle_conf_mpu_risk, random_batch
from pucl.corpus import Corpus, LabelSet, Sentence, Token
from pucl.risk import (
    ConfMpuConfig,
    Priors,
    ce_rows,
    conf_mpu_risk,
    estimate_priors,
    kl_soft_rows,
    mae_rows,
    pn_risk,
    sample_negatives,
)


class TestLossCe:
    def test_perfect_prediction(self):
        values, _ = ce_rows(np.array([[0.0, 1.0]]), np.array([1]))
        assert values[0] == 0.0

    def test_e_inverse(self):
        values, _ = ce_rows(np.array([[1 - math.exp(-1), math.exp(-1)]]), np.array([1]))
        assert values[0] == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        dists = rng.random((20, 4)) + 0.05
        dists /= dists.sum(axis=1, keepdims=True)
        targets = rng.integers(0, 4, size=20)
        _, grads = ce_rows(dists, targets)
        h = 1e-7
        for j in range(4):
            up, down = dists.copy(), dists.copy()
            up[:, j] += h
            down[:, j] -= h
            fd = (ce_rows(up, targets)[0] - ce_rows(down, targets)[0]) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(grads[:, j]), np.abs(fd)), 1.0)
            assert np.all(np.abs(grads[:, j] - fd) / denom < 1e-8)

    def test_floor_prevents_infinity(self):
        values, grads = ce_rows(np.array([[1.0, 0.0]]), np.array([1]))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))


class TestLossMae:
    def test_perfect_prediction(self):
        values, _ = mae_rows(np.array([[0.0, 1.0]]), np.array([1]))
        assert values[0] == 0.0

    def test_binary_example(self):
        values, _ = mae_rows(np.array([[0.3, 0.7]]), np.array([1]))
        assert values[0] == pytest.approx(0.6, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dist = rng.random(3)
            dist /= dist.sum()
            values, _ = mae_rows(dist[None, :], np.array([int(rng.integers(0, 3))]))
            assert 0.0 <= values[0] <= 2.0

    def test_gradient_signs(self):
        _, grads = mae_rows(np.array([[0.2, 0.5, 0.3]]), np.array([1]))
        assert np.array_equal(grads[0], np.array([1.0, -1.0, 1.0]))


class TestLossKlSoft:
    def test_identical_distributions(self):
        p = np.array([[0.25, 0.75]])
        assert kl_soft_rows(p, p)[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        values, _ = kl_soft_rows(np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))
        assert values[0] == pytest.approx(0.5108256238, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        p = rng.random((100, 4)) + 0.01
        p /= p.sum(axis=1, keepdims=True)
        t = rng.random((100, 4)) + 0.01
        t /= t.sum(axis=1, keepdims=True)
        assert np.all(kl_soft_rows(p, t)[0] >= -1e-15)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        p = rng.random((1, 3)) + 0.1
        p /= p.sum()
        t = rng.random((1, 3)) + 0.1
        t /= t.sum()
        _, grads = kl_soft_rows(p, t)
        h = 1e-7
        for j in range(3):
            up, down = p.copy(), p.copy()
            up[0, j] += h
            down[0, j] -= h
            fd = (kl_soft_rows(up, t)[0][0] - kl_soft_rows(down, t)[0][0]) / (2 * h)
            assert abs(grads[0, j] - fd) / max(abs(fd), 1.0) < 1e-8


class TestPriors:
    def corpus(self, labels_per_sentence):
        ls = LabelSet(["A", "B"])
        sents = [
            Sentence(tuple(Token(f"w{i}", lab) for i, lab in enumerate(labels)))
            for labels in labels_per_sentence
        ]
        return Corpus(sents, ls)

    def test_simple_ratio(self):
        labels = [[1] + [0] * 9 for _ in range(10)]
        labels[0][5] = 2
        corpus = self.corpus(labels)
        priors = estimate_priors(corpus)
        assert priors.pi[0] == pytest.approx(0.1)

    def test_two_classes(self):
        rows = [[1] * 10, [2] * 10, [2] * 10, [0] * 10] + [[0] * 10] * 6
        priors = estimate_priors(self.corpus(rows))
        assert priors.pi == pytest.approx([0.1, 0.2])

    def test_all_labeled_violates_sum_invariant(self):
        with pytest.raises(ValueError, match="sum below 1"):
            estimate_priors(self.corpus([[1] * 5, [2] * 5]))

    def test_missing_class_reported(self):
        with pytest.raises(ValueError, match="B"):
            estimate_priors(self.corpus([[1, 0, 0, 0]]))

    def test_priors_validation(self):
        with pytest.raises(ValueError):
            Priors(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            Priors(np.array([0.6, 0.5]))


class TestPnRisk:
    def batch(self, rng, size=50, k=2):
        probs = rng.random((size, k + 1)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, k + 1, size=size)
        return probs, labels

    def test_ratio_one_is_plain_mean(self):
        rng = np.random.default_rng(0)
        probs, labels = self.batch(rng)
        state = rng.bit_generator.state
        keep = sample_negatives(labels, 1.0, rng)
        assert keep.all() and rng.bit_generator.state == state  # nothing drawn
        value, grads = pn_risk(probs[keep], labels[keep], "ce")
        expected = np.mean(
            [-np.log(max(probs[i, labels[i]], 1e-12)) for i in range(len(labels))]
        )
        assert value == pytest.approx(expected, abs=1e-12)
        assert not np.any(np.all(grads == 0, axis=1))

    def test_positives_never_dropped(self):
        rng = np.random.default_rng(1)
        _, labels = self.batch(rng, size=200)
        keep = sample_negatives(labels, 0.01, rng)
        assert np.all(keep[labels > 0])
        assert not np.all(keep[labels == 0])

    def test_one_uniform_per_token(self):
        rng = np.random.default_rng(5)
        _, labels = self.batch(rng, size=40)
        replay = np.random.default_rng(5)
        self.batch(replay, size=40)
        keep = sample_negatives(labels, 0.3, rng)
        assert np.array_equal(keep, (labels > 0) | (replay.random(40) < 0.3))
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_binomial_retention(self):
        rng = np.random.default_rng(2)
        n = 1000
        labels = np.zeros(n, dtype=np.int64)
        retained = int(sample_negatives(labels, 0.3, rng).sum())
        sigma = math.sqrt(n * 0.3 * 0.7)
        assert abs(retained - 300) < 3 * sigma

    def test_empty_contributing_set(self):
        rng = np.random.default_rng(3)
        labels = np.zeros(5, dtype=np.int64)
        # all negatives dropped with overwhelming probability at 1e-12
        keep = sample_negatives(labels, 1e-12, rng)
        assert not keep.any()
        with pytest.raises(ValueError, match="at least one row"):
            pn_risk(np.full((5, 2), 0.5)[keep], labels[keep], "ce")

    def test_ratio_validation(self):
        rng = np.random.default_rng(4)
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="keep_negative_ratio"):
                sample_negatives(np.array([0, 1]), ratio, rng)


class TestConfMpuFixture:
    """Hand-evaluated reference: k=1, MAE, eps=0.5, gamma=1, pi_1=0.5."""

    CFG = ConfMpuConfig(epsilon=0.5, gamma=1.0, loss="mae")
    PRIORS = Priors(np.array([0.5]))

    def test_hand_derived_total(self):
        probs = np.array([[0.3, 0.7], [0.6, 0.4]])
        labels = np.array([1, 0])
        lam = np.array([0.8, 0.3])
        breakdown, _ = conf_mpu_risk(probs, labels, lam, self.PRIORS, self.CFG)
        # positive token: l(f,1)=0.6, l(f,0)=1.4, inner=0.6+1.75-1.4=0.95
        assert breakdown.positive_terms[0] == pytest.approx(0.475, abs=1e-12)
        assert breakdown.unlabeled_term == pytest.approx(0.8, abs=1e-12)
        assert breakdown.total == pytest.approx(1.275, abs=1e-12)
        assert breakdown.clamped_count == 0

    def test_clamped_positive(self):
        probs = np.array([[0.1, 0.9]])
        labels = np.array([1])
        lam = np.array([0.4])
        breakdown, grads = conf_mpu_risk(probs, labels, lam, self.PRIORS, self.CFG)
        # inner = 0.2 - 1.8 < 0 -> clamped to zero with zero gradient
        assert breakdown.total == 0.0
        assert breakdown.clamped_count == 1
        assert np.all(grads == 0)

    def test_pn_reduction_identity(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            probs, labels, _, priors = random_batch(rng, k, 64)
            lam = np.where(labels > 0, 1.0, 0.0)
            cfg = ConfMpuConfig(epsilon=0.5, gamma=2.5, loss="mae")
            breakdown, _ = conf_mpu_risk(probs, labels, lam, priors, cfg)
            expected = 0.0
            for i in range(1, k + 1):
                rows = labels == i
                if rows.any():
                    mean_loss = np.mean([loss_mae(p, i)[0] for p in probs[rows]])
                    expected += cfg.gamma * priors.pi[i - 1] * mean_loss
            rows0 = labels == 0
            if rows0.any():
                expected += np.mean([loss_mae(p, 0)[0] for p in probs[rows0]])
            assert breakdown.total == pytest.approx(expected, abs=1e-12)


class TestConfMpuProperties:
    def test_oracle_equivalence_100_batches(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            k = int(rng.integers(1, 4))
            size = int(rng.integers(1, 65))
            probs, labels, lam, priors = random_batch(rng, k, size)
            kind = "ce" if trial % 2 == 0 else "mae"
            gamma = float(rng.random() * 10 + 0.5)
            cfg = ConfMpuConfig(epsilon=0.5, gamma=gamma, loss=kind)
            breakdown, _ = conf_mpu_risk(probs, labels, lam, priors, cfg)
            expected = naive_conf_mpu(
                [list(row) for row in probs], list(labels), list(lam),
                list(priors.pi), 0.5, gamma, kind,
            )
            assert breakdown.total == pytest.approx(expected, abs=1e-12)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            probs, labels, lam, priors = random_batch(rng, 2, 32)
            breakdown, _ = conf_mpu_risk(
                probs, labels, lam, priors, ConfMpuConfig(loss="mae")
            )
            assert breakdown.total >= 0.0
            assert np.all(breakdown.positive_terms >= 0.0)
            assert breakdown.unlabeled_term >= 0.0

    def test_positive_term_monotone_decreasing_in_lambda(self):
        # for lam in (eps, 1], the per-token inner term shrinks as lam grows
        cfg = ConfMpuConfig(epsilon=0.5, gamma=1.0, loss="mae")
        priors = Priors(np.array([0.5]))
        probs = np.array([[0.4, 0.6]])
        labels = np.array([1])
        lams = np.linspace(0.51, 1.0, 20)
        totals = [
            conf_mpu_risk(probs, labels, np.array([lam]), priors, cfg)[0].total
            for lam in lams
        ]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))
        l1 = loss_mae(probs[0], 1)[0]
        assert totals[-1] == pytest.approx(0.5 * l1, abs=1e-12)

    def test_all_clamped_batch_is_legal(self):
        priors = Priors(np.array([0.5]))
        probs = np.array([[0.05, 0.95], [0.1, 0.9]])
        labels = np.array([1, 1])
        lam = np.array([0.2, 0.3])
        breakdown, grads = conf_mpu_risk(
            probs, labels, lam, priors, ConfMpuConfig(loss="mae")
        )
        assert breakdown.total == 0.0
        assert breakdown.clamped_count == 2
        assert np.all(grads == 0)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10:
            probs, labels, lam, priors = random_batch(rng, 2, 12)
            kind = "mae" if checked % 2 else "ce"
            cfg = ConfMpuConfig(epsilon=0.5, gamma=3.0, loss=kind)
            breakdown, grads = conf_mpu_risk(probs, labels, lam, priors, cfg)

            # stay away from clamp kinks so central differences are valid
            def margins(p):
                bd, _ = conf_mpu_risk(p, labels, lam, priors, cfg)
                return bd

            safe = True
            h = 1e-7
            fd = np.zeros_like(probs)
            for r in range(probs.shape[0]):
                for c in range(probs.shape[1]):
                    up, down = probs.copy(), probs.copy()
                    up[r, c] += h
                    down[r, c] -= h
                    bu, bd_ = margins(up), margins(down)
                    if bu.clamped_count != bd_.clamped_count:
                        safe = False
                        break
                    fd[r, c] = (bu.total - bd_.total) / (2 * h)
                if not safe:
                    break
            if not safe:
                continue
            checked += 1
            err = np.abs(grads - fd) - 1e-6 * np.maximum(np.abs(grads), np.abs(fd))
            assert err.max() <= 1e-7

    def test_breakdown_json_record(self):
        priors = Priors(np.array([0.5]))
        probs = np.array([[0.3, 0.7]])
        cfg = ConfMpuConfig(loss="mae")
        breakdown, _ = conf_mpu_risk(probs, np.array([1]), np.array([0.9]), priors, cfg)
        assert len(breakdown.positive_terms) == 1
        assert breakdown.total == cfg.gamma * breakdown.positive_terms.sum() + breakdown.unlabeled_term

    def test_aggregate_clamp_variant(self):
        priors = Priors(np.array([0.5]))
        cfg = ConfMpuConfig(epsilon=0.5, gamma=1.0, loss="mae", aggregate_clamp=True)
        # one strongly negative inner and one positive inner: per-token clamp
        # keeps the positive part, the aggregate clamp can cancel it
        probs = np.array([[0.05, 0.95], [0.7, 0.3]])
        labels = np.array([1, 1])
        lam = np.array([0.2, 0.9])
        agg, _ = conf_mpu_risk(probs, labels, lam, priors, cfg)
        per_token, _ = conf_mpu_risk(
            probs, labels, lam, priors, ConfMpuConfig(epsilon=0.5, gamma=1.0, loss="mae")
        )
        assert agg.total <= per_token.total


def assert_equals_oracle(probs, labels, lam, priors, cfg):
    got, grads = conf_mpu_risk(probs, labels, lam, priors, cfg)
    want, want_grads = oracle_conf_mpu_risk(probs, labels, lam, priors, cfg)
    assert np.array_equal(grads, want_grads)
    assert got.total == want.total
    assert np.array_equal(got.positive_terms, want.positive_terms)
    assert got.unlabeled_term == want.unlabeled_term
    assert got.clamped_count == want.clamped_count
    return got


@st.composite
def conf_mpu_batches(draw):
    """A batch over k = 1..3 classes, some of them possibly absent, with
    confidences drawn from uniforms and the boundary values 0, eps and 1."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([0.5, 0.25, 0.9]))
    # a high power puts some probabilities below the CE floor
    probs = rng.random((n, k + 1)) ** draw(st.sampled_from([1, 40]))
    probs /= probs.sum(axis=1, keepdims=True)
    present = draw(st.lists(st.integers(0, k), min_size=1, max_size=k + 1, unique=True))
    labels = rng.choice(present, size=n)
    lam = np.where(rng.random(n) < 0.5, rng.random(n), rng.choice([0.0, eps, 1.0], size=n))
    cfg = ConfMpuConfig(
        epsilon=eps,
        gamma=draw(st.sampled_from([1.0, 0.3, 2.5])),
        loss=draw(st.sampled_from(["ce", "mae"])),
        aggregate_clamp=draw(st.booleans()),
    )
    priors = Priors(rng.random(k) * (0.8 / k) + 0.05 / k)
    return probs, labels, lam, priors, cfg


class TestOnePass:
    """``conf_mpu_risk`` against the class-by-class oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(conf_mpu_batches())
    def test_equals_the_class_by_class_oracle(self, batch):
        assert_equals_oracle(*batch)

    EDGE_PROBS = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.1, 0.1, 0.8], [0.5, 0.25, 0.25]])

    @pytest.mark.parametrize("loss", ["ce", "mae"])
    @pytest.mark.parametrize("aggregate_clamp", [False, True])
    @pytest.mark.parametrize(
        "case, labels, lam",
        [
            ("empty-class", [1, 1, 0, 0], [0.9, 0.7, 0.1, 0.6]),
            ("lam-at-eps", [1, 2, 0, 2], [0.5, 0.5, 0.5, 0.9]),
            ("lam-zero-on-positive", [1, 2, 2, 0], [0.0, 0.0, 1.0, 0.2]),
            ("all-gated", [0, 0, 1, 0], [0.8, 0.6, 0.9, 1.0]),
            ("all-unlabeled", [0, 0, 0, 0], [0.1, 0.6, 0.5, 0.0]),
        ],
    )
    def test_edge_batches(self, loss, aggregate_clamp, case, labels, lam):
        cfg = ConfMpuConfig(epsilon=0.5, gamma=2.0, loss=loss, aggregate_clamp=aggregate_clamp)
        priors = Priors(np.array([0.2, 0.1]))
        got = assert_equals_oracle(self.EDGE_PROBS, np.array(labels), np.array(lam), priors, cfg)
        if case == "all-gated":
            assert got.unlabeled_term == 0.0
        if case in ("empty-class", "all-unlabeled"):
            assert got.positive_terms[1] == 0.0

    @pytest.mark.parametrize("loss", ["ce", "mae"])
    @pytest.mark.parametrize("label, lam", [(0, 0.3), (0, 0.7), (1, 0.5), (1, 1.0), (2, 0.9)])
    def test_one_row_batch(self, loss, label, lam):
        cfg = ConfMpuConfig(loss=loss)
        priors = Priors(np.array([0.2, 0.1]))
        assert_equals_oracle(self.EDGE_PROBS[:1], np.array([label]), np.array([lam]), priors, cfg)

    @pytest.mark.parametrize("aggregate_clamp", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_loss_evaluations_per_batch(self, monkeypatch, k, aggregate_clamp):
        import pucl.risk as risk_mod

        # the kernel evaluates a loss through ``_loss_columns``: count the
        # rows of each evaluation
        calls = []
        real = risk_mod._loss_columns

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(risk_mod, "_loss_columns", counted)
        probs, labels, lam, priors = random_batch(np.random.default_rng(k), k, 90)
        labels[: k + 1] = np.arange(k + 1)
        cfg = ConfMpuConfig(loss="ce", aggregate_clamp=aggregate_clamp)
        conf_mpu_risk(probs, labels, lam, priors, cfg)
        assert calls == [90, 90]


class TestConfMpuInputs:
    PRIORS = Priors(np.array([0.2, 0.1]))
    PROBS = np.full((3, 3), 1 / 3)

    @pytest.mark.parametrize(
        "labels", [[1, 5, -1], [1, 3, 0], [-1, 0, 2], [1.5, 0.0, 2.0]],
        ids=["five-and-minus-one", "above-k", "negative", "float"],
    )
    def test_label_outside_the_classes_rejected(self, labels):
        with pytest.raises(ValueError, match="distant labels"):
            conf_mpu_risk(
                self.PROBS, np.array(labels), np.array([0.9, 0.1, 0.9]), self.PRIORS, ConfMpuConfig()
            )

    @pytest.mark.parametrize("label", [0, 1])
    def test_nan_confidence_rejected(self, label):
        with pytest.raises(ValueError, match="confidence scores"):
            conf_mpu_risk(
                self.PROBS, np.array([label, 2, 0]), np.array([np.nan, 0.9, 0.1]),
                self.PRIORS, ConfMpuConfig(),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "labels, lam, message",
        [
            ([1, 3, 0], [0.9, 0.1, 0.9], "distant labels must be class ids in 0..2"),
            ([1, -1, 0], [0.9, 0.1, 0.9], "distant labels must be class ids in 0..2"),
            ([0, 2, 1], [np.nan, 0.9, 0.1], "confidence scores must lie in [0, 1]"),
            ([0, 2, 1], [0.9, 0.1, np.nan], "confidence scores must lie in [0, 1]"),
            ([0, 2, 1], [np.nan, np.nan, np.nan], "confidence scores must lie in [0, 1]"),
            ([0, 2, 1], [0.9, -0.1, 0.1], "confidence scores must lie in [0, 1]"),
            ([0, 2, 1], [0.9, 0.1, 1.5], "confidence scores must lie in [0, 1]"),
        ],
        ids=["above-k", "negative", "nan-first", "nan-last", "all-nan", "below-0", "above-1"],
    )
    def test_checks_hold_at_either_dtype(self, dtype, labels, lam, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            conf_mpu_risk(
                self.PROBS.astype(dtype), np.array(labels), np.array(lam), self.PRIORS, ConfMpuConfig()
            )
