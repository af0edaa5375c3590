import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    blocked_forward,
    count_forward_calls,
    loop_sentence_rows,
    oracle_difficulty_scores,
    oracle_full_batch_voter_step,
    oracle_scores_tsv,
)
import pucl.curriculum
import pucl.voters
from pucl.cli import main
from pucl.corpus import Corpus, LabelSet, Sentence, Token, build_vocab
from pucl.curriculum import build_plan
from pucl.distant import SyntheticSpec, generate_synthetic, inject_noise
from pucl.model import SCORE_BLOCK_ROWS, TOKEN_BLOCK_ROWS, AdamState, ModelConfig, TokenClassifier, train_epoch
from pucl.risk import PROB_FLOOR
from pucl.seeding import derive_seed, make_rng
from pucl.voters import (
    ConfidenceTable,
    VoterConfig,
    VoterEnsemble,
    confidence_table,
    difficulty_scores,
    dump_scores_tsv,
    pairwise_disagreement,
    train_voters,
)


def synthetic_corpus(seed=0, n=120):
    spec = SyntheticSpec(n_sentences=n, k=2, dict_size=12)
    corpus, _ = generate_synthetic(spec, np.random.default_rng(seed))
    # train on the gold labels directly (clean distant supervision)
    return corpus


def tiny_model_config(vocab):
    return ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=8, hidden_dim=8)


class TestPairwiseDisagreement:
    def test_identical_distributions(self):
        p = np.array([0.3, 0.7])
        assert pairwise_disagreement(p, p) == 0.0

    def test_reference_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        assert pairwise_disagreement(p, q) == pytest.approx(0.43944492, abs=1e-7)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.random(4) + 0.01
            p /= p.sum()
            q = rng.random(4) + 0.01
            q /= q.sum()
            assert pairwise_disagreement(p, q) == pytest.approx(
                pairwise_disagreement(q, p), abs=1e-15
            )

    def test_non_negative_with_zero_entries(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        h = pairwise_disagreement(p, q)
        assert np.isfinite(h) and h > 0


class TestEnsembleMath:
    def test_mean_of_opposite_voters(self):
        corpus = synthetic_corpus()
        vocab = build_vocab(corpus)
        cfg = tiny_model_config(vocab)
        ens = train_voters(corpus, cfg, VoterConfig(count=2, epochs=1), 0, vocab=vocab)
        a, b = ens.voters
        table = confidence_table(ens, corpus)
        rows = loop_sentence_rows(a, corpus)[0]
        for t in range(len(rows)):
            expected = (a.forward_rows(rows[t : t + 1])[0][0] + b.forward_rows(rows[t : t + 1])[0][0]) / 2
            assert np.allclose(table.distributions[t], expected, atol=1e-15)
        assert np.allclose(table.distributions.sum(axis=1), 1.0, atol=1e-9)

    def test_confidence_sum(self):
        corpus = Corpus([Sentence((Token("a", 1), Token("b", 0)))], LabelSet(["A", "B"]))
        table = ConfidenceTable(corpus, np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]]))
        assert table.lam[0] == pytest.approx(0.8)
        assert table.lam[1] == 0.0

    def test_lambda_complements_unlabeled_probability(self):
        corpus = synthetic_corpus()
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=2, epochs=1), 1, vocab=vocab)
        table = confidence_table(ens, corpus)
        assert np.all(table.lam >= 0.0) and np.all(table.lam <= 1.0 + 1e-12)
        assert np.allclose(table.lam + table.distributions[:, 0], 1.0, atol=1e-9)


class TestDifficultyScores:
    def test_identical_voters_give_zero(self):
        corpus = synthetic_corpus()
        vocab = build_vocab(corpus)
        cfg = tiny_model_config(vocab)
        ens = train_voters(corpus, cfg, VoterConfig(count=2, epochs=1), 5, vocab=vocab)
        clone = ens.voters[0].copy()
        forced = VoterEnsemble([ens.voters[0], clone])
        table = difficulty_scores(forced, corpus)
        assert np.all(table.scores == 0.0)

    def test_three_voter_mean(self):
        # H must equal the arithmetic mean of the three pairwise scores
        corpus = synthetic_corpus(n=10)
        vocab = build_vocab(corpus)
        cfg = tiny_model_config(vocab)
        ens = train_voters(corpus, cfg, VoterConfig(count=3, epochs=1), 2, vocab=vocab)
        table = difficulty_scores(ens, corpus)
        dists = []
        for voter in ens.voters:
            rows = [voter.forward_rows(r)[0] for r in loop_sentence_rows(voter, corpus)]
            dists.append(np.concatenate(rows, axis=0))
        for t in range(0, corpus.n_tokens, 7):
            pairs = [
                pairwise_disagreement(dists[i][t], dists[j][t])
                for i in range(3)
                for j in range(i + 1, 3)
            ]
            assert table.scores[t] == pytest.approx(np.mean(pairs), abs=1e-12)

    def test_two_voters_equal_single_pair(self):
        corpus = synthetic_corpus(n=10)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=2, epochs=1), 3, vocab=vocab)
        table = difficulty_scores(ens, corpus)
        d0, d1 = ens.voters
        first = loop_sentence_rows(d0, corpus)[0][:1]
        h = pairwise_disagreement(d0.forward_rows(first)[0][0], d1.forward_rows(first)[0][0])
        assert table.scores[0] == pytest.approx(h, abs=1e-12)

    def test_permutation_invariance(self):
        corpus = synthetic_corpus(n=15)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=3, epochs=1), 4, vocab=vocab)
        shuffled = VoterEnsemble([ens.voters[2], ens.voters[0], ens.voters[1]])
        a = difficulty_scores(ens, corpus).scores
        b = difficulty_scores(shuffled, corpus).scores
        assert np.allclose(a, b, atol=1e-15)

    def test_non_negative(self):
        corpus = synthetic_corpus(n=20)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=4, epochs=1), 6, vocab=vocab)
        assert np.all(difficulty_scores(ens, corpus).scores >= 0.0)


def two_pass_tables(ensemble, corpus):
    """Confidence and difficulty as computed before the single voter pass:
    each table ran every voter over the corpus, in SCORE_BLOCK_ROWS-row
    blocks of its window rows."""

    def stack():
        rows = np.concatenate(loop_sentence_rows(ensemble.voters[0], corpus))
        return np.stack([blocked_forward(v, rows, SCORE_BLOCK_ROWS) for v in ensemble.voters])

    mean = stack().mean(axis=0)
    dists = stack()
    logs = np.log(np.maximum(dists, PROB_FLOOR))
    floored = np.maximum(dists, PROB_FLOOR)
    n = len(ensemble.voters)
    total = np.zeros(dists.shape[1])
    for i in range(n):
        for j in range(i + 1, n):
            logratio = logs[i] - logs[j]
            total += 0.5 * ((floored[i] * logratio).sum(axis=1) + (floored[j] * -logratio).sum(axis=1))
    return mean, np.maximum(total / (n * (n - 1) / 2), 0.0)


class TestSingleVoterPass:
    def test_matches_two_pass_values_exactly(self):
        corpus = synthetic_corpus(seed=4, n=40)
        vocab = build_vocab(corpus)
        # Default widths: at these, a one-sentence forward sums in another
        # order than a block and changes bytes.
        assert SCORE_BLOCK_ROWS < corpus.n_tokens
        model_config = ModelConfig(vocab_size=vocab.size, n_classes=3)
        ens = train_voters(corpus, model_config, VoterConfig(count=4, epochs=1), 8, vocab=vocab)
        mean, scores = two_pass_tables(ens, corpus)
        table = difficulty_scores(ens, corpus)
        assert np.array_equal(table.scores, scores)
        assert np.array_equal(table.confidence.distributions, mean)
        assert np.array_equal(table.confidence.lam, confidence_table(ens, corpus).lam)
        # the voters were trained on these windows; scoring read them again
        assert ens.voters[0].encode_corpus(corpus) is corpus.windows(vocab, model_config.window)
        assert np.array_equal(difficulty_scores(ens, corpus).scores, scores)

    def test_each_voter_forwards_once_per_block(self, monkeypatch):
        corpus = synthetic_corpus(seed=4, n=40)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=3, epochs=1), 8, vocab=vocab)
        calls = count_forward_calls(monkeypatch)
        difficulty_scores(ens, corpus)
        assert len(calls) == 3 * math.ceil(corpus.n_tokens / SCORE_BLOCK_ROWS) < len(corpus)

    def test_rows_of_another_corpus_rejected(self):
        # Each corpus holds its own windows: scoring a shorter corpus under
        # the same vocabulary never reads the windows of the longer one.
        corpus = synthetic_corpus(seed=4, n=12)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=2, epochs=1), 8, vocab=vocab)
        shorter = Corpus(corpus.sentences[1:], corpus.label_set)
        rows = ens.voters[0].encode_corpus(shorter)
        assert np.array_equal(rows, ens.voters[0].encode_corpus(corpus)[len(corpus.sentences[0]) :])
        scores = difficulty_scores(ens, shorter).scores
        assert len(scores) == shorter.n_tokens < corpus.n_tokens
        # scored over its own rows, in its own blocks
        assert np.array_equal(scores, two_pass_tables(ens, shorter)[1])


def block_corpus(n_tokens, sentence_len=10, seed=0):
    """Sentences of ``sentence_len`` tokens (the last one shorter) over
    multi-character surfaces, with random distant labels in 0..2."""
    rng = np.random.default_rng(seed)
    words = [f"word{i}" for i in range(40)]
    labels = rng.integers(0, 3, n_tokens).tolist()
    tokens = [Token(words[int(w)], lab) for w, lab in zip(rng.integers(0, 40, n_tokens), labels)]
    cuts = list(range(0, n_tokens, sentence_len)) + [n_tokens]
    return Corpus([Sentence(tuple(tokens[a:b])) for a, b in zip(cuts, cuts[1:])], LabelSet(["T1", "T2"]))


def random_ensemble(corpus, count, dtype="float64"):
    """Untrained voters with distinct seeds and a wide init, so that their
    distributions differ from token to token and from each other."""
    vocab = build_vocab(corpus)
    return VoterEnsemble([
        TokenClassifier(
            ModelConfig(vocab.size, 3, embed_dim=8, hidden_dim=8, init_scale=1.0, seed=v, dtype=dtype),
            vocab, corpus.label_set.names,
        )
        for v in range(count)
    ])


class TestBlockedScoring:
    # Whole blocks and a short one; whole blocks only; whole blocks and a
    # sentence across the last block end (tokens 4090..4099). Both short
    # last blocks start inside a sentence.
    SIZES = (3096, 4096, 4100)

    @pytest.mark.parametrize("count", [2, 5])
    @pytest.mark.parametrize("n_tokens", SIZES)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_equals_the_whole_corpus_stack(self, count, n_tokens, dtype):
        corpus = block_corpus(n_tokens)
        assert corpus.n_tokens == n_tokens and 4096 % TOKEN_BLOCK_ROWS == 0
        if n_tokens % TOKEN_BLOCK_ROWS:
            assert n_tokens - n_tokens % TOKEN_BLOCK_ROWS not in corpus.offsets
        ens = random_ensemble(corpus, count, dtype)
        mean, lam, scores = oracle_difficulty_scores(ens, corpus)
        table = difficulty_scores(ens, corpus)
        assert np.array_equal(table.scores, scores)
        assert np.array_equal(table.confidence.distributions, mean)
        assert np.array_equal(table.confidence.lam, lam)
        conf = confidence_table(ens, corpus)
        assert np.array_equal(conf.distributions, mean) and np.array_equal(conf.lam, lam)
        out = io.StringIO()
        dump_scores_tsv(corpus, table, out)
        assert out.getvalue() == oracle_scores_tsv(corpus, lam, scores)

    def test_tsv_is_written_one_block_per_write(self):
        corpus = block_corpus(2 * TOKEN_BLOCK_ROWS + 7)
        table = difficulty_scores(random_ensemble(corpus, 2), corpus)

        class Writes(list):
            write = list.append

        out = Writes()
        dump_scores_tsv(corpus, table, out)
        assert [chunk.count("\n") for chunk in out] == [TOKEN_BLOCK_ROWS, TOKEN_BLOCK_ROWS, 7]

    def test_memory_beyond_the_outputs_does_not_grow_with_the_corpus(self):
        # The whole-corpus [V, n_tokens, n_classes] stack, its floor and its
        # logs (and the TSV's whole-corpus lists) grew with the corpus.

        class Sink:
            def write(self, text):
                pass

        def working_memory(corpus, ens):
            ens.voters[0].encode_corpus(corpus)  # cached; built outside the trace
            corpus.distant_array()
            tracemalloc.start()
            try:
                table = difficulty_scores(ens, corpus)
                dump_scores_tsv(corpus, table, Sink())
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current  # beyond the per-token tables it returns

        one = block_corpus(2 * TOKEN_BLOCK_ROWS)
        four = block_corpus(8 * TOKEN_BLOCK_ROWS)
        small = working_memory(one, random_ensemble(one, 5))
        large = working_memory(four, random_ensemble(four, 5))
        # the 4x corpus has 6,144 more tokens; the stack alone held 240 bytes
        # of each, about 1.5 MB
        assert large < small + 128 * 1024, (small, large)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_outputs_do_not_depend_on_the_token_block(self, monkeypatch, dtype):
        corpus = block_corpus(5099)  # a multiple of none of the block sizes
        ens = random_ensemble(corpus, 3, dtype)

        class Writes(list):
            write = list.append

        outputs = []
        for rows in (256, 1024, 4096):
            monkeypatch.setattr(pucl.voters, "TOKEN_BLOCK_ROWS", rows)
            monkeypatch.setattr(pucl.curriculum, "TOKEN_BLOCK_ROWS", rows)
            table = difficulty_scores(ens, corpus)
            tsv = Writes()
            dump_scores_tsv(corpus, table, tsv)
            assert len(tsv) == -(-corpus.n_tokens // rows)
            plan = build_plan(table, corpus, 0.5, 3)
            outputs.append((table.scores, table.confidence.lam, "".join(tsv), plan.to_json(corpus)))
        for scores, lam, tsv, plan in outputs[1:]:
            assert np.array_equal(scores, outputs[0][0]) and np.array_equal(lam, outputs[0][1])
            assert (tsv, plan) == outputs[0][2:]


def mostly_empty_batches_corpus():
    """One sentence with a positive, eight all-O sentences of three tokens:
    at batch size 1 and keep ratio 0.1 an all-O batch keeps no token with
    probability 0.9**3."""
    ls = LabelSet(["T"])
    sentences = [Sentence((Token("acme", 1), Token("corp", 0)))]
    sentences += [Sentence(tuple(Token(w, 0) for w in ("the", "a", f"w{i}"))) for i in range(8)]
    return Corpus(sentences, ls)


class TestEmptyVoterBatch:
    CFG = VoterConfig(count=2, epochs=2, batch_size=1, keep_negative_ratio=0.1)

    def train(self, seed):
        corpus = mostly_empty_batches_corpus()
        vocab = build_vocab(corpus)
        model_config = ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, hidden_dim=4)
        return train_voters(corpus, model_config, self.CFG, seed, vocab=vocab)

    def test_batch_without_contributing_tokens_is_skipped(self):
        assert len(self.train(0).voters) == 2

    def test_sampling_stream_is_drawn_as_for_a_full_batch(self, monkeypatch):
        # Every batch draws one uniform per token from its voter's sampling
        # stream before its forward pass, skipped or not, so the kept sets
        # of existing seeds do not change. A batch that the active mask
        # empties draws nothing. Only the batches that keep a token take an
        # Adam step.
        import pucl.model as model_mod
        import pucl.voters as voters_mod

        calls = []
        real = voters_mod.sample_negatives

        def spy(labels, ratio, rng):
            calls.append((rng, rng.bit_generator.state, np.array(labels)))
            return real(labels, ratio, rng)

        steps = []
        real_step = model_mod.adam_step

        def counted_step(*args):
            steps.append(1)
            real_step(*args)

        monkeypatch.setattr(model_mod, "adam_step", counted_step)
        monkeypatch.setattr(voters_mod, "sample_negatives", spy)

        def replay_skips(mine, replay):
            assert all(rng is mine[0][0] for rng, _, _ in mine)
            skipped = 0
            for _, state, labels in mine:
                assert state == replay.bit_generator.state
                kept = (labels > 0) | (replay.random(len(labels)) < self.CFG.keep_negative_ratio)
                skipped += not kept.any()
            return skipped

        self.train(3)
        corpus = mostly_empty_batches_corpus()
        batches = self.CFG.epochs * len(corpus)
        assert len(calls) == self.CFG.count * batches
        skipped = 0
        for v in range(self.CFG.count):
            mine = calls[v * batches : (v + 1) * batches]  # voters train in turn
            skipped += replay_skips(mine, make_rng(3, "voter-sample", v))
        assert skipped > 0
        assert len(steps) == self.CFG.count * batches - skipped

        # Mask out sentences 1, 3, 5 and 7 of one epoch at batch size 1.
        calls.clear()
        steps.clear()
        vocab = build_vocab(corpus)
        model = TokenClassifier(
            ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, hidden_dim=4),
            vocab, corpus.label_set.names,
        )
        active = np.ones(corpus.n_tokens, dtype=bool)
        active[corpus.token_positions(np.arange(1, 9, 2))] = False
        labels = corpus.distant_array()
        rng = make_rng(3, "masked")

        def select(positions):
            positions = positions[active[positions]]
            if len(positions) == 0:
                return positions
            keep = voters_mod.sample_negatives(labels[positions], self.CFG.keep_negative_ratio, rng)
            return positions[keep]

        def batch_risk(probs, positions):
            return *voters_mod.pn_risk(probs, labels[positions], "ce"), 0

        adam = AdamState.for_model(model, 1e-3)
        train_epoch(model, adam, corpus, make_rng(3, "masked-shuffle"), 1, batch_risk, "masked epoch", select)
        assert len(calls) == 5
        assert len(steps) == adam.step == 5 - replay_skips(calls, make_rng(3, "masked"))


class TestSampleFirstStep:
    def test_voters_forward_only_the_sampled_rows(self, monkeypatch):
        import pucl.voters as voters_mod

        forwarded = []
        real_forward = TokenClassifier.forward_rows

        def spy_forward(model, rows):
            forwarded.append(rows.copy())
            return real_forward(model, rows)

        kept = []
        real = voters_mod.sample_negatives

        def spy(labels, ratio, rng):
            keep = real(labels, ratio, rng)
            kept.append(keep)
            return keep

        monkeypatch.setattr(TokenClassifier, "forward_rows", spy_forward)
        monkeypatch.setattr(voters_mod, "sample_negatives", spy)
        corpus = synthetic_corpus(seed=5, n=30)
        vocab = build_vocab(corpus)
        mc = tiny_model_config(vocab)
        cfg = VoterConfig(count=2, epochs=2, batch_size=4, keep_negative_ratio=0.2)
        train_voters(corpus, mc, cfg, 4, vocab=vocab)

        model = TokenClassifier(mc, vocab, corpus.label_set.names)
        rows = np.concatenate(loop_sentence_rows(model, corpus))
        samples = iter(kept)
        expected = []
        for _ in range(cfg.count):  # voters train in turn
            shuffle_rng = make_rng(4, "voter-shuffle")
            for _ in range(cfg.epochs):
                order = shuffle_rng.permutation(len(corpus))
                for start in range(0, len(order), cfg.batch_size):
                    positions = corpus.token_positions(order[start : start + cfg.batch_size])
                    keep = next(samples)
                    assert len(keep) == len(positions)
                    if keep.any():
                        expected.append(rows[positions[keep]])
        assert next(samples, None) is None
        assert len(forwarded) == len(expected)
        assert all(np.array_equal(got, want) for got, want in zip(forwarded, expected))
        assert sum(map(len, forwarded)) < sum(map(len, kept))

    def test_one_step_matches_the_full_batch_oracle(self):
        corpus = synthetic_corpus(seed=6, n=30)
        vocab = build_vocab(corpus)
        mc = tiny_model_config(vocab)
        cfg = VoterConfig(count=2, epochs=1, batch_size=len(corpus), keep_negative_ratio=0.2)
        ens = train_voters(corpus, mc, cfg, 9, vocab=vocab)

        positions = corpus.token_positions(make_rng(9, "voter-shuffle").permutation(len(corpus)))
        rows = corpus.windows(vocab, mc.window)[positions]
        labels = corpus.distant_array()[positions]
        for v, voter in enumerate(ens.voters):
            replay = make_rng(9, "voter-sample", v).random(len(labels))
            assert np.any((labels == 0) & (replay >= cfg.keep_negative_ratio))  # rows dropped
            fresh = TokenClassifier(
                replace(mc, seed=derive_seed(9, "voter-init", v)), vocab, corpus.label_set.names
            )
            expected = oracle_full_batch_voter_step(
                fresh, rows, labels, cfg.keep_negative_ratio,
                make_rng(9, "voter-sample", v), cfg.learning_rate,
            )
            for name, param in voter.parameters():
                np.testing.assert_allclose(param, expected[name], rtol=1e-12, atol=0)


class TestTrainVoters:
    def test_distinct_seeds_distinct_voters(self):
        corpus = synthetic_corpus()
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=5, epochs=1), 11, vocab=vocab)
        embeddings = [v.embedding for v in ens.voters]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(embeddings[i], embeddings[j])

    def test_degenerate_corpus_rejected(self):
        ls = LabelSet(["T"])
        corpus = Corpus([Sentence((Token("a", 0), Token("b", 0)))], ls)
        with pytest.raises(ValueError, match="no positive"):
            train_voters(
                corpus, ModelConfig(vocab_size=4, n_classes=2), VoterConfig(count=2, epochs=1), 0, build_vocab(corpus)
            )

    def test_learns_separable_synthetic_corpus(self):
        corpus = synthetic_corpus(seed=3, n=150)
        vocab = build_vocab(corpus)
        labels = corpus.distant_array()
        majority = max(np.mean(labels == 0), np.mean(labels > 0))
        ens = train_voters(
            corpus,
            tiny_model_config(vocab),
            VoterConfig(count=2, epochs=25, keep_negative_ratio=0.5, learning_rate=3e-3),
            7,
            vocab=vocab,
        )
        for voter in ens.voters:
            preds = np.concatenate(
                [np.argmax(voter.forward_rows(r)[0], axis=1) for r in loop_sentence_rows(voter, corpus)]
            )
            accuracy = np.mean(preds == labels)
            assert accuracy > majority

    def test_threaded_matches_sequential(self, tmp_path):
        # `--threads` is accepted and changes no voter's bytes
        data = tmp_path / "data"
        assert main([
            "gen-synthetic", "--out", str(data), "--sentences", "40", "--test-sentences", "0",
            "--valid-sentences", "0", "--dict-size", "10", "--seed", "9",
        ]) == 0
        config = json.loads((data / "config.json").read_text())
        config.update(model={"embed_dim": 8, "hidden_dim": 8}, voters={"count": 3, "epochs": 1})
        (data / "config.json").write_text(json.dumps(config))
        voters = {}
        for threads in ("2", "1"):
            out = tmp_path / f"threads-{threads}"
            args = ["--config", str(data / "config.json"), "--threads", threads, "--out", str(out)]
            assert main(["train-voters", *args]) == 0
            voters[threads] = [(out / f"voter_{i}.bin").read_bytes() for i in range(3)]
        assert voters["2"] == voters["1"]

    def test_ensemble_needs_two(self):
        with pytest.raises(ValueError):
            VoterConfig(count=1)

    def test_adding_voters_keeps_earlier_ones(self):
        # component seeds are per-index, so growing the ensemble never
        # perturbs already-trained voters
        corpus = synthetic_corpus(n=30)
        vocab = build_vocab(corpus)
        cfg = tiny_model_config(vocab)
        small = train_voters(corpus, cfg, VoterConfig(count=2, epochs=1), 21, vocab=vocab)
        large = train_voters(corpus, cfg, VoterConfig(count=4, epochs=1), 21, vocab=vocab)
        for a, b in zip(small.voters, large.voters):
            for (n, pa), (_, pb) in zip(a.parameters(), b.parameters()):
                assert np.array_equal(pa, pb), n


class TestNoiseDifficultyDirection:
    def test_noisy_positives_harder_than_clean(self):
        # directional check behind the curriculum: over 5 seeds, the median
        # gap between noisy-positive and clean-positive difficulty is positive
        gaps = []
        for seed in range(5):
            spec = SyntheticSpec(n_sentences=250, k=2, dict_size=16)
            gold, _ = generate_synthetic(spec, np.random.default_rng(seed))
            noisy = inject_noise(gold, 0.4, 0.05, 0.05, np.random.default_rng(seed + 100))
            vocab = build_vocab(noisy)
            ens = train_voters(
                noisy,
                ModelConfig(vocab_size=vocab.size, n_classes=3),
                VoterConfig(count=5, epochs=5, keep_negative_ratio=0.1),
                seed,
                vocab=vocab,
            )
            table = difficulty_scores(ens, noisy)
            d = noisy.distant_array()
            g = noisy.gold_array()
            clean = (d > 0) & (d == g)
            noisy_pos = (d > 0) & (d != g)
            gaps.append(table.scores[noisy_pos].mean() - table.scores[clean].mean())
        assert np.median(gaps) > 0

    def test_long_tail_shape(self):
        spec = SyntheticSpec(n_sentences=250, k=2, dict_size=16)
        gold, _ = generate_synthetic(spec, np.random.default_rng(1))
        noisy = inject_noise(gold, 0.4, 0.05, 0.05, np.random.default_rng(101))
        vocab = build_vocab(noisy)
        ens = train_voters(
            noisy,
            ModelConfig(vocab_size=vocab.size, n_classes=3),
            VoterConfig(count=5, epochs=5, keep_negative_ratio=0.1),
            1,
            vocab=vocab,
        )
        scores = difficulty_scores(ens, noisy).scores
        positives = noisy.distant_array() > 0
        assert scores[positives].mean() > np.median(scores[positives])


class TestDumpTsv:
    def test_row_format(self):
        corpus = synthetic_corpus(n=5)
        vocab = build_vocab(corpus)
        ens = train_voters(corpus, tiny_model_config(vocab), VoterConfig(count=2, epochs=1), 0, vocab=vocab)
        diff = difficulty_scores(ens, corpus)
        out = io.StringIO()
        dump_scores_tsv(corpus, diff, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == corpus.n_tokens
        first = lines[0].split("\t")
        assert len(first) == 6
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == corpus.sentences[0].tokens[0].surface
        float(first[4])
        float(first[5])
