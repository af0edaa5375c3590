import io
import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucl.cli import main as cli_main
from pucl.corpus import LabelSet, Sentence, Token, Corpus, Vocab, build_vocab
from pucl.distant import SyntheticSpec, generate_synthetic
from pucl.errors import CompatibilityError, FormatError, NumericError
from pucl.model import (
    SCORE_BLOCK_ROWS,
    AdamState,
    ModelConfig,
    TokenClassifier,
    adam_step,
    load_checkpoint,
    predict,
    reduce_classes,
    save_checkpoint,
    softmax,
    train_epoch,
)
from pucl.risk import ce_rows, kl_soft_rows, mae_rows


def small_model(seed=0, vocab_words=8, embed=4, window=1, hidden=5, classes=3, dtype="float64"):
    vocab = Vocab([f"w{i}" for i in range(vocab_words)])
    cfg = ModelConfig(
        vocab_size=vocab.size,
        n_classes=classes,
        embed_dim=embed,
        window=window,
        hidden_dim=hidden,
        seed=seed,
        dtype=dtype,
    )
    return TokenClassifier(cfg, vocab, [f"T{i}" for i in range(1, classes)])


from oracles import (
    blocked_forward,
    count_forward_calls,
    dense_gradients,
    fd_param_gradients,
    loop_sentence_rows,
    loop_window_rows,
    max_gradient_error,
    oracle_adam_step,
    oracle_embedding_gradient,
    oracle_lazy_adam_step,
)


def token_probs(model, ids, t):
    """Class distribution of token ``t`` of the sentence ``ids``."""
    rows = loop_window_rows(np.asarray(ids), model.config.window)
    return model.forward_rows(rows[t : t + 1])[0][0]


def assert_close_grads(analytic, numeric, rtol=1e-5, atol=1e-8):
    """Relative error < rtol, with an absolute guard at the central-difference
    round-off floor (~1e-10 for these risk magnitudes)."""
    worst = max_gradient_error(analytic, numeric, rtol)
    assert worst <= atol, f"FD mismatch {worst:.2e} above tolerance"


class TestForward:
    def test_distribution_properties(self):
        model = small_model()
        ids = np.array([2, 3, 4])
        dist = token_probs(model, ids, 1)
        assert dist.shape == (3,)
        assert np.all(dist > 0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_output_layer_gives_uniform(self):
        model = small_model()
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        dist = token_probs(model, np.array([2, 3]), 0)
        assert np.allclose(dist, 1.0 / 3.0)

    def test_deterministic_given_seed(self):
        a = small_model(seed=9)
        b = small_model(seed=9)
        ids = np.array([5, 6, 7])
        assert np.array_equal(token_probs(a, ids, 2), token_probs(b, ids, 2))

    def test_out_of_bounds(self):
        model = small_model()  # vocabulary ids 0..9
        with pytest.raises(IndexError):
            model.forward_rows(np.array([[0, 2, 10]]))

    def test_window_padding(self):
        model = small_model(window=2)
        corpus = Corpus([Sentence((Token("w2", 0), Token("w3", 0)))], LabelSet(["T1", "T2"]))
        rows = model.encode_corpus(corpus)
        assert rows.shape == (2, 5)
        assert rows[0, 0] == Vocab.PAD and rows[0, 1] == Vocab.PAD
        assert rows[0, 2] == 4 and rows[1, 1] == 4
        for dtype in (np.int32, np.intp):  # the gather against fancy indexing
            _, (_, flat, _, _) = model.forward_rows(rows.astype(dtype))
            assert np.array_equal(flat, model.embedding[rows].reshape(len(rows), -1))

    def test_softmax_extreme_logits(self):
        out = softmax(np.array([[1e3, -1e3, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)


class TestReduceClasses:
    """The class-axis reduction of softmax, backward and the risks is
    numpy's own result, bit for bit: a column loop below 8 classes, and
    numpy's pairwise sum from 8 on."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [*range(2, 10), 16, 40])
    def test_bitwise_numpy(self, dtype, classes):
        rng = np.random.default_rng(classes)
        scale = 10.0 ** rng.integers(-8, 9, size=(300, classes))
        values = (rng.standard_normal((300, classes)) * scale).astype(dtype)
        for v in (values, values[::2, ::-1]):  # contiguous, and a strided view
            assert reduce_classes(np.add, v).tobytes() == v.sum(axis=1).tobytes()
            assert reduce_classes(np.maximum, v).tobytes() == v.max(axis=-1).tobytes()
        special = values.copy()
        special[:60] = rng.choice(np.array([np.inf, -np.inf, np.nan, 1.0, -2.0], dtype=dtype), size=(60, classes))
        special[60] = np.nan
        special[61] = -np.inf
        assert reduce_classes(np.maximum, special).tobytes() == special.max(axis=-1).tobytes()
        assert reduce_classes(np.add, values[:1]).tobytes() == values[:1].sum(axis=1).tobytes()


class TestBackward:
    def test_zero_gradients(self):
        model = small_model()
        rows = loop_window_rows(np.array([2, 3, 4]), model.config.window)
        probs, cache = model.forward_rows(rows)
        grads = model.backward_rows(cache, np.zeros_like(probs))
        for _, g in dense_gradients(grads, model.config.vocab_size):
            assert np.all(g == 0)

    def test_batch_linearity(self):
        model = small_model(seed=4)
        rows = loop_window_rows(np.array([2, 3]), model.config.window)
        probs, cache = model.forward_rows(rows)
        rng = np.random.default_rng(0)
        d = rng.normal(size=probs.shape)
        both = model.backward_rows(cache, d)
        first = model.backward_rows(
            (cache[0][:1], cache[1][:1], cache[2][:1], cache[3][:1]), d[:1]
        )
        second = model.backward_rows(
            (cache[0][1:], cache[1][1:], cache[2][1:], cache[3][1:]), d[1:]
        )
        v = model.config.vocab_size
        for (name, g), (_, g1), (_, g2) in zip(
            dense_gradients(both, v), dense_gradients(first, v), dense_gradients(second, v)
        ):
            assert np.allclose(g, g1 + g2, atol=1e-12), name

    def test_ce_gradient_matches_finite_differences(self):
        model = small_model(seed=1)
        ids = np.array([2, 5, 3, 7])
        targets = np.array([1, 0, 2, 1])
        rows = loop_window_rows(ids, model.config.window)

        def risk(m):
            probs, _ = m.forward_rows(rows)
            values, _ = ce_rows(probs, targets)
            return float(values.sum())

        probs, cache = model.forward_rows(rows)
        _, dprobs = ce_rows(probs, targets)
        analytic = model.backward_rows(cache, dprobs)
        assert_close_grads(analytic, fd_param_gradients(model, risk))

    @pytest.mark.parametrize("loss_rows", [ce_rows, mae_rows])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_loss_gradients_small_models_multi_seed(self, loss_rows, seed):
        rng = np.random.default_rng(seed)
        model = small_model(
            seed=seed,
            vocab_words=int(rng.integers(4, 48)),
            embed=int(rng.integers(2, 8)),
            hidden=int(rng.integers(2, 8)),
        )
        ids = rng.integers(0, model.vocab.size, size=6)
        targets = rng.integers(0, 3, size=6)
        rows = loop_window_rows(ids, model.config.window)

        def risk(m):
            probs, _ = m.forward_rows(rows)
            values, _ = loss_rows(probs, targets)
            return float(values.sum())

        probs, cache = model.forward_rows(rows)
        _, dprobs = loss_rows(probs, targets)
        analytic = model.backward_rows(cache, dprobs)
        assert_close_grads(analytic, fd_param_gradients(model, risk))

    def test_kl_soft_gradient_through_model(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(6)
        ids = np.array([2, 3, 4, 5])
        raw = rng.random((4, 3)) + 0.1
        targets = raw / raw.sum(axis=1, keepdims=True)
        rows = loop_window_rows(ids, model.config.window)

        def risk(m):
            probs, _ = m.forward_rows(rows)
            values, _ = kl_soft_rows(probs, targets)
            return float(values.sum())

        probs, cache = model.forward_rows(rows)
        _, dprobs = kl_soft_rows(probs, targets)
        analytic = model.backward_rows(cache, dprobs)
        assert_close_grads(analytic, fd_param_gradients(model, risk))


DTYPES = ["float64", "float32"]


class TestExactStep:
    """The training step must give the bytes of the textbook computation,
    done in the model's dtype."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_embedding_scatter_matches_add_at(self, dtype):
        model = small_model(seed=6, vocab_words=6, window=2, dtype=dtype)
        # ids repeat within a row and across rows; 0 is PAD, 1 is UNK
        rows = np.concatenate(
            [
                loop_window_rows(np.array([2, 2, 3, 2]), model.config.window),
                loop_window_rows(np.array([5]), model.config.window),
                np.array([[0, 2, 2, 0, 7], [2, 2, 2, 2, 2], [1, 0, 1, 0, 1]]),
            ]
        )
        probs, cache = model.forward_rows(rows)
        dprobs = np.random.default_rng(1).normal(size=probs.shape)
        grads = model.backward_rows(cache, dprobs)
        # compact: one gradient row per referenced vocabulary row, in order
        oracle = oracle_embedding_gradient(model, cache, dprobs)
        assert grads.embedding.dtype == oracle.dtype == np.dtype(dtype)
        assert np.array_equal(grads.embedding_rows, np.unique(rows))
        assert np.array_equal(grads.embedding, oracle[grads.embedding_rows])
        unseen = np.setdiff1d(np.arange(model.config.vocab_size), rows)
        assert len(unseen) > 0 and np.all(oracle[unseen] == 0.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_in_place_adam_matches_textbook(self, dtype):
        model = small_model(seed=8, vocab_words=10, window=1, dtype=dtype)
        state = AdamState.for_model(model, 3e-3)
        params = {n: p.copy() for n, p in model.parameters()}
        m = {n: np.zeros_like(p) for n, p in params.items()}
        v = {n: np.zeros_like(p) for n, p in params.items()}
        rng = np.random.default_rng(2)
        for step in range(1, 8):
            # a few sentences per step, so most embedding rows get an
            # all-zero gradient (and some rows are zero for several steps)
            ids = rng.integers(0, 6, size=3)
            rows = loop_window_rows(ids, model.config.window)
            probs, cache = model.forward_rows(rows)
            grads = model.backward_rows(cache, rng.normal(size=probs.shape))
            g = dict(dense_gradients(grads, model.config.vocab_size))
            assert np.any(np.all(g["embedding"] == 0.0, axis=1))
            adam_step(model, grads, state)
            # dense parameters take textbook Adam, the embedding lazy Adam
            # over the rows the batch references
            lazy = oracle_lazy_adam_step(
                params["embedding"], g.pop("embedding"), m["embedding"], v["embedding"],
                np.unique(rows), step, 3e-3,
            )
            dense = oracle_adam_step({n: params[n] for n in g}, g, m, v, step, 3e-3)
            params, m, v = ({**d, "embedding": e} for d, e in zip(dense, lazy))
            state_m = {"embedding": state.embedding_m, **model.dense_views(state.dense_m)}
            state_v = {"embedding": state.embedding_v, **model.dense_views(state.dense_v)}
            for name, p in model.parameters():
                assert p.dtype == params[name].dtype == np.dtype(dtype), (step, name)
                assert np.array_equal(p, params[name]), (step, name)
                assert np.array_equal(state_m[name], m[name]), (step, name)
                assert np.array_equal(state_v[name], v[name]), (step, name)
            # the flat buffers' padding between the views stays zero
            for buffer in (model.dense, state.dense_m, state.dense_v):
                assert np.sum(buffer != 0.0) == sum(np.sum(x != 0.0) for x in model.dense_views(buffer).values())

    def test_untouched_embedding_rows_keep_their_state(self):
        model = small_model(seed=9, window=1)
        state = AdamState.for_model(model, 1e-2)
        for ids in ([2, 3], [4, 5]):
            before = [a.copy() for a in (model.embedding, state.embedding_m, state.embedding_v)]
            probs, cache = model.forward_rows(loop_window_rows(np.array(ids), model.config.window))
            _, dprobs = ce_rows(probs, np.array([1, 2]))
            adam_step(model, model.backward_rows(cache, dprobs), state)
        # the second batch (rows 0, 4, 5) leaves rows 2 and 3 alone
        assert np.all(before[1][[2, 3]] != 0.0) and np.all(before[2][[2, 3]] != 0.0)
        after = (model.embedding, state.embedding_m, state.embedding_v)
        for old, new in zip(before, after):
            assert np.array_equal(old[[2, 3]], new[[2, 3]])
            assert not np.array_equal(old[[4, 5]], new[[4, 5]])

class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        model = small_model()
        before = {n: p.copy() for n, p in model.parameters()}
        state = AdamState.for_model(model, 1e-3)
        probs, cache = model.forward_rows(loop_window_rows(np.array([2, 3]), model.config.window))
        grads = model.backward_rows(cache, np.zeros_like(probs))
        adam_step(model, grads, state)
        assert state.step == 1
        for name, p in model.parameters():
            assert np.array_equal(p, before[name])

    def test_quadratic_descent(self):
        # scalar simulation of the same update rule: minimize (x - 3)^2
        x = np.array([10.0])
        m = np.zeros(1)
        v = np.zeros(1)
        losses = []
        for step in range(1, 101):
            g = 2 * (x - 3.0)
            losses.append(float((x[0] - 3.0) ** 2))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**step)
            v_hat = v / (1 - 0.999**step)
            x = x - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_model_quadratic_loss_decreases(self):
        model = small_model(seed=2)
        state = AdamState.for_model(model, 1e-2)
        rows = loop_window_rows(np.array([2, 3, 4]), model.config.window)
        targets = np.array([0, 1, 2])
        values = []
        for _ in range(100):
            probs, cache = model.forward_rows(rows)
            vals, dprobs = ce_rows(probs, targets)
            values.append(float(vals.sum()))
            adam_step(model, model.backward_rows(cache, dprobs), state)
        assert values[-1] < values[0] * 0.5

    def test_identical_updates(self):
        a, b = small_model(seed=3), small_model(seed=3)
        sa, sb = AdamState.for_model(a, 1e-3), AdamState.for_model(b, 1e-3)
        rows = loop_window_rows(np.array([2, 3]), a.config.window)
        for model, state in ((a, sa), (b, sb)):
            probs, cache = model.forward_rows(rows)
            _, dprobs = ce_rows(probs, np.array([1, 2]))
            adam_step(model, model.backward_rows(cache, dprobs), state)
        for (n, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb), n

    def test_non_finite_gradient_rejected(self):
        model = small_model()
        state = AdamState.for_model(model, 1e-3)
        probs, cache = model.forward_rows(loop_window_rows(np.array([2]), model.config.window))
        grads = model.backward_rows(cache, np.ones_like(probs))
        grads.w1[0, 0] = np.nan
        with pytest.raises(NumericError):
            adam_step(model, grads, state)

    def test_non_finite_embedding_gradient_rejected(self):
        model = small_model()
        state = AdamState.for_model(model, 1e-3)
        probs, cache = model.forward_rows(loop_window_rows(np.array([2, 3]), model.config.window))
        grads = model.backward_rows(cache, np.ones_like(probs))
        grads.embedding[1, 1] = np.inf
        with pytest.raises(NumericError, match="embedding"):
            adam_step(model, grads, state)

    @pytest.mark.parametrize("name", ["embedding", "w1", "b2"])
    def test_rejected_step_changes_nothing(self, name):
        model = small_model(vocab_words=6, seed=5)
        state = AdamState.for_model(model, 1e-2)
        rng = np.random.default_rng(5)
        rows = loop_window_rows(np.array([2, 3, 4, 5]), model.config.window)
        probs, cache = model.forward_rows(rows)
        adam_step(model, model.backward_rows(cache, rng.normal(size=probs.shape)), state)
        probs, cache = model.forward_rows(rows)
        grads = model.backward_rows(cache, rng.normal(size=probs.shape))
        getattr(grads, name).flat[-1] = np.nan
        before = [a.copy() for a in (model.embedding, model.dense, state.embedding_m, state.embedding_v,
                                     state.dense_m, state.dense_v)]
        assert all(np.any(a != 0.0) for a in before)
        with pytest.raises(NumericError, match=f"in {name} at step 2"):
            adam_step(model, grads, state)
        after = (model.embedding, model.dense, state.embedding_m, state.embedding_v, state.dense_m, state.dense_v)
        assert all(old.tobytes() == new.tobytes() for old, new in zip(before, after))
        assert state.step == 1


class TestCompactStep:
    """A training step costs what its batch touches: nothing in it grows
    with the vocabulary, and the dense layers are aligned views of one flat
    buffer."""

    @staticmethod
    def assert_aligned(*arrays):
        for a in arrays:
            assert a.flags.c_contiguous and a.ctypes.data % 64 == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_views_are_aligned(self, dtype):
        # no segment is a multiple of 8 floats; each is padded to 64 bytes,
        # 8 float64s or 16 float32s
        model = small_model(seed=3, embed=3, hidden=5, classes=3, dtype=dtype)
        align = 64 // np.dtype(dtype).itemsize
        shapes = model.config.parameter_shapes()
        assert model.dense.size == sum(-(-math.prod(shapes[n]) // align) * align for n in ("w1", "b1", "w2", "b2"))
        state = AdamState.for_model(model, 1e-3)
        probs, cache = model.forward_rows(loop_window_rows(np.array([2, 3]), model.config.window))
        grads = model.backward_rows(cache, np.ones_like(probs))
        buf = io.BytesIO()
        save_checkpoint(model, buf)
        loaded = load_checkpoint(io.BytesIO(buf.getvalue()))
        for m in (model, model.copy(), loaded):
            self.assert_aligned(m.dense, *m.dense_views(m.dense).values(), *(p for _, p in m.parameters()[1:]))
            assert all(np.shares_memory(p, m.dense) for _, p in m.parameters()[1:])
        for buffer in (state.dense_m, state.dense_v, *state.scratch, grads.dense):
            self.assert_aligned(buffer, *model.dense_views(buffer).values())
        self.assert_aligned(grads.w1, grads.b1, grads.w2, grads.b2)
        assert {a.dtype for a in (model.copy().dense, loaded.dense, state.dense_m, *state.scratch, grads.dense)} == {
            np.dtype(dtype)
        }
        assert np.array_equal(loaded.dense, model.dense)
        assert not np.shares_memory(model.copy().dense, model.dense)

    def test_step_allocates_no_vocabulary_sized_float_array(self):
        # the step's only per-word arrays are the two index arrays that find
        # the referenced rows: 9 bytes a word against 8 * d for a dense
        # embedding gradient
        vocab_words, d = 50_000, 32
        model = small_model(vocab_words=vocab_words, embed=d, window=2, hidden=16)
        state = AdamState.for_model(model, 1e-3)
        rows = np.random.default_rng(0).integers(0, vocab_words, size=(10, 5))
        probs, cache = model.forward_rows(rows)
        dprobs = np.ones_like(probs)
        tracemalloc.start()
        try:
            adam_step(model, model.backward_rows(cache, dprobs), state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.step == 1
        assert peak < vocab_words * d * 8 / 10, peak

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_steps_reuse_the_optimisers_dense_gradient_buffer(self, dtype):
        # hidden = 2,000 makes the dense buffer (about 700 KB in float64)
        # dwarf every per-batch array of these one-sentence batches
        model = small_model(seed=4, vocab_words=6, embed=8, window=2, hidden=2000, dtype=dtype)
        reference = model.copy()
        corpus = Corpus(
            [Sentence(tuple(Token(f"w{i}", 0, 0) for i in ids)) for ids in ([1, 2, 3], [4, 5], [0, 2])],
            LabelSet(["T1", "T2"]),
        )
        weight = np.array([0.3, -1.0, 0.7])

        def risk(probs, positions):
            return float((probs * weight).sum()), np.broadcast_to(weight, probs.shape).copy(), 0

        state, ref_state = AdamState.for_model(model, 1e-3), AdamState.for_model(reference, 1e-3)
        shuffle_rng = np.random.default_rng(4)
        train_epoch(model, state, corpus, shuffle_rng, 1, risk, "first epoch")
        model.encode_corpus(corpus)  # cached by the first epoch; built outside the trace
        tracemalloc.start()
        try:
            train_epoch(model, state, corpus, shuffle_rng, 1, risk, "second epoch")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.step == 6
        assert peak < model.dense.nbytes / 2, peak
        # the same bytes as a fresh gradient buffer every step
        rows = reference.encode_corpus(corpus)
        replay = np.random.default_rng(4)
        for _ in range(2):
            for sent in replay.permutation(len(corpus)):
                probs, cache = reference.forward_rows(rows[corpus.offsets[sent] : corpus.offsets[sent + 1]])
                adam_step(reference, reference.backward_rows(cache, risk(probs, None)[1]), ref_state)
        for (name, p), (_, q) in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(p, q), name
        # the reused buffer's padding between the views stays zero
        grad = state.dense_grad
        assert np.sum(grad != 0.0) == sum(np.sum(x != 0.0) for x in model.dense_views(grad).values())

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backward_into_the_optimisers_buffer_equals_a_fresh_buffer(self, dtype):
        # a fresh-buffer call between two steps into AdamState.dense_grad,
        # in either order, catches a gradient view of a stale buffer
        model = small_model(seed=5, embed=4, window=1, hidden=6, classes=4, dtype=dtype)
        state = AdamState.for_model(model, 1e-2)
        rng = np.random.default_rng(5)
        for step in range(2):
            probs, cache = model.forward_rows(loop_window_rows(rng.integers(0, 8, size=6), model.config.window))
            dprobs = rng.standard_normal(probs.shape)
            if step == 0:
                fresh = model.backward_rows(cache, dprobs)
                into = model.backward_rows(cache, dprobs, out=state.dense_grad)
            else:
                into = model.backward_rows(cache, dprobs, out=state.dense_grad)
                fresh = model.backward_rows(cache, dprobs)
            assert into.dense is state.dense_grad and fresh.dense is not state.dense_grad
            for name in ("embedding_rows", "embedding", "dense", "w1", "b1", "w2", "b2"):
                assert getattr(into, name).tobytes() == getattr(fresh, name).tobytes(), (step, name)
            for name in ("w1", "b1", "w2", "b2"):
                assert np.shares_memory(getattr(into, name), state.dense_grad), (step, name)
                assert not np.shares_memory(getattr(fresh, name), state.dense_grad), (step, name)
            adam_step(model, into, state)

    def test_float32_training_stays_float32(self):
        # a silent upcast anywhere in the step would leave every other test
        # green and give up float32's speed
        model = small_model(seed=4, vocab_words=6, embed=8, window=2, hidden=16, dtype="float32")
        corpus = Corpus(
            [Sentence(tuple(Token(f"w{i}", label, 0) for i, label in zip(ids, labels)))
             for ids, labels in (([1, 2, 3], [0, 1, 0]), ([4, 5], [2, 0]), ([0, 2], [0, 0]))],
            LabelSet(["T1", "T2"]),
        )
        labels = corpus.distant_array()

        def risk(probs, positions):
            assert probs.dtype == np.float64
            values, dprobs = ce_rows(probs, labels[positions])
            return float(values.mean()), dprobs / len(positions), 0

        state = AdamState.for_model(model, 1e-2)
        before = model.copy()
        train_epoch(model, state, corpus, np.random.default_rng(4), 2, risk, "float32 epoch")
        assert state.step == 2
        arrays = [p for _, p in model.parameters()] + [model.dense, state.embedding_m, state.embedding_v,
                                                       state.dense_m, state.dense_v, *state.scratch, state.dense_grad]
        assert all(a.dtype == np.float32 for a in arrays)
        assert not np.array_equal(model.dense, before.dense)

    def test_an_epoch_that_select_empties_steps_nothing_and_draws_one_order(self):
        model = small_model(seed=6, vocab_words=6)
        corpus = Corpus(
            [Sentence(tuple(Token(f"w{i}", 0, 0) for i in ids)) for ids in ([1, 2, 3], [4, 5], [0, 2], [3])],
            LabelSet(["T1", "T2"]),
        )
        seen = []

        def risk(probs, positions):
            seen.append(positions.copy())
            return 0.5, np.zeros_like(probs), 1

        state, before = AdamState.for_model(model, 1e-2), model.copy()
        shuffle_rng, replay = np.random.default_rng(6), np.random.default_rng(6)
        assert train_epoch(model, state, corpus, shuffle_rng, 1, risk, "empty epoch", lambda p: p[:0]) == (0.0, 0)
        assert seen == [] and state.step == 0
        for (name, p), (_, q) in zip(model.parameters(), before.parameters()):
            assert np.array_equal(p, q), name
        # one permutation drawn, so the next epoch's order is the one it
        # would have been after an epoch that stepped
        replay.permutation(len(corpus))
        assert shuffle_rng.bit_generator.state == replay.bit_generator.state
        assert train_epoch(model, state, corpus, shuffle_rng, len(corpus), risk, "next epoch") == (0.5, 1)
        assert len(seen) == 1 and state.step == 1
        assert np.array_equal(seen[0], corpus.token_positions(replay.permutation(len(corpus))))

    def test_gradient_buffer_of_another_shape_rejected(self):
        model = small_model()
        probs, cache = model.forward_rows(loop_window_rows(np.array([2, 3]), model.config.window))
        with pytest.raises(ValueError):
            model.backward_rows(cache, np.ones_like(probs), out=np.zeros(model.dense.size + 1))


class TestPredict:
    def corpus(self):
        ls = LabelSet(["T1", "T2"])
        sents = [Sentence((Token("w1", 0, 0), Token("w2", 1, 1)))]
        return Corpus(sents, ls)

    def test_uniform_model_predicts_zero(self):
        corpus = self.corpus()
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=4, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, corpus.label_set.names)
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        assert predict(model, corpus).tolist() == [0, 0]

    def test_saturated_class(self):
        corpus = self.corpus()
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=4, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, corpus.label_set.names)
        model.w2[:] = 0.0
        model.b2[:] = np.array([0.0, 0.0, 50.0])
        assert predict(model, corpus).tolist() == [2, 2]

    def test_label_set_mismatch(self):
        corpus = self.corpus()
        vocab = build_vocab(corpus)
        cfg = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=4, hidden_dim=4)
        model = TokenClassifier(cfg, vocab, ["A", "B"])
        with pytest.raises(CompatibilityError):
            predict(model, corpus)


B = SCORE_BLOCK_ROWS
# Corpus sizes around the block edges, in tokens.
EDGE_SIZES = [1, B - 1, B, B + 1, 2 * B + 3]


class TestCorpusProbs:
    def test_equals_per_sentence_forward_bitwise(self):
        # Restated for the blocked pass: the bytes are those of forwards over
        # fixed SCORE_BLOCK_ROWS-row blocks of the flat window matrix (built
        # here token by token), not of one forward per sentence.
        corpus, _ = generate_synthetic(
            SyntheticSpec(n_sentences=30, k=2, dict_size=10), np.random.default_rng(2)
        )
        assert B < corpus.n_tokens < 2 * B
        vocab = build_vocab(corpus)
        # Default widths: there a one-sentence forward sums in another order
        # than a block and changes bytes.
        model = TokenClassifier(ModelConfig(vocab_size=vocab.size, n_classes=3), vocab, ["A", "B"])
        rows = np.concatenate(loop_sentence_rows(model, corpus))
        expected = blocked_forward(model, rows, B)
        assert np.array_equal(model.corpus_probs(corpus), expected)
        # the second pass reads the windows the first one built
        assert model.encode_corpus(corpus) is corpus.windows(model.vocab, model.config.window)
        assert np.array_equal(model.corpus_probs(corpus), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(EDGE_SIZES),
        st.lists(st.integers(1, 20), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_close_to_the_per_sentence_forward(self, n_tokens, lengths, seed):
        corpus = cycled_corpus(n_tokens, lengths, np.random.default_rng(seed))
        vocab = Vocab([f"w{i}" for i in range(10)])  # w10 and w11 are unknown
        model = TokenClassifier(
            ModelConfig(vocab_size=vocab.size, n_classes=3, seed=seed), vocab, corpus.label_set.names
        )
        probs = model.corpus_probs(corpus)
        per_sentence = np.concatenate(
            [model.forward_rows(rows)[0] for rows in loop_sentence_rows(model, corpus)]
        )
        np.testing.assert_allclose(probs, per_sentence, rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(predict(model, corpus), np.argmax(probs, axis=1))

    @pytest.mark.parametrize("n_tokens", EDGE_SIZES)
    def test_predict_forwards_once_per_block(self, monkeypatch, n_tokens):
        # Guards against scoring one sentence at a time, which would make a
        # call per sentence here (sentences of one and three tokens).
        corpus = cycled_corpus(n_tokens, [1, 3], np.random.default_rng(0))
        model = small_model(vocab_words=12)
        calls = count_forward_calls(monkeypatch)
        predict(model, corpus)
        assert len(calls) == math.ceil(n_tokens / B)


def cycled_corpus(n_tokens, lengths, rng):
    """An ``n_tokens``-token corpus whose sentence lengths cycle through
    ``lengths`` (the last one cut short), words drawn from w0..w11."""
    words = [f"w{i}" for i in rng.integers(0, 12, size=n_tokens)]
    sentences, start = [], 0
    for length in itertools.cycle(lengths):
        if start == n_tokens:
            break
        end = min(start + length, n_tokens)
        sentences.append(Sentence(tuple(Token(w, 0, 0) for w in words[start:end])))
        start = end
    return Corpus(sentences, LabelSet(["T1", "T2"]))


def edit_header(model, edit):
    """The checkpoint bytes of ``model`` with ``edit`` applied to the parsed
    header, re-encoded as ``save_checkpoint`` encodes it."""
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    raw = buf.getvalue()
    (length,) = struct.unpack("<Q", raw[10:18])
    header = json.loads(raw[18 : 18 + length])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:10] + struct.pack("<Q", len(encoded)) + encoded + raw[18 + length :]


class TestCheckpoint:
    def test_round_trip(self):
        model = small_model(seed=13)
        buf = io.BytesIO()
        save_checkpoint(model, buf)
        buf.seek(0)
        loaded = load_checkpoint(buf)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert loaded.label_names == model.label_names
        for (n, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b), n

    def test_round_trip_preserves_predictions(self):
        model = small_model(seed=14)
        ids = np.array([2, 3, 4])
        buf = io.BytesIO()
        save_checkpoint(model, buf)
        buf.seek(0)
        loaded = load_checkpoint(buf)
        assert np.array_equal(token_probs(model, ids, 1), token_probs(loaded, ids, 1))

    def test_byte_determinism(self):
        a, b = io.BytesIO(), io.BytesIO()
        save_checkpoint(small_model(seed=5), a)
        save_checkpoint(small_model(seed=5), b)
        assert a.getvalue() == b.getvalue()

    def test_float32_round_trip_is_bitwise(self):
        model = small_model(seed=13, dtype="float32")
        buf = io.BytesIO()
        save_checkpoint(model, buf)
        loaded = load_checkpoint(io.BytesIO(buf.getvalue()))
        assert loaded.config == model.config and loaded.config.dtype == "float32"
        for (n, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert b.dtype == np.float32 and a.tobytes() == b.tobytes(), n
        again = io.BytesIO()
        save_checkpoint(loaded, again)
        assert again.getvalue() == buf.getvalue()

    def test_header_without_dtype_loads_as_float64(self):
        # the format written before ModelConfig had a dtype
        model = small_model(seed=13)
        loaded = load_checkpoint(io.BytesIO(edit_header(model, lambda h: h["config"].pop("dtype"))))
        assert loaded.config == model.config and loaded.config.dtype == "float64"
        for (n, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert b.dtype == np.float64 and np.array_equal(a, b), n

    @pytest.mark.parametrize("dtype", ["float16", 32, None, ["float32"]])
    def test_unknown_dtype_is_a_format_error(self, tmp_path, capsys, dtype):
        raw = edit_header(small_model(seed=13), lambda h: h["config"].update(dtype=dtype))
        with pytest.raises(FormatError, match="dtype"):
            load_checkpoint(io.BytesIO(raw))
        (tmp_path / "model.bin").write_bytes(raw)
        assert cli_main(["evaluate", "--model", str(tmp_path / "model.bin"), "--test", str(tmp_path / "t.tsv")]) == 2
        assert "dtype" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e300, -1e300, 0.1, 1e-300])
    def test_value_float32_cannot_hold_is_a_format_error(self, tmp_path, capsys, value):
        # a finite float64 that casts to inf, or rounds, in a float32 model
        buf = io.BytesIO()
        save_checkpoint(small_model(seed=13, dtype="float32"), buf)
        raw = buf.getvalue()
        (length,) = struct.unpack("<Q", raw[10:18])
        first = 18 + length  # the embedding's first value
        raw = raw[:first] + struct.pack("<d", value) + raw[first + 8 :]
        with pytest.raises(FormatError, match="embedding"):
            load_checkpoint(io.BytesIO(raw))
        (tmp_path / "model.bin").write_bytes(raw)
        assert cli_main(["evaluate", "--model", str(tmp_path / "model.bin"), "--test", str(tmp_path / "t.tsv")]) == 2
        assert "embedding" in capsys.readouterr().err

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            load_checkpoint(io.BytesIO(b"not a checkpoint"))

    def test_large_declared_dimensions_allocate_nothing(self):
        buf = io.BytesIO()
        save_checkpoint(small_model(seed=1), buf)
        raw = buf.getvalue()
        (length,) = struct.unpack("<Q", raw[10:18])
        header = json.loads(raw[18 : 18 + length])
        # a consistent header whose w1 alone would take 24 MB; the file ends
        # a few bytes into the arrays
        hidden = 250_000
        header["config"]["hidden_dim"] = hidden
        arrays = header["arrays"]  # embedding, w1, b1, w2, b2
        arrays[1][1][1] = arrays[2][1][0] = arrays[3][1][0] = hidden
        encoded = json.dumps(header).encode("utf-8")
        bad = raw[:10] + struct.pack("<Q", len(encoded)) + encoded + raw[18 + length :][:400]
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(io.BytesIO(bad))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes allocated for a {len(bad)}-byte checkpoint"

    def test_loading_draws_no_initialisation(self, monkeypatch):
        buf = io.BytesIO()
        save_checkpoint(small_model(seed=2), buf)

        def no_draw(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a random initialisation")

        monkeypatch.setattr(np.random, "PCG64", no_draw)
        buf.seek(0)
        load_checkpoint(buf)
