"""A small differentiable token classifier with hand-written gradients.

Architecture: per-token context window of embeddings (padding positions use
a dedicated learned embedding), concatenated and passed through one tanh
hidden layer and a softmax output. Parameters, gradients and Adam's state
take ``ModelConfig.dtype``. The library default is float64, so that
analytic gradients can be checked against finite differences at tight
tolerances; the pipeline trains and scores in float32, which makes every
step kernel faster. Either way the risks and every scored distribution
are float64, and the embedding gradient sums in float64 and rounds once.

Exactness contract: a training step does the textbook float operations in
the textbook order over the rows it is given, so a fixed seed gives the
same bytes however the step is implemented. Every reduction over the
class axis (softmax's max and sum, backward's inner product, the risks'
row sums) goes through ``reduce_classes``: below 8 classes it runs left to
right, one column at a time, which is numpy's order there; from 8 classes
on it is numpy's own reduction, which sums pairwise. A step costs about
what its batch touches: the embedding gradient is compact, one row per
vocabulary row the batch references (no ``[V, d]`` array is built), and
sums each row's contributions in token order starting from 0.0. The dense
layers w1, b1, w2 and b2 are 64-byte aligned views of one flat buffer, and so
are their gradient, Adam's moments and its scratch. ``adam_step`` does
Adam's operations (Kingma & Ba, arXiv:1412.6980) in their usual order:
once over the whole dense buffer in place, since they are elementwise,
and lazily on the embedding: only the rows the batch references step
(lazy Adam, a different optimiser from dense Adam, not a rounding of
it). Each gradient bin sums in token order and Adam's operations are
elementwise, so the step's bytes do not depend on either layout. Every
trainer steps through one minibatch loop, ``train_epoch``, which draws the
epoch's order, selects a batch's rows before the forward pass and returns
the epoch's log record. A voter draws its negative sample there and
computes only the rows the sample keeps. Its step is the full-batch step
with zero-gradient rows for the dropped tokens up to round-off, not
bytewise: the matmuls sum over fewer rows, and a one-row batch goes
through gemv.
Every model reads a corpus through one encoded form, ``Corpus.windows``
(via ``TokenClassifier.encode_corpus``), and takes its batches as slices
of it. Every pass that scores a corpus (``TokenClassifier.corpus_probs``,
``predict``) forwards consecutive blocks of ``SCORE_BLOCK_ROWS`` rows of
the flat window matrix; blocks cross sentence boundaries, since each row
already holds its sentence's padding. A scoring pass has the bytes of that
fixed blocking. A one-sentence forward, or another block size on some
BLAS, may sum in another order and differ in the last bit.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .corpus import Corpus, Vocab
from .errors import CompatibilityError, FormatError, NumericError

_CHECKPOINT_MAGIC = b"PUCLCKPT1\n"
PARAMETER_NAMES = ("embedding", "w1", "b1", "w2", "b2")
#: Window rows per forward pass when a corpus is scored (module docstring).
SCORE_BLOCK_ROWS = 256
#: Tokens per block of a pass that keeps only per-token outputs (difficulty,
#: ``difficulty.tsv``, ``plan.json``); whole scoring blocks, as in ``corpus_probs``.
TOKEN_BLOCK_ROWS = 4 * SCORE_BLOCK_ROWS
#: ``adam_step``'s b1, b2 and eps: Kingma & Ba's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_classes: int
    embed_dim: int = 32
    window: int = 2
    hidden_dim: int = 64
    init_scale: float = 0.1
    seed: int = 0
    dtype: str = "float64"  # or "float32": parameters, gradients and Adam's state

    def __post_init__(self) -> None:
        ints = (self.vocab_size, self.n_classes, self.embed_dim, self.window, self.hidden_dim, self.seed)
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in ints):
            raise ValueError("model dimensions and seed must be integers")
        for key, low in (("vocab_size", 1), ("embed_dim", 1), ("hidden_dim", 1), ("window", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.n_classes < 2:
            raise ValueError("need at least two classes (unlabeled + one entity type)")
        if not 0 < self.init_scale < math.inf:
            raise ValueError(f"init_scale must be positive and finite, got {self.init_scale}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")

    def parameter_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of every parameter array, by name in PARAMETER_NAMES order."""
        d, h, c = self.embed_dim, self.hidden_dim, self.n_classes
        in_dim = (2 * self.window + 1) * d
        return {"embedding": (self.vocab_size, d), "w1": (in_dim, h), "b1": (h,), "w2": (h, c), "b2": (c,)}


@dataclass
class Gradients:
    """A batch's gradients, sized by what the batch touches. ``embedding``
    is [n, d]: row i is the gradient of vocabulary row
    ``embedding_rows[i]``, the sorted rows the batch references; every
    other row's gradient is 0. ``dense`` is one flat buffer laid out like
    the model's (``TokenClassifier.dense_views``), and w1, b1, w2 and b2
    are views of it."""

    embedding_rows: np.ndarray
    embedding: np.ndarray
    dense: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def reduce_classes(op: np.ufunc, values: np.ndarray) -> np.ndarray:
    """``op`` (``np.add``, ``np.maximum``) over the class axis, the last, of
    ``values``, into a new array: bitwise ``op.reduce(values, axis=-1)``.
    Below 8 classes numpy sums left to right, and so does this, one column
    at a time, at a fraction of numpy's per-call cost on a batch of few
    classes. From 8 classes on numpy sums pairwise, so it reduces there."""
    if values.shape[-1] >= 8:
        return op.reduce(values, axis=-1)
    out = values[..., 0].copy()
    for j in range(1, values.shape[-1]):
        op(out, values[..., j], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, in place on ``logits``, which
    it returns; finite for |logits| up to ~1e3 and beyond."""
    logits -= reduce_classes(np.maximum, logits)[..., None]
    np.exp(logits, out=logits)
    logits /= reduce_classes(np.add, logits)[..., None]
    return logits


class TokenClassifier:
    """Embedding table + context-window MLP + softmax.

    ``vocab`` and ``label_names`` travel with the parameters so a checkpoint
    is self-contained. Forward passes are pure functions of (parameters,
    input); training mutates parameters only through ``adam_step``. The
    dense layers w1, b1, w2 and b2 are views of one flat buffer, ``dense``
    (``dense_views``).
    """

    def __init__(
        self, config: ModelConfig, vocab: Vocab, label_names: Sequence[str], params: dict | None = None
    ):
        """Without ``params`` the weights are drawn from N(0, init_scale), the
        biases 0. The dense arrays of ``params`` are copied into ``dense``;
        every array takes the config's dtype."""
        if config.vocab_size != vocab.size:
            raise ValueError(f"config vocab_size {config.vocab_size} != vocab size {vocab.size}")
        if config.n_classes != len(label_names) + 1:
            raise ValueError("n_classes must be number of entity types + 1")
        self.config = config
        self.vocab = vocab
        self.label_names = tuple(label_names)
        shapes = config.parameter_shapes()
        if params is None:
            rng = np.random.Generator(np.random.PCG64(config.seed))
            params = {
                name: rng.normal(0.0, config.init_scale, size=shape) if len(shape) == 2
                else np.zeros(shape)
                for name, shape in shapes.items()
            }
        # Each segment of the flat buffer starts on a multiple of 64 bytes
        # (8 float64s or 16 float32s): at 72 rows, x @ w1 with w1 16 to 48
        # bytes off that boundary measured 1.3-1.5x slower.
        self.dtype = np.dtype(config.dtype)
        self._align = 64 // self.dtype.itemsize
        self._segments, offset = [], 0
        for name in PARAMETER_NAMES[1:]:
            self._segments.append((name, offset, shapes[name]))
            offset += -(-math.prod(shapes[name]) // self._align) * self._align
        self._dense_size = offset
        self.dense = self.dense_buffer()
        for name, view in self.dense_views(self.dense).items():
            view[...] = params[name]
            setattr(self, name, view)
        self.embedding = np.asarray(params["embedding"], dtype=self.dtype)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAMETER_NAMES]

    def dense_buffer(self) -> np.ndarray:
        """A zeroed flat buffer laid out like ``dense``, its data starting on
        a 64-byte boundary."""
        raw = np.zeros(self._dense_size + self._align - 1, dtype=self.dtype)
        start = (-raw.ctypes.data % 64) // self.dtype.itemsize
        return raw[start : start + self._dense_size]

    def dense_views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """The w1, b1, w2 and b2 views of a buffer from ``dense_buffer``;
        each starts on a 64-byte boundary, and the padding between them
        stays zero."""
        return {name: buffer[lo : lo + math.prod(shape)].reshape(shape) for name, lo, shape in self._segments}

    def copy(self) -> "TokenClassifier":
        params = {**dict(self.parameters()), "embedding": self.embedding.copy()}
        return TokenClassifier(self.config, self.vocab, self.label_names, params)

    # -- forward / backward --------------------------------------------------

    def forward_rows(self, rows: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Probabilities [N, n_classes] for window-index rows [N, 2w+1],
        plus the cache backward_rows needs."""
        n = rows.shape[0]
        flat = self.embedding.take(rows, axis=0).reshape(n, -1)
        hidden = flat @ self.w1
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        logits = hidden @ self.w2
        logits += self.b2
        probs = softmax(logits)
        return probs, (rows, flat, hidden, probs)

    def backward_rows(self, cache: tuple, dprobs: np.ndarray, out: np.ndarray | None = None) -> Gradients:
        """Exact gradients of sum_tokens <dprobs_t, probs_t> chained through
        softmax, hidden layer, and embeddings; the embedding's only over
        the rows the batch references. ``dprobs`` is cast to the model's
        dtype. The dense gradient is written into ``out``, a buffer from
        ``dense_buffer`` (its padding is never written, so it stays zero),
        or into a new one."""
        rows, flat, hidden, probs = cache
        if dprobs.shape != probs.shape:
            raise ValueError(f"gradient shape {dprobs.shape} != probs shape {probs.shape}")
        dprobs = dprobs.astype(self.dtype, copy=False)
        if out is not None and out.shape != self.dense.shape:
            raise ValueError(f"dense gradient buffer shape {out.shape} != {self.dense.shape}")
        dense = self.dense_buffer() if out is None else out
        grads = self.dense_views(dense)
        dlogits = dprobs * probs
        inner = reduce_classes(np.add, dlogits)
        np.subtract(dprobs, inner[:, None], out=dlogits)
        dlogits *= probs
        np.matmul(hidden.T, dlogits, out=grads["w2"])
        np.sum(dlogits, axis=0, out=grads["b2"])
        dz1 = dlogits @ self.w2.T  # the hidden layer's gradient, then through tanh:
        slope = np.square(hidden)
        np.subtract(1.0, slope, out=slope)
        dz1 *= slope
        np.matmul(flat.T, dz1, out=grads["w1"])
        np.sum(dz1, axis=0, out=grads["b1"])
        dflat = dz1 @ self.w1.T
        # Each window cell's slot among the referenced rows; one flat
        # bincount then sums every (slot, column) bin in token order, in
        # float64 starting from 0.0: bitwise what np.add.at into float64
        # gives, without its per-element overhead, rounded once to the
        # model's dtype. Only the two index arrays have a vocabulary row
        # each; no float array does.
        vocab_size, d = self.config.vocab_size, self.config.embed_dim
        rows = rows.astype(np.intp, copy=False)  # fancy indexing by int32 cells took 2.6-3.7x as long
        referenced = np.zeros(vocab_size, dtype=bool)
        referenced[rows] = True
        touched = np.flatnonzero(referenced)
        slot = np.empty(vocab_size, dtype=np.intp)
        slot[touched] = np.arange(len(touched))
        bins = (slot[rows].reshape(-1, 1) * d + np.arange(d)).ravel()
        dembed = np.bincount(bins, weights=dflat.ravel(), minlength=len(touched) * d)
        return Gradients(touched, dembed.astype(self.dtype, copy=False).reshape(-1, d), dense, **grads)

    # -- corpus helpers ------------------------------------------------------

    def encode_corpus(self, corpus: Corpus) -> np.ndarray:
        """The corpus's window rows under this model's vocabulary and window
        (``Corpus.windows``): built once, shared by every model that has
        the same vocabulary and window."""
        return corpus.windows(self.vocab, self.config.window)

    def corpus_probs(self, corpus: Corpus) -> np.ndarray:
        """[n_tokens, n_classes] class distributions of every token of the
        corpus, in flat token order (``rows_probs`` of its window rows)."""
        return self.rows_probs(self.encode_corpus(corpus))

    def rows_probs(self, rows: np.ndarray) -> np.ndarray:
        """[len(rows), n_classes] class distributions of window rows, one
        forward pass per consecutive block of ``SCORE_BLOCK_ROWS`` rows."""
        out = np.empty((len(rows), self.config.n_classes))
        for lo in range(0, len(rows), SCORE_BLOCK_ROWS):
            out[lo : lo + SCORE_BLOCK_ROWS] = self.forward_rows(rows[lo : lo + SCORE_BLOCK_ROWS])[0]
        return out


@dataclass
class AdamState:
    """Adam's moments: the embedding's pair, stepped row by row, and the
    dense layers' pair as flat buffers laid out like ``model.dense``, with
    two flat scratch buffers of the same layout and the dense gradient
    buffer that ``train_epoch`` has every step's ``backward_rows``
    overwrite."""

    learning_rate: float
    embedding_m: np.ndarray
    embedding_v: np.ndarray
    dense_m: np.ndarray
    dense_v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    dense_grad: np.ndarray
    step: int = 0

    @staticmethod
    def for_model(model: TokenClassifier, learning_rate: float) -> "AdamState":
        if not 0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        return AdamState(
            learning_rate,
            np.zeros_like(model.embedding),
            np.zeros_like(model.embedding),
            model.dense_buffer(),
            model.dense_buffer(),
            (model.dense_buffer(), model.dense_buffer()),
            model.dense_buffer(),
        )


def adam_step(model: TokenClassifier, grads: Gradients, state: AdamState) -> None:
    """Adam with bias correction; a non-finite gradient raises NumericError
    before anything changes.

    For the embedding rows in ``grads.embedding_rows`` and then for the flat
    dense buffer this computes, in this order and in place::

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)

    with c1 = 1 - b1**step and c2 = 1 - b2**step, ``step`` counting every
    call. The embedding is lazy (TF Addons' LazyAdam): its referenced rows
    are gathered, stepped and scattered back, and every other row keeps its
    parameter, m and v bitwise. The dense buffer's zero padding stays zero.
    """
    rows, d = grads.embedding_rows, model.config.embed_dim
    if grads.dense.shape != model.dense.shape or grads.embedding.shape != (len(rows), d):
        raise ValueError("gradient/parameter shape mismatch")
    if not (np.isfinite(grads.embedding).all() and np.isfinite(grads.dense).all()):
        bad = next(name for name in PARAMETER_NAMES if not np.isfinite(getattr(grads, name)).all())
        raise NumericError(f"non-finite gradient in {bad} at step {state.step + 1}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    lazy = tuple(a.take(rows, axis=0) for a in (model.embedding, state.embedding_m, state.embedding_v))
    for (p, m, v), g, (update, denom) in (
        (lazy, grads.embedding, (np.empty_like(grads.embedding), np.empty_like(grads.embedding))),
        ((model.dense, state.dense_m, state.dense_v), grads.dense, state.scratch),
    ):
        np.multiply(g, 1.0 - b1, out=update)
        m *= b1
        m += update
        np.multiply(g, 1.0 - b2, out=update)
        update *= g
        v *= b2
        v += update
        np.divide(m, corr1, out=update)
        update *= state.learning_rate
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        p -= update
    model.embedding[rows], state.embedding_m[rows], state.embedding_v[rows] = lazy


#: (float64 probs, flat token positions) -> (risk value, dprobs, clamped count)
BatchRisk = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray, int]]


def train_epoch(
    model: TokenClassifier,
    adam: AdamState,
    corpus: Corpus,
    shuffle_rng: np.random.Generator,
    batch_size: int,
    batch_risk: BatchRisk,
    where: str,
    select: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, int]:
    """One epoch over one ``shuffle_rng.permutation`` of the corpus's
    sentences, ``batch_size`` per batch: the minibatch loop of every trainer.

    ``select`` maps a batch's flat token positions to the ones it trains
    on, before the forward pass: staged training's active tokens, voter
    training's negative sample. A batch it leaves empty is skipped, so
    whatever random stream ``select`` draws from does not depend on the
    skip. A non-finite risk raises NumericError with ``where`` (the voter,
    the stage and epoch, or the self-training round) in its message.
    Returns the epoch's log record: the mean risk of the batches stepped
    on, 0.0 if there were none, and their total clamped count.
    """
    rows = model.encode_corpus(corpus)
    order = shuffle_rng.permutation(len(corpus))
    # The epoch's token positions, and where each sentence of it ends.
    epoch_positions = corpus.token_positions(order)
    ends = [0, *np.cumsum(np.diff(corpus.offsets)[order]).tolist()]
    values: list[float] = []
    clamped_total = 0
    for start in range(0, len(order), batch_size):
        positions = epoch_positions[ends[start] : ends[min(start + batch_size, len(order))]]
        if select is not None:
            positions = select(positions)
        if len(positions) == 0:
            continue
        probs, cache = model.forward_rows(rows[positions])
        value, dprobs, clamped = batch_risk(probs.astype(np.float64, copy=False), positions)
        if not np.isfinite(value):
            raise NumericError(f"non-finite risk ({where})")
        values.append(value)
        clamped_total += clamped
        adam_step(model, model.backward_rows(cache, dprobs, out=adam.dense_grad), adam)
    return float(np.mean(values)) if values else 0.0, clamped_total


def predict(model: TokenClassifier, corpus: Corpus) -> np.ndarray:
    """Argmax label of every token, as one flat array in corpus token order;
    ties go to the smallest class id (np.argmax picks the first maximum)."""
    if corpus.label_set.names != model.label_names:
        raise CompatibilityError(
            f"label sets differ: model {list(model.label_names)} "
            f"vs corpus {list(corpus.label_set.names)}"
        )
    return np.argmax(model.corpus_probs(corpus), axis=1)


# --- checkpoint format ----------------------------------------------------
#
# magic "PUCLCKPT1\n", then an 8-byte little-endian header length, then a
# UTF-8 JSON header {config, labels, vocab, arrays: [[name, shape], ...]},
# then each array's raw bytes as little-endian float64 in header order; the
# file ends there. The arrays are float64 whatever ``config.dtype`` says:
# float32 -> float64 -> float32 is exact. A config without ``dtype`` (an
# older checkpoint) is float64.


def save_checkpoint(model: TokenClassifier, stream: BinaryIO) -> None:
    arrays = model.parameters()
    header = json.dumps(
        {
            "config": asdict(model.config),
            "labels": list(model.label_names),
            "vocab": list(model.vocab.words()),
            "arrays": [[name, list(arr.shape)] for name, arr in arrays],
        },
        sort_keys=True,
    ).encode("utf-8")
    stream.write(_CHECKPOINT_MAGIC)
    stream.write(struct.pack("<Q", len(header)))
    stream.write(header)
    for _, arr in arrays:
        stream.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytearray:
    """``size`` bytes of ``stream``, read in bounded chunks so that a corrupt
    size never sizes an allocation; FormatError if the stream ends first."""
    out = bytearray()
    while len(out) < size:
        chunk = stream.read(min(size - len(out), 1 << 20))
        if not chunk:
            raise FormatError(f"checkpoint truncated in {what}")
        out += chunk
    return out


def load_checkpoint(stream: BinaryIO) -> TokenClassifier:
    """Read a checkpoint written by ``save_checkpoint``; anything else (a
    truncated file, bytes after the last array, a parameter that is
    non-finite or that the config's dtype cannot hold exactly) raises
    FormatError. An array's bytes are read before anything is
    allocated for it."""
    magic = stream.read(len(_CHECKPOINT_MAGIC))
    if magic != _CHECKPOINT_MAGIC:
        raise FormatError("not a model checkpoint (bad magic)")
    length = stream.read(8)
    if len(length) != 8:
        raise FormatError("checkpoint truncated in the header length")
    (header_len,) = struct.unpack("<Q", length)
    raw_header = _read_exact(stream, header_len, "the header")
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"checkpoint header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
    missing = [key for key in ("config", "labels", "vocab", "arrays") if key not in header]
    if missing:
        raise FormatError(f"checkpoint header lacks {', '.join(missing)}")
    words, labels, arrays = header["vocab"], header["labels"], header["arrays"]
    if not (
        isinstance(header["config"], dict)
        and isinstance(words, list)
        and isinstance(labels, list)
        and all(isinstance(x, str) for x in words + labels)
    ):
        raise FormatError("checkpoint header has a malformed config, vocab or label list")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a model: {exc}") from exc
    expected = [[name, list(shape)] for name, shape in config.parameter_shapes().items()]
    if arrays != expected:
        raise FormatError(f"checkpoint arrays do not match its config; expected {expected}")
    params = {
        name: np.frombuffer(_read_exact(stream, 8 * math.prod(shape), f"array {name}"), "<f8")
        .reshape(shape)
        for name, shape in expected
    }
    if stream.read(1):
        raise FormatError("checkpoint has bytes after its last array")
    with np.errstate(over="ignore"):  # a value beyond the dtype's range casts to inf, caught below
        cast = {name: arr.astype(config.dtype, copy=False) for name, arr in params.items()}
    non_finite = [name for name, arr in cast.items() if not np.isfinite(arr).all()]
    if non_finite:
        raise FormatError(f"checkpoint has non-finite values in {', '.join(non_finite)}")
    inexact = [name for name in params if not np.array_equal(cast[name], params[name])]
    if inexact:
        raise FormatError(f"checkpoint has values in {', '.join(inexact)} that {config.dtype} cannot hold")
    params = cast
    try:
        return TokenClassifier(config, Vocab(words), labels, params)
    except ValueError as exc:
        raise FormatError(f"checkpoint header does not describe a model: {exc}") from exc


def load_model(path: str | Path) -> TokenClassifier:
    """``load_checkpoint`` on a file; a missing file is a CompatibilityError."""
    if not Path(path).exists():
        raise CompatibilityError(f"model checkpoint not found: {path}")
    with open(path, "rb") as f:
        return load_checkpoint(f)
