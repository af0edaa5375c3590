"""Property tests for the four readers of user-supplied bytes: corpus TSV,
dictionary TSV, config JSON and model checkpoints. Whatever the bytes, a
reader returns a value or raises a PuclError, which the CLI turns into exit
code 2 or 3; no other exception may escape.

Inputs are valid files with a few bytes replaced, inserted or deleted, and
then possibly truncated. At most three edits keep any number in a header
within three more digits, so a mutated checkpoint never asks for a large
allocation.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pucl.config import config_from_dict
from pucl.corpus import LabelSet, Vocab, read_conll
from pucl.distant import Dictionary, read_dictionary_pairs
from pucl.errors import PuclError
from pucl.model import ModelConfig, TokenClassifier, load_checkpoint, save_checkpoint

CORPUS = (
    "Acme\tORG\tORG\nCorp\tORG\tORG\nhired\tO\tO\nAda\tO\tPER\n.\tO\tO\n\n"
    "the\tO\tO\nLovelace\tPER\n\n"
).encode("utf-8")

DICTIONARY = "acme corp\tORG\nada lovelace\tPER\nbabbage\tPER\n".encode("utf-8")

CONFIG = json.dumps(
    {
        "train": "train.tsv",
        "dict": "dict.tsv",
        "seed": 7,
        "threads": 1,
        "mode": "full",
        "model": {"embed_dim": 8, "hidden_dim": 8},
        "voters": {"count": 2, "epochs": 1, "keep_negative_ratio": 0.5},
        "curriculum": {"tau": 0.5, "eta": 2, "stage_epochs": 1},
        "risk": {"gamma": 5.0, "loss": "ce"},
        "self_train": {"rounds": 1, "epochs": 1},
    }
).encode("utf-8")


def _checkpoint() -> bytes:
    vocab = Vocab(["acme", "corp", "ada"])
    model = TokenClassifier(
        ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=2, window=1, hidden_dim=3),
        vocab, ["ORG", "PER"],
    )
    out = io.BytesIO()
    save_checkpoint(model, out)
    return out.getvalue()


CHECKPOINT = _checkpoint()


@st.composite
def mutated(draw, original: bytes) -> bytes:
    data = bytearray(original)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if edit == "replace":
                data[pos] = byte
            else:
                del data[pos]
    if draw(st.booleans()):
        # Cuts near the start reach every field of a checkpoint's header.
        data = data[: draw(st.integers(0, 64) | st.integers(0, len(data)))]
    return bytes(data)


def text_stream(data: bytes) -> io.TextIOWrapper:
    """The bytes as a file opened in text mode reads them. Undecodable bytes
    become lone surrogates: decoding is the file layer's, not the reader's."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def read_dictionary(stream) -> Dictionary:
    """A dictionary file as ``pucl annotate`` reads it: raw pairs, then a
    ``Dictionary`` over the file's own entity types."""
    pairs, names = read_dictionary_pairs(stream)
    return Dictionary.build(pairs, LabelSet(name for name in names if name != "O"))


def only_pucl_errors(read, data):
    try:
        read(data)
    except PuclError:
        pass


class TestReadersRaiseOnlyPuclErrors:
    def test_originals_are_read(self):
        assert len(read_conll(text_stream(CORPUS))) == 2
        assert len(read_dictionary(text_stream(DICTIONARY)).entries) == 3
        assert config_from_dict(json.loads(CONFIG)).voters.count == 2
        assert load_checkpoint(io.BytesIO(CHECKPOINT)).label_names == ("ORG", "PER")

    @settings(max_examples=300, deadline=None)
    @given(mutated(CORPUS))
    def test_read_conll(self, data):
        only_pucl_errors(lambda d: read_conll(text_stream(d)), data)

    @settings(max_examples=300, deadline=None)
    @given(mutated(DICTIONARY))
    def test_read_dictionary(self, data):
        only_pucl_errors(lambda d: read_dictionary(text_stream(d)), data)

    @settings(max_examples=300, deadline=None)
    @given(mutated(CONFIG))
    def test_config_from_dict(self, data):
        try:
            raw = json.loads(data.decode("utf-8", "surrogateescape"))
        except json.JSONDecodeError:
            return  # load_config reports this as a FormatError before config_from_dict
        only_pucl_errors(config_from_dict, raw)

    @settings(max_examples=300, deadline=None)
    @given(mutated(CHECKPOINT))
    def test_load_checkpoint(self, data):
        only_pucl_errors(lambda d: load_checkpoint(io.BytesIO(d)), data)
