"""The config contract, generated from the dataclasses that define it.

Every field of ``PipelineConfig`` and of each of its sections is a JSON key.
A number field refuses booleans, strings and (a float field) NaN and the
infinities; a bool field refuses 0, 1 and strings; a ``Literal`` field
refuses a string outside its choices. Each refusal is a FormatError that
names the key and its section. A key set to its field's default gives the
all-default config. No pipeline runs here.
"""

import dataclasses
import math
import typing

import numpy as np
import pytest

from pucl.config import PipelineConfig, config_from_dict
from pucl.corpus import Vocab
from pucl.curriculum import StageSchedule
from pucl.errors import FormatError
from pucl.model import AdamState, ModelConfig, TokenClassifier
from pucl.risk import Priors

MINIMAL = {"train": "train.tsv"}
# The JSON key of every top-level field that is not named as its key.
JSON_KEYS = {"dict_path": "dict"}


def _fields():
    """(section or None, JSON key, type, field) of every config field."""
    out = []
    top = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        if dataclasses.is_dataclass(top[f.name]):
            hints = typing.get_type_hints(top[f.name])
            out += [(f.name, g.name, hints[g.name], g) for g in dataclasses.fields(top[f.name])]
        else:
            out.append((None, JSON_KEYS.get(f.name, f.name), top[f.name], f))
    return out


FIELDS = _fields()
REFUSED = {
    int: [True, False, "1"],
    float: [True, False, "0.5", math.nan, math.inf, -math.inf],
    bool: [0, 1, "true"],
}
# Strings that a ``Literal`` field refuses: none is one of its choices.
OUTSIDE_THE_CHOICES = ["hinge", "CE", ""]
LITERALS = [(section, key, f) for section, key, kind, f in FIELDS if typing.get_origin(kind) is typing.Literal]


def _refused(kind):
    return OUTSIDE_THE_CHOICES if typing.get_origin(kind) is typing.Literal else REFUSED.get(kind, [])


def _config(section, key, value):
    return config_from_dict({**MINIMAL, section: {key: value}} if section else {**MINIMAL, key: value})


def _name(section, key):
    return f"{section}.{key}" if section else key


def test_every_kind_of_field_is_covered():
    kinds = [kind for _, _, kind, _ in FIELDS]
    assert all(kinds.count(kind) >= 3 for kind in REFUSED)
    assert {_name(section, key) for section, key, _ in LITERALS} >= {"voters.loss", "risk.loss"}


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param(section, key, value, id=f"{_name(section, key)}={value!r}")
        for section, key, kind, _ in FIELDS
        for value in _refused(kind)
    ],
)
def test_a_value_of_the_wrong_kind_is_refused_by_name(section, key, value):
    with pytest.raises(FormatError) as raised:
        _config(section, key, value)
    message = str(raised.value)
    assert repr(key) in message
    assert section is None or f"config section {section!r}" in message


@pytest.mark.parametrize(
    "section, key, f",
    [
        pytest.param(section, key, f, id=_name(section, key))
        for section, key, _, f in FIELDS
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ],
)
def test_every_default_round_trips(section, key, f):
    default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
    if dataclasses.is_dataclass(default):  # a whole section, written out field by field
        default = dataclasses.asdict(default)
    assert _config(section, key, default) == config_from_dict(MINIMAL)


NON_FINITE = [math.nan, math.inf, -math.inf]
SECTIONS = typing.get_type_hints(PipelineConfig)


@pytest.mark.parametrize(
    "section, f, value",
    [
        pytest.param(section, f, value, id=f"{_name(section, key)}={value!r}")
        for section, key, kind, f in FIELDS
        if kind is float
        for value in NON_FINITE
    ],
)
def test_a_section_refuses_a_non_finite_float_at_construction(section, f, value):
    # Load refuses these before any section is built; a library caller
    # building the section itself gets a ValueError.
    with pytest.raises(ValueError):
        SECTIONS[section](**{f.name: value})


@pytest.mark.parametrize(
    "section, f, value",
    [
        pytest.param(section, f, value, id=f"{_name(section, key)}={value!r}")
        for section, key, f in LITERALS
        for value in OUTSIDE_THE_CHOICES
    ],
)
def test_a_section_refuses_a_string_outside_a_literals_choices_at_construction(section, f, value):
    with pytest.raises(ValueError):
        SECTIONS[section](**{f.name: value})


def _model():
    vocab = Vocab(["a"])
    return TokenClassifier(ModelConfig(vocab.size, 2, embed_dim=2, hidden_dim=2), vocab, ["T"])


# The library values behind the sections, and the two that no section holds.
BEHIND_THE_SECTIONS = {
    "StageSchedule.learning_rate": lambda v: StageSchedule(learning_rate=v),
    "ModelConfig.init_scale": lambda v: ModelConfig(3, 2, init_scale=v),
    "Priors": lambda v: Priors(np.array([v])),
    "AdamState.for_model": lambda v: AdamState.for_model(_model(), v),
}


@pytest.mark.parametrize(
    "name, value", [pytest.param(name, v, id=f"{name}={v!r}") for name in BEHIND_THE_SECTIONS for v in NON_FINITE]
)
def test_a_library_value_refuses_non_finite_at_construction(name, value):
    with pytest.raises(ValueError):
        BEHIND_THE_SECTIONS[name](value)
